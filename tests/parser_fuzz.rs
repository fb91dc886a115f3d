//! Fuzzing every parser that takes bytes from outside the program: the
//! JSON parser, wire request envelopes, campaign specs and cache files.
//!
//! Inputs are arbitrary bytes, byte-level mutations of recorded
//! documents (the docs/PROTOCOL.md §10 session, campaign specs and a
//! saved cache file), and deep-nesting prefixes. The only allowed
//! outcome is a value or a typed error: a panic fails the test, and a
//! stack overflow aborts the whole test binary.

use oranges_campaign::prelude::*;
use oranges_harness::envelope::Request;
use oranges_harness::json::{self, MAX_DEPTH};
use proptest::collection::vec;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

/// The client and server lines of the recorded session in
/// docs/PROTOCOL.md §10 (the `unit` line trimmed to one set).
const SESSION: &[&str] = &[
    r#"{"id":1,"method":"ping"}"#,
    r#"{"id":2,"method":"run","body":{"experiments":["fig4"],"chips":["M2"],"power_sizes":[2048]}}"#,
    r#"{"id":3,"method":"stats"}"#,
    r#"{"id":4,"method":"nonesuch"}"#,
    "this is not json",
    r#"{"id":5,"method":"shutdown"}"#,
    r#"{"id":1,"kind":"pong"}"#,
    r#"{"id":2,"kind":"unit","body":{"index":0,"id":"fig4","params":"chip=M2;sizes=2048","source":"computed","from_cache":false,"wall_time_s":0.000279979,"sets":[{"provenance":{"experiment":"fig4","chip":"M2","params":"chip=M2;sizes=2048","power":{"package_watts":4.643,"energy_j":63.502674365823,"window_s":13.677078261,"dvfs_cap":1}},"implementation":"CPU-Single","n":2048,"metrics":[{"name":"gflops_per_watt","value":{"Float":0.27047167779195},"unit":"GFLOPS/W"}]}]}}"#,
    r#"{"id":2,"kind":"done","body":{"units":1,"computed_units":1,"coalesced_units":0,"fingerprint":"10fadd834fccef58","model_digest":"b2d98ac9c92d8c4e","wall_s":0.003132686,"cache":{"hits":0,"misses":1,"entries":1}}}"#,
    r#"{"id":3,"kind":"stats","body":{"cache":{"hits":0,"misses":1,"entries":1},"model_digest":"b2d98ac9c92d8c4e","connections":1,"active_connections":1,"requests":3,"runs":1,"units_streamed":1,"units_computed":1,"unit_cache_hits":0,"coalesced_joins":0}}"#,
    r#"{"id":4,"kind":"error","error":"unknown method 'nonesuch'"}"#,
    r#"{"id":0,"kind":"error","error":"envelope error: json parse error at byte 0: expected 'true'"}"#,
    r#"{"id":5,"kind":"bye"}"#,
];

/// Bytes a mutation inserts or overwrites with when it picks a JSON
/// structural byte instead of a random one.
const STRUCTURAL: &[u8] = b"[]{}\":,\\-.0eu tfn";

/// Every mutation seed: the session lines, two campaign specs, and a
/// cache file saved from a real (small) run.
fn seeds() -> &'static [Vec<u8>] {
    static SEEDS: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    SEEDS.get_or_init(|| {
        let spec = CampaignSpec::new(
            vec![ExperimentKind::Fig4, ExperimentKind::Tables],
            vec![ChipGeneration::M1],
        )
        .with_power_sizes(vec![2048]);
        let cache = ResultCache::new();
        run_campaign(&spec, &cache).expect("seed campaign");
        let path = scratch_file("seed");
        cache.save(&path).expect("save seed cache");
        let cache_file = std::fs::read(&path).expect("read seed cache");
        std::fs::remove_file(&path).ok();

        let mut seeds: Vec<Vec<u8>> = SESSION
            .iter()
            .map(|line| line.as_bytes().to_vec())
            .collect();
        seeds.push(CampaignSpec::paper_grid().to_json().into_bytes());
        seeds.push(
            spec.with_shard(0, 2)
                .expect("valid shard")
                .to_json()
                .into_bytes(),
        );
        seeds.push(cache_file);
        seeds
    })
}

fn scratch_file(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("oranges-fuzz-{}-{name}.json", std::process::id()))
}

/// Apply byte-level edits `(position, byte, op)` to `seed`: ops 0/1
/// overwrite/insert a random byte, 2/3 overwrite/insert a structural
/// byte, and 4 deletes.
fn mutate(seed: &[u8], edits: &[(usize, u8, u8)]) -> Vec<u8> {
    let mut bytes = seed.to_vec();
    for &(position, byte, op) in edits {
        let at = position % (bytes.len() + 1);
        let byte = if op >= 2 {
            STRUCTURAL[byte as usize % STRUCTURAL.len()]
        } else {
            byte
        };
        match op {
            4 if at < bytes.len() => {
                bytes.remove(at);
            }
            0 | 2 if at < bytes.len() => bytes[at] = byte,
            _ => bytes.insert(at, byte),
        }
    }
    bytes
}

/// Feed one input to every parser. Each must return a value or a
/// typed error; a document the JSON parser accepts must survive its own
/// re-emission. The cache loader reads the raw bytes from `file`, so it
/// also sees invalid UTF-8.
fn every_parser_returns(bytes: &[u8], file: &Path) -> Result<(), TestCaseError> {
    let text = String::from_utf8_lossy(bytes);
    if let Ok(value) = json::parse(&text) {
        prop_assert_eq!(json::parse(&value.to_json_string()), Ok(value));
    }
    if let Ok(request) = Request::from_line(&text) {
        if let Some(body) = &request.body {
            let _ = CampaignSpec::from_json_value(body);
        }
    }
    let _ = CampaignSpec::from_json(&text);
    std::fs::write(file, bytes).expect("write the fuzzed cache file");
    let _ = ResultCache::load(file);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_never_panic_a_parser(bytes in vec(any::<u8>(), 0..512)) {
        let file = scratch_file("arbitrary");
        every_parser_returns(&bytes, &file)?;
        std::fs::remove_file(&file).ok();
    }

    #[test]
    fn mutated_recorded_documents_never_panic_a_parser(
        seed in any::<usize>(),
        edits in vec((any::<usize>(), any::<u8>(), 0u8..5), 1..16),
    ) {
        let seeds = seeds();
        let file = scratch_file("mutated");
        every_parser_returns(&mutate(&seeds[seed % seeds.len()], &edits), &file)?;
        std::fs::remove_file(&file).ok();
    }

    #[test]
    fn deep_nesting_is_a_typed_error_past_max_depth(
        depth in 1usize..1024,
        object in any::<bool>(),
        closed in any::<bool>(),
    ) {
        let (open, close) = if object { ("{\"k\":", "}") } else { ("[", "]") };
        let mut document = format!("{}1", open.repeat(depth));
        if closed {
            document.push_str(&close.repeat(depth));
        }
        prop_assert_eq!(
            json::parse(&document).is_ok(),
            closed && depth <= MAX_DEPTH,
            "depth {} closed {}", depth, closed
        );
        // The same prefix as a request body, a spec and a cache file.
        let line = format!("{{\"id\":2,\"method\":\"run\",\"body\":{document}}}");
        let file = scratch_file("deep");
        every_parser_returns(line.as_bytes(), &file)?;
        every_parser_returns(document.as_bytes(), &file)?;
        std::fs::remove_file(&file).ok();
    }
}
