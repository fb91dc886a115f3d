//! Seeded request generation.
//!
//! Every workload is a fixed list of `run` request lines per client,
//! derived only from the workload, the seed and the run length: the
//! same arguments give byte-identical lines, and the daemon receives
//! nothing else. Request counts are fixed by these arguments (not by
//! how fast the program answers), so two builds do identical work.

use oranges_campaign::{CampaignSpec, ExperimentKind, Priority};
use oranges_gemm::gemm_flops;
use oranges_harness::envelope::Request;
use oranges_harness::json::{self, JsonValue};
use oranges_soc::chip::ChipGeneration;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Two clients re-run the full paper grid against a warm daemon.
    WarmGrid,
    /// Two clients (high and batch) send seeded single-size Fig. 2
    /// requests that always miss the cache.
    ColdSweep,
    /// `run_campaign` of the paper grid in-process on a fresh cache.
    GridInproc,
}

impl Workload {
    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        [
            Workload::WarmGrid,
            Workload::ColdSweep,
            Workload::GridInproc,
        ]
        .into_iter()
        .find(|workload| workload.name() == name)
    }

    /// The workload's name on the command line.
    pub fn name(&self) -> &'static str {
        match self {
            Workload::WarmGrid => "warm_grid",
            Workload::ColdSweep => "cold_sweep",
            Workload::GridInproc => "grid_inproc",
        }
    }

    /// Whether the workload talks to a daemon over loopback TCP.
    pub fn is_wire(&self) -> bool {
        !matches!(self, Workload::GridInproc)
    }

    /// Requests per client per second of `--seconds`: sized so that one
    /// run measures for about that long on a 2-core host.
    fn requests_per_client_second(&self) -> f64 {
        match self {
            Workload::WarmGrid => 90.0,
            Workload::ColdSweep => 5.5,
            Workload::GridInproc => 1.5,
        }
    }
}

/// SplitMix64: a small, fixed generator, so the request sequence does
/// not depend on any library's stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

/// One generated request: the spec and the exact line sent for it.
#[derive(Debug, Clone)]
pub struct GenRequest {
    /// Correlation id carried in the line.
    pub id: u64,
    /// The spec the line carries.
    pub spec: CampaignSpec,
    /// The newline-terminated request line.
    pub line: String,
}

/// One client's fixed request sequence.
#[derive(Debug, Clone)]
pub struct ClientPlan {
    /// Scheduling class of every request.
    pub priority: Priority,
    /// Requests in send order.
    pub requests: Vec<GenRequest>,
}

/// Build the `run` request line for `spec`, in the shape the service
/// client sends (priority field only when not `normal`).
pub fn run_line(id: u64, spec: &CampaignSpec, priority: Priority) -> String {
    let mut body = json::parse(&spec.to_json()).expect("spec JSON parses");
    if let JsonValue::Object(fields) = &mut body {
        if priority != Priority::Normal {
            fields.push((
                "priority".to_string(),
                JsonValue::String(priority.as_str().to_string()),
            ));
        }
    }
    Request::new(id, "run").with_body(body).to_line()
}

fn request(id: u64, spec: CampaignSpec, priority: Priority) -> GenRequest {
    let line = run_line(id, &spec, priority);
    GenRequest { id, spec, line }
}

/// The set-up request that fills a daemon's cache: the paper grid.
pub fn fill_request() -> GenRequest {
    request(1, CampaignSpec::paper_grid(), Priority::Normal)
}

/// Smallest and largest Fig. 2 size of a `cold_sweep` request.
pub const COLD_N: (usize, usize) = (128, 384);

/// `draws` (chip pair, size) draws for `cold_sweep`. The draws are a
/// fixed design — sizes stratified over [`COLD_N`] and visited with a
/// golden-ratio stride, so large and small sizes alternate; ordered chip
/// pairs cycling evenly — and the seed rotates where the sequence
/// starts. Every seed sends the same work in the same cyclic order, so
/// runs differ by seed only as much as the program does.
fn cold_draws(rng: &mut Rng, draws: usize) -> Vec<(Vec<ChipGeneration>, usize)> {
    let (lo, hi) = COLD_N;
    let span = hi - lo + 1;
    let stride = (draws * 38 / 100..)
        .find(|&s| gcd(s, draws) == 1)
        .expect("some stride is coprime");
    let chips = ChipGeneration::ALL;
    let mut design: Vec<(Vec<ChipGeneration>, usize)> = (0..draws)
        .map(|k| {
            let first = k % chips.len();
            let second = (first + 1 + (k / chips.len()) % (chips.len() - 1)) % chips.len();
            let stratum = k * stride % draws;
            let n = lo + (2 * stratum + 1) * span / (2 * draws);
            (vec![chips[first], chips[second]], n)
        })
        .collect();
    design.rotate_left(rng.below(draws as u64) as usize);
    design
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Generate every client's request sequence.
pub fn generate(workload: Workload, seed: u64, seconds: u64) -> Vec<ClientPlan> {
    let mut rng = Rng::new(seed);
    let count = ((seconds as f64 * workload.requests_per_client_second()).round() as usize).max(3);
    match workload {
        Workload::WarmGrid => [Priority::High, Priority::Batch]
            .into_iter()
            .map(|priority| {
                let base = 1 + rng.below(1 << 30);
                ClientPlan {
                    priority,
                    requests: (0..count as u64)
                        .map(|i| request(base + i, CampaignSpec::paper_grid(), priority))
                        .collect(),
                }
            })
            .collect(),
        Workload::ColdSweep => {
            // One rotation for both clients keeps their relative
            // alignment — and with it which units share the two workers —
            // the same for every seed.
            let draws = cold_draws(&mut rng, count.div_ceil(2));
            [Priority::High, Priority::Batch]
                .into_iter()
                .enumerate()
                .map(|(client, priority)| {
                    let base = 1 + rng.below(1 << 30);
                    let requests = draws
                        .iter()
                        .cloned()
                        // Each draw is sent twice in a row, so even- and
                        // odd-numbered requests carry the same work.
                        .flat_map(|draw| [draw.clone(), draw])
                        .enumerate()
                        .map(|(i, (chips, n))| {
                            // The ceiling admits the spec's one size whatever
                            // the offset, so the work is unchanged; the offset
                            // is unique per request, so every unit key is new
                            // to the daemon's cache.
                            let unique = 1 + client as u64 * 1_000_000 + i as u64;
                            let spec = CampaignSpec::new(vec![ExperimentKind::Fig2], chips)
                                .with_gemm_sizes(vec![n])
                                .with_verify_max_flops(gemm_flops(n as u64) + unique)
                                .with_workers(2);
                            request(base + i as u64, spec, priority)
                        })
                        .collect();
                    ClientPlan { priority, requests }
                })
                .collect()
        }
        Workload::GridInproc => vec![ClientPlan {
            priority: Priority::Normal,
            requests: (0..count as u64)
                .map(|i| {
                    request(
                        1 + i,
                        CampaignSpec::paper_grid().with_workers(2),
                        Priority::Normal,
                    )
                })
                .collect(),
        }],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oranges_campaign::Plan;
    use std::collections::HashSet;

    fn lines(plans: &[ClientPlan]) -> Vec<String> {
        plans
            .iter()
            .flat_map(|plan| plan.requests.iter().map(|r| r.line.clone()))
            .collect()
    }

    #[test]
    fn same_seed_gives_byte_identical_requests() {
        for workload in [
            Workload::WarmGrid,
            Workload::ColdSweep,
            Workload::GridInproc,
        ] {
            assert_eq!(
                lines(&generate(workload, 42, 2)),
                lines(&generate(workload, 42, 2))
            );
        }
        assert_ne!(
            lines(&generate(Workload::ColdSweep, 42, 2)),
            lines(&generate(Workload::ColdSweep, 43, 2))
        );
    }

    #[test]
    fn lines_carry_their_spec_and_priority() {
        for plan in generate(Workload::ColdSweep, 7, 2) {
            for request in &plan.requests {
                let parsed = Request::from_line(&request.line).expect("line parses");
                assert_eq!(parsed.id, request.id);
                let body = parsed.body.expect("run body");
                assert_eq!(
                    CampaignSpec::from_json_value(&body).expect("spec parses"),
                    request.spec
                );
                assert_eq!(
                    body.get("priority").and_then(JsonValue::as_str),
                    Some(plan.priority.as_str())
                );
            }
        }
    }

    #[test]
    fn cold_sweep_units_are_distinct_fig2_cells_in_range() {
        let mut keys = HashSet::new();
        for plan in generate(Workload::ColdSweep, 11, 4) {
            for request in &plan.requests {
                let spec = &request.spec;
                assert_eq!(spec.chips.len(), 2);
                assert_ne!(spec.chips[0], spec.chips[1]);
                let n = spec.gemm_sizes.as_ref().expect("sizes")[0];
                assert!((COLD_N.0..=COLD_N.1).contains(&n));
                let n = n as u64;
                // The spec's one size is verified, whatever the offset.
                assert!(spec.verify_max_flops.expect("ceiling") > gemm_flops(n));
                for unit in Plan::expand(spec).units {
                    assert!(keys.insert(unit.key), "every unit is a fresh key");
                }
            }
        }
        // The fill's Fig. 2 units never collide with a sweep unit.
        for unit in Plan::expand(&fill_request().spec).units {
            assert!(!keys.contains(&unit.key));
        }
    }

    #[test]
    fn every_cold_seed_sends_the_same_mix_of_work() {
        let mix = |seed| {
            let mut draws: Vec<(Vec<ChipGeneration>, usize)> =
                generate(Workload::ColdSweep, seed, 10)
                    .into_iter()
                    .flat_map(|plan| plan.requests)
                    .map(|r| (r.spec.chips.clone(), r.spec.gemm_sizes.expect("sizes")[0]))
                    .collect();
            draws.sort();
            draws
        };
        assert_eq!(mix(3), mix(4), "same work whatever the seed");
        // Consecutive requests repeat one draw under different keys.
        let plan = &generate(Workload::ColdSweep, 3, 10)[0];
        for pair in plan.requests.chunks(2).filter(|pair| pair.len() == 2) {
            assert_eq!(pair[0].spec.chips, pair[1].spec.chips);
            assert_eq!(pair[0].spec.gemm_sizes, pair[1].spec.gemm_sizes);
            assert_ne!(pair[0].spec.verify_max_flops, pair[1].spec.verify_max_flops);
        }
    }

    #[test]
    fn request_counts_follow_the_run_length() {
        let warm = generate(Workload::WarmGrid, 1, 10);
        assert_eq!(warm.len(), 2);
        assert!(warm.iter().all(|plan| plan.requests.len() == 900));
        assert_eq!(generate(Workload::GridInproc, 1, 10)[0].requests.len(), 15);
    }
}
