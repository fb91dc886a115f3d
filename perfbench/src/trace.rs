//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a name, a start and an end (nanoseconds since the run's
//! origin), the request it belongs to and the span that caused it.
//! Spans are kept in memory while the run measures and written out as
//! JSON lines when it ends. A span's *self time* is its duration minus
//! the part of its interval that its child spans cover.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique within the run.
    pub id: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// The request every span of one request shares.
    pub request: u64,
    /// Layer boundary name (`"spec.parse"`, …).
    pub name: &'static str,
    /// Start, nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's origin.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span that has started and not yet ended.
#[derive(Debug)]
#[must_use = "an open span is recorded only when closed"]
pub struct Open {
    id: u64,
    parent: Option<u64>,
    request: u64,
    name: &'static str,
    start_ns: u64,
}

impl Open {
    /// The span's id, to parent child spans on.
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// Per-thread span store. Recorders on different threads share an
/// origin and use disjoint id ranges, so their spans merge into one
/// trace.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    next_id: u64,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder whose ids start at `id_base`.
    pub fn new(origin: Instant, id_base: u64) -> Self {
        Recorder {
            origin,
            next_id: id_base,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Start a span.
    pub fn open(&mut self, name: &'static str, request: u64, parent: Option<u64>) -> Open {
        let id = self.next_id;
        self.next_id += 1;
        Open {
            id,
            parent,
            request,
            name,
            start_ns: self.now_ns(),
        }
    }

    /// End a span and keep it.
    pub fn close(&mut self, open: Open) {
        let end_ns = self.now_ns();
        self.spans.push(Span {
            id: open.id,
            parent: open.parent,
            request: open.request,
            name: open.name,
            start_ns: open.start_ns,
            end_ns,
        });
    }

    /// Run `f` inside a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<u64>,
        f: impl FnOnce() -> R,
    ) -> R {
        let open = self.open(name, request, parent);
        let result = f();
        self.close(open);
        result
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span, by span id: duration minus the union of
/// its children's intervals, each child clipped to the parent.
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for span in spans {
        if let Some(parent) = span.parent {
            children
                .entry(parent)
                .or_default()
                .push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .map(|span| {
            let covered = children
                .get_mut(&span.id)
                .map(|intervals| covered_ns(intervals, span.start_ns, span.end_ns))
                .unwrap_or(0);
            (span.id, span.duration_ns().saturating_sub(covered))
        })
        .collect()
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let start = start.max(reach);
        let end = end.min(hi);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

/// Per-request sums of the self time of spans named `name`, in
/// milliseconds, one sample per request that has such a span.
pub fn per_request_ms(spans: &[Span], self_ns: &HashMap<u64, u64>, name: &str) -> Vec<f64> {
    let mut sums: HashMap<u64, u64> = HashMap::new();
    for span in spans.iter().filter(|span| span.name == name) {
        *sums.entry(span.request).or_default() += self_ns[&span.id];
    }
    let mut requests: Vec<(u64, u64)> = sums.into_iter().collect();
    requests.sort_unstable();
    requests
        .into_iter()
        .map(|(_, ns)| ns as f64 / 1e6)
        .collect()
}

/// Write every span as one JSON line (with its self time).
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let self_ns = self_times(spans);
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for span in spans {
        let parent = span
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
            span.id, parent, span.request, span.name, span.start_ns, span.end_ns, self_ns[&span.id]
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            request: 7,
            name: "s",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, None, 0, 100),
            // Two overlapping children cover 10..40, a third 60..70.
            span(2, Some(1), 10, 30),
            span(3, Some(1), 20, 40),
            span(4, Some(1), 60, 70),
            // A grandchild counts against its own parent only.
            span(5, Some(4), 62, 66),
        ];
        let self_ns = self_times(&spans);
        assert_eq!(self_ns[&1], 100 - 30 - 10);
        assert_eq!(self_ns[&2], 20);
        assert_eq!(self_ns[&3], 20);
        assert_eq!(self_ns[&4], 10 - 4);
        assert_eq!(self_ns[&5], 4);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        // A child that outlives its parent covers only the overlap.
        let spans = vec![span(1, None, 50, 80), span(2, Some(1), 40, 60)];
        assert_eq!(self_times(&spans)[&1], 20);
        // A child wholly outside covers nothing.
        let spans = vec![span(1, None, 50, 80), span(2, Some(1), 90, 95)];
        assert_eq!(self_times(&spans)[&1], 30);
    }

    #[test]
    fn per_request_sums_group_by_request() {
        let mut spans = vec![
            span(1, None, 0, 2_000_000),
            span(2, None, 0, 1_000_000),
            span(3, None, 0, 500_000),
        ];
        spans[2].request = 9;
        let self_ns = self_times(&spans);
        assert_eq!(per_request_ms(&spans, &self_ns, "s"), vec![3.0, 0.5]);
        assert!(per_request_ms(&spans, &self_ns, "other").is_empty());
    }

    #[test]
    fn recorder_links_children_to_parents() {
        let mut recorder = Recorder::new(Instant::now(), 100);
        let root = recorder.open("request", 1, None);
        let root_id = root.id();
        recorder.time("child", 1, Some(root_id), || ());
        recorder.close(root);
        let spans = recorder.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, Some(root_id));
        assert_eq!(spans[1].id, root_id);
        assert!(spans[1].start_ns <= spans[0].start_ns && spans[0].end_ns <= spans[1].end_ns);
    }
}
