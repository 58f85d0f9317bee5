//! Spans taken from outside: the benchmark wraps each call it makes
//! into a layer (name, start, end, parent, op id). Spans stay in memory
//! and are written to `trace.jsonl` when the run ends; a span's self
//! time is its duration minus what its children cover. Spans *inside*
//! the engine are a later change (ROADMAP item 1a).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// The operation this span belongs to; spans of one op share it.
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Aggregate {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Self time of every span: duration minus the children's durations.
/// One thread records, so siblings never overlap.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut out: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(parent) = s.parent.and_then(|p| out.get_mut(p)) {
            *parent = parent.saturating_sub(s.end_ns - s.start_ns);
        }
    }
    out
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Switch recording on or off (a traced run alternates rounds to
    /// price the spans themselves: `trace_overhead_pct`).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, op: u64) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            op,
            parent: self.open.last().copied(),
            start_ns: now,
            end_ns: now,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        Some(id)
    }

    /// Close the span `begin` returned (and any left open inside it).
    pub fn end(&mut self, id: Option<usize>) {
        let Some(id) = id else { return };
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            if let Some(s) = self.spans.get_mut(top) {
                s.end_ns = now;
            }
            if top == id {
                break;
            }
        }
    }

    /// Time `f` (always) and record it as a leaf span (when enabled).
    pub fn time<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> (T, Duration) {
        let id = self.begin(name, op);
        let started = Instant::now();
        let out = f();
        let elapsed = started.elapsed();
        self.end(id);
        (out, elapsed)
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn aggregate(&self) -> BTreeMap<&'static str, Aggregate> {
        let selfs = self_times(&self.spans);
        let mut out: BTreeMap<&'static str, Aggregate> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(selfs) {
            let a = out.entry(s.name).or_default();
            a.count += 1;
            a.total_ns += s.end_ns - s.start_ns;
            a.self_ns += self_ns;
        }
        out
    }

    /// One JSON object per span, in start order.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let selfs = self_times(&self.spans);
        let mut text = String::new();
        for (id, (s, self_ns)) in self.spans.iter().zip(selfs).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{{\"id\":{id},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
                s.name, s.op, s.start_ns, s.end_ns
            );
        }
        let mut file = std::fs::File::create(path)?;
        file.write_all(text.as_bytes())?;
        file.flush()
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            op: 1,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let spans = vec![
            span("rpc", None, 0, 100),
            span("execute", Some(0), 10, 70),
            span("decode", Some(1), 20, 50),
            span("encode", Some(0), 70, 90),
        ];
        assert_eq!(self_times(&spans), vec![20, 30, 30, 20]);
    }

    #[test]
    fn tracer_nests_and_aggregates() {
        let mut t = Tracer::new(true);
        let outer = t.begin("outer", 7);
        let (v, _) = t.time("leaf", 7, || 41 + 1);
        assert_eq!(v, 42);
        t.time("leaf", 7, || ());
        t.end(outer);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans[0].end_ns >= spans[2].end_ns);
        let agg = t.aggregate();
        assert_eq!(agg["leaf"].count, 2);
        assert_eq!(
            agg["outer"].self_ns,
            agg["outer"].total_ns - agg["leaf"].total_ns
        );
    }

    #[test]
    fn a_disabled_tracer_still_times() {
        let mut t = Tracer::new(false);
        let (_, d) = t.time("x", 0, || std::thread::sleep(Duration::from_millis(2)));
        assert!(d >= Duration::from_millis(2));
        assert!(t.spans().is_empty());
    }
}
