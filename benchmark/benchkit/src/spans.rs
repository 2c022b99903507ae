//! In-memory spans for the traced run, and the self-time arithmetic over
//! them. The spans are recorded by the benchmark around its calls into each
//! layer's public functions; the program under test carries none.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call: `[start_ns, end_ns)` since the tracer's epoch, the span
/// that was open when it began, and the op/job/cell index it belongs to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

/// Handle of an open span, returned by [`Tracer::enter`].
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

/// Records spans on one thread. A disabled tracer records nothing, so the
/// same replay code runs traced and untraced and their wall-time difference
/// is the tracing overhead.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under whichever span is open now.
    pub fn enter(&mut self, name: &'static str, request: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.stack.last().copied(),
            request,
        });
        self.stack.push(id);
        // Stamp last, so the span covers the call and not its own recording.
        let start_ns = self.now_ns();
        self.spans[id].start_ns = start_ns;
        self.spans[id].end_ns = start_ns;
        Open(Some(id))
    }

    /// Close a span. Spans close in the reverse of the order they opened.
    pub fn exit(&mut self, open: Open) {
        if let Some(id) = open.0 {
            let end_ns = self.now_ns();
            assert_eq!(self.stack.pop(), Some(id), "spans must nest");
            self.spans[id].end_ns = end_ns;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Make room for `additional` spans now, so that recording them later
    /// does not reallocate inside a timed region.
    pub fn reserve(&mut self, additional: usize) {
        if self.enabled {
            self.spans.reserve(additional);
        }
    }

    /// Durations in nanoseconds of the spans named `name` recorded at or
    /// after index `from`.
    pub fn durations_ns(&self, from: usize, name: &str) -> Vec<f64> {
        self.spans[from..]
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTime {
    pub calls: u64,
    /// Sum of the spans' durations.
    pub total_ns: u64,
    /// Sum of the spans' durations minus the part their children cover.
    pub self_ns: u64,
}

/// A span's self time is its duration minus the part of its interval that
/// its child spans cover: children are clipped to the parent and overlapping
/// children (parallel parts) are counted once.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            let clipped = (span.start_ns.clamp(lo, hi), span.end_ns.clamp(lo, hi));
            children[p].push(clipped);
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (span, kids) in spans.iter().zip(children.iter_mut()) {
        kids.sort_unstable();
        let mut covered = 0u64;
        let mut reach = span.start_ns;
        for &(start, end) in kids.iter() {
            let from = start.max(reach);
            if end > from {
                covered += end - from;
                reach = end;
            }
        }
        let total = span.end_ns - span.start_ns;
        let layer = out.entry(span.name).or_default();
        layer.calls += 1;
        layer.total_ns += total;
        layer.self_ns += total - covered;
    }
    out
}

/// The trace file: one JSON object per span, in recording order, so `parent`
/// indexes into the same array.
pub fn to_json(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96 + 2);
    out.push('[');
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":",
            s.name, s.start_ns, s.end_ns
        );
        match s.parent {
            Some(p) => {
                let _ = write!(out, "{p}");
            }
            None => out.push_str("null"),
        }
        let _ = write!(out, ",\"request\":{}}}", s.request);
    }
    out.push_str("\n]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request: 0,
        }
    }

    #[test]
    fn nested_children_are_subtracted_once_per_level() {
        // root 0..100 ⊃ mid 10..60 ⊃ leaf 20..30; root also ⊃ other 70..90.
        let spans = [
            span("root", 0, 100, None),
            span("mid", 10, 60, Some(0)),
            span("leaf", 20, 30, Some(1)),
            span("other", 70, 90, Some(0)),
        ];
        let t = self_times(&spans);
        assert_eq!(t["root"].self_ns, 100 - 50 - 20);
        assert_eq!(t["mid"].self_ns, 50 - 10);
        assert_eq!(t["leaf"].self_ns, 10);
        assert_eq!(t["other"].self_ns, 20);
        let sum: u64 = t.values().map(|l| l.self_ns).sum();
        assert_eq!(sum, 100, "self times partition the root interval");
    }

    #[test]
    fn overlapping_children_count_once_and_are_clipped() {
        // Two parallel parts overlap on 30..50; a third runs past the parent.
        let spans = [
            span("root", 0, 100, None),
            span("part", 10, 50, Some(0)),
            span("part", 30, 70, Some(0)),
            span("late", 90, 130, Some(0)),
        ];
        let t = self_times(&spans);
        // covered: 10..70 (60) + 90..100 (10)
        assert_eq!(t["root"].self_ns, 30);
        assert_eq!(t["part"].calls, 2);
        assert_eq!(t["part"].total_ns, 80);
        assert_eq!(t["late"].self_ns, 40);
    }

    #[test]
    fn tracer_records_parents_and_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(true);
        let a = t.enter("a", 7);
        let b = t.enter("b", 7);
        t.exit(b);
        t.exit(a);
        let c = t.enter("c", 8);
        t.exit(c);
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(
            (s[0].parent, s[1].parent, s[2].parent),
            (None, Some(0), None)
        );
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert_eq!(s[2].request, 8);
        let json = to_json(s);
        assert!(json.contains("\"name\":\"b\"") && json.contains("\"parent\":0"));
        assert!(json.contains("\"parent\":null"));

        let mut off = Tracer::new(false);
        let x = off.enter("x", 0);
        off.exit(x);
        assert!(off.spans().is_empty());
    }
}
