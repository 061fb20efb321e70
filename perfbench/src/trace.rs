//! In-memory spans recorded by the traced run around calls into each layer.
//!
//! A span has a name, a start and an end (nanoseconds since the run's
//! epoch), the span that caused it, and the id of the request it belongs
//! to. Spans stay in memory and are written out as JSON lines when the run
//! ends. A layer's self time is its span's duration minus the part of that
//! interval its children cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span in its [`Trace`].
pub type SpanId = usize;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer boundary name, e.g. `core.search.run`.
    pub name: &'static str,
    /// Start, nanoseconds since the trace epoch.
    pub start: u64,
    /// End, nanoseconds since the trace epoch.
    pub end: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// The request the span belongs to (0 outside requests).
    pub request: u64,
}

/// A span store with a shared epoch.
#[derive(Debug)]
pub struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Trace {
    /// An empty trace whose clock starts at `epoch`.
    pub fn new(epoch: Instant) -> Trace {
        Trace {
            epoch,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds from the epoch to `at`.
    pub fn offset(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        request: u64,
    ) -> SpanId {
        let span = Span {
            name,
            start: self.offset(start),
            end: self.offset(end),
            parent,
            request,
        };
        self.push(span)
    }

    /// Records a span given in epoch offsets.
    pub fn push(&mut self, span: Span) -> SpanId {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Times `f` as a span and returns its result and the span id.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce(&mut Trace, Option<SpanId>) -> T,
    ) -> (T, SpanId) {
        // Reserve the slot first so children recorded inside `f` can name
        // this span as their parent.
        let id = self.push(Span {
            name,
            start: 0,
            end: 0,
            parent,
            request,
        });
        let start = Instant::now();
        let value = f(self, Some(id));
        let end = Instant::now();
        self.spans[id].start = self.offset(start);
        self.spans[id].end = self.offset(end);
        (value, id)
    }

    /// All spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in milliseconds of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start) as f64 / 1e6)
            .collect()
    }

    /// Total self time in milliseconds per span name.
    pub fn self_times_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent].push((span.start, span.end));
            }
        }
        let mut totals = BTreeMap::new();
        for (span, kids) in self.spans.iter().zip(&children) {
            *totals.entry(span.name).or_insert(0.0) +=
                self_time(span.start, span.end, kids) as f64 / 1e6;
        }
        totals
    }

    /// The spans as JSON lines.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start, s.end, s.request
            );
        }
        out
    }
}

/// Self time of a span over `[start, end)`: its duration minus the length
/// of the union of its children's intervals clipped to it. Overlapping
/// children are counted once.
pub fn self_time(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut cursor = start;
    for (s, e) in clipped {
        let s = s.max(cursor);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    (end - start).saturating_sub(covered)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        assert_eq!(self_time(0, 100, &[]), 100);
        assert_eq!(self_time(0, 100, &[(10, 20), (30, 50)]), 70);
        // Overlapping children are counted once.
        assert_eq!(self_time(0, 100, &[(10, 40), (20, 60), (50, 55)]), 50);
        // Nested children too.
        assert_eq!(self_time(0, 100, &[(10, 90), (20, 30)]), 20);
        // Children reaching past the parent are clipped to it.
        assert_eq!(self_time(10, 20, &[(0, 15), (18, 40)]), 3);
        // Children wholly outside the parent cover nothing.
        assert_eq!(self_time(10, 20, &[(30, 40)]), 10);
        assert_eq!(self_time(0, 10, &[(0, 10), (0, 10)]), 0);
    }

    #[test]
    fn traces_attribute_self_time_per_name() {
        let mut trace = Trace::new(Instant::now());
        let root = trace.push(Span {
            name: "request",
            start: 0,
            end: 1_000_000,
            parent: None,
            request: 1,
        });
        trace.push(Span {
            name: "wire",
            start: 100_000,
            end: 600_000,
            parent: Some(root),
            request: 1,
        });
        trace.push(Span {
            name: "wire",
            start: 500_000,
            end: 900_000,
            parent: Some(root),
            request: 1,
        });
        let selfs = trace.self_times_ms();
        assert!((selfs["request"] - 0.2).abs() < 1e-9);
        assert!((selfs["wire"] - 0.9).abs() < 1e-9);
        assert_eq!(trace.durations_ms("wire").len(), 2);
        assert_eq!(trace.to_json_lines().lines().count(), 3);
    }

    #[test]
    fn timed_spans_nest_under_their_parent() {
        let mut trace = Trace::new(Instant::now());
        let ((), outer) = trace.time("setup", None, 0, |t, parent| {
            t.time("persist.read", parent, 0, |_, _| ());
        });
        assert_eq!(trace.spans()[1].parent, Some(outer));
        assert!(trace.spans()[outer].end >= trace.spans()[1].end);
    }
}
