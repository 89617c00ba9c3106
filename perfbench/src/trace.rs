//! In-memory spans and per-layer self time.
//!
//! A span is a named interval with an optional parent and the id of the
//! request that caused it. Spans are recorded from the benchmark's own
//! files, around calls into each layer's public functions; they stay in
//! memory and are written out once, when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval, in nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary name, e.g. `cache.lookup`.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The request this span belongs to.
    pub request: u64,
}

impl Span {
    /// Wall time of the span.
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// A span recorder for one client thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

impl Tracer {
    /// An empty tracer whose clock starts at `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    /// Tags the spans that follow with request id `request`.
    pub fn begin_request(&mut self, request: u64) {
        self.request = request;
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let index = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            request: self.request,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end = self.now();
        out
    }

    /// Records an interval measured elsewhere (e.g. on the wire) as a
    /// root span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        let at = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start: at(start),
            end: at(end),
            parent: None,
            request: self.request,
        });
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Moves `other`'s spans into this tracer, re-pointing parents.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Renders every span as one JSON object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start, s.end, s.request
            );
        }
        out
    }
}

/// Self time of `parent`: its duration minus the part of it covered by
/// the union of `children` (each clipped to the parent; overlapping
/// children are not counted twice).
pub fn self_time(parent: &Span, children: &[&Span]) -> u64 {
    let mut parts: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start.max(parent.start), c.end.min(parent.end)))
        .filter(|(a, b)| a < b)
        .collect();
    parts.sort_unstable();
    let mut covered = 0;
    let mut reach = parent.start;
    for (a, b) in parts {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    parent.duration() - covered
}

/// Per span name: (summed self time in ns, number of spans).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut children: Vec<Vec<&Span>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push(s);
        }
    }
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let slot = out.entry(s.name).or_default();
        slot.0 += self_time(s, &children[i]);
        slot.1 += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            request: 1,
        }
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let parent = span("request", 0, 100, None);
        let a = span("a", 10, 40, Some(0));
        let b = span("b", 30, 60, Some(0));
        // Union of the children: [10, 60) = 50 ns.
        assert_eq!(self_time(&parent, &[&a, &b]), 50);
        // A child nested inside another adds nothing.
        let c = span("c", 15, 20, Some(0));
        assert_eq!(self_time(&parent, &[&a, &c, &b]), 50);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let parent = span("request", 100, 200, None);
        let early = span("early", 50, 120, Some(0));
        let late = span("late", 190, 300, Some(0));
        assert_eq!(self_time(&parent, &[&early, &late]), 70);
        let outside = span("outside", 300, 400, Some(0));
        assert_eq!(self_time(&parent, &[&outside]), 100);
    }

    #[test]
    fn tracer_nests_and_totals_self_time_per_name() {
        let mut t = Tracer::new(Instant::now());
        t.begin_request(7);
        t.span("request", |t| {
            t.span("parse", |_| ());
            t.span("build", |_| ());
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.request == 7));
        let totals = self_times(spans);
        let whole = spans[0].duration();
        let parts: u64 = totals["parse"].0 + totals["build"].0;
        assert_eq!(totals["request"].0 + parts, whole);
        assert_eq!(totals["request"].1, 1);
    }

    #[test]
    fn absorbed_parents_stay_attached() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch);
        a.span("x", |_| ());
        let mut b = Tracer::new(epoch);
        b.span("outer", |t| t.span("inner", |_| ()));
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        assert_eq!(a.to_jsonl().lines().count(), 3);
    }
}
