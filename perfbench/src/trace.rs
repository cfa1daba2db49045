//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each layer
//! (name, start, end, parent, op id), kept in memory, and written out
//! as JSON lines when the run ends. A span's self time is its duration
//! minus the part of its interval that its child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer boundary, e.g. `stg.state_graph`.
    pub name: &'static str,
    /// Start (ns since epoch).
    pub start: u64,
    /// End (ns since epoch); equal to `start` while the span is open.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The operation this span belongs to.
    pub op: u64,
}

impl Span {
    fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Time and call count of every span with one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Total {
    /// Summed duration (ns).
    pub total_ns: u64,
    /// Summed self time (ns).
    pub self_ns: u64,
    /// Number of spans.
    pub calls: u64,
}

/// Records spans on one thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
    counters: BTreeMap<String, f64>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose epoch is now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
            counters: BTreeMap::new(),
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Tags the spans that follow with operation `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Opens a span nested in the innermost open one; returns its index.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let start = self.now();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (and any span left open inside it).
    pub fn end(&mut self, id: usize) {
        let end = self.now();
        while let Some(top) = self.open.pop() {
            self.spans[top].end = end;
            if top == id {
                break;
            }
        }
    }

    /// Runs `f` inside a leaf span called `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Adds `value` to the counter `name`.
    pub fn add(&mut self, name: &str, value: f64) {
        match self.counters.get_mut(name) {
            Some(c) => *c += value,
            None => {
                self.counters.insert(name.to_string(), value);
            }
        }
    }

    /// The value of counter `name` (0 when never added to).
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// Duration (ns) of span `id`.
    pub fn duration(&self, id: usize) -> u64 {
        self.spans[id].duration()
    }

    /// Totals per span name, self time included.
    pub fn totals(&self) -> BTreeMap<&'static str, Total> {
        let self_times = self_times(&self.spans);
        let mut out: BTreeMap<&'static str, Total> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(self_times) {
            let t = out.entry(span.name).or_default();
            t.total_ns += span.duration();
            t.self_ns += self_ns;
            t.calls += 1;
        }
        out
    }

    /// Renders every span as one JSON object per line, after `header`
    /// (itself one JSON object).
    pub fn to_jsonl(&self, header: &str) -> String {
        let self_times = self_times(&self.spans);
        let mut out = String::with_capacity(96 * (self.spans.len() + 1));
        out.push_str(header);
        out.push('\n');
        for (id, (s, self_ns)) in self.spans.iter().zip(self_times).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start, s.end, s.op
            );
        }
        out
    }
}

/// Self time of every span: its duration minus the union of its direct
/// children's intervals, clipped to its own interval.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                let b = b.min(s.end);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration() - covered.min(s.duration())
        })
        .collect()
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
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("op", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 40, 70, Some(0)),
            span("a.inner", 12, 20, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![50, 12, 30, 8]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span("op", 10, 100, None),
            span("x", 0, 30, Some(0)),
            span("y", 20, 50, Some(0)),
            span("z", 90, 120, Some(0)),
        ];
        // Covered inside [10, 100]: [10, 50] and [90, 100] → 50 ns.
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn recorded_spans_nest_and_total() {
        let mut tr = Tracer::new();
        tr.set_op(7);
        let op = tr.begin("op");
        tr.span("leaf", || std::hint::black_box(3) + 1);
        tr.span("leaf", || ());
        tr.end(op);
        let spans = &tr.spans;
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.op == 7 && s.end >= s.start));
        let totals = tr.totals();
        assert_eq!(totals["leaf"].calls, 2);
        let op_total = totals["op"];
        assert_eq!(
            op_total.self_ns + totals["leaf"].total_ns,
            op_total.total_ns,
            "children fit inside the op span"
        );
        let jsonl = tr.to_jsonl("{\"seed\":1}");
        assert_eq!(jsonl.lines().count(), 4);
        assert!(jsonl.contains("\"name\":\"leaf\""));
    }
}
