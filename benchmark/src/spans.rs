//! Benchmark-side spans: recorded around the calls into each layer, kept in
//! memory, written once at exit as a Chrome trace-event file. Spans inside
//! `crates/` are a later issue; these are taken from outside.

use std::time::Instant;

/// Index of a span in its [`Spans`] store; `NO_PARENT` marks a root.
pub type SpanId = usize;
pub const NO_PARENT: SpanId = usize::MAX;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    /// Nanoseconds since the store's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: SpanId,
    /// One identifier per operation: every span of one op shares it.
    pub op: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span store. A disabled store records nothing, so the untraced
/// pass runs the very same workload code.
pub struct Spans {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(enabled: bool) -> Spans {
        Spans { enabled, epoch: Instant::now(), spans: Vec::new() }
    }

    /// The instant span timestamps count from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn ns_of(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Open a span now; close it with [`Spans::end`].
    pub fn begin(&mut self, name: &str, parent: SpanId, op: u64) -> SpanId {
        let now = self.now_ns();
        self.push(name, now, now, parent, op)
    }

    pub fn end(&mut self, id: SpanId) {
        if id != NO_PARENT {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Record a finished span with explicit endpoints.
    pub fn push(
        &mut self,
        name: &str,
        start_ns: u64,
        end_ns: u64,
        parent: SpanId,
        op: u64,
    ) -> SpanId {
        if !self.enabled {
            return NO_PARENT;
        }
        self.spans.push(Span { name: name.to_string(), start_ns, end_ns, parent, op });
        self.spans.len() - 1
    }

    /// Time `f` under a span named `name`.
    pub fn time<T>(&mut self, name: &str, parent: SpanId, op: u64, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, parent, op);
        let out = f();
        self.end(id);
        out
    }

    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in seconds of every span called `name`.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.duration_ns() as f64 / 1e9).collect()
    }

    /// Self time per span: its duration minus the part of that interval its
    /// direct children cover (overlapping children are merged first, so
    /// concurrent children never push a self time below zero).
    pub fn self_times_ns(&self) -> Vec<u64> {
        self_times_ns(&self.spans)
    }

    /// The store as a Chrome trace-event document (`chrome://tracing`,
    /// Perfetto): complete `"X"` events, one track per operation.
    pub fn to_chrome_trace(&self) -> String {
        let self_ns = self.self_times_ns();
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = if s.parent == NO_PARENT { -1 } else { s.parent as i64 };
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":0,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"span\":{i},\"parent\":{parent},\"op\":{},\"self_us\":{:.3}}}}}",
                s.name,
                s.op,
                s.start_ns as f64 / 1e3,
                s.duration_ns() as f64 / 1e3,
                s.op,
                self_ns[i] as f64 / 1e3,
            ));
        }
        out.push_str("]}");
        out
    }
}

pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            let p = &spans[s.parent];
            // Only the part of the child inside the parent's interval counts.
            let (a, b) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
            if b > a {
                children[s.parent].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = 0u64;
            for &(a, b) in kids.iter() {
                let a = a.max(cursor);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: u64, end: u64, parent: SpanId) -> Span {
        Span { name: name.to_string(), start_ns: start, end_ns: end, parent, op: 0 }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let spans = vec![
            span("root", 0, 100, NO_PARENT),
            span("a", 10, 40, 0),
            span("b", 50, 90, 0),
            span("a.inner", 15, 25, 1),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 40, 10]);
        // Self times of a tree add up to the root's duration.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_not_double_counted() {
        let spans = vec![
            span("root", 100, 200, NO_PARENT),
            // Two concurrent children overlapping on [130, 150].
            span("w0", 110, 150, 0),
            span("w1", 130, 170, 0),
            // A child that ends after its parent: only [190, 200] counts.
            span("late", 190, 250, 0),
        ];
        // Covered: [110,170] = 60 plus [190,200] = 10.
        assert_eq!(self_times_ns(&spans)[0], 30);
    }

    #[test]
    fn disabled_store_records_nothing() {
        let mut s = Spans::new(false);
        let id = s.begin("x", NO_PARENT, 1);
        s.end(id);
        assert_eq!(s.time("y", id, 1, || 7), 7);
        assert!(s.all().is_empty());
    }

    #[test]
    fn chrome_trace_is_valid_json() {
        let mut s = Spans::new(true);
        let root = s.push("op", 0, 2_000, NO_PARENT, 3);
        s.push("phylo.io.phylip_parse", 100, 1_100, root, 3);
        let doc = obs::json::parse(&s.to_chrome_trace()).expect("valid JSON");
        let Some(obs::json::Json::Arr(events)) = doc.get("traceEvents") else {
            panic!("traceEvents array missing");
        };
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("dur").and_then(|d| d.as_f64()), Some(1.0));
        let args = events[0].get("args").expect("args");
        assert_eq!(args.get("self_us").and_then(|d| d.as_f64()), Some(1.0));
    }
}
