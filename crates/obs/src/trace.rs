//! Request-scoped distributed tracing: causal span trees from the wire to
//! the kernel rounds.
//!
//! The metrics in [`crate::Registry`] answer "how slow is the service";
//! this module answers "*which job* was slow and *where* the time went".
//! A trace is a tree of [`Span`]s keyed by a 64-bit trace ID that is
//! carried in the `Submit` frame, journaled with the job, and attached as
//! an exemplar to the latency histograms — so a p99 spike links straight
//! back to a replayable span tree.
//!
//! ## Deterministic IDs
//!
//! Trace IDs are a pure function of `(tenant, idempotency key, per-service
//! admission counter)` mixed through [`splitmix64`], and span IDs are a
//! pure function of `(trace, span name, slot)` — no RNG, no clock, no
//! global sequence. Two consequences:
//!
//! * A journal replay that re-admits the same submissions reproduces the
//!   *identical* trace tree, so a trace captured in production can be
//!   re-derived offline.
//! * A span's ID can be computed *before* the span is emitted: the worker
//!   thread parents its per-round kernel spans under the "run" span's ID
//!   while the run span itself is emitted later from the feeder thread,
//!   without any cross-thread coordination.
//!
//! ## Overhead contract
//!
//! Same house style as the metric handles: a disabled tracer's
//! [`Tracer::span`] is one relaxed load and a branch — zero heap
//! operations, proven by the `trace_span_overhead` counting-allocator test
//! at the workspace root. Emitting never touches floating-point state, so
//! enabling tracing cannot perturb log-likelihood bit-identity (asserted
//! end-to-end by `tests/trace_e2e.rs`).

use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// SplitMix64: the one-shot mixer used across the workspace for
/// deterministic, stateless ID derivation (also the hash behind
/// `cellsim::fault`'s counter-mode draws).
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// 64-bit FNV-1a over a byte string (also the registry's shard hash).
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Map 0 to a fixed non-zero value: trace/span ID 0 means "unset"
/// everywhere, so derived IDs must never be 0.
#[inline]
fn nonzero(x: u64) -> u64 {
    if x == 0 {
        0x9E37_79B9_7F4A_7C15
    } else {
        x
    }
}

/// Derive a trace ID from the submission identity: who (`tenant`), the
/// client's exactly-once key (`idem`, empty when absent), and the
/// service's admission counter (which makes concurrent no-idem submissions
/// distinct while staying replay-deterministic — the journal records
/// admissions in order, so replay re-derives the same counter values).
pub fn trace_id(tenant: &str, idem: &str, counter: u64) -> u64 {
    nonzero(splitmix64(fnv1a(tenant.as_bytes()) ^ splitmix64(fnv1a(idem.as_bytes()) ^ counter)))
}

/// Derive a span ID from its trace, name, and slot (e.g. the SPR round
/// number, or 0 for singleton spans like "queue"/"run"/"seal").
pub fn span_id(trace: u64, name: &str, slot: u64) -> u64 {
    nonzero(splitmix64(trace ^ fnv1a(name.as_bytes()) ^ splitmix64(slot)))
}

/// A propagated trace context: the trace a piece of work belongs to and
/// the span it should parent under. `trace == 0` means "not traced".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpanCtx {
    pub trace: u64,
    pub span: u64,
}

impl SpanCtx {
    /// The untraced context.
    pub const NONE: SpanCtx = SpanCtx { trace: 0, span: 0 };

    /// A root context for `trace` (spans parent at the root).
    pub fn root(trace: u64) -> SpanCtx {
        SpanCtx { trace, span: 0 }
    }

    /// Whether this context carries a trace.
    #[inline]
    pub fn is_set(self) -> bool {
        self.trace != 0
    }

    /// The child context under the span `(name, slot)` of this trace —
    /// usable before that span is emitted (IDs are content-derived).
    pub fn child(self, name: &str, slot: u64) -> SpanCtx {
        if !self.is_set() {
            return SpanCtx::NONE;
        }
        SpanCtx { trace: self.trace, span: span_id(self.trace, name, slot) }
    }
}

/// One completed span: a named `[start_ns, end_ns)` interval on the
/// service's shared clock, parented inside its trace (`parent == 0` for
/// roots). `aux` is display-only context (worker index, round number).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub aux: u64,
}

impl Span {
    /// The span's duration — exactly `end_ns - start_ns`, the same
    /// integer the coherence sites feed to the latency histograms.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Bounded span storage: completed traces in insertion order, oldest
/// evicted past `cap`.
#[derive(Debug, Default)]
struct Store {
    traces: HashMap<u64, Vec<Span>>,
    order: VecDeque<u64>,
    cap: usize,
}

/// The span sink. Clones share storage and the enabled flag, exactly like
/// the registry's metric handles; a disabled tracer's emit path is one
/// relaxed load and a branch.
#[derive(Debug, Clone)]
pub struct Tracer {
    enabled: Arc<AtomicBool>,
    store: Arc<Mutex<Store>>,
}

/// Default bound on retained traces (FIFO eviction beyond it).
pub const DEFAULT_TRACE_CAP: usize = 1024;

impl Tracer {
    /// A tracer retaining up to [`DEFAULT_TRACE_CAP`] traces.
    pub fn new(enabled: bool) -> Tracer {
        Tracer::with_capacity(enabled, DEFAULT_TRACE_CAP)
    }

    /// A tracer retaining up to `cap` traces.
    pub fn with_capacity(enabled: bool, cap: usize) -> Tracer {
        Tracer {
            enabled: Arc::new(AtomicBool::new(enabled)),
            store: Arc::new(Mutex::new(Store { cap: cap.max(1), ..Store::default() })),
        }
    }

    /// Whether spans are currently collected.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Flip collection on or off; affects every clone already handed out.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Emit the span `(name, slot)` of `ctx`'s trace, parented under
    /// `ctx.span`. One relaxed load + branch and nothing else when the
    /// tracer is disabled or the context is unset.
    #[inline]
    pub fn span(&self, ctx: SpanCtx, name: &'static str, slot: u64, start_ns: u64, end_ns: u64) {
        if self.enabled.load(Ordering::Relaxed) {
            self.push(ctx, name, slot, start_ns, end_ns, 0);
        }
    }

    /// [`Tracer::span`] with display-only `aux` context (worker, round).
    #[inline]
    pub fn span_aux(
        &self,
        ctx: SpanCtx,
        name: &'static str,
        slot: u64,
        start_ns: u64,
        end_ns: u64,
        aux: u64,
    ) {
        if self.enabled.load(Ordering::Relaxed) {
            self.push(ctx, name, slot, start_ns, end_ns, aux);
        }
    }

    #[cold]
    fn push(&self, ctx: SpanCtx, name: &'static str, slot: u64, start: u64, end: u64, aux: u64) {
        if !ctx.is_set() {
            return;
        }
        let span = Span {
            id: span_id(ctx.trace, name, slot),
            parent: ctx.span,
            name,
            start_ns: start,
            end_ns: end,
            aux,
        };
        let mut store = self.store.lock().expect("trace store");
        if !store.traces.contains_key(&ctx.trace) {
            store.order.push_back(ctx.trace);
            if store.order.len() > store.cap {
                if let Some(evicted) = store.order.pop_front() {
                    store.traces.remove(&evicted);
                }
            }
        }
        store.traces.entry(ctx.trace).or_default().push(span);
    }

    /// The spans of `trace`, ordered by start time (ties broken by ID) —
    /// deterministic regardless of emission interleaving. Empty when the
    /// trace is unknown or evicted.
    pub fn spans(&self, trace: u64) -> Vec<Span> {
        let store = self.store.lock().expect("trace store");
        let mut spans = store.traces.get(&trace).cloned().unwrap_or_default();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }

    /// Retained trace IDs, oldest first.
    pub fn trace_ids(&self) -> Vec<u64> {
        self.store.lock().expect("trace store").order.iter().copied().collect()
    }

    /// Drop every retained trace (the enabled flag is untouched).
    pub fn clear(&self) {
        let mut store = self.store.lock().expect("trace store");
        store.traces.clear();
        store.order.clear();
    }

    /// Export one trace in the Chrome trace-event format (`chrome://tracing`
    /// / Perfetto): complete `"X"` events on one track, nesting by time
    /// containment. `ts`/`dur` are microseconds with nanosecond precision.
    pub fn to_chrome_trace(&self, trace: u64) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans(trace).iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":{},\"dur\":{},\
                 \"args\":{{\"trace\":\"{trace:016x}\",\"span\":\"{:016x}\",\"parent\":\"{:016x}\",\"aux\":{}}}}}",
                s.name,
                micros(s.start_ns),
                micros(s.duration_ns()),
                s.id,
                s.parent,
                s.aux,
            ));
        }
        out.push_str("]}");
        out
    }

    /// Export one trace as line-delimited JSON, one span per line (IDs as
    /// 16-hex-digit strings so they survive f64-based JSON readers).
    pub fn to_jsonl(&self, trace: u64) -> String {
        let mut out = String::new();
        for s in self.spans(trace) {
            out.push_str(&format!(
                "{{\"trace\":\"{trace:016x}\",\"span\":\"{:016x}\",\"parent\":\"{:016x}\",\
                 \"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"aux\":{}}}\n",
                s.id, s.parent, s.name, s.start_ns, s.end_ns, s.aux,
            ));
        }
        out
    }
}

/// Nanoseconds rendered as microseconds with three decimals (Chrome's
/// `ts` unit), exactly.
fn micros(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

/// The process-wide tracer the service emits into. Starts *disabled*, like
/// [`crate::global`]; `InferenceService::start` enables it.
pub fn global() -> &'static Tracer {
    static GLOBAL: OnceLock<Tracer> = OnceLock::new();
    GLOBAL.get_or_init(|| Tracer::new(false))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_standard_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn ids_are_deterministic_and_nonzero() {
        let t1 = trace_id("acme", "key-1", 0);
        assert_eq!(t1, trace_id("acme", "key-1", 0));
        assert_ne!(t1, trace_id("acme", "key-1", 1));
        assert_ne!(t1, trace_id("acme", "key-2", 0));
        assert_ne!(t1, trace_id("emca", "key-1", 0));
        assert_ne!(t1, 0);
        let s = span_id(t1, "run", 0);
        assert_eq!(s, span_id(t1, "run", 0));
        assert_ne!(s, span_id(t1, "run", 1));
        assert_ne!(s, span_id(t1, "queue", 0));
        assert_ne!(s, 0);
        assert_ne!(nonzero(0), 0);
    }

    #[test]
    fn child_ctx_matches_emitted_span_id() {
        let tracer = Tracer::new(true);
        let root = SpanCtx::root(trace_id("t", "", 7));
        // The worker parents under "run" before "run" is emitted…
        let run_ctx = root.child("run", 0);
        tracer.span(run_ctx, "spr_round", 0, 10, 20);
        // …and the feeder emits "run" later.
        tracer.span(root, "run", 0, 5, 30);
        let spans = tracer.spans(root.trace);
        assert_eq!(spans.len(), 2);
        let run = spans.iter().find(|s| s.name == "run").unwrap();
        let round = spans.iter().find(|s| s.name == "spr_round").unwrap();
        assert_eq!(round.parent, run.id, "content-derived IDs line up across threads");
        assert_eq!(run.parent, 0);
    }

    #[test]
    fn disabled_and_unset_contexts_emit_nothing() {
        let tracer = Tracer::new(false);
        let ctx = SpanCtx::root(42);
        tracer.span(ctx, "queue", 0, 0, 10);
        tracer.set_enabled(true);
        tracer.span(SpanCtx::NONE, "queue", 0, 0, 10);
        assert!(tracer.spans(42).is_empty());
        assert!(tracer.trace_ids().is_empty());
        assert!(!SpanCtx::NONE.child("run", 0).is_set());
    }

    #[test]
    fn spans_sort_deterministically() {
        let tracer = Tracer::new(true);
        let ctx = SpanCtx::root(9);
        tracer.span(ctx, "seal", 0, 30, 40);
        tracer.span(ctx, "queue", 0, 0, 10);
        tracer.span_aux(ctx, "run", 0, 10, 30, 3);
        let spans = tracer.spans(9);
        assert_eq!(
            spans.iter().map(|s| s.name).collect::<Vec<_>>(),
            ["queue", "run", "seal"],
            "ordered by start time, not emission order"
        );
        assert_eq!(spans[1].aux, 3);
        assert_eq!(spans[1].duration_ns(), 20);
    }

    #[test]
    fn eviction_is_fifo_and_bounded() {
        let tracer = Tracer::with_capacity(true, 2);
        for t in 1..=3u64 {
            tracer.span(SpanCtx::root(t), "run", 0, 0, 1);
        }
        assert_eq!(tracer.trace_ids(), [2, 3]);
        assert!(tracer.spans(1).is_empty(), "oldest trace evicted");
        assert_eq!(tracer.spans(3).len(), 1);
        tracer.clear();
        assert!(tracer.trace_ids().is_empty());
    }

    #[test]
    fn exports_are_valid_json() {
        let tracer = Tracer::new(true);
        let trace = trace_id("tenant \"x\"", "idem", 1);
        let root = SpanCtx::root(trace);
        tracer.span(root, "queue", 0, 0, 1_234);
        tracer.span_aux(root, "run", 0, 1_234, 10_000, 1);
        let chrome = tracer.to_chrome_trace(trace);
        let doc = crate::json::parse(&chrome).expect("chrome trace parses");
        let events = match doc.get("traceEvents") {
            Some(crate::json::Json::Arr(a)) => a,
            other => panic!("traceEvents missing: {other:?}"),
        };
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].get("ph").and_then(crate::json::Json::as_str), Some("X"));
        let jsonl = tracer.to_jsonl(trace);
        assert_eq!(jsonl.lines().count(), 2);
        for line in jsonl.lines() {
            let v = crate::json::parse(line).expect("every span line parses");
            assert!(v.get("name").is_some() && v.get("start_ns").is_some());
        }
        // An unknown trace exports an empty (but well-formed) document.
        assert_eq!(tracer.to_chrome_trace(0xdead), "{\"traceEvents\":[]}");
        assert_eq!(tracer.to_jsonl(0xdead), "");
    }

    #[test]
    fn global_tracer_starts_disabled() {
        let g = global();
        assert!(std::ptr::eq(g, global()));
    }

    #[test]
    fn micros_renders_exact_nanoseconds() {
        assert_eq!(micros(0), "0.000");
        assert_eq!(micros(1_234_567), "1234.567");
        assert_eq!(micros(999), "0.999");
    }
}
