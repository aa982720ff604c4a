//! Zero-overhead guarantees for the wall-clock metrics registry.
//!
//! The `obs` registry is threaded through the inference farm, the parallel
//! dispatchers and the checkpoint writers; production runs leave it
//! disabled. The contract mirrors the trace log's (`trace_overhead.rs`):
//!
//! * a **disabled** registry's record/add/set calls cost one atomic load
//!   and a branch — zero heap operations;
//! * an **enabled** registry's steady-state recording (handles already
//!   created) only touches pre-allocated atomics — also zero heap
//!   operations; allocation happens once, at handle registration.
//!
//! One test in this file on purpose: the `#[global_allocator]` counts
//! every allocation in the process, and a concurrent test would perturb
//! the counters.

mod common;

use common::{heap_counters, CountingAllocator};
use std::hint::black_box;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Run `pass` up to five times, returning the heap-counter deltas of the
/// first clean run (or the last run's deltas if none were clean).
///
/// The counters are process-global, so a libtest harness thread that
/// allocates concurrently with the measured loop shows up as a spurious
/// delta (observed intermittently in release builds). Retrying
/// distinguishes that one-off noise from a real per-call allocation: a
/// genuine leak in the record path allocates on every attempt and still
/// fails.
fn measure_clean_pass(mut pass: impl FnMut()) -> (u64, u64, u64) {
    let mut deltas = (u64::MAX, u64::MAX, u64::MAX);
    for _attempt in 0..5 {
        let before = heap_counters();
        pass();
        let after = heap_counters();
        deltas = (after.0 - before.0, after.1 - before.1, after.2 - before.2);
        if deltas == (0, 0, 0) {
            break;
        }
    }
    deltas
}

#[test]
fn metrics_recording_does_not_touch_the_heap() {
    // Handle registration is the only allocating step; do it up front.
    let registry = obs::Registry::new(true);
    let counter = registry.counter("jobs_total");
    let gauge = registry.gauge("utilization");
    let hist = registry.histogram("run_ns");

    // Enabled steady state: handles only touch pre-allocated atomics.
    let mut passes = 0u64;
    let deltas = measure_clean_pass(|| {
        passes += 1;
        for i in 0..100_000u64 {
            counter.add(i & 7);
            counter.inc();
            gauge.set(i as f64 * 0.5);
            // Sweep values across octaves so every bucket-index path runs.
            hist.record(i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            hist.record(i);
        }
    });
    assert_eq!(
        deltas,
        (0, 0, 0),
        "enabled steady-state recording must not allocate: +{} allocs, +{} deallocs, \
         +{} reallocs over 500,000 calls on every attempt",
        deltas.0,
        deltas.1,
        deltas.2,
    );
    let per_pass = 100_000 + (0..100_000u64).map(|i| i & 7).sum::<u64>();
    assert_eq!(counter.get(), passes * per_pass);
    assert_eq!(hist.snapshot().count, passes * 200_000);

    // Disabled: same handles, one branch per call, nothing recorded.
    registry.set_enabled(false);
    registry.reset();
    let deltas = measure_clean_pass(|| {
        for i in 0..100_000u64 {
            counter.add(3);
            gauge.set(i as f64);
            hist.record(i);
        }
    });
    assert_eq!(deltas, (0, 0, 0), "disabled registry must not allocate");
    assert_eq!(counter.get(), 0, "disabled counter must record nothing");
    assert_eq!(hist.snapshot().count, 0, "disabled histogram must record nothing");
    black_box(&registry);

    // Sanity: the counting allocator is actually live.
    let probe_before = heap_counters();
    black_box(vec![0u8; 1024]);
    let probe_after = heap_counters();
    assert!(probe_after.0 > probe_before.0, "counting allocator must observe allocations");
}
