//! Near-zero-overhead guarantee for the disabled trace log.
//!
//! Every DES hot path now carries a `&mut TraceLog`; production runs pass
//! `TraceLog::disabled()`. The observability contract is that the disabled
//! log is free: every emit helper early-returns before touching its event
//! buffer, so a simulation instrumented end to end costs zero heap
//! operations over the uninstrumented baseline. This test wraps the system
//! allocator in a counting shim and hammers every emit path to prove it.
//!
//! It is the only test in this file on purpose: a `#[global_allocator]`
//! counts every allocation in the process, and a concurrently running test
//! would perturb the counters.

mod common;

use common::{heap_counters, CountingAllocator};
use std::hint::black_box;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

#[test]
fn disabled_trace_log_does_not_touch_the_heap() {
    use cellsim::tracelog::TraceLog;

    let mut tlog = TraceLog::disabled();

    let before = heap_counters();
    for i in 0..10_000u64 {
        tlog.spe_burst(i, (i % 8) as usize, 0, 100, 80, 20);
        tlog.ppe_span(i, 0, 50, i % 3 == 0);
        tlog.task_start(i, 0, i as usize);
        tlog.task_complete(i + 40, 0, i as usize);
        tlog.fault(i, "retry", (i % 8) as usize);
        tlog.phase_span(i, "EDTLP", 10);
        tlog.round_span(i, (i % 4) as u32, 10);
        tlog.counter(i, "eib_contention", 1.25);
        tlog.set_offset(i);
    }
    let after = heap_counters();
    black_box(&tlog);

    assert!(tlog.is_empty(), "disabled log must record nothing");
    assert_eq!(
        (after.0 - before.0, after.1 - before.1, after.2 - before.2),
        (0, 0, 0),
        "disabled trace log must not allocate: +{} allocs, +{} deallocs, +{} reallocs \
         over 90,000 emit calls",
        after.0 - before.0,
        after.1 - before.1,
        after.2 - before.2,
    );

    // Contrast: the enabled log does record (and therefore allocates), so
    // the emit paths exercised above really do carry payloads.
    let mut live = TraceLog::enabled();
    let live_before = heap_counters();
    for i in 0..64u64 {
        live.spe_burst(i, (i % 8) as usize, 0, 100, 80, 20);
    }
    let live_after = heap_counters();
    assert_eq!(live.len(), 64);
    assert!(live_after.0 > live_before.0, "enabled log must observe its event buffer growing");

    // Sanity: the counting allocator is actually live.
    let probe_before = heap_counters();
    black_box(vec![0u8; 1024]);
    let probe_after = heap_counters();
    assert!(probe_after.0 > probe_before.0, "counting allocator must observe allocations");
}
