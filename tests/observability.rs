//! Cross-layer observability guarantees.
//!
//! The trace log is not a parallel bookkeeping system that can drift from
//! the simulator — every span carries the exact cycles the DES charged, so
//! totals re-derived from the event stream must equal `SimStats` to the
//! cycle. These tests pin that contract at the raw DES level (property
//! test over random phase shapes) and at the scheduler level (every
//! scheduler's export parses as the format it claims to be).

use proptest::prelude::*;

proptest! {
    /// Fault-free runs tile time exactly: per SPE, busy + stalled + idle
    /// equals the makespan (no bucket over- or under-charges), and the
    /// totals the trace re-derives equal the DES's own accounting.
    #[test]
    fn fault_free_sim_conserves_time_and_trace_matches_stats(
        n_jobs in 1usize..16,
        n_workers in 1usize..9,
        spes_per_worker in 1usize..5,
        ppe in 1u64..5_000,
        spe in 1u64..50_000,
        dma in 0u64..10_000,
        phases in 1usize..12,
    ) {
        use cellsim::fault::FaultPlan;
        use cellsim::tracelog::TraceLog;
        use raxml_cell::sched::{simulate_task_parallel, DesParams, Phase};

        let params = DesParams { n_ppe_threads: 2, smt_penalty: 1.0, n_spes: 8 };
        let n_workers = n_workers.min(params.n_spes);
        let spes_per_worker = spes_per_worker.clamp(1, params.n_spes / n_workers);
        let job: Vec<Phase> = (0..phases).map(|_| Phase { ppe, spe, dma }).collect();
        let jobs: Vec<&[Phase]> = (0..n_jobs).map(|_| job.as_slice()).collect();

        let mut tlog = TraceLog::enabled();
        let out = simulate_task_parallel(
            &jobs,
            n_workers,
            spes_per_worker,
            &params,
            &FaultPlan::none(),
            &mut tlog,
        );

        // Time conservation: no SPE is charged beyond the makespan, and
        // busy + stalled + idle tiles makespan × n_spes exactly.
        let mut tiled: u64 = 0;
        for s in &out.stats.spes {
            prop_assert!(
                s.occupied() <= out.makespan,
                "SPE charged {} cycles over a {}-cycle makespan",
                s.occupied(),
                out.makespan
            );
            let idle = out.makespan - s.occupied();
            tiled += s.busy() + s.stalled() + idle;
        }
        prop_assert_eq!(
            tiled,
            out.makespan * params.n_spes as u64,
            "busy+stalled+idle must tile the makespan across the machine"
        );

        // The trace is self-consistent with the stats, cycle for cycle.
        let summary = tlog.summary(params.n_spes);
        prop_assert_eq!(summary.end, out.makespan, "trace end must be the makespan");
        prop_assert_eq!(summary.ppe_busy, out.stats.ppe_busy, "trace PPE busy");
        for (i, spe_stats) in out.stats.spes.iter().enumerate() {
            prop_assert_eq!(summary.spe_busy[i], spe_stats.busy(), "SPE {} busy", i);
            prop_assert_eq!(summary.spe_stalled[i], spe_stats.stalled(), "SPE {} stalled", i);
        }
    }
}

/// Every scheduler's trace of a real (small) workload round exports a
/// well-formed Chrome trace and JSONL metrics snapshot, and the trace end
/// matches the reported makespan.
#[test]
fn every_scheduler_emits_valid_exports_for_a_real_round() {
    use cellsim::cost::CostModel;
    use cellsim::fault::FaultPlan;
    use cellsim::tracelog::TraceLog;
    use obs::json::{parse, parse_lines};
    use raxml_cell::config::{OptConfig, Scheduler};
    use raxml_cell::experiment::{capture_workload, WorkloadSpec};
    use raxml_cell::offload::price_trace;
    use raxml_cell::sched::{schedule_makespan, DesParams};

    let w = capture_workload(&WorkloadSpec::small()).expect("capture");
    assert!(!w.rounds.is_empty(), "the search must mark its SPR rounds");
    let model = CostModel::paper_calibrated();
    let params = DesParams::default();
    let events = w.round_events(&w.rounds[0]);
    assert!(!events.is_empty(), "round 0 must contain kernel invocations");
    let priced = price_trace(events, &model, &OptConfig::fully_optimized());

    for sched in [Scheduler::Edtlp, Scheduler::Llp { workers: 2 }, Scheduler::Mgps] {
        let plan = FaultPlan::none();
        let mut tlog = TraceLog::enabled();
        let out = schedule_makespan(sched, &priced, 8, &model, &params, &plan, &mut tlog);
        assert!(out.makespan > 0, "{sched:?}: empty makespan");
        assert!(!tlog.is_empty(), "{sched:?}: no events emitted");

        // Recording changes nothing about the simulation.
        let mut off = TraceLog::disabled();
        let untraced = schedule_makespan(sched, &priced, 8, &model, &params, &plan, &mut off);
        assert_eq!(untraced.makespan, out.makespan, "{sched:?}: traced vs untraced makespan");
        assert_eq!(untraced.stats.ppe_busy, out.stats.ppe_busy, "{sched:?}: traced vs untraced");
        assert!(off.is_empty());

        let chrome = tlog.to_chrome_trace(model.clock_hz);
        parse(&chrome).unwrap_or_else(|e| panic!("{sched:?}: chrome trace invalid: {e}"));
        assert!(chrome.contains("\"traceEvents\""), "{sched:?}: missing traceEvents");

        let metrics = tlog.to_metrics_jsonl(model.clock_hz, params.n_spes);
        parse_lines(&metrics).unwrap_or_else(|e| panic!("{sched:?}: metrics invalid: {e}"));

        let summary = tlog.summary(params.n_spes);
        assert_eq!(summary.end, out.makespan, "{sched:?}: trace end vs makespan");
        assert_eq!(summary.ppe_busy, out.stats.ppe_busy, "{sched:?}: trace PPE busy");
    }
}
