//! Scheduling models for distributing bootstraps over the Cell (paper §5.3).
//!
//! * [`sync_workers_makespan`] — the naive port: `w` MPI workers on the
//!   PPE's SMT threads, each blocking on its own SPE (Tables 1–7 use 1–2).
//! * [`simulate_task_parallel`] — a discrete-event simulation of EDTLP:
//!   up to 8 workers multiplexed over the 2 PPE threads with
//!   switch-on-offload, each worker owning `k` SPEs (k = 1 is plain EDTLP;
//!   k > 1 adds loop-level parallelization of each offloaded call — LLP).
//! * [`schedule_makespan`] — one entry point for all four [`Scheduler`]
//!   values; `Mgps` is the dynamic multi-grain scheduler: EDTLP batches of
//!   eight while enough bootstraps remain, LLP for the tail.

pub mod des;

pub use des::{simulate_task_parallel, DesParams, Phase, SimOutcome};

use crate::config::Scheduler;
use crate::offload::PricedTrace;
use cellsim::cost::CostModel;
use cellsim::eib::EibModel;
use cellsim::fault::{FaultPlan, FaultReport};
use cellsim::stats::SimStats;
use cellsim::tracelog::TraceLog;
use cellsim::Cycles;

/// PPE SMT slowdown when both hardware threads are busy, calibrated from
/// Table 1a: 2 workers × 8 bootstraps take 207.67 s where 4 × 36.9 s =
/// 147.6 s of single-thread work would be expected ⇒ each thread runs
/// ×1.407 slower under SMT contention.
pub const SMT_PENALTY: f64 = 1.407;

/// Number of macro-phases each job is merged down to before the
/// discrete-event simulation (keeps Figure 3's 128-bootstrap runs fast
/// while preserving the PPE/SPE alternation structure).
pub const DEFAULT_GRANULARITY: usize = 4096;

/// Makespan of `n_jobs` bootstraps under `w` synchronous workers: each
/// worker alternates PPE work (slowed by SMT when ≥2 workers share the
/// PPE) and blocking SPE offloads; jobs are processed in waves.
pub fn sync_workers_makespan(trace: &PricedTrace, n_jobs: usize, w: usize) -> Cycles {
    sync_makespan(trace.ppe_cycles(), trace.spe_cycles(), n_jobs, w)
}

/// [`sync_workers_makespan`] of a trace with `ppe` PPE-thread and `spe`
/// SPE-busy cycles per bootstrap.
pub(crate) fn sync_makespan(ppe: Cycles, spe: Cycles, n_jobs: usize, w: usize) -> Cycles {
    assert!(w >= 1);
    let smt = if w >= 2 { SMT_PENALTY } else { 1.0 };
    let per_job = (ppe as f64 * smt) as Cycles + spe;
    (n_jobs.div_ceil(w)) as Cycles * per_job
}

/// EDTLP or LLP as one discrete-event run. EDTLP: up to eight workers over
/// the shared PPE, one SPE each. LLP: `workers` processes, each splitting
/// its offloaded loops across `n_spes / workers` SPEs; a dead SPE stretches
/// its worker's loop splits across the survivors, a fully dead set degrades
/// to the PPE.
fn task_parallel(
    scheduler: Scheduler,
    trace: &PricedTrace,
    n_jobs: usize,
    model: &CostModel,
    params: &DesParams,
    plan: &FaultPlan,
    tlog: &mut TraceLog,
) -> SimOutcome {
    let (name, workers, k) = match scheduler {
        Scheduler::Llp { workers } => {
            let workers = workers.clamp(1, params.n_spes);
            ("LLP", workers, (params.n_spes / workers).max(1))
        }
        _ => ("EDTLP", n_jobs.clamp(1, params.n_spes), 1),
    };
    let (phases, eib) = des_phases(trace, workers, k, model, params);
    let out = simulate_task_parallel(&vec![&phases[..]; n_jobs], workers, k, params, plan, tlog);
    annotate_schedule(tlog, name, &out, trace, eib);
    out
}

/// One job's phases on `workers` workers of `k` SPEs each, and the EIB
/// contention factor of their `k × workers` concurrent streams. When the
/// PPE is oversubscribed (more workers than hardware threads) every offload
/// pays the switch-on-offload context switch.
fn des_phases(
    trace: &PricedTrace,
    workers: usize,
    k: usize,
    model: &CostModel,
    params: &DesParams,
) -> (Vec<Phase>, f64) {
    let ctx = if workers > params.n_ppe_threads { model.edtlp_context_switch } else { 0 };
    let eib = EibModel::default().contention_factor(k * workers);
    (des::phases_for(trace, k, model.llp_dispatch, ctx, eib), eib)
}

/// MGPS: full batches of eight bootstraps run EDTLP; a tail of fewer than
/// eight switches the surviving workers to LLP (paper §5.3: "if there is
/// not enough work to keep the eight SPEs busy, the idle MPI processes are
/// suspended, and the remaining active MPI processes use the idle SPEs for
/// loop-level parallelization"). Fault accounting from the EDTLP batches
/// and the tail is merged into one [`FaultReport`].
///
/// The EDTLP batch and the tail are separate DES runs whose clocks both
/// start at zero; the tail segment is stitched onto the batch's end via the
/// log's timestamp offset, so the exported timeline shows one contiguous
/// run (with nested `EDTLP` / `LLP` phase spans marking the regime switch).
fn mgps(
    trace: &PricedTrace,
    n_jobs: usize,
    model: &CostModel,
    params: &DesParams,
    plan: &FaultPlan,
    tlog: &mut TraceLog,
) -> SimOutcome {
    let batch = params.n_spes;
    let full_batches = n_jobs / batch;
    let tail = n_jobs % batch;
    let base = tlog.offset();

    let mut total: Cycles = 0;
    let mut stats = SimStats::new(params.n_spes);
    let mut faults = FaultReport::default();
    if full_batches > 0 {
        let out =
            task_parallel(Scheduler::Edtlp, trace, full_batches * batch, model, params, plan, tlog);
        total += out.makespan;
        stats = out.stats;
        faults = out.faults;
    }
    if tail > 0 {
        tlog.set_offset(base + total);
        // LLP: `tail` workers, 8/tail SPEs each. 5–7 leftover tasks: not
        // enough SPEs for ≥2-way loop splits; run them EDTLP-style.
        let tail_scheduler =
            if tail <= 4 { Scheduler::Llp { workers: tail } } else { Scheduler::Edtlp };
        let out = task_parallel(tail_scheduler, trace, tail, model, params, plan, tlog);
        total += out.makespan;
        for (a, b) in stats.spes.iter_mut().zip(&out.stats.spes) {
            a.loop_cycles += b.loop_cycles;
            a.cond_cycles += b.cond_cycles;
            a.exp_cycles += b.exp_cycles;
            a.dma_stall += b.dma_stall;
            a.comm += b.comm;
            a.invocations += b.invocations;
        }
        stats.ppe_busy += out.stats.ppe_busy;
        faults.merge(&out.faults);
    }
    tlog.set_offset(base);
    stats.makespan = total;
    let out = SimOutcome { makespan: total, stats, faults };
    annotate_schedule(tlog, "MGPS", &out, trace, 1.0);
    out
}

/// Stamp a completed scheduler run into the log: a phase span covering the
/// whole makespan plus the priced trace's per-job component totals as
/// counters, so a timeline report can regenerate the paper's §5.2-style
/// breakdown tables straight from the trace. Counter values are per-job
/// cycle totals — breakdown *fractions* are what the tables use, and those
/// are invariant to the job count.
fn annotate_schedule(
    tlog: &mut TraceLog,
    name: &'static str,
    out: &SimOutcome,
    trace: &PricedTrace,
    eib_factor: f64,
) {
    if !tlog.is_enabled() {
        return;
    }
    tlog.phase_span(0, name, out.makespan);
    let t = &trace.totals;
    tlog.counter(out.makespan, "trace_loop_cycles", t.loop_cycles as f64);
    tlog.counter(out.makespan, "trace_cond_cycles", t.cond_cycles as f64);
    tlog.counter(out.makespan, "trace_exp_cycles", t.exp_cycles as f64);
    tlog.counter(out.makespan, "trace_dma_stall", t.dma_stall as f64);
    tlog.counter(out.makespan, "trace_comm", t.comm as f64);
    tlog.counter(out.makespan, "trace_ppe_overhead", t.ppe_overhead as f64);
    tlog.counter(out.makespan, "eib_contention", eib_factor);
}

/// Run `n_jobs` bootstraps of `trace` under `scheduler`, paying `plan`'s
/// retry/backoff/death costs and emitting every scheduling decision into
/// `tlog` (plus a phase span per regime and the priced trace's component
/// totals as counters). [`FaultPlan::none`] is bit-exact with a fault-free
/// run and [`TraceLog::disabled`] costs nothing, so those two arguments are
/// how a caller asks for the plain simulation.
///
/// `SyncWorkers` stays the closed-form wave model: it has no discrete-event
/// machinery to inject faults into, so the plan is ignored there (the naive
/// port is only ever used as a fault-free baseline).
pub fn schedule_makespan(
    scheduler: Scheduler,
    trace: &PricedTrace,
    n_jobs: usize,
    model: &CostModel,
    params: &DesParams,
    plan: &FaultPlan,
    tlog: &mut TraceLog,
) -> SimOutcome {
    match scheduler {
        Scheduler::SyncWorkers(w) => {
            let makespan = sync_workers_makespan(trace, n_jobs, w);
            let mut stats = SimStats::new(params.n_spes);
            stats.makespan = makespan;
            let out = SimOutcome { makespan, stats, faults: FaultReport::default() };
            annotate_schedule(tlog, "SyncWorkers", &out, trace, 1.0);
            out
        }
        Scheduler::Edtlp | Scheduler::Llp { .. } => {
            task_parallel(scheduler, trace, n_jobs, model, params, plan, tlog)
        }
        Scheduler::Mgps => mgps(trace, n_jobs, model, params, plan, tlog),
    }
}

/// Fault-free, untraced MGPS outcomes at each of `counts` (increasing)
/// bootstraps — for every count, what [`schedule_makespan`] returns for
/// [`Scheduler::Mgps`]. A count of whole batches is one EDTLP run on every
/// SPE, so all of those are read off a single run at the largest
/// ([`des::simulate_counts`]); counts with a tail keep their own runs.
pub(crate) fn mgps_outcomes(
    trace: &PricedTrace,
    counts: &[usize],
    model: &CostModel,
    params: &DesParams,
) -> Vec<SimOutcome> {
    let batch = params.n_spes;
    let batched: Vec<usize> = counts.iter().copied().filter(|&n| n > 0 && n % batch == 0).collect();
    let (phases, _) = des_phases(trace, batch, 1, model, params);
    let one_run = des::simulate_counts(&phases, &batched, batch, 1, params);
    let (plan, mut off) = (FaultPlan::none(), TraceLog::disabled());
    counts
        .iter()
        .map(|&n| match batched.binary_search(&n) {
            Ok(i) => one_run[i].clone(),
            Err(_) => mgps(trace, n, model, params, &plan, &mut off),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OptConfig;
    use crate::offload::price_trace;
    use phylo::trace::{CallParent, KernelEvent, KernelOp};

    fn synthetic_trace(n: usize) -> Vec<KernelEvent> {
        (0..n)
            .map(|i| KernelEvent {
                op: if i % 10 == 9 {
                    KernelOp::Makenewz
                } else if i % 10 == 8 {
                    KernelOp::Evaluate
                } else {
                    KernelOp::NewviewInnerInner
                },
                parent: if i % 3 == 0 { CallParent::Search } else { CallParent::Makenewz },
                patterns: 228,
                rates: 4,
                exp_calls: 32,
                scaling_checks: 912,
                scalings: 0,
                newton_iters: if i % 10 == 9 { 4 } else { 0 },
                inner_operands: 3,
            })
            .collect()
    }

    fn priced() -> PricedTrace {
        let model = CostModel::paper_calibrated();
        price_trace(&synthetic_trace(500), &model, &OptConfig::fully_optimized())
    }

    fn params() -> DesParams {
        DesParams { n_ppe_threads: 2, smt_penalty: SMT_PENALTY, n_spes: 8 }
    }

    /// `schedule_makespan` on the paper machine with a disabled log.
    fn run(sched: Scheduler, t: &PricedTrace, n_jobs: usize, plan: &FaultPlan) -> SimOutcome {
        let model = CostModel::paper_calibrated();
        schedule_makespan(sched, t, n_jobs, &model, &params(), plan, &mut TraceLog::disabled())
    }

    fn clean(sched: Scheduler, t: &PricedTrace, n_jobs: usize) -> Cycles {
        run(sched, t, n_jobs, &FaultPlan::none()).makespan
    }

    #[test]
    fn sync_workers_scale_in_waves() {
        let t = priced();
        let one = sync_workers_makespan(&t, 1, 1);
        let two_two = sync_workers_makespan(&t, 2, 2);
        let two_eight = sync_workers_makespan(&t, 8, 2);
        // 2 workers, 8 jobs: 4 waves, each SMT-penalized.
        assert_eq!(two_eight, 4 * two_two);
        assert!(two_two > one, "SMT contention makes each wave slower than solo");
        assert!((two_two as f64) < 2.0 * one as f64);
    }

    #[test]
    fn edtlp_beats_two_sync_workers() {
        let t = priced();
        let sync2 = sync_workers_makespan(&t, 8, 2);
        let edtlp = clean(Scheduler::Edtlp, &t, 8);
        assert!(
            edtlp < sync2,
            "8 SPEs under EDTLP must beat 2 SPEs under sync: {edtlp} vs {sync2}"
        );
    }

    #[test]
    fn llp_beats_single_worker_on_one_job() {
        let t = priced();
        let solo = sync_workers_makespan(&t, 1, 1);
        let llp = clean(Scheduler::Llp { workers: 1 }, &t, 1);
        assert!(llp < solo, "8-way LLP must beat one SPE: {llp} vs {solo}");
        // But not by more than 8× (Amdahl + dispatch).
        assert!(llp > solo / 8);
    }

    #[test]
    fn mgps_matches_edtlp_on_full_batches() {
        let t = priced();
        assert_eq!(clean(Scheduler::Mgps, &t, 16), clean(Scheduler::Edtlp, &t, 16));
    }

    #[test]
    fn mgps_is_never_worse_than_pure_strategies() {
        let t = priced();
        for n in [1usize, 2, 3, 4, 8, 9, 12, 16, 20] {
            let mgps = clean(Scheduler::Mgps, &t, n);
            let edtlp = clean(Scheduler::Edtlp, &t, n);
            // Allow a small tolerance: the tail heuristic is not exactly
            // optimal but must be in the same ballpark or better.
            assert!(mgps as f64 <= edtlp as f64 * 1.05, "n={n}: mgps {mgps} vs edtlp {edtlp}");
        }
    }

    #[test]
    fn mgps_scales_linearly_in_full_batches() {
        let t = priced();
        let m8 = clean(Scheduler::Mgps, &t, 8);
        let m16 = clean(Scheduler::Mgps, &t, 16);
        let m32 = clean(Scheduler::Mgps, &t, 32);
        assert!((m16 as f64 / m8 as f64 - 2.0).abs() < 0.1);
        assert!((m32 as f64 / m8 as f64 - 4.0).abs() < 0.2);
    }

    #[test]
    fn scheduler_dispatch_is_consistent() {
        let model = CostModel::paper_calibrated();
        let t = priced();
        let p = params();
        let out = run(Scheduler::SyncWorkers(2), &t, 4, &FaultPlan::none());
        assert_eq!(out.makespan, sync_workers_makespan(&t, 4, 2));
        assert_eq!(out.stats.makespan, out.makespan);
        assert_eq!(
            clean(Scheduler::Mgps, &t, 9),
            mgps(&t, 9, &model, &p, &FaultPlan::none(), &mut TraceLog::disabled()).makespan
        );
    }

    #[test]
    fn zero_jobs_cost_nothing_under_every_scheduler() {
        let empty = price_trace(&[], &CostModel::paper_calibrated(), &OptConfig::fully_optimized());
        for t in [&empty, &priced()] {
            for sched in [
                Scheduler::SyncWorkers(2),
                Scheduler::Edtlp,
                Scheduler::Llp { workers: 2 },
                Scheduler::Mgps,
            ] {
                let out = run(sched, t, 0, &FaultPlan::uniform(5, 0.5));
                assert_eq!(out.makespan, 0, "{sched:?}");
                assert!(out.faults.is_clean(), "{sched:?}");
            }
        }
    }

    #[test]
    fn inert_plan_reproduces_every_scheduler_exactly() {
        // Any plan that can never inject — whatever its seed — must leave
        // the event sequence untouched.
        let t = priced();
        let inert = FaultPlan::uniform(0xfeed, 0.0);
        assert!(inert.is_inert());
        for sched in [Scheduler::Edtlp, Scheduler::Llp { workers: 2 }, Scheduler::Mgps] {
            let clean = run(sched, &t, 12, &FaultPlan::none());
            let out = run(sched, &t, 12, &inert);
            assert_eq!(clean.makespan, out.makespan, "{sched:?}");
            assert_eq!(clean.stats.ppe_busy, out.stats.ppe_busy, "{sched:?}");
            assert!(out.faults.is_clean());
        }
    }

    #[test]
    fn faulty_schedulers_report_and_slow_down() {
        let t = priced();
        let plan = FaultPlan::uniform(11, 0.05);
        for sched in [Scheduler::Edtlp, Scheduler::Llp { workers: 2 }, Scheduler::Mgps] {
            let out = run(sched, &t, 12, &plan);
            assert!(out.makespan >= clean(sched, &t, 12), "{sched:?}");
            assert!(out.faults.injected > 0, "{sched:?} must inject");
        }
    }

    #[test]
    fn traced_run_is_identical_and_trace_matches_stats() {
        // The traced simulation must (a) change nothing about the outcome,
        // and (b) produce spans whose aggregate equals SimStats exactly —
        // the accounting is self-checking against the timeline.
        let model = CostModel::paper_calibrated();
        let t = priced();
        let p = params();
        let inert = FaultPlan::none();
        for sched in [Scheduler::Edtlp, Scheduler::Llp { workers: 2 }, Scheduler::Mgps] {
            let mut tlog = TraceLog::enabled();
            let traced = schedule_makespan(sched, &t, 12, &model, &p, &inert, &mut tlog);
            let plain = run(sched, &t, 12, &inert);
            assert_eq!(traced.makespan, plain.makespan, "{sched:?}");
            assert!(!tlog.is_empty(), "{sched:?} must emit events");

            let summary = tlog.summary(p.n_spes);
            assert_eq!(summary.end, traced.makespan, "{sched:?}: trace end = makespan");
            assert_eq!(summary.ppe_busy, traced.stats.ppe_busy, "{sched:?}");
            for s in 0..p.n_spes {
                assert_eq!(
                    summary.spe_busy[s],
                    traced.stats.spes[s].busy(),
                    "{sched:?} SPE{s} busy"
                );
                assert_eq!(
                    summary.spe_stalled[s],
                    traced.stats.spes[s].stalled(),
                    "{sched:?} SPE{s} stalled"
                );
            }
        }
    }

    #[test]
    fn one_run_per_table_equals_a_run_per_count() {
        let model = CostModel::paper_calibrated();
        let t = priced();
        let counts: Vec<usize> = (1..=40).collect();
        for p in [params(), DesParams { n_spes: 4, n_ppe_threads: 3, ..params() }] {
            let shared = mgps_outcomes(&t, &counts, &model, &p);
            for (&n, got) in counts.iter().zip(&shared) {
                let off = &mut TraceLog::disabled();
                let own =
                    schedule_makespan(Scheduler::Mgps, &t, n, &model, &p, &FaultPlan::none(), off);
                assert_eq!(got.makespan, own.makespan, "n={n}");
                assert_eq!(got.stats.makespan, own.stats.makespan, "n={n}");
                assert_eq!(got.stats.ppe_busy, own.stats.ppe_busy, "n={n}");
                assert_eq!(got.stats.spes, own.stats.spes, "n={n}");
                assert!(got.faults.is_clean(), "n={n}");
            }
        }
    }

    #[test]
    fn mgps_merges_fault_reports_across_batch_and_tail() {
        let t = priced();
        let plan = FaultPlan::uniform(3, 0.3);
        // 11 jobs: one full EDTLP batch of 8 + an LLP tail of 3.
        let whole = run(Scheduler::Mgps, &t, 11, &plan);
        let batch = run(Scheduler::Edtlp, &t, 8, &plan);
        let tail = run(Scheduler::Llp { workers: 3 }, &t, 3, &plan);
        let mut merged = batch.faults;
        merged.merge(&tail.faults);
        assert_eq!(whole.faults, merged);
        assert_eq!(whole.makespan, batch.makespan + tail.makespan);
    }
}
