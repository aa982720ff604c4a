//! The discrete-event core of the EDTLP/LLP/MGPS simulations.
//!
//! Each worker (an oversubscribed MPI process) alternates between a PPE
//! phase (offload marshalling or kernels that stayed on the PPE — needs one
//! of the two PPE hardware threads) and an SPE phase (the offloaded kernel —
//! runs on the worker's own SPE set). The "switch-on-offload" policy of
//! §5.3 is what makes the PPE thread available to other workers during SPE
//! phases; the naive port busy-waits instead (modelled by
//! [`super::sync_workers_makespan`]).
//!
//! ## Fault model
//!
//! [`simulate_task_parallel`] runs under a [`FaultPlan`]: every SPE burst
//! walks the plan's offload retry/backoff state machine (extra cycles are
//! charged to the burst and recorded in a [`FaultReport`]), offloads that
//! exhaust their attempts are re-dispatched, repeatedly failing SPE sets
//! have members blacklisted, scheduled SPE deaths shrink a worker's set
//! mid-run (in-flight work is lost and re-dispatched), and a worker whose
//! whole set is dead degrades to PPE-only execution of its remaining SPE
//! phases. With an inert plan the event sequence — and therefore every
//! makespan and statistic — is the fault-free one, bit for bit.

use crate::offload::PricedTrace;
use cellsim::fault::{FaultPlan, FaultReport};
use cellsim::stats::SimStats;
use cellsim::tracelog::TraceLog;
use cellsim::{Cycles, EventQueue};
use std::collections::VecDeque;

/// One scheduling phase of a worker: PPE work followed by an SPE offload.
/// The SPE side is split into compute (`spe`) and DMA-stall (`dma`) cycles
/// so utilization accounting can tell useful work from MFC waits; the
/// burst's wall duration is always `spe + dma`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Phase {
    /// PPE-thread cycles (before SMT inflation).
    pub ppe: Cycles,
    /// SPE busy (compute + signalling) cycles.
    pub spe: Cycles,
    /// SPE DMA-stall cycles.
    pub dma: Cycles,
}

/// Simulation parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DesParams {
    /// PPE hardware threads (2 on the Cell).
    pub n_ppe_threads: usize,
    /// Slowdown of PPE work when threads contend (≥ 1).
    pub smt_penalty: f64,
    /// SPEs available (8 on the Cell).
    pub n_spes: usize,
}

impl Default for DesParams {
    fn default() -> Self {
        DesParams { n_ppe_threads: 2, smt_penalty: super::SMT_PENALTY, n_spes: 8 }
    }
}

/// Result of one scheduling simulation.
#[derive(Debug, Clone)]
pub struct SimOutcome {
    /// End-to-end cycles.
    pub makespan: Cycles,
    /// Utilization accounting.
    pub stats: SimStats,
    /// Fault/recovery accounting (all-zero without a fault plan).
    pub faults: FaultReport,
}

/// Turn a priced trace into scheduling phases with `k`-way loop-level
/// parallelization of each offloaded invocation. `ctx_switch` is added to
/// the PPE side of every *offloading* invocation (one with both PPE
/// marshalling and SPE work) — the per-offload process switch an
/// oversubscribed PPE pays under EDTLP's switch-on-offload policy.
/// `eib_factor` (≥ 1) models Element Interconnect Bus contention on the DMA
/// share when many SPEs stream concurrently.
pub fn phases_for(
    trace: &PricedTrace,
    k: usize,
    dispatch: Cycles,
    ctx_switch: Cycles,
    eib_factor: f64,
) -> Vec<Phase> {
    trace
        .invocations
        .iter()
        .map(|inv| {
            let is_offload = inv.spe_busy() > 0 && inv.ppe > 0;
            let total = inv.spe_busy_llp(k, dispatch, eib_factor);
            let dma = inv.spe_dma_llp(k, eib_factor);
            Phase { ppe: inv.ppe + if is_offload { ctx_switch } else { 0 }, spe: total - dma, dma }
        })
        .collect()
}

/// Merge consecutive phases so a job has at most `target` macro-phases.
/// Preserves total PPE and SPE cycles exactly; coarsens the alternation.
pub fn compress_phases(phases: &[Phase], target: usize) -> Vec<Phase> {
    if phases.len() <= target {
        return phases.to_vec();
    }
    let group = phases.len().div_ceil(target);
    phases
        .chunks(group)
        .map(|chunk| {
            let mut m = Phase::default();
            for p in chunk {
                m.ppe += p.ppe;
                m.spe += p.spe;
                m.dma += p.dma;
            }
            m
        })
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ev {
    PpeDone(usize),
    SpeDone(usize),
}

/// Consecutive exhausted offloads before a member of the worker's SPE set
/// is blacklisted as a repeat offender.
const BLACKLIST_AFTER: u32 = 2;

struct Worker {
    /// Index into the phase list of the current job.
    phase: usize,
    /// The job currently held (an index into the job list).
    job: Option<usize>,
    /// Offload sequence number: the per-worker fault-draw stream index.
    seq: u64,
    /// The outstanding PPE grant is degraded (fallback) SPE work.
    fallback: bool,
    /// All of this worker's SPEs are dead: run everything on the PPE.
    degraded: bool,
    /// Consecutive offloads that exhausted their retry budget.
    failures: u32,
    /// In-flight SPE burst, for mid-flight death detection.
    burst: Option<Burst>,
}

struct Burst {
    /// Absolute SPE ids that were alive when the burst started.
    members: Vec<usize>,
    /// Wall duration the burst was scheduled for.
    duration: Cycles,
    /// Nominal SPE busy cycles of the phase (for re-dispatch).
    spe_cycles: Cycles,
    /// Nominal SPE DMA-stall cycles of the phase (for re-dispatch).
    dma_cycles: Cycles,
}

struct Sim<'a> {
    jobs: &'a [&'a [Phase]],
    plan: &'a FaultPlan,
    queue: EventQueue<Ev>,
    stats: SimStats,
    report: FaultReport,
    next_job: usize,
    ppe_free: usize,
    /// Workers waiting for a PPE thread, with the duration to charge.
    ppe_waiting: VecDeque<(usize, Cycles)>,
    workers: Vec<Worker>,
    smt: f64,
    spes_per_worker: usize,
    spe_dead: Vec<bool>,
    tlog: &'a mut TraceLog,
}

impl Sim<'_> {
    /// Advance a worker to its next phase with nonzero work; start the PPE
    /// request or SPE burst.
    fn advance(&mut self, wid: usize) {
        loop {
            let now = self.queue.now();
            let w = &mut self.workers[wid];
            let done = match w.job {
                None => true,
                Some(j) => w.phase >= self.jobs[j].len(),
            };
            if done {
                if let Some(j) = w.job.take() {
                    self.tlog.task_complete(now, wid, j);
                }
                if self.next_job >= self.jobs.len() {
                    return;
                }
                let j = self.next_job;
                self.next_job += 1;
                let w = &mut self.workers[wid];
                w.job = Some(j);
                w.phase = 0;
                self.tlog.task_start(now, wid, j);
            }
            let w = &self.workers[wid];
            let job = self.jobs[w.job.expect("worker holds a job")];
            if w.phase >= job.len() {
                // Zero-length job: loop to take the next one.
                continue;
            }
            let phase = job[w.phase];
            if phase.ppe > 0 {
                let dur = (phase.ppe as f64 * self.smt).round() as Cycles;
                self.request_ppe(wid, dur, false);
                return;
            }
            if phase.spe + phase.dma > 0 {
                self.start_spe(wid, phase.spe, phase.dma);
                return;
            }
            // Empty phase: skip.
            self.workers[wid].phase += 1;
        }
    }

    /// Request a PPE hardware thread for `dur` cycles (already SMT-inflated).
    fn request_ppe(&mut self, wid: usize, dur: Cycles, fallback: bool) {
        self.workers[wid].fallback = fallback;
        if self.ppe_free > 0 {
            self.ppe_free -= 1;
            self.stats.ppe_busy += dur;
            self.tlog.ppe_span(self.queue.now(), wid, dur, fallback);
            self.queue.schedule_after(dur, Ev::PpeDone(wid));
        } else {
            self.ppe_waiting.push_back((wid, dur));
        }
    }

    /// Mark every death scheduled at or before `now`, once.
    fn apply_deaths(&mut self, now: Cycles) {
        if self.plan.deaths.is_empty() {
            return;
        }
        for d in &self.plan.deaths {
            if d.at <= now && d.spe < self.spe_dead.len() && !self.spe_dead[d.spe] {
                self.spe_dead[d.spe] = true;
                self.report.blacklisted += 1;
                self.tlog.fault(now, "spe_death", d.spe);
            }
        }
    }

    /// The worker's SPEs that are still in service.
    fn alive_set(&self, wid: usize) -> Vec<usize> {
        (wid * self.spes_per_worker..(wid + 1) * self.spes_per_worker)
            .filter(|&s| !self.spe_dead[s])
            .collect()
    }

    /// Start an SPE burst of nominally `spe_cycles` busy + `dma_cycles`
    /// stall cycles for worker `wid`, running the fault/retry machinery
    /// when the plan is live. The wall duration is driven by the combined
    /// total, exactly as the pre-split simulator's single figure was.
    fn start_spe(&mut self, wid: usize, spe_cycles: Cycles, dma_cycles: Cycles) {
        let total = spe_cycles + dma_cycles;
        self.apply_deaths(self.queue.now());
        loop {
            let now = self.queue.now();
            let alive = self.alive_set(wid);
            if alive.is_empty() {
                self.degrade(wid, total);
                return;
            }
            let mut extra: Cycles = 0;
            if !self.plan.is_inert() {
                let seq = self.workers[wid].seq;
                self.workers[wid].seq += 1;
                let rec = self.plan.offload_recovery(wid as u64, seq);
                self.report.injected += rec.injected as u64;
                self.report.retries += rec.retries as u64;
                self.report.penalty_cycles += rec.extra_cycles;
                extra = rec.extra_cycles;
                for _ in 0..rec.retries {
                    self.tlog.fault(now, "retry", wid);
                }
                if rec.gave_up {
                    // The offload never completed on this set: re-dispatch.
                    self.report.redispatches += 1;
                    self.workers[wid].failures += 1;
                    self.tlog.fault(now, "redispatch", wid);
                    if self.workers[wid].failures >= BLACKLIST_AFTER {
                        // Repeat offender: blacklist one member and retry on
                        // the reduced set (degrading if none remain).
                        self.workers[wid].failures = 0;
                        self.spe_dead[alive[0]] = true;
                        self.report.blacklisted += 1;
                        self.tlog.fault(now, "blacklist", alive[0]);
                        continue;
                    }
                } else {
                    self.workers[wid].failures = 0;
                }
            }
            // Burst duration and per-SPE attribution. The fault-free branch
            // is kept arithmetically identical to the legacy simulator; a
            // shrunken set stretches the wall time by k/alive (the same loop
            // split across fewer SPEs). Busy and DMA-stall shares divide
            // separately so stall time never inflates busy accounting.
            let k = self.spes_per_worker;
            let duration =
                if alive.len() == k { total } else { total * k as u64 / alive.len() as u64 };
            let busy_share = spe_cycles / alive.len() as u64;
            let dma_share = dma_cycles / alive.len() as u64;
            if alive.len() < k {
                self.report.penalty_cycles += duration - total;
            }
            let duration = duration + extra;
            for (i, &s) in alive.iter().enumerate() {
                self.stats.spes[s].loop_cycles += busy_share;
                self.stats.spes[s].dma_stall += dma_share;
                if i == 0 {
                    self.stats.spes[s].invocations += 1;
                }
                self.tlog.spe_burst(now, s, wid, duration, busy_share, dma_share);
            }
            self.workers[wid].burst =
                Some(Burst { members: alive, duration, spe_cycles, dma_cycles });
            self.queue.schedule_after(duration, Ev::SpeDone(wid));
            return;
        }
    }

    /// All of the worker's SPEs are dead: run the SPE phase on the PPE at
    /// the plan's fallback slowdown, through the normal thread queue.
    fn degrade(&mut self, wid: usize, spe_cycles: Cycles) {
        if !self.workers[wid].degraded {
            self.workers[wid].degraded = true;
            self.report.degradations += 1;
            self.tlog.fault(self.queue.now(), "degradation", wid);
        }
        let dur = (spe_cycles as f64 * self.plan.ppe_fallback_factor * self.smt).round() as Cycles;
        self.report.penalty_cycles += dur.saturating_sub(spe_cycles);
        self.request_ppe(wid, dur, true);
    }

    fn on_ppe_done(&mut self, wid: usize) {
        self.ppe_free += 1;
        // Hand the freed thread to the next waiter.
        if let Some((next, dur)) = self.ppe_waiting.pop_front() {
            self.ppe_free -= 1;
            self.stats.ppe_busy += dur;
            let fb = self.workers[next].fallback;
            self.tlog.ppe_span(self.queue.now(), next, dur, fb);
            self.queue.schedule_after(dur, Ev::PpeDone(next));
        }
        // The finishing worker proceeds: SPE burst or next phase.
        if self.workers[wid].fallback {
            // Degraded SPE work just completed on the PPE: phase done.
            self.workers[wid].fallback = false;
            self.workers[wid].phase += 1;
            self.advance(wid);
            return;
        }
        let w = &self.workers[wid];
        let phase = self.jobs[w.job.expect("worker holds a job")][w.phase];
        if phase.spe + phase.dma > 0 {
            self.start_spe(wid, phase.spe, phase.dma);
        } else {
            self.workers[wid].phase += 1;
            self.advance(wid);
        }
    }

    fn on_spe_done(&mut self, wid: usize, now: Cycles) {
        let burst = self.workers[wid].burst.take().expect("SpeDone without a burst");
        if !self.plan.deaths.is_empty() {
            let died_in_flight =
                burst.members.iter().any(|&s| !self.spe_dead[s] && self.plan.dead_at(s, now));
            if died_in_flight {
                // The burst's output is lost with the dead SPE: blacklist
                // the casualties and re-dispatch the whole phase from now.
                self.apply_deaths(now);
                self.report.redispatches += 1;
                self.report.penalty_cycles += burst.duration;
                self.tlog.fault(now, "redispatch", wid);
                self.start_spe(wid, burst.spe_cycles, burst.dma_cycles);
                return;
            }
        }
        self.workers[wid].phase += 1;
        self.advance(wid);
    }
}

/// Simulate `jobs` (one phase list each — real bootstrap replicates differ
/// in search length, so the lists may differ) over `n_workers` workers, each
/// owning `spes_per_worker` SPEs, sharing `params.n_ppe_threads` PPE threads
/// with switch-on-offload.
///
/// An inert `plan` reproduces the fault-free event sequence bit-exactly; a
/// live one charges retries, backoff, re-dispatches, and PPE-fallback
/// degradation into the makespan and reports them. Every scheduling
/// decision is emitted into `tlog`: one `SpeBurst` span per alive SPE of
/// every burst (carrying the exact busy/DMA-stall shares charged to
/// [`SimStats`]), one `PpeSpan` per hardware-thread grant, task
/// start/complete instants, and fault/retry/blacklist/degradation instants.
/// With a disabled log the emit calls early-return before any work.
pub fn simulate_task_parallel(
    jobs: &[&[Phase]],
    n_workers: usize,
    spes_per_worker: usize,
    params: &DesParams,
    plan: &FaultPlan,
    tlog: &mut TraceLog,
) -> SimOutcome {
    let n_jobs = jobs.len();
    assert!(n_workers >= 1, "need at least one worker");
    assert!(
        n_workers * spes_per_worker <= params.n_spes,
        "worker SPE sets exceed the machine ({n_workers} × {spes_per_worker} > {})",
        params.n_spes
    );
    let n_workers = n_workers.min(n_jobs.max(1));
    let smt = if n_workers >= 2 { params.smt_penalty } else { 1.0 };

    let mut sim = Sim {
        jobs,
        plan,
        queue: EventQueue::new(),
        stats: SimStats::new(params.n_spes),
        report: FaultReport::default(),
        next_job: 0,
        ppe_free: params.n_ppe_threads,
        ppe_waiting: VecDeque::new(),
        workers: (0..n_workers)
            .map(|_| Worker {
                phase: 0,
                job: None,
                seq: 0,
                fallback: false,
                degraded: false,
                failures: 0,
                burst: None,
            })
            .collect(),
        smt,
        spes_per_worker,
        spe_dead: vec![false; params.n_spes],
        tlog,
    };

    // Kick off every worker.
    for wid in 0..n_workers {
        sim.advance(wid);
    }

    let mut makespan: Cycles = 0;
    while let Some((t, ev)) = sim.queue.pop() {
        makespan = t;
        match ev {
            Ev::PpeDone(wid) => sim.on_ppe_done(wid),
            Ev::SpeDone(wid) => sim.on_spe_done(wid, t),
        }
    }

    sim.stats.makespan = makespan;
    SimOutcome { makespan, stats: sim.stats, faults: sim.report }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> DesParams {
        DesParams { n_ppe_threads: 2, smt_penalty: 1.0, n_spes: 8 }
    }

    /// `n_jobs` copies of one phase list under `plan`, untraced.
    fn run_faulty(
        phases: &[Phase],
        n_jobs: usize,
        n_workers: usize,
        k: usize,
        params: &DesParams,
        plan: &FaultPlan,
    ) -> SimOutcome {
        let jobs = vec![phases; n_jobs];
        simulate_task_parallel(&jobs, n_workers, k, params, plan, &mut TraceLog::disabled())
    }

    fn run(
        phases: &[Phase],
        n_jobs: usize,
        n_workers: usize,
        k: usize,
        p: &DesParams,
    ) -> SimOutcome {
        run_faulty(phases, n_jobs, n_workers, k, p, &FaultPlan::none())
    }

    fn run_jobs(jobs: &[&[Phase]], n_workers: usize) -> SimOutcome {
        let (plan, mut off) = (FaultPlan::none(), TraceLog::disabled());
        simulate_task_parallel(jobs, n_workers, 1, &params(), &plan, &mut off)
    }

    #[test]
    fn single_worker_is_sequential() {
        let phases = vec![Phase { ppe: 100, spe: 900, dma: 0 }; 10];
        let out = run(&phases, 1, 1, 1, &params());
        assert_eq!(out.makespan, 10 * 1000);
        assert_eq!(out.stats.spes[0].busy(), 9000);
        assert_eq!(out.stats.ppe_busy, 1000);
        assert!(out.faults.is_clean());
    }

    #[test]
    fn multiple_jobs_on_one_worker_serialize() {
        let phases = vec![Phase { ppe: 50, spe: 50, dma: 0 }];
        let out = run(&phases, 5, 1, 1, &params());
        assert_eq!(out.makespan, 5 * 100);
    }

    #[test]
    fn spe_bound_workload_scales_with_workers() {
        // Tiny PPE phases: 8 workers ≈ 8× throughput.
        let phases = vec![Phase { ppe: 1, spe: 10_000, dma: 0 }; 20];
        let one = run(&phases, 8, 1, 1, &params()).makespan;
        let eight = run(&phases, 8, 8, 1, &params()).makespan;
        let speedup = one as f64 / eight as f64;
        assert!(speedup > 7.5, "speedup {speedup}");
    }

    #[test]
    fn ppe_bound_workload_caps_at_two_threads() {
        // Pure PPE phases: 8 workers can use only 2 threads.
        let phases = vec![Phase { ppe: 1000, spe: 1, dma: 0 }; 10];
        let one_worker = run(&phases, 8, 1, 1, &params()).makespan;
        let eight = run(&phases, 8, 8, 1, &params()).makespan;
        let speedup = one_worker as f64 / eight as f64;
        assert!((1.8..=2.1).contains(&speedup), "PPE-bound speedup must cap at ~2: {speedup}");
    }

    #[test]
    fn smt_penalty_inflates_ppe_work_only_with_contention() {
        let phases = vec![Phase { ppe: 1000, spe: 1000, dma: 0 }; 4];
        let p = DesParams { smt_penalty: 1.5, ..params() };
        let solo = run(&phases, 1, 1, 1, &p).makespan;
        assert_eq!(solo, 4 * 2000, "single worker pays no SMT penalty");
        let duo = run(&phases, 2, 2, 1, &p).makespan;
        assert!(duo > solo / 2, "two jobs in parallel but inflated PPE");
        // Each worker: 4 phases of (1500 PPE + 1000 SPE) = 10000, with
        // plenty of PPE capacity (2 threads, 2 workers).
        assert_eq!(duo, 4 * 2500);
    }

    #[test]
    fn queueing_delays_appear_when_ppe_oversubscribed() {
        // 4 workers, 2 threads, PPE-heavy: makespan ≥ total PPE / 2.
        let phases = vec![Phase { ppe: 100, spe: 10, dma: 0 }; 50];
        let out = run(&phases, 4, 4, 1, &params());
        let total_ppe: Cycles = 4 * 50 * 100;
        assert!(out.makespan >= total_ppe / 2);
        assert!(out.stats.ppe_busy == total_ppe);
    }

    #[test]
    fn llp_attributes_busy_across_spe_set() {
        let phases = vec![Phase { ppe: 10, spe: 800, dma: 0 }];
        let out = run(&phases, 1, 1, 8, &params());
        for s in 0..8 {
            assert_eq!(out.stats.spes[s].loop_cycles, 100);
        }
    }

    #[test]
    fn compress_preserves_totals() {
        let phases: Vec<Phase> =
            (0..1000).map(|i| Phase { ppe: i % 7, spe: 100 + i % 13, dma: 0 }).collect();
        let compressed = compress_phases(&phases, 64);
        assert!(compressed.len() <= 64);
        let tp: Cycles = phases.iter().map(|p| p.ppe).sum();
        let ts: Cycles = phases.iter().map(|p| p.spe).sum();
        let cp: Cycles = compressed.iter().map(|p| p.ppe).sum();
        let cs: Cycles = compressed.iter().map(|p| p.spe).sum();
        assert_eq!((tp, ts), (cp, cs));
        // Short inputs pass through untouched.
        assert_eq!(compress_phases(&phases[..10], 64), phases[..10].to_vec());
    }

    #[test]
    fn empty_phases_are_skipped() {
        let phases = vec![
            Phase { ppe: 0, spe: 0, dma: 0 },
            Phase { ppe: 10, spe: 0, dma: 0 },
            Phase { ppe: 0, spe: 20, dma: 0 },
            Phase { ppe: 0, spe: 0, dma: 0 },
        ];
        let out = run(&phases, 2, 2, 1, &params());
        assert_eq!(out.makespan, 30, "phases run back to back per worker");
    }

    #[test]
    fn more_workers_than_jobs_is_fine() {
        let phases = vec![Phase { ppe: 10, spe: 100, dma: 0 }];
        let out = run(&phases, 2, 8, 1, &params());
        assert_eq!(out.makespan, 110);
    }

    #[test]
    #[should_panic(expected = "exceed the machine")]
    fn rejects_oversized_spe_sets() {
        let phases = vec![Phase { ppe: 1, spe: 1, dma: 0 }];
        run(&phases, 8, 8, 2, &params());
    }

    #[test]
    fn varied_jobs_schedule_correctly() {
        // Jobs of very different lengths: the makespan is bounded by the
        // longest job below and the serial sum above, and all work is
        // conserved.
        let short: Vec<Phase> = vec![Phase { ppe: 10, spe: 100, dma: 0 }; 2];
        let long: Vec<Phase> = vec![Phase { ppe: 10, spe: 100, dma: 0 }; 50];
        let jobs: Vec<&[Phase]> = vec![&long, &short, &short, &short];
        let out = run_jobs(&jobs, 4);
        // With 4 workers each job has its own worker: makespan = longest.
        assert_eq!(out.makespan, 50 * 110);
        let total_spe: Cycles = out.stats.spes.iter().map(|s| s.busy()).sum();
        assert_eq!(total_spe, (50 + 3 * 2) * 100);

        // One worker: everything serializes.
        let out = run_jobs(&jobs, 1);
        assert_eq!(out.makespan, (50 + 3 * 2) * 110);
    }

    #[test]
    fn varied_jobs_greedy_assignment() {
        // 2 workers, jobs [long, short, short]: worker A takes long, worker
        // B takes both shorts; makespan = max(long, 2×short).
        let short: Vec<Phase> = vec![Phase { ppe: 0, spe: 100, dma: 0 }; 3];
        let long: Vec<Phase> = vec![Phase { ppe: 0, spe: 100, dma: 0 }; 10];
        let jobs: Vec<&[Phase]> = vec![&long, &short, &short];
        let out = run_jobs(&jobs, 2);
        assert_eq!(out.makespan, 1000);
    }

    #[test]
    fn deterministic() {
        let phases: Vec<Phase> =
            (0..500).map(|i| Phase { ppe: 30 + i % 11, spe: 200 + i % 17, dma: 0 }).collect();
        let a = run(&phases, 16, 8, 1, &params()).makespan;
        let b = run(&phases, 16, 8, 1, &params()).makespan;
        assert_eq!(a, b);
    }

    #[test]
    fn inert_plan_is_bit_identical_to_fault_free() {
        let phases: Vec<Phase> =
            (0..300).map(|i| Phase { ppe: 40 + i % 13, spe: 300 + i % 23, dma: 0 }).collect();
        let p = DesParams { smt_penalty: 1.407, ..params() };
        for (workers, k) in [(8, 1), (4, 2), (2, 4), (1, 8)] {
            let clean = run(&phases, 16, workers, k, &p);
            // Inert under any seed, not just the one `none()` carries.
            let inert = run_faulty(&phases, 16, workers, k, &p, &FaultPlan::uniform(9, 0.0));
            assert_eq!(clean.makespan, inert.makespan, "workers={workers} k={k}");
            assert_eq!(clean.stats.ppe_busy, inert.stats.ppe_busy);
            for s in 0..8 {
                assert_eq!(clean.stats.spes[s].busy(), inert.stats.spes[s].busy());
            }
            assert!(inert.faults.is_clean());
        }
    }

    #[test]
    fn fault_rates_stretch_the_makespan_monotonically() {
        let phases = vec![Phase { ppe: 100, spe: 2000, dma: 0 }; 40];
        let clean = run(&phases, 16, 8, 1, &params()).makespan;
        let mut last = clean;
        for rate in [0.01, 0.1, 0.4] {
            let out = run_faulty(&phases, 16, 8, 1, &params(), &FaultPlan::uniform(7, rate));
            assert!(
                out.makespan >= last,
                "rate {rate}: makespan {} should not beat {last}",
                out.makespan
            );
            assert!(out.faults.injected > 0, "rate {rate} must inject something");
            assert!(out.faults.penalty_cycles > 0);
            last = out.makespan;
        }
        assert!(last > clean, "40% faults must cost real cycles");
    }

    #[test]
    fn fault_injection_is_deterministic() {
        let phases = vec![Phase { ppe: 100, spe: 2000, dma: 0 }; 30];
        let plan = FaultPlan::uniform(99, 0.2).with_death(3, 50_000);
        let a = run_faulty(&phases, 12, 8, 1, &params(), &plan);
        let b = run_faulty(&phases, 12, 8, 1, &params(), &plan);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.faults, b.faults);
    }

    #[test]
    fn spe_death_redispatches_and_shrinks_the_set() {
        // One worker owning all 8 SPEs; kill one mid-run. The work must
        // complete, with at least one re-dispatch and a longer makespan.
        let phases = vec![Phase { ppe: 10, spe: 8000, dma: 0 }; 10];
        let clean = run(&phases, 1, 1, 8, &params());
        let plan = FaultPlan::none().with_death(2, clean.makespan / 2);
        let out = run_faulty(&phases, 1, 1, 8, &params(), &plan);
        assert!(out.makespan > clean.makespan);
        assert_eq!(out.faults.blacklisted, 1);
        assert!(out.faults.redispatches >= 1, "in-flight work on SPE2 must be re-dispatched");
        // SPE 2 stops accumulating after its death; survivors absorb more.
        assert!(out.stats.spes[2].busy() < out.stats.spes[3].busy());
    }

    #[test]
    fn all_spes_dead_degrades_to_ppe_only() {
        let phases = vec![Phase { ppe: 100, spe: 1000, dma: 0 }; 5];
        let mut plan = FaultPlan::none();
        for s in 0..8 {
            plan = plan.with_death(s, 0);
        }
        let out = run_faulty(&phases, 2, 2, 1, &params(), &plan);
        let clean = run(&phases, 2, 2, 1, &params());
        assert_eq!(out.faults.degradations, 2, "both workers degrade");
        assert_eq!(out.faults.blacklisted, 8);
        assert!(out.makespan > clean.makespan, "PPE fallback is slower");
        // No SPE did any work.
        assert!(out.stats.spes.iter().all(|s| s.busy() == 0));
        // All SPE work ran on the PPE at the fallback factor.
        let expected_fallback: Cycles = 2 * 5 * (1000.0 * 2.5f64).round() as Cycles;
        assert_eq!(out.stats.ppe_busy, 2 * 5 * 100 + expected_fallback);
    }

    #[test]
    fn certain_faults_blacklist_repeat_offenders_and_still_finish() {
        // Rate 1.0: every offload exhausts its retries. Repeat offenders are
        // blacklisted until the worker degrades to the PPE — the simulation
        // must terminate with all work done.
        let phases = vec![Phase { ppe: 10, spe: 500, dma: 0 }; 6];
        let out = run_faulty(&phases, 4, 4, 2, &params(), &FaultPlan::uniform(5, 1.0));
        assert!(out.makespan > 0);
        assert!(out.faults.blacklisted > 0);
        assert_eq!(out.faults.degradations, 4, "every worker eventually degrades");
    }
}
