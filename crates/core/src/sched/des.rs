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

use super::DEFAULT_GRANULARITY;
use crate::offload::PricedTrace;
use cellsim::fault::{FaultPlan, FaultReport};
use cellsim::stats::SimStats;
use cellsim::tracelog::TraceLog;
use cellsim::Cycles;
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

/// Turn a priced trace into the scheduling phases of one job, with `k`-way
/// loop-level parallelization of each offloaded invocation. `ctx_switch`
/// is added to the PPE side of every *offloading* invocation (one with both
/// PPE marshalling and SPE work) — the per-offload process switch an
/// oversubscribed PPE pays under EDTLP's switch-on-offload policy.
/// `eib_factor` (≥ 1) models Element Interconnect Bus contention on the DMA
/// share when many SPEs stream concurrently.
///
/// Consecutive invocations are merged in equal groups so the job has at
/// most [`DEFAULT_GRANULARITY`] macro-phases: total PPE, SPE and DMA cycles
/// are preserved exactly, the alternation is coarsened.
pub fn phases_for(
    trace: &PricedTrace,
    k: usize,
    dispatch: Cycles,
    ctx_switch: Cycles,
    eib_factor: f64,
) -> Vec<Phase> {
    let group = trace.invocations.len().div_ceil(DEFAULT_GRANULARITY).max(1);
    trace
        .invocations
        .chunks(group)
        .map(|chunk| {
            let mut m = Phase::default();
            for inv in chunk {
                let is_offload = inv.spe_busy() > 0 && inv.ppe > 0;
                let total = inv.spe_busy_llp(k, dispatch, eib_factor);
                let dma = inv.spe_dma_llp(k, eib_factor);
                m.ppe += inv.ppe + if is_offload { ctx_switch } else { 0 };
                m.spe += total - dma;
                m.dma += dma;
            }
            m
        })
        .collect()
}

/// A phase as the simulation runs it: its PPE duration is SMT-inflated once
/// per distinct phase list per run, not on every visit.
#[derive(Debug, Clone, Copy)]
struct Step {
    phase: Phase,
    /// `phase.ppe` under the run's SMT penalty.
    ppe_dur: Cycles,
}

fn steps(phases: &[Phase], smt: f64) -> Vec<Step> {
    phases
        .iter()
        .map(|&phase| Step { phase, ppe_dur: (phase.ppe as f64 * smt).round() as Cycles })
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ev {
    PpeDone,
    SpeDone,
}

/// The pending events of a run, one slot per worker.
///
/// A worker is only ever waiting on one thing — its PPE grant or its SPE
/// burst — so it never has more than one event pending, and the calendar
/// is a fixed slot per worker rather than a queue that grows with the run.
/// The next event is the earliest slot; equal times go in the order they
/// were scheduled, which is the order a time-ordered queue with
/// first-in-first-out ties pops them in.
#[derive(Debug, Clone)]
struct Calendar {
    /// Per worker, a key ordering its event: the due time in the high 64
    /// bits, then the schedule sequence, then the worker id in the low 16.
    /// Sequences are unique, so the smallest key is the next event and
    /// carries its worker. `EMPTY` when nothing is pending; padded with
    /// `EMPTY` to a multiple of eight slots.
    keys: Vec<u128>,
    events: Vec<Ev>,
    seq: u64,
    /// The due time of the last event popped.
    now: Cycles,
}

const EMPTY: u128 = u128::MAX;

impl Calendar {
    fn new(n_workers: usize) -> Calendar {
        assert!(n_workers <= 1 << 16, "worker ids take 16 bits of a calendar key");
        Calendar {
            keys: vec![EMPTY; n_workers.next_multiple_of(8)],
            events: vec![Ev::PpeDone; n_workers],
            seq: 0,
            now: 0,
        }
    }

    /// Schedule worker `wid`'s event `delay` cycles from now.
    fn schedule(&mut self, wid: usize, delay: Cycles, ev: Ev) {
        debug_assert_eq!(self.keys[wid], EMPTY, "worker {wid} already has an event pending");
        let order = self.seq << 16 | wid as u64;
        self.keys[wid] = u128::from(self.now + delay) << 64 | u128::from(order);
        self.events[wid] = ev;
        self.seq += 1;
    }

    /// Pop the earliest event, advancing the clock to it.
    fn pop(&mut self) -> Option<(usize, Ev)> {
        // Pairwise minima: three dependent comparisons per eight slots, and
        // no branch on which slot wins.
        let min8 = |k: &[u128]| {
            let (a, b) = (k[0].min(k[1]).min(k[2].min(k[3])), k[4].min(k[5]).min(k[6].min(k[7])));
            a.min(b)
        };
        let key = self.keys.chunks_exact(8).map(min8).fold(EMPTY, u128::min);
        if key == EMPTY {
            return None;
        }
        let wid = (key & 0xffff) as usize;
        self.keys[wid] = EMPTY;
        self.now = (key >> 64) as Cycles;
        Some((wid, self.events[wid]))
    }
}

/// Consecutive exhausted offloads before a member of the worker's SPE set
/// is blacklisted as a repeat offender.
const BLACKLIST_AFTER: u32 = 2;

#[derive(Debug, Clone)]
struct Worker<'a> {
    /// The SPEs this worker owns, as a bit mask.
    spes: u64,
    /// The steps of the current job (empty before the first).
    steps: &'a [Step],
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

#[derive(Debug, Clone, Copy)]
struct Burst {
    /// SPEs that were alive when the burst started, as a bit mask.
    members: u64,
    /// Wall duration the burst was scheduled for.
    duration: Cycles,
    /// Nominal SPE busy cycles of the phase (for re-dispatch).
    spe_cycles: Cycles,
    /// Nominal SPE DMA-stall cycles of the phase (for re-dispatch).
    dma_cycles: Cycles,
}

#[derive(Clone)]
struct Sim<'a> {
    jobs: &'a [&'a [Step]],
    /// Jobs handed out at most: a worker that finds this many out goes
    /// idle and is noted in `starved`.
    limit: usize,
    plan: &'a FaultPlan,
    inert: bool,
    calendar: Calendar,
    stats: SimStats,
    report: FaultReport,
    next_job: usize,
    ppe_free: usize,
    /// Workers waiting for a PPE thread, with the duration to charge.
    ppe_waiting: VecDeque<(usize, Cycles)>,
    workers: Vec<Worker<'a>>,
    smt: f64,
    spes_per_worker: usize,
    /// SPEs out of service, as a bit mask.
    spe_dead: u64,
    /// The last worker that went idle because `limit` jobs were out.
    starved: Option<usize>,
    tlog: TraceLog,
}

impl<'a> Sim<'a> {
    /// A run of `jobs` (each a step list) on `n_workers` workers, each
    /// owning `spes_per_worker` SPEs; the caller has checked the shape.
    fn new(
        jobs: &'a [&'a [Step]],
        (n_workers, spes_per_worker, smt): (usize, usize, f64),
        params: &DesParams,
        plan: &'a FaultPlan,
        tlog: TraceLog,
    ) -> Sim<'a> {
        assert!(params.n_spes <= 64, "SPE sets are bit masks: at most 64 SPEs");
        let set = if spes_per_worker == 0 { 0 } else { u64::MAX >> (64 - spes_per_worker) };
        Sim {
            jobs,
            limit: jobs.len(),
            plan,
            inert: plan.is_inert(),
            calendar: Calendar::new(n_workers),
            stats: SimStats::new(params.n_spes),
            report: FaultReport::default(),
            next_job: 0,
            ppe_free: params.n_ppe_threads,
            ppe_waiting: VecDeque::new(),
            workers: (0..n_workers)
                .map(|wid| Worker {
                    spes: set << (wid * spes_per_worker),
                    steps: &[],
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
            spe_dead: 0,
            starved: None,
            tlog,
        }
    }

    /// Start every worker and run to the last event, with job limits
    /// `counts` (increasing): the outcome at each, and the log.
    ///
    /// Runs of `n` and `N > n` jobs on the same workers are the same event
    /// sequence until a worker asks for job `n`; the smaller run leaves it
    /// idle there. A worker asks as the last thing its event does, so when
    /// one finds `limit` jobs out, the state is the `limit`-job run's: a
    /// copy is drained for that count, the limit rises to the next, and the
    /// worker takes its job.
    fn run(mut self, counts: &[usize]) -> (Vec<SimOutcome>, TraceLog) {
        let mut outcomes = Vec::with_capacity(counts.len());
        self.limit = counts[0];
        let mut fork_if_starved = |sim: &mut Sim| {
            while let Some(wid) = sim.starved.take() {
                if outcomes.len() + 1 == counts.len() {
                    return;
                }
                outcomes.push(sim.clone().finish().0);
                sim.limit = counts[outcomes.len()];
                sim.advance(wid);
            }
        };
        for wid in 0..self.workers.len() {
            self.advance(wid);
            fork_if_starved(&mut self);
        }
        while self.step() {
            fork_if_starved(&mut self);
        }
        let (last, tlog) = self.finish();
        outcomes.push(last);
        (outcomes, tlog)
    }

    /// Process the next event; false when none is left.
    fn step(&mut self) -> bool {
        match self.calendar.pop() {
            Some((wid, Ev::PpeDone)) => self.on_ppe_done(wid),
            Some((wid, Ev::SpeDone)) => self.on_spe_done(wid),
            None => return false,
        }
        true
    }

    /// Run to the last event and report.
    fn finish(mut self) -> (SimOutcome, TraceLog) {
        while self.step() {}
        let makespan = self.calendar.now;
        self.stats.makespan = makespan;
        (SimOutcome { makespan, stats: self.stats, faults: self.report }, self.tlog)
    }

    /// Advance a worker to its next phase with nonzero work; start the PPE
    /// request or SPE burst.
    fn advance(&mut self, wid: usize) {
        loop {
            let now = self.calendar.now;
            let w = &mut self.workers[wid];
            let Some(&step) = w.steps.get(w.phase) else {
                // The job is done (or there was none): take the next.
                if let Some(j) = w.job.take() {
                    self.tlog.task_complete(now, wid, j);
                }
                if self.next_job >= self.limit {
                    self.starved = Some(wid);
                    return;
                }
                let j = self.next_job;
                self.next_job += 1;
                let w = &mut self.workers[wid];
                w.job = Some(j);
                w.steps = self.jobs[j];
                w.phase = 0;
                self.tlog.task_start(now, wid, j);
                continue;
            };
            if step.phase.ppe > 0 {
                self.request_ppe(wid, step.ppe_dur, false);
                return;
            }
            if step.phase.spe + step.phase.dma > 0 {
                self.start_spe(wid, step.phase.spe, step.phase.dma);
                return;
            }
            // Empty phase: skip.
            w.phase += 1;
        }
    }

    /// Request a PPE hardware thread for `dur` cycles (already SMT-inflated).
    fn request_ppe(&mut self, wid: usize, dur: Cycles, fallback: bool) {
        self.workers[wid].fallback = fallback;
        if self.ppe_free > 0 {
            self.ppe_free -= 1;
            self.stats.ppe_busy += dur;
            self.tlog.ppe_span(self.calendar.now, wid, dur, fallback);
            self.calendar.schedule(wid, dur, Ev::PpeDone);
        } else {
            self.ppe_waiting.push_back((wid, dur));
        }
    }

    /// Mark every death scheduled at or before `now`, once.
    fn apply_deaths(&mut self, now: Cycles) {
        for d in &self.plan.deaths {
            if d.at <= now && d.spe < self.stats.spes.len() && self.spe_dead & (1 << d.spe) == 0 {
                self.spe_dead |= 1 << d.spe;
                self.report.blacklisted += 1;
                self.tlog.fault(now, "spe_death", d.spe);
            }
        }
    }

    /// Start an SPE burst of nominally `spe_cycles` busy + `dma_cycles`
    /// stall cycles for worker `wid`, running the fault/retry machinery
    /// when the plan is live. The wall duration is driven by the combined
    /// total, exactly as the pre-split simulator's single figure was.
    fn start_spe(&mut self, wid: usize, spe_cycles: Cycles, dma_cycles: Cycles) {
        let total = spe_cycles + dma_cycles;
        if !self.plan.deaths.is_empty() {
            self.apply_deaths(self.calendar.now);
        }
        loop {
            let now = self.calendar.now;
            let alive = self.workers[wid].spes & !self.spe_dead;
            if alive == 0 {
                self.degrade(wid, total);
                return;
            }
            let mut extra: Cycles = 0;
            if !self.inert {
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
                        let first = alive.trailing_zeros() as usize;
                        self.spe_dead |= 1 << first;
                        self.report.blacklisted += 1;
                        self.tlog.fault(now, "blacklist", first);
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
            let n_alive =
                if alive == self.workers[wid].spes { k } else { alive.count_ones() as usize };
            let duration = if n_alive == k { total } else { total * k as u64 / n_alive as u64 };
            let (busy_share, dma_share) = if n_alive == 1 {
                (spe_cycles, dma_cycles)
            } else {
                (spe_cycles / n_alive as u64, dma_cycles / n_alive as u64)
            };
            if n_alive < k {
                self.report.penalty_cycles += duration - total;
            }
            let duration = duration + extra;
            let alive_ids = (wid * k..(wid + 1) * k).filter(|&s| alive >> s & 1 == 1);
            for (i, s) in alive_ids.enumerate() {
                let spe = &mut self.stats.spes[s];
                spe.loop_cycles += busy_share;
                spe.dma_stall += dma_share;
                if i == 0 {
                    spe.invocations += 1;
                }
                self.tlog.spe_burst(now, s, wid, duration, busy_share, dma_share);
            }
            if !self.plan.deaths.is_empty() {
                self.workers[wid].burst =
                    Some(Burst { members: alive, duration, spe_cycles, dma_cycles });
            }
            self.calendar.schedule(wid, duration, Ev::SpeDone);
            return;
        }
    }

    /// All of the worker's SPEs are dead: run the SPE phase on the PPE at
    /// the plan's fallback slowdown, through the normal thread queue.
    #[cold]
    fn degrade(&mut self, wid: usize, spe_cycles: Cycles) {
        if !self.workers[wid].degraded {
            self.workers[wid].degraded = true;
            self.report.degradations += 1;
            self.tlog.fault(self.calendar.now, "degradation", wid);
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
            self.tlog.ppe_span(self.calendar.now, next, dur, fb);
            self.calendar.schedule(next, dur, Ev::PpeDone);
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
        let phase = w.steps[w.phase].phase;
        if phase.spe + phase.dma > 0 {
            self.start_spe(wid, phase.spe, phase.dma);
        } else {
            self.workers[wid].phase += 1;
            self.advance(wid);
        }
    }

    fn on_spe_done(&mut self, wid: usize) {
        let now = self.calendar.now;
        if !self.plan.deaths.is_empty() {
            let burst = self.workers[wid].burst.take().expect("SpeDone without a burst");
            let died_in_flight = (0..self.stats.spes.len()).any(|s| {
                (burst.members & !self.spe_dead) >> s & 1 == 1 && self.plan.dead_at(s, now)
            });
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

/// Check a run's shape: the workers it uses (no more than jobs), each
/// owning `spes_per_worker` SPEs, and the SMT factor that count implies.
fn shape(
    n_jobs: usize,
    n_workers: usize,
    spes_per_worker: usize,
    params: &DesParams,
) -> (usize, usize, f64) {
    assert!(n_workers >= 1, "need at least one worker");
    assert!(
        n_workers * spes_per_worker <= params.n_spes,
        "worker SPE sets exceed the machine ({n_workers} × {spes_per_worker} > {})",
        params.n_spes
    );
    let n_workers = n_workers.min(n_jobs.max(1));
    (n_workers, spes_per_worker, if n_workers >= 2 { params.smt_penalty } else { 1.0 })
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
    let shape = shape(jobs.len(), n_workers, spes_per_worker, params);
    // Steps once per distinct phase list: a schedule's jobs usually share one.
    let mut lists: Vec<(&[Phase], Vec<Step>)> = Vec::new();
    for &job in jobs {
        if !lists.iter().any(|&(p, _)| std::ptr::eq(p, job)) {
            lists.push((job, steps(job, shape.2)));
        }
    }
    let steps_of = |job| &lists.iter().find(|&&(p, _)| std::ptr::eq(p, job)).unwrap().1[..];
    let job_steps: Vec<&[Step]> = jobs.iter().map(|&job| steps_of(job)).collect();
    let sim = Sim::new(&job_steps, shape, params, plan, std::mem::take(tlog));
    let (mut outcomes, log) = sim.run(&[jobs.len()]);
    *tlog = log;
    outcomes.pop().expect("one outcome per count")
}

/// Fault-free, untraced outcomes of `counts[i]` copies of `phases` on
/// `n_workers` workers — for every count, what [`simulate_task_parallel`]
/// returns — from one simulation at the largest count (see `Sim::run`).
/// The counts must increase and be at least `n_workers`: with fewer jobs a
/// run has fewer workers and a different SMT factor.
pub(crate) fn simulate_counts(
    phases: &[Phase],
    counts: &[usize],
    n_workers: usize,
    spes_per_worker: usize,
    params: &DesParams,
) -> Vec<SimOutcome> {
    assert!(counts.windows(2).all(|w| w[0] < w[1]), "counts must increase: {counts:?}");
    let (Some(&first), Some(&last)) = (counts.first(), counts.last()) else {
        return Vec::new();
    };
    assert!(first >= n_workers, "{first} jobs leave some of {n_workers} workers idle");
    let shape = shape(last, n_workers, spes_per_worker, params);
    let steps = steps(phases, shape.2);
    let job_steps = vec![&steps[..]; last];
    let plan = FaultPlan::none();
    Sim::new(&job_steps, shape, params, &plan, TraceLog::disabled()).run(counts).0
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
    fn phases_for_merges_long_traces_and_preserves_totals() {
        use crate::offload::PricedInvocation;
        let invocations: Vec<PricedInvocation> = (0..10_000)
            .map(|i| PricedInvocation {
                ppe: i % 7,
                spe_serial: 10,
                spe_parallel: 100 + i % 13,
                spe_dma: i % 5,
            })
            .collect();
        let phases = |invs: &[PricedInvocation]| {
            let trace = PricedTrace { invocations: invs.to_vec(), totals: Default::default() };
            phases_for(&trace, 2, 30, 500, 1.5)
        };
        let sum = |ps: Vec<Phase>| {
            ps.iter().fold((0, 0, 0), |a, p| (a.0 + p.ppe, a.1 + p.spe, a.2 + p.dma))
        };
        let merged = phases(&invocations);
        assert!(merged.len() <= DEFAULT_GRANULARITY);
        // Short traces keep one phase per invocation.
        assert_eq!(phases(&invocations[..10]).len(), 10);
        let unmerged = invocations.chunks(1).flat_map(phases).collect();
        assert_eq!(sum(merged), sum(unmerged));
    }

    #[test]
    fn calendar_matches_a_stable_priority_queue() {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        // Each popped worker reschedules after a small pseudo-random delay,
        // so many events tie: the calendar must pop exactly what a heap
        // ordered by time, then by schedule sequence, pops.
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut delay = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % 4
        };
        let mut cal = Calendar::new(8);
        let mut heap = BinaryHeap::new();
        let mut seq = 0;
        for wid in 0..8 {
            let d = delay();
            cal.schedule(wid, d, Ev::PpeDone);
            heap.push(Reverse((d, seq, wid)));
            seq += 1;
        }
        for _ in 0..2_000 {
            let Reverse((at, _, wid)) = heap.pop().unwrap();
            assert_eq!(cal.pop(), Some((wid, Ev::PpeDone)));
            assert_eq!(cal.now, at);
            let d = delay();
            cal.schedule(wid, d, Ev::PpeDone);
            heap.push(Reverse((at + d, seq, wid)));
            seq += 1;
        }
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
