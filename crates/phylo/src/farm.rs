//! The task-tier inference farm: one FIFO job queue drained by a fixed set
//! of workers, for embarrassingly parallel phylogenetic jobs (bootstraps,
//! multiple inferences, workload captures).
//!
//! This is the §3.1 task-level layer (the paper's MPI master–worker
//! scheme). Design points:
//!
//! * **One queue, one lock.** The feeding thread appends each job to one
//!   FIFO queue and whichever worker is free takes the oldest, so jobs
//!   start in submission order — RAxML's master handing the next job to
//!   the worker that reports back. The queue, the in-flight counters and
//!   the workers' mail sit behind one mutex. A job here is a whole search
//!   or bootstrap (milliseconds to seconds), so the microsecond a claim
//!   spends on that lock is noise at this grain.
//! * **No caller code under the lock.** The feed, the observer and the
//!   seal hook run on the feeding thread with the lock released: a slow
//!   hook (a checkpoint append, a service lock) never stalls a worker's
//!   claim, and a panicking one closes the queue and reaches the caller
//!   once the workers have finished, instead of poisoning the lock or
//!   leaving idle workers waiting forever.
//! * **Bounded submission with backpressure.** [`FarmConfig::bounded`]
//!   caps the number of in-flight (submitted but not completed) jobs; the
//!   feeding thread blocks until completions free capacity, so a lazy job
//!   iterator of any length runs in bounded memory.
//! * **Deterministic job→result ordering.** Results land in submission
//!   order regardless of which worker ran which job; the in-order seal
//!   callback fires for job *i* only after jobs `0..i` have sealed, which
//!   is what lets an append-only [`crate::checkpoint::BootstrapStore`]
//!   persist every completed job without reordering records.
//! * **Per-worker reusable shards.** Each worker owns a mutable shard
//!   (e.g. a [`crate::likelihood::LikelihoodWorkspace`]) created once at
//!   spawn and threaded through every job it runs, so steady-state jobs
//!   reuse the previous job's buffers — the arena-recycling contract of
//!   the zero-allocation hot path, without a shared pool lock per job.
//! * **Panic isolation.** A job that panics becomes a typed
//!   [`FarmError::JobPanicked`] entry carrying the original payload
//!   message; the farm keeps draining and every other job's result
//!   survives. Worker deaths (from the injectable [`FarmFaultPlan`])
//!   likewise degrade per-job instead of wedging the farm.
//! * **Observability.** A [`FarmObserver`] receives start/complete/seal/
//!   death events with nanosecond timestamps; the service and the
//!   benchmark turn them into spans and telemetry. Independently,
//!   every run records wall-clock telemetry into the process-wide
//!   [`obs`] metrics registry: per-worker queue-wait / run / seal-lag
//!   latency histograms (`farm_queue_wait_ns_w<i>`, `farm_job_run_ns_w<i>`,
//!   `farm_seal_lag_ns_w<i>`) and exactly-once job/backpressure/death
//!   counters (`farm_*_total`) that stay coherent with [`FarmStats`] by
//!   construction — counters tick where the stats tick. With the registry
//!   disabled (the default) each record is one branch and zero heap
//!   operations.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// How a farm run is shaped: worker count, submission bound, fault plan.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FarmConfig {
    /// Worker threads (each with its own shard).
    pub n_workers: usize,
    /// Maximum in-flight (submitted, not yet completed) jobs; `0` means
    /// unbounded. The feeding thread blocks when the bound is reached.
    pub capacity: usize,
    /// Deterministic fault injection for tests.
    pub fault: FarmFaultPlan,
    /// Time base for every event timestamp and latency record. `None`
    /// (the default) starts a fresh epoch at `run_farm` entry; a service
    /// that correlates farm events with its own request spans passes its
    /// process epoch so both tiers share one clock.
    pub epoch: Option<Instant>,
}

impl FarmConfig {
    /// An unbounded farm with `n_workers` workers and no faults.
    pub fn new(n_workers: usize) -> FarmConfig {
        FarmConfig { n_workers, capacity: 0, fault: FarmFaultPlan::none(), epoch: None }
    }

    /// Cap in-flight jobs at `capacity` (backpressure on submission).
    pub fn bounded(mut self, capacity: usize) -> FarmConfig {
        self.capacity = capacity;
        self
    }

    /// Attach a fault plan.
    pub fn with_fault(mut self, fault: FarmFaultPlan) -> FarmConfig {
        self.fault = fault;
        self
    }

    /// Timestamp events relative to `epoch` instead of `run_farm` entry.
    pub fn with_epoch(mut self, epoch: Instant) -> FarmConfig {
        self.epoch = Some(epoch);
        self
    }
}

/// Injectable failures, in the spirit of `cellsim::fault::FaultPlan`:
/// deterministic, declared up front, replayable. Used by the robustness
/// tests to prove the farm's accounting survives losing workers and jobs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FarmFaultPlan {
    /// `(worker, n)`: worker dies after completing `n` jobs.
    deaths: Vec<(usize, usize)>,
    /// Jobs whose execution is replaced by an injected failure.
    failed_jobs: Vec<usize>,
}

impl FarmFaultPlan {
    /// A plan that injects nothing.
    pub fn none() -> FarmFaultPlan {
        FarmFaultPlan::default()
    }

    /// Kill `worker` after it has completed `completed_jobs` jobs (0 kills
    /// it before it runs anything). The survivors run the rest of the
    /// queue; if every worker dies, the remainder surface as
    /// [`FarmError::WorkerLost`].
    pub fn kill_worker_after(mut self, worker: usize, completed_jobs: usize) -> FarmFaultPlan {
        self.deaths.push((worker, completed_jobs));
        self
    }

    /// Replace job `job`'s execution with a typed
    /// [`FarmError::InjectedFault`].
    pub fn fail_job(mut self, job: usize) -> FarmFaultPlan {
        self.failed_jobs.push(job);
        self
    }

    /// True when the plan injects nothing.
    pub fn is_inert(&self) -> bool {
        self.deaths.is_empty() && self.failed_jobs.is_empty()
    }

    fn death_after(&self, worker: usize) -> Option<usize> {
        self.deaths.iter().find(|&&(w, _)| w == worker).map(|&(_, n)| n)
    }

    fn injects_fault(&self, job: usize) -> bool {
        self.failed_jobs.contains(&job)
    }
}

/// Why one job produced no result. The farm never turns one bad job into a
/// farm-wide panic: every failure is a per-slot typed entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FarmError {
    /// The job's closure panicked; `message` is the original payload.
    JobPanicked { job: usize, worker: usize, message: String },
    /// The fault plan replaced this job's execution with a failure.
    InjectedFault { job: usize, worker: usize },
    /// Every worker died before this job could run.
    WorkerLost { job: usize },
}

impl FarmError {
    /// The submission index of the failed job.
    pub fn job(&self) -> usize {
        match *self {
            FarmError::JobPanicked { job, .. }
            | FarmError::InjectedFault { job, .. }
            | FarmError::WorkerLost { job } => job,
        }
    }
}

impl std::fmt::Display for FarmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FarmError::JobPanicked { job, worker, message } => {
                write!(f, "job {job} panicked on worker {worker}: {message}")
            }
            FarmError::InjectedFault { job, worker } => {
                write!(f, "job {job} hit an injected fault on worker {worker}")
            }
            FarmError::WorkerLost { job } => {
                write!(f, "job {job} was queued but every worker died before running it")
            }
        }
    }
}

impl std::error::Error for FarmError {}

/// One farm-tier occurrence, timestamped in nanoseconds since the farm
/// started. Events from one worker arrive in that worker's program order;
/// interleaving across workers follows real execution and is therefore not
/// deterministic (results are — see the module docs).
/// The duration-bearing events carry both endpoints of their interval as
/// the exact integers fed to the latency histograms at the same code
/// sites, so an observer can re-derive queue-wait / run / seal-lag spans
/// that agree with the histograms integer-for-integer (the coherence the
/// `trace_e2e` test asserts).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FarmEvent {
    /// Worker `worker` began executing job `job`, which had been enqueued
    /// at `enqueued_at_nanos` (queue wait = `at_nanos - enqueued_at_nanos`).
    JobStarted { at_nanos: u64, worker: usize, job: usize, enqueued_at_nanos: u64 },
    /// Worker `worker` finished job `job` (`ok` = produced a result);
    /// it started running at `started_at_nanos`.
    JobCompleted { at_nanos: u64, worker: usize, job: usize, ok: bool, started_at_nanos: u64 },
    /// Job `job` was sealed in submission order (the exactly-once point),
    /// having completed at `completed_at_nanos` (seal lag = `at_nanos -
    /// completed_at_nanos`). `worker` is `usize::MAX` for jobs written off
    /// as [`FarmError::WorkerLost`].
    JobSealed { at_nanos: u64, worker: usize, job: usize, ok: bool, completed_at_nanos: u64 },
    /// A fault-plan death: `worker` stopped pulling work.
    WorkerDied { at_nanos: u64, worker: usize },
}

/// Receives [`FarmEvent`]s on the feeding thread while the farm drains.
pub trait FarmObserver {
    fn on_event(&mut self, event: FarmEvent);
}

impl<F: FnMut(FarmEvent)> FarmObserver for F {
    fn on_event(&mut self, event: FarmEvent) {
        self(event)
    }
}

/// One answer from a [`run_farm_polling`] feed callback.
///
/// The iterator feed of [`run_farm`] can only block or end, which means
/// worker mail (completions, lifecycle events, the in-order seal) sits
/// undrained while the feeder is parked inside `next()` waiting for work.
/// A polling feed returns [`FeedPoll::Idle`] instead of blocking
/// indefinitely; the farm drains its mailbox on every `Idle` and polls
/// again, so seals, observer events, and the telemetry derived from them
/// stay live even when no new job ever arrives.
#[derive(Debug)]
pub enum FeedPoll<J> {
    /// Dispatch this job.
    Job(J),
    /// No job right now — drain worker mail and poll again. The feed is
    /// expected to have waited (bounded) before returning this; the farm
    /// adds no sleep of its own.
    Idle,
    /// The feed is finished; no more jobs will ever arrive.
    Closed,
}

/// Aggregate accounting of one farm run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FarmStats {
    /// Jobs submitted (== `results.len()` of the outcome).
    pub n_jobs: usize,
    /// Jobs that produced a [`FarmError`] instead of a result.
    pub n_failed: usize,
    /// Always 0: the farm has one queue and nothing to steal. Kept so
    /// readers of the field keep compiling.
    pub steals: u64,
    /// Peak submitted-but-not-completed jobs (≤ `capacity` when bounded).
    pub max_in_flight: usize,
    /// Jobs completed per worker.
    pub per_worker_jobs: Vec<usize>,
    /// Workers killed by the fault plan.
    pub workers_died: usize,
    /// Wall time of the whole run, from `run_farm` entry to the last seal —
    /// also when [`FarmConfig::epoch`] puts the event timestamps on an older
    /// shared clock.
    pub elapsed_nanos: u64,
}

impl FarmStats {
    /// Completed jobs per wall second.
    pub fn jobs_per_sec(&self) -> f64 {
        if self.elapsed_nanos == 0 {
            return 0.0;
        }
        self.n_jobs as f64 / (self.elapsed_nanos as f64 / 1e9)
    }
}

/// Everything a farm run produced: one result slot per submitted job, in
/// submission order, plus the run's accounting.
#[derive(Debug)]
pub struct FarmOutcome<R> {
    /// `results[i]` is job `i`'s result or its typed failure.
    pub results: Vec<Result<R, FarmError>>,
    pub stats: FarmStats,
}

impl<R> FarmOutcome<R> {
    /// All results, or the first failure (by job order).
    pub fn into_results(self) -> Result<Vec<R>, FarmError> {
        self.results.into_iter().collect()
    }

    /// The first failure in job order, if any.
    pub fn first_error(&self) -> Option<&FarmError> {
        self.results.iter().find_map(|r| r.as_ref().err())
    }
}

/// Render a panic payload as text.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

// ---------------------------------------------------------------------------
// Internals
// ---------------------------------------------------------------------------

/// The farm's wall-clock telemetry handles, resolved from the global
/// [`obs`] registry once per run. Only built when the registry is enabled
/// at farm start, so a disabled registry costs the farm exactly one
/// `is_enabled` load — no handle registration, no name formatting, and no
/// per-job recording.
struct FarmMetrics {
    /// `farm_queue_wait_ns_w<i>`: push-to-claim latency, recorded by the
    /// worker that ran the job.
    queue_wait: Vec<obs::Histogram>,
    /// `farm_job_run_ns_w<i>`: job execution wall time per worker.
    run: Vec<obs::Histogram>,
    /// `farm_seal_lag_ns_w<i>`: completion-to-seal latency per worker —
    /// how long a finished job waited for its in-order turn.
    seal_lag: Vec<obs::Histogram>,
    /// Tick exactly where [`FarmStats`] ticks, so the registry and the
    /// stats can never disagree.
    jobs: obs::Counter,
    failed: obs::Counter,
    backpressure: obs::Counter,
    deaths: obs::Counter,
}

impl FarmMetrics {
    fn new(n_workers: usize) -> Option<FarmMetrics> {
        let reg = obs::global();
        if !reg.is_enabled() {
            return None;
        }
        Some(FarmMetrics {
            queue_wait: (0..n_workers)
                .map(|i| reg.histogram(&format!("farm_queue_wait_ns_w{i}")))
                .collect(),
            run: (0..n_workers).map(|i| reg.histogram(&format!("farm_job_run_ns_w{i}"))).collect(),
            seal_lag: (0..n_workers)
                .map(|i| reg.histogram(&format!("farm_seal_lag_ns_w{i}")))
                .collect(),
            jobs: reg.counter("farm_jobs_total"),
            failed: reg.counter("farm_jobs_failed_total"),
            backpressure: reg.counter("farm_backpressure_waits_total"),
            deaths: reg.counter("farm_workers_died_total"),
        })
    }
}

/// A job's landed outcome plus the provenance the seal needs to record
/// seal lag: when it completed and which worker ran it (`usize::MAX` for
/// jobs written off as [`FarmError::WorkerLost`]).
struct Slot<R> {
    result: Result<R, FarmError>,
    completed_at: u64,
    worker: usize,
}

/// Worker→feeder mail. Events and completions share one list so the
/// observer sees a worker's `JobStarted` before its `JobCompleted`.
enum Mail<R> {
    Event(FarmEvent),
    Done(usize, Slot<R>),
}

/// Everything the feeder and the workers share, behind the farm's one lock.
struct State<J, R> {
    /// Submitted, unclaimed jobs in submission order: `(job index, job,
    /// enqueued_at nanos)`; the timestamp feeds the queue-wait histogram.
    queue: VecDeque<(usize, J, u64)>,
    submitted: usize,
    completed: usize,
    /// No more submissions will arrive.
    closed: bool,
    /// Workers not yet killed by the fault plan.
    live_workers: usize,
    mail: Vec<Mail<R>>,
}

struct Shared<J, R> {
    state: Mutex<State<J, R>>,
    /// Workers wait here for work (or close).
    work_cv: Condvar,
    /// The feeder waits here for completions (capacity or final drain).
    done_cv: Condvar,
}

impl<J, R> Shared<J, R> {
    /// Lock the farm state. Only queue and counter bookkeeping runs under
    /// this guard — jobs run on the workers and every caller hook on the
    /// feeder with it released — so nothing can panic while it is held, the
    /// mutex is never poisoned, and the `expect`s here and on the condvar
    /// waits are unreachable.
    fn lock(&self) -> MutexGuard<'_, State<J, R>> {
        self.state.lock().expect("farm state")
    }
}

/// Closes the queue when the feeding thread leaves its loop — at the end
/// of the feed, or unwinding from a panicking feed, observer or seal hook —
/// so idle workers wake, run what is queued and exit, and `thread::scope`
/// joins them and resumes the panic instead of waiting forever.
struct CloseOnDrop<'a, J, R>(&'a Shared<J, R>);

impl<J, R> Drop for CloseOnDrop<'_, J, R> {
    fn drop(&mut self) {
        // No `expect` in a destructor that may run during an unwind; setting
        // the flag is valid on any state.
        self.0.state.lock().unwrap_or_else(PoisonError::into_inner).closed = true;
        self.0.work_cv.notify_all();
    }
}

fn nanos(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

/// Claim jobs from the front of the queue until it is closed and empty (or
/// the fault plan kills this worker). Every notify follows the unlock, so a
/// woken thread does not wake only to block on the lock.
fn worker_loop<J, R, W, F>(
    shared: &Shared<J, R>,
    id: usize,
    mut shard: W,
    work: &F,
    fault: &FarmFaultPlan,
    epoch: Instant,
    metrics: Option<&FarmMetrics>,
) where
    J: Send,
    R: Send,
    F: Fn(&mut W, usize, J) -> R + Sync,
{
    let quota = fault.death_after(id);
    let mut done_here = 0usize;
    let mut state = shared.lock();
    loop {
        if quota == Some(done_here) {
            state.live_workers -= 1;
            state
                .mail
                .push(Mail::Event(FarmEvent::WorkerDied { at_nanos: nanos(epoch), worker: id }));
            drop(state);
            shared.done_cv.notify_all();
            return;
        }
        let Some((idx, job, enqueued_at)) = state.queue.pop_front() else {
            if state.closed {
                return;
            }
            state = shared.work_cv.wait(state).expect("farm state");
            continue;
        };
        drop(state);
        let started = nanos(epoch);
        let result = if fault.injects_fault(idx) {
            Err(FarmError::InjectedFault { job: idx, worker: id })
        } else {
            catch_unwind(AssertUnwindSafe(|| work(&mut shard, idx, job))).map_err(|payload| {
                FarmError::JobPanicked {
                    job: idx,
                    worker: id,
                    message: panic_message(payload.as_ref()),
                }
            })
        };
        done_here += 1;
        let ok = result.is_ok();
        let finished = nanos(epoch);
        if let Some(m) = metrics {
            m.queue_wait[id].record(started.saturating_sub(enqueued_at));
            m.run[id].record(finished.saturating_sub(started));
        }
        state = shared.lock();
        state.completed += 1;
        state.mail.extend([
            Mail::Event(FarmEvent::JobStarted {
                at_nanos: started,
                worker: id,
                job: idx,
                enqueued_at_nanos: enqueued_at,
            }),
            Mail::Done(idx, Slot { result, completed_at: finished, worker: id }),
            Mail::Event(FarmEvent::JobCompleted {
                at_nanos: finished,
                worker: id,
                job: idx,
                ok,
                started_at_nanos: started,
            }),
        ]);
        drop(state);
        shared.done_cv.notify_all();
        state = shared.lock();
    }
}

/// The feeding thread's half of a run: the landed results, the in-order
/// seal, the accounting and the caller's hooks.
struct Feeder<'m, 'o, R, S> {
    results: Vec<Option<Slot<R>>>,
    sealed: usize,
    stats: FarmStats,
    metrics: Option<&'m FarmMetrics>,
    epoch: Instant,
    observer: Option<&'o mut dyn FarmObserver>,
    on_sealed: S,
}

impl<R, S> Feeder<'_, '_, R, S>
where
    S: FnMut(usize, &Result<R, FarmError>),
{
    fn land(&mut self, job: usize, slot: Slot<R>) {
        if self.results.len() <= job {
            self.results.resize_with(job + 1, || None);
        }
        if slot.worker != usize::MAX {
            self.stats.per_worker_jobs[slot.worker] += 1;
        }
        if slot.result.is_err() {
            self.stats.n_failed += 1;
        }
        self.results[job] = Some(slot);
    }

    /// Write job `job` off: no worker is left to run it.
    fn lose(&mut self, job: usize) {
        let result = Err(FarmError::WorkerLost { job });
        self.land(job, Slot { result, completed_at: nanos(self.epoch), worker: usize::MAX });
    }

    /// Take the workers' mail out of `state` and release the lock; then
    /// forward events to the observer, land completions in their slots and
    /// flush the in-order prefix through `on_sealed`. The guard is taken by
    /// value, so no hook runs while the farm state is locked.
    ///
    /// The seal is the exactly-once point of the farm, so the registry's
    /// job counters tick there — they agree with [`FarmStats`] by
    /// construction, not by auditing. One `nanos(epoch)` read per job feeds
    /// both the seal-lag histogram and the [`FarmEvent::JobSealed`] event,
    /// so an observer re-deriving the lag from the event gets the
    /// histogram's integer exactly.
    fn drain<J>(&mut self, mut state: MutexGuard<'_, State<J, R>>) {
        let mail = std::mem::take(&mut state.mail);
        drop(state);
        for item in mail {
            match item {
                Mail::Event(ev) => {
                    if let FarmEvent::WorkerDied { .. } = ev {
                        self.stats.workers_died += 1;
                        if let Some(m) = self.metrics {
                            m.deaths.inc();
                        }
                    }
                    if let Some(obs) = self.observer.as_deref_mut() {
                        obs.on_event(ev);
                    }
                }
                Mail::Done(job, slot) => self.land(job, slot),
            }
        }
        while let Some(Some(slot)) = self.results.get(self.sealed) {
            let sealed_at = nanos(self.epoch);
            if let Some(m) = self.metrics {
                m.jobs.inc();
                if slot.result.is_err() {
                    m.failed.inc();
                }
                if slot.worker != usize::MAX {
                    m.seal_lag[slot.worker].record(sealed_at.saturating_sub(slot.completed_at));
                }
            }
            if let Some(obs) = self.observer.as_deref_mut() {
                obs.on_event(FarmEvent::JobSealed {
                    at_nanos: sealed_at,
                    worker: slot.worker,
                    job: self.sealed,
                    ok: slot.result.is_ok(),
                    completed_at_nanos: slot.completed_at,
                });
            }
            (self.on_sealed)(self.sealed, &slot.result);
            self.sealed += 1;
        }
    }
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

/// Run `jobs` through the farm. The full entry point; see [`run_batch`]
/// for the common no-hooks case.
///
/// * `make_shard(worker)` builds each worker's reusable mutable state.
/// * `work(&mut shard, job_index, job)` executes one job on a worker.
/// * `observer`, if present, receives [`FarmEvent`]s on this thread.
/// * `on_sealed(i, result)` fires exactly once per job, in strict
///   submission order (job `i` seals only after `0..i` have), on this
///   thread — the checkpoint-append hook.
///
/// Returns one result slot per job, in submission order. Job failures are
/// data; the call panics on misuse (`n_workers == 0`) and re-raises a
/// panic from the observer or `on_sealed` once the workers have stopped.
pub fn run_farm<J, R, W, MkW, F, S>(
    config: &FarmConfig,
    jobs: impl IntoIterator<Item = J>,
    make_shard: MkW,
    work: F,
    observer: Option<&mut dyn FarmObserver>,
    on_sealed: S,
) -> FarmOutcome<R>
where
    J: Send,
    R: Send,
    W: Send,
    MkW: FnMut(usize) -> W,
    F: Fn(&mut W, usize, J) -> R + Sync,
    S: FnMut(usize, &Result<R, FarmError>),
{
    let mut jobs = jobs.into_iter();
    run_farm_polling(
        config,
        move || jobs.next().map_or(FeedPoll::Closed, FeedPoll::Job),
        make_shard,
        work,
        observer,
        on_sealed,
    )
}

/// [`run_farm`] with a *polling* feed: `feed()` is called on this thread
/// for every job and may answer [`FeedPoll::Idle`] instead of blocking
/// until one exists. On each `Idle` the farm drains worker mail — landing
/// completions, advancing the in-order seal, and forwarding
/// [`FarmEvent`]s — before polling again, so a long-lived feed (a service
/// queue) gets live seals and telemetry between submissions instead of
/// only when the next job happens to arrive. The feed is responsible for
/// its own bounded wait before answering `Idle`; the farm never sleeps.
/// A panicking feed closes the queue and propagates once the workers have
/// finished what was queued.
pub fn run_farm_polling<J, R, W, MkW, F, S>(
    config: &FarmConfig,
    mut feed: impl FnMut() -> FeedPoll<J>,
    mut make_shard: MkW,
    work: F,
    observer: Option<&mut dyn FarmObserver>,
    on_sealed: S,
) -> FarmOutcome<R>
where
    J: Send,
    R: Send,
    W: Send,
    MkW: FnMut(usize) -> W,
    F: Fn(&mut W, usize, J) -> R + Sync,
    S: FnMut(usize, &Result<R, FarmError>),
{
    assert!(config.n_workers >= 1, "farm needs at least one worker");
    let n_workers = config.n_workers;
    let run_start = Instant::now();
    let epoch = config.epoch.unwrap_or(run_start);
    let shared = Shared {
        state: Mutex::new(State {
            queue: VecDeque::new(),
            submitted: 0,
            completed: 0,
            closed: false,
            live_workers: n_workers,
            mail: Vec::new(),
        }),
        work_cv: Condvar::new(),
        done_cv: Condvar::new(),
    };
    let shards: Vec<W> = (0..n_workers).map(&mut make_shard).collect();
    let metrics = FarmMetrics::new(n_workers);
    let mut feeder = Feeder {
        results: Vec::new(),
        sealed: 0,
        stats: FarmStats { per_worker_jobs: vec![0; n_workers], ..FarmStats::default() },
        metrics: metrics.as_ref(),
        epoch,
        observer,
        on_sealed,
    };

    std::thread::scope(|s| {
        let close = CloseOnDrop(&shared);
        for (id, shard) in shards.into_iter().enumerate() {
            let (shared, work, fault, metrics) = (&shared, &work, &config.fault, feeder.metrics);
            s.spawn(move || worker_loop(shared, id, shard, work, fault, epoch, metrics));
        }

        // Feed with backpressure; an idle feed triggers a drain instead of
        // a dispatch, so seals never wait for the next submission.
        let mut next_idx = 0usize;
        loop {
            let job = match feed() {
                FeedPoll::Closed => break,
                FeedPoll::Idle => {
                    feeder.drain(shared.lock());
                    continue;
                }
                FeedPoll::Job(job) => job,
            };
            let idx = next_idx;
            next_idx += 1;
            let mut state = shared.lock();
            loop {
                let in_flight = state.submitted - state.completed;
                if !state.mail.is_empty() {
                    feeder.drain(state);
                    state = shared.lock();
                } else if state.live_workers == 0 {
                    drop(state);
                    feeder.lose(idx);
                    break;
                } else if config.capacity == 0 || in_flight < config.capacity {
                    state.submitted += 1;
                    feeder.stats.max_in_flight = feeder.stats.max_in_flight.max(in_flight + 1);
                    state.queue.push_back((idx, job, nanos(epoch)));
                    drop(state);
                    shared.work_cv.notify_one();
                    break;
                } else {
                    if let Some(m) = feeder.metrics {
                        m.backpressure.inc();
                    }
                    state = shared.done_cv.wait(state).expect("farm state");
                }
            }
        }
        drop(close);

        // Drain until every submitted job has a completion (or the jobs
        // stranded by a total worker loss are written off).
        let mut state = shared.lock();
        loop {
            if !state.mail.is_empty() {
                feeder.drain(state);
                state = shared.lock();
            } else if state.completed == state.submitted {
                break;
            } else if state.live_workers == 0 {
                let stranded = std::mem::take(&mut state.queue);
                state.completed = state.submitted;
                drop(state);
                for (idx, _job, _enqueued_at) in stranded {
                    feeder.lose(idx);
                }
                state = shared.lock();
            } else {
                state = shared.done_cv.wait(state).expect("farm state");
            }
        }
    });

    // The drain loop exits on the last completion, but a worker can still
    // post mail after that (its fault-plan death races the final drain).
    // All workers have joined here, so one more drain observes everything;
    // it also flushes the seal.
    feeder.drain(shared.lock());
    let mut stats = feeder.stats;
    // The run's own wall, not time on the (possibly much older) shared
    // event clock: `jobs_per_sec` divides by it.
    stats.elapsed_nanos = nanos(run_start);
    stats.n_jobs = feeder.results.len();
    let results: Vec<Result<R, FarmError>> = feeder
        .results
        .into_iter()
        .map(|slot| slot.expect("every job sealed exactly once").result)
        .collect();
    FarmOutcome { results, stats }
}

/// The common case: a materialized job list, stateless workers, no hooks.
/// A panicking job surfaces as a typed per-job failure, not a propagated
/// panic.
pub fn run_batch<J, R, F>(jobs: Vec<J>, n_workers: usize, work: F) -> FarmOutcome<R>
where
    J: Send,
    R: Send,
    F: Fn(usize, J) -> R + Sync,
{
    let config = FarmConfig::new(n_workers);
    run_farm(&config, jobs, |_| (), |(), idx, job| work(idx, job), None, |_, _| {})
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn batch_preserves_submission_order() {
        let outcome = run_batch((0..100u64).collect(), 4, |_, j| j * j);
        assert_eq!(outcome.results.len(), 100);
        for (i, r) in outcome.results.iter().enumerate() {
            assert_eq!(*r.as_ref().unwrap(), (i * i) as u64);
        }
        assert_eq!(outcome.stats.n_jobs, 100);
        assert_eq!(outcome.stats.n_failed, 0);
        assert_eq!(outcome.stats.per_worker_jobs.iter().sum::<usize>(), 100);
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let counter = AtomicUsize::new(0);
        let outcome = run_batch(vec![(); 257], 8, |_, ()| counter.fetch_add(1, Ordering::SeqCst));
        assert_eq!(outcome.results.len(), 257);
        assert_eq!(counter.load(Ordering::SeqCst), 257);
    }

    #[test]
    fn single_worker_runs_in_submission_order() {
        let outcome = run_batch(vec![1, 2, 3], 1, |idx, j| (idx, j));
        let values: Vec<_> = outcome.into_results().unwrap();
        assert_eq!(values, vec![(0, 1), (1, 2), (2, 3)]);
    }

    #[test]
    fn more_workers_than_jobs() {
        let outcome = run_batch(vec![7], 16, |_, j: i32| j + 1);
        assert_eq!(outcome.into_results().unwrap(), vec![8]);
    }

    #[test]
    fn empty_job_list() {
        let outcome = run_batch(Vec::<u32>::new(), 4, |_, j| j);
        assert!(outcome.results.is_empty());
        assert_eq!(outcome.stats.n_jobs, 0);
    }

    #[test]
    fn panicking_job_is_isolated_with_original_message() {
        let outcome = run_batch((0..50u32).collect(), 4, |_, j| {
            if j == 17 {
                panic!("job seventeen exploded");
            }
            j * 2
        });
        assert_eq!(outcome.results.len(), 50);
        assert_eq!(outcome.stats.n_failed, 1);
        for (i, r) in outcome.results.iter().enumerate() {
            if i == 17 {
                match r {
                    Err(FarmError::JobPanicked { job: 17, message, .. }) => {
                        assert!(message.contains("seventeen exploded"), "{message}");
                    }
                    other => panic!("expected JobPanicked, got {other:?}"),
                }
            } else {
                assert_eq!(*r.as_ref().unwrap(), (i as u32) * 2);
            }
        }
        assert_eq!(outcome.first_error().unwrap().job(), 17);
    }

    #[test]
    fn injected_fault_is_typed_and_contained() {
        let config = FarmConfig::new(3).with_fault(FarmFaultPlan::none().fail_job(2).fail_job(5));
        let outcome =
            run_farm(&config, (0..8u32).collect::<Vec<_>>(), |_| (), |(), _, j| j, None, |_, _| {});
        assert_eq!(outcome.stats.n_failed, 2);
        for (i, r) in outcome.results.iter().enumerate() {
            if i == 2 || i == 5 {
                assert!(matches!(r, Err(FarmError::InjectedFault { .. })), "{i}: {r:?}");
            } else {
                assert_eq!(*r.as_ref().unwrap(), i as u32);
            }
        }
    }

    #[test]
    fn a_dead_workers_share_runs_on_the_survivors() {
        // Worker 0 dies before claiming anything; the survivors run the
        // whole queue.
        let config = FarmConfig::new(3).with_fault(FarmFaultPlan::none().kill_worker_after(0, 0));
        let outcome = run_farm(
            &config,
            (0..60u32).collect::<Vec<_>>(),
            |_| (),
            |(), _, j| j + 1,
            None,
            |_, _| {},
        );
        assert_eq!(outcome.stats.workers_died, 1);
        assert_eq!(outcome.stats.n_failed, 0);
        assert_eq!(outcome.stats.per_worker_jobs[0], 0);
        for (i, r) in outcome.results.iter().enumerate() {
            assert_eq!(*r.as_ref().unwrap(), i as u32 + 1);
        }
    }

    #[test]
    fn total_worker_loss_surfaces_as_worker_lost() {
        let config = FarmConfig::new(2)
            .with_fault(FarmFaultPlan::none().kill_worker_after(0, 0).kill_worker_after(1, 0));
        let outcome = run_farm(
            &config,
            (0..10u32).collect::<Vec<_>>(),
            |_| (),
            |(), _, j| j,
            None,
            |_, _| {},
        );
        assert_eq!(outcome.results.len(), 10);
        assert_eq!(outcome.stats.n_failed, 10);
        for r in &outcome.results {
            assert!(matches!(r, Err(FarmError::WorkerLost { .. })), "{r:?}");
        }
    }

    #[test]
    fn bounded_submission_respects_capacity() {
        let config = FarmConfig::new(4).bounded(5);
        let outcome = run_farm(
            &config,
            (0..200u32).collect::<Vec<_>>(),
            |_| (),
            |(), _, j| j % 7,
            None,
            |_, _| {},
        );
        assert!(outcome.stats.max_in_flight <= 5, "{}", outcome.stats.max_in_flight);
        assert_eq!(outcome.results.len(), 200);
        assert_eq!(outcome.stats.n_failed, 0);
    }

    #[test]
    fn seal_callback_fires_in_strict_job_order() {
        let mut sealed: Vec<usize> = Vec::new();
        let config = FarmConfig::new(4).with_fault(FarmFaultPlan::none().fail_job(30));
        let outcome = run_farm(
            &config,
            (0..120u32).collect::<Vec<_>>(),
            |_| (),
            |(), _, j| j,
            None,
            |i, _res| sealed.push(i),
        );
        assert_eq!(sealed, (0..120).collect::<Vec<_>>());
        assert_eq!(outcome.results.len(), 120);
    }

    #[test]
    fn shards_persist_across_a_workers_jobs() {
        // Each worker's shard counts the jobs it ran; the shard totals must
        // account for every job exactly once.
        let totals = Mutex::new(vec![0usize; 4]);
        let outcome = run_farm(
            &FarmConfig::new(4),
            vec![(); 97],
            |id| (id, 0usize),
            |shard: &mut (usize, usize), _, ()| {
                shard.1 += 1;
                shard.1
            },
            None,
            |_, _| {},
        );
        drop(totals.lock().unwrap());
        assert_eq!(outcome.results.len(), 97);
        assert_eq!(outcome.stats.per_worker_jobs.iter().sum::<usize>(), 97);
        // A worker's k-th job sees shard counter k: reuse is real.
        let max_result = outcome.results.iter().map(|r| *r.as_ref().unwrap()).max().unwrap();
        assert!(max_result >= 97usize.div_ceil(4));
    }

    #[test]
    fn polling_feed_seals_while_idle_and_matches_iterator_results() {
        // A feed that hands out one job, goes idle until that job has
        // *sealed* (observer event delivered), then hands out the next.
        // Under the iterator feed this would deadlock — seals only
        // advanced when the next job arrived; the polling feed drains
        // worker mail on every Idle, so the seal lands between jobs.
        let sealed = std::cell::Cell::new(0usize);
        let handed = std::cell::Cell::new(0usize);
        let events = std::cell::RefCell::new(Vec::new());
        let mut obs = |ev: FarmEvent| {
            if matches!(ev, FarmEvent::JobSealed { .. }) {
                sealed.set(sealed.get() + 1);
            }
            events.borrow_mut().push(ev);
        };
        let outcome = run_farm_polling(
            &FarmConfig::new(2),
            || {
                if handed.get() == 12 {
                    FeedPoll::Closed
                } else if handed.get() == sealed.get() {
                    handed.set(handed.get() + 1);
                    FeedPoll::Job(handed.get() as u32)
                } else {
                    // The pending job is still running; yield briefly so
                    // the worker can finish, then let the farm drain.
                    std::thread::sleep(std::time::Duration::from_micros(200));
                    FeedPoll::Idle
                }
            },
            |_| (),
            |(), _, j| j * 10,
            Some(&mut obs),
            |_, _| {},
        );
        assert_eq!(sealed.get(), 12, "every job sealed without a successor forcing the drain");
        let results: Vec<u32> = outcome.results.into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(results, (1..=12).map(|j| j * 10).collect::<Vec<_>>());
        assert_eq!(outcome.stats.n_jobs, 12);
        assert_eq!(outcome.stats.n_failed, 0);
    }

    #[test]
    fn observer_sees_coherent_per_job_lifecycles() {
        let mut events: Vec<FarmEvent> = Vec::new();
        let mut obs = |ev: FarmEvent| events.push(ev);
        // Quota 0 so the death is unconditional: a nonzero quota only fires
        // if the worker actually completes that many jobs, which scheduling
        // on a small machine may never let happen.
        let config = FarmConfig::new(3).with_fault(FarmFaultPlan::none().kill_worker_after(2, 0));
        let outcome = run_farm(
            &config,
            (0..40u32).collect::<Vec<_>>(),
            |_| (),
            |(), _, j| j,
            Some(&mut obs),
            |_, _| {},
        );
        let starts = events.iter().filter(|e| matches!(e, FarmEvent::JobStarted { .. })).count();
        let completes =
            events.iter().filter(|e| matches!(e, FarmEvent::JobCompleted { .. })).count();
        let deaths = events.iter().filter(|e| matches!(e, FarmEvent::WorkerDied { .. })).count();
        assert_eq!(starts, 40);
        assert_eq!(completes, 40);
        assert_eq!(deaths, 1);
        assert_eq!(outcome.stats.workers_died, 1);
    }

    #[test]
    fn events_carry_exact_interval_endpoints_and_seal_in_order() {
        let mut events: Vec<FarmEvent> = Vec::new();
        let mut obs = |ev: FarmEvent| events.push(ev);
        let epoch = Instant::now();
        let config = FarmConfig::new(3).with_epoch(epoch).with_fault(FarmFaultPlan::none());
        run_farm(
            &config,
            (0..30u32).collect::<Vec<_>>(),
            |_| (),
            |(), _, j| j,
            Some(&mut obs),
            |_, _| {},
        );

        // Each job's lifecycle endpoints chain: enqueue ≤ start ≤ complete
        // ≤ seal, and the shared endpoints are the same integers across
        // events (the histogram-coherence invariant).
        let mut started = std::collections::HashMap::new();
        let mut completed = std::collections::HashMap::new();
        let mut seals = Vec::new();
        for ev in &events {
            match *ev {
                FarmEvent::JobStarted { at_nanos, job, enqueued_at_nanos, .. } => {
                    assert!(enqueued_at_nanos <= at_nanos);
                    started.insert(job, at_nanos);
                }
                FarmEvent::JobCompleted { at_nanos, job, started_at_nanos, .. } => {
                    assert_eq!(started[&job], started_at_nanos, "start endpoint must match");
                    assert!(started_at_nanos <= at_nanos);
                    completed.insert(job, at_nanos);
                }
                FarmEvent::JobSealed { at_nanos, job, ok, completed_at_nanos, worker } => {
                    assert!(ok);
                    assert_ne!(worker, usize::MAX);
                    assert_eq!(completed[&job], completed_at_nanos, "completion endpoint");
                    assert!(completed_at_nanos <= at_nanos);
                    seals.push(job);
                }
                _ => {}
            }
        }
        assert_eq!(seals, (0..30).collect::<Vec<_>>(), "seals fire in submission order");
    }

    #[test]
    fn jobs_start_in_submission_order() {
        // Job 0 holds one worker until the other 39 jobs are done, so the
        // second worker runs all of them alone, in the order it claims them.
        let order = Mutex::new(Vec::new());
        let outcome = run_batch((0..40usize).collect(), 2, |idx, _| {
            if idx == 0 {
                let deadline = Instant::now() + std::time::Duration::from_secs(10);
                while order.lock().unwrap().len() < 39 && Instant::now() < deadline {
                    std::hint::spin_loop();
                }
            } else {
                order.lock().unwrap().push(idx);
            }
        });
        assert_eq!(outcome.stats.n_failed, 0);
        assert_eq!(order.into_inner().unwrap(), (1..40).collect::<Vec<_>>());
    }

    #[test]
    fn results_are_deterministic_across_worker_counts() {
        let run = |n: usize| {
            run_batch((0..50u64).collect(), n, |_, j| (j as f64).sin().to_bits())
                .into_results()
                .unwrap()
        };
        let one = run(1);
        assert_eq!(one, run(2));
        assert_eq!(one, run(8));
    }

    /// A farm started late on a shared clock reports its own wall time:
    /// events stay on the shared clock, throughput does not.
    #[test]
    fn elapsed_is_measured_from_the_run_not_from_a_shared_epoch() {
        let epoch = Instant::now();
        std::thread::sleep(std::time::Duration::from_millis(20));
        let mut first_event_at = None;
        let mut obs = |ev: FarmEvent| {
            if let FarmEvent::JobStarted { at_nanos, .. } = ev {
                first_event_at.get_or_insert(at_nanos);
            }
        };
        let config = FarmConfig::new(2).with_epoch(epoch);
        let outer = Instant::now();
        let outcome = run_farm(
            &config,
            (0..10u32).collect::<Vec<_>>(),
            |_| (),
            |(), _, j| j,
            Some(&mut obs),
            |_, _| {},
        );
        let outer_nanos = outer.elapsed().as_nanos() as u64;
        assert!(
            outcome.stats.elapsed_nanos <= outer_nanos,
            "run wall {} ns exceeds the caller's own measurement {} ns",
            outcome.stats.elapsed_nanos,
            outer_nanos
        );
        assert!(first_event_at.unwrap() >= 20_000_000, "events keep the shared clock");
        assert!(outcome.stats.jobs_per_sec() >= 10.0 / (outer_nanos as f64 / 1e9));
    }

    #[test]
    fn stats_jobs_per_sec_is_finite() {
        let outcome = run_batch((0..10u32).collect(), 2, |_, j| j);
        assert!(outcome.stats.jobs_per_sec().is_finite());
        assert!(outcome.stats.elapsed_nanos > 0);
    }
}
