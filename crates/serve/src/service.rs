//! The service core: per-tenant FIFO queues drained by a fair round-robin
//! scheduler into **one long-lived farm run**, admission control, status
//! polling, and crash-safe jobs.
//!
//! ## Threading model
//!
//! [`InferenceService::start`] spawns a scheduler thread that calls
//! [`phylo::farm::run_farm_polling`] once with a polling job feed
//! ([`FeedPoll`]): each poll parks on a condvar for a bounded time until a
//! queued job exists (or shutdown drains the queues), so the farm's worker
//! pool — and every per-worker [`LikelihoodWorkspace`] arena — persists
//! across jobs instead of being rebuilt per batch. Submissions are cheap
//! queue pushes from any thread.
//!
//! One farm subtlety shapes the design: the farm delivers seal callbacks on
//! the *feeding* thread, which in a persistent service is usually parked
//! inside the feed. Seals therefore lag. The authoritative
//! completion path is the **work closure** (worker thread): it writes
//! `Done`/`Failed` into the job table and notifies waiters the moment the
//! inference finishes. `on_sealed` only settles jobs the closure never got
//! to run (farm write-offs) and feeds the exactly-once cross-check counters
//! reported by [`ShutdownReport`]; both paths converge on one idempotent
//! `finish` routine, so a job is accounted exactly once no matter which
//! fires first.
//!
//! ## Fairness
//!
//! Each tenant gets a FIFO queue; the feed cycles tenants in first-seen
//! order and takes at most one job per visit, so a tenant that dumps 100
//! jobs cannot starve one that submits a single job — dispatch order
//! interleaves `a b c a b c …` regardless of arrival order.
//!
//! ## Admission control
//!
//! [`InferenceService::submit`] rejects instead of queueing unboundedly:
//! an explicit [`RejectReason`] for a full service queue, an exhausted
//! per-tenant in-flight quota, an unknown dataset, or a draining service.
//! Between the service queue and the workers sits the farm's own bounded
//! submission (`farm_capacity`), so accepted work is also backpressured on
//! its way into the deques.
//!
//! ## Crash safety
//!
//! With a state dir configured, every accepted job is journaled
//! ([`crate::journal`], torn-tail tolerant) and checkpointing jobs
//! snapshot through [`phylo::checkpoint::SearchCheckpointer`] under
//! `job-<id>.ckpt`. On restart the journal is replayed: finished jobs come
//! back pollable with their exact result bits, unfinished jobs re-enqueue
//! under their original ids and — when checkpointed — resume mid-search
//! bit-identically. A job interrupted mid-checkpoint is deliberately left
//! unsettled in the journal so the restart retries it.

use crate::journal::{self, Entry};
use crate::wire::{self, JobSpec, RejectReason, StatsWire, WireResult, WireState};
use obs::trace::{trace_id, SpanCtx};
use phylo::alignment::PatternAlignment;
use phylo::checkpoint::SearchCheckpointer;
use phylo::error::PhyloError;
use phylo::farm::{run_farm_polling, FarmConfig, FarmError, FarmEvent, FarmStats, FeedPoll};
use phylo::likelihood::LikelihoodWorkspace;
use phylo::search::{run_inference, InferenceOptions, SearchResult};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// When journal appends reach the disk (default: `sync_data` per append).
pub use obs::log::SyncPolicy;

/// How the service is sized and where (if anywhere) it persists state.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Farm worker threads.
    pub n_workers: usize,
    /// The farm's bounded in-flight submission cap (`0` = unbounded); the
    /// feed thread blocks when this many dispatched jobs are unfinished.
    pub farm_capacity: usize,
    /// Max admitted-but-unfinished jobs per tenant (`0` = unlimited).
    pub tenant_quota: usize,
    /// Max jobs waiting in the service queues (`0` = unlimited); beyond it
    /// submissions are rejected with [`RejectReason::QueueFull`].
    pub max_queue: usize,
    /// Directory for the journal and per-job checkpoints; `None` disables
    /// persistence (checkpoint-requesting jobs then run un-checkpointed).
    pub state_dir: Option<PathBuf>,
    /// Test hook: forward to
    /// [`SearchCheckpointer::abort_after_saves`](SearchCheckpointer) on
    /// every checkpointing job, modelling a crash between SPR rounds.
    pub abort_after_saves: Option<usize>,
    /// Start with dispatch paused (see [`InferenceService::resume`]) so
    /// datasets can be registered before recovered or pre-queued jobs run.
    pub start_paused: bool,
    /// Journal durability policy (default: `sync_data` per append).
    pub sync_policy: SyncPolicy,
    /// Per-job likelihood-workspace byte budget (`None` = unlimited). A
    /// submission whose estimated CLV footprint (taxa × patterns × rates)
    /// exceeds it is rejected at admission with
    /// [`RejectReason::MemoryBudget`] — it could only end in an OOM kill.
    pub memory_budget: Option<u64>,
    /// Collect per-job trace spans (see [`obs::trace`]). On by default; the
    /// benchmark's `obs.trace_overhead_pct` is the enabled-vs-disabled cost.
    pub tracing: bool,
}

impl ServiceConfig {
    /// A service with `n_workers` workers, farm capacity `2 * n_workers`,
    /// no quotas, no queue bound, and no persistence.
    pub fn new(n_workers: usize) -> ServiceConfig {
        ServiceConfig {
            n_workers,
            farm_capacity: 2 * n_workers,
            tenant_quota: 0,
            max_queue: 0,
            state_dir: None,
            abort_after_saves: None,
            start_paused: false,
            sync_policy: SyncPolicy::default(),
            memory_budget: None,
            tracing: true,
        }
    }

    pub fn with_farm_capacity(mut self, capacity: usize) -> ServiceConfig {
        self.farm_capacity = capacity;
        self
    }

    pub fn with_tenant_quota(mut self, quota: usize) -> ServiceConfig {
        self.tenant_quota = quota;
        self
    }

    pub fn with_max_queue(mut self, max: usize) -> ServiceConfig {
        self.max_queue = max;
        self
    }

    pub fn with_state_dir(mut self, dir: impl Into<PathBuf>) -> ServiceConfig {
        self.state_dir = Some(dir.into());
        self
    }

    pub fn paused(mut self) -> ServiceConfig {
        self.start_paused = true;
        self
    }

    /// Test hook: make every checkpointing job abort after `n` snapshots.
    pub fn with_abort_after_saves(mut self, n: usize) -> ServiceConfig {
        self.abort_after_saves = Some(n);
        self
    }

    /// Choose the journal durability policy.
    pub fn with_sync_policy(mut self, policy: SyncPolicy) -> ServiceConfig {
        self.sync_policy = policy;
        self
    }

    /// Cap every job's estimated likelihood-workspace footprint at
    /// `budget_bytes`; oversized jobs are rejected at admission.
    pub fn with_memory_budget(mut self, budget_bytes: u64) -> ServiceConfig {
        self.memory_budget = Some(budget_bytes);
        self
    }

    /// Turn per-job span collection on or off (`tracing`, default on).
    pub fn with_tracing(mut self, tracing: bool) -> ServiceConfig {
        self.tracing = tracing;
        self
    }
}

/// Service-wide accounting, the in-process twin of [`StatsWire`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Submissions admitted (including journal-recovered ones).
    pub accepted: u64,
    /// Submissions turned away at admission.
    pub rejected: u64,
    pub completed: u64,
    pub failed: u64,
    /// Jobs settled by cancellation (client request or expired deadline).
    pub cancelled: u64,
    /// Currently waiting in the service queues.
    pub queued: u64,
    /// Currently executing on a worker.
    pub running: u64,
}

impl ServiceStats {
    pub fn to_wire(self) -> StatsWire {
        StatsWire {
            accepted: self.accepted,
            rejected: self.rejected,
            completed: self.completed,
            failed: self.failed,
            cancelled: self.cancelled,
            queued: self.queued,
            running: self.running,
        }
    }
}

/// What [`InferenceService::shutdown`] returns: final service accounting,
/// the farm's own [`FarmStats`], and the seal counters — enough to prove
/// exactly-once execution (`dispatched == farm.n_jobs`,
/// `sealed_ok + sealed_failed == dispatched`, and
/// `completed + failed + cancelled == accepted` once the queues drained).
#[derive(Debug, Clone)]
pub struct ShutdownReport {
    pub stats: ServiceStats,
    pub farm: FarmStats,
    /// Jobs handed to the farm over the service's lifetime.
    pub dispatched: usize,
    /// Farm seals that carried a result.
    pub sealed_ok: u64,
    /// Farm seals that carried a [`FarmError`].
    pub sealed_failed: u64,
}

/// One job's lifecycle state in the table.
#[derive(Debug, Clone)]
enum JobState {
    Queued,
    Running,
    Done(WireResult),
    Failed(String),
    Cancelled(String),
}

/// How a job settles through the idempotent [`Shared::finish`] path.
enum Settle {
    Done(WireResult),
    Failed { message: String, interrupted: bool },
    Cancelled { reason: String, deadline: bool },
}

#[derive(Debug)]
struct JobRecord {
    tenant: String,
    spec: JobSpec,
    state: JobState,
    submitted_at: Instant,
    /// Submission time as a service-epoch offset — the root "job" span's
    /// start, and the sojourn histogram's basis (0 for journal-recovered
    /// jobs, whose real submission predates this process).
    submitted_ns: u64,
    /// The job's distributed-trace id (0 = untraced).
    trace: u64,
    /// Set by the idempotent `finish` routine — whichever of the work
    /// closure or the seal callback gets there first accounts the job.
    finished: bool,
}

impl JobRecord {
    fn state_str(&self) -> &'static str {
        match self.state {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done(_) => "done",
            JobState::Failed(_) => "failed",
            JobState::Cancelled(_) => "cancelled",
        }
    }
}

#[derive(Default)]
struct State {
    datasets: HashMap<String, Arc<PatternAlignment>>,
    jobs: HashMap<u64, JobRecord>,
    /// Tenants in first-seen order — the round-robin ring.
    tenants: Vec<String>,
    queues: HashMap<String, VecDeque<u64>>,
    rr_cursor: usize,
    /// `dispatch_order[farm_idx]` is the job id of farm submission
    /// `farm_idx` — the seal callback's index→id map, and the fairness
    /// tests' witness.
    dispatch_order: Vec<u64>,
    next_id: u64,
    in_flight: HashMap<String, usize>,
    /// `tenant \u{1} key` → job id: the exactly-once retry dedup map,
    /// rebuilt from the journal on restart.
    idem: HashMap<String, u64>,
    stats: ServiceStats,
    paused: bool,
    draining: bool,
}

/// Idempotency keys are scoped per tenant; `\u{1}` cannot appear in either
/// half, so the composite is collision-free.
fn idem_key(tenant: &str, key: &str) -> String {
    format!("{tenant}\u{1}{key}")
}

struct Shared {
    config: ServiceConfig,
    /// The service's single clock origin: farm event timestamps, span
    /// endpoints, and sojourn samples are all offsets from it, so spans
    /// assembled from different threads nest without any clock translation.
    epoch: Instant,
    state: Mutex<State>,
    /// Wakes the feed thread: new job queued, resume, or drain.
    feed_cv: Condvar,
    /// Wakes status waiters: some job reached `Done`/`Failed`.
    done_cv: Condvar,
    journal: Option<obs::log::RecordLog>,
    sealed_ok: AtomicU64,
    sealed_failed: AtomicU64,
}

impl Shared {
    /// Now, as a nanosecond offset from the service epoch — the same clock
    /// the farm stamps its events with (it runs `with_epoch(self.epoch)`).
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Feeder-thread bridge from farm lifecycle events to trace spans and
    /// histogram exemplars. The event payloads carry the *exact* interval
    /// endpoints the farm's own per-worker histograms recorded, so the
    /// queue_wait/run/seal spans emitted here are integer-equal with those
    /// histograms by construction — `tests/trace_e2e.rs` asserts it.
    fn trace_farm_event(&self, event: FarmEvent) {
        let tracer = obs::trace::global();
        if !tracer.is_enabled() {
            return;
        }
        let (farm_idx, name, start, end, worker, hist) = match event {
            FarmEvent::JobStarted { at_nanos, worker, job, enqueued_at_nanos } => {
                (job, "queue_wait", enqueued_at_nanos, at_nanos, worker, "farm_queue_wait_ns_w")
            }
            FarmEvent::JobCompleted { at_nanos, worker, job, started_at_nanos, .. } => {
                (job, "run", started_at_nanos, at_nanos, worker, "farm_job_run_ns_w")
            }
            FarmEvent::JobSealed { at_nanos, worker, job, completed_at_nanos, .. } => {
                (job, "seal", completed_at_nanos, at_nanos, worker, "farm_seal_lag_ns_w")
            }
            _ => return,
        };
        let trace = {
            let st = self.state.lock().expect("service state");
            st.dispatch_order.get(farm_idx).and_then(|id| st.jobs.get(id)).map(|r| r.trace)
        };
        let Some(trace) = trace else { return };
        let ctx = SpanCtx::root(trace).child("job", 0);
        tracer.span_aux(ctx, name, 0, start, end, worker as u64);
        // Link the histogram bucket back to this trace: the identical
        // integer the farm recorded, on the identical cell, through the
        // exemplar side channel (which never double-counts the value).
        // `usize::MAX` marks a worker-loss write-off, which the farm never
        // recorded — no cell to annotate.
        if worker != usize::MAX {
            obs::global()
                .histogram(&format!("{hist}{worker}"))
                .note_exemplar(end.saturating_sub(start), trace);
        }
    }

    fn journal(&self, entry: &Entry) {
        if let Some(journal) = &self.journal {
            // A failed append is rolled back and counted; the job stays
            // admitted, since refusing it would need a wire reject reason.
            journal.append(&entry.encode()).ok();
        }
    }

    /// The single idempotent completion path (worker closure, seal
    /// callback, or cancellation — whichever first). The first caller claims
    /// the job under the state lock and appends its journal mark with no
    /// lock held (synced under [`SyncPolicy::EveryAppend`]); only then does
    /// it publish the terminal state, update quotas, counters and metrics,
    /// and wake waiters. A job that reads as settled is therefore already
    /// durable.
    fn finish(&self, job_id: u64, outcome: Settle) {
        {
            let mut st = self.state.lock().expect("service state");
            let Some(rec) = st.jobs.get_mut(&job_id) else { return };
            if rec.finished {
                return;
            }
            rec.finished = true;
        }
        let entry = match &outcome {
            Settle::Done(result) => Some(Entry::Done { job: job_id, result: result.clone() }),
            // An interrupted checkpointing job is left unsettled in the
            // journal on purpose: a restart re-enqueues it and the
            // checkpoint tier resumes it bit-identically.
            Settle::Failed { interrupted: true, .. } => None,
            Settle::Failed { message, interrupted: false } => {
                Some(Entry::Failed { job: job_id, error: message.clone() })
            }
            Settle::Cancelled { reason, .. } => {
                Some(Entry::Cancelled { job: job_id, reason: reason.clone() })
            }
        };
        if let Some(entry) = entry {
            self.journal(&entry);
        }

        let mut st = self.state.lock().expect("service state");
        let rec = st.jobs.get_mut(&job_id).expect("a claimed job stays in the table");
        let was_running = matches!(rec.state, JobState::Running);
        let tenant = rec.tenant.clone();
        let submitted_ns = rec.submitted_ns;
        let trace = rec.trace;
        match outcome {
            Settle::Done(result) => {
                rec.state = JobState::Done(result);
                st.stats.completed += 1;
                obs::global().counter("serve_completed_total").inc();
            }
            Settle::Failed { message, .. } => {
                rec.state = JobState::Failed(message);
                st.stats.failed += 1;
                obs::global().counter("serve_failed_total").inc();
            }
            Settle::Cancelled { reason, deadline } => {
                rec.state = JobState::Cancelled(reason);
                st.stats.cancelled += 1;
                obs::global().counter("serve_cancelled_total").inc();
                if deadline {
                    obs::global().counter("serve_deadline_expired_total").inc();
                }
            }
        }
        if was_running {
            st.stats.running -= 1;
        }
        if let Some(n) = st.in_flight.get_mut(&tenant) {
            *n = n.saturating_sub(1);
        }
        // One `now_ns` read feeds both the sojourn histogram and the root
        // "job" span's end, so the span duration *is* the recorded sample —
        // and the exemplar makes the p99 bucket point back at this trace.
        let end_ns = self.now_ns();
        let sojourn = end_ns.saturating_sub(submitted_ns);
        obs::global().histogram("serve_sojourn_ns").record_traced(sojourn, trace);
        obs::trace::global().span_aux(SpanCtx::root(trace), "job", 0, submitted_ns, end_ns, job_id);
        drop(st);
        self.done_cv.notify_all();
        // Wake the farm feed so the mailbox drain (seal, queue_wait/run/
        // seal spans, exemplars) happens now, not at the next submission
        // or the idle-poll timeout.
        self.feed_cv.notify_all();
    }
}

/// How long the farm feed parks on `feed_cv` before reporting itself idle.
/// An idle report makes the farm drain worker mail (seals, trace spans,
/// exemplars), so this bounds how stale a live `/trace/<job>` or journal
/// seal can be on a quiet service even if no wake-up ever arrives.
const FEED_IDLE_POLL: Duration = Duration::from_millis(25);

/// The polling feed driving the farm: round-robin over tenant queues,
/// [`FeedPoll::Idle`] after one bounded park on `feed_cv` (the farm drains
/// its mailbox and polls again), [`FeedPoll::Closed`] once draining.
/// Completion wakes `feed_cv` too, so a finished job's seal and
/// queue_wait/run/seal spans land promptly instead of waiting for the next
/// submission — `tests/trace_e2e.rs` asserts this without a shutdown.
fn poll_feed(shared: &Shared) -> FeedPoll<u64> {
    let mut st = shared.state.lock().expect("service state");
    let mut waited = false;
    'scan: loop {
        if !st.paused {
            let n = st.tenants.len();
            for k in 0..n {
                let ti = (st.rr_cursor + k) % n;
                let tenant = st.tenants[ti].clone();
                let popped = st.queues.get_mut(&tenant).and_then(VecDeque::pop_front);
                if let Some(id) = popped {
                    st.rr_cursor = (ti + 1) % n;
                    st.stats.queued -= 1;
                    obs::global().gauge("serve_queue_depth").set(st.stats.queued as f64);
                    // A job cancelled while queued is already settled;
                    // skip it so `dispatched == farm.n_jobs` stays exact.
                    if st.jobs.get(&id).is_some_and(|r| r.finished) {
                        continue 'scan;
                    }
                    st.dispatch_order.push(id);
                    return FeedPoll::Job(id);
                }
            }
        }
        if st.draining {
            return FeedPoll::Closed;
        }
        if waited {
            return FeedPoll::Idle;
        }
        let (guard, _timeout) =
            shared.feed_cv.wait_timeout(st, FEED_IDLE_POLL).expect("service state");
        st = guard;
        waited = true;
    }
}

/// The persistent multi-tenant inference service. Cheap to share behind an
/// [`Arc`]; dropped or [`shutdown`](InferenceService::shutdown), it drains
/// its queues and joins the farm.
pub struct InferenceService {
    shared: Arc<Shared>,
    scheduler: Mutex<Option<JoinHandle<FarmStats>>>,
}

impl InferenceService {
    /// Start the farm and (with a state dir) replay the journal. Jobs
    /// recovered as unfinished are re-enqueued under their original ids;
    /// start [`paused`](ServiceConfig::paused) to register their datasets
    /// before the first dispatch. Also enables the global [`obs`] registry
    /// so the `/metrics` endpoint is live.
    pub fn start(config: ServiceConfig) -> std::io::Result<InferenceService> {
        assert!(config.n_workers >= 1, "service needs at least one worker");
        obs::global().set_enabled(true);
        obs::trace::global().set_enabled(config.tracing);
        // A job that is slower because its host lacks AVX2 must be
        // explainable from a scrape.
        obs::global().describe(
            "phylo_kernel_lanes",
            "Site patterns per register of the likelihood kernels on this host (4 = AVX2, 2 = portable).",
        );
        let lanes = phylo::likelihood::KernelTier::probe().lanes();
        obs::global().gauge("phylo_kernel_lanes").set(lanes as f64);
        // One clock origin for everything: taken before journal replay so
        // every later offset (farm events, spans, sojourns) is positive.
        let epoch = Instant::now();

        let mut state = State { paused: config.start_paused, next_id: 1, ..State::default() };
        let mut journal = None;
        if let Some(dir) = &config.state_dir {
            std::fs::create_dir_all(dir)?;
            let (opened, entries) = journal::open(&dir.join("journal.jsonl"), config.sync_policy)?;
            replay_journal(entries, &mut state);
            journal = Some(opened);
        }
        obs::global().gauge("serve_queue_depth").set(state.stats.queued as f64);

        let shared = Arc::new(Shared {
            config: config.clone(),
            epoch,
            state: Mutex::new(state),
            feed_cv: Condvar::new(),
            done_cv: Condvar::new(),
            journal,
            sealed_ok: AtomicU64::new(0),
            sealed_failed: AtomicU64::new(0),
        });

        let farm_config =
            FarmConfig::new(config.n_workers).bounded(config.farm_capacity).with_epoch(epoch);
        let feed_shared = shared.clone();
        let work_shared = shared.clone();
        let seal_shared = shared.clone();
        let event_shared = shared.clone();
        let scheduler =
            std::thread::Builder::new().name("serve-scheduler".to_string()).spawn(move || {
                // Live progress for the `/metrics` endpoint: farm lifecycle
                // events become registry counters as the feeder drains its
                // mailbox, so a scrape sees starts and deaths in flight,
                // not just at shutdown. The same events carry the exact
                // queue/run/seal interval endpoints, which the trace bridge
                // turns into spans and histogram exemplars.
                let mut observer = |event: FarmEvent| {
                    match event {
                        FarmEvent::JobStarted { .. } => {
                            obs::global().counter("serve_farm_started_total").inc()
                        }
                        FarmEvent::JobCompleted { .. } | FarmEvent::JobSealed { .. } => {}
                        FarmEvent::WorkerDied { .. } => {
                            obs::global().counter("serve_farm_worker_deaths_total").inc()
                        }
                    }
                    event_shared.trace_farm_event(event);
                };
                let outcome = run_farm_polling(
                    &farm_config,
                    move || poll_feed(&feed_shared),
                    |_| LikelihoodWorkspace::default(),
                    move |ws, _idx, job_id| execute_job(&work_shared, ws, job_id),
                    Some(&mut observer),
                    move |farm_idx, sealed| on_sealed(&seal_shared, farm_idx, sealed),
                );
                outcome.stats
            })?;

        Ok(InferenceService { shared, scheduler: Mutex::new(Some(scheduler)) })
    }

    /// Register (or replace) a named dataset jobs can reference.
    pub fn register_dataset(&self, name: &str, aln: PatternAlignment) {
        let mut st = self.shared.state.lock().expect("service state");
        st.datasets.insert(name.to_string(), Arc::new(aln));
    }

    /// Un-pause dispatch after a [`paused`](ServiceConfig::paused) start.
    pub fn resume(&self) {
        let mut st = self.shared.state.lock().expect("service state");
        st.paused = false;
        drop(st);
        self.shared.feed_cv.notify_all();
    }

    /// Admit a job (returning its id) or reject it with a typed reason.
    pub fn submit(&self, tenant: &str, spec: &JobSpec) -> Result<u64, RejectReason> {
        self.submit_idem(tenant, spec, None)
    }

    /// [`submit`](InferenceService::submit) with an optional client-chosen
    /// idempotency key. A key already bound to a job (including journal-
    /// recovered ones) short-circuits to that job's id **before** admission
    /// checks run — a retried submit never re-executes and never gets
    /// rejected for queue pressure its first attempt already paid for.
    pub fn submit_idem(
        &self,
        tenant: &str,
        spec: &JobSpec,
        idem: Option<&str>,
    ) -> Result<u64, RejectReason> {
        self.submit_traced(tenant, spec, idem, 0).map(|(id, _)| id)
    }

    /// [`submit_idem`](InferenceService::submit_idem), additionally binding
    /// the job to a distributed trace and returning `(job id, trace id)`.
    /// A nonzero `trace` (from the wire) is adopted as-is; `0` derives a
    /// deterministic id from `(tenant, idem, job id)` when tracing is on —
    /// the journal records it, so a replay reproduces the identical trace
    /// tree. An idempotency-key hit returns the original job's trace.
    pub fn submit_traced(
        &self,
        tenant: &str,
        spec: &JobSpec,
        idem: Option<&str>,
        trace: u64,
    ) -> Result<(u64, u64), RejectReason> {
        let mut st = self.shared.state.lock().expect("service state");
        if let Some(key) = idem {
            if let Some(&existing) = st.idem.get(&idem_key(tenant, key)) {
                obs::global().counter("serve_idem_hits_total").inc();
                let trace = st.jobs.get(&existing).map_or(0, |r| r.trace);
                return Ok((existing, trace));
            }
        }
        if st.draining {
            self.reject(&mut st);
            return Err(RejectReason::ShuttingDown);
        }
        let Some(dataset) = st.datasets.get(&spec.dataset) else {
            self.reject(&mut st);
            return Err(RejectReason::UnknownDataset);
        };
        // Admission-side memory planning: a job whose CLV arena cannot fit
        // the budget would only ever OOM a worker, so turn it away with the
        // footprint already computed.
        if LikelihoodWorkspace::check_budget(
            dataset.n_taxa(),
            dataset.n_patterns(),
            spec.to_request().config.n_rate_categories,
            self.shared.config.memory_budget,
        )
        .is_err()
        {
            self.reject(&mut st);
            return Err(RejectReason::MemoryBudget);
        }
        let quota = self.shared.config.tenant_quota;
        if quota > 0 && st.in_flight.get(tenant).copied().unwrap_or(0) >= quota {
            self.reject(&mut st);
            return Err(RejectReason::QuotaExceeded);
        }
        let max_queue = self.shared.config.max_queue;
        if max_queue > 0 && st.stats.queued as usize >= max_queue {
            self.reject(&mut st);
            return Err(RejectReason::QueueFull);
        }

        let id = st.next_id;
        st.next_id += 1;
        let trace = if trace != 0 {
            trace
        } else if obs::trace::global().is_enabled() {
            trace_id(tenant, idem.unwrap_or(""), id)
        } else {
            0
        };
        let submitted_ns = self.shared.now_ns();
        enqueue(&mut st, id, tenant.to_string(), spec.clone(), Instant::now(), trace, submitted_ns);
        if let Some(key) = idem {
            st.idem.insert(idem_key(tenant, key), id);
        }
        st.stats.accepted += 1;
        obs::global().counter("serve_submitted_total").inc();
        obs::global().gauge("serve_queue_depth").set(st.stats.queued as f64);
        drop(st);

        self.shared.journal(&Entry::Submit {
            job: id,
            tenant: tenant.to_string(),
            idem: idem.map(str::to_string),
            trace,
            spec: spec.clone(),
        });
        self.shared.feed_cv.notify_all();
        Ok((id, trace))
    }

    /// Best-effort cancellation: a still-queued job settles as `Cancelled`
    /// (journaled, counted, never dispatched); a running or already-settled
    /// job is left alone. Returns the job's post-call status, `None` for an
    /// unknown id.
    pub fn cancel(&self, job_id: u64) -> Option<wire::JobStatusWire> {
        let cancellable = {
            let mut st = self.shared.state.lock().expect("service state");
            match st.jobs.get(&job_id) {
                None => return None,
                Some(rec) if !rec.finished && matches!(rec.state, JobState::Queued) => {
                    // Pull it out of its tenant queue so the queue depth
                    // stays honest; the feed also skips finished ids as a
                    // backstop for the pop-before-cancel race.
                    let tenant = rec.tenant.clone();
                    if let Some(q) = st.queues.get_mut(&tenant) {
                        if let Some(pos) = q.iter().position(|&id| id == job_id) {
                            q.remove(pos);
                            st.stats.queued -= 1;
                            obs::global().gauge("serve_queue_depth").set(st.stats.queued as f64);
                        }
                    }
                    true
                }
                Some(_) => false,
            }
        };
        if cancellable {
            self.shared.finish(
                job_id,
                Settle::Cancelled { reason: "cancelled by client".to_string(), deadline: false },
            );
        }
        self.status(job_id)
    }

    fn reject(&self, st: &mut State) {
        st.stats.rejected += 1;
        obs::global().counter("serve_rejected_total").inc();
    }

    /// A snapshot of one job's externally visible status.
    pub fn status(&self, job_id: u64) -> Option<wire::JobStatusWire> {
        let st = self.shared.state.lock().expect("service state");
        let rec = st.jobs.get(&job_id)?;
        let (state, result, error) = match &rec.state {
            JobState::Queued => (WireState::Queued, None, None),
            JobState::Running => (WireState::Running, None, None),
            JobState::Done(r) => (WireState::Done, Some(r.clone()), None),
            JobState::Failed(e) => (WireState::Failed, None, Some(e.clone())),
            JobState::Cancelled(reason) => (WireState::Cancelled, None, Some(reason.clone())),
        };
        Some(wire::JobStatusWire {
            job: job_id,
            tenant: rec.tenant.clone(),
            state,
            trace: rec.trace,
            result,
            error,
        })
    }

    /// The job's distributed-trace id (0 when untraced), the key for
    /// [`obs::trace::Tracer::spans`] and the `GET /trace/<job>` route.
    pub fn job_trace(&self, job_id: u64) -> Option<u64> {
        let st = self.shared.state.lock().expect("service state");
        st.jobs.get(&job_id).map(|r| r.trace)
    }

    /// Readiness (vs liveness): the service is taking and dispatching work —
    /// not paused, not draining. `GET /readyz` reports 503 while false.
    pub fn is_ready(&self) -> bool {
        let st = self.shared.state.lock().expect("service state");
        !st.paused && !st.draining
    }

    /// Live introspection for `GET /jobs`: service-wide counts, per-tenant
    /// queue depth and in-flight totals, and every unsettled job with its
    /// lifecycle state, the span it is currently inside, and its trace id
    /// (16 hex digits, `""` when untraced). One JSON object, built under a
    /// single state-lock acquisition.
    pub fn jobs_overview(&self) -> String {
        let st = self.shared.state.lock().expect("service state");
        let mut out = String::from("{\"ok\":true");
        out.push_str(&format!(
            ",\"accepted\":{},\"queued\":{},\"running\":{},\"completed\":{},\"failed\":{},\
             \"cancelled\":{}",
            st.stats.accepted,
            st.stats.queued,
            st.stats.running,
            st.stats.completed,
            st.stats.failed,
            st.stats.cancelled
        ));
        out.push_str(",\"tenants\":[");
        for (i, tenant) in st.tenants.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let queued = st.queues.get(tenant).map_or(0, VecDeque::len);
            let in_flight = st.in_flight.get(tenant).copied().unwrap_or(0);
            out.push_str(&format!(
                "{{\"tenant\":\"{}\",\"queued\":{queued},\"in_flight\":{in_flight}}}",
                wire::json_escape(tenant)
            ));
        }
        out.push_str("],\"active\":[");
        let mut active: Vec<_> = st
            .jobs
            .iter()
            .filter(|(_, rec)| !rec.finished)
            .map(|(&id, rec)| {
                let span = match rec.state {
                    JobState::Queued => "queue_wait",
                    JobState::Running => "run",
                    _ => "seal",
                };
                (id, rec.tenant.clone(), rec.state_str(), span, rec.trace)
            })
            .collect();
        active.sort_by_key(|&(id, ..)| id);
        for (i, (id, tenant, state, span, trace)) in active.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let trace = if *trace == 0 { String::new() } else { format!("{trace:016x}") };
            out.push_str(&format!(
                "{{\"job\":{id},\"tenant\":\"{}\",\"state\":\"{state}\",\"span\":\"{span}\",\
                 \"trace\":\"{trace}\"}}",
                wire::json_escape(tenant)
            ));
        }
        out.push_str("]}");
        out
    }

    /// Block until the job reaches `Done`/`Failed`/`Cancelled` (then return
    /// its status), or `None` on timeout or unknown id.
    pub fn wait_done(&self, job_id: u64, timeout: Duration) -> Option<wire::JobStatusWire> {
        let deadline = Instant::now() + timeout;
        let mut st = self.shared.state.lock().expect("service state");
        loop {
            match st.jobs.get(&job_id).map(|r| &r.state) {
                None => return None,
                Some(JobState::Done(_) | JobState::Failed(_) | JobState::Cancelled(_)) => break,
                Some(_) => {}
            }
            let left = deadline.checked_duration_since(Instant::now())?;
            let (guard, timed_out) =
                self.shared.done_cv.wait_timeout(st, left).expect("service state");
            st = guard;
            if timed_out.timed_out() {
                return None;
            }
        }
        drop(st);
        self.status(job_id)
    }

    pub fn stats(&self) -> ServiceStats {
        self.shared.state.lock().expect("service state").stats
    }

    /// `sync_data` calls the journal has issued (0 under
    /// [`SyncPolicy::OsManaged`] or without a state dir).
    pub fn journal_sync_count(&self) -> u64 {
        self.shared.journal.as_ref().map_or(0, obs::log::RecordLog::syncs)
    }

    /// The order jobs were handed to the farm — the fairness tests'
    /// observable.
    pub fn dispatch_order(&self) -> Vec<u64> {
        self.shared.state.lock().expect("service state").dispatch_order.clone()
    }

    /// Drain: stop admitting, finish everything queued, join the farm, and
    /// report final accounting. Idempotent; later calls return `None`.
    pub fn shutdown(&self) -> Option<ShutdownReport> {
        let handle = self.scheduler.lock().expect("scheduler handle").take()?;
        {
            let mut st = self.shared.state.lock().expect("service state");
            st.draining = true;
            st.paused = false;
        }
        self.shared.feed_cv.notify_all();
        let farm = handle.join().expect("scheduler thread panicked");
        let st = self.shared.state.lock().expect("service state");
        Some(ShutdownReport {
            stats: st.stats,
            farm,
            dispatched: st.dispatch_order.len(),
            sealed_ok: self.shared.sealed_ok.load(Ordering::Relaxed),
            sealed_failed: self.shared.sealed_failed.load(Ordering::Relaxed),
        })
    }
}

impl Drop for InferenceService {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

/// Insert a record and queue it under its tenant (shared by `submit` and
/// journal replay).
fn enqueue(
    st: &mut State,
    id: u64,
    tenant: String,
    spec: JobSpec,
    submitted_at: Instant,
    trace: u64,
    submitted_ns: u64,
) {
    if !st.tenants.contains(&tenant) {
        st.tenants.push(tenant.clone());
    }
    st.queues.entry(tenant.clone()).or_default().push_back(id);
    *st.in_flight.entry(tenant.clone()).or_insert(0) += 1;
    st.stats.queued += 1;
    st.jobs.insert(
        id,
        JobRecord {
            tenant,
            spec,
            state: JobState::Queued,
            submitted_at,
            submitted_ns,
            trace,
            finished: false,
        },
    );
}

fn wire_result(result: &SearchResult) -> WireResult {
    WireResult {
        log_likelihood: result.log_likelihood,
        alpha: result.alpha,
        tree_exact: result.tree.to_exact_string(),
        rounds: result.rounds,
        moves_applied: result.moves_applied,
    }
}

/// The farm work closure: runs on a worker thread, owns the authoritative
/// completion marking (see module docs).
fn execute_job(shared: &Arc<Shared>, ws: &mut LikelihoodWorkspace, job_id: u64) {
    let (spec, aln, trace) = {
        let mut st = shared.state.lock().expect("service state");
        let Some(rec) = st.jobs.get_mut(&job_id) else { return };
        if rec.finished {
            // Cancelled between the feed popping it and the worker picking
            // it up; the settle already happened, so do nothing.
            return;
        }
        // Per-job deadlines are enforced at dispatch: a job that waited in
        // the queue past its budget settles as a deadline cancellation
        // instead of burning a worker on an answer nobody wants.
        if let Some(ms) = rec.spec.deadline_ms {
            if rec.submitted_at.elapsed() >= Duration::from_millis(ms) {
                drop(st);
                shared.finish(
                    job_id,
                    Settle::Cancelled {
                        reason: format!("deadline of {ms} ms expired before execution"),
                        deadline: true,
                    },
                );
                return;
            }
        }
        rec.state = JobState::Running;
        let trace = rec.trace;
        let spec = rec.spec.clone();
        let aln = st.datasets.get(&spec.dataset).cloned();
        st.stats.running += 1;
        (spec, aln, trace)
    };
    let Some(aln) = aln else {
        // Possible only for journal-recovered jobs whose dataset was not
        // re-registered before `resume()`.
        let msg = format!("dataset {:?} is not registered", spec.dataset);
        shared.finish(job_id, Settle::Failed { message: msg, interrupted: false });
        return;
    };

    let replicate;
    let target: &PatternAlignment = match spec.kind {
        wire::JobKind::Search => &aln,
        wire::JobKind::Bootstrap => {
            let mut rng = StdRng::seed_from_u64(spec.seed);
            replicate = aln.bootstrap_replicate(&mut rng);
            &replicate
        }
    };
    let request = spec.to_request();

    let mut checkpointer = None;
    if spec.checkpoint {
        if let Some(dir) = &shared.config.state_dir {
            let mut ckpt = SearchCheckpointer::new(
                dir.join(format!("job-{job_id}.ckpt")),
                request.fingerprint(target),
            );
            if let Some(n) = shared.config.abort_after_saves {
                ckpt = ckpt.abort_after_saves(n);
            }
            checkpointer = Some(ckpt);
        }
    }

    let mut options = InferenceOptions::new().with_workspace(std::mem::take(ws));
    if let Some(ckpt) = checkpointer.as_mut() {
        options = options.with_checkpoint(ckpt);
    }
    // Defense in depth: admission already vetoed over-budget geometry, but
    // journal-recovered jobs re-enter here without an admission pass.
    if let Some(budget) = shared.config.memory_budget {
        options = options.with_memory_budget(budget);
    }

    // The per-round span context parents under the "run" span the farm
    // bridge emits later, from the feeder thread — content-derived span IDs
    // line up without any cross-thread handshake. `t0` rebases the search's
    // private round offsets onto the service clock; it is read *after* the
    // farm stamped this job's run start, so the rounds nest inside "run".
    let run_ctx = SpanCtx::root(trace).child("job", 0).child("run", 0);
    let t0 = shared.now_ns();
    match run_inference(target, &request, options) {
        Ok(outcome) => {
            let tracer = obs::trace::global();
            if tracer.is_enabled() {
                for (i, &(s, e)) in outcome.result.round_walls.iter().enumerate() {
                    tracer.span_aux(run_ctx, "spr_round", i as u64, t0 + s, t0 + e, i as u64);
                }
            }
            let result = wire_result(&outcome.result);
            *ws = outcome.workspace;
            // Completed checkpoints are spent; drop the file so a restart
            // does not resurrect a finished search.
            if let Some(dir) = &shared.config.state_dir {
                if spec.checkpoint {
                    let _ = std::fs::remove_file(dir.join(format!("job-{job_id}.ckpt")));
                }
            }
            shared.finish(job_id, Settle::Done(result));
        }
        Err(err) => {
            let interrupted = matches!(err, PhyloError::Interrupted { .. });
            shared.finish(job_id, Settle::Failed { message: err.to_string(), interrupted });
        }
    }
}

/// The farm seal callback (feeding thread): settles write-offs the work
/// closure never ran, and counts seals for the exactly-once cross-check.
fn on_sealed(shared: &Arc<Shared>, farm_idx: usize, sealed: &Result<(), FarmError>) {
    match sealed {
        Ok(()) => {
            shared.sealed_ok.fetch_add(1, Ordering::Relaxed);
        }
        Err(err) => {
            shared.sealed_failed.fetch_add(1, Ordering::Relaxed);
            let job_id = {
                let st = shared.state.lock().expect("service state");
                st.dispatch_order.get(farm_idx).copied()
            };
            if let Some(id) = job_id {
                shared.finish(id, Settle::Failed { message: err.to_string(), interrupted: false });
            }
        }
    }
}

/// Replay a journal into a fresh `State`: finished jobs become pollable
/// records, unfinished ones re-enqueue under their original ids, in submit
/// order. Every job's idempotency key is rebound (settled ones included) so
/// a client retrying a submit from before the crash still dedups.
fn replay_journal(entries: Vec<Entry>, state: &mut State) {
    let mut submits = Vec::new();
    let mut settled: HashMap<u64, JobState> = HashMap::new();
    for entry in entries {
        let (job, done) = match entry {
            Entry::Submit { job, tenant, idem, trace, spec } => {
                submits.push((job, tenant, idem, trace, spec));
                continue;
            }
            Entry::Done { job, result } => (job, JobState::Done(result)),
            Entry::Failed { job, error } => (job, JobState::Failed(error)),
            Entry::Cancelled { job, reason } => (job, JobState::Cancelled(reason)),
        };
        settled.insert(job, done);
    }

    let now = Instant::now();
    for (id, tenant, idem, trace, spec) in submits {
        state.next_id = state.next_id.max(id + 1);
        state.stats.accepted += 1;
        if let Some(key) = idem {
            state.idem.insert(idem_key(&tenant, &key), id);
        }
        let Some(done) = settled.remove(&id) else {
            enqueue(state, id, tenant, spec, now, trace, 0);
            continue;
        };
        match done {
            JobState::Done(_) => state.stats.completed += 1,
            JobState::Failed(_) => state.stats.failed += 1,
            JobState::Cancelled(_) => state.stats.cancelled += 1,
            _ => unreachable!(),
        }
        let (submitted_at, submitted_ns) = (now, 0);
        let record = JobRecord {
            tenant,
            spec,
            state: done,
            submitted_at,
            submitted_ns,
            trace,
            finished: true,
        };
        state.jobs.insert(id, record);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{JobKind, Preset};
    use phylo::simulate::SimulationConfig;

    fn tiny_alignment(seed: u64) -> PatternAlignment {
        SimulationConfig::new(6, 120, seed).generate().alignment
    }

    fn quick_spec(dataset: &str, seed: u64) -> JobSpec {
        let mut spec = JobSpec::new(dataset, JobKind::Search, seed, Preset::Fast);
        spec.max_spr_rounds = Some(1);
        spec
    }

    fn unique_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("raxml-cell-serve-tests").join(tag);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Three tenants, three jobs each, all of tenant a's submitted first:
    /// dispatch must interleave a b c a b c a b c, not drain a's queue.
    #[test]
    fn round_robin_interleaves_tenants() {
        let service = InferenceService::start(ServiceConfig::new(2).paused()).unwrap();
        service.register_dataset("d", tiny_alignment(5));
        let mut ids: HashMap<&str, Vec<u64>> = HashMap::new();
        for tenant in ["a", "a", "a", "b", "b", "b", "c", "c", "c"] {
            let id = service.submit(tenant, &quick_spec("d", 1)).unwrap();
            ids.entry(tenant).or_default().push(id);
        }
        service.resume();
        let report = service.shutdown().unwrap();

        let expect: Vec<u64> =
            (0..3).flat_map(|round| ["a", "b", "c"].map(|t| ids[t][round])).collect();
        assert_eq!(service.dispatch_order(), expect, "round-robin dispatch");
        assert_eq!(report.stats.completed, 9);
        assert_eq!(report.stats.failed, 0);
        assert_eq!(report.dispatched, 9);
        assert_eq!(report.farm.n_jobs, 9);
        assert_eq!(report.sealed_ok, 9);
        assert_eq!(report.sealed_failed, 0);
    }

    /// Admission control: unknown dataset, per-tenant quota, global queue
    /// bound, and post-shutdown submissions each yield their typed reason.
    #[test]
    fn admission_rejects_with_typed_reasons() {
        let config = ServiceConfig::new(1).paused().with_tenant_quota(2).with_max_queue(3);
        let service = InferenceService::start(config).unwrap();
        service.register_dataset("d", tiny_alignment(6));

        assert_eq!(service.submit("a", &quick_spec("nope", 1)), Err(RejectReason::UnknownDataset));
        service.submit("a", &quick_spec("d", 1)).unwrap();
        service.submit("a", &quick_spec("d", 2)).unwrap();
        assert_eq!(service.submit("a", &quick_spec("d", 3)), Err(RejectReason::QuotaExceeded));
        service.submit("b", &quick_spec("d", 4)).unwrap();
        assert_eq!(
            service.submit("c", &quick_spec("d", 5)),
            Err(RejectReason::QueueFull),
            "global queue bound holds even for an under-quota tenant"
        );

        service.resume();
        let report = service.shutdown().unwrap();
        assert_eq!(report.stats.accepted, 3);
        assert_eq!(report.stats.rejected, 3);
        assert_eq!(report.stats.completed, 3);
        assert_eq!(service.submit("a", &quick_spec("d", 9)), Err(RejectReason::ShuttingDown));
    }

    /// Memory-budget admission: a budget below the dataset's estimated CLV
    /// footprint rejects the job with a typed reason before it can OOM a
    /// worker; a sufficient budget admits and completes it.
    #[test]
    fn admission_enforces_the_memory_budget() {
        let aln = tiny_alignment(8);
        let required = LikelihoodWorkspace::check_budget(
            aln.n_taxa(),
            aln.n_patterns(),
            quick_spec("d", 1).to_request().config.n_rate_categories,
            None,
        )
        .unwrap();

        let starved =
            InferenceService::start(ServiceConfig::new(1).with_memory_budget(required - 1))
                .unwrap();
        starved.register_dataset("d", aln.clone());
        assert_eq!(starved.submit("a", &quick_spec("d", 1)), Err(RejectReason::MemoryBudget));
        let report = starved.shutdown().unwrap();
        assert_eq!(report.stats.rejected, 1);
        assert_eq!(report.stats.accepted, 0);

        let fits =
            InferenceService::start(ServiceConfig::new(1).with_memory_budget(required)).unwrap();
        fits.register_dataset("d", aln);
        let job = fits.submit("a", &quick_spec("d", 1)).unwrap();
        let status = fits.wait_done(job, Duration::from_secs(300)).expect("job finishes");
        assert!(status.result.is_some(), "within-budget job completes: {:?}", status.error);
        fits.shutdown().unwrap();
    }

    /// A finished job's exact result bits survive a service restart via the
    /// journal, and the job is not re-run.
    #[test]
    fn journal_restores_finished_jobs_across_restart() {
        let dir = unique_dir("journal-restore");
        let aln = tiny_alignment(7);

        let config = ServiceConfig::new(1).with_state_dir(&dir);
        let service = InferenceService::start(config).unwrap();
        service.register_dataset("d", aln.clone());
        let job = service.submit("a", &quick_spec("d", 3)).unwrap();
        let first = service
            .wait_done(job, Duration::from_secs(300))
            .expect("job finishes")
            .result
            .expect("job succeeded");
        service.shutdown().unwrap();

        let revived =
            InferenceService::start(ServiceConfig::new(1).paused().with_state_dir(&dir)).unwrap();
        revived.register_dataset("d", aln);
        revived.resume();
        let status = revived.status(job).expect("job survived restart");
        let restored = status.result.expect("restored as done");
        assert_eq!(restored.log_likelihood.to_bits(), first.log_likelihood.to_bits());
        assert_eq!(restored.tree_exact, first.tree_exact);
        let report = revived.shutdown().unwrap();
        assert_eq!(report.stats.accepted, 1, "recovered, not re-admitted");
        assert_eq!(report.stats.completed, 1);
        assert_eq!(report.dispatched, 0, "finished jobs are not re-run");
    }

    /// A bootstrap job equals the library-level replicate + inference.
    #[test]
    fn bootstrap_job_matches_library_replicate() {
        let aln = tiny_alignment(8);
        let service = InferenceService::start(ServiceConfig::new(2)).unwrap();
        service.register_dataset("d", aln.clone());
        let mut spec = quick_spec("d", 11);
        spec.kind = JobKind::Bootstrap;
        let job = service.submit("t", &spec).unwrap();
        let served = service
            .wait_done(job, Duration::from_secs(300))
            .expect("finishes")
            .result
            .expect("succeeds");
        service.shutdown().unwrap();

        let mut rng = StdRng::seed_from_u64(11);
        let replicate = aln.bootstrap_replicate(&mut rng);
        let direct =
            run_inference(&replicate, &spec.to_request(), InferenceOptions::new()).unwrap().result;
        assert_eq!(served.log_likelihood.to_bits(), direct.log_likelihood.to_bits());
        assert_eq!(served.tree_exact, direct.tree.to_exact_string());
    }
}
