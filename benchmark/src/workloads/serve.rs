//! `serve_open` and `serve_closed`: the inference service as a client sees
//! it, over its real wire protocol on loopback, journal on.
//!
//! * Open loop: 10 jobs/s arrive on a schedule whatever the service does
//!   (independent users). One connection submits, a second one polls; a
//!   latency runs from the job's due time to the poll that first saw it
//!   terminal.
//! * Closed loop: `nproc` connections each submit, poll until done, then
//!   submit the next (callers that wait for their reply).
//!
//! The job is an 8 x 300 fast search with one SPR round, ~10 ms of compute:
//! wire, admission, journal, queue, seal and polling are the rest.

use super::{derive, repeat_setup, Args, Checks, Outcome};
use crate::host;
use crate::open_loop::{elapsed_ms, Schedule, Sent};
use crate::result::Json;
use crate::spans::{Spans, NO_PARENT};
use crate::stats::{median, median_or_zero, quantile};
use phylo::alignment::PatternAlignment;
use phylo::search::{run_inference, InferenceOptions};
use phylo::simulate::SimulationConfig;
use serve::client::{http_get, scrape_metrics, Client};
use serve::server::Server;
use serve::service::{InferenceService, ServiceConfig, ShutdownReport};
use serve::wire::{JobKind, JobSpec, JobStatusWire, Preset, Request, Response, WireState};
use std::collections::{BTreeMap, HashSet};
use std::hint::black_box;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Loop {
    Open,
    Closed,
}

/// Datasets registered with the service; job `i` runs on dataset
/// `i % DATASETS`. One dataset per run made the compute per job (5.6 to
/// 9.9 ms depending on the draw) a property of the seed.
const DATASETS: usize = 32;
const TENANTS: [&str; 3] = ["tenant-a", "tenant-b", "tenant-c"];
/// Open-loop arrival rate.
const JOBS_PER_SECOND: f64 = 10.0;
/// Least pause between two polls of the same connection, so a fast wire
/// does not turn the poller into a spin loop that loads the server.
const POLL_PAUSE: Duration = Duration::from_millis(1);
/// A job not terminal after this long is counted as failed.
const JOB_TIMEOUT: Duration = Duration::from_secs(60);
const WARM_JOBS: u64 = 4;
/// Jobs whose result is recomputed in-process and compared bit for bit.
const SAMPLED: usize = 5;
/// Jobs whose server-side span tree is read back in the traced pass.
const TRACE_SAMPLED: usize = 20;

fn dataset_name(index: u64) -> String {
    format!("bench-{}", index as usize % DATASETS)
}

fn job_spec(seed: u64, index: u64) -> JobSpec {
    let dataset = dataset_name(index);
    let mut spec = JobSpec::new(&dataset, JobKind::Search, derive(seed, 1, index), Preset::Fast);
    spec.max_spr_rounds = Some(1);
    spec
}

/// A running service behind a bound server, with its journal directory.
struct Rig {
    service: Arc<InferenceService>,
    server: Server,
    datasets: Vec<PatternAlignment>,
    state_dir: PathBuf,
}

impl Rig {
    /// Generate the datasets from the seed, start service and server, and
    /// push a few jobs through so threads, sockets and journal are warm.
    fn start(args: &Args, tracing: bool) -> Rig {
        let (taxa, sites) = if args.smoke { (6, 120) } else { (8, 300) };
        let datasets: Vec<PatternAlignment> = (0..DATASETS as u64)
            .map(|i| {
                SimulationConfig::new(taxa, sites, derive(args.seed, 0, i)).generate().alignment
            })
            .collect();
        // Unique per start: a journal left behind would be replayed.
        static INSTANCE: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let instance = INSTANCE.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let state_dir = args.out_dir.join(format!("serve-state-{}-{instance}", std::process::id()));
        let config =
            ServiceConfig::new(host::nproc()).with_state_dir(&state_dir).with_tracing(tracing);
        let service = Arc::new(InferenceService::start(config).expect("starting the service"));
        for (i, dataset) in datasets.iter().enumerate() {
            service.register_dataset(&dataset_name(i as u64), dataset.clone());
        }
        let server = Server::bind("127.0.0.1:0", service.clone()).expect("binding loopback");
        let mut client = Client::connect(server.addr()).expect("connecting");
        for i in 0..WARM_JOBS {
            let id = client
                .submit(TENANTS[0], &job_spec(args.seed ^ 0x5eed, i))
                .expect("warm-up submit")
                .expect("warm-up admitted");
            client.wait_done(id, JOB_TIMEOUT).expect("warm-up job");
        }
        Rig { service, server, datasets, state_dir }
    }

    fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// Drain server and service; `None` when already shut down.
    fn shutdown(&mut self) -> Option<ShutdownReport> {
        self.server.stop();
        let report = self.service.shutdown();
        let _ = std::fs::remove_dir_all(&self.state_dir);
        report
    }
}

impl Drop for Rig {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// What the client recorded for one job.
struct JobObs {
    index: u64,
    tenant: &'static str,
    /// `None` when the submission was refused or the transport failed.
    id: Option<u64>,
    /// From when the job was due (open loop) or written (closed loop).
    origin: Instant,
    sent: Sent,
    seen_at: Instant,
    polls: u32,
    /// The terminal status, when the job reached one in time.
    status: Option<JobStatusWire>,
}

impl JobObs {
    /// A job just submitted, not yet polled.
    fn new(sent: Sent, tenant: &'static str, id: Option<u64>, origin: Instant) -> JobObs {
        JobObs {
            index: sent.index,
            tenant,
            id,
            origin,
            sent,
            seen_at: sent.acked_at,
            polls: 0,
            status: None,
        }
    }

    fn latency_ms(&self) -> f64 {
        match &self.status {
            Some(s) if s.state == WireState::Done => elapsed_ms(self.origin, self.seen_at),
            _ => f64::INFINITY,
        }
    }
}

/// One load phase against one rig.
#[derive(Default)]
struct Phase {
    jobs: Vec<JobObs>,
    status_ms: Vec<f64>,
    poll_gap_ms: Vec<f64>,
    late_ms_max: f64,
    window_s: f64,
    cpu_s: f64,
}

/// Poll `id` once; returns the status when terminal.
fn poll(client: &mut Client, id: u64, status_ms: &mut Vec<f64>) -> Option<JobStatusWire> {
    let t = Instant::now();
    let status = client.status(id);
    status_ms.push(t.elapsed().as_secs_f64() * 1e3);
    status.ok().filter(|s| s.state.is_terminal())
}

fn submit(client: &mut Client, seed: u64, index: u64) -> (Sent, &'static str, Option<u64>) {
    let tenant = TENANTS[index as usize % TENANTS.len()];
    let sent_at = Instant::now();
    let id = client.submit(tenant, &job_spec(seed, index)).ok().and_then(Result::ok);
    (Sent { index, sent_at, acked_at: Instant::now() }, tenant, id)
}

fn open_loop(addr: SocketAddr, seed: u64, seconds: f64) -> Phase {
    let mut submitter = Client::connect(addr).expect("submit connection");
    let mut poller = Client::connect(addr).expect("poll connection");
    let cpu_start = host::cpu_seconds();
    let schedule = Schedule::new(Instant::now() + Duration::from_millis(5), JOBS_PER_SECOND);
    let n_jobs = schedule.jobs_within(seconds);
    let (tx, rx) = mpsc::channel::<(Sent, &'static str, Option<u64>)>();
    let mut phase = Phase::default();

    std::thread::scope(|scope| {
        scope.spawn(move || {
            for index in 0..n_jobs {
                if let Some(wait) = schedule.due(index).checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                if tx.send(submit(&mut submitter, seed, index)).is_err() {
                    break;
                }
            }
        });

        // The dedicated poller: sweeps every pending job in submission
        // order, so completion is stamped by whoever is watching, never by
        // the thread that is busy submitting.
        let mut pending: Vec<(JobObs, Instant)> = Vec::new();
        let mut open = true;
        while open || !pending.is_empty() {
            let arrival = if pending.is_empty() { rx.recv().ok() } else { rx.try_recv().ok() };
            match arrival {
                Some((sent, tenant, id)) => {
                    let obs = JobObs::new(sent, tenant, id, schedule.due(sent.index));
                    match id {
                        Some(_) => pending.push((obs, sent.acked_at)),
                        None => phase.jobs.push(obs),
                    }
                    continue;
                }
                None if pending.is_empty() => open = false,
                None => {}
            }
            let mut still = Vec::with_capacity(pending.len());
            for (mut obs, last_poll) in pending.drain(..) {
                let now = Instant::now();
                phase.poll_gap_ms.push(elapsed_ms(last_poll, now));
                obs.polls += 1;
                obs.status =
                    poll(&mut poller, obs.id.expect("pending has an id"), &mut phase.status_ms);
                obs.seen_at = Instant::now();
                let timed_out = obs.seen_at.duration_since(obs.sent.sent_at) > JOB_TIMEOUT;
                if obs.status.is_some() || timed_out {
                    phase.jobs.push(obs);
                } else {
                    still.push((obs, now));
                }
            }
            pending = still;
            std::thread::sleep(POLL_PAUSE);
        }
    });
    phase.window_s = schedule.start.elapsed().as_secs_f64();
    phase.cpu_s = host::cpu_seconds() - cpu_start;
    phase.late_ms_max =
        phase.jobs.iter().map(|job| schedule.late_ms(&job.sent)).fold(0.0, f64::max);
    phase.jobs.sort_by_key(|j| j.index);
    phase
}

fn closed_loop(addr: SocketAddr, seed: u64, seconds: f64) -> Phase {
    let connections = host::nproc() as u64;
    let cpu_start = host::cpu_seconds();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let per_connection: Vec<Phase> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|c| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("closed-loop connection");
                    let mut phase = Phase::default();
                    // Connection `c` takes job indices c, c + n, c + 2n, ...
                    let mut index = c;
                    while Instant::now() < deadline {
                        let (sent, tenant, id) = submit(&mut client, seed, index);
                        let mut obs = JobObs::new(sent, tenant, id, sent.sent_at);
                        let mut last_poll = sent.acked_at;
                        while let (Some(id), None) = (obs.id, &obs.status) {
                            let now = Instant::now();
                            phase.poll_gap_ms.push(elapsed_ms(last_poll, now));
                            last_poll = now;
                            obs.polls += 1;
                            obs.status = poll(&mut client, id, &mut phase.status_ms);
                            obs.seen_at = Instant::now();
                            if obs.seen_at.duration_since(sent.sent_at) > JOB_TIMEOUT {
                                break;
                            }
                            if obs.status.is_none() {
                                std::thread::sleep(POLL_PAUSE);
                            }
                        }
                        phase.jobs.push(obs);
                        index += connections;
                    }
                    phase
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("closed-loop client")).collect()
    });
    let mut phase = Phase { window_s: start.elapsed().as_secs_f64(), ..Phase::default() };
    phase.cpu_s = host::cpu_seconds() - cpu_start;
    for mut p in per_connection {
        phase.jobs.append(&mut p.jobs);
        phase.status_ms.append(&mut p.status_ms);
        phase.poll_gap_ms.append(&mut p.poll_gap_ms);
    }
    phase.jobs.sort_by_key(|j| j.index);
    phase
}

fn drive(kind: Loop, rig: &Rig, seed: u64, seconds: f64) -> Phase {
    match kind {
        Loop::Open => open_loop(rig.addr(), seed, seconds),
        Loop::Closed => closed_loop(rig.addr(), seed, seconds),
    }
}

/// Exactly-once as the client saw it, sampled results against an in-process
/// run of the same spec, then the service's own books after the drain.
fn verify(phase: &Phase, rig: &mut Rig, seed: u64, checks: &mut Checks) -> Option<ShutdownReport> {
    let mut ids = HashSet::new();
    for job in &phase.jobs {
        let state = job.status.as_ref().map(|s| s.state);
        checks.require(state == Some(WireState::Done), || {
            format!("job {} (id {:?}) ended {state:?}", job.index, job.id)
        });
        if let Some(id) = job.id {
            checks.require(ids.insert(id), || format!("job id {id} was handed out twice"));
        }
    }
    let stride = (phase.jobs.len() / SAMPLED).max(1);
    for job in phase.jobs.iter().step_by(stride).take(SAMPLED) {
        let Some(result) = job.status.as_ref().and_then(|s| s.result.as_ref()) else { continue };
        let request = job_spec(seed, job.index).to_request();
        let dataset = &rig.datasets[job.index as usize % DATASETS];
        let local = run_inference(dataset, &request, InferenceOptions::new())
            .expect("in-process reference search")
            .result;
        checks.require(local.log_likelihood.to_bits() == result.log_likelihood.to_bits(), || {
            format!(
                "job {}: served lnL {} differs from in-process {}",
                job.index, result.log_likelihood, local.log_likelihood
            )
        });
    }
    let report = rig.shutdown()?;
    let expected = WARM_JOBS + ids.len() as u64;
    let s = report.stats;
    checks.require(
        s.accepted == expected && s.completed == expected && s.failed == 0 && s.cancelled == 0,
        || format!("service books: {s:?}, expected {expected} accepted and completed"),
    );
    checks.require(
        report.dispatched as u64 == expected
            && report.farm.n_jobs as u64 == expected
            && report.sealed_ok == expected
            && report.sealed_failed == 0,
        || {
            format!(
                "farm books: dispatched {}, farm jobs {}, sealed ok {} / failed {}, expected {expected}",
                report.dispatched, report.farm.n_jobs, report.sealed_ok, report.sealed_failed
            )
        },
    );
    Some(report)
}

pub fn run(kind: Loop, args: &Args) -> Outcome {
    let mut checks = Checks::default();
    let mut spans = Spans::new(args.traced);
    let mut layers = BTreeMap::new();
    let seconds = if args.smoke { 1.0 } else { args.seconds };
    let (mut rig, setups_s) = repeat_setup(args.setup_repeats(), || Rig::start(args, false));

    let phase = if args.traced {
        // First half against the untraced service, second half against a
        // traced one: the difference is what the service's tracing costs.
        let untraced = drive(kind, &rig, args.seed, seconds / 2.0);
        verify(&untraced, &mut rig, args.seed, &mut checks);
        rig = Rig::start(args, true);
        let traced = drive(kind, &rig, args.seed, seconds / 2.0);
        service_layers(&mut layers, &traced, &rig, &mut spans, &mut checks);
        let p50 = |p: &Phase| median(&p.jobs.iter().map(JobObs::latency_ms).collect::<Vec<_>>());
        layers.insert("obs.trace_overhead_pct", (p50(&traced) / p50(&untraced) - 1.0) * 100.0);
        traced
    } else {
        drive(kind, &rig, args.seed, seconds)
    };
    let journal_syncs = rig.service.journal_sync_count();
    let report = verify(&phase, &mut rig, args.seed, &mut checks);

    if let (true, Some(report)) = (args.traced, report) {
        client_layers(&mut layers, &phase);
        layers.insert("serve.service.accepted", report.stats.accepted as f64);
        layers.insert("serve.service.completed", report.stats.completed as f64);
        layers.insert("serve.service.rejected", report.stats.rejected as f64);
        layers.insert("serve.service.journal_syncs", journal_syncs as f64);
        let farm = &report.farm;
        let mean = farm.n_jobs as f64 / farm.per_worker_jobs.len() as f64;
        layers.insert("phylo.farm.jobs", farm.n_jobs as f64);
        layers.insert("phylo.farm.steals", farm.steals as f64);
        layers.insert("phylo.farm.max_in_flight", farm.max_in_flight as f64);
        layers.insert(
            "phylo.farm.imbalance",
            farm.per_worker_jobs.iter().copied().max().unwrap_or(0) as f64 / mean,
        );
        layers.insert("phylo.alignment.patterns", rig.datasets[0].n_patterns() as f64);
    }
    let latencies_ms: Vec<f64> = phase.jobs.iter().map(JobObs::latency_ms).collect();
    let jobs = latencies_ms.iter().filter(|l| l.is_finite()).count() as u64;
    Outcome {
        setups_s,
        latencies_ms,
        jobs,
        window_s: phase.window_s,
        cpu_s: phase.cpu_s,
        checks,
        layers,
        spans,
    }
}

/// `client.*` and the client-side `serve.service.*` round trips: how the
/// generator itself behaved, so a slow generator is never read as a slow
/// service.
fn client_layers(layers: &mut BTreeMap<&'static str, f64>, phase: &Phase) {
    let submit_ms: Vec<f64> =
        phase.jobs.iter().map(|j| elapsed_ms(j.sent.sent_at, j.sent.acked_at)).collect();
    let polls: u32 = phase.jobs.iter().map(|j| j.polls).sum();
    layers.insert("serve.service.submit_ms_p50", median_or_zero(&submit_ms));
    layers.insert("serve.service.status_ms_p50", median_or_zero(&phase.status_ms));
    layers.insert("client.gen_late_ms_max", phase.late_ms_max);
    layers.insert("client.poll_gap_ms_p95", quantile(&phase.poll_gap_ms, 0.95));
    layers.insert("client.polls_per_job", polls as f64 / phase.jobs.len().max(1) as f64);
}

/// Everything that needs the traced service still running: server-side
/// spans over `GET /trace/<job>`, the wire microbenches, ping round trips
/// and a `/metrics` scrape.
fn service_layers(
    layers: &mut BTreeMap<&'static str, f64>,
    phase: &Phase,
    rig: &Rig,
    spans: &mut Spans,
    checks: &mut Checks,
) {
    let addr = rig.addr();
    let mut by_name: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut unattributed_ms = Vec::new();
    let mut server_spans = 0usize;
    let done = phase.jobs.iter().filter(|j| j.latency_ms().is_finite());
    for job in done.take(TRACE_SAMPLED) {
        let id = job.id.expect("done jobs have ids");
        let Ok(body) = http_get(addr, &format!("/trace/{id}")) else {
            checks.require(false, || format!("GET /trace/{id} failed"));
            continue;
        };
        let Some(Json::Arr(events)) =
            obs::json::parse(&body).ok().and_then(|d| d.get("traceEvents").cloned())
        else {
            checks.require(false, || format!("GET /trace/{id}: not a Chrome trace"));
            continue;
        };
        // Client-side spans of this job, then the server's tree under them.
        // Server timestamps count from the service's own epoch; they are
        // laid out from the moment the submit frame was written, which is
        // off by at most the request's one-way wire time.
        let root = spans.push(
            "client.job",
            spans.ns_of(job.origin),
            spans.ns_of(job.seen_at),
            NO_PARENT,
            job.index,
        );
        let sent_ns = spans.ns_of(job.sent.sent_at);
        spans.push("serve.wire.submit", sent_ns, spans.ns_of(job.sent.acked_at), root, job.index);
        let field = |e: &Json, k: &str| e.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        let job_start_us = events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("job"))
            .map_or(0.0, |e| field(e, "ts"));
        for event in &events {
            let name = event.get("name").and_then(Json::as_str).unwrap_or("?");
            let (ts_us, dur_us) = (field(event, "ts"), field(event, "dur"));
            by_name.entry(name.to_string()).or_default().push(dur_us / 1e3);
            let start = sent_ns + ((ts_us - job_start_us).max(0.0) * 1e3) as u64;
            spans.push(
                &format!("serve.service.{name}"),
                start,
                start + (dur_us * 1e3) as u64,
                root,
                job.index,
            );
            if name == "job" {
                unattributed_ms.push(job.latency_ms() - dur_us / 1e3);
            }
        }
        server_spans += events.len();
    }
    let p50 = |name: &str| by_name.get(name).map_or(0.0, |v| median(v));
    layers.insert("serve.service.queue_wait_ms_p50", p50("queue_wait"));
    layers.insert("serve.service.run_ms_p50", p50("run"));
    layers.insert("serve.service.seal_ms_p50", p50("seal"));
    layers.insert("phylo.farm.queue_wait_ms_p50", p50("queue_wait"));
    layers.insert("phylo.farm.run_ms_p50", p50("run"));
    layers.insert("phylo.farm.seal_lag_ms_p50", p50("seal"));
    layers.insert("serve.service.unattributed_ms_p50", median_or_zero(&unattributed_ms));
    let sampled = by_name.get("job").map_or(1, Vec::len).max(1);
    layers.insert("obs.spans_per_job", server_spans as f64 / sampled as f64);

    // Wire: ping round trips on a fresh connection, and encode/decode of the
    // frames one job exchanges.
    let mut client = Client::connect(addr).expect("ping connection");
    let rtt_ms: Vec<f64> = (0..20)
        .filter_map(|_| {
            let t = Instant::now();
            client.ping().ok().map(|()| t.elapsed().as_secs_f64() * 1e3)
        })
        .collect();
    layers.insert("serve.wire.rtt_ms_p50", median_or_zero(&rtt_ms));
    if let Some(job) = phase.jobs.iter().find(|j| j.status.is_some()) {
        let id = job.id.expect("a job with a status has an id");
        let submit = Request::Submit {
            tenant: job.tenant.to_string(),
            spec: job_spec(0, job.index),
            idem: None,
            trace: 0,
        };
        let frames = [
            submit.encode(),
            Response::Accepted { job: id, trace: 0 }.encode(),
            Request::Status { job: id }.encode(),
            Response::Status(job.status.clone().expect("checked above")).encode(),
        ];
        const ROUNDS: usize = 2_000;
        let t = Instant::now();
        for _ in 0..ROUNDS {
            black_box(black_box(&submit).encode());
        }
        layers.insert("serve.wire.encode_us", t.elapsed().as_secs_f64() * 1e6 / ROUNDS as f64);
        let t = Instant::now();
        for _ in 0..ROUNDS {
            black_box(Request::parse(black_box(&frames[0])).expect("own encoding parses"));
        }
        layers.insert("serve.wire.decode_us", t.elapsed().as_secs_f64() * 1e6 / ROUNDS as f64);
        // Payload plus the 4-byte length prefix.
        let bytes: usize = frames.iter().map(|f| f.len() + 4).sum();
        layers.insert("serve.wire.frame_bytes_mean", bytes as f64 / frames.len() as f64);
    }

    let t = Instant::now();
    let scraped = scrape_metrics(addr);
    layers.insert("obs.metrics_scrape_ms", t.elapsed().as_secs_f64() * 1e3);
    checks.require(
        scraped.as_deref().is_ok_and(|text| obs::validate_prometheus_text(text).is_ok()),
        || "GET /metrics did not return valid Prometheus text".to_string(),
    );
}
