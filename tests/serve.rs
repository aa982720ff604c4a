//! End-to-end tests of the service tier over the real wire protocol:
//! submit → poll → result must be bit-identical to an in-process
//! `run_inference`, admission control must surface typed rejections across
//! the wire, `/metrics` must serve validator-clean Prometheus text on the
//! same port, and a killed-and-restarted service must resume checkpointed
//! jobs bit-identically from the journal + checkpoint tier.

use phylo::prelude::*;
use serve::client::{http_get, http_get_status, scrape_metrics, Client};
use serve::server::Server;
use serve::service::{InferenceService, ServiceConfig};
use serve::wire::{JobKind, JobSpec, Preset, RejectReason, WireState};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

const WAIT: Duration = Duration::from_secs(600);

fn small_alignment(seed: u64) -> PatternAlignment {
    SimulationConfig::new(7, 240, seed).generate().alignment
}

fn unique_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("raxml-cell-serve-integration").join(tag);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The tentpole round trip: a search job submitted over TCP returns the
/// exact bits (lnL, alpha, tree) of the same request run in process.
#[test]
fn wire_round_trip_is_bit_identical_to_run_inference() {
    let aln = small_alignment(31);
    let service = Arc::new(InferenceService::start(ServiceConfig::new(2)).unwrap());
    service.register_dataset("demo", aln.clone());
    let server = Server::bind("127.0.0.1:0", service.clone()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    client.ping().unwrap();

    let spec = JobSpec::new("demo", JobKind::Search, 5, Preset::Fast);
    let job = client.submit("tenant-a", &spec).unwrap().expect("admitted");
    let status = client.wait_done(job, WAIT).unwrap();
    assert_eq!(status.state, WireState::Done);
    assert_eq!(status.tenant, "tenant-a");
    let served = status.result.expect("done carries the result");

    let direct = run_inference(&aln, &spec.to_request(), InferenceOptions::new()).unwrap().result;
    assert_eq!(
        served.log_likelihood.to_bits(),
        direct.log_likelihood.to_bits(),
        "served lnL bits differ from in-process run_inference"
    );
    assert_eq!(served.alpha.to_bits(), direct.alpha.to_bits());
    assert_eq!(served.tree_exact, direct.tree.to_exact_string());
    assert_eq!(served.rounds, direct.rounds);

    let stats = client.stats().unwrap();
    assert_eq!(stats.accepted, 1);
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.failed, 0);
}

/// Admission control is visible across the wire as typed rejections, and
/// rejected submissions never execute.
#[test]
fn wire_rejections_are_typed() {
    let config = ServiceConfig::new(1).paused().with_tenant_quota(1).with_max_queue(2);
    let service = Arc::new(InferenceService::start(config).unwrap());
    service.register_dataset("demo", small_alignment(32));
    let server = Server::bind("127.0.0.1:0", service.clone()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    let spec = JobSpec::new("demo", JobKind::Search, 1, Preset::Fast);
    let mut unknown = spec.clone();
    unknown.dataset = "missing".to_string();
    assert_eq!(client.submit("a", &unknown).unwrap(), Err(RejectReason::UnknownDataset));

    assert!(client.submit("a", &spec).unwrap().is_ok());
    assert_eq!(client.submit("a", &spec).unwrap(), Err(RejectReason::QuotaExceeded));
    assert!(client.submit("b", &spec).unwrap().is_ok());
    assert_eq!(client.submit("c", &spec).unwrap(), Err(RejectReason::QueueFull));

    service.resume();
    let report = service.shutdown().unwrap();
    assert_eq!(report.stats.accepted, 2);
    assert_eq!(report.stats.rejected, 3);
    assert_eq!(report.stats.completed, 2);
    assert_eq!(report.dispatched, 2, "rejected submissions never reach the farm");
    assert_eq!(report.farm.n_jobs, 2);
}

/// `/metrics` on the service port serves Prometheus text that passes the
/// repo's own validator and carries the service-tier counters.
#[test]
fn metrics_endpoint_serves_valid_prometheus_text() {
    let service = Arc::new(InferenceService::start(ServiceConfig::new(2)).unwrap());
    service.register_dataset("demo", small_alignment(33));
    let server = Server::bind("127.0.0.1:0", service.clone()).unwrap();

    let mut client = Client::connect(server.addr()).unwrap();
    let job = client
        .submit("a", &JobSpec::new("demo", JobKind::Search, 2, Preset::Fast))
        .unwrap()
        .expect("admitted");
    client.wait_done(job, WAIT).unwrap();

    let text = scrape_metrics(server.addr()).unwrap();
    obs::validate_prometheus_text(&text).expect("scrape must pass the Prometheus validator");
    for name in ["serve_submitted_total", "serve_completed_total", "serve_sojourn_ns"] {
        assert!(text.contains(name), "scrape missing {name}:\n{text}");
        assert!(text.contains(&format!("# HELP {name} ")), "scrape missing HELP for {name}");
    }
    // The kernel tier the jobs ran on is part of the scrape.
    let lanes = phylo::likelihood::KernelTier::probe().lanes();
    assert!(text.contains(&format!("\nphylo_kernel_lanes {lanes}\n")), "tier gauge:\n{text}");
    // Unknown paths 404 without killing the listener.
    let err = scrape_metrics_path(server.addr(), "/nope").unwrap_err();
    assert!(err.to_string().contains("404"), "unexpected error: {err}");
    assert!(scrape_metrics(server.addr()).is_ok(), "listener survives a 404");
}

fn scrape_metrics_path(addr: std::net::SocketAddr, path: &str) -> std::io::Result<String> {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr)?;
    write!(stream, "GET {path} HTTP/1.1\r\nHost: serve\r\nConnection: close\r\n\r\n")?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    if !raw.starts_with("HTTP/1.1 200") {
        return Err(std::io::Error::other(raw.lines().next().unwrap_or("").to_string()));
    }
    Ok(raw)
}

/// The structured event log threads one JSONL timeline through both tiers:
/// the client logs its reconnects, backoff pauses, and accepted submits
/// (with tenant/job/trace correlation keys), the server logs its drain —
/// all into one shared, torn-tail-tolerant file.
#[test]
fn event_log_spans_client_and_server() {
    use serve::client::{AddrCell, RetryClient, RetryPolicy};
    use serve::events::{EventLog, Level};
    use serve::server::ServerConfig;

    let dir = unique_dir("event-log");
    let log = EventLog::open(dir.join("events.jsonl")).unwrap();

    // A client with no live server exhausts its retry budget, logging each
    // backoff pause and the final failure.
    let policy = RetryPolicy {
        max_attempts: 2,
        base_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(2),
    };
    let cell = AddrCell::default();
    let mut orphan =
        RetryClient::new(cell, "orphan").with_policy(policy).with_event_log(log.clone());
    assert!(orphan.ping().is_err(), "no address published, ping must fail");

    // A real round trip: reconnect, submit, drain.
    let service = Arc::new(InferenceService::start(ServiceConfig::new(1)).unwrap());
    service.register_dataset("demo", small_alignment(35));
    let mut server = Server::bind_with(
        "127.0.0.1:0",
        service.clone(),
        ServerConfig::default().with_event_log(log.clone()),
    )
    .unwrap();
    let mut client = RetryClient::new(AddrCell::new(server.addr()), "c0")
        .with_policy(RetryPolicy::default())
        .with_event_log(log.clone());
    let (job, trace) =
        client.submit_traced("tenant-a", &spec_for("demo", 3)).unwrap().expect("admitted");
    client.wait_done(job, WAIT).unwrap();
    server.stop();
    service.shutdown().unwrap();

    let events = EventLog::read(log.path()).unwrap();
    let kind = |k: &str| events.iter().filter(|e| e.kind == k).collect::<Vec<_>>();
    assert_eq!(kind("backoff").len(), 1, "one pause between the orphan's two attempts");
    assert_eq!(kind("backoff")[0].level, Level::Warn);
    assert_eq!(kind("retries_exhausted").len(), 1);
    assert!(!kind("reconnect").is_empty(), "the live client logs its connect");
    let submits = kind("submit");
    assert_eq!(submits.len(), 1);
    assert_eq!(submits[0].tenant, "tenant-a");
    assert_eq!(submits[0].job, job);
    assert_eq!(submits[0].trace, trace, "the submit event carries the wire trace id");
    assert_ne!(trace, 0, "tracing is on by default, so the trace id is minted");
    assert_eq!(kind("drain").len(), 1, "the server logs its graceful drain");
    let ts: Vec<u64> = events.iter().map(|e| e.at_ns).collect();
    assert!(ts.windows(2).all(|w| w[0] <= w[1]), "one shared epoch orders the timeline: {ts:?}");
}

fn spec_for(dataset: &str, seed: u64) -> JobSpec {
    JobSpec::new(dataset, JobKind::Search, seed, Preset::Fast)
}

/// `/healthz` answers as long as the listener is alive; `/readyz` flips
/// with the service's dispatch state so a load balancer can stop routing
/// to a paused (or draining) instance.
#[test]
fn health_probes_track_service_state() {
    let service = Arc::new(InferenceService::start(ServiceConfig::new(1).paused()).unwrap());
    let server = Server::bind("127.0.0.1:0", service.clone()).unwrap();
    let addr = server.addr();

    assert_eq!(http_get(addr, "/healthz").unwrap().trim(), "ok");
    let (status, body) = http_get_status(addr, "/readyz").unwrap();
    assert!(status.starts_with("HTTP/1.1 503"), "paused service must be not-ready: {status}");
    assert!(body.contains("not ready"), "unexpected body: {body}");

    service.resume();
    let (status, body) = http_get_status(addr, "/readyz").unwrap();
    assert!(status.starts_with("HTTP/1.1 200"), "resumed service must be ready: {status}");
    assert_eq!(body.trim(), "ready");

    // Both probes tick their typed counters into the same scrape surface.
    let text = scrape_metrics(addr).unwrap();
    assert!(text.contains("serve_http_healthz_total 1"), "missing healthz counter:\n{text}");
    assert!(text.contains("serve_http_readyz_total 2"), "missing readyz counter:\n{text}");
}

/// The introspection routes on a live traced server: `/jobs` lists the
/// tenants, `/trace/<job>` serves the job's span tree as a Chrome trace,
/// and an unknown job is a 404 rather than an empty document.
#[test]
fn introspection_routes_serve_job_overview_and_traces() {
    let service = Arc::new(InferenceService::start(ServiceConfig::new(1)).unwrap());
    service.register_dataset("demo", small_alignment(36));
    let server = Server::bind("127.0.0.1:0", service.clone()).unwrap();
    let addr = server.addr();
    let mut client = Client::connect(addr).unwrap();
    let job = client.submit("tenant-a", &spec_for("demo", 4)).unwrap().expect("admitted");
    client.wait_done(job, WAIT).unwrap();

    let overview = http_get(addr, "/jobs").unwrap();
    assert!(overview.contains("\"ok\":true"), "malformed overview: {overview}");
    assert!(overview.contains("\"tenants\":["), "malformed overview: {overview}");
    let doc = http_get(addr, &format!("/trace/{job}")).unwrap();
    assert!(doc.starts_with("{\"traceEvents\":["), "malformed trace export: {doc}");
    assert!(doc.contains("\"name\":\"job\""), "trace export lacks the root span: {doc}");
    let (status, _) = http_get_status(addr, "/trace/999999999").unwrap();
    assert!(status.starts_with("HTTP/1.1 404"), "unknown job answered {status:?}");
}

/// Kill-and-restart: a checkpointing job interrupted mid-search (via the
/// abort-after-saves hook modelling a crash between SPR rounds) resumes on
/// the restarted service and lands on exactly the bits of an uninterrupted
/// run.
#[test]
fn restarted_service_resumes_checkpointed_jobs_bit_identically() {
    let dir = unique_dir("kill-restart");
    let aln = small_alignment(34);
    let spec = JobSpec::new("demo", JobKind::Search, 6, Preset::Standard).checkpointed();

    // The reference: the same request, uninterrupted, in process.
    let reference =
        run_inference(&aln, &spec.to_request(), InferenceOptions::new()).unwrap().result;

    // First life: the checkpointer aborts after its first snapshot, i.e.
    // the process "dies" with the search half done but journaled.
    let config = ServiceConfig::new(1).with_state_dir(&dir).with_abort_after_saves(1);
    let service = InferenceService::start(config).unwrap();
    service.register_dataset("demo", aln.clone());
    let job = service.submit("tenant-a", &spec).unwrap();
    let status = service.wait_done(job, WAIT).expect("interrupted job settles");
    assert_eq!(status.state, WireState::Failed, "abort hook must interrupt the search");
    assert!(
        status.error.unwrap().contains("interrupted"),
        "failure must be the checkpoint interruption"
    );
    service.shutdown().unwrap();
    assert!(dir.join(format!("job-{job}.ckpt")).exists(), "snapshot survives the crash");

    // Second life: replay the journal, re-register the dataset, resume. The
    // job keeps its id and completes from the snapshot.
    let service =
        InferenceService::start(ServiceConfig::new(1).paused().with_state_dir(&dir)).unwrap();
    let recovered = service.status(job).expect("job recovered from the journal");
    assert_eq!(recovered.state, WireState::Queued, "unsettled job re-enqueues");
    service.register_dataset("demo", aln);
    service.resume();
    let status = service.wait_done(job, WAIT).expect("resumed job finishes");
    assert_eq!(status.state, WireState::Done, "err: {:?}", status.error);
    let resumed = status.result.unwrap();
    assert_eq!(
        resumed.log_likelihood.to_bits(),
        reference.log_likelihood.to_bits(),
        "resumed lnL bits differ from the uninterrupted run"
    );
    assert_eq!(resumed.alpha.to_bits(), reference.alpha.to_bits());
    assert_eq!(resumed.tree_exact, reference.tree.to_exact_string());
    let report = service.shutdown().unwrap();
    assert_eq!(report.stats.completed, 1);
    assert!(!dir.join(format!("job-{job}.ckpt")).exists(), "completed checkpoint is cleaned up");
}

/// Concurrent tenants over one server: all jobs complete exactly once and
/// the farm's accounting agrees with the client-observed set.
#[test]
fn concurrent_tenants_complete_exactly_once() {
    let service = Arc::new(InferenceService::start(ServiceConfig::new(3)).unwrap());
    service.register_dataset("demo", small_alignment(35));
    let server = Server::bind("127.0.0.1:0", service.clone()).unwrap();
    let addr = server.addr();

    const TENANTS: usize = 3;
    const JOBS: usize = 3;
    let ids: Vec<Vec<u64>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..TENANTS)
            .map(|t| {
                scope.spawn(move || {
                    let tenant = format!("tenant-{t}");
                    let mut client = Client::connect(addr).unwrap();
                    let mut ids = Vec::new();
                    for j in 0..JOBS {
                        let mut spec = JobSpec::new(
                            "demo",
                            JobKind::Search,
                            (t * 100 + j) as u64 + 1,
                            Preset::Fast,
                        );
                        spec.max_spr_rounds = Some(1);
                        ids.push(client.submit(&tenant, &spec).unwrap().expect("admitted"));
                    }
                    for &id in &ids {
                        let s = client.wait_done(id, WAIT).unwrap();
                        assert_eq!(s.state, WireState::Done, "job {id}: {:?}", s.error);
                    }
                    ids
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let mut all: Vec<u64> = ids.into_iter().flatten().collect();
    all.sort_unstable();
    all.dedup();
    assert_eq!(all.len(), TENANTS * JOBS, "every job id distinct");

    drop(server);
    let report = service.shutdown().unwrap();
    assert_eq!(report.stats.accepted, (TENANTS * JOBS) as u64);
    assert_eq!(report.stats.completed, (TENANTS * JOBS) as u64);
    assert_eq!(report.stats.failed, 0);
    assert_eq!(report.dispatched, TENANTS * JOBS);
    assert_eq!(report.farm.n_jobs, TENANTS * JOBS);
    assert_eq!(report.sealed_ok, (TENANTS * JOBS) as u64);
    assert_eq!(report.sealed_failed, 0);
}
