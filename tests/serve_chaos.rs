//! Robustness tests for the chaos-hardened service tier: connection
//! lifecycle deadlines (slow-loris eviction), graceful drain, the bounded
//! connection cap, exactly-once submit via idempotency keys (including
//! across a restart and a torn journal tail), job cancellation and per-job
//! deadlines, journal fsync policy, and deterministic wire fault injection
//! end to end — including a mid-run drain and restart under faults with the
//! exactly-once books checked three ways.

use phylo::prelude::*;
use serve::client::{AddrCell, Client, RetryClient, RetryPolicy};
use serve::fault::ServeFaultPlan;
use serve::server::{Server, ServerConfig};
use serve::service::{InferenceService, ServiceConfig, SyncPolicy};
use serve::wire::{JobKind, JobSpec, Preset, RejectReason, WireState};
use std::collections::HashSet;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const WAIT: Duration = Duration::from_secs(600);

fn small_alignment(seed: u64) -> PatternAlignment {
    SimulationConfig::new(6, 120, seed).generate().alignment
}

fn quick_spec(seed: u64) -> JobSpec {
    let mut spec = JobSpec::new("d", JobKind::Search, seed, Preset::Fast);
    spec.max_spr_rounds = Some(1);
    spec
}

fn unique_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("raxml-cell-serve-chaos").join(tag);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn start_service() -> Arc<InferenceService> {
    let service = Arc::new(InferenceService::start(ServiceConfig::new(2)).unwrap());
    service.register_dataset("d", small_alignment(3));
    service
}

/// A slow-loris client (two bytes, then silence) is evicted by the
/// handshake deadline — the socket closes and `serve_conn_deadline_total`
/// ticks — instead of parking a handler thread forever.
#[test]
fn slow_loris_is_evicted_by_the_handshake_deadline() {
    let service = start_service();
    let config = ServerConfig::default().with_handshake_timeout(Duration::from_millis(100));
    let mut server = Server::bind_with("127.0.0.1:0", service.clone(), config).unwrap();

    let evicted_before = obs::global().counter("serve_conn_deadline_total").get();
    let mut loris = TcpStream::connect(server.addr()).unwrap();
    loris.write_all(&[0x00, 0x00]).unwrap(); // two bytes of a frame header, then nothing
    loris.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let start = Instant::now();
    let mut buf = [0u8; 16];
    let n = loris.read(&mut buf).expect("server should close, not time us out");
    assert_eq!(n, 0, "expected EOF from an eviction, got {n} bytes");
    assert!(
        start.elapsed() < Duration::from_secs(3),
        "eviction took {:?}, deadline was 100ms",
        start.elapsed()
    );
    assert!(
        obs::global().counter("serve_conn_deadline_total").get() > evicted_before,
        "eviction must tick serve_conn_deadline_total"
    );

    // The server is still healthy for well-behaved clients.
    let mut client = Client::connect(server.addr()).unwrap();
    client.ping().unwrap();
    drop(client);
    server.stop();
}

/// `stop()` is a graceful drain: every live handler thread is joined under
/// the drain deadline and none is leaked.
#[test]
fn stop_drains_and_joins_every_connection_thread() {
    let service = start_service();
    let mut server = Server::bind(("127.0.0.1", 0), service.clone()).unwrap();

    // Three live framed connections, proven up by a ping each (so their
    // handler threads exist and are parked reading the next frame).
    let mut clients: Vec<Client> = (0..3)
        .map(|_| {
            let mut c = Client::connect(server.addr()).unwrap();
            c.ping().unwrap();
            c
        })
        .collect();

    let report = server.stop();
    assert_eq!(report.joined, 3, "all three handler threads joined");
    assert_eq!(report.leaked, 0, "no handler thread leaked past the drain deadline");

    // Stop is idempotent and the clients see clean EOFs.
    assert_eq!(server.stop(), Default::default());
    for c in &mut clients {
        assert!(c.ping().is_err(), "connection should be dead after drain");
    }
}

/// Beyond `max_connections`, a fresh connection gets one typed `Busy`
/// frame (surfaced client-side as a retryable error) instead of a thread.
#[test]
fn connection_cap_rejects_with_busy() {
    let service = start_service();
    let config = ServerConfig::default().with_max_connections(1);
    let mut server = Server::bind_with("127.0.0.1:0", service.clone(), config).unwrap();

    let mut first = Client::connect(server.addr()).unwrap();
    first.ping().unwrap(); // handler live and registered

    let mut second = Client::connect(server.addr()).unwrap();
    let err = second.ping().expect_err("over-cap connection must be rejected");
    assert_eq!(err.kind(), std::io::ErrorKind::ConnectionRefused, "busy maps to retryable: {err}");

    // Capacity frees once the first connection closes and is reaped.
    drop(first);
    std::thread::sleep(Duration::from_millis(50));
    let mut third = Client::connect(server.addr()).unwrap();
    third.ping().unwrap();
    drop(third);
    server.stop();
}

/// The same idempotency key returns the same job id without re-admitting,
/// both within a service lifetime and across a journal-replayed restart.
#[test]
fn idempotency_keys_dedup_within_and_across_restarts() {
    let dir = unique_dir("idem-restart");
    let aln = small_alignment(5);

    let config = ServiceConfig::new(1).with_state_dir(&dir);
    let service = InferenceService::start(config).unwrap();
    service.register_dataset("d", aln.clone());

    let first = service.submit_idem("a", &quick_spec(1), Some("key-1")).unwrap();
    let retry = service.submit_idem("a", &quick_spec(1), Some("key-1")).unwrap();
    assert_eq!(first, retry, "same key, same job");
    // Keys are tenant-scoped: another tenant's identical key is a new job.
    let other = service.submit_idem("b", &quick_spec(1), Some("key-1")).unwrap();
    assert_ne!(first, other);
    assert_eq!(service.stats().accepted, 2, "the retry was not re-admitted");

    service.wait_done(first, WAIT).unwrap();
    service.wait_done(other, WAIT).unwrap();
    service.shutdown().unwrap();

    // Restart: the key still resolves to the original (finished) job, so a
    // client retrying a pre-crash submit cannot duplicate work.
    let revived =
        InferenceService::start(ServiceConfig::new(1).paused().with_state_dir(&dir)).unwrap();
    revived.register_dataset("d", aln);
    revived.resume();
    let replayed = revived.submit_idem("a", &quick_spec(1), Some("key-1")).unwrap();
    assert_eq!(replayed, first, "idempotency survives the restart");
    let report = revived.shutdown().unwrap();
    assert_eq!(report.stats.accepted, 2, "replayed, not re-admitted");
    assert_eq!(report.dispatched, 0, "nothing re-ran");
}

/// A torn journal tail (crash mid-append) is skipped by replay while every
/// complete line — including its idempotency key — is recovered.
#[test]
fn torn_journal_tail_is_tolerated_and_keys_survive() {
    let dir = unique_dir("torn-tail");
    let aln = small_alignment(6);

    let service = InferenceService::start(ServiceConfig::new(1).with_state_dir(&dir)).unwrap();
    service.register_dataset("d", aln.clone());
    let job = service.submit_idem("a", &quick_spec(2), Some("k-torn")).unwrap();
    let done = service.wait_done(job, WAIT).unwrap().result.unwrap();
    service.shutdown().unwrap();

    // Simulate a crash mid-append: a torn, unterminated submit line.
    let journal = dir.join("journal.jsonl");
    let mut file = std::fs::OpenOptions::new().append(true).open(&journal).unwrap();
    file.write_all(br#"{"ev":"submit","job":99,"tenant":"a","idem":"k-torn-2","datas"#).unwrap();
    drop(file);

    let revived =
        InferenceService::start(ServiceConfig::new(1).paused().with_state_dir(&dir)).unwrap();
    revived.register_dataset("d", aln);
    revived.resume();
    assert!(revived.status(99).is_none(), "the torn line must not materialise a job");
    let restored = revived.status(job).unwrap().result.unwrap();
    assert_eq!(restored.log_likelihood.to_bits(), done.log_likelihood.to_bits());
    let replayed = revived.submit_idem("a", &quick_spec(2), Some("k-torn")).unwrap();
    assert_eq!(replayed, job, "key from before the torn tail still dedups");
    revived.shutdown().unwrap();
}

/// Three lives with a torn tail between the first two: the second life's
/// first append must not be glued onto the torn line, so the job it
/// submitted is still there, done, in the third life, and its key dedups.
#[test]
fn a_job_submitted_after_a_torn_tail_survives_the_next_restart() {
    let dir = unique_dir("torn-tail-three-lives");
    let aln = small_alignment(6);
    let life = || {
        let service =
            InferenceService::start(ServiceConfig::new(1).paused().with_state_dir(&dir)).unwrap();
        service.register_dataset("d", aln.clone());
        service.resume();
        service
    };

    let first = life();
    let job = first.submit_idem("a", &quick_spec(2), Some("k-life-1")).unwrap();
    first.wait_done(job, WAIT).unwrap();
    first.shutdown().unwrap();
    let mut file =
        std::fs::OpenOptions::new().append(true).open(dir.join("journal.jsonl")).unwrap();
    file.write_all(br#"{"ev":"submit","job":99,"tenant":"a","idem":"k-torn","datas"#).unwrap();
    drop(file);

    let second = life();
    let later = second.submit_idem("a", &quick_spec(3), Some("k-life-2")).unwrap();
    let done = second.wait_done(later, WAIT).unwrap().result.unwrap();
    second.shutdown().unwrap();

    let third = life();
    let status = third.status(later).expect("the job submitted after the torn tail survives");
    assert_eq!(status.state, WireState::Done);
    assert_eq!(status.result.unwrap().log_likelihood.to_bits(), done.log_likelihood.to_bits());
    assert_eq!(third.submit_idem("a", &quick_spec(3), Some("k-life-2")).unwrap(), later);
    let report = third.shutdown().unwrap();
    assert_eq!(report.stats.accepted, 2);
    assert_eq!(report.dispatched, 0, "nothing re-ran");
}

/// A journal whose header names another version, or with one flipped byte
/// in a line before the final one, refuses to start the service instead of
/// replaying around the damage.
#[test]
fn a_foreign_or_damaged_journal_refuses_to_start() {
    let dir = unique_dir("damaged-journal");
    let service = InferenceService::start(ServiceConfig::new(1).with_state_dir(&dir)).unwrap();
    service.register_dataset("d", small_alignment(6));
    for seed in 1..=3 {
        let job = service.submit("a", &quick_spec(seed)).unwrap();
        service.wait_done(job, WAIT).unwrap();
    }
    service.shutdown().unwrap();
    let path = dir.join("journal.jsonl");
    let intact = std::fs::read_to_string(&path).unwrap();
    let start = || InferenceService::start(ServiceConfig::new(1).paused().with_state_dir(&dir));

    let body = intact.split_once('\n').unwrap().1;
    std::fs::write(&path, format!("#RAXML-CELL-SERVE-JOURNAL v9\n{body}")).unwrap();
    let err = start().err().expect("a v9 journal is refused");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");

    // The second job's submit line sits between other records.
    let mut bytes = intact.into_bytes();
    let at =
        String::from_utf8_lossy(&bytes).find(r#"{"ev":"submit","job":2,"tenant":"a""#).unwrap();
    bytes[at + r#"{"ev":"submit","job":2,"tenant":""#.len()] ^= 0x02;
    std::fs::write(&path, &bytes).unwrap();
    let err = start().err().expect("a damaged submit line is refused");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    assert!(err.to_string().contains("journal.jsonl"), "{err}");
    assert_eq!(std::fs::read(&path).unwrap(), bytes, "the journal is left as it is");
}

/// Cancelling a queued job settles it as `Cancelled` without dispatching
/// it, and the books balance: completed + failed + cancelled == accepted.
#[test]
fn cancel_settles_queued_jobs_and_balances_the_books() {
    let service = Arc::new(InferenceService::start(ServiceConfig::new(1).paused()).unwrap());
    service.register_dataset("d", small_alignment(7));
    let server = Server::bind("127.0.0.1:0", service.clone()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    let keep = client.submit("a", &quick_spec(1)).unwrap().unwrap();
    let drop_me = client.submit("a", &quick_spec(2)).unwrap().unwrap();

    let status = client.cancel(drop_me).unwrap();
    assert_eq!(status.state, WireState::Cancelled);
    assert!(status.error.as_deref().unwrap_or("").contains("cancelled"));
    // Cancel is idempotent-ish: cancelling again just reports the state.
    assert_eq!(client.cancel(drop_me).unwrap().state, WireState::Cancelled);

    service.resume();
    let done = client.wait_done(keep, WAIT).unwrap();
    assert_eq!(done.state, WireState::Done);
    let stats = client.stats().unwrap();
    assert_eq!(stats.cancelled, 1);
    drop(client);
    drop(server);

    let report = service.shutdown().unwrap();
    let s = report.stats;
    assert_eq!(s.completed + s.failed + s.cancelled, s.accepted, "the books must balance");
    assert_eq!(report.dispatched, 1, "the cancelled job was never dispatched");
    // A running/finished job cannot be cancelled.
    assert_eq!(service.cancel(keep).unwrap().state, WireState::Done);
    assert!(service.cancel(12345).is_none(), "unknown id is None");
}

/// A job whose `deadline_ms` budget has expired by dispatch time settles
/// as a deadline cancellation and never runs.
#[test]
fn expired_deadline_cancels_instead_of_running() {
    let service = start_service();
    let expired_before = obs::global().counter("serve_deadline_expired_total").get();

    let spec = quick_spec(9).with_deadline_ms(0);
    let job = service.submit("a", &spec).unwrap();
    let status = service.wait_done(job, WAIT).unwrap();
    assert_eq!(status.state, WireState::Cancelled);
    assert!(status.error.as_deref().unwrap_or("").contains("deadline"));
    assert!(obs::global().counter("serve_deadline_expired_total").get() > expired_before);

    // A generous deadline changes nothing.
    let roomy = service.submit("a", &quick_spec(10).with_deadline_ms(600_000)).unwrap();
    assert_eq!(service.wait_done(roomy, WAIT).unwrap().state, WireState::Done);

    let report = service.shutdown().unwrap();
    assert_eq!(report.stats.cancelled, 1);
    assert_eq!(report.stats.completed, 1);
}

/// The default sync policy issues one `sync_data` per journal append;
/// `OsManaged` issues none.
#[test]
fn sync_policy_controls_journal_durability() {
    let dir = unique_dir("sync-policy");
    let aln = small_alignment(8);

    let durable =
        InferenceService::start(ServiceConfig::new(1).with_state_dir(dir.join("durable"))).unwrap();
    durable.register_dataset("d", aln.clone());
    let job = durable.submit("a", &quick_spec(1)).unwrap();
    durable.wait_done(job, WAIT).unwrap();
    // The `done` mark is synced before the job reads as done.
    assert!(
        durable.journal_sync_count() >= 2,
        "submit + done should each have synced, saw {}",
        durable.journal_sync_count()
    );
    durable.shutdown().unwrap();

    let lazy = InferenceService::start(
        ServiceConfig::new(1)
            .with_state_dir(dir.join("lazy"))
            .with_sync_policy(SyncPolicy::OsManaged),
    )
    .unwrap();
    lazy.register_dataset("d", aln);
    let job = lazy.submit("a", &quick_spec(1)).unwrap();
    lazy.wait_done(job, WAIT).unwrap();
    lazy.shutdown().unwrap();
    assert_eq!(lazy.journal_sync_count(), 0, "OsManaged must not fsync");
}

/// A job that reads as done is already journaled: its `done` mark is
/// synced and in the file while the service is still running, whether the
/// client polled `status` or waited. Polling in a tight loop lands in any
/// window between publishing `Done` and syncing the mark.
#[test]
fn done_is_journaled_before_it_is_visible() {
    let dir = unique_dir("done-before-visible");
    let service = InferenceService::start(ServiceConfig::new(1).with_state_dir(&dir)).unwrap();
    service.register_dataset("d", small_alignment(8));
    for seed in 1..=6 {
        let job = service.submit("a", &quick_spec(seed)).unwrap();
        let state = if seed % 3 == 0 {
            service.wait_done(job, WAIT).unwrap().state
        } else {
            loop {
                match service.status(job).unwrap().state {
                    WireState::Queued | WireState::Running => std::thread::yield_now(),
                    settled => break settled,
                }
            }
        };
        assert_eq!(state, WireState::Done, "job {job}");
        // One synced append per submit and one per completion.
        let syncs = service.journal_sync_count();
        assert!(syncs >= 2 * seed, "job {job} reads as done after {syncs} journal syncs");
        let journal = std::fs::read_to_string(dir.join("journal.jsonl")).unwrap();
        let mark = format!("{{\"ev\":\"done\",\"job\":{job},");
        assert!(
            journal.lines().any(|line| line.starts_with(&mark)),
            "job {job} reads as done but its journal mark is missing:\n{journal}"
        );
    }
    service.shutdown().unwrap();
}

/// End-to-end fault injection: under an aggressive deterministic plan a
/// bare client sees transport errors, but a fresh retried submit with a
/// stable idempotency key lands exactly one job.
#[test]
fn injected_faults_are_survivable_with_idempotent_retry() {
    let service = start_service();
    let config = ServerConfig::default().with_fault_plan(ServeFaultPlan::uniform(77, 0.15));
    let server = Server::bind_with("127.0.0.1:0", service.clone(), config).unwrap();

    let spec = quick_spec(4);
    let mut job = None;
    for _ in 0..50 {
        let mut c = match Client::connect(server.addr()) {
            Ok(c) => c,
            Err(_) => continue,
        };
        match c.submit_idem("a", &spec, Some("stable-key")) {
            Ok(Ok(id)) => {
                job = Some(id);
                break;
            }
            Ok(Err(reason)) => panic!("rejected: {reason:?}"),
            Err(_) => continue, // injected fault; retry with the same key
        }
    }
    let job = job.expect("a submit should eventually get through");
    assert!(server.fault_tally().total() > 0, "the plan should have injected something");
    drop(server);

    let status = service.wait_done(job, WAIT).unwrap();
    assert_eq!(status.state, WireState::Done);
    let report = service.shutdown().unwrap();
    assert_eq!(report.stats.accepted, 1, "every retry deduped to one job");
    assert_eq!(report.stats.completed, 1);
}

/// Submit through the full resilience stack: `RetryClient` covers transport
/// faults under one idempotency key; a `ShuttingDown` rejection (the race
/// against a draining life) is a definitive "not admitted", so it is safe
/// to retry as a fresh logical submit until the next life is up.
fn submit_retrying(client: &mut RetryClient, tenant: &str, spec: &JobSpec) -> u64 {
    for _ in 0..600 {
        match client.submit(tenant, spec).expect("retry budget covers the injected faults") {
            Ok(id) => return id,
            Err(RejectReason::ShuttingDown) => std::thread::sleep(Duration::from_millis(10)),
            Err(reason) => panic!("{tenant}: rejected: {reason:?}"),
        }
    }
    panic!("{tenant}: server stayed in shutdown");
}

/// Exactly-once across a kill/restart under wire faults. Every connection
/// of both lives injects drops, torn frames and stalls from a seeded plan
/// (no corruption: silent bit flips are the wire fuzz tests' subject).
/// Halfway through submission the server is drained and the service shut
/// down, then both restart from the journal on a fresh ephemeral port (std's
/// `TcpListener` sets no `SO_REUSEADDR`, so the old one may sit in
/// `TIME_WAIT`); clients follow through an `AddrCell`, replaying
/// unacknowledged submits under their original idempotency keys. Three
/// ledgers must then agree integer-exactly: the ids the clients saw settle,
/// the final life's journal-replayed accounting, and the per-life farm
/// dispatch totals. One `deadline_ms = 0` job per tenant must settle as a
/// cancellation — never run, never lost.
#[test]
fn restart_under_faults_keeps_three_ledgers_equal() {
    const TENANTS: usize = 3;
    const JOBS: usize = 2; // normal jobs per tenant, plus one deadline job each
    const NORMAL: usize = TENANTS * JOBS;
    const TOTAL: usize = NORMAL + TENANTS;

    let dir = unique_dir("restart-under-faults");
    let aln = small_alignment(7);
    let plan = ServeFaultPlan {
        seed: 42,
        drop_rate: 0.02,
        truncate_rate: 0.02,
        corrupt_rate: 0.0,
        stall_rate: 0.04,
        stall: Duration::from_millis(2),
    };
    let start_life = || {
        let service = Arc::new(
            InferenceService::start(ServiceConfig::new(4).paused().with_state_dir(&dir)).unwrap(),
        );
        service.register_dataset("d", aln.clone());
        service.resume();
        let config = ServerConfig::default()
            .with_fault_plan(plan.clone())
            .with_drain_deadline(Duration::from_secs(10));
        let server = Server::bind_with("127.0.0.1:0", service.clone(), config).unwrap();
        (service, server)
    };

    let (service1, mut server1) = start_life();
    let addr1 = server1.addr();
    let addr_cell = AddrCell::new(addr1);
    let submitted = AtomicUsize::new(0);

    // One tenant: submit, then observe every job to a terminal state.
    // Returns (ids seen done, id seen cancelled).
    let run_tenant = |t: usize| -> (Vec<u64>, u64) {
        let tenant = format!("tenant-{t}");
        let policy = RetryPolicy {
            max_attempts: 120,
            base_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(200),
        };
        let mut client = RetryClient::new(addr_cell.clone(), &format!("c{t}")).with_policy(policy);
        let mut normal = Vec::new();
        for j in 0..JOBS {
            normal.push(submit_retrying(&mut client, &tenant, &quick_spec((t * 1000 + j) as u64)));
            submitted.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(Duration::from_millis(2));
        }
        // A zero budget has always expired by dispatch time.
        let deadline_job = submit_retrying(
            &mut client,
            &tenant,
            &quick_spec(999_000 + t as u64).with_deadline_ms(0),
        );
        for &id in &normal {
            let status = client.wait_done(id, WAIT).unwrap();
            assert_eq!(status.state, WireState::Done, "{tenant}: job {id}: {:?}", status.error);
        }
        let status = client.wait_done(deadline_job, WAIT).unwrap();
        assert_eq!(status.state, WireState::Cancelled, "{tenant}: deadline job must not run");
        (normal, deadline_job)
    };

    let (outcomes, drain1, report1, (service2, mut server2)) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..TENANTS).map(|t| scope.spawn(move || run_tenant(t))).collect();
        // The kill: once half the normal jobs are in, drain the server, shut
        // the service down, and restart both. Clients ride it out.
        while submitted.load(Ordering::Relaxed) < NORMAL / 2 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let drain1 = server1.stop();
        let report1 = service1.shutdown().expect("first shutdown");
        let life2 = start_life();
        addr_cell.set(life2.1.addr());
        let outcomes: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        (outcomes, drain1, report1, life2)
    });
    assert_ne!(server2.addr(), addr1, "the second life binds a fresh port");

    // Ledger 1, the client view: every logical submit observed terminal
    // exactly once — deadline jobs cancelled, everything else done.
    let mut seen = HashSet::new();
    for (done, cancelled) in &outcomes {
        assert_eq!(done.len(), JOBS);
        for &id in done.iter().chain([cancelled]) {
            assert!(seen.insert(id), "job id {id} observed terminal twice");
        }
    }
    assert_eq!(seen.len(), TOTAL, "a submit was lost or duplicated");

    let faults = server1.fault_tally().total() + server2.fault_tally().total();
    assert!(faults > 0, "the plan injected nothing, so the run proved nothing");
    let drain2 = server2.stop();
    let report2 = service2.shutdown().expect("second shutdown");
    assert_eq!((drain1.leaked, drain2.leaked), (0, 0), "a drain leaked handler threads");

    // Ledger 2, the service view: the final life replayed the journal, so
    // its accounting covers every logical job across both lives.
    let s = report2.stats;
    assert_eq!(s.accepted, TOTAL as u64, "{s:?}");
    assert_eq!(s.completed, NORMAL as u64, "{s:?}");
    assert_eq!(s.cancelled, TENANTS as u64, "{s:?}");
    assert_eq!((s.failed, s.queued, s.running), (0, 0, 0), "{s:?}");

    // Ledger 3, the farm view: per life every dispatch reached the farm and
    // sealed; across lives each job was dispatched exactly once (the
    // deadline jobs are dispatched, then cancelled at the dispatch check).
    for (life, report) in [("life1", &report1), ("life2", &report2)] {
        assert_eq!(report.dispatched, report.farm.n_jobs, "{life}");
        assert_eq!(report.sealed_ok + report.sealed_failed, report.dispatched as u64, "{life}");
    }
    assert_eq!(
        report1.dispatched + report2.dispatched,
        TOTAL,
        "a job ran twice or never across the restart"
    );
}
