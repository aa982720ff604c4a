//! Cross-crate stress and integration tests for the inference farm:
//! accounting under hundreds of tiny jobs with injected failures, the
//! determinism contract across worker counts, and panics in caller hooks
//! reaching the caller.

use phylo::farm::{
    run_batch, run_farm, run_farm_polling, FarmConfig, FarmError, FarmEvent, FarmFaultPlan,
    FeedPoll,
};
use phylo::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::Duration;

/// Install a silent panic hook for the duration of one closure so
/// intentionally panicking jobs don't spray backtraces over test output.
/// Serialized: the hook is process-global.
fn with_quiet_panics<T>(f: impl FnOnce() -> T) -> T {
    static HOOK_LOCK: Mutex<()> = Mutex::new(());
    let _guard = HOOK_LOCK.lock().unwrap();
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = f();
    std::panic::set_hook(default_hook);
    out
}

/// Hundreds of tiny jobs with injected worker panics: every job accounted
/// for exactly once, result order preserved, failures typed per slot.
#[test]
fn farm_stress_accounts_every_job_exactly_once() {
    const N: usize = 500;
    let executions = AtomicUsize::new(0);
    let panicky = [23usize, 99, 250, 251, 480];
    let outcome = with_quiet_panics(|| {
        run_batch((0..N).collect(), 8, |idx, j: usize| {
            executions.fetch_add(1, Ordering::SeqCst);
            if panicky.contains(&idx) {
                panic!("injected worker panic on job {idx}");
            }
            j.wrapping_mul(2654435761)
        })
    });

    // Every job ran exactly once and has exactly one result slot.
    assert_eq!(executions.load(Ordering::SeqCst), N);
    assert_eq!(outcome.results.len(), N);
    assert_eq!(outcome.stats.n_jobs, N);
    assert_eq!(outcome.stats.per_worker_jobs.iter().sum::<usize>(), N);

    // Order preserved: slot i holds job i's value or job i's typed error.
    for (i, r) in outcome.results.iter().enumerate() {
        if panicky.contains(&i) {
            match r {
                Err(FarmError::JobPanicked { job, message, .. }) => {
                    assert_eq!(*job, i);
                    assert!(message.contains(&format!("job {i}")), "payload lost: {message}");
                }
                other => panic!("job {i}: expected JobPanicked, got {other:?}"),
            }
        } else {
            assert_eq!(*r.as_ref().unwrap(), i.wrapping_mul(2654435761), "job {i}");
        }
    }
    assert_eq!(outcome.stats.n_failed, panicky.len());
}

/// The full gauntlet at once — backpressure, a dead worker, an injected
/// fault, a panic — with the in-order seal still firing once per job.
#[test]
fn farm_survives_combined_fault_injection() {
    const N: usize = 300;
    let config = FarmConfig::new(4)
        .bounded(6)
        .with_fault(FarmFaultPlan::none().fail_job(7).kill_worker_after(1, 2));
    let sealed = Mutex::new(Vec::new());
    let outcome = with_quiet_panics(|| {
        run_farm(
            &config,
            (0..N).collect::<Vec<_>>(),
            |_| (),
            |(), idx, j: usize| {
                if idx == 150 {
                    panic!("mid-batch panic");
                }
                j + 1
            },
            None,
            |i, _| sealed.lock().unwrap().push(i),
        )
    });
    assert_eq!(*sealed.lock().unwrap(), (0..N).collect::<Vec<_>>());
    assert!(outcome.stats.max_in_flight <= 6);
    assert_eq!(outcome.stats.n_failed, 2);
    let ok = outcome.results.iter().filter(|r| r.is_ok()).count();
    assert_eq!(ok, N - 2);
}

/// Determinism across worker counts on real likelihood work: the same
/// bootstrap batch under 1, 2 and 5 workers produces bit-identical lnLs
/// and identical trees, regardless of scheduling and shard reuse.
#[test]
fn farm_bootstrap_batch_is_worker_count_invariant() {
    let aln = SimulationConfig { mean_branch: 0.12, ..SimulationConfig::new(6, 240, 9) }
        .generate()
        .alignment;
    let search = SearchConfig::fast();
    let run = |workers: usize| {
        let outcome = run_farm(
            &FarmConfig::new(workers),
            (0..6u64).collect::<Vec<_>>(),
            |_| LikelihoodWorkspace::new(),
            |ws: &mut LikelihoodWorkspace, _, seed| {
                let owned = std::mem::take(ws);
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                let replicate = aln.bootstrap_replicate(&mut rng);
                let outcome = phylo::search::run_inference(
                    &replicate,
                    &phylo::search::InferenceRequest::new(search.clone(), seed),
                    phylo::search::InferenceOptions::new().with_workspace(owned),
                )
                .unwrap();
                *ws = outcome.workspace;
                let result = outcome.result;
                (result.log_likelihood.to_bits(), result.tree.to_exact_string())
            },
            None,
            |_, _| {},
        );
        outcome.into_results().unwrap()
    };
    use rand::SeedableRng as _;
    let one = run(1);
    assert_eq!(one, run(2), "1 vs 2 workers");
    assert_eq!(one, run(5), "1 vs 5 workers");
}

/// Run `f` on a helper thread and return its panic's message, or `None`
/// if none arrived within ten seconds — a farm that hangs instead.
fn panic_within_ten_seconds(f: impl FnOnce() + Send + 'static) -> Option<String> {
    with_quiet_panics(|| {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let payload = catch_unwind(AssertUnwindSafe(f)).err();
            let message = payload.and_then(|p| p.downcast::<&'static str>().ok());
            let _ = tx.send(message.map(|s| s.to_string()));
        });
        rx.recv_timeout(Duration::from_secs(10)).ok().flatten()
    })
}

/// A panic in the feed, the observer or the seal hook closes the queue and
/// reaches the caller with its own message, instead of leaving idle workers
/// waiting forever or poisoning the farm's lock under them.
#[test]
fn a_panicking_hook_reaches_the_caller() {
    let feed = panic_within_ten_seconds(|| {
        let mut calls = 0u32;
        let feed = move || {
            calls += 1;
            if calls == 4 {
                panic!("feed failed on call 4");
            }
            FeedPoll::Job(calls)
        };
        run_farm_polling(&FarmConfig::new(2), feed, |_| (), |(), _, j| j, None, |_, _| {});
    });
    assert_eq!(feed.as_deref(), Some("feed failed on call 4"));

    let observer = panic_within_ten_seconds(|| {
        let mut seen = 0;
        let mut observer = |_: FarmEvent| {
            seen += 1;
            if seen == 5 {
                panic!("observer failed on event 5");
            }
        };
        run_farm(
            &FarmConfig::new(2),
            0..20u32,
            |_| (),
            |(), _, j| j,
            Some(&mut observer),
            |_, _| {},
        );
    });
    assert_eq!(observer.as_deref(), Some("observer failed on event 5"));

    let seal = panic_within_ten_seconds(|| {
        let on_sealed = |i, _: &Result<u32, FarmError>| {
            if i == 3 {
                panic!("seal hook failed at job 3");
            }
        };
        run_farm(&FarmConfig::new(2), 0..20u32, |_| (), |(), _, j| j, None, on_sealed);
    });
    assert_eq!(seal.as_deref(), Some("seal hook failed at job 3"));
}
