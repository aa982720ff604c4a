//! Integration tests for the wall-clock metrics layer: histogram
//! invariants under randomized inputs, coherence between the registry's
//! farm counters and the farm's own `FarmStats`, and the bit-identity of
//! likelihood results with metrics on vs off.

use std::sync::Mutex;

use obs::hist::{bucket_bounds, bucket_index, N_BUCKETS};
use obs::HistogramSnapshot;
use phylo::farm::{run_farm, FarmConfig, FarmFaultPlan};
use phylo::prelude::*;
use proptest::prelude::*;

/// One inference via the unified entry point.
fn infer(aln: &PatternAlignment, cfg: &SearchConfig, seed: u64) -> SearchResult {
    run_inference(aln, &InferenceRequest::new(cfg.clone(), seed), InferenceOptions::new())
        .unwrap()
        .result
}

proptest! {
    /// Every recorded value lies inside its bucket's reported bounds, and
    /// the bucket index is within range.
    #[test]
    fn recorded_values_lie_in_their_bucket_bounds(v in 0u64..u64::MAX) {
        let i = bucket_index(v);
        prop_assert!(i < N_BUCKETS);
        let (lo, hi) = bucket_bounds(i);
        prop_assert!(lo <= v && v <= hi, "value {v} outside bucket {i} = [{lo}, {hi}]");
    }

    /// Bucket bounds tile the u64 axis without gaps: bucket i+1 starts
    /// exactly one past bucket i's end.
    #[test]
    fn bucket_bounds_are_contiguous(i in 0usize..N_BUCKETS - 1) {
        let (_, hi) = bucket_bounds(i);
        let (lo_next, _) = bucket_bounds(i + 1);
        prop_assert_eq!(lo_next, hi + 1);
    }

    /// Quantiles are monotone (p50 <= p90 <= p99 <= max) and every
    /// quantile of a nonempty histogram is a value <= the recorded max.
    #[test]
    fn quantiles_are_monotone_and_bounded(values in collection::vec(0u64..u64::MAX, 1..200)) {
        let cell = obs::HistogramCell::default();
        for &v in &values {
            cell.record(v);
        }
        let snap = cell.snapshot();
        let p50 = snap.quantile(0.5);
        let p90 = snap.quantile(0.9);
        let p99 = snap.quantile(0.99);
        prop_assert!(p50 <= p90 && p90 <= p99 && p99 <= snap.max);
        prop_assert_eq!(snap.max, *values.iter().max().unwrap());
        prop_assert_eq!(snap.count, values.len() as u64);
    }

    /// Merging per-worker histograms equals recording everything into one:
    /// sharded measurement loses nothing.
    #[test]
    fn merged_shards_equal_single_histogram(
        shards in collection::vec(collection::vec(0u64..u64::MAX, 0..60), 1..5)
    ) {
        let single = obs::HistogramCell::default();
        let mut merged = HistogramSnapshot::default();
        for shard in &shards {
            let cell = obs::HistogramCell::default();
            for &v in shard {
                cell.record(v);
                single.record(v);
            }
            merged.merge(&cell.snapshot());
        }
        let reference = single.snapshot();
        prop_assert_eq!(merged.count, reference.count);
        prop_assert_eq!(merged.max, reference.max);
        prop_assert_eq!(merged.buckets, reference.buckets);
        for q in [0.5, 0.9, 0.99, 1.0] {
            prop_assert_eq!(merged.quantile(q), reference.quantile(q));
        }
    }
}

/// Tests below share the process-global registry; serialize them so one
/// test's reset cannot race another's readings.
static REGISTRY_LOCK: Mutex<()> = Mutex::new(());

/// The registry's farm counters must agree exactly with the farm's own
/// `FarmStats`, including under injected job failures and worker deaths —
/// both tick at the same code sites, and this pins that.
#[test]
fn farm_counters_cohere_with_farm_stats_under_faults() {
    let _guard = REGISTRY_LOCK.lock().unwrap();
    let registry = obs::global();
    registry.set_enabled(true);
    registry.reset();

    const N: usize = 120;
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let config = FarmConfig::new(3)
        .bounded(4)
        .with_fault(FarmFaultPlan::none().fail_job(7).kill_worker_after(2, 0));
    let outcome = run_farm(
        &config,
        (0..N as u64).collect::<Vec<_>>(),
        |_| (),
        |(), _, j| {
            if j == 33 {
                panic!("job thirty-three exploded");
            }
            j * 2
        },
        None,
        |_, _| {},
    );
    std::panic::set_hook(default_hook);

    let stats = &outcome.stats;
    let counter = |name: &str| registry.counter(name).get();
    assert_eq!(counter("farm_jobs_total"), stats.n_jobs as u64);
    assert_eq!(counter("farm_jobs_failed_total"), stats.n_failed as u64);
    assert_eq!(counter("farm_workers_died_total"), stats.workers_died as u64);
    assert_eq!(stats.n_failed, 2, "the injected fault and the panic");
    assert_eq!(stats.workers_died, 1);

    // Per-worker run-time histograms account for every job that actually
    // ran on a worker (write-offs from the killed worker never ran).
    let merged = registry.merged_histogram("farm_job_run_ns_w");
    let written_off = outcome
        .results
        .iter()
        .filter(|r| matches!(r, Err(phylo::farm::FarmError::WorkerLost { .. })))
        .count();
    assert_eq!(merged.count, (stats.n_jobs - written_off) as u64);

    registry.set_enabled(false);
    registry.reset();
}

/// Recording metrics must not perturb the search arithmetic: the same
/// inference with the registry enabled and disabled produces bit-identical
/// log-likelihoods and trees.
#[test]
fn likelihood_bits_are_identical_with_metrics_on_and_off() {
    let _guard = REGISTRY_LOCK.lock().unwrap();
    let registry = obs::global();
    registry.set_enabled(false);

    let w = SimulationConfig::new(7, 240, 11).generate();
    let cfg = SearchConfig::fast();
    let off = infer(&w.alignment, &cfg, 4);

    registry.set_enabled(true);
    registry.reset();
    let on = infer(&w.alignment, &cfg, 4);
    // The instrumented run must actually have recorded something, or this
    // test proves nothing.
    assert!(
        registry.histogram("evaluate_dispatch_ns").snapshot().count > 0
            || registry.histogram("newton_dispatch_ns").snapshot().count > 0,
        "enabled registry recorded no dispatch samples"
    );
    registry.set_enabled(false);
    registry.reset();

    assert_eq!(
        off.log_likelihood.to_bits(),
        on.log_likelihood.to_bits(),
        "metrics recording changed the log-likelihood bits"
    );
    assert_eq!(off.tree.to_exact_string(), on.tree.to_exact_string());
}

/// The Prometheus and JSONL exports of a freshly exercised registry are
/// well-formed per the repo's own validators.
#[test]
fn registry_exports_validate() {
    let _guard = REGISTRY_LOCK.lock().unwrap();
    let registry = obs::global();
    registry.set_enabled(true);
    registry.reset();
    registry.counter("export_jobs_total").add(3);
    registry.gauge("export_utilization").set(0.75);
    let h = registry.histogram("export_run_ns");
    for v in [100, 10_000, 1_000_000] {
        h.record(v);
    }

    let prom = registry.to_prometheus_text();
    obs::validate_prometheus_text(&prom).expect("prometheus export must validate");
    assert!(prom.contains("# TYPE export_jobs_total counter"));
    assert!(prom.contains("export_run_ns_bucket"));

    let jsonl = registry.to_jsonl();
    obs::json::parse_lines(&jsonl).expect("jsonl export must validate");

    registry.set_enabled(false);
    registry.reset();
}
