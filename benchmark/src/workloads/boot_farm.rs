//! `boot_farm`: the paper's task-level parallelism. One operation is one
//! `BootstrapAnalysis` batch (1 inference + 15 bootstraps) on `nproc` farm
//! workers, on an alignment of the aln42 shape drawn from `--seed`.
//!
//! After the window the first batch is repeated on one worker: that is the
//! plain single-threaded baseline of `scaling_eff`, and its results must be
//! bit-identical to the `nproc` run.

use super::{derive, repeat_setup, timed_ops, Args, Checks, Outcome};
use crate::host;
use crate::spans::{Spans, NO_PARENT};
use crate::stats::{median, median_or_zero};
use phylo::alignment::PatternAlignment;
use phylo::bipartitions::split_support;
use phylo::bootstrap::{AnalysisResult, BootstrapAnalysis};
use phylo::farm::{run_farm, FarmConfig, FarmEvent, FarmStats};
use phylo::likelihood::LikelihoodWorkspace;
use phylo::search::{run_inference, InferenceOptions, InferenceRequest, SearchConfig};
use phylo::simulate::SimulationConfig;
use phylo::tree::Tree;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Bootstraps per batch, beside the one inference.
const BOOTSTRAPS: usize = 15;

struct Input {
    aln: PatternAlignment,
    analysis: BootstrapAnalysis,
}

/// `count` inputs of stream `stream`: stream 0 is the pool made during
/// set-up, stream `1 + i` the input made on the fly for operation `i`.
fn inputs(args: &Args, stream: u64, count: usize) -> Vec<Input> {
    let seed = derive(args.seed, 0, stream);
    let alignments = if args.smoke {
        (0..count as u64)
            .map(|i| SimulationConfig::new(10, 300, derive(seed, 0, i)).generate().alignment)
            .collect()
    } else {
        super::aln42_pool(seed, count)
    };
    alignments.into_iter().zip(0..).map(|(aln, i)| input(args, aln, (stream << 20) + i)).collect()
}

fn input(args: &Args, aln: PatternAlignment, index: u64) -> Input {
    Input {
        aln,
        analysis: BootstrapAnalysis {
            n_inferences: 1,
            n_bootstraps: if args.smoke { 3 } else { BOOTSTRAPS },
            n_workers: host::nproc(),
            // Job seeds are `seed + small offsets`; keep clear of wrap-around.
            seed: derive(args.seed, 1, index) >> 1,
            // One SPR round, like every fast-preset job of this benchmark:
            // searches that go on to a second or third round would make the
            // batch time hang on how many of its sixteen happen to.
            search: SearchConfig { max_spr_rounds: 1, ..SearchConfig::fast() },
        },
    }
}

/// `(lnL bits, tree)` per job, in job order. `try_run` keeps bootstrap
/// trees but not their likelihoods, so a bootstrap's bits are `None`.
type JobResults = Vec<(Option<u64>, Tree)>;

/// What both routes through the farm produce for one batch.
struct Batch {
    jobs: JobResults,
    /// Only `BootstrapAnalysis::try_run` returns the merged kernel trace.
    analysis: Option<AnalysisResult>,
}

impl Batch {
    fn of(result: AnalysisResult) -> Batch {
        let bits = result.inference_log_likelihoods.iter().map(|l| Some(l.to_bits()));
        let inferences = bits.zip(std::iter::once(result.best.tree.clone()));
        let bootstraps = result.bootstrap_trees.iter().map(|t| (None, t.clone()));
        Batch { jobs: inferences.chain(bootstraps).collect(), analysis: Some(result) }
    }
}

pub fn run(args: &Args) -> Outcome {
    let mut checks = Checks::default();
    let mut spans = Spans::new(args.traced);
    let pool_size = args.pool_size(0.8);
    let (mut pool, setups_s) = repeat_setup(args.setup_repeats(), || {
        let pool = inputs(args, 0, pool_size);
        // Warm-up: one tiny batch through the farm starts and joins worker
        // threads and faults in the search code on every core.
        let analysis = BootstrapAnalysis { n_bootstraps: 2, ..BootstrapAnalysis::quick(1) };
        black_box(analysis.try_run(&super::warmup_alignment()).expect("warm-up batch"));
        pool
    });

    // Plain: `BootstrapAnalysis::try_run`. Under spans: the same job list
    // through `run_farm` itself with an observer, the only way to see
    // steals, queue waits and seal lag from outside `BootstrapAnalysis`.
    let mut farm = FarmLayer::default();
    let timed = timed_ops(
        args,
        1,
        &mut checks,
        |i, under_spans| {
            if i == pool.len() {
                pool.extend(inputs(args, 1 + i as u64, 1));
            }
            let Input { aln, analysis } = &pool[i];
            if under_spans {
                return Ok(farm.replay(aln, analysis, &mut spans, i as u64));
            }
            analysis.try_run(aln).map(Batch::of).map_err(|e| e.to_string())
        },
        |plain, replayed| plain.jobs == replayed.jobs,
    );
    let jobs: usize = timed.done.iter().map(|d| d.plain.jobs.len()).sum();
    for done in &timed.done {
        let valid = done.plain.jobs.iter().all(|(_, tree)| tree.validate().is_ok());
        checks.require(valid, || format!("batch {}: invalid tree", done.index));
    }

    let mut layers = BTreeMap::new();
    if let Some(first) = timed.done.first() {
        // One worker: the single-threaded baseline and the bit-identity
        // reference for the first batch.
        let Input { aln, analysis } = &pool[first.index];
        let serial = BootstrapAnalysis { n_workers: 1, ..analysis.clone() };
        let t = Instant::now();
        let reference = serial.try_run(aln).map(Batch::of);
        let serial_s = t.elapsed().as_secs_f64();
        match reference {
            Ok(reference) => checks.require(reference.jobs == first.plain.jobs, || {
                format!(
                    "batch {}: {} workers and 1 worker disagree",
                    first.index, analysis.n_workers
                )
            }),
            Err(e) => checks.require(false, || format!("batch on 1 worker failed: {e}")),
        }
        if let (true, Some(result)) = (args.traced, &first.plain.analysis) {
            let batch_jobs = first.plain.jobs.len() as f64;
            let parallel_rate = batch_jobs / (median(&timed.latencies_ms) / 1e3);
            let serial_rate = batch_jobs / serial_s;
            layers.insert("scaling_eff", parallel_rate / (host::nproc() as f64 * serial_rate));
            layers.insert("lnl_mean", result.best_log_likelihood);
            super::search::count_metrics(&mut layers, result.trace.counters());
            layers.insert("phylo.alignment.patterns", aln.n_patterns() as f64);
            farm.metrics(&mut layers);
            bootstrap_metrics(&mut layers, aln, result, analysis.seed);
            timed.obs_layers(&mut layers, &spans, jobs as u64);
        }
    }
    timed.into_outcome(setups_s, jobs as u64, checks, layers, spans)
}

/// Accumulates what the farm observer saw over every replayed batch.
#[derive(Default)]
struct FarmLayer {
    stats: Vec<FarmStats>,
    queue_wait_ms: Vec<f64>,
    run_ms: Vec<f64>,
    seal_lag_ms: Vec<f64>,
    busy_frac: Vec<f64>,
}

impl FarmLayer {
    /// Run the batch's job list (same per-job seeds as
    /// `BootstrapAnalysis::job_for`) through `run_farm` with an observer.
    fn replay(
        &mut self,
        aln: &PatternAlignment,
        analysis: &BootstrapAnalysis,
        spans: &mut Spans,
        op: u64,
    ) -> Batch {
        // (seed, is_bootstrap) per job, inference first.
        let jobs: Vec<(u64, bool)> = std::iter::once((analysis.seed, false))
            .chain(
                (0..analysis.n_bootstraps as u64)
                    .map(|i| (analysis.seed.wrapping_add(0x1000_0000).wrapping_add(i), true)),
            )
            .collect();
        // The farm stamps its events on the span store's clock.
        let config = FarmConfig::new(analysis.n_workers.min(jobs.len())).with_epoch(spans.epoch());
        let root = spans.begin("phylo.farm.batch", NO_PARENT, op);
        let mut events = Vec::new();
        let mut observer = |event: FarmEvent| events.push(event);
        let outcome = run_farm(
            &config,
            jobs,
            |_worker| LikelihoodWorkspace::new(),
            |ws: &mut LikelihoodWorkspace, _, (seed, is_bootstrap)| {
                let request = InferenceRequest::new(analysis.search.clone(), seed);
                let options = InferenceOptions::new().with_workspace(std::mem::take(ws));
                let outcome = if is_bootstrap {
                    let replicate = aln.bootstrap_replicate(&mut StdRng::seed_from_u64(seed));
                    run_inference(&replicate, &request, options)
                } else {
                    run_inference(aln, &request, options)
                };
                let outcome = outcome.expect("search on finite data");
                *ws = outcome.workspace;
                (outcome.result.log_likelihood, outcome.result.tree)
            },
            Some(&mut observer),
            |_, _| {},
        );
        spans.end(root);

        let mut busy_ns = 0u64;
        for event in events {
            let (name, start, end, sink) = match event {
                FarmEvent::JobStarted { at_nanos, enqueued_at_nanos, .. } => {
                    ("phylo.farm.queue_wait", enqueued_at_nanos, at_nanos, &mut self.queue_wait_ms)
                }
                FarmEvent::JobCompleted { at_nanos, started_at_nanos, .. } => {
                    busy_ns += at_nanos - started_at_nanos;
                    ("phylo.farm.run", started_at_nanos, at_nanos, &mut self.run_ms)
                }
                FarmEvent::JobSealed { at_nanos, completed_at_nanos, .. } => {
                    ("phylo.farm.seal_lag", completed_at_nanos, at_nanos, &mut self.seal_lag_ms)
                }
                _ => continue,
            };
            sink.push((end - start) as f64 / 1e6);
            spans.push(name, start, end, root, op);
        }
        // Against the batch's own wall: `FarmStats::elapsed_nanos` counts
        // from the shared epoch, not from this batch's start.
        let batch_ns = spans.all()[root].duration_ns().max(1) as f64;
        let stats = outcome.stats.clone();
        self.busy_frac.push(busy_ns as f64 / (batch_ns * stats.per_worker_jobs.len() as f64));
        self.stats.push(stats);
        let jobs = outcome
            .results
            .into_iter()
            .enumerate()
            .map(|(i, r)| {
                let (lnl, tree) = r.expect("farm job");
                ((i == 0).then(|| lnl.to_bits()), tree)
            })
            .collect();
        Batch { jobs, analysis: None }
    }

    fn metrics(&self, layers: &mut BTreeMap<&'static str, f64>) {
        // Counts come from the first batch, which always runs.
        let Some(first) = self.stats.first() else { return };
        layers.insert("phylo.farm.jobs", first.n_jobs as f64);
        layers.insert("phylo.farm.steals", first.steals as f64);
        layers.insert("phylo.farm.max_in_flight", first.max_in_flight as f64);
        let per_worker = &first.per_worker_jobs;
        let mean = first.n_jobs as f64 / per_worker.len() as f64;
        let busiest = per_worker.iter().copied().max().unwrap_or(0) as f64;
        layers.insert("phylo.farm.imbalance", busiest / mean);
        layers.insert("phylo.farm.queue_wait_ms_p50", median_or_zero(&self.queue_wait_ms));
        layers.insert("phylo.farm.run_ms_p50", median_or_zero(&self.run_ms));
        layers.insert("phylo.farm.seal_lag_ms_p50", median_or_zero(&self.seal_lag_ms));
        layers.insert("phylo.farm.worker_busy_frac", median_or_zero(&self.busy_frac));
    }
}

/// Resampling and support: the two bootstrap-only costs of a batch.
fn bootstrap_metrics(
    layers: &mut BTreeMap<&'static str, f64>,
    aln: &PatternAlignment,
    result: &AnalysisResult,
    seed: u64,
) {
    let replicate_us: Vec<f64> = (0..16u64)
        .map(|i| {
            let mut rng = StdRng::seed_from_u64(seed.wrapping_add(i));
            let t = Instant::now();
            black_box(aln.bootstrap_replicate(&mut rng));
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    layers.insert("phylo.bootstrap.replicate_us", median(&replicate_us));
    let t = Instant::now();
    black_box(split_support(&result.best.tree, &result.bootstrap_trees));
    layers.insert("phylo.bootstrap.support_s", t.elapsed().as_secs_f64());
}
