//! `search42` and `search96`: single-threaded maximum-likelihood searches.
//!
//! Every operation gets its own alignment and its own search seed, both
//! derived from `--seed`, so one run samples the population of inputs of
//! its shape and the reported median does not hang on one alignment's
//! pattern count or on whether one search happened to need a third round.

use super::{derive, repeat_setup, timed_ops, Args, Checks, Done, Outcome};
use crate::spans::{Spans, NO_PARENT};
use crate::stats::{median, median_or_zero};
use phylo::alignment::PatternAlignment;
use phylo::likelihood::engine::{LikelihoodEngine, ReuseStats};
use phylo::likelihood::{LikelihoodConfig, LikelihoodWorkspace};
use phylo::model::{ExpImpl, GammaRates, SubstModel};
use phylo::search::{
    optimize_alpha, optimize_exchangeabilities, parsimony_score, run_inference, spr_round,
    stepwise_addition_tree, InferenceOptions, InferenceRequest, SearchConfig, SearchResult,
};
use phylo::simulate::SimulationConfig;
use phylo::tree::Tree;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Which of the two search workloads, and at which size.
pub struct Shape {
    /// `(seed, count)` -> that many alignments.
    alignments: fn(u64, usize) -> Vec<PatternAlignment>,
    search: SearchConfig,
    /// Inputs generated during set-up per second of window.
    pool_per_second: f64,
}

impl Shape {
    /// The paper's workload: 42 taxa x 1167 sites at `42_SC` divergence
    /// under the search settings the Cell study captures, stopped after two
    /// SPR rounds. Two thirds of these searches converge in two rounds; the
    /// rest need three or four and take up to twice as long, which made the
    /// median of a dozen operations swing by 20 % between seeds. The complete
    /// hill climb is still timed end to end by `cell_tables`' capture.
    pub fn search42(smoke: bool) -> Shape {
        let mut search = raxml_cell::WorkloadSpec::aln42().search;
        search.max_spr_rounds = 1;
        Shape {
            alignments: if smoke {
                |seed, n| simulated(12, 300, seed, n)
            } else {
                super::aln42_pool
            },
            search,
            pool_per_second: 2.5,
        }
    }

    /// 96 taxa x 1000 sites, fast preset, one SPR round: the stepwise
    /// addition start tree is a large share of the wall here.
    pub fn search96(smoke: bool) -> Shape {
        let mut search = SearchConfig::fast();
        search.max_spr_rounds = 1;
        Shape {
            alignments: if smoke {
                |seed, n| simulated(24, 300, seed, n)
            } else {
                |seed, n| simulated(96, 1000, seed, n)
            },
            search,
            pool_per_second: 0.4,
        }
    }
}

fn simulated(taxa: usize, sites: usize, seed: u64, count: usize) -> Vec<PatternAlignment> {
    (0..count as u64)
        .map(|i| SimulationConfig::new(taxa, sites, derive(seed, 0, i)).generate().alignment)
        .collect()
}

struct Input {
    aln: PatternAlignment,
    request: InferenceRequest,
}

/// `count` inputs of stream `stream`: stream 0 is the pool made during
/// set-up, stream `1 + i` the single input made on the fly when operation
/// `i` finds the pool used up.
fn inputs(shape: &Shape, seed: u64, stream: u64, count: usize) -> Vec<Input> {
    (shape.alignments)(derive(seed, 2, stream), count)
        .into_iter()
        .zip(0..)
        .map(|(aln, i)| Input {
            aln,
            request: InferenceRequest::new(
                shape.search.clone(),
                derive(seed, 1, (stream << 20) + i),
            ),
        })
        .collect()
}

/// Operations that run however slow the host is; the counts and the mean
/// log-likelihood are taken from exactly these, so they repeat per seed.
const FLOOR: usize = 2;

/// A search result and, from the replay, the engine's reuse ledger (the
/// library's `SearchResult` does not carry it).
struct Searched {
    result: SearchResult,
    reuse: ReuseStats,
}

pub fn run(shape: &Shape, args: &Args) -> Outcome {
    let mut checks = Checks::default();
    let mut spans = Spans::new(args.traced);
    let pool_size = args.pool_size(shape.pool_per_second);
    let (mut pool, setups_s) = repeat_setup(args.setup_repeats(), || {
        let pool = inputs(shape, args.seed, 0, pool_size);
        // Warm-up on a small alignment: faults in the kernels, the model
        // code and the allocator without paying for a full-size search.
        let request = InferenceRequest::new(SearchConfig::fast(), 1);
        let warm = run_inference(&super::warmup_alignment(), &request, InferenceOptions::new());
        black_box(warm.expect("warm-up search"));
        pool
    });

    // Plain: `run_inference`. Under spans: the same search replayed phase by
    // phase through the public functions, which must land on the same bits.
    let timed = timed_ops(
        args,
        FLOOR,
        &mut checks,
        |i, under_spans| {
            if i == pool.len() {
                pool.extend(inputs(shape, args.seed, 1 + i as u64, 1));
            }
            let Input { aln, request } = &pool[i];
            if under_spans {
                return Ok(replay(aln, request, &mut spans, i as u64));
            }
            run_inference(aln, request, InferenceOptions::new())
                .map(|outcome| Searched { result: outcome.result, reuse: ReuseStats::default() })
                .map_err(|e| e.to_string())
        },
        |plain, replayed| {
            plain.result.log_likelihood.to_bits() == replayed.result.log_likelihood.to_bits()
                && plain.result.tree == replayed.result.tree
        },
    );

    // A valid tree, and the reported lnL agrees with a re-score on an
    // independent path (scalar kernel, libm exp).
    for done in &timed.done {
        let (i, result) = (done.index, &done.plain.result);
        checks.require(result.tree.validate().is_ok(), || format!("op {i}: invalid tree"));
        let rescored = rescore(&pool[i].aln, result, &shape.search);
        checks.close(result.log_likelihood, rescored, 1e-6, &format!("op {i}: lnL re-score"));
    }

    let mut layers = BTreeMap::new();
    let jobs = timed.done.len() as u64;
    if args.traced && jobs > 0 {
        layer_metrics(&mut layers, &pool, &timed.done, &spans);
        timed.obs_layers(&mut layers, &spans, jobs);
        // Replay against plain on the same inputs: how far the per-phase
        // self-times may be off the end-to-end time.
        let gap = layers["obs.trace_overhead_pct"].abs();
        layers.insert("phylo.search.replay_gap_pct", gap);
    }
    timed.into_outcome(setups_s, jobs, checks, layers, spans)
}

/// Log-likelihood of a search result under `LikelihoodConfig::baseline()`.
fn rescore(aln: &PatternAlignment, result: &SearchResult, search: &SearchConfig) -> f64 {
    let rates = GammaRates::new(result.alpha, search.n_rate_categories).expect("optimised alpha");
    let mut engine =
        LikelihoodEngine::new(aln, result.model.clone(), rates, LikelihoodConfig::baseline());
    engine.log_likelihood(&result.tree)
}

/// `run_search` of `phylo::search`, spelled out through its public parts
/// with a span around each phase. Any drift from the library's own
/// sequence shows as a bit mismatch in the caller's check.
fn replay(
    aln: &PatternAlignment,
    request: &InferenceRequest,
    spans: &mut Spans,
    op: u64,
) -> Searched {
    let config = &request.config;
    let root = spans.begin("phylo.search", NO_PARENT, op);
    let mut rng = StdRng::seed_from_u64(request.seed);
    let mut tree = spans.time("phylo.search.parsimony.stepwise", root, op, || {
        stepwise_addition_tree(aln, config.initial_branch_length, &mut rng).expect(">= 3 taxa")
    });
    let starting_parsimony = parsimony_score(&tree, aln);

    let model = config.model.clone().unwrap_or_else(|| {
        SubstModel::gtr(aln.base_frequencies(), [1.0; 6]).expect("empirical GTR is valid")
    });
    let rates = GammaRates::new(config.initial_alpha, config.n_rate_categories).expect("rates");
    let mut engine = LikelihoodEngine::with_workspace(
        aln,
        model,
        rates,
        config.likelihood,
        config.workspace,
        LikelihoodWorkspace::new(),
    );

    spans.time("phylo.search.init_opt", root, op, || {
        engine.optimize_all_branches(&mut tree, 2);
        if config.optimize_alpha {
            optimize_alpha(&mut engine, &tree);
            engine.optimize_all_branches(&mut tree, 1);
        }
    });

    let mut rounds = 0;
    let mut moves_applied = 0;
    for round in 0..config.max_spr_rounds {
        let applied = spans.time("phylo.search.spr_round", root, op, || {
            engine.begin_spr_round(round as u32);
            let stats = spr_round(&mut engine, &mut tree, config.spr_radius, config.epsilon);
            engine.optimize_all_branches(&mut tree, 1);
            if config.optimize_alpha && round % 2 == 1 {
                optimize_alpha(&mut engine, &tree);
            }
            engine.end_spr_round();
            stats.applied
        });
        rounds = round + 1;
        moves_applied += applied;
        if applied == 0 {
            break;
        }
    }

    let log_likelihood = spans.time("phylo.search.final_polish", root, op, || {
        if config.optimize_exchangeabilities {
            optimize_exchangeabilities(&mut engine, &tree);
            engine.optimize_all_branches(&mut tree, 1);
        }
        if config.optimize_alpha {
            optimize_alpha(&mut engine, &tree);
        }
        engine.optimize_all_branches(&mut tree, config.branch_smoothings)
    });
    spans.end(root);
    let result = SearchResult {
        tree,
        log_likelihood,
        starting_parsimony,
        alpha: engine.rates().alpha(),
        model: engine.model().clone(),
        rounds,
        moves_applied,
        round_walls: Vec::new(),
        trace: engine.take_trace(),
    };
    Searched { result, reuse: engine.reuse_stats() }
}

/// Computed bytes one `newview` moves: two child CLVs read and one written,
/// `patterns x rates x 4 states` doubles each (tips are smaller in memory;
/// this is the array-size bound, not a measured traffic figure).
fn newview_bytes(n_patterns: usize, n_rates: usize) -> f64 {
    (3 * n_patterns * n_rates * 4 * std::mem::size_of::<f64>()) as f64
}

/// The `phylo.likelihood.*` rates of one tree, from a measured full
/// traversal and a measured `optimize_all_branches(1)` pass: time per
/// branch, computed CLV bandwidth and the workspace estimate.
pub fn rate_metrics(
    layers: &mut BTreeMap<&'static str, f64>,
    aln: &PatternAlignment,
    tree: &Tree,
    full_traversal_s: f64,
    branch_opt_s: f64,
) {
    let n_inner = aln.n_taxa().saturating_sub(2) as f64;
    layers.insert("phylo.likelihood.full_traversal_s", full_traversal_s);
    layers.insert("phylo.likelihood.branch_opt_us", branch_opt_s * 1e6 / tree.edges().len() as f64);
    layers.insert(
        "phylo.likelihood.clv_gb_per_s",
        n_inner * newview_bytes(aln.n_patterns(), 4) / full_traversal_s / 1e9,
    );
    layers.insert(
        "phylo.likelihood.workspace_mb",
        LikelihoodWorkspace::estimate_bytes(aln.n_taxa(), aln.n_patterns(), 4) as f64 / 1e6,
    );
}

/// Kernel counts of a trace, as per-layer metrics.
pub fn count_metrics(layers: &mut BTreeMap<&'static str, f64>, c: &phylo::trace::TraceCounters) {
    layers.insert("phylo.likelihood.newview_calls", c.newview_calls as f64);
    layers.insert("phylo.likelihood.makenewz_calls", c.makenewz_calls as f64);
    layers.insert("phylo.likelihood.newton_iters", c.newton_iters as f64);
    layers.insert("phylo.likelihood.evaluate_calls", c.evaluate_calls as f64);
    layers.insert("phylo.likelihood.exp_calls", c.exp_calls as f64);
    layers.insert("phylo.likelihood.patterns_processed", c.patterns_processed as f64);
    layers.insert("phylo.likelihood.scalings", c.scalings as f64);
}

fn layer_metrics(
    layers: &mut BTreeMap<&'static str, f64>,
    pool: &[Input],
    done: &[Done<Searched>],
    spans: &Spans,
) {
    // Exact per seed: taken over the operations that always run.
    let floor: Vec<&Done<Searched>> = done.iter().filter(|d| d.index < FLOOR).collect();
    let mean = |f: &dyn Fn(&SearchResult) -> f64| {
        floor.iter().map(|d| f(&d.plain.result)).sum::<f64>() / floor.len().max(1) as f64
    };
    let mut counters = phylo::trace::Trace::counters_only();
    let mut reuse = ReuseStats::default();
    for d in &floor {
        counters.merge(&d.plain.result.trace);
        if let Some(replayed) = &d.traced {
            reuse.partials_reused += replayed.reuse.partials_reused;
            reuse.partials_recomputed += replayed.reuse.partials_recomputed;
        }
    }
    count_metrics(layers, counters.counters());
    layers.insert("phylo.likelihood.partials_reused", reuse.partials_reused as f64);
    layers.insert("phylo.likelihood.partials_recomputed", reuse.partials_recomputed as f64);
    layers.insert("lnl_mean", mean(&|r| r.log_likelihood));
    layers.insert("phylo.search.rounds", mean(&|r| r.rounds as f64));
    layers.insert("phylo.search.moves_applied", mean(&|r| r.moves_applied as f64));
    let first = &done[0];
    let aln = &pool[first.index].aln;
    layers.insert("phylo.alignment.patterns", aln.n_patterns() as f64);

    let patterns: u64 =
        done.iter().map(|d| d.plain.result.trace.counters().patterns_processed).sum();
    let replay_s: f64 = spans.durations_s("phylo.search").iter().sum();
    layers.insert("phylo.likelihood.mpatterns_per_s", patterns as f64 / replay_s / 1e6);

    let stepwise = median_or_zero(&spans.durations_s("phylo.search.parsimony.stepwise"));
    let whole = median_or_zero(&spans.durations_s("phylo.search"));
    layers.insert("phylo.search.parsimony.stepwise_s", stepwise);
    layers.insert("phylo.search.parsimony.share_pct", 100.0 * stepwise / whole);
    layers.insert(
        "phylo.search.init_opt_s",
        median_or_zero(&spans.durations_s("phylo.search.init_opt")),
    );
    layers.insert(
        "phylo.search.spr_round_s",
        median_or_zero(&spans.durations_s("phylo.search.spr_round")),
    );
    layers.insert(
        "phylo.search.final_polish_s",
        median_or_zero(&spans.durations_s("phylo.search.final_polish")),
    );

    // Kernel rates on the first operation's final tree.
    let first = &first.plain.result;
    let rates = GammaRates::new(first.alpha, 4).expect("optimised alpha");
    let mut engine =
        LikelihoodEngine::new(aln, first.model.clone(), rates, LikelihoodConfig::optimized());
    let traversals: Vec<f64> = (0..5)
        .map(|_| {
            engine.invalidate_all();
            let t = Instant::now();
            black_box(engine.log_likelihood(&first.tree));
            t.elapsed().as_secs_f64()
        })
        .collect();
    let mut scratch = first.tree.clone();
    let t = Instant::now();
    black_box(engine.optimize_all_branches(&mut scratch, 1));
    let branch_opt_s = t.elapsed().as_secs_f64();
    rate_metrics(layers, aln, &first.tree, median(&traversals), branch_opt_s);

    // The transition-matrix cost under both exponentials (2.7 M exp calls
    // per aln42 search go through it).
    for (name, exp) in [
        ("phylo.model.pmatrix_ns_sdk", ExpImpl::Sdk),
        ("phylo.model.pmatrix_ns_libm", ExpImpl::Libm),
    ] {
        const CALLS: usize = 200_000;
        let t = Instant::now();
        for k in 0..CALLS {
            let len = black_box(0.01 + (k % 64) as f64 * 1e-3);
            black_box(first.model.transition_matrix(len, 1.0, exp));
        }
        layers.insert(name, t.elapsed().as_secs_f64() * 1e9 / CALLS as f64);
    }
}
