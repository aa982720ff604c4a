//! `score_wide`: from bytes to a scored, branch-optimised tree on an
//! alignment whose CLVs do not fit the last-level cache.
//!
//! One operation is the whole pipeline on PHYLIP bytes and Newick text
//! drawn from `--seed`: parse, compress, build the engine, first
//! log-likelihood, one branch-optimisation pass, then full traversals
//! sequentially and with loop-level parallelism. At 500 x 2000 the partial
//! vectors take 127 MB, so every traversal streams them from DRAM where
//! `search42` keeps them in cache.

use super::{derive, repeat_setup, timed_ops, Args, Checks, Outcome};
use crate::host;
use crate::spans::{SpanId, Spans, NO_PARENT};
use crate::stats::median_or_zero;
use phylo::alignment::PatternAlignment;
use phylo::io::{parse_newick, parse_phylip_reader, write_newick, write_phylip_to};
use phylo::likelihood::engine::LikelihoodEngine;
use phylo::likelihood::{LikelihoodConfig, WorkspaceOptions};
use phylo::model::{GammaRates, SubstModel};
use phylo::simulate::SimulationConfig;
use phylo::tree::Tree;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::hint::black_box;

/// Full traversals per mode per operation.
const TRAVERSALS: usize = 3;
const ALPHA: f64 = 0.7;
/// Mean branch length of `SimulationConfig::new`.
const MEAN_BRANCH: f64 = 0.08;

struct Input {
    phylip: Vec<u8>,
    newick: String,
}

/// The workload's one tree shape. The cost of a branch-optimisation pass
/// follows the topology (24.7 k to 31.5 k `newview` calls over eight random
/// 500-taxon trees, 2.4 to 2.9 s), and a window holds four operations, so
/// with a fresh topology per operation the median swung by 8 % between
/// seeds. The shape is therefore part of the workload, like its size; the
/// seed draws the branch lengths and the sequences.
fn topology(taxa: usize) -> Tree {
    Tree::random(taxa, MEAN_BRANCH, &mut StdRng::seed_from_u64(0x5C0_EE1DE)).expect(">= 3 taxa")
}

fn input(args: &Args, index: u64) -> Input {
    let (taxa, sites) = if args.smoke { (60, 400) } else { (500, 2000) };
    let mut tree = topology(taxa);
    let mut rng = StdRng::seed_from_u64(derive(args.seed, 1, index));
    for (a, b) in tree.edges() {
        // Exp(mean = MEAN_BRANCH), as `Tree::random` draws them.
        tree.set_branch_length(a, b, -MEAN_BRANCH * rng.gen::<f64>().max(1e-12).ln());
    }
    let config = SimulationConfig::new(taxa, sites, derive(args.seed, 0, index));
    let sim = SimulationConfig { tree: Some(tree), ..config }.generate();
    let mut phylip = Vec::new();
    write_phylip_to(&sim.raw, &mut phylip).expect("writing to memory");
    Input { phylip, newick: write_newick(&sim.true_tree, sim.raw.taxon_names()) }
}

/// What one pipeline run produced; two runs on the same bytes must agree.
struct Scored {
    aln: PatternAlignment,
    tree: Tree,
    model: SubstModel,
    first_lnl: f64,
    optimised_lnl: f64,
    sequential_lnl: f64,
    parallel_lnl: f64,
    counters: phylo::trace::TraceCounters,
}

fn pipeline(input: &Input, spans: &mut Spans, op: u64) -> Result<Scored, phylo::error::PhyloError> {
    let root = spans.begin("score_wide", NO_PARENT, op);
    let first = spans.begin("first_lnl", root, op);
    let raw = spans.time("phylo.io.phylip_parse", first, op, || {
        parse_phylip_reader(std::io::Cursor::new(&input.phylip))
    })?;
    let aln = spans.time("phylo.alignment.compress", first, op, || raw.try_compress())?;
    let mut tree = spans.time("phylo.io.newick_parse", first, op, || {
        parse_newick(&input.newick, aln.taxon_names())
    })?;
    let model = SubstModel::gtr(aln.base_frequencies(), [1.0; 6])?;
    let rates = GammaRates::new(ALPHA, 4)?;
    let mut engine = spans.time("phylo.likelihood.engine_build", first, op, || {
        LikelihoodEngine::new(&aln, model.clone(), rates.clone(), LikelihoodConfig::optimized())
    });
    let first_lnl =
        spans.time("phylo.likelihood.full_traversal", first, op, || engine.log_likelihood(&tree));
    spans.end(first);

    let optimised_lnl = spans.time("phylo.likelihood.branch_opt", root, op, || {
        engine.optimize_all_branches(&mut tree, 1)
    });
    let sequential_lnl =
        traversals(&mut engine, &tree, "phylo.parallel.traversal_seq", spans, root, op);
    let counters = *engine.trace().counters();
    // Same arena, loop-level parallelism on.
    let config = LikelihoodConfig { parallel: true, ..LikelihoodConfig::optimized() };
    let mut engine = LikelihoodEngine::with_workspace(
        &aln,
        model.clone(),
        rates,
        config,
        WorkspaceOptions::default(),
        engine.into_workspace(),
    );
    let parallel_lnl =
        traversals(&mut engine, &tree, "phylo.parallel.traversal_par", spans, root, op);
    drop(engine);
    spans.end(root);
    Ok(Scored {
        aln,
        tree,
        model,
        first_lnl,
        optimised_lnl,
        sequential_lnl,
        parallel_lnl,
        counters,
    })
}

fn traversals(
    engine: &mut LikelihoodEngine<'_>,
    tree: &Tree,
    name: &str,
    spans: &mut Spans,
    parent: SpanId,
    op: u64,
) -> f64 {
    let mut lnl = 0.0;
    for _ in 0..TRAVERSALS {
        engine.invalidate_all();
        lnl = spans.time(name, parent, op, || black_box(engine.log_likelihood(tree)));
    }
    lnl
}

pub fn run(args: &Args) -> Outcome {
    let mut checks = Checks::default();
    let mut spans = Spans::new(args.traced);
    let pool_size = args.pool_size(0.5);
    let (mut pool, setups_s) = repeat_setup(args.setup_repeats(), || {
        let pool: Vec<Input> = (0..pool_size as u64).map(|i| input(args, i)).collect();
        // Warm-up: the same pipeline on a small alignment, which also starts
        // the loop-level worker threads.
        let warm = input(&Args { smoke: true, ..args.clone() }, u64::MAX);
        black_box(pipeline(&warm, &mut Spans::new(false), 0).expect("warm-up pipeline").first_lnl);
        pool
    });

    let mut untraced = Spans::new(false);
    let timed = timed_ops(
        args,
        1,
        &mut checks,
        |i, under_spans| {
            if i == pool.len() {
                pool.push(input(args, i as u64));
            }
            let spans = if under_spans { &mut spans } else { &mut untraced };
            pipeline(&pool[i], spans, i as u64).map_err(|e| e.to_string())
        },
        |plain, traced| {
            plain.optimised_lnl.to_bits() == traced.optimised_lnl.to_bits()
                && plain.tree == traced.tree
        },
    );

    for done in &timed.done {
        let (i, scored) = (done.index, &done.plain);
        // Sequential and parallel reductions agree, and a fresh traversal
        // reproduces the value the optimiser reported.
        checks.close(scored.sequential_lnl, scored.parallel_lnl, 1e-9, &format!("op {i}: LLP lnL"));
        checks.close(
            scored.optimised_lnl,
            scored.sequential_lnl,
            1e-9,
            &format!("op {i}: re-traversal"),
        );
        checks.require(scored.first_lnl <= scored.optimised_lnl, || {
            format!("op {i}: branch optimisation lowered lnL")
        });
        checks.require(scored.tree.validate().is_ok(), || format!("op {i}: invalid tree"));
    }

    let mut layers = BTreeMap::new();
    if let Some(first) = timed.done.first() {
        let (input, scored) = (&pool[first.index], &first.plain);
        // compress -> expand gives back exactly what the parser read.
        let parsed =
            parse_phylip_reader(std::io::Cursor::new(&input.phylip)).expect("parsed before");
        checks.require(scored.aln.expand().is_ok_and(|back| back == parsed), || {
            "compress -> expand does not round-trip".to_string()
        });
        // Independent path: scalar kernel, libm exp.
        let rates = GammaRates::new(ALPHA, 4).expect("alpha");
        let mut baseline = LikelihoodEngine::new(
            &scored.aln,
            scored.model.clone(),
            rates,
            LikelihoodConfig::baseline(),
        );
        let rescored = baseline.log_likelihood(&scored.tree);
        checks.close(scored.optimised_lnl, rescored, 1e-6, "lnL re-score");
        if args.traced {
            layer_metrics(&mut layers, scored, input, &spans);
            // Patterns the sequential engine processed per second it ran.
            let patterns: u64 = timed
                .done
                .iter()
                .filter_map(|d| d.traced.as_ref())
                .map(|t| t.counters.patterns_processed)
                .sum();
            let kernel_s: f64 = [
                "phylo.likelihood.full_traversal",
                "phylo.likelihood.branch_opt",
                "phylo.parallel.traversal_seq",
            ]
            .iter()
            .flat_map(|name| spans.durations_s(name))
            .sum();
            layers.insert("phylo.likelihood.mpatterns_per_s", patterns as f64 / kernel_s / 1e6);
            timed.obs_layers(&mut layers, &spans, timed.done.len() as u64);
        }
    }
    let jobs = timed.done.len() as u64;
    timed.into_outcome(setups_s, jobs, checks, layers, spans)
}

fn layer_metrics(
    layers: &mut BTreeMap<&'static str, f64>,
    scored: &Scored,
    input: &Input,
    spans: &Spans,
) {
    let med = |name: &str| median_or_zero(&spans.durations_s(name));
    let parse_s = med("phylo.io.phylip_parse");
    let compress_s = med("phylo.alignment.compress");
    let chars = (scored.aln.n_taxa() * scored.aln.n_sites()) as f64;
    layers.insert("first_lnl_s", med("first_lnl"));
    layers.insert("phylo.io.phylip_parse_s", parse_s);
    layers.insert("phylo.io.phylip_mb_per_s", input.phylip.len() as f64 / 1e6 / parse_s);
    layers.insert("phylo.io.newick_parse_s", med("phylo.io.newick_parse"));
    layers.insert("phylo.alignment.compress_s", compress_s);
    layers.insert("phylo.alignment.compress_mchars_per_s", chars / 1e6 / compress_s);
    layers.insert("phylo.alignment.patterns", scored.aln.n_patterns() as f64);
    let seq = med("phylo.parallel.traversal_seq");
    let par = med("phylo.parallel.traversal_par");
    layers.insert("phylo.parallel.traversal_s_seq", seq);
    layers.insert("phylo.parallel.traversal_s_par", par);
    layers.insert("phylo.parallel.threads", host::nproc() as f64);
    layers.insert("llp_speedup", seq / par);
    super::search::count_metrics(layers, &scored.counters);
    super::search::rate_metrics(
        layers,
        &scored.aln,
        &scored.tree,
        seq,
        med("phylo.likelihood.branch_opt"),
    );
}
