//! Steady-state zero-allocation guarantee for the likelihood hot path.
//!
//! The workspace-arena redesign promises that after warm-up, the complete
//! `newview` → `evaluate` → `makenewz` cycle — traversal compilation, fused
//! kernel execution, sum-table construction, Newton iteration and partial
//! invalidation — touches the heap zero times, and so do a whole smoothing
//! pass (its depth-first branch order is built into a workspace buffer), a
//! whole in-place NNI round and a whole steady-state SPR round built on it.
//! This test wraps the system allocator in a counting shim and asserts
//! exactly that.
//!
//! It is the only test in this file on purpose: a `#[global_allocator]`
//! counts every allocation in the process, and a concurrently running test
//! would perturb the counters.

mod common;

use common::{heap_counters, CountingAllocator};
use std::hint::black_box;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

#[test]
fn steady_state_hot_path_does_not_touch_the_heap() {
    use phylo::likelihood::engine::LikelihoodEngine;
    use phylo::likelihood::{LikelihoodConfig, WorkspaceOptions};
    use phylo::model::{GammaRates, SubstModel};
    use phylo::simulate::SimulationConfig;
    use phylo::tree::Tree;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let w = SimulationConfig::new(12, 600, 41).generate();
    let model = SubstModel::gtr(w.alignment.base_frequencies(), [1.0; 6]).unwrap();
    let rates = GammaRates::standard(0.8).unwrap();
    // Sequential dispatch: loop-level parallelism hands stripes to threads,
    // whose bookkeeping is outside the zero-allocation contract.
    let config = LikelihoodConfig { parallel: false, ..LikelihoodConfig::optimized() };
    let mut engine = LikelihoodEngine::with_options(
        &w.alignment,
        model,
        rates,
        config,
        WorkspaceOptions::default(),
    );

    let mut rng = StdRng::seed_from_u64(9);
    let mut tree = Tree::random(12, 0.15, &mut rng).unwrap();
    // `tree.edges()` allocates; collect outside the measured region (and
    // refresh after warm-up — its NNI round can rearrange the topology).
    // The NNI round reuses a caller-owned edge buffer the same way.
    let mut edges = tree.edges();
    let mut nni_scratch: Vec<phylo::tree::Edge> = Vec::new();

    // One full cycle of everything the search's inner loop does, including
    // a smoothing pass and a whole in-place NNI round (apply, score, revert,
    // targeted cache invalidation — no tree clones, no cache rebuild).
    let cycle = |engine: &mut LikelihoodEngine<'_>,
                 tree: &mut Tree,
                 edges: &[(usize, usize)],
                 scratch: &mut Vec<_>|
     -> f64 {
        engine.invalidate_all();
        let mut acc = 0.0;
        for &edge in edges {
            acc += engine.log_likelihood_at(tree, edge);
        }
        for &edge in edges {
            let (_, lnl) = engine.optimize_branch_with_iters(tree, edge, 4);
            acc += lnl;
        }
        acc += engine.optimize_all_branches(tree, 1);
        acc +=
            phylo::search::nni::nni_round_with_scratch(engine, tree, 1e-4, scratch).log_likelihood;
        acc
    };

    // Warm-up: every arena reaches its steady-state capacity here.
    let warm = cycle(&mut engine, &mut tree, &edges.clone(), &mut nni_scratch);
    assert!(warm.is_finite());
    tree.edges_into(&mut edges);

    let before = heap_counters();
    let measured = cycle(&mut engine, &mut tree, &edges, &mut nni_scratch);
    let after = heap_counters();
    black_box(measured);

    assert!(measured.is_finite());
    assert_eq!(
        (after.0 - before.0, after.1 - before.1, after.2 - before.2),
        (0, 0, 0),
        "steady-state newview/evaluate/makenewz cycle must not allocate: \
         +{} allocs, +{} deallocs, +{} reallocs over {} branches",
        after.0 - before.0,
        after.1 - before.1,
        after.2 - before.2,
        edges.len(),
    );

    // A steady-state SPR round: prune, topological target scan, lazy
    // scoring of every regraft, exact restore — all out of workspace-owned
    // scratch. Warm up by climbing until a round applies nothing; the next
    // round then scores the same candidates on the same tree. (An *applied*
    // move is allocation-free too in release builds; debug builds validate
    // the rearranged tree, which allocates.)
    let spr = |engine: &mut LikelihoodEngine<'_>, tree: &mut Tree| {
        phylo::search::spr::spr_round(engine, tree, 5, 1e-4)
    };
    let converged = (0..10).any(|_| spr(&mut engine, &mut tree).applied == 0);
    assert!(converged, "the warm-up climb must reach a round that applies nothing");

    let before = heap_counters();
    let round = spr(&mut engine, &mut tree);
    let after = heap_counters();
    black_box(round);

    assert!(round.evaluated > 100, "the measured round must score candidates: {round:?}");
    assert_eq!(round.applied, 0);
    assert_eq!(
        (after.0 - before.0, after.1 - before.1, after.2 - before.2),
        (0, 0, 0),
        "a steady-state SPR round must not allocate: +{} allocs, +{} deallocs, \
         +{} reallocs over {} candidates",
        after.0 - before.0,
        after.1 - before.1,
        after.2 - before.2,
        round.evaluated,
    );

    // Sanity: the counting allocator is actually live.
    let probe_before = heap_counters();
    black_box(vec![0u8; 1024]);
    let probe_after = heap_counters();
    assert!(probe_after.0 > probe_before.0, "counting allocator must observe allocations");
}
