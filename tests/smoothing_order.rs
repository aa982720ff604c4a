//! Branch smoothing sweeps the tree depth-first. Nothing here compares the
//! engine with itself at an earlier commit: the checks are that a pass never
//! lowers the likelihood, that the sweep order does not change where
//! smoothing converges — the old node-id order is written out below and
//! iterated to the same optimum — and that a pass costs three `newview` per
//! inner node however deep the tree is.

use phylo::alignment::PatternAlignment;
use phylo::likelihood::engine::LikelihoodEngine;
use phylo::likelihood::LikelihoodConfig;
use phylo::model::{GammaRates, SubstModel};
use phylo::simulate::SimulationConfig;
use phylo::tree::{NodeId, Tree};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Smoothing passes allowed to reach a fixed point.
const MAX_PASSES: usize = 400;

fn engine(aln: &PatternAlignment) -> LikelihoodEngine<'_> {
    let model = SubstModel::gtr(aln.base_frequencies(), [1.0; 6]).unwrap();
    LikelihoodEngine::new(
        aln,
        model,
        GammaRates::standard(0.7).unwrap(),
        LikelihoodConfig::optimized(),
    )
}

/// A tree whose inner nodes form one path: tips 0 and 1 on the first inner
/// node, one tip on each of the others, two on the last.
fn caterpillar(n_taxa: usize, branch: f64) -> Tree {
    let inner = |i: usize| n_taxa + i;
    let last = n_taxa - 3;
    let mut edges = vec![(0, inner(0), branch), (1, inner(0), branch)];
    for i in 0..last {
        edges.push((inner(i), inner(i + 1), branch));
        edges.push((i + 2, inner(i + 1), branch));
    }
    edges.push((n_taxa - 1, inner(last), branch));
    Tree::from_edges(n_taxa, &edges).unwrap()
}

/// Branches on the longest path from the tip the sweep starts at.
fn depth(tree: &Tree) -> u64 {
    let (root, _) = tree.first_edge();
    let mut deepest = 0;
    let mut stack: Vec<(NodeId, NodeId, u64)> = vec![(root, root, 0)];
    while let Some((node, parent, d)) = stack.pop() {
        deepest = deepest.max(d);
        stack.extend(
            tree.neighbors_of(node).filter(|&(n, _)| n != parent).map(|(n, _)| (n, node, d + 1)),
        );
    }
    deepest
}

/// One pass in the order smoothing used before it went depth-first.
fn node_id_pass(engine: &mut LikelihoodEngine<'_>, tree: &mut Tree) -> f64 {
    for e in tree.edges() {
        engine.optimize_branch(tree, e);
    }
    engine.log_likelihood(tree)
}

/// Iterate `pass` until the likelihood stops moving in its last bits.
fn converge(
    engine: &mut LikelihoodEngine<'_>,
    tree: &mut Tree,
    pass: impl Fn(&mut LikelihoodEngine<'_>, &mut Tree) -> f64,
) -> f64 {
    let mut lnl = engine.log_likelihood(tree);
    for _ in 0..MAX_PASSES {
        let next = pass(engine, tree);
        let settled = (next - lnl).abs() <= 1e-13 * lnl.abs();
        lnl = next;
        if settled {
            return lnl;
        }
    }
    panic!("smoothing did not settle in {MAX_PASSES} passes (lnL {lnl})");
}

/// Both orders start from the branch lengths the data evolved on, which lie
/// in the basin of one optimum. From a far start (every branch 0.05) the
/// 500-taxon case has two coordinate-wise fixed points 0.23 lnL apart — one
/// branch pinned at the minimum length in the first and 0.024 long in the
/// second, its neighbour 0.088 and 0.059 — and the two orders settle on
/// different ones: coordinate ascent promises a fixed point, not which.
fn check(name: &str, start: Tree, seed: u64) {
    let n_taxa = start.n_taxa();
    let sim =
        SimulationConfig { tree: Some(start.clone()), ..SimulationConfig::new(n_taxa, 240, seed) }
            .generate();
    let aln = &sim.alignment;

    // (a) and (c): pass by pass on a warm engine.
    let mut eng = engine(aln);
    let mut tree = start.clone();
    let mut lnl = eng.log_likelihood(&tree);
    let per_inner = 3 * (n_taxa as u64 - 2);
    let bound = per_inner + depth(&tree);
    for pass in 0..4 {
        let before = eng.trace().counters().newview_calls;
        let next = eng.optimize_all_branches(&mut tree, 1);
        let newviews = eng.trace().counters().newview_calls - before;
        assert!(next >= lnl - 1e-9 * lnl.abs(), "{name}: pass {pass} lowered lnL {lnl} -> {next}");
        assert!(newviews <= bound, "{name}: pass {pass} took {newviews} newview, bound {bound}");
        // Each pass ends where it began, oriented toward the first edge, so
        // every one costs exactly toward-each-child plus back-to-parent.
        assert_eq!(newviews, per_inner, "{name}: pass {pass}");
        lnl = next;
    }

    // (b): both orders are coordinate ascent on the same function. A node-id
    // pass takes some sixteen `newview` per branch and settling takes sixty
    // passes, which on the 200- and 500-taxon trees is one to ten minutes of
    // unoptimised code: `scripts/ci.sh` runs those in a release build.
    if cfg!(debug_assertions) && n_taxa > 100 {
        return;
    }
    let tree_order = converge(&mut eng, &mut tree, |e, t| e.optimize_all_branches(t, 1));
    let mut eng_id = engine(aln);
    let mut tree_id = start;
    let node_id_order = converge(&mut eng_id, &mut tree_id, node_id_pass);
    assert!(
        (tree_order - node_id_order).abs() <= 1e-8 * node_id_order.abs(),
        "{name}: converged lnL {tree_order} (tree order) vs {node_id_order} (node-id order)"
    );
    for (a, b) in tree.edges() {
        let (x, y) = (tree.branch_length(a, b), tree_id.branch_length(a, b));
        assert!((x - y).abs() <= 1e-5, "{name}: branch ({a}, {b}) {x} vs {y}");
    }
}

#[test]
fn random_30_taxa() {
    check("random 30", Tree::random(30, 0.08, &mut StdRng::seed_from_u64(30)).unwrap(), 1);
}

#[test]
fn random_200_taxa() {
    check("random 200", Tree::random(200, 0.08, &mut StdRng::seed_from_u64(200)).unwrap(), 2);
}

#[test]
fn random_500_taxa() {
    check("random 500", Tree::random(500, 0.08, &mut StdRng::seed_from_u64(500)).unwrap(), 3);
}

/// Depth n − 2: the shape on which re-orienting lazily from a fixed root
/// per branch, instead of walking the tree, costs O(n) `newview` per branch.
#[test]
fn caterpillar_200_taxa() {
    check("caterpillar 200", caterpillar(200, 0.08), 4);
}
