//! Lazy SPR (subtree pruning and regrafting) hill climbing — the core of
//! RAxML's rapid hill climbing search (paper §3): subtrees are pruned and
//! re-inserted at all branches within a rearrangement radius; improving
//! moves are applied immediately.
//!
//! "Lazy" is doing real work here, exactly as in RAxML: partial-likelihood
//! vectors are kept valid across candidate insertions through careful
//! orientation bookkeeping, and a pruned subtree's regraft targets are
//! scored in depth-first order outward from where it was cut, so that
//! consecutive insertions are neighbours in the tree. Scoring one candidate
//! then costs the virtual junction's `newview`, one more to turn the
//! partial above the insertion branch to face it, the occasional
//! re-orientation when the scan climbs back to a sibling, and **one** short
//! `makenewz` (a couple of Newton steps on the insertion branch) — measured
//! 2.6 `newview` per candidate at 12 taxa / radius 4 and at 42 taxa /
//! radius 10 alike, not a full tree traversal. This is what gives RAxML its
//! ~2–3 `newview` calls per `makenewz` trace profile that the Cell port's
//! communication analysis (§5.2.6) relies on.
//!
//! The scan order is free to follow the cache because a candidate's score
//! is a function of the tree alone; the winner is then named by a rule that
//! does not mention the order — highest log-likelihood, ties to the
//! smallest edge — so every order applies the same moves to the bit.

use crate::likelihood::engine::LikelihoodEngine;
use crate::likelihood::workspace::SprScratch;
use crate::tree::{edge, Edge, NodeId, Tree};

/// Outcome of one SPR improvement round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SprRoundStats {
    /// Moves applied this round.
    pub applied: usize,
    /// Candidate regrafts evaluated.
    pub evaluated: usize,
    /// Log-likelihood after the round.
    pub log_likelihood: f64,
}

/// Split the edge `(x, y)` with junction `v` (regraft bookkeeping): partials
/// whose subtree contains the edge become stale; `x`/`y` partials pointing
/// at each other become partials pointing at `v`.
fn note_split(engine: &mut LikelihoodEngine<'_>, x: NodeId, y: NodeId, v: NodeId) {
    engine.invalidate_for_branch(x, y);
    engine.remap_orientation(x, y, v);
    engine.remap_orientation(y, x, v);
    engine.clear_orientation(v);
}

/// Merge `(x, v, y)` back into the edge `(x, y)` (prune bookkeeping): the
/// junction's partial dies; `x`/`y` partials pointing at `v` now point at
/// each other. Anything that contained the region was already stale.
fn note_merge(engine: &mut LikelihoodEngine<'_>, x: NodeId, y: NodeId, v: NodeId) {
    engine.clear_orientation(v);
    engine.remap_orientation(x, v, y);
    engine.remap_orientation(y, v, x);
}

/// Enumerate the regraft targets of a subtree pruned from the merged edge
/// `(ma, mb)`: every branch whose far endpoint lies within `radius` hops of
/// `ma` or of `mb`, the merged edge itself (the identity move) excluded — in
/// depth-first pre-order outward from the merged edge, first the `ma` side,
/// then the `mb` side, neighbours in slot order. Consecutive targets are
/// therefore adjacent (or a short climb apart), which is what lets the
/// engine's one-partial-per-node cache follow the scan one re-orientation
/// at a time.
fn collect_targets(
    tree: &Tree,
    ma: NodeId,
    mb: NodeId,
    radius: usize,
    targets: &mut Vec<(Edge, f64)>,
    dfs: &mut Vec<(NodeId, NodeId, usize)>,
) {
    // Children of `node` away from `except`, pushed so the first slot pops
    // first. Tips have none.
    fn push_children(
        tree: &Tree,
        dfs: &mut Vec<(NodeId, NodeId, usize)>,
        node: NodeId,
        except: NodeId,
        depth: usize,
    ) {
        if !tree.is_tip(node) {
            let [(a, _), (b, _)] = tree.other_neighbors(node, except);
            dfs.push((b, node, depth));
            dfs.push((a, node, depth));
        }
    }

    targets.clear();
    if radius == 0 {
        return;
    }
    for (from, across) in [(ma, mb), (mb, ma)] {
        dfs.clear();
        push_children(tree, dfs, from, across, 1);
        while let Some((node, parent, depth)) = dfs.pop() {
            targets.push((edge(parent, node), f64::NEG_INFINITY));
            if depth < radius {
                push_children(tree, dfs, node, parent, depth + 1);
            }
        }
    }
}

/// The regraft a pruned subtree would take: the highest log-likelihood,
/// ties to the smallest [`Edge`]. The rule names its winner independently
/// of the order the targets were scored in.
fn select_winner(scored: &[(Edge, f64)]) -> Option<(f64, Edge)> {
    let mut best: Option<(f64, Edge)> = None;
    for &(target, lnl) in scored {
        if best.is_none_or(|(b, e)| lnl > b || (lnl == b && target < e)) {
            best = Some((lnl, target));
        }
    }
    best
}

/// One full SPR round: every prunable subtree is tried against every target
/// branch within `radius` of its original location; a move is kept when it
/// improves the log-likelihood by more than `epsilon`. Returns round stats.
pub fn spr_round(
    engine: &mut LikelihoodEngine<'_>,
    tree: &mut Tree,
    radius: usize,
    epsilon: f64,
) -> SprRoundStats {
    let mut current = engine.log_likelihood(tree);
    let mut applied = 0;
    let mut evaluated = 0;
    // Borrowed from the workspace for the round (a move, not an allocation).
    let mut scratch = std::mem::take(engine.spr_scratch_mut());

    // Enumerate prunable (subtree root, junction) pairs up front — every
    // branch, both directions; the tree changes as moves are applied, so
    // re-check adjacency before each prune.
    let SprScratch { candidates, targets, dfs } = &mut scratch;
    tree.edges_into(candidates);
    for (s, v) in candidates.iter().flat_map(|&(a, b)| [(a, b), (b, a)]) {
        // The junction must (still) be an inner node adjacent to s.
        if !tree.adjacent(s, v) || tree.is_tip(v) {
            continue;
        }
        // Keep at least a quartet on the remaining tree: it holds fewer
        // than three taxa exactly when both other branches at the junction
        // end in tips.
        let [(n1, _), (n2, _)] = tree.other_neighbors(v, s);
        if tree.is_tip(n1) && tree.is_tip(n2) {
            continue;
        }

        let pruned = match tree.prune(s, v) {
            Ok(p) => p,
            Err(_) => continue,
        };
        let (ma, mb) = pruned.merged_edge;
        note_merge(engine, ma, mb, v);
        engine.invalidate_for_branch(ma, mb);

        // Score every target in topological scan order. A score depends on
        // the tree alone, never on what the cache happened to hold, so the
        // order is free to follow the cache.
        collect_targets(tree, ma, mb, radius, targets, dfs);
        for slot in targets.iter_mut() {
            let target = slot.0;
            let (x, y) = target;
            let old_len = tree.branch_length(x, y);
            note_split(engine, x, y, pruned.junction);
            if tree.regraft(&pruned, target).is_err() {
                // Roll the bookkeeping back; the edge still exists.
                note_merge(engine, x, y, pruned.junction);
                continue;
            }
            // Lazy scoring, RAxML-style: one junction newview inside the
            // makenewz preparation plus a couple of Newton steps; the
            // sum table reports the likelihood for free.
            let (_, lnl) =
                engine.optimize_branch_with_iters(tree, (pruned.junction, pruned.root), 2);
            evaluated += 1;
            slot.1 = lnl;
            // Undo: prune again and restore the target edge length exactly.
            // (The insertion-branch length tweaked by the lazy Newton is
            // discarded with the prune; regrafting always reuses the
            // original prune length.)
            tree.prune(pruned.root, pruned.junction).expect("undoing a regraft always succeeds");
            note_merge(engine, x, y, pruned.junction);
            tree.set_branch_length(x, y, old_len);
        }

        match select_winner(targets) {
            Some((lnl, target)) if lnl > current + epsilon => {
                let (x, y) = target;
                note_split(engine, x, y, pruned.junction);
                tree.regraft(&pruned, target).expect("best target is still a valid edge");
                // Lazy local optimization of the three branches the move
                // created (RAxML's lazy SPR refinement).
                let v_node = pruned.junction;
                let mut locals = [edge(v_node, v_node); 3];
                for (local, (n, _)) in locals.iter_mut().zip(tree.neighbors_of(v_node)) {
                    *local = edge(v_node, n);
                }
                for e in locals {
                    engine.optimize_branch(tree, e);
                }
                current = engine.log_likelihood(tree);
                applied += 1;
                // Validated where the topology changed; putting a subtree
                // back (below) restores slots and lengths exactly, and an
                // allocating walk there would sit in every scan iteration.
                debug_assert!(tree.validate().is_ok());
            }
            _ => {
                // Put the subtree back exactly where it was.
                note_split(engine, ma, mb, pruned.junction);
                tree.undo_prune(&pruned).expect("undo information is consistent");
            }
        }
    }

    *engine.spr_scratch_mut() = scratch;
    SprRoundStats { applied, evaluated, log_likelihood: current }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alignment::PatternAlignment;
    use crate::bipartitions::robinson_foulds;
    use crate::likelihood::LikelihoodConfig;
    use crate::model::{GammaRates, SubstModel};
    use crate::simulate::SimulationConfig;
    use crate::tree::Tree;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn engine(aln: &PatternAlignment) -> LikelihoodEngine<'_> {
        LikelihoodEngine::new(
            aln,
            SubstModel::gtr(aln.base_frequencies(), [1.0; 6]).unwrap(),
            GammaRates::standard(0.8).unwrap(),
            LikelihoodConfig::optimized(),
        )
    }

    #[test]
    fn spr_round_never_decreases_likelihood() {
        let w = SimulationConfig::new(8, 300, 31).generate();
        let mut rng = StdRng::seed_from_u64(8);
        let mut tree = Tree::random(8, 0.1, &mut rng).unwrap();
        let mut eng = engine(&w.alignment);
        let before = eng.optimize_all_branches(&mut tree, 2);
        let stats = spr_round(&mut eng, &mut tree, 5, 1e-4);
        assert!(stats.log_likelihood >= before - 1e-6, "{before} -> {}", stats.log_likelihood);
        assert!(stats.evaluated > 0);
        tree.validate().unwrap();
    }

    /// The lazy orientation bookkeeping must leave the engine's caches in a
    /// state indistinguishable from a cold start: after a round, a fresh
    /// engine must assign the same likelihood to the same tree.
    #[test]
    fn lazy_bookkeeping_is_exact() {
        for seed in [3u64, 5, 9, 13] {
            let w = SimulationConfig::new(9, 250, seed).generate();
            let mut rng = StdRng::seed_from_u64(seed);
            let mut tree = Tree::random(9, 0.1, &mut rng).unwrap();
            let mut eng = engine(&w.alignment);
            eng.optimize_all_branches(&mut tree, 1);
            let stats = spr_round(&mut eng, &mut tree, 4, 1e-4);
            // Warm engine (incremental caches) vs cold engine (full
            // recompute) on the identical final tree.
            let warm = eng.log_likelihood(&tree);
            let mut cold = engine(&w.alignment);
            let reference = cold.log_likelihood(&tree);
            assert!(
                (warm - reference).abs() < 1e-8,
                "seed {seed}: warm {warm} vs cold {reference} (round lnl {})",
                stats.log_likelihood
            );
        }
    }

    /// `newview` calls per scored candidate over one round in which nothing
    /// is applied (epsilon too large), from a branch-optimized start.
    fn newviews_per_candidate(aln: &PatternAlignment, mut tree: Tree, radius: usize) -> f64 {
        let mut eng = engine(aln);
        eng.optimize_all_branches(&mut tree, 2);
        let nv_before = eng.trace().counters().newview_calls;
        let stats = spr_round(&mut eng, &mut tree, radius, 1e9);
        let nv_after = eng.trace().counters().newview_calls;
        assert!(stats.evaluated > 0);
        (nv_after - nv_before) as f64 / stats.evaluated as f64
    }

    /// Candidate scoring must be cheap: a few newviews per candidate, not a
    /// full traversal (this is what makes the SPR "lazy"). Measured: 2.64
    /// and 2.62; scoring the same targets in edge-id order cost 3.67 and
    /// 6.31, so the bound also fails a scan that stops following the tree.
    #[test]
    fn candidate_scoring_is_lazy() {
        let w = SimulationConfig::new(12, 400, 21).generate();
        let tree = Tree::random(12, 0.1, &mut StdRng::seed_from_u64(4)).unwrap();
        let small = newviews_per_candidate(&w.alignment, tree, 4);
        assert!(small < 3.0, "12 taxa, radius 4: {small:.2} newviews per candidate");

        let w = SimulationConfig::aln42().generate();
        let tree = Tree::random(42, 0.1, &mut StdRng::seed_from_u64(4)).unwrap();
        let paper = newviews_per_candidate(&w.alignment, tree, 10);
        assert!(paper < 3.0, "42 taxa, radius 10: {paper:.2} newviews per candidate");
    }

    /// Two targets whose scores are equal to the bit: the smaller edge wins,
    /// whichever was scored first; a strictly better score beats both.
    #[test]
    fn ties_go_to_the_smallest_edge() {
        let x = -1234.5678_f64;
        let (lo, hi) = (edge(2, 7), edge(4, 9));
        assert_eq!(select_winner(&[(hi, x), (lo, x)]), Some((x, lo)));
        assert_eq!(select_winner(&[(lo, x), (hi, x)]), Some((x, lo)));
        assert_eq!(select_winner(&[(lo, x), (hi, x + 1e-9)]), Some((x + 1e-9, hi)));
        assert_eq!(select_winner(&[(hi, x + 1e-9), (lo, x)]), Some((x + 1e-9, hi)));
        assert_eq!(select_winner(&[]), None);
    }

    /// The topological scan visits exactly the branches the breadth-first
    /// enumeration it replaced produced — each once, parents before the
    /// branches behind them.
    #[test]
    fn scan_order_covers_the_radius_neighbourhood_once() {
        let mut rng = StdRng::seed_from_u64(77);
        let (mut targets, mut dfs) = (Vec::new(), Vec::new());
        for n_taxa in [5usize, 9, 16, 30] {
            let mut tree = Tree::random(n_taxa, 0.1, &mut rng).unwrap();
            for (s, v) in tree.edges().into_iter().flat_map(|(a, b)| [(a, b), (b, a)]) {
                if tree.is_tip(v) {
                    continue;
                }
                let pruned = tree.prune(s, v).unwrap();
                let (ma, mb) = pruned.merged_edge;
                for radius in [0usize, 1, 2, 5, 40] {
                    let mut want = tree.edges_within_radius(ma, radius, &[]);
                    want.extend(tree.edges_within_radius(mb, radius, &[]));
                    want.sort_unstable();
                    want.dedup();
                    want.retain(|&t| t != edge(ma, mb));

                    collect_targets(&tree, ma, mb, radius, &mut targets, &mut dfs);
                    let scan: Vec<Edge> = targets.iter().map(|&(t, _)| t).collect();
                    let mut got = scan.clone();
                    got.sort_unstable();
                    assert_eq!(got, want, "{n_taxa} taxa, prune ({s}, {v}), radius {radius}");
                    // Pre-order: every target hangs off the merged edge or
                    // off a target already listed.
                    for (i, &(a, b)) in scan.iter().enumerate() {
                        let anchored = |n: NodeId| {
                            n == ma || n == mb || scan[..i].iter().any(|&(c, d)| c == n || d == n)
                        };
                        assert!(anchored(a) || anchored(b), "target {i} of {scan:?} floats");
                    }
                }
                tree.undo_prune(&pruned).unwrap();
            }
        }
    }

    #[test]
    fn spr_matches_or_beats_the_true_tree_from_a_random_start() {
        // The ML tree on finite data need not equal the generating topology,
        // but a correct hill climb from a random start must reach at least
        // the (branch-optimized) true tree's likelihood and land close to it
        // topologically.
        let w =
            SimulationConfig { mean_branch: 0.12, ..SimulationConfig::new(7, 2000, 19) }.generate();
        let mut true_tree = w.true_tree.clone();
        let mut eng = engine(&w.alignment);
        let true_lnl = eng.optimize_all_branches(&mut true_tree, 4);

        let mut rng = StdRng::seed_from_u64(3);
        let mut tree = Tree::random(7, 0.1, &mut rng).unwrap();
        let mut eng = engine(&w.alignment);
        eng.optimize_all_branches(&mut tree, 2);
        let mut lnl = f64::NEG_INFINITY;
        for _ in 0..6 {
            let stats = spr_round(&mut eng, &mut tree, 6, 1e-4);
            lnl = eng.optimize_all_branches(&mut tree, 1);
            if stats.applied == 0 {
                break;
            }
        }
        assert!(
            lnl >= true_lnl - 1e-3,
            "search must reach the truth's likelihood: {lnl} vs {true_lnl}"
        );
        assert!(
            robinson_foulds(&tree, &w.true_tree) <= 2,
            "found tree should be within one split of the truth"
        );
    }

    #[test]
    fn no_moves_on_an_already_optimal_tree() {
        let w =
            SimulationConfig { mean_branch: 0.15, ..SimulationConfig::new(6, 3000, 5) }.generate();
        let mut tree = w.true_tree.clone();
        let mut eng = engine(&w.alignment);
        eng.optimize_all_branches(&mut tree, 3);
        let stats = spr_round(&mut eng, &mut tree, 4, 1e-3);
        assert_eq!(
            stats.applied, 0,
            "the true tree on overwhelming data should be a local optimum"
        );
        assert_eq!(robinson_foulds(&tree, &w.true_tree), 0, "tree must be unchanged");
    }

    #[test]
    fn radius_zero_evaluates_nothing() {
        let w = SimulationConfig::new(6, 200, 2).generate();
        let mut rng = StdRng::seed_from_u64(1);
        let mut tree = Tree::random(6, 0.1, &mut rng).unwrap();
        let mut eng = engine(&w.alignment);
        let stats = spr_round(&mut eng, &mut tree, 0, 1e-4);
        assert_eq!(stats.evaluated, 0);
        assert_eq!(stats.applied, 0);
    }
}
