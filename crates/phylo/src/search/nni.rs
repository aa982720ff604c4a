//! Nearest-neighbor-interchange hill climbing — the cheaper, smaller-radius
//! alternative to SPR. PHYML-style searches (cited by the paper as a RAxML
//! competitor) are NNI-based; RAxML uses NNIs implicitly as the radius-1
//! subset of its SPR moves. Provided as a standalone refinement pass and as
//! a baseline against which the SPR search can be compared.
//!
//! Like [`crate::search::spr`], candidate moves are applied and reverted
//! *in place* with targeted cache bookkeeping: an interchange across the
//! edge `(u, v)` only stales partials whose subtree spans that edge, so
//! everything strictly inside the four swapped subtrees stays cached. The
//! interchange itself is an involution ([`Tree::nni`] with the same
//! arguments undoes it exactly, slots and lengths included), which makes
//! the revert free of clones.

use crate::error::Result;
use crate::likelihood::engine::LikelihoodEngine;
use crate::tree::{Edge, NodeId, Tree};

/// Outcome of one NNI improvement round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NniRoundStats {
    /// Interchanges applied.
    pub applied: usize,
    /// Interchanges evaluated (2 per internal edge).
    pub evaluated: usize,
    /// Log-likelihood after the round.
    pub log_likelihood: f64,
}

/// Apply the interchange `swap` across the internal edge `(u, v)` with
/// exact cache bookkeeping, mirroring the SPR round's `note_split` /
/// `note_merge` scheme:
///
/// * partials whose subtree contains the edge go stale
///   ([`LikelihoodEngine::invalidate_for_branch`], pre-swap, while the
///   adjacency is still the old one);
/// * the moved subtree roots keep their partials — `a`'s partial "toward
///   `u`" summarizes the same subtree "toward `v`" after the swap (and
///   symmetrically for `c`), so they are remapped, not recomputed;
/// * `u` and `v` themselves change composition in every direction and are
///   dropped.
///
/// Calling this again with the same arguments reverts the interchange
/// (topology, slot order and branch lengths), because [`Tree::nni`] is an
/// involution and the orientation edits mirror themselves.
fn apply_nni(
    engine: &mut LikelihoodEngine<'_>,
    tree: &mut Tree,
    u: NodeId,
    v: NodeId,
    swap: usize,
) -> Result<()> {
    if tree.is_tip(u) || tree.is_tip(v) || !tree.adjacent(u, v) {
        // Delegate to Tree::nni for the typed error; nothing was touched.
        return tree.nni(u, v, swap);
    }
    let [(a, _), _] = tree.other_neighbors(u, v);
    let (c, _) = tree.other_neighbors(v, u)[swap.min(1)];
    engine.invalidate_for_branch(u, v);
    tree.nni(u, v, swap)?;
    engine.remap_orientation(a, u, v);
    engine.remap_orientation(c, v, u);
    engine.clear_orientation(u);
    engine.clear_orientation(v);
    Ok(())
}

/// One NNI round: for every internal edge, try both interchanges; keep an
/// interchange when it improves the log-likelihood by more than `epsilon`
/// (after re-optimizing the central branch).
pub fn nni_round(
    engine: &mut LikelihoodEngine<'_>,
    tree: &mut Tree,
    epsilon: f64,
) -> NniRoundStats {
    let mut scratch = Vec::new();
    nni_round_with_scratch(engine, tree, epsilon, &mut scratch)
}

/// [`nni_round`] with a caller-owned edge buffer: once the buffer and the
/// engine workspace have warmed up, a round allocates nothing — candidates
/// are applied and reverted in place instead of cloning the tree.
pub fn nni_round_with_scratch(
    engine: &mut LikelihoodEngine<'_>,
    tree: &mut Tree,
    epsilon: f64,
    edges_scratch: &mut Vec<Edge>,
) -> NniRoundStats {
    let mut current = engine.log_likelihood(tree);
    let mut applied = 0;
    let mut evaluated = 0;

    tree.edges_into(edges_scratch);
    for i in 0..edges_scratch.len() {
        let (u, v) = edges_scratch[i];
        // An earlier interchange may have rearranged this region; only
        // still-existing internal edges are eligible.
        if tree.is_tip(u) || tree.is_tip(v) || !tree.adjacent(u, v) {
            continue;
        }
        let original_len = tree.branch_length(u, v);
        // (log-likelihood, swap index, optimized central branch length).
        let mut best: Option<(f64, usize, f64)> = None;
        for swap in 0..2 {
            if apply_nni(engine, tree, u, v, swap).is_err() {
                continue;
            }
            let (len, lnl) = engine.optimize_branch_with_iters(tree, (u, v), 4);
            evaluated += 1;
            // Revert: same interchange again (involution), then restore the
            // central branch length the lazy Newton adjusted. Everything
            // spanning the edge was already invalidated by the revert.
            apply_nni(engine, tree, u, v, swap).expect("NNI revert is the same interchange");
            tree.set_branch_length(u, v, original_len);
            if lnl > current + epsilon && best.is_none_or(|(b, _, _)| lnl > b) {
                best = Some((lnl, swap, len));
            }
        }
        if let Some((lnl, swap, len)) = best {
            apply_nni(engine, tree, u, v, swap).expect("winning interchange still applies");
            // Newton is deterministic, so installing the length it found
            // during scoring reproduces the scored state exactly without a
            // second optimization pass.
            tree.set_branch_length(u, v, len);
            current = lnl;
            applied += 1;
        }
    }
    // Leave the caches consistent with the final tree and report its exact
    // likelihood.
    current = engine.log_likelihood(tree);
    NniRoundStats { applied, evaluated, log_likelihood: current }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::likelihood::LikelihoodConfig;
    use crate::model::{GammaRates, SubstModel};
    use crate::search::spr::spr_round;
    use crate::simulate::SimulationConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn engine(aln: &crate::alignment::PatternAlignment) -> LikelihoodEngine<'_> {
        LikelihoodEngine::new(
            aln,
            SubstModel::gtr(aln.base_frequencies(), [1.0; 6]).unwrap(),
            GammaRates::standard(0.8).unwrap(),
            LikelihoodConfig::optimized(),
        )
    }

    /// The previous implementation of `nni_round`, kept verbatim as the
    /// behavioral reference: every candidate is scored on a full clone of
    /// the tree and the engine cache is flushed wholesale around each
    /// evaluation. Numerically this is the ground truth the incremental
    /// version must reproduce bit-for-bit.
    fn nni_round_clone_and_flush(
        engine: &mut LikelihoodEngine<'_>,
        tree: &mut Tree,
        epsilon: f64,
    ) -> NniRoundStats {
        let mut current = engine.log_likelihood(tree);
        let mut applied = 0;
        let mut evaluated = 0;
        let internal: Vec<Edge> =
            tree.edges().into_iter().filter(|&(a, b)| !tree.is_tip(a) && !tree.is_tip(b)).collect();
        for (u, v) in internal {
            if !tree.adjacent(u, v) || tree.is_tip(u) || tree.is_tip(v) {
                continue;
            }
            let mut best: Option<(f64, Tree)> = None;
            for swap in 0..2 {
                let mut candidate = tree.clone();
                if candidate.nni(u, v, swap).is_err() {
                    continue;
                }
                engine.invalidate_all();
                let (_, lnl) = engine.optimize_branch_with_iters(&mut candidate, (u, v), 4);
                evaluated += 1;
                if lnl > current + epsilon && best.as_ref().is_none_or(|(b, _)| lnl > *b) {
                    best = Some((lnl, candidate));
                }
            }
            if let Some((lnl, better)) = best {
                *tree = better;
                current = lnl;
                applied += 1;
            }
            engine.invalidate_all();
        }
        current = engine.log_likelihood(tree);
        NniRoundStats { applied, evaluated, log_likelihood: current }
    }

    /// Regression for the full-cache-flush bug: the targeted-invalidation,
    /// in-place round must reproduce the clone-and-flush round exactly —
    /// same interchanges applied, same candidates evaluated, and the final
    /// log-likelihood identical to the bit — across several seeds,
    /// including rounds that apply nothing and rounds that apply several
    /// interchanges.
    #[test]
    fn incremental_round_is_bit_identical_to_clone_and_flush() {
        for seed in [2u64, 7, 19, 33] {
            let w = SimulationConfig::new(10, 400, seed).generate();
            let mut rng = StdRng::seed_from_u64(seed);
            let start = Tree::random(10, 0.1, &mut rng).unwrap();

            let mut t_ref = start.clone();
            let mut eng_ref = engine(&w.alignment);
            eng_ref.optimize_all_branches(&mut t_ref, 2);
            let s_ref = nni_round_clone_and_flush(&mut eng_ref, &mut t_ref, 1e-4);

            let mut t_new = start;
            let mut eng_new = engine(&w.alignment);
            eng_new.optimize_all_branches(&mut t_new, 2);
            let s_new = nni_round(&mut eng_new, &mut t_new, 1e-4);

            assert_eq!(s_new.applied, s_ref.applied, "seed {seed}: applied counts differ");
            assert_eq!(s_new.evaluated, s_ref.evaluated, "seed {seed}: evaluated counts differ");
            assert_eq!(
                s_new.log_likelihood.to_bits(),
                s_ref.log_likelihood.to_bits(),
                "seed {seed}: final lnL differs: {} vs {}",
                s_new.log_likelihood,
                s_ref.log_likelihood
            );
            assert_eq!(t_new, t_ref, "seed {seed}: final topologies differ");
            for (a, b) in t_new.edges() {
                assert_eq!(
                    t_new.branch_length(a, b).to_bits(),
                    t_ref.branch_length(a, b).to_bits(),
                    "seed {seed}: branch ({a}, {b}) differs"
                );
            }
        }
    }

    /// The in-place apply/revert must leave the engine cache in a state
    /// indistinguishable from a cold start (the NNI analogue of the SPR
    /// `lazy_bookkeeping_is_exact` test).
    #[test]
    fn nni_bookkeeping_is_exact() {
        for seed in [4u64, 11, 23] {
            let w = SimulationConfig::new(9, 250, seed).generate();
            let mut rng = StdRng::seed_from_u64(seed);
            let mut tree = Tree::random(9, 0.1, &mut rng).unwrap();
            let mut eng = engine(&w.alignment);
            eng.optimize_all_branches(&mut tree, 1);
            let stats = nni_round(&mut eng, &mut tree, 1e-4);
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

    #[test]
    fn nni_round_never_decreases_likelihood() {
        let w = SimulationConfig::new(9, 350, 44).generate();
        let mut rng = StdRng::seed_from_u64(2);
        let mut tree = Tree::random(9, 0.1, &mut rng).unwrap();
        let mut eng = engine(&w.alignment);
        let before = eng.optimize_all_branches(&mut tree, 2);
        let stats = nni_round(&mut eng, &mut tree, 1e-4);
        assert!(stats.log_likelihood >= before - 1e-6);
        assert!(stats.evaluated > 0);
        tree.validate().unwrap();
    }

    #[test]
    fn nni_improves_a_random_start() {
        let w =
            SimulationConfig { mean_branch: 0.12, ..SimulationConfig::new(8, 1000, 3) }.generate();
        let mut rng = StdRng::seed_from_u64(5);
        let mut tree = Tree::random(8, 0.1, &mut rng).unwrap();
        let mut eng = engine(&w.alignment);
        let start = eng.optimize_all_branches(&mut tree, 2);
        let mut last = start;
        for _ in 0..8 {
            let stats = nni_round(&mut eng, &mut tree, 1e-4);
            eng.optimize_all_branches(&mut tree, 1);
            if stats.applied == 0 {
                break;
            }
            last = stats.log_likelihood;
        }
        assert!(last > start, "NNI must improve a random start: {start} -> {last}");
    }

    #[test]
    fn spr_explores_at_least_as_well_as_nni() {
        // SPR's move set strictly contains NNI's, so from the same start
        // an SPR round followed by smoothing should do at least as well as
        // an NNI round from the same state.
        let w = SimulationConfig::new(9, 600, 71).generate();
        let mut rng = StdRng::seed_from_u64(9);
        let start = Tree::random(9, 0.1, &mut rng).unwrap();

        let mut t_nni = start.clone();
        let mut eng = engine(&w.alignment);
        eng.optimize_all_branches(&mut t_nni, 2);
        for _ in 0..6 {
            if nni_round(&mut eng, &mut t_nni, 1e-4).applied == 0 {
                break;
            }
            eng.optimize_all_branches(&mut t_nni, 1);
        }
        let nni_lnl = eng.optimize_all_branches(&mut t_nni, 2);

        let mut t_spr = start;
        let mut eng = engine(&w.alignment);
        eng.optimize_all_branches(&mut t_spr, 2);
        for _ in 0..6 {
            if spr_round(&mut eng, &mut t_spr, 6, 1e-4).applied == 0 {
                break;
            }
            eng.optimize_all_branches(&mut t_spr, 1);
        }
        let spr_lnl = eng.optimize_all_branches(&mut t_spr, 2);

        assert!(
            spr_lnl >= nni_lnl - 0.5,
            "SPR should not lose clearly to NNI: {spr_lnl} vs {nni_lnl}"
        );
    }
}
