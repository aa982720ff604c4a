//! Subtree site repeats (Kobert, Flouri & Stamatakis, Syst. Biol. 2017).
//!
//! Below an inner node, two patterns that agree on the subtree's tips give
//! the same conditional likelihood vector, so a `newview` there needs one
//! column per distinct *class* of patterns, not one per pattern. A tip's
//! class is its state code; an inner node's is the id of the pair of its
//! children's classes.

use phylo::alignment::PatternAlignment;
use phylo::tree::{NodeId, Tree};
use std::collections::HashMap;

/// Per-pattern class ids of the subtree at `node` seen from `from`, and
/// how many distinct ids there are; memoised per directed edge.
fn classes<'m>(
    tree: &Tree,
    aln: &PatternAlignment,
    (node, from): (NodeId, NodeId),
    memo: &'m mut HashMap<(NodeId, NodeId), (Vec<u32>, usize)>,
) -> &'m (Vec<u32>, usize) {
    if !memo.contains_key(&(node, from)) {
        let entry = if tree.is_tip(node) {
            (aln.tip_row(node).iter().map(|&c| u32::from(c)).collect(), 0)
        } else {
            let [(a, _), (b, _)] = tree.other_neighbors(node, from);
            let left = classes(tree, aln, (a, node), memo).0.clone();
            let right = &classes(tree, aln, (b, node), memo).0;
            let mut ids = HashMap::new();
            let own = left
                .iter()
                .zip(right)
                .map(|pair| {
                    let next = ids.len() as u32;
                    *ids.entry(pair).or_insert(next)
                })
                .collect();
            (own, ids.len())
        };
        memo.insert((node, from), entry);
    }
    &memo[&(node, from)]
}

/// Distinct classes ÷ patterns for every directed inner CLV of `tree` (each
/// inner node, seen from each of its three neighbours).
pub fn class_ratios(tree: &Tree, aln: &PatternAlignment) -> Vec<f64> {
    let mut memo = HashMap::new();
    let inner = (tree.n_taxa()..tree.n_nodes()).filter(|&v| tree.degree(v) == 3);
    let directed: Vec<(NodeId, NodeId)> =
        inner.flat_map(|v| tree.neighbors_of(v).map(move |(p, _)| (v, p))).collect();
    let n_patterns = aln.n_patterns() as f64;
    directed
        .into_iter()
        .map(|edge| classes(tree, aln, edge, &mut memo).1 as f64 / n_patterns)
        .collect()
}
