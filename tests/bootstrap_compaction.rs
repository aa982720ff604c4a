//! A bootstrap replicate holds only the patterns its draw gave weight, and
//! nothing downstream may notice: against the same draw applied with
//! `set_weights` on the full pattern set, scores and whole searches are equal
//! to the bit wherever the folds run in pattern order (always with `parallel`
//! off), and to the association of the 256-pattern block sums where not.

use phylo::alignment::{Alignment, PatternAlignment};
use phylo::bipartitions::robinson_foulds;
use phylo::likelihood::{engine::LikelihoodEngine, LikelihoodConfig, TILE};
use phylo::model::{GammaRates, SubstModel};
use phylo::search::{parsimony_score, run_inference, InferenceOptions, InferenceRequest};
use phylo::search::{SearchConfig, SearchResult};
use phylo::simulate::SimulationConfig;
use phylo::tree::Tree;
use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};

/// Draw `seed` of `aln`: compacted, and as weights on every pattern.
fn both(aln: &PatternAlignment, seed: u64) -> [PatternAlignment; 2] {
    let mut full = aln.clone();
    full.set_weights(aln.bootstrap_weights(&mut StdRng::seed_from_u64(seed)));
    [aln.bootstrap_replicate(&mut StdRng::seed_from_u64(seed)), full]
}

/// On one random tree: lnL; the first branch's `(length, lnL)` after one
/// Newton step (`t − d1/d2`) and at convergence; the parsimony score.
fn scores(aln: &PatternAlignment, parallel: bool) -> Vec<u64> {
    let mut tree = Tree::random(aln.n_taxa(), 0.1, &mut StdRng::seed_from_u64(5)).unwrap();
    let model = SubstModel::gtr(aln.base_frequencies(), [1.0; 6]).unwrap();
    let cfg = LikelihoodConfig { parallel, ..LikelihoodConfig::optimized() };
    let mut engine = LikelihoodEngine::new(aln, model, GammaRates::standard(0.7).unwrap(), cfg);
    let mut out = vec![engine.log_likelihood(&tree), parsimony_score(&tree, aln)];
    let edge = tree.first_edge();
    for iters in [1, 8] {
        let (t, lnl) = engine.optimize_branch_with_iters(&mut tree, edge, iters);
        out.extend([t, lnl]);
    }
    out.into_iter().map(f64::to_bits).collect()
}

fn search(aln: &PatternAlignment, parallel: bool) -> SearchResult {
    let mut config = SearchConfig::fast();
    config.likelihood.parallel = parallel;
    let request = InferenceRequest::new(config, 3);
    run_inference(aln, &request, InferenceOptions::new().traced()).unwrap().result
}

/// Scores and a whole fast search, to the bit, with the same kernel calls.
fn assert_invisible([compact, full]: &[PatternAlignment; 2]) {
    assert_eq!(scores(compact, false), scores(full, false));
    let (a, b) = (search(compact, false), search(full, false));
    assert!(a.tree == b.tree, "different trees");
    let key = |r: &SearchResult| {
        let c = r.trace.counters();
        (r.log_likelihood.to_bits(), c.newview_calls, c.makenewz_calls, c.newton_iters)
    };
    assert_eq!(key(&a), key(&b));
}

#[test]
fn narrow_replicate_is_bit_identical() {
    let aln = SimulationConfig::new(12, 500, 9).generate().alignment;
    let pair = both(&aln, 21);
    assert!(pair[0].n_patterns() < aln.n_patterns() && aln.n_patterns() < 256);
    assert_invisible(&pair);
}

#[test]
fn wide_replicate_agrees_to_reduction_association() {
    let cfg = SimulationConfig { mean_branch: 0.3, ..SimulationConfig::new(8, 1500, 4) };
    let [compact, full] = both(&cfg.generate().alignment, 21);
    assert!(compact.n_patterns() > 256 && compact.n_patterns() < full.n_patterns());
    assert_eq!(scores(&compact, false), scores(&full, false));
    // With `parallel` the block sums cut the two pattern sets differently.
    let (a, b) = (search(&compact, true), search(&full, true));
    assert_eq!(robinson_foulds(&a.tree, &b.tree), 0);
    let (a, b) = (a.log_likelihood, b.log_likelihood);
    assert!((a - b).abs() <= 1e-9 * a.abs(), "{a} vs {b}");
}

fn compress<T: AsRef<str>>(rows: [T; 4]) -> PatternAlignment {
    let named: Vec<_> = ["a", "b", "c", "d"].into_iter().zip(rows).collect();
    Alignment::from_named_sequences(&named).unwrap().compress()
}

#[test]
fn edge_case_draws() {
    let draw = |aln: &PatternAlignment, keep: &dyn Fn(usize) -> bool| {
        (0..500).map(|seed| both(aln, seed)).find(|[c, _]| keep(c.n_patterns())).expect("a draw")
    };
    // Two tiles of patterns: every one drawn (nine columns each), then at
    // most one tile of them.
    let rows = ["AAAACCCCGGGT", "ACGTACGTACGA", "AACCGGTTAACC", "ACGTTGCAACGT"];
    assert_invisible(&draw(&compress(rows.map(|r| r.repeat(9))), &|n| n == 12));
    assert_invisible(&draw(&compress(rows), &|n| n <= TILE));
    // One constant pattern takes every site.
    let rows = ["AAAAAAAA", "AAAAAAAC", "AAAAAAAG", "AAAAAAAT"];
    assert_invisible(&draw(&compress(rows), &|n| n == 1));
}

proptest! {
    #[test]
    fn compaction_is_invisible_for_any_draw(seed in 0u64..10_000) {
        let aln = SimulationConfig::new(7, 240, 3).generate().alignment;
        let [compact, full] = both(&aln, seed);
        prop_assert_eq!(scores(&compact, false), scores(&full, false));
    }
}
