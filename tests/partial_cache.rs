//! Cached partials equal cold ones, slot by slot.
//!
//! A partial is valid exactly when its node carries an orientation. After a
//! random sequence of engine and search operations, every partial the
//! engine reports valid must face a current neighbour of its node and be
//! bit-equal — conditional likelihoods and scale counts — to the partial a
//! fresh engine computes when it evaluates the tree at that same directed
//! branch. A missed invalidation leaves a slot that claims validity but
//! summarises a subtree that no longer exists, and fails here at once.

use phylo::likelihood::engine::LikelihoodEngine;
use phylo::likelihood::LikelihoodConfig;
use phylo::model::{GammaRates, SubstModel};
use phylo::search::nni::nni_round;
use phylo::search::spr::spr_round;
use phylo::simulate::SimulationConfig;
use phylo::tree::Tree;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Every valid slot against a cold engine's partial for the same
/// orientation. Returns how many slots were compared.
fn check_slots(eng: &LikelihoodEngine<'_>, tree: &Tree, context: &str) -> usize {
    let mut checked = 0;
    for node in tree.n_taxa()..tree.n_nodes() {
        let Some((partial, scales, toward)) = eng.node_partial(node) else { continue };
        assert!(tree.adjacent(node, toward), "{context}: node {node} faces non-neighbour {toward}");
        let mut cold = LikelihoodEngine::new(
            eng.alignment(),
            eng.model().clone(),
            eng.rates().clone(),
            *eng.config(),
        );
        cold.log_likelihood_at(tree, (node, toward));
        let (want, want_scales, want_toward) =
            cold.node_partial(node).expect("a cold traversal computes the endpoint's partial");
        assert_eq!(want_toward, toward, "{context}: node {node}");
        assert_eq!(scales, want_scales, "{context}: node {node} toward {toward}: scale counts");
        let stale = partial.iter().zip(want).position(|(a, b)| a.to_bits() != b.to_bits());
        assert_eq!(stale, None, "{context}: node {node} toward {toward}: partial differs");
        checked += 1;
    }
    checked
}

fn random_edge(tree: &Tree, rng: &mut StdRng) -> (usize, usize) {
    let edges = tree.edges();
    edges[rng.gen_range(0..edges.len())]
}

#[test]
fn cached_partials_equal_cold_ones_slot_by_slot() {
    let mut compared = 0;
    let mut striped_cases = 0;
    for case in 0u64..14 {
        let mut rng = StdRng::seed_from_u64(0x5107 + case);
        // Every third case is wide enough for several 256-pattern stripes.
        let wide = case % 3 == 0;
        let n_taxa = if wide { rng.gen_range(10usize..15) } else { rng.gen_range(6usize..15) };
        let sites = if wide { 1500 } else { rng.gen_range(80usize..300) };
        let sim = SimulationConfig::new(n_taxa, sites, 900 + case);
        let w = SimulationConfig { mean_branch: 0.25, ..sim }.generate();
        let aln = &w.alignment;
        if wide {
            assert!(aln.n_patterns() >= 512, "case {case}: {} patterns", aln.n_patterns());
        }
        let parallel = case % 2 == 0;
        striped_cases += usize::from(wide && parallel);
        let config = LikelihoodConfig { parallel, ..LikelihoodConfig::optimized() };
        let model =
            SubstModel::gtr(aln.base_frequencies(), [1.0, 2.5, 0.8, 1.2, 3.0, 1.0]).unwrap();
        let mut eng = LikelihoodEngine::new(aln, model, GammaRates::standard(0.7).unwrap(), config);
        let mut tree = Tree::random(n_taxa, 0.1, &mut rng).unwrap();

        let n_ops = rng.gen_range(4usize..13);
        for step in 0..n_ops {
            let op = rng.gen_range(0u32..7);
            let label = match op {
                0 => {
                    let e = random_edge(&tree, &mut rng);
                    eng.log_likelihood_at(&tree, e);
                    "log_likelihood_at"
                }
                1 => {
                    let e = random_edge(&tree, &mut rng);
                    eng.optimize_branch(&mut tree, e);
                    "optimize_branch"
                }
                2 => {
                    eng.optimize_all_branches(&mut tree, 1);
                    "optimize_all_branches"
                }
                3 => {
                    spr_round(&mut eng, &mut tree, rng.gen_range(1usize..4), 1e-4);
                    "spr_round"
                }
                4 => {
                    nni_round(&mut eng, &mut tree, 1e-4);
                    "nni_round"
                }
                5 => {
                    eng.set_alpha(rng.gen_range(0.2..2.0)).unwrap();
                    "set_alpha"
                }
                _ => {
                    let (u, v) = random_edge(&tree, &mut rng);
                    tree.set_branch_length(u, v, rng.gen_range(0.01..0.5));
                    eng.invalidate_for_branch(u, v);
                    "set_branch_length"
                }
            };
            let context = format!("case {case} ({n_taxa} taxa), step {step}: {label}");
            compared += check_slots(&eng, &tree, &context);
        }
    }
    assert!(striped_cases >= 2, "the striped traversal must be covered");
    assert!(compared > 500, "only {compared} slots compared");
}
