//! Full-search trajectory determinism: an entire SPR + NNI hill climb —
//! every candidate scored, every move applied, every branch optimized —
//! must be bit-identical across `RAYON_NUM_THREADS` (fixed chunk boundaries
//! plus an indexed sequential reduction make scheduling invisible to the
//! arithmetic). That the kernels' lane width never changes a bit is
//! `phylo`'s own lane-type differential tests.

use phylo::alignment::PatternAlignment;
use phylo::likelihood::engine::LikelihoodEngine;
use phylo::likelihood::LikelihoodConfig;
use phylo::model::{GammaRates, SubstModel};
use phylo::search::nni::nni_round;
use phylo::search::spr::spr_round;
use phylo::simulate::SimulationConfig;
use phylo::tree::Tree;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[derive(Debug, PartialEq)]
struct Trajectory {
    lnl_bits: u64,
    edges: Vec<(usize, usize)>,
    branch_bits: Vec<u64>,
    applied: usize,
    evaluated: usize,
}

/// A short but complete search: random start, branch smoothing, then SPR
/// and NNI rounds to convergence (capped), with every statistic recorded.
fn run_search(aln: &PatternAlignment, n_taxa: usize, parallel: bool) -> Trajectory {
    let model = SubstModel::gtr(aln.base_frequencies(), [1.0; 6]).unwrap();
    let rates = GammaRates::standard(0.8).unwrap();
    let cfg = LikelihoodConfig { parallel, ..LikelihoodConfig::optimized() };
    let mut engine = LikelihoodEngine::new(aln, model, rates, cfg);
    let mut rng = StdRng::seed_from_u64(17);
    let mut tree = Tree::random(n_taxa, 0.1, &mut rng).unwrap();
    engine.optimize_all_branches(&mut tree, 2);

    let mut applied = 0;
    let mut evaluated = 0;
    for _ in 0..3 {
        let s = spr_round(&mut engine, &mut tree, 4, 1e-4);
        let n = nni_round(&mut engine, &mut tree, 1e-4);
        applied += s.applied + n.applied;
        evaluated += s.evaluated + n.evaluated;
        if s.applied + n.applied == 0 {
            break;
        }
        engine.optimize_all_branches(&mut tree, 1);
    }
    let lnl = engine.optimize_all_branches(&mut tree, 1);

    let edges = tree.edges();
    let branch_bits = edges.iter().map(|&(a, b)| tree.branch_length(a, b).to_bits()).collect();
    Trajectory { lnl_bits: lnl.to_bits(), edges, branch_bits, applied, evaluated }
}

#[test]
fn search_is_bit_identical_across_thread_counts() {
    // Enough distinct patterns to engage the chunked parallel dispatchers.
    let w = SimulationConfig { mean_branch: 0.4, ..SimulationConfig::new(8, 2400, 37) }.generate();
    assert!(w.alignment.n_patterns() > 128, "patterns: {}", w.alignment.n_patterns());

    let run = |threads: &str| {
        std::env::set_var("RAYON_NUM_THREADS", threads);
        let t = run_search(&w.alignment, 8, true);
        std::env::remove_var("RAYON_NUM_THREADS");
        t
    };
    let one = run("1");
    assert!(one.evaluated > 0);
    let two = run("2");
    let eight = run("8");
    assert_eq!(one, two, "1 vs 2 threads");
    assert_eq!(one, eight, "1 vs 8 threads");
}
