//! Property-based tests (proptest) over the core invariants of all three
//! crates. These complement the unit tests with randomized coverage of the
//! data-structure and numerical invariants DESIGN.md calls out.

use proptest::prelude::*;

use cellsim::dma::{
    build_dma_list, stream_stall_blocking, stream_stall_double_buffered, validate_transfer,
    DmaCosts, MAX_TRANSFER,
};
use phylo::alignment::Alignment;
use phylo::alphabet::{decode_base, encode_base};
use phylo::bipartitions::{robinson_foulds, tree_bipartitions};
use phylo::io::newick::{parse_newick, write_newick};
use phylo::likelihood::engine::LikelihoodEngine;
use phylo::likelihood::reference::log_likelihood_naive;
use phylo::likelihood::{LikelihoodConfig, LikelihoodWorkspace, WorkspaceOptions};
use phylo::math::{brent_minimize, discrete_gamma_rates, jacobi_eigen};
use phylo::model::{ExpImpl, GammaRates, SubstModel};
use phylo::search::parsimony_score;
use phylo::simulate::SimulationConfig;
use phylo::tree::Tree;
use rand::rngs::StdRng;
use rand::SeedableRng;

// ---------------------------------------------------------------------
// alphabet / alignment
// ---------------------------------------------------------------------

proptest! {
    /// Every 4-bit code decodes to a character that re-encodes to itself.
    #[test]
    fn alphabet_round_trip(code in 1u8..16) {
        prop_assert_eq!(encode_base(decode_base(code)), Some(code));
    }

    /// Pattern compression never changes the likelihood: an alignment and
    /// its column-shuffled copy compress to the same likelihood.
    #[test]
    fn compression_is_likelihood_invariant(seed in 0u64..50) {
        let w = SimulationConfig::new(5, 60, seed).generate();
        let aln = &w.alignment;
        // Compare the compressed-likelihood against the naive per-pattern
        // reference, which applies weights explicitly.
        let model = SubstModel::jc69();
        let rates = GammaRates::standard(1.0).unwrap();
        let mut engine = LikelihoodEngine::new(aln, model.clone(), rates.clone(), LikelihoodConfig::optimized());
        let fast = engine.log_likelihood(&w.true_tree);
        let naive = log_likelihood_naive(&w.true_tree, aln, &model, &rates);
        prop_assert!((fast - naive).abs() < 1e-6 * naive.abs().max(1.0),
            "fast {} vs naive {}", fast, naive);
    }

    /// Total pattern weight always equals the raw site count.
    #[test]
    fn compression_conserves_weight(seed in 0u64..50, n_taxa in 4usize..9, n_sites in 10usize..200) {
        let w = SimulationConfig::new(n_taxa, n_sites, seed).generate();
        prop_assert_eq!(w.alignment.total_weight(), n_sites as f64);
        prop_assert!(w.alignment.n_patterns() <= n_sites);
    }

    /// Bootstrap weights are a multinomial redistribution: non-negative,
    /// summing to the site count, supported on existing patterns.
    #[test]
    fn bootstrap_weights_are_a_redistribution(seed in 0u64..100) {
        let w = SimulationConfig::new(6, 80, 11).generate();
        let mut rng = StdRng::seed_from_u64(seed);
        let weights = w.alignment.bootstrap_weights(&mut rng);
        prop_assert_eq!(weights.iter().sum::<f64>(), 80.0);
        prop_assert!(weights.iter().all(|&x| x >= 0.0));
    }

    /// `compress` → `expand` is the identity on arbitrary encoded matrices
    /// (ambiguity codes and gaps included), and the pattern weights recount
    /// the original columns exactly.
    #[test]
    fn compress_expand_round_trip(seed in 0u64..80, n_taxa in 3usize..16, n_sites in 1usize..250) {
        let aln = arb_alignment(n_taxa, n_sites, &mut StdRng::seed_from_u64(seed));
        let pat = aln.try_compress().unwrap();
        let back = pat.expand().unwrap();
        prop_assert_eq!(back.taxon_names(), aln.taxon_names());
        for t in 0..n_taxa {
            prop_assert_eq!(back.row(t), aln.row(t), "taxon {} lost in round trip", t);
        }
        // Weights recount the raw columns: group columns by content and
        // compare against the weight of the pattern each group maps to.
        let mut by_column: std::collections::HashMap<Vec<u8>, f64> =
            std::collections::HashMap::new();
        for site in 0..n_sites {
            *by_column.entry(aln.column(site)).or_insert(0.0) += 1.0;
        }
        prop_assert_eq!(by_column.len(), pat.n_patterns());
        for site in 0..n_sites {
            let p = pat.site_to_pattern()[site] as usize;
            prop_assert_eq!(pat.weights()[p], by_column[&aln.column(site)]);
        }
    }

    /// Bootstrap re-weighting through the compressed `site_to_pattern` map
    /// is equivalent to resampling the raw columns directly: with the same
    /// RNG stream, recounting sampled columns by *content* yields the same
    /// per-pattern weights.
    #[test]
    fn bootstrap_reweighting_matches_column_recount(
        seed in 0u64..60,
        draw in 0u64..60,
        n_taxa in 3usize..10,
        n_sites in 2usize..150,
    ) {
        use rand::Rng;
        let aln = arb_alignment(n_taxa, n_sites, &mut StdRng::seed_from_u64(seed));
        let pat = aln.try_compress().unwrap();
        let weights = pat.bootstrap_weights(&mut StdRng::seed_from_u64(draw));

        // Replay the identical RNG stream against the *raw* alignment.
        let mut rng = StdRng::seed_from_u64(draw);
        let mut by_column: std::collections::HashMap<Vec<u8>, f64> =
            std::collections::HashMap::new();
        for _ in 0..n_sites {
            let col = rng.gen_range(0..n_sites);
            *by_column.entry(aln.column(col)).or_insert(0.0) += 1.0;
        }
        prop_assert_eq!(weights.iter().sum::<f64>(), n_sites as f64);
        for (p, &w) in weights.iter().enumerate() {
            // The pattern's column content, reconstructed taxon-by-taxon.
            let content: Vec<u8> = (0..n_taxa).map(|t| pat.tip_row(t)[p]).collect();
            let expected = by_column.get(&content).copied().unwrap_or(0.0);
            prop_assert_eq!(w, expected, "pattern {} weight mismatch", p);
        }
    }
}

/// A random encoded alignment over the full 4-bit IUPAC code space.
fn arb_alignment(n_taxa: usize, n_sites: usize, rng: &mut StdRng) -> Alignment {
    use rand::Rng;
    let names = (0..n_taxa).map(|t| format!("t{t}")).collect();
    let rows =
        (0..n_taxa).map(|_| (0..n_sites).map(|_| rng.gen_range(1u8..16)).collect()).collect();
    Alignment::from_encoded(names, rows).unwrap()
}

/// The acceptance-scale case, deterministic: 1k taxa × 10k sites compress,
/// expand, and re-weight without loss — the regime the streaming loader
/// and hash-interned compression exist for.
#[test]
fn compress_round_trips_at_1k_taxa_10k_sites() {
    use rand::Rng;
    let (n_taxa, n_sites) = (1000, 10_000);
    let mut rng = StdRng::seed_from_u64(0xA11C);
    // Star phylogeny: shared root + ~3% per-taxon mutations, so columns
    // genuinely collide into shared patterns (unlike uniform noise).
    let root: Vec<u8> = (0..n_sites).map(|_| 1u8 << rng.gen_range(0..4)).collect();
    let names: Vec<String> = (0..n_taxa).map(|t| format!("t{t}")).collect();
    let rows: Vec<Vec<u8>> = (0..n_taxa)
        .map(|_| {
            let mut row = root.clone();
            for site in row.iter_mut() {
                if rng.gen_range(0..32) == 0 {
                    *site = 1u8 << rng.gen_range(0..4);
                }
            }
            row
        })
        .collect();
    let aln = Alignment::from_encoded(names, rows).unwrap();
    let pat = aln.try_compress().expect("well under the u32 site limit");
    assert_eq!(pat.weights().iter().sum::<f64>() as usize, n_sites);
    assert!(pat.n_patterns() <= n_sites);
    let back = pat.expand().expect("expand succeeds");
    for t in 0..n_taxa {
        assert_eq!(back.row(t), aln.row(t), "taxon {t} lost at scale");
    }
    let weights = pat.bootstrap_weights(&mut StdRng::seed_from_u64(7));
    assert_eq!(weights.iter().sum::<f64>() as usize, n_sites);
}

// ---------------------------------------------------------------------
// math
// ---------------------------------------------------------------------

proptest! {
    /// Discrete Γ rates always have mean 1 and are strictly increasing.
    #[test]
    fn gamma_rates_mean_one(alpha in 0.05f64..50.0, k in 2usize..9) {
        let rates = discrete_gamma_rates(alpha, k);
        let mean = rates.iter().sum::<f64>() / k as f64;
        prop_assert!((mean - 1.0).abs() < 1e-9);
        for w in rates.windows(2) {
            prop_assert!(w[0] < w[1]);
        }
    }

    /// Jacobi eigendecomposition reconstructs random symmetric matrices.
    #[test]
    fn eigen_reconstructs(vals in proptest::collection::vec(-5.0f64..5.0, 10)) {
        let mut m = [0.0f64; 16];
        let mut idx = 0;
        for i in 0..4 {
            for j in i..4 {
                m[i * 4 + j] = vals[idx];
                m[j * 4 + i] = vals[idx];
                idx += 1;
            }
        }
        let e = jacobi_eigen(&m, 4);
        let back = e.reconstruct();
        for (a, b) in m.iter().zip(&back) {
            prop_assert!((a - b).abs() < 1e-9, "{} vs {}", a, b);
        }
    }

    /// Brent finds the minimum of shifted quadratics anywhere in a bracket.
    #[test]
    fn brent_finds_quadratic_minima(center in 0.1f64..9.9, scale in 0.1f64..10.0) {
        let (x, _) = brent_minimize(|x| scale * (x - center) * (x - center), 0.0, 10.0, 1e-9, 200);
        prop_assert!((x - center).abs() < 1e-4, "found {} expected {}", x, center);
    }
}

// ---------------------------------------------------------------------
// model
// ---------------------------------------------------------------------

fn arb_freqs() -> impl Strategy<Value = [f64; 4]> {
    proptest::collection::vec(0.05f64..1.0, 4).prop_map(|v| {
        let total: f64 = v.iter().sum();
        [v[0] / total, v[1] / total, v[2] / total, v[3] / total]
    })
}

fn arb_exchange() -> impl Strategy<Value = [f64; 6]> {
    proptest::collection::vec(0.1f64..8.0, 6).prop_map(|v| [v[0], v[1], v[2], v[3], v[4], v[5]])
}

proptest! {
    /// P(t) of a random GTR model is a proper stochastic matrix satisfying
    /// detailed balance for any (t, rate).
    #[test]
    fn transition_matrices_are_stochastic_and_reversible(
        freqs in arb_freqs(),
        ex in arb_exchange(),
        t in 1e-6f64..10.0,
        rate in 0.05f64..4.0,
    ) {
        let m = SubstModel::gtr(freqs, ex).unwrap();
        let p = m.transition_matrix(t, rate, ExpImpl::Sdk);
        for i in 0..4 {
            let row: f64 = p[i].iter().sum();
            prop_assert!((row - 1.0).abs() < 1e-8, "row {} sums to {}", i, row);
            for j in 0..4 {
                prop_assert!(p[i][j] >= 0.0);
                let balance = freqs[i] * p[i][j] - freqs[j] * p[j][i];
                prop_assert!(balance.abs() < 1e-9);
            }
        }
    }

    /// The SDK exp and libm produce matching matrices for any model.
    #[test]
    fn exp_implementations_agree(freqs in arb_freqs(), ex in arb_exchange(), t in 1e-6f64..5.0) {
        let m = SubstModel::gtr(freqs, ex).unwrap();
        let a = m.transition_matrix(t, 1.0, ExpImpl::Libm);
        let b = m.transition_matrix(t, 1.0, ExpImpl::Sdk);
        for i in 0..4 {
            for j in 0..4 {
                prop_assert!((a[i][j] - b[i][j]).abs() < 1e-12);
            }
        }
    }
}

// ---------------------------------------------------------------------
// tree / bipartitions / newick
// ---------------------------------------------------------------------

proptest! {
    /// Random trees validate, have the right edge count, and RF(t, t) = 0.
    #[test]
    fn random_trees_are_wellformed(n in 4usize..40, seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let t = Tree::random(n, 0.1, &mut rng).unwrap();
        t.validate().unwrap();
        prop_assert_eq!(t.edges().len(), 2 * n - 3);
        prop_assert_eq!(tree_bipartitions(&t).len(), n - 3);
        prop_assert_eq!(robinson_foulds(&t, &t), 0);
    }

    /// Newick round-trips preserve topology for arbitrary random trees.
    #[test]
    fn newick_round_trip(n in 4usize..30, seed in 0u64..500) {
        let mut rng = StdRng::seed_from_u64(seed);
        let t = Tree::random(n, 0.1, &mut rng).unwrap();
        let names: Vec<String> = (0..n).map(|i| format!("t{i}")).collect();
        let text = write_newick(&t, &names);
        let back = parse_newick(&text, &names).unwrap();
        prop_assert_eq!(robinson_foulds(&t, &back), 0, "{}", text);
    }

    /// SPR prune + undo is the identity on topology and branch lengths.
    #[test]
    fn spr_prune_undo_identity(n in 5usize..20, seed in 0u64..500, pick in 0usize..100) {
        let mut rng = StdRng::seed_from_u64(seed);
        let original = Tree::random(n, 0.1, &mut rng).unwrap();
        let mut t = original.clone();
        let edges = t.edges();
        let (s, v0) = edges[pick % edges.len()];
        // Prune whichever side has an inner junction.
        let (root, junction) = if !t.is_tip(v0) { (s, v0) } else { (v0, s) };
        if t.is_tip(junction) {
            return Ok(()); // both tips: cannot prune (n = 3 style edge)
        }
        if t.n_taxa() - t.subtree_tips(root, junction).len() < 3 {
            return Ok(());
        }
        let pruned = t.prune(root, junction).unwrap();
        t.undo_prune(&pruned).unwrap();
        t.validate().unwrap();
        prop_assert_eq!(&t, &original);
    }

    /// Parsimony scores are non-negative, bounded by weighted sites × max
    /// changes, and zero only for constant alignments.
    #[test]
    fn parsimony_bounds(seed in 0u64..100) {
        let w = SimulationConfig::new(7, 120, seed).generate();
        let mut rng = StdRng::seed_from_u64(seed);
        let t = Tree::random(7, 0.1, &mut rng).unwrap();
        let score = parsimony_score(&t, &w.alignment);
        prop_assert!(score >= 0.0);
        // At most (taxa − 1) changes per site.
        prop_assert!(score <= (7.0 - 1.0) * 120.0);
    }
}

proptest! {
    /// Majority-rule consensus invariants over random replicate sets.
    #[test]
    fn consensus_invariants(n in 5usize..12, seeds in proptest::collection::vec(0u64..10_000, 2..8)) {
        use phylo::bipartitions::majority_rule_consensus;
        let trees: Vec<Tree> = seeds
            .iter()
            .map(|&s| Tree::random(n, 0.1, &mut StdRng::seed_from_u64(s)).unwrap())
            .collect();
        let c50 = majority_rule_consensus(&trees, 0.5);
        let c90 = majority_rule_consensus(&trees, 0.9);
        // Resolution bounds.
        prop_assert!(c50.n_clades() <= n - 3);
        // Higher thresholds never accept more clades.
        prop_assert!(c90.n_clades() <= c50.n_clades());
        // Every accepted clade really is a majority split (recount).
        for (taxa, f) in c50.clades() {
            prop_assert!(*f > 0.5);
            let bp = phylo::bipartitions::Bipartition::from_side(taxa, n);
            let count = trees.iter().filter(|t| tree_bipartitions(t).contains(&bp)).count();
            prop_assert_eq!(count as f64 / trees.len() as f64, *f);
        }
        // The consensus of one tree is that tree, fully resolved.
        let solo = majority_rule_consensus(&trees[..1], 0.5);
        prop_assert!(solo.is_fully_resolved());
        // And it renders to parseable Newick.
        let names: Vec<String> = (0..n).map(|i| format!("t{i}")).collect();
        let nwk = c50.to_newick(&names);
        prop_assert!(nwk.ends_with(';'));
        for name in &names {
            prop_assert!(nwk.contains(name.as_str()));
        }
    }
}

// ---------------------------------------------------------------------
// likelihood workspace arenas + fused traversal dispatch
// ---------------------------------------------------------------------

/// Compare every cached inner-node partial of two engines bit-for-bit.
fn assert_partials_identical(
    a: &LikelihoodEngine<'_>,
    b: &LikelihoodEngine<'_>,
    n_taxa: usize,
) -> Result<(), TestCaseError> {
    for node in n_taxa..(2 * n_taxa - 2) {
        match (a.node_partial(node), b.node_partial(node)) {
            (None, None) => {}
            (Some((xa, sa, ta)), Some((xb, sb, tb))) => {
                prop_assert_eq!(ta, tb, "orientation of node {}", node);
                prop_assert_eq!(sa, sb, "scale counts of node {}", node);
                prop_assert_eq!(xa, xb, "partials of node {}", node);
            }
            (a_state, b_state) => {
                return Err(TestCaseError::fail(format!(
                    "node {node}: validity differs ({} vs {})",
                    a_state.is_some(),
                    b_state.is_some()
                )));
            }
        }
    }
    Ok(())
}

proptest! {
    /// A workspace recycled through arbitrarily many prior engines produces
    /// bit-identical likelihoods, partials and scale counts to a freshly
    /// allocated one, on random trees and random warm-up history.
    #[test]
    fn recycled_workspace_matches_fresh_allocation(seed in 0u64..40, warm_seed in 100u64..140) {
        let w = SimulationConfig::new(6, 150, seed).generate();
        let model = SubstModel::gtr(w.alignment.base_frequencies(), [1.0; 6]).unwrap();
        let rates = GammaRates::standard(0.8).unwrap();
        let cfg = LikelihoodConfig::optimized();

        // Dirty a workspace on an unrelated tree (different shape history).
        let warm_w = SimulationConfig::new(7, 90, warm_seed).generate();
        let mut warm = LikelihoodEngine::new(&warm_w.alignment, model.clone(), rates.clone(), cfg);
        let mut warm_rng = StdRng::seed_from_u64(warm_seed);
        let warm_tree = Tree::random(7, 0.15, &mut warm_rng).unwrap();
        warm.log_likelihood(&warm_tree);
        let recycled: LikelihoodWorkspace = warm.into_workspace();

        let mut rng = StdRng::seed_from_u64(seed);
        let mut tree_fresh = Tree::random(6, 0.2, &mut rng).unwrap();
        let mut tree_pooled = tree_fresh.clone();

        let mut fresh = LikelihoodEngine::new(&w.alignment, model.clone(), rates.clone(), cfg);
        let mut pooled = LikelihoodEngine::with_workspace(
            &w.alignment, model, rates, cfg, WorkspaceOptions, recycled,
        );

        let la = fresh.log_likelihood(&tree_fresh);
        let lb = pooled.log_likelihood(&tree_pooled);
        prop_assert_eq!(la.to_bits(), lb.to_bits(), "lnl {} vs {}", la, lb);
        assert_partials_identical(&fresh, &pooled, 6)?;

        let oa = fresh.optimize_all_branches(&mut tree_fresh, 2);
        let ob = pooled.optimize_all_branches(&mut tree_pooled, 2);
        prop_assert_eq!(oa.to_bits(), ob.to_bits(), "optimized lnl {} vs {}", oa, ob);
        prop_assert_eq!(&tree_fresh, &tree_pooled);
        assert_partials_identical(&fresh, &pooled, 6)?;
    }

    /// The fused `TraversalOps` driver, evaluated at a random branch of a
    /// random tree, agrees with the naive reference — series `expm`, direct
    /// recursion, no kernel code shared with the engine — to 1e-10
    /// relative. The lnL is branch-independent for a reversible model, so
    /// any rooting the compiled segments take must land on the same value.
    #[test]
    fn fused_dispatch_matches_naive_reference(seed in 0u64..40, edge_pick in 0usize..64) {
        let w = SimulationConfig::new(7, 120, seed).generate();
        let model = SubstModel::gtr(w.alignment.base_frequencies(), [1.0; 6]).unwrap();
        let rates = GammaRates::standard(0.7).unwrap();

        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(31).wrapping_add(5));
        let tree = Tree::random(7, 0.2, &mut rng).unwrap();
        let mut fused = LikelihoodEngine::new(
            &w.alignment, model.clone(), rates.clone(), LikelihoodConfig::optimized(),
        );

        // Evaluate at a random branch so the compiled segments vary.
        let edges = tree.edges();
        let at = edges[edge_pick % edges.len()];
        let got = fused.log_likelihood_at(&tree, at);
        let want = log_likelihood_naive(&tree, &w.alignment, &model, &rates);
        prop_assert!((got - want).abs() <= 1e-10 * want.abs(), "fused {} vs naive {}", got, want);

        // The engine actually compiled a descriptor list. It targets inner
        // nodes only and, the engine being cold, runs every inner child
        // (oriented toward its parent) before that parent.
        let ops = fused.last_traversal().as_slice();
        prop_assert!(!ops.is_empty());
        for (i, op) in ops.iter().enumerate() {
            prop_assert!(op.node >= 7, "ops target inner nodes only");
            for (child, tip) in [(op.left, op.left_tip), (op.right, op.right_tip)] {
                let before = ops[..i].iter().any(|o| o.node == child && o.toward == op.node);
                prop_assert!(tip || before, "op {} reads node {} before it ran", i, child);
            }
        }
    }
}

// ---------------------------------------------------------------------
// cellsim
// ---------------------------------------------------------------------

proptest! {
    /// DMA legality: multiples of 16 up to 16 KB are legal; everything the
    /// validator accepts can be packed into a legal DMA list.
    #[test]
    fn dma_rules(bytes in 1usize..100_000) {
        let legal = matches!(bytes, 1 | 2 | 4 | 8) || bytes % 16 == 0;
        let fits = bytes <= MAX_TRANSFER;
        prop_assert_eq!(validate_transfer(bytes, 0).is_ok(), legal && fits);
        // Any size can be packed into a list of legal entries.
        let list = build_dma_list(bytes).unwrap();
        let total: usize = list.iter().sum();
        prop_assert!(total >= bytes);
        for &e in &list {
            prop_assert!(validate_transfer(e, 0).is_ok());
        }
    }

    /// Double buffering never loses to blocking transfers, and more compute
    /// never increases the double-buffered stall.
    #[test]
    fn double_buffering_dominates(total in 1u64..1_000_000, compute in 0u64..10_000_000) {
        let costs = DmaCosts::default();
        let blocking = stream_stall_blocking(total, 2048, &costs);
        let dbuf = stream_stall_double_buffered(total, 2048, compute, &costs);
        prop_assert!(dbuf <= blocking);
        let dbuf_more = stream_stall_double_buffered(total, 2048, compute * 2, &costs);
        prop_assert!(dbuf_more <= dbuf);
    }
}

// ---------------------------------------------------------------------
// schedulers
// ---------------------------------------------------------------------

proptest! {
    /// The task-parallel DES conserves work: every job's SPE cycles end up
    /// attributed to some SPE, and the makespan is bounded below by both
    /// the SPE and PPE critical paths.
    #[test]
    fn des_conserves_work(
        n_jobs in 1usize..20,
        n_workers in 1usize..9,
        ppe in 1u64..5_000,
        spe in 1u64..50_000,
        dma in 0u64..10_000,
        phases in 1usize..30,
    ) {
        use cellsim::{FaultPlan, TraceLog};
        use raxml_cell::sched::{simulate_task_parallel, DesParams, Phase};
        let params = DesParams { n_ppe_threads: 2, smt_penalty: 1.0, n_spes: 8 };
        let n_workers = n_workers.min(8);
        let job: Vec<Phase> = (0..phases).map(|_| Phase { ppe, spe, dma }).collect();
        let jobs = vec![job.as_slice(); n_jobs];
        let (plan, mut off) = (FaultPlan::none(), TraceLog::disabled());
        let out = simulate_task_parallel(&jobs, n_workers, 1, &params, &plan, &mut off);
        let total_spe: u64 = out.stats.spes.iter().map(|s| s.busy()).sum();
        let total_stall: u64 = out.stats.spes.iter().map(|s| s.stalled()).sum();
        prop_assert_eq!(total_spe, n_jobs as u64 * phases as u64 * spe, "SPE work conserved");
        prop_assert_eq!(total_stall, n_jobs as u64 * phases as u64 * dma, "DMA stalls conserved");
        prop_assert_eq!(out.stats.ppe_busy, n_jobs as u64 * phases as u64 * ppe, "PPE work conserved");
        // Lower bounds.
        let per_job = phases as u64 * (ppe + spe + dma);
        let spe_bound = (n_jobs as u64).div_ceil(n_workers as u64) * phases as u64 * (spe + dma);
        prop_assert!(out.makespan >= spe_bound);
        prop_assert!(out.makespan >= out.stats.ppe_busy / 2);
        // Upper bound: fully serial execution.
        prop_assert!(out.makespan <= per_job * n_jobs as u64);
    }
}

// ---------------------------------------------------------------------
// serve wire protocol
// ---------------------------------------------------------------------

/// Printable-ASCII payload strategy (the compat proptest has no regex
/// string strategies).
fn arb_ascii(max_len: usize) -> impl Strategy<Value = String> {
    proptest::collection::vec(0x20u8..0x7f, 0..max_len)
        .prop_map(|v| String::from_utf8(v).expect("printable ASCII"))
}

proptest! {
    /// `read_frame` never fabricates a frame from a truncated byte
    /// stream: cutting a valid frame short yields a clean EOF only when
    /// no bytes arrived at all, a typed error otherwise — never
    /// `Ok(Some)`.
    #[test]
    fn truncated_frames_never_parse(payload in arb_ascii(200), cut_frac in 0.0f64..1.0) {
        use serve::wire::{read_frame, write_frame};
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();
        let cut = ((buf.len() as f64) * cut_frac) as usize;
        prop_assume!(cut < buf.len()); // a full buffer is not a truncation
        let mut cursor = std::io::Cursor::new(&buf[..cut]);
        match read_frame(&mut cursor) {
            Ok(Some(_)) => prop_assert!(false, "truncated frame parsed as complete"),
            Ok(None) => prop_assert_eq!(cut, 0, "clean EOF only before any byte arrives"),
            Err(_) => {} // typed error: mid-prefix or mid-payload EOF
        }
    }

    /// An oversized length prefix is rejected with a typed error before
    /// any payload allocation, regardless of what bytes follow.
    #[test]
    fn oversized_length_prefix_is_rejected(
        extra in 1u32..1 << 30,
        tail in proptest::collection::vec(0u16..256, 0..64),
    ) {
        use serve::wire::{read_frame, MAX_FRAME};
        let len = MAX_FRAME as u32 + extra;
        let mut buf = len.to_be_bytes().to_vec();
        buf.extend(tail.into_iter().map(|b| b as u8));
        let mut cursor = std::io::Cursor::new(buf);
        let err = read_frame(&mut cursor).expect_err("oversized frame must be rejected");
        prop_assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    /// Non-UTF-8 payloads surface as a typed `InvalidData` error, not a
    /// panic or a mangled string.
    #[test]
    fn corrupt_utf8_payload_is_rejected(
        prefix in arb_ascii(32),
        bad in proptest::collection::vec(0x80u8..0xC0, 1..16),
    ) {
        use serve::wire::read_frame;
        let mut payload = prefix.into_bytes();
        payload.extend_from_slice(&bad); // lone continuation bytes: invalid UTF-8
        let mut buf = (payload.len() as u32).to_be_bytes().to_vec();
        buf.extend_from_slice(&payload);
        let mut cursor = std::io::Cursor::new(buf);
        let err = read_frame(&mut cursor).expect_err("invalid UTF-8 must be rejected");
        prop_assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    /// Single-bit corruption of an encoded request — the exact fault
    /// `ServeFaultPlan::corrupt_site` injects — never panics anywhere in
    /// the frame + parse path: it either round-trips to some request or
    /// fails with a typed error at one of the two layers.
    #[test]
    fn bit_flipped_requests_never_panic(
        job in 0u64..1_000_000,
        bit in 0u32..8,
        flip_byte in 0usize..1_000,
    ) {
        use serve::wire::{read_frame, write_frame, Request};
        let request = Request::Status { job };
        let mut buf = Vec::new();
        write_frame(&mut buf, &request.encode()).unwrap();
        let pos = flip_byte % buf.len();
        buf[pos] ^= 1 << bit;
        let mut cursor = std::io::Cursor::new(buf);
        match read_frame(&mut cursor) {
            Err(_) => {}   // frame layer caught it (length, EOF, or UTF-8)
            Ok(None) => {} // flipped length made the stream look empty
            Ok(Some(text)) => {
                let _ = Request::parse(&text); // parse may fail, must not panic
            }
        }
    }

    /// Requests that survive encode → frame → read → parse round-trip to
    /// the same value, idempotency keys and deadlines included.
    #[test]
    fn request_roundtrip_is_lossless(
        job in 0u64..1 << 62,
        key_n in 0u64..1 << 32,
        deadline_raw in 0u64..1 << 41,
    ) {
        use serve::wire::{read_frame, write_frame, JobKind, JobSpec, Preset, Request};
        let mut spec = JobSpec::new("d", JobKind::Search, job, Preset::Fast);
        spec.deadline_ms = if deadline_raw & 1 == 1 { Some(deadline_raw >> 1) } else { None };
        let idem = if key_n == 0 { None } else { Some(format!("key-{key_n}")) };
        // Reuse key_n as a trace id so both the absent (0) and the present
        // case ride through the round-trip.
        let request = Request::Submit { tenant: "t".into(), spec, idem, trace: key_n << 20 };
        let mut buf = Vec::new();
        write_frame(&mut buf, &request.encode()).unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        let text = read_frame(&mut cursor).unwrap().unwrap();
        let parsed = Request::parse(&text).unwrap();
        prop_assert_eq!(parsed, request);
    }
}
