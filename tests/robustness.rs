//! Robustness: degenerate and extreme inputs the pipeline must survive.

use phylo::alignment::Alignment;
use phylo::bootstrap::BootstrapAnalysis;
use phylo::checkpoint::SearchCheckpointer;
use phylo::likelihood::engine::LikelihoodEngine;
use phylo::likelihood::reference::log_likelihood_naive;
use phylo::likelihood::LikelihoodConfig;
use phylo::model::{GammaRates, SubstModel};
use phylo::search::{run_inference, InferenceOptions, InferenceRequest, SearchConfig};
use phylo::simulate::SimulationConfig;
use phylo::tree::{Tree, MAX_BRANCH, MIN_BRANCH};
/// One inference via the unified entry point.
fn infer(
    aln: &phylo::alignment::PatternAlignment,
    cfg: &SearchConfig,
    seed: u64,
) -> phylo::search::SearchResult {
    run_inference(aln, &InferenceRequest::new(cfg.clone(), seed), InferenceOptions::new())
        .unwrap()
        .result
}

fn fast() -> SearchConfig {
    let mut cfg = SearchConfig::fast();
    cfg.max_spr_rounds = 2;
    cfg
}

/// All-identical sequences: zero phylogenetic signal. The search must not
/// panic, branch lengths collapse toward the minimum, and the likelihood is
/// that of a star-ish tree with no substitutions.
#[test]
fn identical_sequences_do_not_break_the_search() {
    let seq = "ACGTACGTACGTACGTACGT";
    let aln = Alignment::from_named_sequences(&[
        ("a", seq),
        ("b", seq),
        ("c", seq),
        ("d", seq),
        ("e", seq),
    ])
    .unwrap()
    .compress();
    let result = infer(&aln, &fast(), 1);
    assert!(result.log_likelihood.is_finite());
    assert_eq!(result.starting_parsimony, 0.0);
    // With no signal every branch should optimize to (near) zero.
    let total = result.tree.total_length();
    assert!(
        total < 15.0 * MIN_BRANCH * 10.0,
        "branches should collapse on constant data: total {total}"
    );
}

/// The minimum viable problem: three taxa (a single inner node, no
/// topology to search).
#[test]
fn three_taxa_is_the_degenerate_search() {
    let w = SimulationConfig::new(3, 200, 4).generate();
    let result = infer(&w.alignment, &fast(), 1);
    assert!(result.log_likelihood.is_finite());
    assert_eq!(result.moves_applied, 0, "no SPR exists on 3 taxa");
    assert_eq!(result.tree.edges().len(), 3);
    result.tree.validate().unwrap();
}

/// Four taxa: exactly one internal edge, three topologies. Simulated on an
/// explicit quartet with a solid internal branch (a random 4-taxon tree can
/// draw a near-zero internal branch, which makes the quartet genuinely
/// unresolvable).
#[test]
fn four_taxa_searches_all_topologies() {
    let mut quartet = Tree::initial_triplet(4, 0.1).unwrap();
    let pendant = phylo::tree::edge(0, quartet.neighbors_of(0).next().unwrap().0);
    let v = quartet.add_taxon_on_edge(3, pendant, 0.1).unwrap();
    // Make the internal branch decisive.
    let internal: Vec<_> = quartet.neighbors_of(v).filter(|&(n, _)| !quartet.is_tip(n)).collect();
    quartet.set_branch_length(v, internal[0].0, 0.15);
    let w =
        SimulationConfig { tree: Some(quartet), ..SimulationConfig::new(4, 2000, 9) }.generate();
    let result = infer(&w.alignment, &fast(), 1);
    assert_eq!(
        phylo::bipartitions::robinson_foulds(&result.tree, &w.true_tree),
        0,
        "4-taxon ML with 2000 sites must find the right quartet"
    );
}

/// A taxon that is entirely gaps carries no information but must flow
/// through every stage (gaps hit the ambiguity-code paths everywhere).
#[test]
fn all_gap_taxon_survives_the_pipeline() {
    let w = SimulationConfig::new(6, 150, 3).generate();
    let mut pairs: Vec<(String, String)> =
        (0..6).map(|i| (w.raw.taxon_names()[i].clone(), w.raw.sequence_string(i))).collect();
    pairs.push(("gappy".to_string(), "-".repeat(150)));
    let aln = Alignment::from_named_sequences(&pairs).unwrap().compress();
    let result = infer(&aln, &fast(), 1);
    assert!(result.log_likelihood.is_finite());
    result.tree.validate().unwrap();
    assert_eq!(result.tree.n_taxa(), 7);
}

/// Extreme Γ shapes at both engine bounds.
#[test]
fn alpha_extremes_stay_finite() {
    let w = SimulationConfig::new(6, 200, 11).generate();
    let model = SubstModel::gtr(w.alignment.base_frequencies(), [1.0; 6]).unwrap();
    for alpha in [0.02, 0.5, 20.0] {
        let rates = GammaRates::standard(alpha).unwrap();
        let mut engine = LikelihoodEngine::new(
            &w.alignment,
            model.clone(),
            rates,
            LikelihoodConfig::optimized(),
        );
        let lnl = engine.log_likelihood(&w.true_tree);
        assert!(lnl.is_finite() && lnl < 0.0, "alpha {alpha}: {lnl}");
    }
}

/// Branch lengths clamped at both extremes still give valid likelihoods
/// (saturated branches approach the stationary distribution).
#[test]
fn branch_length_extremes() {
    let w = SimulationConfig::new(5, 150, 21).generate();
    let model = SubstModel::gtr(w.alignment.base_frequencies(), [1.0; 6]).unwrap();
    let rates = GammaRates::standard(0.7).unwrap();

    for len in [MIN_BRANCH, MAX_BRANCH] {
        let mut tree = w.true_tree.clone();
        for (a, b) in tree.edges() {
            tree.set_branch_length(a, b, len);
        }
        let mut engine = LikelihoodEngine::new(
            &w.alignment,
            model.clone(),
            rates.clone(),
            LikelihoodConfig::optimized(),
        );
        let lnl = engine.log_likelihood(&tree);
        assert!(lnl.is_finite(), "len {len}: {lnl}");
    }
}

/// Deep trees (a caterpillar of 200 taxa) exercise the scaling machinery:
/// partials shrink exponentially with accumulated state conflicts and must
/// rescale rather than underflow to zero. (The threshold is 2⁻²⁵⁶ ≈ 9e-78,
/// so it takes on the order of a hundred conflicting merges to trip it —
/// which is exactly why the paper's 42-taxon workload never rescales and
/// its conditional is all misprediction cost, no body cost.)
#[test]
fn deep_caterpillar_tree_needs_and_survives_scaling() {
    let n = 200;
    let w = SimulationConfig {
        mean_branch: 0.3, // long branches: fast decay of partials
        ..SimulationConfig::new(n, 120, 13)
    }
    .generate();
    // Build a caterpillar: taxa strung along a path — the deepest possible
    // traversal for n taxa.
    let mut tree = Tree::initial_triplet(n, 0.3).unwrap();
    for tip in 3..n {
        // Always insert on the last tip's pendant edge: maximal depth.
        let junction = tree.neighbors_of(tip - 1).next().unwrap().0;
        tree.add_taxon_on_edge(tip, phylo::tree::edge(tip - 1, junction), 0.3).unwrap();
    }
    tree.validate().unwrap();

    let model = SubstModel::gtr(w.alignment.base_frequencies(), [1.0; 6]).unwrap();
    // A mid-range α keeps even the slowest Γ category decaying at state
    // conflicts, so the all-categories-below-threshold condition can fire.
    let rates = GammaRates::standard(1.0).unwrap();
    let mut engine =
        LikelihoodEngine::new(&w.alignment, model, rates, LikelihoodConfig::optimized());
    let lnl = engine.log_likelihood(&tree);
    assert!(lnl.is_finite(), "deep tree must not underflow: {lnl}");
    // The point of the test: scaling actually fired.
    assert!(
        engine.trace().counters().scalings > 0,
        "a 200-taxon caterpillar with 0.3 branches must trigger §5.2.3 rescaling"
    );
    // The rescaled likelihood means what an independent implementation
    // says it means: the naive reference, which renormalises every
    // conditional vector by its maximum instead of the 2⁻²⁵⁶ rule.
    let reference = log_likelihood_naive(&tree, &w.alignment, engine.model(), engine.rates());
    assert!(
        (lnl - reference).abs() <= 1e-9 * reference.abs(),
        "engine {lnl} vs naive reference {reference}"
    );
}

/// Bootstrap analysis on a tiny, noisy alignment: supports may be low but
/// everything must hold together.
#[test]
fn tiny_noisy_bootstrap_analysis() {
    let w = SimulationConfig {
        mean_branch: 0.01, // nearly no signal
        ..SimulationConfig::new(5, 60, 17)
    }
    .generate();
    let analysis = BootstrapAnalysis {
        n_inferences: 2,
        n_bootstraps: 8,
        n_workers: 2,
        seed: 5,
        search: fast(),
    };
    let result = analysis.try_run(&w.alignment).unwrap();
    assert!(result.best_log_likelihood.is_finite());
    assert_eq!(result.bootstrap_trees.len(), 8);
    for &(_, s) in &result.best.support {
        assert!((0.0..=1.0).contains(&s));
    }
    // The consensus of noisy replicates is typically unresolved — it must
    // still render.
    let consensus = result.consensus(0.5);
    let names = w.alignment.taxon_names().to_vec();
    assert!(consensus.to_newick(&names).ends_with(';'));
}

/// Single-pattern alignments (one repeated column).
#[test]
fn single_pattern_alignment() {
    let aln = Alignment::from_named_sequences(&[
        ("a", "AAAA"),
        ("b", "CCCC"),
        ("c", "GGGG"),
        ("d", "TTTT"),
    ])
    .unwrap()
    .compress();
    assert_eq!(aln.n_patterns(), 1);
    let result = infer(&aln, &fast(), 1);
    assert!(result.log_likelihood.is_finite());
}

/// A checkpoint's exact-tree header is outside input: whatever taxon count
/// it claims, the reader answers with a typed error — it neither sizes an
/// allocation from the claim (an allocation failure aborts) nor indexes by
/// it.
#[test]
fn corrupt_exact_tree_headers_yield_typed_errors() {
    use phylo::error::PhyloError as E;
    use rand::SeedableRng;
    let good = Tree::random(6, 0.1, &mut rand::rngs::StdRng::seed_from_u64(7)).unwrap();
    let text = good.to_exact_string();
    assert_eq!(Tree::from_exact_string(&text).unwrap(), good);
    let body = text.split_once('\n').unwrap().1;
    let truncated: String = text.lines().take(7).map(|l| format!("{l}\n")).collect();
    let cases = [
        ("petabytes of nodes", format!("40000000000000 1\n{body}")),
        ("2n wraps to 2", format!("9223372036854775809 1\n{body}")),
        ("2n overflows", format!("18446744073709551615 1\n{body}")),
        ("more inner nodes in use than exist", format!("6 18446744073709551615\n{body}")),
        ("truncated body", truncated),
    ];
    for (what, input) in cases {
        match Tree::from_exact_string(&input) {
            Err(e @ E::Parse { format: "exact-tree", .. }) => assert!(!e.to_string().is_empty()),
            other => panic!("{what}: expected an exact-tree parse error, got {other:?}"),
        }
    }
}

/// A bootstrap job's checkpoint from before replicates were compacted was
/// written for the draw as weights on every pattern. The fingerprint counts
/// patterns, so the job — now on fewer — refuses the file with a typed error.
#[test]
fn bootstrap_checkpoint_for_the_uncompacted_replicate_is_refused() {
    use rand::{rngs::StdRng, SeedableRng};
    let aln = SimulationConfig::new(7, 200, 13).generate().alignment;
    let mut uncompacted = aln.clone();
    uncompacted.set_weights(aln.bootstrap_weights(&mut StdRng::seed_from_u64(4)));
    let replicate = aln.bootstrap_replicate(&mut StdRng::seed_from_u64(4));
    assert!(replicate.n_patterns() < uncompacted.n_patterns());

    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("uncompacted-job.ckpt");
    let _ = std::fs::remove_file(&path);
    let request = InferenceRequest::new(fast(), 4);
    let resume = |target| {
        let mut ckpt = SearchCheckpointer::new(&path, request.fingerprint(target));
        run_inference(target, &request, InferenceOptions::new().with_checkpoint(&mut ckpt))
    };
    resume(&uncompacted).unwrap();
    let err = resume(&replicate).unwrap_err();
    assert!(matches!(err, phylo::error::PhyloError::Checkpoint { .. }), "{err}");
}

// ---------------------------------------------------------------------------
// Fault matrix: every fault kind × every scheduler, end to end.
// ---------------------------------------------------------------------------

mod fault_matrix {
    use cellsim::cost::CostModel;
    use cellsim::fault::FaultPlan;
    use cellsim::tracelog::TraceLog;
    use raxml_cell::config::{OptConfig, Scheduler};
    use raxml_cell::experiment::{capture_workload, WorkloadSpec};
    use raxml_cell::offload::{price_trace, PricedTrace};
    use raxml_cell::sched::{schedule_makespan, DesParams, SimOutcome};

    const SCHEDULERS: [Scheduler; 4] = [
        Scheduler::Edtlp,
        Scheduler::Llp { workers: 2 },
        Scheduler::Llp { workers: 4 },
        Scheduler::Mgps,
    ];

    fn priced() -> PricedTrace {
        let workload = capture_workload(&WorkloadSpec::small()).expect("capture");
        price_trace(&workload.events, &CostModel::paper_calibrated(), &OptConfig::fully_optimized())
    }

    /// Eight bootstraps on the paper machine under `plan`, untraced.
    fn run(sched: Scheduler, trace: &PricedTrace, plan: &FaultPlan) -> SimOutcome {
        let (model, params) = (CostModel::paper_calibrated(), DesParams::default());
        schedule_makespan(sched, trace, 8, &model, &params, plan, &mut TraceLog::disabled())
    }

    /// A plan injecting only one fault kind at the given rate.
    fn single_kind_plan(kind: usize, seed: u64, rate: f64) -> FaultPlan {
        let mut plan = FaultPlan { seed, ..FaultPlan::none() };
        match kind {
            0 => plan.dma_failure_rate = rate,
            1 => plan.dma_timeout_rate = rate,
            2 => plan.signal_drop_rate = rate,
            3 => plan.signal_corrupt_rate = rate,
            4 => plan.stall_rate = rate,
            5 => plan = plan.with_death(0, 1_000_000),
            _ => unreachable!(),
        }
        plan
    }

    /// Every fault kind × every scheduler: no panics, finite makespans, and
    /// a makespan never *shorter* than the fault-free run.
    #[test]
    fn every_fault_kind_on_every_scheduler_completes() {
        let trace = priced();
        for &sched in &SCHEDULERS {
            let clean = run(sched, &trace, &FaultPlan::none()).makespan;
            for kind in 0..6 {
                let plan = single_kind_plan(kind, 17, 0.2);
                let out = run(sched, &trace, &plan);
                // Perturbing one worker's burst can reorder PPE grants and
                // occasionally *improve* global packing (a Graham-style
                // scheduling anomaly), so faults only guarantee "not much
                // faster", not strict monotonicity.
                assert!(
                    out.makespan as f64 >= clean as f64 * 0.95,
                    "{sched:?} kind {kind}: faults cut the makespan by >5%"
                );
                assert!(out.makespan > 0);
                if kind == 5 {
                    assert!(
                        out.faults.redispatches > 0 || out.faults.degradations > 0,
                        "{sched:?}: a dead SPE must force recovery work"
                    );
                }
            }
        }
    }

    /// Replaying the same plan is deterministic: two invocations agree on
    /// the makespan and the full fault report, for every scheduler.
    #[test]
    fn fault_replay_is_deterministic() {
        let trace = priced();
        for &sched in &SCHEDULERS {
            let plan = FaultPlan::uniform(23, 0.1);
            let a = run(sched, &trace, &plan);
            let b = run(sched, &trace, &plan);
            assert_eq!(a.makespan, b.makespan, "{sched:?}");
            assert_eq!(a.faults, b.faults, "{sched:?}");
            assert_eq!(a.stats.ppe_busy, b.stats.ppe_busy, "{sched:?}");
        }
    }

    /// A plan that can never inject is the fault-free path, bit for bit,
    /// whatever its seed: same makespan and statistics as `FaultPlan::none()`.
    #[test]
    fn inert_plan_is_bit_exact_for_every_scheduler() {
        let trace = priced();
        for &sched in &SCHEDULERS {
            let clean = run(sched, &trace, &FaultPlan::none());
            let inert = run(sched, &trace, &FaultPlan::uniform(41, 0.0));
            assert_eq!(inert.makespan, clean.makespan, "{sched:?}");
            assert_eq!(inert.stats.ppe_busy, clean.stats.ppe_busy, "{sched:?}");
            assert!(inert.faults.is_clean(), "{sched:?}: inert plan must report nothing");
        }
    }
}

/// Larger trees keep the engine honest: a 96-taxon inference completes and
/// improves on its starting tree.
#[test]
fn mid_scale_inference_is_sane() {
    let w = SimulationConfig::new(96, 300, 31).generate();
    let mut cfg = fast();
    cfg.spr_radius = 2;
    cfg.max_spr_rounds = 1;
    cfg.optimize_alpha = false;
    let result = infer(&w.alignment, &cfg, 1);
    assert!(result.log_likelihood.is_finite());
    result.tree.validate().unwrap();
    assert_eq!(result.tree.n_taxa(), 96);
}
