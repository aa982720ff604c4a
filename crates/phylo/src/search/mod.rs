//! Maximum-likelihood tree search: randomized stepwise-addition parsimony
//! starting trees, SPR hill climbing, and model parameter optimization —
//! the full RAxML-style inference pipeline (paper §3).

pub mod nni;
pub mod parsimony;
pub mod spr;

pub use nni::{nni_round, NniRoundStats};
pub use parsimony::{parsimony_score, stepwise_addition_tree};
pub use spr::{spr_round, SprRoundStats};

use crate::alignment::PatternAlignment;
use crate::checkpoint::{SearchCheckpoint, SearchCheckpointer};
use crate::error::Result;
use crate::likelihood::engine::LikelihoodEngine;
use crate::likelihood::{LikelihoodConfig, LikelihoodWorkspace, WorkspaceOptions};
use crate::math::brent_minimize;
use crate::model::{GammaRates, SubstModel};
use crate::trace::Trace;
use crate::tree::Tree;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Bounds for Γ-shape optimization.
const ALPHA_MIN: f64 = 0.02;
const ALPHA_MAX: f64 = 20.0;
/// Bounds for GTR exchangeability optimization.
const RATE_MIN: f64 = 0.02;
const RATE_MAX: f64 = 50.0;

/// Configuration of a full ML inference.
#[derive(Debug, Clone)]
pub struct SearchConfig {
    /// The likelihood engine's `exp` implementation and loop-level
    /// parallelism (the kernels' lane width follows the CPU).
    pub likelihood: LikelihoodConfig,
    /// Number of discrete Γ rate categories (RAxML default: 4).
    pub n_rate_categories: usize,
    /// Initial Γ shape.
    pub initial_alpha: f64,
    /// Optimize the Γ shape with Brent's method.
    pub optimize_alpha: bool,
    /// Optimize the five free GTR exchangeabilities.
    pub optimize_exchangeabilities: bool,
    /// SPR rearrangement radius (RAxML's rearrangement setting).
    pub spr_radius: usize,
    /// Maximum SPR improvement rounds.
    pub max_spr_rounds: usize,
    /// Branch-length smoothing passes in the final optimization.
    pub branch_smoothings: usize,
    /// Minimum log-likelihood improvement to accept an SPR move.
    pub epsilon: f64,
    /// Explicit substitution model; `None` uses GTR with empirical base
    /// frequencies and unit exchangeabilities.
    pub model: Option<SubstModel>,
    /// Initial branch length for starting trees.
    pub initial_branch_length: f64,
    /// Vestigial (fieldless, selects nothing); see [`WorkspaceOptions`].
    pub workspace: WorkspaceOptions,
}

impl SearchConfig {
    /// Fast settings for tests and demos: small radius, few rounds.
    pub fn fast() -> SearchConfig {
        SearchConfig {
            likelihood: LikelihoodConfig::optimized(),
            n_rate_categories: 4,
            initial_alpha: 0.7,
            optimize_alpha: true,
            optimize_exchangeabilities: false,
            spr_radius: 4,
            max_spr_rounds: 3,
            branch_smoothings: 2,
            epsilon: 1e-3,
            model: None,
            initial_branch_length: 0.1,
            workspace: WorkspaceOptions,
        }
    }

    /// Standard analysis settings (the defaults a user would run).
    pub fn standard() -> SearchConfig {
        SearchConfig {
            spr_radius: 8,
            max_spr_rounds: 10,
            branch_smoothings: 4,
            optimize_exchangeabilities: true,
            ..SearchConfig::fast()
        }
    }

    /// Thorough settings for final published analyses.
    pub fn thorough() -> SearchConfig {
        SearchConfig {
            spr_radius: 15,
            max_spr_rounds: 25,
            branch_smoothings: 8,
            epsilon: 1e-4,
            ..SearchConfig::standard()
        }
    }

    /// Start building a configuration from the [`SearchConfig::standard`]
    /// preset: `SearchConfig::builder().spr_radius(10).build()`.
    pub fn builder() -> SearchConfigBuilder {
        SearchConfig::standard().to_builder()
    }

    /// Turn any configuration (e.g. a preset) into a builder for further
    /// adjustment: `SearchConfig::fast().to_builder().epsilon(1e-4).build()`.
    pub fn to_builder(self) -> SearchConfigBuilder {
        SearchConfigBuilder { config: self }
    }
}

/// Builder for [`SearchConfig`] — the supported way to deviate from the
/// presets without poking fields one by one.
#[derive(Debug, Clone)]
pub struct SearchConfigBuilder {
    config: SearchConfig,
}

macro_rules! builder_setters {
    ($($(#[$doc:meta])* $field:ident: $ty:ty),+ $(,)?) => {
        $(
            $(#[$doc])*
            pub fn $field(mut self, value: $ty) -> SearchConfigBuilder {
                self.config.$field = value;
                self
            }
        )+
    };
}

impl SearchConfigBuilder {
    builder_setters! {
        /// The likelihood engine's `exp` implementation and loop-level
        /// parallelism.
        likelihood: LikelihoodConfig,
        /// Number of discrete Γ rate categories.
        n_rate_categories: usize,
        /// Initial Γ shape.
        initial_alpha: f64,
        /// Optimize the Γ shape with Brent's method.
        optimize_alpha: bool,
        /// Optimize the five free GTR exchangeabilities.
        optimize_exchangeabilities: bool,
        /// SPR rearrangement radius.
        spr_radius: usize,
        /// Maximum SPR improvement rounds.
        max_spr_rounds: usize,
        /// Branch-length smoothing passes in the final optimization.
        branch_smoothings: usize,
        /// Minimum log-likelihood improvement to accept an SPR move.
        epsilon: f64,
        /// Initial branch length for starting trees.
        initial_branch_length: f64,
    }

    /// Use an explicit substitution model instead of empirical GTR.
    pub fn model(mut self, model: SubstModel) -> SearchConfigBuilder {
        self.config.model = Some(model);
        self
    }

    /// Finish, yielding the configuration.
    pub fn build(self) -> SearchConfig {
        self.config
    }
}

/// Result of one ML inference.
#[derive(Debug, Clone)]
pub struct SearchResult {
    /// The best tree found.
    pub tree: Tree,
    /// Its log-likelihood.
    pub log_likelihood: f64,
    /// Parsimony score of the starting tree.
    pub starting_parsimony: f64,
    /// Optimized Γ shape.
    pub alpha: f64,
    /// The substitution model after optimization.
    pub model: SubstModel,
    /// SPR rounds actually run.
    pub rounds: usize,
    /// Total SPR moves applied.
    pub moves_applied: usize,
    /// Per-SPR-round wall-clock windows as `(start_ns, end_ns)` offsets from
    /// the moment the search began, one entry per round *executed in this
    /// process* (rounds replayed from a checkpoint have no window). Each
    /// window covers the SPR sweep plus the post-round branch/alpha polish —
    /// the same slice the kernel trace's round marks delimit — so a serving
    /// tier can rebase them onto its own clock and emit causal round spans.
    pub round_walls: Vec<(u64, u64)>,
    /// Kernel trace of the whole inference.
    pub trace: Trace,
}

/// What to infer: the search configuration plus the seed controlling the
/// randomized stepwise-addition order. Distinct seeds reproduce the paper's
/// "multiple inferences on distinct starting trees". This is the one job
/// description shared by the library entry point ([`run_inference`]), the
/// inference farm, and the `serve` job-submission service.
#[derive(Debug, Clone)]
pub struct InferenceRequest {
    /// Full search settings (preset or builder-derived).
    pub config: SearchConfig,
    /// Seed for the randomized addition order.
    pub seed: u64,
}

impl InferenceRequest {
    /// A request running `config` with `seed`.
    pub fn new(config: SearchConfig, seed: u64) -> InferenceRequest {
        InferenceRequest { config, seed }
    }

    /// Fingerprint tying a [`SearchCheckpointer`] file to this exact request
    /// on this exact alignment (see [`crate::checkpoint::search_fingerprint`]).
    pub fn fingerprint(&self, aln: &PatternAlignment) -> u64 {
        crate::checkpoint::search_fingerprint(aln, &self.config, self.seed)
    }
}

/// How to execute one inference: the orthogonal execution concerns
/// (tracing, workspace reuse, checkpointing, memory budget). All options
/// compose; every combination produces bit-identical trees,
/// log-likelihoods, and Γ shapes (only the kernel [`Trace`] differs across
/// trace/checkpoint settings).
#[derive(Default)]
pub struct InferenceOptions<'a> {
    /// Record the full kernel event trace (needed by the Cell simulator
    /// replay); counters are collected either way.
    pub record_events: bool,
    /// Run the engine on a caller-supplied (typically pooled) workspace
    /// arena instead of a fresh one; it is handed back in the
    /// [`InferenceOutcome`] so steady-state replicates allocate no buffers.
    pub workspace: Option<LikelihoodWorkspace>,
    /// Persist a snapshot after every SPR round and resume from one when
    /// the checkpointer already holds a snapshot of *this* request
    /// (fingerprint-enforced); the resumed run finishes bit-identically.
    pub checkpoint: Option<&'a mut SearchCheckpointer>,
    /// Upper bound (bytes) on the likelihood-workspace footprint. When the
    /// estimated CLV arena for this alignment/rate-count exceeds it, the
    /// inference fails up front with
    /// [`crate::error::PhyloError::MemoryBudget`] instead of OOM-aborting
    /// mid-run. `None` (the default) disables the check.
    pub memory_budget: Option<u64>,
}

impl<'a> InferenceOptions<'a> {
    /// The defaults: no event trace, fresh workspace, no checkpoint.
    pub fn new() -> InferenceOptions<'a> {
        InferenceOptions::default()
    }

    /// Record the full kernel event trace.
    pub fn traced(mut self) -> InferenceOptions<'a> {
        self.record_events = true;
        self
    }

    /// Reuse `workspace` instead of allocating a fresh arena.
    pub fn with_workspace(mut self, workspace: LikelihoodWorkspace) -> InferenceOptions<'a> {
        self.workspace = Some(workspace);
        self
    }

    /// Snapshot to (and resume from) `ckpt`.
    pub fn with_checkpoint(mut self, ckpt: &'a mut SearchCheckpointer) -> InferenceOptions<'a> {
        self.checkpoint = Some(ckpt);
        self
    }

    /// Reject the inference up front if its workspace would exceed
    /// `budget_bytes`.
    pub fn with_memory_budget(mut self, budget_bytes: u64) -> InferenceOptions<'a> {
        self.memory_budget = Some(budget_bytes);
        self
    }
}

/// Result of [`run_inference`]: the search result plus the workspace arena
/// the engine ran on, handed back for reuse by the next job.
#[derive(Debug)]
pub struct InferenceOutcome {
    /// The inference result proper.
    pub result: SearchResult,
    /// The engine's workspace arena (the caller-supplied one if
    /// [`InferenceOptions::workspace`] was set, else the fresh one).
    pub workspace: LikelihoodWorkspace,
}

/// Run one full ML inference: stepwise-addition start, branch and model
/// optimization, SPR hill climbing. Fails with
/// [`crate::error::PhyloError::Numerical`] when the likelihood goes
/// non-finite beyond what forced conservative re-evaluation can repair,
/// [`crate::error::PhyloError::Interrupted`] when a checkpoint abort policy
/// fires, and [`crate::error::PhyloError::Checkpoint`] when resuming against
/// a foreign snapshot.
pub fn run_inference(
    aln: &PatternAlignment,
    request: &InferenceRequest,
    options: InferenceOptions<'_>,
) -> Result<InferenceOutcome> {
    let InferenceOptions { record_events, workspace, checkpoint, memory_budget } = options;
    LikelihoodWorkspace::check_budget(
        aln.n_taxa(),
        aln.n_patterns(),
        request.config.n_rate_categories,
        memory_budget,
    )?;
    let workspace = workspace.unwrap_or_default();
    run_search(aln, &request.config, request.seed, record_events, workspace, checkpoint)
        .map(|(result, workspace)| InferenceOutcome { result, workspace })
}

fn run_search(
    aln: &PatternAlignment,
    config: &SearchConfig,
    seed: u64,
    record_events: bool,
    workspace: LikelihoodWorkspace,
    mut ckpt: Option<&mut SearchCheckpointer>,
) -> Result<(SearchResult, LikelihoodWorkspace)> {
    let mut rng = StdRng::seed_from_u64(seed);

    // 1. Starting tree: randomized stepwise-addition parsimony. Re-run even
    //    when resuming — it is a pure function of the seed, and recomputing
    //    it keeps the checkpoint format down to the genuinely mutable state.
    let mut tree = stepwise_addition_tree(aln, config.initial_branch_length, &mut rng)
        .expect("alignment has >= 3 taxa");
    let starting_parsimony = parsimony_score(&tree, aln);

    // 2. Engine.
    let model = config.model.clone().unwrap_or_else(|| {
        SubstModel::gtr(aln.base_frequencies(), [1.0; 6]).expect("empirical GTR is valid")
    });
    let rates = GammaRates::new(config.initial_alpha, config.n_rate_categories)
        .expect("configured rate model is valid");
    let mut engine = LikelihoodEngine::with_workspace(
        aln,
        model,
        rates,
        config.likelihood,
        config.workspace,
        workspace,
    );
    if record_events {
        engine.enable_event_recording();
    }

    // Resume: overwrite the freshly built state with the snapshot. The
    // exact-slot tree string preserves arena layout, so the resumed SPR
    // scan enumerates candidates in the identical order.
    let mut rounds = 0;
    let mut moves_applied = 0;
    let mut converged = false;
    let mut resumed = false;
    if let Some(ck) = ckpt.as_deref_mut() {
        if let Some(snap) = ck.load()? {
            tree = Tree::from_exact_string(&snap.tree_exact)?;
            engine.set_alpha(f64::from_bits(snap.alpha_bits))?;
            rounds = snap.rounds_done;
            moves_applied = snap.moves_applied;
            converged = snap.last_applied == 0;
            resumed = true;
        }
    }

    // 3. Initial branch lengths + model (already folded into the snapshot
    //    when resuming).
    if !resumed {
        engine.optimize_all_branches(&mut tree, 2);
        if config.optimize_alpha {
            optimize_alpha(&mut engine, &tree);
            engine.optimize_all_branches(&mut tree, 1);
        }
    }

    // 4. SPR hill climbing. `round` stays the absolute round index so the
    //    alternating alpha re-optimization keeps its parity across a resume.
    let search_epoch = Instant::now();
    let mut round_walls = Vec::new();
    if !converged {
        let first_round = rounds;
        for round in first_round..config.max_spr_rounds {
            let wall_start = search_epoch.elapsed().as_nanos() as u64;
            // Mark the round in the kernel trace: everything from the SPR
            // sweep through the post-round branch/alpha polish belongs to it
            // (the observability layer slices per-round workloads this way).
            engine.begin_spr_round(round as u32);
            let stats = spr_round(&mut engine, &mut tree, config.spr_radius, config.epsilon);
            rounds = round + 1;
            moves_applied += stats.applied;
            engine.optimize_all_branches(&mut tree, 1);
            if config.optimize_alpha && round % 2 == 1 {
                optimize_alpha(&mut engine, &tree);
            }
            engine.end_spr_round();
            round_walls.push((wall_start, search_epoch.elapsed().as_nanos() as u64));
            if let Some(ck) = ckpt.as_deref_mut() {
                ck.save(&SearchCheckpoint {
                    rounds_done: rounds,
                    moves_applied,
                    last_applied: stats.applied,
                    alpha_bits: engine.rates().alpha().to_bits(),
                    tree_exact: tree.to_exact_string(),
                })?;
            }
            if stats.applied == 0 {
                break;
            }
        }
    }

    // 5. Final model + branch polish.
    if config.optimize_exchangeabilities {
        optimize_exchangeabilities(&mut engine, &tree);
        engine.optimize_all_branches(&mut tree, 1);
    }
    if config.optimize_alpha {
        optimize_alpha(&mut engine, &tree);
    }
    // The final smoothing pass determines the reported likelihood: it is the
    // log-likelihood of the returned tree under the returned model.
    let mut lnl = engine.optimize_all_branches(&mut tree, config.branch_smoothings);
    if !lnl.is_finite() {
        // Numerical guard: one forced conservative re-evaluation; a value
        // that is still non-finite escalates to a typed error.
        lnl = engine.try_log_likelihood(&tree)?;
    }

    let alpha = engine.rates().alpha();
    let model = engine.model().clone();
    let trace = engine.take_trace();
    let workspace = engine.into_workspace();
    Ok((
        SearchResult {
            tree,
            log_likelihood: lnl,
            starting_parsimony,
            alpha,
            model,
            rounds,
            moves_applied,
            round_walls,
            trace,
        },
        workspace,
    ))
}

/// Optimize the Γ shape parameter with Brent's method; leaves the engine at
/// the optimum and returns the log-likelihood there.
pub fn optimize_alpha(engine: &mut LikelihoodEngine<'_>, tree: &Tree) -> f64 {
    let (best_alpha, neg_lnl) = brent_minimize(
        |a| {
            engine.set_alpha(a).expect("alpha within bounds");
            -engine.log_likelihood(tree)
        },
        ALPHA_MIN,
        ALPHA_MAX,
        1e-3,
        50,
    );
    engine.set_alpha(best_alpha).expect("optimum within bounds");
    -neg_lnl
}

/// One round of coordinate-wise Brent optimization over the five free GTR
/// exchangeabilities (GT stays fixed at 1 as the reference rate).
pub fn optimize_exchangeabilities(engine: &mut LikelihoodEngine<'_>, tree: &Tree) -> f64 {
    let mut lnl = engine.log_likelihood(tree);
    for idx in 0..5 {
        let current = engine.model().exchange()[idx];
        let (best, neg_lnl) = brent_minimize(
            |r| {
                let mut m = engine.model().clone();
                m.set_exchange(idx, r).expect("rate within bounds");
                engine.set_model(m);
                -engine.log_likelihood(tree)
            },
            RATE_MIN,
            RATE_MAX,
            1e-3,
            40,
        );
        // Keep the optimum only if it genuinely improves (Brent may return
        // a boundary point on flat surfaces).
        if -neg_lnl >= lnl {
            let mut m = engine.model().clone();
            m.set_exchange(idx, best).expect("rate within bounds");
            engine.set_model(m);
            lnl = -neg_lnl;
        } else {
            let mut m = engine.model().clone();
            m.set_exchange(idx, current).expect("restoring previous rate");
            engine.set_model(m);
        }
    }
    lnl
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bipartitions::robinson_foulds;
    use crate::simulate::SimulationConfig;

    /// The common case, spelled with the unified entry point.
    fn infer(aln: &PatternAlignment, cfg: &SearchConfig, seed: u64) -> SearchResult {
        run_inference(aln, &InferenceRequest::new(cfg.clone(), seed), InferenceOptions::new())
            .unwrap()
            .result
    }

    #[test]
    fn inference_recovers_true_topology_on_clean_data() {
        let w =
            SimulationConfig { mean_branch: 0.12, ..SimulationConfig::new(8, 1200, 42) }.generate();
        let result = infer(&w.alignment, &SearchConfig::fast(), 1);
        assert_eq!(
            robinson_foulds(&result.tree, &w.true_tree),
            0,
            "ML search should recover the generating topology"
        );
        assert!(result.log_likelihood.is_finite());
        result.tree.validate().unwrap();
    }

    #[test]
    fn inference_is_deterministic_given_seed() {
        let w = SimulationConfig::new(7, 300, 11).generate();
        let a = infer(&w.alignment, &SearchConfig::fast(), 5);
        let b = infer(&w.alignment, &SearchConfig::fast(), 5);
        assert_eq!(a.tree, b.tree);
        assert_eq!(a.log_likelihood, b.log_likelihood);
    }

    #[test]
    fn distinct_seeds_explore_distinct_starting_trees() {
        let w = SimulationConfig::new(10, 150, 23).generate();
        let a = infer(&w.alignment, &SearchConfig::fast(), 1);
        let b = infer(&w.alignment, &SearchConfig::fast(), 2);
        // Final trees may coincide; starting parsimony scores usually
        // differ, and likelihoods must both be sane.
        assert!(a.log_likelihood < 0.0 && b.log_likelihood < 0.0);
        let _ = (a.starting_parsimony, b.starting_parsimony);
    }

    #[test]
    fn alpha_optimization_improves_likelihood() {
        let w = SimulationConfig {
            alpha: 0.3, // strong rate heterogeneity in the data
            ..SimulationConfig::new(8, 600, 77)
        }
        .generate();
        let mut no_alpha_cfg = SearchConfig::fast();
        no_alpha_cfg.optimize_alpha = false;
        no_alpha_cfg.initial_alpha = 5.0; // deliberately wrong
        let mut alpha_cfg = no_alpha_cfg.clone();
        alpha_cfg.optimize_alpha = true;
        let without = infer(&w.alignment, &no_alpha_cfg, 3);
        let with = infer(&w.alignment, &alpha_cfg, 3);
        assert!(
            with.log_likelihood > without.log_likelihood,
            "alpha optimization must help on heterogeneous data: {} vs {}",
            with.log_likelihood,
            without.log_likelihood
        );
        assert!(with.alpha < 2.0, "fitted alpha should move toward the truth, got {}", with.alpha);
    }

    #[test]
    fn search_likelihood_beats_starting_tree() {
        let w = SimulationConfig::new(9, 400, 55).generate();
        let cfg = SearchConfig::fast();
        let result = infer(&w.alignment, &cfg, 9);
        // Compare against the unoptimized starting tree's likelihood.
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let start = stepwise_addition_tree(&w.alignment, 0.1, &mut rng).unwrap();
        let model = SubstModel::gtr(w.alignment.base_frequencies(), [1.0; 6]).unwrap();
        let mut eng = LikelihoodEngine::new(
            &w.alignment,
            model,
            GammaRates::standard(cfg.initial_alpha).unwrap(),
            cfg.likelihood,
        );
        let start_lnl = eng.log_likelihood(&start);
        assert!(result.log_likelihood > start_lnl);
    }

    #[test]
    fn builder_overrides_presets() {
        let cfg = SearchConfig::builder()
            .spr_radius(11)
            .epsilon(1e-5)
            .optimize_exchangeabilities(false)
            .build();
        assert_eq!(cfg.spr_radius, 11);
        assert_eq!(cfg.epsilon, 1e-5);
        assert!(!cfg.optimize_exchangeabilities);
        // Untouched fields keep the standard preset's values.
        let std_cfg = SearchConfig::standard();
        assert_eq!(cfg.max_spr_rounds, std_cfg.max_spr_rounds);
        assert_eq!(cfg.n_rate_categories, std_cfg.n_rate_categories);

        let from_fast = SearchConfig::fast().to_builder().max_spr_rounds(1).build();
        assert_eq!(from_fast.spr_radius, SearchConfig::fast().spr_radius);
        assert_eq!(from_fast.max_spr_rounds, 1);
    }

    /// A recycled workspace arena must not change any inference output.
    #[test]
    fn pooled_inference_is_bit_identical_to_fresh() {
        let w = SimulationConfig::new(7, 300, 11).generate();
        let cfg = SearchConfig::fast();
        let fresh = infer(&w.alignment, &cfg, 5);
        // Warm a workspace on a different seed, then reuse it.
        let warm = run_inference(
            &w.alignment,
            &InferenceRequest::new(cfg.clone(), 6),
            InferenceOptions::new(),
        )
        .unwrap()
        .workspace;
        let pooled = run_inference(
            &w.alignment,
            &InferenceRequest::new(cfg.clone(), 5),
            InferenceOptions::new().with_workspace(warm),
        )
        .unwrap()
        .result;
        assert_eq!(fresh.tree, pooled.tree);
        assert_eq!(fresh.log_likelihood, pooled.log_likelihood);
        assert_eq!(fresh.alpha, pooled.alpha);
    }

    /// Event recording is pure observation: it must not perturb any result.
    #[test]
    fn traced_search_matches_untraced_bit_for_bit() {
        let w = SimulationConfig::new(7, 300, 11).generate();
        let cfg = SearchConfig::fast();
        let plain = infer(&w.alignment, &cfg, 5);
        let traced = run_inference(
            &w.alignment,
            &InferenceRequest::new(cfg.clone(), 5),
            InferenceOptions::new().traced(),
        )
        .unwrap()
        .result;
        assert_eq!(plain.tree, traced.tree);
        assert_eq!(plain.log_likelihood.to_bits(), traced.log_likelihood.to_bits());
        assert_eq!(plain.alpha.to_bits(), traced.alpha.to_bits());
    }

    fn ckpt_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("raxml-cell-search-ckpt-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        path
    }

    /// Kill the search after its first SPR round, resume from the on-disk
    /// snapshot, and demand the resumed run lands on the exact same tree,
    /// log-likelihood, and Γ shape as the uninterrupted run.
    #[test]
    fn killed_search_resumes_bit_identically() {
        use crate::checkpoint::{search_fingerprint, SearchCheckpointer};

        let w = SimulationConfig::new(10, 150, 23).generate();
        let cfg = SearchConfig::fast();
        // Pick a starting tree bad enough that the climb needs several
        // rounds — otherwise the kill after round 1 has nothing to skip.
        let (seed, uninterrupted) = (0..32)
            .map(|s| (s, infer(&w.alignment, &cfg, s)))
            .find(|(_, r)| r.rounds >= 2 && r.moves_applied > 0)
            .expect("some stepwise tree needs a multi-round SPR climb");

        let path = ckpt_path("kill-resume.ckpt");
        let fp = search_fingerprint(&w.alignment, &cfg, seed);

        // First attempt dies right after the round-1 snapshot lands.
        let mut dying = SearchCheckpointer::new(&path, fp).abort_after_saves(1);
        let request = InferenceRequest::new(cfg.clone(), seed);
        let err = run_inference(
            &w.alignment,
            &request,
            InferenceOptions::new().with_checkpoint(&mut dying),
        )
        .unwrap_err();
        assert_eq!(err, crate::error::PhyloError::Interrupted { completed: 1 });

        // Second attempt resumes from the snapshot and runs to completion.
        let mut ckpt = SearchCheckpointer::new(&path, fp);
        let resumed = run_inference(
            &w.alignment,
            &request,
            InferenceOptions::new().with_checkpoint(&mut ckpt),
        )
        .unwrap()
        .result;

        assert_eq!(resumed.tree.to_exact_string(), uninterrupted.tree.to_exact_string());
        assert_eq!(resumed.log_likelihood.to_bits(), uninterrupted.log_likelihood.to_bits());
        assert_eq!(resumed.alpha.to_bits(), uninterrupted.alpha.to_bits());
        assert_eq!(resumed.rounds, uninterrupted.rounds);
        assert_eq!(resumed.moves_applied, uninterrupted.moves_applied);
        assert_eq!(resumed.starting_parsimony, uninterrupted.starting_parsimony);
    }

    /// A checkpoint written for one analysis must refuse to resume another.
    #[test]
    fn checkpoint_refuses_a_different_seed() {
        use crate::checkpoint::SearchCheckpointer;

        let w = SimulationConfig::new(7, 200, 13).generate();
        let cfg = SearchConfig::fast();
        let path = ckpt_path("wrong-seed.ckpt");

        let one = InferenceRequest::new(cfg.clone(), 1);
        let mut first = SearchCheckpointer::new(&path, one.fingerprint(&w.alignment));
        run_inference(&w.alignment, &one, InferenceOptions::new().with_checkpoint(&mut first))
            .unwrap();

        // Same file, different seed ⇒ different fingerprint ⇒ typed refusal.
        let two = InferenceRequest::new(cfg.clone(), 2);
        let mut other = SearchCheckpointer::new(&path, two.fingerprint(&w.alignment));
        let err =
            run_inference(&w.alignment, &two, InferenceOptions::new().with_checkpoint(&mut other))
                .unwrap_err();
        assert!(matches!(err, crate::error::PhyloError::Checkpoint { .. }), "{err}");
    }

    #[test]
    fn trace_is_collected() {
        let w = SimulationConfig::new(6, 120, 3).generate();
        let result = run_inference(
            &w.alignment,
            &InferenceRequest::new(SearchConfig::fast(), 1),
            InferenceOptions::new().traced(),
        )
        .unwrap()
        .result;
        let c = result.trace.counters();
        assert!(c.newview_calls > 100, "a search makes many newview calls: {c:?}");
        assert!(c.makenewz_calls > 10);
        assert!(c.evaluate_calls > 10);
        assert!(!result.trace.events().is_empty());
    }
}
