//! The likelihood engine: per-node partial buffers, lazy virtual-root
//! traversal (`newview`), branch log-likelihood (`evaluate`) and Newton
//! branch-length optimization (`makenewz`) — the three functions the paper
//! offloads to the Cell SPEs, with the same laziness structure:
//! "`makenewz()` and `evaluate()` initially make calls to `newview()` before
//! they can execute their own computation" (§5.2).
//!
//! All buffers live in a [`LikelihoodWorkspace`] arena owned by the engine:
//! after warm-up, `newview`/`evaluate`/`makenewz` perform **zero heap
//! allocation**. Traversals compile into a [`TraversalOps`] descriptor list
//! executed by one kernel-driver loop, sequentially or once per pattern
//! stripe under loop-level parallelism.

use super::kernels::{
    self, build_sumtable_into, fill_tip_tables, Child, EvalOperand, Mat4, NewtonPass, ScaleStats,
    TipTable16,
};
use super::workspace::{
    LikelihoodWorkspace, SprScratch, TraversalOp, TraversalOps, WorkspaceOptions,
};
use super::LikelihoodConfig;
use crate::alignment::PatternAlignment;
use crate::model::{ExpImpl, GammaRates, SubstModel};
use crate::parallel::{evaluate_dispatch, newton_dispatch, run_striped, stripe_width};
use crate::trace::{CallParent, KernelEvent, KernelOp, Trace};
use crate::tree::{clamp_branch, Edge, NodeId, Tree};

/// Maximum Newton iterations per `makenewz`.
const NEWTON_MAX_ITER: usize = 32;
/// Newton convergence tolerance on the branch length.
const NEWTON_TOL: f64 = 1e-9;

/// Cross-move partial-reuse accounting (the BEAGLE-style ledger): how many
/// subtree roots a traversal found already valid — skipping their entire
/// subtrees — versus how many `newview` descriptors actually executed.
/// Search moves that invalidate narrowly (SPR/NNI targeted bookkeeping)
/// drive `reused` up; an engine that flushed its whole cache per candidate
/// would show `reused == 0` between moves.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReuseStats {
    /// Traversal entries satisfied by a cached partial (subtree skipped).
    pub partials_reused: u64,
    /// `newview` descriptors executed (partials recomputed).
    pub partials_recomputed: u64,
}

/// Per-rate transition matrices for a branch of length `t`, written into a
/// caller-owned buffer of one slot per rate (free function so the workspace
/// can be borrowed mutably while the model/rates fields are read).
fn fill_pmats(model: &SubstModel, rates: &[f64], t: f64, exp_impl: ExpImpl, out: &mut [Mat4]) {
    assert_eq!(out.len(), rates.len(), "one P matrix per rate category");
    for (slot, &r) in out.iter_mut().zip(rates) {
        *slot = model.transition_matrix(t, r, exp_impl);
    }
}

/// Evaluate operand for a node, borrowing workspace buffers directly.
fn operand_in<'w>(
    aln: &'w PatternAlignment,
    n_taxa: usize,
    partials: &'w [Vec<f64>],
    scales: &'w [Vec<u32>],
    node: NodeId,
) -> EvalOperand<'w> {
    if node < n_taxa {
        EvalOperand::Tip { codes: aln.tip_row(node) }
    } else {
        EvalOperand::Inner { x: &partials[node - n_taxa], scale: &scales[node - n_taxa] }
    }
}

/// `newview` child operand for a descriptor, borrowing workspace buffers.
#[allow(clippy::too_many_arguments)]
fn child_in<'w>(
    aln: &'w PatternAlignment,
    n_taxa: usize,
    partials: &'w [Vec<f64>],
    scales: &'w [Vec<u32>],
    pmats: &'w [Mat4],
    tables: &'w [TipTable16],
    node: NodeId,
    is_tip: bool,
) -> Child<'w> {
    if is_tip {
        Child::Tip { codes: aln.tip_row(node), tables }
    } else {
        Child::Inner { x: &partials[node - n_taxa], scale: &scales[node - n_taxa], pmats }
    }
}

/// The likelihood engine. One engine serves one alignment + model + tree
/// family; it owns a [`LikelihoodWorkspace`] holding the partial-likelihood
/// buffers for every inner node plus all kernel scratch.
pub struct LikelihoodEngine<'a> {
    aln: &'a PatternAlignment,
    model: SubstModel,
    rates: GammaRates,
    config: LikelihoodConfig,
    n_patterns: usize,
    n_rates: usize,
    n_taxa: usize,
    ws: LikelihoodWorkspace,
    trace: Trace,
    reuse: ReuseStats,
    /// Test hook: force the next guarded evaluation to observe a NaN.
    poison_numerics: bool,
}

impl<'a> LikelihoodEngine<'a> {
    /// Create an engine for an alignment, substitution model and rate model
    /// on a fresh arena.
    pub fn new(
        aln: &'a PatternAlignment,
        model: SubstModel,
        rates: GammaRates,
        config: LikelihoodConfig,
    ) -> LikelihoodEngine<'a> {
        LikelihoodEngine::with_workspace(
            aln,
            model,
            rates,
            config,
            WorkspaceOptions,
            LikelihoodWorkspace::new(),
        )
    }

    /// Build an engine on top of an existing (possibly recycled) workspace
    /// arena: the arena is resized for this problem's geometry — reusing
    /// its capacity — and all cached partials are invalidated. This is how
    /// pooled workers avoid reallocating buffers per bootstrap replicate.
    /// `_options` is the vestigial [`WorkspaceOptions`]; it selects nothing.
    pub fn with_workspace(
        aln: &'a PatternAlignment,
        model: SubstModel,
        rates: GammaRates,
        config: LikelihoodConfig,
        _options: WorkspaceOptions,
        mut ws: LikelihoodWorkspace,
    ) -> LikelihoodEngine<'a> {
        let n_taxa = aln.n_taxa();
        let n_patterns = aln.n_patterns();
        let n_rates = rates.n_categories();
        ws.ensure(n_taxa, n_patterns, n_rates);
        LikelihoodEngine {
            aln,
            model,
            rates,
            config,
            n_patterns,
            n_rates,
            n_taxa,
            ws,
            trace: Trace::counters_only(),
            reuse: ReuseStats::default(),
            poison_numerics: false,
        }
    }

    /// Consume the engine, recovering its workspace arena for reuse.
    pub fn into_workspace(self) -> LikelihoodWorkspace {
        self.ws
    }

    /// The SPR scan scratch held by this engine's workspace.
    pub(crate) fn spr_scratch_mut(&mut self) -> &mut SprScratch {
        &mut self.ws.spr
    }

    /// The alignment this engine evaluates against.
    pub fn alignment(&self) -> &PatternAlignment {
        self.aln
    }

    /// Current substitution model.
    pub fn model(&self) -> &SubstModel {
        &self.model
    }

    /// Current rate model.
    pub fn rates(&self) -> &GammaRates {
        &self.rates
    }

    /// Engine configuration.
    pub fn config(&self) -> &LikelihoodConfig {
        &self.config
    }

    /// The descriptor list compiled by the most recent traversal (empty
    /// before any traversal, or when every partial it needed was cached).
    pub fn last_traversal(&self) -> &TraversalOps {
        &self.ws.ops
    }

    /// The cached partial vector and scale counts of an inner node, if that
    /// node currently holds a valid partial: `(partial, scales, toward)`.
    /// Tips and stale inner nodes return `None`. Exposed for equivalence
    /// tests (sequential vs striped, fresh vs recycled arenas).
    pub fn node_partial(&self, node: NodeId) -> Option<(&[f64], &[u32], NodeId)> {
        if node < self.n_taxa {
            return None;
        }
        let idx = self.inner_idx(node);
        if !self.slot_is_current(idx) {
            return None;
        }
        self.ws.orientation[idx]
            .map(|tw| (self.ws.partials[idx].as_slice(), self.ws.scales[idx].as_slice(), tw))
    }

    /// Cross-move partial-reuse accounting since the last
    /// [`Self::reset_reuse_stats`].
    pub fn reuse_stats(&self) -> ReuseStats {
        self.reuse
    }

    /// Zero the reuse ledger (e.g. at a search-round boundary).
    pub fn reset_reuse_stats(&mut self) {
        self.reuse = ReuseStats::default();
    }

    /// A slot's partial is live only when its validity generation matches
    /// the workspace's current cache generation ([`Self::invalidate_all`]
    /// is an O(1) generation bump rather than an orientation sweep).
    #[inline]
    fn slot_is_current(&self, idx: usize) -> bool {
        self.ws.valid_gen[idx] == self.ws.cache_gen
    }

    /// Replace the substitution model (invalidates all partials).
    pub fn set_model(&mut self, model: SubstModel) {
        self.model = model;
        self.invalidate_all();
    }

    /// Update the Γ shape parameter (invalidates all partials).
    pub fn set_alpha(&mut self, alpha: f64) -> crate::error::Result<()> {
        self.rates.set_alpha(alpha)?;
        self.invalidate_all();
        Ok(())
    }

    /// Access the collected trace.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Switch to full event recording (for cellsim replay).
    pub fn enable_event_recording(&mut self) {
        self.trace = Trace::recording();
    }

    /// Take the trace, leaving a fresh one with the same recording mode.
    pub fn take_trace(&mut self) -> Trace {
        let fresh =
            if self.trace.is_recording() { Trace::recording() } else { Trace::counters_only() };
        std::mem::replace(&mut self.trace, fresh)
    }

    /// Mark the start of SPR round `round` in the trace (closing any open
    /// round). Kernel invocations issued from here on are attributed to it.
    pub fn begin_spr_round(&mut self, round: u32) {
        self.trace.begin_spr_round(round);
    }

    /// Close the trace's open SPR round mark, if any.
    pub fn end_spr_round(&mut self) {
        self.trace.end_spr_round();
    }

    /// Invalidate every cached partial (call after any topology change).
    pub fn invalidate_all(&mut self) {
        self.ws.reset();
    }

    /// Invalidate exactly the partials whose subtree contains the branch
    /// `(u, v)` — everything except partials oriented *toward* the branch.
    /// Call after changing that branch's length.
    pub fn invalidate_for_branch(&mut self, tree: &Tree, u: NodeId, v: NodeId) {
        let n_nodes = tree.n_nodes();
        let ws = &mut self.ws;
        // First hop from every node toward u (DFS with parent pointers),
        // using workspace scratch so steady-state calls allocate nothing.
        ws.hop.clear();
        ws.hop.resize(n_nodes, usize::MAX);
        ws.seen.clear();
        ws.seen.resize(n_nodes, false);
        ws.node_stack.clear();
        ws.node_stack.push(u);
        ws.seen[u] = true;
        while let Some(x) = ws.node_stack.pop() {
            for (n, _) in tree.neighbors_of(x) {
                if !ws.seen[n] {
                    ws.seen[n] = true;
                    ws.hop[n] = x; // first hop from n toward u is x
                    ws.node_stack.push(n);
                }
            }
        }
        ws.hop[u] = v; // from u, the branch lies toward v

        for inner in self.n_taxa..n_nodes {
            let idx = inner - self.n_taxa;
            // Nodes not connected to the branch (e.g. a pruned subtree)
            // cannot contain it; their caches stay as they are.
            if ws.hop[inner] == usize::MAX && inner != u {
                continue;
            }
            if let Some(q) = ws.orientation[idx] {
                // The partial at `inner` toward q covers the subtree away
                // from q; it contains branch (u,v) unless q is the first hop
                // toward the branch.
                if q != ws.hop[inner] {
                    ws.orientation[idx] = None;
                }
            }
        }
    }

    /// Rename the target of a cached orientation: if `node`'s partial is
    /// valid "toward `from`", mark it valid "toward `to`" instead. Used by
    /// the SPR bookkeeping when a topology edit replaces a neighbor without
    /// changing the subtree the partial summarizes (e.g. splitting the edge
    /// `(x, y)` with a junction `v` turns "x toward y" into "x toward v").
    pub fn remap_orientation(&mut self, node: NodeId, from: NodeId, to: NodeId) {
        if node < self.n_taxa {
            return;
        }
        let idx = self.inner_idx(node);
        if self.ws.orientation[idx] == Some(from) {
            self.ws.orientation[idx] = Some(to);
        }
    }

    /// Drop the cached partial of one inner node.
    pub fn clear_orientation(&mut self, node: NodeId) {
        if node >= self.n_taxa {
            let idx = self.inner_idx(node);
            self.ws.orientation[idx] = None;
        }
    }

    /// Log-likelihood of the tree, evaluated at an arbitrary branch (the
    /// result is branch-independent for reversible models — paper §5.2:
    /// "the log likelihood value is the same at all branches of the tree if
    /// the model of nucleotide substitution is time-reversible").
    pub fn log_likelihood(&mut self, tree: &Tree) -> f64 {
        let (u, v) = tree.first_edge();
        self.log_likelihood_at(tree, (u, v))
    }

    /// [`Self::log_likelihood`] with a numerical guard at the engine
    /// boundary: a non-finite value (NaN/−∞ from under-scaled partials in
    /// the optimized kernels) triggers exactly one re-evaluation under the
    /// most conservative configuration — scalar kernel, float-compare
    /// scaling checks, `libm` exp, no parallelism — with every cached
    /// partial invalidated so rescaling is applied from scratch. If even
    /// that is non-finite, the alignment/model combination is genuinely
    /// degenerate and a typed [`crate::error::PhyloError::Numerical`] is returned.
    pub fn try_log_likelihood(&mut self, tree: &Tree) -> crate::error::Result<f64> {
        let mut lnl = self.log_likelihood(tree);
        if self.poison_numerics {
            self.poison_numerics = false;
            lnl = f64::NAN;
        }
        if lnl.is_finite() {
            return Ok(lnl);
        }
        // Forced conservative re-evaluation.
        let saved = self.config;
        self.config = LikelihoodConfig::baseline();
        self.invalidate_all();
        let recovered = self.log_likelihood(tree);
        self.config = saved;
        self.invalidate_all();
        if recovered.is_finite() {
            Ok(recovered)
        } else {
            Err(crate::error::PhyloError::Numerical { context: "log_likelihood", value: recovered })
        }
    }

    /// Test hook: make the next [`Self::try_log_likelihood`] see a NaN from
    /// its first evaluation, exercising the recovery path without having to
    /// construct a genuinely degenerate alignment.
    #[doc(hidden)]
    pub fn poison_next_evaluation(&mut self) {
        self.poison_numerics = true;
    }

    /// Log-likelihood evaluated at a specific branch.
    pub fn log_likelihood_at(&mut self, tree: &Tree, (u, v): Edge) -> f64 {
        self.prepare(tree, u, v, CallParent::Evaluate);
        let t = tree.branch_length(u, v);
        fill_pmats(
            &self.model,
            self.rates.rates(),
            t,
            self.config.exp_impl,
            &mut self.ws.pmat_eval,
        );

        let inner_ops = [u, v].iter().filter(|&&n| !tree.is_tip(n)).count() as u32;
        let lnl = {
            let ws = &self.ws;
            let op_u = operand_in(self.aln, self.n_taxa, &ws.partials, &ws.scales, u);
            let op_v = operand_in(self.aln, self.n_taxa, &ws.partials, &ws.scales, v);
            evaluate_dispatch(
                &op_u,
                &op_v,
                &ws.pmat_eval,
                self.model.freqs(),
                self.aln.weights(),
                self.n_rates,
                self.config.parallel,
            )
        };
        self.trace.push(KernelEvent {
            op: KernelOp::Evaluate,
            parent: CallParent::Search,
            patterns: self.n_patterns as u32,
            rates: self.n_rates as u32,
            exp_calls: (self.n_rates * 4) as u32,
            scaling_checks: 0,
            scalings: 0,
            newton_iters: 0,
            inner_operands: inner_ops,
        });
        lnl
    }

    /// Per-pattern log-likelihoods (unweighted), evaluated at the first
    /// branch. Feeds per-site rate estimation (the CAT model) and
    /// site-level diagnostics.
    pub fn site_log_likelihoods(&mut self, tree: &Tree) -> Vec<f64> {
        let (u, v) = tree.first_edge();
        self.prepare(tree, u, v, CallParent::Evaluate);
        let t = tree.branch_length(u, v);
        fill_pmats(
            &self.model,
            self.rates.rates(),
            t,
            self.config.exp_impl,
            &mut self.ws.pmat_eval,
        );
        let ws = &self.ws;
        let op_u = operand_in(self.aln, self.n_taxa, &ws.partials, &ws.scales, u);
        let op_v = operand_in(self.aln, self.n_taxa, &ws.partials, &ws.scales, v);
        super::kernels::evaluate_site_lnls(
            &op_u,
            &op_v,
            &ws.pmat_eval,
            self.model.freqs(),
            self.n_patterns,
            self.n_rates,
        )
    }

    /// Optimize the length of branch `(u, v)` by Newton–Raphson on the sum
    /// table (`makenewz`). Updates the tree and invalidates dependent
    /// partials. Returns the optimized length.
    pub fn optimize_branch(&mut self, tree: &mut Tree, edge: Edge) -> f64 {
        self.optimize_branch_with_iters(tree, edge, NEWTON_MAX_ITER).0
    }

    /// As [`Self::optimize_branch`] with an explicit Newton iteration cap —
    /// RAxML's lazy SPR scores candidate insertions with one or two Newton
    /// steps (`newzpercycle`). Returns `(optimized length, log-likelihood
    /// at the optimized length)`; the likelihood comes for free from the
    /// sum table, exactly as `makenewz` reports it to the search.
    pub fn optimize_branch_with_iters(
        &mut self,
        tree: &mut Tree,
        (u, v): Edge,
        max_iters: usize,
    ) -> (f64, f64) {
        self.prepare(tree, u, v, CallParent::Makenewz);
        let w_mat = self.model.eigen().w;
        let lambdas = self.model.eigen().values;
        let weights = self.aln.weights();
        {
            let ws = &mut self.ws;
            let op_u = operand_in(self.aln, self.n_taxa, &ws.partials, &ws.scales, u);
            let op_v = operand_in(self.aln, self.n_taxa, &ws.partials, &ws.scales, v);
            build_sumtable_into(
                &op_u,
                &op_v,
                &w_mat,
                self.n_rates,
                &mut ws.sum_data,
                &mut ws.sum_scale,
            );
        }
        self.ws.rates_scratch.clear();
        self.ws.rates_scratch.extend_from_slice(self.rates.rates());

        let mut t = tree.branch_length(u, v);
        let mut best_t = t;
        let mut best_lnl = f64::NEG_INFINITY;
        let mut iters = 0u32;
        for _ in 0..max_iters {
            let ws = &mut self.ws;
            let (lnl, d1, d2) = newton_dispatch(
                &ws.sum_data,
                &ws.sum_scale,
                self.n_rates,
                &lambdas,
                &ws.rates_scratch,
                t,
                weights,
                self.config.exp_impl,
                NewtonPass::Derivatives,
                self.config.parallel,
                &mut ws.newton,
            );
            iters += 1;
            if lnl > best_lnl {
                best_lnl = lnl;
                best_t = t;
            }
            let dt = if d2 < 0.0 {
                -d1 / d2
            } else {
                // Convex region: move along the gradient geometrically
                // (RAxML's expand/shrink fallback).
                if d1 > 0.0 {
                    t
                } else {
                    -0.5 * t
                }
            };
            let t_new = clamp_branch(t + dt);
            if (t_new - t).abs() < NEWTON_TOL * t.max(1.0) {
                t = t_new;
                break;
            }
            t = t_new;
        }
        // Keep the best point actually visited (Newton can overshoot on
        // flat likelihood surfaces).
        let ws = &mut self.ws;
        let (final_lnl, _, _) = newton_dispatch(
            &ws.sum_data,
            &ws.sum_scale,
            self.n_rates,
            &lambdas,
            &ws.rates_scratch,
            t,
            weights,
            self.config.exp_impl,
            NewtonPass::LnlOnly,
            self.config.parallel,
            &mut ws.newton,
        );
        let mut lnl_at_t = final_lnl;
        if final_lnl < best_lnl {
            t = best_t;
            lnl_at_t = best_lnl;
        }
        t = clamp_branch(t);
        tree.set_branch_length(u, v, t);
        self.invalidate_for_branch(tree, u, v);

        let inner_ops = [u, v].iter().filter(|&&n| !tree.is_tip(n)).count() as u32;
        self.trace.push(KernelEvent {
            op: KernelOp::Makenewz,
            parent: CallParent::Search,
            patterns: self.n_patterns as u32,
            rates: self.n_rates as u32,
            exp_calls: iters * (self.n_rates * 4) as u32,
            scaling_checks: 0,
            scalings: 0,
            newton_iters: iters,
            inner_operands: inner_ops + 1,
        });
        (t, lnl_at_t)
    }

    /// One smoothing pass: optimize every branch once. Returns the final
    /// log-likelihood. `passes` controls how many sweeps to run (RAxML's
    /// `smoothings`).
    ///
    /// Branches are visited in depth-first pre-order outward from the tip
    /// end of [`Tree::first_edge`] (RAxML's `smoothTree` walk): consecutive
    /// branches share a node, so each step re-orients one partial and every
    /// inner node is recomputed three times per pass — toward each child,
    /// then back toward its parent — instead of a whole path per branch.
    pub fn optimize_all_branches(&mut self, tree: &mut Tree, passes: usize) -> f64 {
        // Smoothing changes lengths only, so one order serves every pass.
        let mut order = std::mem::take(&mut self.ws.smooth_order);
        order.clear();
        let (root, _) = tree.first_edge();
        let stack = &mut self.ws.visit_stack;
        stack.clear();
        stack.push((root, root));
        while let Some((node, parent)) = stack.pop() {
            if node != parent {
                order.push((parent, node));
            }
            // Pushed in reverse so children pop in slot order.
            let first_child = stack.len();
            stack.extend(
                tree.neighbors_of(node).filter(|&(n, _)| n != parent).map(|(n, _)| (n, node)),
            );
            stack[first_child..].reverse();
        }
        for _ in 0..passes {
            for &edge in &order {
                self.optimize_branch(tree, edge);
            }
        }
        self.ws.smooth_order = order;
        self.log_likelihood(tree)
    }

    // ------------------------------------------------------------------
    // internals
    // ------------------------------------------------------------------

    #[inline]
    fn inner_idx(&self, node: NodeId) -> usize {
        debug_assert!(node >= self.n_taxa);
        node - self.n_taxa
    }

    /// Ensure the partials facing the branch `(u, v)` are up to date:
    /// compile the stale sub-traversals into one [`TraversalOps`] list and
    /// execute it with the fused kernel driver.
    fn prepare(&mut self, tree: &Tree, u: NodeId, v: NodeId, parent: CallParent) {
        self.compile_traversal(tree, u, v);
        self.execute_ops(parent);
    }

    /// Compile the stale portion of the traversal toward branch `(u, v)`
    /// into the workspace's descriptor list, in execution (bottom-up)
    /// order. The two endpoint segments cover disjoint subtrees (each side
    /// of the branch), so their descriptors are independent.
    fn compile_traversal(&mut self, tree: &Tree, u: NodeId, v: NodeId) {
        let n_taxa = self.n_taxa;
        let ws = &mut self.ws;
        let mut reused = 0u64;
        ws.ops.clear();
        for (p, toward) in [(u, v), (v, u)] {
            if tree.is_tip(p) {
                continue;
            }
            let start = ws.ops.len();
            ws.visit_stack.clear();
            ws.visit_stack.push((p, toward));
            // Discovery order puts every node before its descendants…
            while let Some((node, tw)) = ws.visit_stack.pop() {
                let idx = node - n_taxa;
                if ws.orientation[idx] == Some(tw) && ws.valid_gen[idx] == ws.cache_gen {
                    reused += 1;
                    continue; // already valid — subtree under it is too
                }
                let [(a, la), (b, lb)] = tree.other_neighbors(node, tw);
                ws.ops.push(TraversalOp {
                    node,
                    toward: tw,
                    left: a,
                    left_len: la,
                    right: b,
                    right_len: lb,
                    left_tip: tree.is_tip(a),
                    right_tip: tree.is_tip(b),
                });
                if !tree.is_tip(a) {
                    ws.visit_stack.push((a, node));
                }
                if !tree.is_tip(b) {
                    ws.visit_stack.push((b, node));
                }
            }
            // …so reversing the segment yields children-before-parents.
            ws.ops.reverse_from(start);
        }
        self.reuse.partials_reused += reused;
    }

    /// Execute the compiled descriptor list: one driver loop dispatching
    /// every `newview` back-to-back out of workspace buffers — the host
    /// analogue of the SPE executing a whole traversal from one DMA list
    /// with no per-node PPE↔SPE round trip (§5.2.7). Under loop-level
    /// parallelism the whole list runs once per pattern stripe
    /// ([`Self::execute_ops_striped`]); partials, scale counts and trace
    /// events are the same either way.
    fn execute_ops(&mut self, parent: CallParent) {
        let n_ops = self.ws.ops.len();
        if n_ops == 0 {
            return;
        }
        if let Some(width) = stripe_width(self.config.parallel, self.n_patterns) {
            let stats = self.execute_ops_striped(width);
            for (i, stats) in stats.into_iter().enumerate() {
                self.finish_op(self.ws.ops.get(i), stats, parent);
            }
        } else {
            for i in 0..n_ops {
                let op = self.ws.ops.get(i);
                let stats = self.execute_op(op);
                self.finish_op(op, stats, parent);
            }
        }
        self.trace.record_fused_batch(n_ops as u64);
    }

    /// One descriptor over the whole pattern range, on this thread.
    fn execute_op(&mut self, op: TraversalOp) -> ScaleStats {
        let rates = self.rates.rates();
        let exp_impl = self.config.exp_impl;
        fill_pmats(&self.model, rates, op.left_len, exp_impl, &mut self.ws.pmat_a);
        fill_pmats(&self.model, rates, op.right_len, exp_impl, &mut self.ws.pmat_b);
        if op.left_tip {
            fill_tip_tables(&self.ws.pmat_a, &mut self.ws.tip_a);
        }
        if op.right_tip {
            fill_tip_tables(&self.ws.pmat_b, &mut self.ws.tip_b);
        }

        let idx = self.inner_idx(op.node);
        let ws = &mut self.ws;
        // Move the output buffers out to satisfy the borrow checker
        // while reading sibling partials (moves, not allocations).
        let mut out_x = std::mem::take(&mut ws.partials[idx]);
        let mut out_scale = std::mem::take(&mut ws.scales[idx]);
        let (aln, n_taxa) = (self.aln, self.n_taxa);
        let child = |node, is_tip, pmats, tables| {
            child_in(aln, n_taxa, &ws.partials, &ws.scales, pmats, tables, node, is_tip)
        };
        let stats = kernels::newview(
            &child(op.left, op.left_tip, &ws.pmat_a, &ws.tip_a),
            &child(op.right, op.right_tip, &ws.pmat_b, &ws.tip_b),
            &mut out_x,
            &mut out_scale,
            self.n_rates,
            self.config.kernel,
            self.config.scaling,
        );
        ws.partials[idx] = out_x;
        ws.scales[idx] = out_scale;
        stats
    }

    /// The whole descriptor list under stripe-owned loop-level parallelism:
    /// the pattern range is cut into `width`-pattern stripes and one thread
    /// per stripe runs the list start to end on its stripe of every partial.
    /// `newview` is pattern-local, so a stripe reads only what its own
    /// thread wrote and no barrier separates descriptors. Each thread fills
    /// a descriptor's P matrices and tip tables into scratch of its own —
    /// a microsecond beside the kernel, spent concurrently, and no table
    /// that grows with the tree. Returns each descriptor's scaling
    /// statistics, summed over stripes.
    fn execute_ops_striped(&mut self, width: usize) -> Vec<ScaleStats> {
        let (aln, n_taxa, n_rates) = (self.aln, self.n_taxa, self.n_rates);
        let (model, rates, config) = (&self.model, self.rates.rates(), self.config);
        let ws = &mut self.ws;
        let ops = ws.ops.as_slice();
        let nodes = ws
            .partials
            .iter_mut()
            .map(Vec::as_mut_slice)
            .zip(ws.scales.iter_mut().map(Vec::as_mut_slice));
        let per_stripe = run_striped(nodes, n_rates, width, |lo, mine| {
            let mut pmats = [vec![[[0.0; 4]; 4]; n_rates], vec![[[0.0; 4]; 4]; n_rates]];
            let mut tips = [vec![[[0.0; 4]; 16]; n_rates], vec![[[0.0; 4]; 16]; n_rates]];
            let mut stats = Vec::with_capacity(ops.len());
            for op in ops {
                let sides =
                    [(op.left, op.left_len, op.left_tip), (op.right, op.right_len, op.right_tip)];
                for (side, &(_, len, is_tip)) in sides.iter().enumerate() {
                    fill_pmats(model, rates, len, config.exp_impl, &mut pmats[side]);
                    if is_tip {
                        fill_tip_tables(&pmats[side], &mut tips[side]);
                    }
                }
                let (out_x, out_scale) = std::mem::take(&mut mine[op.node - n_taxa]);
                let hi = lo + out_scale.len();
                let [left, right] = [0, 1].map(|side| {
                    let (node, _, is_tip) = sides[side];
                    if is_tip {
                        Child::Tip { codes: &aln.tip_row(node)[lo..hi], tables: &tips[side] }
                    } else {
                        let (x, scale) = &mine[node - n_taxa];
                        Child::Inner { x, scale, pmats: &pmats[side] }
                    }
                });
                stats.push(kernels::newview(
                    &left,
                    &right,
                    out_x,
                    out_scale,
                    n_rates,
                    config.kernel,
                    config.scaling,
                ));
                mine[op.node - n_taxa] = (out_x, out_scale);
            }
            stats
        });

        let mut totals = vec![ScaleStats::default(); ops.len()];
        for stripe in per_stripe {
            for (total, part) in totals.iter_mut().zip(stripe) {
                *total = total.merge(part);
            }
        }
        totals
    }

    /// Bookkeeping after a descriptor ran: the slot's new orientation, the
    /// reuse ledger and the kernel-trace event.
    fn finish_op(&mut self, op: TraversalOp, stats: ScaleStats, parent: CallParent) {
        let idx = self.inner_idx(op.node);
        self.ws.orientation[idx] = Some(op.toward);
        self.ws.valid_gen[idx] = self.ws.cache_gen;
        self.reuse.partials_recomputed += 1;

        let kernel_op = match (op.left_tip, op.right_tip) {
            (true, true) => KernelOp::NewviewTipTip,
            (false, false) => KernelOp::NewviewInnerInner,
            _ => KernelOp::NewviewTipInner,
        };
        let inner_children = (!op.left_tip) as u32 + (!op.right_tip) as u32;
        self.trace.push(KernelEvent {
            op: kernel_op,
            parent,
            patterns: self.n_patterns as u32,
            rates: self.n_rates as u32,
            exp_calls: (2 * self.n_rates * 4) as u32,
            scaling_checks: stats.checks as u32,
            scalings: stats.fired as u32,
            newton_iters: 0,
            inner_operands: inner_children + 1,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alignment::Alignment;
    use crate::likelihood::KernelKind;
    use crate::model::ExpImpl;

    fn toy_setup() -> (PatternAlignment, Tree) {
        let aln = Alignment::from_named_sequences(&[
            ("t0", "ACGTACGTAAGGCCTTACGT"),
            ("t1", "ACGTACGAAAGGCCTTACGA"),
            ("t2", "ACGAACGAAAGACCTTACGA"),
            ("t3", "CCGAACGACAGACCTAACGA"),
            ("t4", "CCGAACTACAGACGTAACTA"),
        ])
        .unwrap();
        let pat = aln.compress();
        let mut tree = Tree::initial_triplet(5, 0.1).unwrap();
        let e = tree.edges();
        tree.add_taxon_on_edge(3, e[0], 0.1).unwrap();
        let e = tree.edges();
        tree.add_taxon_on_edge(4, e[1], 0.1).unwrap();
        (pat, tree)
    }

    fn engine<'a>(aln: &'a PatternAlignment, cfg: LikelihoodConfig) -> LikelihoodEngine<'a> {
        LikelihoodEngine::new(
            aln,
            SubstModel::gtr(aln.base_frequencies(), [1.0, 2.0, 1.0, 1.0, 2.0, 1.0]).unwrap(),
            GammaRates::standard(0.8).unwrap(),
            cfg,
        )
    }

    #[test]
    fn likelihood_is_finite_and_negative() {
        let (aln, tree) = toy_setup();
        let mut eng = engine(&aln, LikelihoodConfig::optimized());
        let lnl = eng.log_likelihood(&tree);
        assert!(lnl.is_finite());
        assert!(lnl < 0.0, "lnl = {lnl}");
    }

    #[test]
    fn numerical_guard_recovers_from_a_poisoned_evaluation() {
        let (aln, tree) = toy_setup();
        let mut eng = engine(&aln, LikelihoodConfig::optimized());
        let clean = eng.try_log_likelihood(&tree).unwrap();
        assert_eq!(clean, eng.log_likelihood(&tree), "guard is a no-op on finite values");

        // Poison the next evaluation: the guard must fall back to the
        // conservative configuration and recover a finite value close to
        // the healthy one (baseline vs optimized agree to rounding).
        eng.poison_next_evaluation();
        let recovered = eng.try_log_likelihood(&tree).unwrap();
        assert!(recovered.is_finite());
        assert!(
            (recovered - clean).abs() < 1e-6 * clean.abs(),
            "recovered {recovered} vs clean {clean}"
        );
        // The engine's own configuration is restored afterwards.
        assert_eq!(eng.config().kernel, LikelihoodConfig::optimized().kernel);
        // And subsequent evaluations are healthy again.
        assert_eq!(eng.try_log_likelihood(&tree).unwrap(), clean);
    }

    #[test]
    fn likelihood_same_at_every_branch() {
        // The paper's §5.2 time-reversibility note.
        let (aln, tree) = toy_setup();
        let mut eng = engine(&aln, LikelihoodConfig::optimized());
        let edges = tree.edges();
        let reference = eng.log_likelihood_at(&tree, edges[0]);
        for &e in &edges[1..] {
            let lnl = eng.log_likelihood_at(&tree, e);
            assert!((lnl - reference).abs() < 1e-8, "branch {e:?}: {lnl} vs {reference}");
        }
    }

    #[test]
    fn all_configurations_agree() {
        let (aln, tree) = toy_setup();
        let mut reference = None;
        for exp_impl in [ExpImpl::Libm, ExpImpl::Sdk] {
            for kernel in [KernelKind::Scalar, KernelKind::Vector] {
                for scaling in [
                    super::super::ScalingCheck::FloatCompare,
                    super::super::ScalingCheck::IntegerCast,
                ] {
                    for parallel in [false, true] {
                        let cfg = LikelihoodConfig { exp_impl, kernel, scaling, parallel };
                        let mut eng = engine(&aln, cfg);
                        let lnl = eng.log_likelihood(&tree);
                        let r = *reference.get_or_insert(lnl);
                        assert!((lnl - r).abs() < 1e-9, "config {cfg:?} disagrees: {lnl} vs {r}");
                    }
                }
            }
        }
    }

    /// A workspace recycled through `into_workspace`/`with_workspace` gives
    /// bit-identical answers to a fresh allocation.
    #[test]
    fn recycled_workspace_matches_fresh() {
        let (aln, tree) = toy_setup();
        let mut eng = engine(&aln, LikelihoodConfig::optimized());
        let fresh = eng.log_likelihood(&tree);
        let ws = eng.into_workspace();

        let mut reused = LikelihoodEngine::with_workspace(
            &aln,
            SubstModel::gtr(aln.base_frequencies(), [1.0, 2.0, 1.0, 1.0, 2.0, 1.0]).unwrap(),
            GammaRates::standard(0.8).unwrap(),
            LikelihoodConfig::optimized(),
            WorkspaceOptions,
            ws,
        );
        let again = reused.log_likelihood(&tree);
        assert_eq!(fresh, again, "recycled workspace must be bit-identical");
    }

    #[test]
    fn caching_gives_same_answer_as_cold_start() {
        let (aln, tree) = toy_setup();
        let mut eng = engine(&aln, LikelihoodConfig::optimized());
        let first = eng.log_likelihood(&tree);
        let calls_after_first = eng.trace().counters().newview_calls;
        let second = eng.log_likelihood(&tree);
        let calls_after_second = eng.trace().counters().newview_calls;
        assert_eq!(first, second);
        assert_eq!(
            calls_after_first, calls_after_second,
            "second evaluation at the same branch must be fully cached"
        );
        eng.invalidate_all();
        let third = eng.log_likelihood(&tree);
        assert!((first - third).abs() < 1e-12);
        assert!(eng.trace().counters().newview_calls > calls_after_second);
    }

    #[test]
    fn invalidate_all_is_generational_and_reuse_is_counted() {
        let (aln, tree) = toy_setup();
        let mut eng = engine(&aln, LikelihoodConfig::optimized());
        eng.log_likelihood(&tree);
        let after_cold = eng.reuse_stats();
        assert!(after_cold.partials_recomputed >= 3, "cold start recomputes everything");
        assert_eq!(after_cold.partials_reused, 0);

        // Warm re-evaluation at the same branch: subtree roots are reused.
        eng.log_likelihood(&tree);
        let warm = eng.reuse_stats();
        assert_eq!(warm.partials_recomputed, after_cold.partials_recomputed);
        assert!(warm.partials_reused >= 1, "warm evaluation must reuse cached partials");

        // After the O(1) generation bump every slot is stale even though
        // its orientation still matches — nothing may be reused.
        eng.invalidate_all();
        eng.reset_reuse_stats();
        eng.log_likelihood(&tree);
        let cold = eng.reuse_stats();
        assert_eq!(cold.partials_reused, 0, "generation bump must invalidate all slots");
        assert_eq!(cold.partials_recomputed, after_cold.partials_recomputed);
    }

    #[test]
    fn optimize_branch_improves_likelihood() {
        let (aln, mut tree) = toy_setup();
        let mut eng = engine(&aln, LikelihoodConfig::optimized());
        let before = eng.log_likelihood(&tree);
        for e in tree.edges() {
            eng.optimize_branch(&mut tree, e);
        }
        let after = eng.log_likelihood(&tree);
        assert!(after >= before - 1e-9, "branch optimization must not hurt: {before} -> {after}");
        assert!(after > before + 0.1, "expected a real improvement: {before} -> {after}");
    }

    #[test]
    fn optimize_all_branches_converges() {
        let (aln, mut tree) = toy_setup();
        let mut eng = engine(&aln, LikelihoodConfig::optimized());
        let l1 = eng.optimize_all_branches(&mut tree, 1);
        let l2 = eng.optimize_all_branches(&mut tree, 1);
        let l3 = eng.optimize_all_branches(&mut tree, 1);
        assert!(l2 >= l1 - 1e-9);
        assert!(l3 >= l2 - 1e-9);
        assert!((l3 - l2).abs() < 0.01, "should be nearly converged: {l2} -> {l3}");
    }

    #[test]
    fn branch_invalidation_is_consistent_with_full_invalidation() {
        let (aln, mut tree) = toy_setup();
        let mut eng = engine(&aln, LikelihoodConfig::optimized());
        let edges = tree.edges();
        eng.log_likelihood(&tree);
        // Change a branch, rely on targeted invalidation.
        let (u, v) = edges[1];
        tree.set_branch_length(u, v, 0.735);
        eng.invalidate_for_branch(&tree, u, v);
        let fast = eng.log_likelihood(&tree);
        // Full invalidation reference.
        eng.invalidate_all();
        let full = eng.log_likelihood(&tree);
        assert!((fast - full).abs() < 1e-10, "{fast} vs {full}");
    }

    #[test]
    fn trace_counts_accumulate() {
        let (aln, mut tree) = toy_setup();
        let mut eng = engine(&aln, LikelihoodConfig::optimized());
        eng.enable_event_recording();
        eng.log_likelihood(&tree);
        let e = tree.edges()[0];
        eng.optimize_branch(&mut tree, e);
        let c = eng.trace().counters();
        assert!(c.newview_calls >= 3);
        assert!(c.fused_batches >= 1);
        assert!(c.fused_ops >= 3);
        assert_eq!(c.evaluate_calls, 1);
        assert_eq!(c.makenewz_calls, 1);
        assert!(c.newton_iters >= 1);
        assert!(c.exp_calls > 0);
        assert!(!eng.trace().events().is_empty());
        let t = eng.take_trace();
        assert!(t.is_recording());
        assert_eq!(eng.trace().counters().newview_calls, 0);
    }

    #[test]
    fn set_alpha_changes_likelihood() {
        let (aln, tree) = toy_setup();
        let mut eng = engine(&aln, LikelihoodConfig::optimized());
        let l1 = eng.log_likelihood(&tree);
        eng.set_alpha(0.1).unwrap();
        let l2 = eng.log_likelihood(&tree);
        assert_ne!(l1, l2);
    }
}
