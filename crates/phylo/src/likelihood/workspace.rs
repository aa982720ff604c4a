//! Workspace arenas and traversal descriptors for the likelihood hot path.
//!
//! The paper's SPE kernels work out of a fixed 256 KB local store: buffers
//! are allocated once and work arrives as a stream of descriptors (DMA
//! lists). This module is the host-side analogue — a [`LikelihoodWorkspace`]
//! owns every buffer the three kernels touch (partials, scale vectors,
//! P-matrix scratch, tip tables, Newton sum table and exponential tables,
//! traversal scratch), so that steady-state `newview`/`evaluate`/`makenewz`
//! calls perform **zero heap allocation**, and a tree traversal compiles
//! into an ordered [`TraversalOps`] descriptor list (the BEAGLE
//! operation-array analogue) executed by one kernel driver.
//!
//! Workspaces outlive engines: [`crate::likelihood::engine::LikelihoodEngine::into_workspace`]
//! recovers the arena when an engine is dropped. Arenas are recycled across
//! bootstrap replicates: the [`crate::farm`] inference farm hands each
//! worker a workspace as its per-worker shard (no lock per job).

use super::kernels::{tiled_len, Mat4, NewtonScratch, TipTable16};
use crate::tree::{Edge, NodeId};

/// Vestigial and fieldless: the engine has one traversal driver, so there
/// is nothing left to switch. The type survives only because the standalone
/// `benchmark/` package still names it ([`crate::search::SearchConfig`]'s
/// `workspace` field and
/// [`crate::likelihood::engine::LikelihoodEngine::with_workspace`]'s
/// argument list); it goes when that package stops naming it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkspaceOptions;

/// One `newview` work descriptor: everything the kernel driver needs to
/// recompute the partial at `node` oriented toward `toward`, without
/// consulting the tree again — the analogue of one SPE DMA-list entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraversalOp {
    /// Inner node whose partial this op (re)computes.
    pub node: NodeId,
    /// Orientation: the partial is valid for the tree rooted so that
    /// `toward` is `node`'s parent.
    pub toward: NodeId,
    /// First child and its branch length.
    pub left: NodeId,
    pub left_len: f64,
    /// Second child and its branch length.
    pub right: NodeId,
    pub right_len: f64,
    /// Whether each child is a tip (selects the specialized kernel path).
    pub left_tip: bool,
    pub right_tip: bool,
}

/// An ordered `newview` descriptor list in execution (bottom-up) order —
/// the BEAGLE operation-array / SPE DMA-list analogue. Compiled once per
/// traversal by the engine, executed by a single kernel driver loop, and
/// exposed so tests and the trace layer can inspect exactly what a
/// traversal dispatched.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraversalOps {
    list: Vec<TraversalOp>,
}

impl TraversalOps {
    pub fn len(&self) -> usize {
        self.list.len()
    }

    pub fn is_empty(&self) -> bool {
        self.list.is_empty()
    }

    /// Descriptors in execution order (children strictly before parents).
    pub fn as_slice(&self) -> &[TraversalOp] {
        &self.list
    }

    pub fn iter(&self) -> std::slice::Iter<'_, TraversalOp> {
        self.list.iter()
    }

    pub(crate) fn clear(&mut self) {
        self.list.clear();
    }

    pub(crate) fn push(&mut self, op: TraversalOp) {
        self.list.push(op);
    }

    pub(crate) fn get(&self, i: usize) -> TraversalOp {
        self.list[i]
    }

    /// Reverse the tail `[from..]` in place — used by the compiler to turn
    /// a root-first discovery segment into bottom-up execution order.
    pub(crate) fn reverse_from(&mut self, from: usize) {
        self.list[from..].reverse();
    }
}

impl<'a> IntoIterator for &'a TraversalOps {
    type Item = &'a TraversalOp;
    type IntoIter = std::slice::Iter<'a, TraversalOp>;
    fn into_iter(self) -> Self::IntoIter {
        self.list.iter()
    }
}

/// Working memory of one SPR round's candidate scan
/// ([`crate::search::spr`]), owned by the workspace so a steady-state round
/// allocates nothing. The round moves it out of the workspace while it runs
/// and puts it back when it is done.
#[derive(Debug, Default)]
pub(crate) struct SprScratch {
    /// The round's branches; each is tried as a prune point in both
    /// directions.
    pub(crate) candidates: Vec<Edge>,
    /// Regraft targets of the current pruned subtree in scan order, each
    /// with the log-likelihood its insertion scored.
    pub(crate) targets: Vec<(Edge, f64)>,
    /// Depth-first stack of the target enumeration: `(node, parent, depth)`.
    pub(crate) dfs: Vec<(NodeId, NodeId, usize)>,
}

/// Every buffer the likelihood hot path touches, allocated once and reused
/// across all kernel calls, SPR candidates and (via the farm's per-worker
/// shards) bootstrap replicates. Geometry (`n_taxa`, `n_patterns`,
/// `n_rates`) is re-validated by [`LikelihoodWorkspace::ensure`] whenever an
/// engine adopts the workspace; buffers only grow or shrink in *length*,
/// their capacity is retained, so a recycled workspace reaches its steady
/// state with no new allocations.
#[derive(Debug, Default)]
pub struct LikelihoodWorkspace {
    n_taxa: usize,
    n_patterns: usize,
    n_rates: usize,
    /// Partial vectors per inner node, in the pattern-blocked tiled layout
    /// of [`crate::likelihood::kernels`] (length [`tiled_len`], padded to
    /// whole [`crate::likelihood::TILE`] blocks).
    pub(crate) partials: Vec<Vec<f64>>,
    /// Per-pattern scaling counts per inner node (unpadded).
    pub(crate) scales: Vec<Vec<u32>>,
    /// `orientation[i] = Some(q)`: inner node `n_taxa + i`'s partial is
    /// valid for the tree rooted so that `q` is its parent; `None`: stale.
    /// This is the whole validity state. Every valid partial faces one
    /// branch (the last one a traversal prepared) or the connected stale
    /// region a topology edit left behind, and the subtree under a valid
    /// partial is valid too (DESIGN.md, "Partials valid by orientation
    /// alone").
    pub(crate) orientation: Vec<Option<NodeId>>,
    /// Per-rate P-matrix scratch for the two `newview` child branches and
    /// for the `evaluate`/`makenewz` branch.
    pub(crate) pmat_a: Vec<Mat4>,
    pub(crate) pmat_b: Vec<Mat4>,
    pub(crate) pmat_eval: Vec<Mat4>,
    /// Tip lookup-table scratch for the two `newview` child branches.
    pub(crate) tip_a: Vec<TipTable16>,
    pub(crate) tip_b: Vec<TipTable16>,
    /// `makenewz` sum table: tiled like the partials (length
    /// [`tiled_len`]) plus per-pattern scale counts (unpadded).
    pub(crate) sum_data: Vec<f64>,
    pub(crate) sum_scale: Vec<u32>,
    /// Newton exponential tables (the §5.2.2 "small loop" scratch).
    pub(crate) newton: NewtonScratch,
    /// Per-call copy of the rate vector (avoids re-borrowing the rate
    /// model while the sum table is borrowed).
    pub(crate) rates_scratch: Vec<f64>,
    /// The compiled descriptor list of the most recent fused traversal.
    pub(crate) ops: TraversalOps,
    /// DFS stack for traversal compilation and for the smoothing walk:
    /// `(node, toward)` pairs.
    pub(crate) visit_stack: Vec<(NodeId, NodeId)>,
    /// Branch order of the current smoothing call
    /// (`optimize_all_branches`), parent→child in depth-first pre-order.
    pub(crate) smooth_order: Vec<Edge>,
    /// Scratch for the SPR candidate scan.
    pub(crate) spr: SprScratch,
}

impl LikelihoodWorkspace {
    /// An empty workspace; buffers materialize on first [`Self::ensure`].
    pub fn new() -> LikelihoodWorkspace {
        LikelihoodWorkspace::default()
    }

    /// A workspace pre-sized for the given problem geometry.
    pub fn for_dimensions(n_taxa: usize, n_patterns: usize, n_rates: usize) -> LikelihoodWorkspace {
        let mut ws = LikelihoodWorkspace::new();
        ws.ensure(n_taxa, n_patterns, n_rates);
        ws
    }

    /// Size every buffer for the given geometry and invalidate all cached
    /// partials. Lengths are set exactly (kernels assert on them); existing
    /// capacity is reused, so re-adopting a workspace of the same or larger
    /// geometry allocates nothing.
    pub fn ensure(&mut self, n_taxa: usize, n_patterns: usize, n_rates: usize) {
        let n_inner = n_taxa.saturating_sub(2);
        let n_nodes = n_taxa + n_inner;

        if self.partials.len() > n_inner {
            self.partials.truncate(n_inner);
            self.scales.truncate(n_inner);
        }
        while self.partials.len() < n_inner {
            self.partials.push(Vec::new());
            self.scales.push(Vec::new());
        }
        for p in &mut self.partials {
            p.resize(tiled_len(n_patterns, n_rates), 0.0);
        }
        for s in &mut self.scales {
            s.resize(n_patterns, 0);
        }
        self.orientation.clear();
        self.orientation.resize(n_inner, None);

        self.pmat_a.resize(n_rates, [[0.0; 4]; 4]);
        self.pmat_b.resize(n_rates, [[0.0; 4]; 4]);
        self.pmat_eval.resize(n_rates, [[0.0; 4]; 4]);
        self.tip_a.resize(n_rates, [[0.0; 4]; 16]);
        self.tip_b.resize(n_rates, [[0.0; 4]; 16]);

        self.sum_data.resize(tiled_len(n_patterns, n_rates), 0.0);
        self.sum_scale.resize(n_patterns, 0);
        self.newton.ensure(n_rates);
        self.rates_scratch.clear();
        self.rates_scratch.reserve(n_rates);

        self.ops.clear();
        // Worst case: every inner node appears once per traversal side.
        self.ops.list.reserve(n_inner);
        // The smoothing walk stacks tips too: one pending sibling per inner
        // node on the current path plus the current node's children.
        self.visit_stack.clear();
        self.visit_stack.reserve(n_nodes);
        self.smooth_order.clear();
        self.smooth_order.reserve(n_nodes);

        // One entry per branch (2n − 3 < n_nodes) at most.
        self.spr.candidates.clear();
        self.spr.candidates.reserve(n_nodes);
        self.spr.targets.clear();
        self.spr.targets.reserve(n_nodes);
        self.spr.dfs.clear();
        self.spr.dfs.reserve(n_nodes);

        self.n_taxa = n_taxa;
        self.n_patterns = n_patterns;
        self.n_rates = n_rates;
    }

    /// Invalidate every cached partial without touching buffer sizes:
    /// every orientation is cleared (O(inner nodes); the full traversal
    /// that follows costs far more) and so is the compiled descriptor list.
    pub fn reset(&mut self) {
        self.orientation.fill(None);
        self.ops.clear();
    }

    /// Geometry this workspace is currently sized for:
    /// `(n_taxa, n_patterns, n_rates)`.
    pub fn dimensions(&self) -> (usize, usize, usize) {
        (self.n_taxa, self.n_patterns, self.n_rates)
    }

    /// Bytes held in the partial-likelihood buffers (the dominant term; the
    /// analogue of the paper's local-store budget accounting).
    pub fn partials_bytes(&self) -> usize {
        self.partials.iter().map(|p| p.len() * std::mem::size_of::<f64>()).sum::<usize>()
            + self.scales.iter().map(|s| s.len() * std::mem::size_of::<u32>()).sum::<usize>()
    }

    /// Bytes [`Self::ensure`] would allocate for the given geometry, without
    /// allocating anything. The tiled partials dominate —
    /// `(n_taxa − 2) × tiled_len × 8` — with the per-node scale vectors and
    /// the Newton sum table as the next terms; fixed per-rate scratch is
    /// included, per-node bookkeeping (orientations, traversal and SPR
    /// scratch) is counted at its true size. This is the number admission
    /// control compares against a memory budget *before* accepting a job.
    pub fn estimate_bytes(n_taxa: usize, n_patterns: usize, n_rates: usize) -> u64 {
        let n_inner = n_taxa.saturating_sub(2) as u64;
        let n_nodes = n_taxa as u64 + n_inner;
        let patterns = n_patterns as u64;
        let tiled = tiled_len(n_patterns, n_rates) as u64;
        let f64_sz = std::mem::size_of::<f64>() as u64;
        let partials = n_inner * tiled * f64_sz;
        let scales = n_inner * patterns * std::mem::size_of::<u32>() as u64;
        let sum_table = tiled * f64_sz + patterns * std::mem::size_of::<u32>() as u64;
        let rate_scratch = (n_rates as u64)
            * (3 * std::mem::size_of::<Mat4>() + 2 * std::mem::size_of::<TipTable16>()) as u64;
        let per_node = n_inner
            * (std::mem::size_of::<Option<NodeId>>() + std::mem::size_of::<TraversalOp>()) as u64
            // visit_stack and smooth_order
            + n_nodes * (std::mem::size_of::<(NodeId, NodeId)>() + std::mem::size_of::<Edge>()) as u64
            + n_nodes
                * (std::mem::size_of::<Edge>()
                    + std::mem::size_of::<(Edge, f64)>()
                    + std::mem::size_of::<(NodeId, NodeId, usize)>()) as u64;
        partials + scales + sum_table + rate_scratch + per_node
    }

    /// Check the given geometry against a byte budget: `Ok(required)` when
    /// it fits (or no budget is set), a typed
    /// [`PhyloError::MemoryBudget`](crate::error::PhyloError::MemoryBudget)
    /// when it does not — so oversized jobs fail up front with both numbers
    /// instead of OOM-aborting mid-inference.
    pub fn check_budget(
        n_taxa: usize,
        n_patterns: usize,
        n_rates: usize,
        budget_bytes: Option<u64>,
    ) -> crate::error::Result<u64> {
        let required = Self::estimate_bytes(n_taxa, n_patterns, n_rates);
        match budget_bytes {
            Some(budget) if required > budget => Err(crate::error::PhyloError::MemoryBudget {
                required_bytes: required,
                budget_bytes: budget,
            }),
            _ => Ok(required),
        }
    }

    /// Budget-checked [`Self::ensure`]: sizes the buffers only when the
    /// estimated footprint fits `budget_bytes`.
    pub fn try_ensure(
        &mut self,
        n_taxa: usize,
        n_patterns: usize,
        n_rates: usize,
        budget_bytes: Option<u64>,
    ) -> crate::error::Result<()> {
        Self::check_budget(n_taxa, n_patterns, n_rates, budget_bytes)?;
        self.ensure(n_taxa, n_patterns, n_rates);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ensure_sets_exact_lengths() {
        let mut ws = LikelihoodWorkspace::new();
        ws.ensure(8, 100, 4);
        assert_eq!(ws.partials.len(), 6);
        // Partials are tiled: 100 patterns pad to 104 (13 blocks of 8).
        assert!(ws.partials.iter().all(|p| p.len() == 104 * 16));
        assert!(ws.scales.iter().all(|s| s.len() == 100));
        assert_eq!(ws.orientation.len(), 6);
        assert_eq!(ws.pmat_a.len(), 4);
        // The sum table is tiled like the partials.
        assert_eq!(ws.sum_data.len(), 104 * 16);
        assert_eq!(ws.sum_scale.len(), 100);
        assert_eq!(ws.dimensions(), (8, 100, 4));
    }

    #[test]
    fn ensure_shrinks_and_regrows_without_losing_shape() {
        let mut ws = LikelihoodWorkspace::for_dimensions(10, 200, 4);
        ws.ensure(5, 50, 2);
        assert_eq!(ws.partials.len(), 3);
        assert!(ws.partials.iter().all(|p| p.len() == 56 * 8)); // 50 pads to 56
        ws.ensure(10, 200, 4);
        assert_eq!(ws.partials.len(), 8);
        assert!(ws.partials.iter().all(|p| p.len() == 200 * 16)); // 200 = 25 blocks exactly
        assert!(ws.orientation.iter().all(|o| o.is_none()));
    }

    #[test]
    fn estimate_covers_the_measured_partials_footprint() {
        for (n_taxa, n_patterns, n_rates) in [(8, 100, 4), (42, 250, 4), (100, 5000, 4)] {
            let est = LikelihoodWorkspace::estimate_bytes(n_taxa, n_patterns, n_rates);
            let ws = LikelihoodWorkspace::for_dimensions(n_taxa, n_patterns, n_rates);
            let measured = ws.partials_bytes() as u64;
            assert!(est >= measured, "estimate {est} below measured partials {measured}");
            // The estimate is a footprint model, not a worst-case fudge:
            // partials dominate, so it must stay within 2x of them.
            assert!(est <= measured * 2 + 1_000_000, "estimate {est} wildly above {measured}");
        }
    }

    #[test]
    fn budget_check_rejects_with_both_numbers() {
        let required = LikelihoodWorkspace::estimate_bytes(1000, 10_000, 4);
        let err = LikelihoodWorkspace::check_budget(1000, 10_000, 4, Some(required - 1))
            .expect_err("one byte short must reject");
        assert_eq!(
            err,
            crate::error::PhyloError::MemoryBudget {
                required_bytes: required,
                budget_bytes: required - 1
            }
        );
        // At or above the requirement (or with no budget): admitted.
        assert_eq!(
            LikelihoodWorkspace::check_budget(1000, 10_000, 4, Some(required)).unwrap(),
            required
        );
        assert_eq!(LikelihoodWorkspace::check_budget(1000, 10_000, 4, None).unwrap(), required);

        let mut ws = LikelihoodWorkspace::new();
        assert!(ws.try_ensure(1000, 10_000, 4, Some(1)).is_err());
        assert_eq!(ws.partials_bytes(), 0, "rejected ensure must not allocate");
        ws.try_ensure(12, 100, 4, None).unwrap();
        assert_eq!(ws.dimensions(), (12, 100, 4));
    }

    #[test]
    fn traversal_ops_reverse_segment() {
        let mk = |node| TraversalOp {
            node,
            toward: 0,
            left: 1,
            left_len: 0.1,
            right: 2,
            right_len: 0.2,
            left_tip: true,
            right_tip: true,
        };
        let mut ops = TraversalOps::default();
        ops.push(mk(10));
        ops.push(mk(11));
        ops.push(mk(12));
        ops.reverse_from(1);
        let order: Vec<_> = ops.iter().map(|o| o.node).collect();
        assert_eq!(order, vec![10, 12, 11]);
        assert_eq!(ops.len(), 3);
        assert!(!ops.is_empty());
    }
}
