//! Unrooted binary phylogenetic trees.
//!
//! An unrooted binary tree over `n ≥ 3` taxa has `n` tips (degree 1),
//! `n − 2` inner nodes (degree 3) and `2n − 3` branches. Nodes live in an
//! arena: tips are `0..n` (indexing the alignment's taxa), inner nodes are
//! `n..2n−2`. Each node stores up to three (neighbor, branch length) slots —
//! the Rust analogue of RAxML's three-`nodeptr` inner-node records. A
//! neighbor is stored in 32 bits (`Slot`): an analysis holds one tree per
//! bootstrap replicate, so the arena's size is what a replicate costs.
//!
//! Likelihood code never roots the tree; it places a *virtual root* on a
//! branch (paper §5.2: `newview` computes the partial likelihood vector "at
//! an inner node p which is at the root of a subtree").

use crate::error::{PhyloError, Result};
use rand::Rng;
use std::fmt::Write as _;

/// Index of a node in the tree arena.
pub type NodeId = usize;

/// Minimum branch length (RAxML's `zmin` analogue): keeps `P(t)` away from
/// the identity's derivative singularity during Newton optimization.
pub const MIN_BRANCH: f64 = 1e-8;
/// Maximum branch length: beyond this, `P(t)` is numerically stationary.
pub const MAX_BRANCH: f64 = 15.0;

/// Clamp a branch length into the legal range.
#[inline]
pub fn clamp_branch(len: f64) -> f64 {
    len.clamp(MIN_BRANCH, MAX_BRANCH)
}

/// One neighbor slot: a node id in 32 bits, `u32::MAX` standing for "empty".
/// Every constructor checks the arena size against the sentinel
/// ([`arena_size`]), so every [`NodeId`] of a tree fits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Slot(u32);

impl Slot {
    const EMPTY: Slot = Slot(u32::MAX);

    #[inline]
    fn of(node: NodeId) -> Slot {
        debug_assert!(node < Slot::EMPTY.0 as usize, "node id {node} does not fit a slot");
        Slot(node as u32)
    }

    #[inline]
    fn node(self) -> Option<NodeId> {
        (self != Slot::EMPTY).then_some(self.0 as NodeId)
    }
}

/// Arena size `2n − 2` of an `n_taxa`-tip tree, checked against the slot
/// sentinel.
fn arena_size(n_taxa: usize) -> Result<usize> {
    if n_taxa < 3 {
        return Err(PhyloError::TooFewTaxa { found: n_taxa, required: 3 });
    }
    n_taxa
        .checked_mul(2)
        .map(|n| n - 2)
        .filter(|&n| n <= Slot::EMPTY.0 as usize)
        .ok_or_else(|| PhyloError::TreeStructure(format!("{n_taxa} taxa exceed 32-bit node ids")))
}

/// An unrooted binary tree with branch lengths.
///
/// Equality is *structural*: two trees are equal when they have the same
/// taxa, the same adjacency and the same branch lengths, regardless of the
/// internal neighbor-slot order (which depends on edit history).
#[derive(Debug, Clone)]
pub struct Tree {
    n_taxa: usize,
    /// Up to three neighbors per node; tips use slot 0 only.
    neighbors: Vec<[Slot; 3]>,
    /// Branch length of the corresponding neighbor slot.
    lengths: Vec<[f64; 3]>,
    /// Number of inner nodes currently in use (supports stepwise growth).
    n_inner_used: usize,
}

/// An undirected edge, canonically ordered (`small, large`).
pub type Edge = (NodeId, NodeId);

/// Canonicalize an edge.
#[inline]
pub fn edge(a: NodeId, b: NodeId) -> Edge {
    if a < b {
        (a, b)
    } else {
        (b, a)
    }
}

impl Tree {
    /// Create the unique 3-taxon tree over tips `{0, 1, 2}` (of an eventual
    /// `n_taxa`-taxon tree) joined at the first inner node, with the given
    /// initial branch length on all three branches.
    pub fn initial_triplet(n_taxa: usize, initial_len: f64) -> Result<Tree> {
        Tree::initial_triplet_of(n_taxa, [0, 1, 2], initial_len)
    }

    /// Create the 3-taxon tree over an arbitrary tip triple (used by
    /// randomized stepwise addition, which starts from a random triple).
    pub fn initial_triplet_of(n_taxa: usize, tips: [NodeId; 3], initial_len: f64) -> Result<Tree> {
        let n_nodes = arena_size(n_taxa)?;
        for &t in &tips {
            if t >= n_taxa {
                return Err(PhyloError::TreeStructure(format!("tip {t} out of range")));
            }
        }
        if tips[0] == tips[1] || tips[0] == tips[2] || tips[1] == tips[2] {
            return Err(PhyloError::TreeStructure("triplet tips must be distinct".into()));
        }
        let mut t = Tree {
            n_taxa,
            neighbors: vec![[Slot::EMPTY; 3]; n_nodes],
            lengths: vec![[0.0; 3]; n_nodes],
            n_inner_used: 1,
        };
        let center = n_taxa; // first inner node
        for (slot, tip) in tips.iter().enumerate() {
            t.neighbors[center][slot] = Slot::of(*tip);
            t.lengths[center][slot] = initial_len;
            t.neighbors[*tip][0] = Slot::of(center);
            t.lengths[*tip][0] = initial_len;
        }
        Ok(t)
    }

    /// Build a complete tree from an explicit edge list (used by the Newick
    /// parser and tests). Edges must describe a valid unrooted binary tree.
    pub fn from_edges(n_taxa: usize, edges: &[(NodeId, NodeId, f64)]) -> Result<Tree> {
        let n_nodes = arena_size(n_taxa)?;
        if edges.len() != 2 * n_taxa - 3 {
            return Err(PhyloError::TreeStructure(format!(
                "expected {} edges for {} taxa, got {}",
                2 * n_taxa - 3,
                n_taxa,
                edges.len()
            )));
        }
        let mut t = Tree {
            n_taxa,
            neighbors: vec![[Slot::EMPTY; 3]; n_nodes],
            lengths: vec![[0.0; 3]; n_nodes],
            n_inner_used: n_taxa - 2,
        };
        for &(a, b, len) in edges {
            if a >= n_nodes || b >= n_nodes || a == b {
                return Err(PhyloError::TreeStructure(format!("bad edge ({a}, {b})")));
            }
            t.attach(a, b, clamp_branch(len))?;
        }
        t.validate()?;
        Ok(t)
    }

    /// Serialize the tree's **exact** internal representation: arena size,
    /// neighbor-slot order, and branch lengths as raw `f64` bit patterns.
    ///
    /// Newick round trips and [`Tree::from_edges`] only preserve the tree up
    /// to structural equality; edge iteration order (and therefore SPR
    /// candidate order) depends on slot order, so checkpoint/resume needs
    /// this lossless form to replay a search bit-identically.
    ///
    /// One line per node: three `neighbor:length-bits-hex` fields, `-` for
    /// an empty slot.
    pub fn to_exact_string(&self) -> String {
        let mut out = format!("{} {}\n", self.n_taxa, self.n_inner_used);
        for (nbrs, lens) in self.neighbors.iter().zip(&self.lengths) {
            for slot in 0..3 {
                if slot > 0 {
                    out.push(' ');
                }
                match nbrs[slot].node() {
                    Some(n) => {
                        let _ = write!(out, "{}:{:016x}", n, lens[slot].to_bits());
                    }
                    None => out.push('-'),
                }
            }
            out.push('\n');
        }
        out
    }

    /// Reconstruct a tree from [`Tree::to_exact_string`] output. The result
    /// is bit-identical to the serialized tree: same slot order, same branch
    /// length bits.
    pub fn from_exact_string(text: &str) -> Result<Tree> {
        let bad = |line: usize, message: String| PhyloError::Parse {
            format: "exact-tree",
            line,
            message,
        };
        let mut lines = text.lines().enumerate();
        let (_, header) = lines.next().ok_or_else(|| bad(0, "empty input".into()))?;
        let mut it = header.split_whitespace();
        let n_taxa: usize = it
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| bad(1, "header must start with the taxon count".into()))?;
        let n_inner_used: usize = it
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| bad(1, "header must contain the inner-node count".into()))?;
        if n_taxa < 3 {
            return Err(PhyloError::TooFewTaxa { found: n_taxa, required: 3 });
        }
        // The header is outside input: it may not size an allocation until
        // the node lines it promises are seen to be there.
        let present = lines.clone().count();
        let n_nodes = arena_size(n_taxa).ok().filter(|&n| n <= present).ok_or_else(|| {
            bad(1, format!("header promises {n_taxa} taxa, {present} node lines follow"))
        })?;
        if n_inner_used > n_taxa - 2 {
            return Err(bad(1, format!("{n_inner_used} inner nodes in use of {}", n_taxa - 2)));
        }
        let mut neighbors = vec![[Slot::EMPTY; 3]; n_nodes];
        let mut lengths = vec![[0.0f64; 3]; n_nodes];
        for node in 0..n_nodes {
            let (lineno, line) = lines
                .next()
                .ok_or_else(|| bad(node + 1, format!("expected {n_nodes} node lines")))?;
            let fields: Vec<&str> = line.split_whitespace().collect();
            if fields.len() != 3 {
                return Err(bad(lineno + 1, format!("expected 3 slots, got {}", fields.len())));
            }
            for (slot, field) in fields.iter().enumerate() {
                if *field == "-" {
                    continue;
                }
                let (nbr, bits) = field
                    .split_once(':')
                    .ok_or_else(|| bad(lineno + 1, format!("malformed slot {field:?}")))?;
                let nbr: usize =
                    nbr.parse().map_err(|_| bad(lineno + 1, format!("bad neighbor id {nbr:?}")))?;
                if nbr >= n_nodes {
                    return Err(bad(lineno + 1, format!("neighbor {nbr} out of range")));
                }
                let bits = u64::from_str_radix(bits, 16)
                    .map_err(|_| bad(lineno + 1, format!("bad length bits {bits:?}")))?;
                neighbors[node][slot] = Slot::of(nbr);
                lengths[node][slot] = f64::from_bits(bits);
            }
        }
        let t = Tree { n_taxa, neighbors, lengths, n_inner_used };
        t.validate()?;
        Ok(t)
    }

    /// A uniformly random topology built by random stepwise addition, with
    /// branch lengths drawn from `Exp(mean = mean_branch)`.
    pub fn random<R: Rng>(n_taxa: usize, mean_branch: f64, rng: &mut R) -> Result<Tree> {
        let mut t = Tree::initial_triplet(n_taxa, mean_branch)?;
        for tip in 3..n_taxa {
            let edges = t.edges();
            let (a, b) = edges[rng.gen_range(0..edges.len())];
            t.add_taxon_on_edge(tip, (a, b), mean_branch)?;
        }
        // Randomize branch lengths.
        for (a, b) in t.edges() {
            let u: f64 = rng.gen::<f64>().max(1e-12);
            t.set_branch_length(a, b, clamp_branch(-mean_branch * u.ln()));
        }
        t.validate()?;
        Ok(t)
    }

    /// Number of taxa (tips).
    pub fn n_taxa(&self) -> usize {
        self.n_taxa
    }

    /// Total nodes in the arena (tips + all inner slots, used or not).
    pub fn n_nodes(&self) -> usize {
        self.neighbors.len()
    }

    /// Number of taxa currently attached (during stepwise addition this is
    /// less than `n_taxa`).
    pub fn n_attached_taxa(&self) -> usize {
        self.n_inner_used + 2
    }

    /// True if the node is a tip (taxon).
    #[inline]
    pub fn is_tip(&self, node: NodeId) -> bool {
        node < self.n_taxa
    }

    /// Degree of a node (0 if detached).
    pub fn degree(&self, node: NodeId) -> usize {
        self.neighbors[node].iter().filter(|&&n| n != Slot::EMPTY).count()
    }

    /// Neighbors of a node with branch lengths.
    pub fn neighbors_of(&self, node: NodeId) -> impl Iterator<Item = (NodeId, f64)> + '_ {
        self.neighbors[node]
            .iter()
            .zip(self.lengths[node].iter())
            .filter_map(|(n, &l)| n.node().map(|id| (id, l)))
    }

    /// The neighbors of an inner node other than `except`.
    pub fn other_neighbors(&self, node: NodeId, except: NodeId) -> [(NodeId, f64); 2] {
        let mut out = [(usize::MAX, 0.0); 2];
        let mut i = 0;
        for (n, l) in self.neighbors_of(node) {
            if n != except {
                assert!(i < 2, "node {node} has more than 3 neighbors?");
                out[i] = (n, l);
                i += 1;
            }
        }
        assert_eq!(i, 2, "node {node} is not an inner node with neighbor {except}");
        out
    }

    /// Branch length between two adjacent nodes.
    pub fn branch_length(&self, a: NodeId, b: NodeId) -> f64 {
        self.slot_of(a, b)
            .map(|s| self.lengths[a][s])
            .unwrap_or_else(|| panic!("nodes {a} and {b} are not adjacent"))
    }

    /// True if two nodes are adjacent.
    pub fn adjacent(&self, a: NodeId, b: NodeId) -> bool {
        self.slot_of(a, b).is_some()
    }

    /// Set the branch length between two adjacent nodes (kept symmetric).
    pub fn set_branch_length(&mut self, a: NodeId, b: NodeId, len: f64) {
        let len = clamp_branch(len);
        let sa = self.slot_of(a, b).expect("nodes not adjacent");
        let sb = self.slot_of(b, a).expect("adjacency must be symmetric");
        self.lengths[a][sa] = len;
        self.lengths[b][sb] = len;
    }

    /// All branches of the currently attached tree, canonically ordered.
    pub fn edges(&self) -> Vec<Edge> {
        let mut out = Vec::with_capacity(2 * self.n_taxa - 3);
        self.edges_into(&mut out);
        out
    }

    /// [`Self::edges`] into a caller-owned buffer — no allocation once the
    /// buffer has grown to capacity, for steady-state search loops.
    pub fn edges_into(&self, out: &mut Vec<Edge>) {
        out.clear();
        for a in 0..self.n_nodes() {
            for (b, _) in self.neighbors_of(a) {
                if a < b {
                    out.push((a, b));
                }
            }
        }
    }

    /// The first edge in [`Self::edges`]' canonical order, without
    /// allocating — a stable virtual-root choice for evaluation.
    pub fn first_edge(&self) -> Edge {
        for a in 0..self.n_nodes() {
            for (b, _) in self.neighbors_of(a) {
                if a < b {
                    return (a, b);
                }
            }
        }
        panic!("tree has no attached edges");
    }

    /// Insert taxon `tip` on edge `(a, b)`: a new inner node `v` splits the
    /// edge, and `tip` hangs off `v` with branch length `tip_len`.
    /// Returns the junction node.
    pub fn add_taxon_on_edge(&mut self, tip: NodeId, (a, b): Edge, tip_len: f64) -> Result<NodeId> {
        if !self.is_tip(tip) || self.degree(tip) != 0 {
            return Err(PhyloError::TreeStructure(format!("node {tip} is not a detached tip")));
        }
        let v = self.alloc_inner()?;
        let old_len = self.branch_length(a, b);
        self.detach(a, b);
        let half = clamp_branch(old_len * 0.5);
        self.attach(a, v, half)?;
        self.attach(v, b, half)?;
        self.attach(v, tip, clamp_branch(tip_len))?;
        Ok(v)
    }

    /// Remove the subtree hanging from `s` across the branch `(s, v)`:
    /// detaches `s` from the junction `v`, dissolves `v` by joining its two
    /// remaining neighbors `(a, b)` with length `len(a,v) + len(v,b)`.
    ///
    /// Returns `(v, (a, b), lengths)` — everything needed to undo the prune
    /// or to regraft elsewhere. `v` is left detached for reuse by
    /// [`Tree::regraft`].
    pub fn prune(&mut self, s: NodeId, v: NodeId) -> Result<PrunedSubtree> {
        if !self.adjacent(s, v) {
            return Err(PhyloError::TreeStructure(format!("{s} and {v} are not adjacent")));
        }
        if self.is_tip(v) {
            return Err(PhyloError::TreeStructure(format!("junction {v} must be an inner node")));
        }
        let prune_len = self.branch_length(s, v);
        let [(a, la), (b, lb)] = self.other_neighbors(v, s);
        self.detach(s, v);
        self.detach(a, v);
        self.detach(b, v);
        self.attach(a, b, clamp_branch(la + lb))?;
        // NOTE: merged_edge keeps (a, b) in the same order as (la, lb) so
        // that undo_prune restores each length to the correct side.
        Ok(PrunedSubtree { root: s, junction: v, merged_edge: (a, b), la, lb, prune_len })
    }

    /// Regraft a pruned subtree onto edge `(x, y)`: the junction node splits
    /// the edge and the subtree root is re-attached with its original prune
    /// branch length.
    pub fn regraft(&mut self, pruned: &PrunedSubtree, (x, y): Edge) -> Result<()> {
        let v = pruned.junction;
        if self.degree(v) != 0 {
            return Err(PhyloError::TreeStructure(format!("junction {v} is still attached")));
        }
        if !self.adjacent(x, y) {
            return Err(PhyloError::TreeStructure(format!("({x}, {y}) is not an edge")));
        }
        let old_len = self.branch_length(x, y);
        self.detach(x, y);
        let half = clamp_branch(old_len * 0.5);
        self.attach(x, v, half)?;
        self.attach(v, y, half)?;
        self.attach(v, pruned.root, clamp_branch(pruned.prune_len))?;
        Ok(())
    }

    /// Undo a prune exactly: restores the junction on the merged edge with
    /// the original branch lengths.
    pub fn undo_prune(&mut self, pruned: &PrunedSubtree) -> Result<()> {
        let (a, b) = pruned.merged_edge;
        let v = pruned.junction;
        if !self.adjacent(a, b) {
            return Err(PhyloError::TreeStructure(format!(
                "merged edge ({a}, {b}) no longer exists"
            )));
        }
        self.detach(a, b);
        self.attach(a, v, clamp_branch(pruned.la))?;
        self.attach(v, b, clamp_branch(pruned.lb))?;
        self.attach(v, pruned.root, clamp_branch(pruned.prune_len))?;
        Ok(())
    }

    /// Nearest-neighbor interchange across the internal edge `(u, v)`:
    /// swaps one subtree of `u` with one subtree of `v`. `swap` selects
    /// which of the two possible interchanges to apply (0 or 1).
    pub fn nni(&mut self, u: NodeId, v: NodeId, swap: usize) -> Result<()> {
        if self.is_tip(u) || self.is_tip(v) || !self.adjacent(u, v) {
            return Err(PhyloError::TreeStructure(format!(
                "NNI requires an internal edge, got ({u}, {v})"
            )));
        }
        let [(a, la), _] = self.other_neighbors(u, v);
        let others_v = self.other_neighbors(v, u);
        let (c, lc) = others_v[swap.min(1)];
        // Swap a (child of u) with c (child of v).
        self.detach(u, a);
        self.detach(v, c);
        self.attach(u, c, clamp_branch(lc))?;
        self.attach(v, a, clamp_branch(la))?;
        Ok(())
    }

    /// Nodes in the subtree on `root`'s side of the branch `(root, away)`,
    /// i.e. everything reachable from `root` without crossing to `away`.
    pub fn subtree_nodes(&self, root: NodeId, away: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut stack = vec![(root, away)];
        while let Some((node, parent)) = stack.pop() {
            out.push(node);
            for (n, _) in self.neighbors_of(node) {
                if n != parent {
                    stack.push((n, node));
                }
            }
        }
        out
    }

    /// Edges within `radius` hops of the node `from`, excluding edges
    /// incident to `exclude` — the SPR candidate-target enumeration
    /// (RAxML's "rearrangement region").
    pub fn edges_within_radius(
        &self,
        from: NodeId,
        radius: usize,
        exclude: &[NodeId],
    ) -> Vec<Edge> {
        let mut out = Vec::new();
        let mut seen = vec![false; self.n_nodes()];
        for &e in exclude {
            seen[e] = true;
        }
        let mut frontier = vec![from];
        seen[from] = true;
        for _ in 0..radius {
            let mut next = Vec::new();
            for &node in &frontier {
                for (n, _) in self.neighbors_of(node) {
                    if !seen[n] {
                        seen[n] = true;
                        out.push(edge(node, n));
                        next.push(n);
                    }
                }
            }
            frontier = next;
        }
        out
    }

    /// Tips in the subtree on `root`'s side of `(root, away)`.
    pub fn subtree_tips(&self, root: NodeId, away: NodeId) -> Vec<NodeId> {
        self.subtree_nodes(root, away).into_iter().filter(|&n| self.is_tip(n)).collect()
    }

    /// Sum of all branch lengths (the tree length — a standard summary
    /// statistic of an inferred phylogeny).
    pub fn total_length(&self) -> f64 {
        self.edges().iter().map(|&(a, b)| self.branch_length(a, b)).sum()
    }

    /// Patristic distance: the sum of branch lengths along the unique path
    /// between two nodes. Panics if either node is detached.
    pub fn path_length(&self, from: NodeId, to: NodeId) -> f64 {
        if from == to {
            return 0.0;
        }
        // BFS with distance accumulation.
        let mut dist = vec![f64::NAN; self.n_nodes()];
        let mut queue = std::collections::VecDeque::new();
        dist[from] = 0.0;
        queue.push_back(from);
        while let Some(n) = queue.pop_front() {
            if n == to {
                return dist[n];
            }
            for (m, len) in self.neighbors_of(n) {
                if dist[m].is_nan() {
                    dist[m] = dist[n] + len;
                    queue.push_back(m);
                }
            }
        }
        panic!("no path between {from} and {to} (detached node?)");
    }

    /// Structural validation: degrees, symmetry, connectivity, length
    /// agreement. Cheap enough to run in debug assertions and tests.
    pub fn validate(&self) -> Result<()> {
        let attached_tips: Vec<NodeId> = (0..self.n_taxa).filter(|&t| self.degree(t) > 0).collect();
        for &t in &attached_tips {
            if self.degree(t) != 1 {
                return Err(PhyloError::TreeStructure(format!(
                    "tip {t} has degree {}",
                    self.degree(t)
                )));
            }
        }
        for inner in self.n_taxa..self.n_nodes() {
            let d = self.degree(inner);
            if d != 0 && d != 3 {
                return Err(PhyloError::TreeStructure(format!(
                    "inner node {inner} has degree {d}"
                )));
            }
        }
        // Symmetry of adjacency and lengths.
        for a in 0..self.n_nodes() {
            for (b, l) in self.neighbors_of(a) {
                let back = self.slot_of(b, a).ok_or_else(|| {
                    PhyloError::TreeStructure(format!("asymmetric edge ({a}, {b})"))
                })?;
                if (self.lengths[b][back] - l).abs() > 1e-15 {
                    return Err(PhyloError::TreeStructure(format!(
                        "length mismatch on edge ({a}, {b})"
                    )));
                }
                if !(MIN_BRANCH..=MAX_BRANCH).contains(&l) {
                    return Err(PhyloError::TreeStructure(format!(
                        "branch length {l} out of range on ({a}, {b})"
                    )));
                }
            }
        }
        // Connectivity over attached nodes.
        if let Some(&start) = attached_tips.first() {
            let mut seen = vec![false; self.n_nodes()];
            let mut stack = vec![start];
            seen[start] = true;
            let mut count = 0;
            while let Some(n) = stack.pop() {
                count += 1;
                for (m, _) in self.neighbors_of(n) {
                    if !seen[m] {
                        seen[m] = true;
                        stack.push(m);
                    }
                }
            }
            let attached_total = (0..self.n_nodes()).filter(|&n| self.degree(n) > 0).count();
            if count != attached_total {
                return Err(PhyloError::TreeStructure(format!(
                    "tree is disconnected: reached {count} of {attached_total} nodes"
                )));
            }
        }
        Ok(())
    }

    /// Serialize to Newick, rooted at the first inner node (trifurcation),
    /// with the given taxon names.
    pub fn to_newick(&self, names: &[String]) -> String {
        assert_eq!(names.len(), self.n_taxa, "need one name per taxon");
        let root = self.n_taxa; // first inner node
        let mut s = String::new();
        s.push('(');
        let kids: Vec<(NodeId, f64)> = self.neighbors_of(root).collect();
        for (i, &(child, len)) in kids.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            self.write_newick_rec(child, root, len, names, &mut s);
        }
        s.push_str(");");
        s
    }

    fn write_newick_rec(
        &self,
        node: NodeId,
        parent: NodeId,
        len: f64,
        names: &[String],
        out: &mut String,
    ) {
        if self.is_tip(node) {
            let _ = write!(out, "{}:{:.9}", names[node], len);
        } else {
            out.push('(');
            let mut first = true;
            for (child, clen) in self.neighbors_of(node) {
                if child == parent {
                    continue;
                }
                if !first {
                    out.push(',');
                }
                first = false;
                self.write_newick_rec(child, node, clen, names, out);
            }
            let _ = write!(out, "):{:.9}", len);
        }
    }

    // ---- internal plumbing ----

    fn slot_of(&self, a: NodeId, b: NodeId) -> Option<usize> {
        self.neighbors[a].iter().position(|&n| n.node() == Some(b))
    }

    fn free_slot(&self, a: NodeId) -> Option<usize> {
        let limit = if self.is_tip(a) { 1 } else { 3 };
        self.neighbors[a][..limit].iter().position(|&n| n == Slot::EMPTY)
    }

    fn attach(&mut self, a: NodeId, b: NodeId, len: f64) -> Result<()> {
        let sa = self.free_slot(a).ok_or_else(|| {
            PhyloError::TreeStructure(format!("node {a} has no free neighbor slot"))
        })?;
        let sb = self.free_slot(b).ok_or_else(|| {
            PhyloError::TreeStructure(format!("node {b} has no free neighbor slot"))
        })?;
        self.neighbors[a][sa] = Slot::of(b);
        self.lengths[a][sa] = len;
        self.neighbors[b][sb] = Slot::of(a);
        self.lengths[b][sb] = len;
        Ok(())
    }

    fn detach(&mut self, a: NodeId, b: NodeId) {
        let sa = self.slot_of(a, b).expect("detach: not adjacent");
        let sb = self.slot_of(b, a).expect("detach: asymmetric");
        self.neighbors[a][sa] = Slot::EMPTY;
        self.neighbors[b][sb] = Slot::EMPTY;
    }

    fn alloc_inner(&mut self) -> Result<NodeId> {
        let id = self.n_taxa + self.n_inner_used;
        if id >= self.n_nodes() {
            return Err(PhyloError::TreeStructure("inner node arena exhausted".into()));
        }
        self.n_inner_used += 1;
        Ok(id)
    }
}

impl PartialEq for Tree {
    fn eq(&self, other: &Tree) -> bool {
        if self.n_taxa != other.n_taxa || self.n_nodes() != other.n_nodes() {
            return false;
        }
        for node in 0..self.n_nodes() {
            let mut a: Vec<(NodeId, u64)> =
                self.neighbors_of(node).map(|(n, l)| (n, l.to_bits())).collect();
            let mut b: Vec<(NodeId, u64)> =
                other.neighbors_of(node).map(|(n, l)| (n, l.to_bits())).collect();
            a.sort_unstable();
            b.sort_unstable();
            if a != b {
                return false;
            }
        }
        true
    }
}

/// Bookkeeping returned by [`Tree::prune`], consumed by [`Tree::regraft`] or
/// [`Tree::undo_prune`].
#[derive(Debug, Clone, Copy)]
pub struct PrunedSubtree {
    /// Root of the detached subtree.
    pub root: NodeId,
    /// The junction node that was dissolved (now detached, reused on regraft).
    pub junction: NodeId,
    /// The edge created by merging the junction's two remaining neighbors,
    /// ordered to match (`la`, `lb`) (not canonicalized).
    pub merged_edge: (NodeId, NodeId),
    /// Original length junction→first merged neighbor.
    pub la: f64,
    /// Original length junction→second merged neighbor.
    pub lb: f64,
    /// Original length subtree-root→junction.
    pub prune_len: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn five_taxon_tree() -> Tree {
        // Build ((0,1),(2,3),4) style tree by stepwise addition.
        let mut t = Tree::initial_triplet(5, 0.1).unwrap();
        let e = t.edges();
        t.add_taxon_on_edge(3, e[0], 0.1).unwrap();
        let e = t.edges();
        t.add_taxon_on_edge(4, e[1], 0.1).unwrap();
        t.validate().unwrap();
        t
    }

    #[test]
    fn exact_serialization_round_trips_bit_identically() {
        let mut rng = StdRng::seed_from_u64(17);
        let t = Tree::random(12, 0.1, &mut rng).unwrap();
        let text = t.to_exact_string();
        let back = Tree::from_exact_string(&text).unwrap();
        // Stronger than PartialEq (which is slot-order-insensitive): the
        // raw internals must match so edge iteration order is preserved.
        assert_eq!(t.neighbors, back.neighbors);
        for (a, b) in t.lengths.iter().zip(&back.lengths) {
            for s in 0..3 {
                assert_eq!(a[s].to_bits(), b[s].to_bits());
            }
        }
        assert_eq!(t.edges(), back.edges());
        assert_eq!(text, back.to_exact_string());
    }

    #[test]
    fn a_node_costs_twelve_bytes_of_neighbors() {
        assert_eq!(std::mem::size_of::<[Slot; 3]>(), 12);
        // The sentinel is not a node id: the largest arena ends one below it.
        assert_eq!(arena_size(1 << 31).unwrap(), u32::MAX as usize - 1);
        assert!(arena_size((1 << 31) + 1).is_err());
        assert!(arena_size(usize::MAX).is_err());
    }

    #[test]
    fn exact_deserialization_rejects_corrupt_input() {
        assert!(Tree::from_exact_string("").is_err());
        assert!(Tree::from_exact_string("5\n").is_err());
        assert!(Tree::from_exact_string("5 3\n- -\n").is_err(), "short slot line");
        assert!(Tree::from_exact_string("2 0\n- - -\n- - -\n").is_err(), "too few taxa");
        // Truncated node list.
        let t = five_taxon_tree();
        let text = t.to_exact_string();
        let truncated: String = text.lines().take(4).map(|l| format!("{l}\n")).collect();
        assert!(Tree::from_exact_string(&truncated).is_err());
        // Neighbor out of range.
        let poisoned = text.replacen("5:", "99:", 1);
        assert!(Tree::from_exact_string(&poisoned).is_err());
    }

    #[test]
    fn triplet_shape() {
        let t = Tree::initial_triplet(5, 0.1).unwrap();
        assert_eq!(t.degree(5), 3);
        assert_eq!(t.degree(0), 1);
        assert_eq!(t.degree(3), 0); // not yet attached
        assert_eq!(t.edges().len(), 3);
        t.validate().unwrap();
    }

    #[test]
    fn too_few_taxa() {
        assert!(Tree::initial_triplet(2, 0.1).is_err());
    }

    #[test]
    fn stepwise_addition_reaches_full_size() {
        let t = five_taxon_tree();
        assert_eq!(t.edges().len(), 2 * 5 - 3);
        assert_eq!(t.n_attached_taxa(), 5);
        for tip in 0..5 {
            assert_eq!(t.degree(tip), 1, "tip {tip}");
        }
    }

    #[test]
    fn branch_length_symmetry() {
        let mut t = five_taxon_tree();
        let (a, b) = t.edges()[2];
        t.set_branch_length(a, b, 0.42);
        assert_eq!(t.branch_length(a, b), 0.42);
        assert_eq!(t.branch_length(b, a), 0.42);
    }

    #[test]
    fn branch_length_clamped() {
        let mut t = five_taxon_tree();
        let (a, b) = t.edges()[0];
        t.set_branch_length(a, b, 1e-300);
        assert_eq!(t.branch_length(a, b), MIN_BRANCH);
        t.set_branch_length(a, b, 1e9);
        assert_eq!(t.branch_length(a, b), MAX_BRANCH);
    }

    #[test]
    fn prune_then_undo_is_identity() {
        let t0 = five_taxon_tree();
        let mut t = t0.clone();
        // Prune tip 0 from its junction.
        let v = t.neighbors_of(0).next().unwrap().0;
        let pruned = t.prune(0, v).unwrap();
        assert_eq!(t.degree(0), 0);
        assert_eq!(t.degree(v), 0);
        assert_eq!(t.edges().len(), 2 * 5 - 3 - 2);
        t.undo_prune(&pruned).unwrap();
        t.validate().unwrap();
        // Same topology and lengths.
        assert_eq!(t, t0);
    }

    #[test]
    fn spr_move_preserves_validity() {
        let mut t = five_taxon_tree();
        let v = t.neighbors_of(0).next().unwrap().0;
        let pruned = t.prune(0, v).unwrap();
        // Regraft on any remaining edge not incident to the subtree.
        let target = t.edges()[0];
        t.regraft(&pruned, target).unwrap();
        t.validate().unwrap();
        assert_eq!(t.edges().len(), 2 * 5 - 3);
        assert_eq!(t.n_attached_taxa(), 5);
    }

    #[test]
    fn prune_inner_subtree() {
        let mut t = five_taxon_tree();
        // Find an internal edge (u, v): prune the subtree rooted at u.
        let internal: Vec<Edge> =
            t.edges().into_iter().filter(|&(a, b)| !t.is_tip(a) && !t.is_tip(b)).collect();
        assert!(!internal.is_empty());
        let (u, v) = internal[0];
        let n_sub_tips = t.subtree_tips(u, v).len();
        let pruned = t.prune(u, v).unwrap();
        t.undo_prune(&pruned).unwrap();
        t.validate().unwrap();
        assert_eq!(t.subtree_tips(u, v).len(), n_sub_tips);
    }

    #[test]
    fn nni_swaps_subtrees() {
        let mut t = five_taxon_tree();
        let internal: Vec<Edge> =
            t.edges().into_iter().filter(|&(a, b)| !t.is_tip(a) && !t.is_tip(b)).collect();
        let (u, v) = internal[0];
        let tips_before = t.subtree_tips(u, v);
        t.nni(u, v, 0).unwrap();
        t.validate().unwrap();
        let tips_after = t.subtree_tips(u, v);
        assert_ne!(tips_before, tips_after, "NNI must change the split");
        assert_eq!(t.edges().len(), 7);
    }

    #[test]
    fn nni_rejects_tip_edges() {
        let mut t = five_taxon_tree();
        let v = t.neighbors_of(0).next().unwrap().0;
        assert!(t.nni(0, v, 0).is_err());
    }

    #[test]
    fn subtree_enumeration() {
        let t = five_taxon_tree();
        let v = t.neighbors_of(0).next().unwrap().0;
        // Subtree of tip 0 away from v is just {0}.
        assert_eq!(t.subtree_nodes(0, v), vec![0]);
        // The complement contains every other attached node.
        let comp = t.subtree_nodes(v, 0);
        assert_eq!(comp.len(), (0..t.n_nodes()).filter(|&n| t.degree(n) > 0).count() - 1);
    }

    #[test]
    fn radius_limited_edge_enumeration() {
        let t = five_taxon_tree();
        let all = t.edges();
        let v = t.neighbors_of(4).next().unwrap().0;
        let within = t.edges_within_radius(v, 10, &[4]);
        // Everything except tip 4's pendant edge is reachable.
        assert_eq!(within.len(), all.len() - 1);
        let near = t.edges_within_radius(v, 1, &[4]);
        assert!(near.len() < within.len());
        assert_eq!(t.edges_within_radius(v, 0, &[4]).len(), 0);
    }

    #[test]
    fn random_trees_are_valid_and_distinct() {
        let mut rng = StdRng::seed_from_u64(99);
        let a = Tree::random(12, 0.1, &mut rng).unwrap();
        let b = Tree::random(12, 0.1, &mut rng).unwrap();
        a.validate().unwrap();
        b.validate().unwrap();
        assert_eq!(a.edges().len(), 21);
        assert_ne!(a, b, "two random trees should differ");
    }

    #[test]
    fn total_and_path_lengths() {
        let mut t = five_taxon_tree();
        for (a, b) in t.edges() {
            t.set_branch_length(a, b, 0.25);
        }
        assert!((t.total_length() - 7.0 * 0.25).abs() < 1e-12);
        // Path between adjacent nodes is the branch length.
        let (a, b) = t.edges()[0];
        assert!((t.path_length(a, b) - 0.25).abs() < 1e-12);
        // Path to self is zero; paths are symmetric.
        assert_eq!(t.path_length(3, 3), 0.0);
        assert!((t.path_length(0, 4) - t.path_length(4, 0)).abs() < 1e-12);
        // Tip-to-tip paths cross at least two branches.
        for i in 0..5 {
            for j in (i + 1)..5 {
                assert!(t.path_length(i, j) >= 0.5 - 1e-12, "({i},{j})");
            }
        }
        // Triangle inequality on the tree metric.
        assert!(t.path_length(0, 2) <= t.path_length(0, 4) + t.path_length(4, 2) + 1e-12);
    }

    #[test]
    fn newick_output_contains_all_names() {
        let t = five_taxon_tree();
        let names: Vec<String> = (0..5).map(|i| format!("taxon{i}")).collect();
        let nwk = t.to_newick(&names);
        for name in &names {
            assert!(nwk.contains(name.as_str()), "{nwk}");
        }
        assert!(nwk.ends_with(");"));
        assert_eq!(nwk.matches(',').count(), 4);
    }

    #[test]
    fn from_edges_round_trip() {
        let t = five_taxon_tree();
        let list: Vec<(NodeId, NodeId, f64)> =
            t.edges().into_iter().map(|(a, b)| (a, b, t.branch_length(a, b))).collect();
        let t2 = Tree::from_edges(5, &list).unwrap();
        let mut e1 = t.edges();
        let mut e2 = t2.edges();
        e1.sort_unstable();
        e2.sort_unstable();
        assert_eq!(e1, e2);
        assert_eq!(t, t2);
    }

    #[test]
    fn from_edges_rejects_garbage() {
        assert!(Tree::from_edges(3, &[(0, 1, 0.1)]).is_err()); // wrong count
        assert!(Tree::from_edges(3, &[(0, 0, 0.1), (1, 3, 0.1), (2, 3, 0.1)]).is_err());
        // self edge
    }
}
