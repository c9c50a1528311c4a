//! Algorithm 3: minimum-cost subtree deletion.
//!
//! For every node `v` of an annotated run tree the algorithm computes
//!
//! * `Y_T(v)[l]` — the minimum cost of a sequence of elementary subtree
//!   deletions that reduces `T[v]` to a *branch-free* subtree with exactly `l`
//!   leaves, and
//! * `X_T(v)` — the minimum cost of deleting `T[v]` entirely: reduce it to a
//!   branch-free subtree with some `l` leaves and then delete that elementary
//!   subtree at cost `γ(l, s(v), t(v))`.
//!
//! `Q` leaves are trivial; `P`, `F` and `L` nodes keep exactly one child and
//! delete the others; `S` nodes distribute the leaf budget over their children
//! with a knapsack-style dynamic program (`Z` in the paper).  The quadrangle
//! inequality guarantees that no script mixing insertions can do better
//! (Lemma 5.7), so `X_T(v)` is also the minimum cost of *any* edit script that
//! deletes `T[v]` — and, by symmetry of the cost model, the minimum cost of
//! inserting it.

use crate::cache::{DeletionKey, DiffCache};
use crate::cost::CostModel;
use crate::ops::{OpDirection, OpProvenance, PathOperation};
use std::sync::Arc;
use wfdiff_sptree::{AnnotatedTree, NodeType, TreeFingerprints, TreeId};

const INF: f64 = f64::INFINITY;

/// The Algorithm 3 result for one subtree: shared across runs through the
/// [`DiffCache`] deletion map, keyed by the subtree's canonical fingerprint
/// and the cost model.
#[derive(Debug, Clone, PartialEq)]
pub struct DeletionEntry {
    /// `X(v)`: minimum cost of deleting the subtree entirely.
    pub x: f64,
    /// `Y(v)[l]`: minimum cost of reducing the subtree to a branch-free
    /// subtree with exactly `l` leaves (`INF` when unreachable, index 0
    /// unused).
    pub y: Vec<f64>,
}

/// The `X` and `Y` tables of Algorithm 3 for one annotated run tree.
///
/// Per-node entries are reference-counted so that structurally identical
/// subtrees of *different* runs share one allocation when the tables are
/// built through [`DeletionTables::compute_cached`]; the `X` values are
/// additionally mirrored into a flat vector because [`DeletionTables::x`] is
/// on the differencing DP's hot path (`NaN` marks arena slots not reachable
/// from the root, which the algorithms never consult).
#[derive(Debug, Clone)]
pub struct DeletionTables {
    entries: Vec<Option<Arc<DeletionEntry>>>,
    x_flat: Vec<f64>,
}

impl DeletionTables {
    /// Runs Algorithm 3 over the whole tree.
    pub fn compute(tree: &AnnotatedTree, cost: &dyn CostModel) -> DeletionTables {
        Self::compute_inner(tree, cost, None)
    }

    /// Runs Algorithm 3, sharing per-subtree entries through `cache`.
    ///
    /// `fps` must be the fingerprints of `tree` and `cost_model_key` the
    /// identity hash of `cost` (see [`CostModel::cache_key`]); a warm cache
    /// turns the whole computation into one lookup per node.
    pub fn compute_cached(
        tree: &AnnotatedTree,
        cost: &dyn CostModel,
        fps: &TreeFingerprints,
        cost_model_key: u64,
        cache: &dyn DiffCache,
    ) -> DeletionTables {
        Self::compute_inner(tree, cost, Some((fps, cost_model_key, cache)))
    }

    fn compute_inner(
        tree: &AnnotatedTree,
        cost: &dyn CostModel,
        cache: Option<(&TreeFingerprints, u64, &dyn DiffCache)>,
    ) -> DeletionTables {
        let mut entries: Vec<Option<Arc<DeletionEntry>>> = vec![None; tree.len()];
        for v in tree.postorder(tree.root()) {
            if let Some((fps, cost_model, cache)) = cache {
                let key = DeletionKey { cost_model, subtree: fps.of(v) };
                if let Some(entry) = cache.get_deletion(&key) {
                    entries[v.index()] = Some(entry);
                    continue;
                }
                let entry = Arc::new(Self::node_entry(tree, cost, v, &entries));
                cache.put_deletion(key, Arc::clone(&entry));
                entries[v.index()] = Some(entry);
            } else {
                entries[v.index()] = Some(Arc::new(Self::node_entry(tree, cost, v, &entries)));
            }
        }
        let x_flat = entries.iter().map(|e| e.as_ref().map_or(f64::NAN, |e| e.x)).collect();
        DeletionTables { entries, x_flat }
    }

    /// Computes the Algorithm 3 entry for one node given its children's
    /// entries.
    #[expect(
        clippy::expect_used,
        reason = "post-order traversal fills child entries before their parent reads them; violated only by a traversal-order bug"
    )]
    fn node_entry(
        tree: &AnnotatedTree,
        cost: &dyn CostModel,
        v: TreeId,
        entries: &[Option<Arc<DeletionEntry>>],
    ) -> DeletionEntry {
        let child_y = |c: TreeId| -> &[f64] {
            &entries[c.index()].as_ref().expect("children computed in post-order").y
        };
        let child_x = |c: TreeId| -> f64 {
            entries[c.index()].as_ref().expect("children computed in post-order").x
        };
        let node = tree.node(v);
        let leaf_cap = node.leaf_count;
        let mut yv = vec![INF; leaf_cap + 1];
        match node.ty {
            NodeType::Q => {
                yv[1] = 0.0;
            }
            NodeType::P | NodeType::F | NodeType::L => {
                let children = tree.children(v);
                let sum_x: f64 = children.iter().map(|&c| child_x(c)).sum();
                for &c in children {
                    for (l, &cost_l) in child_y(c).iter().enumerate().skip(1) {
                        if cost_l.is_finite() {
                            let cand = cost_l + sum_x - child_x(c);
                            if cand < yv[l] {
                                yv[l] = cand;
                            }
                        }
                    }
                }
            }
            NodeType::S => {
                // Knapsack over the children: z[l] after processing the
                // first i children.
                let children = tree.children(v);
                let mut z = vec![INF; leaf_cap + 1];
                z[0] = 0.0;
                for &c in children {
                    let yc = child_y(c);
                    let mut next = vec![INF; leaf_cap + 1];
                    for (k, &zk) in z.iter().enumerate() {
                        if !zk.is_finite() {
                            continue;
                        }
                        for (l, &yl) in yc.iter().enumerate().skip(1) {
                            if yl.is_finite() && k + l <= leaf_cap {
                                let cand = zk + yl;
                                if cand < next[k + l] {
                                    next[k + l] = cand;
                                }
                            }
                        }
                    }
                    z = next;
                }
                yv = z;
                yv[0] = INF;
            }
        }
        // X(v) = min_l Y(v)[l] + γ(l, s(v), t(v)).
        let mut best = INF;
        for (l, &yl) in yv.iter().enumerate().skip(1) {
            if yl.is_finite() {
                let cand = yl + cost.op_cost(l, &node.s_label, &node.t_label);
                if cand < best {
                    best = cand;
                }
            }
        }
        DeletionEntry { x: best, y: yv }
    }

    #[expect(
        clippy::expect_used,
        reason = "the table is seeded from the root before descent; unreachable nodes cannot be queried"
    )]
    fn y_vec(&self, v: TreeId) -> &[f64] {
        &self.entries[v.index()].as_ref().expect("node reachable from the root").y
    }

    /// `X_T(v)`: minimum cost of deleting (equivalently inserting) the subtree
    /// rooted at `v`.
    #[inline]
    pub fn x(&self, v: TreeId) -> f64 {
        self.x_flat[v.index()]
    }

    /// `Y_T(v)[l]` (or `None` if no branch-free subtree with `l` leaves is
    /// reachable).
    pub fn y(&self, v: TreeId, l: usize) -> Option<f64> {
        self.y_vec(v).get(l).copied().filter(|c| c.is_finite())
    }

    /// Extracts a concrete minimum-cost sequence of elementary-path operations
    /// that deletes (or, with `OpDirection::Insert`, inserts) the subtree
    /// rooted at `v`.  The total cost of the returned operations equals
    /// [`DeletionTables::x`]`(v)`.
    pub fn subtree_ops(
        &self,
        tree: &AnnotatedTree,
        cost: &dyn CostModel,
        v: TreeId,
        direction: OpDirection,
        provenance: OpProvenance,
    ) -> Vec<PathOperation> {
        let mut ops = Vec::new();
        self.emit_delete(tree, cost, v, provenance, &mut ops);
        if direction == OpDirection::Insert {
            // An insertion script is the reverse of the deletion script with
            // every operation inverted.
            ops.reverse();
            for op in &mut ops {
                op.direction = OpDirection::Insert;
            }
        }
        ops
    }

    /// Emits the op sequence that deletes `T[v]` entirely.
    fn emit_delete(
        &self,
        tree: &AnnotatedTree,
        cost: &dyn CostModel,
        v: TreeId,
        provenance: OpProvenance,
        ops: &mut Vec<PathOperation>,
    ) {
        let node = tree.node(v);
        // Choose the final branch-free length l*.
        let mut best_l = 1;
        let mut best = INF;
        for (l, &yl) in self.y_vec(v).iter().enumerate().skip(1) {
            if yl.is_finite() {
                let cand = yl + cost.op_cost(l, &node.s_label, &node.t_label);
                if cand < best {
                    best = cand;
                    best_l = l;
                }
            }
        }
        let kept = self.emit_reduce(tree, cost, v, best_l, provenance, ops);
        ops.push(make_op(tree, &kept, OpDirection::Delete, provenance, cost));
    }

    /// Emits the ops reducing `T[v]` to a branch-free subtree with `l` leaves
    /// and returns those leaves in series order.
    fn emit_reduce(
        &self,
        tree: &AnnotatedTree,
        cost: &dyn CostModel,
        v: TreeId,
        l: usize,
        provenance: OpProvenance,
        ops: &mut Vec<PathOperation>,
    ) -> Vec<TreeId> {
        match tree.ty(v) {
            NodeType::Q => {
                debug_assert_eq!(l, 1);
                vec![v]
            }
            NodeType::P | NodeType::F | NodeType::L => {
                let children = tree.children(v).to_vec();
                let sum_x: f64 = children.iter().map(|&c| self.x(c)).sum();
                // Find the child achieving Y(v)[l].
                let mut keep = children[0];
                let mut best = INF;
                for &c in &children {
                    if let Some(yl) = self.y(c, l) {
                        let cand = yl + sum_x - self.x(c);
                        if cand < best {
                            best = cand;
                            keep = c;
                        }
                    }
                }
                for &c in &children {
                    if c != keep {
                        self.emit_delete(tree, cost, c, provenance, ops);
                    }
                }
                self.emit_reduce(tree, cost, keep, l, provenance, ops)
            }
            NodeType::S => {
                let children = tree.children(v).to_vec();
                // Re-run the knapsack with choice tracking to find the leaf
                // allocation per child.
                let cap = tree.node(v).leaf_count;
                let mut z = vec![vec![INF; cap + 1]; children.len() + 1];
                let mut choice = vec![vec![0usize; cap + 1]; children.len() + 1];
                z[0][0] = 0.0;
                for (i, &c) in children.iter().enumerate() {
                    for k in 0..=cap {
                        if !z[i][k].is_finite() {
                            continue;
                        }
                        for (ll, &yl) in self.y_vec(c).iter().enumerate().skip(1) {
                            if yl.is_finite() && k + ll <= cap {
                                let cand = z[i][k] + yl;
                                if cand < z[i + 1][k + ll] {
                                    z[i + 1][k + ll] = cand;
                                    choice[i + 1][k + ll] = ll;
                                }
                            }
                        }
                    }
                }
                // Walk the choices backwards from (children.len(), l).
                let mut alloc = vec![0usize; children.len()];
                let mut rem = l;
                for i in (0..children.len()).rev() {
                    let ll = choice[i + 1][rem];
                    alloc[i] = ll;
                    rem -= ll;
                }
                let mut kept = Vec::new();
                for (i, &c) in children.iter().enumerate() {
                    kept.extend(self.emit_reduce(tree, cost, c, alloc[i], provenance, ops));
                }
                kept
            }
        }
    }
}

/// Builds a [`PathOperation`] from an ordered list of leaves forming a
/// branch-free path.
pub(crate) fn make_op(
    tree: &AnnotatedTree,
    leaves: &[TreeId],
    direction: OpDirection,
    provenance: OpProvenance,
    cost: &dyn CostModel,
) -> PathOperation {
    debug_assert!(!leaves.is_empty());
    let mut labels = Vec::with_capacity(leaves.len() + 1);
    labels.push(tree.node(leaves[0]).s_label.clone());
    for &leaf in leaves {
        labels.push(tree.node(leaf).t_label.clone());
    }
    let length = leaves.len();
    let op_cost = cost.op_cost(length, &labels[0], &labels[length]);
    PathOperation { direction, labels, leaves: leaves.to_vec(), length, cost: op_cost, provenance }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{LengthCost, PowerCost, UnitCost};
    use wfdiff_sptree::{ExecutionDecider, Specification, SpecificationBuilder};

    fn fig2_specification() -> Specification {
        let mut b = SpecificationBuilder::new("fig2");
        b.edge("1", "2")
            .path(&["2", "3", "6"])
            .path(&["2", "4", "6"])
            .path(&["2", "5", "6"])
            .edge("6", "7")
            .fork_path(&["2", "3", "6"])
            .fork_path(&["2", "4", "6"])
            .fork_path(&["2", "5", "6"])
            .fork_between("1", "7")
            .loop_between("2", "6");
        b.build().unwrap()
    }

    struct Decider {
        fork: usize,
        loops: usize,
        take_all: bool,
    }
    impl ExecutionDecider for Decider {
        fn parallel_subset(&mut self, n: usize) -> Vec<bool> {
            if self.take_all {
                vec![true; n]
            } else {
                let mut v = vec![false; n];
                v[0] = true;
                v
            }
        }
        fn fork_copies(&mut self, _c: usize) -> usize {
            self.fork
        }
        fn loop_iterations(&mut self, _c: usize) -> usize {
            self.loops
        }
    }

    /// Under the unit cost model, deleting a subtree takes exactly
    /// `1 + Σ_{true P/F/L nodes u} (d(u) - 1)` operations.
    fn unit_cost_closed_form(tree: &AnnotatedTree, v: TreeId) -> f64 {
        let mut extra = 0usize;
        for id in tree.postorder(v) {
            let n = tree.node(id);
            if matches!(n.ty, NodeType::P | NodeType::F | NodeType::L) && n.is_true() {
                extra += n.degree() - 1;
            }
        }
        (1 + extra) as f64
    }

    #[test]
    fn unit_cost_matches_closed_form() {
        let spec = fig2_specification();
        for (fork, loops, all) in [(1, 1, true), (2, 1, true), (3, 2, true), (2, 3, false)] {
            let run = spec.execute(&mut Decider { fork, loops, take_all: all }).unwrap();
            let tree = run.tree();
            let tables = DeletionTables::compute(tree, &UnitCost);
            let root = tree.root();
            assert_eq!(
                tables.x(root),
                unit_cost_closed_form(tree, root),
                "unit-cost deletion of the whole run tree (fork={fork}, loops={loops})"
            );
        }
    }

    #[test]
    fn length_cost_equals_leaf_count() {
        // Under the length cost model every leaf edge is deleted exactly once,
        // so X(root) equals the number of tree leaves.
        let spec = fig2_specification();
        for (fork, loops) in [(1, 1), (2, 2), (3, 1)] {
            let run = spec.execute(&mut Decider { fork, loops, take_all: true }).unwrap();
            let tree = run.tree();
            let tables = DeletionTables::compute(tree, &LengthCost);
            assert_eq!(tables.x(tree.root()), tree.leaf_count(tree.root()) as f64);
        }
    }

    #[test]
    fn y_table_of_a_leaf() {
        let spec = fig2_specification();
        let run = spec.execute(&mut Decider { fork: 1, loops: 1, take_all: true }).unwrap();
        let tree = run.tree();
        let tables = DeletionTables::compute(tree, &UnitCost);
        let leaf = tree.leaves(tree.root())[0];
        assert_eq!(tables.y(leaf, 1), Some(0.0));
        assert_eq!(tables.y(leaf, 2), None);
        assert_eq!(tables.x(leaf), 1.0);
    }

    #[test]
    fn extraction_cost_matches_x_for_all_nodes() {
        let spec = fig2_specification();
        for eps in [0.0, 0.5, 1.0] {
            let cost = PowerCost::new(eps);
            let run = spec.execute(&mut Decider { fork: 3, loops: 2, take_all: true }).unwrap();
            let tree = run.tree();
            let tables = DeletionTables::compute(tree, &cost);
            for v in tree.postorder(tree.root()) {
                let ops = tables.subtree_ops(
                    tree,
                    &cost,
                    v,
                    OpDirection::Delete,
                    OpProvenance::SourceRun,
                );
                let total: f64 = ops.iter().map(|o| o.cost).sum();
                assert!(
                    (total - tables.x(v)).abs() < 1e-9,
                    "extracted script cost {total} != X(v) {} at ε={eps}",
                    tables.x(v)
                );
                // Every leaf of the subtree is deleted exactly once.
                let mut deleted: Vec<TreeId> =
                    ops.iter().flat_map(|o| o.leaves.iter().copied()).collect();
                deleted.sort();
                let mut expected = tree.leaves(v);
                expected.sort();
                assert_eq!(deleted, expected);
            }
        }
    }

    #[test]
    fn insertion_script_is_reversed_deletion() {
        let spec = fig2_specification();
        let run = spec.execute(&mut Decider { fork: 2, loops: 1, take_all: true }).unwrap();
        let tree = run.tree();
        let tables = DeletionTables::compute(tree, &UnitCost);
        let root = tree.root();
        let del =
            tables.subtree_ops(tree, &UnitCost, root, OpDirection::Delete, OpProvenance::SourceRun);
        let ins =
            tables.subtree_ops(tree, &UnitCost, root, OpDirection::Insert, OpProvenance::TargetRun);
        assert_eq!(del.len(), ins.len());
        assert!(ins.iter().all(|o| o.direction == OpDirection::Insert));
        // Same total cost, reversed label sequences.
        let dc: f64 = del.iter().map(|o| o.cost).sum();
        let ic: f64 = ins.iter().map(|o| o.cost).sum();
        assert_eq!(dc, ic);
        assert_eq!(del.first().unwrap().labels, ins.last().unwrap().labels);
    }

    #[test]
    fn branch_free_subtree_deletes_in_one_operation() {
        // A run that is a single path deletes with exactly one operation.
        let mut b = SpecificationBuilder::new("chain");
        b.path(&["a", "b", "c", "d"]);
        let spec = b.build().unwrap();
        let run = spec.execute(&mut Decider { fork: 1, loops: 1, take_all: true }).unwrap();
        let tree = run.tree();
        let tables = DeletionTables::compute(tree, &UnitCost);
        let ops = tables.subtree_ops(
            tree,
            &UnitCost,
            tree.root(),
            OpDirection::Delete,
            OpProvenance::SourceRun,
        );
        assert_eq!(ops.len(), 1);
        assert_eq!(ops[0].length, 3);
        assert_eq!(ops[0].labels.len(), 4);
        assert_eq!(tables.x(tree.root()), 1.0);
    }

    #[test]
    fn power_cost_prefers_keeping_long_paths_for_the_final_deletion() {
        // Between u and v there are a short branch (1 edge) and a long branch
        // (4 edges), both executed.  Under the length cost the final deletion
        // should keep whichever minimises total cost: both orders cost the
        // same (5); under sub-linear cost (ε=0.5) deleting the long path as the
        // *final* elementary subtree is cheaper: 1 + sqrt(4) = 3 vs sqrt(1) + ...
        // i.e. X = min(γ(1) + γ(4), γ(4) + γ(1)) — equal — but with unit cost
        // X = 2 regardless.  The interesting assertion is monotonicity in ε.
        let mut b = SpecificationBuilder::new("two-branch");
        b.edge("u", "v");
        b.path(&["u", "m1", "m2", "m3", "v"]);
        let spec = b.build().unwrap();
        let run = spec.execute(&mut Decider { fork: 1, loops: 1, take_all: true }).unwrap();
        let tree = run.tree();
        let unit = DeletionTables::compute(tree, &UnitCost).x(tree.root());
        let half = DeletionTables::compute(tree, &PowerCost::new(0.5)).x(tree.root());
        let len = DeletionTables::compute(tree, &LengthCost).x(tree.root());
        assert_eq!(unit, 2.0);
        assert_eq!(len, 5.0);
        assert!(half > unit && half < len);
        assert!((half - 3.0).abs() < 1e-9, "sqrt(1) + sqrt(4) = 3, got {half}");
    }
}
