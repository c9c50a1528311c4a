//! Specification-side cost helpers: the unstable-pair surcharge `W_TG` and
//! witness paths for synthesised insertions.
//!
//! `W_TG(u, c)` (Section V-A) is the minimum cost of inserting or deleting an
//! elementary subtree rooted at a child of the specification node `u` that is
//! *distinct* from the child `c`.  It prices the temporary subtree that must
//! be inserted when both `P` nodes of an unstable pair would otherwise lose
//! their only child during the transformation.

use crate::cost::CostModel;
use wfdiff_graph::Label;
use wfdiff_sptree::lengths::BranchFreeLengths;
use wfdiff_sptree::{AnnotatedTree, Specification, TreeId};

/// Cached specification-side information needed by the differencing DP.
pub struct SpecContext<'a> {
    spec: &'a Specification,
    lengths: &'a BranchFreeLengths,
}

impl<'a> SpecContext<'a> {
    /// Builds the context over the specification's memoised branch-free
    /// achievable-length sets (computed on the first call per
    /// specification, O(1) afterwards).
    pub fn new(spec: &'a Specification) -> Self {
        SpecContext { spec, lengths: spec.branch_free_lengths() }
    }

    /// The specification this context belongs to.
    pub fn spec(&self) -> &Specification {
        self.spec
    }

    /// The branch-free length sets of the specification tree.
    pub fn lengths(&self) -> &BranchFreeLengths {
        self.lengths
    }

    /// Minimum cost of inserting (or deleting) one elementary subtree derived
    /// from the specification subtree rooted at `u`.
    pub fn min_elementary_cost(&self, cost: &dyn CostModel, u: TreeId) -> f64 {
        let tree = self.spec.tree();
        let node = tree.node(u);
        self.lengths
            .lengths(u)
            .iter()
            .map(|&l| cost.op_cost(l, &node.s_label, &node.t_label))
            .fold(f64::INFINITY, f64::min)
    }

    /// The length achieving [`SpecContext::min_elementary_cost`] for `u`.
    pub fn min_elementary_length(&self, cost: &dyn CostModel, u: TreeId) -> usize {
        let tree = self.spec.tree();
        let node = tree.node(u);
        let mut best_len = self.lengths.min_length(u);
        let mut best = f64::INFINITY;
        for &l in self.lengths.lengths(u) {
            let c = cost.op_cost(l, &node.s_label, &node.t_label);
            if c < best {
                best = c;
                best_len = l;
            }
        }
        best_len
    }

    /// `W_TG(u, excluded)`: minimum cost of an elementary subtree rooted at a
    /// child of `u` distinct from `excluded`.
    ///
    /// `u` must be a specification `P` node (the origin of the unstable pair)
    /// and `excluded` one of its children; `P` nodes of a specification have at
    /// least two children, so the minimum always exists.
    pub fn w_surcharge(&self, cost: &dyn CostModel, u: TreeId, excluded: TreeId) -> f64 {
        let tree = self.spec.tree();
        let mut best = f64::INFINITY;
        for &c in tree.children(u) {
            if c == excluded {
                continue;
            }
            best = best.min(self.min_elementary_cost(cost, c));
        }
        best
    }

    /// The spec child of `u` (distinct from `excluded`) achieving
    /// [`SpecContext::w_surcharge`], together with the length used; used to
    /// synthesise the temporary path of the unstable-pair script.
    pub fn w_witness(
        &self,
        cost: &dyn CostModel,
        u: TreeId,
        excluded: TreeId,
    ) -> Option<(TreeId, usize)> {
        let tree = self.spec.tree();
        let mut best: Option<(TreeId, usize, f64)> = None;
        for &c in tree.children(u) {
            if c == excluded {
                continue;
            }
            let node = tree.node(c);
            for &l in self.lengths.lengths(c) {
                let cost_l = cost.op_cost(l, &node.s_label, &node.t_label);
                if best.map(|(_, _, b)| cost_l < b).unwrap_or(true) {
                    best = Some((c, l, cost_l));
                }
            }
        }
        best.map(|(c, l, _)| (c, l))
    }

    /// A concrete label path of exactly `len` edges through the specification
    /// subgraph represented by `u`, from its source to its sink.  Returns
    /// `None` when `len` is not an achievable branch-free length.
    pub fn witness_path(&self, u: TreeId, len: usize) -> Option<Vec<Label>> {
        if !self.lengths.lengths(u).contains(&len) {
            return None;
        }
        let tree = self.spec.tree();
        witness_path_rec(tree, u, len, self.lengths)
    }
}

/// Recursively constructs a label path of exactly `len` edges for the subtree
/// rooted at `u`.
fn witness_path_rec(
    tree: &AnnotatedTree,
    u: TreeId,
    len: usize,
    lengths: &BranchFreeLengths,
) -> Option<Vec<Label>> {
    use wfdiff_sptree::NodeType;
    match tree.ty(u) {
        NodeType::Q => {
            if len == 1 {
                Some(vec![tree.node(u).s_label.clone(), tree.node(u).t_label.clone()])
            } else {
                None
            }
        }
        NodeType::P => {
            for &c in tree.children(u) {
                if lengths.lengths(c).contains(&len) {
                    return witness_path_rec(tree, c, len, lengths);
                }
            }
            None
        }
        NodeType::F | NodeType::L => witness_path_rec(tree, tree.children(u)[0], len, lengths),
        NodeType::S => {
            // Distribute `len` over the children greedily with backtracking.
            fn assign(
                tree: &AnnotatedTree,
                children: &[TreeId],
                len: usize,
                lengths: &BranchFreeLengths,
            ) -> Option<Vec<Label>> {
                if children.is_empty() {
                    return if len == 0 { Some(Vec::new()) } else { None };
                }
                let c = children[0];
                for &l in lengths.lengths(c) {
                    if l > len {
                        break;
                    }
                    if let Some(mut head) = witness_path_rec(tree, c, l, lengths) {
                        if let Some(tail) = assign(tree, &children[1..], len - l, lengths) {
                            if !tail.is_empty() {
                                // The head's last label equals the tail's first.
                                head.pop();
                                head.extend(tail);
                            }
                            return Some(head);
                        }
                    }
                }
                None
            }
            assign(tree, tree.children(u), len, lengths)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{LengthCost, UnitCost};
    use wfdiff_sptree::{NodeType, SpecificationBuilder};

    fn branching_spec() -> Specification {
        // u -> v via a direct edge, a 2-edge path and a 4-edge path.
        let mut b = SpecificationBuilder::new("branches");
        b.edge("s", "u");
        b.edge("u", "v");
        b.path(&["u", "a1", "v"]);
        b.path(&["u", "b1", "b2", "b3", "v"]);
        b.edge("v", "t");
        b.build().unwrap()
    }

    fn p_node(spec: &Specification) -> TreeId {
        let tree = spec.tree();
        tree.postorder(tree.root())
            .into_iter()
            .find(|&v| tree.ty(v) == NodeType::P)
            .expect("spec has a parallel node")
    }

    #[test]
    fn min_elementary_cost_uses_cheapest_length() {
        let spec = branching_spec();
        let ctx = SpecContext::new(&spec);
        let p = p_node(&spec);
        // Under length cost the cheapest branch-free subtree of the parallel
        // section is the single edge.
        assert_eq!(ctx.min_elementary_cost(&LengthCost, p), 1.0);
        assert_eq!(ctx.min_elementary_length(&LengthCost, p), 1);
        // Under unit cost all lengths cost 1.
        assert_eq!(ctx.min_elementary_cost(&UnitCost, p), 1.0);
    }

    #[test]
    fn w_surcharge_excludes_the_given_child() {
        let spec = branching_spec();
        let ctx = SpecContext::new(&spec);
        let tree = spec.tree();
        let p = p_node(&spec);
        let children = tree.children(p).to_vec();
        // Identify the direct-edge child (length 1).
        let direct =
            children.iter().copied().find(|&c| ctx.lengths().lengths(c).contains(&1)).unwrap();
        // Excluding the direct edge, the cheapest alternative under length cost
        // is the 2-edge branch.
        assert_eq!(ctx.w_surcharge(&LengthCost, p, direct), 2.0);
        // Excluding a long branch leaves the direct edge available.
        let long =
            children.iter().copied().find(|&c| ctx.lengths().lengths(c).contains(&4)).unwrap();
        assert_eq!(ctx.w_surcharge(&LengthCost, p, long), 1.0);
        let (wc, wl) = ctx.w_witness(&LengthCost, p, long).unwrap();
        assert_ne!(wc, long);
        assert_eq!(wl, 1);
    }

    #[test]
    fn witness_paths_have_requested_length_and_terminals() {
        let spec = branching_spec();
        let ctx = SpecContext::new(&spec);
        let tree = spec.tree();
        let root = tree.root();
        for &len in ctx.lengths().lengths(root).clone().iter() {
            let path = ctx.witness_path(root, len).expect("achievable length has a witness");
            assert_eq!(path.len(), len + 1);
            assert_eq!(path.first().unwrap().as_str(), "s");
            assert_eq!(path.last().unwrap().as_str(), "t");
        }
        // Unachievable length has no witness.
        assert!(ctx.witness_path(root, 100).is_none());
    }

    #[test]
    fn witness_path_through_series_distributes_budget() {
        let spec = branching_spec();
        let ctx = SpecContext::new(&spec);
        let root = spec.tree().root();
        // Root lengths are {1,2,4} + 2 (the s->u and v->t edges) = {3,4,6}.
        assert!(ctx.lengths().lengths(root).contains(&3));
        let p = ctx.witness_path(root, 6).unwrap();
        assert_eq!(p.len(), 7);
        assert_eq!(p[1].as_str(), "u");
        assert_eq!(p[p.len() - 2].as_str(), "v");
    }
}
