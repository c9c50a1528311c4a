//! Well-formed mappings (Definition 5.1) and their cost (Section V-A).
//!
//! A well-formed mapping is a partial one-to-one correspondence between the
//! nodes of two annotated run trees that maps the roots, only pairs
//! homologous nodes, preserves parents, and maps all children of mapped `S`
//! nodes.  Theorem 3 states that the edit distance equals the minimum cost of
//! a well-formed mapping; this module provides the [`Mapping`] type, a
//! well-formedness checker and an *independent* cost evaluator used to
//! cross-check the dynamic program of [`crate::distance`].

use crate::cost::CostModel;
use crate::deletion::DeletionTables;
use crate::error::DiffError;
use crate::surcharge::SpecContext;
use std::collections::BTreeSet;
use wfdiff_sptree::{AnnotatedTree, NodeType, TreeId};

/// A well-formed mapping between two annotated run trees.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Mapping {
    pairs: Vec<(TreeId, TreeId)>,
}

impl Mapping {
    /// Creates a mapping from a list of node pairs `(v1 in T1, v2 in T2)`.
    pub fn new(mut pairs: Vec<(TreeId, TreeId)>) -> Self {
        pairs.sort();
        pairs.dedup();
        Mapping { pairs }
    }

    /// The mapped pairs, sorted.
    pub fn pairs(&self) -> &[(TreeId, TreeId)] {
        &self.pairs
    }

    /// Number of mapped pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// `true` if no pair is mapped.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// The image of a `T1` node under the mapping.
    pub fn image(&self, v1: TreeId) -> Option<TreeId> {
        self.pairs.iter().find(|(a, _)| *a == v1).map(|(_, b)| *b)
    }

    /// The pre-image of a `T2` node under the mapping.
    pub fn preimage(&self, v2: TreeId) -> Option<TreeId> {
        self.pairs.iter().find(|(_, b)| *b == v2).map(|(a, _)| *a)
    }

    /// `true` if the `T1` node is mapped.
    pub fn maps_left(&self, v1: TreeId) -> bool {
        self.image(v1).is_some()
    }

    /// `true` if the `T2` node is mapped.
    pub fn maps_right(&self, v2: TreeId) -> bool {
        self.preimage(v2).is_some()
    }

    /// Checks all five conditions of Definition 5.1 against the two trees.
    pub fn verify_well_formed(
        &self,
        t1: &AnnotatedTree,
        t2: &AnnotatedTree,
    ) -> Result<(), DiffError> {
        let mut left_seen = BTreeSet::new();
        let mut right_seen = BTreeSet::new();
        for &(a, b) in &self.pairs {
            // 1. one-to-one
            if !left_seen.insert(a) {
                return Err(DiffError::Invariant(format!("T1 node {a} mapped twice")));
            }
            if !right_seen.insert(b) {
                return Err(DiffError::Invariant(format!("T2 node {b} mapped twice")));
            }
            // 3. specification preserved (homologous nodes only)
            if t1.node(a).origin != t2.node(b).origin {
                return Err(DiffError::Invariant(format!(
                    "mapped pair ({a}, {b}) is not homologous"
                )));
            }
            // 4. parent preserved
            match (t1.parent(a), t2.parent(b)) {
                (Some(pa), Some(pb)) => {
                    if self.image(pa) != Some(pb) {
                        return Err(DiffError::Invariant(format!(
                            "parents of mapped pair ({a}, {b}) are not mapped to each other"
                        )));
                    }
                }
                (None, None) => {}
                _ => {
                    return Err(DiffError::Invariant(format!(
                        "exactly one node of the mapped pair ({a}, {b}) is a root"
                    )))
                }
            }
            // 5. children of S nodes preserved
            if t1.ty(a) == NodeType::S {
                let ca = t1.children(a);
                let cb = t2.children(b);
                if ca.len() != cb.len() {
                    return Err(DiffError::Invariant(format!(
                        "mapped S nodes ({a}, {b}) have different child counts"
                    )));
                }
                for (x, y) in ca.iter().zip(cb.iter()) {
                    if self.image(*x) != Some(*y) {
                        return Err(DiffError::Invariant(format!(
                            "children of mapped S nodes ({a}, {b}) are not pairwise mapped"
                        )));
                    }
                }
            }
        }
        // 2. roots mapped
        if self.image(t1.root()) != Some(t2.root()) {
            return Err(DiffError::Invariant("roots are not mapped".to_string()));
        }
        Ok(())
    }

    /// Evaluates the cost `γ(M)` of this mapping (Section V-A), independently
    /// of how the mapping was produced.
    ///
    /// For every mapped pair the unmapped children are charged their minimum
    /// deletion/insertion cost; unstably matched `P` pairs additionally pay
    /// the `2·W_TG` surcharge.
    #[expect(
        clippy::expect_used,
        reason = "run-tree nodes always carry spec origins (established by Run::from_graph validation)"
    )]
    pub fn cost(
        &self,
        t1: &AnnotatedTree,
        t2: &AnnotatedTree,
        x1: &DeletionTables,
        x2: &DeletionTables,
        ctx: &SpecContext<'_>,
        cost: &dyn CostModel,
    ) -> f64 {
        let mut total = 0.0;
        for &(a, b) in &self.pairs {
            let unstable = self.is_unstable_pair(t1, t2, a, b);
            if unstable {
                let c1 = t1.children(a)[0];
                let c2 = t2.children(b)[0];
                let spec_p = t1.node(a).origin.expect("run nodes carry origins");
                let spec_child = t1.node(c1).origin.expect("run nodes carry origins");
                total += x1.x(c1) + x2.x(c2) + 2.0 * ctx.w_surcharge(cost, spec_p, spec_child);
            } else {
                for &c in t1.children(a) {
                    if !self.maps_left(c) {
                        total += x1.x(c);
                    }
                }
                for &c in t2.children(b) {
                    if !self.maps_right(c) {
                        total += x2.x(c);
                    }
                }
            }
        }
        total
    }

    /// Definition 5.2: a mapped pair is *unstably matched* iff both nodes are
    /// `P` nodes with a single child each, the children are homologous, and
    /// the children are not mapped.
    pub fn is_unstable_pair(
        &self,
        t1: &AnnotatedTree,
        t2: &AnnotatedTree,
        a: TreeId,
        b: TreeId,
    ) -> bool {
        if t1.ty(a) != NodeType::P || t2.ty(b) != NodeType::P {
            return false;
        }
        if t1.children(a).len() != 1 || t2.children(b).len() != 1 {
            return false;
        }
        let c1 = t1.children(a)[0];
        let c2 = t2.children(b)[0];
        t1.node(c1).origin == t2.node(c2).origin && !self.maps_left(c1) && !self.maps_right(c2)
    }

    /// The `T1` leaves that are *not* mapped (and must therefore be deleted by
    /// any script conforming to the mapping), grouped by nothing in particular.
    pub fn unmapped_left_leaves(&self, t1: &AnnotatedTree) -> Vec<TreeId> {
        t1.leaves(t1.root()).into_iter().filter(|&l| !self.maps_left(l)).collect()
    }

    /// The `T2` leaves that are not mapped (and must be inserted).
    pub fn unmapped_right_leaves(&self, t2: &AnnotatedTree) -> Vec<TreeId> {
        t2.leaves(t2.root()).into_iter().filter(|&l| !self.maps_right(l)).collect()
    }

    /// Summary statistics of the mapping, used by PDiffView's overview pane.
    pub fn summary(&self, t1: &AnnotatedTree, t2: &AnnotatedTree) -> MappingSummary {
        MappingSummary {
            mapped_pairs: self.pairs.len(),
            mapped_leaves: self.pairs.iter().filter(|(a, _)| t1.ty(*a) == NodeType::Q).count(),
            deleted_leaves: self.unmapped_left_leaves(t1).len(),
            inserted_leaves: self.unmapped_right_leaves(t2).len(),
        }
    }
}

/// Aggregate statistics about a mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MappingSummary {
    /// Total number of mapped node pairs.
    pub mapped_pairs: usize,
    /// Number of mapped `Q` leaves (edges present in both runs).
    pub mapped_leaves: usize,
    /// Number of `T1` leaves that must be deleted.
    pub deleted_leaves: usize,
    /// Number of `T2` leaves that must be inserted.
    pub inserted_leaves: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::UnitCost;
    use wfdiff_sptree::{ExecutionDecider, FullDecider, Specification, SpecificationBuilder};

    fn spec() -> Specification {
        let mut b = SpecificationBuilder::new("m");
        b.edge("1", "2").path(&["2", "3", "6"]).path(&["2", "4", "6"]).edge("6", "7");
        b.fork_path(&["2", "3", "6"]);
        b.build().unwrap()
    }

    fn identity_mapping(t: &AnnotatedTree) -> Mapping {
        Mapping::new(t.postorder(t.root()).into_iter().map(|v| (v, v)).collect())
    }

    #[test]
    fn identity_mapping_is_well_formed_and_free() {
        let spec = spec();
        let run = spec.execute(&mut FullDecider).unwrap();
        let t = run.tree();
        let m = identity_mapping(t);
        assert!(m.verify_well_formed(t, t).is_ok());
        let x = DeletionTables::compute(t, &UnitCost);
        let ctx = SpecContext::new(&spec);
        assert_eq!(m.cost(t, t, &x, &x, &ctx, &UnitCost), 0.0);
        let s = m.summary(t, t);
        assert_eq!(s.deleted_leaves, 0);
        assert_eq!(s.inserted_leaves, 0);
        assert_eq!(s.mapped_leaves, t.leaves(t.root()).len());
    }

    #[test]
    fn root_only_mapping_charges_all_children() {
        let spec = spec();
        let run = spec.execute(&mut FullDecider).unwrap();
        let t = run.tree();
        // Map only the roots (the root here is an S node, so this violates
        // well-formedness, which requires S children to be mapped).
        let m = Mapping::new(vec![(t.root(), t.root())]);
        assert!(m.verify_well_formed(t, t).is_err());
    }

    #[test]
    fn missing_root_is_rejected() {
        let spec = spec();
        let run = spec.execute(&mut FullDecider).unwrap();
        let t = run.tree();
        let m = Mapping::new(vec![]);
        assert!(m.verify_well_formed(t, t).is_err());
    }

    #[test]
    fn non_homologous_pair_is_rejected() {
        let spec = spec();
        let run = spec.execute(&mut FullDecider).unwrap();
        let t = run.tree();
        // Pair the root with a leaf: not homologous.
        let leaf = t.leaves(t.root())[0];
        let m = Mapping::new(vec![(t.root(), leaf)]);
        assert!(m.verify_well_formed(t, t).is_err());
    }

    #[test]
    fn duplicate_image_is_rejected() {
        let spec = spec();
        let run = spec.execute(&mut FullDecider).unwrap();
        let t = run.tree();
        let leaves = t.leaves(t.root());
        let m = Mapping::new(vec![(leaves[0], leaves[0]), (leaves[1], leaves[0])]);
        assert!(m.verify_well_formed(t, t).is_err());
    }

    #[test]
    fn partial_mapping_cost_counts_unmapped_children() {
        // Two runs of the fork spec: one with 1 copy, one with 2 copies.
        struct D(usize);
        impl ExecutionDecider for D {
            fn parallel_subset(&mut self, n: usize) -> Vec<bool> {
                vec![true; n]
            }
            fn fork_copies(&mut self, _c: usize) -> usize {
                self.0
            }
            fn loop_iterations(&mut self, _c: usize) -> usize {
                1
            }
        }
        let spec = spec();
        let r1 = spec.execute(&mut D(1)).unwrap();
        let r2 = spec.execute(&mut D(2)).unwrap();
        let (t1, t2) = (r1.tree(), r2.tree());
        // Build the "obvious" mapping: identical structure except the extra
        // fork copy in T2: map everything of T1 onto the matching T2 nodes by
        // walking both trees in parallel.
        fn walk(
            t1: &AnnotatedTree,
            t2: &AnnotatedTree,
            a: TreeId,
            b: TreeId,
            out: &mut Vec<(TreeId, TreeId)>,
        ) {
            out.push((a, b));
            let ca = t1.children(a).to_vec();
            let cb = t2.children(b).to_vec();
            for (x, y) in ca.iter().zip(cb.iter()) {
                walk(t1, t2, *x, *y, out);
            }
        }
        let mut pairs = Vec::new();
        walk(t1, t2, t1.root(), t2.root(), &mut pairs);
        let m = Mapping::new(pairs);
        assert!(m.verify_well_formed(t1, t2).is_ok());
        let x1 = DeletionTables::compute(t1, &UnitCost);
        let x2 = DeletionTables::compute(t2, &UnitCost);
        let ctx = SpecContext::new(&spec);
        // The only unmapped node is T2's second fork copy (an S subtree of two
        // leaves): inserting it costs 1 under unit cost.
        assert_eq!(m.cost(t1, t2, &x1, &x2, &ctx, &UnitCost), 1.0);
        let s = m.summary(t1, t2);
        assert_eq!(s.deleted_leaves, 0);
        assert_eq!(s.inserted_leaves, 2);
    }
}
