//! Achievable lengths of branch-free executions (used for the unstable-pair
//! surcharge `W_TG` of Algorithm 4 and for minimum insertion costs).
//!
//! For a specification subtree `T_G[v]`, a *branch-free* execution is a valid
//! run of `Graph(T_G[v])` whose annotated SP-tree contains no true `P`, `F` or
//! `L` node — i.e. a single source-to-sink path.  The cost of inserting such a
//! path as an elementary subtree is `γ(l, s(v), t(v))` where `l` is its
//! length, so the cost machinery needs the **set of achievable lengths** for
//! every specification node.  Because cost functions are not required to be
//! monotone in `l`, the full set (not just the minimum) is computed.

use crate::node::{NodeType, TreeId};
use crate::tree::AnnotatedTree;
use std::collections::BTreeSet;

/// For every node of a specification tree, the set of lengths (numbers of
/// edges) of branch-free executions of the subgraph it represents.
#[derive(Debug, Clone)]
pub struct BranchFreeLengths {
    sets: Vec<BTreeSet<usize>>,
}

impl BranchFreeLengths {
    /// Computes the achievable-length sets for all nodes of `tree` (which must
    /// be a specification tree).
    pub fn compute(tree: &AnnotatedTree) -> Self {
        let mut sets: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); tree.len()];
        for id in tree.postorder(tree.root()) {
            let set = match tree.ty(id) {
                NodeType::Q => BTreeSet::from([1usize]),
                NodeType::S => {
                    // Sum-set over the children.
                    let mut acc = BTreeSet::from([0usize]);
                    for &c in tree.children(id) {
                        let mut next = BTreeSet::new();
                        for &a in &acc {
                            for &b in &sets[c.index()] {
                                next.insert(a + b);
                            }
                        }
                        acc = next;
                    }
                    acc
                }
                NodeType::P => {
                    // A branch-free execution picks exactly one branch.
                    let mut acc = BTreeSet::new();
                    for &c in tree.children(id) {
                        acc.extend(sets[c.index()].iter().copied());
                    }
                    acc
                }
                NodeType::F | NodeType::L => {
                    // A branch-free execution uses exactly one copy/iteration.
                    sets[tree.children(id)[0].index()].clone()
                }
            };
            sets[id.index()] = set;
        }
        BranchFreeLengths { sets }
    }

    /// The set of achievable lengths for node `id`.
    pub fn lengths(&self, id: TreeId) -> &BTreeSet<usize> {
        &self.sets[id.index()]
    }

    /// The minimum achievable length for node `id`.
    #[expect(
        clippy::expect_used,
        reason = "the length table is computed bottom-up; every subtree set is non-empty by construction"
    )]
    pub fn min_length(&self, id: TreeId) -> usize {
        *self.sets[id.index()].iter().next().expect("every spec subtree has an execution")
    }

    /// The maximum achievable length for node `id`.
    #[expect(
        clippy::expect_used,
        reason = "the length table is computed bottom-up; every subtree set is non-empty by construction"
    )]
    pub fn max_length(&self, id: TreeId) -> usize {
        *self.sets[id.index()].iter().next_back().expect("every spec subtree has an execution")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SpecificationBuilder;

    #[test]
    fn chain_has_single_length() {
        let mut b = SpecificationBuilder::new("chain");
        b.path(&["a", "b", "c", "d"]);
        let spec = b.build().unwrap();
        let lens = BranchFreeLengths::compute(spec.tree());
        let root = spec.tree().root();
        assert_eq!(lens.lengths(root), &BTreeSet::from([3]));
        assert_eq!(lens.min_length(root), 3);
        assert_eq!(lens.max_length(root), 3);
    }

    #[test]
    fn parallel_branches_union_lengths() {
        // Branches of length 1, 2 and 4 between u and v.
        let mut b = SpecificationBuilder::new("par");
        b.edge("u", "v");
        b.path(&["u", "x1", "v"]);
        b.path(&["u", "y1", "y2", "y3", "v"]);
        let spec = b.build().unwrap();
        let lens = BranchFreeLengths::compute(spec.tree());
        assert_eq!(lens.lengths(spec.tree().root()), &BTreeSet::from([1, 2, 4]));
    }

    #[test]
    fn series_of_parallels_sums_lengths() {
        // u ->(1 or 2)-> m ->(1 or 3)-> v : achievable 2, 3, 4, 5 minus gaps.
        let mut b = SpecificationBuilder::new("sp");
        b.edge("u", "m");
        b.path(&["u", "a", "m"]);
        b.edge("m", "v");
        b.path(&["m", "c", "d", "v"]);
        let spec = b.build().unwrap();
        let lens = BranchFreeLengths::compute(spec.tree());
        // 1+1, 1+3, 2+1, 2+3
        assert_eq!(lens.lengths(spec.tree().root()), &BTreeSet::from([2, 3, 4, 5]));
    }

    #[test]
    fn forks_and_loops_do_not_multiply_lengths() {
        let mut b = SpecificationBuilder::new("fl");
        b.path(&["s", "a", "t"]);
        b.fork_between("s", "t");
        let spec = b.build().unwrap();
        let lens = BranchFreeLengths::compute(spec.tree());
        // A branch-free execution forks exactly once: length 2 only.
        assert_eq!(lens.lengths(spec.tree().root()), &BTreeSet::from([2]));
    }

    #[test]
    fn fig17_fan_lengths_are_squares() {
        let mut b = SpecificationBuilder::new("fan");
        for i in 1..=4usize {
            let mut labels: Vec<String> = vec!["u".to_string()];
            for j in 1..(i * i) {
                labels.push(format!("p{i}_{j}"));
            }
            labels.push("v".to_string());
            let refs: Vec<&str> = labels.iter().map(|s| s.as_str()).collect();
            b.path(&refs);
        }
        let spec = b.build().unwrap();
        let lens = BranchFreeLengths::compute(spec.tree());
        assert_eq!(lens.lengths(spec.tree().root()), &BTreeSet::from([1, 4, 9, 16]));
    }
}
