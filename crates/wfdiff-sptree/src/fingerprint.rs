//! Canonical structural fingerprints of annotated SP-(sub)trees.
//!
//! [`AnnotatedTree::signature`](crate::AnnotatedTree::signature) already
//! defines the canonical textual form under which two subtrees are equivalent
//! (`≡`, Section IV-B): equal up to reordering of `P`/`F` children.  Building
//! those strings is `O(n²)` in the subtree size and comparing them is `O(n)`,
//! which is far too slow to use inside the differencing DP.  This module
//! hash-conses the same canonical form into a 128-bit [`Fingerprint`] per
//! subtree in **one post-order pass**, so that identical subtrees compare
//! equal in `O(1)`.
//!
//! The fingerprint of a node combines, exactly mirroring the signature:
//!
//! * the node type code (`Q`/`S`/`P`/`F`/`L`),
//! * the terminal labels `s(v)` and `t(v)`,
//! * the node's specification *origin* (when present, i.e. for run trees), and
//! * the fingerprints of the children — in order for `S`/`L` nodes, sorted
//!   for `P`/`F` nodes whose child order is not significant.
//!
//! Including the origin matters for correctness of fingerprint-keyed diff
//! caches: two run subtrees that are label-identical but instantiate
//! *different* specification branches (possible when a specification has
//! parallel multi-edges between the same modules) are **not** interchangeable
//! for the differencing algorithm, which only maps homologous nodes.  For
//! specification trees every origin is `None`, so a specification fingerprint
//! is purely structural.
//!
//! Fingerprints are 128 bits (two independently seeded 64-bit FNV-1a streams),
//! so accidental collisions are negligible for any realistic workload; equal
//! fingerprints are treated as proof of equivalence by `wfdiff-core`'s cache
//! layer.

use crate::node::{NodeType, TreeId};
use crate::tree::AnnotatedTree;

/// A 128-bit canonical structural hash of a subtree.
///
/// Equal fingerprints mean the subtrees are equivalent (same canonical form,
/// same origins); see the module docs for what the hash covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Fingerprint(pub u128);

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// Two independently seeded FNV-1a streams making up one 128-bit hash.
#[derive(Clone, Copy)]
struct Fnv2 {
    a: u64,
    b: u64,
}

const FNV_PRIME: u64 = 0x100_0000_01b3;

impl Fnv2 {
    fn new() -> Self {
        // Standard FNV offset basis and an arbitrary second basis.
        Fnv2 { a: 0xcbf2_9ce4_8422_2325, b: 0x9ae1_6a3b_2f90_404f }
    }

    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.a = (self.a ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
            self.b = (self.b ^ u64::from(byte.wrapping_add(0x55))).wrapping_mul(FNV_PRIME);
        }
    }

    fn write_u64(&mut self, value: u64) {
        self.write(&value.to_le_bytes());
    }

    fn write_u128(&mut self, value: u128) {
        self.write(&value.to_le_bytes());
    }

    fn finish(self) -> Fingerprint {
        Fingerprint((u128::from(self.a) << 64) | u128::from(self.b))
    }
}

/// Per-node canonical fingerprints of one [`AnnotatedTree`], computed in a
/// single post-order pass.
#[derive(Debug, Clone)]
pub struct TreeFingerprints {
    fps: Vec<Fingerprint>,
    root: TreeId,
}

impl TreeFingerprints {
    /// Computes the fingerprint of every node reachable from the root.
    ///
    /// Detached arena nodes keep the default (zero) fingerprint; they are
    /// never consulted by the differencing algorithms.
    pub fn compute(tree: &AnnotatedTree) -> TreeFingerprints {
        let mut fps = vec![Fingerprint::default(); tree.len()];
        for v in tree.postorder(tree.root()) {
            let node = tree.node(v);
            let mut h = Fnv2::new();
            h.write(&[type_code(node.ty)]);
            h.write_u64(node.s_label.as_str().len() as u64);
            h.write(node.s_label.as_str().as_bytes());
            h.write_u64(node.t_label.as_str().len() as u64);
            h.write(node.t_label.as_str().as_bytes());
            match node.origin {
                Some(origin) => h.write_u64(1 + origin.index() as u64),
                None => h.write_u64(0),
            }
            let mut child_fps: Vec<Fingerprint> =
                node.children.iter().map(|c| fps[c.index()]).collect();
            if !node.ty.ordered_children() {
                child_fps.sort_unstable();
            }
            h.write_u64(child_fps.len() as u64);
            for fp in child_fps {
                h.write_u128(fp.0);
            }
            fps[v.index()] = h.finish();
        }
        TreeFingerprints { fps, root: tree.root() }
    }

    /// The fingerprint of the subtree rooted at `id`.
    pub fn of(&self, id: TreeId) -> Fingerprint {
        self.fps[id.index()]
    }

    /// The fingerprint of the whole tree.
    pub fn root(&self) -> Fingerprint {
        self.fps[self.root.index()]
    }

    /// Number of fingerprinted arena slots.
    pub fn len(&self) -> usize {
        self.fps.len()
    }

    /// `true` when the underlying arena was empty.
    pub fn is_empty(&self) -> bool {
        self.fps.is_empty()
    }
}

/// An **arena-identity** fingerprint of a tree: unlike [`TreeFingerprints`],
/// which canonicalises away the order of `P`/`F` children, this hash covers
/// the exact arena layout — node indices, child order, origins, control ids
/// and leaf edges.  Two trees share an arena fingerprint iff they are equal
/// as stored (`==`), not merely equivalent.
///
/// This is the right identity for *versioning*: run trees reference
/// specification nodes by arena `TreeId`, so two equivalent-but-differently-
/// built specifications are **not** interchangeable for a run's origins even
/// though their canonical fingerprints agree.
pub fn arena_fingerprint(tree: &AnnotatedTree) -> Fingerprint {
    let mut h = Fnv2::new();
    h.write_u64(tree.root().index() as u64);
    h.write_u64(tree.len() as u64);
    for idx in 0..tree.len() {
        let node = tree.node(TreeId::from(idx));
        h.write(&[type_code(node.ty)]);
        h.write_u64(node.s_label.as_str().len() as u64);
        h.write(node.s_label.as_str().as_bytes());
        h.write_u64(node.t_label.as_str().len() as u64);
        h.write(node.t_label.as_str().as_bytes());
        h.write_u64(node.origin.map_or(0, |o| 1 + o.index() as u64));
        h.write_u64(node.control_id.map_or(0, |c| 1 + c as u64));
        h.write_u64(node.children.len() as u64);
        for c in &node.children {
            h.write_u64(c.index() as u64);
        }
    }
    h.finish()
}

fn type_code(ty: NodeType) -> u8 {
    match ty {
        NodeType::Q => b'Q',
        NodeType::S => b'S',
        NodeType::P => b'P',
        NodeType::F => b'F',
        NodeType::L => b'L',
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SpecificationBuilder;
    use crate::ExecutionDecider;

    fn fig2_spec() -> crate::Specification {
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

    struct D {
        fork: usize,
        loops: usize,
    }
    impl ExecutionDecider for D {
        fn parallel_subset(&mut self, n: usize) -> Vec<bool> {
            vec![true; n]
        }
        fn fork_copies(&mut self, _c: usize) -> usize {
            self.fork
        }
        fn loop_iterations(&mut self, _c: usize) -> usize {
            self.loops
        }
    }

    #[test]
    fn equal_fingerprints_iff_equal_signatures() {
        let spec = fig2_spec();
        let runs = [
            spec.execute(&mut D { fork: 1, loops: 1 }).unwrap(),
            spec.execute(&mut D { fork: 2, loops: 1 }).unwrap(),
            spec.execute(&mut D { fork: 1, loops: 2 }).unwrap(),
            spec.execute(&mut D { fork: 2, loops: 2 }).unwrap(),
        ];
        let fps: Vec<TreeFingerprints> =
            runs.iter().map(|r| TreeFingerprints::compute(r.tree())).collect();
        for (i, a) in runs.iter().enumerate() {
            for (j, b) in runs.iter().enumerate() {
                let sig_eq =
                    a.tree().signature(a.tree().root()) == b.tree().signature(b.tree().root());
                assert_eq!(
                    fps[i].root() == fps[j].root(),
                    sig_eq,
                    "fingerprint equality must track signature equality ({i} vs {j})"
                );
            }
        }
    }

    #[test]
    fn fingerprint_ignores_p_child_order() {
        // Two executions that take the same branches produce equivalent trees
        // regardless of internal ordering; their fingerprints agree per node
        // count and at the root.
        let spec = fig2_spec();
        let r1 = spec.execute(&mut D { fork: 1, loops: 1 }).unwrap();
        let r2 = spec.execute(&mut D { fork: 1, loops: 1 }).unwrap();
        let f1 = TreeFingerprints::compute(r1.tree());
        let f2 = TreeFingerprints::compute(r2.tree());
        assert_eq!(f1.root(), f2.root());
    }

    #[test]
    fn subtree_fingerprints_distinguish_different_branches() {
        let spec = fig2_spec();
        let run = spec.execute(&mut D { fork: 1, loops: 1 }).unwrap();
        let tree = run.tree();
        let fps = TreeFingerprints::compute(tree);
        // All Q leaves instantiate different specification edges, so their
        // fingerprints are pairwise distinct.
        let leaves = tree.leaves(tree.root());
        for (i, &a) in leaves.iter().enumerate() {
            for &b in &leaves[i + 1..] {
                assert_ne!(fps.of(a), fps.of(b), "distinct leaves must not collide");
            }
        }
    }

    #[test]
    fn origin_is_part_of_the_fingerprint() {
        // A specification with two parallel multi-edges between u and v: the
        // two run leaves are label-identical but instantiate different
        // specification edges, so their fingerprints must differ.
        let mut b = SpecificationBuilder::new("multi");
        b.edge("u", "v");
        b.edge("u", "v");
        let spec = b.build().unwrap();
        let run = spec.execute(&mut D { fork: 1, loops: 1 }).unwrap();
        let tree = run.tree();
        let fps = TreeFingerprints::compute(tree);
        let leaves = tree.leaves(tree.root());
        assert_eq!(leaves.len(), 2);
        assert_eq!(tree.node(leaves[0]).s_label, tree.node(leaves[1]).s_label);
        assert_ne!(
            tree.node(leaves[0]).origin,
            tree.node(leaves[1]).origin,
            "the two multi-edge leaves instantiate different spec edges"
        );
        assert_ne!(fps.of(leaves[0]), fps.of(leaves[1]));
    }

    #[test]
    fn spec_fingerprint_is_structural() {
        let a = fig2_spec();
        let b = fig2_spec();
        let fa = TreeFingerprints::compute(a.tree());
        let fb = TreeFingerprints::compute(b.tree());
        assert_eq!(fa.root(), fb.root());
        let other = {
            let mut b = SpecificationBuilder::new("chain");
            b.path(&["a", "b", "c"]);
            b.build().unwrap()
        };
        let fo = TreeFingerprints::compute(other.tree());
        assert_ne!(fa.root(), fo.root());
    }
}
