//! The annotated SP-tree arena.
//!
//! Both specification trees (output of Algorithm 1) and run trees (output of
//! Algorithms 2/5 or of the execution function) are stored as
//! [`AnnotatedTree`]s: flat arenas of [`TreeNode`]s with parent/child links.
//!
//! The tree is *semi-ordered*: the order of `S` and `L` children is
//! significant, the order of `P` and `F` children is not.  [`AnnotatedTree::signature`]
//! computes a canonical textual form that sorts `P`/`F` children, so two trees
//! are equivalent (`≡`, Section IV-B) iff their signatures are equal.

use crate::node::{NodeType, TreeId, TreeNode};
use crate::{Result, SpTreeError};
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;
use wfdiff_graph::{EdgeId, Label, NodeId};

/// An annotated SP-tree (specification tree or run tree).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AnnotatedTree {
    nodes: Vec<TreeNode>,
    root: TreeId,
}

impl AnnotatedTree {
    /// Creates a tree with a single root node.
    pub fn with_root(root: TreeNode) -> Self {
        AnnotatedTree { nodes: vec![root], root: TreeId(0) }
    }

    /// Creates an empty arena; the caller must add nodes and then
    /// [`AnnotatedTree::set_root`].
    pub fn empty() -> Self {
        AnnotatedTree { nodes: Vec::new(), root: TreeId(0) }
    }

    /// Adds a node and returns its id.  Parent/child links are the caller's
    /// responsibility (see [`AnnotatedTree::attach_child`]).
    pub fn add_node(&mut self, node: TreeNode) -> TreeId {
        let id = TreeId::from(self.nodes.len());
        self.nodes.push(node);
        id
    }

    /// Appends `child` to `parent`'s child list and sets the back pointer.
    pub fn attach_child(&mut self, parent: TreeId, child: TreeId) {
        self.nodes[parent.index()].children.push(child);
        self.nodes[child.index()].parent = Some(parent);
    }

    /// Sets the root node.
    pub fn set_root(&mut self, root: TreeId) {
        self.root = root;
        self.nodes[root.index()].parent = None;
    }

    /// The root node id.
    pub fn root(&self) -> TreeId {
        self.root
    }

    /// Number of nodes in the arena (including any detached ones).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` if the arena holds no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Immutable access to a node.
    pub fn node(&self, id: TreeId) -> &TreeNode {
        &self.nodes[id.index()]
    }

    /// Mutable access to a node.
    pub fn node_mut(&mut self, id: TreeId) -> &mut TreeNode {
        &mut self.nodes[id.index()]
    }

    /// The children of a node.
    pub fn children(&self, id: TreeId) -> &[TreeId] {
        &self.nodes[id.index()].children
    }

    /// The parent of a node.
    pub fn parent(&self, id: TreeId) -> Option<TreeId> {
        self.nodes[id.index()].parent
    }

    /// The node type of `id`.
    pub fn ty(&self, id: TreeId) -> NodeType {
        self.nodes[id.index()].ty
    }

    /// `true` if `id` has more than one child.
    pub fn is_true_node(&self, id: TreeId) -> bool {
        self.nodes[id.index()].is_true()
    }

    /// Post-order traversal of the subtree rooted at `id`.
    pub fn postorder(&self, id: TreeId) -> Vec<TreeId> {
        let mut out = Vec::new();
        self.postorder_into(id, &mut out);
        out
    }

    fn postorder_into(&self, id: TreeId, out: &mut Vec<TreeId>) {
        for &c in &self.nodes[id.index()].children {
            self.postorder_into(c, out);
        }
        out.push(id);
    }

    /// Pre-order traversal of the subtree rooted at `id`.
    pub fn preorder(&self, id: TreeId) -> Vec<TreeId> {
        let mut out = Vec::new();
        let mut stack = vec![id];
        while let Some(v) = stack.pop() {
            out.push(v);
            for &c in self.nodes[v.index()].children.iter().rev() {
                stack.push(c);
            }
        }
        out
    }

    /// The `Q` leaves of the subtree rooted at `id`, in left-to-right order.
    pub fn leaves(&self, id: TreeId) -> Vec<TreeId> {
        self.postorder(id).into_iter().filter(|&v| self.ty(v) == NodeType::Q).collect()
    }

    /// The graph edges represented by the `Q` leaves of the subtree rooted at
    /// `id`.
    pub fn leaf_edges(&self, id: TreeId) -> Vec<EdgeId> {
        self.leaves(id).into_iter().filter_map(|v| self.node(v).edge).collect()
    }

    /// Number of `Q` leaves below `id` (uses the cached `leaf_count`).
    pub fn leaf_count(&self, id: TreeId) -> usize {
        self.nodes[id.index()].leaf_count
    }

    /// Recomputes the cached `leaf_count` of every node reachable from the
    /// root.  Must be called after structural surgery (Algorithm 1 insertion).
    pub fn recompute_leaf_counts(&mut self) {
        for id in self.postorder(self.root) {
            let count = if self.ty(id) == NodeType::Q {
                1
            } else {
                self.children(id).iter().map(|&c| self.nodes[c.index()].leaf_count).sum()
            };
            self.nodes[id.index()].leaf_count = count;
        }
    }

    /// Depth of node `id` (root has depth 0).
    pub fn depth(&self, id: TreeId) -> usize {
        let mut d = 0;
        let mut cur = id;
        while let Some(p) = self.parent(cur) {
            d += 1;
            cur = p;
        }
        d
    }

    /// Terminal labels `(s(v), t(v))` of the subgraph represented by `id`.
    pub fn terminals(&self, id: TreeId) -> (&Label, &Label) {
        let n = self.node(id);
        (&n.s_label, &n.t_label)
    }

    /// Terminal graph nodes of the subgraph represented by `id`.
    pub fn terminal_nodes(&self, id: TreeId) -> (NodeId, NodeId) {
        let n = self.node(id);
        (n.s_node, n.t_node)
    }

    /// Inserts a fresh node between `child` and its current parent (or above
    /// the root), returning the new node's id.  Used by Algorithm 1 to insert
    /// `F`/`L` annotation nodes and grouping `S` nodes.
    #[expect(
        clippy::expect_used,
        reason = "tree construction wires child links before parent links; detach relies on that pairing"
    )]
    pub fn insert_parent(&mut self, child: TreeId, mut node: TreeNode) -> TreeId {
        let old_parent = self.parent(child);
        node.children = vec![child];
        node.parent = old_parent;
        let new_id = self.add_node(node);
        self.nodes[child.index()].parent = Some(new_id);
        match old_parent {
            Some(p) => {
                let slot = self.nodes[p.index()]
                    .children
                    .iter()
                    .position(|&c| c == child)
                    .expect("child must be registered with its parent");
                self.nodes[p.index()].children[slot] = new_id;
            }
            None => {
                self.root = new_id;
            }
        }
        new_id
    }

    /// Groups the consecutive children `range` of `parent` under a fresh node,
    /// which takes their place in the child list.  Returns the new node's id.
    pub fn group_children(
        &mut self,
        parent: TreeId,
        range: std::ops::Range<usize>,
        mut node: TreeNode,
    ) -> TreeId {
        let grouped: Vec<TreeId> = self.nodes[parent.index()].children[range.clone()].to_vec();
        node.children = grouped.clone();
        node.parent = Some(parent);
        let new_id = self.add_node(node);
        for &c in &grouped {
            self.nodes[c.index()].parent = Some(new_id);
        }
        self.nodes[parent.index()].children.splice(range, [new_id]);
        new_id
    }

    /// Whether every node of the subtree rooted at `id` satisfies the
    /// *branch-free* condition (no true `P`, `F` or `L` node, Definition 4.1
    /// extended to loops as discussed in Section VI).
    pub fn is_branch_free(&self, id: TreeId) -> bool {
        self.postorder(id).into_iter().all(|v| {
            let n = self.node(v);
            match n.ty {
                NodeType::P | NodeType::F | NodeType::L => !n.is_true(),
                _ => true,
            }
        })
    }

    /// Whether `id` roots an *elementary* subtree: branch-free and a child of a
    /// true `P`, `F` or `L` node (Definition 4.1).
    pub fn is_elementary_subtree(&self, id: TreeId) -> bool {
        if !self.is_branch_free(id) {
            return false;
        }
        match self.parent(id) {
            Some(p) => {
                matches!(self.ty(p), NodeType::P | NodeType::F | NodeType::L)
                    && self.is_true_node(p)
            }
            None => false,
        }
    }

    /// Canonical signature of the subtree rooted at `id`.
    ///
    /// Two subtrees are equivalent (differ only in the order of children of
    /// `P`/`F` nodes) iff their signatures are equal.  The signature encodes
    /// the node type, the terminal labels and, for `Q` leaves, nothing more —
    /// run-node identities deliberately do not appear so that isomorphic runs
    /// produce identical signatures.
    pub fn signature(&self, id: TreeId) -> String {
        let n = self.node(id);
        let mut child_sigs: Vec<String> = n.children.iter().map(|&c| self.signature(c)).collect();
        if !n.ty.ordered_children() {
            child_sigs.sort();
        }
        let mut out = String::new();
        let _ = write!(out, "{}[{}>{}](", n.ty.code(), n.s_label, n.t_label);
        for (i, s) in child_sigs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(s);
        }
        out.push(')');
        out
    }

    /// Whole-tree equivalence (`≡` of Section IV-B): equal up to reordering of
    /// `P`/`F` children.
    pub fn equivalent(&self, other: &AnnotatedTree) -> bool {
        self.signature(self.root) == other.signature(other.root)
    }

    /// Validates the structural invariants of a **specification** tree
    /// (Lemma 4.2): internal nodes are `S`/`P`/`F`/`L`, leaves are `Q`, no node
    /// shares its type with its parent, `S`/`P` nodes have at least two
    /// children, and `F`/`L` nodes have exactly one child.
    pub fn validate_spec_tree(&self) -> Result<()> {
        for id in self.postorder(self.root) {
            let n = self.node(id);
            match n.ty {
                NodeType::Q => {
                    if !n.children.is_empty() {
                        return Err(SpTreeError::Invariant(format!("Q node {id} has children")));
                    }
                }
                NodeType::S | NodeType::P => {
                    if n.children.len() < 2 {
                        return Err(SpTreeError::Invariant(format!(
                            "{} node {id} has fewer than two children",
                            n.ty
                        )));
                    }
                }
                NodeType::F | NodeType::L => {
                    if n.children.len() != 1 {
                        return Err(SpTreeError::Invariant(format!(
                            "{} node {id} must have exactly one child in a specification tree",
                            n.ty
                        )));
                    }
                }
            }
            if let Some(p) = n.parent {
                if self.ty(p) == n.ty {
                    return Err(SpTreeError::Invariant(format!(
                        "node {id} has the same type as its parent"
                    )));
                }
            }
        }
        Ok(())
    }

    /// Validates the structural invariants of a **run** tree (Lemma 4.4): as a
    /// specification tree, except `P` nodes may have a single child and
    /// `F`/`L` nodes may have any positive number of children.
    pub fn validate_run_tree(&self) -> Result<()> {
        for id in self.postorder(self.root) {
            let n = self.node(id);
            match n.ty {
                NodeType::Q => {
                    if !n.children.is_empty() {
                        return Err(SpTreeError::Invariant(format!("Q node {id} has children")));
                    }
                }
                NodeType::S => {
                    if n.children.len() < 2 {
                        return Err(SpTreeError::Invariant(format!(
                            "S node {id} has fewer than two children"
                        )));
                    }
                }
                NodeType::P => {
                    if n.children.is_empty() {
                        return Err(SpTreeError::Invariant(format!("P node {id} has no children")));
                    }
                }
                NodeType::F | NodeType::L => {
                    if n.children.is_empty() {
                        return Err(SpTreeError::Invariant(format!(
                            "{} node {id} has no children",
                            n.ty
                        )));
                    }
                }
            }
            if let Some(p) = n.parent {
                if self.ty(p) == n.ty && n.ty != NodeType::S {
                    return Err(SpTreeError::Invariant(format!(
                        "node {id} has the same type as its parent"
                    )));
                }
            }
        }
        Ok(())
    }

    /// Renders the subtree rooted at `id` as an indented multi-line string,
    /// for debugging and for the PDiffView text views.
    pub fn render(&self, id: TreeId) -> String {
        let mut out = String::new();
        self.render_into(id, 0, &mut out);
        out
    }

    fn render_into(&self, id: TreeId, depth: usize, out: &mut String) {
        let n = self.node(id);
        let indent = "  ".repeat(depth);
        match n.ty {
            NodeType::Q => {
                let _ = writeln!(out, "{indent}Q({} -> {})", n.s_label, n.t_label);
            }
            _ => {
                let _ = writeln!(out, "{indent}{}[{} -> {}]", n.ty, n.s_label, n.t_label);
                for &c in &n.children {
                    self.render_into(c, depth + 1, out);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(tree: &mut AnnotatedTree, s: &str, t: &str) -> TreeId {
        let mut n = TreeNode::new(NodeType::Q, Label::new(s), Label::new(t), NodeId(0), NodeId(1));
        n.leaf_count = 1;
        tree.add_node(n)
    }

    /// Builds the tree S( Q(1,2), P( Q(2,3), Q(2,4) ), Q(4,5) ) by hand.
    fn sample_tree() -> AnnotatedTree {
        let mut t = AnnotatedTree::empty();
        let root = t.add_node(TreeNode::new(
            NodeType::S,
            Label::new("1"),
            Label::new("5"),
            NodeId(0),
            NodeId(4),
        ));
        let q12 = leaf(&mut t, "1", "2");
        let p = t.add_node(TreeNode::new(
            NodeType::P,
            Label::new("2"),
            Label::new("4"),
            NodeId(1),
            NodeId(3),
        ));
        let q23 = leaf(&mut t, "2", "3");
        let q24 = leaf(&mut t, "2", "4");
        let q45 = leaf(&mut t, "4", "5");
        t.attach_child(root, q12);
        t.attach_child(root, p);
        t.attach_child(p, q23);
        t.attach_child(p, q24);
        t.attach_child(root, q45);
        t.set_root(root);
        t.recompute_leaf_counts();
        t
    }

    #[test]
    fn traversals_and_leaf_counts() {
        let t = sample_tree();
        assert_eq!(t.leaf_count(t.root()), 4);
        assert_eq!(t.leaves(t.root()).len(), 4);
        let post = t.postorder(t.root());
        assert_eq!(*post.last().unwrap(), t.root());
        let pre = t.preorder(t.root());
        assert_eq!(pre[0], t.root());
        assert_eq!(pre.len(), post.len());
    }

    #[test]
    fn signature_sorts_parallel_children() {
        let t1 = sample_tree();
        // Build the same tree with the P children swapped.
        let mut t2 = AnnotatedTree::empty();
        let root = t2.add_node(TreeNode::new(
            NodeType::S,
            Label::new("1"),
            Label::new("5"),
            NodeId(0),
            NodeId(4),
        ));
        let q12 = leaf(&mut t2, "1", "2");
        let p = t2.add_node(TreeNode::new(
            NodeType::P,
            Label::new("2"),
            Label::new("4"),
            NodeId(1),
            NodeId(3),
        ));
        let q24 = leaf(&mut t2, "2", "4");
        let q23 = leaf(&mut t2, "2", "3");
        let q45 = leaf(&mut t2, "4", "5");
        t2.attach_child(root, q12);
        t2.attach_child(root, p);
        t2.attach_child(p, q24);
        t2.attach_child(p, q23);
        t2.attach_child(root, q45);
        t2.set_root(root);
        t2.recompute_leaf_counts();
        assert!(t1.equivalent(&t2));
    }

    #[test]
    fn signature_distinguishes_series_order() {
        let mut t1 = AnnotatedTree::empty();
        let r1 = t1.add_node(TreeNode::new(
            NodeType::S,
            Label::new("a"),
            Label::new("c"),
            NodeId(0),
            NodeId(2),
        ));
        let x = leaf(&mut t1, "a", "b");
        let y = leaf(&mut t1, "b", "c");
        t1.attach_child(r1, x);
        t1.attach_child(r1, y);
        t1.set_root(r1);

        let mut t2 = AnnotatedTree::empty();
        let r2 = t2.add_node(TreeNode::new(
            NodeType::S,
            Label::new("a"),
            Label::new("c"),
            NodeId(0),
            NodeId(2),
        ));
        let y2 = leaf(&mut t2, "b", "c");
        let x2 = leaf(&mut t2, "a", "b");
        t2.attach_child(r2, y2);
        t2.attach_child(r2, x2);
        t2.set_root(r2);

        assert!(!t1.equivalent(&t2));
    }

    #[test]
    fn insert_parent_above_child_and_root() {
        let mut t = sample_tree();
        let p_node = t.children(t.root())[1];
        let f = t.insert_parent(
            p_node,
            TreeNode::new(NodeType::F, Label::new("2"), Label::new("4"), NodeId(1), NodeId(3)),
        );
        assert_eq!(t.parent(p_node), Some(f));
        assert_eq!(t.children(t.root())[1], f);
        // Insert above the root.
        let old_root = t.root();
        let new_root = t.insert_parent(
            old_root,
            TreeNode::new(NodeType::F, Label::new("1"), Label::new("5"), NodeId(0), NodeId(4)),
        );
        assert_eq!(t.root(), new_root);
        assert_eq!(t.parent(old_root), Some(new_root));
        t.recompute_leaf_counts();
        assert_eq!(t.leaf_count(new_root), 4);
    }

    #[test]
    fn group_children_splices_range() {
        let mut t = sample_tree();
        let root = t.root();
        let grouped = t.group_children(
            root,
            0..2,
            TreeNode::new(NodeType::S, Label::new("1"), Label::new("4"), NodeId(0), NodeId(3)),
        );
        assert_eq!(t.children(root).len(), 2);
        assert_eq!(t.children(root)[0], grouped);
        assert_eq!(t.children(grouped).len(), 2);
        t.recompute_leaf_counts();
        assert_eq!(t.leaf_count(grouped), 3);
    }

    #[test]
    fn branch_free_and_elementary_subtrees() {
        let t = sample_tree();
        let root = t.root();
        let p = t.children(root)[1];
        let q23 = t.children(p)[0];
        // The whole tree has a true P node, so it is not branch-free.
        assert!(!t.is_branch_free(root));
        assert!(t.is_branch_free(q23));
        // q23's parent is a true P node, so it is elementary.
        assert!(t.is_elementary_subtree(q23));
        // The P node's parent is an S node, so the P subtree is not elementary
        // (and not branch-free either).
        assert!(!t.is_elementary_subtree(p));
        // The root is never elementary.
        assert!(!t.is_elementary_subtree(root));
    }

    #[test]
    fn spec_tree_validation() {
        let t = sample_tree();
        assert!(t.validate_spec_tree().is_ok());
        assert!(t.validate_run_tree().is_ok());
    }

    #[test]
    fn spec_validation_rejects_single_child_p() {
        let mut t = AnnotatedTree::empty();
        let root = t.add_node(TreeNode::new(
            NodeType::P,
            Label::new("a"),
            Label::new("b"),
            NodeId(0),
            NodeId(1),
        ));
        let q = leaf(&mut t, "a", "b");
        t.attach_child(root, q);
        t.set_root(root);
        t.recompute_leaf_counts();
        assert!(t.validate_spec_tree().is_err());
        // But it is a legal run tree (pseudo P node).
        assert!(t.validate_run_tree().is_ok());
    }

    #[test]
    fn render_is_indented() {
        let t = sample_tree();
        let s = t.render(t.root());
        assert!(s.contains("S[1 -> 5]"));
        assert!(s.contains("  P[2 -> 4]"));
        assert!(s.contains("    Q(2 -> 3)"));
    }

    #[test]
    fn depth_is_measured_from_root() {
        let t = sample_tree();
        let root = t.root();
        let p = t.children(root)[1];
        let q23 = t.children(p)[0];
        assert_eq!(t.depth(root), 0);
        assert_eq!(t.depth(p), 1);
        assert_eq!(t.depth(q23), 2);
    }
}
