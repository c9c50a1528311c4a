//! Nodes of annotated SP-trees.

use serde::{Deserialize, Serialize};
use std::fmt;
use wfdiff_graph::{EdgeId, Label, NodeId};

/// Identifier of a node inside an [`crate::AnnotatedTree`] arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TreeId(pub u32);

impl TreeId {
    /// Returns the id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<usize> for TreeId {
    #[expect(
        clippy::expect_used,
        reason = "ids are u32 by design; over 4 billion tree nodes is out of scope and an immediate abort beats silent truncation"
    )]
    fn from(value: usize) -> Self {
        TreeId(u32::try_from(value).expect("tree id overflow"))
    }
}

impl fmt::Display for TreeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// The type of an annotated SP-tree node.
///
/// * `Q` — a leaf representing a single graph edge,
/// * `S` — a series composition (children are ordered),
/// * `P` — a parallel composition (children are unordered),
/// * `F` — a fork execution point (children are unordered copies),
/// * `L` — a loop execution point (children are ordered iterations).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NodeType {
    /// Leaf (single edge).
    Q,
    /// Series composition; children are ordered.
    S,
    /// Parallel composition; children are unordered.
    P,
    /// Fork; children (copies) are unordered.
    F,
    /// Loop; children (iterations) are ordered.
    L,
}

impl NodeType {
    /// `true` for node types whose children are ordered (`S` and `L`).
    pub fn ordered_children(self) -> bool {
        matches!(self, NodeType::S | NodeType::L)
    }

    /// `true` for node types that may appear as internal nodes of a
    /// specification tree.
    pub fn is_internal(self) -> bool {
        !matches!(self, NodeType::Q)
    }

    /// Single-character code used in signatures and debug output.
    pub fn code(self) -> char {
        match self {
            NodeType::Q => 'Q',
            NodeType::S => 'S',
            NodeType::P => 'P',
            NodeType::F => 'F',
            NodeType::L => 'L',
        }
    }
}

impl fmt::Display for NodeType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.code())
    }
}

/// A node of an annotated SP-tree.
///
/// Every node carries the two *invariants* of the subgraph it represents: the
/// labels of its terminals (`s_label`, `t_label`), plus — for trees associated
/// with a concrete graph — the terminal node ids (`s_node`, `t_node`).  Run
/// trees additionally record `origin`, the specification-tree node the subtree
/// was derived from (the homology map `h` of Section V-A).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TreeNode {
    /// The node type.
    pub ty: NodeType,
    /// Children (ordered for `S`/`L`, unordered for `P`/`F`).
    pub children: Vec<TreeId>,
    /// Parent node, if any (the root has none).
    pub parent: Option<TreeId>,
    /// Label of the source terminal of `Graph(T[v])`.
    pub s_label: Label,
    /// Label of the sink terminal of `Graph(T[v])`.
    pub t_label: Label,
    /// Source terminal node id in the associated graph.
    pub s_node: NodeId,
    /// Sink terminal node id in the associated graph.
    pub t_node: NodeId,
    /// For `Q` leaves: the graph edge this leaf represents.
    pub edge: Option<EdgeId>,
    /// For run-tree nodes: the specification-tree node this subtree derives
    /// from (`h(v)`).
    pub origin: Option<TreeId>,
    /// For `F`/`L` nodes: index of the fork/loop subgraph in the
    /// specification's control list.
    pub control_id: Option<usize>,
    /// Number of `Q` leaves in the subtree rooted here (implicit loop edges are
    /// *not* counted; they are not leaves of the annotated tree).
    pub leaf_count: usize,
}

impl TreeNode {
    /// Creates a new node with the given type and terminals; children and
    /// metadata are filled in by the tree-construction code.
    pub fn new(
        ty: NodeType,
        s_label: Label,
        t_label: Label,
        s_node: NodeId,
        t_node: NodeId,
    ) -> Self {
        TreeNode {
            ty,
            children: Vec::new(),
            parent: None,
            s_label,
            t_label,
            s_node,
            t_node,
            edge: None,
            origin: None,
            control_id: None,
            leaf_count: 0,
        }
    }

    /// `true` if the node has more than one child (a *true* node in the
    /// terminology of Section V-A); `Q` leaves are never true nodes.
    pub fn is_true(&self) -> bool {
        self.children.len() > 1
    }

    /// `true` if the node has at most one child (a *pseudo* node).
    pub fn is_pseudo(&self) -> bool {
        !self.is_true()
    }

    /// Number of children.
    pub fn degree(&self) -> usize {
        self.children.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_type_properties() {
        assert!(NodeType::S.ordered_children());
        assert!(NodeType::L.ordered_children());
        assert!(!NodeType::P.ordered_children());
        assert!(!NodeType::F.ordered_children());
        assert!(!NodeType::Q.is_internal());
        assert!(NodeType::F.is_internal());
        assert_eq!(NodeType::P.code(), 'P');
        assert_eq!(NodeType::L.to_string(), "L");
    }

    #[test]
    fn true_and_pseudo_nodes() {
        let mut n =
            TreeNode::new(NodeType::P, Label::new("a"), Label::new("b"), NodeId(0), NodeId(1));
        assert!(n.is_pseudo());
        n.children.push(TreeId(1));
        assert!(n.is_pseudo());
        n.children.push(TreeId(2));
        assert!(n.is_true());
        assert_eq!(n.degree(), 2);
    }

    #[test]
    fn tree_id_display() {
        assert_eq!(TreeId::from(3usize).to_string(), "t3");
        assert_eq!(TreeId(3).index(), 3);
    }
}
