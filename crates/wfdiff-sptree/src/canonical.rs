//! Canonical SP-trees (Section IV-A).
//!
//! The binary decomposition produced by `wfdiff_graph::decompose` is not
//! unique; the *canonical* SP-tree is obtained by repeatedly merging adjacent
//! nodes of the same type, producing n-ary `S` and `P` nodes.  The canonical
//! tree is unique up to reordering of `P` children, which is exactly the
//! equivalence captured by [`AnnotatedTree::signature`].

use crate::node::{NodeType, TreeId, TreeNode};
use crate::tree::AnnotatedTree;
use crate::Result;
use wfdiff_graph::{decompose, BinNode, BinSpTree, LabeledDigraph, NodeId};

/// Builds the canonical SP-tree of the two-terminal graph
/// `(graph, source, sink)`.
///
/// Leaves carry the original [`wfdiff_graph::EdgeId`]s and every node carries
/// the terminals (node ids and labels) of the subgraph it represents.
pub fn canonical_tree(
    graph: &LabeledDigraph,
    source: NodeId,
    sink: NodeId,
) -> Result<AnnotatedTree> {
    let bin = decompose(graph, source, sink)?;
    let mut converter = Converter {
        graph,
        bin: &bin,
        tree: AnnotatedTree::empty(),
        stack: Vec::new(),
        parts: Vec::new(),
        children: Vec::new(),
    };
    let root = converter.convert(bin.root());
    let mut tree = converter.tree;
    tree.set_root(root);
    tree.recompute_leaf_counts();
    Ok(tree)
}

/// Converts a binary tree into the canonical n-ary tree.  Stacks shared by
/// every level hold the flattening walk, the flattened operands and the
/// converted children, so a conversion allocates nothing per node beyond the
/// tree itself.
struct Converter<'a> {
    graph: &'a LabeledDigraph,
    bin: &'a BinSpTree,
    tree: AnnotatedTree,
    /// The flattening walk (empty between calls to `flatten`).
    stack: Vec<usize>,
    /// Maximal operands of the composition being converted at each level.
    parts: Vec<usize>,
    /// Converted children at each level.
    children: Vec<TreeId>,
}

impl Converter<'_> {
    /// Pushes onto `parts` the maximal subtrees of `id` whose type differs
    /// from `id`'s composition, preserving left-to-right order.
    fn flatten(&mut self, id: usize) {
        let series = matches!(self.bin.node(id), BinNode::Series(..));
        self.stack.push(id);
        while let Some(n) = self.stack.pop() {
            match self.bin.node(n) {
                BinNode::Series(a, b) if series => self.stack.extend([b, a]),
                BinNode::Parallel(a, b) if !series => self.stack.extend([b, a]),
                _ => self.parts.push(n),
            }
        }
    }

    fn convert(&mut self, id: usize) -> TreeId {
        let ty = match self.bin.node(id) {
            BinNode::Leaf(e) => {
                let edge = self.graph.edge(e);
                let mut node = TreeNode::new(
                    NodeType::Q,
                    self.graph.label(edge.src).clone(),
                    self.graph.label(edge.dst).clone(),
                    edge.src,
                    edge.dst,
                );
                node.edge = Some(e);
                node.leaf_count = 1;
                return self.tree.add_node(node);
            }
            BinNode::Series(..) => NodeType::S,
            BinNode::Parallel(..) => NodeType::P,
        };
        let (parts_from, children_from) = (self.parts.len(), self.children.len());
        self.flatten(id);
        for i in parts_from..self.parts.len() {
            let child = self.convert(self.parts[i]);
            self.children.push(child);
        }
        // A flattened composition has at least two operands.
        let first = self.tree.node(self.children[children_from]);
        let last = self.tree.node(self.children[self.children.len() - 1]);
        // Every branch of a parallel node shares its terminals.
        let end = if ty == NodeType::S { last } else { first };
        let node =
            TreeNode::new(ty, first.s_label.clone(), end.t_label.clone(), first.s_node, end.t_node);
        let id = self.tree.add_node(node);
        for i in children_from..self.children.len() {
            self.tree.attach_child(id, self.children[i]);
        }
        self.parts.truncate(parts_from);
        self.children.truncate(children_from);
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfdiff_graph::SpGraph;

    fn fig2_spec() -> SpGraph {
        let b12 = SpGraph::basic("1", "2");
        let b236 = SpGraph::chain(&["2", "3", "6"]);
        let b246 = SpGraph::chain(&["2", "4", "6"]);
        let b256 = SpGraph::chain(&["2", "5", "6"]);
        let mid = SpGraph::parallel(&SpGraph::parallel(&b236, &b246).unwrap(), &b256).unwrap();
        let b67 = SpGraph::basic("6", "7");
        SpGraph::series(&SpGraph::series(&b12, &mid).unwrap(), &b67).unwrap()
    }

    #[test]
    fn single_edge_tree_is_q_root() {
        let g = SpGraph::basic("s", "t");
        let t = canonical_tree(g.graph(), g.source(), g.sink()).unwrap();
        assert_eq!(t.ty(t.root()), NodeType::Q);
        assert_eq!(t.leaf_count(t.root()), 1);
    }

    #[test]
    fn chain_flattens_into_single_s_node() {
        let g = SpGraph::chain(&["a", "b", "c", "d", "e"]);
        let t = canonical_tree(g.graph(), g.source(), g.sink()).unwrap();
        let root = t.root();
        assert_eq!(t.ty(root), NodeType::S);
        assert_eq!(t.children(root).len(), 4);
        assert!(t.children(root).iter().all(|&c| t.ty(c) == NodeType::Q));
        // Order of the S children follows the chain.
        let (s, _) = t.terminals(t.children(root)[0]);
        assert_eq!(s.as_str(), "a");
        let (_, last_t) = t.terminals(t.children(root)[3]);
        assert_eq!(last_t.as_str(), "e");
        assert!(t.validate_spec_tree().is_ok());
    }

    #[test]
    fn fig2_canonical_tree_shape() {
        // Expected (Fig. 6(a)): S( Q(1,2), P( S(Q(2,3),Q(3,6)), S(Q(2,4),Q(4,6)),
        //                          S(Q(2,5),Q(5,6)) ), Q(6,7) ).
        let g = fig2_spec();
        let t = canonical_tree(g.graph(), g.source(), g.sink()).unwrap();
        let root = t.root();
        assert_eq!(t.ty(root), NodeType::S);
        assert_eq!(t.children(root).len(), 3);
        assert_eq!(t.ty(t.children(root)[0]), NodeType::Q);
        assert_eq!(t.ty(t.children(root)[2]), NodeType::Q);
        let p = t.children(root)[1];
        assert_eq!(t.ty(p), NodeType::P);
        assert_eq!(t.children(p).len(), 3);
        for &branch in t.children(p) {
            assert_eq!(t.ty(branch), NodeType::S);
            assert_eq!(t.children(branch).len(), 2);
            let (s, tt) = t.terminals(branch);
            assert_eq!(s.as_str(), "2");
            assert_eq!(tt.as_str(), "6");
        }
        assert_eq!(t.leaf_count(root), 8);
        assert!(t.validate_spec_tree().is_ok());
    }

    #[test]
    fn canonical_tree_is_stable_under_composition_order() {
        // Compose the parallel section in a different association order and
        // check the canonical trees are equivalent.
        let b12 = SpGraph::basic("1", "2");
        let b236 = SpGraph::chain(&["2", "3", "6"]);
        let b246 = SpGraph::chain(&["2", "4", "6"]);
        let b256 = SpGraph::chain(&["2", "5", "6"]);
        let mid = SpGraph::parallel(&b236, &SpGraph::parallel(&b246, &b256).unwrap()).unwrap();
        let b67 = SpGraph::basic("6", "7");
        let g2 = SpGraph::series(&b12, &SpGraph::series(&mid, &b67).unwrap()).unwrap();

        let g1 = fig2_spec();
        let t1 = canonical_tree(g1.graph(), g1.source(), g1.sink()).unwrap();
        let t2 = canonical_tree(g2.graph(), g2.source(), g2.sink()).unwrap();
        assert!(t1.equivalent(&t2));
    }

    #[test]
    fn parallel_multi_edges_become_one_p_node() {
        let a = SpGraph::basic("u", "v");
        let b = SpGraph::basic("u", "v");
        let c = SpGraph::basic("u", "v");
        let g = SpGraph::parallel(&SpGraph::parallel(&a, &b).unwrap(), &c).unwrap();
        let t = canonical_tree(g.graph(), g.source(), g.sink()).unwrap();
        assert_eq!(t.ty(t.root()), NodeType::P);
        assert_eq!(t.children(t.root()).len(), 3);
    }

    #[test]
    fn leaf_edges_cover_all_graph_edges() {
        let g = fig2_spec();
        let t = canonical_tree(g.graph(), g.source(), g.sink()).unwrap();
        let mut edges = t.leaf_edges(t.root());
        edges.sort();
        edges.dedup();
        assert_eq!(edges.len(), g.edge_count());
    }
}
