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
use wfdiff_graph::{decompose, BinSpTree, LabeledDigraph, NodeId};

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
    let mut tree = AnnotatedTree::empty();
    let root = convert(graph, &bin, &mut tree);
    tree.set_root(root);
    tree.recompute_leaf_counts();
    Ok(tree)
}

/// Flattens a binary subtree of the given composition type into the list of
/// maximal subtrees of *different* type, preserving left-to-right order.
fn flatten<'a>(bin: &'a BinSpTree, want_series: bool, out: &mut Vec<&'a BinSpTree>) {
    match bin {
        BinSpTree::Series(a, b) if want_series => {
            flatten(a, want_series, out);
            flatten(b, want_series, out);
        }
        BinSpTree::Parallel(a, b) if !want_series => {
            flatten(a, want_series, out);
            flatten(b, want_series, out);
        }
        other => out.push(other),
    }
}

#[expect(
    clippy::expect_used,
    reason = "series nodes are created with children by the parser; childless series nodes are unconstructible"
)]
fn convert(graph: &LabeledDigraph, bin: &BinSpTree, tree: &mut AnnotatedTree) -> TreeId {
    match bin {
        BinSpTree::Leaf(e) => {
            let edge = graph.edge(*e);
            let mut node = TreeNode::new(
                NodeType::Q,
                graph.label(edge.src).clone(),
                graph.label(edge.dst).clone(),
                edge.src,
                edge.dst,
            );
            node.edge = Some(*e);
            node.leaf_count = 1;
            tree.add_node(node)
        }
        BinSpTree::Series(_, _) => {
            let mut parts = Vec::new();
            flatten(bin, true, &mut parts);
            let children: Vec<TreeId> = parts.iter().map(|p| convert(graph, p, tree)).collect();
            let first = children[0];
            let last = *children.last().expect("series node has children");
            let (s_label, s_node) = (tree.node(first).s_label.clone(), tree.node(first).s_node);
            let (t_label, t_node) = (tree.node(last).t_label.clone(), tree.node(last).t_node);
            let node = TreeNode::new(NodeType::S, s_label, t_label, s_node, t_node);
            let id = tree.add_node(node);
            for c in children {
                tree.attach_child(id, c);
            }
            id
        }
        BinSpTree::Parallel(_, _) => {
            let mut parts = Vec::new();
            flatten(bin, false, &mut parts);
            let children: Vec<TreeId> = parts.iter().map(|p| convert(graph, p, tree)).collect();
            let first = children[0];
            let (s_label, s_node) = (tree.node(first).s_label.clone(), tree.node(first).s_node);
            let (t_label, t_node) = (tree.node(first).t_label.clone(), tree.node(first).t_node);
            let node = TreeNode::new(NodeType::P, s_label, t_label, s_node, t_node);
            let id = tree.add_node(node);
            for c in children {
                tree.attach_child(id, c);
            }
            id
        }
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
