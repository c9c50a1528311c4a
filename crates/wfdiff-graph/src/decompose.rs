//! SP-graph recognition and binary tree decomposition.
//!
//! The differencing algorithm works on the *SP-tree* representation of an
//! SP-graph (Section IV-A of the paper, originally due to Valdes, Tarjan and
//! Lawler).  This module produces the **binary** decomposition tree: a tree
//! whose leaves are the original edges (`Q` nodes) and whose internal nodes
//! record the series / parallel composition steps.  Canonicalisation (merging
//! adjacent nodes of the same type into n-ary nodes) happens one layer up, in
//! `wfdiff-sptree`.
//!
//! The recognition procedure is the classical reduction algorithm: repeatedly
//! * replace two parallel edges `(u, v), (u, v)` by a single edge whose tree is
//!   the parallel composition of their trees, and
//! * replace a length-2 path `u → v → w` through an internal node `v` of
//!   in-degree and out-degree one by a single edge `u → w` whose tree is the
//!   series composition,
//!
//! until a single edge from the source to the sink remains.  A two-terminal
//! DAG is series-parallel **iff** this terminates with one edge; otherwise the
//! reduction gets stuck and we report [`GraphError::NotSeriesParallel`].

use crate::digraph::LabeledDigraph;
use crate::error::GraphError;
use crate::ids::{EdgeId, NodeId};
use crate::spgraph::SpGraph;
use crate::Result;
use std::collections::{HashMap, VecDeque};

/// Binary decomposition tree of an SP-graph, stored as an arena.
///
/// Leaves correspond to edges of the original graph (identified by
/// [`EdgeId`]); internal nodes record the composition step that combined the
/// two operand subtrees.  Operands always precede the node composing them,
/// so arena order is a post-order and every node belongs to the tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BinSpTree {
    nodes: Vec<BinNode>,
    root: usize,
}

/// One node of a [`BinSpTree`]; internal nodes name their operands by arena
/// index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinNode {
    /// A `Q` node: a single original edge.
    Leaf(EdgeId),
    /// A series composition of the two operand subtrees (left before right).
    Series(usize, usize),
    /// A parallel composition of the two operand subtrees (unordered).
    Parallel(usize, usize),
}

impl BinSpTree {
    /// Arena index of the root.
    pub fn root(&self) -> usize {
        self.root
    }

    /// The node at arena index `id`.
    pub fn node(&self, id: usize) -> BinNode {
        self.nodes[id]
    }

    /// Collects the edge ids at the leaves, left to right.
    pub fn leaves(&self) -> Vec<EdgeId> {
        let mut out = Vec::new();
        let mut stack = vec![self.root];
        while let Some(id) = stack.pop() {
            match self.nodes[id] {
                BinNode::Leaf(e) => out.push(e),
                BinNode::Series(a, b) | BinNode::Parallel(a, b) => {
                    stack.push(b);
                    stack.push(a);
                }
            }
        }
        out
    }

    /// Total number of tree nodes (internal + leaves).
    pub fn size(&self) -> usize {
        self.nodes.len()
    }
}

/// Out-degree up to which a parallel step finds a node pair's live edge by
/// scanning the source's out-list.
const SCAN_LIMIT: usize = 8;

/// One live edge of the reduction multigraph.
#[derive(Clone, Copy)]
struct RedEdge {
    src: NodeId,
    dst: NodeId,
    /// Arena index of the edge's subtree.
    tree: usize,
    /// Index of the edge in `out[src]` and in `inn[dst]`, so removal is a
    /// `swap_remove` rather than a search.
    out_pos: usize,
    in_pos: usize,
}

/// Work state for the series/parallel reduction.
///
/// The per-node edge lists hold live edges only, in no particular order: a
/// series step reads them only at in- and out-degree 1, so their order never
/// changes which reduction fires.
struct Reducer {
    trees: Vec<BinNode>,
    edges: Vec<RedEdge>,
    out: Vec<Vec<usize>>,
    inn: Vec<Vec<usize>>,
    /// For a node whose out-degree ever passed [`SCAN_LIMIT`], its live
    /// out-edges by target, maintained from then on.  A parallel step looks
    /// up the one live edge of a node pair (every insert merges with an
    /// existing edge of its pair): by a scan of the source's short out-list,
    /// or here, so a fork of `n` copies costs O(n), not O(n²).
    wide: Vec<Option<HashMap<NodeId, usize>>>,
    /// Nodes whose degrees changed and that should be re-examined for a
    /// series reduction.
    worklist: VecDeque<NodeId>,
    source: NodeId,
    sink: NodeId,
    live_count: usize,
}

impl Reducer {
    fn new(graph: &LabeledDigraph, source: NodeId, sink: NodeId) -> Self {
        let nodes = graph.node_count();
        Reducer {
            trees: Vec::with_capacity(2 * graph.edge_count()),
            edges: Vec::with_capacity(2 * graph.edge_count()),
            out: vec![Vec::new(); nodes],
            inn: vec![Vec::new(); nodes],
            wide: vec![None; nodes],
            worklist: VecDeque::with_capacity(2 * nodes),
            source,
            sink,
            live_count: 0,
        }
    }

    fn push_tree(&mut self, node: BinNode) -> usize {
        self.trees.push(node);
        self.trees.len() - 1
    }

    /// The live edge from `src` to `dst`, if any.
    fn live_edge(&self, src: NodeId, dst: NodeId) -> Option<usize> {
        match &self.wide[src.index()] {
            Some(by_target) => by_target.get(&dst).copied(),
            None => self.out[src.index()].iter().copied().find(|&e| self.edges[e].dst == dst),
        }
    }

    /// Inserts an edge, immediately performing a parallel reduction if another
    /// live edge already connects the same ordered pair of nodes.
    fn add_edge(&mut self, src: NodeId, dst: NodeId, tree: usize) {
        if let Some(other) = self.live_edge(src, dst) {
            let other_tree = self.edges[other].tree;
            self.remove_edge(other);
            let merged = self.push_tree(BinNode::Parallel(other_tree, tree));
            self.add_edge(src, dst, merged);
            return;
        }
        let idx = self.edges.len();
        let (out_pos, in_pos) = (self.out[src.index()].len(), self.inn[dst.index()].len());
        self.edges.push(RedEdge { src, dst, tree, out_pos, in_pos });
        self.out[src.index()].push(idx);
        self.inn[dst.index()].push(idx);
        let out = &self.out[src.index()];
        match &mut self.wide[src.index()] {
            Some(by_target) => {
                by_target.insert(dst, idx);
            }
            wide @ None if out.len() > SCAN_LIMIT => {
                *wide = Some(out.iter().map(|&e| (self.edges[e].dst, e)).collect());
            }
            None => {}
        }
        self.live_count += 1;
        self.worklist.push_back(src);
        self.worklist.push_back(dst);
    }

    fn remove_edge(&mut self, idx: usize) {
        let RedEdge { src, dst, out_pos, in_pos, .. } = self.edges[idx];
        let out = &mut self.out[src.index()];
        out.swap_remove(out_pos);
        if let Some(&moved) = out.get(out_pos) {
            self.edges[moved].out_pos = out_pos;
        }
        let inn = &mut self.inn[dst.index()];
        inn.swap_remove(in_pos);
        if let Some(&moved) = inn.get(in_pos) {
            self.edges[moved].in_pos = in_pos;
        }
        if let Some(by_target) = &mut self.wide[src.index()] {
            by_target.remove(&dst);
        }
        self.live_count -= 1;
        self.worklist.push_back(src);
        self.worklist.push_back(dst);
    }

    /// Attempts a series reduction at `v`; returns `true` if one was applied.
    fn try_series(&mut self, v: NodeId) -> bool {
        if v == self.source || v == self.sink {
            return false;
        }
        let (&[e_in], &[e_out]) = (&self.inn[v.index()][..], &self.out[v.index()][..]) else {
            return false;
        };
        if e_in == e_out {
            // Self loop: cannot happen in a DAG, but guard anyway.
            return false;
        }
        let src = self.edges[e_in].src;
        let dst = self.edges[e_out].dst;
        if src == v || dst == v {
            // A cycle through v; not reducible.
            return false;
        }
        let (t_in, t_out) = (self.edges[e_in].tree, self.edges[e_out].tree);
        self.remove_edge(e_in);
        self.remove_edge(e_out);
        let series = self.push_tree(BinNode::Series(t_in, t_out));
        self.add_edge(src, dst, series);
        true
    }

    fn run(mut self) -> Result<BinSpTree> {
        while let Some(v) = self.worklist.pop_front() {
            // Keep reducing at v while possible (degrees may stay (1,1) after a
            // parallel merge triggered by the series reduction).
            while self.try_series(v) {}
        }
        if self.live_count == 1 {
            if let &[idx] = &self.out[self.source.index()][..] {
                let e = &self.edges[idx];
                if e.dst == self.sink {
                    return Ok(BinSpTree { root: e.tree, nodes: self.trees });
                }
            }
        }
        Err(GraphError::NotSeriesParallel { remaining_edges: self.live_count })
    }
}

/// Decomposes the two-terminal graph `(graph, source, sink)` into a binary
/// SP-tree, or reports that the graph is not series-parallel.
///
/// The graph must be an acyclic flow network; callers typically validate this
/// first via [`crate::flow::validate_acyclic_flow_network`].
pub fn decompose(graph: &LabeledDigraph, source: NodeId, sink: NodeId) -> Result<BinSpTree> {
    if graph.edge_count() == 0 {
        return Err(GraphError::EmptyGraph);
    }
    let mut reducer = Reducer::new(graph, source, sink);
    for (id, e) in graph.edges() {
        let leaf = reducer.push_tree(BinNode::Leaf(id));
        reducer.add_edge(e.src, e.dst, leaf);
    }
    // Seed the worklist with every node once.
    for n in graph.node_ids() {
        reducer.worklist.push_back(n);
    }
    reducer.run()
}

/// Decomposes an [`SpGraph`] (convenience wrapper around [`decompose`]).
pub fn decompose_sp(g: &SpGraph) -> Result<BinSpTree> {
    decompose(g.graph(), g.source(), g.sink())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spgraph::SpGraph;

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
    fn single_edge_is_a_leaf() {
        let g = SpGraph::basic("s", "t");
        let t = decompose_sp(&g).unwrap();
        assert!(matches!(t.node(t.root()), BinNode::Leaf(_)));
    }

    #[test]
    fn chain_decomposes_to_nested_series() {
        let g = SpGraph::chain(&["a", "b", "c", "d"]);
        let t = decompose_sp(&g).unwrap();
        assert_eq!(t.leaves().len(), 3);
        // The tree must contain only series internal nodes.
        assert!((0..t.size()).all(|id| !matches!(t.node(id), BinNode::Parallel(_, _))));
    }

    #[test]
    fn parallel_edges_decompose_to_parallel_node() {
        let a = SpGraph::basic("u", "v");
        let b = SpGraph::basic("u", "v");
        let g = SpGraph::parallel(&a, &b).unwrap();
        let t = decompose_sp(&g).unwrap();
        assert!(matches!(t.node(t.root()), BinNode::Parallel(_, _)));
        assert_eq!(t.leaves().len(), 2);
    }

    #[test]
    fn fig2_specification_decomposes() {
        let g = fig2_spec();
        let t = decompose_sp(&g).unwrap();
        assert_eq!(t.leaves().len(), g.edge_count());
        // All 8 original edges appear exactly once as leaves.
        let mut leaves = t.leaves();
        leaves.sort();
        leaves.dedup();
        assert_eq!(leaves.len(), 8);
    }

    #[test]
    fn forbidden_minor_is_rejected() {
        // The smallest non-SP two-terminal DAG (the "N" graph from Theorem 1):
        // s -> v1, s -> v2, v1 -> v2, v1 -> t, v2 -> t.
        let mut g = LabeledDigraph::new();
        let s = g.add_node("s");
        let v1 = g.add_node("v1");
        let v2 = g.add_node("v2");
        let t = g.add_node("t");
        g.add_edge(s, v1);
        g.add_edge(s, v2);
        g.add_edge(v1, v2);
        g.add_edge(v1, t);
        g.add_edge(v2, t);
        let err = decompose(&g, s, t).unwrap_err();
        assert!(matches!(err, GraphError::NotSeriesParallel { .. }));
    }

    #[test]
    fn fan_decomposes_with_all_leaves() {
        let lengths: Vec<usize> = (1..=6).map(|i| i * i).collect();
        let g = SpGraph::fan("u", "v", &lengths, "p");
        let t = decompose_sp(&g).unwrap();
        assert_eq!(t.leaves().len(), lengths.iter().sum::<usize>());
    }

    #[test]
    fn wide_forks_merge_through_the_target_index() {
        // 50 two-edge branches: the shared source's out-degree passes
        // SCAN_LIMIT, so the series steps' u -> v edges merge via the index.
        let g = SpGraph::fan("u", "v", &[2; 50], "p");
        let t = decompose_sp(&g).unwrap();
        assert_eq!(t.leaves().len(), 100);
        let (mut parallel, mut series) = (0, 0);
        for id in 0..t.size() {
            match t.node(id) {
                BinNode::Parallel(..) => parallel += 1,
                BinNode::Series(a, b) => {
                    assert!(matches!((t.node(a), t.node(b)), (BinNode::Leaf(_), BinNode::Leaf(_))));
                    series += 1;
                }
                BinNode::Leaf(_) => {}
            }
        }
        assert_eq!((series, parallel), (50, 49));
        assert!(matches!(t.node(t.root()), BinNode::Parallel(..)));
    }

    #[test]
    fn composed_graphs_always_decompose() {
        // Randomly compose SP graphs and check the decomposition succeeds and
        // preserves the edge count.
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
        for case in 0..30 {
            let mut g = SpGraph::basic("s", "t");
            let mut next_label = 0u32;
            for _ in 0..case {
                if rng.gen_bool(0.5) {
                    // Series-extend with a fresh tail node.
                    next_label += 1;
                    let tail = SpGraph::basic(g.sink_label().clone(), format!("x{next_label}"));
                    g = SpGraph::series(&g, &tail).unwrap();
                } else {
                    // Parallel-add another source->sink edge chain.
                    next_label += 1;
                    let branch = SpGraph::chain(&[
                        g.source_label().as_str().to_string(),
                        format!("y{next_label}"),
                        g.sink_label().as_str().to_string(),
                    ]);
                    g = SpGraph::parallel(&g, &branch).unwrap();
                }
            }
            let t = decompose_sp(&g).expect("composed graph must be SP");
            assert_eq!(t.leaves().len(), g.edge_count());
        }
    }

    #[test]
    fn empty_graph_rejected() {
        let g = LabeledDigraph::new();
        assert!(matches!(decompose(&g, NodeId(0), NodeId(0)), Err(GraphError::EmptyGraph)));
    }

    #[test]
    fn tree_statistics() {
        let g = SpGraph::chain(&["a", "b", "c"]);
        let t = decompose_sp(&g).unwrap();
        assert_eq!(t.size(), 3);
    }
}
