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
use std::collections::{HashMap, HashSet, VecDeque};

/// Binary decomposition tree of an SP-graph.
///
/// Leaves correspond to edges of the original graph (identified by
/// [`EdgeId`]); internal nodes record the composition step that combined the
/// two operand subgraphs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BinSpTree {
    /// A `Q` node: a single original edge.
    Leaf(EdgeId),
    /// A series composition of the two operand subtrees (left before right).
    Series(Box<BinSpTree>, Box<BinSpTree>),
    /// A parallel composition of the two operand subtrees (unordered).
    Parallel(Box<BinSpTree>, Box<BinSpTree>),
}

impl BinSpTree {
    /// Collects the edge ids at the leaves, left to right.
    pub fn leaves(&self) -> Vec<EdgeId> {
        let mut out = Vec::new();
        self.collect_leaves(&mut out);
        out
    }

    fn collect_leaves(&self, out: &mut Vec<EdgeId>) {
        match self {
            BinSpTree::Leaf(e) => out.push(*e),
            BinSpTree::Series(a, b) | BinSpTree::Parallel(a, b) => {
                a.collect_leaves(out);
                b.collect_leaves(out);
            }
        }
    }

    /// Total number of tree nodes (internal + leaves).
    pub fn size(&self) -> usize {
        match self {
            BinSpTree::Leaf(_) => 1,
            BinSpTree::Series(a, b) | BinSpTree::Parallel(a, b) => 1 + a.size() + b.size(),
        }
    }

    /// Height of the tree (a single leaf has height zero).
    pub fn height(&self) -> usize {
        match self {
            BinSpTree::Leaf(_) => 0,
            BinSpTree::Series(a, b) | BinSpTree::Parallel(a, b) => 1 + a.height().max(b.height()),
        }
    }
}

/// One live edge of the reduction multigraph.
struct RedEdge {
    src: NodeId,
    dst: NodeId,
    tree: Option<BinSpTree>,
    alive: bool,
}

/// Work state for the series/parallel reduction.
struct Reducer {
    edges: Vec<RedEdge>,
    out: Vec<HashSet<usize>>,
    inn: Vec<HashSet<usize>>,
    /// One representative live edge per (src, dst) pair, used to detect
    /// parallel-reduction opportunities in O(1).
    pair: HashMap<(NodeId, NodeId), usize>,
    /// Nodes whose degrees changed and that should be re-examined for a
    /// series reduction.
    worklist: VecDeque<NodeId>,
    source: NodeId,
    sink: NodeId,
    live_count: usize,
}

impl Reducer {
    fn new(node_count: usize, source: NodeId, sink: NodeId) -> Self {
        Reducer {
            edges: Vec::new(),
            out: vec![HashSet::new(); node_count],
            inn: vec![HashSet::new(); node_count],
            pair: HashMap::new(),
            worklist: VecDeque::new(),
            source,
            sink,
            live_count: 0,
        }
    }

    /// Inserts an edge, immediately performing a parallel reduction if another
    /// live edge already connects the same ordered pair of nodes.
    #[expect(
        clippy::expect_used,
        reason = "alive edges always own a tree; take() only runs on edges the liveness scan just returned"
    )]
    fn add_edge(&mut self, src: NodeId, dst: NodeId, tree: BinSpTree) {
        if let Some(&other) = self.pair.get(&(src, dst)) {
            if self.edges[other].alive {
                let other_tree = self.edges[other].tree.take().expect("live edge without tree");
                self.remove_edge(other);
                let merged = BinSpTree::Parallel(Box::new(other_tree), Box::new(tree));
                self.add_edge(src, dst, merged);
                return;
            }
        }
        let idx = self.edges.len();
        self.edges.push(RedEdge { src, dst, tree: Some(tree), alive: true });
        self.out[src.index()].insert(idx);
        self.inn[dst.index()].insert(idx);
        self.pair.insert((src, dst), idx);
        self.live_count += 1;
        self.worklist.push_back(src);
        self.worklist.push_back(dst);
    }

    fn remove_edge(&mut self, idx: usize) {
        let (src, dst) = (self.edges[idx].src, self.edges[idx].dst);
        self.edges[idx].alive = false;
        self.out[src.index()].remove(&idx);
        self.inn[dst.index()].remove(&idx);
        if self.pair.get(&(src, dst)) == Some(&idx) {
            self.pair.remove(&(src, dst));
        }
        self.live_count -= 1;
        self.worklist.push_back(src);
        self.worklist.push_back(dst);
    }

    /// Attempts a series reduction at `v`; returns `true` if one was applied.
    #[expect(
        clippy::expect_used,
        reason = "the series-reduction branch is entered only after checking in-degree == 1 and out-degree == 1; alive edges always own a tree"
    )]
    fn try_series(&mut self, v: NodeId) -> bool {
        if v == self.source || v == self.sink {
            return false;
        }
        if self.inn[v.index()].len() != 1 || self.out[v.index()].len() != 1 {
            return false;
        }
        let e_in = *self.inn[v.index()].iter().next().expect("in-degree checked to be 1");
        let e_out = *self.out[v.index()].iter().next().expect("out-degree checked to be 1");
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
        let t_in = self.edges[e_in].tree.take().expect("live edge without tree");
        let t_out = self.edges[e_out].tree.take().expect("live edge without tree");
        self.remove_edge(e_in);
        self.remove_edge(e_out);
        self.add_edge(src, dst, BinSpTree::Series(Box::new(t_in), Box::new(t_out)));
        true
    }

    #[expect(
        clippy::expect_used,
        reason = "the reduction loop terminates with exactly one live edge for a valid SP graph (validity was checked on entry), and alive edges always own a tree"
    )]
    fn run(mut self) -> Result<BinSpTree> {
        while let Some(v) = self.worklist.pop_front() {
            // Keep reducing at v while possible (degrees may stay (1,1) after a
            // parallel merge triggered by the series reduction).
            while self.try_series(v) {}
        }
        if self.live_count == 1 {
            let idx = self.edges.iter().position(|e| e.alive).expect("live edge");
            let e = &self.edges[idx];
            if e.src == self.source && e.dst == self.sink {
                return Ok(self.edges[idx].tree.take().expect("live edge without tree"));
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
    let mut reducer = Reducer::new(graph.node_count(), source, sink);
    for (id, e) in graph.edges() {
        reducer.add_edge(e.src, e.dst, BinSpTree::Leaf(id));
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

/// Returns `true` if the two-terminal graph is series-parallel.
pub fn is_series_parallel(graph: &LabeledDigraph, source: NodeId, sink: NodeId) -> bool {
    decompose(graph, source, sink).is_ok()
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
        assert!(matches!(t, BinSpTree::Leaf(_)));
    }

    #[test]
    fn chain_decomposes_to_nested_series() {
        let g = SpGraph::chain(&["a", "b", "c", "d"]);
        let t = decompose_sp(&g).unwrap();
        assert_eq!(t.leaves().len(), 3);
        // The tree must contain only series internal nodes.
        fn only_series(t: &BinSpTree) -> bool {
            match t {
                BinSpTree::Leaf(_) => true,
                BinSpTree::Series(a, b) => only_series(a) && only_series(b),
                BinSpTree::Parallel(_, _) => false,
            }
        }
        assert!(only_series(&t));
    }

    #[test]
    fn parallel_edges_decompose_to_parallel_node() {
        let a = SpGraph::basic("u", "v");
        let b = SpGraph::basic("u", "v");
        let g = SpGraph::parallel(&a, &b).unwrap();
        let t = decompose_sp(&g).unwrap();
        assert!(matches!(t, BinSpTree::Parallel(_, _)));
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
        assert_eq!(t.height(), 1);
    }
}
