//! A node-labeled directed multigraph with per-node and per-edge annotations.
//!
//! This is the single graph representation used for both workflow
//! specifications and workflow runs.  It is deliberately simple: an arena of
//! nodes and an arena of edges with incidence lists, because the differencing
//! algorithms never mutate graphs in place (they operate on annotated SP-trees)
//! and the workload generators only append.
//!
//! The graph is a **multigraph**: several edges may connect the same ordered
//! pair of nodes.  This matters both for SP-graphs (Definition 3.2 explicitly
//! allows multi-edges) and for the series/parallel reduction used by the
//! decomposition, which creates parallel edges as it contracts series chains.

use crate::error::GraphError;
use crate::ids::{EdgeId, NodeId};
use crate::label::Label;
use crate::Result;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap, VecDeque};

/// Payload stored for every node.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodeData {
    /// The module label.  Unique within a specification, repeated within runs.
    pub label: Label,
    /// Free-form annotations (parameter settings, invocation metadata).
    /// These do not affect the structural edit distance but are surfaced by
    /// PDiffView as data differences once nodes have been matched.
    #[serde(default, skip_serializing_if = "BTreeMap::is_empty")]
    pub annotations: BTreeMap<String, String>,
}

impl NodeData {
    /// Creates node data with no annotations.
    pub fn new(label: impl Into<Label>) -> Self {
        NodeData { label: label.into(), annotations: BTreeMap::new() }
    }
}

/// Payload stored for every edge.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EdgeData {
    /// Source node of the edge.
    pub src: NodeId,
    /// Destination node of the edge.
    pub dst: NodeId,
    /// Free-form annotations (data products flowing along the edge).
    #[serde(default, skip_serializing_if = "BTreeMap::is_empty")]
    pub annotations: BTreeMap<String, String>,
}

/// A node-labeled directed multigraph.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LabeledDigraph {
    nodes: Vec<NodeData>,
    edges: Vec<EdgeData>,
    #[serde(skip)]
    out_adj: Vec<Vec<EdgeId>>,
    #[serde(skip)]
    in_adj: Vec<Vec<EdgeId>>,
}

impl LabeledDigraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty graph with room for `nodes` nodes and `edges` edges.
    pub fn with_capacity(nodes: usize, edges: usize) -> Self {
        LabeledDigraph {
            nodes: Vec::with_capacity(nodes),
            edges: Vec::with_capacity(edges),
            out_adj: Vec::with_capacity(nodes),
            in_adj: Vec::with_capacity(nodes),
        }
    }

    /// Rebuilds the adjacency lists; required after deserialisation because the
    /// incidence lists are not serialised.
    pub fn rebuild_adjacency(&mut self) {
        self.out_adj = vec![Vec::new(); self.nodes.len()];
        self.in_adj = vec![Vec::new(); self.nodes.len()];
        for (i, e) in self.edges.iter().enumerate() {
            self.out_adj[e.src.index()].push(EdgeId::from(i));
            self.in_adj[e.dst.index()].push(EdgeId::from(i));
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Returns `true` if the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Adds a node with the given label and returns its id.
    pub fn add_node(&mut self, label: impl Into<Label>) -> NodeId {
        self.add_node_data(NodeData::new(label))
    }

    /// Adds a node with full payload and returns its id.
    pub fn add_node_data(&mut self, data: NodeData) -> NodeId {
        let id = NodeId::from(self.nodes.len());
        self.nodes.push(data);
        self.out_adj.push(Vec::new());
        self.in_adj.push(Vec::new());
        id
    }

    /// Adds an edge from `src` to `dst` and returns its id.
    ///
    /// # Panics
    /// Panics if either endpoint does not exist (programming error).
    pub fn add_edge(&mut self, src: NodeId, dst: NodeId) -> EdgeId {
        self.add_edge_data(EdgeData { src, dst, annotations: BTreeMap::new() })
    }

    /// Adds an edge with full payload and returns its id.
    pub fn add_edge_data(&mut self, data: EdgeData) -> EdgeId {
        assert!(data.src.index() < self.nodes.len(), "edge source out of bounds");
        assert!(data.dst.index() < self.nodes.len(), "edge destination out of bounds");
        let id = EdgeId::from(self.edges.len());
        self.out_adj[data.src.index()].push(id);
        self.in_adj[data.dst.index()].push(id);
        self.edges.push(data);
        id
    }

    /// Returns the node payload.
    pub fn node(&self, id: NodeId) -> &NodeData {
        &self.nodes[id.index()]
    }

    /// Returns a mutable reference to the node payload.
    pub fn node_mut(&mut self, id: NodeId) -> &mut NodeData {
        &mut self.nodes[id.index()]
    }

    /// Returns the edge payload.
    pub fn edge(&self, id: EdgeId) -> &EdgeData {
        &self.edges[id.index()]
    }

    /// Returns a mutable reference to the edge payload.
    pub fn edge_mut(&mut self, id: EdgeId) -> &mut EdgeData {
        &mut self.edges[id.index()]
    }

    /// Returns the label of a node.
    pub fn label(&self, id: NodeId) -> &Label {
        &self.nodes[id.index()].label
    }

    /// Iterator over all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len()).map(NodeId::from)
    }

    /// Iterator over all edge ids.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> + '_ {
        (0..self.edges.len()).map(EdgeId::from)
    }

    /// Iterator over `(EdgeId, &EdgeData)` pairs.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, &EdgeData)> + '_ {
        self.edges.iter().enumerate().map(|(i, e)| (EdgeId::from(i), e))
    }

    /// Iterator over `(NodeId, &NodeData)` pairs.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &NodeData)> + '_ {
        self.nodes.iter().enumerate().map(|(i, n)| (NodeId::from(i), n))
    }

    /// Outgoing edge ids of a node.
    pub fn out_edges(&self, id: NodeId) -> &[EdgeId] {
        &self.out_adj[id.index()]
    }

    /// Incoming edge ids of a node.
    pub fn in_edges(&self, id: NodeId) -> &[EdgeId] {
        &self.in_adj[id.index()]
    }

    /// Out-degree of a node (counting parallel edges separately).
    pub fn out_degree(&self, id: NodeId) -> usize {
        self.out_adj[id.index()].len()
    }

    /// In-degree of a node (counting parallel edges separately).
    pub fn in_degree(&self, id: NodeId) -> usize {
        self.in_adj[id.index()].len()
    }

    /// Successor node ids of a node (may repeat for parallel edges).
    pub fn successors(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.out_adj[id.index()].iter().map(move |e| self.edges[e.index()].dst)
    }

    /// Predecessor node ids of a node (may repeat for parallel edges).
    pub fn predecessors(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.in_adj[id.index()].iter().map(move |e| self.edges[e.index()].src)
    }

    /// Returns `true` if at least one edge connects `src` to `dst`.
    pub fn has_edge(&self, src: NodeId, dst: NodeId) -> bool {
        self.out_adj[src.index()].iter().any(|e| self.edges[e.index()].dst == dst)
    }

    /// Returns the first node carrying `label`, if any.
    pub fn find_label(&self, label: &str) -> Option<NodeId> {
        self.nodes.iter().position(|n| n.label.as_str() == label).map(NodeId::from)
    }

    /// Returns all node ids carrying `label`.
    pub fn find_all_labels(&self, label: &str) -> Vec<NodeId> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.label.as_str() == label)
            .map(|(i, _)| NodeId::from(i))
            .collect()
    }

    /// Returns a map from label to node id, failing on duplicates.
    ///
    /// Specifications require unique labels (Section III-B), so this is the
    /// entry point used when a graph is promoted to a specification.
    pub fn unique_label_index(&self) -> Result<HashMap<Label, NodeId>> {
        let mut map = HashMap::with_capacity(self.nodes.len());
        for (id, n) in self.nodes() {
            if map.insert(n.label.clone(), id).is_some() {
                return Err(GraphError::DuplicateSpecLabel(n.label.clone()));
            }
        }
        Ok(map)
    }

    /// Computes a topological order of the nodes, or reports a cycle.
    pub fn topological_order(&self) -> Result<Vec<NodeId>> {
        let mut indeg: Vec<usize> = (0..self.nodes.len()).map(|i| self.in_adj[i].len()).collect();
        let mut queue: VecDeque<NodeId> =
            self.node_ids().filter(|n| indeg[n.index()] == 0).collect();
        let mut order = Vec::with_capacity(self.nodes.len());
        while let Some(n) = queue.pop_front() {
            order.push(n);
            for &e in self.out_edges(n) {
                let dst = self.edges[e.index()].dst;
                indeg[dst.index()] -= 1;
                if indeg[dst.index()] == 0 {
                    queue.push_back(dst);
                }
            }
        }
        if order.len() == self.nodes.len() {
            Ok(order)
        } else {
            Err(GraphError::CyclicGraph)
        }
    }

    /// Returns `true` if the graph has no directed cycle.
    pub fn is_acyclic(&self) -> bool {
        self.topological_order().is_ok()
    }

    /// Set of nodes reachable from `start` (including `start`).
    pub fn reachable_from(&self, start: NodeId) -> Vec<bool> {
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![start];
        seen[start.index()] = true;
        while let Some(n) = stack.pop() {
            for &e in self.out_edges(n) {
                let dst = self.edges[e.index()].dst;
                if !seen[dst.index()] {
                    seen[dst.index()] = true;
                    stack.push(dst);
                }
            }
        }
        seen
    }

    /// Set of nodes that can reach `target` (including `target`).
    pub fn reaching(&self, target: NodeId) -> Vec<bool> {
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![target];
        seen[target.index()] = true;
        while let Some(n) = stack.pop() {
            for &e in self.in_edges(n) {
                let src = self.edges[e.index()].src;
                if !seen[src.index()] {
                    seen[src.index()] = true;
                    stack.push(src);
                }
            }
        }
        seen
    }

    /// Nodes with in-degree zero.
    pub fn sources(&self) -> Vec<NodeId> {
        self.node_ids().filter(|n| self.in_degree(*n) == 0).collect()
    }

    /// Nodes with out-degree zero.
    pub fn sinks(&self) -> Vec<NodeId> {
        self.node_ids().filter(|n| self.out_degree(*n) == 0).collect()
    }

    /// Length (number of edges) of the longest source→sink path; requires the
    /// graph to be acyclic.
    pub fn longest_path_len(&self, source: NodeId, sink: NodeId) -> Result<usize> {
        let order = self.topological_order()?;
        let mut dist = vec![usize::MIN; self.nodes.len()];
        let mut reachable = vec![false; self.nodes.len()];
        reachable[source.index()] = true;
        dist[source.index()] = 0;
        for n in order {
            if !reachable[n.index()] {
                continue;
            }
            for &e in self.out_edges(n) {
                let dst = self.edges[e.index()].dst;
                let cand = dist[n.index()] + 1;
                if !reachable[dst.index()] || cand > dist[dst.index()] {
                    reachable[dst.index()] = true;
                    dist[dst.index()] = cand;
                }
            }
        }
        if reachable[sink.index()] {
            Ok(dist[sink.index()])
        } else {
            Err(GraphError::Invariant("sink not reachable from source".to_string()))
        }
    }

    /// Collects the multiset of `(source-label, target-label)` pairs over all
    /// edges.  Useful for comparing two runs structurally in tests.
    pub fn edge_label_multiset(&self) -> BTreeMap<(Label, Label), usize> {
        let mut map = BTreeMap::new();
        for (_, e) in self.edges() {
            let key = (self.label(e.src).clone(), self.label(e.dst).clone());
            *map.entry(key).or_insert(0) += 1;
        }
        map
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> (LabeledDigraph, Vec<NodeId>) {
        // 1 -> 2 -> 4, 1 -> 3 -> 4
        let mut g = LabeledDigraph::new();
        let n1 = g.add_node("1");
        let n2 = g.add_node("2");
        let n3 = g.add_node("3");
        let n4 = g.add_node("4");
        g.add_edge(n1, n2);
        g.add_edge(n1, n3);
        g.add_edge(n2, n4);
        g.add_edge(n3, n4);
        (g, vec![n1, n2, n3, n4])
    }

    #[test]
    fn add_nodes_and_edges() {
        let (g, ns) = diamond();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.out_degree(ns[0]), 2);
        assert_eq!(g.in_degree(ns[3]), 2);
        assert!(g.has_edge(ns[0], ns[1]));
        assert!(!g.has_edge(ns[1], ns[0]));
    }

    #[test]
    fn multigraph_allows_parallel_edges() {
        let mut g = LabeledDigraph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        g.add_edge(a, b);
        g.add_edge(a, b);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.out_degree(a), 2);
        assert_eq!(g.successors(a).collect::<Vec<_>>(), vec![b, b]);
    }

    #[test]
    fn topological_order_of_dag() {
        let (g, ns) = diamond();
        let order = g.topological_order().unwrap();
        let pos: Vec<usize> =
            ns.iter().map(|n| order.iter().position(|x| x == n).unwrap()).collect();
        assert!(pos[0] < pos[1]);
        assert!(pos[0] < pos[2]);
        assert!(pos[1] < pos[3]);
        assert!(pos[2] < pos[3]);
    }

    #[test]
    fn cycle_detected() {
        let mut g = LabeledDigraph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        g.add_edge(a, b);
        g.add_edge(b, a);
        assert!(!g.is_acyclic());
        assert_eq!(g.topological_order().unwrap_err(), GraphError::CyclicGraph);
    }

    #[test]
    fn reachability() {
        let (g, ns) = diamond();
        let from0 = g.reachable_from(ns[0]);
        assert!(from0.iter().all(|&b| b));
        let to3 = g.reaching(ns[3]);
        assert!(to3.iter().all(|&b| b));
        let from1 = g.reachable_from(ns[1]);
        assert!(!from1[ns[2].index()]);
    }

    #[test]
    fn sources_and_sinks() {
        let (g, ns) = diamond();
        assert_eq!(g.sources(), vec![ns[0]]);
        assert_eq!(g.sinks(), vec![ns[3]]);
    }

    #[test]
    fn unique_label_index_rejects_duplicates() {
        let mut g = LabeledDigraph::new();
        g.add_node("x");
        g.add_node("x");
        assert!(matches!(g.unique_label_index(), Err(GraphError::DuplicateSpecLabel(_))));
    }

    #[test]
    fn longest_path_in_diamond_is_two() {
        let (g, ns) = diamond();
        assert_eq!(g.longest_path_len(ns[0], ns[3]).unwrap(), 2);
    }

    #[test]
    fn edge_label_multiset_counts_parallel_edges() {
        let mut g = LabeledDigraph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        g.add_edge(a, b);
        g.add_edge(a, b);
        let ms = g.edge_label_multiset();
        assert_eq!(ms[&(Label::new("a"), Label::new("b"))], 2);
    }

    #[test]
    fn serde_roundtrip_rebuilds_adjacency() {
        let (g, ns) = diamond();
        let json = serde_json::to_string(&g).unwrap();
        let mut back: LabeledDigraph = serde_json::from_str(&json).unwrap();
        back.rebuild_adjacency();
        assert_eq!(back.node_count(), 4);
        assert_eq!(back.out_degree(ns[0]), 2);
        assert_eq!(back.edge_label_multiset(), g.edge_label_multiset());
    }

    #[test]
    fn annotations_survive_on_nodes_and_edges() {
        let mut g = LabeledDigraph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let e = g.add_edge(a, b);
        g.node_mut(a).annotations.insert("param".into(), "0.05".into());
        g.edge_mut(e).annotations.insert("data".into(), "seq.fasta".into());
        assert_eq!(g.node(a).annotations["param"], "0.05");
        assert_eq!(g.edge(e).annotations["data"], "seq.fasta");
    }

    #[test]
    fn find_labels() {
        let mut g = LabeledDigraph::new();
        g.add_node("x");
        g.add_node("y");
        g.add_node("x");
        assert_eq!(g.find_label("y"), Some(NodeId(1)));
        assert_eq!(g.find_all_labels("x").len(), 2);
        assert_eq!(g.find_label("zzz"), None);
    }
}
