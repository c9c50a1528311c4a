//! The series-parallel graph algebra (Definition 3.2).
//!
//! An SP-graph is built from *basic* SP-graphs (a single edge) by repeated
//! *series* and *parallel* composition.  [`SpGraph`] owns a
//! [`LabeledDigraph`] together with its two terminals and offers the three
//! constructors `basic`, `series` and `parallel` that mirror the paper's `S`
//! and `P` functions.
//!
//! Composition merges terminal nodes:
//! * `series(G1, G2)` identifies `t(G1)` with `s(G2)`;
//! * `parallel(G1, G2)` identifies the two sources and the two sinks.
//!
//! When workflow **specifications** are built this way the labels at the
//! identified nodes must agree — this is checked and reported as an error
//! rather than silently picking one of the two labels.

use crate::digraph::{EdgeData, LabeledDigraph, NodeData};
use crate::error::GraphError;
use crate::flow::validate_flow_network;
use crate::ids::NodeId;
use crate::label::Label;
use crate::Result;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// An SP-graph: a labeled directed multigraph with distinguished terminals,
/// known (by construction or by successful decomposition) to be
/// series-parallel.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpGraph {
    graph: LabeledDigraph,
    source: NodeId,
    sink: NodeId,
}

impl SpGraph {
    /// Creates a *basic* SP-graph: a single edge from a node labeled
    /// `src_label` to a node labeled `dst_label`.
    pub fn basic(src_label: impl Into<Label>, dst_label: impl Into<Label>) -> Self {
        let mut graph = LabeledDigraph::new();
        let s = graph.add_node(src_label);
        let t = graph.add_node(dst_label);
        graph.add_edge(s, t);
        SpGraph { graph, source: s, sink: t }
    }

    /// Series composition `S(G1, G2)`: identifies the sink of `g1` with the
    /// source of `g2`.  The labels at the junction must match.
    pub fn series(g1: &SpGraph, g2: &SpGraph) -> Result<SpGraph> {
        let left_sink = g1.graph.label(g1.sink).clone();
        let right_source = g2.graph.label(g2.source).clone();
        if left_sink != right_source {
            return Err(GraphError::SeriesLabelMismatch { left_sink, right_source });
        }
        let mut graph = LabeledDigraph::with_capacity(
            g1.graph.node_count() + g2.graph.node_count() - 1,
            g1.graph.edge_count() + g2.graph.edge_count(),
        );
        // Copy g1 verbatim.
        let map1: Vec<NodeId> =
            g1.graph.nodes().map(|(_, n)| graph.add_node_data(n.clone())).collect();
        for (_, e) in g1.graph.edges() {
            graph.add_edge_data(EdgeData {
                src: map1[e.src.index()],
                dst: map1[e.dst.index()],
                annotations: e.annotations.clone(),
            });
        }
        // Copy g2, redirecting its source onto g1's sink.
        let junction = map1[g1.sink.index()];
        let map2: Vec<NodeId> = g2
            .graph
            .nodes()
            .map(|(id, n)| if id == g2.source { junction } else { graph.add_node_data(n.clone()) })
            .collect();
        for (_, e) in g2.graph.edges() {
            graph.add_edge_data(EdgeData {
                src: map2[e.src.index()],
                dst: map2[e.dst.index()],
                annotations: e.annotations.clone(),
            });
        }
        Ok(SpGraph { graph, source: map1[g1.source.index()], sink: map2[g2.sink.index()] })
    }

    /// Parallel composition `P(G1, G2)`: identifies the two sources and the two
    /// sinks.  The labels at both terminals must match.
    pub fn parallel(g1: &SpGraph, g2: &SpGraph) -> Result<SpGraph> {
        let (ls, rs) = (g1.graph.label(g1.source).clone(), g2.graph.label(g2.source).clone());
        if ls != rs {
            return Err(GraphError::ParallelLabelMismatch {
                terminal: "source",
                left: ls,
                right: rs,
            });
        }
        let (lt, rt) = (g1.graph.label(g1.sink).clone(), g2.graph.label(g2.sink).clone());
        if lt != rt {
            return Err(GraphError::ParallelLabelMismatch {
                terminal: "sink",
                left: lt,
                right: rt,
            });
        }
        let mut graph = LabeledDigraph::with_capacity(
            g1.graph.node_count() + g2.graph.node_count() - 2,
            g1.graph.edge_count() + g2.graph.edge_count(),
        );
        let map1: Vec<NodeId> =
            g1.graph.nodes().map(|(_, n)| graph.add_node_data(n.clone())).collect();
        for (_, e) in g1.graph.edges() {
            graph.add_edge_data(EdgeData {
                src: map1[e.src.index()],
                dst: map1[e.dst.index()],
                annotations: e.annotations.clone(),
            });
        }
        let source = map1[g1.source.index()];
        let sink = map1[g1.sink.index()];
        let map2: Vec<NodeId> = g2
            .graph
            .nodes()
            .map(|(id, n)| {
                if id == g2.source {
                    source
                } else if id == g2.sink {
                    sink
                } else {
                    graph.add_node_data(n.clone())
                }
            })
            .collect();
        for (_, e) in g2.graph.edges() {
            graph.add_edge_data(EdgeData {
                src: map2[e.src.index()],
                dst: map2[e.dst.index()],
                annotations: e.annotations.clone(),
            });
        }
        Ok(SpGraph { graph, source, sink })
    }

    /// Promotes an arbitrary flow network to an [`SpGraph`] **without**
    /// checking series-parallelness.  Callers that need the guarantee should
    /// run [`crate::decompose::decompose`] afterwards (the annotated-SP-tree
    /// construction does exactly that and will surface the error).
    pub fn from_parts_unchecked(graph: LabeledDigraph, source: NodeId, sink: NodeId) -> Self {
        SpGraph { graph, source, sink }
    }

    /// Promotes a flow network to an [`SpGraph`] after validating its
    /// terminals (single source, single sink, full path coverage).
    pub fn from_flow_network(graph: LabeledDigraph) -> Result<Self> {
        let ep = validate_flow_network(&graph)?;
        Ok(SpGraph { graph, source: ep.source, sink: ep.sink })
    }

    /// The underlying graph.
    pub fn graph(&self) -> &LabeledDigraph {
        &self.graph
    }

    /// Mutable access to the underlying graph (used to attach annotations).
    pub fn graph_mut(&mut self) -> &mut LabeledDigraph {
        &mut self.graph
    }

    /// The source terminal `s(G)`.
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// The sink terminal `t(G)`.
    pub fn sink(&self) -> NodeId {
        self.sink
    }

    /// Label of the source terminal.
    pub fn source_label(&self) -> &Label {
        self.graph.label(self.source)
    }

    /// Label of the sink terminal.
    pub fn sink_label(&self) -> &Label {
        self.graph.label(self.sink)
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.graph.edge_count()
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    /// Consumes the SP-graph and returns its parts.
    pub fn into_parts(self) -> (LabeledDigraph, NodeId, NodeId) {
        (self.graph, self.source, self.sink)
    }

    /// Builds a chain `l0 -> l1 -> ... -> lk` as an SP-graph.
    ///
    /// # Panics
    /// Panics if fewer than two labels are supplied.
    #[expect(
        clippy::expect_used,
        reason = "a length assertion two lines above guarantees the last element exists"
    )]
    pub fn chain<L: Into<Label> + Clone>(labels: &[L]) -> SpGraph {
        assert!(labels.len() >= 2, "a chain needs at least two labels");
        let mut graph = LabeledDigraph::new();
        let ids: Vec<NodeId> = labels.iter().map(|l| graph.add_node(l.clone().into())).collect();
        for w in ids.windows(2) {
            graph.add_edge(w[0], w[1]);
        }
        let sink = *ids.last().expect("chain length asserted above");
        SpGraph { graph, source: ids[0], sink }
    }

    /// Builds the "fan" SP-graph used by Figure 17(b): `paths` parallel paths
    /// from a node labeled `src` to a node labeled `dst`, where the `i`-th path
    /// (1-based) has `lengths[i-1]` edges routed through fresh internal nodes
    /// labeled `"{prefix}{i}_{j}"`.
    pub fn fan(
        src: impl Into<Label>,
        dst: impl Into<Label>,
        lengths: &[usize],
        prefix: &str,
    ) -> SpGraph {
        let mut graph = LabeledDigraph::new();
        let s = graph.add_node(src);
        let t = graph.add_node(dst);
        for (i, &len) in lengths.iter().enumerate() {
            assert!(len >= 1, "path length must be at least one edge");
            let mut prev = s;
            for j in 1..len {
                let mid = graph.add_node(format!("{prefix}{}_{}", i + 1, j));
                graph.add_edge(prev, mid);
                prev = mid;
            }
            graph.add_edge(prev, t);
        }
        SpGraph { graph, source: s, sink: t }
    }

    /// Returns the multiset of edge label pairs, a structural fingerprint used
    /// in tests.
    pub fn edge_label_multiset(&self) -> BTreeMap<(Label, Label), usize> {
        self.graph.edge_label_multiset()
    }
}

/// Convenience free function mirroring the paper's `S(G1, G2)` notation.
pub fn series(g1: &SpGraph, g2: &SpGraph) -> Result<SpGraph> {
    SpGraph::series(g1, g2)
}

/// Convenience free function mirroring the paper's `P(G1, G2)` notation.
pub fn parallel(g1: &SpGraph, g2: &SpGraph) -> Result<SpGraph> {
    SpGraph::parallel(g1, g2)
}

/// Builds a node-data payload with annotations, useful for workload builders.
pub fn annotated_node(label: impl Into<Label>, pairs: &[(&str, &str)]) -> NodeData {
    let mut data = NodeData::new(label);
    for (k, v) in pairs {
        data.annotations.insert((*k).to_string(), (*v).to_string());
    }
    data
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::validate_flow_network;

    /// The specification graph of Figure 2(a): 1 -> 2 -> {3,4,5} -> 6 -> 7.
    pub fn fig2_spec() -> SpGraph {
        let b12 = SpGraph::basic("1", "2");
        let b236 = SpGraph::chain(&["2", "3", "6"]);
        let b246 = SpGraph::chain(&["2", "4", "6"]);
        let b256 = SpGraph::chain(&["2", "5", "6"]);
        let mid = SpGraph::parallel(&SpGraph::parallel(&b236, &b246).unwrap(), &b256).unwrap();
        let b67 = SpGraph::basic("6", "7");
        SpGraph::series(&SpGraph::series(&b12, &mid).unwrap(), &b67).unwrap()
    }

    #[test]
    fn basic_graph_has_one_edge() {
        let g = SpGraph::basic("s", "t");
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.source_label().as_str(), "s");
        assert_eq!(g.sink_label().as_str(), "t");
    }

    #[test]
    fn series_merges_junction() {
        let a = SpGraph::basic("1", "2");
        let b = SpGraph::basic("2", "3");
        let g = SpGraph::series(&a, &b).unwrap();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2);
        assert!(validate_flow_network(g.graph()).is_ok());
    }

    #[test]
    fn series_rejects_label_mismatch() {
        let a = SpGraph::basic("1", "2");
        let b = SpGraph::basic("9", "3");
        assert!(matches!(SpGraph::series(&a, &b), Err(GraphError::SeriesLabelMismatch { .. })));
    }

    #[test]
    fn parallel_merges_terminals() {
        let a = SpGraph::chain(&["2", "3", "6"]);
        let b = SpGraph::chain(&["2", "4", "6"]);
        let g = SpGraph::parallel(&a, &b).unwrap();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.graph().out_degree(g.source()), 2);
        assert_eq!(g.graph().in_degree(g.sink()), 2);
    }

    #[test]
    fn parallel_rejects_terminal_mismatch() {
        let a = SpGraph::basic("1", "2");
        let b = SpGraph::basic("1", "3");
        assert!(matches!(
            SpGraph::parallel(&a, &b),
            Err(GraphError::ParallelLabelMismatch { terminal: "sink", .. })
        ));
    }

    #[test]
    fn fig2_specification_statistics() {
        let g = fig2_spec();
        assert_eq!(g.node_count(), 7);
        assert_eq!(g.edge_count(), 8);
        assert!(validate_flow_network(g.graph()).is_ok());
        assert_eq!(g.source_label().as_str(), "1");
        assert_eq!(g.sink_label().as_str(), "7");
    }

    #[test]
    fn parallel_composition_of_basics_yields_multigraph() {
        let a = SpGraph::basic("u", "v");
        let b = SpGraph::basic("u", "v");
        let g = SpGraph::parallel(&a, &b).unwrap();
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn chain_builder() {
        let g = SpGraph::chain(&["a", "b", "c", "d"]);
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.graph().longest_path_len(g.source(), g.sink()).unwrap(), 3);
    }

    #[test]
    fn fan_builder_matches_fig17_shape() {
        // 10 parallel paths, path i has length i^2.
        let lengths: Vec<usize> = (1..=10).map(|i| i * i).collect();
        let g = SpGraph::fan("u", "v", &lengths, "p");
        let expected_edges: usize = lengths.iter().sum();
        assert_eq!(g.edge_count(), expected_edges);
        assert_eq!(g.graph().out_degree(g.source()), 10);
        assert_eq!(g.graph().in_degree(g.sink()), 10);
        assert!(validate_flow_network(g.graph()).is_ok());
    }

    #[test]
    fn from_flow_network_validates() {
        let mut g = LabeledDigraph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        g.add_edge(a, b);
        assert!(SpGraph::from_flow_network(g).is_ok());
        let empty = LabeledDigraph::new();
        assert!(SpGraph::from_flow_network(empty).is_err());
    }

    #[test]
    fn annotated_node_helper() {
        let data = annotated_node("Blast", &[("db", "SwissProt"), ("evalue", "1e-5")]);
        assert_eq!(data.annotations.len(), 2);
        assert_eq!(data.annotations["db"], "SwissProt");
    }
}
