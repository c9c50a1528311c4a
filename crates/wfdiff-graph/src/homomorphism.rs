//! Run validity: the label-preserving homomorphism of Section III-B.
//!
//! A graph `R` is a valid run with respect to a specification `G` if `R` is an
//! acyclic flow network and there is a homomorphism `h : V(R) → V(G)` such
//! that labels are preserved, the run's source/sink map to the specification's
//! source/sink, and every run edge maps to a specification edge.
//!
//! Because specification labels are unique, `h` is fully determined by the
//! labels; checking validity therefore reduces to per-node and per-edge
//! lookups.  Specifications with loops are handled by passing the loop
//! back-edges (`t(H) → s(H)` for every loop subgraph `H`) as *additional*
//! allowed edges: the run may traverse them even though they are not part of
//! the series-parallel skeleton.

use crate::digraph::LabeledDigraph;
use crate::error::GraphError;
use crate::flow::validate_acyclic_flow_network;
use crate::ids::{EdgeId, NodeId};
use crate::label::Label;
use crate::Result;
use std::collections::HashMap;

/// The (label-determined) homomorphism from a run to its specification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Homomorphism {
    /// `map[i]` is the specification node that run node `i` maps to.
    pub map: Vec<NodeId>,
    /// `edges[e]` is what run edge `e` maps to.
    pub edges: Vec<EdgeImage>,
    /// The run's source node.
    pub run_source: NodeId,
    /// The run's sink node.
    pub run_sink: NodeId,
}

impl Homomorphism {
    /// Returns the specification node that `run_node` maps to.
    pub fn image(&self, run_node: NodeId) -> NodeId {
        self.map[run_node.index()]
    }
}

/// What a run edge maps to in its specification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeImage {
    /// A specification edge.  When parallel specification edges join the
    /// same node pair, the one with the highest id.
    Spec(EdgeId),
    /// The extra edge at this index of the list given to
    /// [`SpecGraphIndex::new`] (an implicit loop back-edge).
    Extra(usize),
}

/// The lookups that validating a run against one specification graph makes:
/// the label index and the image of every allowed node pair.  Build it once
/// per specification and validate every run against it.
#[derive(Debug, Clone)]
pub struct SpecGraphIndex {
    labels: HashMap<Label, NodeId>,
    images: HashMap<(NodeId, NodeId), EdgeImage>,
    source: NodeId,
    sink: NodeId,
}

impl SpecGraphIndex {
    /// Indexes the specification graph `(spec, source, sink)`.
    ///
    /// `extra_edges` lists label pairs that are allowed in runs in addition
    /// to the specification's own edges (the implicit loop back-edges of
    /// Section VI); a pair that is also a specification edge maps to the
    /// specification edge.  Fails when two specification nodes share a
    /// label.
    pub fn new(
        spec: &LabeledDigraph,
        source: NodeId,
        sink: NodeId,
        extra_edges: &[(Label, Label)],
    ) -> Result<Self> {
        let labels = spec.unique_label_index()?;
        let mut images = HashMap::with_capacity(spec.edge_count() + extra_edges.len());
        for (i, (from, to)) in extra_edges.iter().enumerate() {
            if let (Some(&u), Some(&v)) = (labels.get(from), labels.get(to)) {
                images.insert((u, v), EdgeImage::Extra(i));
            }
        }
        for (id, e) in spec.edges() {
            images.insert((e.src, e.dst), EdgeImage::Spec(id));
        }
        Ok(SpecGraphIndex { labels, images, source, sink })
    }

    /// The specification node carrying `label`.
    pub fn node(&self, label: &str) -> Option<NodeId> {
        self.labels.get(label).copied()
    }
}

/// Validates that `run` is a valid run of the specification graph `spec`
/// indexes, and maps every run node and edge into it.
pub fn validate_run_against_graph(
    spec: &SpecGraphIndex,
    run: &LabeledDigraph,
) -> Result<Homomorphism> {
    let endpoints = validate_acyclic_flow_network(run)?;

    // Map every run node to its specification node by label.
    let mut map = Vec::with_capacity(run.node_count());
    for (_, data) in run.nodes() {
        match spec.labels.get(&data.label) {
            Some(&spec_node) => map.push(spec_node),
            None => return Err(GraphError::RunLabelNotInSpec(data.label.clone())),
        }
    }

    // Terminals must map to terminals.
    if map[endpoints.source.index()] != spec.source {
        return Err(GraphError::TerminalMismatch { terminal: "source" });
    }
    if map[endpoints.sink.index()] != spec.sink {
        return Err(GraphError::TerminalMismatch { terminal: "sink" });
    }

    // Every run edge must map to a spec edge or an allowed extra edge.
    let mut edges = Vec::with_capacity(run.edge_count());
    for (_, e) in run.edges() {
        match spec.images.get(&(map[e.src.index()], map[e.dst.index()])) {
            Some(&image) => edges.push(image),
            None => {
                return Err(GraphError::RunEdgeNotInSpec {
                    from: run.label(e.src).clone(),
                    to: run.label(e.dst).clone(),
                })
            }
        }
    }

    Ok(Homomorphism { map, edges, run_source: endpoints.source, run_sink: endpoints.sink })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spgraph::SpGraph;

    fn index(spec: &SpGraph, extra: &[(Label, Label)]) -> SpecGraphIndex {
        SpecGraphIndex::new(spec.graph(), spec.source(), spec.sink(), extra).unwrap()
    }

    fn fig2_spec() -> SpGraph {
        let b12 = SpGraph::basic("1", "2");
        let b236 = SpGraph::chain(&["2", "3", "6"]);
        let b246 = SpGraph::chain(&["2", "4", "6"]);
        let b256 = SpGraph::chain(&["2", "5", "6"]);
        let mid = SpGraph::parallel(&SpGraph::parallel(&b236, &b246).unwrap(), &b256).unwrap();
        let b67 = SpGraph::basic("6", "7");
        SpGraph::series(&SpGraph::series(&b12, &mid).unwrap(), &b67).unwrap()
    }

    /// Run R1 of Figure 2(b): nodes 1a 2a 3a 3b 4a 6a 7a.
    fn fig2_run1() -> LabeledDigraph {
        let mut r = LabeledDigraph::new();
        let n1 = r.add_node("1");
        let n2 = r.add_node("2");
        let n3a = r.add_node("3");
        let n3b = r.add_node("3");
        let n4 = r.add_node("4");
        let n6 = r.add_node("6");
        let n7 = r.add_node("7");
        r.add_edge(n1, n2);
        r.add_edge(n2, n3a);
        r.add_edge(n2, n3b);
        r.add_edge(n2, n4);
        r.add_edge(n3a, n6);
        r.add_edge(n3b, n6);
        r.add_edge(n4, n6);
        r.add_edge(n6, n7);
        r
    }

    #[test]
    fn valid_run_accepted() {
        let spec = fig2_spec();
        let run = fig2_run1();
        let h = validate_run_against_graph(&index(&spec, &[]), &run).unwrap();
        assert_eq!(h.map.len(), run.node_count());
        // Both copies of module 3 map to the same spec node.
        let threes = run.find_all_labels("3");
        assert_eq!(h.image(threes[0]), h.image(threes[1]));
    }

    #[test]
    fn unknown_label_rejected() {
        let spec = fig2_spec();
        let mut run = fig2_run1();
        let extra = run.add_node("99");
        let sink = run.find_label("7").unwrap();
        let src = run.find_label("1").unwrap();
        run.add_edge(src, extra);
        run.add_edge(extra, sink);
        let err = validate_run_against_graph(&index(&spec, &[]), &run).unwrap_err();
        assert!(matches!(err, GraphError::RunLabelNotInSpec(_)));
    }

    #[test]
    fn edge_not_in_spec_rejected() {
        let spec = fig2_spec();
        let mut run = fig2_run1();
        // Add an edge 3 -> 4 which the specification does not allow.
        let n3 = run.find_label("3").unwrap();
        let n4 = run.find_label("4").unwrap();
        run.add_edge(n3, n4);
        let err = validate_run_against_graph(&index(&spec, &[]), &run).unwrap_err();
        assert!(matches!(err, GraphError::RunEdgeNotInSpec { .. }));
    }

    #[test]
    fn loop_back_edge_allowed_via_extra_edges() {
        let spec = fig2_spec();
        // Run R3 of Fig 2(d): two loop iterations joined by the implicit edge 6 -> 2.
        let mut r = LabeledDigraph::new();
        let n1 = r.add_node("1");
        let n2a = r.add_node("2");
        let n3a = r.add_node("3");
        let n4a = r.add_node("4");
        let n4b = r.add_node("4");
        let n6a = r.add_node("6");
        let n2b = r.add_node("2");
        let n4c = r.add_node("4");
        let n5a = r.add_node("5");
        let n6b = r.add_node("6");
        let n7 = r.add_node("7");
        r.add_edge(n1, n2a);
        r.add_edge(n2a, n3a);
        r.add_edge(n2a, n4a);
        r.add_edge(n2a, n4b);
        r.add_edge(n3a, n6a);
        r.add_edge(n4a, n6a);
        r.add_edge(n4b, n6a);
        r.add_edge(n6a, n2b); // implicit loop edge
        r.add_edge(n2b, n4c);
        r.add_edge(n2b, n5a);
        r.add_edge(n4c, n6b);
        r.add_edge(n5a, n6b);
        r.add_edge(n6b, n7);

        // Without the loop edge the run is invalid.
        assert!(validate_run_against_graph(&index(&spec, &[]), &r).is_err());
        let extra = [(Label::new("6"), Label::new("2"))];
        let h = validate_run_against_graph(&index(&spec, &extra), &r).unwrap();
        assert_eq!(h.edges.iter().filter(|&&e| e == EdgeImage::Extra(0)).count(), 1);
    }

    #[test]
    fn terminal_mismatch_rejected() {
        let spec = fig2_spec();
        // A "run" that starts at module 2 instead of module 1.
        let mut r = LabeledDigraph::new();
        let n2 = r.add_node("2");
        let n3 = r.add_node("3");
        let n6 = r.add_node("6");
        let n7 = r.add_node("7");
        r.add_edge(n2, n3);
        r.add_edge(n3, n6);
        r.add_edge(n6, n7);
        let err = validate_run_against_graph(&index(&spec, &[]), &r).unwrap_err();
        assert_eq!(err, GraphError::TerminalMismatch { terminal: "source" });
    }

    #[test]
    fn cyclic_run_rejected() {
        let spec = fig2_spec();
        let mut r = fig2_run1();
        let n6 = r.find_label("6").unwrap();
        let n2 = r.find_label("2").unwrap();
        let n3 = r.find_label("3").unwrap();
        // Create a cycle 2 -> 3 -> 6 -> 2 (6->2 not allowed anyway, but the
        // acyclicity check fires first).
        r.add_edge(n6, n2);
        let _ = n3;
        let err = validate_run_against_graph(&index(&spec, &[]), &r).unwrap_err();
        assert_eq!(err, GraphError::CyclicGraph);
    }
}
