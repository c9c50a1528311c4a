//! Error type shared by all graph-level operations.

use crate::ids::NodeId;
use crate::label::Label;
use std::fmt;

/// Errors raised while building or validating workflow graphs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// A label was looked up that is not present in the graph/specification.
    UnknownLabel(Label),
    /// The graph has no node with in-degree zero reachable as a single source,
    /// or has more than one candidate source.
    NotSingleSource {
        /// Number of candidate source nodes found.
        candidates: usize,
    },
    /// The graph has no unique sink node.
    NotSingleSink {
        /// Number of candidate sink nodes found.
        candidates: usize,
    },
    /// Some node does not lie on any source-to-sink path (Definition 3.1).
    NodeNotOnSourceSinkPath(NodeId),
    /// The graph contains a directed cycle where an acyclic graph was required.
    CyclicGraph,
    /// The graph is not series-parallel: the reduction got stuck with the given
    /// number of remaining edges.
    NotSeriesParallel {
        /// Edges remaining when the series/parallel reduction got stuck.
        remaining_edges: usize,
    },
    /// A specification requires unique node labels but a duplicate was found.
    DuplicateSpecLabel(Label),
    /// Series composition requires the sink label of the first operand to equal
    /// the source label of the second operand.
    SeriesLabelMismatch {
        /// Sink label of the left operand.
        left_sink: Label,
        /// Source label of the right operand.
        right_source: Label,
    },
    /// Parallel composition requires both operands to share source and sink labels.
    ParallelLabelMismatch {
        /// Description of the terminal that mismatched (`"source"` or `"sink"`).
        terminal: &'static str,
        /// Label on the left operand.
        left: Label,
        /// Label on the right operand.
        right: Label,
    },
    /// A run node carries a label that does not exist in the specification.
    RunLabelNotInSpec(Label),
    /// A run edge maps to a pair of specification nodes that are not connected
    /// by a specification edge (nor by an allowed loop back-edge).
    RunEdgeNotInSpec {
        /// Label of the edge source in the run.
        from: Label,
        /// Label of the edge target in the run.
        to: Label,
    },
    /// The run's source/sink does not map to the specification's source/sink.
    TerminalMismatch {
        /// Which terminal failed (`"source"` or `"sink"`).
        terminal: &'static str,
    },
    /// An empty graph was supplied where a non-empty one is required.
    EmptyGraph,
    /// A fork/loop subgraph handed to a specification is not valid
    /// (not a series subgraph / complete subgraph, or not well nested).
    InvalidControlSubgraph(String),
    /// Generic invariant violation with a human-readable message.
    Invariant(String),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::UnknownLabel(l) => write!(f, "unknown label {l:?}", l = l.as_str()),
            GraphError::NotSingleSource { candidates } => {
                write!(f, "graph does not have a unique source ({candidates} candidates)")
            }
            GraphError::NotSingleSink { candidates } => {
                write!(f, "graph does not have a unique sink ({candidates} candidates)")
            }
            GraphError::NodeNotOnSourceSinkPath(id) => {
                write!(f, "node {id} does not lie on any source-to-sink path")
            }
            GraphError::CyclicGraph => write!(f, "graph contains a directed cycle"),
            GraphError::NotSeriesParallel { remaining_edges } => write!(
                f,
                "graph is not series-parallel (reduction stuck with {remaining_edges} edges)"
            ),
            GraphError::DuplicateSpecLabel(l) => {
                write!(f, "specification labels must be unique; duplicate {:?}", l.as_str())
            }
            GraphError::SeriesLabelMismatch { left_sink, right_source } => write!(
                f,
                "series composition requires matching junction labels (left sink {:?}, right source {:?})",
                left_sink.as_str(),
                right_source.as_str()
            ),
            GraphError::ParallelLabelMismatch { terminal, left, right } => write!(
                f,
                "parallel composition requires matching {terminal} labels ({:?} vs {:?})",
                left.as_str(),
                right.as_str()
            ),
            GraphError::RunLabelNotInSpec(l) => {
                write!(f, "run node label {:?} does not appear in the specification", l.as_str())
            }
            GraphError::RunEdgeNotInSpec { from, to } => write!(
                f,
                "run edge {:?} -> {:?} has no corresponding specification edge",
                from.as_str(),
                to.as_str()
            ),
            GraphError::TerminalMismatch { terminal } => {
                write!(f, "run {terminal} does not map to the specification {terminal}")
            }
            GraphError::EmptyGraph => write!(f, "graph is empty"),
            GraphError::InvalidControlSubgraph(msg) => {
                write!(f, "invalid fork/loop subgraph: {msg}")
            }
            GraphError::Invariant(msg) => write!(f, "invariant violation: {msg}"),
        }
    }
}

impl std::error::Error for GraphError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_human_readable_messages() {
        let e = GraphError::NotSingleSource { candidates: 3 };
        assert!(e.to_string().contains("unique source"));
        let e = GraphError::SeriesLabelMismatch {
            left_sink: Label::new("a"),
            right_source: Label::new("b"),
        };
        assert!(e.to_string().contains("series composition"));
        let e = GraphError::RunEdgeNotInSpec { from: Label::new("x"), to: Label::new("y") };
        assert!(e.to_string().contains("x"));
        assert!(e.to_string().contains("y"));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error>() {}
        assert_err::<GraphError>();
    }
}
