//! Strongly-typed identifiers for graph nodes and edges.
//!
//! Using newtypes (rather than bare `usize`) prevents accidentally indexing a
//! node table with an edge id and vice versa, a class of bug that is easy to
//! introduce in the reduction-heavy SP-decomposition code.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a node inside a [`crate::LabeledDigraph`].
///
/// Node ids are dense indices assigned in insertion order; they are stable for
/// the lifetime of the graph (nodes are never removed from the underlying
/// arena, only detached).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub u32);

/// Identifier of an edge inside a [`crate::LabeledDigraph`].
///
/// Edge ids are dense indices assigned in insertion order.  Because the graphs
/// are multigraphs, two distinct edges may connect the same pair of nodes and
/// still carry distinct ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct EdgeId(pub u32);

impl NodeId {
    /// Returns the id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl EdgeId {
    /// Returns the id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<usize> for NodeId {
    #[expect(
        clippy::expect_used,
        reason = "ids are u32 by design; over 4 billion nodes is out of scope and an immediate abort beats silent truncation"
    )]
    fn from(value: usize) -> Self {
        NodeId(u32::try_from(value).expect("node id overflow"))
    }
}

impl From<usize> for EdgeId {
    #[expect(
        clippy::expect_used,
        reason = "ids are u32 by design; over 4 billion edges is out of scope and an immediate abort beats silent truncation"
    )]
    fn from(value: usize) -> Self {
        EdgeId(u32::try_from(value).expect("edge id overflow"))
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_roundtrip() {
        let id = NodeId::from(42usize);
        assert_eq!(id.index(), 42);
        assert_eq!(id.to_string(), "n42");
    }

    #[test]
    fn edge_id_roundtrip() {
        let id = EdgeId::from(7usize);
        assert_eq!(id.index(), 7);
        assert_eq!(id.to_string(), "e7");
    }

    #[test]
    fn ids_are_ordered_by_index() {
        assert!(NodeId(1) < NodeId(2));
        assert!(EdgeId(0) < EdgeId(9));
    }

    #[test]
    fn ids_serialize_as_plain_integers() {
        let json = serde_json::to_string(&NodeId(5)).unwrap();
        assert_eq!(json, "5");
        let back: NodeId = serde_json::from_str(&json).unwrap();
        assert_eq!(back, NodeId(5));
    }
}
