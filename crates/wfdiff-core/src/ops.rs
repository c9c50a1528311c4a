//! Edit operations: elementary-path insertions and deletions.
//!
//! A path edit script (Section III-C.1) is a sequence of these operations.
//! Subtree edit operations on annotated SP-trees correspond one-to-one to path
//! operations (Lemma 4.6), so a single representation serves both views: each
//! operation records the elementary path it inserts or deletes (as a label
//! sequence), the tree leaves it covers, and its cost under the cost model
//! that produced the script.

use serde::{Deserialize, Serialize};
use wfdiff_graph::Label;
use wfdiff_sptree::TreeId;

/// Whether an operation inserts or deletes an elementary path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OpDirection {
    /// `Λ → p`: a path insertion.
    Insert,
    /// `p → Λ`: a path deletion.
    Delete,
}

impl OpDirection {
    /// The opposite direction.
    pub fn inverse(self) -> OpDirection {
        match self {
            OpDirection::Insert => OpDirection::Delete,
            OpDirection::Delete => OpDirection::Insert,
        }
    }
}

/// Where the edited path comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OpProvenance {
    /// The path exists in the source run `R1` (deletions of unmapped source
    /// material).
    SourceRun,
    /// The path exists in the target run `R2` (insertions of unmapped target
    /// material).
    TargetRun,
    /// A temporary path synthesised from the specification, inserted and later
    /// removed to keep intermediate runs valid (the unstable-pair dance of
    /// Section V-A).
    Synthesized,
}

/// A single elementary-path edit operation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PathOperation {
    /// Insertion or deletion.
    pub direction: OpDirection,
    /// The labels along the path, from `s(p)` to `t(p)` inclusive
    /// (`length + 1` entries).
    pub labels: Vec<Label>,
    /// The tree leaves (of the source or target run tree) covered by the path;
    /// empty for synthesised paths.
    pub leaves: Vec<TreeId>,
    /// Number of edges on the path.
    pub length: usize,
    /// Cost of the operation under the script's cost model.
    pub cost: f64,
    /// Which run the path belongs to.
    pub provenance: OpProvenance,
}

impl PathOperation {
    /// The label of the path's start node `s(p)`.
    #[expect(
        clippy::expect_used,
        reason = "elementary paths are built with >= 2 labels by the decomposition; empty paths are unconstructible"
    )]
    pub fn start_label(&self) -> &Label {
        self.labels.first().expect("paths have at least two labels")
    }

    /// The label of the path's end node `t(p)`.
    #[expect(
        clippy::expect_used,
        reason = "elementary paths are built with >= 2 labels by the decomposition; empty paths are unconstructible"
    )]
    pub fn end_label(&self) -> &Label {
        self.labels.last().expect("paths have at least two labels")
    }

    /// Returns the inverse operation (insertion ↔ deletion), used when turning
    /// a deletion script for `T2`-material into an insertion script.
    pub fn inverted(&self) -> PathOperation {
        PathOperation { direction: self.direction.inverse(), ..self.clone() }
    }

    /// One-line human-readable rendering, e.g.
    /// `- delete (2 -> 3 -> 6) [len 2, cost 1]`.
    pub fn describe(&self) -> String {
        let arrow =
            self.labels.iter().map(|l| l.as_str().to_string()).collect::<Vec<_>>().join(" -> ");
        let verb = match self.direction {
            OpDirection::Insert => "insert",
            OpDirection::Delete => "delete",
        };
        format!("{verb} ({arrow}) [len {}, cost {}]", self.length, self.cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op() -> PathOperation {
        PathOperation {
            direction: OpDirection::Delete,
            labels: vec![Label::new("2"), Label::new("3"), Label::new("6")],
            leaves: vec![TreeId(4), TreeId(5)],
            length: 2,
            cost: 1.0,
            provenance: OpProvenance::SourceRun,
        }
    }

    #[test]
    fn describe_renders_path() {
        let d = op().describe();
        assert!(d.contains("delete"));
        assert!(d.contains("2 -> 3 -> 6"));
        assert!(d.contains("len 2"));
    }

    #[test]
    fn inversion_flips_direction_only() {
        let o = op();
        let i = o.inverted();
        assert_eq!(i.direction, OpDirection::Insert);
        assert_eq!(i.labels, o.labels);
        assert_eq!(i.cost, o.cost);
        assert_eq!(i.inverted(), o);
    }

    #[test]
    fn terminal_labels() {
        let o = op();
        assert_eq!(o.start_label().as_str(), "2");
        assert_eq!(o.end_label().as_str(), "6");
    }

    #[test]
    fn serde_roundtrip() {
        let o = op();
        let json = serde_json::to_string(&o).unwrap();
        let back: PathOperation = serde_json::from_str(&json).unwrap();
        assert_eq!(back, o);
    }
}
