//! Node-labeled flow networks, series-parallel (SP) graphs and the graph-level
//! machinery needed to difference provenance of scientific-workflow runs.
//!
//! This crate is the bottom layer of the PDiffView reproduction of
//! *Differencing Provenance in Scientific Workflows* (Bao, Cohen-Boulakia,
//! Davidson, Eyal, Khanna; ICDE 2009).  It provides:
//!
//! * [`LabeledDigraph`] — a node-labeled directed multigraph with per-node and
//!   per-edge annotations (parameter settings / data identifiers),
//! * flow-network validation (single source, single sink, full path coverage,
//!   Definition 3.1 of the paper),
//! * the SP-graph algebra (basic / series / parallel composition,
//!   Definition 3.2) via [`SpGraph`],
//! * SP-graph **recognition and binary tree decomposition**
//!   ([`decompose::decompose`], the Valdes–Tarjan–Lawler reduction),
//! * run validity with respect to a specification — the label-preserving graph
//!   homomorphism of Section III-B ([`homomorphism`]),
//! * enumeration of **elementary paths** (Definition 3.4), the unit of the
//!   paper's edit operations,
//! * Graphviz/DOT rendering helpers used by the PDiffView prototype.
//!
//! Higher layers (annotated SP-trees, the differencing algorithms, the
//! prototype) live in the sibling crates `wfdiff-sptree`, `wfdiff-core` and
//! `wfdiff-pdiffview`.
//!
//! # Example
//!
//! Compose the SP-graph `s → {a ∥ b} → t` with the Definition 3.2 algebra
//! and decompose it back into its binary SP-tree:
//!
//! ```
//! use wfdiff_graph::decompose::decompose_sp;
//! use wfdiff_graph::{BinNode, SpGraph};
//!
//! let left = SpGraph::chain(&["s", "a", "t"]);
//! let right = SpGraph::chain(&["s", "b", "t"]);
//! let diamond = SpGraph::parallel(&left, &right).unwrap();
//!
//! let tree = decompose_sp(&diamond).unwrap();
//! assert_eq!(tree.leaves().len(), 4, "one leaf per edge");
//! assert!(matches!(tree.node(tree.root()), BinNode::Parallel(_, _)));
//! ```

#![deny(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(test, allow(clippy::todo, clippy::unreachable, clippy::unimplemented))]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod decompose;
pub mod digraph;
pub mod dot;
pub mod error;
pub mod flow;
pub mod homomorphism;
pub mod ids;
pub mod label;
pub mod paths;
pub mod spgraph;

pub use decompose::{decompose, BinNode, BinSpTree};
pub use digraph::{EdgeData, LabeledDigraph, NodeData};
pub use error::GraphError;
pub use flow::{validate_flow_network, FlowEndpoints};
pub use homomorphism::{validate_run_against_graph, EdgeImage, Homomorphism, SpecGraphIndex};
pub use ids::{EdgeId, NodeId};
pub use label::Label;
pub use paths::{elementary_paths, ElementaryPath};
pub use spgraph::SpGraph;

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, GraphError>;
