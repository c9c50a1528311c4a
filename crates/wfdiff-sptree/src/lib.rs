//! Annotated SP-trees for SP-workflow specifications and runs.
//!
//! This crate implements Sections III-D, IV and VI of *Differencing Provenance
//! in Scientific Workflows* (Bao et al.):
//!
//! * the **SP-workflow model**: an SP-specification graph overlaid with a
//!   laminar family of fork (`F`) and loop (`L`) subgraphs
//!   ([`Specification`], [`laminar`]),
//! * the **canonical SP-tree** of an SP-graph ([`canonical`]),
//! * **Algorithm 1** — the annotated SP-tree of a specification
//!   ([`Specification::new`]),
//! * **Algorithms 2 and 5** — the annotated SP-tree of a valid run, i.e. the
//!   deterministic replay `f''` of the execution that produced the run
//!   ([`Specification::validate_run`]),
//! * the **execution function** `f` / `f'` used to generate valid runs from a
//!   specification ([`execution`]),
//! * materialisation of run graphs from annotated SP-trees, including the
//!   implicit loop back-edges ([`materialize`]),
//! * the **branch-free achievable-length** DP used by the cost machinery of
//!   `wfdiff-core` ([`lengths`]).
//!
//! The edit-distance algorithms themselves (Algorithms 3, 4 and 6) live in the
//! `wfdiff-core` crate, which consumes the [`AnnotatedTree`]s produced here.
//!
//! # Example
//!
//! Build a two-branch specification and execute it into a valid run:
//!
//! ```
//! use wfdiff_sptree::{FullDecider, SpecificationBuilder};
//!
//! let mut builder = SpecificationBuilder::new("demo");
//! builder.path(&["in", "analyse", "out"]);
//! builder.path(&["in", "filter", "out"]);
//! let spec = builder.build().unwrap();
//!
//! // The full decider takes every parallel branch once (the `f` of
//! // Section IV with all-true decisions).
//! let run = spec.execute(&mut FullDecider).unwrap();
//! assert_eq!(run.spec_name(), "demo");
//! // Runs remember the exact specification version they were validated
//! // against.
//! assert_eq!(run.spec_fingerprint(), spec.fingerprint());
//! ```

#![deny(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(test, allow(clippy::todo, clippy::unreachable, clippy::unimplemented))]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod canonical;
pub mod error;
pub mod execution;
pub mod fingerprint;
mod keyset;
pub mod laminar;
pub mod lengths;
pub mod materialize;
pub mod node;
pub mod run;
pub mod spec;
pub mod tree;

pub use error::SpTreeError;
pub use execution::{ExecutionDecider, FullDecider, MinimalDecider};
pub use fingerprint::{Fingerprint, TreeFingerprints};
pub use node::{NodeType, TreeId, TreeNode};
pub use run::Run;
pub use spec::{ControlKind, ControlSubgraph, Specification, SpecificationBuilder};
pub use tree::AnnotatedTree;

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, SpTreeError>;
