//! Edit distance and minimum-cost edit scripts between runs of an SP-workflow
//! specification.
//!
//! This crate is the algorithmic core of the PDiffView reproduction of
//! *Differencing Provenance in Scientific Workflows* (Bao et al., ICDE 2009):
//!
//! * [`cost`] — the cost model `γ(l, A, B)` (unit, length, power `l^ε`,
//!   label-weighted) and its metric axioms,
//! * [`bounds`] — triangle-inequality distance bounds, the certificates the
//!   metric index prunes with,
//! * [`deletion`] — **Algorithm 3**: minimum-cost subtree deletion/insertion,
//! * [`surcharge`] — the `W_TG` unstable-pair surcharge and witness paths,
//! * [`mapping`] — well-formed mappings (Definition 5.1) with an independent
//!   cost evaluator,
//! * [`distance`] — **Algorithms 4 and 6**: the edit distance via minimum-cost
//!   well-formed mappings (Hungarian matching at `F` nodes, non-crossing
//!   matching at `L` nodes),
//! * [`script`] — materialising minimum-cost edit scripts (sequences of
//!   elementary-path insertions and deletions, Lemma 5.1),
//! * [`prefix`] — certified lower bounds on the distance of a *streaming*
//!   run (known only as an event prefix) to any reference run, monotone as
//!   events arrive,
//! * [`naive`] — the naive node/edge set-difference baseline that works for
//!   plain dataflows but breaks down once modules repeat,
//! * [`exhaustive`] — an exponential-time reference implementation
//!   (enumerates well-formed mappings, Theorem 3) used as a test oracle,
//! * [`hardness`] — the Theorem 1 reduction from *balanced bipartite clique*
//!   showing the general problem is NP-hard.
//!
//! # Example
//!
//! Difference two runs of a two-branch specification:
//!
//! ```
//! use wfdiff_core::{UnitCost, WorkflowDiff};
//! use wfdiff_sptree::{FullDecider, MinimalDecider, SpecificationBuilder};
//!
//! let mut builder = SpecificationBuilder::new("demo");
//! builder.path(&["in", "analyse", "out"]);
//! builder.path(&["in", "filter", "out"]);
//! let spec = builder.build().unwrap();
//!
//! // One run takes both branches, the other only the first.
//! let full = spec.execute(&mut FullDecider).unwrap();
//! let minimal = spec.execute(&mut MinimalDecider).unwrap();
//!
//! let engine = WorkflowDiff::new(&spec, &UnitCost);
//! let result = engine.diff(&full, &minimal).unwrap();
//! assert!(result.distance > 0.0, "the runs genuinely differ");
//! // The edit distance is symmetric (it is a metric).
//! assert_eq!(result.distance, engine.distance(&minimal, &full).unwrap());
//! ```

#![deny(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(test, allow(clippy::todo, clippy::unreachable, clippy::unimplemented))]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod bounds;
pub mod cache;
pub mod cost;
pub mod deletion;
pub mod distance;
pub mod error;
pub mod exhaustive;
pub mod hardness;
pub mod mapping;
pub mod naive;
pub mod ops;
pub mod prefix;
pub mod script;
pub mod surcharge;

pub use bounds::triangle_lower_bound;
pub use cache::{CacheStats, DeletionKey, DiffCache, PairKey, ShardedDiffCache};
pub use cost::{check_metric_axioms, CostModel, LengthCost, PowerCost, UnitCost};
pub use deletion::{DeletionEntry, DeletionTables};
pub use distance::{Decision, DiffResult, PreparedRun, RunTables, WorkflowDiff};
pub use error::DiffError;
pub use mapping::{Mapping, MappingSummary};
pub use ops::{OpDirection, OpProvenance, PathOperation};
pub use prefix::{PrefixEdgeClass, PrefixProfile};
pub use script::{EditScript, ScriptBuilder};
pub use surcharge::SpecContext;

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, DiffError>;
