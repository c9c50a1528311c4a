//! Metric indexing of the workflow edit distance: sublinear certified
//! nearest-run queries for `GET /similar`.
//!
//! The edit distance of Algorithm 4 is a true metric over the runs of one
//! specification, which this module exploits end to end:
//!
//! * `vptree` — a deterministic vantage-point tree with
//!   triangle-inequality subtree bounds and medoid-pivot candidate bounds
//!   (the latter reusing distances the cluster index already memoized),
//! * [`incremental`] — [`IncrementalMetricIndex`], the per-specification
//!   registry of trees that follows store inserts and removals alongside
//!   the cluster notifications.
//!
//! The trees live in memory only.  A tree is a pure function of the stored
//! runs and a seeded pivot draw, so it is never checkpointed: the first
//! query after a boot builds it, and a `/similar` only reads the store.
//!
//! Pruning is **certified**: a subtree or candidate is skipped only when a
//! triangle-inequality bound proves it cannot enter the top-`k`, so the
//! default mode returns results identical — ordering and tie-breaks
//! included — to the exact O(n) sweep.  The opt-in `ε`-approximate mode
//! relaxes the bound by `1 + ε` and reports that factor back as the error
//! bound.

pub mod incremental;
pub(crate) mod vptree;

pub use incremental::{IncrementalMetricIndex, PruneStats, DEFAULT_METRIC_SEED};
pub use vptree::MedoidPivots;
