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
//!   the cluster notifications,
//! * [`persist`] — the WAL-delta'd `metric_index.json` checkpoint,
//!   validated against the live store exactly like `cluster_cache.json`.
//!
//! Pruning is **certified**: a subtree or candidate is skipped only when a
//! triangle-inequality bound proves it cannot enter the top-`k`, so the
//! default mode returns results identical — ordering and tie-breaks
//! included — to the exact O(n) sweep.  The opt-in `ε`-approximate mode
//! relaxes the bound by `1 + ε` and reports that factor back as the error
//! bound.

pub mod incremental;
pub mod persist;
pub(crate) mod vptree;

pub use incremental::{IncrementalMetricIndex, PruneStats, DEFAULT_METRIC_SEED};
pub use persist::{METRIC_INDEX_FILE, METRIC_INDEX_FORMAT};
pub use vptree::MedoidPivots;
