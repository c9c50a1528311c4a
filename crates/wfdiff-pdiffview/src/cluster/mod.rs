//! Clustering — both of **modules** (the paper's composite-module "zoom")
//! and of **runs** (PDiffView's headline application: grouping the runs of a
//! workflow specification by provenance similarity).
//!
//! Two families live here:
//!
//! * [`composite`] — the Section VII zoom feature: [`Clustering`] assigns
//!   specification modules to named composite modules and [`ClusterDiff`]
//!   aggregates an edit script per composite module.
//! * run clustering — the edit distance is a metric over the runs of one
//!   specification, so whole run collections can be organised around
//!   representative runs:
//!   * [`mod@kmedoids`] — the deterministic k-medoids (PAM-style
//!     alternating) iteration over a distance callback, with a
//!     medoid-based silhouette score,
//!   * [`incremental`] — [`IncrementalClusterIndex`], which maintains
//!     per-specification medoids and assignments **as runs stream in or
//!     out**: a streamed insert costs O(k + affected cluster) prepared
//!     diffs (reusing the service's shared diff cache), not O(n²),
//!   * [`persist`] — the optional `cluster_cache.json` checkpoint that
//!     lets a restarted server resume clustering without re-differencing
//!     (validated on load, silently rebuilt when stale).
//!
//! The run-clustering entry point for most callers is
//! [`DiffService::cluster_medoids`] (served over HTTP as
//! `GET /cluster?algo=kmedoids`); the memoised member-to-medoid distances
//! also give `GET /similar` its medoid-pivot screening.
//!
//! [`DiffService::cluster_medoids`]: crate::service::DiffService::cluster_medoids

pub mod composite;
pub mod incremental;
pub mod kmedoids;
pub mod persist;

pub use composite::{ClusterDiff, Clustering};
pub use incremental::{ClusterSnapshot, IncrementalClusterIndex, RunCluster};
pub use kmedoids::{KMedoids, DEFAULT_CLUSTER_SEED};
pub use persist::{CheckpointReport, CLUSTER_CACHE_FORMAT};
