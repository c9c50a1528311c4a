//! PDiffView — a headless provenance-difference viewer (Section VII).
//!
//! The paper's prototype lets users *view, store, generate and import/export*
//! SP-specifications and their runs, and step through the minimum-cost edit
//! script between two runs, with inserted paths highlighted in green and
//! deleted paths in red; large workflows can be clustered into composite
//! modules and the difference viewed at any level of that hierarchy.
//!
//! This crate provides the same capabilities without a GUI:
//!
//! * [`store`] — a thread-safe in-memory store of specifications and runs,
//! * [`persist`] — durable, versioned on-disk persistence for the store
//!   (crash-safe saves, fully validated loads), after which
//!   [`DiffService::warm_start`] prepares every loaded run once,
//! * [`wal`] — the append-only write-ahead log behind hot-path durability:
//!   run inserts/removals and stream events become O(append) records that
//!   [`WorkflowStore::load_from_dir`] replays past the manifest commit point,
//! * [`storeio`] — the [`StoreIo`] trait abstracting every durability-relevant
//!   filesystem operation, with a [`RealIo`] passthrough and a deterministic
//!   crash-injecting [`FaultIo`] used by the crash-torture harness,
//! * [`io`] — JSON import/export and a simple XML export of specifications,
//!   runs and edit scripts (the paper's prototype stored runs as XML),
//! * [`stream`] — streaming run ingestion: the [`PartialRun`] builder
//!   consumes ordered node-lifecycle events (`started` / `completed` /
//!   `error` / `cancelled`), validates each against the specification with
//!   typed errors, maintains the certified prefix profile live drift
//!   detection diffs against cluster medoids, and finalizes into a fully
//!   validated run,
//! * [`session`] — differencing sessions that compute the distance, the
//!   mapping and the edit script and let a caller step through the operations,
//! * [`service`] — the batch diff engine: a store-backed [`DiffService`] with
//!   a shared fingerprint-keyed cache and a worker pool for all-pairs and
//!   batch differencing,
//! * [`render`] — textual and Graphviz/DOT renderings of a diff (red deleted
//!   paths on the source run, green inserted paths on the target run),
//! * [`cluster`] — composite-module clustering (the "zoom" of large
//!   provenance graphs) **and** run clustering: a deterministic k-medoids
//!   iteration, the [`IncrementalClusterIndex`] that follows the store as
//!   runs stream in or out, and its optional checkpoint file,
//! * [`metricindex`] — the metric index behind `GET /similar` queries: a
//!   deterministic vantage-point tree per specification with certified
//!   triangle-inequality pruning, maintained incrementally in memory and
//!   rebuilt by the first query after a boot,
//! * [`serve`] — a dependency-free HTTP/1.1 front-end over `std::net`
//!   (Linux): a fixed pool of workers blocks in `epoll_wait`, each serving
//!   the ready socket it was woken for end to end (read, parse, handle,
//!   write), and a lock-cheap metrics registry renders Prometheus text at
//!   `GET /metrics`; serves one store's snapshots, run inserts,
//!   single/batch diffs, nearest-run queries and cluster summaries to
//!   remote clients.  See the `wfdiff_serve` binary.
//!
//! # Example
//!
//! Store two runs, difference them through the batch engine and ask the
//! PDiffView question — "which stored run is this one closest to?":
//!
//! ```
//! use std::sync::Arc;
//! use wfdiff_pdiffview::{DiffService, WorkflowStore};
//! use wfdiff_workloads::figures::{fig2_run1, fig2_run2, fig2_specification};
//!
//! let store = Arc::new(WorkflowStore::new());
//! let spec = store.insert_spec(fig2_specification()).unwrap();
//! store.insert_run("r1", fig2_run1(&spec)).unwrap();
//! store.insert_run("r2", fig2_run2(&spec)).unwrap();
//!
//! let service = DiffService::new(Arc::clone(&store));
//! assert_eq!(service.diff("fig2", "r1", "r2").unwrap().distance, 4.0);
//!
//! let nearest = service.nearest_runs("fig2", "r1", 1).unwrap();
//! assert_eq!(nearest[0].target, "r2");
//! ```

#![deny(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo))]
#![cfg_attr(test, allow(clippy::unreachable, clippy::unimplemented, clippy::disallowed_methods))]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod cluster;
mod derived;
pub mod io;
mod lockrank;
pub mod metricindex;
pub mod persist;
mod pool;
pub mod render;
pub mod serve;
pub mod service;
pub mod session;
pub mod store;
pub mod storeio;
pub mod stream;
pub mod wal;

pub use cluster::{
    CheckpointReport, ClusterDiff, ClusterSnapshot, Clustering, IncrementalClusterIndex, KMedoids,
    RunCluster, DEFAULT_CLUSTER_SEED,
};
pub use io::{RunDescriptor, SpecDescriptor, DESCRIPTOR_FORMAT};
pub use metricindex::{
    IncrementalMetricIndex, MedoidPivots, PruneStats, RunNames, DEFAULT_METRIC_SEED,
};
pub use persist::{PersistError, SaveSummary, STORE_FORMAT};
pub use render::{render_diff_dot, render_diff_text};
pub use serve::{ServeConfig, ServeMetrics, Server, ServerHandle};
pub use service::{
    AllPairsResult, DiffService, DiffServiceBuilder, DriftClusterStatus, DriftReport, PairDistance,
    ServiceError, StreamAck, StreamBatchOutcome, WarmStartReport,
};
pub use session::DiffSession;
pub use store::{
    SpecSnapshot, StoreError, StreamLoadReport, WorkflowStore, DEFAULT_WAL_FOLD_THRESHOLD,
};
pub use storeio::{
    FaultIo, FaultMode, RealIo, StoreIo, FAULT_EXIT_CODE, FAULT_MODE_ENV, FAULT_POINT_ENV,
};
pub use stream::{EventKind, NodeState, PartialRun, StreamError, StreamEvent};
pub use wal::{WalStatsSnapshot, WalSummary, WAL_FILE};
