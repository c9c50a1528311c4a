//! JSON wire types of the diff server and the error-to-status mapping.
//!
//! Every response body — success or failure — is a JSON document.  Failures
//! use one shape everywhere:
//!
//! ```json
//! {"error": "unknown specification \"nope\"", "kind": "unknown_spec"}
//! ```
//!
//! `kind` is a stable machine-readable tag; `error` is the human-readable
//! message of the underlying store/diff/persist error.  The HTTP status
//! encodes the class of failure:
//!
//! | status | meaning |
//! |--------|---------|
//! | 400    | malformed request: bad JSON, bad escapes, missing parameters, invalid run structure, unreadable descriptor format |
//! | 404    | unknown endpoint, specification or run |
//! | 405    | known endpoint, wrong method |
//! | 409    | conflict: the run was built or asserted against a different specification version, or the run name is already taken |
//! | 413    | body larger than the server's configured limit |
//! | 500    | internal failure: diff engine invariant or persistence I/O |

use crate::io::RunDescriptor;
use crate::service::{DriftReport, ServiceError};
use crate::store::StoreError;
use crate::stream::StreamEvent;
use serde::{Deserialize, Serialize};
use wfdiff_core::DiffError;
use wfdiff_sptree::SpTreeError;

// ---------------------------------------------------------------------------
// Success bodies
// ---------------------------------------------------------------------------

/// `GET /healthz` response.
#[derive(Debug, Serialize, Deserialize)]
pub struct HealthResponse {
    /// Always `"ok"` when the server can answer at all.
    pub status: String,
    /// Number of specifications stored.
    pub specs: usize,
    /// Number of runs stored, across all specifications.
    pub runs: usize,
    /// The diff service's worker threads.
    pub threads: usize,
}

/// One entry of the `GET /specs` listing.
#[derive(Debug, Serialize, Deserialize)]
pub struct SpecEntry {
    /// Specification name.
    pub name: String,
    /// The stored version's fingerprint (hex) — what
    /// [`InsertRunRequest::spec_fingerprint`] may assert against.
    pub fingerprint: String,
    /// Number of runs stored for this specification.
    pub runs: usize,
}

/// `GET /specs` response.
#[derive(Debug, Serialize, Deserialize)]
pub struct SpecsResponse {
    /// All stored specifications, sorted by name.
    pub specs: Vec<SpecEntry>,
}

/// `GET /specs/{name}/runs` response.
#[derive(Debug, Serialize, Deserialize)]
pub struct RunsResponse {
    /// The specification name.
    pub spec: String,
    /// Run names, sorted.
    pub runs: Vec<String>,
}

/// `POST /runs` request body.
#[derive(Debug, Deserialize)]
pub struct InsertRunRequest {
    /// Name to store the run under.
    pub name: String,
    /// Optional version assertion: when non-empty, the insert is refused
    /// with `409` unless it equals the stored specification's fingerprint
    /// (as listed by `GET /specs`).  Clients that exported runs against a
    /// known version use this to fail fast after a spec replacement.
    #[serde(default)]
    pub spec_fingerprint: String,
    /// The run itself; `run.spec` names the target specification.
    pub run: RunDescriptor,
}

/// `POST /runs` response.
#[derive(Debug, Serialize, Deserialize)]
pub struct InsertRunResponse {
    /// The specification the run was stored under.
    pub spec: String,
    /// The stored run name.
    pub name: String,
    /// Whether the run was also appended to the server's store directory
    /// (`false` when the server runs without persistence).
    pub persisted: bool,
}

/// `GET /diff` response (also one element of a batch response).
#[derive(Debug, Serialize, Deserialize)]
pub struct DiffResponse {
    /// The specification name.
    pub spec: String,
    /// Source run name.
    pub source: String,
    /// Target run name.
    pub target: String,
    /// The edit distance.
    pub distance: f64,
}

/// `POST /diff/batch` request body.
#[derive(Debug, Serialize, Deserialize)]
pub struct BatchDiffRequest {
    /// The specification whose runs are differenced.
    pub spec: String,
    /// Run-name pairs; the response is index-aligned with this list.
    pub pairs: Vec<(String, String)>,
}

/// `POST /diff/batch` response.
#[derive(Debug, Serialize, Deserialize)]
pub struct BatchDiffResponse {
    /// The specification name.
    pub spec: String,
    /// One distance per requested pair, in request order.
    pub distances: Vec<DiffResponse>,
}

/// One composite module of a `GET /cluster` response.
#[derive(Debug, Serialize, Deserialize)]
pub struct ClusterEntry {
    /// Composite-module name.
    pub cluster: String,
    /// Edit-script deletions touching the module.
    pub deletions: usize,
    /// Edit-script insertions touching the module.
    pub insertions: usize,
}

/// `GET /cluster` response: the per-composite-module difference summary,
/// hotspots (most-changed) first.
#[derive(Debug, Serialize, Deserialize)]
pub struct ClusterResponse {
    /// The specification name.
    pub spec: String,
    /// Source run name.
    pub source: String,
    /// Target run name.
    pub target: String,
    /// The prefix separator the clustering grouped labels by.
    pub separator: String,
    /// The edit distance of the underlying session.
    pub distance: f64,
    /// Changed composite modules, ordered by total change (descending).
    pub clusters: Vec<ClusterEntry>,
}

/// One neighbour of a `GET /similar` response.
#[derive(Debug, Serialize, Deserialize)]
pub struct SimilarEntry {
    /// The neighbouring stored run.
    pub run: String,
    /// Its edit distance to the query run.
    pub distance: f64,
}

/// `GET /similar` response: the `k` stored runs nearest to `run`, nearest
/// first (exact distances — identical to a from-scratch recompute unless
/// `approx=` relaxed the query).
#[derive(Debug, Serialize, Deserialize)]
pub struct SimilarResponse {
    /// The specification name.
    pub spec: String,
    /// The query run.
    pub run: String,
    /// The requested neighbour count (the list may be shorter when fewer
    /// other runs are stored).
    pub k: usize,
    /// Nearest runs, ascending by distance (ties by run name).
    pub neighbors: Vec<SimilarEntry>,
    /// The ε error bound of an `approx=` query (0 = certified exact: every
    /// reported distance and tie-break matches the O(n) sweep).
    #[serde(default)]
    pub approx_epsilon: f64,
    /// Edit-distance evaluations this query performed (the exact sweep
    /// would perform n−1).
    #[serde(default)]
    pub distance_evals: u64,
    /// Vantage-point subtrees the triangle inequality excluded outright.
    #[serde(default)]
    pub subtrees_pruned: u64,
    /// Leaf candidates excluded by memoized medoid-distance bounds.
    #[serde(default)]
    pub members_pruned: u64,
}

/// One cluster of a `GET /cluster?algo=kmedoids` response.
#[derive(Debug, Serialize, Deserialize)]
pub struct RunClusterEntry {
    /// The cluster's representative stored run.
    pub medoid: String,
    /// Number of member runs (including the medoid).
    pub size: usize,
    /// All member runs, sorted by name.
    pub runs: Vec<String>,
}

/// `GET /cluster?algo=kmedoids&k=…` response: the k-medoids clustering of
/// every run stored for the specification, maintained incrementally as
/// `POST /runs` streams new runs in.
#[derive(Debug, Serialize, Deserialize)]
pub struct KMedoidsResponse {
    /// The specification name.
    pub spec: String,
    /// Always `"kmedoids"`.
    pub algo: String,
    /// The requested cluster count (effective count is `min(k, runs)`).
    pub k: usize,
    /// Seed of the deterministic initial medoid draw.
    pub seed: u64,
    /// Medoid-based silhouette score in `[-1, 1]`.
    pub silhouette: f64,
    /// Sum of every run's distance to its medoid.
    pub cost: f64,
    /// Clusters ordered by medoid name.
    pub clusters: Vec<RunClusterEntry>,
    /// Whether the clustering was checkpointed to the server's store
    /// directory (`false` when the server runs without persistence).
    pub persisted: bool,
}

/// `POST /runs/stream` request body: append (and optionally finalize) one
/// ordered batch of node-lifecycle events on an in-flight stream.  The
/// first batch for an unknown stream name opens it.
#[derive(Debug, Serialize, Deserialize)]
pub struct StreamEventsRequest {
    /// The specification the stream runs against.
    pub spec: String,
    /// Stream name — becomes the run name at finalisation, so it must not
    /// collide with a stored run.
    pub stream: String,
    /// The events, in engine order.  May be empty (opens the stream, or
    /// finalizes without appending).
    #[serde(default)]
    pub events: Vec<StreamEvent>,
    /// When `true`, the stream is finalized after the batch: the completed
    /// event sequence is validated end-to-end, stored as run `stream`, and
    /// the stream is closed.
    #[serde(default)]
    pub finalize: bool,
}

/// `POST /runs/stream` response.
#[derive(Debug, Serialize, Deserialize)]
pub struct StreamEventsResponse {
    /// The specification name.
    pub spec: String,
    /// The stream name.
    pub stream: String,
    /// The stream's event count before this batch.
    pub base_seq: u64,
    /// The stream's event count after this batch.
    pub seq: u64,
    /// Node instances declared so far.
    pub nodes: usize,
    /// Completed leaves in the live prefix profile.
    pub completed_leaves: u64,
    /// `true` once every declared instance has completed.
    pub complete: bool,
    /// `true` when the stream was finalized into a stored run.
    #[serde(default)]
    pub finalized: bool,
    /// The drift verdict after the batch (omitted clusters mean no
    /// clustering exists yet); absent after finalisation.
    #[serde(default)]
    #[serde(skip_serializing_if = "Option::is_none")]
    pub drift: Option<DriftReport>,
    /// Whether the batch (and finalised run, if any) was appended to the
    /// server's store directory.
    pub persisted: bool,
}

/// `DELETE /runs/{spec}/{stream}/stream` response: the operator remedy for
/// a stuck in-flight stream — the stream is dropped from the registry and
/// (when the server persists) a closure marker is appended so it stays gone
/// after a restart.
#[derive(Debug, Serialize, Deserialize)]
pub struct StreamCloseResponse {
    /// The specification name.
    pub spec: String,
    /// The closed stream's name.
    pub stream: String,
    /// Events the stream had applied when it was closed.
    pub seq: u64,
    /// Whether the closure marker reached the store directory.
    pub persisted: bool,
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// A failure that maps onto an HTTP status and a JSON error body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApiError {
    /// HTTP status code.
    pub status: u16,
    /// Stable machine-readable tag (`unknown_spec`, `invalid_json`, ...).
    pub kind: &'static str,
    /// Human-readable message.
    pub message: String,
}

/// The serialised shape of an error response.
#[derive(Debug, Serialize, Deserialize)]
pub struct ErrorBody {
    /// Human-readable message.
    pub error: String,
    /// Stable machine-readable tag.
    pub kind: String,
}

impl ApiError {
    /// Builds an error with an explicit status and kind.
    pub fn new(status: u16, kind: &'static str, message: impl Into<String>) -> Self {
        ApiError { status, kind, message: message.into() }
    }

    /// 400 with the given kind.
    pub fn bad_request(kind: &'static str, message: impl Into<String>) -> Self {
        ApiError::new(400, kind, message)
    }

    /// 404 for an unknown endpoint.
    pub fn not_found(message: impl Into<String>) -> Self {
        ApiError::new(404, "unknown_endpoint", message)
    }

    /// 405 for a known endpoint hit with the wrong method.
    pub fn method_not_allowed(method: &str, path: &str) -> Self {
        ApiError::new(405, "method_not_allowed", format!("{method} is not supported on {path}"))
    }

    /// A 400 for a missing query parameter.
    pub fn missing_param(name: &str) -> Self {
        ApiError::bad_request("missing_parameter", format!("query parameter {name:?} is required"))
    }

    /// The JSON body for this error.
    pub fn body(&self) -> String {
        serde_json::to_string(&ErrorBody {
            error: self.message.clone(),
            kind: self.kind.to_string(),
        })
        .unwrap_or_else(|_| "{\"error\":\"error serialisation failed\"}".to_string())
    }
}

// Exhaustive by variant, with no `_` arm: a new error variant fails the
// build here until its status is decided (clippy reports a wildcard that
// stands for one variant only under the second lint).
#[deny(clippy::wildcard_enum_match_arm, clippy::match_wildcard_for_single_variants)]
impl From<ServiceError> for ApiError {
    fn from(e: ServiceError) -> Self {
        match &e {
            ServiceError::UnknownSpec(_) => ApiError::new(404, "unknown_spec", e.to_string()),
            ServiceError::UnknownRun { .. } => ApiError::new(404, "unknown_run", e.to_string()),
            ServiceError::InvalidQuery(_) => ApiError::new(400, "invalid_query", e.to_string()),
            ServiceError::Diff(DiffError::SpecVersionMismatch { .. }) => {
                ApiError::new(409, "spec_version_mismatch", e.to_string())
            }
            ServiceError::Diff(_) => ApiError::new(500, "diff_failed", e.to_string()),
            // State conflicts (double start, terminal-state events, racing
            // predecessors, premature finalize) are retryable 409s; events
            // that could never be valid are 400s.
            ServiceError::Stream(stream_error) => {
                if stream_error.is_conflict() {
                    ApiError::new(409, "stream_conflict", e.to_string())
                } else {
                    ApiError::new(400, "invalid_stream_event", e.to_string())
                }
            }
            ServiceError::UnknownStream { .. } => {
                ApiError::new(404, "unknown_stream", e.to_string())
            }
            ServiceError::Store(store_error) => store_error.clone().into(),
            ServiceError::Persist(_) => ApiError::new(500, "persist_failed", e.to_string()),
            ServiceError::RecordTooLarge(_) => {
                ApiError::new(413, "record_too_large", e.to_string())
            }
        }
    }
}

#[deny(clippy::wildcard_enum_match_arm, clippy::match_wildcard_for_single_variants)]
impl From<StoreError> for ApiError {
    fn from(e: StoreError) -> Self {
        match &e {
            StoreError::MissingSpec { .. } => ApiError::new(404, "unknown_spec", e.to_string()),
            StoreError::SpecVersionMismatch { .. } => {
                ApiError::new(409, "spec_version_mismatch", e.to_string())
            }
            StoreError::SpecConflict { .. } => ApiError::new(409, "spec_conflict", e.to_string()),
            StoreError::DuplicateRun { .. } => ApiError::new(409, "run_exists", e.to_string()),
        }
    }
}

impl From<SpTreeError> for ApiError {
    fn from(e: SpTreeError) -> Self {
        ApiError::new(400, "invalid_run", e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_bodies_are_json_with_kind_and_message() {
        let e = ApiError::new(404, "unknown_spec", "unknown specification \"x\"");
        let body: ErrorBody = serde_json::from_str(&e.body()).unwrap();
        assert_eq!(body.kind, "unknown_spec");
        assert!(body.error.contains("unknown specification"));
    }

    #[test]
    fn service_errors_map_to_the_documented_statuses() {
        let e: ApiError = ServiceError::UnknownSpec("x".into()).into();
        assert_eq!((e.status, e.kind), (404, "unknown_spec"));
        let e: ApiError = ServiceError::UnknownRun { spec: "x".into(), run: "r".into() }.into();
        assert_eq!((e.status, e.kind), (404, "unknown_run"));
        let e: ApiError =
            ServiceError::Diff(DiffError::SpecVersionMismatch { spec: "x".into() }).into();
        assert_eq!((e.status, e.kind), (409, "spec_version_mismatch"));
        let e: ApiError =
            StoreError::SpecVersionMismatch { name: "x".into(), run: "r".into() }.into();
        assert_eq!(e.status, 409);
        let e: ApiError = StoreError::MissingSpec { name: "x".into() }.into();
        assert_eq!(e.status, 404);
    }

    #[test]
    fn stream_errors_split_into_conflicts_and_bad_requests() {
        use crate::stream::{NodeState, StreamError};
        // Conflict with the stream's current state: retryable 409.
        let e: ApiError = ServiceError::Stream(StreamError::DuplicateStart { node: 1 }).into();
        assert_eq!((e.status, e.kind), (409, "stream_conflict"));
        let e: ApiError =
            ServiceError::Stream(StreamError::NotActive { node: 1, state: NodeState::Completed })
                .into();
        assert_eq!((e.status, e.kind), (409, "stream_conflict"));
        // Structurally invalid event: permanent 400.
        let e: ApiError =
            ServiceError::Stream(StreamError::UnknownEdge { from: "a".into(), to: "b".into() })
                .into();
        assert_eq!((e.status, e.kind), (400, "invalid_stream_event"));
        let e: ApiError =
            ServiceError::UnknownStream { spec: "x".into(), stream: "s".into() }.into();
        assert_eq!((e.status, e.kind), (404, "unknown_stream"));
        let e: ApiError =
            ServiceError::Store(StoreError::DuplicateRun { name: "x".into(), run: "r".into() })
                .into();
        assert_eq!((e.status, e.kind), (409, "run_exists"));
        let e: ApiError = ServiceError::Persist("disk full".into()).into();
        assert_eq!((e.status, e.kind), (500, "persist_failed"));
    }
}
