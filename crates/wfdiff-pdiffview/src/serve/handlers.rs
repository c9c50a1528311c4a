//! Endpoint implementations: routing a parsed [`Request`] onto the
//! [`DiffService`]/[`WorkflowStore`](crate::store::WorkflowStore) stack and
//! rendering responses.
//!
//! Handlers never panic on client input: every failure is an [`ApiError`]
//! carrying the HTTP status, and [`dispatch`] converts both outcomes (and a
//! panic) into a [`Response`] for the worker to render.  A request's path is
//! classified once, by [`Endpoint::classify`], the only table of path
//! shapes; the route table below matches methods against its endpoints.
//! `/metrics` renders the server's [`ServeMetrics`] registry as Prometheus
//! text.

use super::api::*;
use super::http::Request;
use super::metrics::{Endpoint, Route, ServeMetrics, ServerCounter};
use crate::cluster::{ClusterDiff, Clustering, DEFAULT_CLUSTER_SEED};
use crate::service::DiffService;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Ceiling on the number of pairs a single `POST /diff/batch` may request;
/// larger batches are rejected with `400` so one request cannot monopolise
/// the worker pool.
pub const MAX_BATCH_PAIRS: usize = 4096;

/// Default neighbour count of `GET /similar` when `k` is omitted.
pub const DEFAULT_SIMILAR_K: usize = 5;

/// The `Content-Type` of `GET /metrics` responses.
pub const METRICS_CONTENT_TYPE: &str = "text/plain; version=0.0.4";

/// The `Content-Type` of every other response.
const JSON_CONTENT_TYPE: &str = "application/json";

/// Everything a handler needs: the diff service (and through it the
/// store), the store's durable directory when it persists, and the metrics
/// registry.
pub struct AppState {
    service: Arc<DiffService>,
    dir: Option<PathBuf>,
    metrics: Arc<ServeMetrics>,
}

impl AppState {
    /// The state of a server over `service`, whose writes are appended to
    /// `store_dir`'s write-ahead log when given.
    pub fn single(service: Arc<DiffService>, store_dir: Option<PathBuf>) -> Self {
        AppState { service, dir: store_dir, metrics: Arc::default() }
    }

    /// The metrics registry.
    pub fn metrics(&self) -> &Arc<ServeMetrics> {
        &self.metrics
    }
}

/// A rendered handler outcome: status, content type and body bytes-to-be,
/// and the endpoint the request named.
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// The `Content-Type` header value.
    pub content_type: &'static str,
    /// The response body.
    pub body: String,
    /// The endpoint [`dispatch`] classified the request's path as, which
    /// labels the request's metrics.
    pub endpoint: Endpoint,
}

/// Top-level dispatch: classifies the request's path once, renders `GET
/// /metrics` as Prometheus text and sends everything else through the JSON
/// route table.  A handler that panics answers `500` instead of unwinding
/// into the caller.
pub fn dispatch(state: &AppState, req: &Request) -> Response {
    let segments: Vec<&str> = req.segments.iter().map(String::as_str).collect();
    let path = Endpoint::classify(&segments);
    let outcome = catch_unwind(AssertUnwindSafe(|| match (req.method.as_str(), path.endpoint) {
        ("GET", Endpoint::Metrics) => {
            (200, METRICS_CONTENT_TYPE, state.metrics.render(&state.service))
        }
        _ => {
            let (status, body) = route_path(state, req, path);
            (status, JSON_CONTENT_TYPE, body)
        }
    }));
    let (status, content_type, body) = outcome.unwrap_or_else(|_| {
        let e = ApiError::new(500, "internal_panic", "handler panicked; see server log");
        (e.status, JSON_CONTENT_TYPE, e.body())
    });
    Response { status, content_type, body, endpoint: path.endpoint }
}

/// Dispatches a request to its JSON handler and renders the outcome as
/// `(status, JSON body)`.  Unknown paths get `404`; a path
/// [`Endpoint::classify`] knows, with the wrong method, gets `405` (`GET
/// /metrics` is served by [`dispatch`] before it gets here).
pub fn route(state: &AppState, req: &Request) -> (u16, String) {
    let segments: Vec<&str> = req.segments.iter().map(String::as_str).collect();
    route_path(state, req, Endpoint::classify(&segments))
}

/// [`route`] for a request whose path is already classified: the method is
/// matched against the endpoint, and the handlers read the path's
/// `{name}`, `{spec}` and `{stream}` from the classification.
fn route_path(state: &AppState, req: &Request, path: Route<'_>) -> (u16, String) {
    let Route { endpoint, spec, stream } = path;
    let result = match (req.method.as_str(), endpoint) {
        ("GET", Endpoint::Healthz) => healthz(state),
        ("GET", Endpoint::Specs) => specs(state),
        ("GET", Endpoint::SpecRuns) => spec_runs(state, spec),
        ("POST", Endpoint::InsertRun) => insert_run(state, req),
        ("POST", Endpoint::RunsStream) => stream_batch(state, req),
        ("GET", Endpoint::Drift) => drift(state, req, spec, stream),
        ("DELETE", Endpoint::CloseStream) => close_stream(state, spec, stream),
        ("GET", Endpoint::Diff) => diff(state, req),
        ("POST", Endpoint::DiffBatch) => diff_batch(state, req),
        ("GET", Endpoint::Cluster) => cluster(state, req),
        ("GET", Endpoint::Similar) => similar(state, req),
        (_, Endpoint::Other) => {
            Err(ApiError::not_found(format!("no endpoint at {:?}", req.raw_path)))
        }
        // Known endpoints hit with the wrong method.
        _ => Err(ApiError::method_not_allowed(&req.method, &req.raw_path)),
    };
    match result {
        Ok((status, body)) => (status, body),
        Err(e) => (e.status, e.body()),
    }
}

fn json<T: serde::Serialize>(status: u16, value: &T) -> Result<(u16, String), ApiError> {
    serde_json::to_string(value)
        .map(|body| (status, body))
        .map_err(|e| ApiError::new(500, "serialisation_failed", e.to_string()))
}

/// `GET /healthz`: the store's sizes and the diff service's thread count.
fn healthz(state: &AppState) -> Result<(u16, String), ApiError> {
    let store = state.service.store();
    json(
        200,
        &HealthResponse {
            status: "ok".to_string(),
            specs: store.spec_names().len(),
            runs: store.run_count(),
            threads: state.service.threads(),
        },
    )
}

/// `GET /specs`: every stored specification, sorted by name.
fn specs(state: &AppState) -> Result<(u16, String), ApiError> {
    let snapshot = state.service.store().snapshot_all();
    let specs = snapshot
        .iter()
        .map(|(name, (spec, runs))| SpecEntry {
            name: name.clone(),
            fingerprint: spec.fingerprint().to_string(),
            runs: runs.len(),
        })
        .collect();
    json(200, &SpecsResponse { specs })
}

fn spec_runs(state: &AppState, name: &str) -> Result<(u16, String), ApiError> {
    let (_, runs) = state.service.store().snapshot(name).ok_or_else(|| {
        ApiError::new(404, "unknown_spec", format!("unknown specification {name:?}"))
    })?;
    json(
        200,
        &RunsResponse { spec: name.to_string(), runs: runs.into_iter().map(|(n, _)| n).collect() },
    )
}

/// `POST /runs`: validate the descriptor against the stored specification
/// and store the run through [`DiffService::commit_run_insert`], durably
/// when the server owns a store directory.
///
/// A name that is already stored is refused with `409`: the insert is
/// **create-only**, checked under the same lock as the append, so
/// concurrent same-name posts cannot clobber each other.  The run is
/// appended before it is published, so a `500` leaves neither the run nor
/// any of its bytes behind, and a `201` means the run is durable.
fn insert_run(state: &AppState, req: &Request) -> Result<(u16, String), ApiError> {
    let body: InsertRunRequest = parse_body(&req.body)?;
    let spec_name = body.run.spec.clone();
    let service = &state.service;
    let spec = service.store().spec(&spec_name).ok_or_else(|| {
        ApiError::new(404, "unknown_spec", format!("unknown specification {spec_name:?}"))
    })?;
    if !body.spec_fingerprint.is_empty() && body.spec_fingerprint != spec.fingerprint().to_string()
    {
        return Err(ApiError::new(
            409,
            "spec_version_mismatch",
            format!(
                "request asserts specification version {}, but the stored version is {}",
                body.spec_fingerprint,
                spec.fingerprint()
            ),
        ));
    }
    let run = body.run.to_run(&spec)?;
    service.commit_run_insert(state.dir.as_deref(), &body.name, run)?;
    notify_inserted(state, &spec_name, &body.name);
    let persisted = state.dir.is_some();
    json(201, &InsertRunResponse { spec: spec_name, name: body.name, persisted })
}

/// Folds a newly stored run into the incremental cluster index (a cheap
/// no-op until the first k-medoids query builds state for this spec; never
/// fails the write).  The time this takes is the recluster lag the metrics
/// expose.
fn notify_inserted(state: &AppState, spec: &str, run: &str) {
    let started = Instant::now();
    state.service.notify_run_inserted(spec, run);
    state.metrics.observe_cluster_update(started.elapsed());
}

/// `POST /runs/stream`: apply one ordered batch of node-lifecycle events
/// to an in-flight stream (opening it on first use) and report the live
/// drift verdict.
///
/// The batch goes through [`DiffService::commit_stream_batch`]: it is
/// atomic, and durable before any reader sees it when the server persists,
/// so a `500` leaves the stream as it was.  With `finalize: true` the same
/// write also validates the completed stream end-to-end, stores it as run
/// `stream` through the same create-only check as `POST /runs`, and closes
/// the stream.  The verdict is of the builder the batch published, so a
/// close landing after the batch cannot turn its answer into a `404`.
fn stream_batch(state: &AppState, req: &Request) -> Result<(u16, String), ApiError> {
    let body: StreamEventsRequest = parse_body(&req.body)?;
    let service = &state.service;
    let (ack, partial) = service.commit_stream_batch(
        state.dir.as_deref(),
        &body.spec,
        &body.stream,
        &body.events,
        body.finalize,
    )?;
    state.metrics.counter(ServerCounter::StreamEvents).add(body.events.len() as u64);
    let mut response = StreamEventsResponse {
        spec: body.spec.clone(),
        stream: body.stream.clone(),
        base_seq: ack.base_seq,
        seq: ack.seq,
        nodes: ack.nodes,
        completed_leaves: ack.completed_leaves,
        complete: ack.complete,
        finalized: body.finalize,
        drift: None,
        persisted: state.dir.is_some(),
    };
    if body.finalize {
        notify_inserted(state, &body.spec, &body.stream);
        return json(201, &response);
    }
    let report = service.drift_of(&body.spec, &body.stream, &partial)?;
    if report.drifted {
        state.metrics.counter(ServerCounter::DriftFlags).inc();
    }
    response.drift = Some(report);
    json(200, &response)
}

/// `GET /runs/{spec}/{stream}/drift[?k=…[&seed=…]]`: the drift verdict of
/// an in-flight stream against the spec's current clustering.  Passing `k`
/// (and optionally `seed`) refreshes the k-medoids clustering first, so a
/// cold server can be queried in one round trip; without it the verdict
/// uses whatever clustering the incremental index already holds (no
/// clusters → `drifted: false` with an empty verdict list).
fn drift(
    state: &AppState,
    req: &Request,
    spec: &str,
    stream: &str,
) -> Result<(u16, String), ApiError> {
    let k = parse_int_param::<usize>(req, "k")?;
    let seed = parse_int_param::<u64>(req, "seed")?.unwrap_or(DEFAULT_CLUSTER_SEED);
    let service = &state.service;
    if let Some(k) = k {
        service.cluster_medoids(spec, k, seed)?;
    }
    let report = service.drift_report(spec, stream)?;
    if report.drifted {
        state.metrics.counter(ServerCounter::DriftFlags).inc();
    }
    json(200, &report)
}

/// `DELETE /runs/{spec}/{stream}/stream`: drop a stuck in-flight stream —
/// the operator runbook's remedy for streams whose producer died mid-run.
/// When the server persists, the stream's closure marker is durable before
/// the stream leaves the registry, so it stays gone across restarts; if
/// the marker cannot be written the answer is `500` and the stream stays
/// open.
fn close_stream(state: &AppState, spec: &str, stream: &str) -> Result<(u16, String), ApiError> {
    let seq = state.service.commit_stream_close(state.dir.as_deref(), spec, stream)?;
    json(
        200,
        &StreamCloseResponse {
            spec: spec.to_string(),
            stream: stream.to_string(),
            seq,
            persisted: state.dir.is_some(),
        },
    )
}

/// `GET /similar?spec=…&run=…&k=…[&approx=ε]`: the `k` stored runs nearest
/// to `run` by exact edit distance, nearest first.
///
/// The query runs through the per-spec vantage-point metric index with
/// certified triangle-inequality pruning — the exact sweep's answer,
/// ordering and tie-breaks included, usually for far fewer distance
/// evaluations (reported in the response and the `wfdiff_similar_*`
/// counter).  A spec's first query after a boot builds its tree in memory.
/// The query is a pure read: it never appends to the write-ahead log.
/// `approx=ε` relaxes the bound: every reported distance is at most
/// `(1+ε)` times the true `k`-th.
fn similar(state: &AppState, req: &Request) -> Result<(u16, String), ApiError> {
    let spec = req.query_param("spec").ok_or_else(|| ApiError::missing_param("spec"))?;
    let run = req.query_param("run").ok_or_else(|| ApiError::missing_param("run"))?;
    let k = parse_int_param::<usize>(req, "k")?.unwrap_or(DEFAULT_SIMILAR_K);
    let epsilon = match req.query_param("approx") {
        None => 0.0,
        Some(raw) => match raw.parse::<f64>() {
            Ok(e) if e.is_finite() && e >= 0.0 => e,
            _ => {
                return Err(ApiError::bad_request(
                    "invalid_parameter",
                    format!(
                        "query parameter \"approx\" must be a finite non-negative number, got {raw:?}"
                    ),
                ));
            }
        },
    };
    let (neighbors, stats) = state.service.nearest_runs_pruned(spec, run, k, epsilon)?;
    state.metrics.counter(ServerCounter::SimilarDistanceEvals).add(stats.distance_evals as u64);
    json(
        200,
        &SimilarResponse {
            spec: spec.to_string(),
            run: run.to_string(),
            k,
            neighbors: neighbors
                .into_iter()
                .map(|p| SimilarEntry { run: p.target, distance: p.distance })
                .collect(),
            approx_epsilon: epsilon,
            distance_evals: stats.distance_evals as u64,
            subtrees_pruned: stats.subtrees_pruned as u64,
            members_pruned: stats.members_pruned as u64,
        },
    )
}

/// Parses an optional non-negative integer query parameter.
fn parse_int_param<T: std::str::FromStr>(
    req: &Request,
    name: &'static str,
) -> Result<Option<T>, ApiError> {
    match req.query_param(name) {
        None => Ok(None),
        Some(raw) => raw.parse::<T>().map(Some).map_err(|_| {
            ApiError::bad_request(
                "invalid_parameter",
                format!("query parameter {name:?} must be a non-negative integer, got {raw:?}"),
            )
        }),
    }
}

fn diff(state: &AppState, req: &Request) -> Result<(u16, String), ApiError> {
    let spec = req.query_param("spec").ok_or_else(|| ApiError::missing_param("spec"))?;
    let a = req.query_param("a").ok_or_else(|| ApiError::missing_param("a"))?;
    let b = req.query_param("b").ok_or_else(|| ApiError::missing_param("b"))?;
    let pair = state.service.diff(spec, a, b)?;
    json(
        200,
        &DiffResponse {
            spec: spec.to_string(),
            source: pair.source,
            target: pair.target,
            distance: pair.distance,
        },
    )
}

fn diff_batch(state: &AppState, req: &Request) -> Result<(u16, String), ApiError> {
    let body: BatchDiffRequest = parse_body(&req.body)?;
    if body.pairs.len() > MAX_BATCH_PAIRS {
        return Err(ApiError::bad_request(
            "batch_too_large",
            format!("{} pairs exceed the limit of {MAX_BATCH_PAIRS} per request", body.pairs.len()),
        ));
    }
    let distances = state.service.diff_batch(&body.spec, &body.pairs)?;
    json(
        200,
        &BatchDiffResponse {
            spec: body.spec.clone(),
            distances: distances
                .into_iter()
                .map(|p| DiffResponse {
                    spec: body.spec.clone(),
                    source: p.source,
                    target: p.target,
                    distance: p.distance,
                })
                .collect(),
        },
    )
}

/// `GET /cluster`: dispatches on `algo` — the composite-module prefix
/// summary of two runs (default, the paper's "zoom") or the k-medoids
/// clustering of the whole run collection.
fn cluster(state: &AppState, req: &Request) -> Result<(u16, String), ApiError> {
    match req.query_param("algo") {
        None | Some("prefix") => cluster_prefix(state, req),
        Some("kmedoids") => cluster_kmedoids(state, req),
        Some(other) => Err(ApiError::bad_request(
            "invalid_parameter",
            format!("unknown clustering algorithm {other:?} (expected \"prefix\" or \"kmedoids\")"),
        )),
    }
}

/// `GET /cluster?algo=kmedoids&k=…[&seed=…]`: the incremental k-medoids
/// clustering of every stored run; checkpointed to the store directory's
/// `cluster_cache.json` (best effort) when the server persists.
fn cluster_kmedoids(state: &AppState, req: &Request) -> Result<(u16, String), ApiError> {
    let spec = req.query_param("spec").ok_or_else(|| ApiError::missing_param("spec"))?;
    let k = parse_int_param::<usize>(req, "k")?.ok_or_else(|| ApiError::missing_param("k"))?;
    let seed = parse_int_param::<u64>(req, "seed")?.unwrap_or(DEFAULT_CLUSTER_SEED);
    let snapshot = state.service.cluster_medoids(spec, k, seed)?;
    // Checkpoint the refreshed clustering next to the store (a no-op when
    // nothing changed since the last checkpoint).  Best effort: the
    // artifact is a cache and a failed write must not fail the query (the
    // next load simply rebuilds).
    let persisted = match &state.dir {
        Some(dir) => state.service.save_cluster_state(dir).is_ok(),
        None => false,
    };
    json(
        200,
        &KMedoidsResponse {
            spec: spec.to_string(),
            algo: "kmedoids".to_string(),
            k: snapshot.k,
            seed: snapshot.seed,
            silhouette: snapshot.silhouette,
            cost: snapshot.cost,
            clusters: snapshot
                .clusters
                .into_iter()
                .map(|c| RunClusterEntry { medoid: c.medoid, size: c.runs.len(), runs: c.runs })
                .collect(),
            persisted,
        },
    )
}

fn cluster_prefix(state: &AppState, req: &Request) -> Result<(u16, String), ApiError> {
    let spec_name = req.query_param("spec").ok_or_else(|| ApiError::missing_param("spec"))?;
    let a = req.query_param("a").ok_or_else(|| ApiError::missing_param("a"))?;
    let b = req.query_param("b").ok_or_else(|| ApiError::missing_param("b"))?;
    let separator = req.query_param("separator").unwrap_or("_");
    let mut chars = separator.chars();
    let sep = match (chars.next(), chars.next()) {
        (Some(c), None) => c,
        _ => {
            return Err(ApiError::bad_request(
                "invalid_separator",
                format!("separator must be a single character, got {separator:?}"),
            ))
        }
    };
    let service = &state.service;
    let spec = service.store().spec(spec_name).ok_or_else(|| {
        ApiError::new(404, "unknown_spec", format!("unknown specification {spec_name:?}"))
    })?;
    let clustering = Clustering::by_prefix(&spec, sep);
    let session = service.session(spec_name, a, b)?;
    let diff = ClusterDiff::compute(&session, &clustering);
    let clusters = diff
        .hotspots()
        .iter()
        .map(|(name, _)| {
            let (deletions, insertions) = diff.changes[*name];
            ClusterEntry { cluster: (*name).to_string(), deletions, insertions }
        })
        .collect();
    json(
        200,
        &ClusterResponse {
            spec: spec_name.to_string(),
            source: a.to_string(),
            target: b.to_string(),
            separator: sep.to_string(),
            distance: session.distance(),
            clusters,
        },
    )
}

fn parse_body<T: for<'de> serde::Deserialize<'de>>(body: &str) -> Result<T, ApiError> {
    if body.is_empty() {
        return Err(ApiError::bad_request("invalid_json", "request requires a JSON body"));
    }
    serde_json::from_str(body)
        .map_err(|e| ApiError::bad_request("invalid_json", format!("invalid JSON body: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::RunDescriptor;
    use crate::service::tests::branch_events;
    use crate::service::DriftReport;
    use crate::store::WorkflowStore;
    use crate::storeio::{RealIo, StoreIo};
    use crate::stream::StreamEvent;
    use std::path::Path;
    use wfdiff_workloads::figures::{fig2_run1, fig2_run2, fig2_run3, fig2_specification};

    fn request(method: &str, target: &str, body: &str) -> Request {
        let (path, query) = target.split_once('?').unwrap_or((target, ""));
        Request {
            method: method.to_string(),
            raw_path: path.to_string(),
            segments: path.split('/').filter(|s| !s.is_empty()).map(String::from).collect(),
            query: query
                .split('&')
                .filter(|s| !s.is_empty())
                .map(|kv| {
                    let (k, v) = kv.split_once('=').unwrap_or((kv, ""));
                    (k.to_string(), v.to_string())
                })
                .collect(),
            body: body.to_string(),
            keep_alive: true,
        }
    }

    fn state() -> AppState {
        let store = Arc::new(WorkflowStore::new());
        let spec = store.insert_spec(fig2_specification()).unwrap();
        store.insert_run("r1", fig2_run1(&spec)).unwrap();
        store.insert_run("r2", fig2_run2(&spec)).unwrap();
        AppState::single(Arc::new(DiffService::new(store)), None)
    }

    #[test]
    fn routing_covers_success_and_error_paths() {
        let state = state();
        let (status, body) = route(&state, &request("GET", "/healthz", ""));
        assert_eq!(status, 200);
        assert!(body.contains("\"ok\""));

        let (status, _) = route(&state, &request("GET", "/specs", ""));
        assert_eq!(status, 200);
        let (status, body) = route(&state, &request("GET", "/specs/fig2/runs", ""));
        assert_eq!(status, 200);
        let runs: RunsResponse = serde_json::from_str(&body).unwrap();
        assert_eq!(runs.runs, vec!["r1", "r2"]);

        let (status, _) = route(&state, &request("GET", "/specs/nope/runs", ""));
        assert_eq!(status, 404);
        let (status, _) = route(&state, &request("DELETE", "/healthz", ""));
        assert_eq!(status, 405);
        let (status, _) = route(&state, &request("GET", "/nowhere", ""));
        assert_eq!(status, 404);
    }

    #[test]
    fn diff_endpoint_returns_the_service_distance() {
        let state = state();
        let (status, body) = route(&state, &request("GET", "/diff?spec=fig2&a=r1&b=r2", ""));
        assert_eq!(status, 200, "{body}");
        let diff: DiffResponse = serde_json::from_str(&body).unwrap();
        assert_eq!(diff.distance, 4.0);
        // Missing parameter and unknown names.
        let (status, _) = route(&state, &request("GET", "/diff?spec=fig2&a=r1", ""));
        assert_eq!(status, 400);
        let (status, _) = route(&state, &request("GET", "/diff?spec=fig2&a=r1&b=zz", ""));
        assert_eq!(status, 404);
    }

    #[test]
    fn batch_endpoint_is_index_aligned_and_bounded() {
        let state = state();
        let req_body = serde_json::to_string(&BatchDiffRequest {
            spec: "fig2".to_string(),
            pairs: vec![("r1".to_string(), "r2".to_string()), ("r1".to_string(), "r1".to_string())],
        })
        .unwrap();
        let (status, body) = route(&state, &request("POST", "/diff/batch", &req_body));
        assert_eq!(status, 200, "{body}");
        let out: BatchDiffResponse = serde_json::from_str(&body).unwrap();
        assert_eq!(out.distances.len(), 2);
        assert_eq!(out.distances[0].distance, 4.0);
        assert_eq!(out.distances[1].distance, 0.0);

        let huge = BatchDiffRequest {
            spec: "fig2".to_string(),
            pairs: vec![("r1".to_string(), "r2".to_string()); MAX_BATCH_PAIRS + 1],
        };
        let (status, body) =
            route(&state, &request("POST", "/diff/batch", &serde_json::to_string(&huge).unwrap()));
        assert_eq!(status, 400);
        assert!(body.contains("batch_too_large"));
    }

    #[test]
    fn insert_endpoint_validates_fingerprint_and_json() {
        let state = state();
        let store = Arc::clone(state.service.store());
        let spec = store.spec("fig2").unwrap();
        let descriptor = RunDescriptor::from_run(&fig2_run1(&spec));

        // Version assertion mismatch → 409, store unchanged.
        let body = format!(
            "{{\"name\": \"nope\", \"spec_fingerprint\": \"deadbeef\", \"run\": {}}}",
            descriptor.to_json()
        );
        let (status, text) = route(&state, &request("POST", "/runs", &body));
        assert_eq!(status, 409, "{text}");
        assert!(store.run("fig2", "nope").is_none());

        // Matching assertion → 201.
        let body = format!(
            "{{\"name\": \"r9\", \"spec_fingerprint\": \"{}\", \"run\": {}}}",
            spec.fingerprint(),
            descriptor.to_json()
        );
        let (status, text) = route(&state, &request("POST", "/runs", &body));
        assert_eq!(status, 201, "{text}");
        let out: InsertRunResponse = serde_json::from_str(&text).unwrap();
        assert!(!out.persisted, "no store directory configured");
        assert!(store.run("fig2", "r9").is_some());

        // Malformed JSON → 400.
        let (status, text) = route(&state, &request("POST", "/runs", "{not json"));
        assert_eq!(status, 400);
        assert!(text.contains("invalid_json"));
        // Empty body → 400 too.
        let (status, _) = route(&state, &request("POST", "/runs", ""));
        assert_eq!(status, 400);
    }

    #[test]
    fn cluster_endpoint_aggregates_by_prefix() {
        let state = state();
        let (status, body) = route(&state, &request("GET", "/cluster?spec=fig2&a=r1&b=r2", ""));
        assert_eq!(status, 200, "{body}");
        let out: ClusterResponse = serde_json::from_str(&body).unwrap();
        assert_eq!(out.distance, 4.0);
        assert!(!out.clusters.is_empty());
        // Hotspots are ordered by total change, descending.
        let totals: Vec<usize> = out.clusters.iter().map(|c| c.deletions + c.insertions).collect();
        assert!(totals.windows(2).all(|w| w[0] >= w[1]));

        let (status, body) =
            route(&state, &request("GET", "/cluster?spec=fig2&a=r1&b=r2&separator=ab", ""));
        assert_eq!(status, 400, "{body}");
    }

    #[test]
    fn similar_endpoint_ranks_neighbors_exactly() {
        let state = state();
        let (status, body) = route(&state, &request("GET", "/similar?spec=fig2&run=r1&k=5", ""));
        assert_eq!(status, 200, "{body}");
        let out: SimilarResponse = serde_json::from_str(&body).unwrap();
        assert_eq!(out.run, "r1");
        assert_eq!(out.neighbors.len(), 1, "only one other run is stored");
        assert_eq!(out.neighbors[0].run, "r2");
        assert_eq!(out.neighbors[0].distance, 4.0);
        // k defaults when omitted.
        let (status, body) = route(&state, &request("GET", "/similar?spec=fig2&run=r1", ""));
        assert_eq!(status, 200, "{body}");
        // Errors: unknown run/spec, malformed or zero k.
        let (status, _) = route(&state, &request("GET", "/similar?spec=fig2&run=zz", ""));
        assert_eq!(status, 404);
        let (status, _) = route(&state, &request("GET", "/similar?spec=zz&run=r1", ""));
        assert_eq!(status, 404);
        let (status, body) = route(&state, &request("GET", "/similar?spec=fig2&run=r1&k=x", ""));
        assert_eq!(status, 400, "{body}");
        let (status, body) = route(&state, &request("GET", "/similar?spec=fig2&run=r1&k=0", ""));
        assert_eq!(status, 400, "{body}");
        let (status, _) = route(&state, &request("POST", "/similar", ""));
        assert_eq!(status, 405);
        // k far beyond the run count is clamped, not an error.
        let (status, body) = route(&state, &request("GET", "/similar?spec=fig2&run=r1&k=999", ""));
        assert_eq!(status, 200, "{body}");
        let out: SimilarResponse = serde_json::from_str(&body).unwrap();
        assert_eq!(out.neighbors.len(), 1);
    }

    #[test]
    fn similar_reports_pruning_stats_and_validates_params() {
        let state = state();
        let (status, body) = route(&state, &request("GET", "/similar?spec=fig2&run=r1&k=5", ""));
        assert_eq!(status, 200, "{body}");
        let exact: SimilarResponse = serde_json::from_str(&body).unwrap();
        assert_eq!(exact.approx_epsilon, 0.0, "certified exact unless approx= relaxes it");
        assert_eq!(exact.distance_evals, 1, "one other run to evaluate");

        // approx= relaxes the bound and echoes it.
        let (status, body) =
            route(&state, &request("GET", "/similar?spec=fig2&run=r1&k=5&approx=0.5", ""));
        assert_eq!(status, 200, "{body}");
        let out: SimilarResponse = serde_json::from_str(&body).unwrap();
        assert_eq!(out.approx_epsilon, 0.5);
        assert_eq!(out.neighbors.len(), exact.neighbors.len());

        // Malformed approx values are 400s, and k=0 stays a clean 400.
        for bad in [
            "/similar?spec=fig2&run=r1&approx=-1",
            "/similar?spec=fig2&run=r1&approx=abc",
            "/similar?spec=fig2&run=r1&approx=inf",
            "/similar?spec=fig2&run=r1&k=0",
        ] {
            let (status, body) = route(&state, &request("GET", bad, ""));
            assert_eq!(status, 400, "{bad}: {body}");
        }
    }

    #[test]
    fn plain_similar_builds_the_metric_index_and_matches_the_exact_sweep() {
        let state = state();
        let service = Arc::clone(&state.service);
        let store = Arc::clone(service.store());
        let spec = store.spec("fig2").unwrap();
        store.insert_run("r3", fig2_run3(&spec)).unwrap();
        let (status, body) = route(&state, &request("GET", "/similar?spec=fig2&run=r1&k=5", ""));
        assert_eq!(status, 200, "{body}");
        assert_eq!(service.metric_index().member_count("fig2"), store.run_count());
        // The exact sweep: every other run's distance, by distance then name.
        let mut sweep: Vec<(&str, f64)> =
            ["r2", "r3"].map(|r| (r, service.diff("fig2", "r1", r).unwrap().distance)).to_vec();
        sweep.sort_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(b.0)));
        let out: SimilarResponse = serde_json::from_str(&body).unwrap();
        assert_eq!(out.neighbors.len(), sweep.len());
        for (got, (run, distance)) in out.neighbors.iter().zip(&sweep) {
            assert_eq!(got.run, *run);
            assert_eq!(got.distance.to_bits(), distance.to_bits());
        }
        // `pruned=` is no parameter: ignored like any unknown one.
        let (status, again) =
            route(&state, &request("GET", "/similar?spec=fig2&run=r1&k=5&pruned=1", ""));
        assert_eq!(status, 200, "{again}");
        assert_eq!(again, body);
    }

    #[test]
    fn kmedoids_cluster_endpoint_returns_medoids_and_silhouette() {
        let state = state();
        let (status, body) =
            route(&state, &request("GET", "/cluster?spec=fig2&algo=kmedoids&k=2", ""));
        assert_eq!(status, 200, "{body}");
        let out: KMedoidsResponse = serde_json::from_str(&body).unwrap();
        assert_eq!(out.algo, "kmedoids");
        assert_eq!(out.clusters.len(), 2);
        let mut all_runs: Vec<String> = out.clusters.iter().flat_map(|c| c.runs.clone()).collect();
        all_runs.sort();
        assert_eq!(all_runs, vec!["r1", "r2"]);
        for c in &out.clusters {
            assert!(c.runs.contains(&c.medoid), "medoid is a member");
            assert_eq!(c.size, c.runs.len());
        }
        assert!(!out.persisted, "no store directory configured");
        // k clamps to the run count; zero/missing/invalid k and unknown
        // algos are rejected.
        let (status, _) =
            route(&state, &request("GET", "/cluster?spec=fig2&algo=kmedoids&k=99", ""));
        assert_eq!(status, 200);
        let (status, _) =
            route(&state, &request("GET", "/cluster?spec=fig2&algo=kmedoids&k=0", ""));
        assert_eq!(status, 400);
        let (status, _) = route(&state, &request("GET", "/cluster?spec=fig2&algo=kmedoids", ""));
        assert_eq!(status, 400);
        let (status, _) = route(&state, &request("GET", "/cluster?spec=fig2&algo=voronoi&k=2", ""));
        assert_eq!(status, 400);
        let (status, _) = route(&state, &request("GET", "/cluster?spec=zz&algo=kmedoids&k=2", ""));
        assert_eq!(status, 404);
    }

    #[test]
    fn inserts_keep_the_cluster_index_fresh() {
        let state = state();
        // Build index state, then stream a run in through the endpoint; the
        // next clustering must include it without a rebuild.
        let (status, _) =
            route(&state, &request("GET", "/cluster?spec=fig2&algo=kmedoids&k=2", ""));
        assert_eq!(status, 200);
        let service = Arc::clone(&state.service);
        let store = Arc::clone(service.store());
        let spec = store.spec("fig2").unwrap();
        let descriptor = RunDescriptor::from_run(&fig2_run2(&spec));
        let body = format!("{{\"name\": \"r3\", \"run\": {}}}", descriptor.to_json());
        let (status, text) = route(&state, &request("POST", "/runs", &body));
        assert_eq!(status, 201, "{text}");
        let snapshot = service.cluster_index().snapshot("fig2").unwrap();
        assert!(snapshot.cluster_of("r3").is_some(), "streamed run was folded in");
        // And r3 (a copy of r2) landed in r2's cluster.
        assert_eq!(snapshot.cluster_of("r3"), snapshot.cluster_of("r2"));
        // The recluster lag was observed.
        assert!(state
            .metrics()
            .render(&state.service)
            .contains("wfdiff_cluster_update_duration_seconds_count 1"));
    }

    fn stream_body(spec: &str, stream: &str, events: Vec<StreamEvent>, finalize: bool) -> String {
        serde_json::to_string(&StreamEventsRequest {
            spec: spec.to_string(),
            stream: stream.to_string(),
            events,
            finalize,
        })
        .unwrap()
    }

    #[test]
    fn stream_endpoint_streams_drifts_and_finalizes() {
        let state = state();
        // Cluster the two stored runs so drift verdicts have medoids.
        let (status, _) =
            route(&state, &request("GET", "/cluster?spec=fig2&algo=kmedoids&k=2", ""));
        assert_eq!(status, 200);

        // First batch: open the stream with a partial prefix.
        let events = branch_events("3");
        let (head, tail) = events.split_at(5);
        let (status, body) = route(
            &state,
            &request("POST", "/runs/stream", &stream_body("fig2", "s1", head.to_vec(), false)),
        );
        assert_eq!(status, 200, "{body}");
        let out: StreamEventsResponse = serde_json::from_str(&body).unwrap();
        assert_eq!((out.base_seq, out.seq), (0, 5));
        assert!(!out.complete && !out.finalized);
        let drift = out.drift.expect("open streams report drift");
        assert_eq!(drift.clusters.len(), 2, "one verdict per cluster");
        assert!(!out.persisted, "no store directory configured");

        // The drift endpoint answers for the in-flight stream too.
        let (status, body) = route(&state, &request("GET", "/runs/fig2/s1/drift", ""));
        assert_eq!(status, 200, "{body}");
        let live: DriftReport = serde_json::from_str(&body).unwrap();
        assert_eq!(live.events, 5);
        assert_eq!(live.clusters.len(), 2);

        // Second batch finalizes: the stream becomes stored run "s1".
        let (status, body) = route(
            &state,
            &request("POST", "/runs/stream", &stream_body("fig2", "s1", tail.to_vec(), true)),
        );
        assert_eq!(status, 201, "{body}");
        let out: StreamEventsResponse = serde_json::from_str(&body).unwrap();
        assert!(out.complete && out.finalized);
        assert!(out.drift.is_none(), "finalised responses carry no drift");
        let store = state.service.store().clone();
        assert!(store.run("fig2", "s1").is_some());
        // The stream is gone: its drift endpoint 404s now.
        let (status, _) = route(&state, &request("GET", "/runs/fig2/s1/drift", ""));
        assert_eq!(status, 404);
        // And the streamed run joined the incremental clustering.
        let service = &state.service;
        let snapshot = service.cluster_index().snapshot("fig2").unwrap();
        assert!(snapshot.cluster_of("s1").is_some());
    }

    #[test]
    fn drift_endpoint_builds_clustering_on_demand() {
        let state = state();
        let (status, body) = route(
            &state,
            &request(
                "POST",
                "/runs/stream",
                &stream_body("fig2", "s1", branch_events("3")[..2].to_vec(), false),
            ),
        );
        assert_eq!(status, 200, "{body}");
        let out: StreamEventsResponse = serde_json::from_str(&body).unwrap();
        let drift = out.drift.unwrap();
        assert!(drift.clusters.is_empty() && !drift.drifted, "no clustering built yet");

        // ?k= refreshes the clustering in the same request.
        let (status, body) = route(&state, &request("GET", "/runs/fig2/s1/drift?k=1", ""));
        assert_eq!(status, 200, "{body}");
        let out: DriftReport = serde_json::from_str(&body).unwrap();
        assert_eq!(out.clusters.len(), 1);
        assert_eq!(out.clusters[0].size, 2, "both stored runs in one cluster");
        assert!(out.clusters[0].radius > 0.0);
    }

    #[test]
    fn malformed_stream_batches_are_typed_rejections() {
        let state = state();
        // Unknown spec → 404.
        let (status, body) = route(
            &state,
            &request("POST", "/runs/stream", &stream_body("zz", "s1", vec![], false)),
        );
        assert_eq!(status, 404, "{body}");
        // Stream name colliding with a stored run → 400.
        let (status, body) = route(
            &state,
            &request("POST", "/runs/stream", &stream_body("fig2", "r1", vec![], false)),
        );
        assert_eq!(status, 400, "{body}");
        assert!(body.contains("invalid_query"));
        // Duplicate start → 409 conflict, and the batch is atomic: nothing
        // from the bad batch sticks.
        let mut events = branch_events("3")[..2].to_vec();
        events.push(StreamEvent::started(0, "1", vec![]));
        let (status, body) = route(
            &state,
            &request("POST", "/runs/stream", &stream_body("fig2", "s1", events, false)),
        );
        assert_eq!(status, 409, "{body}");
        assert!(body.contains("stream_conflict"));
        let service = &state.service;
        assert!(service.stream_seq("fig2", "s1").is_none(), "rejected batch opened no stream");
        // Completion of a never-started node → 400.
        let (status, body) = route(
            &state,
            &request(
                "POST",
                "/runs/stream",
                &stream_body("fig2", "s1", vec![StreamEvent::completed(9)], false),
            ),
        );
        assert_eq!(status, 400, "{body}");
        assert!(body.contains("invalid_stream_event"));
        // Finalizing an incomplete stream → 409, stream stays open.
        let open = stream_body("fig2", "s2", branch_events("3")[..3].to_vec(), false);
        let (status, _) = route(&state, &request("POST", "/runs/stream", &open));
        assert_eq!(status, 200);
        let (status, body) = route(
            &state,
            &request("POST", "/runs/stream", &stream_body("fig2", "s2", vec![], true)),
        );
        assert_eq!(status, 409, "{body}");
        assert!(body.contains("stream_conflict"));
        assert_eq!(service.stream_seq("fig2", "s2"), Some(3));
        // Malformed JSON → 400; wrong methods → 405.
        let (status, _) = route(&state, &request("POST", "/runs/stream", "{not json"));
        assert_eq!(status, 400);
        let (status, _) = route(&state, &request("GET", "/runs/stream", ""));
        assert_eq!(status, 405);
        let (status, _) = route(&state, &request("POST", "/runs/fig2/s2/drift", ""));
        assert_eq!(status, 405);
        // Drift of an unknown stream → 404.
        let (status, body) = route(&state, &request("GET", "/runs/fig2/nope/drift", ""));
        assert_eq!(status, 404, "{body}");
        assert!(body.contains("unknown_stream"));
    }

    #[test]
    fn delete_closes_a_stuck_stream() {
        let state = state();
        let open = stream_body("fig2", "stuck", branch_events("3")[..3].to_vec(), false);
        let (status, _) = route(&state, &request("POST", "/runs/stream", &open));
        assert_eq!(status, 200);
        let (status, body) = route(&state, &request("DELETE", "/runs/fig2/stuck/stream", ""));
        assert_eq!(status, 200, "{body}");
        let out: StreamCloseResponse = serde_json::from_str(&body).unwrap();
        assert_eq!(out.seq, 3);
        assert!(!out.persisted, "no store directory configured");
        let service = &state.service;
        assert!(service.stream_seq("fig2", "stuck").is_none());
        // Closing twice → 404; wrong method → 405.
        let (status, _) = route(&state, &request("DELETE", "/runs/fig2/stuck/stream", ""));
        assert_eq!(status, 404);
        let (status, _) = route(&state, &request("GET", "/runs/fig2/stuck/stream", ""));
        assert_eq!(status, 405);
    }

    /// Passes every operation through to [`RealIo`] except the writes it is
    /// set to fail: every document write, or every rewrite of the log (a
    /// new log written whole, or an append to a truncated one).
    #[derive(Debug, Default)]
    struct InjectedWriteFailures {
        documents: bool,
        log_rewrites: bool,
        truncated: std::sync::atomic::AtomicBool,
    }

    impl InjectedWriteFailures {
        fn check(&self, path: &Path, append: bool) -> std::io::Result<()> {
            let name = path.file_name().unwrap_or_default().to_string_lossy();
            let log = name.starts_with(crate::wal::WAL_FILE);
            let rewrite =
                log && (!append || self.truncated.load(std::sync::atomic::Ordering::SeqCst));
            if (self.documents && !log) || (self.log_rewrites && rewrite) {
                return Err(std::io::Error::other(format!("injected failure writing {name}")));
            }
            Ok(())
        }
    }

    impl StoreIo for InjectedWriteFailures {
        fn create_dir_all(&self, path: &Path) -> std::io::Result<()> {
            RealIo.create_dir_all(path)
        }
        fn write_file(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
            self.check(path, false)?;
            RealIo.write_file(path, bytes)
        }
        fn append_file(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
            self.check(path, true)?;
            RealIo.append_file(path, bytes)
        }
        fn fsync_file(&self, path: &Path) -> std::io::Result<()> {
            RealIo.fsync_file(path)
        }
        fn fsync_dir(&self, path: &Path) -> std::io::Result<()> {
            RealIo.fsync_dir(path)
        }
        fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
            RealIo.rename(from, to)
        }
        fn remove_file(&self, path: &Path) -> std::io::Result<()> {
            RealIo.remove_file(path)
        }
        fn remove_dir_all(&self, path: &Path) -> std::io::Result<()> {
            RealIo.remove_dir_all(path)
        }
        fn truncate_file(&self, path: &Path, len: u64) -> std::io::Result<()> {
            self.truncated.store(true, std::sync::atomic::Ordering::SeqCst);
            RealIo.truncate_file(path, len)
        }
    }

    /// A store directory holding `state()`'s store, reloaded through `io`,
    /// and a server state over it.
    fn persisted_state(tag: &str, io: Arc<dyn StoreIo>) -> (PathBuf, Arc<WorkflowStore>, AppState) {
        let dir = std::env::temp_dir().join(format!("wfdiff-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        state().service.store().save_to_dir(&dir).unwrap();
        let store = Arc::new(WorkflowStore::load_from_dir_with_io(&dir, io).unwrap());
        let state =
            AppState::single(Arc::new(DiffService::new(Arc::clone(&store))), Some(dir.clone()));
        (dir, store, state)
    }

    fn insert_body(name: &str, run: &wfdiff_sptree::Run) -> String {
        format!("{{\"name\": \"{name}\", \"run\": {}}}", RunDescriptor::from_run(run).to_json())
    }

    #[test]
    fn a_failed_threshold_fold_keeps_the_durable_insert() {
        let io = InjectedWriteFailures { documents: true, ..Default::default() };
        let (dir, store, state) = persisted_state("fold-failure", Arc::new(io));
        store.set_wal_fold_threshold(1);
        let spec = store.spec("fig2").unwrap();

        // The append made the record durable, so the failed fold after it
        // does not fail the write.
        let service = &state.service;
        service.commit_run_insert(Some(&dir), "r3", fig2_run3(&spec)).unwrap();

        // Nor does it fail the endpoint.
        let body = insert_body("r4", &fig2_run1(&spec));
        let (status, text) = route(&state, &request("POST", "/runs", &body));
        assert_eq!(status, 201, "{text}");
        assert!(store.run("fig2", "r4").is_some());
        assert_eq!(store.wal_stats().folds_total, 0, "every fold failed");
        // Each append's failed fold is counted, and the scrape shows it.
        assert_eq!(store.wal_stats().fold_failures_total, 2);
        let scrape = state.metrics().render(&state.service);
        assert!(scrape.contains("\nwfdiff_checkpoint_fold_failures_total 2\n"));

        let loaded = WorkflowStore::load_from_dir(&dir).unwrap();
        assert!(loaded.run("fig2", "r3").is_some() && loaded.run("fig2", "r4").is_some());
        // An explicit save still reports the error, and is not counted.
        assert!(store.save_to_dir(&dir).is_err());
        assert_eq!(store.wal_stats().fold_failures_total, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_fold_that_fails_to_rewrite_the_log_keeps_open_streams() {
        let io = InjectedWriteFailures { log_rewrites: true, ..Default::default() };
        let (dir, store, state) = persisted_state("fold-streams", Arc::new(io));
        store.set_wal_fold_threshold(0);
        let open = stream_body("fig2", "s1", branch_events("3")[..3].to_vec(), false);
        let (status, text) = route(&state, &request("POST", "/runs/stream", &open));
        assert_eq!(status, 200, "{text}");

        // The insert's append folds: the fold writes the run's document,
        // then fails to rewrite the log with the open stream's records.
        store.set_wal_fold_threshold(1);
        let body = insert_body("r3", &fig2_run3(&store.spec("fig2").unwrap()));
        let (status, text) = route(&state, &request("POST", "/runs", &body));
        assert_eq!(status, 201, "{text}");
        assert_eq!(store.wal_stats().folds_total, 0, "the fold failed");

        // The acknowledged stream events and the run survive a restart.
        let loaded = Arc::new(WorkflowStore::load_from_dir(&dir).unwrap());
        assert!(loaded.run("fig2", "r3").is_some());
        let restarted = DiffService::new(loaded);
        assert_eq!(restarted.load_streams(&dir).unwrap().loaded, 1);
        assert_eq!(restarted.stream_seq("fig2", "s1"), Some(3));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Passes every operation through to [`RealIo`] but fails one chosen
    /// append to, or fsync of, `wal.log`, and optionally every truncation of
    /// it; the failing append can write half its bytes first, and one append
    /// can wait for [`WalFaults::release`].
    #[derive(Debug, Default)]
    struct WalFaults {
        /// 1-based index of the append that fails (0: none).
        fail_append: usize,
        /// The failing append writes half its bytes first.
        torn: bool,
        /// 1-based index of the fsync that fails (0: none).
        fail_fsync: usize,
        /// 1-based index of the append that waits for a release (0: none).
        hold_append: usize,
        /// Every truncation of the log fails, so a failed append cannot be
        /// cut back.
        fail_truncate: bool,
        appends: std::sync::atomic::AtomicUsize,
        fsyncs: std::sync::atomic::AtomicUsize,
        released: std::sync::Mutex<bool>,
        release: std::sync::Condvar,
    }

    impl WalFaults {
        fn is_log(path: &Path) -> bool {
            path.file_name().is_some_and(|n| n == crate::wal::WAL_FILE)
        }

        /// Lets the held append go on.
        fn release(&self) {
            *self.released.lock().unwrap() = true;
            self.release.notify_all();
        }

        /// Waits until `n` appends to the log have started.
        fn await_appends(&self, n: usize) {
            while self.appends.load(std::sync::atomic::Ordering::SeqCst) < n {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
    }

    impl StoreIo for WalFaults {
        fn create_dir_all(&self, path: &Path) -> std::io::Result<()> {
            RealIo.create_dir_all(path)
        }
        fn write_file(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
            RealIo.write_file(path, bytes)
        }
        fn append_file(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
            if !Self::is_log(path) {
                return RealIo.append_file(path, bytes);
            }
            let n = self.appends.fetch_add(1, std::sync::atomic::Ordering::SeqCst) + 1;
            if n == self.hold_append {
                let mut released = self.released.lock().unwrap();
                while !*released {
                    released = self.release.wait(released).unwrap();
                }
            }
            if n != self.fail_append {
                return RealIo.append_file(path, bytes);
            }
            if self.torn {
                RealIo.append_file(path, &bytes[..bytes.len() / 2])?;
            }
            Err(std::io::Error::other("injected append failure"))
        }
        fn fsync_file(&self, path: &Path) -> std::io::Result<()> {
            let n = self
                .fsyncs
                .fetch_add(usize::from(Self::is_log(path)), std::sync::atomic::Ordering::SeqCst);
            if Self::is_log(path) && n + 1 == self.fail_fsync {
                return Err(std::io::Error::other("injected fsync failure"));
            }
            RealIo.fsync_file(path)
        }
        fn fsync_dir(&self, path: &Path) -> std::io::Result<()> {
            RealIo.fsync_dir(path)
        }
        fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
            RealIo.rename(from, to)
        }
        fn remove_file(&self, path: &Path) -> std::io::Result<()> {
            RealIo.remove_file(path)
        }
        fn remove_dir_all(&self, path: &Path) -> std::io::Result<()> {
            RealIo.remove_dir_all(path)
        }
        fn truncate_file(&self, path: &Path, len: u64) -> std::io::Result<()> {
            if self.fail_truncate && Self::is_log(path) {
                return Err(std::io::Error::other("injected truncate failure"));
            }
            RealIo.truncate_file(path, len)
        }
    }

    /// The directory as a restart finds it: the store and its open streams.
    fn reload(dir: &Path) -> (Arc<WorkflowStore>, DiffService, crate::StreamLoadReport) {
        let store = Arc::new(WorkflowStore::load_from_dir(dir).unwrap());
        let service = DiffService::new(Arc::clone(&store));
        let report = service.load_streams(dir).unwrap();
        (store, service, report)
    }

    fn post_run(state: &AppState, name: &str) -> u16 {
        let spec = state.service.store().spec("fig2").unwrap();
        route(state, &request("POST", "/runs", &insert_body(name, &fig2_run3(&spec)))).0
    }

    #[test]
    fn posting_a_run_under_an_open_streams_name_closes_the_stream() {
        let (dir, store, state) = persisted_state("post-closes-stream", Arc::new(RealIo));
        let open = stream_body("fig2", "s1", branch_events("3")[..3].to_vec(), false);
        assert_eq!(route(&state, &request("POST", "/runs/stream", &open)).0, 200);
        assert_eq!(post_run(&state, "s1"), 201);
        assert!(store.run("fig2", "s1").is_some());
        assert_eq!(state.service.stream_seq("fig2", "s1"), None);
        let (status, body) = route(&state, &request("GET", "/runs/fig2/s1/drift", ""));
        assert_eq!(status, 404, "{body}");
        // A restart finds the run and no stream: the run's record closes it.
        let (reloaded, service, report) = reload(&dir);
        assert!(reloaded.run("fig2", "s1").is_some());
        assert_eq!((report.loaded, report.closed), (0, 1));
        assert_eq!(service.stream_seq("fig2", "s1"), None);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn an_over_bound_finalization_answers_413_and_keeps_the_stream() {
        use crate::wal::{self, WalRecord};
        let (dir, store, state) = persisted_state("over-bound-stream", Arc::new(RealIo));
        let events = branch_events("3");
        let (head, tail) = events.split_at(3);
        let open = stream_body("fig2", "s1", head.to_vec(), false);
        assert_eq!(route(&state, &request("POST", "/runs/stream", &open)).0, 200);

        // The finalising batch is one append: a record per event, the run's
        // insert record and the closure marker.  Lower the bound to the
        // longest event record, below the run's.
        let spec = store.spec("fig2").unwrap();
        let fp = store.persistent_fp_for_append(&dir, &spec).unwrap();
        let longest = |records: &[WalRecord]| {
            let encoded = wal::encode_all(&dir, records).unwrap();
            encoded.iter().map(|(_, payload)| 1 + payload.len()).max().unwrap()
        };
        let mut partial = crate::stream::PartialRun::new(Arc::clone(&spec));
        events.iter().for_each(|event| partial.apply(event).unwrap());
        let run_len = longest(&[WalRecord::run_insert(&fp, "s1", &partial.finalize().unwrap())]);
        let events_len = longest(&wal::stream_records("fig2", &fp, "s1", 3, tail.iter().map(Some)));
        assert!(run_len > events_len);
        let bound = wal::tests::lower_record_bound(events_len as u32);

        let log_before = std::fs::read(wal::wal_path(&dir)).unwrap();
        let finish = stream_body("fig2", "s1", tail.to_vec(), true);
        let (status, body) = route(&state, &request("POST", "/runs/stream", &finish));
        assert_eq!(status, 413, "{body}");
        let error: ErrorBody = serde_json::from_str(&body).unwrap();
        assert_eq!(error.kind, "record_too_large");
        // The stream is as it was, no run is stored, and the log is unchanged.
        assert_eq!(state.service.stream_seq("fig2", "s1"), Some(3));
        assert!(store.run("fig2", "s1").is_none());
        assert_eq!(std::fs::read(wal::wal_path(&dir)).unwrap(), log_before);

        // The store still writes: under the real bound the batch finalises.
        drop(bound);
        let (status, body) = route(&state, &request("POST", "/runs/stream", &finish));
        assert_eq!(status, 201, "{body}");
        assert!(reload(&dir).0.run("fig2", "s1").is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn kmedoids_refreshes_after_writes_leave_the_log_to_the_writes() {
        let (dir, store, state) = persisted_state("cluster-cycles", Arc::new(RealIo));
        assert_eq!(store.wal_fold_threshold(), crate::store::DEFAULT_WAL_FOLD_THRESHOLD);
        let spec = store.spec("fig2").unwrap();
        let shapes = [fig2_run1(&spec), fig2_run2(&spec), fig2_run3(&spec)];
        let mut partition = Vec::new();
        for cycle in 0..20 {
            let appends = store.wal_stats().appends_total;
            let insert = insert_body(&format!("c{cycle:02}"), &shapes[cycle % 3]);
            let response = dispatch(&state, &request("POST", "/runs", &insert));
            assert_eq!(response.status, 201, "{}", response.body);
            let kmedoids = request("GET", "/cluster?spec=fig2&algo=kmedoids&k=2", "");
            let response = dispatch(&state, &kmedoids);
            assert_eq!(response.status, 200, "{}", response.body);
            let out: KMedoidsResponse = serde_json::from_str(&response.body).unwrap();
            assert!(out.persisted, "cycle {cycle}: the clustering was checkpointed");
            let appended = store.wal_stats().appends_total - appends;
            assert_eq!(appended, 1, "cycle {cycle}: one append, the insert's");
            partition = out.clusters.into_iter().map(|c| c.runs).collect();
        }
        assert_eq!(store.wal_stats().folds_total, 0);
        let summary = crate::wal::inspect(&dir).unwrap();
        assert_eq!((summary.records, summary.run_inserts), (20, 20));

        // A restart resumes the last clustering from the file.
        let (reloaded, service, _) = reload(&dir);
        assert_eq!(reloaded.run_count(), 22);
        let report = service.load_cluster_state(&dir);
        assert_eq!((report.loaded, report.stale), (1, 0));
        assert_eq!(service.cluster_index().snapshot("fig2").unwrap().partition(), partition);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_write_that_cannot_be_cut_back_answers_503_and_may_survive_a_reload() {
        // The append lands whole, its fsync fails, and the cut back fails.
        let io = Arc::new(WalFaults { fail_fsync: 1, fail_truncate: true, ..Default::default() });
        let (dir, store, state) = persisted_state("outcome-unknown", io);
        let spec = store.spec("fig2").unwrap();
        let insert = insert_body("r3", &fig2_run3(&spec));
        let response = dispatch(&state, &request("POST", "/runs", &insert));
        assert_eq!(response.status, 503, "{}", response.body);
        let error: ErrorBody = serde_json::from_str(&response.body).unwrap();
        assert_eq!(error.kind, "outcome_unknown");
        assert!(store.run("fig2", "r3").is_none(), "the write is not published");

        // Later writes are refused with a definite answer ...
        let later = insert_body("r4", &fig2_run1(&spec));
        let (status, body) = route(&state, &request("POST", "/runs", &later));
        assert_eq!(status, 500, "{body}");
        assert_eq!(serde_json::from_str::<ErrorBody>(&body).unwrap().kind, "persist_failed");
        // ... and a reload holds the write whose outcome was unknown.
        let (reloaded, _, _) = reload(&dir);
        assert!(reloaded.run("fig2", "r3").is_some());
        assert!(reloaded.run("fig2", "r4").is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_run_whose_fsync_fails_is_in_neither_memory_nor_the_reload() {
        let io = Arc::new(WalFaults { fail_fsync: 1, ..Default::default() });
        let (dir, store, state) = persisted_state("fsync-fails", io);
        assert_eq!(post_run(&state, "r3"), 500);
        assert!(store.run("fig2", "r3").is_none());
        assert!(reload(&dir).0.run("fig2", "r3").is_none(), "the refused run stays refused");
        // The failed append was cut back, so the log takes the next write.
        assert_eq!(post_run(&state, "r4"), 201);
        assert!(reload(&dir).0.run("fig2", "r4").is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_torn_append_is_cut_back_and_the_next_run_survives_a_reload() {
        let io = Arc::new(WalFaults { fail_append: 1, torn: true, ..Default::default() });
        let (dir, store, state) = persisted_state("torn-append", io);
        assert_eq!(post_run(&state, "r3"), 500);
        assert_eq!(post_run(&state, "r4"), 201);
        assert!(store.run("fig2", "r3").is_none() && store.run("fig2", "r4").is_some());
        assert_eq!(crate::wal::inspect(&dir).unwrap().torn_bytes, 0, "no torn tail is left");
        let (reloaded, _, _) = reload(&dir);
        assert!(reloaded.run("fig2", "r3").is_none());
        assert!(reloaded.run("fig2", "r4").is_some(), "the acknowledged run is durable");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_stream_close_that_cannot_be_written_answers_500_and_keeps_the_stream() {
        let io = Arc::new(WalFaults { fail_append: 2, ..Default::default() });
        let (dir, _, state) = persisted_state("close-fails", io);
        let open = stream_body("fig2", "stuck", branch_events("3")[..3].to_vec(), false);
        assert_eq!(route(&state, &request("POST", "/runs/stream", &open)).0, 200);
        let (status, body) = route(&state, &request("DELETE", "/runs/fig2/stuck/stream", ""));
        assert_eq!(status, 500, "{body}");
        let service = &state.service;
        assert_eq!(service.stream_seq("fig2", "stuck"), Some(3), "the stream stays open");
        let (_, reloaded, report) = reload(&dir);
        assert_eq!((report.loaded, reloaded.stream_seq("fig2", "stuck")), (1, Some(3)));
        // The retry closes it for good.
        let (status, _) = route(&state, &request("DELETE", "/runs/fig2/stuck/stream", ""));
        assert_eq!(status, 200);
        assert!(service.stream_seq("fig2", "stuck").is_none());
        assert_eq!(reload(&dir).2.loaded, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_batch_behind_a_failed_append_never_sees_the_refused_events() {
        // The opening batch's append waits, then fails; the next batch is
        // sent while it waits.
        let io = Arc::new(WalFaults { fail_append: 1, hold_append: 1, ..Default::default() });
        let (dir, _, state) = persisted_state("batch-race", Arc::clone(&io) as Arc<dyn StoreIo>);
        let state = Arc::new(state);
        let events = branch_events("3");
        let send = |batch: Vec<StreamEvent>| {
            let state = Arc::clone(&state);
            let body = stream_body("fig2", "s1", batch, false);
            std::thread::spawn(move || route(&state, &request("POST", "/runs/stream", &body)))
        };
        let first = send(events[..2].to_vec());
        io.await_appends(1);
        let second = send(events[2..4].to_vec());
        // The second request waits for `save_lock` whatever the timing; the
        // pause lets a server that published before appending run ahead.
        std::thread::sleep(std::time::Duration::from_millis(200));
        io.release();
        let (first, second) = (first.join().unwrap(), second.join().unwrap());
        assert_eq!(first.0, 500, "{}", first.1);
        // The second batch continues a stream that never opened.
        assert_eq!(second.0, 400, "{}", second.1);
        let service = &state.service;
        assert!(service.stream_seq("fig2", "s1").is_none(), "no refused event is in memory");
        let (_, _, report) = reload(&dir);
        assert_eq!((report.loaded, report.skipped), (0, 0), "nor on disk");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_fold_by_another_writer_never_checkpoints_a_refused_run() {
        // r4's append waits while r3 is posted, then succeeds and folds;
        // r3's append fails after that fold.
        let io = Arc::new(WalFaults { fail_append: 2, hold_append: 1, ..Default::default() });
        let (dir, store, state) = persisted_state("fold-race", Arc::clone(&io) as Arc<dyn StoreIo>);
        store.set_wal_fold_threshold(1);
        let state = Arc::new(state);
        let post = |name: &'static str| {
            let state = Arc::clone(&state);
            std::thread::spawn(move || post_run(&state, name))
        };
        let folding = post("r4");
        io.await_appends(1);
        let refused = post("r3");
        // As above: the pause only lets a server that publishes first
        // expose r3 to the fold.
        std::thread::sleep(std::time::Duration::from_millis(200));
        io.release();
        assert_eq!((folding.join().unwrap(), refused.join().unwrap()), (201, 500));
        assert_eq!(store.wal_stats().folds_total, 1, "the first writer folded");
        assert!(store.run("fig2", "r4").is_some() && store.run("fig2", "r3").is_none());
        let (reloaded, _, _) = reload(&dir);
        assert!(reloaded.run("fig2", "r4").is_some());
        assert!(reloaded.run("fig2", "r3").is_none(), "the refused run is not checkpointed");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn metrics_dispatch_serves_text_and_rejects_post() {
        let state = state();
        let _ = route(&state, &request("GET", "/diff?spec=fig2&a=r1&b=r2", ""));
        let response = dispatch(&state, &request("GET", "/metrics", ""));
        assert_eq!(response.status, 200);
        assert_eq!(response.content_type, METRICS_CONTENT_TYPE);
        assert!(response.body.contains("# TYPE wfdiff_http_requests_total counter"));
        assert!(response.body.contains("\nwfdiff_store_runs 2\n"));
        let response = dispatch(&state, &request("POST", "/metrics", ""));
        assert_eq!(response.status, 405);
        assert_eq!(response.content_type, "application/json");
    }
}
