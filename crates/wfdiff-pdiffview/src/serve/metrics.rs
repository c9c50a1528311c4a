//! Lock-cheap serving metrics and their Prometheus text rendering.
//!
//! Every instrument is a fixed-size atomic (a latency histogram, a fixed
//! bucket array) held in an array indexed by a small enum, so recording
//! costs a few relaxed atomic adds and never locks or allocates.
//! Each metric family is declared once, as one table row (name, type,
//! sample source and so labels, HELP text); [`ServeMetrics::render`] walks
//! the table on `GET /metrics`.  `docs/OPERATIONS.md` documents every family.

use crate::service::DiffService;
use crate::wal::WalStatsSnapshot;
use std::fmt::{Display, Write as _};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::time::Duration;
use wfdiff_core::CacheStats;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can go up and down.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Sets the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Subtracts one.
    pub fn dec(&self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// The histogram bucket boundaries: upper bounds in seconds (as rendered in
/// the `le` label) paired with the same bound in integer microseconds (what
/// observations are compared against).  A `+Inf` bucket is implicit.
pub const LATENCY_BUCKETS: [(&str, u64); 17] = [
    ("0.00001", 10),
    ("0.000025", 25),
    ("0.00005", 50),
    ("0.0001", 100),
    ("0.00025", 250),
    ("0.0005", 500),
    ("0.001", 1_000),
    ("0.0025", 2_500),
    ("0.005", 5_000),
    ("0.01", 10_000),
    ("0.025", 25_000),
    ("0.05", 50_000),
    ("0.1", 100_000),
    ("0.25", 250_000),
    ("0.5", 500_000),
    ("1", 1_000_000),
    ("2.5", 2_500_000),
];

/// A fixed-bucket latency histogram (Prometheus `histogram` type: cumulative
/// `_bucket` samples plus `_sum` and `_count`).
///
/// Observations are recorded in microseconds; `_sum` is rendered in seconds.
#[derive(Debug, Default)]
pub struct Histogram {
    buckets: [Counter; LATENCY_BUCKETS.len()],
    sum_micros: Counter,
    count: Counter,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one observation.
    pub fn observe(&self, elapsed: Duration) {
        let micros = u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX);
        for (i, (_, bound)) in LATENCY_BUCKETS.iter().enumerate() {
            if micros <= *bound {
                self.buckets[i].inc();
                break;
            }
        }
        self.sum_micros.add(micros);
        self.count.inc();
    }

    /// Total observation count.
    pub fn count(&self) -> u64 {
        self.count.get()
    }

    /// Sum of all observations, in seconds.
    pub fn sum_seconds(&self) -> f64 {
        self.sum_micros.get() as f64 / 1_000_000.0
    }

    /// Cumulative count at or below bucket `i` of [`LATENCY_BUCKETS`].
    pub fn cumulative(&self, i: usize) -> u64 {
        self.buckets[..=i].iter().map(Counter::get).sum()
    }
}

/// The endpoints the server distinguishes, for routing and in per-endpoint
/// metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// `GET /healthz`.
    Healthz,
    /// `GET /specs`.
    Specs,
    /// `GET /specs/{name}/runs`.
    SpecRuns,
    /// `POST /runs`.
    InsertRun,
    /// `GET /diff`.
    Diff,
    /// `POST /diff/batch`.
    DiffBatch,
    /// `GET /cluster` (both `prefix` and `kmedoids`).
    Cluster,
    /// `GET /similar`.
    Similar,
    /// `POST /runs/stream`.
    RunsStream,
    /// `GET /runs/{spec}/{stream}/drift`.
    Drift,
    /// `DELETE /runs/{spec}/{stream}/stream`.
    CloseStream,
    /// `GET /metrics`.
    Metrics,
    /// Anything else (404s, unknown paths).
    Other,
}

/// Every endpoint, in rendering order (must match the enum's declaration
/// order — [`ServeMetrics::observe_request`] indexes by discriminant).
pub const ENDPOINTS: [Endpoint; 13] = [
    Endpoint::Healthz,
    Endpoint::Specs,
    Endpoint::SpecRuns,
    Endpoint::InsertRun,
    Endpoint::Diff,
    Endpoint::DiffBatch,
    Endpoint::Cluster,
    Endpoint::Similar,
    Endpoint::RunsStream,
    Endpoint::Drift,
    Endpoint::CloseStream,
    Endpoint::Metrics,
    Endpoint::Other,
];

/// A classified request path: the endpoint its shape names and the path
/// segments the shape captures.  Compares equal to its [`Endpoint`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Route<'a> {
    /// The endpoint the path shape names.
    pub endpoint: Endpoint,
    /// `{name}` of `/specs/{name}/runs` or `{spec}` of
    /// `/runs/{spec}/{stream}/…`; empty for other shapes.
    pub spec: &'a str,
    /// `{stream}` of `/runs/{spec}/{stream}/…`; empty for other shapes.
    pub stream: &'a str,
}

impl PartialEq<Endpoint> for Route<'_> {
    fn eq(&self, other: &Endpoint) -> bool {
        self.endpoint == *other
    }
}

impl Endpoint {
    /// The `endpoint` label value.
    pub fn label(self) -> &'static str {
        match self {
            Endpoint::Healthz => "healthz",
            Endpoint::Specs => "specs",
            Endpoint::SpecRuns => "spec_runs",
            Endpoint::InsertRun => "insert_run",
            Endpoint::Diff => "diff",
            Endpoint::DiffBatch => "diff_batch",
            Endpoint::Cluster => "cluster",
            Endpoint::Similar => "similar",
            Endpoint::RunsStream => "runs_stream",
            Endpoint::Drift => "drift",
            Endpoint::CloseStream => "close_stream",
            Endpoint::Metrics => "metrics",
            Endpoint::Other => "other",
        }
    }

    /// Classifies a request by its path segments: the server's only table
    /// of path shapes.  The mapping is by *shape*, not method or outcome,
    /// so a `405` on `/healthz` still counts against `healthz`.
    pub fn classify<'a>(segments: &[&'a str]) -> Route<'a> {
        let (endpoint, spec, stream) = match *segments {
            ["healthz"] => (Endpoint::Healthz, "", ""),
            ["specs"] => (Endpoint::Specs, "", ""),
            ["specs", name, "runs"] => (Endpoint::SpecRuns, name, ""),
            ["runs"] => (Endpoint::InsertRun, "", ""),
            ["runs", "stream"] => (Endpoint::RunsStream, "", ""),
            ["runs", spec, stream, "drift"] => (Endpoint::Drift, spec, stream),
            ["runs", spec, stream, "stream"] => (Endpoint::CloseStream, spec, stream),
            ["diff"] => (Endpoint::Diff, "", ""),
            ["diff", "batch"] => (Endpoint::DiffBatch, "", ""),
            ["cluster"] => (Endpoint::Cluster, "", ""),
            ["similar"] => (Endpoint::Similar, "", ""),
            ["metrics"] => (Endpoint::Metrics, "", ""),
            _ => (Endpoint::Other, "", ""),
        };
        Route { endpoint, spec, stream }
    }
}

/// The status-class label values of `wfdiff_http_requests_total`.
pub const STATUS_CLASSES: [&str; 3] = ["2xx", "4xx", "5xx"];

/// Maps a status code to its index in [`STATUS_CLASSES`].
fn status_class(status: u16) -> usize {
    match status / 100 {
        2 | 3 => 0,
        4 => 1,
        _ => 2,
    }
}

/// Server-wide counters, indexing [`ServeMetrics::counter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerCounter {
    /// Bytes read off client sockets.
    BytesRead,
    /// Bytes written to client sockets.
    BytesWritten,
    /// Connections accepted.
    ConnectionsOpened,
    /// Connections closed (any reason).
    ConnectionsClosed,
    /// Connections refused with `503` because the connection table was full.
    ConnectionsRejected,
    /// Edit-distance evaluations performed by `GET /similar` queries.
    SimilarDistanceEvals,
    /// Node-lifecycle events accepted by `POST /runs/stream`.
    StreamEvents,
    /// `drifted: true` verdicts returned by the streaming and drift endpoints.
    DriftFlags,
}

/// Server-wide gauges, indexing [`ServeMetrics::gauge`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerGauge {
    /// Currently open connections.
    ConnectionsActive,
    /// Requests parsed and not yet answered (executing on a worker).
    RequestsInFlight,
    /// Configured HTTP worker count (set once at start).
    Workers,
    /// HTTP workers currently executing a handler.
    WorkersBusy,
}

/// The store's and the diff service's figures, read once per scrape so that
/// families drawn from one snapshot (the diff cache's, the WAL's) agree with
/// each other.
struct StoreSample {
    workers: usize,
    specs: usize,
    runs: usize,
    cache: CacheStats,
    wal: WalStatsSnapshot,
}

/// Where a family's samples come from; the source also fixes the label
/// names its samples carry.
#[derive(Clone, Copy)]
enum Source {
    /// Requests per endpoint and status class.
    Requests,
    /// Request latency per endpoint.
    Latency,
    /// A server-wide counter.
    Count(ServerCounter),
    /// A server-wide gauge.
    Level(ServerGauge),
    /// The cluster-index update latency.
    ClusterUpdate,
    /// One figure of the [`StoreSample`].
    Store(fn(&StoreSample) -> u64),
}

impl Source {
    /// Label names, in the order samples carry them (a histogram's bucket
    /// samples add `le`).
    fn labels(self) -> &'static [&'static str] {
        match self {
            Requests => &["endpoint", "code"],
            Latency => &["endpoint"],
            _ => &[],
        }
    }
}

/// One metric family's declaration: name, Prometheus type (`counter`,
/// `gauge` or `histogram`), the source of its samples (which also fixes
/// their label names) and HELP text.
struct Family {
    name: &'static str,
    kind: &'static str,
    source: Source,
    help: &'static str,
}

const fn family(name: &'static str, kind: &'static str, source: Source) -> Family {
    Family { name, kind, source, help: "" }
}

use ServerCounter::*;
use ServerGauge::*;
use Source::*;

/// Every metric family, in rendering order.
const FAMILIES: [Family; 28] = [
    family("wfdiff_http_requests_total", "counter", Requests)
        .help("Requests served, by endpoint and status class."),
    family("wfdiff_http_request_duration_seconds", "histogram", Latency).help(
        "Request latency from the readiness event that delivered the request to its \
         response being rendered, by endpoint.",
    ),
    family("wfdiff_http_bytes_read_total", "counter", Count(BytesRead))
        .help("Bytes read off client sockets."),
    family("wfdiff_http_bytes_written_total", "counter", Count(BytesWritten))
        .help("Bytes written to client sockets."),
    family("wfdiff_http_connections_opened_total", "counter", Count(ConnectionsOpened))
        .help("Connections accepted."),
    family("wfdiff_http_connections_closed_total", "counter", Count(ConnectionsClosed))
        .help("Connections closed."),
    family("wfdiff_http_connections_rejected_total", "counter", Count(ConnectionsRejected))
        .help("Connections answered 503 because the connection table was full."),
    family("wfdiff_similar_distance_evals_total", "counter", Count(SimilarDistanceEvals))
        .help("Edit-distance evaluations performed by GET /similar queries."),
    family("wfdiff_stream_events_total", "counter", Count(StreamEvents))
        .help("Node-lifecycle events accepted by POST /runs/stream."),
    family("wfdiff_drift_flags_total", "counter", Count(DriftFlags))
        .help("Drift verdicts returned by streaming and drift endpoints."),
    family("wfdiff_http_connections_active", "gauge", Level(ConnectionsActive))
        .help("Currently open connections."),
    family("wfdiff_http_requests_in_flight", "gauge", Level(RequestsInFlight))
        .help("Requests parsed and not yet answered."),
    family("wfdiff_http_workers", "gauge", Level(Workers)).help("Configured HTTP worker threads."),
    family("wfdiff_http_workers_busy", "gauge", Level(WorkersBusy))
        .help("HTTP workers currently executing a handler."),
    family("wfdiff_cluster_update_duration_seconds", "histogram", ClusterUpdate)
        .help("Incremental cluster-index update latency per inserted run (recluster lag)."),
    family("wfdiff_diff_workers", "gauge", Store(|s| s.workers as u64))
        .help("Diff-engine worker threads."),
    family("wfdiff_store_specs", "gauge", Store(|s| s.specs as u64)).help("Specifications stored."),
    family("wfdiff_store_runs", "gauge", Store(|s| s.runs as u64)).help("Runs stored."),
    family("wfdiff_diff_cache_hits_total", "counter", Store(|s| s.cache.hits))
        .help("Diff-cache hits."),
    family("wfdiff_diff_cache_misses_total", "counter", Store(|s| s.cache.misses))
        .help("Diff-cache misses."),
    family("wfdiff_diff_cache_insertions_total", "counter", Store(|s| s.cache.insertions))
        .help("Diff-cache insertions."),
    family("wfdiff_diff_cache_evictions_total", "counter", Store(|s| s.cache.evictions))
        .help("Diff-cache evictions."),
    family("wfdiff_diff_cache_entries", "gauge", Store(|s| s.cache.entries as u64))
        .help("Diff-cache resident entries."),
    family("wfdiff_wal_appends_total", "counter", Store(|s| s.wal.appends_total))
        .help("Write-ahead-log records appended."),
    family("wfdiff_wal_bytes", "gauge", Store(|s| s.wal.bytes))
        .help("Write-ahead-log bytes pending a fold."),
    family("wfdiff_wal_replayed_records", "gauge", Store(|s| s.wal.replayed_records))
        .help("Write-ahead-log records replayed at the last load."),
    family("wfdiff_checkpoint_folds_total", "counter", Store(|s| s.wal.folds_total))
        .help("Checkpoints that folded the write-ahead log into the manifest."),
    family(
        "wfdiff_checkpoint_fold_failures_total",
        "counter",
        Store(|s| s.wal.fold_failures_total),
    )
    .help("Automatic checkpoint folds that failed."),
];

impl Family {
    const fn help(self, help: &'static str) -> Family {
        Family { help, ..self }
    }

    /// Writes one sample line, `name{label="value",…} value`, pairing the
    /// source's label names (then `le`) with `values`.
    fn sample(&self, out: &mut String, suffix: &str, values: &[&str], value: impl Display) {
        let names = self.source.labels().iter().chain(&["le"]);
        let _ = write!(out, "{}{suffix}", self.name);
        for (i, (k, v)) in names.zip(values).enumerate() {
            let _ = write!(out, "{}{k}=\"{v}\"", if i == 0 { '{' } else { ',' });
        }
        let _ = writeln!(out, "{} {value}", if values.is_empty() { "" } else { "}" });
    }

    /// Writes a histogram's cumulative buckets (`values` plus `le`), `_sum`
    /// and `_count`.
    fn histogram(&self, out: &mut String, values: &[&str], h: &Histogram) {
        for (b, (le, _)) in LATENCY_BUCKETS.iter().enumerate() {
            self.sample(out, "_bucket", &[values, &[le]].concat(), h.cumulative(b));
        }
        self.sample(out, "_bucket", &[values, &["+Inf"]].concat(), h.count());
        self.sample(out, "_sum", values, h.sum_seconds());
        self.sample(out, "_count", values, h.count());
    }
}

/// The server's metrics registry.  One instance per [`Server`]; shared
/// (behind an `Arc`) between the HTTP workers and the handlers.
///
/// [`Server`]: crate::serve::Server
#[derive(Debug, Default)]
pub struct ServeMetrics {
    requests: [[Counter; STATUS_CLASSES.len()]; ENDPOINTS.len()],
    latency: [Histogram; ENDPOINTS.len()],
    counters: [Counter; ServerCounter::DriftFlags as usize + 1],
    gauges: [Gauge; ServerGauge::WorkersBusy as usize + 1],
    cluster_update: Histogram,
}

impl ServeMetrics {
    /// Records one completed request.
    pub fn observe_request(&self, endpoint: Endpoint, status: u16, elapsed: Duration) {
        self.requests[endpoint as usize][status_class(status)].inc();
        self.latency[endpoint as usize].observe(elapsed);
    }

    /// Records one incremental cluster-index update (the recluster lag a
    /// `POST /runs` pays to keep clustering fresh).
    pub fn observe_cluster_update(&self, elapsed: Duration) {
        self.cluster_update.observe(elapsed);
    }

    /// A server-wide counter.
    pub fn counter(&self, c: ServerCounter) -> &Counter {
        &self.counters[c as usize]
    }

    /// A server-wide gauge.
    pub fn gauge(&self, g: ServerGauge) -> &Gauge {
        &self.gauges[g as usize]
    }

    /// Renders every family in the Prometheus text exposition format,
    /// sampling the live state of `service` and its store (store sizes,
    /// diff-cache and WAL counters, diff-worker count) once, at scrape time.
    pub fn render(&self, service: &DiffService) -> String {
        let store = StoreSample {
            workers: service.threads(),
            specs: service.store().spec_names().len(),
            runs: service.store().run_count(),
            cache: service.cache_stats(),
            wal: service.wal_stats(),
        };
        let mut out = String::with_capacity(8 * 1024);
        for family in &FAMILIES {
            let Family { name, kind, source, help } = family;
            let _ = write!(out, "# HELP {name} {help}\n# TYPE {name} {kind}\n");
            let m = &mut out;
            match *source {
                Requests => {
                    for (ep, counters) in ENDPOINTS.iter().zip(&self.requests) {
                        for (class, c) in STATUS_CLASSES.iter().zip(counters) {
                            family.sample(m, "", &[ep.label(), class], c.get());
                        }
                    }
                }
                Latency => {
                    for (ep, h) in ENDPOINTS.iter().zip(&self.latency) {
                        family.histogram(m, &[ep.label()], h);
                    }
                }
                Count(c) => family.sample(m, "", &[], self.counter(c).get()),
                Level(g) => family.sample(m, "", &[], self.gauge(g).get()),
                ClusterUpdate => family.histogram(m, &[], &self.cluster_update),
                Store(figure) => family.sample(m, "", &[], figure(&store)),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_cumulative_and_ordered() {
        let h = Histogram::new();
        h.observe(Duration::from_micros(80)); // <= 100µs bucket (index 3)
        h.observe(Duration::from_micros(300)); // <= 500µs bucket (index 5)
        h.observe(Duration::from_secs(10)); // +Inf only
        assert_eq!(h.count(), 3);
        assert_eq!(h.cumulative(3), 1);
        assert_eq!(h.cumulative(4), 1);
        assert_eq!(h.cumulative(5), 2);
        assert_eq!(h.cumulative(LATENCY_BUCKETS.len() - 1), 2, "+Inf-only sample not in a bucket");
        let mut prev = 0;
        for i in 0..LATENCY_BUCKETS.len() {
            let c = h.cumulative(i);
            assert!(c >= prev, "bucket {i} is not cumulative");
            prev = c;
        }
        assert!(h.sum_seconds() > 10.0);
    }

    #[test]
    fn sub_100us_latencies_land_in_their_own_buckets() {
        let h = Histogram::new();
        for micros in [0, 10, 11, 25, 26, 50, 51, 100] {
            h.observe(Duration::from_micros(micros));
        }
        // Cumulative counts at the 10, 25, 50 and 100 µs bounds.
        let cumulative: Vec<u64> = (0..4).map(|i| h.cumulative(i)).collect();
        assert_eq!(cumulative, vec![2, 4, 6, 8]);
        // Each `le` label states its bound, and bounds ascend.
        for (le, micros) in LATENCY_BUCKETS {
            let seconds: f64 = le.parse().unwrap();
            assert_eq!((seconds * 1e6).round() as u64, micros, "label {le}");
        }
        assert!(LATENCY_BUCKETS.windows(2).all(|w| w[0].1 < w[1].1));
    }

    #[test]
    fn endpoint_classification_matches_the_route_table() {
        assert_eq!(Endpoint::classify(&["healthz"]), Endpoint::Healthz);
        assert_eq!(Endpoint::classify(&["specs"]), Endpoint::Specs);
        assert_eq!(Endpoint::classify(&["specs", "x", "runs"]), Endpoint::SpecRuns);
        assert_eq!(Endpoint::classify(&["runs"]), Endpoint::InsertRun);
        assert_eq!(Endpoint::classify(&["runs", "stream"]), Endpoint::RunsStream);
        assert_eq!(Endpoint::classify(&["runs", "fig2", "s1", "drift"]), Endpoint::Drift);
        assert_eq!(Endpoint::classify(&["runs", "fig2", "s1", "stream"]), Endpoint::CloseStream);
        assert_eq!(Endpoint::classify(&["diff"]), Endpoint::Diff);
        assert_eq!(Endpoint::classify(&["diff", "batch"]), Endpoint::DiffBatch);
        assert_eq!(Endpoint::classify(&["cluster"]), Endpoint::Cluster);
        assert_eq!(Endpoint::classify(&["similar"]), Endpoint::Similar);
        assert_eq!(Endpoint::classify(&["metrics"]), Endpoint::Metrics);
        assert_eq!(Endpoint::classify(&["nope"]), Endpoint::Other);
        assert_eq!(Endpoint::classify(&[]), Endpoint::Other);
    }

    #[test]
    fn endpoints_array_matches_declaration_order() {
        for (i, ep) in ENDPOINTS.iter().enumerate() {
            assert_eq!(*ep as usize, i, "ENDPOINTS[{i}] is {}", ep.label());
        }
    }

    #[test]
    fn classification_captures_the_path_parameters() {
        let route = Endpoint::classify(&["specs", "fig2", "runs"]);
        assert_eq!((route.endpoint, route.spec, route.stream), (Endpoint::SpecRuns, "fig2", ""));
        let route = Endpoint::classify(&["runs", "fig2", "s1", "drift"]);
        assert_eq!((route.endpoint, route.spec, route.stream), (Endpoint::Drift, "fig2", "s1"));
        let route = Endpoint::classify(&["runs", "fig2", "s1", "stream"]);
        assert_eq!((route.spec, route.stream), ("fig2", "s1"));
        let route = Endpoint::classify(&["diff"]);
        assert_eq!((route.spec, route.stream), ("", ""));
    }

    #[test]
    fn every_family_is_declared_once_and_every_instrument_rendered() {
        let mut names: Vec<&str> = FAMILIES.iter().map(|f| f.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), FAMILIES.len(), "a family name is declared twice");
        let (mut counters, mut gauges) = (Vec::new(), Vec::new());
        for family in &FAMILIES {
            match family.source {
                Count(c) => counters.push(c as usize),
                Level(g) => gauges.push(g as usize),
                _ => {}
            }
        }
        counters.sort_unstable();
        gauges.sort_unstable();
        let metrics = ServeMetrics::default();
        assert_eq!(counters, (0..metrics.counters.len()).collect::<Vec<_>>());
        assert_eq!(gauges, (0..metrics.gauges.len()).collect::<Vec<_>>());
    }

    #[test]
    fn status_classes_cover_every_emitted_status() {
        assert_eq!(status_class(200), 0);
        assert_eq!(status_class(201), 0);
        assert_eq!(status_class(404), 1);
        assert_eq!(status_class(500), 2);
        assert_eq!(status_class(503), 2);
    }
}
