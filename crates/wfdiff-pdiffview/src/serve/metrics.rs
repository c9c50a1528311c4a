//! Lock-cheap serving metrics and their Prometheus text rendering.
//!
//! Every instrument is a fixed-size atomic — counters and gauges are single
//! `AtomicU64`/`AtomicI64` cells, latency histograms are a fixed bucket
//! array — so the hot path (one request) costs a handful of relaxed atomic
//! adds and never takes a lock or allocates.  The registry itself is static:
//! the full set of series is known at construction time (endpoints are an
//! enum, shards are counted at boot), which is what keeps recording
//! allocation-free.
//!
//! Rendering happens only on `GET /metrics`: [`ServeMetrics::render`] walks
//! the instruments **and** samples live per-shard state (store sizes, diff
//! cache counters) from the [`ShardRouter`], emitting the Prometheus text
//! exposition format (`# HELP`/`# TYPE` comment lines followed by every
//! sample of that metric).  See `docs/OPERATIONS.md` for the metric-by-metric
//! reference.

use super::shard::ShardRouter;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::time::Duration;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Creates a counter at zero.
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

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
    /// Creates a gauge at zero.
    pub const fn new() -> Self {
        Gauge(AtomicI64::new(0))
    }

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

/// The endpoints the server distinguishes in per-endpoint metrics.
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

    /// Classifies a request by method and path segments.  The mapping is by
    /// *path shape* (not outcome), so a `405` on `/healthz` still counts
    /// against `healthz`.
    pub fn classify(segments: &[&str]) -> Endpoint {
        match segments {
            ["healthz"] => Endpoint::Healthz,
            ["specs"] => Endpoint::Specs,
            ["specs", _, "runs"] => Endpoint::SpecRuns,
            ["runs"] => Endpoint::InsertRun,
            ["runs", "stream"] => Endpoint::RunsStream,
            ["runs", _, _, "drift"] => Endpoint::Drift,
            ["runs", _, _, "stream"] => Endpoint::CloseStream,
            ["diff"] => Endpoint::Diff,
            ["diff", "batch"] => Endpoint::DiffBatch,
            ["cluster"] => Endpoint::Cluster,
            ["similar"] => Endpoint::Similar,
            ["metrics"] => Endpoint::Metrics,
            _ => Endpoint::Other,
        }
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

/// Per-endpoint instruments: request counters by status class and a latency
/// histogram.
#[derive(Debug, Default)]
struct EndpointMetrics {
    requests: [Counter; STATUS_CLASSES.len()],
    latency: Histogram,
}

/// The server's metrics registry.  One instance per [`Server`]; shared
/// (behind an `Arc`) between the HTTP workers and the handlers.
///
/// [`Server`]: crate::serve::Server
#[derive(Debug)]
pub struct ServeMetrics {
    endpoints: [EndpointMetrics; ENDPOINTS.len()],
    shard_requests: Vec<Counter>,
    bytes_read: Counter,
    bytes_written: Counter,
    connections_opened: Counter,
    connections_closed: Counter,
    connections_rejected: Counter,
    connections_active: Gauge,
    requests_in_flight: Gauge,
    workers: Gauge,
    workers_busy: Gauge,
    cluster_update: Histogram,
    similar_distance_evals: Counter,
    stream_events: Counter,
    drift_flags: Counter,
}

impl ServeMetrics {
    /// Creates a registry for a server with `shards` store shards.
    pub fn new(shards: usize) -> Self {
        ServeMetrics {
            endpoints: Default::default(),
            shard_requests: (0..shards.max(1)).map(|_| Counter::new()).collect(),
            bytes_read: Counter::new(),
            bytes_written: Counter::new(),
            connections_opened: Counter::new(),
            connections_closed: Counter::new(),
            connections_rejected: Counter::new(),
            connections_active: Gauge::new(),
            requests_in_flight: Gauge::new(),
            workers: Gauge::new(),
            workers_busy: Gauge::new(),
            cluster_update: Histogram::new(),
            similar_distance_evals: Counter::new(),
            stream_events: Counter::new(),
            drift_flags: Counter::new(),
        }
    }

    /// Records one completed request.
    pub fn observe_request(&self, endpoint: Endpoint, status: u16, elapsed: Duration) {
        let e = &self.endpoints[endpoint as usize];
        e.requests[status_class(status)].inc();
        e.latency.observe(elapsed);
    }

    /// Records that a request was routed to shard `i` (saturating to the
    /// last shard counter for out-of-range indices, which cannot happen
    /// through the router).
    pub fn observe_shard_request(&self, i: usize) {
        let last = self.shard_requests.len() - 1;
        self.shard_requests[i.min(last)].inc();
    }

    /// Records one incremental cluster-index update (the recluster lag a
    /// `POST /runs` pays to keep clustering fresh).
    pub fn observe_cluster_update(&self, elapsed: Duration) {
        self.cluster_update.observe(elapsed);
    }

    /// Bytes read off client sockets.
    pub fn bytes_read(&self) -> &Counter {
        &self.bytes_read
    }

    /// Bytes written to client sockets.
    pub fn bytes_written(&self) -> &Counter {
        &self.bytes_written
    }

    /// Connections accepted.
    pub fn connections_opened(&self) -> &Counter {
        &self.connections_opened
    }

    /// Connections closed (any reason).
    pub fn connections_closed(&self) -> &Counter {
        &self.connections_closed
    }

    /// Connections refused with `503` because the connection table was full.
    pub fn connections_rejected(&self) -> &Counter {
        &self.connections_rejected
    }

    /// Currently open connections.
    pub fn connections_active(&self) -> &Gauge {
        &self.connections_active
    }

    /// Requests parsed and not yet answered (executing on a worker).
    pub fn requests_in_flight(&self) -> &Gauge {
        &self.requests_in_flight
    }

    /// Configured HTTP worker count (set once at start).
    pub fn workers(&self) -> &Gauge {
        &self.workers
    }

    /// HTTP workers currently executing a handler — compare against
    /// [`ServeMetrics::workers`] for saturation.
    pub fn workers_busy(&self) -> &Gauge {
        &self.workers_busy
    }

    /// Edit-distance evaluations `GET /similar` queries performed (what the
    /// metric index's bounds could not certify away) — divide by
    /// `wfdiff_http_requests_total{endpoint="similar"}` for evals per query.
    pub fn similar_distance_evals(&self) -> &Counter {
        &self.similar_distance_evals
    }

    /// Node-lifecycle events accepted by `POST /runs/stream` (rejected
    /// batches count zero).
    pub fn stream_events(&self) -> &Counter {
        &self.stream_events
    }

    /// Drift verdicts (`drifted: true`) returned by `POST /runs/stream` and
    /// `GET /runs/{spec}/{stream}/drift` responses.
    pub fn drift_flags(&self) -> &Counter {
        &self.drift_flags
    }

    /// Renders every metric in the Prometheus text exposition format,
    /// sampling live per-shard state (store sizes, diff-cache counters,
    /// diff-worker counts) from `router` at scrape time.
    pub fn render(&self, router: &ShardRouter) -> String {
        let mut out = String::with_capacity(8 * 1024);
        let m = &mut out;

        head(
            m,
            "wfdiff_http_requests_total",
            "counter",
            "Requests served, by endpoint and status class.",
        );
        for (i, ep) in ENDPOINTS.iter().enumerate() {
            for (c, class) in STATUS_CLASSES.iter().enumerate() {
                let v = self.endpoints[i].requests[c].get();
                sample(
                    m,
                    "wfdiff_http_requests_total",
                    &[("endpoint", ep.label()), ("code", class)],
                    &v.to_string(),
                );
            }
        }

        head(
            m,
            "wfdiff_http_request_duration_seconds",
            "histogram",
            "Request latency from the readiness event that delivered the request to its \
             response being rendered, by endpoint.",
        );
        for (i, ep) in ENDPOINTS.iter().enumerate() {
            let h = &self.endpoints[i].latency;
            for (b, (le, _)) in LATENCY_BUCKETS.iter().enumerate() {
                sample(
                    m,
                    "wfdiff_http_request_duration_seconds_bucket",
                    &[("endpoint", ep.label()), ("le", le)],
                    &h.cumulative(b).to_string(),
                );
            }
            sample(
                m,
                "wfdiff_http_request_duration_seconds_bucket",
                &[("endpoint", ep.label()), ("le", "+Inf")],
                &h.count().to_string(),
            );
            sample(
                m,
                "wfdiff_http_request_duration_seconds_sum",
                &[("endpoint", ep.label())],
                &format!("{}", h.sum_seconds()),
            );
            sample(
                m,
                "wfdiff_http_request_duration_seconds_count",
                &[("endpoint", ep.label())],
                &h.count().to_string(),
            );
        }

        head(
            m,
            "wfdiff_shard_requests_total",
            "counter",
            "Spec-addressed requests routed to each shard.",
        );
        for (i, c) in self.shard_requests.iter().enumerate() {
            sample(
                m,
                "wfdiff_shard_requests_total",
                &[("shard", &i.to_string())],
                &c.get().to_string(),
            );
        }

        counter_head_sample(
            m,
            "wfdiff_http_bytes_read_total",
            "Bytes read off client sockets.",
            &self.bytes_read,
        );
        counter_head_sample(
            m,
            "wfdiff_http_bytes_written_total",
            "Bytes written to client sockets.",
            &self.bytes_written,
        );
        counter_head_sample(
            m,
            "wfdiff_http_connections_opened_total",
            "Connections accepted.",
            &self.connections_opened,
        );
        counter_head_sample(
            m,
            "wfdiff_http_connections_closed_total",
            "Connections closed.",
            &self.connections_closed,
        );
        counter_head_sample(
            m,
            "wfdiff_http_connections_rejected_total",
            "Connections answered 503 because the connection table was full.",
            &self.connections_rejected,
        );
        counter_head_sample(
            m,
            "wfdiff_similar_distance_evals_total",
            "Edit-distance evaluations performed by GET /similar queries.",
            &self.similar_distance_evals,
        );
        counter_head_sample(
            m,
            "wfdiff_stream_events_total",
            "Node-lifecycle events accepted by POST /runs/stream.",
            &self.stream_events,
        );
        counter_head_sample(
            m,
            "wfdiff_drift_flags_total",
            "Drift verdicts returned by streaming and drift endpoints.",
            &self.drift_flags,
        );

        gauge_head_sample(
            m,
            "wfdiff_http_connections_active",
            "Currently open connections.",
            self.connections_active.get(),
        );
        gauge_head_sample(
            m,
            "wfdiff_http_requests_in_flight",
            "Requests parsed and not yet answered.",
            self.requests_in_flight.get(),
        );
        gauge_head_sample(
            m,
            "wfdiff_http_workers",
            "Configured HTTP worker threads.",
            self.workers.get(),
        );
        gauge_head_sample(
            m,
            "wfdiff_http_workers_busy",
            "HTTP workers currently executing a handler.",
            self.workers_busy.get(),
        );

        head(
            m,
            "wfdiff_cluster_update_duration_seconds",
            "histogram",
            "Incremental cluster-index update latency per inserted run (recluster lag).",
        );
        let h = &self.cluster_update;
        for (b, (le, _)) in LATENCY_BUCKETS.iter().enumerate() {
            sample(
                m,
                "wfdiff_cluster_update_duration_seconds_bucket",
                &[("le", le)],
                &h.cumulative(b).to_string(),
            );
        }
        sample(
            m,
            "wfdiff_cluster_update_duration_seconds_bucket",
            &[("le", "+Inf")],
            &h.count().to_string(),
        );
        sample(
            m,
            "wfdiff_cluster_update_duration_seconds_sum",
            &[],
            &format!("{}", h.sum_seconds()),
        );
        sample(m, "wfdiff_cluster_update_duration_seconds_count", &[], &h.count().to_string());

        gauge_head_sample(
            m,
            "wfdiff_shards",
            "Store shards behind this server.",
            router.len() as i64,
        );

        head(m, "wfdiff_diff_workers", "gauge", "Diff-engine worker threads, per shard.");
        for (i, shard) in router.shards().iter().enumerate() {
            sample(
                m,
                "wfdiff_diff_workers",
                &[("shard", &i.to_string())],
                &shard.service().threads().to_string(),
            );
        }

        head(m, "wfdiff_store_specs", "gauge", "Specifications stored, per shard.");
        for (i, shard) in router.shards().iter().enumerate() {
            sample(
                m,
                "wfdiff_store_specs",
                &[("shard", &i.to_string())],
                &shard.service().store().spec_names().len().to_string(),
            );
        }
        head(m, "wfdiff_store_runs", "gauge", "Runs stored, per shard.");
        for (i, shard) in router.shards().iter().enumerate() {
            sample(
                m,
                "wfdiff_store_runs",
                &[("shard", &i.to_string())],
                &shard.service().store().run_count().to_string(),
            );
        }

        let stats: Vec<_> = router.shards().iter().map(|s| s.service().cache_stats()).collect();
        head(m, "wfdiff_diff_cache_hits_total", "counter", "Diff-cache hits, per shard.");
        for (i, s) in stats.iter().enumerate() {
            sample(
                m,
                "wfdiff_diff_cache_hits_total",
                &[("shard", &i.to_string())],
                &s.hits.to_string(),
            );
        }
        head(m, "wfdiff_diff_cache_misses_total", "counter", "Diff-cache misses, per shard.");
        for (i, s) in stats.iter().enumerate() {
            sample(
                m,
                "wfdiff_diff_cache_misses_total",
                &[("shard", &i.to_string())],
                &s.misses.to_string(),
            );
        }
        head(
            m,
            "wfdiff_diff_cache_insertions_total",
            "counter",
            "Diff-cache insertions, per shard.",
        );
        for (i, s) in stats.iter().enumerate() {
            sample(
                m,
                "wfdiff_diff_cache_insertions_total",
                &[("shard", &i.to_string())],
                &s.insertions.to_string(),
            );
        }
        head(m, "wfdiff_diff_cache_evictions_total", "counter", "Diff-cache evictions, per shard.");
        for (i, s) in stats.iter().enumerate() {
            sample(
                m,
                "wfdiff_diff_cache_evictions_total",
                &[("shard", &i.to_string())],
                &s.evictions.to_string(),
            );
        }
        head(m, "wfdiff_diff_cache_entries", "gauge", "Diff-cache resident entries, per shard.");
        for (i, s) in stats.iter().enumerate() {
            sample(
                m,
                "wfdiff_diff_cache_entries",
                &[("shard", &i.to_string())],
                &s.entries.to_string(),
            );
        }

        let wal: Vec<_> = router.shards().iter().map(|s| s.service().wal_stats()).collect();
        head(
            m,
            "wfdiff_wal_appends_total",
            "counter",
            "Write-ahead-log records appended, per shard.",
        );
        for (i, s) in wal.iter().enumerate() {
            sample(
                m,
                "wfdiff_wal_appends_total",
                &[("shard", &i.to_string())],
                &s.appends_total.to_string(),
            );
        }
        head(m, "wfdiff_wal_bytes", "gauge", "Write-ahead-log bytes pending a fold, per shard.");
        for (i, s) in wal.iter().enumerate() {
            sample(m, "wfdiff_wal_bytes", &[("shard", &i.to_string())], &s.bytes.to_string());
        }
        head(
            m,
            "wfdiff_wal_replayed_records",
            "gauge",
            "Write-ahead-log records replayed at the last load, per shard.",
        );
        for (i, s) in wal.iter().enumerate() {
            sample(
                m,
                "wfdiff_wal_replayed_records",
                &[("shard", &i.to_string())],
                &s.replayed_records.to_string(),
            );
        }
        head(
            m,
            "wfdiff_checkpoint_folds_total",
            "counter",
            "Checkpoints that folded the write-ahead log into the manifest, per shard.",
        );
        for (i, s) in wal.iter().enumerate() {
            sample(
                m,
                "wfdiff_checkpoint_folds_total",
                &[("shard", &i.to_string())],
                &s.folds_total.to_string(),
            );
        }

        out
    }
}

fn head(out: &mut String, name: &str, kind: &str, help: &str) {
    out.push_str("# HELP ");
    out.push_str(name);
    out.push(' ');
    out.push_str(help);
    out.push_str("\n# TYPE ");
    out.push_str(name);
    out.push(' ');
    out.push_str(kind);
    out.push('\n');
}

fn sample(out: &mut String, name: &str, labels: &[(&str, &str)], value: &str) {
    out.push_str(name);
    if !labels.is_empty() {
        out.push('{');
        for (i, (k, v)) in labels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(k);
            out.push_str("=\"");
            out.push_str(v);
            out.push('"');
        }
        out.push('}');
    }
    out.push(' ');
    out.push_str(value);
    out.push('\n');
}

fn counter_head_sample(out: &mut String, name: &str, help: &str, c: &Counter) {
    head(out, name, "counter", help);
    sample(out, name, &[], &c.get().to_string());
}

fn gauge_head_sample(out: &mut String, name: &str, help: &str, v: i64) {
    head(out, name, "gauge", help);
    sample(out, name, &[], &v.to_string());
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
    fn status_classes_cover_every_emitted_status() {
        assert_eq!(status_class(200), 0);
        assert_eq!(status_class(201), 0);
        assert_eq!(status_class(404), 1);
        assert_eq!(status_class(500), 2);
        assert_eq!(status_class(503), 2);
    }
}
