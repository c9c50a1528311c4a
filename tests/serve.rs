//! End-to-end integration tests for the networked diff server: a real
//! `wfdiff_serve`-shaped stack (persisted store directory → `load_from_dir`
//! → warm-started `DiffService` → HTTP server on an ephemeral loopback
//! port) driven over real sockets.  They cover the error paths (unknown
//! spec slug, spec-version-mismatched run insert, malformed JSON body,
//! oversized body — asserting the status codes and that neither the
//! in-memory store nor the on-disk directory changed afterwards), `/specs`
//! and `/healthz` over a four-spec store with exact distances and durable
//! writes, a `GET /metrics` scrape validated against the Prometheus text
//! exposition grammar, the scrape text of a fixed state compared with a
//! recorded fixture, and the evented front-end's core promise: a stalled
//! (dribbling-header) connection does not pin a worker.

use pdiffview::pdiffview::io::RunDescriptor;
use pdiffview::pdiffview::serve::api::{
    DiffResponse, HealthResponse, SpecsResponse, StreamEventsRequest, StreamEventsResponse,
};
use pdiffview::pdiffview::serve::handlers::dispatch;
use pdiffview::pdiffview::serve::http::{parse_request, ParseOutcome};
use pdiffview::pdiffview::serve::metrics::{ServerCounter, ServerGauge};
use pdiffview::pdiffview::serve::{AppState, ServeConfig, Server, ServerHandle};
use pdiffview::pdiffview::{DiffService, StreamEvent, WorkflowStore};
use pdiffview::sptree::SpecificationBuilder;
use pdiffview::workloads::figures::{fig2_run1, fig2_run2, fig2_specification};
use pdiffview::workloads::runs::generate_run_with_target_edges;
use std::collections::{BTreeMap, BTreeSet};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

const SPEC_NAMES: [&str; 4] = ["alpha", "beta", "delta", "gamma"];

/// A scratch directory that cleans up after itself.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let path = std::env::temp_dir().join(format!("wfdiff-serve-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).unwrap();
        TempDir(path)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The production boot sequence: seed a store, persist it, load it back
/// (full validation), warm-start a service over it and serve it with
/// persistence enabled.  `max_body` is small so the oversize path is
/// testable without a megabyte body.
fn boot(dir: &Path, max_body: usize) -> (Arc<WorkflowStore>, ServerHandle) {
    let seed = WorkflowStore::new();
    let spec = seed.insert_spec(fig2_specification()).unwrap();
    seed.insert_run("r1", fig2_run1(&spec)).unwrap();
    seed.insert_run("r2", fig2_run2(&spec)).unwrap();
    seed.save_to_dir(dir).unwrap();

    let store = Arc::new(WorkflowStore::load_from_dir(dir).unwrap());
    let service = Arc::new(DiffService::builder(Arc::clone(&store)).threads(2).build());
    service.warm_start().unwrap();
    let config = ServeConfig { threads: 2, max_body_bytes: max_body, ..ServeConfig::default() };
    let state = AppState::single(service, Some(dir.to_path_buf()));
    let handle = Server::bind(state, config).unwrap().start().unwrap();
    (store, handle)
}

/// A four-spec store (two runs per spec).
fn seed_store() -> WorkflowStore {
    let store = WorkflowStore::new();
    for (s, name) in SPEC_NAMES.iter().enumerate() {
        let mut b = SpecificationBuilder::new(*name);
        b.path(&["a", "b", "c", "d"]).fork_between("a", "c");
        let spec = store.insert_spec(b.build().unwrap()).unwrap();
        for r in 0..2 {
            let run = generate_run_with_target_edges(&spec, 8, (s * 10 + r) as u64);
            store.insert_run(&format!("run{r}"), run).unwrap();
        }
    }
    store
}

/// Saves the four-spec store to `dir`, loads it back and serves it with
/// `threads` HTTP workers and diff threads, persisting to `dir`.
fn boot_four_specs(dir: &Path, threads: usize) -> ServerHandle {
    seed_store().save_to_dir(dir).unwrap();
    let store = Arc::new(WorkflowStore::load_from_dir(dir).unwrap());
    let service = Arc::new(DiffService::builder(store).threads(threads).build());
    service.warm_start().unwrap();
    let config = ServeConfig { threads, ..ServeConfig::default() };
    let state = AppState::single(service, Some(dir.to_path_buf()));
    Server::bind(state, config).unwrap().start().unwrap()
}

/// One request on a fresh connection; returns `(status, body)`.
fn request(addr: std::net::SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).unwrap();
    stream.write_all(body.as_bytes()).unwrap();
    read_response(&mut BufReader::new(stream))
}

/// Reads one `Content-Length`-framed response; returns `(status, body)`.
fn read_response(reader: &mut impl BufRead) -> (u16, String) {
    let mut status_line = String::new();
    reader.read_line(&mut status_line).unwrap();
    let status: u16 = status_line.split(' ').nth(1).unwrap().parse().unwrap();
    let mut content_length = 0usize;
    loop {
        let mut header = String::new();
        reader.read_line(&mut header).unwrap();
        let header = header.trim();
        if header.is_empty() {
            break;
        }
        if let Some(v) = header.to_ascii_lowercase().strip_prefix("content-length:") {
            content_length = v.trim().parse().unwrap();
        }
    }
    let mut buf = vec![0u8; content_length];
    reader.read_exact(&mut buf).unwrap();
    (status, String::from_utf8(buf).unwrap())
}

/// Every run file under `specs/*/runs`, keyed by path, with its content —
/// the "store directory unchanged" fixture.
fn disk_state(dir: &Path) -> BTreeMap<PathBuf, String> {
    let mut out = BTreeMap::new();
    for spec_dir in std::fs::read_dir(dir.join("specs")).unwrap() {
        let runs_dir = spec_dir.unwrap().path().join("runs");
        if let Ok(entries) = std::fs::read_dir(&runs_dir) {
            for entry in entries {
                let path = entry.unwrap().path();
                let content = std::fs::read_to_string(&path).unwrap();
                out.insert(path, content);
            }
        }
    }
    out
}

#[test]
fn error_paths_reject_cleanly_and_leave_the_store_untouched() {
    let dir = TempDir::new("errors");
    let (store, handle) = boot(dir.path(), 2048);
    let addr = handle.addr();
    let runs_before = store.run_count();
    let disk_before = disk_state(dir.path());

    // Unknown spec slug → 404 with a structured JSON error.
    let (status, body) = request(addr, "GET", "/specs/no-such-spec/runs", "");
    assert_eq!(status, 404, "{body}");
    assert!(body.contains("\"unknown_spec\""), "{body}");
    let (status, body) = request(addr, "GET", "/diff?spec=no-such-spec&a=r1&b=r2", "");
    assert_eq!(status, 404, "{body}");
    let (status, body) = request(addr, "GET", "/cluster?spec=no-such-spec&a=r1&b=r2", "");
    assert_eq!(status, 404, "{body}");

    // Unknown run → 404 with the run-specific kind.
    let (status, body) = request(addr, "GET", "/diff?spec=fig2&a=r1&b=ghost", "");
    assert_eq!(status, 404, "{body}");
    assert!(body.contains("\"unknown_run\""), "{body}");

    // Spec-version-mismatched run insert → 409.  The client asserts the
    // version it built the run against; the server holds a different one.
    let spec = store.spec("fig2").unwrap();
    let descriptor = RunDescriptor::from_run(&fig2_run1(&spec));
    let insert = format!(
        "{{\"name\": \"stale\", \"spec_fingerprint\": \"{:032x}\", \"run\": {}}}",
        0xdead_beefu128,
        descriptor.to_json()
    );
    let (status, body) = request(addr, "POST", "/runs", &insert);
    assert_eq!(status, 409, "{body}");
    assert!(body.contains("\"spec_version_mismatch\""), "{body}");

    // A structurally invalid run (out-of-range node index) → 400.
    let mut bad_descriptor = RunDescriptor::from_run(&fig2_run1(&spec));
    bad_descriptor.edges.push((9999, 0));
    let insert = format!("{{\"name\": \"broken\", \"run\": {}}}", bad_descriptor.to_json());
    let (status, body) = request(addr, "POST", "/runs", &insert);
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("\"invalid_run\""), "{body}");

    // Malformed JSON body → 400.
    let (status, body) = request(addr, "POST", "/runs", "{\"name\": \"x\", ");
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("\"invalid_json\""), "{body}");

    // Oversized body → 413, rejected from Content-Length before the body is
    // interpreted.
    let huge = "x".repeat(4096);
    let (status, body) = request(addr, "POST", "/runs", &huge);
    assert_eq!(status, 413, "{body}");
    assert!(body.contains("exceeds the limit"), "{body}");

    // Batch with an unknown run → 404, index-aligned success path intact.
    let (status, body) = request(
        addr,
        "POST",
        "/diff/batch",
        "{\"spec\": \"fig2\", \"pairs\": [[\"r1\", \"ghost\"]]}",
    );
    assert_eq!(status, 404, "{body}");

    // Unknown endpoint → 404; wrong method on a known endpoint → 405.
    let (status, _) = request(addr, "GET", "/nope", "");
    assert_eq!(status, 404);
    let (status, _) = request(addr, "DELETE", "/runs", "");
    assert_eq!(status, 405);

    // After all of that: the in-memory store and the on-disk directory are
    // byte-for-byte what they were.
    assert_eq!(store.run_count(), runs_before);
    assert!(store.run("fig2", "stale").is_none());
    assert!(store.run("fig2", "broken").is_none());
    assert_eq!(disk_state(dir.path()), disk_before);
    handle.shutdown();

    // The directory still loads clean after the server is gone.
    assert_eq!(WorkflowStore::load_from_dir(dir.path()).unwrap().run_count(), runs_before);
}

#[test]
fn success_paths_serve_and_persist_through_the_whole_stack() {
    let dir = TempDir::new("success");
    let (store, handle) = boot(dir.path(), 64 * 1024);
    let addr = handle.addr();

    // Health and store snapshots.
    let (status, body) = request(addr, "GET", "/healthz", "");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"ok\""));
    let (status, body) = request(addr, "GET", "/specs", "");
    assert_eq!(status, 200);
    assert!(body.contains("\"fig2\""), "{body}");
    let (status, body) = request(addr, "GET", "/specs/fig2/runs", "");
    assert_eq!(status, 200);
    assert!(body.contains("\"r1\"") && body.contains("\"r2\""), "{body}");

    // The served distance equals the local engine's.
    let (status, body) = request(addr, "GET", "/diff?spec=fig2&a=r1&b=r2", "");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"distance\":4.0"), "{body}");

    // Cluster summary over the same pair.
    let (status, body) = request(addr, "GET", "/cluster?spec=fig2&a=r1&b=r2", "");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"clusters\""), "{body}");

    // Insert with a correct version assertion: 201, in memory and on disk.
    let spec = store.spec("fig2").unwrap();
    let descriptor = RunDescriptor::from_run(&fig2_run1(&spec));
    let insert = format!(
        "{{\"name\": \"posted\", \"spec_fingerprint\": \"{}\", \"run\": {}}}",
        spec.fingerprint(),
        descriptor.to_json()
    );
    let (status, body) = request(addr, "POST", "/runs", &insert);
    assert_eq!(status, 201, "{body}");
    assert!(body.contains("\"persisted\":true"), "{body}");
    assert!(store.run("fig2", "posted").is_some());

    // Inserts are create-only: reposting the same name is refused with 409
    // and the stored run (and its on-disk document) stay untouched.
    let disk_after_insert = disk_state(dir.path());
    let (status, body) = request(addr, "POST", "/runs", &insert);
    assert_eq!(status, 409, "{body}");
    assert!(body.contains("\"run_exists\""), "{body}");
    assert_eq!(disk_state(dir.path()), disk_after_insert);

    // The appended run answers diff queries and survives a restart.
    let (status, body) = request(addr, "GET", "/diff?spec=fig2&a=posted&b=r1", "");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"distance\":0.0"), "{body}");

    // Stream a copy of r1 in two batches, in a topological order of its
    // graph; the second batch finalises it into a stored run.
    let run = fig2_run1(&spec);
    let g = run.graph();
    let order = g.topological_order().unwrap();
    let mut position = vec![0; g.node_count()];
    let mut events = Vec::new();
    for (i, &id) in order.iter().enumerate() {
        position[id.index()] = i;
        let preds = g.in_edges(id).iter().map(|&e| position[g.edge(e).src.index()]).collect();
        events.push(StreamEvent::started(i, g.label(id).as_str(), preds));
        events.push(StreamEvent::completed(i));
    }
    let half = events.len() / 2;
    for (batch, finalize) in [(&events[..half], false), (&events[half..], true)] {
        let body = serde_json::to_string(&StreamEventsRequest {
            spec: "fig2".to_string(),
            stream: "streamed".to_string(),
            events: batch.to_vec(),
            finalize,
        })
        .unwrap();
        let (status, text) = request(addr, "POST", "/runs/stream", &body);
        assert_eq!(status, if finalize { 201 } else { 200 }, "{text}");
        let out: StreamEventsResponse = serde_json::from_str(&text).unwrap();
        assert_eq!(out.finalized, finalize, "{text}");
        assert!(out.persisted, "{text}");
        if finalize {
            assert!(out.complete, "{text}");
        }
    }
    let (status, body) = request(addr, "GET", "/diff?spec=fig2&a=streamed&b=r1", "");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"distance\":0.0"), "{body}");
    handle.shutdown();

    // Both writes survive a restart, and the finalised stream left no
    // in-flight state to resume: its closure marker retired its records.
    let reloaded = Arc::new(WorkflowStore::load_from_dir(dir.path()).unwrap());
    assert_eq!(reloaded.run_count(), 4);
    assert!(reloaded.run("fig2", "posted").is_some());
    assert!(reloaded.run("fig2", "streamed").is_some());
    let streams = DiffService::new(reloaded).load_streams(dir.path()).unwrap();
    assert_eq!((streams.loaded, streams.closed, streams.skipped), (0, 1, 0), "{streams:?}");
}

#[test]
fn similar_and_kmedoids_endpoints_serve_and_checkpoint_over_the_wire() {
    use pdiffview::pdiffview::serve::api::{KMedoidsResponse, SimilarResponse};

    let dir = TempDir::new("cluster");
    let (store, handle) = boot(dir.path(), 64 * 1024);
    let addr = handle.addr();

    // /similar: exact answers, identical to a local recompute over the
    // same loaded store.
    let (status, body) = request(addr, "GET", "/similar?spec=fig2&run=r1&k=3", "");
    assert_eq!(status, 200, "{body}");
    let out: SimilarResponse = serde_json::from_str(&body).unwrap();
    let local = DiffService::new(Arc::clone(&store)).nearest_runs("fig2", "r1", 3).unwrap();
    assert_eq!(out.neighbors.len(), local.len());
    for (got, want) in out.neighbors.iter().zip(&local) {
        assert_eq!(got.run, want.target);
        assert_eq!(got.distance, want.distance, "served distance round-trips exactly");
    }
    let (status, _) = request(addr, "GET", "/similar?spec=fig2&run=nope", "");
    assert_eq!(status, 404);
    let (status, _) = request(addr, "GET", "/similar?spec=fig2&run=r1&k=zero", "");
    assert_eq!(status, 400);

    // /cluster?algo=kmedoids over a persisted server checkpoints its state.
    let appends = || {
        let (_, scrape) = request(addr, "GET", "/metrics", "");
        let line = scrape.lines().find_map(|l| l.strip_prefix("wfdiff_wal_appends_total "));
        line.unwrap().to_string()
    };
    let before = appends();
    let (status, body) = request(addr, "GET", "/cluster?spec=fig2&algo=kmedoids&k=2", "");
    assert_eq!(status, 200, "{body}");
    let first: KMedoidsResponse = serde_json::from_str(&body).unwrap();
    assert_eq!(first.clusters.len(), 2);
    assert!(first.persisted, "store-backed server checkpoints cluster state");
    // The checkpoint is a file beside the store, not a write-ahead-log record.
    assert_eq!(appends(), before, "the checkpoint appended to the log");
    assert!(dir.path().join("cluster_cache.json").exists());

    // Stream a run in; the next clustering must include it and the refresh
    // must update the checkpoint.
    let spec = store.spec("fig2").unwrap();
    let descriptor = RunDescriptor::from_run(&fig2_run1(&spec));
    let body = format!("{{\"name\": \"r3\", \"run\": {}}}", descriptor.to_json());
    let (status, text) = request(addr, "POST", "/runs", &body);
    assert_eq!(status, 201, "{text}");
    let (status, body) = request(addr, "GET", "/cluster?spec=fig2&algo=kmedoids&k=2", "");
    assert_eq!(status, 200, "{body}");
    let second: KMedoidsResponse = serde_json::from_str(&body).unwrap();
    let members: usize = second.clusters.iter().map(|c| c.runs.len()).sum();
    assert_eq!(members, 3, "the streamed run is clustered");
    // r3 is a copy of r1 — they must share a cluster.
    let of = |name: &str| second.clusters.iter().position(|c| c.runs.iter().any(|r| r == name));
    assert_eq!(of("r3"), of("r1"));
    handle.shutdown();

    // Restart from disk: the checkpoint resumes the exact same clustering.
    let reloaded = Arc::new(WorkflowStore::load_from_dir(dir.path()).unwrap());
    assert_eq!(reloaded.run_count(), 3, "the insert persisted");
    let resumed = DiffService::new(reloaded);
    let report = resumed.load_cluster_state(dir.path());
    assert_eq!((report.loaded, report.stale), (1, 0));
    let snapshot = resumed.cluster_index().snapshot("fig2").unwrap();
    assert_eq!(
        snapshot.partition(),
        second.clusters.iter().map(|c| c.runs.clone()).collect::<Vec<_>>()
    );
}

#[test]
fn batch_endpoint_matches_single_pair_answers() {
    let dir = TempDir::new("batch");
    let (_store, handle) = boot(dir.path(), 64 * 1024);
    let addr = handle.addr();
    let (status, single) = request(addr, "GET", "/diff?spec=fig2&a=r1&b=r2", "");
    assert_eq!(status, 200);
    let (status, batch) = request(
        addr,
        "POST",
        "/diff/batch",
        "{\"spec\": \"fig2\", \"pairs\": [[\"r1\", \"r2\"], [\"r2\", \"r2\"]]}",
    );
    assert_eq!(status, 200, "{batch}");
    // The batch's first entry carries the same distance as the single call.
    let single_distance = single.split("\"distance\":").nth(1).unwrap();
    assert!(batch.contains(&format!("\"distance\":{}", single_distance.trim_end_matches('}'))));
    assert!(batch.contains("\"distance\":0.0"));
    handle.shutdown();
}

/// `docs/OPERATIONS.md` documents exactly the families a server renders:
/// every family of a scrape's `# TYPE` lines is a row of the Metrics
/// section's tables, and every `wfdiff_…` family those tables name is
/// rendered.
#[test]
fn operator_docs_list_exactly_the_rendered_metric_families() {
    let dir = TempDir::new("metric-docs");
    let (_store, handle) = boot(dir.path(), 64 * 1024);
    let (status, scrape) = request(handle.addr(), "GET", "/metrics", "");
    assert_eq!(status, 200);
    handle.shutdown();
    let rendered: BTreeSet<String> = scrape
        .lines()
        .filter_map(|line| line.strip_prefix("# TYPE ")?.split(' ').next())
        .map(String::from)
        .collect();

    let docs = include_str!("../docs/OPERATIONS.md");
    let section = docs.split("\n## Metrics\n").nth(1).expect("a Metrics section");
    let section = section.split("\n## ").next().unwrap_or(section);
    let documented: BTreeSet<String> = section
        .lines()
        .filter_map(|line| line.strip_prefix("| `wfdiff_")?.split('`').next())
        .map(|rest| format!("wfdiff_{rest}"))
        .collect();

    let undocumented: Vec<_> = rendered.difference(&documented).collect();
    let unrendered: Vec<_> = documented.difference(&rendered).collect();
    assert!(undocumented.is_empty(), "rendered but not in docs/OPERATIONS.md: {undocumented:?}");
    assert!(unrendered.is_empty(), "in docs/OPERATIONS.md but not rendered: {unrendered:?}");
    assert!(!rendered.is_empty(), "the scrape has no # TYPE lines: {scrape}");
}

/// Writes `bytes` on a fresh connection and returns the answer's status.
fn raw_status(addr: std::net::SocketAddr, bytes: &[u8]) -> u16 {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(std::time::Duration::from_secs(10))).unwrap();
    stream.write_all(bytes).unwrap();
    let mut status_line = String::new();
    BufReader::new(stream).read_line(&mut status_line).unwrap();
    status_line.split(' ').nth(1).unwrap().parse().unwrap()
}

#[test]
fn requests_the_parser_rejects_are_counted_under_other() {
    let dir = TempDir::new("parse-errors");
    let (_store, handle) = boot(dir.path(), 64 * 1024);
    let addr = handle.addr();
    assert_eq!(raw_status(addr, b"BROKEN\r\n\r\n"), 400);
    let oversized = b"POST /runs HTTP/1.1\r\nHost: test\r\nContent-Length: 99999999\r\n\r\n";
    assert_eq!(raw_status(addr, oversized), 413);
    assert_eq!(request(addr, "GET", "/nowhere", "").0, 404);
    let (status, scrape) = request(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    handle.shutdown();
    let line = "wfdiff_http_requests_total{endpoint=\"other\",code=\"4xx\"} ";
    let count = scrape.lines().find_map(|l| l.strip_prefix(line));
    assert_eq!(count, Some("3"), "{scrape}");
}

#[test]
fn specs_and_healthz_report_every_spec_in_sorted_order() {
    let dir = TempDir::new("aggregate");
    let handle = boot_four_specs(dir.path(), 2);
    let addr = handle.addr();

    let (status, body) = request(addr, "GET", "/specs", "");
    assert_eq!(status, 200, "{body}");
    let specs: SpecsResponse = serde_json::from_str(&body).unwrap();
    let names: Vec<&str> = specs.specs.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(names, SPEC_NAMES.to_vec(), "sorted by name");
    assert!(specs.specs.iter().all(|s| s.runs == 2));

    let (status, body) = request(addr, "GET", "/healthz", "");
    assert_eq!(status, 200, "{body}");
    let health: HealthResponse = serde_json::from_str(&body).unwrap();
    assert_eq!((health.specs, health.runs, health.threads), (4, 8, 2));

    // Every spec's served distance is the local engine's, bit for bit, and
    // each insert is acknowledged.
    let local_store = Arc::new(seed_store());
    let local = DiffService::new(Arc::clone(&local_store));
    for (s, name) in SPEC_NAMES.iter().enumerate() {
        let (status, body) = request(addr, "GET", &format!("/diff?spec={name}&a=run0&b=run1"), "");
        assert_eq!(status, 200, "{name}: {body}");
        let served: DiffResponse = serde_json::from_str(&body).unwrap();
        let want = local.diff(name, "run0", "run1").unwrap().distance;
        assert_eq!(served.distance.to_bits(), want.to_bits(), "{name}: {body}");

        let spec = local_store.spec(name).unwrap();
        let run = generate_run_with_target_edges(&spec, 8, 100 + s as u64);
        let insert = format!(
            "{{\"name\": \"posted\", \"run\": {}}}",
            RunDescriptor::from_run(&run).to_json()
        );
        let (status, body) = request(addr, "POST", "/runs", &insert);
        assert_eq!(status, 201, "{name}: {body}");
    }
    handle.shutdown();

    // Every insert is in the reloaded store directory.
    let reloaded = WorkflowStore::load_from_dir(dir.path()).unwrap();
    for name in SPEC_NAMES {
        assert!(reloaded.run(name, "posted").is_some(), "{name}");
    }
}

// ---------------------------------------------------------------------------
// Prometheus text-format validation
// ---------------------------------------------------------------------------

/// One parsed sample line: metric name, sorted labels, value.
struct Sample {
    name: String,
    labels: BTreeMap<String, String>,
    value: f64,
}

fn parse_sample(line: &str) -> Sample {
    let (name_labels, value) = line.rsplit_once(' ').expect("sample has a value");
    let value: f64 = value.parse().unwrap_or_else(|_| {
        assert_eq!(value, "+Inf", "values are floats or +Inf: {line}");
        f64::INFINITY
    });
    let (name, labels) = match name_labels.split_once('{') {
        None => (name_labels.to_string(), BTreeMap::new()),
        Some((name, rest)) => {
            let rest = rest.strip_suffix('}').expect("label set closes");
            let mut labels = BTreeMap::new();
            for pair in rest.split(',') {
                let (k, v) = pair.split_once('=').expect("label is k=\"v\"");
                let v = v.strip_prefix('"').and_then(|v| v.strip_suffix('"')).expect("quoted");
                labels.insert(k.to_string(), v.to_string());
            }
            (name.to_string(), labels)
        }
    };
    assert!(
        name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
        "metric name grammar: {name}"
    );
    assert!(!name.chars().next().unwrap().is_ascii_digit(), "{name}");
    Sample { name, labels, value }
}

/// Validates the scrape against the Prometheus text-exposition format:
/// line grammar, `# TYPE` before samples, histogram bucket monotonicity and
/// `_count`/`_sum` consistency.  It also checks the operator contract on
/// family names: `wfdiff_[a-z0-9_]+`, `_total` on counters, `_seconds` on
/// histograms, and each family declared once.
fn validate_prometheus(text: &str) {
    let mut types: BTreeMap<String, String> = BTreeMap::new();
    let mut samples: Vec<Sample> = Vec::new();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            assert!(rest.split_once(' ').is_some(), "HELP has name and text: {line}");
        } else if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind) = rest.split_once(' ').expect("TYPE has name and kind");
            assert!(
                matches!(kind, "counter" | "gauge" | "histogram" | "summary" | "untyped"),
                "{line}"
            );
            let tail = name.strip_prefix("wfdiff_").unwrap_or("");
            assert!(
                !tail.is_empty()
                    && tail.bytes().all(|b| matches!(b, b'a'..=b'z' | b'0'..=b'9' | b'_')),
                "metric name {name:?} does not match wfdiff_[a-z0-9_]+"
            );
            let suffix = match kind {
                "counter" => "_total",
                "histogram" => "_seconds",
                _ => "",
            };
            assert!(name.ends_with(suffix), "{kind} {name:?} must end with {suffix:?}");
            let previous = types.insert(name.to_string(), kind.to_string());
            assert!(previous.is_none(), "metric family {name:?} declared twice");
        } else {
            assert!(!line.starts_with('#'), "only HELP/TYPE comments: {line}");
            samples.push(parse_sample(line));
        }
    }
    assert!(!samples.is_empty(), "a scrape has samples");

    // Every sample belongs to a declared metric family (histogram samples
    // to their base name), declared before first use.
    for s in &samples {
        let base = ["_bucket", "_sum", "_count"]
            .iter()
            .find_map(|suffix| s.name.strip_suffix(suffix))
            .filter(|base| types.contains_key(*base) && types[*base] == "histogram")
            .unwrap_or(&s.name);
        assert!(types.contains_key(base), "undeclared metric {}", s.name);
        match types[base].as_str() {
            "counter" | "histogram" => {
                assert!(s.value >= 0.0, "{} is non-negative, got {}", s.name, s.value);
            }
            _ => {}
        }
    }

    // Histogram consistency per label set: `le` buckets are cumulative
    // (non-decreasing), the `+Inf` bucket equals `_count`, and `_sum` is
    // present.
    let histograms: Vec<String> = types
        .iter()
        .filter(|(_, kind)| kind.as_str() == "histogram")
        .map(|(name, _)| name.clone())
        .collect();
    for base in histograms {
        let mut by_labelset: BTreeMap<String, Vec<(f64, f64)>> = BTreeMap::new();
        let mut counts: BTreeMap<String, f64> = BTreeMap::new();
        let mut sums: BTreeMap<String, f64> = BTreeMap::new();
        for s in &samples {
            let mut labels = s.labels.clone();
            let le = labels.remove("le");
            let key = format!("{labels:?}");
            if s.name == format!("{base}_bucket") {
                let le = le.expect("bucket has le");
                let bound =
                    if le == "+Inf" { f64::INFINITY } else { le.parse::<f64>().expect("le") };
                by_labelset.entry(key).or_default().push((bound, s.value));
            } else if s.name == format!("{base}_count") {
                counts.insert(key, s.value);
            } else if s.name == format!("{base}_sum") {
                sums.insert(key, s.value);
            }
        }
        assert!(!by_labelset.is_empty(), "histogram {base} has buckets");
        for (key, mut buckets) in by_labelset {
            buckets.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
            assert_eq!(buckets.last().unwrap().0, f64::INFINITY, "{base} has +Inf");
            for pair in buckets.windows(2) {
                assert!(
                    pair[0].1 <= pair[1].1,
                    "{base}{key}: cumulative buckets are non-decreasing"
                );
            }
            let count = counts.get(&key).unwrap_or_else(|| panic!("{base}{key} has _count"));
            assert_eq!(buckets.last().unwrap().1, *count, "{base}{key}: +Inf equals _count");
            assert!(sums.contains_key(&key), "{base}{key} has _sum");
        }
    }
}

#[test]
fn metrics_scrape_is_valid_prometheus_text() {
    let dir = TempDir::new("metrics");
    let handle = boot_four_specs(dir.path(), 2);
    let addr = handle.addr();

    // Generate traffic over several endpoints (including an error) so the
    // scrape carries non-trivial counters and histogram observations.
    for name in SPEC_NAMES {
        let (status, _) = request(addr, "GET", &format!("/diff?spec={name}&a=run0&b=run1"), "");
        assert_eq!(status, 200);
    }
    let _ = request(addr, "GET", "/specs", "");
    let _ = request(addr, "GET", "/diff?spec=alpha&a=run0&b=ghost", "");

    let (status, scrape) = request(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    validate_prometheus(&scrape);

    // Spot-checks tying the scrape to the traffic above.
    assert!(
        scrape.contains("wfdiff_http_requests_total{endpoint=\"diff\",code=\"2xx\"} 4"),
        "{scrape}"
    );
    assert!(
        scrape.contains("wfdiff_http_requests_total{endpoint=\"diff\",code=\"4xx\"} 1"),
        "{scrape}"
    );
    assert!(scrape.contains("\nwfdiff_store_runs 8\n"), "{scrape}");
    assert!(scrape.contains("\nwfdiff_wal_appends_total "), "{scrape}");
    assert!(scrape.contains("\nwfdiff_wal_bytes "), "{scrape}");
    assert!(scrape.contains("\nwfdiff_wal_replayed_records "), "{scrape}");
    assert!(scrape.contains("\nwfdiff_checkpoint_folds_total "), "{scrape}");
    assert!(scrape.contains("wfdiff_http_request_duration_seconds_bucket"), "{scrape}");
    handle.shutdown();
}

/// The `/metrics` text of a fixed state equals
/// `tests/fixtures/metrics_scrape.txt` byte for byte: every family's name,
/// type, HELP text, labels and order, and every value.  The state is the
/// four-spec store in one directory, one durable insert, requests
/// dispatched in process (latencies recorded at fixed values, not timed)
/// and the server-wide instruments set by hand, with one diff worker so
/// that no figure depends on the machine or on scheduling.
#[test]
fn metrics_render_matches_the_recorded_fixture() {
    let root = TempDir::new("golden");
    let dir = root.path().join("store");
    seed_store().save_to_dir(&dir).unwrap();
    let store = Arc::new(WorkflowStore::load_from_dir(&dir).unwrap());
    let service = Arc::new(DiffService::builder(Arc::clone(&store)).threads(1).build());
    let state = AppState::single(Arc::clone(&service), Some(dir.clone()));

    let run = generate_run_with_target_edges(&store.spec("alpha").unwrap(), 8, 7);
    let run = store.insert_run("run2", run).unwrap();
    store.append_run_to_dir(&dir, "run2", &run).unwrap();

    let stream = serde_json::to_string(&StreamEventsRequest {
        spec: "delta".to_string(),
        stream: "s1".to_string(),
        events: vec![StreamEvent::started(0, "a", vec![]), StreamEvent::completed(0)],
        finalize: false,
    })
    .unwrap();
    let requests = [
        ("GET", "/diff?spec=alpha&a=run0&b=run1", ""),
        ("GET", "/diff?spec=alpha&a=run0&b=run1", ""),
        ("GET", "/diff?spec=beta&a=run0&b=ghost", ""),
        ("GET", "/similar?spec=gamma&run=run0&k=1", ""),
        ("POST", "/runs/stream", stream.as_str()),
        ("GET", "/runs/delta/s1/drift", ""),
        ("GET", "/specs", ""),
        ("DELETE", "/healthz", ""),
        ("GET", "/nowhere", ""),
    ];
    let metrics = state.metrics();
    for (i, (method, target, body)) in requests.into_iter().enumerate() {
        let wire =
            format!("{method} {target} HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}", body.len());
        let Ok(ParseOutcome::Complete { request, .. }) = parse_request(wire.as_bytes(), 1 << 20)
        else {
            panic!("{wire} does not parse");
        };
        let response = dispatch(&state, &request);
        let elapsed = Duration::from_micros(40 + 90 * i as u64);
        metrics.observe_request(response.endpoint, response.status, elapsed);
    }
    metrics.observe_cluster_update(Duration::from_micros(300));
    metrics.counter(ServerCounter::BytesRead).add(4096);
    metrics.counter(ServerCounter::BytesWritten).add(8192);
    metrics.counter(ServerCounter::ConnectionsOpened).add(3);
    metrics.counter(ServerCounter::ConnectionsClosed).add(2);
    metrics.counter(ServerCounter::ConnectionsRejected).add(1);
    metrics.gauge(ServerGauge::ConnectionsActive).set(1);
    metrics.gauge(ServerGauge::RequestsInFlight).set(0);
    metrics.gauge(ServerGauge::Workers).set(2);
    metrics.gauge(ServerGauge::WorkersBusy).set(0);

    let rendered = metrics.render(&service);
    let fixture = include_str!("fixtures/metrics_scrape.txt");
    for (i, (got, want)) in rendered.lines().zip(fixture.lines()).enumerate() {
        assert_eq!(got, want, "line {} of the scrape differs from the fixture", i + 1);
    }
    assert_eq!(rendered, fixture, "the scrape and the fixture differ in length");
}

#[test]
fn a_dribbling_header_does_not_pin_the_only_worker() {
    // One HTTP worker: under the old blocking accept/worker model a stalled
    // header would own it and every other client would hang.  The reactor
    // must keep serving complete requests while connection A dribbles.
    let dir = TempDir::new("slow");
    let handle = boot_four_specs(dir.path(), 1);
    let addr = handle.addr();

    let mut slow = TcpStream::connect(addr).unwrap();
    slow.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    slow.write_all(b"GET /hea").unwrap();

    // While A is stalled mid-request-line, B's requests complete promptly.
    for _ in 0..3 {
        let (status, body) = request(addr, "GET", "/healthz", "");
        assert_eq!(status, 200, "{body}");
    }

    // A finishes dribbling and still gets its answer.
    slow.write_all(b"lthz HTTP/1.1\r\n").unwrap();
    std::thread::sleep(Duration::from_millis(20));
    slow.write_all(b"Connection: close\r\n\r\n").unwrap();
    let mut reader = BufReader::new(slow);
    let (status, body) = read_response(&mut reader);
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"ok\""), "{body}");
    handle.shutdown();
}
