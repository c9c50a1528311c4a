//! End-to-end tests for the sharded serving tier: spec-slug routing that
//! stays stable across save/load and the operator split, cross-shard
//! `/specs` and `/healthz` aggregation, exact distances and durable writes
//! on the owning shard, a `GET /metrics` scrape validated
//! against the Prometheus text-exposition grammar, the scrape text of a
//! fixed state compared with a recorded fixture, and the evented
//! front-end's core promise — a stalled (dribbling-header) connection does
//! not pin a worker.

use pdiffview::pdiffview::io::RunDescriptor;
use pdiffview::pdiffview::serve::api::{
    DiffResponse, HealthResponse, SpecsResponse, StreamEventsRequest,
};
use pdiffview::pdiffview::serve::handlers::{dispatch, AppState};
use pdiffview::pdiffview::serve::http::{parse_request, ParseOutcome};
use pdiffview::pdiffview::serve::metrics::{ServerCounter, ServerGauge};
use pdiffview::pdiffview::serve::shard::{
    detect_shard_dirs, fnv1a_64, shard_dir_name, shard_of, split_store_into_shards, ShardEntry,
    ShardRouter,
};
use pdiffview::pdiffview::serve::{ServeConfig, Server, ServerHandle};
use pdiffview::pdiffview::{DiffService, StreamEvent, WorkflowStore};
use pdiffview::sptree::SpecificationBuilder;
use pdiffview::workloads::runs::generate_run_with_target_edges;
use std::collections::BTreeMap;
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
        let path =
            std::env::temp_dir().join(format!("wfdiff-sharded-{tag}-{}", std::process::id()));
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

/// A four-spec store (two runs per spec), the sharding fixture.
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

/// Saves the fixture flat, splits it into `n` shard directories under
/// `root/shards` and boots a sharded server over them.
fn boot_sharded(root: &Path, n: usize, threads: usize) -> ServerHandle {
    let flat = root.join("flat");
    seed_store().save_to_dir(&flat).unwrap();
    let shard_root = root.join("shards");
    split_store_into_shards(&flat, &shard_root, n).unwrap();
    let dirs = detect_shard_dirs(&shard_root);
    assert_eq!(dirs.len(), n);
    let entries = dirs
        .into_iter()
        .map(|dir| {
            let store = Arc::new(WorkflowStore::load_from_dir(&dir).unwrap());
            let service = Arc::new(DiffService::builder(store).threads(threads).build());
            service.warm_start().unwrap();
            ShardEntry::new(service, Some(dir))
        })
        .collect();
    let config = ServeConfig { threads, ..ServeConfig::default() };
    Server::bind(ShardRouter::new(entries), config).unwrap().start().unwrap()
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
    let mut reader = BufReader::new(stream);
    read_response(&mut reader)
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

#[test]
fn spec_routing_is_stable_across_save_load_and_the_operator_split() {
    // The routing hash is pinned: these values must never change, or every
    // sharded store on disk would misroute after an upgrade.
    assert_eq!(fnv1a_64(""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv1a_64("a"), 0xaf63_dc4c_8601_ec8c);

    let dir = TempDir::new("routing");
    let flat = dir.path().join("flat");
    seed_store().save_to_dir(&flat).unwrap();
    let shard_root = dir.path().join("shards");
    split_store_into_shards(&flat, &shard_root, 3).unwrap();

    // Every spec lives exactly in the directory its hash says, and a
    // reloaded shard still routes identically (hashing keys on the name,
    // which persistence round-trips verbatim).
    let dirs = detect_shard_dirs(&shard_root);
    assert_eq!(dirs.len(), 3, "all shard directories exist, even if empty");
    for (i, d) in dirs.iter().enumerate() {
        assert_eq!(d.file_name().unwrap().to_str().unwrap(), shard_dir_name(i));
        let shard = WorkflowStore::load_from_dir(d).unwrap();
        for name in shard.spec_names() {
            assert_eq!(shard_of(&name, 3), i, "{name} belongs on shard {i}");
        }
    }
    let total: usize =
        dirs.iter().map(|d| WorkflowStore::load_from_dir(d).unwrap().spec_names().len()).sum();
    assert_eq!(total, SPEC_NAMES.len(), "the split loses nothing");

    // A router over the loaded shards finds every spec where the hash (or
    // the boot-time pin) says it is.
    let entries = dirs
        .iter()
        .map(|d| {
            let store = Arc::new(WorkflowStore::load_from_dir(d).unwrap());
            ShardEntry::new(Arc::new(DiffService::new(store)), Some(d.clone()))
        })
        .collect();
    let router = ShardRouter::new(entries);
    for name in SPEC_NAMES {
        assert!(router.shard_for(name).service().store().spec(name).is_some(), "{name} routes");
    }
}

#[test]
fn specs_and_healthz_aggregate_across_shards_in_sorted_order() {
    let dir = TempDir::new("aggregate");
    let handle = boot_sharded(dir.path(), 3, 2);
    let addr = handle.addr();

    let (status, body) = request(addr, "GET", "/specs", "");
    assert_eq!(status, 200, "{body}");
    let specs: SpecsResponse = serde_json::from_str(&body).unwrap();
    let names: Vec<&str> = specs.specs.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(names, SPEC_NAMES.to_vec(), "merged across shards, sorted by name");
    assert!(specs.specs.iter().all(|s| s.runs == 2));

    let (status, body) = request(addr, "GET", "/healthz", "");
    assert_eq!(status, 200, "{body}");
    let health: HealthResponse = serde_json::from_str(&body).unwrap();
    assert_eq!(health.specs, 4);
    assert_eq!(health.runs, 8);
    assert_eq!(health.shards.len(), 3);
    assert_eq!(health.shards.iter().map(|s| s.specs).sum::<usize>(), 4);
    assert_eq!(health.shards.iter().map(|s| s.runs).sum::<usize>(), 8);

    // Spec-addressed queries hit the right shard for every spec: each
    // served distance is the local engine's, bit for bit, and each insert
    // is acknowledged.
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

    // Each insert was written to the directory of the shard that owns its
    // spec, and to no other.
    let shards: Vec<WorkflowStore> = detect_shard_dirs(dir.path().join("shards"))
        .iter()
        .map(|d| WorkflowStore::load_from_dir(d).unwrap())
        .collect();
    for name in SPEC_NAMES {
        let holders: Vec<usize> =
            (0..shards.len()).filter(|&i| shards[i].run(name, "posted").is_some()).collect();
        assert_eq!(holders, vec![shard_of(name, shards.len())], "{name}");
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
    let handle = boot_sharded(dir.path(), 2, 2);
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
    assert!(scrape.contains("wfdiff_shards 2"), "{scrape}");
    assert!(scrape.contains("wfdiff_store_runs{shard=\"0\"}"), "{scrape}");
    assert!(scrape.contains("wfdiff_wal_appends_total{shard=\"0\"}"), "{scrape}");
    assert!(scrape.contains("wfdiff_wal_bytes{shard=\"1\"}"), "{scrape}");
    assert!(scrape.contains("wfdiff_wal_replayed_records{shard=\"0\"}"), "{scrape}");
    assert!(scrape.contains("wfdiff_checkpoint_folds_total{shard=\"1\"}"), "{scrape}");
    assert!(scrape.contains("wfdiff_http_request_duration_seconds_bucket"), "{scrape}");
    handle.shutdown();
}

/// The `/metrics` text of a fixed two-shard state equals
/// `tests/fixtures/metrics_scrape.txt` byte for byte: every family's name,
/// type, HELP text, labels and order, and every value.  The state is the
/// four-spec store split across two shard directories, one durable insert,
/// requests dispatched in process (latencies recorded at fixed values, not
/// timed) and the server-wide instruments set by hand, with one diff worker
/// per shard so that no figure depends on the machine or on scheduling.
#[test]
fn metrics_render_matches_the_recorded_fixture() {
    let root = TempDir::new("golden");
    let flat = root.path().join("flat");
    seed_store().save_to_dir(&flat).unwrap();
    let shard_root = root.path().join("shards");
    split_store_into_shards(&flat, &shard_root, 2).unwrap();
    let entries = detect_shard_dirs(&shard_root)
        .into_iter()
        .map(|dir| {
            let store = Arc::new(WorkflowStore::load_from_dir(&dir).unwrap());
            ShardEntry::new(Arc::new(DiffService::builder(store).threads(1).build()), Some(dir))
        })
        .collect();
    let state = AppState::new(ShardRouter::new(entries));

    let alpha = state.router().shard_for("alpha");
    let store = alpha.service().store();
    let run = generate_run_with_target_edges(&store.spec("alpha").unwrap(), 8, 7);
    let run = store.insert_run("run2", run).unwrap();
    store.append_run_to_dir(alpha.dir().unwrap(), "run2", &run).unwrap();

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

    let rendered = metrics.render(state.router());
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
    let handle = boot_sharded(dir.path(), 2, 1);
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
