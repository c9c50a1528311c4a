//! Integration tests for the vantage-point metric index behind pruned
//! `GET /similar`: across random stores, streamed insertions and removals,
//! the pruned top-k must equal the exact O(n) sweep bit for bit (same
//! distances, same tie-break ordering), and a query — the one that builds a
//! tree included — only reads the store: it never appends to the
//! write-ahead log, and a restarted server rebuilds the same answer.

use pdiffview::pdiffview::io::RunDescriptor;
use pdiffview::pdiffview::serve::api::SimilarResponse;
use pdiffview::pdiffview::serve::handlers::{dispatch, AppState};
use pdiffview::pdiffview::serve::http::{parse_request, ParseOutcome};
use pdiffview::pdiffview::{DiffService, PairDistance, WorkflowStore};
use pdiffview::workloads::generator::{random_specification, SpecGenConfig};
use pdiffview::workloads::runs::{generate_run, RunGenConfig};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use wfdiff_sptree::{Run, Specification};

/// A random small workload: one specification, `runs` generated runs.
fn random_workload(spec_seed: u64, runs: usize) -> (Specification, Vec<(String, Run)>) {
    let mut rng = ChaCha8Rng::seed_from_u64(spec_seed);
    let spec = random_specification(
        "metric",
        &SpecGenConfig { target_edges: 20, series_parallel_ratio: 0.9, forks: 2, loops: 1 },
        &mut rng,
    );
    let config = RunGenConfig { prob_p: 0.7, max_f: 2, prob_f: 0.6, max_l: 2, prob_l: 0.6 };
    let named =
        (0..runs).map(|r| (format!("run{r:03}"), generate_run(&spec, &config, &mut rng))).collect();
    (spec, named)
}

fn store_with(spec: &Specification, runs: &[(String, Run)]) -> Arc<WorkflowStore> {
    let store = Arc::new(WorkflowStore::new());
    store.insert_spec(spec.clone()).unwrap();
    for (name, run) in runs {
        store.insert_run(name, run.clone()).unwrap();
    }
    store
}

/// The certified contract: identical neighbour lists, distances and order.
fn assert_lists_equal(exact: &[PairDistance], pruned: &[PairDistance], context: &str) {
    assert_eq!(exact.len(), pruned.len(), "{context}: length");
    for (i, (e, p)) in exact.iter().zip(pruned).enumerate() {
        assert_eq!(e.target, p.target, "{context}: rank {i} target");
        assert_eq!(e.distance, p.distance, "{context}: rank {i} distance");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, .. ProptestConfig::default() })]

    /// Pruned == exact over random stores, then again after streamed
    /// insertions and removals maintained through the notification path.
    #[test]
    fn pruned_top_k_equals_the_exact_sweep(
        spec_seed in 0u64..400,
        runs in 8usize..24,
        k in 1usize..8,
    ) {
        let (spec, named) = random_workload(spec_seed, runs);
        // Boot with all but the last three runs; stream those in later.
        let boot = &named[..runs - 3];
        let store = store_with(&spec, boot);
        let service = DiffService::new(Arc::clone(&store));

        for (query, _) in boot.iter().step_by(3) {
            let exact = service.nearest_runs("metric", query, k).unwrap();
            let (pruned, stats) =
                service.nearest_runs_pruned("metric", query, k, 0.0).unwrap();
            assert_lists_equal(&exact, &pruned, &format!("boot query {query}"));
            prop_assert!(
                stats.distance_evals < boot.len(),
                "pruned mode never evaluates more than the sweep"
            );
        }

        // Stream the held-back runs in through the server's path.
        for (name, run) in &named[runs - 3..] {
            store.insert_run(name, run.clone()).unwrap();
            service.notify_run_inserted("metric", name);
        }
        // Remove two boot runs (one may be a vantage pivot, forcing the
        // index to drop and rebuild that spec).
        for (gone, _) in &boot[..2] {
            prop_assert!(store.remove_run("metric", gone));
            service.notify_run_removed("metric", gone);
        }

        let survivors: Vec<&String> = named[2..].iter().map(|(n, _)| n).collect();
        for query in survivors.iter().step_by(4) {
            let exact = service.nearest_runs("metric", query, k).unwrap();
            let (pruned, _) = service.nearest_runs_pruned("metric", query, k, 0.0).unwrap();
            assert_lists_equal(&exact, &pruned, &format!("streamed query {query}"));
        }
    }
}

/// A scratch directory that cleans up after itself.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let path =
            std::env::temp_dir().join(format!("wfdiff-metricindex-{tag}-{}", std::process::id()));
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

/// Sends one request through the server's handler.
fn send(state: &AppState, method: &str, target: &str, body: &str) -> (u16, String) {
    let wire =
        format!("{method} {target} HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}", body.len());
    let Ok(ParseOutcome::Complete { request, .. }) = parse_request(wire.as_bytes(), 1 << 20) else {
        panic!("{wire} does not parse");
    };
    let response = dispatch(state, &request);
    (response.status, response.body)
}

/// The neighbours of a `/similar` answer, as `(run, distance)`.
fn neighbors(body: &str) -> Vec<(String, f64)> {
    let response: SimilarResponse = serde_json::from_str(body).unwrap();
    response.neighbors.into_iter().map(|n| (n.run, n.distance)).collect()
}

fn sweep(service: &DiffService, run: &str, k: usize) -> Vec<(String, f64)> {
    let exact = service.nearest_runs("metric", run, k).unwrap();
    exact.into_iter().map(|p| (p.target, p.distance)).collect()
}

#[test]
fn a_similar_query_never_appends_to_the_wal() {
    let (spec, named) = random_workload(0x4E57, 14);
    let dir = TempDir::new("pure-read");
    store_with(&spec, &named[..13]).save_to_dir(dir.path()).unwrap();
    let boot = |threads: usize| {
        let store = Arc::new(WorkflowStore::load_from_dir(dir.path()).unwrap());
        let service = Arc::new(DiffService::builder(store).threads(threads).build());
        (AppState::single(Arc::clone(&service), Some(dir.path().to_path_buf())), service)
    };
    let similar = "/similar?spec=metric&run=run000&k=5";

    // The first query builds the tree, and writes nothing.
    let (state, service) = boot(2);
    let before = service.wal_stats().appends_total;
    let (status, body) = send(&state, "GET", similar, "");
    assert_eq!(status, 200, "{body}");
    assert_eq!(service.metric_index().member_count("metric"), 13, "the query built the tree");
    assert_eq!(service.wal_stats().appends_total, before, "the building query appended");
    assert_eq!(neighbors(&body), sweep(&service, "run000", 5));

    // A durable write, then a query over the grown store: only the write
    // appends.
    let descriptor = RunDescriptor::from_run(&named[13].1);
    let insert = format!("{{\"name\": \"{}\", \"run\": {}}}", named[13].0, descriptor.to_json());
    let (status, text) = send(&state, "POST", "/runs", &insert);
    assert_eq!(status, 201, "{text}");
    let after_write = service.wal_stats().appends_total;
    assert_eq!(after_write, before + 1);
    let (status, body) = send(&state, "GET", similar, "");
    assert_eq!(status, 200, "{body}");
    assert_eq!(service.wal_stats().appends_total, after_write, "a query after a write appended");
    assert_eq!(service.metric_index().member_count("metric"), 14, "the tree took the insert");
    let answer = neighbors(&body);
    assert_eq!(answer, sweep(&service, "run000", 5));

    // A restart keeps no tree: its first query rebuilds one, on one worker
    // or on several, and answers the same.
    for threads in [1, 4] {
        let (state, service) = boot(threads);
        assert_eq!(service.metric_index().member_count("metric"), 0);
        let (status, body) = send(&state, "GET", similar, "");
        assert_eq!(status, 200, "{body}");
        assert_eq!(neighbors(&body), answer, "{threads} worker(s)");
        assert_eq!(service.wal_stats().appends_total, 0, "{threads} worker(s)");
    }
}

#[test]
fn approx_mode_distances_stay_within_the_reported_bound() {
    let (spec, named) = random_workload(0xA44C, 20);
    let service = DiffService::new(store_with(&spec, &named));
    let epsilon = 0.5;
    for query in ["run000", "run007", "run013"] {
        let exact = service.nearest_runs("metric", query, 6).unwrap();
        let (approx, stats) = service.nearest_runs_pruned("metric", query, 6, epsilon).unwrap();
        assert_eq!(stats.approx_epsilon, epsilon);
        let true_kth = exact.last().map(|p| p.distance).unwrap_or(0.0);
        for p in &approx {
            assert!(
                p.distance <= (1.0 + epsilon) * true_kth + 1e-9,
                "{query}: approx distance {} exceeds (1+ε)·{true_kth}",
                p.distance
            );
        }
    }
}
