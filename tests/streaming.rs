//! Property and differential tests for streaming run ingestion: the
//! certified prefix bound must rise monotonically from the first event to
//! finalisation without ever overshooting the exact distance, a stream
//! replayed from the write-ahead log must reproduce the exact drift
//! trajectory bit for bit, and a run ingested event-by-event must leave the
//! store, cluster index and metric index indistinguishable from the same
//! run inserted whole.

use pdiffview::pdiffview::{PartialRun, StreamEvent};
use pdiffview::prelude::*;
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::path::PathBuf;
use std::sync::Arc;

const SPEC: &str = "stream-prop";
const CLUSTER_SEED: u64 = 13;

/// A per-case scratch directory (unique per seed so parallel test threads
/// never collide) that cleans up after itself.
struct CaseDir(PathBuf);

impl CaseDir {
    fn new(seed: u64) -> CaseDir {
        CaseDir(
            std::env::temp_dir().join(format!("wfdiff-stream-prop-{}-{seed}", std::process::id())),
        )
    }
}

impl Drop for CaseDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn prop_spec(seed: u64) -> Specification {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    random_specification(
        SPEC,
        &SpecGenConfig { target_edges: 14, series_parallel_ratio: 1.0, forks: 2, loops: 1 },
        &mut rng,
    )
}

fn prop_run(spec: &Specification, seed: u64, index: usize) -> Run {
    let mut rng = ChaCha8Rng::seed_from_u64(seed.wrapping_mul(31).wrapping_add(index as u64));
    let cfg = RunGenConfig { prob_p: 0.75, max_f: 2, prob_f: 0.6, max_l: 2, prob_l: 0.6 };
    generate_run(spec, &cfg, &mut rng)
}

/// Derives a legal node-lifecycle event sequence from a validated run: a
/// deterministic (smallest-id-first) topological order of the run DAG, each
/// instance started after its predecessors completed and completed
/// immediately.  Parallel duplicate edges collapse to one predecessor
/// reference — the builder's `preds` list is a set.
fn events_for(run: &Run) -> Vec<StreamEvent> {
    let g = run.graph();
    let n = g.node_count();
    let mut indegree = vec![0usize; n];
    for (_, e) in g.edges() {
        indegree[e.dst.index()] += 1;
    }
    let mut ready: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
    ready.sort_unstable_by(|a, b| b.cmp(a));
    let mut event_index = vec![usize::MAX; n];
    let mut events = Vec::with_capacity(2 * n);
    let mut emitted = 0;
    while let Some(node) = ready.pop() {
        let id = pdiffview::graph::NodeId(node as u32);
        event_index[node] = emitted;
        let mut preds: Vec<usize> =
            g.in_edges(id).iter().map(|&e| event_index[g.edge(e).src.index()]).collect();
        preds.sort_unstable();
        preds.dedup();
        events.push(StreamEvent::started(emitted, g.label(id).as_str(), preds));
        events.push(StreamEvent::completed(emitted));
        emitted += 1;
        for &e in g.out_edges(id) {
            let dst = g.edge(e).dst.index();
            indegree[dst] -= 1;
            if indegree[dst] == 0 {
                let pos = ready.binary_search_by(|x| dst.cmp(x)).unwrap_err();
                ready.insert(pos, dst);
            }
        }
    }
    events
}

/// `true` when the run graph holds two parallel edges between the same pair
/// of node instances — multiplicity the event stream's `preds` set cannot
/// express, so such runs are excluded from round-trip assertions.
fn has_parallel_edges(run: &Run) -> bool {
    let mut pairs: Vec<(u32, u32)> = run.graph().edges().map(|(_, e)| (e.src.0, e.dst.0)).collect();
    pairs.sort_unstable();
    pairs.windows(2).any(|w| w[0] == w[1])
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, .. ProptestConfig::default() })]

    /// The prefix bound never decreases as events stream in, never exceeds
    /// the exact distance of the finalised run, and tightens to exactly
    /// that distance once the completed run is supplied.
    #[test]
    fn prefix_bound_is_monotone_and_tightens_to_the_exact_distance(
        seed in 0u64..1_000_000,
    ) {
        let spec = Arc::new(prop_spec(seed));
        let reference = prop_run(&spec, seed, 0);
        let source = prop_run(&spec, seed, 1);
        let engine = WorkflowDiff::new(&spec, &UnitCost);
        let prepared_ref = engine.prepare(&reference, None).expect("reference prepares");

        let mut partial = PartialRun::new(Arc::clone(&spec));
        let mut prev = 0.0f64;
        for event in &events_for(&source) {
            partial.apply(event).expect("derived events are legal");
            let lb = engine
                .prefix_distance(partial.profile(), None, &prepared_ref, None)
                .expect("bound computes");
            prop_assert!(lb >= prev, "bound regressed: {lb} < {prev}");
            prev = lb;
        }
        // Parallel duplicate edges cannot be expressed by the event
        // stream's `preds` set, so round-trip assertions skip such runs.
        if !has_parallel_edges(&source) {
            let completed = partial.finalize().expect("complete streams finalize");
            let prepared = engine.prepare(&completed, None).expect("finalised run prepares");
            let exact = engine
                .distance_prepared(&prepared, &prepared_ref, None)
                .expect("exact distance computes");
            prop_assert!(prev <= exact, "final bound {prev} overshoots exact {exact}");
            let tightened = engine
                .prefix_distance(partial.profile(), Some(&prepared), &prepared_ref, None)
                .expect("tightened bound computes");
            prop_assert_eq!(tightened, exact);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, .. ProptestConfig::default() })]

    /// After every persisted batch, a cold reload of the directory (store,
    /// cluster state and stream registry) reports a drift verdict that is
    /// bit-identical to the live service's — the WAL neither loses events
    /// nor perturbs a single bound.
    #[test]
    fn wal_reload_reproduces_the_drift_trajectory(
        seed in 0u64..10_000,
        batch in 1usize..5,
    ) {
        let dir = CaseDir::new(seed);
        let store = Arc::new(WorkflowStore::new());
        let spec = store.insert_spec(prop_spec(seed)).expect("fresh spec");
        for index in 0..3 {
            store
                .insert_run(&format!("run{index:03}"), prop_run(&spec, seed, index))
                .expect("seed run");
        }
        store.save_to_dir(&dir.0).expect("initial save");
        let service = DiffService::new(Arc::clone(&store));
        service.cluster_medoids(SPEC, 2, CLUSTER_SEED).expect("clustering");
        service.save_cluster_state(&dir.0).expect("cluster checkpoint");

        let events = events_for(&prop_run(&spec, seed, 7));
        for chunk in events.chunks(batch) {
            let outcome = service.stream_events(SPEC, "live", chunk).expect("batch applies");
            store
                .append_stream_events_to_dir(&dir.0, SPEC, "live", outcome.ack.base_seq, chunk)
                .expect("batch persists");
            let live = format!("{:?}", service.drift_report(SPEC, "live").expect("drift"));

            let reloaded = Arc::new(WorkflowStore::load_from_dir(&dir.0).expect("reload"));
            let resumed = DiffService::new(Arc::clone(&reloaded));
            resumed.load_cluster_state(&dir.0);
            // In-memory spec fingerprints are not canonical across a
            // restart, so the checkpoint may validate stale; the rebuild
            // is deterministic (same members, k, seed, exact distances),
            // which is what the bit-identical trajectory relies on.
            resumed.cluster_medoids(SPEC, 2, CLUSTER_SEED).expect("clustering rebuilds");
            let report = resumed.load_streams(&dir.0).expect("stream replay");
            prop_assert_eq!(report.loaded, 1);
            prop_assert_eq!(resumed.stream_seq(SPEC, "live"), service.stream_seq(SPEC, "live"));
            let cold = format!("{:?}", resumed.drift_report(SPEC, "live").expect("drift"));
            prop_assert_eq!(&live, &cold, "drift trajectories diverged after reload");
        }
    }
}

/// A torn tail in the stream WAL silently ends the log at the last valid
/// record: the store loads, the stream resumes with the surviving prefix
/// and its drift report matches a fresh in-memory application of that
/// prefix — no panic anywhere on the path.
#[test]
fn torn_stream_records_resume_the_surviving_prefix() {
    let dir = CaseDir::new(0xE0E0);
    let store = Arc::new(WorkflowStore::new());
    let spec = store.insert_spec(prop_spec(42)).expect("fresh spec");
    store.insert_run("run000", prop_run(&spec, 42, 0)).expect("seed run");
    store.save_to_dir(&dir.0).expect("initial save");
    let service = DiffService::new(Arc::clone(&store));

    let events = events_for(&prop_run(&spec, 42, 1));
    let outcome = service.stream_events(SPEC, "torn", &events).expect("events apply");
    store
        .append_stream_events_to_dir(&dir.0, SPEC, "torn", outcome.ack.base_seq, &events)
        .expect("events persist");

    // Tear the last record's checksum by truncating a byte off the log.
    let wal = dir.0.join(pdiffview::pdiffview::WAL_FILE);
    let len = std::fs::metadata(&wal).expect("wal exists").len();
    let file = std::fs::OpenOptions::new().write(true).open(&wal).expect("open wal");
    file.set_len(len - 1).expect("truncate");
    drop(file);

    let reloaded = Arc::new(WorkflowStore::load_from_dir(&dir.0).expect("torn load succeeds"));
    let resumed = DiffService::new(Arc::clone(&reloaded));
    let report = resumed.load_streams(&dir.0).expect("stream replay succeeds");
    assert_eq!(report.loaded, 1, "the stream survives with its valid prefix");
    let survived = resumed.stream_seq(SPEC, "torn").expect("stream resumed");
    assert_eq!(survived, events.len() as u64 - 1, "exactly the torn record is lost");

    // The resumed stream is byte-for-byte the in-memory application of the
    // surviving prefix, applied afresh on the original store (the reloaded
    // store's services share its resumed stream).
    assert!(service.remove_stream(SPEC, "torn"));
    service
        .stream_events(SPEC, "torn", &events[..events.len() - 1])
        .expect("prefix applies cleanly");
    let got = format!("{:?}", resumed.drift_report(SPEC, "torn").expect("drift"));
    let want = format!("{:?}", service.drift_report(SPEC, "torn").expect("drift"));
    assert_eq!(got, want);
}

/// Ingesting a run event-by-event and finalising it must leave every index
/// — store contents, distance matrix, k-medoids partition, metric-index
/// answers — identical to inserting the same run whole.
#[test]
fn finalized_streams_are_indistinguishable_from_whole_inserts() {
    let seed = 77u64;
    let build = || {
        let store = Arc::new(WorkflowStore::new());
        let spec = store.insert_spec(prop_spec(seed)).expect("fresh spec");
        for index in 0..3 {
            store
                .insert_run(&format!("run{index:03}"), prop_run(&spec, seed, index))
                .expect("seed run");
        }
        let service = DiffService::new(Arc::clone(&store));
        // Warm both cluster and metric state so the insert exercises the
        // incremental maintenance paths, not a fresh rebuild.
        service.cluster_medoids(SPEC, 2, CLUSTER_SEED).expect("clustering");
        service.nearest_runs_pruned(SPEC, "run000", 2, 0.0).expect("metric index");
        (store, service, spec)
    };
    let (streamed_store, streamed_service, spec) = build();
    let (whole_store, whole_service, _) = build();

    let events = events_for(&prop_run(&spec, seed, 9));
    // Streamed path: batches through the registry, then finalisation.
    for chunk in events.chunks(3) {
        streamed_service.stream_events(SPEC, "newrun", chunk).expect("batch applies");
    }
    let (run, _) = streamed_service.finalize_stream(SPEC, "newrun").expect("finalises");
    // Storing the run under the stream's name closes the stream.
    streamed_store.insert_run_new("newrun", run).expect("insert");
    assert_eq!(streamed_service.stream_seq(SPEC, "newrun"), None);
    streamed_service.notify_run_inserted(SPEC, "newrun");

    // Whole path: the identical run (same builder, same events) in one go.
    let mut p = PartialRun::new(Arc::clone(&spec));
    for event in &events {
        p.apply(event).expect("events apply");
    }
    whole_store.insert_run("newrun", p.finalize().expect("finalises")).expect("insert");
    whole_service.notify_run_inserted(SPEC, "newrun");

    // Store: same run sets, same exact distance matrix.
    let got = streamed_service.diff_all_pairs(SPEC).expect("streamed all pairs");
    let want = whole_service.diff_all_pairs(SPEC).expect("whole all pairs");
    assert_eq!(got.runs, want.runs);
    assert_eq!(got.matrix, want.matrix);

    // Cluster index: identical partition after the incremental fold.
    let got = streamed_service.cluster_medoids(SPEC, 2, CLUSTER_SEED).expect("clustering");
    let want = whole_service.cluster_medoids(SPEC, 2, CLUSTER_SEED).expect("clustering");
    assert_eq!(got.partition(), want.partition());

    // Metric index: certified pruned answers agree run for run.
    for probe in ["run000", "newrun"] {
        let (got, _) =
            streamed_service.nearest_runs_pruned(SPEC, probe, 3, 0.0).expect("pruned query");
        let (want, _) =
            whole_service.nearest_runs_pruned(SPEC, probe, 3, 0.0).expect("pruned query");
        let got: Vec<(String, f64)> = got.into_iter().map(|p| (p.target, p.distance)).collect();
        let want: Vec<(String, f64)> = want.into_iter().map(|p| (p.target, p.distance)).collect();
        assert_eq!(got, want);
    }
}
