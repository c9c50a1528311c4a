//! Integration tests for the incremental run-clustering engine: k-medoids
//! assignments must be deterministic for a fixed seed, an incrementally
//! maintained clustering must converge to exactly what a from-scratch
//! recluster of the same store computes, and the persisted cluster
//! checkpoint must validate-or-rebuild correctly.

use pdiffview::pdiffview::{
    ClusterSnapshot, DiffService, FaultIo, FaultMode, RealIo, WorkflowStore,
};
use pdiffview::workloads::generator::{random_specification, SpecGenConfig};
use pdiffview::workloads::runs::{generate_run_families, RunGenConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use wfdiff_sptree::{Run, Specification};

const FAMILIES: usize = 3;
const PER_FAMILY: usize = 4;

/// A workload with unambiguous natural clusters: three families of runs,
/// each family repeating one distinct execution (so within-family edit
/// distances are zero and the k=3 clustering is exactly the families).
fn family_workload() -> (Specification, Vec<(String, Run)>) {
    let mut rng = ChaCha8Rng::seed_from_u64(0xFA_31);
    let spec = random_specification(
        "clustered",
        &SpecGenConfig { target_edges: 24, series_parallel_ratio: 1.0, forks: 2, loops: 1 },
        &mut rng,
    );
    let config = RunGenConfig { prob_p: 0.55, max_f: 3, prob_f: 0.5, max_l: 3, prob_l: 0.5 };
    let families = generate_run_families(&spec, &config, FAMILIES, PER_FAMILY, &mut rng);
    let named = families
        .into_iter()
        .enumerate()
        .flat_map(|(f, members)| {
            members.into_iter().enumerate().map(move |(m, run)| (format!("f{f}-m{m}"), run))
        })
        .collect();
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

/// The expected natural partition: one cluster per family, members sorted.
fn family_partition(runs: &[(String, Run)]) -> Vec<Vec<String>> {
    let mut partition: Vec<Vec<String>> = (0..FAMILIES)
        .map(|f| {
            let mut members: Vec<String> = runs
                .iter()
                .map(|(n, _)| n.clone())
                .filter(|n| n.starts_with(&format!("f{f}-")))
                .collect();
            members.sort();
            members
        })
        .filter(|family| !family.is_empty())
        .collect();
    partition.sort_by(|a, b| a[0].cmp(&b[0]));
    partition
}

#[test]
fn kmedoids_assignments_are_deterministic_for_a_fixed_seed() {
    let (spec, runs) = family_workload();
    // The families genuinely differ (the workload would otherwise prove
    // nothing).
    let store = store_with(&spec, &runs);
    let probe = DiffService::new(Arc::clone(&store));
    let cross = probe.diff("clustered", "f0-m0", "f1-m0").unwrap().distance;
    assert!(cross > 0.0, "families must be distinguishable");
    assert_eq!(probe.diff("clustered", "f0-m0", "f0-m1").unwrap().distance, 0.0);

    // Two independent services, same store content, same (k, seed): the
    // snapshots are identical in full (partition, medoids, silhouette,
    // cost).
    let a = DiffService::new(store_with(&spec, &runs));
    let b = DiffService::new(store_with(&spec, &runs));
    let snap_a = a.cluster_medoids("clustered", FAMILIES, 7).unwrap();
    let snap_b = b.cluster_medoids("clustered", FAMILIES, 7).unwrap();
    assert_eq!(snap_a, snap_b);

    // Farthest-point seeding recovers the natural family partition for any
    // seed on well-separated data.
    for seed in [0u64, 1, 2, 42, 0xDEAD] {
        let service = DiffService::new(store_with(&spec, &runs));
        let snap = service.cluster_medoids("clustered", FAMILIES, seed).unwrap();
        assert_eq!(snap.partition(), family_partition(&runs), "seed {seed}");
        assert!(snap.silhouette > 0.9, "seed {seed}: silhouette {}", snap.silhouette);
    }
}

#[test]
fn incremental_insert_and_remove_converge_to_the_scratch_clustering() {
    let (spec, runs) = family_workload();
    // Boot with the first two members of every family; stream the rest.
    let (boot, streamed): (Vec<_>, Vec<_>) =
        runs.iter().cloned().partition(|(name, _)| name.ends_with("m0") || name.ends_with("m1"));

    let store = store_with(&spec, &boot);
    let service = DiffService::new(Arc::clone(&store));
    let initial = service.cluster_medoids("clustered", FAMILIES, 3).unwrap();
    assert_eq!(initial.partition(), family_partition(&boot));

    // Stream the remaining runs in, one at a time, through the same
    // notification path the HTTP server uses.
    for (name, run) in &streamed {
        store.insert_run(name, run.clone()).unwrap();
        service.notify_run_inserted("clustered", name);
    }
    // Remove one streamed member and one boot member (the latter may well
    // be a medoid, exercising the medoid-replacement path).
    for gone in ["f1-m3", "f0-m0"] {
        assert!(store.remove_run("clustered", gone));
        service.notify_run_removed("clustered", gone);
    }

    let maintained = service.cluster_index().snapshot("clustered").unwrap();
    let survivors: Vec<(String, Run)> =
        runs.iter().filter(|(n, _)| n != "f1-m3" && n != "f0-m0").cloned().collect();
    assert_eq!(maintained.partition(), family_partition(&survivors));

    // The maintained state equals a from-scratch recluster of the same
    // final store — snapshot equality, not just the partition.
    let scratch = DiffService::new(Arc::clone(&store));
    let expected = scratch.cluster_medoids("clustered", FAMILIES, 3).unwrap();
    assert_eq!(maintained, expected);

    // And the incrementally served view is what cluster_medoids now
    // returns without a rebuild.
    let served = service.cluster_medoids("clustered", FAMILIES, 3).unwrap();
    assert_eq!(served, expected);
}

#[test]
fn nearest_runs_stay_exact_while_the_index_streams() {
    let (spec, runs) = family_workload();
    let store = store_with(&spec, &runs[..9]);
    let service = DiffService::new(Arc::clone(&store));
    service.cluster_medoids("clustered", FAMILIES, 3).unwrap();

    let (name, run) = &runs[9];
    store.insert_run(name, run.clone()).unwrap();
    service.notify_run_inserted("clustered", name);

    // /similar-style answers are exact: identical to a fresh service that
    // never clustered anything.
    let got = service.nearest_runs("clustered", name, 5).unwrap();
    let fresh = DiffService::new(Arc::clone(&store)).nearest_runs("clustered", name, 5).unwrap();
    assert_eq!(got, fresh);
    // The nearest runs are the query's own family (distance zero).
    assert_eq!(got[0].distance, 0.0);
    assert!(got[0].target.starts_with("f2-"), "{:?}", got[0]);
}

/// A scratch directory that cleans up after itself.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let path =
            std::env::temp_dir().join(format!("wfdiff-clustering-{tag}-{}", std::process::id()));
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

#[test]
fn cluster_checkpoints_reload_when_valid_and_rebuild_when_stale() {
    let (spec, runs) = family_workload();
    let dir = TempDir::new("checkpoint");
    store_with(&spec, &runs).save_to_dir(dir.path()).unwrap();

    // Serve path: load the directory, cluster, checkpoint.
    let loaded = Arc::new(WorkflowStore::load_from_dir(dir.path()).unwrap());
    let service = DiffService::new(Arc::clone(&loaded));
    let original: ClusterSnapshot = service.cluster_medoids("clustered", FAMILIES, 5).unwrap();
    assert_eq!(service.save_cluster_state(dir.path()).unwrap(), 1);

    // Restart: a fresh load resumes the exact clustering without any
    // re-differencing (the snapshot is served straight from the state).
    let restarted = DiffService::new(Arc::new(WorkflowStore::load_from_dir(dir.path()).unwrap()));
    let report = restarted.load_cluster_state(dir.path());
    assert_eq!((report.loaded, report.stale), (1, 0));
    assert_eq!(restarted.cluster_index().snapshot("clustered").unwrap(), original);
    assert_eq!(restarted.cluster_medoids("clustered", FAMILIES, 5).unwrap(), original);

    // A cost-model mismatch makes every cached distance meaningless: the
    // checkpoint is rejected wholesale.
    let other_cost =
        DiffService::builder(Arc::new(WorkflowStore::load_from_dir(dir.path()).unwrap()))
            .cost(Arc::new(wfdiff_core::LengthCost))
            .build();
    let report = other_cost.load_cluster_state(dir.path());
    assert_eq!((report.loaded, report.stale), (0, 1));
    assert!(other_cost.cluster_index().snapshot("clustered").is_none());

    // A store that gained a run after the checkpoint: the member set no
    // longer matches, the entry is stale, and the next query rebuilds a
    // clustering that includes the new run.
    let grown = Arc::new(WorkflowStore::load_from_dir(dir.path()).unwrap());
    let spec_arc = grown.spec("clustered").unwrap();
    // The extra run must be built against the *loaded* spec version (the
    // in-memory originals carry the pre-save arena identity).
    let extra = spec_arc.execute(&mut wfdiff_sptree::FullDecider).unwrap();
    grown.insert_run("zz-extra", extra).unwrap();
    let grown_service = DiffService::new(Arc::clone(&grown));
    let report = grown_service.load_cluster_state(dir.path());
    assert_eq!((report.loaded, report.stale), (0, 1));
    let rebuilt = grown_service.cluster_medoids("clustered", FAMILIES, 5).unwrap();
    assert!(rebuilt.cluster_of("zz-extra").is_some());

    // Replacing a run's *content* under an unchanged name makes the
    // checkpoint stale even though the member-name set is identical: the
    // memoised distances were computed against the old content.
    let swapped = Arc::new(WorkflowStore::load_from_dir(dir.path()).unwrap());
    let spec_arc = swapped.spec("clustered").unwrap();
    let full = spec_arc.execute(&mut wfdiff_sptree::FullDecider).unwrap();
    let victim = runs[0].0.clone();
    let original = swapped.run("clustered", &victim).unwrap();
    assert!(!original.tree().equivalent(full.tree()), "replacement must genuinely differ");
    swapped.insert_run(&victim, full).unwrap();
    let swapped_service = DiffService::new(Arc::clone(&swapped));
    let report = swapped_service.load_cluster_state(dir.path());
    assert_eq!((report.loaded, report.stale), (0, 1), "content swap is detected");

    // A clean index does no I/O at all; a mutation re-arms the write.  A
    // `FaultIo` without a fault point only counts durability operations.
    let fresh_dir = TempDir::new("dirty-skip");
    store_with(&spec, &runs).save_to_dir(fresh_dir.path()).unwrap();
    let io = Arc::new(FaultIo::new(Arc::new(RealIo), 0, FaultMode::Kill));
    let tracked =
        Arc::new(WorkflowStore::load_from_dir_with_io(fresh_dir.path(), io.clone()).unwrap());
    let tracked_service = DiffService::new(Arc::clone(&tracked));
    tracked_service.cluster_medoids("clustered", FAMILIES, 5).unwrap();
    let before_first = io.ops();
    assert_eq!(tracked_service.save_cluster_state(fresh_dir.path()).unwrap(), 1);
    let after_first = io.ops();
    assert!(after_first > before_first, "the first checkpoint writes the file");
    tracked_service.save_cluster_state(fresh_dir.path()).unwrap();
    assert_eq!(io.ops(), after_first, "a clean index does no I/O");
    let tracked_spec = tracked.spec("clustered").unwrap();
    let extra = tracked_spec.execute(&mut wfdiff_sptree::FullDecider).unwrap();
    tracked.insert_run("zz-tracked", extra).unwrap();
    tracked_service.notify_run_inserted("clustered", "zz-tracked");
    assert_eq!(tracked_service.save_cluster_state(fresh_dir.path()).unwrap(), 1);
    assert!(io.ops() > after_first, "a mutation re-arms the checkpoint");

    // The checkpoint is the file alone: the log holds none of it, and a
    // full save leaves the file as it was.
    let artifact = dir.path().join("cluster_cache.json");
    let written = std::fs::read(&artifact).unwrap();
    assert_eq!(pdiffview::pdiffview::wal::inspect(dir.path()).unwrap().records, 0);
    loaded.save_to_dir(dir.path()).unwrap();
    assert_eq!(std::fs::read(&artifact).unwrap(), written, "a fold rewrote the checkpoint");

    // A corrupt checkpoint is reported stale and ignored, never an error.
    std::fs::write(&artifact, "{not json").unwrap();
    let fresh = DiffService::new(Arc::new(WorkflowStore::load_from_dir(dir.path()).unwrap()));
    let report = fresh.load_cluster_state(dir.path());
    assert_eq!((report.loaded, report.stale), (0, 1));
    // A missing checkpoint is simply an empty report.
    std::fs::remove_file(&artifact).unwrap();
    let report = fresh.load_cluster_state(dir.path());
    assert_eq!((report.loaded, report.stale), (0, 0));
}
