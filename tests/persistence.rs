//! Property tests for the persistence subsystem: descriptor JSON round
//! trips rebuild equivalent trees, and `save_to_dir` → `load_from_dir` →
//! `diff_all_pairs` reproduces the exact distances of the pre-save store,
//! on random `wfdiff-workloads` specifications and runs.

use pdiffview::pdiffview::io::{RunDescriptor, SpecDescriptor};
use pdiffview::prelude::*;
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::path::PathBuf;
use std::sync::Arc;
use wfdiff_sptree::{Run, Specification};

fn workload(seed: u64, runs: usize, forks: usize, loops: usize) -> (Specification, Vec<Run>) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let spec = random_specification(
        &format!("persist-prop-{seed}"),
        &SpecGenConfig { target_edges: 30, series_parallel_ratio: 1.0, forks, loops },
        &mut rng,
    );
    let cfg = RunGenConfig { prob_p: 0.8, max_f: 2, prob_f: 0.7, max_l: 2, prob_l: 0.7 };
    let runs = (0..runs).map(|_| generate_run(&spec, &cfg, &mut rng)).collect();
    (spec, runs)
}

/// A per-case scratch directory (unique per seed so parallel test threads
/// never collide) that cleans up after itself.
struct CaseDir(PathBuf);

impl CaseDir {
    fn new(tag: &str, seed: u64) -> CaseDir {
        CaseDir(
            std::env::temp_dir()
                .join(format!("wfdiff-persist-prop-{tag}-{}-{seed}", std::process::id())),
        )
    }
}

impl Drop for CaseDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A descriptor round trip rebuilds the same specification version, not
/// just an equivalent tree: a client may assert the fingerprint it computed
/// before the trip.  (Rebuilding nodes in label first-appearance order
/// changed it for about one random specification in ten.)
#[test]
fn descriptor_round_trips_keep_the_version_fingerprint() {
    for (edges, forks, loops) in [(14, 2, 1), (30, 0, 0), (60, 3, 2)] {
        for seed in 0..100u64 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let config =
                SpecGenConfig { target_edges: edges, series_parallel_ratio: 1.0, forks, loops };
            let spec = random_specification("fingerprint", &config, &mut rng);
            let rebuilt =
                SpecDescriptor::from_json(&SpecDescriptor::from_specification(&spec).to_json())
                    .expect("spec JSON parses")
                    .to_specification()
                    .expect("spec descriptor rebuilds");
            assert_eq!(rebuilt.fingerprint(), spec.fingerprint(), "{config:?}, seed {seed}");
        }
    }
}

/// A descriptor written before node labels were recorded still loads, and
/// rebuilds an equivalent tree.
#[test]
fn descriptors_without_node_labels_still_load() {
    let (spec, _) = workload(7, 0, 1, 1);
    let mut desc = SpecDescriptor::from_specification(&spec);
    assert!(!desc.nodes.is_empty());
    desc.nodes.clear();
    let json = desc.to_json();
    let legacy = json.replace("\"nodes\": [],", "");
    assert!(!legacy.contains("\"nodes\""), "the field is gone from the document");
    let rebuilt = SpecDescriptor::from_json(&legacy)
        .expect("legacy JSON parses")
        .to_specification()
        .expect("legacy descriptor rebuilds");
    assert_eq!(rebuilt.stats(), spec.stats());
    assert!(rebuilt.tree().equivalent(spec.tree()));
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, .. ProptestConfig::default() })]

    /// `SpecDescriptor`/`RunDescriptor` JSON round trips rebuild equivalent
    /// trees on random fork/loop workloads.
    #[test]
    fn descriptor_json_roundtrips_rebuild_equivalent_trees(
        seed in 0u64..10_000,
        run_count in 1usize..4,
        forks in 0usize..3,
        loops in 0usize..3,
    ) {
        let (spec, runs) = workload(seed, run_count, forks, loops);
        let desc = SpecDescriptor::from_specification(&spec);
        let rebuilt_spec = SpecDescriptor::from_json(&desc.to_json())
            .expect("spec JSON parses")
            .to_specification()
            .expect("spec descriptor rebuilds");
        prop_assert_eq!(rebuilt_spec.stats(), spec.stats());
        prop_assert!(rebuilt_spec.tree().equivalent(spec.tree()));
        for run in &runs {
            let rebuilt = RunDescriptor::from_json(&RunDescriptor::from_run(run).to_json())
                .expect("run JSON parses")
                .to_run(&rebuilt_spec)
                .expect("run descriptor rebuilds");
            prop_assert!(rebuilt.tree().equivalent(run.tree()));
            prop_assert_eq!(rebuilt.edge_count(), run.edge_count());
        }
    }

    /// A persisted store reproduces the exact distance matrix of the store
    /// it was saved from, cold and after a warm start.
    #[test]
    fn persisted_stores_diff_identically(
        seed in 0u64..10_000,
        run_count in 2usize..5,
        fork_loops in 0usize..3,
    ) {
        let (spec, runs) = workload(seed, run_count, fork_loops, fork_loops);
        let name = spec.name().to_string();
        let store = Arc::new(WorkflowStore::new());
        store.insert_spec(spec).expect("fresh store");
        for (i, run) in runs.into_iter().enumerate() {
            store.insert_run(&format!("run{i:02}"), run).expect("spec stored");
        }
        let reference = DiffService::new(Arc::clone(&store))
            .diff_all_pairs(&name)
            .expect("all pairs");

        let dir = CaseDir::new("diff", seed);
        store.save_to_dir(&dir.0).expect("save succeeds");
        let loaded = Arc::new(WorkflowStore::load_from_dir(&dir.0).expect("load succeeds"));
        prop_assert_eq!(loaded.run_count(), store.run_count());
        // The loaded version is the saved one: a client holding the saved
        // fingerprint can still assert it when it posts a run.
        let fingerprint = |s: &WorkflowStore| s.spec(&name).expect("spec stored").fingerprint();
        prop_assert_eq!(fingerprint(&loaded), fingerprint(&store));

        let service = DiffService::new(loaded);
        service.warm_start().expect("warm start succeeds");
        let warm = service.diff_all_pairs(&name).expect("all pairs after load");
        prop_assert_eq!(&warm.runs, &reference.runs);
        // Exact equality, not tolerance: persistence must not perturb a
        // single bit of any distance.
        prop_assert_eq!(&warm.matrix, &reference.matrix);
    }

    /// A second save → load generation (load, re-save the loaded store,
    /// load again) is a fixpoint: same runs, same distances.
    #[test]
    fn resaving_a_loaded_store_is_a_fixpoint(
        seed in 0u64..10_000,
    ) {
        let (spec, runs) = workload(seed, 3, 1, 1);
        let name = spec.name().to_string();
        let store = Arc::new(WorkflowStore::new());
        store.insert_spec(spec).expect("fresh store");
        for (i, run) in runs.into_iter().enumerate() {
            store.insert_run(&format!("run{i:02}"), run).expect("spec stored");
        }
        let dir_a = CaseDir::new("fix-a", seed);
        let dir_b = CaseDir::new("fix-b", seed);
        store.save_to_dir(&dir_a.0).expect("first save");
        let gen1 = Arc::new(WorkflowStore::load_from_dir(&dir_a.0).expect("first load"));
        gen1.save_to_dir(&dir_b.0).expect("second save");
        let gen2 = Arc::new(WorkflowStore::load_from_dir(&dir_b.0).expect("second load"));

        let d1 = DiffService::new(gen1).diff_all_pairs(&name).expect("gen1 pairs");
        let d2 = DiffService::new(gen2).diff_all_pairs(&name).expect("gen2 pairs");
        prop_assert_eq!(&d1.runs, &d2.runs);
        prop_assert_eq!(&d1.matrix, &d2.matrix);
    }
}
