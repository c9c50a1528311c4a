//! Integration tests for the batch diff engine: the memoised, parallel
//! `DiffService` must produce exactly the distances of a fresh, unmemoised
//! `WorkflowDiff` per pair, under concurrent store traffic.

use pdiffview::prelude::*;
use pdiffview::workloads::generator::{random_specification, SpecGenConfig};
use pdiffview::workloads::runs::{generate_run, RunGenConfig};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;
use wfdiff_sptree::{Run, Specification};

/// A small Fig. 12/14-style workload: one random specification and a handful
/// of random runs.
fn workload(spec_seed: u64, runs: usize, forks: usize, loops: usize) -> (Specification, Vec<Run>) {
    let mut rng = ChaCha8Rng::seed_from_u64(spec_seed);
    let spec = random_specification(
        &format!("batch-prop-{spec_seed}"),
        &SpecGenConfig { target_edges: 30, series_parallel_ratio: 1.0, forks, loops },
        &mut rng,
    );
    let cfg = RunGenConfig { prob_p: 0.8, max_f: 2, prob_f: 0.7, max_l: 2, prob_l: 0.7 };
    let runs = (0..runs).map(|_| generate_run(&spec, &cfg, &mut rng)).collect();
    (spec, runs)
}

fn service_over(spec: &Specification, runs: &[Run], threads: usize) -> (DiffService, String) {
    let name = spec.name().to_string();
    let store = Arc::new(WorkflowStore::new());
    store.insert_spec(spec.clone()).expect("fresh store");
    for (i, run) in runs.iter().enumerate() {
        store.insert_run(&format!("run{i:02}"), run.clone()).expect("spec stored");
    }
    (DiffService::builder(store).threads(threads).build(), name)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, .. ProptestConfig::default() })]

    /// Memoised batch distances equal fresh single-pair distances on random
    /// Fig. 12-style (branch-choice) and Fig. 14-style (fork/loop) workloads,
    /// cold and warm, single- and multi-threaded.
    #[test]
    fn memoized_batch_distances_equal_fresh_single_pair_distances(
        spec_seed in 0u64..10_000,
        run_count in 3usize..6,
        threads in 1usize..4,
        fork_loops in 0usize..3,
    ) {
        let (spec, runs) = workload(spec_seed, run_count, fork_loops, fork_loops);
        let (service, name) = service_over(&spec, &runs, threads);
        let cold = service.diff_all_pairs(&name).expect("all pairs");
        let warm = service.diff_all_pairs(&name).expect("all pairs warm");
        prop_assert_eq!(&warm, &cold);
        let engine = WorkflowDiff::new(&spec, &UnitCost);
        for i in 0..runs.len() {
            for j in 0..runs.len() {
                // A fresh engine with no cache is the ground truth.
                let fresh = engine.distance(&runs[i], &runs[j]).expect("valid runs");
                prop_assert_eq!(cold.matrix[i][j], fresh, "pair ({}, {})", i, j);
            }
        }
    }
}

#[test]
fn batch_and_single_pair_agree_through_every_api() {
    let (spec, runs) = workload(77, 5, 2, 1);
    let (service, name) = service_over(&spec, &runs, 4);
    let all = service.diff_all_pairs(&name).expect("all pairs");
    // diff() and diff_batch() agree with the matrix.
    let pairs: Vec<(String, String)> = (0..runs.len())
        .flat_map(|i| (0..runs.len()).map(move |j| (format!("run{i:02}"), format!("run{j:02}"))))
        .collect();
    let batch = service.diff_batch(&name, &pairs).expect("batch");
    for ((a, b), got) in pairs.iter().zip(&batch) {
        let expected = all.distance(a, b).expect("in matrix");
        assert_eq!(got.distance, expected, "{a} vs {b}");
        let single = service.diff(&name, a, b).expect("single").distance;
        assert_eq!(single, expected);
    }
    // Sessions agree too (full mapping + script path).
    let session = service.session(&name, "run00", "run01").expect("session");
    assert_eq!(session.distance(), all.distance("run00", "run01").expect("in matrix"));
}

#[test]
fn concurrent_service_traffic_keeps_distances_stable() {
    let (spec, runs) = workload(123, 4, 1, 1);
    let (service, name) = service_over(&spec, &runs, 2);
    let service = Arc::new(service);
    let expected = service.diff_all_pairs(&name).expect("baseline");
    let after_warmup = service.cache_stats();
    let workers: Vec<_> = (0..4)
        .map(|_| {
            let service = Arc::clone(&service);
            let name = name.clone();
            let expected = expected.clone();
            std::thread::spawn(move || {
                for _ in 0..5 {
                    let got = service.diff_all_pairs(&name).expect("all pairs");
                    assert_eq!(got, expected);
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("no worker panics");
    }
    let final_stats = service.cache_stats();
    assert_eq!(
        final_stats.misses, after_warmup.misses,
        "warm concurrent traffic must be answered entirely from the cache"
    );
    assert!(final_stats.hits > after_warmup.hits);
}

/// A cache far smaller than one all-pairs pass evicts entries while the
/// batch still needs them; every distance must stay exact regardless.
#[test]
fn distances_stay_exact_through_an_evicting_cache() {
    let (spec, runs) = workload(14, 8, 2, 2);
    let name = spec.name().to_string();
    let store = Arc::new(WorkflowStore::new());
    store.insert_spec(spec.clone()).expect("fresh store");
    for (i, run) in runs.iter().enumerate() {
        store.insert_run(&format!("run{i:02}"), run.clone()).expect("spec stored");
    }
    let cache = Arc::new(ShardedDiffCache::with_capacity(64));
    let service = DiffService::builder(store).cache(cache.clone()).threads(2).build();

    let n = runs.len();
    // A fresh engine with no cache is the ground truth, compared bit for bit.
    let engine = WorkflowDiff::new(&spec, &UnitCost);
    let fresh: Vec<Vec<u64>> = (0..n)
        .map(|i| {
            (0..n)
                .map(|j| engine.distance(&runs[i], &runs[j]).expect("valid runs").to_bits())
                .collect()
        })
        .collect();
    for pass in 0..2 {
        let all = service.diff_all_pairs(&name).expect("all pairs");
        let bits: Vec<Vec<u64>> =
            all.matrix.iter().map(|row| row.iter().map(|d| d.to_bits()).collect()).collect();
        assert_eq!(bits, fresh, "all-pairs pass {pass}");
    }
    let pairs: Vec<(String, String)> = (0..n)
        .flat_map(|i| (0..n).map(move |j| (format!("run{i:02}"), format!("run{j:02}"))))
        .collect();
    let batch = service.diff_batch(&name, &pairs).expect("batch");
    let bits: Vec<u64> = batch.iter().map(|p| p.distance.to_bits()).collect();
    assert_eq!(bits, fresh.concat(), "batch");
    assert!(cache.stats().evictions > 0, "the cache must have evicted: {:?}", cache.stats());
}
