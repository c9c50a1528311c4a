//! Property tests for the write-ahead-log persistence path: a random
//! interleaving of run inserts, removals and recluster checkpoints applied
//! *durably* (WAL appends, with and without threshold folds) must, after a
//! reload that replays the log, reproduce the exact distance matrix and
//! k-medoids partition of the same operations applied directly to an
//! in-memory store.

use pdiffview::prelude::*;
use proptest::prelude::*;
use rand::{Rng as _, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::path::PathBuf;
use std::sync::Arc;
use wfdiff_sptree::Specification;

const SPEC: &str = "wal-prop";
const CLUSTER_SEED: u64 = 11;

/// A per-case scratch directory (unique per seed so parallel test threads
/// never collide) that cleans up after itself.
struct CaseDir(PathBuf);

impl CaseDir {
    fn new(seed: u64) -> CaseDir {
        CaseDir(std::env::temp_dir().join(format!("wfdiff-wal-prop-{}-{seed}", std::process::id())))
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
        &SpecGenConfig { target_edges: 20, series_parallel_ratio: 1.0, forks: 2, loops: 1 },
        &mut rng,
    )
}

/// Run `index`'s content, seeded per index so both stores generate
/// byte-identical trees from their own spec instances.
fn prop_run(spec: &Specification, seed: u64, index: usize) -> wfdiff_sptree::Run {
    let mut rng = ChaCha8Rng::seed_from_u64(seed.wrapping_mul(31).wrapping_add(index as u64));
    let cfg = RunGenConfig { prob_p: 0.75, max_f: 2, prob_f: 0.6, max_l: 2, prob_l: 0.6 };
    generate_run(spec, &cfg, &mut rng)
}

/// The random operation interleaving, derived from a sampled numeric seed
/// (the vendored proptest shim strategies are numeric ranges).
#[derive(Debug, Clone)]
enum Op {
    Insert(usize),
    Remove(usize),
    Recluster(usize),
}

fn interleaving(seed: u64, ops: usize) -> Vec<Op> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xD1CE);
    let mut live: Vec<usize> = (0..3).collect();
    let mut next = live.len();
    let mut script = Vec::with_capacity(ops);
    for _ in 0..ops {
        match rng.gen_range(0..6u32) {
            0..=2 => {
                script.push(Op::Insert(next));
                live.push(next);
                next += 1;
            }
            3 if live.len() > 2 => {
                let victim = live.remove(rng.gen_range(0..live.len()));
                script.push(Op::Remove(victim));
            }
            _ => script.push(Op::Recluster(2 + rng.gen_range(0..2u32) as usize)),
        }
    }
    script
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, .. ProptestConfig::default() })]

    /// WAL-replayed stores are indistinguishable from direct in-memory
    /// application: exact run set, exact distance matrix, exact partition.
    #[test]
    fn wal_replay_matches_direct_application(
        seed in 0u64..10_000,
        op_count in 4usize..12,
    ) {
        let script = interleaving(seed, op_count);

        // Durable store: initial checkpoint, then every mutation through
        // the WAL.  Odd seeds fold aggressively mid-sequence (tiny
        // threshold), even seeds never fold — replay must not care.
        let dir = CaseDir::new(seed);
        let durable = Arc::new(WorkflowStore::new());
        durable.set_wal_fold_threshold(if seed % 2 == 1 { 256 } else { 0 });
        let durable_spec = durable.insert_spec(prop_spec(seed)).expect("fresh spec");
        for index in 0..3 {
            durable
                .insert_run(&format!("run{index:03}"), prop_run(&durable_spec, seed, index))
                .expect("initial run");
        }
        durable.save_to_dir(&dir.0).expect("initial save");
        let durable_service = DiffService::new(Arc::clone(&durable));

        // Reference store: the same operations, purely in memory.
        let memory = Arc::new(WorkflowStore::new());
        let memory_spec = memory.insert_spec(prop_spec(seed)).expect("fresh spec");
        for index in 0..3 {
            memory
                .insert_run(&format!("run{index:03}"), prop_run(&memory_spec, seed, index))
                .expect("initial run");
        }

        for op in &script {
            match op {
                Op::Insert(index) => {
                    let name = format!("run{index:03}");
                    let run = durable
                        .insert_run(&name, prop_run(&durable_spec, seed, *index))
                        .expect("durable insert");
                    durable.append_run_to_dir(&dir.0, &name, &run).expect("WAL append");
                    durable_service.notify_run_inserted(SPEC, &name);
                    memory
                        .insert_run(&name, prop_run(&memory_spec, seed, *index))
                        .expect("memory insert");
                }
                Op::Remove(index) => {
                    let name = format!("run{index:03}");
                    let removed = durable_service
                        .commit_run_removal(Some(&dir.0), SPEC, &name)
                        .expect("WAL removal");
                    prop_assert!(removed, "the script removes live runs only");
                    durable_service.notify_run_removed(SPEC, &name);
                    memory.remove_run(SPEC, &name);
                }
                Op::Recluster(k) => {
                    durable_service
                        .cluster_medoids(SPEC, *k, CLUSTER_SEED)
                        .expect("durable recluster");
                    durable_service.save_cluster_state(&dir.0).expect("cluster delta append");
                }
            }
        }

        // Reload: manifest + WAL replay must reconstruct the same store.
        let reloaded = Arc::new(WorkflowStore::load_from_dir(&dir.0).expect("replayed load"));
        let mut got_runs = reloaded.run_names(SPEC);
        got_runs.sort();
        let mut want_runs = memory.run_names(SPEC);
        want_runs.sort();
        prop_assert_eq!(&got_runs, &want_runs);

        let reloaded_service = DiffService::new(Arc::clone(&reloaded));
        reloaded_service.load_cluster_state(&dir.0);
        let memory_service = DiffService::new(Arc::clone(&memory));

        let got = reloaded_service.diff_all_pairs(SPEC).expect("replayed all pairs");
        let want = memory_service.diff_all_pairs(SPEC).expect("reference all pairs");
        prop_assert_eq!(&got.runs, &want.runs);
        // Exact equality: WAL replay must not perturb a single bit.
        prop_assert_eq!(&got.matrix, &want.matrix);

        let got_partition =
            reloaded_service.cluster_medoids(SPEC, 2, CLUSTER_SEED).expect("replayed clustering");
        let want_partition =
            memory_service.cluster_medoids(SPEC, 2, CLUSTER_SEED).expect("reference clustering");
        prop_assert_eq!(got_partition.partition(), want_partition.partition());
    }
}
