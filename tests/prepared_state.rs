//! The diff service keeps every stored run's fingerprints and Algorithm 3
//! tables resident.  These tests check that the resident state stays
//! coherent with the store: whatever mix of inserts, same-name
//! replacements, specification replacements, removals and direct store
//! mutations (which skip the `notify_*` calls) came before, every answer is
//! bit-identical to a fresh, cache-free `WorkflowDiff`, and resident entries
//! are reclaimed with the runs they were prepared for.

use pdiffview::pdiffview::{PartialRun, StreamEvent};
use pdiffview::prelude::*;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

const SPEC: &str = "prepared";
const STREAM: &str = "live";

/// One of two structurally different versions of the specification.
fn spec_version(seed: u64, version: usize) -> Specification {
    let mut rng = ChaCha8Rng::seed_from_u64(seed.wrapping_add(version as u64));
    let target_edges = if version == 0 { 10 } else { 16 };
    random_specification(
        SPEC,
        &SpecGenConfig { target_edges, series_parallel_ratio: 1.0, forks: 1, loops: 1 },
        &mut rng,
    )
}

fn random_run(spec: &Specification, rng: &mut ChaCha8Rng) -> Run {
    let cfg = RunGenConfig { prob_p: 0.75, max_f: 2, prob_f: 0.6, max_l: 2, prob_l: 0.6 };
    generate_run(spec, &cfg, rng)
}

/// A legal node-lifecycle event sequence for `run`: a smallest-id-first
/// topological order, each instance started after its predecessors
/// completed and completed immediately.
fn events_for(run: &Run) -> Vec<StreamEvent> {
    let g = run.graph();
    let n = g.node_count();
    let mut indegree = vec![0usize; n];
    for (_, e) in g.edges() {
        indegree[e.dst.index()] += 1;
    }
    let mut ready: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
    let mut event_index = vec![usize::MAX; n];
    let mut events = Vec::with_capacity(2 * n);
    while !ready.is_empty() {
        ready.sort_unstable_by(|a, b| b.cmp(a));
        let node = ready.pop().expect("non-empty");
        let id = pdiffview::graph::NodeId(node as u32);
        event_index[node] = events.len() / 2;
        let mut preds: Vec<usize> =
            g.in_edges(id).iter().map(|&e| event_index[g.edge(e).src.index()]).collect();
        preds.sort_unstable();
        preds.dedup();
        events.push(StreamEvent::started(event_index[node], g.label(id).as_str(), preds));
        events.push(StreamEvent::completed(event_index[node]));
        for &e in g.out_edges(id) {
            let dst = g.edge(e).dst.index();
            indegree[dst] -= 1;
            if indegree[dst] == 0 {
                ready.push(dst);
            }
        }
    }
    events
}

/// Checks every query the service answers against a fresh, cache-free
/// engine over the store's current contents.
///
/// The cluster and metric indexes memoise distances by run *name*, so a run
/// replaced under its name straight on the store (no `notify_*`) is
/// announced to them by dropping their state (`reset_indexes`); the resident
/// prepared state needs no such help.
fn check_answers(
    service: &DiffService,
    store: &Arc<WorkflowStore>,
    rng: &mut ChaCha8Rng,
    reset_indexes: bool,
) {
    let (spec, runs) = store.snapshot(SPEC).expect("the spec is stored");
    let engine = WorkflowDiff::new(&spec, &UnitCost);
    let fresh = |a: &Run, b: &Run| engine.distance(a, b).expect("valid runs");
    if runs.is_empty() {
        return;
    }

    // `diff` and one `diff_batch` over every ordered pair.
    let mut pairs = Vec::new();
    for (a, ra) in &runs {
        for (b, rb) in &runs {
            let want = fresh(ra, rb);
            let got = service.diff(SPEC, a, b).expect("diff").distance;
            assert_eq!(got.to_bits(), want.to_bits(), "diff {a} {b}");
            pairs.push((a.clone(), b.clone(), want));
        }
    }
    let batch: Vec<(String, String)> =
        pairs.iter().map(|(a, b, _)| (a.clone(), b.clone())).collect();
    let answered = service.diff_batch(SPEC, &batch).expect("diff_batch");
    for (got, (a, b, want)) in answered.iter().zip(&pairs) {
        assert_eq!(got.distance.to_bits(), want.to_bits(), "batch {a} {b}");
    }

    if reset_indexes {
        service.cluster_index().invalidate(SPEC);
        service.metric_index().invalidate(SPEC);
    }

    // Exact and pruned nearest runs against the fresh sorted row.
    let k = 3;
    for (q, rq) in &runs {
        let mut row: Vec<(String, f64)> =
            runs.iter().filter(|(n, _)| n != q).map(|(n, r)| (n.clone(), fresh(rq, r))).collect();
        row.sort_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
        row.truncate(k);
        let bits = |v: Vec<(String, f64)>| -> Vec<(String, u64)> {
            v.into_iter().map(|(n, d)| (n, d.to_bits())).collect()
        };
        let exact = service.nearest_runs(SPEC, q, k).expect("nearest");
        let exact = exact.into_iter().map(|p| (p.target, p.distance)).collect();
        assert_eq!(bits(exact), bits(row.clone()), "nearest {q}");
        let (pruned, _) = service.nearest_runs_pruned(SPEC, q, k, 0.0).expect("pruned");
        let pruned = pruned.into_iter().map(|p| (p.target, p.distance)).collect();
        assert_eq!(bits(pruned), bits(row), "pruned {q}");
    }

    // A from-scratch clustering (a new seed forces the rebuild) equals the
    // one a fresh service computes, silhouette and cost included.
    let seed = rng.gen_range(0u64..1_000_000);
    let clustered = service.cluster_medoids(SPEC, 2, seed).expect("clustering");
    let scratch =
        DiffService::new(Arc::clone(store)).cluster_medoids(SPEC, 2, seed).expect("fresh");
    assert_eq!(clustered, scratch, "cluster_medoids seed {seed}");

    // A drift verdict over a stream of the current version: radii and
    // certified bounds equal fresh recomputes.
    service.remove_stream(SPEC, STREAM);
    let events = events_for(&random_run(&spec, rng));
    let prefix = &events[..events.len() / 2];
    service.stream_events(SPEC, STREAM, prefix).expect("stream opens");
    let mut partial = PartialRun::new(Arc::clone(&spec));
    for event in prefix {
        partial.apply(event).expect("legal events");
    }
    let report = service.drift_report(SPEC, STREAM).expect("drift");
    assert_eq!(report.clusters.len(), clustered.clusters.len());
    for (status, cluster) in report.clusters.iter().zip(&clustered.clusters) {
        assert_eq!(status.medoid, cluster.medoid);
        let medoid = store.run(SPEC, &cluster.medoid).expect("medoid stored");
        let radius = cluster
            .runs
            .iter()
            .filter(|r| **r != cluster.medoid)
            .map(|r| fresh(&medoid, &store.run(SPEC, r).expect("member stored")))
            .fold(0.0, f64::max);
        assert_eq!(status.radius.to_bits(), radius.to_bits(), "radius of {}", cluster.medoid);
        let reference = engine.prepare(&medoid, None).expect("medoid prepares");
        let bound = engine
            .prefix_distance(partial.profile(), None, &reference, None)
            .expect("bound computes");
        assert_eq!(status.lower_bound.to_bits(), bound.to_bits(), "bound of {}", cluster.medoid);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, .. ProptestConfig::default() })]

    /// Inserts, same-name replacements, specification replacements and
    /// removals — through the service's `notify_*` calls or straight on the
    /// store — never make the service serve a stale answer.
    #[test]
    fn answers_stay_exact_under_mixed_store_mutations(seed in 0u64..1_000_000) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let versions = [spec_version(seed, 0), spec_version(seed, 1)];
        let mut current = 0;
        let store = Arc::new(WorkflowStore::new());
        store.insert_spec(versions[current].clone()).expect("fresh store");
        for i in 0..4 {
            store.insert_run(&format!("r{i}"), random_run(&versions[current], &mut rng)).unwrap();
        }
        let service = DiffService::builder(Arc::clone(&store)).threads(2).build();
        service.warm_start().expect("warm start");
        let mut next = 4;
        for _ in 0..8 {
            let mut replaced_directly = false;
            let names = store.run_names(SPEC);
            let pick = |rng: &mut ChaCha8Rng| names[rng.gen_range(0..names.len())].clone();
            match rng.gen_range(0..6) {
                // Insert a new run, announced.
                0 => {
                    let name = format!("r{next}");
                    next += 1;
                    store.insert_run(&name, random_run(&versions[current], &mut rng)).unwrap();
                    service.notify_run_inserted(SPEC, &name);
                }
                // Replace a run under its name, announced.
                1 if !names.is_empty() => {
                    let name = pick(&mut rng);
                    store.insert_run(&name, random_run(&versions[current], &mut rng)).unwrap();
                    service.notify_run_inserted(SPEC, &name);
                }
                // Replace the specification: every run is invalidated; the
                // new version's runs arrive partly announced, partly not.
                2 => {
                    current = 1 - current;
                    store.replace_spec(versions[current].clone());
                    for i in 0..3 {
                        let name = format!("r{next}");
                        next += 1;
                        store.insert_run(&name, random_run(&versions[current], &mut rng)).unwrap();
                        if i % 2 == 0 {
                            service.notify_run_inserted(SPEC, &name);
                        }
                    }
                }
                // Remove a run, announced.
                3 if names.len() > 2 => {
                    let name = pick(&mut rng);
                    store.remove_run(SPEC, &name);
                    service.notify_run_removed(SPEC, &name);
                }
                // Insert or replace straight on the store.
                4 => {
                    let name = if rng.gen_bool(0.5) && !names.is_empty() {
                        replaced_directly = true;
                        pick(&mut rng)
                    } else {
                        next += 1;
                        format!("r{}", next - 1)
                    };
                    store.insert_run(&name, random_run(&versions[current], &mut rng)).unwrap();
                }
                // Remove straight on the store.
                5 if names.len() > 2 => {
                    store.remove_run(SPEC, &pick(&mut rng));
                }
                _ => {}
            }
            check_answers(&service, &store, &mut rng, replaced_directly);
        }
    }
}

fn service_with_runs(seed: u64, runs: usize) -> (Arc<WorkflowStore>, DiffService) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let spec = spec_version(seed, 0);
    let store = Arc::new(WorkflowStore::new());
    store.insert_spec(spec.clone()).expect("fresh store");
    for i in 0..runs {
        store.insert_run(&format!("r{i}"), random_run(&spec, &mut rng)).unwrap();
    }
    let service = DiffService::builder(Arc::clone(&store)).threads(2).build();
    (store, service)
}

#[test]
fn resident_entries_follow_removals_and_spec_replacement() {
    let (store, service) = service_with_runs(11, 6);
    service.warm_start().expect("warm start");
    assert_eq!(service.prepared_runs(), 6);

    for name in ["r1", "r4"] {
        assert!(store.remove_run(SPEC, name));
        service.notify_run_removed(SPEC, name);
    }
    assert_eq!(service.prepared_runs(), store.run_count());

    // A replaced version invalidates every run; the first of the new
    // version's runs drops the old entries.
    let v1 = store.replace_spec(spec_version(11, 1)).0;
    assert_eq!(store.run_count(), 0);
    let mut rng = ChaCha8Rng::seed_from_u64(12);
    for name in ["s0", "s1", "s2"] {
        store.insert_run(name, random_run(&v1, &mut rng)).unwrap();
        service.notify_run_inserted(SPEC, name);
    }
    assert_eq!(service.prepared_runs(), 3);
    assert_eq!(service.prepared_runs(), store.run_count());

    // Removals the service never heard of are reclaimed by the next
    // whole-specification query, as is a replaced version with no runs.
    assert!(store.remove_run(SPEC, "s0"));
    service.diff_all_pairs(SPEC).expect("all pairs");
    assert_eq!(service.prepared_runs(), store.run_count());
    store.replace_spec(spec_version(11, 0));
    service.diff_all_pairs(SPEC).expect("all pairs of no runs");
    assert_eq!(service.prepared_runs(), 0);
}

/// Run-tree size of the largest stored run.
fn largest_run(store: &WorkflowStore) -> usize {
    let (_, runs) = store.snapshot(SPEC).expect("the spec is stored");
    runs.iter().map(|(_, r)| r.tree().len()).max().unwrap_or(0)
}

#[test]
fn a_warm_diff_costs_the_same_cache_probes_at_any_run_size() {
    let mut probes = Vec::new();
    for (seed, edges) in [(21u64, 8usize), (22, 150)] {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let spec = random_specification(
            SPEC,
            &SpecGenConfig { target_edges: edges, series_parallel_ratio: 1.0, forks: 2, loops: 1 },
            &mut rng,
        );
        let store = Arc::new(WorkflowStore::new());
        store.insert_spec(spec.clone()).expect("fresh store");
        let (a, b) = loop {
            let a = random_run(&spec, &mut rng);
            let b = random_run(&spec, &mut rng);
            if WorkflowDiff::new(&spec, &UnitCost).distance(&a, &b).unwrap() > 0.0 {
                break (a, b);
            }
        };
        store.insert_run("a", a).unwrap();
        store.insert_run("b", b).unwrap();
        let service = DiffService::new(Arc::clone(&store));
        service.warm_start().expect("warm start");
        service.diff(SPEC, "a", "b").expect("cold diff");
        let before = service.cache_stats();
        service.diff(SPEC, "a", "b").expect("warm diff");
        let after = service.cache_stats();
        probes.push((
            (after.hits + after.misses) - (before.hits + before.misses),
            largest_run(&store),
        ));
    }
    let (small, large) = (probes[0], probes[1]);
    assert!(large.1 > 3 * small.1, "the runs differ in size: {probes:?}");
    assert_eq!(small.0, large.0, "probes per warm diff: {probes:?}");
    assert!(large.0 <= 1, "a warm diff is answered at the root: {probes:?}");
}
