//! [`IncrementalClusterIndex`] — run clustering that follows the store.
//!
//! PDiffView's headline application is grouping the runs of a workflow
//! specification by provenance similarity.  A one-shot clustering over a
//! static store answers that once; a *server* (`POST /runs` streaming new
//! runs in) needs the clusters to follow the store without re-differencing
//! the world.  This index maintains, per specification:
//!
//! * the clustered member runs (sorted by name),
//! * the current medoids and per-run cluster assignments,
//! * a **memo of every edit distance ever fetched** for the clustering.
//!
//! # Cost of a streamed insert
//!
//! [`IncrementalClusterIndex::insert_run`] fetches only the distances the
//! update can actually need fresh: the new run against the `k` medoids, and
//! the new run against the members of the cluster it joins — **O(k +
//! |cluster|) prepared diffs, not O(n²)** (the service keeps every stored
//! run's tables resident, so each diff is the DP alone, and pair costs ride
//! its shared [`ShardedDiffCache`]).  The subsequent re-stabilisation
//! (the alternating iteration of [`kmedoids`](mod@crate::cluster::kmedoids),
//! warm-started from the current medoids) runs almost entirely against the
//! distance memo; it fetches more only in the rare case where the insert
//! actually moves a medoid and the change ripples into neighbouring
//! clusters.
//!
//! Because every mutation re-stabilises to a fixed point of the same
//! deterministic iteration, an index that tracked a store through inserts
//! and removals converges to the same clusters a from-scratch recluster of
//! the final store finds (the integration tests assert exactly this on
//! well-separated run families).
//!
//! # Staleness
//!
//! Index state is tagged with the specification's version fingerprint; a
//! replaced specification silently invalidates the state (it is rebuilt on
//! the next [`IncrementalClusterIndex::ensure`]).  The state is a *cache*:
//! dropping it never loses data, and the shared checkpoint mechanism of
//! [`crate::derived`] saves it next to the store directory so a restarted
//! server resumes without re-differencing.
//!
//! [`ShardedDiffCache`]: wfdiff_core::ShardedDiffCache

use super::kmedoids::{seed_medoids, solve};
use crate::derived::SpecStates;
use crate::metricindex::MedoidPivots;
use std::collections::HashMap;
use std::sync::Arc;
use wfdiff_sptree::Fingerprint;

/// Iteration ceiling of the stabilisation runs.
const MAX_ITERATIONS: usize = 64;

/// Supplies edit distances between stored runs of one specification, batched
/// one-source-to-many-targets so implementations can resolve the source run
/// once (the [`DiffService`](crate::service::DiffService) implementation
/// uses its resident prepared state and shared cache).
pub trait DistanceOracle {
    /// The oracle's failure type (e.g. a run disappeared from the store).
    type Error;

    /// Distances from `source` to each of `targets`, index-aligned.
    fn distances(&self, source: &str, targets: &[&str]) -> Result<Vec<f64>, Self::Error>;
}

/// One cluster of a [`ClusterSnapshot`]: a representative stored run (the
/// medoid) and the member runs, sorted by name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunCluster {
    /// The cluster's medoid — an actual stored run, not an abstract centre.
    pub medoid: String,
    /// All member runs (including the medoid), sorted by name.
    pub runs: Vec<String>,
}

/// A consistent, read-only view of one specification's run clustering.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSnapshot {
    /// The specification whose runs are clustered.
    pub spec: String,
    /// The requested cluster count (the effective count is
    /// `min(k, clustered runs)`).
    pub k: usize,
    /// Seed of the initial medoid draw.
    pub seed: u64,
    /// Clusters ordered by medoid name.
    pub clusters: Vec<RunCluster>,
    /// Medoid-based silhouette score in `[-1, 1]`
    /// (see [`KMedoids::silhouette`](crate::cluster::kmedoids::KMedoids::silhouette)).
    pub silhouette: f64,
    /// Sum of every run's distance to its medoid.
    pub cost: f64,
}

impl ClusterSnapshot {
    /// The cluster index of a run, if it is clustered.
    pub fn cluster_of(&self, run: &str) -> Option<usize> {
        self.clusters.iter().position(|c| c.runs.iter().any(|r| r == run))
    }

    /// The partition as a set of member-run lists (cluster order already
    /// normalised by medoid name) — handy for equality checks that should
    /// not depend on silhouette/cost float formatting.
    pub fn partition(&self) -> Vec<Vec<String>> {
        self.clusters.iter().map(|c| c.runs.clone()).collect()
    }
}

/// Per-specification clustering state; see the [module docs](self).
#[derive(Debug, Clone)]
pub(crate) struct SpecClusterState {
    /// Requested cluster count (effective count clamps to the member count).
    pub(crate) k: usize,
    /// Seed of the initial medoid draw.
    pub(crate) seed: u64,
    /// The specification version this state was computed against.
    pub(crate) version: Fingerprint,
    /// Clustered runs, sorted by name.
    pub(crate) members: Vec<String>,
    /// Cluster id per member run.
    pub(crate) assignments: HashMap<String, usize>,
    /// Medoid run names, one per cluster, sorted by name.
    pub(crate) medoids: Vec<String>,
    /// Memoised distances, keyed by ordered run-name pair.
    pub(crate) distances: HashMap<(String, String), f64>,
    /// Cached medoid-based silhouette of the current clustering.
    pub(crate) silhouette: f64,
    /// Cached sum of member-to-medoid distances.
    pub(crate) cost: f64,
    /// The medoid distance rows of this clustering, built on the first
    /// `/similar` query after a change; every mutation drops them.
    pub(crate) pivots: Option<Arc<MedoidPivots>>,
}

fn pair_key(a: &str, b: &str) -> (String, String) {
    if a <= b {
        (a.to_string(), b.to_string())
    } else {
        (b.to_string(), a.to_string())
    }
}

impl SpecClusterState {
    fn snapshot(&self, spec: &str) -> ClusterSnapshot {
        let mut clusters: Vec<RunCluster> = self
            .medoids
            .iter()
            .map(|m| RunCluster { medoid: m.clone(), runs: Vec::new() })
            .collect();
        for member in &self.members {
            let c = self.assignments[member];
            clusters[c].runs.push(member.clone());
        }
        ClusterSnapshot {
            spec: spec.to_string(),
            k: self.k,
            seed: self.seed,
            clusters,
            silhouette: self.silhouette,
            cost: self.cost,
        }
    }

    /// Memoised distance lookup; fetches through the oracle on a miss.
    fn distance<O: DistanceOracle>(
        &mut self,
        oracle: &O,
        a: &str,
        b: &str,
    ) -> Result<f64, O::Error> {
        if a == b {
            return Ok(0.0);
        }
        let key = pair_key(a, b);
        if let Some(&d) = self.distances.get(&key) {
            return Ok(d);
        }
        let d = oracle.distances(a, &[b])?[0];
        self.distances.insert(key, d);
        Ok(d)
    }

    /// Fetches (and memoises) the distances from `source` to every target
    /// not already memoised, in **one** oracle batch.
    fn prefetch<O: DistanceOracle>(
        &mut self,
        oracle: &O,
        source: &str,
        targets: &[String],
    ) -> Result<(), O::Error> {
        let missing: Vec<&str> = targets
            .iter()
            .map(String::as_str)
            .filter(|t| *t != source && !self.distances.contains_key(&pair_key(source, t)))
            .collect();
        if missing.is_empty() {
            return Ok(());
        }
        let fetched = oracle.distances(source, &missing)?;
        for (t, d) in missing.iter().zip(fetched) {
            self.distances.insert(pair_key(source, t), d);
        }
        Ok(())
    }

    /// Runs the alternating iteration to a fixed point from the given
    /// initial medoids (member indices) and installs the result.
    fn stabilize<O: DistanceOracle>(
        &mut self,
        oracle: &O,
        initial: Vec<usize>,
    ) -> Result<(), O::Error> {
        let members = self.members.clone();
        let n = members.len();
        debug_assert!(n > 0);
        let result = {
            let mut dist = |i: usize, j: usize| self.distance(oracle, &members[i], &members[j]);
            solve(n, initial, MAX_ITERATIONS, &mut dist)?
        };
        self.silhouette = {
            let mut dist = |i: usize, j: usize| self.distance(oracle, &members[i], &members[j]);
            result.silhouette(&mut dist)?
        };
        self.cost = result.cost;
        self.medoids = result.medoids.iter().map(|&m| members[m].clone()).collect();
        self.assignments =
            members.iter().zip(&result.assignments).map(|(name, &c)| (name.clone(), c)).collect();
        Ok(())
    }

    /// Deterministic farthest-point reseed followed by stabilisation —
    /// the from-scratch build path.
    fn reseed_and_stabilize<O: DistanceOracle>(
        &mut self,
        oracle: &O,
        effective_k: usize,
    ) -> Result<(), O::Error> {
        let members = self.members.clone();
        let seed = self.seed;
        let initial = {
            let mut dist = |i: usize, j: usize| self.distance(oracle, &members[i], &members[j]);
            seed_medoids(members.len(), effective_k, seed, &mut dist)?
        };
        self.stabilize(oracle, initial)
    }

    /// The current medoids as indices into the (sorted) member list.
    #[expect(
        clippy::expect_used,
        reason = "medoids are drawn from the member list and removals update both; binary_search cannot miss"
    )]
    fn medoid_indices(&self) -> Vec<usize> {
        self.medoids
            .iter()
            .map(|m| self.members.binary_search(m).expect("every medoid is a member"))
            .collect()
    }
}

/// A thread-safe registry of per-specification run clusterings; see the
/// [module docs](self).
///
/// Mutations are serialised per specification (one lock each), and the
/// lock is held across the distance fetches a mutation performs — so every
/// snapshot is a true fixed point of the iteration, while a clustering
/// update of one specification never waits for another's.
#[derive(Debug, Default)]
pub struct IncrementalClusterIndex {
    /// Per-specification states and their checkpoint dirty tracking.
    pub(super) states: SpecStates<SpecClusterState>,
}

impl IncrementalClusterIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        IncrementalClusterIndex::default()
    }

    /// Returns the clustering of `spec`'s runs, building (or rebuilding) it
    /// when the index holds no state for the requested `(k, seed)` over the
    /// given member set and specification version.
    ///
    /// `run_names` is the store's current run set for the specification;
    /// a state whose members diverge from it is stale and rebuilt.  An
    /// empty collection yields an empty snapshot and stores no state.
    ///
    /// The freshness check is by *name* — a run replaced under an
    /// unchanged name must be routed through
    /// [`IncrementalClusterIndex::insert_run`] (which purges its stale
    /// distances), exactly as
    /// [`DiffService::notify_run_inserted`](crate::service::DiffService::notify_run_inserted)
    /// does.
    pub fn ensure<O: DistanceOracle>(
        &self,
        spec: &str,
        version: Fingerprint,
        run_names: &[String],
        k: usize,
        seed: u64,
        oracle: &O,
    ) -> Result<ClusterSnapshot, O::Error> {
        let mut members: Vec<String> = run_names.to_vec();
        members.sort();
        members.dedup();
        if members.is_empty() {
            self.states.invalidate(spec);
            return Ok(ClusterSnapshot {
                spec: spec.to_string(),
                k,
                seed,
                clusters: Vec::new(),
                silhouette: 0.0,
                cost: 0.0,
            });
        }
        self.states.update(spec, |slot| {
            if let Some(state) = slot {
                if state.k == k
                    && state.seed == seed
                    && state.version == version
                    && state.members == members
                {
                    return Ok(state.snapshot(spec));
                }
            }
            // Rebuild, keeping the distance memo of a same-version
            // predecessor (a changed k or member set does not invalidate
            // distances).
            let distances = match slot.take() {
                Some(old) if old.version == version => old.distances,
                _ => HashMap::new(),
            };
            let mut state = SpecClusterState {
                k,
                seed,
                version,
                members,
                assignments: HashMap::new(),
                medoids: Vec::new(),
                distances,
                silhouette: 0.0,
                cost: 0.0,
                pivots: None,
            };
            let n = state.members.len();
            state.reseed_and_stabilize(oracle, k.clamp(1, n))?;
            let snapshot = state.snapshot(spec);
            *slot = Some(state);
            self.states.mark_spec_dirty(spec);
            Ok(snapshot)
        })
    }

    /// Folds a newly stored run into the clustering, if the index holds
    /// state for the specification (otherwise this is a no-op — the state
    /// will include the run when it is next built).
    ///
    /// Returns `true` when an index state absorbed the run.  A state built
    /// against a different specification version is dropped instead.
    pub fn insert_run<O: DistanceOracle>(
        &self,
        spec: &str,
        version: Fingerprint,
        run_name: &str,
        oracle: &O,
    ) -> Result<bool, O::Error> {
        let absorb = |slot: &mut Option<SpecClusterState>| {
            let Some(state) = slot else {
                return Ok(false);
            };
            state.pivots = None;
            if state.version != version {
                *slot = None;
                self.states.mark_spec_dirty(spec);
                return Ok(false);
            }
            if state.members.binary_search(&run_name.to_string()).is_ok() {
                // A replaced run of the same name: its old distances are stale.
                let name = run_name.to_string();
                state.distances.retain(|(a, b), _| *a != name && *b != name);
            } else {
                // O(k) fresh diffs: the new run against every medoid ...
                let medoids = state.medoids.clone();
                state.prefetch(oracle, run_name, &medoids)?;
                let mut nearest = (f64::INFINITY, 0usize);
                for (c, m) in medoids.iter().enumerate() {
                    let d = state.distance(oracle, run_name, m)?;
                    if d < nearest.0 {
                        nearest = (d, c);
                    }
                }
                // ... plus O(|cluster|) against the members of the cluster it
                // joins, so the medoid update has every sum it needs.
                let cluster_members: Vec<String> = state
                    .members
                    .iter()
                    .filter(|m| state.assignments.get(*m) == Some(&nearest.1))
                    .cloned()
                    .collect();
                state.prefetch(oracle, run_name, &cluster_members)?;
                // The name was verified absent above: this is its insert position.
                let (Ok(insert_at) | Err(insert_at)) =
                    state.members.binary_search(&run_name.to_string());
                state.members.insert(insert_at, run_name.to_string());
                state.assignments.insert(run_name.to_string(), nearest.1);
            }
            // An index built while fewer than k runs were stored clamped its
            // cluster count; growing past the clamp must add clusters back
            // (the mirror of remove_run's shrink path), or the maintained
            // clustering would permanently diverge from a from-scratch one.
            let effective_k = state.k.clamp(1, state.members.len());
            if state.medoids.len() < effective_k {
                state.reseed_and_stabilize(oracle, effective_k)?;
            } else {
                let initial = state.medoid_indices();
                state.stabilize(oracle, initial)?;
            }
            self.states.mark_spec_dirty(spec);
            Ok(true)
        };
        self.states.existing(spec, absorb).unwrap_or(Ok(false))
    }

    /// Removes a run from the clustering, if the index holds state for the
    /// specification.  Returns `true` when an index state was updated.
    pub fn remove_run<O: DistanceOracle>(
        &self,
        spec: &str,
        run_name: &str,
        oracle: &O,
    ) -> Result<bool, O::Error> {
        let remove = |slot: &mut Option<SpecClusterState>| {
            let Some(state) = slot else {
                return Ok(false);
            };
            let Ok(position) = state.members.binary_search(&run_name.to_string()) else {
                return Ok(false);
            };
            state.pivots = None;
            state.members.remove(position);
            state.assignments.remove(run_name);
            let name = run_name.to_string();
            state.distances.retain(|(a, b), _| *a != name && *b != name);
            self.states.mark_spec_dirty(spec);
            if state.members.is_empty() {
                *slot = None;
                return Ok(true);
            }
            let n = state.members.len();
            let effective_k = state.k.clamp(1, n);
            let was_medoid = state.medoids.iter().position(|m| m == run_name);
            if was_medoid.is_some() || state.medoids.len() > effective_k {
                if let (Some(c), true) = (was_medoid, state.medoids.len() <= effective_k) {
                    // Replace the lost medoid with the best remaining member
                    // of its former cluster (falling back to a deterministic
                    // reseed when the cluster emptied out).
                    let former: Vec<String> = state
                        .members
                        .iter()
                        .filter(|m| state.assignments.get(*m) == Some(&c))
                        .cloned()
                        .collect();
                    if former.is_empty() {
                        state.reseed_and_stabilize(oracle, effective_k)?;
                        return Ok(true);
                    }
                    let mut best = (f64::INFINITY, former[0].clone());
                    for candidate in &former {
                        // One batched fetch per candidate; the inner sum
                        // then runs entirely off the memo.
                        state.prefetch(oracle, candidate, &former)?;
                        let mut sum = 0.0;
                        for member in &former {
                            sum += state.distance(oracle, candidate, member)?;
                        }
                        if sum < best.0 {
                            best = (sum, candidate.clone());
                        }
                    }
                    state.medoids[c] = best.1;
                } else {
                    // The member count dropped below k: reseed
                    // deterministically with the clamped cluster count.
                    state.reseed_and_stabilize(oracle, effective_k)?;
                    return Ok(true);
                }
            }
            let initial = state.medoid_indices();
            state.stabilize(oracle, initial)?;
            Ok(true)
        };
        self.states.existing(spec, remove).unwrap_or(Ok(false))
    }

    /// Drops the state of one specification (e.g. after a spec replacement).
    pub fn invalidate(&self, spec: &str) {
        self.states.invalidate(spec);
    }

    /// A read-only snapshot of the current clustering of `spec`, if the
    /// index holds one.
    pub fn snapshot(&self, spec: &str) -> Option<ClusterSnapshot> {
        self.states.existing(spec, |slot| slot.as_ref().map(|s| s.snapshot(spec)))?
    }

    /// The memoised medoid-to-member distance rows of `spec`, for the
    /// metric index's candidate screening: `rows[member][i]` is the cached
    /// `d(member, medoid_i)` when the clustering happened to fetch it
    /// (`None` otherwise — rows are reused, never computed here).  The
    /// stabilisation iteration touches every member-to-medoid pair, so a
    /// settled clustering yields complete rows for free.
    ///
    /// The rows are built once per clustering and shared: every query until
    /// the next insert, removal, rebuild, invalidation or checkpoint load
    /// gets the same allocation.
    pub(crate) fn medoid_pivots(&self, spec: &str) -> Option<Arc<MedoidPivots>> {
        self.states.existing(spec, |slot| {
            let state = slot.as_mut()?;
            if state.medoids.is_empty() {
                return None;
            }
            if state.pivots.is_none() {
                let rows = state
                    .members
                    .iter()
                    .map(|member| {
                        let row = state
                            .medoids
                            .iter()
                            .map(|medoid| {
                                if member == medoid {
                                    Some(0.0)
                                } else {
                                    state.distances.get(&pair_key(member, medoid)).copied()
                                }
                            })
                            .collect();
                        (member.clone(), row)
                    })
                    .collect();
                state.pivots = Some(Arc::new(MedoidPivots::new(rows)));
            }
            state.pivots.clone()
        })?
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    /// A matrix-backed oracle over named points `p0..pN` that counts how
    /// many distances were actually fetched.
    struct MatrixOracle {
        matrix: Vec<Vec<f64>>,
        fetches: RefCell<usize>,
    }

    impl MatrixOracle {
        fn new(matrix: Vec<Vec<f64>>) -> Self {
            MatrixOracle { matrix, fetches: RefCell::new(0) }
        }

        fn index(name: &str) -> usize {
            name.trim_start_matches('p').parse().unwrap()
        }
    }

    impl DistanceOracle for MatrixOracle {
        type Error = String;

        fn distances(&self, source: &str, targets: &[&str]) -> Result<Vec<f64>, String> {
            *self.fetches.borrow_mut() += targets.len();
            let i = Self::index(source);
            Ok(targets.iter().map(|t| self.matrix[i][Self::index(t)]).collect())
        }
    }

    /// Three well-separated blobs on a line; names sort as p0..p8.
    fn blobs() -> Vec<Vec<f64>> {
        let coords: [f64; 9] = [0.0, 1.0, 2.0, 100.0, 101.0, 102.0, 200.0, 201.0, 202.0];
        coords.iter().map(|a| coords.iter().map(|b| (a - b).abs()).collect()).collect()
    }

    fn names(indices: std::ops::Range<usize>) -> Vec<String> {
        indices.map(|i| format!("p{i}")).collect()
    }

    const VERSION: Fingerprint = Fingerprint(42);

    #[test]
    fn ensure_builds_and_then_serves_from_state() {
        let oracle = MatrixOracle::new(blobs());
        let index = IncrementalClusterIndex::new();
        let snap = index.ensure("s", VERSION, &names(0..9), 3, 1, &oracle).unwrap();
        assert_eq!(snap.partition(), vec![names(0..3), names(3..6), names(6..9)]);
        assert_eq!(snap.clusters[0].medoid, "p1");
        assert!(snap.silhouette > 0.9);
        let fetched = *oracle.fetches.borrow();
        assert!(fetched > 0);
        // A second ensure with identical parameters is pure state read.
        let again = index.ensure("s", VERSION, &names(0..9), 3, 1, &oracle).unwrap();
        assert_eq!(again, snap);
        assert_eq!(*oracle.fetches.borrow(), fetched, "no new distance fetches");
    }

    #[test]
    fn streamed_insert_matches_scratch_and_fetches_o_cluster() {
        let oracle = MatrixOracle::new(blobs());
        let index = IncrementalClusterIndex::new();
        // Cluster everything except p0, then stream p0 in (an edge point of
        // its blob, so the blob's medoid p1 stays put and the whole update
        // runs off the memo).
        let mut initial = names(0..9);
        initial.retain(|n| n != "p0");
        index.ensure("s", VERSION, &initial, 3, 1, &oracle).unwrap();
        let before = *oracle.fetches.borrow();
        assert!(index.insert_run("s", VERSION, "p0", &oracle).unwrap());
        let after = *oracle.fetches.borrow();
        // At most k medoids + 2 same-cluster members.
        assert!(after - before <= 3 + 2, "fetched {} fresh distances", after - before);

        let scratch = IncrementalClusterIndex::new();
        let expected = scratch.ensure("s", VERSION, &names(0..9), 3, 1, &oracle).unwrap();
        assert_eq!(index.snapshot("s").unwrap(), expected);
    }

    #[test]
    fn removal_converges_and_medoid_loss_is_repaired() {
        let oracle = MatrixOracle::new(blobs());
        let index = IncrementalClusterIndex::new();
        let snap = index.ensure("s", VERSION, &names(0..9), 3, 1, &oracle).unwrap();
        let medoid = snap.clusters[0].medoid.clone();
        assert!(index.remove_run("s", &medoid, &oracle).unwrap());
        let scratch = IncrementalClusterIndex::new();
        let mut remaining = names(0..9);
        remaining.retain(|n| *n != medoid);
        let expected = scratch.ensure("s", VERSION, &remaining, 3, 1, &oracle).unwrap();
        assert_eq!(index.snapshot("s").unwrap(), expected);
        // Removing an unknown run is a no-op.
        assert!(!index.remove_run("s", "p99", &oracle).unwrap());
        assert!(!index.remove_run("other", "p0", &oracle).unwrap());
    }

    #[test]
    fn version_mismatch_invalidates_on_insert() {
        let oracle = MatrixOracle::new(blobs());
        let index = IncrementalClusterIndex::new();
        index.ensure("s", VERSION, &names(0..6), 2, 1, &oracle).unwrap();
        assert!(!index.insert_run("s", Fingerprint(7), "p6", &oracle).unwrap());
        assert!(index.snapshot("s").is_none(), "stale state was dropped");
    }

    #[test]
    fn growing_past_a_clamped_k_adds_clusters_back() {
        // Built while only 2 runs exist, k=3 clamps to 2 medoids; streaming
        // a third, well-separated run must grow the clustering back to 3
        // clusters — exactly what a from-scratch recluster yields.
        let oracle = MatrixOracle::new(blobs());
        let index = IncrementalClusterIndex::new();
        index.ensure("s", VERSION, &names(0..2), 3, 1, &oracle).unwrap();
        assert_eq!(index.snapshot("s").unwrap().clusters.len(), 2);
        assert!(index.insert_run("s", VERSION, "p6", &oracle).unwrap());
        let grown = index.snapshot("s").unwrap();
        assert_eq!(grown.clusters.len(), 3);
        let scratch = IncrementalClusterIndex::new();
        let expected = scratch
            .ensure("s", VERSION, &["p0".into(), "p1".into(), "p6".into()], 3, 1, &oracle)
            .unwrap();
        assert_eq!(grown, expected);
    }

    #[test]
    fn shrinking_below_k_reseeds_deterministically() {
        let oracle = MatrixOracle::new(blobs());
        let index = IncrementalClusterIndex::new();
        index.ensure("s", VERSION, &names(0..3), 3, 1, &oracle).unwrap();
        assert!(index.remove_run("s", "p0", &oracle).unwrap());
        let snap = index.snapshot("s").unwrap();
        assert_eq!(snap.clusters.len(), 2, "effective k clamps to the member count");
        assert!(index.remove_run("s", "p1", &oracle).unwrap());
        assert!(index.remove_run("s", "p2", &oracle).unwrap());
        assert!(index.snapshot("s").is_none(), "empty state is dropped");
    }

    #[test]
    fn a_rebuild_waiting_on_its_distances_does_not_block_another_spec() {
        let index = IncrementalClusterIndex::new();
        index.ensure("b", VERSION, &names(0..8), 3, 1, &MatrixOracle::new(blobs())).unwrap();
        let inserted = crate::derived::tests::finishes_while_another_spec_waits(
            MatrixOracle::new(blobs()),
            |gated| {
                index.ensure("a", VERSION, &names(0..9), 3, 1, gated).unwrap();
            },
            || assert!(index.insert_run("b", VERSION, "p8", &MatrixOracle::new(blobs())).unwrap()),
        );
        assert!(inserted, "the insert into spec b waited for spec a's rebuild");
        let blobs = vec![names(0..3), names(3..6), names(6..9)];
        assert_eq!(index.snapshot("a").unwrap().partition(), blobs);
        assert_eq!(index.snapshot("b").unwrap().partition(), blobs);
    }

    #[test]
    fn empty_collections_yield_empty_snapshots() {
        let oracle = MatrixOracle::new(blobs());
        let index = IncrementalClusterIndex::new();
        let snap = index.ensure("s", VERSION, &[], 3, 1, &oracle).unwrap();
        assert!(snap.clusters.is_empty());
        assert!(index.snapshot("s").is_none());
        assert!(!index.insert_run("s", VERSION, "p0", &oracle).unwrap());
    }
}
