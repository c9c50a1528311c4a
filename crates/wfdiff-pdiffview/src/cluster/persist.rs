//! The `cluster_cache.json` checkpoint of an [`IncrementalClusterIndex`].
//!
//! Every clustering can be recomputed from the store, so the checkpoint is
//! strictly a cache that lets a restarted server resume without
//! re-differencing.  It is one file, a function of the index's memory; the
//! store's write-ahead log holds none of it.
//!
//! * Every mutation of the index bumps its generation.
//! * [`DiffService::save_cluster_state`] replaces [`CLUSTER_CACHE_FILE`]
//!   whole with an entry per specification the index holds.  It encodes
//!   the entries without the store's save lock, then takes that lock for
//!   the atomic write alone (temporary file, fsync, rename), so a durable
//!   write never waits for an encode.  The index remembers the generation
//!   of the last checkpoint it wrote: an index that checkpoint covers
//!   writes nothing, a checkpoint never replaces one of a later
//!   generation, and a mutation during an encode leaves the index due.
//! * [`DiffService::load_cluster_state`] reads the file and **validates
//!   every entry** against the live store: format version, cost-model key,
//!   specification version, member set, per-run content fingerprints, then
//!   the clustering's own structure (medoids, assignments, memoised
//!   distances, silhouette and cost).  Anything that fails, including an
//!   entry this version cannot decode, counts as stale and is rebuilt on
//!   the next query, so a corrupt or foreign checkpoint never poisons an
//!   answer.  The `wfdiff_serve` boot sequence calls it right after
//!   [`DiffService::warm_start`].
//!
//! [`DiffService::save_cluster_state`]: crate::service::DiffService::save_cluster_state
//! [`DiffService::load_cluster_state`]: crate::service::DiffService::load_cluster_state
//! [`DiffService::warm_start`]: crate::service::DiffService::warm_start

use super::incremental::{IncrementalClusterIndex, SpecClusterState};
use crate::persist::{read_json, write_atomic, PersistError};
use crate::store::WorkflowStore;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::Ordering;
use wfdiff_sptree::{Fingerprint, Run};

/// Version tag of the cluster-cache artifact; unknown versions are treated
/// as stale (rebuilt), never as errors.
pub const CLUSTER_CACHE_FORMAT: u32 = 1;

/// File name of the artifact inside a store directory.
pub const CLUSTER_CACHE_FILE: &str = "cluster_cache.json";

/// What a [`DiffService::load_cluster_state`] pass accepted and rejected.
///
/// [`DiffService::load_cluster_state`]: crate::service::DiffService::load_cluster_state
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CheckpointReport {
    /// Specification states restored into the index.
    pub loaded: usize,
    /// Entries (or the whole file) rejected as stale or corrupt; each is
    /// rebuilt on the next query.
    pub stale: usize,
}

/// `cluster_cache.json`.
#[derive(Serialize, Deserialize)]
struct ClusterCacheFile {
    /// See [`CLUSTER_CACHE_FORMAT`].
    format: u32,
    /// [`CostModel::cache_key`](wfdiff_core::CostModel::cache_key) the
    /// entries were computed under; another cost model makes them
    /// meaningless.
    cost_key: u64,
    /// One entry per specification, sorted by name.
    specs: Vec<SpecClusterDoc>,
}

/// One specification's checkpointed clustering: a whole snapshot of its
/// state, never a partial diff.
#[derive(Debug, Serialize, Deserialize)]
struct SpecClusterDoc {
    spec: String,
    /// Version fingerprint (hex) of the specification the clustering was
    /// computed against; must match the loaded store's version exactly.
    spec_fingerprint: String,
    k: usize,
    seed: u64,
    /// Clustered runs, strictly ascending.
    members: Vec<String>,
    /// Canonical tree fingerprint (hex) of each member's run **content**,
    /// aligned with `members`.  Without this, replacing a run under an
    /// unchanged name would let a checkpoint full of distances computed
    /// against the old content validate as fresh.
    run_fingerprints: Vec<String>,
    /// Cluster id per member, aligned with `members`.
    assignments: Vec<usize>,
    /// Medoid run names, one per cluster.
    medoids: Vec<String>,
    /// Memoised distances, `i < j` indexing `members`.
    distances: Vec<DistanceEntry>,
    silhouette: f64,
    cost: f64,
}

/// One memoised distance of a [`SpecClusterDoc`].
#[derive(Debug, Serialize, Deserialize)]
struct DistanceEntry {
    /// Lower member index.
    i: usize,
    /// Higher member index.
    j: usize,
    /// The edit distance.
    d: f64,
}

/// The canonical content fingerprint of a run's annotated tree (origin
/// references included, so it is comparable exactly when the specification
/// version fingerprints already match — which [`validate`] checks first).
fn run_content_fingerprint(run: &Run) -> Fingerprint {
    wfdiff_sptree::TreeFingerprints::compute(run.tree()).of(run.tree().root())
}

/// A checkpoint encoded from the index's memory, not yet written.
#[derive(Debug)]
pub(crate) struct EncodedCheckpoint {
    /// The index generation the entries cover.
    generation: u64,
    /// The file's bytes.
    json: String,
}

impl IncrementalClusterIndex {
    /// Checkpoints the index by replacing `dir`'s [`CLUSTER_CACHE_FILE`]
    /// with one entry per specification it holds, sorted by name.  Returns
    /// the number of specifications the index tracks.  An index whose
    /// generation the last checkpoint written already covers writes
    /// nothing.  See [`Self::encode_checkpoint`] and
    /// [`Self::write_checkpoint`]: only the write holds the store's save
    /// lock.
    pub(crate) fn save_checkpoint(
        &self,
        store: &WorkflowStore,
        cost_key: u64,
        dir: &Path,
    ) -> Result<usize, PersistError> {
        let path = dir.join(CLUSTER_CACHE_FILE);
        if let Some(checkpoint) = self.encode_checkpoint(store, cost_key, &path)? {
            self.write_checkpoint(store, &path, &checkpoint)?;
        }
        Ok(self.states.tracked())
    }

    /// The checkpoint of the index as it is now, or `None` when the last
    /// checkpoint written covers the current generation.  Takes no save
    /// lock: each entry is encoded under its specification's lock, which
    /// may wait for a mutation of that specification.  A member that
    /// no longer resolves in `store` (a removal the index has not been told
    /// of yet) leaves its specification out rather than written
    /// inconsistently.  `path` names the file in a serialisation error.
    pub(crate) fn encode_checkpoint(
        &self,
        store: &WorkflowStore,
        cost_key: u64,
        path: &Path,
    ) -> Result<Option<EncodedCheckpoint>, PersistError> {
        let generation = self.generation.load(Ordering::Acquire);
        if generation == self.checkpointed.load(Ordering::Acquire) {
            return Ok(None);
        }
        let mut specs = self.states.specs();
        specs.sort();
        let docs = specs
            .iter()
            .filter_map(|spec| {
                self.states.existing(spec, |slot| {
                    let state = slot.as_ref()?;
                    let run_fingerprints = state
                        .members
                        .iter()
                        .map(|m| {
                            store.run(spec, m).map(|run| run_content_fingerprint(&run).to_string())
                        })
                        .collect::<Option<_>>()?;
                    Some(to_doc(spec, state, run_fingerprints))
                })?
            })
            .collect();
        let file = ClusterCacheFile { format: CLUSTER_CACHE_FORMAT, cost_key, specs: docs };
        let json = serde_json::to_string_pretty(&file)
            .map_err(|source| PersistError::Json { path: path.to_path_buf(), source })?;
        Ok(Some(EncodedCheckpoint { generation, json }))
    }

    /// Writes `checkpoint` to `path` atomically under the store's save
    /// lock, unless a checkpoint of the same or a later generation was
    /// written meanwhile: checkpoints never replace a newer file with an
    /// older state, and a fold's sweep of temporary files never meets an
    /// in-flight one.  A failed write, like a mutation since the encode,
    /// keeps the index due for the next checkpoint.
    pub(crate) fn write_checkpoint(
        &self,
        store: &WorkflowStore,
        path: &Path,
        checkpoint: &EncodedCheckpoint,
    ) -> Result<(), PersistError> {
        let _save = store.save_lock.lock();
        if self.checkpointed.load(Ordering::Acquire) >= checkpoint.generation {
            return Ok(());
        }
        write_atomic(&*store.io, path, checkpoint.json.as_bytes())?;
        self.checkpointed.store(checkpoint.generation, Ordering::Release);
        Ok(())
    }

    /// Restores the checkpoint of `dir`, validating every entry against the
    /// live `store` (see the [module docs](self)).  A missing file is an
    /// empty report; a corrupt, foreign or mis-keyed file counts as one
    /// stale entry.  Any stale entry marks the index changed, so the next
    /// checkpoint rewrites the file without it.
    pub(crate) fn load_checkpoint(
        &self,
        store: &WorkflowStore,
        cost_key: u64,
        dir: &Path,
    ) -> CheckpointReport {
        let path = dir.join(CLUSTER_CACHE_FILE);
        let mut report = CheckpointReport::default();
        if !path.exists() {
            return report;
        }
        let docs = match read_json::<ClusterCacheFile>(&path) {
            Ok(file) if file.format == CLUSTER_CACHE_FORMAT && file.cost_key == cost_key => {
                file.specs
            }
            _ => {
                report.stale += 1;
                Vec::new()
            }
        };
        for doc in docs {
            let spec = doc.spec.clone();
            match validate(doc, store) {
                Some(state) => {
                    self.states.update(&spec, |slot| *slot = Some(state));
                    report.loaded += 1;
                }
                None => report.stale += 1,
            }
        }
        if report.stale > 0 {
            self.mark_changed();
        }
        report
    }
}

/// The checkpoint entry of `spec`'s state; `run_fingerprints` is aligned
/// with its members.
fn to_doc(spec: &str, state: &SpecClusterState, run_fingerprints: Vec<String>) -> SpecClusterDoc {
    let index_of: HashMap<&str, usize> =
        state.members.iter().enumerate().map(|(i, m)| (m.as_str(), i)).collect();
    let mut distances: Vec<DistanceEntry> = state
        .distances
        .iter()
        .filter_map(|((a, b), &d)| {
            // Entries for runs that have since been removed are already
            // pruned by the index; be defensive anyway.
            let (i, j) = (*index_of.get(a.as_str())?, *index_of.get(b.as_str())?);
            Some(DistanceEntry { i: i.min(j), j: i.max(j), d })
        })
        .collect();
    distances.sort_by_key(|x| (x.i, x.j));
    SpecClusterDoc {
        spec: spec.to_string(),
        spec_fingerprint: state.version.to_string(),
        k: state.k,
        seed: state.seed,
        members: state.members.clone(),
        run_fingerprints,
        assignments: state.members.iter().map(|m| state.assignments[m]).collect(),
        medoids: state.medoids.clone(),
        distances,
        silhouette: state.silhouette,
        cost: state.cost,
    }
}

/// Full validation of one checkpoint entry; `None` means stale (rebuilt on
/// demand).
fn validate(doc: SpecClusterDoc, store: &WorkflowStore) -> Option<SpecClusterState> {
    let (spec, runs) = store.snapshot(&doc.spec)?;
    if spec.fingerprint().to_string() != doc.spec_fingerprint {
        return None;
    }
    let version = Fingerprint(u128::from_str_radix(&doc.spec_fingerprint, 16).ok()?);
    // The member set must be exactly the store's current, non-empty run set,
    // strictly ascending (which also rules out duplicates) ...
    let n = doc.members.len();
    if runs.is_empty()
        || n != runs.len()
        || doc.members.iter().zip(&runs).any(|(member, (name, _))| member != name)
        || !doc.members.windows(2).all(|w| w[0] < w[1])
    {
        return None;
    }
    // ... and each member's run *content* must be the content the state was
    // computed against (a replaced run keeps its name but changes its tree).
    if doc.run_fingerprints.len() != n
        || runs
            .iter()
            .zip(&doc.run_fingerprints)
            .any(|((_, run), recorded)| run_content_fingerprint(run).to_string() != *recorded)
    {
        return None;
    }
    let clusters = doc.medoids.len();
    if doc.k == 0 || clusters != doc.k.clamp(1, n) {
        return None;
    }
    // Medoids: distinct members, ascending (the index's normal form), and
    // every assignment must point at an existing cluster with the medoid
    // assigned to itself.
    if !doc.medoids.windows(2).all(|w| w[0] < w[1]) || doc.assignments.len() != n {
        return None;
    }
    let member_index: HashMap<&str, usize> =
        doc.members.iter().enumerate().map(|(i, m)| (m.as_str(), i)).collect();
    for (c, medoid) in doc.medoids.iter().enumerate() {
        let &m = member_index.get(medoid.as_str())?;
        if doc.assignments[m] != c {
            return None;
        }
    }
    if doc.assignments.iter().any(|&a| a >= clusters) {
        return None;
    }
    if !doc.silhouette.is_finite()
        || !(-1.0..=1.0).contains(&doc.silhouette)
        || !doc.cost.is_finite()
        || doc.cost < 0.0
    {
        return None;
    }
    let mut distances = HashMap::with_capacity(doc.distances.len());
    for &DistanceEntry { i, j, d } in &doc.distances {
        if i >= j || j >= n || !d.is_finite() || d < 0.0 {
            return None;
        }
        if distances.insert((doc.members[i].clone(), doc.members[j].clone()), d).is_some() {
            return None;
        }
    }
    let assignments = doc.members.iter().cloned().zip(doc.assignments).collect();
    Some(SpecClusterState {
        k: doc.k,
        seed: doc.seed,
        version,
        members: doc.members,
        assignments,
        medoids: doc.medoids,
        distances,
        silhouette: doc.silhouette,
        cost: doc.cost,
        pivots: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::incremental::DistanceOracle;
    use crate::derived::tests::finishes_while_another_waits;
    use crate::persist::tests::{seeded_store, TempDir};
    use std::time::Duration;
    use wfdiff_workloads::figures::fig2_run3;

    /// Every pair of runs at distance 1: the clustering is irrelevant here,
    /// only who holds which lock.
    struct Unit;

    impl DistanceOracle for Unit {
        type Error = String;

        fn distances(&self, _source: &str, targets: &[&str]) -> Result<Vec<f64>, String> {
            Ok(vec![1.0; targets.len()])
        }
    }

    fn names(n: usize) -> Vec<String> {
        (1..=n).map(|i| format!("r{i}")).collect()
    }

    #[test]
    fn a_durable_append_does_not_wait_for_a_checkpoint_blocked_on_a_slot() {
        let dir = TempDir::new("cluster-checkpoint-append");
        let store = seeded_store();
        store.save_to_dir(dir.path()).unwrap();
        let spec = store.spec("fig2").unwrap();
        let index = IncrementalClusterIndex::new();
        index.ensure("fig2", spec.fingerprint(), &names(3), 2, 1, &Unit).unwrap();
        store.insert_run("r4", fig2_run3(&spec)).unwrap();
        let run = fig2_run3(&spec);
        std::thread::scope(|scope| {
            let appended = finishes_while_another_waits(
                Unit,
                |gated| assert!(index.insert_run("fig2", spec.fingerprint(), "r4", gated).unwrap()),
                || {
                    // The checkpoint waits for the slot the insert holds.
                    scope.spawn(|| index.save_checkpoint(&store, 0, dir.path()).unwrap());
                    std::thread::sleep(Duration::from_millis(100));
                    store.append_run_to_dir(dir.path(), "r5", &run).unwrap();
                },
            );
            assert!(appended, "a durable append waited for a cluster checkpoint");
        });
        index.save_checkpoint(&store, 0, dir.path()).unwrap();
        let file: ClusterCacheFile = read_json(&dir.path().join(CLUSTER_CACHE_FILE)).unwrap();
        assert_eq!(file.specs[0].members, names(4), "the checkpoint holds the insert");
    }

    #[test]
    fn an_older_checkpoint_never_lands_over_a_newer_one() {
        let dir = TempDir::new("cluster-checkpoint-generations");
        let path = dir.path().join(CLUSTER_CACHE_FILE);
        let store = seeded_store();
        let spec = store.spec("fig2").unwrap();
        let index = IncrementalClusterIndex::new();
        index.ensure("fig2", spec.fingerprint(), &names(3), 2, 1, &Unit).unwrap();
        let members = || read_json::<ClusterCacheFile>(&path).unwrap().specs[0].members.clone();

        let older = index.encode_checkpoint(&store, 0, &path).unwrap().expect("a build is due");
        // A mutation lands while `older` is in flight: writing it leaves the
        // index due.
        store.insert_run("r4", fig2_run3(&spec)).unwrap();
        assert!(index.insert_run("fig2", spec.fingerprint(), "r4", &Unit).unwrap());
        index.write_checkpoint(&store, &path, &older).unwrap();
        assert_eq!(members(), names(3));
        let newer = index.encode_checkpoint(&store, 0, &path).unwrap().expect("still due");
        index.write_checkpoint(&store, &path, &newer).unwrap();
        assert_eq!(members(), names(4));
        assert!(index.encode_checkpoint(&store, 0, &path).unwrap().is_none(), "nothing is due");
        // A slow writer of the older generation arrives last: it is dropped.
        index.write_checkpoint(&store, &path, &older).unwrap();
        assert_eq!(members(), names(4));
    }
}
