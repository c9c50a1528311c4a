//! The `cluster_cache.json` checkpoint of an [`IncrementalClusterIndex`].
//!
//! Every clustering can be recomputed from the store, so the checkpoint is
//! strictly a cache that lets a restarted server resume without
//! re-differencing.
//!
//! * Every mutation of the index marks its specification dirty.
//! * [`DiffService::save_cluster_state`] appends one kind-3 WAL record per
//!   dirty specification holding its whole entry; a clean index appends
//!   nothing.
//! * A full [`WorkflowStore::save_to_dir`] folds the records into
//!   [`CLUSTER_CACHE_FILE`], last write wins per specification.
//! * [`DiffService::load_cluster_state`] overlays the WAL records on the
//!   file and **validates every entry** against the live store: format
//!   version, cost-model key, specification version, member set, per-run
//!   content fingerprints, then the clustering's own structure (medoids,
//!   assignments, memoised distances, silhouette and cost).  Anything that
//!   fails, including an entry this version cannot decode, counts as stale
//!   and is rebuilt on the next query, so a corrupt or foreign checkpoint
//!   never poisons an answer.  The `wfdiff_serve` boot sequence calls it
//!   right after [`DiffService::warm_start`].
//!
//! [`DiffService::save_cluster_state`]: crate::service::DiffService::save_cluster_state
//! [`DiffService::load_cluster_state`]: crate::service::DiffService::load_cluster_state
//! [`DiffService::warm_start`]: crate::service::DiffService::warm_start
//! [`WorkflowStore::save_to_dir`]: crate::store::WorkflowStore::save_to_dir

use super::incremental::{IncrementalClusterIndex, SpecClusterState};
use crate::persist::{read_json, write_json_atomic, PersistError};
use crate::store::WorkflowStore;
use crate::storeio::StoreIo;
use crate::wal::{self, ClusterDeltaRecord, WalRecord};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};
use std::path::Path;
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

/// A kind-3 WAL record as written, `{cost_key, doc}`: the typed entry is
/// lowered to JSON once.  It is read back as a [`ClusterDeltaRecord`],
/// whose `doc` stays undecoded until a load or a fold decodes it.
#[derive(Serialize)]
struct ClusterDelta {
    cost_key: u64,
    doc: SpecClusterDoc,
}

/// One specification's checkpointed clustering, in `cluster_cache.json` and
/// in a kind-3 WAL record alike: the WAL holds whole per-spec snapshots
/// (last write wins), never partial diffs, so a delta validates exactly like
/// a file entry.
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

/// Reads `path` as a checkpoint file, or `None` when it is unreadable, of
/// another format, or holds an entry that does not decode.
fn read_file(path: &Path) -> Option<ClusterCacheFile> {
    read_json::<ClusterCacheFile>(path).ok().filter(|file| file.format == CLUSTER_CACHE_FORMAT)
}

impl IncrementalClusterIndex {
    /// Checkpoints the index by appending one delta record per dirty
    /// specification to the store directory's write-ahead log, through the
    /// store's one append step, instead of rewriting the checkpoint file
    /// whole.  Returns the number of specifications the index tracks.  Each
    /// record is encoded under its specification's lock alone, and every
    /// lock is released before the append.  A member that no longer
    /// resolves in `store` (a concurrent removal) leaves its specification
    /// out rather than written inconsistently.  A failed append, over-bound
    /// records included, writes nothing, and the next checkpoint retries.
    pub(crate) fn save_checkpoint(
        &self,
        store: &WorkflowStore,
        cost_key: u64,
        dir: &Path,
    ) -> Result<usize, PersistError> {
        let dirty = std::mem::take(&mut *self.dirty.lock());
        if dirty.is_empty() {
            return Ok(self.states.tracked());
        }
        let encoded: Result<Vec<wal::Encoded>, PersistError> = dirty
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
                    let doc = to_doc(spec, state, run_fingerprints);
                    Some(wal::encode(dir, wal::KIND_CLUSTER_DELTA, &ClusterDelta { cost_key, doc }))
                })?
            })
            .collect();
        let appended = encoded.and_then(|records| {
            let _save = store.save_lock.lock();
            store.wal_append(dir, &records).map(|()| store.fold_if_due(Some(dir)))
        });
        if let Err(e) = appended {
            // The states are still unpersisted; make sure the next save retries.
            self.dirty.lock().extend(dirty);
            return Err(e);
        }
        Ok(self.states.tracked())
    }

    /// Restores the checkpoint of `dir`, validating every entry against the
    /// live `store` (see the [module docs](self)).  A missing file is an
    /// empty report; a corrupt, foreign or mis-keyed file counts as one
    /// stale entry, and so does each WAL delta under another cost model or
    /// that this version cannot decode.
    pub(crate) fn load_checkpoint(
        &self,
        store: &WorkflowStore,
        cost_key: u64,
        dir: &Path,
    ) -> CheckpointReport {
        let path = dir.join(CLUSTER_CACHE_FILE);
        let mut report = CheckpointReport::default();
        // The file is the base; WAL deltas appended after the last fold
        // supersede its entry for the same specification (last write wins),
        // and a superseded entry is never validated — it is outdated, not
        // stale.
        let mut entries: BTreeMap<String, SpecClusterDoc> = BTreeMap::new();
        if path.exists() {
            match read_file(&path) {
                Some(file) if file.cost_key == cost_key => {
                    entries.extend(file.specs.into_iter().map(|doc| (doc.spec.clone(), doc)));
                }
                _ => report.stale += 1,
            }
        }
        for record in wal::scan(dir).map(|scan| scan.records).unwrap_or_default() {
            let WalRecord::ClusterDelta(delta) = record else { continue };
            match serde::from_value::<SpecClusterDoc>(delta.doc) {
                Ok(doc) if delta.cost_key == cost_key => {
                    entries.insert(doc.spec.clone(), doc);
                }
                _ => report.stale += 1,
            }
        }
        for (spec, doc) in entries {
            match validate(doc, store) {
                Some(state) => {
                    self.states.update(&spec, |slot| *slot = Some(state));
                    report.loaded += 1;
                }
                None => report.stale += 1,
            }
        }
        if report.stale > 0 {
            // The on-disk checkpoint holds entries the index rejected; the
            // next checkpoint should rewrite every state even if nothing
            // else changes.
            let specs = self.states.specs();
            self.dirty.lock().extend(specs);
        }
        report
    }
}

/// Folds the WAL's cluster deltas into `cluster_cache.json` during a full
/// save.  The existing file is the base when it is readable and keyed by the
/// same cost model as the last delta; each delta overwrites its
/// specification's entry, last write wins.  Deltas under another cost
/// model, or that do not decode, are dropped — they would be stale on load.
/// An unreadable base file counts as empty rather than an error: the
/// checkpoint is derived data and must never block a save.
pub(crate) fn fold(
    io: &dyn StoreIo,
    dir: &Path,
    deltas: Vec<ClusterDeltaRecord>,
) -> Result<(), PersistError> {
    let Some(final_key) = deltas.last().map(|d| d.cost_key) else {
        return Ok(());
    };
    let path = dir.join(CLUSTER_CACHE_FILE);
    let mut merged: BTreeMap<String, SpecClusterDoc> = BTreeMap::new();
    if let Some(file) = read_file(&path).filter(|file| file.cost_key == final_key) {
        merged.extend(file.specs.into_iter().map(|doc| (doc.spec.clone(), doc)));
    }
    for delta in deltas.into_iter().filter(|d| d.cost_key == final_key) {
        if let Ok(doc) = serde::from_value::<SpecClusterDoc>(delta.doc) {
            merged.insert(doc.spec.clone(), doc);
        }
    }
    let file = ClusterCacheFile {
        format: CLUSTER_CACHE_FORMAT,
        cost_key: final_key,
        specs: merged.into_values().collect(),
    };
    write_json_atomic(io, &path, &file)
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
