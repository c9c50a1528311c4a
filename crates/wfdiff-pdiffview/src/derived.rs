//! One checkpoint mechanism for the indexes derived from the stored runs:
//! the k-medoids clusters of [`IncrementalClusterIndex`] and the
//! vantage-point trees of [`IncrementalMetricIndex`].  Every entry can be
//! recomputed from the store, so a checkpoint is strictly a cache that lets
//! a restarted server resume without re-differencing.
//!
//! * Each index keeps its per-specification states in one `SpecStates`
//!   registry, one lock per specification, and every mutation marks its
//!   specification dirty.
//! * A checkpoint appends one WAL record per dirty specification (kind 3
//!   for clusters, 4 for the metric index) holding its whole entry; a clean
//!   index appends nothing.
//! * A full [`WorkflowStore::save_to_dir`] folds the records into the
//!   index's file (`cluster_cache.json`, `metric_index.json`), last write
//!   wins per specification.
//! * A load overlays the WAL records on the file and **validates every
//!   entry** against the live store: format version, cost-model key,
//!   specification version, member set and per-run content fingerprints
//!   here, the index's structure in the index.  Anything that fails,
//!   including an entry this version cannot decode, counts as stale and is
//!   rebuilt on the next query, so a corrupt or foreign checkpoint never
//!   poisons an answer.
//!
//! An index supplies only what differs — entry type, file name, WAL kind,
//! `state → entry` and the structural half of validation — through the
//! crate-internal `DerivedIndex` trait (see [`crate::cluster::persist`] and
//! [`crate::metricindex::persist`]).
//!
//! [`IncrementalClusterIndex`]: crate::cluster::IncrementalClusterIndex
//! [`IncrementalMetricIndex`]: crate::metricindex::IncrementalMetricIndex
//! [`WorkflowStore::save_to_dir`]: crate::store::WorkflowStore::save_to_dir

use crate::lockrank::{LockRank, RankedMutex};
use crate::persist::{read_json, write_json_atomic, PersistError};
use crate::store::WorkflowStore;
use crate::storeio::StoreIo;
use crate::wal::{self, DerivedDelta, DerivedDeltaRecord, DerivedKind, WalRecord};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize, Value};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use wfdiff_sptree::{Fingerprint, Run};

/// What a [`DiffService::load_cluster_state`] or
/// [`DiffService::load_metric_state`] pass accepted and rejected.
///
/// [`DiffService::load_cluster_state`]: crate::service::DiffService::load_cluster_state
/// [`DiffService::load_metric_state`]: crate::service::DiffService::load_metric_state
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CheckpointReport {
    /// Specification states restored into the index.
    pub loaded: usize,
    /// Entries (or the whole file) rejected as stale or corrupt; each is
    /// rebuilt on the next query.
    pub stale: usize,
}

/// One specification's slot in a [`SpecStates`] registry: its state, or
/// `None` before the first build and after the state is dropped.
///
/// Ranked [`LockRank::Index`], after `save_lock` and before `store`: a
/// holder evaluates distances, which read the store and the service's
/// prepared state, and it may hold no other slot.
type Slot<S> = RankedMutex<Option<S>>;

/// A derived index's per-specification states plus the dirty tracking its
/// checkpoint consumes.
///
/// Each specification's state sits behind a lock of its own, so a mutation
/// of one specification — which holds that lock across its distance
/// evaluations — never waits for another specification's.
#[derive(Debug)]
pub(crate) struct SpecStates<S> {
    /// One slot per specification an index build or load has touched,
    /// never removed.  A leaf lock, held only to find or install a slot.
    slots: Mutex<HashMap<String, Arc<Slot<S>>>>,
    /// Slots currently holding a state.
    tracked: AtomicUsize,
    /// Set by every mutation, consumed by [`save_wal`].
    dirty: AtomicBool,
    /// Specifications mutated since the last checkpoint.  A leaf lock:
    /// callers may hold a slot while marking.
    dirty_specs: Mutex<BTreeSet<String>>,
    /// Set by [`Self::mark_dirty`]: every tracked specification must be
    /// re-appended (e.g. after a load rejected on-disk entries).
    all_dirty: AtomicBool,
}

impl<S> Default for SpecStates<S> {
    fn default() -> Self {
        SpecStates {
            slots: Mutex::new(HashMap::new()),
            tracked: AtomicUsize::new(0),
            dirty: AtomicBool::new(false),
            dirty_specs: Mutex::new(BTreeSet::new()),
            all_dirty: AtomicBool::new(false),
        }
    }
}

impl<S> SpecStates<S> {
    /// Runs `f` on `spec`'s state under the specification's lock, creating
    /// its slot first when it has none.  The index serialises each
    /// specification's mutations on this lock.
    pub(crate) fn update<R>(&self, spec: &str, f: impl FnOnce(&mut Option<S>) -> R) -> R {
        let slot = Arc::clone(
            self.slots
                .lock()
                .entry(spec.to_string())
                .or_insert_with(|| Arc::new(RankedMutex::new(LockRank::Index, None))),
        );
        self.run(&slot, f)
    }

    /// [`Self::update`] for a specification that already has a slot; `None`,
    /// without running `f` or creating a slot, when it has none.
    pub(crate) fn existing<R>(&self, spec: &str, f: impl FnOnce(&mut Option<S>) -> R) -> Option<R> {
        // Statement-scoped lock: released before the slot's is taken.
        let slot = self.slots.lock().get(spec).map(Arc::clone)?;
        Some(self.run(&slot, f))
    }

    fn run<R>(&self, slot: &Slot<S>, f: impl FnOnce(&mut Option<S>) -> R) -> R {
        let mut state = slot.lock();
        let held = state.is_some();
        let out = f(&mut state);
        if !held && state.is_some() {
            self.tracked.fetch_add(1, Ordering::Relaxed);
        } else if held && state.is_none() {
            self.tracked.fetch_sub(1, Ordering::Relaxed);
        }
        out
    }

    /// The number of specifications holding a state.
    pub(crate) fn tracked(&self) -> usize {
        self.tracked.load(Ordering::Relaxed)
    }

    /// Marks every tracked specification as changed since the last
    /// checkpoint.
    pub(crate) fn mark_dirty(&self) {
        self.all_dirty.store(true, Ordering::Release);
        self.dirty.store(true, Ordering::Release);
    }

    /// Marks one specification's state as changed since the last checkpoint.
    pub(crate) fn mark_spec_dirty(&self, spec: &str) {
        self.dirty_specs.lock().insert(spec.to_string());
        self.dirty.store(true, Ordering::Release);
    }

    /// Consumes the dirty state: `None` when nothing changed since the last
    /// successful checkpoint, otherwise the sorted specification names to
    /// append records for (every one with a slot after a
    /// [`Self::mark_dirty`]).  The list may name specifications whose state
    /// has since been dropped; the checkpoint skips those.
    pub(crate) fn take_dirty_specs(&self) -> Option<Vec<String>> {
        if !self.dirty.swap(false, Ordering::AcqRel) {
            return None;
        }
        let all = self.all_dirty.swap(false, Ordering::AcqRel);
        // Statement-scoped locks, one at a time.
        let mut dirty: Vec<String> =
            std::mem::take(&mut *self.dirty_specs.lock()).into_iter().collect();
        if all {
            dirty.extend(self.slots.lock().keys().cloned());
            dirty.sort();
            dirty.dedup();
        }
        Some(dirty)
    }

    /// Drops the state of one specification.
    pub(crate) fn invalidate(&self, spec: &str) {
        self.existing(spec, |slot| {
            if slot.take().is_some() {
                self.mark_spec_dirty(spec);
            }
        });
    }
}

/// The fields every checkpoint entry carries, which [`validate`] checks
/// against the store: the specification, its version fingerprint (hex), the
/// member runs (strictly ascending) and their content fingerprints (hex).
pub(crate) struct EntryKey<'a> {
    pub(crate) spec: &'a str,
    pub(crate) spec_fingerprint: &'a str,
    pub(crate) members: &'a [String],
    pub(crate) run_fingerprints: &'a [String],
}

/// What one derived index supplies to the shared checkpoint mechanism.
pub(crate) trait DerivedIndex {
    /// One specification's live state.
    type State;
    /// One specification's checkpoint entry, exactly as the file and a WAL
    /// record hold it.
    type Doc: Serialize + for<'de> Deserialize<'de>;
    /// File name of the folded checkpoint inside the store directory.
    const FILE: &'static str;
    /// Version tag of that file; other versions are stale, never errors.
    const FORMAT: u32;
    /// WAL kind of this index's delta records.
    const KIND: DerivedKind;

    /// The index's state registry.
    fn states(&self) -> &SpecStates<Self::State>;

    /// The runs `state` was computed over, sorted by name.
    fn members(state: &Self::State) -> &[String];

    /// The checkpoint entry of `spec`'s state; `run_fingerprints` is aligned
    /// with [`Self::members`].
    fn to_doc(spec: &str, state: &Self::State, run_fingerprints: Vec<String>) -> Self::Doc;

    /// The shared fields of an entry.
    fn key(doc: &Self::Doc) -> EntryKey<'_>;

    /// The structural half of validation: the state `doc` describes, or
    /// `None` when it is malformed.  The shared half has already matched the
    /// specification `version`, the member set and every member's content
    /// against the store, and rejected an empty member set.
    fn to_state(doc: Self::Doc, version: Fingerprint) -> Option<Self::State>;
}

/// A folded checkpoint file.  Entries stay undecoded here because the
/// vendored `serde_derive` has no generics; [`read_file`] decodes them as
/// the owning index's entry type.
#[derive(Serialize, Deserialize)]
struct CheckpointFile {
    /// See [`DerivedIndex::FORMAT`].
    format: u32,
    /// [`CostModel::cache_key`](wfdiff_core::CostModel::cache_key) the
    /// entries were computed under; another cost model makes them
    /// meaningless.
    cost_key: u64,
    /// One entry per specification, sorted by name.
    specs: Vec<Value>,
}

/// The canonical content fingerprint of a run's annotated tree (origin
/// references included, so it is comparable exactly when the specification
/// version fingerprints already match — which [`validate`] checks first).
fn run_content_fingerprint(run: &Run) -> Fingerprint {
    wfdiff_sptree::TreeFingerprints::compute(run.tree()).of(run.tree().root())
}

/// Reads `path` as `I`'s checkpoint file: its cost-model key and entries, or
/// `None` when it is unreadable, of another format, or holds an entry that
/// does not decode.
fn read_file<I: DerivedIndex>(path: &Path) -> Option<(u64, Vec<I::Doc>)> {
    let file: CheckpointFile = read_json(path).ok()?;
    if file.format != I::FORMAT {
        return None;
    }
    let docs = file.specs.into_iter().map(serde::from_value).collect::<Result<_, _>>().ok()?;
    Some((file.cost_key, docs))
}

/// Checkpoints `index` by appending one delta record per dirty
/// specification to the store directory's write-ahead log, instead of
/// rewriting the checkpoint file whole.  Returns the number of
/// specifications the index tracks.  Each record is encoded under its
/// specification's lock alone, and every lock is released before the
/// append.  A member that no longer resolves in `store` (a concurrent
/// removal) leaves its specification out rather than written
/// inconsistently.
pub(crate) fn save_wal<I: DerivedIndex>(
    index: &I,
    store: &WorkflowStore,
    cost_key: u64,
    dir: &Path,
) -> Result<usize, PersistError> {
    let states = index.states();
    let Some(dirty) = states.take_dirty_specs() else {
        return Ok(states.tracked());
    };
    let encoded: Result<Vec<wal::Encoded>, PersistError> = dirty
        .iter()
        .filter_map(|spec| {
            states.existing(spec, |slot| {
                let state = slot.as_ref()?;
                let run_fingerprints = I::members(state)
                    .iter()
                    .map(|m| {
                        store.run(spec, m).map(|run| run_content_fingerprint(&run).to_string())
                    })
                    .collect::<Option<_>>()?;
                let doc = I::to_doc(spec, state, run_fingerprints);
                Some(wal::encode(dir, I::KIND as u8, &DerivedDelta { cost_key, doc: &doc }))
            })?
        })
        .collect();
    if let Err(e) = encoded.and_then(|records| store.append_wal_encoded(dir, &records)) {
        // The states are still unpersisted; make sure the next save retries.
        for spec in &dirty {
            states.mark_spec_dirty(spec);
        }
        return Err(e);
    }
    Ok(states.tracked())
}

/// Folds the WAL's deltas of index `I` into its checkpoint file during a
/// full save.  The existing file is the base when it is readable and keyed
/// by the same cost model as the last delta; each delta overwrites its
/// specification's entry, last write wins.  Deltas under another cost model,
/// or that do not decode, are dropped — they would be stale on load.  An
/// unreadable base file counts as empty rather than an error: the
/// checkpoint is derived data and must never block a save.
pub(crate) fn fold<I: DerivedIndex>(
    io: &dyn StoreIo,
    dir: &Path,
    deltas: &[(DerivedKind, DerivedDeltaRecord)],
) -> Result<(), PersistError> {
    let deltas: Vec<&DerivedDeltaRecord> =
        deltas.iter().filter(|(kind, _)| *kind == I::KIND).map(|(_, delta)| delta).collect();
    let Some(final_key) = deltas.last().map(|d| d.cost_key) else {
        return Ok(());
    };
    let path = dir.join(I::FILE);
    let mut merged: BTreeMap<String, I::Doc> = BTreeMap::new();
    if let Some((key, docs)) = read_file::<I>(&path) {
        if key == final_key {
            merged.extend(docs.into_iter().map(|doc| (I::key(&doc).spec.to_string(), doc)));
        }
    }
    for delta in deltas.into_iter().filter(|d| d.cost_key == final_key) {
        if let Ok(doc) = serde::from_value::<I::Doc>(delta.doc.clone()) {
            merged.insert(I::key(&doc).spec.to_string(), doc);
        }
    }
    let file = CheckpointFile {
        format: I::FORMAT,
        cost_key: final_key,
        specs: merged.values().map(serde::to_value).collect(),
    };
    write_json_atomic(io, &path, &file)
}

/// Restores `index`'s checkpoint from `dir`, validating every entry against
/// the live `store` (see the [module docs](self)).  A missing file is an
/// empty report; a corrupt, foreign or mis-keyed file counts as one stale
/// entry, and so does each WAL delta under another cost model or that this
/// version cannot decode.
pub(crate) fn load<I: DerivedIndex>(
    index: &I,
    store: &WorkflowStore,
    cost_key: u64,
    dir: &Path,
) -> CheckpointReport {
    let path = dir.join(I::FILE);
    let mut report = CheckpointReport::default();
    // The file is the base; WAL deltas appended after the last fold
    // supersede its entry for the same specification (last write wins), and
    // a superseded entry is never validated — it is outdated, not stale.
    let mut entries: BTreeMap<String, I::Doc> = BTreeMap::new();
    if path.exists() {
        match read_file::<I>(&path) {
            Some((key, docs)) if key == cost_key => {
                entries.extend(docs.into_iter().map(|doc| (I::key(&doc).spec.to_string(), doc)));
            }
            _ => report.stale += 1,
        }
    }
    for record in wal::scan(dir).map(|scan| scan.records).unwrap_or_default() {
        let WalRecord::Derived(kind, delta) = record else { continue };
        if kind != I::KIND {
            continue;
        }
        match serde::from_value::<I::Doc>(delta.doc) {
            Ok(doc) if delta.cost_key == cost_key => {
                entries.insert(I::key(&doc).spec.to_string(), doc);
            }
            _ => report.stale += 1,
        }
    }
    let states = index.states();
    for (spec, doc) in entries {
        match validate::<I>(doc, store) {
            Some(state) => {
                states.update(&spec, |slot| *slot = Some(state));
                report.loaded += 1;
            }
            None => report.stale += 1,
        }
    }
    if report.stale > 0 {
        // The on-disk checkpoint holds entries the index rejected; the next
        // checkpoint should rewrite them even if nothing else changes.
        states.mark_dirty();
    }
    report
}

/// Full validation of one checkpoint entry; `None` means stale (rebuilt on
/// demand).
fn validate<I: DerivedIndex>(doc: I::Doc, store: &WorkflowStore) -> Option<I::State> {
    let key = I::key(&doc);
    let (spec, runs) = store.snapshot(key.spec)?;
    if spec.fingerprint().to_string() != key.spec_fingerprint {
        return None;
    }
    let version = Fingerprint(u128::from_str_radix(key.spec_fingerprint, 16).ok()?);
    // The member set must be exactly the store's current, non-empty run set,
    // strictly ascending (which also rules out duplicates) ...
    if runs.is_empty()
        || key.members.len() != runs.len()
        || key.members.iter().zip(&runs).any(|(member, (name, _))| member != name)
        || !key.members.windows(2).all(|w| w[0] < w[1])
    {
        return None;
    }
    // ... and each member's run *content* must be the content the state was
    // computed against (a replaced run keeps its name but changes its tree).
    if key.run_fingerprints.len() != runs.len()
        || runs
            .iter()
            .zip(key.run_fingerprints)
            .any(|((_, run), recorded)| run_content_fingerprint(run).to_string() != *recorded)
    {
        return None;
    }
    I::to_state(doc, version)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::cluster::incremental::DistanceOracle;
    use std::cell::RefCell;
    use std::sync::mpsc::{channel, Receiver, Sender};
    use std::time::Duration;

    /// An oracle whose first fetch reports that it started, then waits to
    /// be released, before answering from `inner`.
    pub(crate) struct Gated<O> {
        inner: O,
        gate: RefCell<Option<(Sender<()>, Receiver<()>)>>,
    }

    impl<O: DistanceOracle> DistanceOracle for Gated<O> {
        type Error = O::Error;

        fn distances(&self, source: &str, targets: &[&str]) -> Result<Vec<f64>, O::Error> {
            if let Some((entered, release)) = self.gate.borrow_mut().take() {
                let _ = entered.send(());
                let _ = release.recv();
            }
            self.inner.distances(source, targets)
        }
    }

    /// Runs `blocked` on a thread of its own over a [`Gated`] `oracle` and,
    /// once it waits inside its first fetch, runs `other` on a third thread.
    /// Returns whether `other` finished within two seconds while `blocked`
    /// waited.  `blocked` is released before this returns either way, so a
    /// test that fails does so on the timeout instead of hanging.
    pub(crate) fn finishes_while_another_spec_waits<O: DistanceOracle + Send>(
        oracle: O,
        blocked: impl FnOnce(&Gated<O>) + Send,
        other: impl FnOnce() + Send,
    ) -> bool {
        let (entered_tx, entered) = channel();
        let (release, release_rx) = channel();
        let (done_tx, done) = channel();
        std::thread::scope(|scope| {
            scope.spawn(move || {
                let gate = RefCell::new(Some((entered_tx, release_rx)));
                blocked(&Gated { inner: oracle, gate });
            });
            let started = entered.recv_timeout(Duration::from_secs(10)).is_ok();
            scope.spawn(move || {
                other();
                let _ = done_tx.send(());
            });
            let finished = started && done.recv_timeout(Duration::from_secs(2)).is_ok();
            let _ = release.send(());
            finished
        })
    }

    #[cfg(debug_assertions)]
    #[test]
    fn holding_two_specifications_locks_at_once_panics() {
        let states: SpecStates<u32> = SpecStates::default();
        states.update("a", |slot| *slot = Some(1));
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let nested = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            states.update("a", |_| states.update("b", |slot| *slot = Some(2)));
        }));
        std::panic::set_hook(hook);
        assert!(nested.is_err(), "a second index lock under the first must panic");
        assert_eq!(states.tracked(), 1);
        assert!(states.existing("b", |_| ()).is_some(), "the slot was installed");
    }

    #[test]
    fn reads_of_a_specification_without_state_install_no_slot() {
        let states: SpecStates<u32> = SpecStates::default();
        assert_eq!(states.existing("a", |slot| slot.is_some()), None);
        states.invalidate("a");
        assert!(states.slots.lock().is_empty());
        states.update("a", |slot| *slot = Some(1));
        states.invalidate("a");
        assert_eq!((states.tracked(), states.slots.lock().len()), (0, 1));
        assert_eq!(states.take_dirty_specs(), Some(vec!["a".to_string()]));
    }
}
