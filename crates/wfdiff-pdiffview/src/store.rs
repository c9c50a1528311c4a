//! A thread-safe in-memory store of specifications, runs and open streams.
//!
//! The PDiffView prototype lets users store and later re-open specifications
//! and runs; this is the headless equivalent, also used by the benchmark
//! harness to share generated workloads between experiments and by
//! [`crate::service::DiffService`] as the source of truth for batch
//! differencing.  Open streams (runs still executing) live here too.
//!
//! # Locking discipline
//!
//! The store keeps each specification together with its runs and open
//! streams in one map behind one lock, so every read — a single run, a spec
//! with a few runs, a [`WorkflowStore::snapshot`] of everything — is
//! consistent by construction: it never observes runs of a specification
//! that has been removed, nor a specification whose runs are
//! mid-replacement.
//!
//! The full rank order is `save_lock → index → store → persist_fp_cache →
//! prepared`: the derived indexes' per-specification `index` locks sit
//! between `save_lock` and `store` (an index holds its lock while its
//! distance evaluations read the store), and the service's `prepared` is
//! last.  The `lockrank` module's wrappers around these fields enforce it:
//! they panic on any out-of-order acquisition when `debug_assertions` are
//! on, which every `cargo test` run reaches.
//!
//! # Specification versions
//!
//! Runs are validated against the exact [`Specification`] stored at insert
//! time: their annotated trees carry `origin` references **into that
//! specification's tree arena**.  Re-inserting a *structurally different*
//! specification under an existing name would silently strand those runs on a
//! stale version — diffs computed against the new version would read
//! out-of-range or wrong origins.  [`WorkflowStore::insert_spec`] therefore
//! refuses such a replacement while runs exist (returning
//! [`StoreError::SpecConflict`]), and [`WorkflowStore::replace_spec`]
//! performs it atomically by invalidating (removing) the stale runs in the
//! same critical section.  A version change closes the open streams.  A
//! specification's run and stream names never overlap: storing a run
//! under an open stream's name closes the stream.

use crate::lockrank::{LockRank, RankedMutex, RankedRwLock};
use crate::metricindex::RunNames;
use crate::storeio::{IoHandle, StoreIo};
use crate::stream::{PartialRun, StreamEvent};
use crate::wal::{StreamEventRecord, WalStats, WalStatsSnapshot};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use wfdiff_sptree::{Fingerprint, Run, Specification};

/// Default number of WAL bytes, appended since the last fold attempt, at
/// which a hot-path append triggers a checkpoint fold; see
/// [`WorkflowStore::set_wal_fold_threshold`].
pub const DEFAULT_WAL_FOLD_THRESHOLD: u64 = 1024 * 1024;

/// Errors raised by store mutations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// A structurally different specification was inserted under a name that
    /// still has runs recorded against the stored version.  Remove the runs
    /// first or use [`WorkflowStore::replace_spec`] to invalidate them.
    SpecConflict {
        /// The contested specification name.
        name: String,
        /// Number of runs recorded against the stored version.
        runs: usize,
    },
    /// A run was inserted whose specification is not in the store.
    MissingSpec {
        /// The specification name the run references.
        name: String,
    },
    /// A run was inserted that was validated against a different *version*
    /// of the stored specification (same name, different structure).
    SpecVersionMismatch {
        /// The specification name.
        name: String,
        /// The rejected run's name.
        run: String,
    },
    /// A run was inserted via [`WorkflowStore::insert_run_new`] under a name
    /// that is already taken for its specification.
    DuplicateRun {
        /// The specification name.
        name: String,
        /// The contested run name.
        run: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::SpecConflict { name, runs } => write!(
                f,
                "specification {name:?} differs from the stored version which still has {runs} \
                 run(s); remove them or call replace_spec to invalidate them"
            ),
            StoreError::MissingSpec { name } => {
                write!(f, "specification {name:?} is not stored; insert it first")
            }
            StoreError::SpecVersionMismatch { name, run } => write!(
                f,
                "run {run:?} was validated against a different version of specification \
                 {name:?}; rebuild it against the stored version"
            ),
            StoreError::DuplicateRun { name, run } => write!(
                f,
                "specification {name:?} already stores a run named {run:?}; remove it first \
                 or pick another name"
            ),
        }
    }
}

impl std::error::Error for StoreError {}

/// A consistent view of one specification and its runs, as returned by
/// [`WorkflowStore::snapshot`].
pub type SpecSnapshot = (Arc<Specification>, Vec<(String, Arc<Run>)>);

/// The open streams [`WorkflowStore::load_from_dir`] rebuilt from the log.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamLoadReport {
    /// Streams open at the end of the log.
    pub loaded: usize,
    /// Streams closed by a closure marker or a run of the same name.
    pub closed: usize,
    /// Streams dropped as stale (a version the manifest does not list) or
    /// invalid (events that do not apply).
    pub skipped: usize,
}

/// One open stream: its builder and the events it applied, in order.
#[derive(Debug)]
struct OpenStream {
    partial: Arc<PartialRun>,
    events: Vec<StreamEvent>,
}

/// One stored specification, the runs recorded against it and its open
/// streams; a name is never both a run and a stream.
#[derive(Debug)]
struct SpecEntry {
    spec: Arc<Specification>,
    runs: BTreeMap<String, Arc<Run>>,
    streams: BTreeMap<String, OpenStream>,
}

/// A named collection of specifications and, per specification, named runs.
///
/// See the [module docs](self) for the locking discipline and the
/// specification-versioning rules.
#[derive(Debug)]
pub struct WorkflowStore {
    /// Specification name → the specification and its runs.
    specs: RankedRwLock<BTreeMap<String, SpecEntry>>,
    /// Every durability-relevant filesystem operation goes through this
    /// handle, so a crash-injection wrapper can fault any of them.
    pub(crate) io: IoHandle,
    /// Live WAL counters (appends, bytes, replays, folds).
    pub(crate) wal_stats: WalStats,
    /// WAL bytes appended since the last fold attempt at which an append
    /// folds; 0 disables the automatic fold.
    pub(crate) wal_fold_threshold: AtomicU64,
    /// Set when a failed append could not be cut back off the log; every
    /// later write is refused until the store is reloaded.
    pub(crate) wal_torn: AtomicBool,
    /// Serialises every durable write and every save: a write checks,
    /// appends and publishes under it, and a save or fold snapshots memory
    /// and rewrites the directory under it.  Taken before the store lock.
    pub(crate) save_lock: RankedMutex<()>,
    /// Memoised persistent fingerprints, keyed by in-memory arena
    /// fingerprint: both are deterministic functions of the specification,
    /// so repeated saves skip the full descriptor → specification rebuild.
    /// Bounded by the number of distinct spec versions ever saved.
    pub(crate) persist_fp_cache: RankedMutex<
        std::collections::HashMap<wfdiff_sptree::Fingerprint, wfdiff_sptree::Fingerprint>,
    >,
    /// What the load that built the store rebuilt of the open streams.
    pub(crate) stream_load: StreamLoadReport,
}

impl Default for WorkflowStore {
    fn default() -> Self {
        WorkflowStore {
            specs: RankedRwLock::new(LockRank::Store, BTreeMap::new()),
            io: IoHandle::default(),
            wal_stats: WalStats::default(),
            wal_fold_threshold: AtomicU64::new(DEFAULT_WAL_FOLD_THRESHOLD),
            wal_torn: AtomicBool::new(false),
            save_lock: RankedMutex::new(LockRank::Save, ()),
            persist_fp_cache: RankedMutex::new(LockRank::FpCache, std::collections::HashMap::new()),
            stream_load: StreamLoadReport::default(),
        }
    }
}

impl WorkflowStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        WorkflowStore::default()
    }

    /// Creates an empty store whose durability operations run through `io`
    /// instead of the default [`RealIo`](crate::storeio::RealIo) — the seam
    /// the crash-torture harness uses to inject a
    /// [`FaultIo`](crate::storeio::FaultIo).
    pub fn with_io(io: Arc<dyn StoreIo>) -> Self {
        WorkflowStore { io: IoHandle(io), ..WorkflowStore::default() }
    }

    /// Sets how many WAL bytes, appended since the last fold attempt, make
    /// the next hot-path append fold the log into a full checkpoint (see the
    /// [`crate::wal`] docs).  `0` disables the automatic fold; the default
    /// is [`DEFAULT_WAL_FOLD_THRESHOLD`].
    pub fn set_wal_fold_threshold(&self, bytes: u64) {
        self.wal_fold_threshold.store(bytes, Ordering::Release);
    }

    /// The current automatic-fold threshold in bytes (0 = disabled).
    pub fn wal_fold_threshold(&self) -> u64 {
        self.wal_fold_threshold.load(Ordering::Acquire)
    }

    /// A snapshot of the store's WAL counters (appends, bytes, replayed
    /// records, folds) — the numbers `/metrics` exports.
    pub fn wal_stats(&self) -> WalStatsSnapshot {
        self.wal_stats.snapshot()
    }

    /// Inserts a specification and returns its shared handle.
    ///
    /// Replacing an existing specification of the same name succeeds when the
    /// stored version is structurally identical (its runs remain valid) or
    /// has no runs (its open streams close); otherwise the insert is refused
    /// with [`StoreError::SpecConflict`] so stored runs can never reference a
    /// stale specification version.  Use [`WorkflowStore::replace_spec`] to
    /// force the replacement and invalidate the runs.
    pub fn insert_spec(&self, spec: Specification) -> Result<Arc<Specification>, StoreError> {
        let arc = Arc::new(spec);
        // One critical section across the check and the insert, so no run
        // can be recorded against the old version mid-replacement.
        let mut specs = self.specs.write();
        let entry = SpecEntry::of(&mut specs, &arc);
        if entry.spec.tree() != arc.tree() && !entry.runs.is_empty() {
            let (name, runs) = (arc.name().to_string(), entry.runs.len());
            return Err(StoreError::SpecConflict { name, runs });
        }
        entry.install(&arc);
        Ok(arc)
    }

    /// Inserts a specification, force-replacing any stored version of the
    /// same name and **invalidating** (removing) the runs recorded against a
    /// structurally different old version.  Returns the new handle and the
    /// names of the invalidated runs.
    ///
    /// The replacement is atomic: no reader can observe the new
    /// specification together with the old version's runs or streams.
    pub fn replace_spec(&self, spec: Specification) -> (Arc<Specification>, Vec<String>) {
        let arc = Arc::new(spec);
        let mut specs = self.specs.write();
        let invalidated = SpecEntry::of(&mut specs, &arc).install(&arc);
        (arc, invalidated)
    }

    /// Looks up a specification by name.
    pub fn spec(&self, name: &str) -> Option<Arc<Specification>> {
        self.specs.read().get(name).map(|entry| Arc::clone(&entry.spec))
    }

    /// Names of all stored specifications.
    pub fn spec_names(&self) -> Vec<String> {
        self.specs.read().keys().cloned().collect()
    }

    /// Inserts (or replaces) a run under the given name.
    ///
    /// The run's specification must already be stored **and** the run must
    /// have been validated against that exact version
    /// ([`Run::spec_fingerprint`] must match), so a run built before a
    /// [`WorkflowStore::replace_spec`] can never sneak back in against the
    /// new version.  The checks and the insert (which closes a stream open
    /// under the name) share one critical section, so a concurrent
    /// [`WorkflowStore::remove_spec`] cannot leave an orphan run behind.
    pub fn insert_run(&self, run_name: &str, run: Run) -> Result<Arc<Run>, StoreError> {
        self.insert_checked(run_name, run, true)
    }

    /// Like [`WorkflowStore::insert_run`], but refuses to replace an
    /// existing run of the same name ([`StoreError::DuplicateRun`]).  The
    /// existence check and the insert share one critical section, so two
    /// concurrent inserts of one name cannot both succeed.
    pub fn insert_run_new(&self, run_name: &str, run: Run) -> Result<Arc<Run>, StoreError> {
        self.insert_checked(run_name, run, false)
    }

    /// Both run inserts: the spec and version checks, then the insert, in
    /// one critical section; `replace` says whether a stored run of the same
    /// name is replaced or refused.
    fn insert_checked(
        &self,
        run_name: &str,
        run: Run,
        replace: bool,
    ) -> Result<Arc<Run>, StoreError> {
        let mut specs = self.specs.write();
        let entry = specs.get_mut(run.spec_name()).ok_or_else(|| missing_spec(run.spec_name()))?;
        entry.check(run_name, run.spec_fingerprint(), replace)?;
        let arc = Arc::new(run);
        entry.streams.remove(run_name);
        entry.runs.insert(run_name.to_string(), Arc::clone(&arc));
        Ok(arc)
    }

    /// The checks of [`WorkflowStore::insert_run`] (`replace`) or
    /// [`WorkflowStore::insert_run_new`] without the insert — what a durable
    /// write checks before it appends.  Returns the run's specification.
    pub(crate) fn check_insert(
        &self,
        run_name: &str,
        run: &Run,
        replace: bool,
    ) -> Result<Arc<Specification>, StoreError> {
        let specs = self.specs.read();
        let entry = specs.get(run.spec_name()).ok_or_else(|| missing_spec(run.spec_name()))?;
        entry.check(run_name, run.spec_fingerprint(), replace)?;
        Ok(Arc::clone(&entry.spec))
    }

    /// Looks up a run by specification and run name.
    pub fn run(&self, spec_name: &str, run_name: &str) -> Option<Arc<Run>> {
        self.specs.read().get(spec_name)?.runs.get(run_name).cloned()
    }

    /// Names of the runs stored for a specification.
    pub fn run_names(&self, spec_name: &str) -> Vec<String> {
        self.specs
            .read()
            .get(spec_name)
            .map(|entry| entry.runs.keys().cloned().collect())
            .unwrap_or_default()
    }

    /// Resolves a specification and a few named runs in one consistent
    /// critical section, without materialising the whole run collection the
    /// way [`WorkflowStore::snapshot`] does.
    ///
    /// Returns `None` when the specification is absent; missing runs resolve
    /// to `None` in the per-name slots.
    #[allow(clippy::type_complexity)]
    pub fn lookup_runs(
        &self,
        spec_name: &str,
        run_names: &[&str],
    ) -> Option<(Arc<Specification>, Vec<Option<Arc<Run>>>)> {
        let specs = self.specs.read();
        let entry = specs.get(spec_name)?;
        let resolved = run_names.iter().map(|name| entry.runs.get(*name).cloned()).collect();
        Some((Arc::clone(&entry.spec), resolved))
    }

    /// A consistent view of one specification and all of its runs (sorted by
    /// run name): either the specification with exactly the runs recorded
    /// against it, or `None` if the name is absent.
    pub fn snapshot(&self, spec_name: &str) -> Option<SpecSnapshot> {
        self.specs.read().get(spec_name).map(SpecEntry::snapshot)
    }

    /// A consistent view of **every** stored specification and its runs,
    /// sorted by specification name (and runs by run name), taken in one
    /// critical section.
    ///
    /// This is the snapshot [`crate::service::DiffService::warm_start`]
    /// replays: no concurrent writer can interleave a spec replacement
    /// between two specifications of the snapshot.
    pub fn snapshot_all(&self) -> Vec<(String, SpecSnapshot)> {
        self.specs.read().iter().map(|(name, entry)| (name.clone(), entry.snapshot())).collect()
    }

    /// Removes a run; returns `true` if it existed.
    pub fn remove_run(&self, spec_name: &str, run_name: &str) -> bool {
        self.specs
            .write()
            .get_mut(spec_name)
            .is_some_and(|entry| entry.runs.remove(run_name).is_some())
    }

    /// Removes a specification with its runs and open streams; returns
    /// `true` if the specification existed.  The removal is atomic: no
    /// reader ever observes runs for a specification that is already gone.
    pub fn remove_spec(&self, spec_name: &str) -> bool {
        self.specs.write().remove(spec_name).is_some()
    }

    /// Total number of stored runs.
    pub fn run_count(&self) -> usize {
        self.specs.read().values().map(|entry| entry.runs.len()).sum()
    }

    /// The builder of open stream `stream` of `spec_name`.
    pub(crate) fn stream(&self, spec_name: &str, stream: &str) -> Option<Arc<PartialRun>> {
        let specs = self.specs.read();
        specs.get(spec_name)?.streams.get(stream).map(|open| Arc::clone(&open.partial))
    }

    /// Names of the open streams of `spec_name`, sorted.
    pub(crate) fn stream_names(&self, spec_name: &str) -> Vec<String> {
        let specs = self.specs.read();
        specs.get(spec_name).map_or_else(Vec::new, |e| e.streams.keys().cloned().collect())
    }

    /// Publishes a batch of stream `stream`, opening it if needed: `next`,
    /// the builder with `events` applied, replaces the stream's builder, and
    /// `events` are appended to its own.  Refused like
    /// [`WorkflowStore::insert_run_new`]; returns `false`, publishing
    /// nothing, unless `next` continues the events the stream holds (none
    /// when it is not open), as when the stream closed after `next` was read.
    pub(crate) fn publish_stream(
        &self,
        stream: &str,
        next: Arc<PartialRun>,
        events: &[StreamEvent],
    ) -> Result<bool, StoreError> {
        let mut specs = self.specs.write();
        let name = next.spec().name();
        let entry = specs.get_mut(name).ok_or_else(|| missing_spec(name))?;
        entry.check(stream, next.spec().fingerprint(), false)?;
        let held = entry.streams.get(stream).map_or(0, |open| open.events.len());
        if (held + events.len()) as u64 != next.applied() {
            return Ok(false);
        }
        let fresh = || OpenStream { partial: Arc::clone(&next), events: Vec::new() };
        let open = entry.streams.entry(stream.to_string()).or_insert_with(fresh);
        open.events.extend_from_slice(events);
        open.partial = next;
        Ok(true)
    }

    /// Closes open stream `stream` of `spec_name`; `true` if it was open.
    pub(crate) fn close_stream(&self, spec_name: &str, stream: &str) -> bool {
        let mut specs = self.specs.write();
        specs.get_mut(spec_name).is_some_and(|entry| entry.streams.remove(stream).is_some())
    }

    /// Every specification with its runs and its open streams' events, in
    /// one critical section — what a fold writes.
    #[allow(clippy::type_complexity)]
    pub(crate) fn snapshot_with_streams(
        &self,
    ) -> Vec<(String, SpecSnapshot, Vec<(String, Vec<StreamEvent>)>)> {
        let specs = self.specs.read();
        let streams = |entry: &SpecEntry| -> Vec<_> {
            entry.streams.iter().map(|(name, open)| (name.clone(), open.events.clone())).collect()
        };
        specs.iter().map(|(name, entry)| (name.clone(), entry.snapshot(), streams(entry))).collect()
    }

    /// The load's replay of one logged stream record, in append order
    /// (`counts`: the manifest lists its version, else it is skipped).  An
    /// event numbered 0 opens its stream afresh, unless a run holds the
    /// name, and later ones continue it; a closure marker closes it.  A
    /// later event the stream already holds at its position changes
    /// nothing: a fold wrote it from memory before its caller appended it.
    /// An event that does not apply drops the stream as skipped.  Counted
    /// in `stream_load`.
    pub(crate) fn replay_stream_record(&mut self, record: &StreamEventRecord, counts: bool) {
        let report = &mut self.stream_load;
        let mut specs = self.specs.write();
        let Some(entry) = specs.get_mut(&record.spec).filter(|_| counts) else {
            // A version the manifest does not list: the stream is stale.
            report.skipped += usize::from(record.seq == 0 && record.event.is_some());
            return;
        };
        let prior = entry.streams.remove(&record.stream);
        let Some(event) = &record.event else {
            report.closed += usize::from(prior.is_some());
            return;
        };
        let mut open = match prior {
            _ if record.seq == 0 && entry.runs.contains_key(&record.stream) => {
                report.closed += 1;
                return;
            }
            _ if record.seq == 0 => {
                let partial = Arc::new(PartialRun::new(Arc::clone(&entry.spec)));
                OpenStream { partial, events: Vec::new() }
            }
            Some(open) => open,
            None => return,
        };
        let seq = usize::try_from(record.seq).unwrap_or(usize::MAX);
        if open.events.get(seq) != Some(event) {
            if seq != open.events.len() || Arc::make_mut(&mut open.partial).apply(event).is_err() {
                report.skipped += 1;
                return;
            }
            open.events.push(event.clone());
        }
        entry.streams.insert(record.stream.clone(), open);
    }
}

/// The metric index reads a specification's run names in place: `f` runs
/// under the store's read lock, so it must take no lock of its own.
impl RunNames for WorkflowStore {
    fn with_names<R>(
        &self,
        spec: &str,
        f: impl FnOnce(&mut dyn ExactSizeIterator<Item = &str>) -> R,
    ) -> R {
        match self.specs.read().get(spec) {
            Some(entry) => f(&mut entry.runs.keys().map(String::as_str)),
            None => f(&mut std::iter::empty()),
        }
    }
}

impl SpecEntry {
    /// The entry of `spec`'s name, created empty (holding `spec`) if absent.
    fn of<'a>(
        specs: &'a mut BTreeMap<String, SpecEntry>,
        spec: &Arc<Specification>,
    ) -> &'a mut SpecEntry {
        let fresh = || SpecEntry {
            spec: Arc::clone(spec),
            runs: BTreeMap::new(),
            streams: BTreeMap::new(),
        };
        specs.entry(spec.name().to_string()).or_insert_with(fresh)
    }

    /// Makes `spec` this entry's version.  A structurally different one
    /// removes the runs and closes the open streams; returns the names of
    /// the removed runs.
    fn install(&mut self, spec: &Arc<Specification>) -> Vec<String> {
        let mut invalidated = Vec::new();
        if self.spec.tree() != spec.tree() {
            invalidated = std::mem::take(&mut self.runs).into_keys().collect();
            self.streams.clear();
        }
        self.spec = Arc::clone(spec);
        invalidated
    }

    fn snapshot(&self) -> SpecSnapshot {
        let runs = self.runs.iter().map(|(name, run)| (name.clone(), Arc::clone(run))).collect();
        (Arc::clone(&self.spec), runs)
    }

    /// Whether a run, or an open stream's builder, validated against
    /// `version` may be stored here as `run_name`: `version` is this exact
    /// one, and unless `replace`, no run holds the name.
    fn check(&self, run_name: &str, version: Fingerprint, replace: bool) -> Result<(), StoreError> {
        if self.spec.fingerprint() != version {
            let (name, run) = (self.spec.name().to_string(), run_name.to_string());
            return Err(StoreError::SpecVersionMismatch { name, run });
        }
        if !replace && self.runs.contains_key(run_name) {
            let (name, run) = (self.spec.name().to_string(), run_name.to_string());
            return Err(StoreError::DuplicateRun { name, run });
        }
        Ok(())
    }
}

fn missing_spec(name: &str) -> StoreError {
    StoreError::MissingSpec { name: name.to_string() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfdiff_sptree::SpecificationBuilder;
    use wfdiff_workloads::figures::{fig2_run1, fig2_run2, fig2_specification};

    #[test]
    fn store_and_retrieve_specs_and_runs() {
        let store = WorkflowStore::new();
        let spec = store.insert_spec(fig2_specification()).unwrap();
        assert_eq!(store.spec_names(), vec!["fig2".to_string()]);
        store.insert_run("r1", fig2_run1(&spec)).unwrap();
        store.insert_run("r2", fig2_run2(&spec)).unwrap();
        assert_eq!(store.run_count(), 2);
        assert!(store.run("fig2", "r1").is_some());
        assert_eq!(store.run_names("fig2"), vec!["r1".to_string(), "r2".to_string()]);
        assert!(store.run("fig2", "r3").is_none());
    }

    #[test]
    fn runs_require_their_spec_to_be_stored() {
        let store = WorkflowStore::new();
        let spec = fig2_specification();
        let run = fig2_run1(&spec);
        assert!(matches!(store.insert_run("orphan", run), Err(StoreError::MissingSpec { .. })));
    }

    #[test]
    fn runs_built_against_a_replaced_spec_are_rejected() {
        let store = WorkflowStore::new();
        let old_spec = store.insert_spec(fig2_specification()).unwrap();
        let stale_run = fig2_run1(&old_spec);
        // Replace the (run-free) spec with a structurally different version
        // under the same name; the stale run must now be refused.
        store.insert_spec(other_spec_named_fig2()).unwrap();
        assert!(matches!(
            store.insert_run("stale", stale_run),
            Err(StoreError::SpecVersionMismatch { .. })
        ));
        // A run built against the current version is accepted.
        let fresh = store.spec("fig2").unwrap().execute(&mut wfdiff_sptree::FullDecider).unwrap();
        store.insert_run("fresh", fresh).unwrap();
    }

    #[test]
    fn insert_run_new_refuses_to_replace() {
        let store = WorkflowStore::new();
        let spec = store.insert_spec(fig2_specification()).unwrap();
        let original = store.insert_run_new("r1", fig2_run1(&spec)).unwrap();
        let err = store.insert_run_new("r1", fig2_run2(&spec)).unwrap_err();
        assert_eq!(
            err,
            StoreError::DuplicateRun { name: "fig2".to_string(), run: "r1".to_string() }
        );
        // The original run is untouched (same Arc), and plain insert_run
        // still replaces.
        assert!(Arc::ptr_eq(&store.run("fig2", "r1").unwrap(), &original));
        store.insert_run("r1", fig2_run2(&spec)).unwrap();
        assert!(!Arc::ptr_eq(&store.run("fig2", "r1").unwrap(), &original));
    }

    #[test]
    fn removal_cascades_from_spec_to_runs() {
        let store = WorkflowStore::new();
        let spec = store.insert_spec(fig2_specification()).unwrap();
        store.insert_run("r1", fig2_run1(&spec)).unwrap();
        assert!(store.remove_run("fig2", "r1"));
        assert!(!store.remove_run("fig2", "r1"));
        store.insert_run("r1", fig2_run1(&spec)).unwrap();
        assert!(store.remove_spec("fig2"));
        assert_eq!(store.run_count(), 0);
        assert!(store.spec("fig2").is_none());
    }

    #[test]
    fn store_is_shareable_across_threads() {
        let store = Arc::new(WorkflowStore::new());
        let spec = store.insert_spec(fig2_specification()).unwrap();
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let store = Arc::clone(&store);
                let spec = Arc::clone(&spec);
                std::thread::spawn(move || {
                    store.insert_run(&format!("run{i}"), fig2_run1(&spec)).unwrap();
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(store.run_count(), 4);
    }

    fn other_spec_named_fig2() -> wfdiff_sptree::Specification {
        let mut b = SpecificationBuilder::new("fig2");
        b.path(&["1", "2", "6", "7"]);
        b.build().unwrap()
    }

    #[test]
    fn reinserting_an_identical_spec_keeps_runs() {
        let store = WorkflowStore::new();
        let spec = store.insert_spec(fig2_specification()).unwrap();
        store.insert_run("r1", fig2_run1(&spec)).unwrap();
        // Same structure: the runs stay valid and stay stored.
        store.insert_spec(fig2_specification()).unwrap();
        assert_eq!(store.run_count(), 1);
    }

    #[test]
    fn replacing_a_spec_with_runs_is_refused() {
        let store = WorkflowStore::new();
        let spec = store.insert_spec(fig2_specification()).unwrap();
        store.insert_run("r1", fig2_run1(&spec)).unwrap();
        let err = store.insert_spec(other_spec_named_fig2()).unwrap_err();
        assert_eq!(err, StoreError::SpecConflict { name: "fig2".into(), runs: 1 });
        // The stored version and its run are untouched.
        assert!(store.run("fig2", "r1").is_some());
        assert_eq!(store.spec("fig2").unwrap().stats().edges, spec.stats().edges);
    }

    #[test]
    fn replacing_a_spec_without_runs_succeeds() {
        let store = WorkflowStore::new();
        store.insert_spec(fig2_specification()).unwrap();
        let replaced = store.insert_spec(other_spec_named_fig2()).unwrap();
        assert_eq!(store.spec("fig2").unwrap().stats().edges, replaced.stats().edges);
    }

    #[test]
    fn replace_spec_invalidates_stale_runs() {
        let store = WorkflowStore::new();
        let spec = store.insert_spec(fig2_specification()).unwrap();
        store.insert_run("r1", fig2_run1(&spec)).unwrap();
        store.insert_run("r2", fig2_run2(&spec)).unwrap();
        let (new_spec, invalidated) = store.replace_spec(other_spec_named_fig2());
        assert_eq!(invalidated, vec!["r1".to_string(), "r2".to_string()]);
        assert_eq!(store.run_count(), 0, "stale runs are gone");
        assert_eq!(store.spec("fig2").unwrap().stats().edges, new_spec.stats().edges);
        // Replacing with an identical structure never invalidates.
        let (_, invalidated) = store.replace_spec(other_spec_named_fig2());
        assert!(invalidated.is_empty());
    }

    #[test]
    fn arena_permuted_spec_builds_are_distinct_versions() {
        // The same DAG with its parallel branches declared in a different
        // order: equivalent canonical trees, different arena layouts.  Runs
        // reference spec nodes by arena id, so the two builds must count as
        // different versions.
        let build = |order: [&str; 2]| {
            let mut b = SpecificationBuilder::new("perm");
            b.path(&["s", order[0], "t"]);
            b.path(&["s", order[1], "t"]);
            b.build().unwrap()
        };
        let spec_ab = build(["a", "b"]);
        let spec_ba = build(["b", "a"]);
        assert!(spec_ab.tree().equivalent(spec_ba.tree()), "same canonical structure");
        assert_ne!(spec_ab.tree(), spec_ba.tree(), "different arena layouts");
        assert_ne!(spec_ab.fingerprint(), spec_ba.fingerprint());

        let store = WorkflowStore::new();
        let first = store.insert_spec(spec_ab).unwrap();
        let stale_run = first.execute(&mut wfdiff_sptree::FullDecider).unwrap();
        // Replacing with the permuted build succeeds (no runs yet) …
        store.insert_spec(spec_ba).unwrap();
        // … and the run built against the first build is now refused.
        assert!(matches!(
            store.insert_run("stale", stale_run),
            Err(StoreError::SpecVersionMismatch { .. })
        ));
    }

    #[test]
    fn snapshot_is_consistent_under_concurrent_removal() {
        // A writer repeatedly inserts the spec + a run and atomically removes
        // the spec; readers must never see runs without their specification.
        let store = Arc::new(WorkflowStore::new());
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let writer = {
            let store = Arc::clone(&store);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                for _ in 0..200 {
                    let spec = store.insert_spec(fig2_specification()).unwrap();
                    store.insert_run("r1", fig2_run1(&spec)).unwrap();
                    store.remove_spec("fig2");
                    // The removal cascaded atomically.
                    assert!(store.snapshot("fig2").is_none());
                    assert_eq!(store.run_names("fig2"), Vec::<String>::new());
                }
                stop.store(true, std::sync::atomic::Ordering::Relaxed);
            })
        };
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let store = Arc::clone(&store);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut observed = 0usize;
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        if let Some((spec, runs)) = store.snapshot("fig2") {
                            observed += 1;
                            for (_, run) in runs {
                                assert_eq!(run.spec_name(), spec.name());
                            }
                        }
                    }
                    observed
                })
            })
            .collect();
        writer.join().unwrap();
        for r in readers {
            r.join().unwrap();
        }
    }
}
