//! The batch diff engine: a [`DiffService`] wraps a [`WorkflowStore`] and a
//! shared fingerprint-keyed [`DiffCache`], and differences run pairs singly
//! (`diff`), in explicit batches (`diff_batch`) or all-pairs
//! (`diff_all_pairs`) across a scoped worker pool of plain `std` threads.
//!
//! The all-pairs workload is the paper's clustering scenario: PDiffView
//! browses whole collections of runs of one specification, which needs the
//! full distance matrix.  Three levers make that fast here:
//!
//! 1. every run is **prepared once per stored run** (fingerprints +
//!    Algorithm 3 tables, the latter shared across runs through the cache)
//!    and the result stays resident beside the store's handle, so a query
//!    is a lookup plus the DP,
//! 2. subtree-pair DP values are **memoised across pairs and across calls**
//!    by canonical fingerprint, so a warm cache answers repeated or
//!    overlapping queries at the root, and
//! 3. independent pairs of a batch are **differenced in parallel** on
//!    `threads` workers pulling from an atomic work queue.
//!
//! The resident prepared state is keyed by the identity of the store's
//! `Arc<Run>`: a run replaced under the same name, or any run of a replaced
//! specification version, misses and is prepared again, so stale tables are
//! never served — even when the store is mutated without the `notify_*`
//! calls.  [`DiffService::warm_start`] fills it at boot,
//! [`DiffService::notify_run_inserted`] as runs arrive, and any query
//! lazily on a miss; [`DiffService::notify_run_removed`], a replaced
//! specification version and whole-specification queries reclaim it.
//!
//! Distances are bit-identical to the unmemoised [`WorkflowDiff`] path — the
//! cache only short-circuits subproblems that are provably equal.

use crate::cluster::incremental::{ClusterSnapshot, DistanceOracle, IncrementalClusterIndex};
use crate::cluster::CheckpointReport;
use crate::lockrank::{LockRank, RankedRwLock};
use crate::metricindex::{IncrementalMetricIndex, PruneStats, RunNames};
use crate::persist::PersistError;
use crate::pool;
use crate::session::DiffSession;
use crate::store::{StoreError, WorkflowStore};
use crate::stream::{PartialRun, StreamError, StreamEvent};
use crate::wal;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::Arc;
use wfdiff_core::{
    CacheStats, CostModel, DiffCache, DiffError, PreparedRun, RunTables, ShardedDiffCache,
    UnitCost, WorkflowDiff,
};
use wfdiff_sptree::{Fingerprint, Run, Specification};

mod commit;

/// Capacity, in entries, of the diff cache a [`DiffService`] builds for
/// itself.
///
/// With every stored run's tables resident, the cache holds the pair memo
/// and the per-subtree Algorithm 3 entries that preparation shares.  The
/// memo's hot set is small: on a 2000-run store under pruned `/similar`
/// traffic (two clients, 2-vCPU machine), 65 536 entries answered as fast
/// as the engine's default of 2^20, at half the server's peak memory.
pub const DEFAULT_SERVICE_CACHE_ENTRIES: usize = 1 << 16;

/// Errors raised by the batch diff service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// The named specification is not in the store.
    UnknownSpec(String),
    /// The named run is not stored for the specification.
    UnknownRun {
        /// The specification name.
        spec: String,
        /// The missing run name.
        run: String,
    },
    /// A query parameter was structurally invalid (e.g. a cluster count of
    /// zero); the message names the offending parameter.
    InvalidQuery(String),
    /// The underlying differencing failed.
    Diff(DiffError),
    /// A stream event (or a stream finalisation) was rejected by the
    /// [`PartialRun`] builder; [`StreamError::is_conflict`] separates state
    /// conflicts (409) from structurally invalid events (400).
    Stream(StreamError),
    /// The named in-flight stream does not exist.
    UnknownStream {
        /// The specification name.
        spec: String,
        /// The missing stream name.
        stream: String,
    },
    /// The store refused a run: its specification is missing or at another
    /// version, or its name is taken.
    Store(StoreError),
    /// Making a write durable failed (the message names the file and the
    /// I/O error); nothing of the write is in memory or in the log.
    Persist(String),
    /// A write's append or fsync failed and cutting it back off the log
    /// failed too (the message names both errors): the write is not in
    /// memory, but its records may be whole in the log, so a reload may
    /// replay it.  Every later write is refused until the store is
    /// reloaded.
    OutcomeUnknown(String),
    /// A record of the write is longer than the write-ahead log's framing
    /// allows (64 MiB); it was refused before any byte was written, and
    /// nothing of the write is in memory or in the log.
    RecordTooLarge(String),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::UnknownSpec(name) => write!(f, "unknown specification {name:?}"),
            ServiceError::UnknownRun { spec, run } => {
                write!(f, "unknown run {run:?} for specification {spec:?}")
            }
            ServiceError::InvalidQuery(message) => write!(f, "invalid query: {message}"),
            ServiceError::Diff(e) => write!(f, "diff failed: {e}"),
            ServiceError::Stream(e) => write!(f, "stream event rejected: {e}"),
            ServiceError::UnknownStream { spec, stream } => {
                write!(f, "unknown stream {stream:?} for specification {spec:?}")
            }
            ServiceError::Store(e) => e.fmt(f),
            ServiceError::Persist(message)
            | ServiceError::OutcomeUnknown(message)
            | ServiceError::RecordTooLarge(message) => f.write_str(message),
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Diff(e) => Some(e),
            ServiceError::Stream(e) => Some(e),
            ServiceError::Store(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DiffError> for ServiceError {
    fn from(value: DiffError) -> Self {
        ServiceError::Diff(value)
    }
}

impl From<StreamError> for ServiceError {
    fn from(value: StreamError) -> Self {
        ServiceError::Stream(value)
    }
}

impl From<StoreError> for ServiceError {
    fn from(value: StoreError) -> Self {
        ServiceError::Store(value)
    }
}

impl From<PersistError> for ServiceError {
    fn from(value: PersistError) -> Self {
        match value {
            PersistError::RecordTooLarge { .. } => ServiceError::RecordTooLarge(value.to_string()),
            PersistError::OutcomeUnknown { .. } => ServiceError::OutcomeUnknown(value.to_string()),
            _ => ServiceError::Persist(value.to_string()),
        }
    }
}

/// What a [`DiffService::warm_start`] pass prepared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WarmStartReport {
    /// Number of specifications whose runs were prepared.
    pub specs: usize,
    /// Number of stored runs whose prepared state is resident afterwards.
    pub runs: usize,
}

/// One stored run's resident prepared state.  `run` is the store's own
/// handle: the entry serves a lookup only while the store holds this exact
/// `Arc` under the entry's name.
struct PreparedEntry {
    run: Arc<Run>,
    tables: Arc<RunTables>,
}

/// The resident prepared state of one specification's runs.
#[derive(Default)]
struct SpecPrepared {
    /// The specification version every entry was prepared under.
    version: Fingerprint,
    /// Entries by run name.
    runs: HashMap<String, PreparedEntry>,
}

/// One distance of a batch request.
#[derive(Debug, Clone, PartialEq)]
pub struct PairDistance {
    /// Source run name.
    pub source: String,
    /// Target run name.
    pub target: String,
    /// The edit distance.
    pub distance: f64,
}

/// The full distance matrix of a specification's stored runs.
#[derive(Debug, Clone, PartialEq)]
pub struct AllPairsResult {
    /// Run names in matrix order (the store's sorted order).
    pub runs: Vec<String>,
    /// Symmetric distance matrix; `matrix[i][j]` is the edit distance between
    /// `runs[i]` and `runs[j]` (diagonal is zero).
    pub matrix: Vec<Vec<f64>>,
}

impl AllPairsResult {
    /// The distance between two named runs, if both are in the matrix.
    pub fn distance(&self, a: &str, b: &str) -> Option<f64> {
        let i = self.runs.iter().position(|r| r == a)?;
        let j = self.runs.iter().position(|r| r == b)?;
        Some(self.matrix[i][j])
    }

    /// Iterates over the strict upper triangle as (source, target, distance).
    pub fn pairs(&self) -> impl Iterator<Item = (&str, &str, f64)> + '_ {
        self.runs.iter().enumerate().flat_map(move |(i, a)| {
            self.runs[i + 1..]
                .iter()
                .enumerate()
                .map(move |(k, b)| (a.as_str(), b.as_str(), self.matrix[i][i + 1 + k]))
        })
    }
}

/// Acknowledgement of one accepted event batch on a stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamAck {
    /// The stream's event count before the batch (the sequence number the
    /// batch was validated against, and the `base_seq` its WAL records
    /// carry).
    pub base_seq: u64,
    /// The stream's event count after the batch.
    pub seq: u64,
    /// Node instances declared so far.
    pub nodes: usize,
    /// Completed leaves in the live prefix profile.
    pub completed_leaves: u64,
    /// `true` once every declared instance has completed — the stream may
    /// finalize.
    pub complete: bool,
}

/// The result of [`DiffService::stream_events`].
#[derive(Debug, Clone)]
pub struct StreamBatchOutcome {
    /// The acknowledgement of the applied batch.
    pub ack: StreamAck,
}

/// One cluster's verdict inside a [`DriftReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DriftClusterStatus {
    /// The cluster's medoid run.
    pub medoid: String,
    /// Member count (including the medoid).
    pub size: usize,
    /// The cluster radius: the largest exact distance from the medoid to a
    /// member.
    pub radius: f64,
    /// The certified lower bound on the distance between any completion of
    /// the stream and the medoid
    /// ([`WorkflowDiff::prefix_distance`]).
    pub lower_bound: f64,
    /// `lower_bound > radius`: no completion of this stream can land inside
    /// the cluster.
    pub exceeds: bool,
}

/// The drift verdict for one in-flight stream — the body of
/// `GET /runs/{spec}/{stream}/drift` and the `drift` of a
/// `POST /runs/stream` answer.
///
/// The stream **drifts** when the certified lower bound to *every* cluster
/// medoid exceeds that cluster's radius: whatever the run goes on to do, it
/// cannot end up inside any known cluster.  Because the bound is monotone in
/// the event stream, a drift verdict is permanent for the stream (it can
/// only be reset by re-clustering with the finished run folded in).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DriftReport {
    /// The specification name.
    pub spec: String,
    /// The stream name.
    pub stream: String,
    /// Events applied to the stream so far.
    pub events: u64,
    /// Node instances declared so far.
    pub nodes: usize,
    /// Completed leaves in the prefix profile.
    pub completed_leaves: u64,
    /// Per-cluster radii and bounds (empty when no clustering has been built
    /// for the specification yet).
    pub clusters: Vec<DriftClusterStatus>,
    /// `true` iff `clusters` is non-empty and every entry `exceeds`.
    pub drifted: bool,
}

/// What [`DiffService::load_streams`] rebuilt from the write-ahead log.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamLoadReport {
    /// Streams rebuilt into the in-flight registry.
    pub loaded: usize,
    /// Streams dropped as already finalised (a closure marker, or a stored
    /// run of the same name).
    pub closed: usize,
    /// Streams dropped as stale or invalid (replaced specification version,
    /// missing specification, or an event sequence that no longer applies).
    pub skipped: usize,
}

/// Builder-style configuration for [`DiffService`].
pub struct DiffServiceBuilder {
    store: Arc<WorkflowStore>,
    cost: Arc<dyn CostModel>,
    cache: Arc<dyn DiffCache>,
    threads: usize,
}

impl DiffServiceBuilder {
    /// Sets the cost model (default: [`UnitCost`]).
    pub fn cost(mut self, cost: Arc<dyn CostModel>) -> Self {
        self.cost = cost;
        self
    }

    /// Sets the shared diff cache (default: a [`ShardedDiffCache`] of
    /// [`DEFAULT_SERVICE_CACHE_ENTRIES`] entries).
    pub fn cache(mut self, cache: Arc<dyn DiffCache>) -> Self {
        self.cache = cache;
        self
    }

    /// Sets the worker-pool size for batch operations (default: the number of
    /// available CPUs).  Clamped to at least 1.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Finishes the build.
    pub fn build(self) -> DiffService {
        DiffService {
            store: self.store,
            cost: self.cost,
            cache: self.cache,
            threads: self.threads,
            clusters: IncrementalClusterIndex::new(),
            metric: IncrementalMetricIndex::new(),
            streams: RankedRwLock::new(LockRank::Streams, BTreeMap::new()),
            prepared: RankedRwLock::new(LockRank::Prepared, HashMap::new()),
        }
    }
}

/// The batch diff engine; see the [module docs](self).
pub struct DiffService {
    store: Arc<WorkflowStore>,
    cost: Arc<dyn CostModel>,
    cache: Arc<dyn DiffCache>,
    threads: usize,
    clusters: IncrementalClusterIndex,
    metric: IncrementalMetricIndex,
    /// In-flight streamed runs keyed by `(spec, stream)`, ranked after every
    /// store lock ([`LockRank::Streams`]): a batch is validated on a builder
    /// cloned *out* under it and published back in once durable (see
    /// [`commit`]), so no store or WAL call ever happens under it.
    streams: RankedRwLock<BTreeMap<(String, String), PartialRun>>,
    /// Resident prepared state per specification name (see the
    /// [module docs](self)).  Entries are cloned out under it and filled
    /// after computing with no lock held; nothing else is ever locked while
    /// it is held ([`LockRank::Prepared`]).
    prepared: RankedRwLock<HashMap<String, SpecPrepared>>,
}

impl DiffService {
    /// Creates a service over `store` with the default configuration
    /// (unit cost, a fresh [`ShardedDiffCache`], one worker per available
    /// CPU).
    pub fn new(store: Arc<WorkflowStore>) -> Self {
        DiffService::builder(store).build()
    }

    /// Starts configuring a service over `store`.
    pub fn builder(store: Arc<WorkflowStore>) -> DiffServiceBuilder {
        DiffServiceBuilder {
            store,
            cost: Arc::new(UnitCost),
            cache: Arc::new(ShardedDiffCache::with_capacity(DEFAULT_SERVICE_CACHE_ENTRIES)),
            threads: pool::cpus(),
        }
    }

    /// The underlying store.
    pub fn store(&self) -> &Arc<WorkflowStore> {
        &self.store
    }

    /// The cost model in use.
    pub fn cost_model(&self) -> &dyn CostModel {
        self.cost.as_ref()
    }

    /// The worker-pool size used by batch operations.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// A snapshot of the shared cache's effectiveness counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    fn lookup(
        &self,
        spec_name: &str,
        run_names: &[&str],
    ) -> Result<(Arc<Specification>, Vec<Arc<Run>>), ServiceError> {
        // One consistent critical section; only the named runs are touched,
        // so single-pair queries stay O(k log n) however many runs the
        // specification has accumulated.
        let (spec, resolved) = self
            .store
            .lookup_runs(spec_name, run_names)
            .ok_or_else(|| ServiceError::UnknownSpec(spec_name.to_string()))?;
        let runs = run_names
            .iter()
            .zip(resolved)
            .map(|(&name, run)| {
                run.ok_or_else(|| ServiceError::UnknownRun {
                    spec: spec_name.to_string(),
                    run: name.to_string(),
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok((spec, runs))
    }

    /// The resident prepared state of `runs` (index-aligned; names with the
    /// handles one consistent store lookup returned for them).  Entries
    /// whose handle is still the store's are reused; every other run is
    /// prepared now — on the worker pool when there are several — and kept.
    fn resident_tables<'n, 'r>(
        &self,
        spec: &Specification,
        runs: impl IntoIterator<Item = (&'n str, &'r Arc<Run>)>,
    ) -> Result<Vec<Arc<RunTables>>, ServiceError> {
        let runs: Vec<(&str, &Arc<Run>)> = runs.into_iter().collect();
        let version = spec.fingerprint();
        let mut found: Vec<Option<Arc<RunTables>>> = {
            let resident = self.prepared.read();
            let entries = resident.get(spec.name()).filter(|s| s.version == version);
            runs.iter()
                .map(|&(name, run)| {
                    let entry = entries.and_then(|s| s.runs.get(name))?;
                    Arc::ptr_eq(&entry.run, run).then(|| Arc::clone(&entry.tables))
                })
                .collect()
        };
        let misses: Vec<usize> = (0..runs.len()).filter(|&i| found[i].is_none()).collect();
        if !misses.is_empty() {
            let engine = WorkflowDiff::new(spec, self.cost.as_ref());
            let cache = self.cache.as_ref();
            let fresh = self.run_jobs(&misses, |&i| {
                engine.prepare_tables(runs[i].1, Some(cache)).map(Arc::new)
            })?;
            let mut resident = self.prepared.write();
            let entries = resident.entry(spec.name().to_string()).or_default();
            if entries.version != version {
                // A replaced specification version: every entry is stale.
                *entries = SpecPrepared { version, runs: HashMap::new() };
            }
            for (&i, tables) in misses.iter().zip(fresh) {
                let (name, run) = runs[i];
                let entry = PreparedEntry { run: Arc::clone(run), tables: Arc::clone(&tables) };
                entries.runs.insert(name.to_string(), entry);
                found[i] = Some(tables);
            }
        }
        // Every slot is filled: the misses were exactly the empty ones.
        Ok(found.into_iter().flatten().collect())
    }

    /// [`DiffService::resident_tables`] paired with the runs, ready for the
    /// DP.
    fn prepared<'n, 'r>(
        &self,
        spec: &Specification,
        runs: impl IntoIterator<Item = (&'n str, &'r Arc<Run>)> + Clone,
    ) -> Result<Vec<PreparedRun<'r>>, ServiceError> {
        let tables = self.resident_tables(spec, runs.clone())?;
        Ok(runs.into_iter().zip(tables).map(|((_, run), t)| PreparedRun::new(run, t)).collect())
    }

    /// Drops resident entries of `spec` that the store no longer holds:
    /// all of them after a version change, else those of runs removed
    /// without a `notify_*` call.  `stored` is the run count the caller
    /// read with `spec`.  O(1) unless more entries are resident than runs
    /// are stored; only then is the store's run list read, and swept
    /// against.  (An entry of a run replaced under its name is overwritten
    /// on its next miss.)
    fn reclaim(&self, spec: &Specification, stored: usize) {
        let version = spec.fingerprint();
        let stale = |s: &SpecPrepared| s.version != version || s.runs.len() > stored;
        if !self.prepared.read().get(spec.name()).is_some_and(stale) {
            return;
        }
        let current = self.store.snapshot(spec.name());
        let mut resident = self.prepared.write();
        let Some(entries) = resident.get_mut(spec.name()) else { return };
        // A replaced (or removed) specification: every entry is stale.
        let Some((_, snapshot)) = current.filter(|(now, _)| now.fingerprint() == entries.version)
        else {
            resident.remove(spec.name());
            return;
        };
        entries.runs.retain(|name, entry| {
            snapshot
                .binary_search_by(|(n, _)| n.as_str().cmp(name))
                .is_ok_and(|i| Arc::ptr_eq(&snapshot[i].1, &entry.run))
        });
    }

    /// Number of stored runs whose prepared state is resident.
    pub fn prepared_runs(&self) -> usize {
        self.prepared.read().values().map(|s| s.runs.len()).sum()
    }

    /// Prepares every run of every stored specification and keeps the
    /// result resident, so the first query after a restart pays only for
    /// the pair DP.  Resident state for runs and specifications the store
    /// no longer holds is dropped, so afterwards exactly the stored runs
    /// are resident.
    ///
    /// This is the companion of [`WorkflowStore::load_from_dir`], called
    /// once at boot.  Calling it again is cheap: resident runs are only
    /// looked up.
    ///
    /// [`WorkflowStore::load_from_dir`]: crate::store::WorkflowStore::load_from_dir
    pub fn warm_start(&self) -> Result<WarmStartReport, ServiceError> {
        let snapshot = self.store.snapshot_all();
        self.prepared.write().retain(|name, _| snapshot.iter().any(|(s, _)| s == name));
        let mut report = WarmStartReport { specs: 0, runs: 0 };
        for (_, (spec, named_runs)) in &snapshot {
            report.specs += 1;
            self.reclaim(spec, named_runs.len());
            self.resident_tables(spec, named_runs.iter().map(|(n, r)| (n.as_str(), r)))?;
            report.runs += named_runs.len();
        }
        Ok(report)
    }

    /// Computes the edit distance between two stored runs, sharing and
    /// warming the service cache.
    pub fn diff(&self, spec: &str, r1: &str, r2: &str) -> Result<PairDistance, ServiceError> {
        let names = [r1, r2];
        let (spec_arc, runs) = self.lookup(spec, &names)?;
        let prepared = self.prepared(&spec_arc, names.into_iter().zip(&runs))?;
        let engine = WorkflowDiff::new(&spec_arc, self.cost.as_ref());
        let distance =
            engine.distance_prepared(&prepared[0], &prepared[1], Some(self.cache.as_ref()))?;
        Ok(PairDistance { source: r1.to_string(), target: r2.to_string(), distance })
    }

    /// Opens a full differencing session (mapping + edit script) between two
    /// stored runs, reusing the service's cost model, cache and resident
    /// prepared state.
    pub fn session(&self, spec: &str, r1: &str, r2: &str) -> Result<DiffSession, ServiceError> {
        let names = [r1, r2];
        let (spec_arc, runs) = self.lookup(spec, &names)?;
        let tables = self.resident_tables(&spec_arc, names.into_iter().zip(&runs))?;
        let mut pairs = runs.into_iter().zip(tables);
        let (Some(source), Some(target)) = (pairs.next(), pairs.next()) else {
            return Err(DiffError::Invariant("two runs resolved".to_string()).into());
        };
        DiffSession::from_prepared(
            spec_arc,
            self.cost.as_ref(),
            source,
            target,
            Some(self.cache.as_ref()),
        )
        .map_err(ServiceError::from)
    }

    /// Differences an explicit list of run-name pairs on the worker pool.
    ///
    /// The result vector is index-aligned with `pairs`.
    #[expect(
        clippy::expect_used,
        reason = "the sorted name list was built from the same pairs being looked up"
    )]
    pub fn diff_batch(
        &self,
        spec: &str,
        pairs: &[(String, String)],
    ) -> Result<Vec<PairDistance>, ServiceError> {
        // Deduplicate run names so each distinct run is resolved once,
        // however often it repeats across pairs.
        let mut names: Vec<&str> =
            pairs.iter().flat_map(|(a, b)| [a.as_str(), b.as_str()]).collect();
        names.sort_unstable();
        names.dedup();
        let index_of = |name: &str| {
            names.binary_search(&name).expect("every pair name is in the deduplicated list")
        };
        let (spec_arc, runs) = self.lookup(spec, &names)?;
        let prepared = self.prepared(&spec_arc, names.iter().copied().zip(&runs))?;
        let engine = WorkflowDiff::new(&spec_arc, self.cost.as_ref());
        let cache = self.cache.as_ref();
        let jobs: Vec<(usize, usize)> =
            pairs.iter().map(|(a, b)| (index_of(a), index_of(b))).collect();
        let distances = self.run_jobs(&jobs, |&(i, j)| {
            engine.distance_prepared(&prepared[i], &prepared[j], Some(cache))
        })?;
        Ok(pairs
            .iter()
            .zip(distances)
            .map(|((a, b), distance)| PairDistance {
                source: a.clone(),
                target: b.clone(),
                distance,
            })
            .collect())
    }

    /// Computes the full distance matrix over every run stored for `spec`.
    pub fn diff_all_pairs(&self, spec: &str) -> Result<AllPairsResult, ServiceError> {
        let (spec_arc, named_runs) =
            self.store.snapshot(spec).ok_or_else(|| ServiceError::UnknownSpec(spec.to_string()))?;
        self.reclaim(&spec_arc, named_runs.len());
        let prepared = self.prepared(&spec_arc, named_runs.iter().map(|(n, r)| (n.as_str(), r)))?;
        let engine = WorkflowDiff::new(&spec_arc, self.cost.as_ref());
        let cache = self.cache.as_ref();
        let n = prepared.len();
        let jobs: Vec<(usize, usize)> =
            (0..n).flat_map(|i| (i + 1..n).map(move |j| (i, j))).collect();
        let distances = self.run_jobs(&jobs, |&(i, j)| {
            engine.distance_prepared(&prepared[i], &prepared[j], Some(cache))
        })?;
        let mut matrix = vec![vec![0.0; n]; n];
        for (&(i, j), d) in jobs.iter().zip(distances) {
            matrix[i][j] = d;
            matrix[j][i] = d;
        }
        let runs = named_runs.into_iter().map(|(name, _)| name).collect();
        Ok(AllPairsResult { runs, matrix })
    }

    /// The exact `k` nearest stored runs to `run` ("which past run is this
    /// one closest to?") by the O(n) sweep — the oracle that
    /// [`DiffService::nearest_runs_pruned`], the query behind
    /// `GET /similar`, is checked against.
    ///
    /// Distances are computed against **every** other stored run of the
    /// specification (each pair riding the shared cache), so the answer is
    /// always identical to a from-scratch recompute.  Results are sorted by
    /// distance, ties broken by run name; `k` is clamped to the number of
    /// other runs and must be at least 1.
    pub fn nearest_runs(
        &self,
        spec: &str,
        run: &str,
        k: usize,
    ) -> Result<Vec<PairDistance>, ServiceError> {
        if k == 0 {
            return Err(ServiceError::InvalidQuery("k must be at least 1".to_string()));
        }
        let (spec_arc, named_runs) =
            self.store.snapshot(spec).ok_or_else(|| ServiceError::UnknownSpec(spec.to_string()))?;
        let query = named_runs.iter().position(|(n, _)| n == run).ok_or_else(|| {
            ServiceError::UnknownRun { spec: spec.to_string(), run: run.to_string() }
        })?;
        self.reclaim(&spec_arc, named_runs.len());
        let prepared = self.prepared(&spec_arc, named_runs.iter().map(|(n, r)| (n.as_str(), r)))?;
        let engine = WorkflowDiff::new(&spec_arc, self.cost.as_ref());
        let cache = Some(self.cache.as_ref());
        let mut neighbors = Vec::with_capacity(prepared.len().saturating_sub(1));
        for (i, ((name, _), p)) in named_runs.iter().zip(&prepared).enumerate() {
            if i != query {
                neighbors.push(PairDistance {
                    source: run.to_string(),
                    target: name.clone(),
                    distance: engine.distance_prepared(&prepared[query], p, cache)?,
                });
            }
        }
        neighbors.sort_by(|a, b| {
            a.distance.total_cmp(&b.distance).then_with(|| a.target.cmp(&b.target))
        });
        neighbors.truncate(k);
        Ok(neighbors)
    }

    /// The `k` nearest stored runs to `run` through the metric index — the
    /// query behind `GET /similar` — with triangle-inequality pruning
    /// instead of the O(n) sweep.  A specification's first query builds its
    /// vantage-point tree; later queries and
    /// [`DiffService::notify_run_inserted`] maintain it.  The query itself
    /// writes nothing.
    ///
    /// With `epsilon == 0` (the default) the result is **certified**
    /// identical to [`DiffService::nearest_runs`], ordering and tie-breaks
    /// included: a subtree or candidate is skipped only when a
    /// triangle-inequality bound proves it cannot enter the top-`k`.
    /// `epsilon > 0` opts into approximate answers where every reported
    /// distance is at most `(1 + ε)` times the true `k`-th distance (the
    /// bound echoed in [`PruneStats::approx_epsilon`]).  Candidate
    /// screening additionally reuses medoid distances the cluster index
    /// already memoized, at zero extra evaluations.  Like the exact path,
    /// `k` is clamped to the number of other runs and must be at least 1.
    pub fn nearest_runs_pruned(
        &self,
        spec: &str,
        run: &str,
        k: usize,
        epsilon: f64,
    ) -> Result<(Vec<PairDistance>, PruneStats), ServiceError> {
        if k == 0 {
            return Err(ServiceError::InvalidQuery("k must be at least 1".to_string()));
        }
        if !epsilon.is_finite() || epsilon < 0.0 {
            return Err(ServiceError::InvalidQuery(
                "approx must be a finite non-negative epsilon".to_string(),
            ));
        }
        // The query's run is looked up, and the specification's run names
        // read, in place: the metric index compares them with its tree's
        // members and copies them only to build a tree.
        let (spec_arc, _) = self.lookup(spec, &[run])?;
        self.reclaim(&spec_arc, self.store.with_names(spec, |names| names.len()));
        let oracle = ServiceOracle { service: self, spec };
        let pivots = self.clusters.medoid_pivots(spec);
        let (neighbors, stats) = self.metric.nearest(
            spec,
            spec_arc.fingerprint(),
            &*self.store,
            run,
            k,
            epsilon,
            pivots.as_deref(),
            &oracle,
        )?;
        let neighbors = neighbors
            .into_iter()
            .map(|(target, distance)| PairDistance { source: run.to_string(), target, distance })
            .collect();
        Ok((neighbors, stats))
    }

    /// The k-medoids clustering of every run stored for `spec`, maintained
    /// incrementally by the service's [`IncrementalClusterIndex`].
    ///
    /// The first call (or a call after the stored run set, `k`, `seed` or
    /// the specification version changed in a way the index did not track)
    /// builds the clustering; subsequent calls and streamed
    /// [`DiffService::notify_run_inserted`] updates serve and maintain it
    /// incrementally.  `k` must be at least 1 (it is clamped to the run
    /// count); an empty collection yields an empty snapshot.
    pub fn cluster_medoids(
        &self,
        spec: &str,
        k: usize,
        seed: u64,
    ) -> Result<ClusterSnapshot, ServiceError> {
        if k == 0 {
            return Err(ServiceError::InvalidQuery("k must be at least 1".to_string()));
        }
        let (spec_arc, named_runs) =
            self.store.snapshot(spec).ok_or_else(|| ServiceError::UnknownSpec(spec.to_string()))?;
        self.reclaim(&spec_arc, named_runs.len());
        let names: Vec<String> = named_runs.iter().map(|(n, _)| n.clone()).collect();
        let oracle = ServiceOracle { service: self, spec };
        self.clusters.ensure(spec, spec_arc.fingerprint(), &names, k, seed, &oracle)
    }

    /// Prepares a just-stored run and keeps the result resident, then folds
    /// the run into the cluster and metric indexes (a no-op for an index
    /// that holds no state for the specification yet).
    ///
    /// All of this is derived state, so it never fails the caller: a run
    /// that fails to prepare is prepared again on its next query, and any
    /// error while fetching the O(k + cluster) fresh distances drops the
    /// index's state for the specification instead, and the next
    /// [`DiffService::cluster_medoids`] rebuilds it.
    pub fn notify_run_inserted(&self, spec: &str, run: &str) {
        let Some((spec_arc, stored)) = self.store.lookup_runs(spec, &[run]) else {
            self.prepared.write().remove(spec);
            self.clusters.invalidate(spec);
            self.metric.invalidate(spec);
            return;
        };
        if let Some(stored) = &stored[0] {
            let _ = self.resident_tables(&spec_arc, [(run, stored)]);
        }
        let oracle = ServiceOracle { service: self, spec };
        if self.clusters.insert_run(spec, spec_arc.fingerprint(), run, &oracle).is_err() {
            self.clusters.invalidate(spec);
        }
        if self.metric.insert_run(spec, spec_arc.fingerprint(), run, &oracle).is_err() {
            self.metric.invalidate(spec);
        }
    }

    /// Drops a removed run's resident prepared state and removes it from the
    /// cluster and metric indexes (the mirror of
    /// [`DiffService::notify_run_inserted`]; same never-fails contract).
    pub fn notify_run_removed(&self, spec: &str, run: &str) {
        if let Some(entries) = self.prepared.write().get_mut(spec) {
            entries.runs.remove(run);
        }
        let oracle = ServiceOracle { service: self, spec };
        if self.clusters.remove_run(spec, run, &oracle).is_err() {
            self.clusters.invalidate(spec);
        }
        self.metric.remove_run(spec, run);
    }

    /// The service's incremental run-cluster index.
    pub fn cluster_index(&self) -> &IncrementalClusterIndex {
        &self.clusters
    }

    /// The service's incremental metric (vantage-point tree) index.
    pub fn metric_index(&self) -> &IncrementalMetricIndex {
        &self.metric
    }

    /// Checkpoints the cluster index by replacing `cluster_cache.json` in
    /// `dir` whole, atomically, with every clustering the index holds (see
    /// [`crate::cluster::persist`]); the write-ahead log is not touched.
    /// Returns the number of tracked specs.  When nothing changed since the
    /// last successful checkpoint the write is skipped entirely, so calling
    /// this after every query is cheap.
    pub fn save_cluster_state(&self, dir: impl AsRef<Path>) -> Result<usize, PersistError> {
        self.clusters.save_checkpoint(&self.store, self.cost.cache_key(), dir.as_ref())
    }

    /// Write-ahead-log counters of the underlying store (appends, bytes,
    /// replayed records, checkpoint folds) — the `/metrics` numbers.
    pub fn wal_stats(&self) -> crate::wal::WalStatsSnapshot {
        self.store.wal_stats()
    }

    /// Restores a cluster-index checkpoint from `dir`, validating every
    /// entry against the live store (stale or corrupt entries are skipped
    /// and rebuilt on demand — this never fails the boot).
    pub fn load_cluster_state(&self, dir: impl AsRef<Path>) -> CheckpointReport {
        self.clusters.load_checkpoint(&self.store, self.cost.cache_key(), dir.as_ref())
    }

    /// Does nothing and returns `Ok(0)`.  The metric index keeps no
    /// checkpoint: its trees are rebuilt from the stored runs by the first
    /// [`DiffService::nearest_runs_pruned`] after a boot.  Kept, with its
    /// signature, only for its one caller, the benchmark's traced replay.
    pub fn save_metric_state(&self, _dir: impl AsRef<Path>) -> Result<usize, PersistError> {
        Ok(0)
    }

    /// Does nothing and returns an empty report; see
    /// [`DiffService::save_metric_state`].  A `metric_index.json` or kind-4
    /// WAL record written by an earlier version is never read, and the next
    /// fold removes it.  Kept, with its signature, only for its one caller,
    /// the benchmark's traced replay.
    pub fn load_metric_state(&self, _dir: impl AsRef<Path>) -> CheckpointReport {
        CheckpointReport::default()
    }

    /// [`DiffService::commit_stream_batch`] without a store directory or a
    /// finalisation: the batch is applied in memory only.
    pub fn stream_events(
        &self,
        spec: &str,
        stream: &str,
        events: &[StreamEvent],
    ) -> Result<StreamBatchOutcome, ServiceError> {
        let (ack, _) = self.commit_stream_batch(None, spec, stream, events, false)?;
        Ok(StreamBatchOutcome { ack })
    }

    /// Materialises a completed in-flight stream as a fully validated run
    /// (without touching the store or the registry), returning the run and
    /// the stream's event count.  [`ServiceError::Stream`] with
    /// [`StreamError::Incomplete`] while instances are active or failed.
    pub fn finalize_stream(&self, spec: &str, stream: &str) -> Result<(Run, u64), ServiceError> {
        let key = (spec.to_string(), stream.to_string());
        let partial = self.streams.read().get(&key).cloned().ok_or_else(|| {
            ServiceError::UnknownStream { spec: spec.to_string(), stream: stream.to_string() }
        })?;
        let run = partial.finalize().map_err(ServiceError::Stream)?;
        Ok((run, partial.applied()))
    }

    /// Drops an in-flight stream from the registry (the final step of
    /// finalisation, and the operator remedy for stuck streams).  Returns
    /// `true` if the stream existed.
    pub fn remove_stream(&self, spec: &str, stream: &str) -> bool {
        self.streams.write().remove(&(spec.to_string(), stream.to_string())).is_some()
    }

    /// Names of the in-flight streams of one specification, sorted.
    pub fn stream_names(&self, spec: &str) -> Vec<String> {
        self.streams
            .read()
            .keys()
            .filter(|(s, _)| s == spec)
            .map(|(_, stream)| stream.clone())
            .collect()
    }

    /// The event count of an in-flight stream, if it exists.
    pub fn stream_seq(&self, spec: &str, stream: &str) -> Option<u64> {
        self.streams.read().get(&(spec.to_string(), stream.to_string())).map(|p| p.applied())
    }

    /// The live drift verdict for one in-flight stream.
    ///
    /// For each cluster of the specification's maintained k-medoids
    /// clustering, the verdict compares the cluster's **radius** (largest
    /// exact distance from the medoid to a member, over the same resident
    /// prepared state and cache the cluster index uses) against the
    /// **certified lower bound** [`WorkflowDiff::prefix_distance`] gives on
    /// the distance between any completion of the stream and the medoid.
    /// When the bound exceeds the radius for *every* cluster, no completion
    /// of the run can land inside any known cluster — the run has drifted,
    /// provably, while still executing.
    ///
    /// It never triggers a re-clustering itself: with no snapshot for the
    /// specification the report carries zero clusters and `drifted: false`
    /// (call [`DiffService::cluster_medoids`] first to build one).
    pub fn drift_report(&self, spec: &str, stream: &str) -> Result<DriftReport, ServiceError> {
        let key = (spec.to_string(), stream.to_string());
        let partial = self.streams.read().get(&key).cloned().ok_or_else(|| {
            ServiceError::UnknownStream { spec: spec.to_string(), stream: stream.to_string() }
        })?;
        if self.store.spec(spec).is_none() {
            return Err(ServiceError::UnknownSpec(spec.to_string()));
        }
        let mut report = DriftReport {
            spec: spec.to_string(),
            stream: stream.to_string(),
            events: partial.applied(),
            nodes: partial.node_count(),
            completed_leaves: partial.profile().completed_leaves(),
            clusters: Vec::new(),
            drifted: false,
        };
        let Some(snapshot) = self.clusters.snapshot(spec) else {
            return Ok(report);
        };
        let cache = Some(self.cache.as_ref());
        for cluster in &snapshot.clusters {
            // The medoid first, then the other members.
            let names: Vec<&str> = std::iter::once(cluster.medoid.as_str())
                .chain(cluster.runs.iter().map(String::as_str).filter(|r| *r != cluster.medoid))
                .collect();
            let (spec_arc, runs) = self.lookup(spec, &names)?;
            let prepared = self.prepared(&spec_arc, names.iter().copied().zip(&runs))?;
            let engine = WorkflowDiff::new(&spec_arc, self.cost.as_ref());
            let Some((medoid, members)) = prepared.split_first() else { continue };
            let mut radius: f64 = 0.0;
            for member in members {
                radius = radius.max(engine.distance_prepared(medoid, member, cache)?);
            }
            let lower_bound = engine.prefix_distance(partial.profile(), None, medoid, cache)?;
            report.clusters.push(DriftClusterStatus {
                medoid: cluster.medoid.clone(),
                size: cluster.runs.len(),
                radius,
                lower_bound,
                exceeds: lower_bound > radius,
            });
        }
        report.drifted = !report.clusters.is_empty() && report.clusters.iter().all(|c| c.exceeds);
        Ok(report)
    }

    /// Rebuilds the in-flight stream registry from `dir`'s write-ahead log —
    /// the streaming companion of
    /// [`WorkflowStore::load_from_dir`](crate::store::WorkflowStore::load_from_dir),
    /// called once at boot after the store itself is loaded.
    ///
    /// Kind-5 records are grouped per `(spec, stream)` in append order.  A
    /// closure marker drops its group; so does a stored run of the stream's
    /// name (the crash window between a finalised run's insert record and
    /// its closure marker).  A group is skipped — never an error — when its
    /// specification is gone, when one of its records no longer counts (the
    /// directory's manifest does not list the specification at the record's
    /// fingerprint) or was logged against another version than the store
    /// holds, or when its events no longer apply cleanly.  The manifest is
    /// read once per call.
    pub fn load_streams(&self, dir: impl AsRef<Path>) -> Result<StreamLoadReport, PersistError> {
        let dir = dir.as_ref();
        let mut report = StreamLoadReport::default();
        let mut rebuilt: Vec<((String, String), PartialRun)> = Vec::new();
        {
            let _guard = self.store.save_lock.lock();
            let (groups, closed) = wal::open_streams(&wal::scan(dir)?.records);
            report.closed += closed;
            // An unreadable manifest lists nothing, so every group is skipped.
            let manifest = crate::persist::read_manifest(dir).ok().map(|(_, manifest)| manifest);
            for ((spec_name, stream_name), records) in groups {
                // The records count, and were logged at the version held.
                let held = self.store.spec(&spec_name).filter(|spec| {
                    let fp = self.store.persistent_fingerprint(dir, spec).map(|fp| fp.to_string());
                    fp.is_ok_and(|fp| {
                        manifest.as_ref().is_some_and(|m| m.lists(&spec_name, &fp))
                            && records.iter().all(|r| r.spec_fingerprint == fp)
                    })
                });
                let Some(spec_arc) = held else {
                    report.skipped += 1;
                    continue;
                };
                if self.store.run(&spec_name, &stream_name).is_some() {
                    report.closed += 1;
                    continue;
                }
                let mut partial = PartialRun::new(Arc::clone(&spec_arc));
                let replays_cleanly = records.iter().all(|r| {
                    r.seq == partial.applied()
                        && r.event.as_ref().is_some_and(|event| partial.apply(event).is_ok())
                });
                if replays_cleanly {
                    rebuilt.push(((spec_name, stream_name), partial));
                    report.loaded += 1;
                } else {
                    report.skipped += 1;
                }
            }
        }
        if !rebuilt.is_empty() {
            let mut streams = self.streams.write();
            for (key, partial) in rebuilt {
                streams.insert(key, partial);
            }
        }
        Ok(report)
    }

    /// Runs `work` over `jobs` on the scoped worker pool, preserving job
    /// order in the result.  The first differencing error in job order
    /// wins.
    fn run_jobs<J: Sync, T: Send>(
        &self,
        jobs: &[J],
        work: impl Fn(&J) -> Result<T, DiffError> + Sync,
    ) -> Result<Vec<T>, ServiceError> {
        pool::map_ordered(jobs, self.threads, work)
            .into_iter()
            .map(|result| result.map_err(ServiceError::from))
            .collect()
    }
}

/// The [`DistanceOracle`] the cluster and metric indexes run on: one
/// consistent store lookup per row, the rows' resident prepared state, and a
/// serial row of cache-backed DPs — so a clustering fetch is exactly as warm
/// as regular diff traffic.
struct ServiceOracle<'a> {
    service: &'a DiffService,
    spec: &'a str,
}

impl DistanceOracle for ServiceOracle<'_> {
    type Error = ServiceError;

    fn distances(&self, source: &str, targets: &[&str]) -> Result<Vec<f64>, ServiceError> {
        let mut names: Vec<&str> = Vec::with_capacity(targets.len() + 1);
        names.push(source);
        names.extend_from_slice(targets);
        let (spec_arc, runs) = self.service.lookup(self.spec, &names)?;
        let prepared = self.service.prepared(&spec_arc, names.iter().copied().zip(&runs))?;
        let engine = WorkflowDiff::new(&spec_arc, self.service.cost.as_ref());
        let cache = Some(self.service.cache.as_ref());
        let Some((source, targets)) = prepared.split_first() else { return Ok(Vec::new()) };
        targets
            .iter()
            .map(|t| engine.distance_prepared(source, t, cache).map_err(ServiceError::from))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::DEFAULT_CLUSTER_SEED;
    use wfdiff_core::LengthCost;
    use wfdiff_sptree::SpecificationBuilder;
    use wfdiff_workloads::figures::{fig2_run1, fig2_run2, fig2_run3, fig2_specification};

    fn seeded_store() -> Arc<WorkflowStore> {
        let store = Arc::new(WorkflowStore::new());
        let spec = store.insert_spec(fig2_specification()).unwrap();
        store.insert_run("r1", fig2_run1(&spec)).unwrap();
        store.insert_run("r2", fig2_run2(&spec)).unwrap();
        store.insert_run("r3", fig2_run3(&spec)).unwrap();
        store
    }

    #[test]
    fn single_diff_matches_the_plain_engine() {
        let store = seeded_store();
        let service = DiffService::new(Arc::clone(&store));
        let got = service.diff("fig2", "r1", "r2").unwrap();
        assert_eq!(got.distance, 4.0);
        let err = service.diff("fig2", "r1", "nope").unwrap_err();
        assert!(matches!(err, ServiceError::UnknownRun { .. }));
        let err = service.diff("nope", "r1", "r2").unwrap_err();
        assert!(matches!(err, ServiceError::UnknownSpec(_)));
    }

    #[test]
    fn all_pairs_matches_pairwise_fresh_engines_and_hits_cache_when_warm() {
        let store = seeded_store();
        let service = DiffService::builder(Arc::clone(&store)).threads(4).build();
        let cold = service.diff_all_pairs("fig2").unwrap();
        assert_eq!(cold.runs, vec!["r1", "r2", "r3"]);
        // Distances are identical to the unmemoised engine.
        let spec = store.spec("fig2").unwrap();
        let engine = WorkflowDiff::new(&spec, &UnitCost);
        for (a, b, d) in cold.pairs() {
            let r1 = store.run("fig2", a).unwrap();
            let r2 = store.run("fig2", b).unwrap();
            assert_eq!(d, engine.distance(&r1, &r2).unwrap(), "{a} vs {b}");
        }
        // Matrix is symmetric with a zero diagonal.
        for i in 0..3 {
            assert_eq!(cold.matrix[i][i], 0.0);
            for j in 0..3 {
                assert_eq!(cold.matrix[i][j], cold.matrix[j][i]);
            }
        }
        // A warm repeat answers every pair from the cache: hits grow, misses
        // do not.
        let after_cold = service.cache_stats();
        let warm = service.diff_all_pairs("fig2").unwrap();
        let after_warm = service.cache_stats();
        assert_eq!(warm, cold);
        assert_eq!(after_warm.misses, after_cold.misses);
        assert!(after_warm.hits > after_cold.hits);
    }

    #[test]
    fn warm_start_primes_the_cache_for_the_first_query() {
        let store = seeded_store();
        // Cold reference service for the expected distances.
        let cold = DiffService::new(Arc::clone(&store)).diff_all_pairs("fig2").unwrap();

        let service = DiffService::builder(Arc::clone(&store)).threads(2).build();
        let report = service.warm_start().unwrap();
        assert_eq!(report, WarmStartReport { specs: 1, runs: 3 });
        let after_warm = service.cache_stats();

        // The first query after a warm start prepares nothing new: every
        // per-subtree deletion table is already resident, so cache misses do
        // not grow during preparation (only the pair DP may add entries).
        let first = service.diff_all_pairs("fig2").unwrap();
        assert_eq!(first.matrix, cold.matrix);
        assert!(service.cache_stats().hits > after_warm.hits);

        // Warming an already-warm service is a no-op that only adds hits.
        let again = service.warm_start().unwrap();
        assert_eq!(again, report);
    }

    #[test]
    fn diff_batch_is_index_aligned_and_parallel_safe() {
        let store = seeded_store();
        let service = DiffService::builder(Arc::clone(&store)).threads(3).build();
        let pairs = vec![
            ("r1".to_string(), "r2".to_string()),
            ("r2".to_string(), "r1".to_string()),
            ("r1".to_string(), "r1".to_string()),
            ("r2".to_string(), "r3".to_string()),
        ];
        let out = service.diff_batch("fig2", &pairs).unwrap();
        assert_eq!(out.len(), 4);
        assert_eq!(out[0].distance, 4.0);
        assert_eq!(out[1].distance, 4.0, "distance is symmetric");
        assert_eq!(out[2].distance, 0.0);
        assert_eq!(out[0].source, "r1");
        assert_eq!(out[3].target, "r3");
    }

    #[test]
    fn sessions_and_custom_cost_models_work_through_the_service() {
        let store = seeded_store();
        let service =
            DiffService::builder(Arc::clone(&store)).cost(Arc::new(LengthCost)).threads(2).build();
        let mut session = service.session("fig2", "r1", "r2").unwrap();
        assert!(session.distance() > 0.0);
        let total_steps = session.total_steps();
        let mut seen = 0;
        while session.step().is_some() {
            seen += 1;
        }
        assert_eq!(seen, total_steps);
        // The session distance agrees with the service's cost-only path.
        let d = service.diff("fig2", "r1", "r2").unwrap().distance;
        assert_eq!(session.distance(), d);
    }

    #[test]
    fn nearest_runs_are_exact_and_sorted() {
        let store = seeded_store();
        let service = DiffService::builder(Arc::clone(&store)).threads(2).build();
        let nearest = service.nearest_runs("fig2", "r1", 10).unwrap();
        assert_eq!(nearest.len(), 2, "k clamps to the other stored runs");
        assert!(nearest[0].distance <= nearest[1].distance);
        // Every reported distance is identical to the unmemoised engine.
        let spec = store.spec("fig2").unwrap();
        let engine = WorkflowDiff::new(&spec, &UnitCost);
        let query = store.run("fig2", "r1").unwrap();
        for p in &nearest {
            let expected = engine.distance(&query, &store.run("fig2", &p.target).unwrap()).unwrap();
            assert_eq!(p.distance, expected, "r1 vs {}", p.target);
        }
        assert!(matches!(
            service.nearest_runs("fig2", "r1", 0),
            Err(ServiceError::InvalidQuery(_))
        ));
        assert!(matches!(
            service.nearest_runs("fig2", "zz", 1),
            Err(ServiceError::UnknownRun { .. })
        ));
        assert!(matches!(service.nearest_runs("zz", "r1", 1), Err(ServiceError::UnknownSpec(_))));
    }

    #[test]
    fn similar_queries_share_one_set_of_pivot_rows_per_clustering() {
        let store = seeded_store();
        let service = DiffService::new(Arc::clone(&store));
        assert!(service.clusters.medoid_pivots("fig2").is_none(), "nothing clustered yet");
        service.cluster_medoids("fig2", 2, 1).unwrap();
        let first = service.clusters.medoid_pivots("fig2").unwrap();
        service.nearest_runs_pruned("fig2", "r1", 1, 0.0).unwrap();
        service.nearest_runs_pruned("fig2", "r2", 1, 0.0).unwrap();
        let second = service.clusters.medoid_pivots("fig2").unwrap();
        assert!(Arc::ptr_eq(&first, &second), "queries reuse the clustering's rows");

        let spec = store.spec("fig2").unwrap();
        store.insert_run("r4", fig2_run1(&spec)).unwrap();
        service.notify_run_inserted("fig2", "r4");
        let after_insert = service.clusters.medoid_pivots("fig2").unwrap();
        assert!(!Arc::ptr_eq(&first, &after_insert), "an insert replaces the rows");
        assert!(after_insert.lower_bound("r4", "r1").is_some(), "the new run has a row");
        assert!(first.lower_bound("r4", "r1").is_none());

        store.remove_run("fig2", "r4");
        service.notify_run_removed("fig2", "r4");
        let after_remove = service.clusters.medoid_pivots("fig2").unwrap();
        assert!(!Arc::ptr_eq(&after_insert, &after_remove), "a removal replaces the rows");
        service.clusters.invalidate("fig2");
        assert!(service.clusters.medoid_pivots("fig2").is_none());
    }

    #[test]
    fn cluster_index_follows_store_mutations() {
        let store = seeded_store();
        let service = DiffService::builder(Arc::clone(&store)).threads(2).build();
        let initial = service.cluster_medoids("fig2", 2, 1).unwrap();
        assert_eq!(initial.clusters.len(), 2);

        // Stream a duplicate of r1 in and a run out; the maintained state
        // must equal what a fresh service computes from scratch.
        let spec = store.spec("fig2").unwrap();
        store.insert_run("r4", fig2_run1(&spec)).unwrap();
        service.notify_run_inserted("fig2", "r4");
        store.remove_run("fig2", "r2");
        service.notify_run_removed("fig2", "r2");

        let maintained = service.cluster_index().snapshot("fig2").unwrap();
        let members: usize = maintained.clusters.iter().map(|c| c.runs.len()).sum();
        assert_eq!(members, 3);
        assert!(maintained.cluster_of("r2").is_none());
        let scratch = DiffService::new(Arc::clone(&store)).cluster_medoids("fig2", 2, 1).unwrap();
        assert_eq!(maintained.partition(), scratch.partition());
        // r4 is a copy of r1: they always share a cluster.
        assert_eq!(maintained.cluster_of("r4"), maintained.cluster_of("r1"));

        assert!(matches!(
            service.cluster_medoids("fig2", 0, 1),
            Err(ServiceError::InvalidQuery(_))
        ));
        assert!(matches!(service.cluster_medoids("zz", 2, 1), Err(ServiceError::UnknownSpec(_))));
    }

    #[test]
    fn concurrent_diffs_inserts_and_removals_are_safe_and_unstale() {
        // Two specifications under distinct names; one is repeatedly
        // replaced (runs invalidated) while diff traffic runs against the
        // other.  No stale runs may survive a replace, and diffs must keep
        // returning the same distances throughout.
        let store = Arc::new(WorkflowStore::new());
        let stable = store.insert_spec(fig2_specification()).unwrap();
        store.insert_run("r1", fig2_run1(&stable)).unwrap();
        store.insert_run("r2", fig2_run2(&stable)).unwrap();
        let service = Arc::new(DiffService::builder(Arc::clone(&store)).threads(2).build());

        let churn_spec = || {
            let mut b = SpecificationBuilder::new("churn");
            b.path(&["a", "b", "c"]);
            b.build().unwrap()
        };
        let churn_spec_v2 = || {
            let mut b = SpecificationBuilder::new("churn");
            b.path(&["a", "b", "c", "d"]);
            b.build().unwrap()
        };

        let writer = {
            let store = Arc::clone(&store);
            std::thread::spawn(move || {
                for i in 0..100 {
                    let spec = if i % 2 == 0 { churn_spec() } else { churn_spec_v2() };
                    let (arc, _invalidated) = store.replace_spec(spec);
                    // Runs inserted now belong to the current version.
                    let run = arc.execute(&mut wfdiff_sptree::FullDecider).unwrap();
                    store.insert_run("only", run).unwrap();
                }
                store.remove_spec("churn");
            })
        };
        let differs: Vec<_> = (0..3)
            .map(|_| {
                let service = Arc::clone(&service);
                std::thread::spawn(move || {
                    for _ in 0..30 {
                        let d = service.diff("fig2", "r1", "r2").unwrap().distance;
                        assert_eq!(d, 4.0);
                        // The churn spec may or may not exist; when a snapshot
                        // resolves, every run in it must belong to the exact
                        // stored version (origins in range), which
                        // diff_all_pairs exercises end to end.
                        match service.diff_all_pairs("churn") {
                            Ok(result) => {
                                for (_, _, d) in result.pairs() {
                                    assert!(d >= 0.0);
                                }
                            }
                            Err(ServiceError::UnknownSpec(_)) => {}
                            Err(ServiceError::UnknownRun { .. }) => {}
                            Err(ServiceError::InvalidQuery(_)) => {}
                            Err(ServiceError::Diff(e)) => {
                                panic!("stale spec/run pairing reached the engine: {e}")
                            }
                            Err(
                                e @ (ServiceError::Stream(_)
                                | ServiceError::UnknownStream { .. }
                                | ServiceError::Store(_)
                                | ServiceError::Persist(_)
                                | ServiceError::OutcomeUnknown(_)
                                | ServiceError::RecordTooLarge(_)),
                            ) => {
                                panic!("write error from a read-only query: {e}")
                            }
                        }
                    }
                })
            })
            .collect();
        writer.join().unwrap();
        for d in differs {
            d.join().unwrap();
        }
    }

    /// Events for fig2's single-branch run `1 -> 2 -> branch -> 6 -> 7`.
    fn branch_events(branch: &str) -> Vec<StreamEvent> {
        let labels = ["1", "2", branch, "6", "7"];
        let mut events = Vec::new();
        for (i, label) in labels.iter().enumerate() {
            let preds = if i == 0 { vec![] } else { vec![i - 1] };
            events.push(StreamEvent::started(i, *label, preds));
            events.push(StreamEvent::completed(i));
        }
        events
    }

    #[test]
    fn streamed_finalize_equals_a_whole_insert() {
        let store = seeded_store();
        let service = DiffService::new(Arc::clone(&store));
        let events = branch_events("3");
        // Two batches, acknowledged with contiguous sequence numbers.
        let first = service.stream_events("fig2", "s1", &events[..5]).unwrap();
        assert_eq!((first.ack.base_seq, first.ack.seq), (0, 5));
        assert!(!first.ack.complete);
        let second = service.stream_events("fig2", "s1", &events[5..]).unwrap();
        assert_eq!((second.ack.base_seq, second.ack.seq), (5, 10));
        assert!(second.ack.complete);
        let (run, seq) = service.finalize_stream("fig2", "s1").unwrap();
        assert_eq!(seq, 10);
        store.insert_run_new("s1", run).unwrap();
        assert!(service.remove_stream("fig2", "s1"));
        // The materialised run is indistinguishable from the same run built
        // whole: distance zero to an identical direct construction.
        let mut p = PartialRun::new(store.spec("fig2").unwrap());
        for e in &events {
            p.apply(e).unwrap();
        }
        let direct = p.finalize().unwrap();
        let stored = store.run("fig2", "s1").unwrap();
        let spec = store.spec("fig2").unwrap();
        let engine = WorkflowDiff::new(&spec, &UnitCost);
        assert_eq!(engine.distance(&stored, &direct).unwrap(), 0.0);
    }

    #[test]
    fn drift_report_flags_streams_outside_every_cluster_radius() {
        // A store holding only r1, clustered with k=1: the single cluster's
        // radius is 0, so any stream with a certain surplus leaf drifts.
        let store = Arc::new(WorkflowStore::new());
        let spec = store.insert_spec(fig2_specification()).unwrap();
        store.insert_run("r1", fig2_run1(&spec)).unwrap();
        let service = DiffService::new(Arc::clone(&store));
        service.cluster_medoids("fig2", 1, DEFAULT_CLUSTER_SEED).unwrap();

        // Before any clustering-relevant events: a branch-3 stream stays
        // within r1 (its leaf exists in the medoid), so the bound is 0.
        service.stream_events("fig2", "near", &branch_events("3")).unwrap();
        let near = service.drift_report("fig2", "near").unwrap();
        assert_eq!(near.clusters.len(), 1);
        assert_eq!(near.clusters[0].radius, 0.0, "singleton cluster");
        assert_eq!(near.clusters[0].lower_bound, 0.0);
        assert!(!near.drifted);

        // A branch-5 stream holds a leaf r1 does not: the certified bound
        // is positive, exceeds the zero radius, and the stream drifts.
        service.stream_events("fig2", "far", &branch_events("5")).unwrap();
        let far = service.drift_report("fig2", "far").unwrap();
        assert!(far.clusters[0].lower_bound > 0.0);
        assert!(far.clusters[0].exceeds);
        assert!(far.drifted);
        // The bound never overshoots the exact distance of the completion.
        let (run, _) = service.finalize_stream("fig2", "far").unwrap();
        let exact = {
            let engine = WorkflowDiff::new(&spec, &UnitCost);
            let r1 = store.run("fig2", "r1").unwrap();
            engine.distance(&run, &r1).unwrap()
        };
        assert!(far.clusters[0].lower_bound <= exact);
    }

    #[test]
    fn drift_report_is_empty_without_clustering_state() {
        let store = seeded_store();
        let service = DiffService::new(Arc::clone(&store));
        service.stream_events("fig2", "s1", &branch_events("3")[..2]).unwrap();
        let report = service.drift_report("fig2", "s1").unwrap();
        assert!(report.clusters.is_empty());
        assert!(!report.drifted, "no clusters means no drift verdict");
        assert_eq!(report.events, 2);
    }

    #[test]
    fn stream_batches_are_atomic() {
        let store = seeded_store();
        let service = DiffService::new(Arc::clone(&store));
        let events = branch_events("3");
        // A batch with a bad tail leaves no trace — not even the stream.
        let mut bad = events[..2].to_vec();
        bad.push(StreamEvent::completed(9));
        let err = service.stream_events("fig2", "s1", &bad).unwrap_err();
        assert!(matches!(err, ServiceError::Stream(StreamError::UnknownNode { .. })));
        assert!(service.stream_seq("fig2", "s1").is_none());
        let err = service.commit_stream_batch(None, "fig2", "s1", &bad, true).unwrap_err();
        assert!(matches!(err, ServiceError::Stream(_)));
        assert!(service.stream_seq("fig2", "s1").is_none());

        // On an open stream, a rejected batch leaves it exactly as it was,
        // and so does a finalisation of a stream that is not complete.
        service.stream_events("fig2", "s1", &events[..2]).unwrap();
        let mut bad = events[2..4].to_vec();
        bad.push(StreamEvent::completed(0));
        assert!(service.stream_events("fig2", "s1", &bad).is_err());
        assert!(service.commit_stream_batch(None, "fig2", "s1", &events[2..4], true).is_err());
        assert_eq!(service.stream_seq("fig2", "s1"), Some(2));
        let ack = service.stream_events("fig2", "s1", &events[2..4]).unwrap().ack;
        assert_eq!((ack.base_seq, ack.seq), (2, 4));
    }

    #[test]
    fn stream_registry_guards_names_versions_and_unknown_streams() {
        let store = seeded_store();
        let service = DiffService::new(Arc::clone(&store));
        // A stream may not shadow a stored run.
        let err = service.stream_events("fig2", "r1", &[]).unwrap_err();
        assert!(matches!(err, ServiceError::InvalidQuery(_)));
        // Unknown streams are typed errors, not panics.
        assert!(matches!(
            service.finalize_stream("fig2", "nope").unwrap_err(),
            ServiceError::UnknownStream { .. }
        ));
        assert!(matches!(
            service.drift_report("fig2", "nope").unwrap_err(),
            ServiceError::UnknownStream { .. }
        ));
        assert!(!service.remove_stream("fig2", "nope"));
        // Unknown specs fail before the registry is touched.
        assert!(matches!(
            service.stream_events("zz", "s1", &[]).unwrap_err(),
            ServiceError::UnknownSpec(_)
        ));
        // stream_names lists only the spec's own streams, sorted.
        service.stream_events("fig2", "b", &[]).unwrap();
        service.stream_events("fig2", "a", &[]).unwrap();
        assert_eq!(service.stream_names("fig2"), vec!["a", "b"]);
        assert!(service.stream_names("other").is_empty());
        // A replaced spec invalidates its streams.
        let (new_spec, _) = store.replace_spec(fig2_specification());
        assert_eq!(new_spec.fingerprint(), store.spec("fig2").unwrap().fingerprint());
        let mut b = SpecificationBuilder::new("fig2");
        b.path(&["1", "2", "3"]);
        store.replace_spec(b.build().unwrap());
        let err = service.stream_events("fig2", "a", &[]).unwrap_err();
        assert!(matches!(err, ServiceError::InvalidQuery(_)), "version mismatch is typed");
    }
}
