//! Deterministic crash-injection torture harness for the WAL persistence
//! stack — the executable form of the dashflow TLA+ invariants
//! (`CheckpointConsistency.tla` / TLA-004 and `WALAppendOrdering.tla` /
//! TLA-005).
//!
//! A **child** process (re-executed from the current binary with the
//! `__child` argument) runs a scripted workload — initial save, run
//! inserts/removals through the write-ahead log, event streams opened and
//! later finalised (with checkpoints folding the log while they are open),
//! reclusters, full checkpoints — against a store whose I/O is wrapped in a
//! [`FaultIo`] that kills the process at the N-th durability operation
//! (`kill` mode), writes half of the N-th write and then dies (`torn`
//! mode), or makes the N-th operation return an I/O error and lets the
//! workload carry on (`error` mode).  Every write goes through the
//! service's commit functions, as the server's do.  After every logical
//! operation the child appends an acknowledgement line, with the
//! operation's outcome, to a side file *outside* the faulted I/O path.
//!
//! The **parent** first runs the child fault-free to count the total number
//! of durability operations T, then sweeps every fault point `N ∈ 1..=T` in
//! all three modes.  After each crash it checks the prefix-consistency
//! invariant: loading the surviving directory must succeed (torn WAL tails
//! repaired), and the recovered store must equal a never-crashed in-memory
//! replay of the first `j` or `j+1` scripted operations, where `j` is the
//! acknowledged count — byte-for-byte on the run name set and on the open
//! streams (names and applied event counts) that the load rebuilds into
//! the store, exactly on the full pairwise
//! distance matrix, and exactly on the k-medoids partition — and the
//! cluster checkpoint must resume without poisoning an answer: every pruned
//! nearest-run query, screened by the resumed clustering, equals the exact
//! sweep.
//! One operation of slack is inherent: a crash inside operation `j+1` may
//! land before or after the single durable append that changes the compared
//! state.  Each operation has exactly one such append: opening a stream is
//! one event batch, and finishing it is the finalised run's insert (the
//! closure marker after it changes nothing compared, because loading drops
//! a stream whose run is stored).  A batch holds one WAL record per event,
//! so a torn batch may leave the stream it opens with a non-empty prefix
//! of its events; that prefix is accepted for the operation in flight.
//!
//! In `error` mode nothing crashes and there is no slack: the log holds no
//! torn tail, and the reloaded directory equals both the replay of the
//! operations that returned `Ok` and the child's memory at the end.
//!
//! The sweep covers 100% of the enumerated fault points; `quick` mode
//! shrinks the scripted workload (for CI), not the coverage.

use serde::Serialize;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;
use wfdiff_pdiffview::{
    DiffService, FaultIo, FaultMode, PartialRun, RealIo, StoreIo, StreamEvent, WorkflowStore,
    FAULT_EXIT_CODE, FAULT_MODE_ENV, FAULT_POINT_ENV,
};
use wfdiff_sptree::Specification;
use wfdiff_workloads::generator::{random_specification, SpecGenConfig};
use wfdiff_workloads::runs::{generate_run, RunGenConfig};

/// The single specification every scripted operation touches.
pub const TORTURE_SPEC: &str = "torture";

/// Seed of the clustering passes (scripted and verifying).
pub const TORTURE_CLUSTER_SEED: u64 = 7;

/// WAL fold threshold the child runs with — small enough that threshold
/// folds fire mid-script, putting crash points inside the fold itself.
pub const TORTURE_FOLD_THRESHOLD: u64 = 2048;

/// Exit code of a child whose workload failed for a non-injected reason.
pub const CHILD_FAILURE_EXIT: i32 = 70;

/// One scripted logical operation.
#[derive(Debug, Clone)]
pub enum TortureOp {
    /// Create the specification with `runs` initial runs and save the
    /// store to the directory.
    Init {
        /// Initial run count.
        runs: usize,
    },
    /// Insert run `index` (WAL append, then memory) and notify the cluster
    /// index.
    Insert {
        /// Deterministic run index; also seeds the run's content.
        index: usize,
    },
    /// Remove run `index` (WAL append, then memory) and notify the cluster
    /// index.
    Remove {
        /// Index of a previously inserted run.
        index: usize,
    },
    /// Open stream `index`: the run's whole event sequence as one
    /// WAL-appended batch, leaving the stream in flight, not finalised.
    StreamOpen {
        /// Deterministic run index; also seeds the run's content.
        index: usize,
    },
    /// Finalise the stream `index` opened earlier (the run's insert record
    /// and the closure marker, one append), ending with the run stored
    /// exactly as if inserted whole and the stream gone.
    StreamFinish {
        /// Index of a previously opened stream.
        index: usize,
    },
    /// Cluster the spec's runs with `k` medoids, checkpoint the clustering
    /// (one atomic rewrite of `cluster_cache.json`: temp write, fsync,
    /// rename, directory fsync), and answer one pruned nearest-run query,
    /// which writes nothing.
    Recluster {
        /// Medoid count.
        k: usize,
    },
    /// Full save: fold the WAL into the manifest and truncate it.
    Checkpoint,
}

/// Workload size of a torture sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TortureScale {
    /// CI-sized script (fewer operations, same 100% fault-point coverage).
    Quick,
    /// The default, larger script.
    Full,
}

impl TortureScale {
    /// The spelling used on the command line and in the report.
    pub fn name(self) -> &'static str {
        match self {
            TortureScale::Quick => "quick",
            TortureScale::Full => "full",
        }
    }

    /// Parses the command-line spelling (anything unknown is `Full`).
    pub fn parse(s: &str) -> TortureScale {
        if s == "quick" {
            TortureScale::Quick
        } else {
            TortureScale::Full
        }
    }
}

/// The deterministic operation script for a scale.
pub fn script(scale: TortureScale) -> Vec<TortureOp> {
    use TortureOp::*;
    match scale {
        TortureScale::Quick => vec![
            Init { runs: 2 },
            Insert { index: 2 },
            Recluster { k: 2 },
            StreamOpen { index: 5 },
            Insert { index: 3 },
            Remove { index: 2 },
            Checkpoint,
            StreamFinish { index: 5 },
            Insert { index: 4 },
        ],
        TortureScale::Full => vec![
            Init { runs: 2 },
            Insert { index: 2 },
            Insert { index: 3 },
            Recluster { k: 2 },
            Insert { index: 4 },
            Remove { index: 1 },
            Checkpoint,
            Insert { index: 5 },
            Recluster { k: 3 },
            StreamOpen { index: 8 },
            Insert { index: 6 },
            Remove { index: 4 },
            Checkpoint,
            StreamFinish { index: 8 },
            Recluster { k: 3 },
            StreamOpen { index: 9 },
            Checkpoint,
            Insert { index: 7 },
        ],
    }
}

/// The scripted specification (shared by child and verifier; content is
/// deterministic, so both processes build identical trees).
pub fn torture_spec() -> Specification {
    let mut rng = <rand_chacha::ChaCha8Rng as rand::SeedableRng>::seed_from_u64(0x70_77);
    random_specification(
        TORTURE_SPEC,
        &SpecGenConfig { target_edges: 18, series_parallel_ratio: 1.0, forks: 2, loops: 1 },
        &mut rng,
    )
}

fn run_name(index: usize) -> String {
    format!("r{index:03}")
}

/// The content of run `index`, seeded per index so a prefix replay
/// regenerates byte-identical runs no matter which earlier operations ran.
fn torture_run(spec: &Specification, index: usize) -> wfdiff_sptree::Run {
    let mut rng =
        <rand_chacha::ChaCha8Rng as rand::SeedableRng>::seed_from_u64(0xC0DE ^ index as u64);
    let config = RunGenConfig { prob_p: 0.7, max_f: 2, prob_f: 0.5, max_l: 2, prob_l: 0.5 };
    generate_run(spec, &config, &mut rng)
}

/// The node-lifecycle event sequence of run `index` — the deterministic
/// order of [`crate::events::lifecycle_events`], so the child and the replay
/// ingest byte-identical streamed runs.
fn stream_events_for(spec: &Specification, index: usize) -> Vec<StreamEvent> {
    crate::events::lifecycle_events(&torture_run(spec, index))
}

/// Materialises the streamed run of `index` purely in memory — the same
/// builder and event order the child feeds through the registry.
fn streamed_run(spec: &Arc<Specification>, index: usize) -> Result<wfdiff_sptree::Run, String> {
    let mut partial = PartialRun::new(Arc::clone(spec));
    for event in &stream_events_for(spec, index) {
        partial.apply(event).map_err(|e| e.to_string())?;
    }
    partial.finalize().map_err(|e| e.to_string())
}

/// Applies one scripted operation durably (child side).
fn apply_durable(
    store: &Arc<WorkflowStore>,
    service: &DiffService,
    dir: &Path,
    op: &TortureOp,
) -> Result<(), String> {
    match op {
        TortureOp::Init { runs } => {
            let spec = store.insert_spec(torture_spec()).map_err(|e| e.to_string())?;
            for index in 0..*runs {
                store
                    .insert_run(&run_name(index), torture_run(&spec, index))
                    .map_err(|e| e.to_string())?;
            }
            store.save_to_dir(dir).map_err(|e| e.to_string())?;
        }
        TortureOp::Insert { index } => {
            let spec = store.spec(TORTURE_SPEC).ok_or("spec missing")?;
            let name = run_name(*index);
            service
                .commit_run_insert(Some(dir), &name, torture_run(&spec, *index))
                .map_err(|e| e.to_string())?;
            service.notify_run_inserted(TORTURE_SPEC, &name);
        }
        TortureOp::Remove { index } => {
            let name = run_name(*index);
            service
                .commit_run_removal(Some(dir), TORTURE_SPEC, &name)
                .map_err(|e| e.to_string())?;
            service.notify_run_removed(TORTURE_SPEC, &name);
        }
        TortureOp::StreamOpen { index } => {
            let spec = store.spec(TORTURE_SPEC).ok_or("spec missing")?;
            let events = stream_events_for(&spec, *index);
            service
                .commit_stream_batch(Some(dir), TORTURE_SPEC, &run_name(*index), &events, false)
                .map_err(|e| e.to_string())?;
        }
        TortureOp::StreamFinish { index } => {
            let name = run_name(*index);
            service
                .commit_stream_batch(Some(dir), TORTURE_SPEC, &name, &[], true)
                .map_err(|e| e.to_string())?;
            service.notify_run_inserted(TORTURE_SPEC, &name);
        }
        TortureOp::Recluster { k } => {
            service
                .cluster_medoids(TORTURE_SPEC, *k, TORTURE_CLUSTER_SEED)
                .map_err(|e| e.to_string())?;
            service.save_cluster_state(dir).map_err(|e| e.to_string())?;
            let query = store.run_names(TORTURE_SPEC).into_iter().min().ok_or("no runs")?;
            service.nearest_runs_pruned(TORTURE_SPEC, &query, 2, 0.0).map_err(|e| e.to_string())?;
        }
        TortureOp::Checkpoint => {
            store.save_to_dir(dir).map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

/// The open streams of a store directory or a replay: `(name, events
/// applied)` per stream, sorted by name.
pub type OpenStreams = Vec<(String, u64)>;

/// Replays `ops` purely in memory — the never-crashed reference the
/// recovered store and its open streams must match.
pub fn replay(ops: &[TortureOp]) -> (Arc<WorkflowStore>, OpenStreams) {
    let store = Arc::new(WorkflowStore::new());
    let mut streams = std::collections::BTreeMap::new();
    for op in ops {
        match op {
            TortureOp::Init { runs } => {
                let spec = store.insert_spec(torture_spec()).expect("fresh spec");
                for index in 0..*runs {
                    store
                        .insert_run(&run_name(index), torture_run(&spec, index))
                        .expect("fresh run");
                }
            }
            TortureOp::Insert { index } => {
                let spec = store.spec(TORTURE_SPEC).expect("init precedes inserts");
                store
                    .insert_run(&run_name(*index), torture_run(&spec, *index))
                    .expect("replayed insert");
            }
            TortureOp::Remove { index } => {
                store.remove_run(TORTURE_SPEC, &run_name(*index));
            }
            TortureOp::StreamOpen { index } => {
                let spec = store.spec(TORTURE_SPEC).expect("init precedes streams");
                let events = stream_events_for(&spec, *index).len() as u64;
                streams.insert(run_name(*index), events);
            }
            TortureOp::StreamFinish { index } => {
                let spec = store.spec(TORTURE_SPEC).expect("init precedes streams");
                let run = streamed_run(&spec, *index).expect("scripted stream finalises");
                store.insert_run(&run_name(*index), run).expect("replayed streamed insert");
                streams.remove(&run_name(*index));
            }
            TortureOp::Recluster { .. } | TortureOp::Checkpoint => {}
        }
    }
    (store, streams.into_iter().collect())
}

/// Entry point of the re-executed child: runs the scripted workload with
/// fault injection configured from the environment, acknowledging each
/// operation and its outcome (`<i> ok` or `<i> err`) in `ack_path`.  A
/// failed operation ends the child unless the fault mode is `error`.  On
/// completion it prints `TORTURE_OPS <n>` (the durability-operation count)
/// and `TORTURE_MEMORY` (its runs and open streams).  Never returns.
pub fn child_main(dir: &Path, ack_path: &Path, scale: TortureScale) -> ! {
    let fault = Arc::new(FaultIo::from_env(Arc::new(RealIo)));
    let carry_on =
        std::env::var(FAULT_MODE_ENV).is_ok_and(|m| FaultMode::parse(&m) == FaultMode::Error);
    let store = Arc::new(WorkflowStore::with_io(Arc::clone(&fault) as Arc<dyn StoreIo>));
    store.set_wal_fold_threshold(TORTURE_FOLD_THRESHOLD);
    let service = DiffService::new(Arc::clone(&store));
    for (i, op) in script(scale).iter().enumerate() {
        let outcome = apply_durable(&store, &service, dir, op);
        if let Err(e) = &outcome {
            if !carry_on {
                eprintln!("torture child: op {i} failed: {e}");
                std::process::exit(CHILD_FAILURE_EXIT);
            }
        }
        // The acknowledgement bypasses the faulted I/O path on purpose: it
        // records progress, it is not part of the store's durability.
        let mut acks = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(ack_path)
            .expect("ack file opens");
        use std::io::Write as _;
        writeln!(acks, "{i} {}", if outcome.is_ok() { "ok" } else { "err" }).expect("ack write");
        acks.sync_all().expect("ack sync");
    }
    println!("TORTURE_OPS {}", fault.ops());
    println!("TORTURE_MEMORY {:?}", (store.run_names(TORTURE_SPEC), registry_streams(&service)));
    std::process::exit(0)
}

/// The three fault modes, in sweep order.
pub const TORTURE_MODES: [&str; 3] = ["kill", "torn", "error"];

/// Result of a full torture sweep, written as `BENCH_crash_torture.json`.
#[derive(Debug, Serialize)]
pub struct TortureReport {
    /// Workload scale the sweep ran at (`quick`/`full`).
    pub scale: String,
    /// Scripted logical operations.
    pub ops: usize,
    /// Enumerated durability operations.
    pub fault_points: u64,
    /// Fault points swept in each mode: every enumerated one (quick mode
    /// shrinks the workload, not the sweep).
    pub fault_points_per_mode: std::collections::BTreeMap<String, u64>,
    /// Fault iterations executed (fault points × modes).
    pub iterations: u64,
    /// Invariant violations, with their mode and fault point.
    pub violations: Vec<String>,
}

/// Renders the human-readable summary.
pub fn render(report: &TortureReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "crash torture [{}]: {} scripted ops, {} fault points x {} modes = {} runs\n",
        report.scale,
        report.ops,
        report.fault_points,
        TORTURE_MODES.len(),
        report.iterations,
    ));
    if report.violations.is_empty() {
        out.push_str("recovery held at every fault point in every mode\n");
    } else {
        for v in &report.violations {
            out.push_str(&format!("VIOLATION: {v}\n"));
        }
    }
    out
}

fn fresh_dir(root: &Path, tag: &str) -> PathBuf {
    let dir = root.join(tag);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("torture work dir");
    dir
}

/// The outcome (`true` for `Ok`) of each operation the child's ack file
/// acknowledges.
fn acks(ack_path: &Path) -> Vec<bool> {
    let text = std::fs::read_to_string(ack_path).unwrap_or_default();
    text.lines().map(|line| line.ends_with(" ok")).collect()
}

/// Spawns the child once with no fault injected and returns the number of
/// durability operations the script performs.
fn count_fault_points(exe: &Path, root: &Path, scale: TortureScale) -> u64 {
    let dir = fresh_dir(root, "count");
    let ack = root.join("count.ack");
    let _ = std::fs::remove_file(&ack);
    let output = Command::new(exe)
        .args(["__child"])
        .arg(&dir)
        .arg(&ack)
        .arg(scale.name())
        .env(FAULT_POINT_ENV, "0")
        .env(FAULT_MODE_ENV, "kill")
        .output()
        .expect("torture child spawns");
    assert!(
        output.status.success(),
        "fault-free torture run failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    stdout
        .lines()
        .find_map(|l| l.strip_prefix("TORTURE_OPS "))
        .and_then(|n| n.trim().parse().ok())
        .expect("child reports its op count")
}

/// Checks the prefix-consistency invariant of one crashed directory.
fn verify_recovery(dir: &Path, ack_path: &Path, ops: &[TortureOp]) -> Result<(), String> {
    let acked = acks(ack_path).len();
    if !dir.join("manifest.json").exists() {
        // The crash predates the very first manifest commit; nothing was
        // ever durable, which is only consistent before the first ack.
        return match acked {
            0 => Ok(()),
            _ => Err(format!("manifest missing after {acked} acked ops")),
        };
    }
    let loaded = WorkflowStore::load_from_dir(dir).map_err(|e| format!("load failed: {e}"))?;
    let loaded = Arc::new(loaded);
    no_torn_tail(dir).map_err(|e| format!("after the load: {e}"))?;
    let loaded_runs = loaded.run_names(TORTURE_SPEC);
    // The open streams the load rebuilt from the log.
    let loaded_streams = registry_streams(&DiffService::new(Arc::clone(&loaded)));
    // The crash landed inside op `acked + 1`; its single durable append may
    // or may not have happened, so either adjacent prefix is legal.
    let candidates = [acked, (acked + 1).min(ops.len())];
    for &prefix in &candidates {
        let (replay, replay_streams) = replay(&ops[..prefix]);
        let in_flight = if prefix > acked { ops.get(acked) } else { None };
        if replay.run_names(TORTURE_SPEC) == loaded_runs
            && streams_agree(&loaded_streams, &replay_streams, in_flight)
        {
            return states_equal(dir, &loaded, &replay)
                .map_err(|e| format!("prefix {prefix}: {e}"));
        }
    }
    Err(format!(
        "recovered run set {loaded_runs:?} and open streams {loaded_streams:?} match neither \
         prefix {acked} nor {}",
        candidates[1]
    ))
}

/// Whether the recovered open streams are the replay's.  The stream whose
/// opening batch was in flight (`in_flight`, the crashed operation) may
/// hold any non-empty prefix of the batch: each event is its own WAL
/// record, so a torn append keeps the records before the tear.
fn streams_agree(
    loaded: &OpenStreams,
    replay: &OpenStreams,
    in_flight: Option<&TortureOp>,
) -> bool {
    let torn_batch = |name: &str, seq: u64, want: u64| {
        matches!(in_flight, Some(TortureOp::StreamOpen { index }) if run_name(*index) == name)
            && (1..want).contains(&seq)
    };
    loaded.len() == replay.len()
        && loaded.iter().zip(replay).all(|((name, seq), (want_name, want))| {
            name == want_name && (seq == want || torn_batch(name, *seq, *want))
        })
}

/// The open streams of the store a service runs over.
fn registry_streams(service: &DiffService) -> OpenStreams {
    service
        .stream_names(TORTURE_SPEC)
        .into_iter()
        .map(|name| {
            let seq = service.stream_seq(TORTURE_SPEC, &name).unwrap_or(0);
            (name, seq)
        })
        .collect()
}

/// Checks an `error`-mode run: the child acknowledged every operation,
/// its log holds no torn tail, and the reloaded directory equals both the
/// child's memory (from its `stdout`) and the replay of the operations that
/// returned `Ok`.  `Init` always counts: it builds the store in memory
/// before its save, and a later checkpoint makes that durable.
fn verify_error_run(
    dir: &Path,
    ack_path: &Path,
    stdout: &str,
    ops: &[TortureOp],
) -> Result<(), String> {
    let ok = acks(ack_path);
    if ok.len() != ops.len() {
        return Err(format!("the child acknowledged {} of {} ops", ok.len(), ops.len()));
    }
    no_torn_tail(dir)?;
    let loaded = Arc::new(WorkflowStore::load_from_dir(dir).map_err(|e| e.to_string())?);
    let streams = registry_streams(&DiffService::new(Arc::clone(&loaded)));
    let reloaded = (loaded.run_names(TORTURE_SPEC), streams);
    let applied: Vec<TortureOp> = (ops.iter().zip(&ok))
        .filter(|(op, ok)| **ok || matches!(op, TortureOp::Init { .. }))
        .map(|(op, _)| op.clone())
        .collect();
    let (replay, replay_streams) = replay(&applied);
    let expected = (replay.run_names(TORTURE_SPEC), replay_streams);
    let memory = stdout.lines().find_map(|l| l.strip_prefix("TORTURE_MEMORY ")).unwrap_or_default();
    if format!("{reloaded:?}") != memory || reloaded != expected {
        return Err(format!(
            "reloaded {reloaded:?}, child memory {memory}, replay of the ok ops {expected:?} \
             (outcomes {ok:?})"
        ));
    }
    states_equal(dir, &loaded, &replay)
}

/// Fails when `dir`'s log ends in bytes that are no record.
fn no_torn_tail(dir: &Path) -> Result<(), String> {
    match wfdiff_pdiffview::wal::inspect(dir) {
        Ok(summary) if summary.torn_bytes == 0 => Ok(()),
        Ok(summary) => Err(format!("the WAL ends in {} torn bytes", summary.torn_bytes)),
        Err(e) => Err(format!("WAL unreadable: {e}")),
    }
}

/// Compares the recovered store against the reference replay: full pairwise
/// distance matrix and k-medoids partition must be identical, and the
/// recovered directory's cluster checkpoint must restore without poisoning
/// either or a pruned nearest-run query.
fn states_equal(
    dir: &Path,
    loaded: &Arc<WorkflowStore>,
    replay: &Arc<WorkflowStore>,
) -> Result<(), String> {
    let loaded_service = DiffService::new(Arc::clone(loaded));
    loaded_service.load_cluster_state(dir);
    let replay_service = DiffService::new(Arc::clone(replay));
    let runs = replay.run_names(TORTURE_SPEC);
    if runs.is_empty() {
        return Ok(());
    }
    for (i, a) in runs.iter().enumerate() {
        for b in &runs[i + 1..] {
            let got = loaded_service
                .diff(TORTURE_SPEC, a, b)
                .map_err(|e| format!("diff {a}/{b} on recovered store: {e}"))?
                .distance;
            let want = replay_service
                .diff(TORTURE_SPEC, a, b)
                .map_err(|e| format!("diff {a}/{b} on replay store: {e}"))?
                .distance;
            if got != want {
                return Err(format!("distance({a}, {b}) = {got}, replay says {want}"));
            }
        }
    }
    let k = 2.min(runs.len());
    let got = loaded_service
        .cluster_medoids(TORTURE_SPEC, k, TORTURE_CLUSTER_SEED)
        .map_err(|e| format!("clustering recovered store: {e}"))?;
    let want = replay_service
        .cluster_medoids(TORTURE_SPEC, k, TORTURE_CLUSTER_SEED)
        .map_err(|e| format!("clustering replay store: {e}"))?;
    if got.partition() != want.partition() {
        return Err(format!(
            "partition {:?} diverges from replay {:?}",
            got.partition(),
            want.partition()
        ));
    }
    for query in &runs {
        let exact = loaded_service
            .nearest_runs(TORTURE_SPEC, query, 2)
            .map_err(|e| format!("exact nearest runs of {query}: {e}"))?;
        let (pruned, _) = loaded_service
            .nearest_runs_pruned(TORTURE_SPEC, query, 2, 0.0)
            .map_err(|e| format!("pruned nearest runs of {query}: {e}"))?;
        if pruned != exact {
            return Err(format!("pruned nearest runs of {query} {pruned:?} != exact {exact:?}"));
        }
    }
    Ok(())
}

/// Runs the full sweep: enumerate fault points, fault at every one in each
/// of the `kill`, `torn` and `error` modes, verify recovery each time.
pub fn run_torture(scale: TortureScale) -> TortureReport {
    let exe = std::env::current_exe().expect("current exe");
    let root = std::env::temp_dir().join(format!("wfdiff-torture-{}", std::process::id()));
    std::fs::create_dir_all(&root).expect("torture root");
    let ops = script(scale);
    let fault_points = count_fault_points(&exe, &root, scale);
    // The checkpoint reload of a crashed directory must never fail the
    // boot; exercise it on the fault-free directory once.
    let clean = Arc::new(
        WorkflowStore::load_from_dir(root.join("count")).expect("fault-free directory loads"),
    );
    let clean = DiffService::new(clean);
    clean.load_cluster_state(root.join("count"));

    let mut report = TortureReport {
        scale: scale.name().to_string(),
        ops: ops.len(),
        fault_points,
        fault_points_per_mode: TORTURE_MODES.map(|mode| (mode.to_string(), fault_points)).into(),
        iterations: 0,
        violations: Vec::new(),
    };
    for mode in TORTURE_MODES {
        for point in 1..=fault_points {
            let tag = format!("{mode}-{point}");
            let dir = fresh_dir(&root, &tag);
            let ack = root.join(format!("{tag}.ack"));
            let _ = std::fs::remove_file(&ack);
            let output = Command::new(&exe)
                .args(["__child"])
                .arg(&dir)
                .arg(&ack)
                .arg(scale.name())
                .env(FAULT_POINT_ENV, point.to_string())
                .env(FAULT_MODE_ENV, mode)
                .output()
                .expect("torture child spawns");
            report.iterations += 1;
            let code = output.status.code();
            let expected = if mode == "error" { 0 } else { FAULT_EXIT_CODE };
            let outcome = if code != Some(expected) {
                Err(format!(
                    "child exited {code:?} instead of {expected}: {}",
                    String::from_utf8_lossy(&output.stderr)
                ))
            } else if mode == "error" {
                verify_error_run(&dir, &ack, &String::from_utf8_lossy(&output.stdout), &ops)
            } else {
                verify_recovery(&dir, &ack, &ops)
            };
            match outcome {
                Err(why) => report.violations.push(format!("{mode} fault {point}: {why}")),
                Ok(()) => {
                    let _ = std::fs::remove_dir_all(&dir);
                    let _ = std::fs::remove_file(&ack);
                }
            }
        }
    }
    if report.violations.is_empty() {
        let _ = std::fs::remove_dir_all(&root);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replayed_prefixes_are_deterministic() {
        let ops = script(TortureScale::Quick);
        let (a, _) = replay(&ops);
        let (b, _) = replay(&ops);
        assert_eq!(a.run_names(TORTURE_SPEC), b.run_names(TORTURE_SPEC));
        let sa = DiffService::new(a);
        let sb = DiffService::new(b);
        let ca = sa.cluster_medoids(TORTURE_SPEC, 2, TORTURE_CLUSTER_SEED).unwrap();
        let cb = sb.cluster_medoids(TORTURE_SPEC, 2, TORTURE_CLUSTER_SEED).unwrap();
        assert_eq!(ca.partition(), cb.partition());
    }

    #[test]
    fn the_script_grows_and_shrinks_the_run_set() {
        let ops = script(TortureScale::Full);
        let (full, _) = replay(&ops);
        assert!(full.run_count() >= 4, "the full script leaves a clusterable store");
        assert!(
            ops.iter().any(|op| matches!(op, TortureOp::Remove { .. })),
            "removals are part of the torture"
        );
    }

    #[test]
    fn every_script_checkpoints_while_a_stream_is_open() {
        for scale in [TortureScale::Quick, TortureScale::Full] {
            let ops = script(scale);
            let folds_over_a_stream = (0..ops.len()).any(|i| {
                matches!(ops[i], TortureOp::Checkpoint) && !replay(&ops[..i]).1.is_empty()
            });
            assert!(folds_over_a_stream, "the {} script folds over an open stream", scale.name());
            let (store, _) = replay(&ops);
            let finished = ops.iter().filter_map(|op| match op {
                TortureOp::StreamFinish { index } => Some(run_name(*index)),
                _ => None,
            });
            for name in finished {
                assert!(store.run(TORTURE_SPEC, &name).is_some(), "{name} is stored once finished");
            }
        }
    }

    #[test]
    fn streamed_runs_replay_deterministically() {
        let spec = Arc::new(torture_spec());
        let a = streamed_run(&spec, 5).expect("stream finalises");
        let b = streamed_run(&spec, 5).expect("stream finalises");
        assert_eq!(
            format!("{:?}", a.graph()),
            format!("{:?}", b.graph()),
            "the streamed run's content is a pure function of its index"
        );
        assert!(!stream_events_for(&spec, 5).is_empty());
    }
}
