//! `store_tool` — export, import, verify and query PDiffView store
//! directories.
//!
//! ```text
//! store_tool export <dir> [specs] [runs-per-spec] [seed]
//!     Generate a synthetic workload (wfdiff-workloads generator) and
//!     persist it to <dir>.
//!
//! store_tool import <src> <dst>
//!     Load the store at <src> (full validation), re-save it to <dst> and
//!     report what round-tripped.
//!
//! store_tool verify <dir>
//!     Load the store at <dir>, warm-start a DiffService over it and
//!     difference every run pair of every specification.
//!
//! store_tool wal <dir>
//!     Print write-ahead-log record counts (inserts, removals, stream
//!     events, and legacy checkpoint records that the next fold drops),
//!     byte sizes and any torn-tail bytes.
//!
//! store_tool checkpoint <dir>
//!     Force a checkpoint fold: load the store (replaying its WAL), save
//!     it back (folding the WAL into the manifest) and truncate the log.
//!
//! store_tool diff <dir> <spec> <run-a> <run-b>
//!     Load the store at <dir> and print the edit distance of one pair to
//!     stdout — rendered exactly like the diff server's JSON `distance`
//!     field, so shell pipelines can compare the two byte-for-byte.
//!
//! store_tool merge <root> <dst>
//!     Merge the shard-NNN store directories under <root>, a layout earlier
//!     versions split one store into, into one store at <dst> holding
//!     every specification and run (see docs/OPERATIONS.md).  Each shard
//!     is loaded with full validation and its WAL replayed.  Nothing is
//!     written, and the exit code is 1, when a specification appears in two
//!     shards, when a shard has an open stream, or when <dst> already holds
//!     a store.  Cluster checkpoints are not carried over; the server
//!     rebuilds them on first use.
//!
//! store_tool bench-compare <baseline.json> <current.json> [max-ratio]
//!     Compare two bench JSON documents (wfbench's result line and
//!     friends): every numeric leaf whose key contains "p50" or is
//!     `setup_s` (for a `value` leaf, its parent's key, as in wfbench's
//!     `metrics.op3_p50_us.value`) is matched by path and the current value
//!     must not exceed `max-ratio` (default 2.0) times the baseline.  Exits
//!     1 listing every regressed value, or when the current document has
//!     none at all; 0 when the baseline file does not exist (first run:
//!     nothing to compare) — the CI bench-regression gate.
//! ```
//!
//! # Exit codes
//!
//! Scripted callers (CI smoke steps) can tell misuse from data problems:
//!
//! * `0` — success,
//! * `1` — **data error**: the store failed to load/save/verify (corrupt or
//!   version-mismatched documents, I/O failures, non-metric distances),
//! * `2` — **usage error**: unknown subcommand, missing argument or an
//!   unparsable numeric argument; the usage string is printed to stderr.
//!
//! Every load goes through [`WorkflowStore::load_from_dir`], so corrupt or
//! hand-edited documents are reported with their file path instead of
//! crashing the tool.

#![allow(clippy::print_stdout, clippy::print_stderr)]

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use wfdiff_pdiffview::{DiffService, WorkflowStore};
use wfdiff_workloads::generator::{random_specification, SpecGenConfig};
use wfdiff_workloads::runs::{generate_run, RunGenConfig};

const USAGE: &str = "usage: store_tool export <dir> [specs] [runs-per-spec] [seed]\n\
                     \u{20}      store_tool import <src> <dst>\n\
                     \u{20}      store_tool verify <dir>\n\
                     \u{20}      store_tool wal <dir>\n\
                     \u{20}      store_tool checkpoint <dir>\n\
                     \u{20}      store_tool diff <dir> <spec> <run-a> <run-b>\n\
                     \u{20}      store_tool merge <root> <dst>\n\
                     \u{20}      store_tool bench-compare <baseline.json> <current.json> [max-ratio]";

/// A failure, split by who caused it: the invocation or the data.
enum ToolError {
    /// Bad invocation: exits 2 with the usage string.
    Usage(String),
    /// The store (or the filesystem) is at fault: exits 1.
    Data(String),
}

impl From<String> for ToolError {
    fn from(message: String) -> Self {
        ToolError::Data(message)
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("export") => export(&args[1..]),
        Some("import") => import(&args[1..]),
        Some("verify") => verify(&args[1..]),
        Some("wal") => wal(&args[1..]),
        Some("checkpoint") => checkpoint(&args[1..]),
        Some("diff") => diff(&args[1..]),
        Some("merge") => merge(&args[1..]),
        Some("bench-compare") => bench_compare(&args[1..]),
        Some(other) => Err(ToolError::Usage(format!("unknown subcommand {other:?}"))),
        None => Err(ToolError::Usage("no subcommand given".to_string())),
    };
    match result {
        Ok(()) => {}
        Err(ToolError::Usage(message)) => {
            eprintln!("store_tool: {message}\n{USAGE}");
            std::process::exit(2);
        }
        Err(ToolError::Data(message)) => {
            eprintln!("store_tool: {message}");
            std::process::exit(1);
        }
    }
}

fn arg<'a>(args: &'a [String], i: usize, what: &str) -> Result<&'a str, ToolError> {
    args.get(i)
        .map(String::as_str)
        .ok_or_else(|| ToolError::Usage(format!("missing argument: {what}")))
}

/// Parses an optional numeric argument; an argument that is present but
/// unparsable is a usage error, not a silent fallback to the default.
fn parse_or<T: std::str::FromStr>(
    args: &[String],
    i: usize,
    what: &str,
    default: T,
) -> Result<T, ToolError> {
    match args.get(i) {
        None => Ok(default),
        Some(raw) => raw
            .parse()
            .map_err(|_| ToolError::Usage(format!("argument {what} is not a number: {raw:?}"))),
    }
}

/// Builds a seeded synthetic store and saves it.
fn export(args: &[String]) -> Result<(), ToolError> {
    let dir = arg(args, 0, "target directory")?;
    let specs: usize = parse_or(args, 1, "specs", 2)?;
    let runs: usize = parse_or(args, 2, "runs-per-spec", 5)?;
    let seed: u64 = parse_or(args, 3, "seed", 0x5704E)?;

    let store = WorkflowStore::new();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    for s in 0..specs {
        let spec = random_specification(
            &format!("spec{s:02}"),
            &SpecGenConfig { target_edges: 40, series_parallel_ratio: 1.0, forks: 2, loops: 1 },
            &mut rng,
        );
        let spec = store.insert_spec(spec).map_err(|e| e.to_string())?;
        let config = RunGenConfig { prob_p: 0.85, max_f: 3, prob_f: 0.6, max_l: 3, prob_l: 0.6 };
        for r in 0..runs {
            store
                .insert_run(&format!("run{r:03}"), generate_run(&spec, &config, &mut rng))
                .map_err(|e| e.to_string())?;
        }
    }
    let summary = store.save_to_dir(dir).map_err(|e| e.to_string())?;
    println!("exported {} spec(s), {} run(s) to {dir}", summary.specs, summary.runs);
    Ok(())
}

/// Loads a store (validated) and re-saves it elsewhere.
fn import(args: &[String]) -> Result<(), ToolError> {
    let src = arg(args, 0, "source directory")?;
    let dst = arg(args, 1, "target directory")?;
    let store = WorkflowStore::load_from_dir(src).map_err(|e| e.to_string())?;
    let summary = store.save_to_dir(dst).map_err(|e| e.to_string())?;
    println!(
        "imported {} spec(s), {} run(s) from {src} and re-saved to {dst}",
        summary.specs, summary.runs
    );
    Ok(())
}

/// Loads a store, warms a service over it and differences every pair.
fn verify(args: &[String]) -> Result<(), ToolError> {
    let dir = arg(args, 0, "store directory")?;
    let store = Arc::new(WorkflowStore::load_from_dir(dir).map_err(|e| e.to_string())?);
    let service = DiffService::new(Arc::clone(&store));
    let report = service.warm_start().map_err(|e| e.to_string())?;
    println!("loaded {} spec(s), {} run(s); cache warmed", report.specs, report.runs);
    for name in store.spec_names() {
        let result = service.diff_all_pairs(&name).map_err(|e| e.to_string())?;
        let n = result.runs.len();
        let mut max = 0.0f64;
        for (_, _, d) in result.pairs() {
            if !d.is_finite() || d < 0.0 {
                return Err(ToolError::Data(format!(
                    "specification {name:?}: non-metric distance {d}"
                )));
            }
            max = max.max(d);
        }
        println!(
            "  {name}: {n} run(s), {} pair(s), max distance {max}",
            n * n.saturating_sub(1) / 2
        );
    }
    println!("store at {dir} verifies clean");
    Ok(())
}

/// Prints WAL record counts, kinds and byte sizes.
fn wal(args: &[String]) -> Result<(), ToolError> {
    let dir = arg(args, 0, "store directory")?;
    if !Path::new(dir).join("manifest.json").exists() {
        return Err(ToolError::Data(format!("{dir}: not a store directory")));
    }
    let summary = wfdiff_pdiffview::wal::inspect(Path::new(dir)).map_err(|e| e.to_string())?;
    println!(
        "{dir}: {} record(s) ({} insert(s), {} removal(s), {} stream event(s), \
         {} legacy checkpoint record(s)), {} byte(s), {} torn byte(s)",
        summary.records,
        summary.run_inserts,
        summary.run_removes,
        summary.stream_events,
        summary.legacy_records,
        summary.bytes,
        summary.torn_bytes
    );
    Ok(())
}

/// Forces a checkpoint fold: load (replaying the WAL), save (folding it
/// into the manifest), truncate the log.
fn checkpoint(args: &[String]) -> Result<(), ToolError> {
    let dir = arg(args, 0, "store directory")?;
    let before = wfdiff_pdiffview::wal::inspect(Path::new(dir)).map_err(|e| e.to_string())?;
    let store = WorkflowStore::load_from_dir(dir).map_err(|e| e.to_string())?;
    let summary = store.save_to_dir(dir).map_err(|e| e.to_string())?;
    println!(
        "{dir}: folded {} WAL record(s) into {} spec(s), {} run(s)",
        before.records, summary.specs, summary.runs
    );
    Ok(())
}

/// Loads a store and prints one pair's distance, JSON-formatted.
fn diff(args: &[String]) -> Result<(), ToolError> {
    let dir = arg(args, 0, "store directory")?;
    let spec = arg(args, 1, "specification name")?;
    let a = arg(args, 2, "first run name")?;
    let b = arg(args, 3, "second run name")?;
    let store = Arc::new(WorkflowStore::load_from_dir(dir).map_err(|e| e.to_string())?);
    let service = DiffService::new(store);
    let pair = service.diff(spec, a, b).map_err(|e| e.to_string())?;
    // Render through the JSON serializer so the output is byte-identical to
    // the `distance` field a diff server returns for the same pair.
    println!(
        "{}",
        serde_json::to_string(&pair.distance).map_err(|e| ToolError::Data(e.to_string()))?
    );
    Ok(())
}

/// Collects every numeric leaf of a bench JSON document whose key mentions
/// `p50` or is `setup_s`, as `(dotted.path, value)` pairs — the latencies
/// and the boot time the regression gate guards.
fn gated_leaves(value: &serde::Value, path: &str, out: &mut Vec<(String, f64)>) {
    match value {
        serde::Value::Map(entries) => {
            for (key, child) in entries {
                let child_path =
                    if path.is_empty() { key.clone() } else { format!("{path}.{key}") };
                gated_leaves(child, &child_path, out);
            }
        }
        serde::Value::Seq(items) => {
            for (i, child) in items.iter().enumerate() {
                gated_leaves(child, &format!("{path}[{i}]"), out);
            }
        }
        serde::Value::Int(v) => leaf(path, *v as f64, out),
        serde::Value::UInt(v) => leaf(path, *v as f64, out),
        serde::Value::Float(v) => leaf(path, *v, out),
        serde::Value::Null | serde::Value::Bool(_) | serde::Value::Str(_) => {}
    }
}

fn leaf(path: &str, value: f64, out: &mut Vec<(String, f64)>) {
    let mut segments = path.rsplit('.');
    let mut key = segments.next().unwrap_or(path);
    // wfbench writes each metric as `metrics.<name>.value`: the metric's
    // name is its parent's key.
    if key == "value" {
        key = segments.next().unwrap_or(key);
    }
    if key.contains("p50") || key == "setup_s" {
        out.push((path.to_string(), value));
    }
}

/// The gated leaves of a bench document.  A document without one is a data
/// error: a gate that compares nothing would pass whatever was measured.
fn gated_values(doc: &serde::Value) -> Result<Vec<(String, f64)>, String> {
    let mut out = Vec::new();
    gated_leaves(doc, "", &mut out);
    if out.is_empty() {
        return Err("no p50 latency or setup_s to compare".to_string());
    }
    Ok(out)
}

/// Matches every gated baseline value by path against the current
/// document's; any current value above `max_ratio` times its baseline is a
/// regression.  Returns how many values were compared.
fn compare_gated(
    baseline: &[(String, f64)],
    current: &[(String, f64)],
    max_ratio: f64,
) -> Result<usize, String> {
    let current: std::collections::BTreeMap<&str, f64> =
        current.iter().map(|(path, value)| (path.as_str(), *value)).collect();
    let mut compared = 0usize;
    let mut regressions = Vec::new();
    for (path, base) in baseline {
        let Some(now) = current.get(path.as_str()) else {
            continue; // the metric disappeared: schema evolution, not a regression
        };
        compared += 1;
        // A zero baseline has no meaningful ratio; never gate on it.
        if *base <= 1e-6 {
            continue;
        }
        let ratio = now / base;
        if ratio > max_ratio {
            regressions.push(format!("  {path}: {base} -> {now} ({ratio:.2}x > {max_ratio}x)"));
        } else {
            println!("  {path}: {base} -> {now} ({ratio:.2}x, limit {max_ratio}x)");
        }
    }
    if !regressions.is_empty() {
        return Err(format!(
            "{} of {compared} gated value(s) regressed beyond {max_ratio}x:\n{}",
            regressions.len(),
            regressions.join("\n")
        ));
    }
    Ok(compared)
}

/// Compares the `p50` latencies and `setup_s` of two bench JSON documents
/// (exit 1 on a regression, or when the current document holds neither).  A missing
/// baseline file is a clean pass — the first CI run has no previous
/// artifact to compare against.
fn bench_compare(args: &[String]) -> Result<(), ToolError> {
    let baseline_path = arg(args, 0, "baseline JSON file")?;
    let current_path = arg(args, 1, "current JSON file")?;
    let max_ratio: f64 = parse_or(args, 2, "max-ratio", 2.0)?;
    if !(max_ratio.is_finite() && max_ratio > 0.0) {
        return Err(ToolError::Usage(format!(
            "max-ratio must be a positive number, got {max_ratio}"
        )));
    }
    let read = |path: &str| -> Result<Vec<(String, f64)>, ToolError> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let doc = serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
        gated_values(&doc).map_err(|e| ToolError::Data(format!("{path}: {e}")))
    };
    let current = read(current_path)?;
    if !std::path::Path::new(baseline_path).exists() {
        println!("bench-compare: no baseline at {baseline_path}, nothing to compare");
        return Ok(());
    }
    let compared = compare_gated(&read(baseline_path)?, &current, max_ratio)?;
    println!("bench-compare: {compared} gated value(s) within {max_ratio}x of {baseline_path}");
    Ok(())
}

/// Merges the `shard-NNN/` stores under `root` into one store at `dst`.
/// Every check runs before anything is written: a specification stored in
/// two shards, a shard with an open stream and an existing store at `dst`
/// each leave `dst` untouched.
fn merge(args: &[String]) -> Result<(), ToolError> {
    let root = Path::new(arg(args, 0, "directory of shard-NNN stores")?);
    let dst = Path::new(arg(args, 1, "target directory")?);
    if dst.join("manifest.json").exists() {
        return Err(ToolError::Data(format!("{} already holds a store", dst.display())));
    }
    let shards = wfdiff_pdiffview::persist::shard_dirs(root);
    if shards.is_empty() {
        return Err(ToolError::Data(format!("{} holds no shard-NNN store", root.display())));
    }
    let merged = WorkflowStore::new();
    let mut owner: BTreeMap<String, PathBuf> = BTreeMap::new();
    for shard in &shards {
        let failed =
            |e: &dyn std::fmt::Display| ToolError::Data(format!("{}: {e}", shard.display()));
        let store = Arc::new(WorkflowStore::load_from_dir(shard).map_err(|e| failed(&e))?);
        let open =
            DiffService::new(Arc::clone(&store)).load_streams(shard).map_err(|e| failed(&e))?;
        if open.loaded > 0 {
            return Err(failed(&format!(
                "{} open stream(s) in the log; finish or close them first",
                open.loaded
            )));
        }
        for (name, (spec, runs)) in store.snapshot_all() {
            if let Some(first) = owner.insert(name.clone(), shard.clone()) {
                return Err(failed(&format!(
                    "specification {name:?} is also stored in {}",
                    first.display()
                )));
            }
            merged.insert_spec((*spec).clone()).map_err(|e| failed(&e))?;
            for (run_name, run) in runs {
                merged.insert_run(&run_name, (*run).clone()).map_err(|e| failed(&e))?;
            }
        }
    }
    let summary = merged.save_to_dir(dst).map_err(|e| e.to_string())?;
    println!(
        "merged {} shard(s) under {} into {} ({} spec(s), {} run(s))",
        shards.len(),
        root.display(),
        dst.display(),
        summary.specs,
        summary.runs
    );
    Ok(())
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::disallowed_methods)]
mod tests {
    use super::*;

    /// A result line exactly as `wfbench --workload browse` prints it.
    const WFBENCH_LINE: &str = r#"{"correct": true, "attempted": 42183, "failed": 0, "metrics": {"setup_s": {"value": 0.077258637, "unit": "s"}, "throughput_rps": {"value": 21111.976232981633, "unit": "1/s"}, "peak_rss_mb": {"value": 11.6953125, "unit": "MiB"}, "op1_p50_us": {"value": 56.463, "unit": "us"}, "op2_p50_us": {"value": 88.785, "unit": "us"}, "op3_p50_us": {"value": 36.709, "unit": "us"}}}"#;

    fn gated_of(text: &str) -> Result<Vec<(String, f64)>, String> {
        gated_values(&serde_json::from_str(text).unwrap())
    }

    /// A scratch directory that cleans up after itself.
    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> TempDir {
            let path =
                std::env::temp_dir().join(format!("store-tool-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&path);
            TempDir(path)
        }

        fn join(&self, name: &str) -> PathBuf {
            self.0.join(name)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    /// A store of the named specifications, two runs each, drawn from seeds
    /// that depend on the name alone.
    fn store_of(names: &[&str]) -> WorkflowStore {
        let store = WorkflowStore::new();
        for name in names {
            let mut b = wfdiff_sptree::SpecificationBuilder::new(*name);
            b.path(&["a", "b", "c", "d"]).fork_between("a", "c");
            let spec = store.insert_spec(b.build().unwrap()).unwrap();
            for r in 0..2 {
                let seed = 10 * name.bytes().map(u64::from).sum::<u64>() + r;
                let run = wfdiff_workloads::runs::generate_run_with_target_edges(&spec, 8, seed);
                store.insert_run(&format!("run{r}"), run).unwrap();
            }
        }
        store
    }

    fn run_merge(root: &Path, dst: &Path) -> Result<(), String> {
        let args = [root, dst].map(|p| p.to_string_lossy().into_owned());
        merge(&args).map_err(|e| match e {
            ToolError::Data(message) => message,
            ToolError::Usage(message) => format!("usage error: {message}"),
        })
    }

    #[test]
    fn merge_folds_every_shard_into_one_store_with_identical_distances() {
        let dir = TempDir::new("merge");
        let root = dir.join("root");
        store_of(&["alpha", "beta"]).save_to_dir(root.join("shard-000")).unwrap();
        let second = root.join("shard-001");
        store_of(&["gamma", "delta"]).save_to_dir(&second).unwrap();
        // A run the shard holds only in its write-ahead log.
        let shard = WorkflowStore::load_from_dir(&second).unwrap();
        let extra = wfdiff_workloads::runs::generate_run_with_target_edges(
            &shard.spec("delta").unwrap(),
            8,
            99,
        );
        shard.append_run_to_dir(&second, "logged", &extra).unwrap();
        let dst = dir.join("merged");
        run_merge(&root, &dst).unwrap();

        let merged = Arc::new(WorkflowStore::load_from_dir(&dst).unwrap());
        let local = Arc::new(store_of(&["alpha", "beta", "gamma", "delta"]));
        let delta = local.spec("delta").unwrap();
        let logged = wfdiff_workloads::runs::generate_run_with_target_edges(&delta, 8, 99);
        local.insert_run("logged", logged).unwrap();
        assert_eq!(merged.spec_names(), local.spec_names());
        let (served, recomputed) = (DiffService::new(merged), DiffService::new(local));
        for name in served.store().spec_names() {
            let got = served.diff_all_pairs(&name).unwrap();
            let want = recomputed.diff_all_pairs(&name).unwrap();
            assert_eq!(got.runs, want.runs, "{name}");
            let bits = |r: &wfdiff_pdiffview::AllPairsResult| {
                r.pairs().map(|(_, _, d)| d.to_bits()).collect::<Vec<_>>()
            };
            assert_eq!(bits(&got), bits(&want), "{name}");
        }
        assert!(!dst.join("cluster_cache.json").exists(), "no checkpoint is carried over");
    }

    #[test]
    fn merge_refuses_a_specification_stored_in_two_shards() {
        let dir = TempDir::new("merge-twice");
        let root = dir.join("root");
        store_of(&["alpha"]).save_to_dir(root.join("shard-000")).unwrap();
        store_of(&["beta", "alpha"]).save_to_dir(root.join("shard-001")).unwrap();
        let dst = dir.join("merged");
        let message = run_merge(&root, &dst).unwrap_err();
        assert!(message.contains("\"alpha\" is also stored in"), "{message}");
        assert!(!dst.exists(), "nothing was written");
    }

    #[test]
    fn merge_refuses_a_shard_with_an_open_stream() {
        let dir = TempDir::new("merge-stream");
        let root = dir.join("root");
        store_of(&["alpha"]).save_to_dir(root.join("shard-000")).unwrap();
        let second = root.join("shard-001");
        store_of(&["beta"]).save_to_dir(&second).unwrap();
        let service = DiffService::new(Arc::new(WorkflowStore::load_from_dir(&second).unwrap()));
        let events = [
            wfdiff_pdiffview::StreamEvent::started(0, "a", vec![]),
            wfdiff_pdiffview::StreamEvent::completed(0),
        ];
        service.commit_stream_batch(Some(&second), "beta", "s1", &events, false).unwrap();
        let dst = dir.join("merged");
        let message = run_merge(&root, &dst).unwrap_err();
        assert!(message.contains("1 open stream(s)"), "{message}");
        assert!(!dst.exists(), "nothing was written");
    }

    #[test]
    fn import_carries_open_streams() {
        let dir = TempDir::new("import-stream");
        let (src, dst) = (dir.join("src"), dir.join("dst"));
        store_of(&["beta"]).save_to_dir(&src).unwrap();
        let service = DiffService::new(Arc::new(WorkflowStore::load_from_dir(&src).unwrap()));
        let events = [wfdiff_pdiffview::StreamEvent::started(0, "a", vec![])];
        service.commit_stream_batch(Some(&src), "beta", "s1", &events, false).unwrap();
        assert!(import(&[&src, &dst].map(|p| p.to_string_lossy().into_owned())).is_ok());
        assert_eq!(wfdiff_pdiffview::wal::inspect(&dst).unwrap().stream_events, 1);
        let copy = DiffService::new(Arc::new(WorkflowStore::load_from_dir(&dst).unwrap()));
        assert_eq!(copy.stream_seq("beta", "s1"), Some(1));
    }

    #[test]
    fn merge_refuses_a_target_that_holds_a_store() {
        let dir = TempDir::new("merge-over");
        let root = dir.join("root");
        store_of(&["alpha"]).save_to_dir(root.join("shard-000")).unwrap();
        let dst = dir.join("merged");
        store_of(&["beta"]).save_to_dir(&dst).unwrap();
        let manifest = std::fs::read(dst.join("manifest.json")).unwrap();
        let message = run_merge(&root, &dst).unwrap_err();
        assert!(message.contains("already holds a store"), "{message}");
        assert_eq!(std::fs::read(dst.join("manifest.json")).unwrap(), manifest);
        assert_eq!(WorkflowStore::load_from_dir(&dst).unwrap().spec_names(), ["beta"]);
    }

    #[test]
    fn wfbench_result_lines_are_gated_on_their_p50s() {
        let base = gated_of(WFBENCH_LINE).unwrap();
        assert_eq!(compare_gated(&base, &base, 2.0), Ok(4));

        let slower = WFBENCH_LINE.replace(r#""value": 36.709"#, r#""value": 110.127"#);
        let err = compare_gated(&base, &gated_of(&slower).unwrap(), 2.0).unwrap_err();
        assert!(err.starts_with("1 of 4 "), "{err}");
        assert!(err.contains("metrics.op3_p50_us"), "{err}");

        // The boot time is gated too: a tripled setup_s fails.
        let slower_boot =
            WFBENCH_LINE.replace(r#""value": 0.077258637"#, r#""value": 0.231775911"#);
        let err = compare_gated(&base, &gated_of(&slower_boot).unwrap(), 2.0).unwrap_err();
        assert!(err.starts_with("1 of 4 "), "{err}");
        assert!(err.contains("metrics.setup_s"), "{err}");

        assert!(gated_of(r#"{"correct": true, "metrics": {}}"#).is_err());
    }
}
