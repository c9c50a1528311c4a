//! On-disk compatibility of the derived-index checkpoints.
//!
//! `tests/fixtures/derived_checkpoints/store` is a store directory written
//! by the checkpoint code that predates the shared `derived` module: one
//! specification with 17 runs, `cluster_cache.json` and `metric_index.json`
//! already folded, and three records left in `wal.log` — the insert of an
//! 18th run, then one cluster delta (kind 3) and one metric-index delta
//! (kind 4) taken after it.  `folded/` holds the two files that code's full
//! save (`save_to_dir`) wrote for that directory.  Loading the directory
//! must resume both indexes, and folding it again must write both files
//! byte for byte.
//!
//! Checkpoints written now must be byte for byte the fixture's records, and a
//! checkpoint record whose entry does not decode — one written by another
//! version — must count as stale without cutting the WAL short.

use pdiffview::pdiffview::{DiffService, WorkflowStore, METRIC_INDEX_FILE, WAL_FILE};
use pdiffview::workloads::figures::{fig2_run1, fig2_run2, fig2_run3, fig2_specification};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const CLUSTER_CACHE_FILE: &str = "cluster_cache.json";

fn fixture(part: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/derived_checkpoints").join(part)
}

/// A scratch directory that cleans up after itself.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn empty(tag: &str) -> ScratchDir {
        let dir = std::env::temp_dir()
            .join(format!("wfdiff-checkpoint-format-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        ScratchDir(dir)
    }

    fn of(source: &Path, tag: &str) -> ScratchDir {
        let dir = ScratchDir::empty(tag);
        copy_tree(source, dir.path());
        dir
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn copy_tree(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        let target = to.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_tree(&entry.path(), &target);
        } else {
            std::fs::copy(entry.path(), &target).unwrap();
        }
    }
}

#[test]
fn checkpoints_written_before_the_shared_mechanism_load_and_fold_byte_identically() {
    let dir = ScratchDir::of(&fixture("store"), "fold");
    let summary = pdiffview::pdiffview::wal::inspect(dir.path()).unwrap();
    assert_eq!(
        (summary.run_inserts, summary.cluster_deltas, summary.metric_deltas, summary.torn_bytes),
        (1, 1, 1, 0),
        "the fixture's log holds one record of each kind"
    );

    let store = Arc::new(WorkflowStore::load_from_dir(dir.path()).unwrap());
    let mut runs = store.run_names("fixture");
    runs.sort();
    let expected: Vec<String> = (0..18).map(|i| format!("run{i:02}")).collect();
    assert_eq!(runs, expected, "every run is present, the WAL-inserted one included");

    let service = DiffService::new(Arc::clone(&store));
    let clusters = service.load_cluster_state(dir.path());
    assert_eq!((clusters.loaded, clusters.stale), (1, 0));
    let metric = service.load_metric_state(dir.path());
    assert_eq!((metric.loaded, metric.stale), (1, 0));
    assert_eq!(service.metric_index().member_count("fixture"), 18);
    let (pruned, _) = service.nearest_runs_pruned("fixture", "run17", 4, 0.0).unwrap();
    assert_eq!(pruned, service.nearest_runs("fixture", "run17", 4).unwrap());

    store.save_to_dir(dir.path()).unwrap();
    for file in [CLUSTER_CACHE_FILE, METRIC_INDEX_FILE] {
        let folded = std::fs::read(dir.path().join(file)).unwrap();
        let expected = std::fs::read(fixture("folded").join(file)).unwrap();
        assert!(folded == expected, "{file} differs from the one the earlier fold wrote");
    }
}

/// CRC-32 (IEEE), bit by bit: the WAL's record checksum.
fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            crc = if crc & 1 != 0 { 0xedb8_8320 ^ (crc >> 1) } else { crc >> 1 };
        }
    }
    !crc
}

/// Appends one well-framed, checksummed WAL record of `kind`.
fn append_raw(dir: &Path, kind: u8, payload: &str) {
    let mut body = vec![kind];
    body.extend_from_slice(payload.as_bytes());
    let mut frame = (body.len() as u32).to_le_bytes().to_vec();
    frame.extend_from_slice(&crc32(&body).to_le_bytes());
    frame.extend_from_slice(&body);
    let mut wal = std::fs::OpenOptions::new().append(true).open(dir.join(WAL_FILE)).unwrap();
    wal.write_all(&frame).unwrap();
}

#[test]
fn a_checkpoint_record_that_does_not_decode_is_stale_not_a_torn_tail() {
    for kind in [3u8, 4] {
        let dir = ScratchDir::empty(&format!("undecodable-{kind}"));
        let store = WorkflowStore::new();
        let spec = store.insert_spec(fig2_specification()).unwrap();
        store.insert_run("r0", fig2_run1(&spec)).unwrap();
        store.save_to_dir(dir.path()).unwrap();
        let r1 = store.insert_run("r1", fig2_run2(&spec)).unwrap();
        store.append_run_to_dir(dir.path(), "r1", &r1).unwrap();
        // A valid envelope whose entry no index version can decode.
        append_raw(dir.path(), kind, r#"{"cost_key":1,"doc":{"spec":"p"}}"#);
        let r2 = store.insert_run("r2", fig2_run3(&spec)).unwrap();
        store.append_run_to_dir(dir.path(), "r2", &r2).unwrap();

        let loaded = Arc::new(WorkflowStore::load_from_dir(dir.path()).unwrap());
        let mut runs = loaded.run_names("fig2");
        runs.sort();
        assert_eq!(runs, ["r0", "r1", "r2"], "kind {kind}: the records after it survive");
        let summary = pdiffview::pdiffview::wal::inspect(dir.path()).unwrap();
        assert_eq!((summary.records, summary.torn_bytes), (3, 0), "kind {kind}");

        let service = DiffService::new(loaded);
        let report = if kind == 3 {
            service.load_cluster_state(dir.path())
        } else {
            service.load_metric_state(dir.path())
        };
        assert_eq!((report.loaded, report.stale), (0, 1), "kind {kind}: counted stale");
    }
}

/// Splits a WAL into its framed records (`[u32 len][u32 crc][len bytes]`).
fn frames(log: &[u8]) -> Vec<&[u8]> {
    let mut frames = Vec::new();
    let mut at = 0;
    while at < log.len() {
        let len = u32::from_le_bytes(log[at..at + 4].try_into().unwrap()) as usize;
        frames.push(&log[at..at + 8 + len]);
        at += 8 + len;
    }
    frames
}

#[test]
fn resumed_checkpoints_are_rewritten_byte_for_byte() {
    let dir = ScratchDir::of(&fixture("store"), "rewrite");
    let log = std::fs::read(dir.path().join(WAL_FILE)).unwrap();
    let recorded = frames(&log);
    assert_eq!(recorded.len(), 3);
    // An undecodable entry per index makes its load re-arm a checkpoint of
    // everything it resumed.
    append_raw(dir.path(), 3, r#"{"cost_key":1,"doc":{}}"#);
    append_raw(dir.path(), 4, r#"{"cost_key":1,"doc":{}}"#);
    let service = DiffService::new(Arc::new(WorkflowStore::load_from_dir(dir.path()).unwrap()));
    let clusters = service.load_cluster_state(dir.path());
    let metric = service.load_metric_state(dir.path());
    assert_eq!((clusters.loaded, clusters.stale, metric.loaded, metric.stale), (1, 1, 1, 1));

    let out = ScratchDir::empty("rewritten");
    service.save_cluster_state(out.path()).unwrap();
    service.save_metric_state(out.path()).unwrap();
    let rewritten = std::fs::read(out.path().join(WAL_FILE)).unwrap();
    assert!(rewritten == [recorded[1], recorded[2]].concat(), "kind 3 and 4 records changed");
}
