//! On-disk compatibility of the cluster checkpoint, and of what earlier
//! versions wrote into the write-ahead log for the derived indexes.
//!
//! `tests/fixtures/derived_checkpoints/store` is a store directory written
//! by the checkpoint code that predates the shared `derived` module: one
//! specification with 17 runs, `cluster_cache.json` and `metric_index.json`
//! already folded, and three records left in `wal.log` — the insert of an
//! 18th run, then one cluster delta (kind 3) and one metric-index delta
//! (kind 4) taken after it.  `folded/` holds the `cluster_cache.json` that
//! code's full save (`save_to_dir`) wrote for that directory, whose one
//! entry covers all 18 runs.
//!
//! Neither index checkpoints into the log any more: kinds 3 and 4 are
//! legacy, stepped over undecoded, and the next fold drops them.  The
//! cluster checkpoint is `cluster_cache.json` alone, in the same format:
//! the folded file must resume the clustering, and a checkpoint written
//! from the resumed state must be that file byte for byte.

use pdiffview::pdiffview::{DiffService, WorkflowStore, WAL_FILE};
use pdiffview::workloads::figures::{fig2_run1, fig2_run2, fig2_run3, fig2_specification};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const CLUSTER_CACHE_FILE: &str = "cluster_cache.json";
const METRIC_INDEX_FILE: &str = "metric_index.json";

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

/// The fixture store with the folded `cluster_cache.json` as its checkpoint.
fn resumable_fixture(tag: &str) -> ScratchDir {
    let dir = ScratchDir::of(&fixture("store"), tag);
    let folded = fixture("folded").join(CLUSTER_CACHE_FILE);
    std::fs::copy(folded, dir.path().join(CLUSTER_CACHE_FILE)).unwrap();
    dir
}

#[test]
fn checkpoints_written_before_the_shared_mechanism_load_and_fold_byte_identically() {
    let dir = resumable_fixture("fold");
    let summary = pdiffview::pdiffview::wal::inspect(dir.path()).unwrap();
    assert_eq!(
        (summary.run_inserts, summary.legacy_records, summary.torn_bytes),
        (1, 2, 0),
        "the fixture's log holds an insert and two legacy checkpoint records"
    );

    let store = Arc::new(WorkflowStore::load_from_dir(dir.path()).unwrap());
    let mut runs = store.run_names("fixture");
    runs.sort();
    let expected: Vec<String> = (0..18).map(|i| format!("run{i:02}")).collect();
    assert_eq!(runs, expected, "every run is present, the WAL-inserted one included");

    let service = DiffService::new(Arc::clone(&store));
    let clusters = service.load_cluster_state(dir.path());
    assert_eq!((clusters.loaded, clusters.stale), (1, 0));
    let (pruned, _) = service.nearest_runs_pruned("fixture", "run17", 4, 0.0).unwrap();
    assert_eq!(pruned, service.nearest_runs("fixture", "run17", 4).unwrap());
    assert_eq!(service.metric_index().member_count("fixture"), 18);

    // The fold drops the legacy records and leaves the checkpoint file as
    // it is.
    store.save_to_dir(dir.path()).unwrap();
    let summary = pdiffview::pdiffview::wal::inspect(dir.path()).unwrap();
    assert_eq!((summary.records, summary.legacy_records), (0, 0));
    let folded = std::fs::read(dir.path().join(CLUSTER_CACHE_FILE)).unwrap();
    let expected = std::fs::read(fixture("folded").join(CLUSTER_CACHE_FILE)).unwrap();
    assert!(folded == expected, "the fold rewrote {CLUSTER_CACHE_FILE}");
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

        if kind == 3 {
            assert_eq!(summary.legacy_records, 1, "kind {kind}: counted as legacy");
            let report = DiffService::new(loaded).load_cluster_state(dir.path());
            assert_eq!((report.loaded, report.stale), (0, 0), "kind {kind}: never read");
        }
    }
}

#[test]
fn a_legacy_metric_record_is_stepped_over_and_dropped_by_the_next_fold() {
    // The fixture's log ends in a kind-3 and a kind-4 record; one more
    // insert lands after them, so the log holds an insert, the legacy
    // records and an insert.
    let dir = ScratchDir::of(&fixture("store"), "legacy-metric");
    let store = WorkflowStore::load_from_dir(dir.path()).unwrap();
    let copy = store.run("fixture", "run00").unwrap();
    let run18 = store.insert_run("run18", (*copy).clone()).unwrap();
    store.append_run_to_dir(dir.path(), "run18", &run18).unwrap();
    let summary = pdiffview::pdiffview::wal::inspect(dir.path()).unwrap();
    assert_eq!((summary.run_inserts, summary.legacy_records, summary.torn_bytes), (2, 2, 0));

    let loaded = WorkflowStore::load_from_dir(dir.path()).unwrap();
    assert!(loaded.run("fixture", "run17").is_some(), "the insert before it loads");
    assert!(loaded.run("fixture", "run18").is_some(), "the insert after it loads");
    assert_eq!(loaded.run_count(), 19);

    loaded.save_to_dir(dir.path()).unwrap();
    let summary = pdiffview::pdiffview::wal::inspect(dir.path()).unwrap();
    assert_eq!((summary.records, summary.legacy_records, summary.torn_bytes), (0, 0, 0));
    assert!(!dir.path().join(METRIC_INDEX_FILE).exists(), "the fold removed the legacy file");
    assert!(dir.path().join(CLUSTER_CACHE_FILE).exists());
    assert_eq!(WorkflowStore::load_from_dir(dir.path()).unwrap().run_count(), 19);
}

/// `file` with a stale second entry: a copy of its one entry under the
/// name of a specification the store does not hold.
fn with_stale_entry(file: &str) -> String {
    let start = file.find("\n    {").unwrap();
    let end = file.rfind("\n  ]").unwrap();
    let entry = &file[start..end];
    let ghost = entry.replace("\"spec\": \"fixture\"", "\"spec\": \"ghost\"");
    assert_ne!(ghost, entry);
    format!("{}{entry},{ghost}{}", &file[..start], &file[end..])
}

#[test]
fn resumed_checkpoints_are_rewritten_byte_for_byte() {
    let dir = resumable_fixture("rewrite");
    let path = dir.path().join(CLUSTER_CACHE_FILE);
    let folded = std::fs::read_to_string(&path).unwrap();
    // A stale entry makes the load re-arm a checkpoint of everything it
    // resumed.
    std::fs::write(&path, with_stale_entry(&folded)).unwrap();
    let log = std::fs::read(dir.path().join(WAL_FILE)).unwrap();
    let service = DiffService::new(Arc::new(WorkflowStore::load_from_dir(dir.path()).unwrap()));
    let clusters = service.load_cluster_state(dir.path());
    assert_eq!((clusters.loaded, clusters.stale), (1, 1));

    assert_eq!(service.save_cluster_state(dir.path()).unwrap(), 1);
    let rewritten = std::fs::read_to_string(&path).unwrap();
    assert!(rewritten == folded, "{CLUSTER_CACHE_FILE} changed");
    assert_eq!(std::fs::read(dir.path().join(WAL_FILE)).unwrap(), log, "the log changed");
}
