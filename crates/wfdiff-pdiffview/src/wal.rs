//! The store's write-ahead log: `wal.log` beside `manifest.json`.
//!
//! A full [`WorkflowStore::save_to_dir`] rewrites every changed document and
//! commits with a manifest rename — O(store).  The WAL makes the hot
//! mutation paths O(append) instead: a run insert, a run removal or a
//! stream event is one length-prefixed, checksummed record appended to
//! `wal.log` and fsynced, and nothing else is touched.  Every record is a
//! store mutation; caches derived from the store keep files of their own.
//! Every record reaches `append` through the store's one append step
//! (see [`crate::persist`]).
//!
//! # Record framing
//!
//! ```text
//! [u32 LE len][u32 LE crc32][u8 kind][len-1 bytes of JSON payload]
//! ```
//!
//! `len` counts the kind byte plus the payload, and is at most 64 MiB
//! (`MAX_RECORD_BYTES`): an append refuses a longer record with
//! [`PersistError::RecordTooLarge`] before it writes a byte.  `crc32`
//! (IEEE) covers the kind byte plus the payload.  Kinds: 1 = run insert,
//! 2 = run remove, 5 = stream event (one node-lifecycle event of an
//! in-flight streamed run).  A record is valid only if its header fits, its
//! length is sane, its checksum matches and its payload deserialises; the
//! **first** invalid record ends the log — everything from its offset on is
//! a torn tail (a crashed append) and is truncated by the next
//! [`WorkflowStore::load_from_dir`].
//!
//! Kinds 3 and 4 are **legacy**: checkpoints of derived indexes (a
//! clustering, a vantage-point tree) that earlier versions appended to the
//! log.  Both are recomputable from the stored runs, so a record of either
//! kind whose framing and checksum pass is stepped over without decoding
//! its payload — the records after it still replay — and the next fold
//! drops it.  Any other unknown kind ends the log.
//!
//! # Replay semantics
//!
//! `load_from_dir` replays the WAL **after** loading the manifest-committed
//! documents, in append order.  Replay is idempotent: re-inserting a run the
//! manifest already holds replaces it with identical content, removing an
//! absent run is a no-op, and a record against a specification version the
//! manifest no longer lists is skipped (it predates a spec replacement
//! whose full save crashed before the WAL truncation).  Stream events
//! rebuild the store's open streams in the same pass; an event a stream
//! already holds at its position changes nothing.
//!
//! A full save **folds** the log: the snapshot is committed via the
//! manifest rename, and the WAL is replaced, atomically, by the records of
//! the streams open in memory.  The fold runs automatically once
//! [`WorkflowStore::set_wal_fold_threshold`] bytes have been appended since
//! the last fold attempt.
//!
//! [`WorkflowStore::save_to_dir`]: crate::store::WorkflowStore::save_to_dir
//! [`WorkflowStore::load_from_dir`]: crate::store::WorkflowStore::load_from_dir
//! [`WorkflowStore::set_wal_fold_threshold`]: crate::store::WorkflowStore::set_wal_fold_threshold

use crate::io::RunDescriptor;
use crate::persist::PersistError;
use crate::storeio::StoreIo;
use serde::{Deserialize, Serialize};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// File name of the write-ahead log inside a store directory.
pub const WAL_FILE: &str = "wal.log";

/// Upper bound on one record's `len` field: an append refuses a longer
/// record, and a scan treats a larger `len` as a torn tail rather than
/// trust it as an allocation size.
pub(crate) const MAX_RECORD_BYTES: u32 = 64 * 1024 * 1024;

/// Bytes of framing before each record's body.
const HEADER_BYTES: usize = 8;

pub(crate) const KIND_RUN_INSERT: u8 = 1;
const KIND_RUN_REMOVE: u8 = 2;
const KIND_STREAM_EVENT: u8 = 5;

/// The retired kinds: 3, a cluster checkpoint delta, and 4, a
/// vantage-point-tree checkpoint delta (see the [module docs](self)).
const LEGACY_KINDS: [u8; 2] = [3, 4];

/// A run insert: enough to rebuild and re-validate the run at replay time.
#[derive(Debug, Serialize, Deserialize)]
pub(crate) struct RunInsertRecord {
    /// Specification name.
    pub(crate) spec: String,
    /// Canonical persistent fingerprint (hex) of the specification version
    /// the run belongs to; replay skips the record if the manifest has moved
    /// to a different version.
    pub(crate) spec_fingerprint: String,
    /// Run name.
    pub(crate) name: String,
    /// The run itself.
    pub(crate) run: RunDescriptor,
}

/// A run removal.
#[derive(Debug, Serialize, Deserialize)]
pub(crate) struct RunRemoveRecord {
    /// Specification name.
    pub(crate) spec: String,
    /// Run name.
    pub(crate) name: String,
}

/// One node-lifecycle event of an in-flight streamed run.  Streams have no
/// manifest document: a fold writes every open stream's records, numbered
/// from 0, to the new log.
#[derive(Debug, Serialize, Deserialize)]
pub(crate) struct StreamEventRecord {
    /// Specification name.
    pub(crate) spec: String,
    /// Canonical persistent fingerprint (hex) of the specification version
    /// the stream was opened against; replay skips a version the manifest
    /// does not list.
    pub(crate) spec_fingerprint: String,
    /// Stream name (becomes the run name at finalisation).
    pub(crate) stream: String,
    /// Zero-based position of this event in the stream's event sequence.
    pub(crate) seq: u64,
    /// The event itself, or `None` for the closure marker appended once the
    /// stream is closed: replay closes the stream there.
    pub(crate) event: Option<crate::stream::StreamEvent>,
}

/// A decoded WAL record.
#[derive(Debug)]
pub(crate) enum WalRecord {
    /// Kind 1.
    RunInsert(RunInsertRecord),
    /// Kind 2.
    RunRemove(RunRemoveRecord),
    /// Kind 5.
    StreamEvent(StreamEventRecord),
}

impl WalRecord {
    /// Kind 1: run `name`, recorded against `spec_fingerprint`, the
    /// persistent fingerprint of its specification.
    pub(crate) fn run_insert(spec_fingerprint: &str, name: &str, run: &wfdiff_sptree::Run) -> Self {
        WalRecord::RunInsert(RunInsertRecord {
            spec: run.spec_name().to_string(),
            spec_fingerprint: spec_fingerprint.to_string(),
            name: name.to_string(),
            run: RunDescriptor::from_run(run),
        })
    }
}

/// Kind-5 records of stream `stream`, numbered from `seq`: one per event,
/// or for `None` the closure marker of a stream that applied `seq` events.
pub(crate) fn stream_records<'a>(
    spec: &str,
    spec_fingerprint: &str,
    stream: &str,
    seq: u64,
    events: impl IntoIterator<Item = Option<&'a crate::stream::StreamEvent>>,
) -> Vec<WalRecord> {
    let records = events.into_iter().zip(seq..).map(|(event, seq)| StreamEventRecord {
        spec: spec.to_string(),
        spec_fingerprint: spec_fingerprint.to_string(),
        stream: stream.to_string(),
        seq,
        event: event.cloned(),
    });
    records.map(WalRecord::StreamEvent).collect()
}

/// CRC32 (IEEE 802.3, reflected) — dependency-free, table-driven.
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        for (i, slot) in table.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { 0xedb8_8320 ^ (c >> 1) } else { c >> 1 };
            }
            *slot = c;
        }
        table
    });
    let mut crc = !0u32;
    for &b in bytes {
        crc = table[usize::from((crc as u8) ^ b)] ^ (crc >> 8);
    }
    !crc
}

fn io_err(path: &Path, context: &'static str, source: std::io::Error) -> PersistError {
    PersistError::Io { path: path.to_path_buf(), context, source }
}

/// The WAL path inside a store directory.
pub(crate) fn wal_path(dir: &Path) -> std::path::PathBuf {
    dir.join(WAL_FILE)
}

/// A record ready to append: its kind byte and JSON payload.
pub(crate) type Encoded = (u8, String);

/// Encodes `payload` as a record of `kind` for `dir`'s log.
fn encode<T: Serialize>(dir: &Path, kind: u8, payload: &T) -> Result<Encoded, PersistError> {
    serde_json::to_string(payload)
        .map(|json| (kind, json))
        .map_err(|source| PersistError::Json { path: wal_path(dir), source })
}

/// Encodes `records` for `dir`'s log.
pub(crate) fn encode_all(dir: &Path, records: &[WalRecord]) -> Result<Vec<Encoded>, PersistError> {
    records
        .iter()
        .map(|record| match record {
            WalRecord::RunInsert(r) => encode(dir, KIND_RUN_INSERT, r),
            WalRecord::RunRemove(r) => encode(dir, KIND_RUN_REMOVE, r),
            WalRecord::StreamEvent(r) => encode(dir, KIND_STREAM_EVENT, r),
        })
        .collect()
}

/// Frames `records` for `dir`'s log as they are laid out in it: per
/// record, its length, its CRC-32, then the kind byte and the payload.  A
/// record longer than the bound is refused before anything is framed (in
/// unit tests, the bound the test lowered on its own thread).
fn frame(dir: &Path, records: &[Encoded]) -> Result<Vec<u8>, PersistError> {
    #[cfg(test)]
    let max = tests::RECORD_BOUND.with(std::cell::Cell::get);
    #[cfg(not(test))]
    let max = MAX_RECORD_BYTES;
    if let Some(len) = records.iter().map(|(_, p)| 1 + p.len()).find(|&len| len > max as usize) {
        return Err(PersistError::RecordTooLarge { path: wal_path(dir), len, max });
    }
    let mut buf = Vec::new();
    for (kind, payload) in records {
        let len = 1 + payload.len();
        let mut body = Vec::with_capacity(len);
        body.push(*kind);
        body.extend_from_slice(payload.as_bytes());
        buf.extend_from_slice(&(len as u32).to_le_bytes());
        buf.extend_from_slice(&crc32(&body).to_le_bytes());
        buf.extend_from_slice(&body);
    }
    Ok(buf)
}

/// Appends `records` to `dir/wal.log` as one write + one fsync (the whole
/// durability cost of a hot-path mutation).  Returns the bytes appended.
/// A record past the framing bound refuses the whole append with
/// [`PersistError::RecordTooLarge`] before anything is written.
///
/// A failed write or fsync is a lost write whose bytes must never
/// resurface, so the log is cut back through `io` to its length before the
/// append (else a torn record would end the log before every later one).
/// If the cut fails too, `torn` is set, later appends refuse, and the
/// error is [`PersistError::OutcomeUnknown`]: the records may be whole in
/// the log, and a reload would then replay them.
pub(crate) fn append(
    io: &dyn StoreIo,
    dir: &Path,
    records: &[Encoded],
    torn: &AtomicBool,
) -> Result<u64, PersistError> {
    refuse_torn(dir, torn)?;
    let path = wal_path(dir);
    let buf = frame(dir, records)?;
    if buf.is_empty() {
        return Ok(0);
    }
    let before = match std::fs::metadata(&path) {
        Ok(meta) => meta.len(),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => 0,
        Err(e) => return Err(io_err(&path, "measuring", e)),
    };
    let written = io
        .append_file(&path, &buf)
        .map_err(|e| ("appending to", e))
        .and_then(|()| io.fsync_file(&path).map_err(|e| ("syncing", e)));
    let Err((context, e)) = written else { return Ok(buf.len() as u64) };
    if let Err(cut) = truncate_to(io, dir, before) {
        torn.store(true, Ordering::Release);
        let both = format!("{e}; cutting the failed append back off the log failed too: {cut}");
        return Err(PersistError::OutcomeUnknown {
            path,
            context,
            source: std::io::Error::other(both),
        });
    }
    Err(io_err(&path, context, e))
}

/// Refuses a write once a failed append could not be cut back off `dir`'s
/// log (`torn`): it may end in unacknowledged bytes, which a reload cuts.
pub(crate) fn refuse_torn(dir: &Path, torn: &AtomicBool) -> Result<(), PersistError> {
    if !torn.load(Ordering::Acquire) {
        return Ok(());
    }
    let why = "an earlier append failed and could not be cut back off the log; the store \
               refuses writes until it is reloaded";
    Err(io_err(&wal_path(dir), "appending to", std::io::Error::other(why)))
}

/// Replaces `dir/wal.log` with exactly `records` — a fold's reset, which
/// keeps the records of open streams.  With records to keep, the new log
/// is written beside the old one and renamed over it, so a crash or an I/O
/// error leaves the old log or the new one, never a log that lost records
/// both hold.  Returns the new log's length.
pub(crate) fn replace(
    io: &dyn StoreIo,
    dir: &Path,
    records: &[Encoded],
) -> Result<u64, PersistError> {
    let buf = frame(dir, records)?;
    if buf.is_empty() {
        truncate_to(io, dir, 0)?;
    } else {
        crate::persist::write_atomic(io, &wal_path(dir), &buf)?;
    }
    Ok(buf.len() as u64)
}

/// What [`scan`] found in a WAL file.
#[derive(Debug, Default)]
pub(crate) struct WalScan {
    /// Every valid record, in append order, legacy records aside.
    pub(crate) records: Vec<WalRecord>,
    /// Legacy kind-3 and kind-4 records stepped over (see the
    /// [module docs](self)).
    pub(crate) legacy_records: usize,
    /// Byte offset past the last valid record — where a torn tail (if any)
    /// starts.
    pub(crate) valid_len: u64,
    /// Total file length on disk.
    pub(crate) total_len: u64,
}

/// Reads a little-endian `u32` at `offset`, or `None` past the end — the
/// panic-free form of `bytes[offset..offset + 4].try_into().unwrap()`.
fn read_u32_le(bytes: &[u8], offset: usize) -> Option<u32> {
    let s = bytes.get(offset..offset.checked_add(4)?)?;
    Some(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
}

/// Reads and decodes `dir/wal.log`.  A missing file is an empty log; a
/// decode failure ends the log at that offset (`valid_len < total_len`
/// flags the torn tail) and is never an error — only unreadable storage is.
/// A legacy record is counted and stepped over undecoded.
pub(crate) fn scan(dir: &Path) -> Result<WalScan, PersistError> {
    let path = wal_path(dir);
    let bytes = match std::fs::read(&path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(WalScan::default()),
        Err(e) => return Err(io_err(&path, "reading", e)),
    };
    let mut out = WalScan { total_len: bytes.len() as u64, ..WalScan::default() };
    let mut offset = 0usize;
    while bytes.len() - offset >= HEADER_BYTES {
        let (Some(len), Some(crc)) = (read_u32_le(&bytes, offset), read_u32_le(&bytes, offset + 4))
        else {
            break;
        };
        if len == 0 || len > MAX_RECORD_BYTES {
            break;
        }
        let body_start = offset + HEADER_BYTES;
        let Some(body_end) = body_start.checked_add(len as usize) else { break };
        if body_end > bytes.len() {
            break;
        }
        let body = &bytes[body_start..body_end];
        if crc32(body) != crc {
            break;
        }
        if LEGACY_KINDS.contains(&body[0]) {
            out.legacy_records += 1;
            offset = body_end;
            continue;
        }
        let Ok(payload) = std::str::from_utf8(&body[1..]) else { break };
        let record = match body[0] {
            KIND_RUN_INSERT => serde_json::from_str(payload).map(WalRecord::RunInsert),
            KIND_RUN_REMOVE => serde_json::from_str(payload).map(WalRecord::RunRemove),
            KIND_STREAM_EVENT => serde_json::from_str(payload).map(WalRecord::StreamEvent),
            _ => break,
        };
        let Ok(record) = record else { break };
        out.records.push(record);
        offset = body_end;
    }
    out.valid_len = offset as u64;
    Ok(out)
}

/// Truncates `dir/wal.log` to `len` bytes and syncs it — the torn-tail
/// repair (`len` = last valid offset) and the post-fold reset (`len` = 0).
/// A missing file is only tolerated when truncating to zero.
pub(crate) fn truncate_to(io: &dyn StoreIo, dir: &Path, len: u64) -> Result<(), PersistError> {
    let path = wal_path(dir);
    match io.truncate_file(&path, len) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::NotFound && len == 0 => return Ok(()),
        Err(e) => return Err(io_err(&path, "truncating", e)),
    }
    io.fsync_file(&path).map_err(|e| io_err(&path, "syncing", e))
}

// ---------------------------------------------------------------------------
// Live counters and public snapshots
// ---------------------------------------------------------------------------

/// Live WAL counters of one [`WorkflowStore`](crate::store::WorkflowStore);
/// the store updates them on append, replay and fold.
#[derive(Debug, Default)]
pub(crate) struct WalStats {
    /// Records appended since the store was created.
    pub(crate) appends_total: AtomicU64,
    /// Current `wal.log` length in bytes (right after a fold, the records
    /// of the streams still open).
    pub(crate) bytes: AtomicU64,
    /// Bytes appended since the last fold attempt — what the fold threshold
    /// is compared against.  A loaded store starts from its log's length.
    pub(crate) since_fold: AtomicU64,
    /// Records replayed past the manifest by the load that built the store.
    pub(crate) replayed_records: AtomicU64,
    /// Checkpoint folds (full saves that truncated the WAL).
    pub(crate) folds_total: AtomicU64,
    /// Automatic folds (triggered by the fold threshold) that failed.
    pub(crate) fold_failures_total: AtomicU64,
}

impl WalStats {
    pub(crate) fn snapshot(&self) -> WalStatsSnapshot {
        WalStatsSnapshot {
            appends_total: self.appends_total.load(Ordering::Acquire),
            bytes: self.bytes.load(Ordering::Acquire),
            replayed_records: self.replayed_records.load(Ordering::Acquire),
            folds_total: self.folds_total.load(Ordering::Acquire),
            fold_failures_total: self.fold_failures_total.load(Ordering::Acquire),
        }
    }
}

/// A point-in-time snapshot of a store's WAL counters — what the `/metrics`
/// endpoint exports as `wfdiff_wal_appends_total`,
/// `wfdiff_wal_bytes`, `wfdiff_wal_replayed_records`,
/// `wfdiff_checkpoint_folds_total` and
/// `wfdiff_checkpoint_fold_failures_total`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WalStatsSnapshot {
    /// Records appended since the store was created.
    pub appends_total: u64,
    /// Current `wal.log` length in bytes (right after a fold, the records
    /// of the streams still open).
    pub bytes: u64,
    /// Records replayed past the manifest by the load that built the store.
    pub replayed_records: u64,
    /// Checkpoint folds (full saves that truncated the WAL).
    pub folds_total: u64,
    /// Automatic folds (triggered by the fold threshold) that failed; an
    /// explicit [`WorkflowStore::save_to_dir`] returns its error instead.
    ///
    /// [`WorkflowStore::save_to_dir`]: crate::store::WorkflowStore::save_to_dir
    pub fold_failures_total: u64,
}

/// What `store_tool wal` reports about one store directory's log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WalSummary {
    /// Valid records in the log, legacy ones included.
    pub records: usize,
    /// Run-insert records (kind 1).
    pub run_inserts: usize,
    /// Run-remove records (kind 2).
    pub run_removes: usize,
    /// Stream-event records (kind 5), closure markers included.
    pub stream_events: usize,
    /// Legacy checkpoint records (kinds 3 and 4): written by versions that
    /// checkpointed the cluster or metric index into the log, skipped on
    /// load and dropped by the next fold.
    pub legacy_records: usize,
    /// Bytes of valid records.
    pub bytes: u64,
    /// Trailing bytes that do not decode (a torn append; repaired by the
    /// next load).
    pub torn_bytes: u64,
}

/// Inspects `dir/wal.log` without loading the store: record counts by kind,
/// valid bytes and torn-tail bytes.  A missing log is an all-zero summary.
pub fn inspect(dir: impl AsRef<Path>) -> Result<WalSummary, PersistError> {
    let scan = scan(dir.as_ref())?;
    let mut summary = WalSummary {
        records: scan.records.len() + scan.legacy_records,
        legacy_records: scan.legacy_records,
        bytes: scan.valid_len,
        torn_bytes: scan.total_len - scan.valid_len,
        ..WalSummary::default()
    };
    for record in &scan.records {
        match record {
            WalRecord::RunInsert(_) => summary.run_inserts += 1,
            WalRecord::RunRemove(_) => summary.run_removes += 1,
            WalRecord::StreamEvent(_) => summary.stream_events += 1,
        }
    }
    Ok(summary)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::storeio::RealIo;
    use std::cell::Cell;
    use std::path::PathBuf;

    thread_local! {
        /// This thread's append bound; see [`lower_record_bound`].
        pub(super) static RECORD_BOUND: Cell<u32> = const { Cell::new(MAX_RECORD_BYTES) };
    }

    /// Lowers the append bound of the calling thread to `max` until the
    /// returned guard drops, so a test reaches the bound with records of a
    /// few hundred bytes instead of 64 MiB ones.  Scans keep the real bound.
    pub(crate) fn lower_record_bound(max: u32) -> impl Drop {
        struct Restore;
        impl Drop for Restore {
            fn drop(&mut self) {
                RECORD_BOUND.with(|bound| bound.set(MAX_RECORD_BYTES));
            }
        }
        RECORD_BOUND.with(|bound| bound.set(max));
        Restore
    }

    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> TempDir {
            let path =
                std::env::temp_dir().join(format!("wfdiff-wal-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&path);
            std::fs::create_dir_all(&path).unwrap();
            TempDir(path)
        }

        fn path(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn insert_record(name: &str) -> WalRecord {
        let spec = wfdiff_workloads::figures::fig2_specification();
        let run = wfdiff_workloads::figures::fig2_run1(&spec);
        WalRecord::RunInsert(RunInsertRecord {
            spec: "fig2".to_string(),
            spec_fingerprint: spec.fingerprint().to_string(),
            name: name.to_string(),
            run: RunDescriptor::from_run(&run),
        })
    }

    fn append_records(dir: &Path, records: &[WalRecord]) {
        append(&RealIo, dir, &encode_all(dir, records).unwrap(), &AtomicBool::new(false)).unwrap();
    }

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        // The canonical CRC-32/ISO-HDLC check value; pinning it pins the
        // polynomial, reflection and final xor — i.e. the on-disk format.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn append_scan_roundtrip_preserves_order_and_kinds() {
        let dir = TempDir::new("roundtrip");
        let records = vec![
            insert_record("r1"),
            WalRecord::RunRemove(RunRemoveRecord {
                spec: "fig2".to_string(),
                name: "r1".to_string(),
            }),
            insert_record("r2"),
        ];
        let encoded = encode_all(dir.path(), &records).unwrap();
        let bytes = append(&RealIo, dir.path(), &encoded, &AtomicBool::new(false)).unwrap();
        assert!(bytes > 0);
        let scan = scan(dir.path()).unwrap();
        assert_eq!(scan.records.len(), 3);
        assert_eq!(scan.valid_len, bytes);
        assert_eq!(scan.total_len, bytes);
        assert!(matches!(&scan.records[0], WalRecord::RunInsert(r) if r.name == "r1"));
        assert!(matches!(&scan.records[1], WalRecord::RunRemove(r) if r.name == "r1"));
        assert!(matches!(&scan.records[2], WalRecord::RunInsert(r) if r.name == "r2"));
        let summary = inspect(dir.path()).unwrap();
        assert_eq!(summary.records, 3);
        assert_eq!(summary.run_inserts, 2);
        assert_eq!(summary.run_removes, 1);
        assert_eq!((summary.stream_events, summary.legacy_records), (0, 0));
        assert_eq!(summary.torn_bytes, 0);
    }

    #[test]
    fn an_over_bound_record_is_refused_before_any_byte_is_written() {
        let dir = TempDir::new("over-bound");
        append_records(dir.path(), &[insert_record("r1")]);
        let before = std::fs::read(wal_path(dir.path())).unwrap();
        let torn = AtomicBool::new(false);
        // The kind byte plus the payload: one byte past the bound.
        let over = (KIND_RUN_INSERT, "x".repeat(MAX_RECORD_BYTES as usize));
        let err = append(&RealIo, dir.path(), &[over], &torn).unwrap_err();
        let over_len = MAX_RECORD_BYTES as usize + 1;
        assert!(
            matches!(err, PersistError::RecordTooLarge { len, max: MAX_RECORD_BYTES, .. }
                if len == over_len),
            "{err}"
        );
        assert_eq!(std::fs::read(wal_path(dir.path())).unwrap(), before, "the log is unchanged");
        assert!(!torn.load(Ordering::Acquire), "a refused record tears nothing");
        // The log takes the next append.
        append_records(dir.path(), &[insert_record("r2")]);
        assert_eq!(scan(dir.path()).unwrap().records.len(), 2);
    }

    #[test]
    fn missing_log_scans_empty() {
        let dir = TempDir::new("missing");
        let scan = scan(dir.path()).unwrap();
        assert_eq!(scan.records.len(), 0);
        assert_eq!(scan.total_len, 0);
        assert_eq!(inspect(dir.path()).unwrap(), WalSummary::default());
        // Truncating an absent log to zero is the fold's no-op case.
        truncate_to(&RealIo, dir.path(), 0).unwrap();
    }

    #[test]
    fn torn_tails_end_the_log_at_the_last_valid_record() {
        let dir = TempDir::new("torn");
        append_records(dir.path(), &[insert_record("r1"), insert_record("r2")]);
        let full = std::fs::read(wal_path(dir.path())).unwrap();
        let keep = full.len() - 7; // chop into the last record's payload
        for torn in [
            full[..keep].to_vec(),                           // truncated payload
            [&full[..], &full[..5]].concat(),                // partial next header
            [&full[..], &[9, 0, 0, 0, 1, 2, 3, 4]].concat(), // bogus header, no body
        ] {
            std::fs::write(wal_path(dir.path()), &torn).unwrap();
            let scan = scan(dir.path()).unwrap();
            assert!(scan.valid_len < scan.total_len, "tail detected");
            let summary = inspect(dir.path()).unwrap();
            assert!(summary.torn_bytes > 0);
            // Repair: truncate to the valid prefix and re-scan clean.
            truncate_to(&RealIo, dir.path(), scan.valid_len).unwrap();
            let repaired = super::scan(dir.path()).unwrap();
            assert_eq!(repaired.valid_len, repaired.total_len);
            assert!(!repaired.records.is_empty());
        }
    }

    #[test]
    fn legacy_records_are_stepped_over_and_an_unknown_kind_ends_the_log() {
        let dir = TempDir::new("legacy");
        let mut records = encode_all(dir.path(), &[insert_record("r1")]).unwrap();
        // Not JSON at all: a legacy payload is never decoded.
        records.push((LEGACY_KINDS[0], "a clustering".to_string()));
        records.extend(encode_all(dir.path(), &[insert_record("r2")]).unwrap());
        records.push((LEGACY_KINDS[1], "a tree".to_string()));
        records.push((9, "{}".to_string()));
        records.extend(encode_all(dir.path(), &[insert_record("r3")]).unwrap());
        append(&RealIo, dir.path(), &records, &AtomicBool::new(false)).unwrap();
        let scan = scan(dir.path()).unwrap();
        let names: Vec<&str> = scan
            .records
            .iter()
            .filter_map(|r| match r {
                WalRecord::RunInsert(r) => Some(r.name.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!((names, scan.legacy_records), (vec!["r1", "r2"], 2));
        let summary = inspect(dir.path()).unwrap();
        assert_eq!((summary.records, summary.run_inserts, summary.legacy_records), (4, 2, 2));
        assert!(summary.torn_bytes > 0, "kind 9 and everything after it is a torn tail");
    }

    #[test]
    fn a_corrupted_byte_invalidates_the_record_checksum() {
        let dir = TempDir::new("crc");
        append_records(dir.path(), &[insert_record("r1")]);
        let mut bytes = std::fs::read(wal_path(dir.path())).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(wal_path(dir.path()), &bytes).unwrap();
        let scan = scan(dir.path()).unwrap();
        assert_eq!(scan.records.len(), 0, "checksum rejects the flipped byte");
        assert_eq!(scan.valid_len, 0);
    }

    #[test]
    fn appends_after_a_fold_start_a_fresh_log() {
        let dir = TempDir::new("fold");
        append_records(dir.path(), &[insert_record("r1")]);
        truncate_to(&RealIo, dir.path(), 0).unwrap();
        assert_eq!(inspect(dir.path()).unwrap().records, 0);
        append_records(dir.path(), &[insert_record("r2")]);
        let scan = scan(dir.path()).unwrap();
        assert_eq!(scan.records.len(), 1);
        assert!(matches!(&scan.records[0], WalRecord::RunInsert(r) if r.name == "r2"));
    }
}
