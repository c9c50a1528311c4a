//! Durable on-disk persistence for [`WorkflowStore`] (versioned format,
//! crash-safe writes, fully validated loads).
//!
//! The PDiffView prototype is a *persistent* provenance database:
//! specifications and runs are stored as documents and differenced on
//! demand.  This module gives the in-memory [`WorkflowStore`] that
//! durability.
//!
//! # On-disk layout
//!
//! ```text
//! <dir>/
//!   manifest.json                    # StoreManifest: format version + spec index
//!   wal.log                          # write-ahead log of post-manifest mutations
//!   specs/<slug>-<fp8>/spec.json     # spec document: version, fingerprint, SpecDescriptor
//!   specs/<slug>-<fp8>/runs/<n>.json # one self-describing run document per run
//! ```
//!
//! * The **manifest** is the root of truth: only specification directories it
//!   lists are loaded, so stray or orphaned directories are ignored.
//! * The **write-ahead log** holds the mutations appended *since* the
//!   manifest committed: run inserts, run removals, stream events and
//!   cluster checkpoint deltas, each a length-prefixed checksummed record
//!   (see [`crate::wal`]).  [`WorkflowStore::load_from_dir`] replays it
//!   past the manifest state (truncating a torn tail first), and a full
//!   save **folds** it — merges the checkpoint deltas into
//!   `cluster_cache.json` (see [`crate::cluster::persist`]), commits the
//!   snapshot, and replaces the log with the records of the streams still
//!   open.  The fold also drops what earlier versions wrote for the metric
//!   index, which keeps no checkpoint: legacy kind-4 records and
//!   `metric_index.json`.
//! * Every record reaches the log through **one append step**,
//!   `WorkflowStore::wal_append`, under the save lock: it refuses a record
//!   past the framing bound with [`PersistError::RecordTooLarge`] before a
//!   byte is written, appends and fsyncs, and counts; the fold check
//!   follows.  A logged record counts while the manifest lists its
//!   specification at the record's fingerprint.
//! * Each specification directory is keyed by a slug of the name plus the
//!   first 8 hex digits of the spec's **canonical persistent fingerprint**
//!   (the arena fingerprint of the specification *as rebuilt from its
//!   descriptor* — a deterministic function of the document, so load can
//!   verify it byte-for-byte).  A structurally changed spec therefore lands
//!   in a *fresh* directory and the old one stays intact until the manifest
//!   rename commits the switch.
//! * Runs are **not** listed in the manifest: every `runs/*.json` document
//!   carries its own name and the fingerprint of the spec version it belongs
//!   to.  Appending a run to a live store directory is a single WAL record
//!   (one append plus one fsync) — no document or index rewrite; the next
//!   full save folds it into a run document.
//!
//! # Crash safety
//!
//! Every file is written to a temporary sibling and atomically
//! `rename(2)`d into place, and the manifest is written **last**.  A crash
//! mid-save leaves the previous manifest pointing at the previous (still
//! complete) spec directories; at worst a fingerprint-identical spec
//! directory has gained or lost some run files, all of which remain valid
//! for that exact spec version.  WAL replay is idempotent, so a crash
//! anywhere between a manifest commit and the log replacement that follows
//! it merely replays records whose effects the manifest already holds.
//! Every durability-relevant operation runs through the store's
//! [`StoreIo`] trait object, which is how the
//! crash-torture harness proves these windows safe at every single fault
//! point.
//!
//! Saves from one process are serialised internally (a per-store lock).
//! **Concurrent saves into one directory from different processes are not
//! coordinated** — their garbage-collection passes could delete each
//! other's spec directories; give each writer its own directory or add
//! external locking.  Concurrent *loaders* are always safe: they only see
//! whatever manifest rename committed last.
//!
//! # Validation on load
//!
//! [`WorkflowStore::load_from_dir`] trusts nothing it reads: format
//! versions, fingerprints (manifest vs spec document vs rebuilt
//! specification vs run documents), directory names, control edge indices
//! and run node indices are all checked, and every failure surfaces as a
//! [`PersistError`] naming the offending file — never a panic.  See
//! [`PersistError`] for recovery semantics.

use crate::cluster;
use crate::io::{RunDescriptor, SpecDescriptor};
use crate::pool;
use crate::store::{StoreError, WorkflowStore};
use crate::storeio::StoreIo;
use crate::wal;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use wfdiff_sptree::{Fingerprint, Run, SpTreeError, Specification};

/// Version tag of the store directory format written by this module.
///
/// Version 1 is the initial layout described in the [module docs](self).
/// Loaders reject any other version rather than guessing; bump this constant
/// whenever the layout or document schemas change incompatibly.
pub const STORE_FORMAT: u32 = 1;

/// The metric-index checkpoint file that earlier versions wrote beside the
/// manifest: never read, and removed by the next fold.
const LEGACY_METRIC_INDEX_FILE: &str = "metric_index.json";

/// Errors raised while persisting or loading a store directory.
///
/// # Recovery semantics
///
/// A `PersistError` from [`WorkflowStore::load_from_dir`] means the store
/// directory (or one document in it) could not be trusted; **nothing is
/// partially loaded** — the failed load returns no store.  The variants tell
/// the operator what to do:
///
/// * [`PersistError::Io`] — the directory is unreadable or mid-copy; retry
///   or fix permissions.  No data interpretation happened.
/// * [`PersistError::Json`] / [`PersistError::Format`] — a document is
///   corrupt, hand-edited, truncated or from an incompatible format version.
///   Restore the file from a good copy or delete the offending run document
///   (spec documents are load-bearing; run documents are individually
///   disposable).
/// * [`PersistError::Tree`] — a document parsed but describes an invalid
///   specification or run (bad edge/node indices, non-SP graph, run that
///   does not replay).  Same recovery as corrupt documents.
/// * [`PersistError::Store`] — documents were individually valid but
///   mutually inconsistent (e.g. two spec directories claiming one name).
///
/// A `PersistError` from [`WorkflowStore::save_to_dir`] means the directory
/// may hold a partial new save.  The previous manifest and every spec
/// document it references are untouched unless the final manifest rename
/// succeeded; run documents inside a spec directory whose version did not
/// change may however already have been rewritten or pruned to the new run
/// set (each individually valid for that spec version — see the
/// crash-safety notes in the [module docs](self)).
#[derive(Debug)]
pub enum PersistError {
    /// A filesystem operation failed.
    Io {
        /// The file or directory the operation touched.
        path: PathBuf,
        /// What the operation was trying to do.
        context: &'static str,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// A document failed to parse as JSON (or to serialise).
    Json {
        /// The offending document.
        path: PathBuf,
        /// The underlying JSON error.
        source: serde_json::Error,
    },
    /// A document parsed but its framing is wrong: unsupported format
    /// version, fingerprint mismatch, name mismatch or unsafe path.
    Format {
        /// The offending document or directory entry.
        path: PathBuf,
        /// What was wrong.
        what: String,
    },
    /// A document described an invalid specification or run.
    Tree {
        /// The offending document.
        path: PathBuf,
        /// The underlying rebuild/validation error.
        source: SpTreeError,
    },
    /// The rebuilt documents could not be inserted into one coherent store.
    Store {
        /// The underlying store error.
        source: StoreError,
    },
    /// A write-ahead-log record is longer than the log's framing allows; the
    /// append was refused before it wrote a byte, and the log is unchanged.
    RecordTooLarge {
        /// The log the record was refused from.
        path: PathBuf,
        /// The record's length: its kind byte plus its payload.
        len: usize,
        /// The framing bound, 64 MiB.
        max: u32,
    },
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io { path, context, source } => {
                write!(f, "{context} {}: {source}", path.display())
            }
            PersistError::Json { path, source } => {
                write!(f, "invalid JSON in {}: {source}", path.display())
            }
            PersistError::Format { path, what } => {
                write!(f, "malformed store document {}: {what}", path.display())
            }
            PersistError::Tree { path, source } => {
                write!(f, "invalid specification/run in {}: {source}", path.display())
            }
            PersistError::Store { source } => write!(f, "inconsistent store contents: {source}"),
            PersistError::RecordTooLarge { path, len, max } => write!(
                f,
                "refusing a {len}-byte record for {}: a write-ahead-log record holds at most \
                 {max} bytes",
                path.display()
            ),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io { source, .. } => Some(source),
            PersistError::Json { source, .. } => Some(source),
            PersistError::Tree { source, .. } => Some(source),
            PersistError::Store { source } => Some(source),
            PersistError::Format { .. } | PersistError::RecordTooLarge { .. } => None,
        }
    }
}

impl From<StoreError> for PersistError {
    fn from(source: StoreError) -> Self {
        PersistError::Store { source }
    }
}

/// What [`WorkflowStore::save_to_dir`] wrote.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SaveSummary {
    /// Number of specifications persisted.
    pub specs: usize,
    /// Number of runs persisted (across all specifications).
    pub runs: usize,
}

// ---------------------------------------------------------------------------
// Document schemas
// ---------------------------------------------------------------------------

/// `manifest.json`: the root of truth for a store directory.
#[derive(Debug, Serialize, Deserialize)]
pub(crate) struct StoreManifest {
    /// Store directory format version; see [`STORE_FORMAT`].
    format: u32,
    /// One entry per persisted specification.
    specs: Vec<ManifestSpec>,
}

impl StoreManifest {
    /// Whether the manifest lists `spec` at the persistent fingerprint (hex)
    /// `fingerprint` — the one rule by which a logged record still counts.
    /// A record of another version predates a replacement whose full save
    /// committed: replay skips it, and a fold and `load_streams` drop its
    /// stream.
    pub(crate) fn lists(&self, spec: &str, fingerprint: &str) -> bool {
        self.specs.iter().any(|s| s.name == spec && s.fingerprint == fingerprint)
    }
}

/// One manifest entry.
#[derive(Debug, Serialize, Deserialize)]
struct ManifestSpec {
    /// Specification name (authoritative; directory names are only slugs).
    name: String,
    /// Directory under `specs/` holding the spec document and its runs.
    dir: String,
    /// Canonical persistent fingerprint (hex) of the specification.
    fingerprint: String,
}

/// `spec.json`: a specification document.
#[derive(Debug, Serialize, Deserialize)]
struct SpecDocument {
    /// Store format version the document was written under.
    format: u32,
    /// Canonical persistent fingerprint (hex); must match the manifest entry
    /// and the specification rebuilt from `spec`.
    fingerprint: String,
    /// The specification itself.
    spec: SpecDescriptor,
}

/// `runs/<n>.json`: a self-describing run document.
#[derive(Debug, Serialize, Deserialize)]
struct RunDocument {
    /// Store format version the document was written under.
    format: u32,
    /// Run name within its specification.
    name: String,
    /// Canonical persistent fingerprint (hex) of the specification version
    /// this run was validated against.
    spec_fingerprint: String,
    /// The run itself.
    run: RunDescriptor,
}

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

fn io_err(path: &Path, context: &'static str, source: std::io::Error) -> PersistError {
    PersistError::Io { path: path.to_path_buf(), context, source }
}

fn format_err(path: &Path, what: impl Into<String>) -> PersistError {
    PersistError::Format { path: path.to_path_buf(), what: what.into() }
}

fn parse_fingerprint(path: &Path, hex: &str) -> Result<Fingerprint, PersistError> {
    u128::from_str_radix(hex, 16)
        .map(Fingerprint)
        .map_err(|_| format_err(path, format!("unparsable fingerprint {hex:?}")))
}

/// Turns an arbitrary name into a safe, human-recognisable file-name stem.
/// Uniqueness is provided by the caller (fingerprint suffix / counter), not
/// by the slug itself.
fn slug(name: &str) -> String {
    let mut out: String = name
        .chars()
        .take(48)
        .map(|c| if c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.') { c } else { '_' })
        .collect();
    // A leading dot would make the entry hidden (and "." / ".." unsafe).
    if out.is_empty() || out.starts_with('.') {
        out.insert(0, '_');
    }
    out
}

/// FNV-1a over a name, as 16 hex digits.  Appended to run-file slugs so that
/// a run's file name is a function of the run name *alone*: re-saving a
/// changed run set overwrites surviving runs in place instead of shifting
/// documents between file names (a shift would open a crash window in which
/// two files carry the same run name and the store refuses to load).  The
/// full 64-bit hash keeps same-slug collisions — which would fall back to a
/// position-dependent bump — out of practical reach.
fn name_hash(name: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Rejects manifest `dir` values that could escape the store directory.
fn check_dir_component(manifest_path: &Path, dir: &str) -> Result<(), PersistError> {
    // `:` covers Windows drive-relative prefixes like `C:evil`, which
    // `Path::join` would resolve outside the store root.
    let unsafe_component = dir.is_empty()
        || dir == "."
        || dir == ".."
        || dir.contains('/')
        || dir.contains('\\')
        || dir.contains(':')
        || dir.contains('\0');
    if unsafe_component {
        return Err(format_err(
            manifest_path,
            format!("spec directory entry {dir:?} is not a plain directory name"),
        ));
    }
    Ok(())
}

/// Serialises `value` and atomically replaces `path` with it (write to a
/// temporary sibling, then `rename`).  Byte-identical documents are left
/// untouched: the content of every document is a deterministic function of
/// the store state, so skipping unchanged files keeps a re-save's durable
/// writes (each a write + fsync + rename) proportional to the delta rather
/// than to the whole store.
pub(crate) fn write_json_atomic<T: Serialize>(
    io: &dyn StoreIo,
    path: &Path,
    value: &T,
) -> Result<(), PersistError> {
    let json = serde_json::to_string_pretty(value)
        .map_err(|source| PersistError::Json { path: path.to_path_buf(), source })?;
    write_atomic(io, path, json.as_bytes())
}

/// Atomically replaces `path` with `bytes`, leaving a byte-identical file
/// untouched — the protocol behind [`write_json_atomic`].
pub(crate) fn write_atomic(
    io: &dyn StoreIo,
    path: &Path,
    bytes: &[u8],
) -> Result<(), PersistError> {
    if fs::read(path).is_ok_and(|existing| existing == bytes) {
        return Ok(());
    }
    // The temp name carries the process id and a counter so two writers
    // (e.g. a service save racing a store_tool import from another process)
    // never truncate each other's in-flight temp file; saves within one
    // process are additionally serialised by the store's save lock.
    static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".{}-{seq}.tmp", std::process::id()));
    let tmp = PathBuf::from(tmp);
    // The data must be on stable storage *before* the rename is: journalling
    // filesystems may otherwise persist the rename ahead of the data blocks
    // and a power loss would leave a committed-looking but truncated file.
    io.write_file(&tmp, bytes).map_err(|e| io_err(&tmp, "writing", e))?;
    io.fsync_file(&tmp).map_err(|e| io_err(&tmp, "syncing", e))?;
    io.rename(&tmp, path).map_err(|e| io_err(path, "committing", e))?;
    // Make the rename itself durable by syncing the parent directory.
    // Best-effort: not every platform lets a directory be opened and synced,
    // and a failure here only weakens durability, never atomicity.
    if let Some(parent) = path.parent() {
        let _ = io.fsync_dir(parent);
    }
    Ok(())
}

pub(crate) fn read_json<T: for<'de> Deserialize<'de>>(path: &Path) -> Result<T, PersistError> {
    let text = fs::read_to_string(path).map_err(|e| io_err(path, "reading", e))?;
    serde_json::from_str(&text)
        .map_err(|source| PersistError::Json { path: path.to_path_buf(), source })
}

/// The canonical persistent fingerprint of a descriptor: the arena
/// fingerprint of the specification it deterministically rebuilds into.
/// (The in-memory original may have been built with a different arena
/// layout; what load can verify is the rebuilt identity, so that is what
/// gets recorded.)
fn canonical_fingerprint(
    path: &Path,
    descriptor: &SpecDescriptor,
) -> Result<(Fingerprint, wfdiff_sptree::Specification), PersistError> {
    let rebuilt = descriptor
        .to_specification()
        .map_err(|source| PersistError::Tree { path: path.to_path_buf(), source })?;
    Ok((rebuilt.fingerprint(), rebuilt))
}

/// The `shard-NNN/` subdirectories of `root`, in index order: the layout
/// in which earlier versions split one store across several store
/// directories.  Such a root has no `manifest.json` of its own; `store_tool
/// merge` turns it back into one store directory.  Empty when `root` holds
/// none (or cannot be read).
pub fn shard_dirs(root: &Path) -> Vec<PathBuf> {
    let Ok(entries) = std::fs::read_dir(root) else {
        return Vec::new();
    };
    let mut found: Vec<(usize, PathBuf)> = entries
        .flatten()
        .filter(|entry| entry.path().is_dir())
        .filter_map(|entry| {
            let index = entry.file_name().to_str()?.strip_prefix("shard-")?.parse().ok()?;
            Some((index, entry.path()))
        })
        .collect();
    found.sort();
    found.into_iter().map(|(_, path)| path).collect()
}

/// Reads `dir`'s manifest and checks its format version — the first step of
/// every load and WAL append.  Returns the manifest's path too, for error
/// context.
pub(crate) fn read_manifest(dir: &Path) -> Result<(PathBuf, StoreManifest), PersistError> {
    let path = dir.join("manifest.json");
    let manifest: StoreManifest = read_json(&path)?;
    if manifest.format != STORE_FORMAT {
        return Err(format_err(
            &path,
            format!(
                "store format {} is not supported by this build (expected {STORE_FORMAT})",
                manifest.format
            ),
        ));
    }
    Ok((path, manifest))
}

/// A run document whose framing checked out, with its rebuilt run (or why
/// the run did not rebuild).
struct DecodedRun {
    name: String,
    run: Result<Run, PersistError>,
}

/// Reads and checks one run document of the specification `spec_name` at
/// version `spec_fp`, and rebuilds its run.  The outer error is the
/// document's framing (I/O, JSON, format, fingerprint, owning spec), which
/// a load reports before a duplicate name; a run that does not rebuild is
/// reported after it.
fn decode_run_document(
    run_path: &Path,
    spec_fp: Fingerprint,
    spec_name: &str,
    spec: &Specification,
) -> Result<DecodedRun, PersistError> {
    let doc: RunDocument = read_json(run_path)?;
    if doc.format != STORE_FORMAT {
        return Err(format_err(
            run_path,
            format!("document format {} (expected {STORE_FORMAT})", doc.format),
        ));
    }
    let run_fp = parse_fingerprint(run_path, &doc.spec_fingerprint)?;
    if run_fp != spec_fp {
        // Spec-version pinning at the persistence layer: a run document
        // saved against a different version of this specification must
        // not sneak in.
        return Err(format_err(
            run_path,
            format!(
                "run {:?} was saved against specification version {run_fp}, but the stored \
                 specification is version {spec_fp}; the run predates a spec replacement and \
                 must be regenerated",
                doc.name
            ),
        ));
    }
    if doc.run.spec != spec_name {
        return Err(format_err(
            run_path,
            format!(
                "run {:?} claims specification {:?}, but lives under {spec_name:?}",
                doc.name, doc.run.spec
            ),
        ));
    }
    let run = doc
        .run
        .to_run(spec)
        .map_err(|source| PersistError::Tree { path: run_path.to_path_buf(), source });
    Ok(DecodedRun { name: doc.name, run })
}

// ---------------------------------------------------------------------------
// Save / load
// ---------------------------------------------------------------------------

impl WorkflowStore {
    /// Persists a consistent snapshot of the whole store into `dir`,
    /// creating it if needed (see the [module docs](self) for the layout).
    ///
    /// The write is crash-safe: all spec and run documents are written (each
    /// atomically via rename) before the manifest — the commit point — is
    /// renamed into place.  Re-saving over an existing store directory
    /// reuses fingerprint-identical spec directories, prunes run documents
    /// that no longer exist in the store, and garbage-collects spec
    /// directories the new manifest no longer references.
    pub fn save_to_dir(&self, dir: impl AsRef<Path>) -> Result<SaveSummary, PersistError> {
        // One save at a time per store: interleaved saves could prune each
        // other's freshly written documents or garbage-collect a directory
        // the other's manifest is about to reference.  (Writers in other
        // *processes* must coordinate externally — see the module docs.)
        let _guard = self.save_lock.lock();
        self.save_to_dir_locked(dir.as_ref())
    }

    /// The body of [`WorkflowStore::save_to_dir`]; the caller holds
    /// `save_lock` (either the public wrapper or a WAL append whose
    /// threshold check escalated into a fold).
    fn save_to_dir_locked(&self, dir: &Path) -> Result<SaveSummary, PersistError> {
        // A fold carries open-stream records over from the log, which may
        // end in records of a failed append.
        wal::refuse_torn(dir, &self.wal_torn)?;
        // Every fold attempt restarts the threshold count, so a fold that
        // fails is retried one threshold later, not on every append.
        self.wal_stats.since_fold.store(0, Ordering::Release);
        // The records appended since the last fold.  Scanned up front so the
        // checkpoint deltas can be merged into their files before the log is
        // truncated; nothing can append concurrently (save_lock).
        let wal_scan = wal::scan(dir)?;
        // Refuse to clobber a store this build cannot read: the
        // garbage-collection pass below would otherwise silently destroy a
        // newer-format (or foreign) store's spec directories.  Only the
        // `format` field is probed, so the guard also fires for future
        // manifest schemas this build cannot fully parse.  An absent or
        // JSON-invalid manifest is fine — an empty target, or a corrupt
        // store being repaired by a fresh save (delete `manifest.json` to
        // force a save past this guard).
        #[derive(Deserialize)]
        struct FormatProbe {
            #[serde(default)]
            format: u32,
        }
        let manifest_path = dir.join("manifest.json");
        if let Ok(text) = fs::read_to_string(&manifest_path) {
            if let Ok(existing) = serde_json::from_str::<FormatProbe>(&text) {
                if existing.format != STORE_FORMAT {
                    return Err(format_err(
                        &manifest_path,
                        format!(
                            "refusing to overwrite a store of format {} (this build writes \
                             format {STORE_FORMAT}); save into a fresh directory instead",
                            existing.format
                        ),
                    ));
                }
            }
        }
        let specs_root = dir.join("specs");
        self.io.create_dir_all(&specs_root).map_err(|e| io_err(&specs_root, "creating", e))?;

        let snapshot = self.snapshot_all();
        let mut manifest = StoreManifest { format: STORE_FORMAT, specs: Vec::new() };
        let mut total_runs = 0usize;
        let mut used_dirs = std::collections::BTreeSet::new();

        for (name, (spec, runs)) in &snapshot {
            // Error-context label only: the real directory name needs the
            // fingerprint, which is what this step computes, so a rebuild
            // failure is reported against the slug prefix of the spec.
            let fp_hex =
                self.persistent_fingerprint(&specs_root.join(slug(name)), spec)?.to_string();
            // Distinct names can share a slug (and even a structure), so the
            // directory name gets a counter on collision.  A candidate is
            // also bumped when it already exists on disk holding a spec
            // document for a *different name or version* (the 8-hex dir
            // suffix is only a prefix of the full fingerprint): overwriting
            // a committed directory before the new manifest lands would
            // break the crash-safety guarantee (the old manifest must keep
            // pointing at intact directories).  The snapshot is name-sorted,
            // keeping the assignment stable across saves of the same spec
            // set.
            let base = format!("{}-{}", slug(name), &fp_hex[..8]);
            let mut dir_name = base.clone();
            let mut bump = 1usize;
            loop {
                if used_dirs.contains(&dir_name) {
                    bump += 1;
                    dir_name = format!("{base}-{bump}");
                    continue;
                }
                let existing = specs_root.join(&dir_name).join("spec.json");
                let occupied = match fs::read_to_string(&existing) {
                    // Absent spec.json: the slot is free.
                    Err(e) if e.kind() == std::io::ErrorKind::NotFound => false,
                    // Any other read failure (permissions, fd exhaustion, …)
                    // must abort: guessing "free" could overwrite a
                    // committed directory owned by another spec.
                    Err(e) => return Err(io_err(&existing, "probing", e)),
                    Ok(text) => match serde_json::from_str::<SpecDocument>(&text) {
                        Ok(doc) => doc.spec.name != *name || doc.fingerprint != fp_hex,
                        // Corrupt spec.json: no loadable state can
                        // reference this directory, so it is reclaimable.
                        Err(_) => false,
                    },
                };
                if occupied {
                    bump += 1;
                    dir_name = format!("{base}-{bump}");
                    continue;
                }
                break;
            }
            used_dirs.insert(dir_name.clone());
            let spec_dir = specs_root.join(&dir_name);
            let runs_dir = spec_dir.join("runs");
            self.io.create_dir_all(&runs_dir).map_err(|e| io_err(&runs_dir, "creating", e))?;

            let spec_path = spec_dir.join("spec.json");
            write_json_atomic(
                &*self.io,
                &spec_path,
                &SpecDocument {
                    format: STORE_FORMAT,
                    fingerprint: fp_hex.clone(),
                    spec: SpecDescriptor::from_specification(spec),
                },
            )?;

            // One document per run.  The file name is a function of the run
            // name alone (slug + name hash, bumped deterministically on the
            // residual hash collision), so a re-save with a changed run set
            // rewrites surviving runs in place — a crash between the writes
            // and the prune can leave extra or missing documents but never
            // two documents claiming one run name.  The authoritative run
            // name lives inside the document.
            let mut written = std::collections::BTreeSet::new();
            for (run_name, run) in runs.iter() {
                let base = format!("{}-{}", slug(run_name), name_hash(run_name));
                let mut file = format!("{base}.json");
                let mut bump = 1usize;
                while written.contains(&file) {
                    bump += 1;
                    file = format!("{base}-{bump}.json");
                }
                let run_path = runs_dir.join(&file);
                write_json_atomic(
                    &*self.io,
                    &run_path,
                    &RunDocument {
                        format: STORE_FORMAT,
                        name: run_name.clone(),
                        spec_fingerprint: fp_hex.clone(),
                        run: RunDescriptor::from_run(run),
                    },
                )?;
                written.insert(file);
                total_runs += 1;
            }
            // Prune run documents from a previous save of this same spec
            // version that are no longer in the store, plus `.tmp` leftovers
            // of writes that crashed mid-flight (our own temp files were
            // all renamed away by this point).
            for entry in fs::read_dir(&runs_dir).map_err(|e| io_err(&runs_dir, "listing", e))? {
                let entry = entry.map_err(|e| io_err(&runs_dir, "listing", e))?;
                let file_name = entry.file_name().to_string_lossy().into_owned();
                let stale_doc = file_name.ends_with(".json") && !written.contains(&file_name);
                if stale_doc || file_name.ends_with(".tmp") {
                    let stale = entry.path();
                    self.io.remove_file(&stale).map_err(|e| io_err(&stale, "pruning", e))?;
                }
            }

            manifest.specs.push(ManifestSpec {
                name: name.clone(),
                dir: dir_name,
                fingerprint: fp_hex,
            });
        }

        // Fold the WAL's cluster deltas into `cluster_cache.json` before the
        // commit point.  A crash after this merge is safe on both sides of
        // the manifest rename: the checkpoint is validated entry by entry on
        // load, and the still-untruncated WAL replays to the same state.
        // Stream events of the streams still open (a closure marker's events
        // are folded into the finalised run).
        let (streams, _) = wal::open_streams(&wal_scan.records);
        let cluster_deltas = wal_scan
            .records
            .into_iter()
            .filter_map(|record| match record {
                wal::WalRecord::ClusterDelta(delta) => Some(delta),
                _ => None,
            })
            .collect();
        cluster::persist::fold(&*self.io, dir, cluster_deltas)?;

        // Commit point: the manifest rename atomically switches loaders from
        // the previous state to this one.
        write_json_atomic(&*self.io, &dir.join("manifest.json"), &manifest)?;

        // The manifest now holds everything the WAL recorded, so the log is
        // reset.  Streams are WAL-only state — they have no manifest
        // document — so the live records of every still-open stream are
        // kept: the log is replaced by exactly those records, atomically
        // (replay past the *new* manifest is idempotent, so a crash or an
        // error before the replacement loses nothing).  A stream is dropped
        // when one of its records no longer counts (`StoreManifest::lists`),
        // or when its name already denotes a stored run (a finalisation
        // whose closure marker was lost to a crash between the run-insert
        // append and the marker append).
        let survivors: Vec<wal::WalRecord> = streams
            .into_iter()
            .filter(|((spec, stream), group)| {
                group.iter().all(|r| manifest.lists(spec, &r.spec_fingerprint))
                    && self.run(spec, stream).is_none()
            })
            .flat_map(|(_, group)| group.into_iter().map(wal::WalRecord::StreamEvent))
            .collect();
        let stream_bytes = wal::replace(&*self.io, dir, &wal::encode_all(dir, &survivors)?)?;
        self.wal_stats.bytes.store(stream_bytes, Ordering::Release);
        self.wal_stats.folds_total.fetch_add(1, Ordering::AcqRel);

        // Garbage-collect spec directories the new manifest does not
        // reference (left over from replaced spec versions), `.tmp`
        // leftovers of crashed manifest/spec.json writes (the runs/ sweep
        // above covers run documents) and a legacy metric-index checkpoint.
        // Failures here are ignored: the store is already committed and
        // orphans are inert.
        let sweep_tmp = |d: &Path| {
            if let Ok(entries) = fs::read_dir(d) {
                for entry in entries.flatten() {
                    if entry.file_name().to_string_lossy().ends_with(".tmp") {
                        let _ = self.io.remove_file(&entry.path());
                    }
                }
            }
        };
        sweep_tmp(dir);
        let legacy = dir.join(LEGACY_METRIC_INDEX_FILE);
        if legacy.exists() {
            let _ = self.io.remove_file(&legacy);
        }
        if let Ok(entries) = fs::read_dir(&specs_root) {
            let live: std::collections::BTreeSet<&str> =
                manifest.specs.iter().map(|s| s.dir.as_str()).collect();
            for entry in entries.flatten() {
                if !live.contains(entry.file_name().to_string_lossy().as_ref()) {
                    let _ = self.io.remove_dir_all(&entry.path());
                } else {
                    sweep_tmp(&entry.path());
                }
            }
        }

        Ok(SaveSummary { specs: manifest.specs.len(), runs: total_runs })
    }

    /// Makes one run durable by appending a single checksummed record to the
    /// store directory's write-ahead log.  One append plus one fsync,
    /// O(run): no manifest rewrite, no document rename, no checkpoint
    /// rewrite.  The server's `POST /runs` goes through
    /// [`DiffService::commit_run_insert`](crate::service::DiffService::commit_run_insert),
    /// which appends before it publishes; this primitive appends a run the
    /// caller already stored.
    ///
    /// The run must already be stored in (and validated by) this store, and
    /// the directory must hold the **same specification version**: the
    /// manifest entry for `run.spec_name()` must carry the canonical
    /// persistent fingerprint of the stored specification.  A directory
    /// holding a different version (or not holding the specification at
    /// all) is refused with [`PersistError::Format`] — run a full
    /// [`WorkflowStore::save_to_dir`] instead.
    ///
    /// [`WorkflowStore::load_from_dir`] replays the record after the
    /// manifest-committed documents; the next full save folds it into a
    /// regular run document and resets the log (appends past the
    /// [`WorkflowStore::set_wal_fold_threshold`] trigger that fold
    /// themselves).  Once the record is appended the run is durable, so the
    /// call returns `Ok` even when the fold it triggers fails.  Appends take
    /// the store's save lock, so they cannot interleave with an in-flight
    /// save from this process.
    pub fn append_run_to_dir(
        &self,
        dir: impl AsRef<Path>,
        run_name: &str,
        run: &wfdiff_sptree::Run,
    ) -> Result<(), PersistError> {
        let _guard = self.save_lock.lock();
        let dir = Some(dir.as_ref());
        let spec = self.check_insert(run_name, run, true)?;
        self.wal_append_for(dir, &spec, |fp| vec![wal::WalRecord::run_insert(fp, run_name, run)])?;
        self.fold_if_due(dir);
        Ok(())
    }

    /// The stored specification named `spec`, or why there is none.
    fn stored_spec(&self, spec: &str) -> Result<Arc<Specification>, PersistError> {
        Ok(self.spec(spec).ok_or_else(|| StoreError::MissingSpec { name: spec.to_string() })?)
    }

    /// The canonical persistent fingerprint of `spec`.  The descriptor →
    /// specification rebuild behind it repeats the full SP decomposition, so
    /// the result is memoised per in-memory spec version and the descriptor
    /// is only built on a miss; `path` labels a rebuild failure.
    pub(crate) fn persistent_fingerprint(
        &self,
        path: &Path,
        spec: &Specification,
    ) -> Result<Fingerprint, PersistError> {
        if let Some(&fp) = self.persist_fp_cache.lock().get(&spec.fingerprint()) {
            return Ok(fp);
        }
        let (fp, _) = canonical_fingerprint(path, &SpecDescriptor::from_specification(spec))?;
        self.persist_fp_cache.lock().insert(spec.fingerprint(), fp);
        Ok(fp)
    }

    /// Checks that `dir` is a current-format store whose manifest lists the
    /// exact version of `spec` this store holds, and returns the canonical
    /// *persistent* fingerprint (hex) the manifest records — the shared
    /// precondition of every hot-path WAL append.  The caller holds
    /// `save_lock`.
    pub(crate) fn persistent_fp_for_append(
        &self,
        dir: &Path,
        spec: &Specification,
    ) -> Result<String, PersistError> {
        let (manifest_path, manifest) = read_manifest(dir)?;
        let fp_hex = self.persistent_fingerprint(&manifest_path, spec)?.to_string();
        let entry = manifest.specs.iter().find(|s| s.name == spec.name()).ok_or_else(|| {
            format_err(
                &manifest_path,
                format!(
                    "specification {:?} is not in the store directory; run a full save first",
                    spec.name()
                ),
            )
        })?;
        if entry.fingerprint != fp_hex {
            return Err(format_err(
                &manifest_path,
                format!(
                    "the directory holds specification {:?} at version {}, but the store has \
                     version {fp_hex}; run a full save instead of appending",
                    spec.name(),
                    entry.fingerprint
                ),
            ));
        }
        check_dir_component(&manifest_path, &entry.dir)?;
        Ok(fp_hex)
    }

    /// Makes a batch of stream events durable by appending one kind-5 record
    /// per event to the write-ahead log.  One append plus one fsync for the
    /// whole batch; `base_seq` is the stream's event count before the
    /// batch, so record `i` carries sequence `base_seq + i`.  The server's
    /// `POST /runs/stream` goes through
    /// [`DiffService::commit_stream_batch`](crate::service::DiffService::commit_stream_batch).
    ///
    /// In-flight streams are WAL-only state: [`WorkflowStore::load_from_dir`]
    /// counts the records as replayed, and
    /// [`DiffService::load_streams`](crate::service::DiffService::load_streams)
    /// rebuilds the `PartialRun`s from them.  A full save replaces the log
    /// with the records of still-open streams, so they survive folds;
    /// [`WorkflowStore::append_stream_close_to_dir`] marks a
    /// stream finalised, after which its records are dropped.
    ///
    /// Like [`WorkflowStore::append_run_to_dir`], the directory must hold
    /// the same specification version as this store.
    pub fn append_stream_events_to_dir(
        &self,
        dir: impl AsRef<Path>,
        spec: &str,
        stream: &str,
        base_seq: u64,
        events: &[crate::stream::StreamEvent],
    ) -> Result<(), PersistError> {
        let _guard = self.save_lock.lock();
        let dir = Some(dir.as_ref());
        self.wal_append_for(dir, &*self.stored_spec(spec)?, |fp| {
            wal::stream_records(spec, fp, stream, base_seq, events.iter().map(Some))
        })?;
        self.fold_if_due(dir);
        Ok(())
    }

    /// Appends the closure marker of a finalised stream: a kind-5 record
    /// with no event.  From this marker on, the stream's earlier records are
    /// dead — the finalised run was made durable (as a regular run-insert
    /// record) *before* the marker, so a crash between the two merely leaves
    /// an unclosed stream whose name already denotes a stored run, which
    /// both the fold and [`DiffService::load_streams`] treat as closed.
    ///
    /// [`DiffService::load_streams`]: crate::service::DiffService::load_streams
    pub fn append_stream_close_to_dir(
        &self,
        dir: impl AsRef<Path>,
        spec: &str,
        stream: &str,
        seq: u64,
    ) -> Result<(), PersistError> {
        let _guard = self.save_lock.lock();
        let dir = Some(dir.as_ref());
        self.wal_append_for(dir, &*self.stored_spec(spec)?, |fp| {
            wal::stream_records(spec, fp, stream, seq, [None])
        })?;
        self.fold_if_due(dir);
        Ok(())
    }

    /// The append step: the only caller of [`wal::append`].  Appends
    /// `records` to `dir`'s log as one write and one fsync, then counts
    /// them.  A record past the framing bound is refused with
    /// [`PersistError::RecordTooLarge`] before any byte is written, and a
    /// failed write is cut back off the log, so an error leaves the log, the
    /// counters and the store as they were.  The caller holds `save_lock`,
    /// publishes what it appended, then calls
    /// [`WorkflowStore::fold_if_due`].
    pub(crate) fn wal_append(
        &self,
        dir: &Path,
        records: &[wal::Encoded],
    ) -> Result<(), PersistError> {
        let appended = wal::append(&*self.io, dir, records, &self.wal_torn)?;
        self.wal_stats.appends_total.fetch_add(records.len() as u64, Ordering::AcqRel);
        self.wal_stats.bytes.fetch_add(appended, Ordering::AcqRel);
        self.wal_stats.since_fold.fetch_add(appended, Ordering::AcqRel);
        Ok(())
    }

    /// [`WorkflowStore::wal_append`] of the records `build` makes from the
    /// persistent fingerprint of `spec`, once `dir` is checked to hold the
    /// version of `spec` this store holds
    /// ([`WorkflowStore::persistent_fp_for_append`]).  Without a `dir` the
    /// write is in memory only and nothing is appended.
    pub(crate) fn wal_append_for(
        &self,
        dir: Option<&Path>,
        spec: &Specification,
        build: impl FnOnce(&str) -> Vec<wal::WalRecord>,
    ) -> Result<(), PersistError> {
        let Some(dir) = dir else { return Ok(()) };
        let fp_hex = self.persistent_fp_for_append(dir, spec)?;
        self.wal_append(dir, &wal::encode_all(dir, &build(&fp_hex))?)
    }

    /// Folds `dir`'s log into a full checkpoint once the threshold's worth
    /// of bytes has been appended since the last fold attempt, so replay
    /// time stays bounded; the caller holds `save_lock` and has published
    /// what it appended, since the fold snapshots memory.  The trigger
    /// counts appended bytes: every fold carries the records of open
    /// streams over, and counting those would fold on every append.  The
    /// appended records are durable, so a failed fold fails no write; it is
    /// counted in [`WalStatsSnapshot::fold_failures_total`].  Without a
    /// `dir` there is nothing to fold.
    ///
    /// [`WalStatsSnapshot::fold_failures_total`]: crate::wal::WalStatsSnapshot::fold_failures_total
    pub(crate) fn fold_if_due(&self, dir: Option<&Path>) {
        let Some(dir) = dir else { return };
        let threshold = self.wal_fold_threshold.load(Ordering::Acquire);
        let since_fold = self.wal_stats.since_fold.load(Ordering::Acquire);
        if threshold != 0 && since_fold >= threshold && self.save_to_dir_locked(dir).is_err() {
            self.wal_stats.fold_failures_total.fetch_add(1, Ordering::AcqRel);
        }
    }

    /// Loads a store previously written by [`WorkflowStore::save_to_dir`],
    /// validating every document (see the [module docs](self)); corrupt,
    /// truncated, hand-edited or version-mismatched input returns a
    /// [`PersistError`] instead of panicking or loading garbage.
    ///
    /// Each specification's run documents are decoded — read, parsed,
    /// checked and rebuilt with [`RunDescriptor::to_run`] — on one scoped
    /// thread per available CPU.  Duplicate names are then checked and the
    /// runs inserted in sorted file order, so when several documents are
    /// bad the error is the one the first of them in that order raises,
    /// exactly as a one-by-one load would report it.  A panic while
    /// decoding propagates to the caller.
    ///
    /// After the manifest-committed documents, the directory's write-ahead
    /// log is replayed in append order: a torn tail (a crashed append) is
    /// truncated off first, run inserts and removals are re-applied
    /// idempotently, and records against a specification version the
    /// manifest no longer lists are skipped.  The inserted runs are rebuilt
    /// in parallel the same way; the first bad insert in the log fails the
    /// load.  Legacy kind-4 records are stepped over.  The loaded store
    /// keeps the surviving log — its checkpoint deltas feed
    /// [`DiffService::load_cluster_state`](crate::service::DiffService::load_cluster_state),
    /// and the next full save folds everything.
    pub fn load_from_dir(dir: impl AsRef<Path>) -> Result<WorkflowStore, PersistError> {
        WorkflowStore::load_from_dir_with_io(dir, Arc::new(crate::storeio::RealIo))
    }

    /// [`WorkflowStore::load_from_dir`] with an explicit
    /// [`StoreIo`] handle: the torn-tail truncation runs through it, and the
    /// returned store keeps it for every later save/append — the loading
    /// half of the crash-torture seam.
    #[expect(
        clippy::expect_used,
        reason = "the spec lookup runs over the store populated from the same manifest in the loop above, and the rebuilt runs are one per live insert by construction"
    )]
    pub fn load_from_dir_with_io(
        dir: impl AsRef<Path>,
        io: Arc<dyn StoreIo>,
    ) -> Result<WorkflowStore, PersistError> {
        let dir = dir.as_ref();
        let (manifest_path, manifest) = read_manifest(dir)?;

        let store = WorkflowStore::with_io(io);
        let mut seen_spec_names = std::collections::BTreeSet::new();
        for entry in &manifest.specs {
            check_dir_component(&manifest_path, &entry.dir)?;
            if !seen_spec_names.insert(entry.name.clone()) {
                return Err(format_err(
                    &manifest_path,
                    format!("specification {:?} is listed more than once", entry.name),
                ));
            }
            let spec_dir = dir.join("specs").join(&entry.dir);
            let spec_path = spec_dir.join("spec.json");
            let manifest_fp = parse_fingerprint(&manifest_path, &entry.fingerprint)?;

            let doc: SpecDocument = read_json(&spec_path)?;
            if doc.format != STORE_FORMAT {
                return Err(format_err(
                    &spec_path,
                    format!("document format {} (expected {STORE_FORMAT})", doc.format),
                ));
            }
            let doc_fp = parse_fingerprint(&spec_path, &doc.fingerprint)?;
            if doc_fp != manifest_fp {
                return Err(format_err(
                    &spec_path,
                    format!(
                        "fingerprint {} disagrees with the manifest entry {} — the document \
                         was swapped or the manifest is stale",
                        doc.fingerprint, entry.fingerprint
                    ),
                ));
            }
            let (rebuilt_fp, spec) = canonical_fingerprint(&spec_path, &doc.spec)?;
            if rebuilt_fp != doc_fp {
                return Err(format_err(
                    &spec_path,
                    format!(
                        "specification content rebuilds to fingerprint {rebuilt_fp}, not the \
                         recorded {doc_fp} — the document was corrupted or hand-edited"
                    ),
                ));
            }
            if spec.name() != entry.name {
                return Err(format_err(
                    &spec_path,
                    format!(
                        "specification is named {:?} but the manifest lists it as {:?}",
                        spec.name(),
                        entry.name
                    ),
                ));
            }
            let spec_arc = store.insert_spec(spec)?;

            // Runs: every *.json in runs/ is a self-describing document.  A
            // missing runs directory is a spec with no runs, not an error;
            // an entry the listing cannot read fails the load rather than
            // silently losing its run.
            let runs_dir = spec_dir.join("runs");
            let mut run_files: Vec<PathBuf> = Vec::new();
            match fs::read_dir(&runs_dir) {
                Ok(entries) => {
                    for listed in entries {
                        let path = listed.map_err(|e| io_err(&runs_dir, "listing", e))?.path();
                        if path.extension().is_some_and(|ext| ext == "json") {
                            run_files.push(path);
                        }
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(io_err(&runs_dir, "listing", e)),
            }
            run_files.sort();
            // Decode every document on all cores, then check names and
            // insert in sorted file order: the error reported is the one
            // the first failing file in that order raises.
            let decoded = pool::map_ordered(&run_files, pool::cpus(), |run_path| {
                decode_run_document(run_path, manifest_fp, &entry.name, &spec_arc)
            });
            let mut seen_run_names = std::collections::BTreeSet::new();
            for (run_path, decoded) in run_files.iter().zip(decoded) {
                let DecodedRun { name, run } = decoded?;
                if !seen_run_names.insert(name.clone()) {
                    // Two documents claiming one run name would silently
                    // shadow each other (last file wins); refuse instead —
                    // mutually inconsistent documents must fail the load.
                    return Err(format_err(
                        run_path,
                        format!(
                            "run name {name:?} appears in more than one document of this \
                             specification; delete one of the duplicates"
                        ),
                    ));
                }
                store.insert_run(&name, run?)?;
            }
        }

        // Replay the write-ahead log past the manifest commit point.  A
        // torn tail — the only damage a crashed append can do — is
        // truncated off first; valid records are applied in append order.
        let wal_scan = wal::scan(dir)?;
        if wal_scan.valid_len < wal_scan.total_len {
            wal::truncate_to(&*store.io, dir, wal_scan.valid_len)?;
        }
        let wal_file = wal::wal_path(dir);
        // The record carries the persistent fingerprint it was validated
        // against; a manifest that has since moved to another spec version
        // (or dropped the spec) makes the record stale — skipped, exactly
        // like a stale run document would be pruned by the next save.
        let live = |r: &wal::RunInsertRecord| manifest.lists(&r.spec, &r.spec_fingerprint);
        // Rebuild the live inserts' runs on all cores; every record is
        // then applied in append order, so the first bad insert in the log
        // is the error reported.
        let inserts: Vec<(&wal::RunInsertRecord, Arc<Specification>)> = wal_scan
            .records
            .iter()
            .filter_map(|record| match record {
                wal::WalRecord::RunInsert(insert) if live(insert) => Some(insert),
                _ => None,
            })
            .map(|insert| {
                let spec = store
                    .spec(&insert.spec)
                    .expect("every manifest-listed specification was just loaded");
                (insert, spec)
            })
            .collect();
        let mut rebuilt = pool::map_ordered(&inserts, pool::cpus(), |(insert, spec)| {
            insert
                .run
                .to_run(spec)
                .map_err(|source| PersistError::Tree { path: wal_file.clone(), source })
        })
        .into_iter();
        let mut replayed = 0u64;
        for record in &wal_scan.records {
            match record {
                wal::WalRecord::RunInsert(insert) => {
                    if !live(insert) {
                        continue;
                    }
                    let run = rebuilt.next().expect("one rebuilt run per live insert")?;
                    // Replaces any manifest-committed document of the same
                    // name — the WAL is newer by construction.
                    store.insert_run(&insert.name, run)?;
                    replayed += 1;
                }
                wal::WalRecord::RunRemove(remove) => {
                    store.remove_run(&remove.spec, &remove.name);
                    replayed += 1;
                }
                // Consumed by `DiffService::load_cluster_state`, which
                // overlays deltas on the checkpoint file and validates the
                // result against this store.
                wal::WalRecord::ClusterDelta(_) => replayed += 1,
                // Consumed by `DiffService::load_streams`, which rebuilds
                // the in-flight `PartialRun`s from these records.
                wal::WalRecord::StreamEvent(_) => replayed += 1,
            }
        }
        store.wal_stats.replayed_records.store(replayed, Ordering::Release);
        store.wal_stats.bytes.store(wal_scan.valid_len, Ordering::Release);
        store.wal_stats.since_fold.store(wal_scan.valid_len, Ordering::Release);
        Ok(store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::DiffService;
    use crate::storeio::RealIo;
    use std::sync::Arc;
    use wfdiff_workloads::figures::{fig2_run1, fig2_run2, fig2_run3, fig2_specification};

    /// A scratch directory that cleans up after itself.
    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> TempDir {
            let path =
                std::env::temp_dir().join(format!("wfdiff-persist-{tag}-{}", std::process::id()));
            let _ = fs::remove_dir_all(&path);
            fs::create_dir_all(&path).unwrap();
            TempDir(path)
        }

        fn path(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    fn seeded_store() -> Arc<WorkflowStore> {
        let store = Arc::new(WorkflowStore::new());
        let spec = store.insert_spec(fig2_specification()).unwrap();
        store.insert_run("r1", fig2_run1(&spec)).unwrap();
        store.insert_run("r2", fig2_run2(&spec)).unwrap();
        store.insert_run("r3", fig2_run3(&spec)).unwrap();
        store
    }

    #[test]
    fn save_load_roundtrip_preserves_distances() {
        let dir = TempDir::new("roundtrip");
        let store = seeded_store();
        let summary = store.save_to_dir(dir.path()).unwrap();
        assert_eq!(summary, SaveSummary { specs: 1, runs: 3 });

        let loaded = Arc::new(WorkflowStore::load_from_dir(dir.path()).unwrap());
        assert_eq!(loaded.spec_names(), vec!["fig2".to_string()]);
        assert_eq!(loaded.run_count(), 3);

        let before = DiffService::new(Arc::clone(&store)).diff_all_pairs("fig2").unwrap();
        let after = DiffService::new(Arc::clone(&loaded)).diff_all_pairs("fig2").unwrap();
        assert_eq!(before.runs, after.runs);
        assert_eq!(before.matrix, after.matrix, "distances survive persistence exactly");
    }

    #[test]
    fn resave_prunes_removed_runs_and_replaced_specs() {
        let dir = TempDir::new("resave");
        let store = seeded_store();
        store.save_to_dir(dir.path()).unwrap();

        store.remove_run("fig2", "r2");
        let summary = store.save_to_dir(dir.path()).unwrap();
        assert_eq!(summary.runs, 2);
        let loaded = WorkflowStore::load_from_dir(dir.path()).unwrap();
        assert_eq!(loaded.run_names("fig2"), vec!["r1".to_string(), "r3".to_string()]);

        // Replace the spec (new fingerprint → new directory); the old spec
        // directory is garbage-collected after the manifest commit.
        let mut b = wfdiff_sptree::SpecificationBuilder::new("fig2");
        b.path(&["1", "2", "6", "7"]);
        store.replace_spec(b.build().unwrap());
        store.save_to_dir(dir.path()).unwrap();
        let loaded = WorkflowStore::load_from_dir(dir.path()).unwrap();
        assert_eq!(loaded.run_count(), 0);
        let dirs: Vec<_> = fs::read_dir(dir.path().join("specs"))
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(dirs.len(), 1, "the replaced spec version's directory was collected");
    }

    #[test]
    fn appended_run_documents_are_picked_up_without_a_manifest_rewrite() {
        let dir = TempDir::new("append");
        let store = seeded_store();
        store.save_to_dir(dir.path()).unwrap();

        // Simulate an external appender: write one more run document into
        // the spec's runs directory, touching nothing else.
        let manifest: StoreManifest = read_json(&dir.path().join("manifest.json")).unwrap();
        let spec_dir = dir.path().join("specs").join(&manifest.specs[0].dir);
        let spec = store.spec("fig2").unwrap();
        let doc = RunDocument {
            format: STORE_FORMAT,
            name: "appended".to_string(),
            spec_fingerprint: manifest.specs[0].fingerprint.clone(),
            run: RunDescriptor::from_run(&fig2_run1(&spec)),
        };
        write_json_atomic(&RealIo, &spec_dir.join("runs").join("zz-appended.json"), &doc).unwrap();

        let loaded = WorkflowStore::load_from_dir(dir.path()).unwrap();
        assert_eq!(loaded.run_count(), 4);
        assert!(loaded.run("fig2", "appended").is_some());
    }

    #[test]
    fn corrupt_documents_are_rejected_with_context() {
        let dir = TempDir::new("corrupt");
        let store = seeded_store();
        store.save_to_dir(dir.path()).unwrap();
        let manifest: StoreManifest = read_json(&dir.path().join("manifest.json")).unwrap();
        let spec_dir = dir.path().join("specs").join(&manifest.specs[0].dir);

        // Truncated spec document → JSON error naming the file.
        let spec_path = spec_dir.join("spec.json");
        let original = fs::read_to_string(&spec_path).unwrap();
        fs::write(&spec_path, &original[..original.len() / 2]).unwrap();
        let err = WorkflowStore::load_from_dir(dir.path()).unwrap_err();
        assert!(matches!(err, PersistError::Json { .. }), "got {err}");
        assert!(err.to_string().contains("spec.json"));
        fs::write(&spec_path, &original).unwrap();

        // Hand-edited spec content → fingerprint mismatch.
        fs::write(&spec_path, original.replace("\"1\"", "\"1x\"")).unwrap();
        let err = WorkflowStore::load_from_dir(dir.path()).unwrap_err();
        assert!(matches!(err, PersistError::Format { .. }), "got {err}");
        assert!(err.to_string().contains("fingerprint"));
        fs::write(&spec_path, &original).unwrap();

        // Out-of-range node index in a run document → SpTreeError with the
        // file attached, not a panic.
        let run_path = fs::read_dir(spec_dir.join("runs"))
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| p.extension().is_some_and(|e| e == "json"))
            .unwrap();
        let run_text = fs::read_to_string(&run_path).unwrap();
        let mut doc: RunDocument = serde_json::from_str(&run_text).unwrap();
        doc.run.edges.push((9999, 0));
        fs::write(&run_path, serde_json::to_string_pretty(&doc).unwrap()).unwrap();
        let err = WorkflowStore::load_from_dir(dir.path()).unwrap_err();
        assert!(matches!(err, PersistError::Tree { .. }), "got {err}");
        fs::write(&run_path, &run_text).unwrap();

        // Stale run from another spec version → version mismatch.
        let mut doc: RunDocument = serde_json::from_str(&run_text).unwrap();
        doc.spec_fingerprint = format!("{:032x}", 0xdead_beefu128);
        fs::write(&run_path, serde_json::to_string_pretty(&doc).unwrap()).unwrap();
        let err = WorkflowStore::load_from_dir(dir.path()).unwrap_err();
        assert!(err.to_string().contains("spec replacement"), "got {err}");
        fs::write(&run_path, &run_text).unwrap();

        // The repaired directory loads again.
        assert_eq!(WorkflowStore::load_from_dir(dir.path()).unwrap().run_count(), 3);
    }

    #[test]
    fn the_first_bad_run_document_in_file_order_fails_the_load() {
        // Documents decode in parallel; the error must still be the one a
        // one-by-one load in sorted file order meets first.
        let dir = TempDir::new("first-error");
        let store = Arc::new(WorkflowStore::new());
        let spec = store.insert_spec(fig2_specification()).unwrap();
        let shapes = [fig2_run1(&spec), fig2_run2(&spec), fig2_run3(&spec)];
        for i in 0..9 {
            store.insert_run(&format!("r{i}"), shapes[i % 3].clone()).unwrap();
        }
        store.save_to_dir(dir.path()).unwrap();
        let manifest: StoreManifest = read_json(&dir.path().join("manifest.json")).unwrap();
        let mut files: Vec<PathBuf> =
            fs::read_dir(dir.path().join("specs").join(&manifest.specs[0].dir).join("runs"))
                .unwrap()
                .map(|e| e.unwrap().path())
                .collect();
        files.sort();
        assert_eq!(files.len(), 9);
        let (third, seventh) = (&files[2], &files[6]);

        let mut doc: RunDocument = read_json(third).unwrap();
        let bad_fp = format!("{:032x}", 0xdead_beefu128);
        doc.spec_fingerprint = bad_fp.clone();
        fs::write(third, serde_json::to_string_pretty(&doc).unwrap()).unwrap();
        let text = fs::read_to_string(seventh).unwrap();
        fs::write(seventh, &text[..text.len() / 2]).unwrap();

        let expected = format!(
            "malformed store document {}: run {:?} was saved against specification version \
             {bad_fp}, but the stored specification is version {}; the run predates a spec \
             replacement and must be regenerated",
            third.display(),
            doc.name,
            manifest.specs[0].fingerprint
        );
        for _ in 0..8 {
            let err = WorkflowStore::load_from_dir(dir.path()).unwrap_err();
            assert!(matches!(err, PersistError::Format { .. }), "got {err}");
            assert_eq!(err.to_string(), expected);
        }
        // With the third file repaired, the seventh's truncation is next.
        doc.spec_fingerprint = manifest.specs[0].fingerprint.clone();
        fs::write(third, serde_json::to_string_pretty(&doc).unwrap()).unwrap();
        let err = WorkflowStore::load_from_dir(dir.path()).unwrap_err();
        assert!(matches!(&err, PersistError::Json { path, .. } if path == seventh), "got {err}");
    }

    #[test]
    fn the_first_bad_wal_insert_in_append_order_fails_the_load() {
        let dir = TempDir::new("first-wal-error");
        let store = seeded_store();
        store.save_to_dir(dir.path()).unwrap();
        let spec = store.spec("fig2").unwrap();
        let run = store.insert_run("r4", fig2_run1(&spec)).unwrap();
        store.append_run_to_dir(dir.path(), "r4", &run).unwrap();
        // Two inserts that do not rebuild, each failing its own way.
        let fp = store.persistent_fp_for_append(dir.path(), &spec).unwrap();
        let mut out_of_range = RunDescriptor::from_run(&run);
        out_of_range.edges.push((9999, 0));
        let mut foreign_label = RunDescriptor::from_run(&run);
        foreign_label.nodes[1] = "not-in-fig2".to_string();
        let insert = |name: &str, run: &RunDescriptor| {
            wal::WalRecord::RunInsert(wal::RunInsertRecord {
                spec: "fig2".to_string(),
                spec_fingerprint: fp.clone(),
                name: name.to_string(),
                run: run.clone(),
            })
        };
        let records = [insert("bad1", &out_of_range), insert("bad2", &foreign_label)];
        store.wal_append(dir.path(), &wal::encode_all(dir.path(), &records).unwrap()).unwrap();

        let expected = PersistError::Tree {
            path: wal::wal_path(dir.path()),
            source: out_of_range.to_run(&spec).unwrap_err(),
        }
        .to_string();
        assert!(expected.contains("node index outside"), "{expected}");
        for _ in 0..8 {
            let err = WorkflowStore::load_from_dir(dir.path()).unwrap_err();
            assert!(matches!(err, PersistError::Tree { .. }), "got {err}");
            assert_eq!(err.to_string(), expected);
        }
    }

    #[test]
    fn unsupported_versions_and_unsafe_dirs_are_rejected() {
        let dir = TempDir::new("versions");
        seeded_store().save_to_dir(dir.path()).unwrap();
        let manifest_path = dir.path().join("manifest.json");
        let original = fs::read_to_string(&manifest_path).unwrap();

        fs::write(&manifest_path, original.replace("\"format\": 1", "\"format\": 99")).unwrap();
        let err = WorkflowStore::load_from_dir(dir.path()).unwrap_err();
        assert!(err.to_string().contains("format 99"));
        // Saving over a store of another format is refused too: the save's
        // garbage-collection would destroy data this build cannot load.
        let err = seeded_store().save_to_dir(dir.path()).unwrap_err();
        assert!(err.to_string().contains("refusing to overwrite"), "got {err}");

        // A manifest smuggling a path-traversal directory entry is refused
        // — including Windows drive-relative prefixes.
        for evil in ["../outside", "C:evil", "a/b", "a\\b", ""] {
            let mut manifest: StoreManifest = serde_json::from_str(&original).unwrap();
            manifest.specs[0].dir = evil.to_string();
            fs::write(&manifest_path, serde_json::to_string_pretty(&manifest).unwrap()).unwrap();
            let err = WorkflowStore::load_from_dir(dir.path()).unwrap_err();
            assert!(err.to_string().contains("plain directory name"), "{evil:?}: got {err}");
        }

        // Missing manifest: not a store directory.
        fs::remove_file(&manifest_path).unwrap();
        assert!(matches!(WorkflowStore::load_from_dir(dir.path()), Err(PersistError::Io { .. })));
    }

    #[test]
    fn run_file_names_are_stable_across_resaves() {
        // File names must be a function of the run name alone: if removing
        // a run shifted the other runs' documents to different file names,
        // a crash between the rewrite and the prune would leave two
        // documents with one run name and the store would refuse to load.
        let dir = TempDir::new("stable-names");
        let store = seeded_store();
        store.save_to_dir(dir.path()).unwrap();
        let manifest: StoreManifest = read_json(&dir.path().join("manifest.json")).unwrap();
        let runs_dir = dir.path().join("specs").join(&manifest.specs[0].dir).join("runs");
        let files = |dir: &Path| -> std::collections::BTreeSet<String> {
            fs::read_dir(dir)
                .unwrap()
                .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
                .collect()
        };
        let before = files(&runs_dir);
        assert_eq!(before.len(), 3);

        store.remove_run("fig2", "r2");
        store.save_to_dir(dir.path()).unwrap();
        let after = files(&runs_dir);
        assert_eq!(after.len(), 2);
        assert!(after.is_subset(&before), "surviving runs kept their file names: {after:?}");
    }

    #[test]
    fn crashed_tmp_files_are_swept_by_the_next_save() {
        let dir = TempDir::new("tmp-sweep");
        let store = seeded_store();
        store.save_to_dir(dir.path()).unwrap();
        let manifest: StoreManifest = read_json(&dir.path().join("manifest.json")).unwrap();
        let runs_dir = dir.path().join("specs").join(&manifest.specs[0].dir).join("runs");
        // A write that crashed between create and rename leaves a .tmp file.
        let orphan = runs_dir.join("gone-00000000.json.tmp");
        fs::write(&orphan, "{").unwrap();
        store.save_to_dir(dir.path()).unwrap();
        assert!(!orphan.exists(), "stale tmp files are swept");
        assert_eq!(WorkflowStore::load_from_dir(dir.path()).unwrap().run_count(), 3);
    }

    #[test]
    fn duplicate_run_documents_fail_the_load() {
        let dir = TempDir::new("dup-run");
        let store = seeded_store();
        store.save_to_dir(dir.path()).unwrap();
        let manifest: StoreManifest = read_json(&dir.path().join("manifest.json")).unwrap();
        let spec_dir = dir.path().join("specs").join(&manifest.specs[0].dir);
        // An appended document reusing the name "r1" must not silently
        // shadow the original r1 (its file sorts last and would win).
        let spec = store.spec("fig2").unwrap();
        let doc = RunDocument {
            format: STORE_FORMAT,
            name: "r1".to_string(),
            spec_fingerprint: manifest.specs[0].fingerprint.clone(),
            run: RunDescriptor::from_run(&fig2_run2(&spec)),
        };
        write_json_atomic(&RealIo, &spec_dir.join("runs").join("zz-dup.json"), &doc).unwrap();
        let err = WorkflowStore::load_from_dir(dir.path()).unwrap_err();
        assert!(matches!(err, PersistError::Format { .. }), "got {err}");
        assert!(err.to_string().contains("more than one document"), "got {err}");
    }

    #[test]
    fn save_never_overwrites_a_directory_owned_by_another_spec() {
        // "pipeline v1" and "pipeline_v1" share a slug; give them the same
        // structure so they also share a fingerprint — and therefore compete
        // for the same directory name.
        let dir = TempDir::new("dir-owner");
        let build = |name: &str| {
            let mut b = wfdiff_sptree::SpecificationBuilder::new(name);
            b.path(&["a", "b", "c"]);
            b.build().unwrap()
        };
        let store = WorkflowStore::new();
        store.insert_spec(build("pipeline v1")).unwrap();
        store.insert_spec(build("pipeline_v1")).unwrap();
        store.save_to_dir(dir.path()).unwrap();
        let manifest: StoreManifest = read_json(&dir.path().join("manifest.json")).unwrap();
        let dir_of = |m: &StoreManifest, name: &str| {
            m.specs.iter().find(|s| s.name == name).unwrap().dir.clone()
        };
        let kept_dir = dir_of(&manifest, "pipeline_v1");
        assert_ne!(kept_dir, dir_of(&manifest, "pipeline v1"));

        // Removing the first claimant must not let the survivor migrate
        // into (and overwrite) the first one's still-committed directory.
        store.remove_spec("pipeline v1");
        store.save_to_dir(dir.path()).unwrap();
        let manifest: StoreManifest = read_json(&dir.path().join("manifest.json")).unwrap();
        assert_eq!(dir_of(&manifest, "pipeline_v1"), kept_dir);
        assert_eq!(WorkflowStore::load_from_dir(dir.path()).unwrap().spec_names().len(), 1);
    }

    #[test]
    fn appended_runs_survive_a_reload_and_a_resave() {
        let dir = TempDir::new("append-api");
        let store = seeded_store();
        store.save_to_dir(dir.path()).unwrap();

        // Append through the public API (the server's POST /runs path):
        // one WAL record, no manifest rewrite.
        let manifest_before = fs::read(dir.path().join("manifest.json")).unwrap();
        let spec = store.spec("fig2").unwrap();
        let run = store.insert_run("r4", fig2_run1(&spec)).unwrap();
        store.append_run_to_dir(dir.path(), "r4", &run).unwrap();
        assert_eq!(fs::read(dir.path().join("manifest.json")).unwrap(), manifest_before);
        assert_eq!(crate::wal::inspect(dir.path()).unwrap().run_inserts, 1);

        let loaded = WorkflowStore::load_from_dir(dir.path()).unwrap();
        assert_eq!(loaded.run_count(), 4);
        assert!(loaded.run("fig2", "r4").is_some());
        assert_eq!(loaded.wal_stats().replayed_records, 1);

        // A later full save folds the log: the run becomes a regular
        // document and the WAL resets to empty.
        store.save_to_dir(dir.path()).unwrap();
        assert_eq!(crate::wal::inspect(dir.path()).unwrap().records, 0);
        assert_eq!(store.wal_stats().bytes, 0);
        assert_eq!(WorkflowStore::load_from_dir(dir.path()).unwrap().run_count(), 4);

        // Re-appending the same run name replaces it at replay time.
        store.append_run_to_dir(dir.path(), "r4", &run).unwrap();
        store.append_run_to_dir(dir.path(), "r4", &run).unwrap();
        assert_eq!(WorkflowStore::load_from_dir(dir.path()).unwrap().run_count(), 4);
    }

    /// [`RealIo`], except that appends to `wal.log` write half their bytes
    /// and fail, and truncating it fails: a failed append that cannot be
    /// cut back.
    #[derive(Debug)]
    struct UncuttableLog;

    impl UncuttableLog {
        fn log(path: &Path) -> bool {
            path.file_name().is_some_and(|n| n == wal::WAL_FILE)
        }
    }

    impl StoreIo for UncuttableLog {
        fn create_dir_all(&self, path: &Path) -> std::io::Result<()> {
            RealIo.create_dir_all(path)
        }
        fn write_file(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
            RealIo.write_file(path, bytes)
        }
        fn append_file(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
            if !Self::log(path) {
                return RealIo.append_file(path, bytes);
            }
            RealIo.append_file(path, &bytes[..bytes.len() / 2])?;
            Err(std::io::Error::other("injected append failure"))
        }
        fn fsync_file(&self, path: &Path) -> std::io::Result<()> {
            RealIo.fsync_file(path)
        }
        fn fsync_dir(&self, path: &Path) -> std::io::Result<()> {
            RealIo.fsync_dir(path)
        }
        fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
            RealIo.rename(from, to)
        }
        fn remove_file(&self, path: &Path) -> std::io::Result<()> {
            RealIo.remove_file(path)
        }
        fn remove_dir_all(&self, path: &Path) -> std::io::Result<()> {
            RealIo.remove_dir_all(path)
        }
        fn truncate_file(&self, path: &Path, len: u64) -> std::io::Result<()> {
            if Self::log(path) {
                return Err(std::io::Error::other("injected truncate failure"));
            }
            RealIo.truncate_file(path, len)
        }
    }

    #[test]
    fn a_failed_cut_refuses_every_later_append_until_a_reload() {
        let dir = TempDir::new("uncut");
        seeded_store().save_to_dir(dir.path()).unwrap();
        let store = WorkflowStore::load_from_dir_with_io(dir.path(), Arc::new(UncuttableLog))
            .expect("a clean directory loads");
        let run = fig2_run3(&store.spec("fig2").unwrap());
        let err = store.append_run_to_dir(dir.path(), "r4", &run).unwrap_err().to_string();
        assert!(err.contains("injected append failure"), "{err}");
        assert!(err.contains("cutting the failed append back off the log failed too"), "{err}");
        assert!(wal::inspect(dir.path()).unwrap().torn_bytes > 0);

        // The log may end in bytes nobody acknowledged: every later write
        // is refused before it reaches the I/O, and so is a save.
        for refused in [
            store.append_stream_events_to_dir(dir.path(), "fig2", "s1", 0, &[]),
            store.append_stream_close_to_dir(dir.path(), "fig2", "s1", 0),
            store.save_to_dir(dir.path()).map(|_| ()),
        ] {
            let err = refused.unwrap_err().to_string();
            assert!(err.contains("refuses writes until it is reloaded"), "{err}");
        }

        // A reload truncates the torn tail, and the reloaded store appends.
        let reloaded = WorkflowStore::load_from_dir(dir.path()).unwrap();
        assert_eq!(wal::inspect(dir.path()).unwrap().torn_bytes, 0);
        assert!(reloaded.run("fig2", "r4").is_none());
        let run = fig2_run3(&reloaded.spec("fig2").unwrap());
        reloaded.append_run_to_dir(dir.path(), "r4", &run).unwrap();
        assert!(WorkflowStore::load_from_dir(dir.path()).unwrap().run("fig2", "r4").is_some());
    }

    #[test]
    fn an_over_bound_record_is_refused_and_the_next_write_commits() {
        let dir = TempDir::new("over-bound");
        seeded_store().save_to_dir(dir.path()).unwrap();
        let store = Arc::new(WorkflowStore::load_from_dir(dir.path()).unwrap());
        // A cluster delta one byte past the framing bound, sent through the
        // append step the way a checkpoint sends it.
        let over = (wal::KIND_CLUSTER_DELTA, "x".repeat(wal::MAX_RECORD_BYTES as usize));
        let refused = {
            let _save = store.save_lock.lock();
            store.wal_append(dir.path(), &[over])
        };
        let err = refused.unwrap_err();
        assert!(matches!(err, PersistError::RecordTooLarge { .. }), "{err}");
        assert_eq!(wal::inspect(dir.path()).unwrap(), wal::WalSummary::default());
        assert_eq!(store.wal_stats().appends_total, 0);

        // Nothing is poisoned: the next write commits and survives a reload.
        let service = DiffService::new(Arc::clone(&store));
        let run = fig2_run1(&store.spec("fig2").unwrap());
        service.commit_run_insert(Some(dir.path()), "r4", run).unwrap();
        assert_eq!(store.wal_stats().appends_total, 1);
        assert!(WorkflowStore::load_from_dir(dir.path()).unwrap().run("fig2", "r4").is_some());
    }

    #[test]
    fn removals_and_torn_tails_replay_correctly() {
        let dir = TempDir::new("wal-remove");
        let store = seeded_store();
        store.save_to_dir(dir.path()).unwrap();
        let service = DiffService::new(Arc::clone(&store));
        assert!(service.commit_run_removal(Some(dir.path()), "fig2", "r2").unwrap());
        assert!(store.run("fig2", "r2").is_none());
        let loaded = WorkflowStore::load_from_dir(dir.path()).unwrap();
        assert_eq!(loaded.run_names("fig2"), vec!["r1".to_string(), "r3".to_string()]);

        // A torn tail (half-written record) is truncated on load and the
        // valid prefix still replays.
        use std::io::Write as _;
        let wal_file = dir.path().join(crate::wal::WAL_FILE);
        let mut f = fs::OpenOptions::new().append(true).open(&wal_file).unwrap();
        f.write_all(&[0x55; 13]).unwrap();
        drop(f);
        assert_eq!(crate::wal::inspect(dir.path()).unwrap().torn_bytes, 13);
        let loaded = WorkflowStore::load_from_dir(dir.path()).unwrap();
        assert_eq!(loaded.run_names("fig2"), vec!["r1".to_string(), "r3".to_string()]);
        assert_eq!(
            crate::wal::inspect(dir.path()).unwrap().torn_bytes,
            0,
            "load repaired the file"
        );

        // Removing a run the store does not hold, or one of a specification
        // it does not hold, appends nothing.
        let before = fs::metadata(&wal_file).unwrap().len();
        assert!(!service.commit_run_removal(Some(dir.path()), "fig2", "ghost").unwrap());
        assert!(!service.commit_run_removal(Some(dir.path()), "no-such-spec", "r1").unwrap());
        assert_eq!(fs::metadata(&wal_file).unwrap().len(), before);
        assert_eq!(WorkflowStore::load_from_dir(dir.path()).unwrap().run_count(), 2);
    }

    #[test]
    fn threshold_folds_absorb_the_wal_into_a_checkpoint() {
        let dir = TempDir::new("wal-threshold");
        let store = seeded_store();
        store.save_to_dir(dir.path()).unwrap();
        store.set_wal_fold_threshold(1); // every append folds immediately
        let spec = store.spec("fig2").unwrap();
        let run = store.insert_run("r4", fig2_run1(&spec)).unwrap();
        store.append_run_to_dir(dir.path(), "r4", &run).unwrap();
        assert_eq!(crate::wal::inspect(dir.path()).unwrap().records, 0, "append folded");
        assert_eq!(store.wal_stats().bytes, 0);
        assert!(store.wal_stats().folds_total >= 2);
        let loaded = WorkflowStore::load_from_dir(dir.path()).unwrap();
        assert_eq!(loaded.run_count(), 4);
        assert_eq!(loaded.wal_stats().replayed_records, 0);
    }

    #[test]
    fn the_fold_trigger_counts_bytes_appended_since_the_last_fold() {
        let dir = TempDir::new("wal-trigger");
        let store = seeded_store();
        store.save_to_dir(dir.path()).unwrap();
        // An open stream, whose records every fold carries over (the fold
        // copies them without replaying them, so any events do).
        let events: Vec<crate::stream::StreamEvent> =
            (0..64).map(crate::stream::StreamEvent::completed).collect();
        store.append_stream_events_to_dir(dir.path(), "fig2", "open", 0, &events).unwrap();
        store.save_to_dir(dir.path()).unwrap();
        let stream_bytes = store.wal_stats().bytes;

        let spec = store.spec("fig2").unwrap();
        let append = |name: &str| {
            let run = store.insert_run(name, fig2_run1(&spec)).unwrap();
            store.append_run_to_dir(dir.path(), name, &run).unwrap();
        };
        append("r04");
        let record = store.wal_stats().bytes - stream_bytes;
        store.save_to_dir(dir.path()).unwrap();
        assert_eq!(store.wal_stats().bytes, stream_bytes, "the fold carried the stream over");

        // The threshold lies between one run record and the stream's
        // records: every fold is followed by three appends that do not fold.
        let threshold = 3 * record + record / 2;
        assert!(threshold < stream_bytes, "{threshold} vs {stream_bytes}");
        store.set_wal_fold_threshold(threshold);
        let folds = store.wal_stats().folds_total;
        for (i, name) in ["r05", "r06", "r07", "r08", "r09", "r10", "r11", "r12"].iter().enumerate()
        {
            append(name);
            let expected = folds + (i as u64 + 1) / 4;
            assert_eq!(store.wal_stats().folds_total, expected, "after appending {name}");
        }
        assert_eq!(store.wal_stats().bytes, stream_bytes);
        let loaded = WorkflowStore::load_from_dir(dir.path()).unwrap();
        assert_eq!(loaded.run_count(), 12);
    }

    #[test]
    fn stale_wal_records_from_a_replaced_spec_are_skipped() {
        let dir = TempDir::new("wal-stale");
        let store = seeded_store();
        store.save_to_dir(dir.path()).unwrap();
        let spec = store.spec("fig2").unwrap();
        let run = store.insert_run("r4", fig2_run1(&spec)).unwrap();
        store.append_run_to_dir(dir.path(), "r4", &run).unwrap();

        // Simulate the crash window after a spec replacement's manifest
        // commit but before the WAL truncation: the old record survives in
        // the log while the manifest lists a different fingerprint.
        let wal_bytes = fs::read(dir.path().join(crate::wal::WAL_FILE)).unwrap();
        let mut b = wfdiff_sptree::SpecificationBuilder::new("fig2");
        b.path(&["1", "2", "6", "7"]);
        store.replace_spec(b.build().unwrap());
        store.save_to_dir(dir.path()).unwrap();
        fs::write(dir.path().join(crate::wal::WAL_FILE), &wal_bytes).unwrap();

        let loaded = WorkflowStore::load_from_dir(dir.path()).unwrap();
        assert_eq!(loaded.run_count(), 0, "records against the old spec version are skipped");
    }

    #[test]
    fn appends_into_foreign_or_stale_directories_are_refused() {
        let dir = TempDir::new("append-refuse");
        let store = seeded_store();
        let spec = store.spec("fig2").unwrap();
        let run = store.insert_run("r4", fig2_run1(&spec)).unwrap();

        // No manifest at all: not a store directory.
        let err = store.append_run_to_dir(dir.path(), "r4", &run).unwrap_err();
        assert!(matches!(err, PersistError::Io { .. }), "got {err}");

        // A directory holding a *different* version of the spec.
        let other = Arc::new(WorkflowStore::new());
        let mut b = wfdiff_sptree::SpecificationBuilder::new("fig2");
        b.path(&["1", "2", "6", "7"]);
        other.insert_spec(b.build().unwrap()).unwrap();
        other.save_to_dir(dir.path()).unwrap();
        let err = store.append_run_to_dir(dir.path(), "r4", &run).unwrap_err();
        assert!(err.to_string().contains("full save"), "got {err}");

        // A directory without the specification.
        let empty_dir = TempDir::new("append-empty");
        Arc::new(WorkflowStore::new()).save_to_dir(empty_dir.path()).unwrap();
        let err = store.append_run_to_dir(empty_dir.path(), "r4", &run).unwrap_err();
        assert!(err.to_string().contains("not in the store directory"), "got {err}");

        // A run whose spec is not in the *store* any more.
        store.remove_spec("fig2");
        let err = store.append_run_to_dir(dir.path(), "r4", &run).unwrap_err();
        assert!(matches!(err, PersistError::Store { .. }), "got {err}");
    }

    #[test]
    fn empty_store_roundtrips() {
        let dir = TempDir::new("empty");
        let store = WorkflowStore::new();
        assert_eq!(store.save_to_dir(dir.path()).unwrap(), SaveSummary { specs: 0, runs: 0 });
        let loaded = WorkflowStore::load_from_dir(dir.path()).unwrap();
        assert!(loaded.spec_names().is_empty());
    }

    #[test]
    fn slugs_tame_hostile_names() {
        let dir = TempDir::new("slugs");
        let store = WorkflowStore::new();
        let mut b = wfdiff_sptree::SpecificationBuilder::new("../we ird/√name");
        b.path(&["a", "b"]);
        let spec = store.insert_spec(b.build().unwrap()).unwrap();
        store
            .insert_run("run/with/slashes", spec.execute(&mut wfdiff_sptree::FullDecider).unwrap())
            .unwrap();
        store.save_to_dir(dir.path()).unwrap();
        let loaded = WorkflowStore::load_from_dir(dir.path()).unwrap();
        assert_eq!(loaded.spec_names(), vec!["../we ird/√name".to_string()]);
        assert!(loaded.run("../we ird/√name", "run/with/slashes").is_some());
    }
}
