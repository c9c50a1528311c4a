//! Pluggable durability I/O — the seam the crash-torture harness injects
//! faults through.
//!
//! Every operation the persistence stack relies on for durability or
//! atomicity (directory creation, full-file and append writes, fsyncs,
//! renames, removals, truncations) is routed through the [`StoreIo`] trait
//! instead of being called on `std::fs` directly.  Reads are deliberately
//! *not* abstracted: a crash can only lose or tear what was being written.
//!
//! Two implementations ship:
//!
//! * [`RealIo`] — the passthrough to `std::fs`, the default of every
//!   [`WorkflowStore`](crate::store::WorkflowStore).
//! * [`FaultIo`] — a deterministic crash injector: it counts the durability
//!   operations flowing through it and, at the configured N-th operation,
//!   kills the process ([`FaultMode::Kill`]), writes a torn byte prefix and
//!   then kills the process ([`FaultMode::Torn`]), or returns an I/O error
//!   and lets the caller go on ([`FaultMode::Error`]).  The `crash_torture`
//!   binary in `wfdiff-bench` sweeps N over every operation of a scripted
//!   workload in each mode and asserts that recovery is consistent after
//!   each fault — the executable form of the dashflow TLA-004
//!   (`CheckpointConsistency`) and TLA-005 (`WALAppendOrdering`) invariants.
//!
//! Because killing the process is simulated by [`std::process::exit`] (not a
//! kernel crash), writes that completed before the fault point are durable
//! even without their fsync; the torn mode is what exercises the
//! partial-write recovery paths (WAL tail truncation, `.tmp` sweeping).

use std::fmt;
use std::fs;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Exit code a [`FaultIo`] uses when it kills the process at its fault
/// point, so a torture-harness parent can tell a scheduled crash from an
/// ordinary failure.
pub const FAULT_EXIT_CODE: i32 = 86;

/// Environment variable holding the 1-based fault point for
/// [`FaultIo::from_env`]; `0`, empty or unset disables injection.
pub const FAULT_POINT_ENV: &str = "WFDIFF_FAULT_POINT";

/// Environment variable holding the [`FaultMode`] (`kill`, `torn` or
/// `error`) for [`FaultIo::from_env`]; defaults to `kill`.
pub const FAULT_MODE_ENV: &str = "WFDIFF_FAULT_MODE";

/// The durability-relevant filesystem operations of the persistence stack.
///
/// Implementations must be shareable across threads; the store keeps one
/// handle and routes every save, append and WAL operation through it.
pub trait StoreIo: fmt::Debug + Send + Sync {
    /// Creates a directory and all of its parents (idempotent).
    fn create_dir_all(&self, path: &Path) -> std::io::Result<()>;

    /// Creates (or truncates) `path` and writes `bytes` to it, without
    /// syncing — pair with [`StoreIo::fsync_file`].
    fn write_file(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()>;

    /// Appends `bytes` to `path`, creating the file if it does not exist,
    /// without syncing — pair with [`StoreIo::fsync_file`].
    fn append_file(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()>;

    /// Forces file contents (and metadata) to stable storage.
    fn fsync_file(&self, path: &Path) -> std::io::Result<()>;

    /// Forces a directory entry (e.g. a just-committed rename) to stable
    /// storage.  Callers treat failures as best-effort — not every platform
    /// lets a directory be opened and synced — but the call still counts as
    /// a fault point.
    fn fsync_dir(&self, path: &Path) -> std::io::Result<()>;

    /// Atomically renames `from` to `to`.
    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()>;

    /// Removes a file.
    fn remove_file(&self, path: &Path) -> std::io::Result<()>;

    /// Removes a directory and everything under it (the garbage-collection
    /// sweep of replaced spec versions).
    fn remove_dir_all(&self, path: &Path) -> std::io::Result<()>;

    /// Truncates (or extends) `path` to exactly `len` bytes, without
    /// syncing — pair with [`StoreIo::fsync_file`].
    fn truncate_file(&self, path: &Path, len: u64) -> std::io::Result<()>;
}

/// The `std::fs` passthrough — what production stores use.
#[derive(Debug, Default, Clone, Copy)]
pub struct RealIo;

#[expect(
    clippy::disallowed_methods,
    reason = "the one place this crate mutates the filesystem; clippy.toml sends the rest here"
)]
impl StoreIo for RealIo {
    fn create_dir_all(&self, path: &Path) -> std::io::Result<()> {
        fs::create_dir_all(path)
    }

    fn write_file(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        let mut file = fs::File::create(path)?;
        file.write_all(bytes)
    }

    fn append_file(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        let mut file = fs::OpenOptions::new().create(true).append(true).open(path)?;
        file.write_all(bytes)
    }

    fn fsync_file(&self, path: &Path) -> std::io::Result<()> {
        fs::File::open(path)?.sync_all()
    }

    fn fsync_dir(&self, path: &Path) -> std::io::Result<()> {
        fs::File::open(path)?.sync_all()
    }

    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
        fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> std::io::Result<()> {
        fs::remove_file(path)
    }

    fn remove_dir_all(&self, path: &Path) -> std::io::Result<()> {
        fs::remove_dir_all(path)
    }

    fn truncate_file(&self, path: &Path, len: u64) -> std::io::Result<()> {
        let file = fs::OpenOptions::new().write(true).open(path)?;
        file.set_len(len)
    }
}

/// What a [`FaultIo`] does when the operation counter reaches its fault
/// point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultMode {
    /// Kill the process before the operation takes effect.
    Kill,
    /// For byte-writing operations, write a strict prefix of the bytes and
    /// then kill the process (a torn write); for every other operation,
    /// behave like [`FaultMode::Kill`].
    Torn,
    /// Return an `std::io::Error` instead of performing the operation —
    /// exercises error paths without dying.
    Error,
}

impl FaultMode {
    /// Parses the [`FAULT_MODE_ENV`] spelling; unknown values fall back to
    /// [`FaultMode::Kill`] (the torture harness only ever sets valid ones).
    pub fn parse(s: &str) -> FaultMode {
        match s {
            "torn" => FaultMode::Torn,
            "error" => FaultMode::Error,
            _ => FaultMode::Kill,
        }
    }
}

/// What the fault check decided for one operation.
enum Trip {
    Pass,
    Fault,
}

/// A deterministic crash injector wrapping another [`StoreIo`]; see the
/// [module docs](self).
#[derive(Debug)]
pub struct FaultIo {
    inner: Arc<dyn StoreIo>,
    /// 1-based operation index to fault at; `0` disables injection (the
    /// wrapper then only counts operations).
    fault_point: u64,
    mode: FaultMode,
    ops: AtomicU64,
}

impl FaultIo {
    /// Wraps `inner`, faulting at the `fault_point`-th operation (1-based;
    /// `0` = count only).
    pub fn new(inner: Arc<dyn StoreIo>, fault_point: u64, mode: FaultMode) -> FaultIo {
        FaultIo { inner, fault_point, mode, ops: AtomicU64::new(0) }
    }

    /// Builds a [`FaultIo`] from [`FAULT_POINT_ENV`] and [`FAULT_MODE_ENV`]
    /// — the re-exec configuration channel of the torture harness.
    pub fn from_env(inner: Arc<dyn StoreIo>) -> FaultIo {
        let fault_point =
            std::env::var(FAULT_POINT_ENV).ok().and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
        let mode =
            std::env::var(FAULT_MODE_ENV).map(|v| FaultMode::parse(&v)).unwrap_or(FaultMode::Kill);
        FaultIo::new(inner, fault_point, mode)
    }

    /// Number of durability operations performed (or faulted) so far.
    pub fn ops(&self) -> u64 {
        self.ops.load(Ordering::Acquire)
    }

    /// Counts one operation and decides whether it is the fault point.
    fn trip(&self) -> Trip {
        let n = self.ops.fetch_add(1, Ordering::AcqRel) + 1;
        if self.fault_point != 0 && n == self.fault_point {
            Trip::Fault
        } else {
            Trip::Pass
        }
    }

    /// Kills the process with [`FAULT_EXIT_CODE`].
    fn die() -> ! {
        std::process::exit(FAULT_EXIT_CODE)
    }

    fn fault_error() -> std::io::Error {
        std::io::Error::other("injected fault")
    }

    /// Fault behaviour for an operation that writes `bytes` somewhere: torn
    /// mode performs a prefix write through `write` before dying.
    fn fault_write(
        &self,
        bytes: &[u8],
        write: impl FnOnce(&[u8]) -> std::io::Result<()>,
    ) -> std::io::Result<()> {
        match self.mode {
            FaultMode::Kill => Self::die(),
            FaultMode::Torn => {
                let _ = write(&bytes[..bytes.len() / 2]);
                Self::die()
            }
            FaultMode::Error => Err(Self::fault_error()),
        }
    }

    /// Fault behaviour for a non-writing operation: torn degrades to kill.
    fn fault_plain(&self) -> std::io::Result<()> {
        match self.mode {
            FaultMode::Kill | FaultMode::Torn => Self::die(),
            FaultMode::Error => Err(Self::fault_error()),
        }
    }
}

impl StoreIo for FaultIo {
    fn create_dir_all(&self, path: &Path) -> std::io::Result<()> {
        match self.trip() {
            Trip::Pass => self.inner.create_dir_all(path),
            Trip::Fault => self.fault_plain(),
        }
    }

    fn write_file(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        match self.trip() {
            Trip::Pass => self.inner.write_file(path, bytes),
            Trip::Fault => self.fault_write(bytes, |prefix| self.inner.write_file(path, prefix)),
        }
    }

    fn append_file(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        match self.trip() {
            Trip::Pass => self.inner.append_file(path, bytes),
            Trip::Fault => self.fault_write(bytes, |prefix| self.inner.append_file(path, prefix)),
        }
    }

    fn fsync_file(&self, path: &Path) -> std::io::Result<()> {
        match self.trip() {
            Trip::Pass => self.inner.fsync_file(path),
            Trip::Fault => self.fault_plain(),
        }
    }

    fn fsync_dir(&self, path: &Path) -> std::io::Result<()> {
        match self.trip() {
            Trip::Pass => self.inner.fsync_dir(path),
            Trip::Fault => self.fault_plain(),
        }
    }

    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
        match self.trip() {
            Trip::Pass => self.inner.rename(from, to),
            Trip::Fault => self.fault_plain(),
        }
    }

    fn remove_file(&self, path: &Path) -> std::io::Result<()> {
        match self.trip() {
            Trip::Pass => self.inner.remove_file(path),
            Trip::Fault => self.fault_plain(),
        }
    }

    fn remove_dir_all(&self, path: &Path) -> std::io::Result<()> {
        match self.trip() {
            Trip::Pass => self.inner.remove_dir_all(path),
            Trip::Fault => self.fault_plain(),
        }
    }

    fn truncate_file(&self, path: &Path, len: u64) -> std::io::Result<()> {
        match self.trip() {
            Trip::Pass => self.inner.truncate_file(path, len),
            Trip::Fault => self.fault_plain(),
        }
    }
}

/// The store's shared I/O handle — `RealIo` unless a constructor injected
/// something else.
#[derive(Clone)]
pub(crate) struct IoHandle(pub(crate) Arc<dyn StoreIo>);

impl Default for IoHandle {
    fn default() -> Self {
        IoHandle(Arc::new(RealIo))
    }
}

impl fmt::Debug for IoHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

impl std::ops::Deref for IoHandle {
    type Target = dyn StoreIo;

    fn deref(&self) -> &(dyn StoreIo + 'static) {
        &*self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("wfdiff-storeio-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn real_io_round_trips_writes_appends_and_truncations() {
        let dir = tmp("real");
        let io = RealIo;
        let p = dir.join("file.bin");
        io.write_file(&p, b"hello").unwrap();
        io.append_file(&p, b" world").unwrap();
        io.fsync_file(&p).unwrap();
        assert_eq!(fs::read(&p).unwrap(), b"hello world");
        io.truncate_file(&p, 5).unwrap();
        assert_eq!(fs::read(&p).unwrap(), b"hello");
        let q = dir.join("renamed.bin");
        io.rename(&p, &q).unwrap();
        io.fsync_dir(&dir).unwrap();
        assert!(q.exists() && !p.exists());
        io.remove_file(&q).unwrap();
        assert!(!q.exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fault_io_counts_and_errors_at_the_fault_point() {
        let dir = tmp("fault");
        let io = FaultIo::new(Arc::new(RealIo), 3, FaultMode::Error);
        let p = dir.join("file.bin");
        io.write_file(&p, b"one").unwrap(); // op 1
        io.append_file(&p, b"two").unwrap(); // op 2
        let err = io.fsync_file(&p).unwrap_err(); // op 3: the fault
        assert_eq!(err.to_string(), "injected fault");
        // Past the fault point, operations flow again and the counter kept
        // counting the faulted operation.
        io.fsync_file(&p).unwrap();
        assert_eq!(io.ops(), 4);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fault_point_zero_only_counts() {
        let dir = tmp("count");
        let io = FaultIo::new(Arc::new(RealIo), 0, FaultMode::Kill);
        let p = dir.join("file.bin");
        for _ in 0..5 {
            io.append_file(&p, b"x").unwrap();
        }
        assert_eq!(io.ops(), 5);
        assert_eq!(fs::read(&p).unwrap().len(), 5);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fault_mode_parses_the_env_spellings() {
        assert_eq!(FaultMode::parse("kill"), FaultMode::Kill);
        assert_eq!(FaultMode::parse("torn"), FaultMode::Torn);
        assert_eq!(FaultMode::parse("error"), FaultMode::Error);
        assert_eq!(FaultMode::parse("anything-else"), FaultMode::Kill);
    }
}
