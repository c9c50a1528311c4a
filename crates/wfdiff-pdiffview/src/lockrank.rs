//! Runtime lock-rank guard for the store's locks, the derived indexes'
//! per-specification locks and the service's `streams` and `prepared`: the
//! one check of their acquisition order.
//!
//! Every [`WorkflowStore`](crate::store::WorkflowStore) lock carries a
//! [`LockRank`]; a thread may only acquire a lock whose rank is strictly
//! greater than every rank it already holds:
//!
//! ```text
//! save_lock (0) → index (1) → store (2) → persist_fp_cache (3) → streams (4) → prepared (5)
//! ```
//!
//! Ranks are strict, so a thread never holds two locks of one rank: two
//! specifications' index locks, say.
//!
//! Under `debug_assertions` (every `cargo test` run, including the store's
//! concurrency tests) each thread keeps a thread-local stack of held ranks
//! and **panics** on an out-of-order acquisition — turning a potential
//! ABBA deadlock, which a test would only hit under an unlucky interleaving,
//! into a deterministic failure on *any* interleaving that reaches the
//! second acquisition.  In release builds the bookkeeping compiles to
//! nothing and the wrappers are zero-cost passthroughs to the underlying
//! `parking_lot` primitives.
//!
//! The wrappers expose the same call syntax as the raw locks (`.read()`,
//! `.write()`, `.lock()`) and return RAII guards that deref to the data, so
//! call sites are unchanged; guards pop their rank when dropped.

use std::ops::{Deref, DerefMut};

/// The acquisition order of the store's locks, lowest first.  The variant
/// order must match the discipline documented on
/// [`WorkflowStore`](crate::store::WorkflowStore)'s fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum LockRank {
    /// `save_lock` — serialises durable writes and saves; taken first,
    /// never under any other lock.
    Save = 0,
    /// `index` — one specification's state in a derived index (the
    /// cluster or the metric index).  Held across the distance evaluations
    /// of a tree build or insert and of every cluster operation, which read
    /// the store and the prepared state, so it ranks below both; a metric
    /// query's search runs on a snapshot with no `index` lock held.
    Index = 1,
    /// `store` — the map of specifications and their runs.
    Store = 2,
    /// `persist_fp_cache` — the fingerprint memo; innermost of the store's
    /// own locks.
    FpCache = 3,
    /// `streams` — the in-flight stream registry owned by
    /// [`DiffService`](crate::service::DiffService); holding it across a
    /// store or WAL call panics.
    Streams = 4,
    /// `prepared` — the resident prepared state owned by
    /// [`DiffService`](crate::service::DiffService); innermost overall.
    /// Entries are cloned out under it and inserted after being computed,
    /// so holding it across a store call or the stream registry panics.
    Prepared = 5,
}

/// The locks' names, in rank order; the violation message spells the order
/// from this list.
#[cfg(debug_assertions)]
const NAMES: [&str; 6] = ["save_lock", "index", "store", "persist_fp_cache", "streams", "prepared"];

#[cfg(debug_assertions)]
mod held {
    use super::LockRank;
    use std::cell::RefCell;

    thread_local! {
        static STACK: RefCell<Vec<LockRank>> = const { RefCell::new(Vec::new()) };
    }

    pub(super) fn acquire(rank: LockRank) {
        STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            if let Some(&worst) = stack.iter().max() {
                assert!(
                    worst < rank,
                    "lock-rank violation: acquiring `{}` (rank {}) while `{}` (rank {}) is \
                     held; the order is {} (see lockrank.rs)",
                    super::NAMES[rank as usize],
                    rank as u8,
                    super::NAMES[worst as usize],
                    worst as u8,
                    super::NAMES.join(" → "),
                );
            }
            stack.push(rank);
        });
    }

    pub(super) fn release(rank: LockRank) {
        STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            if let Some(pos) = stack.iter().rposition(|&r| r == rank) {
                stack.remove(pos);
            }
        });
    }
}

#[cfg(debug_assertions)]
fn acquire(rank: LockRank) {
    held::acquire(rank);
}

#[cfg(not(debug_assertions))]
fn acquire(_rank: LockRank) {}

#[cfg(debug_assertions)]
fn release(rank: LockRank) {
    held::release(rank);
}

#[cfg(not(debug_assertions))]
fn release(_rank: LockRank) {}

/// RAII record of one acquisition; popping happens on drop.
struct Token {
    rank: LockRank,
}

impl Token {
    /// Checks the rank against the thread's held stack (panicking on a
    /// violation under `debug_assertions`) and records the acquisition.
    fn new(rank: LockRank) -> Token {
        acquire(rank);
        Token { rank }
    }
}

impl Drop for Token {
    fn drop(&mut self) {
        release(self.rank);
    }
}

/// A guard pairing the underlying lock guard with its rank token.  Derefs
/// to the protected data.  Field order matters: the real guard unlocks
/// first, then the token pops the rank.
pub(crate) struct RankedGuard<G> {
    inner: G,
    _token: Token,
}

impl<G: Deref> Deref for RankedGuard<G> {
    type Target = G::Target;

    fn deref(&self) -> &G::Target {
        &self.inner
    }
}

impl<G: DerefMut> DerefMut for RankedGuard<G> {
    fn deref_mut(&mut self) -> &mut G::Target {
        &mut self.inner
    }
}

/// A reader-writer lock with a fixed [`LockRank`].
#[derive(Debug)]
pub(crate) struct RankedRwLock<T> {
    rank: LockRank,
    inner: parking_lot::RwLock<T>,
}

impl<T> RankedRwLock<T> {
    /// Creates the lock at `rank` around `value`.
    pub(crate) fn new(rank: LockRank, value: T) -> Self {
        RankedRwLock { rank, inner: parking_lot::RwLock::new(value) }
    }

    /// Acquires a shared read lock, rank-checked.
    pub(crate) fn read(&self) -> RankedGuard<impl Deref<Target = T> + '_> {
        let token = Token::new(self.rank);
        RankedGuard { inner: self.inner.read(), _token: token }
    }

    /// Acquires an exclusive write lock, rank-checked.
    pub(crate) fn write(&self) -> RankedGuard<impl DerefMut<Target = T> + '_> {
        let token = Token::new(self.rank);
        RankedGuard { inner: self.inner.write(), _token: token }
    }
}

/// A mutex with a fixed [`LockRank`].
#[derive(Debug)]
pub(crate) struct RankedMutex<T> {
    rank: LockRank,
    inner: parking_lot::Mutex<T>,
}

impl<T> RankedMutex<T> {
    /// Creates the mutex at `rank` around `value`.
    pub(crate) fn new(rank: LockRank, value: T) -> Self {
        RankedMutex { rank, inner: parking_lot::Mutex::new(value) }
    }

    /// Acquires the mutex, rank-checked.
    pub(crate) fn lock(&self) -> RankedGuard<impl DerefMut<Target = T> + '_> {
        let token = Token::new(self.rank);
        RankedGuard { inner: self.inner.lock(), _token: token }
    }
}

#[cfg(all(test, debug_assertions))]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn panic_message(result: std::thread::Result<()>) -> String {
        match result {
            Ok(()) => String::new(),
            Err(payload) => payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
                .unwrap_or_default(),
        }
    }

    /// Runs `f` with the default panic hook silenced, so an *expected*
    /// panic does not spray a backtrace into the test output.
    fn quiet_panics<R>(f: impl FnOnce() -> R) -> R {
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = f();
        std::panic::set_hook(hook);
        out
    }

    #[test]
    fn in_order_acquisition_passes() {
        let save = RankedMutex::new(LockRank::Save, ());
        let store = RankedRwLock::new(LockRank::Store, 1u32);
        let cache = RankedMutex::new(LockRank::FpCache, 2u32);
        let streams = RankedRwLock::new(LockRank::Streams, 3u32);
        let _g0 = save.lock();
        let g1 = store.read();
        let g2 = cache.lock();
        let mut g3 = streams.write();
        assert_eq!((*g1, *g2, *g3), (1, 2, 3));
        *g3 += 1;
    }

    #[test]
    fn reacquisition_after_drop_passes() {
        let streams = RankedRwLock::new(LockRank::Streams, ());
        let store = RankedRwLock::new(LockRank::Store, ());
        drop(streams.read());
        // `streams` was released, so taking `store` now is in order.
        let _s = store.read();
        drop(_s);
        let _r = streams.read();
    }

    #[test]
    fn out_of_order_acquisition_panics_with_a_named_violation() {
        let store = RankedRwLock::new(LockRank::Store, ());
        let streams = RankedRwLock::new(LockRank::Streams, ());
        let result = quiet_panics(|| {
            catch_unwind(AssertUnwindSafe(|| {
                let _r = streams.read();
                let _s = store.read(); // rank 2 under rank 4: must panic
            }))
        });
        let msg = panic_message(result);
        assert!(msg.contains("lock-rank violation"), "unexpected panic message: {msg:?}");
        assert!(msg.contains("`store`") && msg.contains("`streams`"), "names the locks: {msg:?}");
        let order = "save_lock → index → store → persist_fp_cache → streams → prepared";
        assert!(msg.contains(order), "spells the whole order: {msg:?}");
    }

    #[test]
    fn save_lock_under_a_data_guard_panics() {
        let save = RankedMutex::new(LockRank::Save, ());
        let store = RankedRwLock::new(LockRank::Store, ());
        let result = quiet_panics(|| {
            catch_unwind(AssertUnwindSafe(|| {
                let _s = store.read();
                let _g = save.lock(); // save_lock is taken first or not at all
            }))
        });
        assert!(panic_message(result).contains("lock-rank violation"));
    }

    #[test]
    fn ranks_are_tracked_per_thread() {
        // One thread holding `streams` must not poison another thread's
        // ordering: the stack is thread-local.
        let streams = std::sync::Arc::new(RankedRwLock::new(LockRank::Streams, ()));
        let store = std::sync::Arc::new(RankedRwLock::new(LockRank::Store, ()));
        let _r = streams.read();
        let (store2, streams2) = (std::sync::Arc::clone(&store), std::sync::Arc::clone(&streams));
        std::thread::spawn(move || {
            let _s = store2.read();
            let _r = streams2.read();
        })
        .join()
        .expect("the other thread acquires in order and must not panic");
    }
}
