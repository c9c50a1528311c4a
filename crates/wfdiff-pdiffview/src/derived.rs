//! The per-specification state registry of the indexes derived from the
//! stored runs: the k-medoids clusters of [`IncrementalClusterIndex`] and
//! the vantage-point trees of [`IncrementalMetricIndex`].  Every state can
//! be recomputed from the store, and each specification's state sits
//! behind a lock of its own, so index work on one specification never
//! waits for another's.  The registry only serialises access: the cluster
//! index holds the lock across its distance evaluations, while the metric
//! index keeps each state behind an `Arc` and searches a snapshot of it
//! with the lock released.
//!
//! [`IncrementalClusterIndex`]: crate::cluster::IncrementalClusterIndex
//! [`IncrementalMetricIndex`]: crate::metricindex::IncrementalMetricIndex

use crate::lockrank::{LockRank, RankedMutex};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// One specification's slot in a [`SpecStates`] registry: its state, or
/// `None` before the first build and after the state is dropped.
///
/// Ranked [`LockRank::Index`], after `save_lock` and before `store`: a
/// holder may evaluate distances (a tree build or insert, every cluster
/// operation), which read the store and the service's prepared state, and
/// it may hold no other slot.
type Slot<S> = RankedMutex<Option<S>>;

/// A derived index's per-specification states.
///
/// Each specification's state sits behind a lock of its own, so a mutation
/// of one specification — which may hold that lock across its distance
/// evaluations — never waits for another specification's.
#[derive(Debug)]
pub(crate) struct SpecStates<S> {
    /// One slot per specification an index build or load has touched,
    /// never removed.  A leaf lock, held only to find or install a slot.
    slots: Mutex<HashMap<String, Arc<Slot<S>>>>,
    /// Slots currently holding a state.
    tracked: AtomicUsize,
}

impl<S> Default for SpecStates<S> {
    fn default() -> Self {
        SpecStates { slots: Mutex::new(HashMap::new()), tracked: AtomicUsize::new(0) }
    }
}

impl<S> SpecStates<S> {
    /// Runs `f` on `spec`'s state under the specification's lock, creating
    /// its slot first when it has none.  The index serialises each
    /// specification's mutations on this lock.
    pub(crate) fn update<R>(&self, spec: &str, f: impl FnOnce(&mut Option<S>) -> R) -> R {
        let slot = Arc::clone(
            self.slots
                .lock()
                .entry(spec.to_string())
                .or_insert_with(|| Arc::new(RankedMutex::new(LockRank::Index, None))),
        );
        self.run(&slot, f)
    }

    /// [`Self::update`] for a specification that already has a slot; `None`,
    /// without running `f` or creating a slot, when it has none.
    pub(crate) fn existing<R>(&self, spec: &str, f: impl FnOnce(&mut Option<S>) -> R) -> Option<R> {
        // Statement-scoped lock: released before the slot's is taken.
        let slot = self.slots.lock().get(spec).map(Arc::clone)?;
        Some(self.run(&slot, f))
    }

    fn run<R>(&self, slot: &Slot<S>, f: impl FnOnce(&mut Option<S>) -> R) -> R {
        let mut state = slot.lock();
        let held = state.is_some();
        let out = f(&mut state);
        if !held && state.is_some() {
            self.tracked.fetch_add(1, Ordering::Relaxed);
        } else if held && state.is_none() {
            self.tracked.fetch_sub(1, Ordering::Relaxed);
        }
        out
    }

    /// The number of specifications holding a state.
    pub(crate) fn tracked(&self) -> usize {
        self.tracked.load(Ordering::Relaxed)
    }

    /// The specifications that have a slot, holding a state or not.
    pub(crate) fn specs(&self) -> Vec<String> {
        self.slots.lock().keys().cloned().collect()
    }

    /// Drops the state of one specification; `true` when it held one.
    pub(crate) fn invalidate(&self, spec: &str) -> bool {
        self.existing(spec, |slot| slot.take().is_some()).unwrap_or(false)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::cluster::incremental::DistanceOracle;
    use std::cell::RefCell;
    use std::sync::mpsc::{channel, Receiver, Sender};
    use std::time::Duration;

    /// An oracle whose first fetch reports that it started, then waits to
    /// be released, before answering from `inner`.
    pub(crate) struct Gated<O> {
        inner: O,
        gate: RefCell<Option<(Sender<()>, Receiver<()>)>>,
    }

    impl<O: DistanceOracle> DistanceOracle for Gated<O> {
        type Error = O::Error;

        fn distances(&self, source: &str, targets: &[&str]) -> Result<Vec<f64>, O::Error> {
            if let Some((entered, release)) = self.gate.borrow_mut().take() {
                let _ = entered.send(());
                let _ = release.recv();
            }
            self.inner.distances(source, targets)
        }
    }

    /// Runs `blocked` on a thread of its own over a [`Gated`] `oracle` and,
    /// once it waits inside its first fetch, runs `other` on a third thread.
    /// Returns whether `other` finished within two seconds while `blocked`
    /// waited.  `blocked` is released before this returns either way, and
    /// both have finished by then, so a test that fails does so on the
    /// timeout instead of hanging.
    pub(crate) fn finishes_while_another_waits<O: DistanceOracle + Send>(
        oracle: O,
        blocked: impl FnOnce(&Gated<O>) + Send,
        other: impl FnOnce() + Send,
    ) -> bool {
        let (entered_tx, entered) = channel();
        let (release, release_rx) = channel();
        let (done_tx, done) = channel();
        std::thread::scope(|scope| {
            scope.spawn(move || {
                let gate = RefCell::new(Some((entered_tx, release_rx)));
                blocked(&Gated { inner: oracle, gate });
            });
            let started = entered.recv_timeout(Duration::from_secs(10)).is_ok();
            scope.spawn(move || {
                other();
                let _ = done_tx.send(());
            });
            let finished = started && done.recv_timeout(Duration::from_secs(2)).is_ok();
            let _ = release.send(());
            finished
        })
    }

    #[cfg(debug_assertions)]
    #[test]
    fn holding_two_specifications_locks_at_once_panics() {
        let states: SpecStates<u32> = SpecStates::default();
        states.update("a", |slot| *slot = Some(1));
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let nested = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            states.update("a", |_| states.update("b", |slot| *slot = Some(2)));
        }));
        std::panic::set_hook(hook);
        assert!(nested.is_err(), "a second index lock under the first must panic");
        assert_eq!(states.tracked(), 1);
        assert!(states.existing("b", |_| ()).is_some(), "the slot was installed");
    }

    #[test]
    fn reads_of_a_specification_without_state_install_no_slot() {
        let states: SpecStates<u32> = SpecStates::default();
        assert_eq!(states.existing("a", |slot| slot.is_some()), None);
        assert!(!states.invalidate("a"));
        assert!(states.slots.lock().is_empty());
        states.update("a", |slot| *slot = Some(1));
        assert!(states.invalidate("a"));
        assert!(!states.invalidate("a"), "the state is already gone");
        assert_eq!((states.tracked(), states.specs()), (0, vec!["a".to_string()]));
    }
}
