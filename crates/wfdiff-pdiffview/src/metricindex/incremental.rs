//! [`IncrementalMetricIndex`] — a per-specification `VpTree` that follows
//! the store, the nearest-run analogue of
//! [`IncrementalClusterIndex`](crate::cluster::incremental::IncrementalClusterIndex).
//!
//! The index holds one vantage-point tree per specification, tagged with
//! the specification's version fingerprint and the exact member set it was
//! built over.  [`IncrementalMetricIndex::nearest`] rebuilds lazily when
//! either diverges; [`IncrementalMetricIndex::insert_run`] descends the
//! existing tree (O(depth) distance evaluations) instead of rebuilding, and
//! [`IncrementalMetricIndex::remove_run`] removes leaf members in place.  A
//! removal that hits a *pivot* — or a run replaced under an unchanged name,
//! whose old distances shaped the tree — drops the specification's state;
//! the next query rebuilds it.  Every state is derived data held in memory
//! only: the same runs and seed always draw the same tree, so a restarted
//! server rebuilds it on its first query instead of loading a checkpoint.
//!
//! The states sit in the same `SpecStates` registry the cluster index uses,
//! one lock per specification, each state behind an [`Arc`]: read-copy-update
//! (McKenney & Slingwine, "Read-Copy Update", PDCS 1998).  A query checks and
//! (re)builds the tree under the lock, then searches a snapshot of it with
//! the lock released, so queries of one specification run side by side.  A
//! mutation copies the state on write ([`Arc::make_mut`]) under the lock:
//! mutations of one specification stay serialised, a query in flight keeps
//! answering the state it started on, and a mutation that lands while a
//! query holds that snapshot copies the specification's state once.

use super::vptree::{MedoidPivots, RemoveOutcome, VpTree};
use crate::cluster::incremental::DistanceOracle;
use crate::derived::SpecStates;
use std::sync::Arc;
use wfdiff_sptree::Fingerprint;

/// Default pivot-draw seed of the metric index; a constant so every server
/// builds the same tree over the same store.
pub const DEFAULT_METRIC_SEED: u64 = 0x9D17;

/// Statistics of one pruned `/similar` query — how much work the triangle
/// inequality saved, and under what guarantee.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PruneStats {
    /// Distances requested from the oracle (the exact sweep needs `n - 1`).
    pub distance_evals: usize,
    /// Subtrees excluded by a certified (or ε-relaxed) bound.
    pub subtrees_pruned: usize,
    /// Leaf candidates excluded by a memoized medoid-pivot bound.
    pub members_pruned: usize,
    /// The ε the query ran under: `0` means every reported neighbour is
    /// certified exact; `ε > 0` guarantees every reported distance is at
    /// most `(1 + ε)` times the true `k`-th distance.
    pub approx_epsilon: f64,
}

/// Per-specification metric-index state.
#[derive(Debug, Clone)]
pub(crate) struct SpecMetricState {
    /// The specification version the tree was built against.
    pub(crate) version: Fingerprint,
    /// Indexed runs, sorted by name.
    pub(crate) members: Vec<String>,
    /// The vantage-point tree over `members`.
    pub(crate) tree: VpTree,
}

/// A specification's run names as a query checks a held tree against them:
/// the store reads them in place, and a plain list stands in for it in
/// tests.
pub trait RunNames {
    /// `f` over the run names of `spec` in ascending order, without
    /// duplicates, read in one consistent step without copying them; no
    /// names when the specification is unknown.
    fn with_names<R>(
        &self,
        spec: &str,
        f: impl FnOnce(&mut dyn ExactSizeIterator<Item = &str>) -> R,
    ) -> R;
}

/// Sorted, distinct names, whatever the specification.
impl RunNames for [String] {
    fn with_names<R>(
        &self,
        _spec: &str,
        f: impl FnOnce(&mut dyn ExactSizeIterator<Item = &str>) -> R,
    ) -> R {
        f(&mut self.iter().map(String::as_str))
    }
}

/// A thread-safe registry of per-specification vantage-point trees; see the
/// [module docs](self).  Mutations are serialised per specification (one
/// lock each), and the lock is held across the distance fetches of a
/// build or an insert, so work on one specification never waits for
/// another's.  A query's search holds no lock: it runs on a snapshot.
#[derive(Debug, Default)]
pub struct IncrementalMetricIndex {
    /// Per-specification trees, each shared with the queries searching it.
    pub(super) states: SpecStates<Arc<SpecMetricState>>,
}

impl IncrementalMetricIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        IncrementalMetricIndex::default()
    }

    /// The `k` nearest indexed runs to `query`, pruned by the triangle
    /// inequality, building (or rebuilding) the specification's tree when
    /// the index holds none for `version` and the run names `runs` holds
    /// for `spec` now.
    ///
    /// The check and any build run under the specification's lock; the
    /// search runs on a snapshot of the tree after the lock is released, so
    /// it answers exactly the state that matched the member set when the
    /// query began, whatever lands meanwhile.  The names are compared in
    /// place and copied only for a build.
    ///
    /// With `epsilon == 0` the result is certified identical — order and
    /// tie-breaks included — to the exact O(n) sweep of
    /// [`DiffService::nearest_runs`](crate::service::DiffService::nearest_runs);
    /// `epsilon > 0` trades exactness for pruning under the `(1 + ε)` bound
    /// reported in [`PruneStats::approx_epsilon`].  `pivots` optionally
    /// screens leaf candidates with distances the cluster index already
    /// memoized.  The returned [`PruneStats`] counts query-time work only;
    /// a rebuild's distance fetches are amortised over subsequent queries.
    /// Trees are drawn with [`DEFAULT_METRIC_SEED`].
    #[allow(clippy::too_many_arguments, clippy::type_complexity)]
    pub fn nearest<O: DistanceOracle>(
        &self,
        spec: &str,
        version: Fingerprint,
        runs: &(impl RunNames + ?Sized),
        query: &str,
        k: usize,
        epsilon: f64,
        pivots: Option<&MedoidPivots>,
        oracle: &O,
    ) -> Result<(Vec<(String, f64)>, PruneStats), O::Error> {
        let mut row = |source: &str, targets: &[&str]| oracle.distances(source, targets);
        let snapshot = self.states.update(spec, |slot| {
            let fresh = slot.as_ref().is_some_and(|held| {
                held.version == version
                    && runs
                        .with_names(spec, |names| names.eq(held.members.iter().map(String::as_str)))
            });
            let state = match slot {
                Some(held) if fresh => held,
                _ => {
                    let members: Vec<String> =
                        runs.with_names(spec, |names| names.map(str::to_string).collect());
                    let tree = VpTree::build(&members, DEFAULT_METRIC_SEED, &mut row)?;
                    slot.insert(Arc::new(SpecMetricState { version, members, tree }))
                }
            };
            Ok(Arc::clone(state))
        })?;
        snapshot.tree.nearest(query, k, epsilon, pivots, &mut row)
    }

    /// Folds a just-stored run into the tree, if the index holds state for
    /// the specification.  Returns `true` when a state absorbed the run; a
    /// version mismatch or a run replaced under an existing name drops the
    /// state instead (rebuilt on the next query).
    pub fn insert_run<O: DistanceOracle>(
        &self,
        spec: &str,
        version: Fingerprint,
        run_name: &str,
        oracle: &O,
    ) -> Result<bool, O::Error> {
        let absorb = |slot: &mut Option<Arc<SpecMetricState>>| {
            let Some(held) = slot else {
                return Ok(false);
            };
            let at = match held.members.binary_search_by(|m| m.as_str().cmp(run_name)) {
                Err(at) if held.version == version => at,
                _ => {
                    // A replaced specification or a replaced run: the
                    // distances the tree was shaped by are stale.
                    *slot = None;
                    return Ok(false);
                }
            };
            let state = Arc::make_mut(held);
            let mut row = |source: &str, targets: &[&str]| oracle.distances(source, targets);
            state.tree.insert(run_name, &mut row)?;
            state.members.insert(at, run_name.to_string());
            Ok(true)
        };
        self.states.existing(spec, absorb).unwrap_or(Ok(false))
    }

    /// Removes a run from the tree, if the index holds state for the
    /// specification.  Returns `true` when state changed.  Removing a pivot
    /// drops the specification's state (the partition depends on the pivot);
    /// the next query rebuilds it — no distance evaluation happens here
    /// either way.
    pub fn remove_run(&self, spec: &str, run_name: &str) -> bool {
        let remove = |slot: &mut Option<Arc<SpecMetricState>>| {
            let Some(held) = slot else {
                return false;
            };
            let Ok(at) = held.members.binary_search_by(|m| m.as_str().cmp(run_name)) else {
                return false;
            };
            let state = Arc::make_mut(held);
            state.members.remove(at);
            let emptied = state.members.is_empty();
            match state.tree.remove(run_name) {
                RemoveOutcome::Removed if !emptied => {}
                // Pivot loss, an inconsistent tree, or the last member: drop.
                _ => *slot = None,
            }
            true
        };
        self.states.existing(spec, remove).unwrap_or(false)
    }

    /// Drops the state of one specification.
    pub fn invalidate(&self, spec: &str) {
        self.states.invalidate(spec);
    }

    /// The indexed member count for `spec` (testing/diagnostics).
    pub fn member_count(&self, spec: &str) -> usize {
        self.states.existing(spec, |slot| slot.as_ref().map_or(0, |s| s.members.len())).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    /// A matrix-backed oracle over named points `p0..pN` counting fetches.
    struct MatrixOracle {
        matrix: Vec<Vec<f64>>,
        fetches: RefCell<usize>,
    }

    impl MatrixOracle {
        fn new(matrix: Vec<Vec<f64>>) -> Self {
            MatrixOracle { matrix, fetches: RefCell::new(0) }
        }

        fn index(name: &str) -> usize {
            name.trim_start_matches('p').parse().unwrap()
        }
    }

    impl DistanceOracle for MatrixOracle {
        type Error = String;

        fn distances(&self, source: &str, targets: &[&str]) -> Result<Vec<f64>, String> {
            *self.fetches.borrow_mut() += targets.len();
            let i = Self::index(source);
            Ok(targets.iter().map(|t| self.matrix[i][Self::index(t)]).collect())
        }
    }

    /// 40 points on a line in three well-separated groups.
    fn line() -> Vec<Vec<f64>> {
        let coords: Vec<f64> =
            (0..40).map(|i| (i / 14) as f64 * 500.0 + (i % 14) as f64 * 2.0).collect();
        coords.iter().map(|a| coords.iter().map(|b| (a - b).abs()).collect()).collect()
    }

    /// The names of `indices`, sorted as the store lists them.
    fn names(indices: std::ops::Range<usize>) -> Vec<String> {
        let mut names: Vec<String> = indices.map(|i| format!("p{i}")).collect();
        names.sort();
        names
    }

    fn exact(
        matrix: &[Vec<f64>],
        query: usize,
        members: &[String],
        k: usize,
    ) -> Vec<(String, f64)> {
        let mut all: Vec<(String, f64)> = members
            .iter()
            .filter(|n| MatrixOracle::index(n) != query)
            .map(|n| (n.clone(), matrix[query][MatrixOracle::index(n)]))
            .collect();
        all.sort_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
        all.truncate(k);
        all
    }

    const VERSION: Fingerprint = Fingerprint(42);

    #[test]
    fn nearest_builds_once_then_serves_and_prunes() {
        let oracle = MatrixOracle::new(line());
        let index = IncrementalMetricIndex::new();
        let members = names(0..40);
        let (got, stats) =
            index.nearest("s", VERSION, &members[..], "p3", 5, 0.0, None, &oracle).unwrap();
        assert_eq!(got, exact(&line(), 3, &members, 5));
        assert_eq!(stats.approx_epsilon, 0.0);
        let after_build = *oracle.fetches.borrow();
        // A repeat query rebuilds nothing: only query-time evals accrue.
        let (again, stats) =
            index.nearest("s", VERSION, &members[..], "p3", 5, 0.0, None, &oracle).unwrap();
        assert_eq!(again, got);
        assert_eq!(*oracle.fetches.borrow() - after_build, stats.distance_evals);
        assert!(stats.distance_evals < members.len() - 1, "pruning beat the sweep");
        index.invalidate("s");
        assert_eq!(index.member_count("s"), 0, "invalidation drops the tree");
    }

    #[test]
    fn streamed_inserts_and_removals_stay_exact() {
        let oracle = MatrixOracle::new(line());
        let index = IncrementalMetricIndex::new();
        let mut members = names(0..35);
        index.nearest("s", VERSION, &members[..], "p0", 3, 0.0, None, &oracle).unwrap();
        for i in 35..40 {
            assert!(index.insert_run("s", VERSION, &format!("p{i}"), &oracle).unwrap());
            members.push(format!("p{i}"));
        }
        assert_eq!(index.member_count("s"), 40);
        members.sort();
        let (got, _) =
            index.nearest("s", VERSION, &members[..], "p38", 6, 0.0, None, &oracle).unwrap();
        assert_eq!(got, exact(&line(), 38, &members, 6));

        assert!(index.remove_run("s", "p12"));
        members.retain(|n| n != "p12");
        let (got, _) =
            index.nearest("s", VERSION, &members[..], "p10", 4, 0.0, None, &oracle).unwrap();
        assert_eq!(got, exact(&line(), 10, &members, 4));
        assert!(!index.remove_run("s", "p12"), "already gone");
        assert!(!index.remove_run("other", "p0"));
    }

    #[test]
    fn version_mismatch_and_replacement_invalidate() {
        let oracle = MatrixOracle::new(line());
        let index = IncrementalMetricIndex::new();
        let members = names(0..10);
        index.nearest("s", VERSION, &members[..], "p0", 2, 0.0, None, &oracle).unwrap();
        // Replaced run under an unchanged name: state dropped.
        assert!(!index.insert_run("s", VERSION, "p3", &oracle).unwrap());
        assert_eq!(index.member_count("s"), 0);
        index.nearest("s", VERSION, &members[..], "p0", 2, 0.0, None, &oracle).unwrap();
        assert!(!index.insert_run("s", Fingerprint(7), "p10", &oracle).unwrap());
        assert_eq!(index.member_count("s"), 0, "stale state was dropped");
    }

    #[test]
    fn a_build_waiting_on_its_distances_does_not_block_another_spec() {
        let index = IncrementalMetricIndex::new();
        let b = names(0..35);
        index
            .nearest("b", VERSION, &b[..], "p0", 3, 0.0, None, &MatrixOracle::new(line()))
            .unwrap();
        let inserted = crate::derived::tests::finishes_while_another_waits(
            MatrixOracle::new(line()),
            |gated| {
                let members = names(0..40);
                index.nearest("a", VERSION, &members[..], "p3", 5, 0.0, None, gated).unwrap();
            },
            || assert!(index.insert_run("b", VERSION, "p35", &MatrixOracle::new(line())).unwrap()),
        );
        assert!(inserted, "the insert into spec b waited for spec a's tree build");
        assert_eq!((index.member_count("a"), index.member_count("b")), (40, 36));
    }

    #[test]
    fn a_query_waiting_on_its_distances_does_not_block_another_query_of_its_spec() {
        let index = IncrementalMetricIndex::new();
        let members = names(0..40);
        let oracle = MatrixOracle::new(line());
        index.nearest("s", VERSION, &members[..], "p0", 3, 0.0, None, &oracle).unwrap();
        let answered = crate::derived::tests::finishes_while_another_waits(
            MatrixOracle::new(line()),
            |gated| {
                let (got, _) =
                    index.nearest("s", VERSION, &members[..], "p3", 5, 0.0, None, gated).unwrap();
                assert_eq!(got, exact(&line(), 3, &members, 5));
            },
            || {
                let oracle = MatrixOracle::new(line());
                let (got, _) = index
                    .nearest("s", VERSION, &members[..], "p38", 6, 0.0, None, &oracle)
                    .unwrap();
                assert_eq!(got, exact(&line(), 38, &members, 6));
            },
        );
        assert!(answered, "a query of spec s waited for another query of spec s");
    }

    #[test]
    fn an_insert_during_a_query_leaves_that_query_on_its_snapshot() {
        // p39 (at 1022) is as near to p38 (at 1020) as p37 is, and sorts
        // after it, so it enters p38's top 3 in second place.
        let index = IncrementalMetricIndex::new();
        let before = names(0..39);
        let after = names(0..40);
        index
            .nearest("s", VERSION, &before[..], "p0", 3, 0.0, None, &MatrixOracle::new(line()))
            .unwrap();
        let blocked = std::sync::Mutex::new(None);
        let inserted = crate::derived::tests::finishes_while_another_waits(
            MatrixOracle::new(line()),
            |gated| {
                let answer = index.nearest("s", VERSION, &before[..], "p38", 3, 0.0, None, gated);
                *blocked.lock().unwrap() = Some(answer.unwrap().0);
            },
            || assert!(index.insert_run("s", VERSION, "p39", &MatrixOracle::new(line())).unwrap()),
        );
        assert!(inserted, "the insert waited for a query of its spec");
        let pre_insert = exact(&line(), 38, &before, 3);
        assert_eq!(blocked.into_inner().unwrap(), Some(pre_insert.clone()));
        let oracle = MatrixOracle::new(line());
        let (post_insert, _) =
            index.nearest("s", VERSION, &after[..], "p38", 3, 0.0, None, &oracle).unwrap();
        assert_eq!(post_insert, exact(&line(), 38, &after, 3));
        assert_ne!(post_insert, pre_insert, "p39 entered the top 3");
        assert_eq!(index.member_count("s"), 40, "the tree took the insert");
        assert!(*oracle.fetches.borrow() < 39, "the query searched the tree, not a rebuild");
    }
}
