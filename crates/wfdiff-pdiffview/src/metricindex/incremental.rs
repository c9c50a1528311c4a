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
//! The states sit in the same `SpecStates` registry the cluster index uses,
//! one lock per specification.

use super::vptree::{MedoidPivots, RemoveOutcome, VpTree};
use crate::cluster::incremental::DistanceOracle;
use crate::derived::SpecStates;
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

/// A thread-safe registry of per-specification vantage-point trees; see the
/// [module docs](self).  Mutations are serialised per specification (one
/// lock each), and the lock is held across the distance fetches a rebuild,
/// an insert or a query performs — exactly the cluster index's discipline,
/// so work on one specification never waits for another's.
#[derive(Debug, Default)]
pub struct IncrementalMetricIndex {
    /// Per-specification trees.
    pub(super) states: SpecStates<SpecMetricState>,
}

impl IncrementalMetricIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        IncrementalMetricIndex::default()
    }

    /// The `k` nearest indexed runs to `query`, pruned by the triangle
    /// inequality, building (or rebuilding) the specification's tree when
    /// the index holds no state for the given member set and version.
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
        run_names: &[String],
        query: &str,
        k: usize,
        epsilon: f64,
        pivots: Option<&MedoidPivots>,
        oracle: &O,
    ) -> Result<(Vec<(String, f64)>, PruneStats), O::Error> {
        let mut members: Vec<String> = run_names.to_vec();
        members.sort();
        members.dedup();
        let mut row = |source: &str, targets: &[&str]| oracle.distances(source, targets);
        self.states.update(spec, |slot| {
            let state = match slot {
                Some(s) if s.version == version && s.members == members => s,
                _ => {
                    let tree = VpTree::build(&members, DEFAULT_METRIC_SEED, &mut row)?;
                    slot.insert(SpecMetricState { version, members, tree })
                }
            };
            state.tree.nearest(query, k, epsilon, pivots, &mut row)
        })
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
        let absorb = |slot: &mut Option<SpecMetricState>| {
            let Some(state) = slot else {
                return Ok(false);
            };
            if state.version != version
                || state.members.binary_search(&run_name.to_string()).is_ok()
            {
                // A replaced specification or a replaced run: the distances
                // the tree was shaped by are stale.
                *slot = None;
                return Ok(false);
            }
            let mut row = |source: &str, targets: &[&str]| oracle.distances(source, targets);
            state.tree.insert(run_name, &mut row)?;
            // The name was verified absent above, so this is the insert
            // position.
            let (Ok(at) | Err(at)) = state.members.binary_search(&run_name.to_string());
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
        let remove = |slot: &mut Option<SpecMetricState>| {
            let Some(state) = slot else {
                return false;
            };
            let Ok(at) = state.members.binary_search(&run_name.to_string()) else {
                return false;
            };
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

    fn names(indices: std::ops::Range<usize>) -> Vec<String> {
        indices.map(|i| format!("p{i}")).collect()
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
            index.nearest("s", VERSION, &members, "p3", 5, 0.0, None, &oracle).unwrap();
        assert_eq!(got, exact(&line(), 3, &members, 5));
        assert_eq!(stats.approx_epsilon, 0.0);
        let after_build = *oracle.fetches.borrow();
        // A repeat query rebuilds nothing: only query-time evals accrue.
        let (again, stats) =
            index.nearest("s", VERSION, &members, "p3", 5, 0.0, None, &oracle).unwrap();
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
        index.nearest("s", VERSION, &members, "p0", 3, 0.0, None, &oracle).unwrap();
        for i in 35..40 {
            assert!(index.insert_run("s", VERSION, &format!("p{i}"), &oracle).unwrap());
            members.push(format!("p{i}"));
        }
        assert_eq!(index.member_count("s"), 40);
        members.sort();
        let (got, _) = index.nearest("s", VERSION, &members, "p38", 6, 0.0, None, &oracle).unwrap();
        assert_eq!(got, exact(&line(), 38, &members, 6));

        assert!(index.remove_run("s", "p12"));
        members.retain(|n| n != "p12");
        let (got, _) = index.nearest("s", VERSION, &members, "p10", 4, 0.0, None, &oracle).unwrap();
        assert_eq!(got, exact(&line(), 10, &members, 4));
        assert!(!index.remove_run("s", "p12"), "already gone");
        assert!(!index.remove_run("other", "p0"));
    }

    #[test]
    fn version_mismatch_and_replacement_invalidate() {
        let oracle = MatrixOracle::new(line());
        let index = IncrementalMetricIndex::new();
        let members = names(0..10);
        index.nearest("s", VERSION, &members, "p0", 2, 0.0, None, &oracle).unwrap();
        // Replaced run under an unchanged name: state dropped.
        assert!(!index.insert_run("s", VERSION, "p3", &oracle).unwrap());
        assert_eq!(index.member_count("s"), 0);
        index.nearest("s", VERSION, &members, "p0", 2, 0.0, None, &oracle).unwrap();
        assert!(!index.insert_run("s", Fingerprint(7), "p10", &oracle).unwrap());
        assert_eq!(index.member_count("s"), 0, "stale state was dropped");
    }

    #[test]
    fn a_build_waiting_on_its_distances_does_not_block_another_spec() {
        let index = IncrementalMetricIndex::new();
        let b = names(0..35);
        index.nearest("b", VERSION, &b, "p0", 3, 0.0, None, &MatrixOracle::new(line())).unwrap();
        let inserted = crate::derived::tests::finishes_while_another_spec_waits(
            MatrixOracle::new(line()),
            |gated| {
                let members = names(0..40);
                index.nearest("a", VERSION, &members, "p3", 5, 0.0, None, gated).unwrap();
            },
            || assert!(index.insert_run("b", VERSION, "p35", &MatrixOracle::new(line())).unwrap()),
        );
        assert!(inserted, "the insert into spec b waited for spec a's tree build");
        assert_eq!((index.member_count("a"), index.member_count("b")), (40, 36));
    }
}
