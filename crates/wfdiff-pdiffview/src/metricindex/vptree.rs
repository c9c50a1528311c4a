//! A deterministic vantage-point tree over the workflow edit distance.
//!
//! The tree partitions a specification's stored runs recursively: an inner
//! node holds a **pivot** run and a radius `mu` (the lower median of the
//! pivot's distances to the node's remaining runs); runs at distance
//! `<= mu` go into the *inside* subtree, the rest into the *outside*
//! subtree.  Because the edit distance is a metric, a query `q` with a
//! current `k`-th best distance `w` can skip a whole subtree whenever the
//! triangle inequality proves every run in it is farther than `w`:
//!
//! * inside subtree: every member `x` has `d(p, x) <= mu`, so
//!   `d(q, x) >= d(q, p) - mu`;
//! * outside subtree: every member has `d(p, x) >= mu`, so
//!   `d(q, x) >= mu - d(q, p)`.
//!
//! Pruning uses the **strict** comparison `bound > w`, so a pruned subtree
//! provably contains no run that could enter the result — not even a run
//! tying the `k`-th distance with a smaller name.  The answer is therefore
//! *certified* identical to the exact O(n) sweep, tie-breaks included.  The
//! opt-in approximate mode relaxes the comparison to `bound > w / (1 + ε)`,
//! which guarantees every reported distance is within `(1 + ε)` of the true
//! `k`-th distance.
//!
//! # Determinism
//!
//! [`VpTree::build`] draws each pivot with a [`ChaCha8Rng`] seeded once and
//! consumed in pre-order, over members kept in sorted name order — the same
//! member set and seed always build the same tree.  Incremental inserts
//! descend without randomness and split overflowing leaves on their
//! lexicographically first item.

use super::incremental::PruneStats;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::HashMap;
use wfdiff_core::triangle_lower_bound;

/// Leaf capacity: a leaf holding more than this many runs is split.  Small
/// enough that an unpruned leaf costs a handful of distance evaluations,
/// large enough that the tree does not degenerate on small stores.
pub(crate) const LEAF_BUCKET: usize = 16;

/// One node of a [`VpTree`], indexing into the tree's arena.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum VpNode {
    /// A routing node: pivot run, radius, and the two subtrees.
    Inner {
        /// The pivot run's name.
        pivot: String,
        /// Runs at distance exactly `0` from the pivot (identical content
        /// stored under other names), strictly ascending.  One evaluation of
        /// `d(q, pivot)` certifies the distance of every twin — the metric
        /// axioms give `d(q, t) = d(q, pivot)` exactly — so large duplicate
        /// groups cost one oracle call per query instead of one per member.
        twins: Vec<String>,
        /// Partition radius: inside members have `d(pivot, x) <= mu`.
        mu: f64,
        /// Subtree of members within `mu` of the pivot.
        inside: Option<usize>,
        /// Subtree of members farther than `mu` from the pivot.
        outside: Option<usize>,
    },
    /// A bucket of up to [`LEAF_BUCKET`] run names, strictly ascending.
    Leaf {
        /// Member run names, strictly ascending.
        items: Vec<String>,
    },
}

/// The vantage-point tree; see the [module docs](self).
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct VpTree {
    /// Node arena; parents precede their children (pre-order ids).
    pub(crate) nodes: Vec<VpNode>,
    /// Arena index of the root, `None` for an empty tree.
    pub(crate) root: Option<usize>,
}

/// Memoized medoid-to-member distance rows borrowed from the cluster
/// index: `rows[run][i]` is the memoized `d(run, medoids[i])`, when the
/// clustering happened to fetch it.  Both the query's and a candidate's row
/// cost nothing — they are reused, never recomputed — and together they
/// bound the candidate's distance from below by the best
/// [`triangle_lower_bound`] over the medoids both rows hold.
#[derive(Debug, Clone, Default)]
pub struct MedoidPivots {
    /// Per-run distance rows, aligned with the medoid list they were built
    /// against.
    rows: HashMap<String, Vec<Option<f64>>>,
}

impl MedoidPivots {
    /// Wraps memoized medoid distance rows.
    pub(crate) fn new(rows: HashMap<String, Vec<Option<f64>>>) -> Self {
        MedoidPivots { rows }
    }

    /// The best certified lower bound on `d(q, x)` obtainable from the
    /// memoized rows, or `None` when no medoid has both distances memoized.
    pub(crate) fn lower_bound(&self, q: &str, x: &str) -> Option<f64> {
        let (qr, xr) = (self.rows.get(q)?, self.rows.get(x)?);
        let mut best: Option<f64> = None;
        for (a, b) in qr.iter().zip(xr) {
            if let (Some(a), Some(b)) = (a, b) {
                let lb = triangle_lower_bound(*a, *b);
                best = Some(best.map_or(lb, |c: f64| c.max(lb)));
            }
        }
        best
    }
}

/// A bounded best-`k` collector ordered exactly like the exact sweep's
/// `sort_by(distance.total_cmp then name)` — the max-heap root is the
/// current worst under that total order.
struct BestK {
    k: usize,
    heap: std::collections::BinaryHeap<Cand>,
}

#[derive(Debug, PartialEq)]
struct Cand {
    distance: f64,
    name: String,
}

impl Eq for Cand {}

impl Ord for Cand {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.distance.total_cmp(&other.distance).then_with(|| self.name.cmp(&other.name))
    }
}

impl PartialOrd for Cand {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl BestK {
    fn new(k: usize) -> Self {
        BestK { k, heap: std::collections::BinaryHeap::with_capacity(k + 1) }
    }

    /// Offers a candidate; its name is copied only when it enters the heap.
    fn offer(&mut self, distance: f64, name: &str) {
        if self.heap.len() < self.k {
            self.heap.push(Cand { distance, name: name.to_string() });
        } else if let Some(mut worst) = self.heap.peek_mut() {
            if distance.total_cmp(&worst.distance).then_with(|| name.cmp(&worst.name)).is_lt() {
                *worst = Cand { distance, name: name.to_string() };
            }
        }
    }

    /// The current `k`-th best distance — the pruning threshold — or `None`
    /// while fewer than `k` candidates are held (nothing may be pruned yet).
    fn threshold(&self) -> Option<f64> {
        if self.heap.len() < self.k {
            None
        } else {
            self.heap.peek().map(|c| c.distance)
        }
    }

    fn into_sorted(self) -> Vec<(String, f64)> {
        let mut out: Vec<Cand> = self.heap.into_vec();
        out.sort();
        out.into_iter().map(|c| (c.name, c.distance)).collect()
    }
}

/// How `pivot` splits the other members of a node, `items`, given its
/// `distances` to them: the node, with no children yet, and the members of
/// its inside and outside subtrees.  Zero-distance members are duplicates
/// of the pivot, absorbed as twins (answered for free at query time); the
/// rest split at the lower median radius `mu`.  When every member is a
/// twin the node is a childless inner node.  When every other member ties
/// at `mu` (an equidistant clump), splitting cannot make progress — the
/// inside would hold everything again — so the node is one oversized leaf
/// of the pivot and the members; search scans leaf items linearly either
/// way, and the medoid screening still applies to them.
fn partition(
    pivot: String,
    items: Vec<String>,
    distances: &[f64],
) -> (VpNode, Vec<String>, Vec<String>) {
    let mut twins = Vec::new();
    let mut rest = Vec::with_capacity(items.len());
    for (item, d) in items.into_iter().zip(distances) {
        if *d == 0.0 {
            twins.push(item);
        } else {
            rest.push((item, *d));
        }
    }
    twins.sort();
    if rest.is_empty() {
        let node = VpNode::Inner { pivot, twins, mu: 0.0, inside: None, outside: None };
        return (node, Vec::new(), Vec::new());
    }
    let mu = lower_median_of(rest.iter().map(|(_, d)| *d));
    let (mut inside, mut outside) = (Vec::new(), Vec::new());
    for (item, d) in rest {
        if d <= mu {
            inside.push(item);
        } else {
            outside.push(item);
        }
    }
    if outside.is_empty() && twins.is_empty() {
        inside.push(pivot);
        inside.sort();
        return (VpNode::Leaf { items: inside }, Vec::new(), Vec::new());
    }
    (VpNode::Inner { pivot, twins, mu, inside: None, outside: None }, inside, outside)
}

impl VpTree {
    /// Builds a tree over `members` (must be sorted, deduplicated) with a
    /// seeded deterministic pivot draw.  `row` supplies one-source-to-many
    /// distance rows (the oracle batch shape).
    pub(crate) fn build<E>(
        members: &[String],
        seed: u64,
        row: &mut impl FnMut(&str, &[&str]) -> Result<Vec<f64>, E>,
    ) -> Result<VpTree, E> {
        let mut tree = VpTree::default();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        tree.root = tree.build_node(members.to_vec(), &mut rng, row)?;
        Ok(tree)
    }

    fn build_node<E>(
        &mut self,
        mut items: Vec<String>,
        rng: &mut ChaCha8Rng,
        row: &mut impl FnMut(&str, &[&str]) -> Result<Vec<f64>, E>,
    ) -> Result<Option<usize>, E> {
        if items.is_empty() {
            return Ok(None);
        }
        if items.len() <= LEAF_BUCKET {
            let id = self.nodes.len();
            self.nodes.push(VpNode::Leaf { items });
            return Ok(Some(id));
        }
        let pivot = items.remove(rng.gen_range(0..items.len()));
        let targets: Vec<&str> = items.iter().map(String::as_str).collect();
        let distances = row(&pivot, &targets)?;
        let (node, inside, outside) = partition(pivot, items, &distances);
        let id = self.nodes.len();
        self.nodes.push(node);
        let inside = self.build_node(inside, rng, row)?;
        let outside = self.build_node(outside, rng, row)?;
        self.link(id, inside, outside);
        Ok(Some(id))
    }

    /// Sets the children of inner node `id`; a leaf has none.
    fn link(&mut self, id: usize, inside_id: Option<usize>, outside_id: Option<usize>) {
        if let VpNode::Inner { inside, outside, .. } = &mut self.nodes[id] {
            *inside = inside_id;
            *outside = outside_id;
        }
    }

    /// The certified (or, with `epsilon > 0`, ε-relaxed) `k` nearest members
    /// to `query`, excluding `query` itself, ordered exactly like the exact
    /// sweep.  `pivots` optionally screens leaf candidates with memoized
    /// medoid distances before any evaluation.
    pub(crate) fn nearest<E>(
        &self,
        query: &str,
        k: usize,
        epsilon: f64,
        pivots: Option<&MedoidPivots>,
        row: &mut impl FnMut(&str, &[&str]) -> Result<Vec<f64>, E>,
    ) -> Result<(Vec<(String, f64)>, PruneStats), E> {
        let mut best = BestK::new(k);
        let mut stats = PruneStats { approx_epsilon: epsilon, ..PruneStats::default() };
        if k > 0 {
            self.search(self.root, query, epsilon, pivots, row, &mut best, &mut stats)?;
        }
        Ok((best.into_sorted(), stats))
    }

    /// `true` when the bound proves exclusion: every distance behind it
    /// strictly exceeds the current `k`-th best (relaxed by `1 + ε`).
    fn prunable(bound: f64, threshold: Option<f64>, epsilon: f64) -> bool {
        threshold.is_some_and(|w| bound > w / (1.0 + epsilon))
    }

    #[allow(clippy::too_many_arguments)]
    fn search<E>(
        &self,
        node: Option<usize>,
        query: &str,
        epsilon: f64,
        pivots: Option<&MedoidPivots>,
        row: &mut impl FnMut(&str, &[&str]) -> Result<Vec<f64>, E>,
        best: &mut BestK,
        stats: &mut PruneStats,
    ) -> Result<(), E> {
        let Some(id) = node else {
            return Ok(());
        };
        match &self.nodes[id] {
            VpNode::Leaf { items } => {
                let mut survivors: Vec<&str> = Vec::with_capacity(items.len());
                for item in items {
                    if item == query {
                        continue;
                    }
                    let screened = pivots
                        .and_then(|p| p.lower_bound(query, item))
                        .is_some_and(|lb| Self::prunable(lb, best.threshold(), epsilon));
                    if screened {
                        stats.members_pruned += 1;
                    } else {
                        survivors.push(item);
                    }
                }
                if survivors.is_empty() {
                    return Ok(());
                }
                let distances = row(query, &survivors)?;
                stats.distance_evals += survivors.len();
                for (item, d) in survivors.iter().zip(distances) {
                    best.offer(d, item);
                }
                Ok(())
            }
            VpNode::Inner { pivot, twins, mu, inside, outside } => {
                let d = if pivot == query {
                    0.0
                } else {
                    let d = row(query, &[pivot.as_str()])?[0];
                    stats.distance_evals += 1;
                    best.offer(d, pivot);
                    d
                };
                // Twins share the pivot's content, so `d(q, twin) == d` by
                // the metric axioms — certified answers at zero extra evals.
                for twin in twins {
                    if twin != query {
                        best.offer(d, twin);
                    }
                }
                // Visit the side containing the query's ball centre first so
                // the threshold tightens before the far side is judged.
                let (near, far, far_bound) = if d <= *mu {
                    (*inside, *outside, (*mu - d).max(0.0))
                } else {
                    (*outside, *inside, (d - *mu).max(0.0))
                };
                self.search(near, query, epsilon, pivots, row, best, stats)?;
                if Self::prunable(far_bound, best.threshold(), epsilon) {
                    if far.is_some() {
                        stats.subtrees_pruned += 1;
                    }
                    return Ok(());
                }
                self.search(far, query, epsilon, pivots, row, best, stats)
            }
        }
    }

    /// Inserts a member not currently in the tree, descending by distance
    /// and splitting an overflowing leaf on its first item (no randomness —
    /// see the [module docs](self)).  Returns the distance evaluations
    /// spent.
    pub(crate) fn insert<E>(
        &mut self,
        name: &str,
        row: &mut impl FnMut(&str, &[&str]) -> Result<Vec<f64>, E>,
    ) -> Result<usize, E> {
        let mut evals = 0usize;
        let Some(mut id) = self.root else {
            self.nodes.push(VpNode::Leaf { items: vec![name.to_string()] });
            self.root = Some(self.nodes.len() - 1);
            return Ok(evals);
        };
        loop {
            let step = match &self.nodes[id] {
                VpNode::Inner { pivot, mu, inside, outside, .. } => {
                    let d = row(name, &[pivot.as_str()])?[0];
                    evals += 1;
                    let goes_inside = d <= *mu;
                    Some((d == 0.0, goes_inside, if goes_inside { *inside } else { *outside }))
                }
                VpNode::Leaf { .. } => None,
            };
            match step {
                Some((true, _, _)) => {
                    // A duplicate of this pivot: absorb it as a twin — every
                    // future query answers it with the pivot's evaluation.
                    if let VpNode::Inner { twins, .. } = &mut self.nodes[id] {
                        if let Err(at) = twins.binary_search(&name.to_string()) {
                            twins.insert(at, name.to_string());
                        }
                    }
                    return Ok(evals);
                }
                Some((_, _, Some(next))) => id = next,
                Some((_, goes_inside, None)) => {
                    let leaf = self.nodes.len();
                    self.nodes.push(VpNode::Leaf { items: vec![name.to_string()] });
                    if let VpNode::Inner { inside, outside, .. } = &mut self.nodes[id] {
                        let slot = if goes_inside { inside } else { outside };
                        *slot = Some(leaf);
                    }
                    return Ok(evals);
                }
                None => break,
            }
        }
        if let VpNode::Leaf { items } = &mut self.nodes[id] {
            if let Err(at) = items.binary_search(&name.to_string()) {
                items.insert(at, name.to_string());
            }
            if items.len() > LEAF_BUCKET {
                evals += self.split_leaf(id, row)?;
            }
        }
        Ok(evals)
    }

    /// Splits the overflowing leaf `id` into an inner node: the pivot is the
    /// leaf's first (lexicographically smallest) item, `mu` the lower median
    /// of its distances to the rest, and each side becomes a leaf.
    fn split_leaf<E>(
        &mut self,
        id: usize,
        row: &mut impl FnMut(&str, &[&str]) -> Result<Vec<f64>, E>,
    ) -> Result<usize, E> {
        let mut items = match &mut self.nodes[id] {
            VpNode::Leaf { items } => std::mem::take(items),
            VpNode::Inner { .. } => return Ok(0),
        };
        let pivot = items.remove(0);
        let targets: Vec<&str> = items.iter().map(String::as_str).collect();
        let distances = row(&pivot, &targets)?;
        let (node, inside, outside) = partition(pivot, items, &distances);
        self.nodes[id] = node;
        let mut leaf = |items: Vec<String>| {
            (!items.is_empty()).then(|| {
                self.nodes.push(VpNode::Leaf { items });
                self.nodes.len() - 1
            })
        };
        let (inside, outside) = (leaf(inside), leaf(outside));
        self.link(id, inside, outside);
        Ok(distances.len())
    }

    /// Removes `name` when it sits in a leaf — O(nodes) scan, zero distance
    /// evaluations.  A pivot cannot be removed in place (its subtree
    /// partition depends on it); the caller drops and rebuilds instead.
    pub(crate) fn remove(&mut self, name: &str) -> RemoveOutcome {
        for node in &mut self.nodes {
            match node {
                VpNode::Leaf { items } => {
                    if let Ok(at) = items.binary_search(&name.to_string()) {
                        items.remove(at);
                        return RemoveOutcome::Removed;
                    }
                }
                VpNode::Inner { pivot, twins, .. } => {
                    if pivot == name {
                        return RemoveOutcome::IsPivot;
                    }
                    if let Ok(at) = twins.binary_search(&name.to_string()) {
                        twins.remove(at);
                        return RemoveOutcome::Removed;
                    }
                }
            }
        }
        RemoveOutcome::NotFound
    }

    /// Every member the tree holds (pivots and leaf items), sorted.
    #[cfg(test)]
    pub(crate) fn members(&self) -> Vec<String> {
        let mut out = Vec::new();
        for node in &self.nodes {
            match node {
                VpNode::Leaf { items } => out.extend(items.iter().cloned()),
                VpNode::Inner { pivot, twins, .. } => {
                    out.push(pivot.clone());
                    out.extend(twins.iter().cloned());
                }
            }
        }
        out.sort();
        out
    }
}

/// What [`VpTree::remove`] found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RemoveOutcome {
    /// The name sat in a leaf and was removed.
    Removed,
    /// The name is a pivot; the tree must be rebuilt without it.
    IsPivot,
    /// The name is not in the tree.
    NotFound,
}

/// The lower median of a non-empty distance iterator under `total_cmp`.
fn lower_median_of(distances: impl Iterator<Item = f64>) -> f64 {
    let mut sorted: Vec<f64> = distances.collect();
    sorted.sort_by(|a, b| a.total_cmp(b));
    sorted[(sorted.len() - 1) / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Absolute-difference metric over integer-named points `p000..`.
    fn line_row(
        coords: &HashMap<String, f64>,
    ) -> impl FnMut(&str, &[&str]) -> Result<Vec<f64>, String> + '_ {
        move |source: &str, targets: &[&str]| {
            let s = *coords.get(source).ok_or("unknown source")?;
            targets
                .iter()
                .map(|t| coords.get(*t).map(|x| (s - x).abs()).ok_or_else(|| "unknown".into()))
                .collect()
        }
    }

    fn points(n: usize) -> (Vec<String>, HashMap<String, f64>) {
        let names: Vec<String> = (0..n).map(|i| format!("p{i:03}")).collect();
        // A lumpy but deterministic layout (not uniform, so medians differ).
        let coords =
            names.iter().enumerate().map(|(i, n)| (n.clone(), ((i * i) % 97) as f64)).collect();
        (names, coords)
    }

    fn exact(coords: &HashMap<String, f64>, query: &str, k: usize) -> Vec<(String, f64)> {
        let q = coords[query];
        let mut all: Vec<(String, f64)> = coords
            .iter()
            .filter(|(n, _)| n.as_str() != query)
            .map(|(n, x)| (n.clone(), (q - x).abs()))
            .collect();
        all.sort_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
        all.truncate(k);
        all
    }

    #[test]
    fn build_is_deterministic_and_holds_every_member() {
        let (names, coords) = points(60);
        let t1 = VpTree::build(&names, 7, &mut line_row(&coords)).unwrap();
        let t2 = VpTree::build(&names, 7, &mut line_row(&coords)).unwrap();
        assert_eq!(t1, t2);
        assert_eq!(t1.members(), names);
        let t3 = VpTree::build(&names, 8, &mut line_row(&coords)).unwrap();
        assert_eq!(t3.members(), names, "any seed partitions the same member set");
    }

    #[test]
    fn nearest_matches_the_exact_sweep_with_ties() {
        let (names, coords) = points(80);
        let tree = VpTree::build(&names, 1, &mut line_row(&coords)).unwrap();
        for query in ["p000", "p013", "p079"] {
            for k in [1, 3, 10, 200] {
                let (got, stats) =
                    tree.nearest(query, k, 0.0, None, &mut line_row(&coords)).unwrap();
                assert_eq!(got, exact(&coords, query, k), "query={query} k={k}");
                assert!(stats.distance_evals < names.len());
            }
        }
    }

    #[test]
    fn pruning_saves_evaluations_on_clustered_data() {
        // Tight clusters far apart: most subtrees prune.
        let names: Vec<String> = (0..128).map(|i| format!("p{i:03}")).collect();
        let coords: HashMap<String, f64> = names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.clone(), (i / 16) as f64 * 1000.0 + (i % 16) as f64))
            .collect();
        let tree = VpTree::build(&names, 3, &mut line_row(&coords)).unwrap();
        let (got, stats) = tree.nearest("p000", 5, 0.0, None, &mut line_row(&coords)).unwrap();
        assert_eq!(got, exact(&coords, "p000", 5));
        assert!(
            stats.distance_evals * 2 < names.len(),
            "pruned search evaluated {} of {} candidates",
            stats.distance_evals,
            names.len() - 1,
        );
        assert!(stats.subtrees_pruned > 0);
    }

    #[test]
    fn inserts_and_leaf_removals_keep_answers_exact() {
        let (names, coords) = points(40);
        let (head, tail) = names.split_at(30);
        let mut tree = VpTree::build(head, 5, &mut line_row(&coords)).unwrap();
        for name in tail {
            tree.insert(name, &mut line_row(&coords)).unwrap();
        }
        assert_eq!(tree.members(), names);
        let (got, _) = tree.nearest("p035", 7, 0.0, None, &mut line_row(&coords)).unwrap();
        assert_eq!(got, exact(&coords, "p035", 7));

        // Remove a leaf member and re-query against the shrunken exact set.
        let leaf_member = tree
            .nodes
            .iter()
            .find_map(|n| match n {
                VpNode::Leaf { items } => items.first().cloned(),
                VpNode::Inner { .. } => None,
            })
            .unwrap();
        assert_eq!(tree.remove(&leaf_member), RemoveOutcome::Removed);
        assert_eq!(tree.remove(&leaf_member), RemoveOutcome::NotFound);
        let mut shrunk = coords.clone();
        shrunk.remove(&leaf_member);
        let query = names.iter().find(|n| **n != leaf_member).unwrap();
        let (got, _) = tree.nearest(query, 5, 0.0, None, &mut line_row(&shrunk)).unwrap();
        assert_eq!(got, exact(&shrunk, query, 5));
    }

    #[test]
    fn pivot_removal_is_refused() {
        let (names, coords) = points(60);
        let mut tree = VpTree::build(&names, 2, &mut line_row(&coords)).unwrap();
        let pivot = tree
            .nodes
            .iter()
            .find_map(|n| match n {
                VpNode::Inner { pivot, .. } => Some(pivot.clone()),
                VpNode::Leaf { .. } => None,
            })
            .unwrap();
        assert_eq!(tree.remove(&pivot), RemoveOutcome::IsPivot);
    }

    #[test]
    fn approx_mode_is_within_the_reported_bound() {
        let (names, coords) = points(90);
        let tree = VpTree::build(&names, 11, &mut line_row(&coords)).unwrap();
        let eps = 0.5;
        for query in ["p001", "p044"] {
            let truth = exact(&coords, query, 5);
            let (got, _) = tree.nearest(query, 5, eps, None, &mut line_row(&coords)).unwrap();
            assert_eq!(got.len(), truth.len());
            let true_kth = truth.last().unwrap().1;
            for (_, d) in &got {
                assert!(*d <= (1.0 + eps) * true_kth + 1e-9, "{d} vs {true_kth}");
            }
        }
    }

    #[test]
    fn duplicate_groups_collapse_into_twins() {
        // 200 points in 5 duplicate groups of 40: the tree must absorb each
        // group under one pivot, and a query must resolve whole groups with
        // one evaluation each — far fewer than the 199-eval sweep.
        let names: Vec<String> = (0..200).map(|i| format!("p{i:03}")).collect();
        let coords: HashMap<String, f64> =
            names.iter().enumerate().map(|(i, n)| (n.clone(), (i % 5) as f64 * 10.0)).collect();
        let tree = VpTree::build(&names, 9, &mut line_row(&coords)).unwrap();
        assert_eq!(tree.members(), names);
        let twin_total: usize = tree
            .nodes
            .iter()
            .map(|n| match n {
                VpNode::Inner { twins, .. } => twins.len(),
                VpNode::Leaf { .. } => 0,
            })
            .sum();
        assert!(twin_total >= 150, "only {twin_total} of 195 duplicates became twins");
        for (query, k) in [("p000", 10), ("p003", 45), ("p199", 3)] {
            let (got, stats) = tree.nearest(query, k, 0.0, None, &mut line_row(&coords)).unwrap();
            assert_eq!(got, exact(&coords, query, k), "query={query} k={k}");
            assert!(
                stats.distance_evals <= 20,
                "query={query} k={k} spent {} evals on 5 distinct shapes",
                stats.distance_evals
            );
        }

        // Streamed duplicates join their pivot's twin set.
        let mut grown = coords.clone();
        grown.insert("q000".to_string(), 10.0);
        let mut tree = tree;
        tree.insert("q000", &mut line_row(&grown)).unwrap();
        assert!(tree.members().contains(&"q000".to_string()));
        let (got, _) = tree.nearest("p000", 60, 0.0, None, &mut line_row(&grown)).unwrap();
        assert_eq!(got, exact(&grown, "p000", 60));
        // And a twin removal is an in-place edit, not a rebuild.
        assert_eq!(tree.remove("q000"), RemoveOutcome::Removed);
        assert_eq!(tree.remove("q000"), RemoveOutcome::NotFound);
    }

    #[test]
    fn medoid_pivots_screen_candidates_without_changing_answers() {
        // A planar layout where the vantage ring is too loose to prune the
        // far leaf (the query sits exactly on the ring) but a medoid near
        // the query screens every far item: q=(0,0), pivot p=(100,0) with
        // mu = 100, near leaf {a=(1,0), b=(0,1), q}, far leaf {m=(0,3),
        // x=(0,200)}, medoid m.
        let coords: HashMap<String, (f64, f64)> = [
            ("q", (0.0, 0.0)),
            ("a", (1.0, 0.0)),
            ("b", (0.0, 1.0)),
            ("m", (0.0, 3.0)),
            ("p", (100.0, 0.0)),
            ("x", (0.0, 200.0)),
        ]
        .into_iter()
        .map(|(n, xy)| (n.to_string(), xy))
        .collect();
        let dist =
            |a: (f64, f64), b: (f64, f64)| ((a.0 - b.0).powi(2) + (a.1 - b.1).powi(2)).sqrt();
        let mut row = |source: &str, targets: &[&str]| -> Result<Vec<f64>, ()> {
            let s = coords[source];
            Ok(targets.iter().map(|t| dist(s, coords[*t])).collect())
        };
        let tree = VpTree {
            nodes: vec![
                VpNode::Inner {
                    pivot: "p".to_string(),
                    twins: Vec::new(),
                    mu: 100.0,
                    inside: Some(1),
                    outside: Some(2),
                },
                VpNode::Leaf { items: vec!["a".to_string(), "b".to_string(), "q".to_string()] },
                VpNode::Leaf { items: vec!["m".to_string(), "x".to_string()] },
            ],
            root: Some(0),
        };
        let rows: HashMap<String, Vec<Option<f64>>> =
            coords.iter().map(|(n, xy)| (n.clone(), vec![Some(dist(*xy, coords["m"]))])).collect();
        let pivots = MedoidPivots::new(rows);
        let (plain, plain_stats) = tree.nearest("q", 2, 0.0, None, &mut row).unwrap();
        let (screened, stats) = tree.nearest("q", 2, 0.0, Some(&pivots), &mut row).unwrap();
        assert_eq!(screened, plain);
        assert_eq!(screened, vec![("a".to_string(), 1.0), ("b".to_string(), 1.0)]);
        // The far leaf is visited (the query sits on the vantage ring) but
        // both its items are screened by the medoid bound before any
        // evaluation: |d(q,m) - d(m,x)| = 197 > 1 and d(q,m) - d(m,m) = 3 > 1.
        assert_eq!(stats.members_pruned, 2, "medoid rows screened the far leaf");
        assert!(stats.distance_evals < plain_stats.distance_evals);
    }
}
