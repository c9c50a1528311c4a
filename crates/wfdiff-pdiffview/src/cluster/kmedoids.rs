//! Distance-matrix-backed k-medoids (PAM-style alternating) clustering.
//!
//! The edit distance of Algorithm 4 is a metric over the runs of one
//! specification, which makes medoid-based clustering the natural fit for
//! PDiffView's "group the runs of this workflow" application: a **medoid**
//! is itself a stored run (no averaging in an abstract feature space), so
//! every cluster has a concrete representative run a user can open.
//!
//! The algorithm is the classic alternating (Voronoi) iteration:
//!
//! 1. **seed** — the first medoid is drawn with a seeded [`ChaCha8Rng`] and
//!    the remaining `k - 1` by farthest-point traversal (each new medoid
//!    maximises its distance to the chosen ones; ties break to the lowest
//!    index).  Farthest-point seeding lands one medoid per well-separated
//!    group for *any* seed, which is what lets an incrementally maintained
//!    clustering and a from-scratch one agree,
//! 2. **assign** — a medoid keeps its own cluster; every other point joins
//!    its nearest medoid (ties break to the lowest cluster index), so no
//!    cluster can be left empty even when duplicate points are seeded as
//!    several medoids,
//! 3. **repair** — defensively, a cluster that still ends up empty
//!    re-seeds its medoid with the point farthest from its current medoid,
//! 4. **update** — each cluster's medoid becomes the member minimising the
//!    sum of intra-cluster distances (ties break to the lowest point index),
//! 5. repeat 2–4 until a fixed point (or an iteration ceiling).
//!
//! Every choice is tie-broken on indices, so the outcome is a **pure
//! function of the distances, `k` and the seed** — the property the
//! incremental index and the integration tests rely on.
//!
//! Distances are pulled through a fallible callback rather than a
//! materialised matrix: the incremental index fetches only the
//! O(k·n + Σ|cluster|²) entries the iteration actually inspects and
//! memoises them (see [`incremental`](crate::cluster::incremental)).

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Default seed of the run-clustering entry points: clustering the same
/// store with the same `k` always yields the same clusters.
pub const DEFAULT_CLUSTER_SEED: u64 = 0xC1D5;

/// The result of a k-medoids clustering over `n` points.
///
/// Clusters are normalised: medoids are listed in ascending point-index
/// order and `assignments[p]` indexes into `medoids`, so two runs of the
/// algorithm over the same input compare equal with `==`.
#[derive(Debug, Clone, PartialEq)]
pub struct KMedoids {
    /// Medoid point indices, ascending.
    pub medoids: Vec<usize>,
    /// For every point, the index (into [`KMedoids::medoids`]) of its
    /// cluster.
    pub assignments: Vec<usize>,
    /// Sum of every point's distance to its medoid.
    pub cost: f64,
    /// Assignment/update rounds until the fixed point.
    pub iterations: usize,
}

impl KMedoids {
    /// The members of cluster `c`, in ascending point order.
    pub fn members(&self, c: usize) -> Vec<usize> {
        self.assignments.iter().enumerate().filter(|(_, &a)| a == c).map(|(p, _)| p).collect()
    }

    /// The medoid-based (simplified) silhouette score, in `[-1, 1]`.
    ///
    /// For every point `p`, `a(p)` is its distance to its own medoid and
    /// `b(p)` the distance to the nearest *other* medoid; the score is the
    /// mean of `(b - a) / max(a, b)` (0 for a point sitting on its medoid).
    /// Unlike the classical silhouette this needs only point-to-medoid
    /// distances, so the incremental index can report it without ever
    /// materialising the full distance matrix.
    pub fn silhouette<E>(
        &self,
        dist: &mut impl FnMut(usize, usize) -> Result<f64, E>,
    ) -> Result<f64, E> {
        if self.medoids.len() < 2 || self.assignments.is_empty() {
            return Ok(0.0);
        }
        let mut total = 0.0;
        for (p, &c) in self.assignments.iter().enumerate() {
            let a = dist(p, self.medoids[c])?;
            let mut b = f64::INFINITY;
            for (other, &m) in self.medoids.iter().enumerate() {
                if other != c {
                    b = b.min(dist(p, m)?);
                }
            }
            let denom = a.max(b);
            if denom > 0.0 {
                total += (b - a) / denom;
            }
        }
        Ok(total / self.assignments.len() as f64)
    }
}

/// Picks `k` distinct initial medoids out of `0..n`: the first with a
/// seeded [`ChaCha8Rng`] draw, the rest by farthest-point traversal (each
/// next medoid maximises its minimum distance to the already-chosen ones;
/// ties break to the lowest index).
pub(crate) fn seed_medoids<E>(
    n: usize,
    k: usize,
    seed: u64,
    dist: &mut impl FnMut(usize, usize) -> Result<f64, E>,
) -> Result<Vec<usize>, E> {
    assert!(n > 0 && k > 0 && k <= n, "need 0 < k <= n, got k={k}, n={n}");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut medoids = vec![rng.gen_range(0..n)];
    while medoids.len() < k {
        let mut farthest = (f64::NEG_INFINITY, 0usize);
        for p in 0..n {
            if medoids.contains(&p) {
                continue;
            }
            let mut nearest = f64::INFINITY;
            for &m in &medoids {
                nearest = nearest.min(dist(p, m)?);
            }
            if nearest > farthest.0 {
                farthest = (nearest, p);
            }
        }
        medoids.push(farthest.1);
    }
    Ok(medoids)
}

/// The alternating iteration from explicit initial medoids.  `dist` may
/// fail (the incremental index's oracle diffs against the store).
pub(crate) fn solve<E>(
    n: usize,
    initial_medoids: Vec<usize>,
    max_iterations: usize,
    dist: &mut impl FnMut(usize, usize) -> Result<f64, E>,
) -> Result<KMedoids, E> {
    assert!(n > 0, "cannot cluster zero points");
    let mut medoids = initial_medoids;
    debug_assert!(!medoids.is_empty() && medoids.len() <= n);
    let k = medoids.len();
    let mut assignments = vec![0usize; n];
    let mut iterations = 0usize;

    loop {
        iterations += 1;
        // Assignment: nearest medoid, ties to the lowest cluster index —
        // except that a medoid always keeps its own cluster.  Without that
        // exception, duplicate points seeded as two medoids would tie
        // towards the lower cluster, leave the other empty, and the repair
        // step below would oscillate to the iteration ceiling instead of
        // converging.
        for (p, slot) in assignments.iter_mut().enumerate() {
            if let Some(own) = medoids.iter().position(|&m| m == p) {
                *slot = own;
                continue;
            }
            let mut best = (f64::INFINITY, 0usize);
            for (c, &m) in medoids.iter().enumerate() {
                let d = dist(p, m)?;
                if d < best.0 {
                    best = (d, c);
                }
            }
            *slot = best.1;
        }

        // Repair (defensive: unreachable while the initial medoids are
        // distinct, which every caller guarantees): a cluster with no
        // members — not even its own medoid — is re-seeded with the point
        // farthest from its current medoid, deterministically.
        let mut sizes = vec![0usize; k];
        for &a in &assignments {
            sizes[a] += 1;
        }
        if let Some(empty) = sizes.iter().position(|&s| s == 0) {
            let mut farthest = (f64::NEG_INFINITY, usize::MAX);
            for (p, &a) in assignments.iter().enumerate() {
                if medoids.contains(&p) {
                    continue;
                }
                let d = dist(p, medoids[a])?;
                if d > farthest.0 {
                    farthest = (d, p);
                }
            }
            if farthest.1 == usize::MAX {
                // Fewer distinct points than clusters: every point *is* a
                // medoid already.  Give the empty cluster its own medoid as
                // the sole member and fall through to the update step.
                assignments[medoids[empty]] = empty;
            } else {
                medoids[empty] = farthest.1;
                if iterations < max_iterations {
                    continue;
                }
            }
        }

        // Update: each cluster's medoid minimises the intra-cluster
        // distance sum; ties to the lowest point index.
        let mut changed = false;
        for (c, medoid) in medoids.iter_mut().enumerate() {
            let members: Vec<usize> = (0..n).filter(|&p| assignments[p] == c).collect();
            let mut best = (f64::INFINITY, *medoid);
            for &candidate in &members {
                let mut sum = 0.0;
                for &m in &members {
                    sum += dist(candidate, m)?;
                }
                if sum < best.0 || (sum == best.0 && candidate < best.1) {
                    best = (sum, candidate);
                }
            }
            if best.1 != *medoid {
                *medoid = best.1;
                changed = true;
            }
        }

        if !changed || iterations >= max_iterations {
            break;
        }
    }

    // Normalise: clusters ordered by ascending medoid index, so equal
    // clusterings compare equal structurally.
    let mut order: Vec<usize> = (0..k).collect();
    order.sort_by_key(|&c| medoids[c]);
    let mut remap = vec![0usize; k];
    for (new_c, &old_c) in order.iter().enumerate() {
        remap[old_c] = new_c;
    }
    let medoids: Vec<usize> = order.iter().map(|&c| medoids[c]).collect();
    for a in &mut assignments {
        *a = remap[*a];
    }
    let mut cost = 0.0;
    for (p, &c) in assignments.iter().enumerate() {
        cost += dist(p, medoids[c])?;
    }
    Ok(KMedoids { medoids, assignments, cost, iterations })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::convert::Infallible;

    /// Iteration ceiling of the tests, the incremental index's own.
    const MAX_ITERATIONS: usize = 64;

    /// Two tight groups on a line: {0,1,2} near 0 and {3,4,5} near 100.
    fn two_blob_matrix() -> Vec<Vec<f64>> {
        let coords: [f64; 6] = [0.0, 1.0, 2.0, 100.0, 101.0, 102.0];
        coords.iter().map(|a| coords.iter().map(|b| (a - b).abs()).collect()).collect()
    }

    fn getter(matrix: &[Vec<f64>]) -> impl FnMut(usize, usize) -> Result<f64, Infallible> + '_ {
        |i, j| Ok(matrix[i][j])
    }

    /// Seeds and solves over a full matrix — the incremental index's path,
    /// with `k` clamped to the point count as the index clamps it.
    fn cluster(matrix: &[Vec<f64>], k: usize, seed: u64) -> KMedoids {
        let n = matrix.len();
        let mut get = getter(matrix);
        let initial = seed_medoids(n, k.min(n), seed, &mut get).unwrap();
        solve(n, initial, MAX_ITERATIONS, &mut get).unwrap()
    }

    #[test]
    fn separated_blobs_are_recovered_for_any_seed() {
        let matrix = two_blob_matrix();
        for seed in 0..16 {
            let result = cluster(&matrix, 2, seed);
            assert_eq!(result.assignments[0], result.assignments[1]);
            assert_eq!(result.assignments[1], result.assignments[2]);
            assert_eq!(result.assignments[3], result.assignments[4]);
            assert_eq!(result.assignments[4], result.assignments[5]);
            assert_ne!(result.assignments[0], result.assignments[3], "seed {seed}");
            // The medoids are the group centres (ties none here).
            assert_eq!(result.medoids, vec![1, 4], "seed {seed}");
            assert_eq!(result.cost, 4.0);
            let s = result.silhouette(&mut getter(&matrix)).unwrap();
            assert!(s > 0.9, "well-separated blobs score near 1, got {s}");
        }
    }

    #[test]
    fn results_are_deterministic_for_a_fixed_seed() {
        let matrix = two_blob_matrix();
        assert_eq!(cluster(&matrix, 3, 42), cluster(&matrix, 3, 42));
    }

    #[test]
    fn more_clusters_than_distinct_points_stays_valid_and_converges() {
        // Two distinct values but k=3: duplicate points are necessarily
        // seeded as multiple medoids.  The clustering must still converge
        // quickly and every cluster must contain its own medoid.
        let coords: [f64; 6] = [0.0, 0.0, 0.0, 100.0, 100.0, 100.0];
        let matrix: Vec<Vec<f64>> =
            coords.iter().map(|a| coords.iter().map(|b| (a - b).abs()).collect()).collect();
        for seed in 0..8 {
            let result = cluster(&matrix, 3, seed);
            assert!(result.iterations < 10, "seed {seed}: oscillated ({result:?})");
            for (c, &m) in result.medoids.iter().enumerate() {
                assert_eq!(result.assignments[m], c, "seed {seed}: medoid owns its cluster");
                assert!(!result.members(c).is_empty(), "seed {seed}: empty cluster");
            }
        }
    }

    #[test]
    fn duplicate_points_do_not_wedge_the_iteration() {
        // All-zero distances: every seed draws "duplicate" medoids and the
        // repair step must still terminate with k clusters.
        let matrix = vec![vec![0.0; 4]; 4];
        let result = cluster(&matrix, 3, 7);
        assert_eq!(result.medoids.len(), 3);
        assert_eq!(result.cost, 0.0);
        assert_eq!(result.silhouette(&mut getter(&matrix)).unwrap(), 0.0);
    }

    #[test]
    fn k_one_puts_everything_in_one_cluster() {
        let matrix = two_blob_matrix();
        let result = cluster(&matrix, 1, DEFAULT_CLUSTER_SEED);
        assert!(result.assignments.iter().all(|&a| a == 0));
        assert_eq!(result.medoids.len(), 1);
        let s = result.silhouette(&mut getter(&matrix)).unwrap();
        assert_eq!(s, 0.0, "single cluster scores 0");
    }

    #[test]
    fn k_is_clamped_and_seeding_is_distinct() {
        let matrix = two_blob_matrix();
        let result = cluster(&matrix, 99, DEFAULT_CLUSTER_SEED);
        assert_eq!(result.medoids.len(), 6, "k clamps to n");
        let mut sorted = result.medoids.clone();
        sorted.dedup();
        assert_eq!(sorted.len(), 6, "medoids are distinct points");
        let mut get = getter(&matrix);
        let seeds = seed_medoids(6, 4, 123, &mut get).unwrap();
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), 4, "seeded medoids are distinct");
        assert_eq!(seeds, seed_medoids(6, 4, 123, &mut get).unwrap(), "seeding is deterministic");
    }
}
