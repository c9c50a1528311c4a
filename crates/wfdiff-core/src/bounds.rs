//! Triangle-inequality distance bounds for metric-space pruning.
//!
//! The workflow edit distance is a true metric (identity, symmetry and the
//! triangle inequality — see [`crate::cost::check_metric_axioms`] and the
//! paper's Theorem 2), which is exactly what makes *certified* pruning
//! possible: from two known distances `d(q, p)` and `d(p, x)` the unknown
//! `d(q, x)` is provably confined to the interval
//!
//! ```text
//! |d(q, p) − d(p, x)|  ≤  d(q, x)  ≤  d(q, p) + d(p, x)
//! ```
//!
//! A nearest-neighbour search holding a current `k`-th best distance `w` can
//! therefore skip computing `d(q, x)` whenever the **lower** bound already
//! exceeds `w` — the skip is a proof of exclusion, never a heuristic.  The
//! metric index in `wfdiff-pdiffview` builds its medoid-pivot candidate
//! bounds on [`triangle_lower_bound`].

/// The largest value `v` with `|d(q, p) − d(p, x)| ≥ v` guaranteed by the
/// triangle inequality for the unknown distance `d(q, x)`: the certified
/// lower bound `|d_qp − d_px|`.
///
/// Both inputs must be non-negative distances under the *same* metric; the
/// result is then itself a valid non-negative distance bound.
#[inline]
pub fn triangle_lower_bound(d_qp: f64, d_px: f64) -> f64 {
    (d_qp - d_px).abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_bracket_the_true_distance_on_the_line() {
        // Points on a line: the 1-D Euclidean metric makes every bound tight
        // or slack in a predictable direction.
        let (q, p, x) = (0.0_f64, 3.0, 10.0);
        let (d_qp, d_px, d_qx) = ((q - p).abs(), (p - x).abs(), (q - x).abs());
        assert!(triangle_lower_bound(d_qp, d_px) <= d_qx);
        assert!(d_qp + d_px >= d_qx);
        // With p between q and x the legs subtract exactly.
        assert_eq!(triangle_lower_bound(d_qp, d_px), d_qx - 2.0 * d_qp.min(d_px));
    }

    #[test]
    fn lower_bound_is_symmetric_and_zero_on_equal_legs() {
        assert_eq!(triangle_lower_bound(2.5, 7.0), triangle_lower_bound(7.0, 2.5));
        assert_eq!(triangle_lower_bound(4.0, 4.0), 0.0);
    }
}
