//! Order statistics over latency samples, with the tail-support rule the
//! report applies: a percentile is printed as a number only when at least
//! [`MIN_TAIL_SAMPLES`] samples lie beyond it.

/// Samples that must lie beyond a tail percentile for it to be reported.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// A sorted sample set (nanoseconds or any other non-negative unit).
#[derive(Debug, Clone, Default)]
pub struct Samples {
    sorted: Vec<u64>,
}

impl Samples {
    /// Sorts `values` once; every query after that is O(1).
    pub fn new(mut values: Vec<u64>) -> Samples {
        values.sort_unstable();
        Samples { sorted: values }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether there are no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Nearest-rank position of the `p`-th percentile (`0 < p <= 100`).
    fn rank(&self, p: f64) -> usize {
        let n = self.sorted.len();
        let rank = (p / 100.0 * n as f64).ceil() as usize;
        rank.clamp(1, n) - 1
    }

    /// The nearest-rank `p`-th percentile, `None` on an empty set.
    pub fn percentile(&self, p: f64) -> Option<u64> {
        if self.sorted.is_empty() {
            return None;
        }
        Some(self.sorted[self.rank(p)])
    }

    /// How many samples lie strictly beyond the `p`-th percentile's rank.
    pub fn beyond(&self, p: f64) -> usize {
        if self.sorted.is_empty() {
            return 0;
        }
        self.sorted.len() - 1 - self.rank(p)
    }

    /// The `p`-th percentile if at least [`MIN_TAIL_SAMPLES`] samples lie
    /// beyond it, `None` (unsupported) otherwise.
    pub fn supported(&self, p: f64) -> Option<u64> {
        if self.beyond(p) >= MIN_TAIL_SAMPLES {
            self.percentile(p)
        } else {
            None
        }
    }

    /// The median.
    pub fn median(&self) -> Option<u64> {
        self.percentile(50.0)
    }
}

/// The median of a small set of floats (set-up times, RSS readings); the
/// mean of the two middle values for even counts.  `NaN` when empty.
pub fn median_f64(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nanoseconds as microseconds, keeping the sub-microsecond digits.
pub fn ns_to_us(ns: u64) -> f64 {
    ns as f64 / 1000.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank_order_statistics() {
        let s = Samples::new((1..=100).rev().collect());
        assert_eq!(s.percentile(50.0), Some(50));
        assert_eq!(s.percentile(90.0), Some(90));
        assert_eq!(s.percentile(99.0), Some(99));
        assert_eq!(s.percentile(100.0), Some(100));
        assert_eq!(s.median(), Some(50));
        let one = Samples::new(vec![7]);
        assert_eq!(one.percentile(1.0), Some(7));
        assert_eq!(one.percentile(99.0), Some(7));
        assert_eq!(Samples::new(Vec::new()).percentile(50.0), None);
    }

    #[test]
    fn tail_percentiles_need_ten_samples_beyond_them() {
        // 999 samples: the p99 rank is 990 (1-based), so 9 lie beyond it.
        let s = Samples::new((0..999).collect());
        assert_eq!(s.beyond(99.0), 9);
        assert_eq!(s.supported(99.0), None);
        assert!(s.supported(90.0).is_some());
        // 1000 samples: exactly 10 beyond the p99 rank.
        let s = Samples::new((0..1000).collect());
        assert_eq!(s.beyond(99.0), 10);
        assert_eq!(s.supported(99.0), Some(989));
        // The median of 20 samples has 10 beyond it; of 19, only 9.
        assert!(Samples::new((0..20).collect()).supported(50.0).is_some());
        assert!(Samples::new((0..19).collect()).supported(50.0).is_none());
        assert_eq!(Samples::new(Vec::new()).supported(50.0), None);
    }

    #[test]
    fn float_median_averages_the_middle_pair() {
        assert_eq!(median_f64(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_f64(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median_f64(&[]).is_nan());
        assert_eq!(ns_to_us(1500), 1.5);
    }
}
