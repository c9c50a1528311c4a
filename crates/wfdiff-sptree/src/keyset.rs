//! Fixed-width bitsets over a specification's *keys*.
//!
//! A key names the part of a specification a run edge instantiates: one of
//! its `E` edges (bits `0..E`) or the implicit back edge of one of its loops
//! (bits `E..E + loops`, in control order).  Run replay keeps one key set per
//! tree node, for the specification tree (computed once per specification)
//! and for the run's canonical tree, and asks two questions of them: do two
//! sets overlap, and is a set exactly one loop's back edge.

/// One key set per tree node, stored as rows of equal width in one buffer.
#[derive(Debug, Clone)]
pub(crate) struct KeySets {
    words: usize,
    bits: Vec<u64>,
}

impl KeySets {
    /// `rows` empty sets over keys `0..width`.
    pub(crate) fn new(rows: usize, width: usize) -> Self {
        let words = width.div_ceil(64).max(1);
        KeySets { words, bits: vec![0; rows * words] }
    }

    fn row(&self, row: usize) -> &[u64] {
        &self.bits[row * self.words..(row + 1) * self.words]
    }

    /// Adds key `bit` to set `row`.
    pub(crate) fn insert(&mut self, row: usize, bit: usize) {
        self.bits[row * self.words + bit / 64] |= 1 << (bit % 64);
    }

    /// Adds every key of set `src` to set `dst`.
    pub(crate) fn union_into(&mut self, dst: usize, src: usize) {
        for w in 0..self.words {
            self.bits[dst * self.words + w] |= self.bits[src * self.words + w];
        }
    }

    /// Whether set `row` shares a key with set `other_row` of `other`.
    pub(crate) fn overlaps(&self, row: usize, other: &KeySets, other_row: usize) -> bool {
        self.row(row).iter().zip(other.row(other_row)).any(|(a, b)| a & b != 0)
    }

    /// Whether set `row` is exactly `{bit}`.
    pub(crate) fn is_only(&self, row: usize, bit: usize) -> bool {
        let words = self.row(row);
        words[bit / 64] & (1 << (bit % 64)) != 0
            && words.iter().map(|w| w.count_ones()).sum::<u32>() == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sets_union_overlap_and_single_key_tests_span_words() {
        let mut a = KeySets::new(3, 130);
        a.insert(0, 3);
        a.insert(1, 129);
        a.union_into(2, 0);
        a.union_into(2, 1);
        let mut b = KeySets::new(1, 130);
        b.insert(0, 129);
        assert!(!a.overlaps(0, &b, 0));
        assert!(a.overlaps(1, &b, 0));
        assert!(a.overlaps(2, &b, 0));
        assert!(a.is_only(1, 129));
        assert!(!a.is_only(2, 129), "a second key breaks exactness");
        assert!(!a.is_only(0, 129));
    }
}
