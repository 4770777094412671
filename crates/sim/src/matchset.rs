//! Flat bitset candidate sets for the simulation hot loops.
//!
//! A [`MatchSet`] stores one row per pattern variable, each row a
//! fixed-width run of `u64` words over a `u32` node arena (graph node
//! ids centrally, fragment indices inside a site).  The kernels in
//! `hhk.rs`, `dgs-core::local_eval` and the dGPM site logic all spend
//! their time asking "is `(u, v)` still a candidate?" and "kill
//! `(u, v)` exactly once" — as words, those become single-bit tests
//! plus word-at-a-time intersect/union/copy that the compiler can
//! autovectorize, replacing per-pair `HashSet` churn.
//!
//! Determinism contract: a `MatchSet` has no iteration-order freedom.
//! [`MatchSet::iter_row`] always yields columns in ascending order, so
//! every consumer that extracts match lists from rows produces
//! byte-identical output regardless of the insertion order that built
//! the set.  See `docs/MATCHSET.md`.

/// Bits per storage word.
pub const WORD_BITS: usize = 64;

/// A dense `rows × cols` bit matrix: row = pattern variable, column =
/// node (or fragment index) in a `u32` arena.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MatchSet {
    rows: usize,
    cols: usize,
    /// Words per row — rows are contiguous, word-aligned runs.
    stride: usize,
    bits: Vec<u64>,
}

impl MatchSet {
    /// An all-zero set with `rows` rows over a `cols`-wide arena.
    pub fn new(rows: usize, cols: usize) -> Self {
        let stride = cols.div_ceil(WORD_BITS);
        MatchSet {
            rows,
            cols,
            stride,
            bits: vec![0u64; rows * stride],
        }
    }

    /// Number of rows (pattern variables).
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Arena width in columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Words per row; the unit in which bulk operations are charged.
    #[inline]
    pub fn words_per_row(&self) -> usize {
        self.stride
    }

    #[inline]
    fn base(&self, row: usize) -> usize {
        debug_assert!(row < self.rows, "row {row} out of {}", self.rows);
        row * self.stride
    }

    /// Tests bit `col` of `row`.
    #[inline]
    pub fn test(&self, row: usize, col: u32) -> bool {
        let col = col as usize;
        debug_assert!(col < self.cols, "col {col} out of {}", self.cols);
        let w = self.bits[self.base(row) + col / WORD_BITS];
        (w >> (col % WORD_BITS)) & 1 != 0
    }

    /// Sets bit `col` of `row`.
    #[inline]
    pub fn set(&mut self, row: usize, col: u32) {
        let col = col as usize;
        debug_assert!(col < self.cols, "col {col} out of {}", self.cols);
        let base = self.base(row);
        self.bits[base + col / WORD_BITS] |= 1u64 << (col % WORD_BITS);
    }

    /// Sets bit `col` of `row`, returning `true` iff it was newly set.
    #[inline]
    pub fn insert(&mut self, row: usize, col: u32) -> bool {
        let col = col as usize;
        debug_assert!(col < self.cols, "col {col} out of {}", self.cols);
        let base = self.base(row);
        let w = &mut self.bits[base + col / WORD_BITS];
        let mask = 1u64 << (col % WORD_BITS);
        let fresh = *w & mask == 0;
        *w |= mask;
        fresh
    }

    /// Clears bit `col` of `row`, returning `true` iff it was set.
    #[inline]
    pub fn remove(&mut self, row: usize, col: u32) -> bool {
        let col = col as usize;
        debug_assert!(col < self.cols, "col {col} out of {}", self.cols);
        let base = self.base(row);
        let w = &mut self.bits[base + col / WORD_BITS];
        let mask = 1u64 << (col % WORD_BITS);
        let was = *w & mask != 0;
        *w &= !mask;
        was
    }

    /// The words of `row`.
    #[inline]
    pub fn row(&self, row: usize) -> &[u64] {
        let base = self.base(row);
        &self.bits[base..base + self.stride]
    }

    /// Word-at-a-time copy of `src` into `row` (widths must agree).
    pub fn copy_row_from(&mut self, row: usize, src: &[u64]) {
        assert_eq!(src.len(), self.stride, "row width mismatch");
        let base = self.base(row);
        self.bits[base..base + self.stride].copy_from_slice(src);
    }

    /// Word-at-a-time `row &= mask`.
    pub fn intersect_row(&mut self, row: usize, mask: &[u64]) {
        assert_eq!(mask.len(), self.stride, "row width mismatch");
        let base = self.base(row);
        for (w, m) in self.bits[base..base + self.stride].iter_mut().zip(mask) {
            *w &= m;
        }
    }

    /// Word-at-a-time `row |= mask`.
    pub fn union_row(&mut self, row: usize, mask: &[u64]) {
        assert_eq!(mask.len(), self.stride, "row width mismatch");
        let base = self.base(row);
        for (w, m) in self.bits[base..base + self.stride].iter_mut().zip(mask) {
            *w |= m;
        }
    }

    /// `count_ones` over the whole row — the falsification-counter
    /// primitive (`|row|` in O(words)).
    pub fn count_row(&self, row: usize) -> u64 {
        self.row(row).iter().map(|w| w.count_ones() as u64).sum()
    }

    /// Whether `row` has no set bits.
    pub fn row_is_empty(&self, row: usize) -> bool {
        self.row(row).iter().all(|&w| w == 0)
    }

    /// Widens the arena to at least `cols` columns: new columns are
    /// zero and every set bit keeps its place. Rows are re-laid only
    /// when the words per row grow, so an arena growing a column at a
    /// time moves once per [`WORD_BITS`] columns.
    pub fn grow_cols(&mut self, cols: usize) {
        let stride = cols.div_ceil(WORD_BITS);
        if stride > self.stride {
            let mut bits = vec![0u64; self.rows * stride];
            for row in 0..self.rows {
                bits[row * stride..][..self.stride].copy_from_slice(self.row(row));
            }
            (self.bits, self.stride) = (bits, stride);
        }
        self.cols = self.cols.max(cols);
    }

    /// Zeroes every row.
    pub fn clear(&mut self) {
        self.bits.fill(0);
    }

    /// Iterates the set columns of `row` in ascending order.
    #[inline]
    pub fn iter_row(&self, row: usize) -> SetBits<'_> {
        SetBits::new(self.row(row))
    }
}

/// Ascending iterator over the set bits of a row (`trailing_zeros`
/// walk, one word at a time).
pub struct SetBits<'a> {
    words: &'a [u64],
    /// Index of the word `current` was loaded from.
    word: usize,
    current: u64,
}

impl<'a> SetBits<'a> {
    /// Iterates the set bits of a raw word slice.
    pub fn new(words: &'a [u64]) -> Self {
        let current = words.first().copied().unwrap_or(0);
        SetBits {
            words,
            word: 0,
            current,
        }
    }
}

impl Iterator for SetBits<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        while self.current == 0 {
            self.word += 1;
            if self.word >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word];
        }
        let bit = self.current.trailing_zeros();
        self.current &= self.current - 1;
        Some((self.word * WORD_BITS) as u32 + bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_test_remove_roundtrip() {
        let mut m = MatchSet::new(3, 130);
        assert!(!m.test(1, 129));
        m.set(1, 129);
        assert!(m.test(1, 129));
        assert!(!m.test(0, 129));
        assert!(!m.test(2, 129));
        assert!(m.remove(1, 129));
        assert!(!m.remove(1, 129));
        assert!(!m.test(1, 129));
    }

    #[test]
    fn insert_reports_freshness() {
        let mut m = MatchSet::new(1, 10);
        assert!(m.insert(0, 7));
        assert!(!m.insert(0, 7));
        assert!(m.test(0, 7));
    }

    #[test]
    fn iter_row_is_ascending_across_word_boundaries() {
        let mut m = MatchSet::new(2, 200);
        let cols = [0u32, 1, 63, 64, 65, 127, 128, 199];
        for &c in cols.iter().rev() {
            m.set(0, c);
        }
        assert_eq!(m.iter_row(0).collect::<Vec<_>>(), cols);
        assert_eq!(m.iter_row(1).count(), 0);
        assert_eq!(m.count_row(0), cols.len() as u64);
    }

    #[test]
    fn word_ops_match_per_bit_ops() {
        let mut a = MatchSet::new(1, 300);
        let mut b = MatchSet::new(1, 300);
        for c in (0..300).step_by(3) {
            a.set(0, c);
        }
        for c in (0..300).step_by(5) {
            b.set(0, c);
        }
        let mut inter = a.clone();
        inter.intersect_row(0, b.row(0));
        let mut uni = a.clone();
        uni.union_row(0, b.row(0));
        for c in 0..300u32 {
            assert_eq!(inter.test(0, c), a.test(0, c) && b.test(0, c));
            assert_eq!(uni.test(0, c), a.test(0, c) || b.test(0, c));
        }
        let mut copy = MatchSet::new(1, 300);
        copy.copy_row_from(0, b.row(0));
        assert_eq!(copy.row(0), b.row(0));
    }

    #[test]
    fn growing_keeps_bits_and_relays_once_per_word() {
        let mut m = MatchSet::new(3, 0);
        let mut want = MatchSet::new(3, 200);
        for cols in [1usize, 5, 63, 64, 65, 65, 130, 200] {
            m.grow_cols(cols);
            assert_eq!((m.cols(), m.words_per_row()), (cols, cols.div_ceil(64)));
            let col = cols as u32 - 1;
            m.set(col as usize % 3, col);
            want.set(col as usize % 3, col);
            for row in 0..3 {
                let bits: Vec<u32> = want.iter_row(row).filter(|&c| c < col + 1).collect();
                assert_eq!(m.iter_row(row).collect::<Vec<_>>(), bits, "{cols} cols");
            }
        }
        let words = m.bits.as_ptr();
        m.grow_cols(256);
        m.grow_cols(100);
        assert_eq!(
            (m.cols(), words),
            (256, m.bits.as_ptr()),
            "same stride, same words"
        );
    }

    #[test]
    fn empty_and_zero_width_rows() {
        let m = MatchSet::new(2, 0);
        assert_eq!(m.words_per_row(), 0);
        assert!(m.row_is_empty(0));
        assert_eq!(m.iter_row(1).count(), 0);
        let mut n = MatchSet::new(1, 64);
        assert!(n.row_is_empty(0));
        n.set(0, 63);
        assert!(!n.row_is_empty(0));
        n.clear();
        assert!(n.row_is_empty(0));
    }
}
