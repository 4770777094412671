//! The benchmark's own random numbers, so that a change to the
//! repository's `rand` stand-in cannot move the inputs it is measured
//! on. SplitMix64: tiny, seedable, and good enough to pick nodes.

/// A SplitMix64 stream.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is far below what
    /// any metric here can resolve.
    pub fn below(&mut self, n: usize) -> usize {
        debug_assert!(n > 0);
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `lo..=hi`.
    pub fn between(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo + 1)
    }

    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

/// A sub-seed for item `i` of stream `stream` in the run seeded
/// `seed`. Each step is a bijection of its input, so distinct streams
/// of one seed never share a sub-seed sequence.
pub fn derive(seed: u64, stream: u64, i: u64) -> u64 {
    let a = Rng::new(seed).next_u64();
    let b = Rng::new(a ^ stream).next_u64();
    Rng::new(b ^ i).next_u64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let (mut a, mut b) = (Rng::new(7), Rng::new(7));
        assert!((0..64).all(|_| a.next_u64() == b.next_u64()));
        assert_ne!(Rng::new(7).next_u64(), Rng::new(8).next_u64());
    }

    #[test]
    fn derived_seeds_differ() {
        let mut seen = std::collections::HashSet::new();
        for stream in 0..4 {
            for i in 0..100 {
                assert!(seen.insert(derive(1, stream, i)));
            }
        }
        assert_ne!(derive(1, 0, 0), derive(2, 0, 0));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut xs: Vec<u32> = (0..50).collect();
        Rng::new(3).shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(xs, sorted);
    }
}
