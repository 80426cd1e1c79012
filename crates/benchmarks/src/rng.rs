//! A tiny deterministic PRNG (splitmix64).
//!
//! The synthetic benchmark generators need reproducible pseudo-randomness
//! but the workspace is dependency-free, so this replaces the external
//! `rand` crate. The stream matches the splitmix64 reference constants
//! (same mixer `boolfn::TruthTable::random` uses); it is emphatically not
//! cryptographic — it only has to be stable across platforms and PRs,
//! because benchmark *identity* (and hence every measured table) depends
//! on it.

/// A splitmix64 generator.
#[derive(Clone, Copy, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator; equal seeds yield equal streams forever.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// The next 64 pseudo-random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..n` (multiply-shift range reduction; the bias
    /// for the small `n` used here is ≤ 2⁻⁵³ — irrelevant for workload
    /// generation).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn gen_range(&mut self, n: usize) -> usize {
        assert!(n > 0, "empty range");
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability in [0, 1]");
        // 53 bits of the stream against the scaled threshold.
        let threshold = (p * (1u64 << 53) as f64) as u64;
        (self.next_u64() >> 11) < threshold
    }

    /// In-place Fisher–Yates shuffle driven by this stream (used by the
    /// fuzz harness for variable permutations and shrink chunk orders).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.gen_range(i + 1);
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_seeds_equal_streams() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SplitMix64::new(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn matches_splitmix64_reference() {
        // Reference values for seed 0 (Vigna's splitmix64.c).
        let mut r = SplitMix64::new(0);
        assert_eq!(r.next_u64(), 0xe220a8397b1dcdaf);
        assert_eq!(r.next_u64(), 0x6e789e6aa1b965f4);
        assert_eq!(r.next_u64(), 0x06c45d188009454f);
    }

    #[test]
    fn ranges_stay_in_bounds_and_cover() {
        let mut r = SplitMix64::new(7);
        let mut seen = [false; 5];
        for _ in 0..200 {
            let v = r.gen_range(5);
            assert!(v < 5);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all values of 0..5 appear");
    }

    #[test]
    fn bool_probabilities_are_sane() {
        let mut r = SplitMix64::new(1);
        assert!((0..100).all(|_| !r.gen_bool(0.0)));
        assert!((0..100).all(|_| r.gen_bool(1.0)));
        let heads = (0..10_000).filter(|_| r.gen_bool(0.3)).count();
        assert!((2_500..3_500).contains(&heads), "got {heads}");
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn zero_range_panics() {
        let _ = SplitMix64::new(0).gen_range(0);
    }

    #[test]
    fn shuffle_permutes_and_is_deterministic() {
        let mut a: Vec<usize> = (0..16).collect();
        let mut b = a.clone();
        SplitMix64::new(5).shuffle(&mut a);
        SplitMix64::new(5).shuffle(&mut b);
        assert_eq!(a, b, "equal seeds shuffle identically");
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..16).collect::<Vec<_>>(), "still a permutation");
        assert_ne!(a, sorted, "16 elements virtually never stay sorted");
        // Degenerate slices must not panic.
        SplitMix64::new(1).shuffle::<usize>(&mut []);
        SplitMix64::new(1).shuffle(&mut [1]);
    }
}
