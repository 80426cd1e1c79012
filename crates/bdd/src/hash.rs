//! A minimal FxHash-style hasher for small fixed-size integer keys.
//!
//! The unique table and computed cache hash millions of `(u32, u32, u32)`
//! keys; the default SipHash is needlessly slow for this, and pulling in an
//! external hashing crate would be padding. This is the classic
//! multiply-rotate Fx construction used by rustc.

use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` build-hasher alias used throughout the crate.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// Shorthand for a `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

#[inline]
fn mix(state: u64, word: u64) -> u64 {
    (state.rotate_left(5) ^ word).wrapping_mul(SEED)
}

/// Direct Fx hash of a `(u32, u32, u32)` triple — the unique-table key, and
/// the computed-cache key with its operation tag packed into the first
/// word — without going through the `Hasher` trait machinery.
#[inline]
pub(crate) fn hash3(a: u32, b: u32, c: u32) -> u64 {
    mix(mix(mix(0, u64::from(a)), u64::from(b)), u64::from(c))
}

/// Multiply-rotate hasher; not DoS-resistant, which is fine for internal
/// tables keyed by node indices we generate ourselves.
#[derive(Debug, Default, Clone)]
pub struct FxHasher {
    state: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_keys_hash_differently() {
        let mut a = FxHasher::default();
        a.write_u32(1);
        a.write_u32(2);
        let mut b = FxHasher::default();
        b.write_u32(2);
        b.write_u32(1);
        assert_ne!(a.finish(), b.finish(), "order must matter");
    }

    #[test]
    fn empty_hash_is_stable() {
        assert_eq!(FxHasher::default().finish(), FxHasher::default().finish());
    }

    #[test]
    fn direct_hashes_match_the_hasher_trait() {
        let mut h = FxHasher::default();
        h.write_u32(3);
        h.write_u32(7);
        h.write_u32(9);
        assert_eq!(h.finish(), hash3(3, 7, 9));
    }
}
