//! Sets of BDD variables as fixed-width bitsets.

use std::fmt;

use crate::manager::VarId;

/// Maximum number of variables a [`VarSet`] (and therefore a manager used
/// with the decomposition algorithms) can hold.
pub const MAX_VARS: usize = 256;
const WORDS: usize = MAX_VARS / 64;

/// A set of BDD variable indices, stored as a 256-bit bitset.
///
/// `VarSet` is `Copy` and cheap to pass around; it is the currency of the
/// variable-grouping procedures of the bi-decomposition algorithm (the sets
/// `X_A`, `X_B`, `X_C` of the paper).
///
/// ```
/// use bdd::VarSet;
///
/// let mut xa = VarSet::new();
/// xa.insert(0);
/// xa.insert(3);
/// let xb = VarSet::from_iter([1, 2]);
/// assert!(xa.is_disjoint(&xb));
/// assert_eq!(xa.union(&xb).len(), 4);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct VarSet {
    words: [u64; WORDS],
}

impl VarSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a set containing the single variable `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= 256`.
    pub fn singleton(v: VarId) -> Self {
        let mut s = Self::new();
        s.insert(v);
        s
    }

    /// Creates the set `{0, 1, .., n-1}` of the first `n` variables.
    ///
    /// # Panics
    ///
    /// Panics if `n > 256`.
    pub fn first_n(n: usize) -> Self {
        assert!(n <= MAX_VARS, "VarSet supports at most {MAX_VARS} variables");
        let mut s = Self::new();
        for v in 0..n {
            s.insert(v as VarId);
        }
        s
    }

    /// Inserts variable `v`; returns `true` if it was newly added.
    ///
    /// # Panics
    ///
    /// Panics if `v >= 256`.
    pub fn insert(&mut self, v: VarId) -> bool {
        let (w, b) = Self::slot(v);
        let fresh = self.words[w] & b == 0;
        self.words[w] |= b;
        fresh
    }

    /// Removes variable `v`; returns `true` if it was present.
    ///
    /// # Panics
    ///
    /// Panics if `v >= 256`.
    pub fn remove(&mut self, v: VarId) -> bool {
        let (w, b) = Self::slot(v);
        let present = self.words[w] & b != 0;
        self.words[w] &= !b;
        present
    }

    /// Tests membership of variable `v`. Variables `>= 256` are never members.
    pub fn contains(&self, v: VarId) -> bool {
        if v as usize >= MAX_VARS {
            return false;
        }
        let (w, b) = Self::slot(v);
        self.words[w] & b != 0
    }

    /// Returns the number of variables in the set.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Returns `true` if the set contains no variables.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Set union.
    pub fn union(&self, other: &Self) -> Self {
        let mut out = *self;
        for (a, b) in out.words.iter_mut().zip(other.words.iter()) {
            *a |= b;
        }
        out
    }

    /// Set intersection.
    pub fn intersection(&self, other: &Self) -> Self {
        let mut out = *self;
        for (a, b) in out.words.iter_mut().zip(other.words.iter()) {
            *a &= b;
        }
        out
    }

    /// Set difference `self \ other`.
    pub fn difference(&self, other: &Self) -> Self {
        let mut out = *self;
        for (a, b) in out.words.iter_mut().zip(other.words.iter()) {
            *a &= !b;
        }
        out
    }

    /// Returns `true` if the two sets share no variable.
    pub fn is_disjoint(&self, other: &Self) -> bool {
        self.intersection(other).is_empty()
    }

    /// Returns the smallest variable in the set, if any.
    pub fn first(&self) -> Option<VarId> {
        self.iter().next()
    }

    /// Iterates over the variables in increasing order.
    pub fn iter(&self) -> Iter<'_> {
        Iter { set: self, word: 0, bits: self.words[0] }
    }

    fn slot(v: VarId) -> (usize, u64) {
        let idx = v as usize;
        assert!(idx < MAX_VARS, "variable {v} out of VarSet range ({MAX_VARS})");
        (idx / 64, 1u64 << (idx % 64))
    }
}

impl FromIterator<VarId> for VarSet {
    fn from_iter<T: IntoIterator<Item = VarId>>(iter: T) -> Self {
        let mut s = Self::new();
        for v in iter {
            s.insert(v);
        }
        s
    }
}

impl Extend<VarId> for VarSet {
    fn extend<T: IntoIterator<Item = VarId>>(&mut self, iter: T) {
        for v in iter {
            self.insert(v);
        }
    }
}

impl<'a> IntoIterator for &'a VarSet {
    type Item = VarId;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl fmt::Debug for VarSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl fmt::Display for VarSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, v) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "x{v}")?;
        }
        write!(f, "}}")
    }
}

/// Iterator over the variables of a [`VarSet`] in increasing order.
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    set: &'a VarSet,
    word: usize,
    bits: u64,
}

impl Iterator for Iter<'_> {
    type Item = VarId;

    fn next(&mut self) -> Option<VarId> {
        loop {
            if self.bits != 0 {
                let tz = self.bits.trailing_zeros();
                self.bits &= self.bits - 1;
                return Some((self.word as u32 * 64 + tz) as VarId);
            }
            self.word += 1;
            if self.word >= WORDS {
                return None;
            }
            self.bits = self.set.words[self.word];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains() {
        let mut s = VarSet::new();
        assert!(s.is_empty());
        assert!(s.insert(7));
        assert!(!s.insert(7));
        assert!(s.contains(7));
        assert!(!s.contains(8));
        assert!(s.remove(7));
        assert!(!s.remove(7));
        assert!(s.is_empty());
    }

    #[test]
    fn crosses_word_boundaries() {
        let s: VarSet = [0u32, 63, 64, 127, 128, 255].into_iter().collect();
        assert_eq!(s.len(), 6);
        let got: Vec<_> = s.iter().collect();
        assert_eq!(got, vec![0, 63, 64, 127, 128, 255]);
    }

    #[test]
    fn set_algebra() {
        let a = VarSet::from_iter([1u32, 2, 3]);
        let b = VarSet::from_iter([3u32, 4]);
        assert_eq!(a.union(&b).len(), 4);
        assert_eq!(a.intersection(&b), VarSet::singleton(3));
        assert_eq!(a.difference(&b), VarSet::from_iter([1u32, 2]));
        assert!(!a.is_disjoint(&b));
        assert!(a.difference(&b).is_disjoint(&b));
    }

    #[test]
    fn first_n_and_first() {
        let s = VarSet::first_n(70);
        assert_eq!(s.len(), 70);
        assert_eq!(s.first(), Some(0));
        assert!(s.contains(69));
        assert!(!s.contains(70));
        assert_eq!(VarSet::new().first(), None);
    }

    #[test]
    #[should_panic(expected = "out of VarSet range")]
    fn insert_out_of_range_panics() {
        VarSet::new().insert(256);
    }

    #[test]
    fn display_lists_variables() {
        let s = VarSet::from_iter([0u32, 2]);
        assert_eq!(s.to_string(), "{x0,x2}");
    }
}
