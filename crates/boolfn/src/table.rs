//! The dense truth-table representation.

use std::fmt;
use std::ops::{BitAnd, BitOr, BitXor, Not};

/// Maximum variables a [`TruthTable`] supports (2^24 bits = 2 MiB).
pub const MAX_TT_VARS: usize = 24;

/// A completely specified Boolean function of `n ≤ 24` variables, stored as
/// a dense bitset with one bit per minterm.
///
/// Minterm index convention: bit `k` of the index is the value of variable
/// `x_k` (so variable 0 is the least significant input bit).
///
/// All the standard operators are provided both as methods and as `&`/`|`/
/// `^`/`!` operator overloads on references.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct TruthTable {
    num_vars: usize,
    words: Vec<u64>,
}

impl TruthTable {
    /// The constant-false function of `num_vars` variables.
    ///
    /// # Panics
    ///
    /// Panics if `num_vars > 24`.
    pub fn zeros(num_vars: usize) -> Self {
        assert!(num_vars <= MAX_TT_VARS, "at most {MAX_TT_VARS} truth-table variables");
        let bits = 1usize << num_vars;
        TruthTable { num_vars, words: vec![0; bits.div_ceil(64)] }
    }

    /// The constant-true function of `num_vars` variables.
    ///
    /// # Panics
    ///
    /// Panics if `num_vars > 24`.
    pub fn ones(num_vars: usize) -> Self {
        let mut t = Self::zeros(num_vars);
        for w in &mut t.words {
            *w = u64::MAX;
        }
        t.mask_tail();
        t
    }

    /// Builds a function by evaluating `f` on every minterm index.
    ///
    /// # Panics
    ///
    /// Panics if `num_vars > 24`.
    pub fn from_fn(num_vars: usize, mut f: impl FnMut(u32) -> bool) -> Self {
        let mut t = Self::zeros(num_vars);
        for m in 0..(1u32 << num_vars) {
            if f(m) {
                t.set(m, true);
            }
        }
        t
    }

    /// The projection function `x_v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= num_vars` or `num_vars > 24`.
    pub fn var(num_vars: usize, v: usize) -> Self {
        assert!(v < num_vars, "variable x{v} out of range");
        Self::from_fn(num_vars, |m| m & (1 << v) != 0)
    }

    /// A pseudo-random function with on-set density `density`, generated
    /// from `seed` by a splitmix64 stream (reproducible, dependency-free).
    ///
    /// # Panics
    ///
    /// Panics if `num_vars > 24` or `density` is outside `[0, 1]`.
    pub fn random(num_vars: usize, density: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&density), "density must be in [0, 1]");
        let threshold = (density * u32::MAX as f64) as u64;
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        Self::from_fn(num_vars, |_| (next() & 0xffff_ffff) <= threshold)
    }

    /// Number of variables of the function's domain.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Value at the minterm whose bits encode the input assignment.
    ///
    /// # Panics
    ///
    /// Panics if `minterm >= 2^num_vars`.
    pub fn get(&self, minterm: u32) -> bool {
        assert!((minterm as usize) < (1usize << self.num_vars), "minterm out of range");
        self.words[(minterm / 64) as usize] & (1u64 << (minterm % 64)) != 0
    }

    /// Sets the value at a minterm.
    ///
    /// # Panics
    ///
    /// Panics if `minterm >= 2^num_vars`.
    pub fn set(&mut self, minterm: u32, value: bool) {
        assert!((minterm as usize) < (1usize << self.num_vars), "minterm out of range");
        let (w, b) = ((minterm / 64) as usize, 1u64 << (minterm % 64));
        if value {
            self.words[w] |= b;
        } else {
            self.words[w] &= !b;
        }
    }

    /// Number of satisfying minterms.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `true` iff the function is constant false.
    pub fn is_zero(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// `true` iff the function is constant true.
    pub fn is_one(&self) -> bool {
        self.count_ones() == 1usize << self.num_vars
    }

    /// Iterates over the indices of the satisfying minterms.
    pub fn minterms(&self) -> impl Iterator<Item = u32> + '_ {
        (0..1u32 << self.num_vars).filter(|&m| self.get(m))
    }

    /// Pointwise conjunction.
    ///
    /// # Panics
    ///
    /// Panics if the argument has a different number of variables.
    pub fn and(&self, other: &Self) -> Self {
        self.zip(other, |a, b| a & b)
    }

    /// Pointwise disjunction.
    ///
    /// # Panics
    ///
    /// Panics if the argument has a different number of variables.
    pub fn or(&self, other: &Self) -> Self {
        self.zip(other, |a, b| a | b)
    }

    /// Pointwise exclusive or.
    ///
    /// # Panics
    ///
    /// Panics if the argument has a different number of variables.
    pub fn xor(&self, other: &Self) -> Self {
        self.zip(other, |a, b| a ^ b)
    }

    /// Pointwise difference `self · ¬other` (Boolean SHARP).
    ///
    /// # Panics
    ///
    /// Panics if the argument has a different number of variables.
    pub fn diff(&self, other: &Self) -> Self {
        self.zip(other, |a, b| a & !b)
    }

    /// Pointwise complement.
    pub fn complement(&self) -> Self {
        let mut out = self.clone();
        for w in &mut out.words {
            *w = !*w;
        }
        out.mask_tail();
        out
    }

    /// `true` iff `self ≤ other` pointwise (implication holds everywhere).
    pub fn implies(&self, other: &Self) -> bool {
        self.diff(other).is_zero()
    }

    /// `true` iff the two functions share no minterm.
    pub fn disjoint(&self, other: &Self) -> bool {
        self.and(other).is_zero()
    }

    /// Shannon cofactor w.r.t. `x_v = value`, keeping the same domain
    /// arity (the cofactor simply no longer depends on `x_v`).
    ///
    /// # Panics
    ///
    /// Panics if `v >= num_vars`.
    pub fn cofactor(&self, v: usize, value: bool) -> Self {
        assert!(v < self.num_vars, "variable x{v} out of range");
        Self::from_fn(self.num_vars, |m| {
            let fixed = if value { m | (1 << v) } else { m & !(1 << v) };
            self.get(fixed)
        })
    }

    /// Existential quantification over the variables whose bits are set in
    /// `var_mask`.
    pub fn exists(&self, var_mask: u32) -> Self {
        self.quantify(var_mask, true)
    }

    /// Universal quantification over the variables whose bits are set in
    /// `var_mask`.
    pub fn forall(&self, var_mask: u32) -> Self {
        self.quantify(var_mask, false)
    }

    fn quantify(&self, var_mask: u32, existential: bool) -> Self {
        let mut out = self.clone();
        for v in 0..self.num_vars {
            if var_mask & (1 << v) != 0 {
                let c0 = out.cofactor(v, false);
                let c1 = out.cofactor(v, true);
                out = if existential { c0.or(&c1) } else { c0.and(&c1) };
            }
        }
        out
    }

    /// For every assignment of the variables outside `var_mask`, keeps only
    /// the smallest minterm of the function in lexicographic order of the
    /// `var_mask` variables (`x_0` most significant, 0 before 1).
    ///
    /// The enumeration oracle for `Bdd::pick_per_class` under the identity
    /// variable order.
    pub fn pick_per_class(&self, var_mask: u32) -> Self {
        // Lexicographic rank of a minterm's masked bits: `x_0` first.
        let rank = |m: u32| {
            (0..self.num_vars)
                .filter(|&v| var_mask & (1 << v) != 0)
                .fold(0u32, |acc, v| (acc << 1) | (m >> v) & 1)
        };
        let mut best: Vec<Option<u32>> = vec![None; 1 << self.num_vars];
        for m in self.minterms() {
            let class = &mut best[(m & !var_mask) as usize];
            if class.is_none_or(|b| rank(m) < rank(b)) {
                *class = Some(m);
            }
        }
        let mut out = Self::zeros(self.num_vars);
        for m in best.into_iter().flatten() {
            out.set(m, true);
        }
        out
    }

    /// `true` iff the function does not depend on `x_v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= num_vars`.
    fn independent_of(&self, v: usize) -> bool {
        self.cofactor(v, false) == self.cofactor(v, true)
    }

    /// Bitmask of the variables the function semantically depends on.
    pub fn support_mask(&self) -> u32 {
        let mut mask = 0;
        for v in 0..self.num_vars {
            if !self.independent_of(v) {
                mask |= 1 << v;
            }
        }
        mask
    }

    fn zip(&self, other: &Self, f: impl Fn(u64, u64) -> u64) -> Self {
        assert_eq!(
            self.num_vars, other.num_vars,
            "operands must have the same number of variables"
        );
        let words = self.words.iter().zip(&other.words).map(|(&a, &b)| f(a, b)).collect();
        let mut out = TruthTable { num_vars: self.num_vars, words };
        out.mask_tail();
        out
    }

    fn mask_tail(&mut self) {
        let bits = 1usize << self.num_vars;
        if !bits.is_multiple_of(64) {
            let last = self.words.len() - 1;
            self.words[last] &= (1u64 << (bits % 64)) - 1;
        }
    }
}

impl Not for &TruthTable {
    type Output = TruthTable;

    fn not(self) -> TruthTable {
        self.complement()
    }
}

impl BitAnd for &TruthTable {
    type Output = TruthTable;

    fn bitand(self, rhs: Self) -> TruthTable {
        self.and(rhs)
    }
}

impl BitOr for &TruthTable {
    type Output = TruthTable;

    fn bitor(self, rhs: Self) -> TruthTable {
        self.or(rhs)
    }
}

impl BitXor for &TruthTable {
    type Output = TruthTable;

    fn bitxor(self, rhs: Self) -> TruthTable {
        self.xor(rhs)
    }
}

impl fmt::Debug for TruthTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TruthTable({} vars, {} ones)", self.num_vars, self.count_ones())
    }
}

impl fmt::Display for TruthTable {
    /// Prints the function as a binary string, minterm `0` first.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for m in 0..1u32 << self.num_vars {
            write!(f, "{}", u8::from(self.get(m)))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants() {
        let z = TruthTable::zeros(3);
        let o = TruthTable::ones(3);
        assert!(z.is_zero() && !z.is_one());
        assert!(o.is_one() && !o.is_zero());
        assert_eq!(o.count_ones(), 8);
        assert_eq!(z.complement(), o);
    }

    #[test]
    fn ones_masks_tail_bits() {
        let o = TruthTable::ones(3);
        assert_eq!(o.count_ones(), 8, "only 8 of 64 word bits may be set");
        let o7 = TruthTable::ones(7);
        assert_eq!(o7.count_ones(), 128);
    }

    #[test]
    fn pick_per_class_keeps_the_lexicographically_first_point() {
        // f = ¬x0·x1 + x0·¬x1·x2 over (x0, x1, x2), cube {x0, x1}: in class
        // x2 = 0 only (0,1) is a point; in class x2 = 1 the points are
        // (0,1) and (1,0), and x0 = 0 comes first.
        let f = TruthTable::from_fn(3, |m| matches!(m, 0b010 | 0b110 | 0b101));
        let picked = f.pick_per_class(0b011);
        assert_eq!(picked.minterms().collect::<Vec<_>>(), vec![0b010, 0b110]);
        assert!(TruthTable::ones(2).pick_per_class(0).is_one(), "empty cube keeps f");
        assert!(TruthTable::zeros(2).pick_per_class(0b11).is_zero());
    }

    #[test]
    fn var_projection() {
        let x1 = TruthTable::var(3, 1);
        assert_eq!(x1.count_ones(), 4);
        assert!(x1.get(0b010));
        assert!(!x1.get(0b101));
    }

    #[test]
    fn operators_match_pointwise() {
        let a = TruthTable::var(3, 0);
        let b = TruthTable::var(3, 1);
        for m in 0..8 {
            let (va, vb) = (m & 1 != 0, m & 2 != 0);
            assert_eq!((&a & &b).get(m), va && vb);
            assert_eq!((&a | &b).get(m), va || vb);
            assert_eq!((&a ^ &b).get(m), va ^ vb);
            assert_eq!((!&a).get(m), !va);
            assert_eq!(a.diff(&b).get(m), va && !vb);
        }
    }

    #[test]
    fn implication_and_disjointness() {
        let a = TruthTable::var(2, 0);
        let b = TruthTable::var(2, 1);
        let ab = a.and(&b);
        assert!(ab.implies(&a));
        assert!(!a.implies(&ab));
        assert!(a.disjoint(&a.complement()));
    }

    #[test]
    fn cofactor_and_independence() {
        let a = TruthTable::var(3, 0);
        let c = TruthTable::var(3, 2);
        let f = a.or(&c);
        let f_c1 = f.cofactor(2, true);
        assert!(f_c1.is_one());
        let f_c0 = f.cofactor(2, false);
        assert_eq!(f_c0, a);
        assert!(f_c0.independent_of(2));
        assert!(!f.independent_of(0));
        assert!(f.independent_of(1));
        assert_eq!(f.support_mask(), 0b101);
    }

    #[test]
    fn quantifiers() {
        let a = TruthTable::var(3, 0);
        let b = TruthTable::var(3, 1);
        let f = a.and(&b);
        assert_eq!(f.exists(0b001), b);
        assert!(f.forall(0b001).is_zero());
        assert!(f.exists(0b011).is_one());
        assert_eq!(f.exists(0), f);
    }

    #[test]
    fn random_is_reproducible_and_density_scales() {
        let f1 = TruthTable::random(10, 0.3, 42);
        let f2 = TruthTable::random(10, 0.3, 42);
        assert_eq!(f1, f2);
        let sparse = TruthTable::random(12, 0.05, 7).count_ones();
        let dense = TruthTable::random(12, 0.95, 7).count_ones();
        assert!(sparse < dense);
        assert!(TruthTable::random(8, 0.0, 1).is_zero());
        assert!(TruthTable::random(8, 1.0, 1).is_one());
    }

    #[test]
    fn display_binary_string() {
        let x0 = TruthTable::var(2, 0);
        assert_eq!(x0.to_string(), "0101");
    }

    #[test]
    #[should_panic(expected = "same number of variables")]
    fn arity_mismatch_panics() {
        let a = TruthTable::zeros(2);
        let b = TruthTable::zeros(3);
        let _ = a.and(&b);
    }

    #[test]
    fn minterm_iteration() {
        let f = TruthTable::from_fn(3, |m| m == 1 || m == 6);
        assert_eq!(f.minterms().collect::<Vec<_>>(), vec![1, 6]);
    }
}
