//! Irredundant sum-of-products covers from BDD intervals
//! (Minato–Morreale ISOP).
//!
//! Given an interval `[lower, upper]` (e.g. the on-set and the complement
//! of the off-set of an incompletely specified function), [`Bdd::isop`]
//! produces a cube cover whose function lies inside the interval and in
//! which no cube is redundant. This is the standard bridge from BDDs back
//! to two-level (PLA) form.

use std::borrow::Borrow;

use crate::manager::{Bdd, Func};
use crate::{VarId, MAX_VARS};

/// A product term as a sorted list of literals (`(variable, polarity)`).
pub type IsopCube = Vec<(VarId, bool)>;

impl Bdd {
    /// Minato–Morreale ISOP: computes an irredundant sum-of-products
    /// between `lower` and `upper`.
    ///
    /// Returns the cover's function `f` (with `lower ≤ f ≤ upper`) and
    /// its cube list. The empty cube list denotes constant 0; a cover
    /// containing the empty cube denotes constant 1.
    ///
    /// # Panics
    ///
    /// Panics if `lower ≰ upper` (empty interval).
    pub fn isop(&mut self, lower: Func, upper: Func) -> (Func, Vec<IsopCube>) {
        assert!(self.implies(lower, upper), "isop needs lower ≤ upper");
        let mut cubes = Vec::new();
        let mut path = Vec::new();
        let f = self.isop_rec(lower, upper, &mut path, &mut cubes);
        (f, cubes)
    }

    fn isop_rec(
        &mut self,
        lower: Func,
        upper: Func,
        path: &mut IsopCube,
        out: &mut Vec<IsopCube>,
    ) -> Func {
        if lower.is_zero() {
            return Func::ZERO;
        }
        if upper.is_one() {
            out.push(path.clone());
            return Func::ONE;
        }
        // Split on the topmost variable of either bound.
        let level = self.level(lower).min(self.level(upper));
        let var = self.var_at_level(level);
        let (l0, l1) = self.cofactors_at(lower, level);
        let (u0, u1) = self.cofactors_at(upper, level);
        // Minterms that can only be covered on the ¬x side / x side.
        let nu1 = self.not(u1);
        let lonly0 = self.and(l0, nu1);
        let nu0 = self.not(u0);
        let lonly1 = self.and(l1, nu0);
        path.push((var, false));
        let f0 = self.isop_rec(lonly0, u0, path, out);
        path.pop();
        path.push((var, true));
        let f1 = self.isop_rec(lonly1, u1, path, out);
        path.pop();
        // What remains must be covered by cubes without x.
        let nf0 = self.not(f0);
        let rest0 = self.and(l0, nf0);
        let nf1 = self.not(f1);
        let rest1 = self.and(l1, nf1);
        let lrest = self.or(rest0, rest1);
        let ushared = self.and(u0, u1);
        let fd = self.isop_rec(lrest, ushared, path, out);
        // Assemble x'·f0 + x·f1 + fd.
        let x = self.var(var);
        let nx = self.not(x);
        let t0 = self.and(nx, f0);
        let t1 = self.and(x, f1);
        let t = self.or(t0, t1);
        self.or(t, fd)
    }

    /// The function of a cube list: the disjunction of the literal
    /// products. The empty list denotes 0 and the empty cube denotes 1; a
    /// cube holding both literals of a variable denotes 0.
    ///
    /// Packs each cube once into a key of two bits per level (level 0
    /// most significant, no literal < `¬v` < `v`) and sorts the keys.
    /// Built top-down from there, every group of cubes is a contiguous
    /// run of keys that agree on every level already split on. The run's
    /// first key is its smallest, so it alone can show a cube with no
    /// literal left (the group is 1); its last key is its largest, so its
    /// first remaining literal is the topmost level `v` any cube of the
    /// group constrains. Two binary searches cut the run into the cubes
    /// without `v`, with `¬v` and with `v`; built one level down as
    /// `f_d`, `f₀` and `f₁`, they give `mk(v, f₀ + f_d, f₁ + f_d)`. No
    /// cube is copied into two branches, so a cover that specifies every
    /// variable runs no `apply` and allocates only nodes of its result.
    /// Each split (one per `mk`) counts as one apply step. The result and
    /// every counter are independent of the order of the cubes.
    pub fn cover_function<C>(&mut self, cubes: impl IntoIterator<Item = C>) -> Func
    where
        C: IntoIterator,
        C::Item: Borrow<(VarId, bool)>,
    {
        const _: () = assert!(MAX_VARS <= 8 * LEVELS_PER_WORD);
        match self.num_vars().div_ceil(LEVELS_PER_WORD) {
            0 | 1 => self.cover_keys::<1, C>(cubes),
            2 => self.cover_keys::<2, C>(cubes),
            3 => self.cover_keys::<3, C>(cubes),
            4 => self.cover_keys::<4, C>(cubes),
            5 => self.cover_keys::<5, C>(cubes),
            6 => self.cover_keys::<6, C>(cubes),
            7 => self.cover_keys::<7, C>(cubes),
            _ => self.cover_keys::<8, C>(cubes),
        }
    }

    /// [`Bdd::cover_function`] with keys of `W` words.
    fn cover_keys<const W: usize, C>(&mut self, cubes: impl IntoIterator<Item = C>) -> Func
    where
        C: IntoIterator,
        C::Item: Borrow<(VarId, bool)>,
    {
        let cubes = cubes.into_iter();
        let mut keys: Vec<[u64; W]> = Vec::with_capacity(cubes.size_hint().0);
        for cube in cubes {
            let mut key = [0; W];
            for lit in cube {
                let &(v, pos) = lit.borrow();
                let level = self.level_of_var(v) as usize;
                let symbol = if pos { POS } else { NEG };
                key[level / LEVELS_PER_WORD] |= symbol << shift(level);
            }
            // A level holding both `¬v` and `v` reads `0b11`: such a cube is 0.
            if key.iter().all(|&w| w & (w >> 1) & LOW_BITS == 0) {
                keys.push(key);
            }
        }
        keys.sort_unstable();
        keys.dedup();
        self.cover_rec(&keys, 0)
    }

    /// The function of the sorted `keys`, which agree on every level
    /// above `from`.
    fn cover_rec<const W: usize>(&mut self, keys: &[[u64; W]], from: usize) -> Func {
        let (Some(first), Some(last)) = (keys.first(), keys.last()) else {
            return Func::ZERO;
        };
        if first_literal(first, from).is_none() {
            return Func::ONE; // a cube with no literal left covers everything
        }
        let top = first_literal(last, from).expect("the last key is at least the first");
        self.note_apply_step();
        let neg = keys.partition_point(|k| symbol(k, top) < NEG);
        let pos = neg + keys[neg..].partition_point(|k| symbol(k, top) < POS);
        let mut f0 = self.cover_rec(&keys[neg..pos], top + 1);
        let mut f1 = self.cover_rec(&keys[pos..], top + 1);
        let fd = self.cover_rec(&keys[..neg], top + 1);
        if !fd.is_zero() {
            f0 = self.or(f0, fd);
            f1 = self.or(f1, fd);
        }
        let var = self.var_at_level(top as u32);
        self.mk(var, f0, f1)
    }
}

/// Levels per word of a packed cube key, two bits each.
const LEVELS_PER_WORD: usize = 32;

/// A level's two bits in a packed cube key holding `¬v` or `v`; `0b00`
/// is no literal. The order no literal < `¬v` < `v` is the sort order of
/// the keys.
const NEG: u64 = 0b01;
const POS: u64 = 0b10;

/// The low bit of every level's two bits.
const LOW_BITS: u64 = 0x5555_5555_5555_5555;

/// Where `level`'s two bits sit in its word: level 0 is the most
/// significant pair.
fn shift(level: usize) -> usize {
    62 - 2 * (level % LEVELS_PER_WORD)
}

/// The two bits of `level` in `key`.
fn symbol<const W: usize>(key: &[u64; W], level: usize) -> u64 {
    (key[level / LEVELS_PER_WORD] >> shift(level)) & 0b11
}

/// The topmost level at or below `from` at which `key` holds a literal.
fn first_literal<const W: usize>(key: &[u64; W], from: usize) -> Option<usize> {
    let mut mask = u64::MAX >> (2 * (from % LEVELS_PER_WORD));
    for (w, &word) in key.iter().enumerate().skip(from / LEVELS_PER_WORD) {
        let bits = word & mask;
        if bits != 0 {
            return Some(w * LEVELS_PER_WORD + bits.leading_zeros() as usize / 2);
        }
        mask = u64::MAX;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The cover function must equal the returned `f`, lie inside the
    /// interval, and be an *irredundant* cover (dropping any cube breaks
    /// `lower ≤ f`).
    fn assert_isop_valid(mgr: &mut Bdd, lower: Func, upper: Func) -> usize {
        let (f, cubes) = mgr.isop(lower, upper);
        let built = mgr.cover_function(&cubes);
        assert_eq!(built, f, "cube list and function must agree");
        assert!(mgr.implies(lower, f), "cover must contain the lower bound");
        assert!(mgr.implies(f, upper), "cover must stay below the upper bound");
        for skip in 0..cubes.len() {
            let reduced: Vec<IsopCube> = cubes
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != skip)
                .map(|(_, c)| c.clone())
                .collect();
            let g = mgr.cover_function(&reduced);
            assert!(!mgr.implies(lower, g), "cube {skip} is redundant in {cubes:?}");
        }
        cubes.len()
    }

    #[test]
    fn exact_cover_of_or_of_ands() {
        let mut mgr = Bdd::new(4);
        let a = mgr.var(0);
        let b = mgr.var(1);
        let c = mgr.var(2);
        let d = mgr.var(3);
        let ab = mgr.and(a, b);
        let cd = mgr.and(c, d);
        let f = mgr.or(ab, cd);
        let count = assert_isop_valid(&mut mgr, f, f);
        assert_eq!(count, 2, "the two prime implicants");
    }

    #[test]
    fn constants() {
        let mut mgr = Bdd::new(2);
        let (f, cubes) = mgr.isop(Func::ZERO, Func::ZERO);
        assert!(f.is_zero() && cubes.is_empty());
        let (f, cubes) = mgr.isop(Func::ONE, Func::ONE);
        assert!(f.is_one());
        assert_eq!(cubes, vec![Vec::new()], "the tautology cube");
        let a = mgr.var(0);
        let (f, cubes) = mgr.isop(Func::ZERO, a);
        assert!(f.is_zero() && cubes.is_empty(), "0 is the smallest cover");
    }

    #[test]
    fn dont_cares_shrink_the_cover() {
        // lower = minterm a·b·c, upper = a: one literal suffices.
        let mut mgr = Bdd::new(3);
        let a = mgr.var(0);
        let b = mgr.var(1);
        let c = mgr.var(2);
        let ab = mgr.and(a, b);
        let abc = mgr.and(ab, c);
        let (f, cubes) = mgr.isop(abc, a);
        assert_eq!(f, a);
        assert_eq!(cubes, vec![vec![(0, true)]]);
    }

    #[test]
    fn parity_cover_is_minterms() {
        let mut mgr = Bdd::new(3);
        let a = mgr.var(0);
        let b = mgr.var(1);
        let c = mgr.var(2);
        let ab = mgr.xor(a, b);
        let f = mgr.xor(ab, c);
        let count = assert_isop_valid(&mut mgr, f, f);
        assert_eq!(count, 4, "3-input parity has four prime minterms");
    }

    #[test]
    fn randomized_intervals_are_covered_irredundantly() {
        for seed in 0..15u64 {
            let mut mgr = Bdd::new(5);
            // Structured pseudo-random pair from the seed.
            let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(7);
            let mut f = Func::ZERO;
            let mut g = Func::ZERO;
            for _ in 0..6 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let v1 = ((state >> 33) % 5) as u32;
                let v2 = ((state >> 43) % 5) as u32;
                let x = mgr.literal(v1, state & 1 != 0);
                let y = mgr.literal(v2, state & 2 != 0);
                let t = mgr.and(x, y);
                f = mgr.or(f, t);
                let u = mgr.xor(x, y);
                g = mgr.or(g, u);
            }
            let lower = mgr.and(f, g);
            let upper = mgr.or(f, g);
            assert_isop_valid(&mut mgr, lower, upper);
        }
    }
}
