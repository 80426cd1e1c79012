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
use crate::VarId;

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
    /// Builds top-down by partitioning the cubes on the topmost variable
    /// any of them constrains in the current order: the cubes with `¬v`,
    /// without `v` and with `v` are built one level down as `f₀`, `f_d`
    /// and `f₁`, and the result is `mk(v, f₀ + f_d, f₁ + f_d)`. No cube is
    /// copied into two branches, so a cover that specifies every variable
    /// runs no `apply` and allocates only nodes of its result. Each
    /// partition (one per `mk`) counts as one apply step.
    pub fn cover_function<C>(&mut self, cubes: impl IntoIterator<Item = C>) -> Func
    where
        C: IntoIterator,
        C::Item: Borrow<(VarId, bool)>,
    {
        // Each cube's literals, packed as `level << 1 | polarity`, sorted
        // by level and closed by `DONE`, one run per cube.
        let mut lits: Vec<u32> = Vec::new();
        let mut group: Vec<Cursor> = Vec::new();
        let mut run: Vec<u32> = Vec::new();
        for cube in cubes {
            run.clear();
            run.extend(cube.into_iter().map(|lit| {
                let &(v, pos) = lit.borrow();
                self.level_of_var(v) << 1 | u32::from(pos)
            }));
            run.sort_unstable();
            run.dedup();
            // Sorted, `¬v` and `v` sit side by side: such a cube is 0.
            if run.windows(2).any(|w| w[0] ^ w[1] == 1) {
                continue;
            }
            let start = lits.len() as u32;
            lits.extend_from_slice(&run);
            lits.push(DONE);
            group.push(Cursor { head: lits[start as usize], next: start + 1 });
        }
        self.cover_rec(&lits, &mut group)
    }

    fn cover_rec(&mut self, lits: &[u32], group: &mut [Cursor]) -> Func {
        if group.is_empty() {
            return Func::ZERO;
        }
        let mut top = u32::MAX;
        for c in group.iter() {
            if c.head == DONE {
                return Func::ONE; // a cube with no literal left covers everything
            }
            top = top.min(c.head >> 1);
        }
        self.note_apply_step();
        // Three-way partition into [¬v | no v | v], stepping the cubes that
        // constrain v past their literal.
        let (neg, pos) = (top << 1, top << 1 | 1);
        let (mut lo, mut mid, mut hi) = (0, 0, group.len());
        while mid < hi {
            let head = group[mid].head;
            if head == neg {
                group[mid].advance(lits);
                group.swap(lo, mid);
                lo += 1;
                mid += 1;
            } else if head == pos {
                group[mid].advance(lits);
                hi -= 1;
                group.swap(mid, hi);
            } else {
                mid += 1;
            }
        }
        let (negs, rest) = group.split_at_mut(lo);
        let (without, poss) = rest.split_at_mut(hi - lo);
        let mut f0 = self.cover_rec(lits, negs);
        let mut f1 = self.cover_rec(lits, poss);
        let fd = self.cover_rec(lits, without);
        if !fd.is_zero() {
            f0 = self.or(f0, fd);
            f1 = self.or(f1, fd);
        }
        let var = self.var_at_level(top);
        self.mk(var, f0, f1)
    }
}

/// The end of a cube's literal run: [`Cursor::head`] of a cube with no
/// literal left.
const DONE: u32 = u32::MAX;

/// A cube inside [`Bdd::cover_function`]: its first literal not yet split
/// on, and the index of the next one in the packed literal list.
#[derive(Clone, Copy)]
struct Cursor {
    head: u32,
    next: u32,
}

impl Cursor {
    fn advance(&mut self, lits: &[u32]) {
        self.head = lits[self.next as usize];
        self.next += 1;
    }
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
