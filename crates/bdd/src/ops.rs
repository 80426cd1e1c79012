//! Boolean operators: negation, the binary `apply` family, and if-then-else.

use crate::manager::{Bdd, CacheKey, CacheOp, Func};

/// Binary Boolean connectives accepted by [`Bdd::apply`].
///
/// The non-monotone connectives NAND/NOR/XNOR/implication are provided for
/// convenience; internally they reduce to the four cached primitives
/// (AND, OR, XOR, difference) plus negation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BinOp {
    /// Conjunction `f · g`.
    And,
    /// Disjunction `f + g`.
    Or,
    /// Exclusive or `f ⊕ g`.
    Xor,
    /// Sheffer stroke `¬(f · g)`.
    Nand,
    /// Peirce arrow `¬(f + g)`.
    Nor,
    /// Equivalence `¬(f ⊕ g)`.
    Xnor,
    /// Difference (Boolean SHARP) `f · ¬g`.
    Diff,
    /// Implication `¬f + g`.
    Imp,
}

impl Bdd {
    /// Negation `¬f`.
    pub fn not(&mut self, f: Func) -> Func {
        if f.is_zero() {
            return Func::ONE;
        }
        if f.is_one() {
            return Func::ZERO;
        }
        let key = CacheKey { op: CacheOp::Not, a: f.0, b: 0, c: 0 };
        if let Some(hit) = self.cache_get(&key) {
            return hit;
        }
        let node = *self.node(f);
        let low = self.not(node.low);
        let high = self.not(node.high);
        let result = self.mk(node.var, low, high);
        self.cache_put(key, result);
        result
    }

    /// Conjunction `f · g`.
    pub fn and(&mut self, f: Func, g: Func) -> Func {
        self.apply(BinOp::And, f, g)
    }

    /// Disjunction `f + g`.
    pub fn or(&mut self, f: Func, g: Func) -> Func {
        self.apply(BinOp::Or, f, g)
    }

    /// Exclusive or `f ⊕ g`.
    pub fn xor(&mut self, f: Func, g: Func) -> Func {
        self.apply(BinOp::Xor, f, g)
    }

    /// Equivalence `f ≡ g` (XNOR).
    pub fn xnor(&mut self, f: Func, g: Func) -> Func {
        self.apply(BinOp::Xnor, f, g)
    }

    /// Negated conjunction.
    pub fn nand(&mut self, f: Func, g: Func) -> Func {
        self.apply(BinOp::Nand, f, g)
    }

    /// Negated disjunction.
    pub fn nor(&mut self, f: Func, g: Func) -> Func {
        self.apply(BinOp::Nor, f, g)
    }

    /// Boolean difference (SHARP) `f · ¬g` — written `A - B` in the paper.
    pub fn diff(&mut self, f: Func, g: Func) -> Func {
        self.apply(BinOp::Diff, f, g)
    }

    /// Decision procedure: does `f ≤ g` hold (i.e. `f` implies `g`)?
    ///
    /// Builds no nodes and stops at the first point of `f · ¬g` (CUDD's
    /// `bddLeq`).
    pub fn implies(&mut self, f: Func, g: Func) -> bool {
        self.note_apply_step();
        if f.is_zero() || g.is_one() || f == g {
            return true;
        }
        if f.is_one() || g.is_zero() {
            return false;
        }
        let key = CacheKey { op: CacheOp::Implies, a: f.0, b: g.0, c: 0 };
        if let Some(hit) = self.cache_get(&key) {
            return hit.is_one();
        }
        let top = self.level(f).min(self.level(g));
        let (f0, f1) = self.cofactors_at(f, top);
        let (g0, g1) = self.cofactors_at(g, top);
        let result = self.implies(f0, g0) && self.implies(f1, g1);
        self.cache_put(key, Func(u32::from(result)));
        result
    }

    /// Decision procedure: are `f` and `g` disjoint (`f · g = 0`)?
    pub fn disjoint(&mut self, f: Func, g: Func) -> bool {
        self.disjoint3(f, g, Func::ONE)
    }

    /// Decision procedure: is `f · g · h = 0`?
    ///
    /// Builds no nodes and stops at the first common point, so testing a
    /// product against zero never materialises it (Theorem 1 is exactly
    /// `Q · ∃X_A R · ∃X_B R = 0`).
    pub fn disjoint3(&mut self, f: Func, g: Func, h: Func) -> bool {
        self.note_apply_step();
        if f.is_zero() || g.is_zero() || h.is_zero() {
            return true;
        }
        // Normalise the key: sort, then drop the constant 1 (it sorts
        // first) and repeated operands (`f · f = f`).
        let mut sorted = [f.0, g.0, h.0];
        sorted.sort_unstable();
        let mut ops = [Func::ONE; 3];
        let mut n = 0;
        for x in sorted {
            if x != Func::ONE.0 && (n == 0 || ops[n - 1].0 != x) {
                ops[n] = Func(x);
                n += 1;
            }
        }
        if n < 2 {
            // A single non-zero function (or 1) has a satisfying point.
            return false;
        }
        let key = CacheKey { op: CacheOp::Disjoint3, a: ops[0].0, b: ops[1].0, c: ops[2].0 };
        if let Some(hit) = self.cache_get(&key) {
            return hit.is_one();
        }
        let top = ops.iter().map(|&x| self.level(x)).min().expect("three operands");
        let [a, b, c] = ops.map(|x| self.cofactors_at(x, top));
        let result = self.disjoint3(a.0, b.0, c.0) && self.disjoint3(a.1, b.1, c.1);
        self.cache_put(key, Func(u32::from(result)));
        result
    }

    /// Applies a binary connective to two functions.
    pub fn apply(&mut self, op: BinOp, f: Func, g: Func) -> Func {
        match op {
            BinOp::And => self.apply_prim(CacheOp::And, f, g),
            BinOp::Or => self.apply_prim(CacheOp::Or, f, g),
            BinOp::Xor => self.apply_prim(CacheOp::Xor, f, g),
            BinOp::Diff => self.apply_prim(CacheOp::Diff, f, g),
            BinOp::Nand => {
                let t = self.apply_prim(CacheOp::And, f, g);
                self.not(t)
            }
            BinOp::Nor => {
                let t = self.apply_prim(CacheOp::Or, f, g);
                self.not(t)
            }
            BinOp::Xnor => {
                let t = self.apply_prim(CacheOp::Xor, f, g);
                self.not(t)
            }
            BinOp::Imp => {
                let nf = self.not(f);
                self.apply_prim(CacheOp::Or, nf, g)
            }
        }
    }

    fn apply_terminal(op: CacheOp, f: Func, g: Func) -> Option<Func> {
        match op {
            CacheOp::And => {
                if f.is_zero() || g.is_zero() {
                    Some(Func::ZERO)
                } else if f.is_one() {
                    Some(g)
                } else if g.is_one() || f == g {
                    Some(f)
                } else {
                    None
                }
            }
            CacheOp::Or => {
                if f.is_one() || g.is_one() {
                    Some(Func::ONE)
                } else if f.is_zero() {
                    Some(g)
                } else if g.is_zero() || f == g {
                    Some(f)
                } else {
                    None
                }
            }
            CacheOp::Xor => {
                if f == g {
                    Some(Func::ZERO)
                } else if f.is_zero() {
                    Some(g)
                } else if g.is_zero() {
                    Some(f)
                } else {
                    None
                }
            }
            CacheOp::Diff => {
                if f.is_zero() || g.is_one() || f == g {
                    Some(Func::ZERO)
                } else if g.is_zero() {
                    Some(f)
                } else {
                    None
                }
            }
            _ => unreachable!("apply_terminal only sees binary primitives"),
        }
    }

    fn apply_prim(&mut self, op: CacheOp, f: Func, g: Func) -> Func {
        self.note_apply_step();
        if let Some(t) = Self::apply_terminal(op, f, g) {
            return t;
        }
        // Commutative ops: normalize the key.
        let (a, b) = match op {
            CacheOp::And | CacheOp::Or | CacheOp::Xor if f.0 > g.0 => (g, f),
            _ => (f, g),
        };
        let key = CacheKey { op, a: a.0, b: b.0, c: 0 };
        if let Some(hit) = self.cache_get(&key) {
            return hit;
        }
        let (lf, lg) = (self.level(f), self.level(g));
        let top = lf.min(lg);
        let var = self.var_at_level(top);
        let (f0, f1) = if lf == top {
            let n = *self.node(f);
            (n.low, n.high)
        } else {
            (f, f)
        };
        let (g0, g1) = if lg == top {
            let n = *self.node(g);
            (n.low, n.high)
        } else {
            (g, g)
        };
        let low = self.apply_prim(op, f0, g0);
        let high = self.apply_prim(op, f1, g1);
        let result = self.mk(var, low, high);
        self.cache_put(key, result);
        result
    }

    /// If-then-else `ite(f, g, h) = f·g + ¬f·h`.
    pub fn ite(&mut self, f: Func, g: Func, h: Func) -> Func {
        // Terminal cases.
        if f.is_one() {
            return g;
        }
        if f.is_zero() {
            return h;
        }
        if g == h {
            return g;
        }
        if g.is_one() && h.is_zero() {
            return f;
        }
        if g.is_zero() && h.is_one() {
            return self.not(f);
        }
        // Standard-triple normalization: route degenerate triples through
        // the canonical binary-op cache slots instead of a private Ite
        // entry, so `ite(f, 1, h)` and `or(f, h)` share one cached result.
        if g.is_one() {
            return self.apply_prim(CacheOp::Or, f, h);
        }
        if h.is_zero() {
            return self.apply_prim(CacheOp::And, f, g);
        }
        if g.is_zero() {
            // ite(f, 0, h) = ¬f·h = h − f.
            return self.apply_prim(CacheOp::Diff, h, f);
        }
        if h.is_one() {
            // ite(f, g, 1) = ¬f + g.
            let nf = self.not(f);
            return self.apply_prim(CacheOp::Or, nf, g);
        }
        if f == g {
            // ite(f, f, h) = f + h.
            return self.apply_prim(CacheOp::Or, f, h);
        }
        if f == h {
            // ite(f, g, f) = f·g.
            return self.apply_prim(CacheOp::And, f, g);
        }
        let key = CacheKey { op: CacheOp::Ite, a: f.0, b: g.0, c: h.0 };
        if let Some(hit) = self.cache_get(&key) {
            return hit;
        }
        let top = self.level(f).min(self.level(g)).min(self.level(h));
        let var = self.var_at_level(top);
        let (f0, f1) = self.cofactors_at(f, top);
        let (g0, g1) = self.cofactors_at(g, top);
        let (h0, h1) = self.cofactors_at(h, top);
        let low = self.ite(f0, g0, h0);
        let high = self.ite(f1, g1, h1);
        let result = self.mk(var, low, high);
        self.cache_put(key, result);
        result
    }

    #[inline]
    pub(crate) fn cofactors_at(&self, f: Func, level: u32) -> (Func, Func) {
        if self.level(f) == level {
            let n = self.node(f);
            (n.low, n.high)
        } else {
            (f, f)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exhaustively compares a BDD operator against the boolean connective
    /// on every input assignment of a 3-variable space.
    fn check3(mgr: &mut Bdd, f: Func, spec: impl Fn(bool, bool, bool) -> bool) {
        for bits in 0..8u32 {
            let a = bits & 1 != 0;
            let b = bits & 2 != 0;
            let c = bits & 4 != 0;
            assert_eq!(mgr.eval(f, &[a, b, c]), spec(a, b, c), "mismatch at {bits:03b}");
        }
    }

    #[test]
    fn all_binary_ops_match_their_spec() {
        let mut mgr = Bdd::new(3);
        let x = mgr.var(0);
        let y = mgr.var(1);
        let z = mgr.var(2);
        let xy = mgr.and(x, y);
        let f = mgr.or(xy, z);
        check3(&mut mgr, f, |a, b, c| (a && b) || c);

        let g = mgr.xor(x, y);
        check3(&mut mgr, g, |a, b, _| a ^ b);
        let g = mgr.xnor(x, z);
        check3(&mut mgr, g, |a, _, c| a == c);
        let g = mgr.nand(y, z);
        check3(&mut mgr, g, |_, b, c| !(b && c));
        let g = mgr.nor(x, z);
        check3(&mut mgr, g, |a, _, c| !(a || c));
        let g = mgr.diff(x, y);
        check3(&mut mgr, g, |a, b, _| a && !b);
        let g = mgr.not(x);
        check3(&mut mgr, g, |a, _, _| !a);
    }

    #[test]
    fn apply_dispatches_all_ops() {
        let mut mgr = Bdd::new(3);
        let x = mgr.var(0);
        let y = mgr.var(1);
        for op in [
            BinOp::And,
            BinOp::Or,
            BinOp::Xor,
            BinOp::Nand,
            BinOp::Nor,
            BinOp::Xnor,
            BinOp::Diff,
            BinOp::Imp,
        ] {
            let f = mgr.apply(op, x, y);
            let spec = |a: bool, b: bool| match op {
                BinOp::And => a && b,
                BinOp::Or => a || b,
                BinOp::Xor => a ^ b,
                BinOp::Nand => !(a && b),
                BinOp::Nor => !(a || b),
                BinOp::Xnor => a == b,
                BinOp::Diff => a && !b,
                BinOp::Imp => !a || b,
            };
            check3(&mut mgr, f, |a, b, _| spec(a, b));
        }
    }

    #[test]
    fn double_negation_is_identity() {
        let mut mgr = Bdd::new(3);
        let x = mgr.var(0);
        let y = mgr.var(1);
        let f = mgr.xor(x, y);
        let nf = mgr.not(f);
        assert_eq!(mgr.not(nf), f, "canonical BDDs: ¬¬f is the same handle");
    }

    #[test]
    fn ite_matches_mux_semantics() {
        let mut mgr = Bdd::new(3);
        let s = mgr.var(0);
        let a = mgr.var(1);
        let b = mgr.var(2);
        let f = mgr.ite(s, a, b);
        check3(&mut mgr, f, |sel, x1, x0| if sel { x1 } else { x0 });
        // Special cases return without node construction.
        assert_eq!(mgr.ite(Func::ONE, a, b), a);
        assert_eq!(mgr.ite(Func::ZERO, a, b), b);
        assert_eq!(mgr.ite(s, a, a), a);
        assert_eq!(mgr.ite(s, Func::ONE, Func::ZERO), s);
        let ns = mgr.not(s);
        assert_eq!(mgr.ite(s, Func::ZERO, Func::ONE), ns);
    }

    #[test]
    fn ite_standard_triples_reduce_to_binary_ops() {
        let mut mgr = Bdd::new(3);
        let f = mgr.var(0);
        let g = mgr.var(1);
        let h = mgr.var(2);
        let fg = mgr.and(f, g);
        let fh = mgr.or(f, h);
        // Degenerate triples equal their binary forms…
        assert_eq!(mgr.ite(f, Func::ONE, h), fh);
        assert_eq!(mgr.ite(f, g, Func::ZERO), fg);
        assert_eq!(mgr.ite(f, f, h), fh);
        assert_eq!(mgr.ite(f, g, f), fg);
        let nf = mgr.not(f);
        let nf_or_g = mgr.or(nf, g);
        assert_eq!(mgr.ite(f, g, Func::ONE), nf_or_g);
        let h_minus_f = mgr.diff(h, f);
        assert_eq!(mgr.ite(f, Func::ZERO, h), h_minus_f);
        // …and hit the *binary* cache slot the precomputed op populated.
        let before = mgr.op_stats();
        let _ = mgr.ite(f, Func::ONE, h);
        let after = mgr.op_stats();
        assert_eq!(
            after.cache_hits,
            before.cache_hits + 1,
            "normalized triple shares or(f,h)'s slot"
        );
    }

    #[test]
    fn implication_and_disjointness_tests() {
        let mut mgr = Bdd::new(3);
        let x = mgr.var(0);
        let y = mgr.var(1);
        let xy = mgr.and(x, y);
        let xory = mgr.or(x, y);
        assert!(mgr.implies(xy, xory));
        assert!(!mgr.implies(xory, xy));
        let nx = mgr.not(x);
        assert!(mgr.disjoint(x, nx));
        assert!(!mgr.disjoint(x, xory));
    }

    #[test]
    fn boolean_algebra_identities() {
        let mut mgr = Bdd::new(3);
        let x = mgr.var(0);
        let y = mgr.var(1);
        let z = mgr.var(2);
        // De Morgan.
        let lhs = mgr.nand(x, y);
        let nx = mgr.not(x);
        let ny = mgr.not(y);
        let rhs = mgr.or(nx, ny);
        assert_eq!(lhs, rhs);
        // Distributivity.
        let yz = mgr.or(y, z);
        let lhs = mgr.and(x, yz);
        let xy = mgr.and(x, y);
        let xz = mgr.and(x, z);
        let rhs = mgr.or(xy, xz);
        assert_eq!(lhs, rhs);
        // XOR associativity.
        let xy = mgr.xor(x, y);
        let lhs = mgr.xor(xy, z);
        let yz = mgr.xor(y, z);
        let rhs = mgr.xor(x, yz);
        assert_eq!(lhs, rhs);
    }
}
