//! Existential and universal quantification.
//!
//! These two operators drive every decomposability check in the paper:
//! existential quantification over the column variables of a Karnaugh map
//! ORs the columns together, universal quantification ANDs them (paper,
//! Fig. 2).

use crate::manager::{Bdd, CacheKey, CacheOp, Func};
use crate::varset::VarSet;

impl Bdd {
    /// Builds the positive cube `∏ x_v` over the variables of `vars`.
    ///
    /// Quantifiers take their variable set in this form so the computed
    /// cache can key on its identity.
    ///
    /// # Panics
    ///
    /// Panics if a variable of `vars` is not in this manager.
    pub fn cube(&mut self, vars: &VarSet) -> Func {
        // Build bottom-up in order of decreasing level so `mk` invariants hold.
        let mut by_level: Vec<_> = vars.iter().map(|v| (self.level_of_var(v), v)).collect();
        by_level.sort_unstable();
        let mut acc = Func::ONE;
        for (_, v) in by_level.into_iter().rev() {
            acc = self.mk(v, Func::ZERO, acc);
        }
        acc
    }

    /// Existential quantification `∃ vars . f`.
    ///
    /// `cube` must be a positive cube as produced by [`Bdd::cube`].
    pub fn exists(&mut self, f: Func, cube: Func) -> Func {
        self.quant(f, cube, true)
    }

    /// Universal quantification `∀ vars . f`.
    ///
    /// `cube` must be a positive cube as produced by [`Bdd::cube`].
    pub fn forall(&mut self, f: Func, cube: Func) -> Func {
        self.quant(f, cube, false)
    }

    /// Existential quantification over a [`VarSet`] (builds the cube
    /// internally; prefer [`Bdd::exists`] with a pre-built cube in loops).
    pub fn exists_set(&mut self, f: Func, vars: &VarSet) -> Func {
        let cube = self.cube(vars);
        self.exists(f, cube)
    }

    /// Universal quantification over a [`VarSet`].
    pub fn forall_set(&mut self, f: Func, vars: &VarSet) -> Func {
        let cube = self.cube(vars);
        self.forall(f, cube)
    }

    /// Fused `∃ vars . (f · g)` — never materializes the conjunction.
    ///
    /// The decomposability checks of Theorems 1 and 2 are all of this
    /// shape; the fused recursion short-circuits to constant 1 as soon as
    /// one branch of a quantified variable saturates, which `and` +
    /// `exists` cannot do.
    pub fn and_exists(&mut self, f: Func, g: Func, cube: Func) -> Func {
        if f.is_zero() || g.is_zero() {
            return Func::ZERO;
        }
        if cube.is_one() {
            return self.and(f, g);
        }
        if f.is_one() && g.is_one() {
            return Func::ONE;
        }
        if f.is_one() {
            return self.exists(g, cube);
        }
        if g.is_one() || f == g {
            return self.exists(f, cube);
        }
        // Skip quantified variables above both operands.
        let top = self.level(f).min(self.level(g));
        let mut cube = cube;
        while !cube.is_one() && self.level(cube) < top {
            cube = self.node(cube).high;
        }
        if cube.is_one() {
            return self.and(f, g);
        }
        let (a, b) = if f.0 <= g.0 { (f, g) } else { (g, f) };
        let key = CacheKey { op: CacheOp::AndExists, a: a.0, b: b.0, c: cube.0 };
        if let Some(hit) = self.cache_get(&key) {
            return hit;
        }
        let var = self.var_at_level(top);
        let (f0, f1) = self.cofactors_at(f, top);
        let (g0, g1) = self.cofactors_at(g, top);
        let result = if self.level(cube) == top {
            let sub = self.node(cube).high;
            let r0 = self.and_exists(f0, g0, sub);
            if r0.is_one() {
                r0
            } else {
                let r1 = self.and_exists(f1, g1, sub);
                self.or(r0, r1)
            }
        } else {
            let low = self.and_exists(f0, g0, cube);
            let high = self.and_exists(f1, g1, cube);
            self.mk(var, low, high)
        };
        self.cache_put(key, result);
        result
    }

    /// One representative per class: for every assignment of the variables
    /// outside `cube`, keeps only the smallest assignment of the `cube`
    /// variables (in level order, `0 < 1`) on which `f` is 1.
    ///
    /// The result implies `f`, has the same projection `∃ cube . f`, and
    /// holds at most one `cube`-minterm per assignment of the other
    /// variables. `cube` must be a positive cube as produced by
    /// [`Bdd::cube`].
    pub fn pick_per_class(&mut self, f: Func, cube: Func) -> Func {
        if f.is_zero() || cube.is_one() {
            return f;
        }
        let key = CacheKey { op: CacheOp::PickPerClass, a: f.0, b: cube.0, c: 0 };
        if let Some(hit) = self.cache_get(&key) {
            return hit;
        }
        // Unlike `quant`, cube variables above `f` are not skipped: `f`
        // does not depend on them, but they still have to be fixed to 0.
        let top = self.level(f).min(self.level(cube));
        let var = self.var_at_level(top);
        let (f0, f1) = self.cofactors_at(f, top);
        let result = if self.level(cube) == top {
            // Take the 1-branch only in classes where the 0-branch is empty.
            let sub = self.node(cube).high;
            let low = self.pick_per_class(f0, sub);
            let high = if f0 == f1 {
                Func::ZERO
            } else {
                let p1 = self.pick_per_class(f1, sub);
                let e0 = self.exists(f0, sub);
                self.diff(p1, e0)
            };
            self.mk(var, low, high)
        } else {
            let low = self.pick_per_class(f0, cube);
            let high = self.pick_per_class(f1, cube);
            self.mk(var, low, high)
        };
        self.cache_put(key, result);
        result
    }

    fn quant(&mut self, f: Func, cube: Func, existential: bool) -> Func {
        if f.is_const() || cube.is_one() {
            return f;
        }
        debug_assert!(!cube.is_zero(), "quantifier cube must be a positive cube");
        let lf = self.level(f);
        // Skip cube variables above f's top variable: they do not occur in f.
        let mut cube = cube;
        while !cube.is_one() && self.level(cube) < lf {
            cube = self.node(cube).high;
        }
        if cube.is_one() {
            return f;
        }
        let op = if existential { CacheOp::Exists } else { CacheOp::Forall };
        let key = CacheKey { op, a: f.0, b: cube.0, c: 0 };
        if let Some(hit) = self.cache_get(&key) {
            return hit;
        }
        let lc = self.level(cube);
        let node = *self.node(f);
        let result = if lf == lc {
            // Quantify this variable out.
            let sub_cube = self.node(cube).high;
            let low = self.quant(node.low, sub_cube, existential);
            let high = self.quant(node.high, sub_cube, existential);
            if existential {
                self.or(low, high)
            } else {
                self.and(low, high)
            }
        } else {
            let low = self.quant(node.low, cube, existential);
            let high = self.quant(node.high, cube, existential);
            self.mk(node.var, low, high)
        };
        self.cache_put(key, result);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The completely specified function of the paper's Fig. 2 Karnaugh map:
    /// variables (a, b) select the column, (c, d) the row, and
    /// F(a,b,c,d) has the map (rows cd = 00,01,11,10; columns ab = 00,01,11,10):
    ///
    /// ```text
    ///        ab:  00 01 11 10
    /// cd=00:       0  1  0  1
    /// cd=01:       1  1  0  1
    /// cd=11:       0  1  0  0
    /// cd=10:       0  1  1  1
    /// ```
    fn fig2_function(mgr: &mut Bdd) -> Func {
        // Minterm list derived from the map above.
        let rows = [
            (0b00, [false, true, false, true]),
            (0b01, [true, true, false, true]),
            (0b11, [false, true, false, false]),
            (0b10, [false, true, true, true]),
        ];
        let mut f = Func::ZERO;
        for (cd, cols) in rows {
            for (ci, &on) in cols.iter().enumerate() {
                if !on {
                    continue;
                }
                let ab = [0b00, 0b01, 0b11, 0b10][ci];
                let assignment = [
                    (0u32, ab & 0b10 != 0), // a
                    (1, ab & 0b01 != 0),    // b
                    (2, cd & 0b10 != 0),    // c
                    (3, cd & 0b01 != 0),    // d
                ];
                let mut cube = Func::ONE;
                for (v, pos) in assignment {
                    let lit = mgr.literal(v, pos);
                    cube = mgr.and(cube, lit);
                }
                f = mgr.or(f, cube);
            }
        }
        f
    }

    #[test]
    fn karnaugh_fig2_exists_is_or_of_columns() {
        // ∃ab F: for each row (c,d), true iff any column is 1 in that row.
        let mut mgr = Bdd::new(4);
        let f = fig2_function(&mut mgr);
        let ab = VarSet::from_iter([0u32, 1]);
        let ex = mgr.exists_set(f, &ab);
        // Every row of the map contains at least one 1 → ∃ab F ≡ 1.
        assert!(ex.is_one());
    }

    #[test]
    fn karnaugh_fig2_forall_is_and_of_columns() {
        // ∀ab F: for each row, true iff all columns are 1.
        let mut mgr = Bdd::new(4);
        let f = fig2_function(&mut mgr);
        let ab = VarSet::from_iter([0u32, 1]);
        let all = mgr.forall_set(f, &ab);
        // No row has all four columns at 1 → ∀ab F ≡ 0.
        assert!(all.is_zero());
    }

    #[test]
    fn karnaugh_fig2_row_quantification() {
        // Quantifying the row variables instead: column ab=01 is all ones.
        let mut mgr = Bdd::new(4);
        let f = fig2_function(&mut mgr);
        let cd = VarSet::from_iter([2u32, 3]);
        let all = mgr.forall_set(f, &cd);
        // ∀cd F = ¬a·b (only column ab=01 is constant 1).
        let na = mgr.nvar(0);
        let b = mgr.var(1);
        let expected = mgr.and(na, b);
        assert_eq!(all, expected);
        let ex = mgr.exists_set(f, &cd);
        // Every column contains a 1 somewhere → ∃cd F ≡ 1.
        assert!(ex.is_one());
    }

    #[test]
    fn exists_matches_cofactor_disjunction() {
        let mut mgr = Bdd::new(3);
        let x = mgr.var(0);
        let y = mgr.var(1);
        let z = mgr.var(2);
        let xy = mgr.and(x, y);
        let nyz = {
            let ny = mgr.not(y);
            mgr.and(ny, z)
        };
        let f = mgr.or(xy, nyz);
        let c1 = mgr.cofactor(f, 1, true);
        let c0 = mgr.cofactor(f, 1, false);
        let expected = mgr.or(c0, c1);
        assert_eq!(mgr.exists_set(f, &VarSet::singleton(1)), expected);
        let expected = mgr.and(c0, c1);
        assert_eq!(mgr.forall_set(f, &VarSet::singleton(1)), expected);
    }

    #[test]
    fn quantifying_absent_variables_is_identity() {
        let mut mgr = Bdd::new(4);
        let x = mgr.var(0);
        let y = mgr.var(1);
        let f = mgr.and(x, y);
        let others = VarSet::from_iter([2u32, 3]);
        assert_eq!(mgr.exists_set(f, &others), f);
        assert_eq!(mgr.forall_set(f, &others), f);
        assert_eq!(mgr.exists_set(f, &VarSet::new()), f);
    }

    #[test]
    fn quantifier_duality() {
        // ∀X f = ¬∃X ¬f on a randomized-ish structured function.
        let mut mgr = Bdd::new(5);
        let vs: Vec<Func> = (0..5).map(|i| mgr.var(i)).collect();
        let t1 = mgr.and(vs[0], vs[2]);
        let t2 = mgr.xor(vs[1], vs[3]);
        let t3 = mgr.and(t2, vs[4]);
        let f = mgr.or(t1, t3);
        let xs = VarSet::from_iter([0u32, 3, 4]);
        let lhs = mgr.forall_set(f, &xs);
        let nf = mgr.not(f);
        let e = mgr.exists_set(nf, &xs);
        let rhs = mgr.not(e);
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn and_exists_equals_sequential() {
        let mut mgr = Bdd::new(4);
        let a = mgr.var(0);
        let b = mgr.var(1);
        let c = mgr.var(2);
        let f = mgr.or(a, b);
        let g = mgr.xor(b, c);
        let cube = mgr.cube(&VarSet::singleton(1));
        let fused = mgr.and_exists(f, g, cube);
        let fg = mgr.and(f, g);
        let seq = mgr.exists(fg, cube);
        assert_eq!(fused, seq);
    }

    #[test]
    fn cube_structure() {
        let mut mgr = Bdd::new(4);
        let cube = mgr.cube(&VarSet::from_iter([1u32, 3]));
        assert!(mgr.eval(cube, &[false, true, false, true]));
        assert!(!mgr.eval(cube, &[true, true, true, false]));
        assert_eq!(mgr.cube(&VarSet::new()), Func::ONE);
    }
}
