//! Shannon cofactors.

use crate::manager::{Bdd, CacheKey, CacheOp, Func};

impl Bdd {
    /// The cofactor `f|x_v = value` (Shannon cofactor w.r.t. one literal).
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a variable of this manager.
    pub fn cofactor(&mut self, f: Func, v: crate::VarId, value: bool) -> Func {
        assert!((v as usize) < self.num_vars(), "variable x{v} out of range");
        if f.is_const() {
            return f;
        }
        let op = if value { CacheOp::CofPos } else { CacheOp::CofNeg };
        let key = CacheKey { op, a: f.0, b: v, c: 0 };
        if let Some(hit) = self.cache_get(&key) {
            return hit;
        }
        let target = self.level_of_var(v);
        let lf = self.level(f);
        let result = if lf > target {
            f // v does not occur in f
        } else if lf == target {
            let n = self.node(f);
            if value {
                n.high
            } else {
                n.low
            }
        } else {
            let n = *self.node(f);
            let low = self.cofactor(n.low, v, value);
            let high = self.cofactor(n.high, v, value);
            self.mk(n.var, low, high)
        };
        self.cache_put(key, result);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cofactor_shannon_expansion() {
        let mut mgr = Bdd::new(3);
        let x = mgr.var(0);
        let y = mgr.var(1);
        let z = mgr.var(2);
        let yz = mgr.xor(y, z);
        let f = mgr.or(x, yz); // f = x + (y ⊕ z)
                               // Shannon: f = x·f1 + ¬x·f0.
        let f1 = mgr.cofactor(f, 0, true);
        let f0 = mgr.cofactor(f, 0, false);
        assert!(f1.is_one());
        assert_eq!(f0, yz);
        let recomposed = mgr.ite(x, f1, f0);
        assert_eq!(recomposed, f);
    }

    #[test]
    fn cofactor_of_absent_variable() {
        let mut mgr = Bdd::new(3);
        let y = mgr.var(1);
        assert_eq!(mgr.cofactor(y, 0, true), y);
        assert_eq!(mgr.cofactor(y, 2, false), y);
        assert_eq!(mgr.cofactor(Func::ONE, 0, true), Func::ONE);
    }
}
