//! Structural queries: support and node counts.

use std::collections::HashSet;

use crate::hash::FxBuildHasher;
use crate::manager::{Bdd, Func};
use crate::varset::VarSet;

impl Bdd {
    /// The support of `f`: the set of variables `f` structurally depends on.
    ///
    /// For a reduced BDD, structural dependence coincides with semantic
    /// dependence.
    pub fn support(&self, f: Func) -> VarSet {
        let mut vars = VarSet::new();
        let mut seen: HashSet<u32, FxBuildHasher> = HashSet::default();
        let mut stack = vec![f];
        while let Some(g) = stack.pop() {
            if g.is_const() || !seen.insert(g.0) {
                continue;
            }
            let n = self.node(g);
            vars.insert(n.var);
            stack.push(n.low);
            stack.push(n.high);
        }
        vars
    }

    /// Number of BDD nodes in the (shared) DAG rooted at `f`, excluding the
    /// terminals. This is the standard "BDD size" measure.
    pub fn node_count(&self, f: Func) -> usize {
        let mut seen: HashSet<u32, FxBuildHasher> = HashSet::default();
        let mut stack = vec![f];
        let mut count = 0;
        while let Some(g) = stack.pop() {
            if g.is_const() || !seen.insert(g.0) {
                continue;
            }
            count += 1;
            let n = self.node(g);
            stack.push(n.low);
            stack.push(n.high);
        }
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn support_of_combinations() {
        let mut mgr = Bdd::new(5);
        let a = mgr.var(0);
        let c = mgr.var(2);
        let e = mgr.var(4);
        let ac = mgr.and(a, c);
        let f = mgr.xor(ac, e);
        assert_eq!(mgr.support(f), VarSet::from_iter([0u32, 2, 4]));
        assert!(mgr.support(Func::ONE).is_empty());
        assert_eq!(mgr.support(a), VarSet::singleton(0));
    }

    #[test]
    fn support_shrinks_under_quantification() {
        let mut mgr = Bdd::new(3);
        let a = mgr.var(0);
        let b = mgr.var(1);
        let f = mgr.and(a, b);
        let ex = mgr.exists_set(f, &VarSet::singleton(0));
        assert_eq!(mgr.support(ex), VarSet::singleton(1));
    }

    #[test]
    fn node_counts() {
        let mut mgr = Bdd::new(3);
        let a = mgr.var(0);
        let b = mgr.var(1);
        let c = mgr.var(2);
        assert_eq!(mgr.node_count(a), 1);
        assert_eq!(mgr.node_count(Func::ZERO), 0);
        let ab = mgr.and(a, b);
        assert_eq!(mgr.node_count(ab), 2);
        let f = mgr.xor(a, b);
        assert_eq!(mgr.node_count(f), 3, "xor of two vars has 3 nodes");
        let g = mgr.and(ab, c);
        assert_eq!(mgr.node_count(g), 3, "a chain of three literals");
    }
}
