//! Incompletely specified functions as intervals over a BDD manager.

use bdd::{Bdd, Func, VarId, VarSet};

/// An incompletely specified Boolean function (ISF), represented by its
/// on-set `Q` and off-set `R` as BDDs in a shared manager.
///
/// The ISF denotes the interval of completely specified functions
/// `[Q, ¬R]`: a CSF `f` is *compatible* with the ISF iff `Q ≤ f ≤ ¬R`.
/// `Q` and `R` must be disjoint (checked by [`Isf::new`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Isf {
    /// The on-set: where every compatible function must be 1.
    pub q: Func,
    /// The off-set: where every compatible function must be 0.
    pub r: Func,
}

impl Isf {
    /// Creates an ISF from its on-set and off-set.
    ///
    /// # Panics
    ///
    /// Panics if `q` and `r` overlap.
    pub fn new(mgr: &mut Bdd, q: Func, r: Func) -> Self {
        assert!(mgr.disjoint(q, r), "ISF on-set and off-set must be disjoint");
        Isf { q, r }
    }

    /// The ISF of a completely specified function (`Q = f`, `R = ¬f`).
    pub fn from_csf(mgr: &mut Bdd, f: Func) -> Self {
        Isf { q: f, r: mgr.not(f) }
    }

    /// Creates an ISF without the disjointness check.
    ///
    /// Only for callers that guarantee disjointness structurally (e.g. the
    /// derivation formulas); debug builds still assert.
    pub(crate) fn new_unchecked(q: Func, r: Func) -> Self {
        Isf { q, r }
    }

    /// The care set `Q + R`.
    pub fn care(&self, mgr: &mut Bdd) -> Func {
        mgr.or(self.q, self.r)
    }

    /// The don't-care set `¬(Q + R)`.
    pub fn dont_care(&self, mgr: &mut Bdd) -> Func {
        let care = self.care(mgr);
        mgr.not(care)
    }

    /// Theorem 6: is the CSF `f` compatible with this ISF
    /// (`Q·¬f = 0` and `R·f = 0`)?
    pub fn contains(&self, mgr: &mut Bdd, f: Func) -> bool {
        mgr.implies(self.q, f) && mgr.disjoint(self.r, f)
    }

    /// Theorem 6 (second half): is the *complement* of `f` compatible
    /// (`Q·f = 0` and `R·¬f = 0`)? Decided without building `¬f`.
    pub fn contains_complement(&self, mgr: &mut Bdd, f: Func) -> bool {
        mgr.disjoint(self.q, f) && mgr.implies(self.r, f)
    }

    /// The complemented ISF (swap on-set and off-set).
    pub fn complement(&self) -> Isf {
        Isf { q: self.r, r: self.q }
    }

    /// Cofactor of the interval w.r.t. one literal.
    pub fn cofactor(&self, mgr: &mut Bdd, v: VarId, value: bool) -> Isf {
        Isf { q: mgr.cofactor(self.q, v, value), r: mgr.cofactor(self.r, v, value) }
    }

    /// The structural support: variables on which at least one of `Q`, `R`
    /// depends. It may hold inessential variables; [`Bdd::essential_vars`]
    /// tells which of them the interval really needs.
    pub fn support(&self, mgr: &Bdd) -> VarSet {
        mgr.support(self.q).union(&mgr.support(self.r))
    }

    /// Is variable `v` inessential — does the interval contain a function
    /// independent of `v`? (`∃v Q` and `∃v R` must not overlap.)
    pub fn is_inessential(&self, mgr: &mut Bdd, v: VarId) -> bool {
        mgr.essential_vars(self.q, self.r, &VarSet::singleton(v)).is_empty()
    }

    /// Removes inessential variables with the paper's simple greedy sweep
    /// (§7: `RemoveInessentialVariables`): each variable of the support is
    /// tested once, in order, and, if inessential, existentially quantified
    /// out of both sets.
    ///
    /// One [`Bdd::essential_vars`] query answers the tests up to the next
    /// removal; only a removal changes the interval and so asks again for
    /// the variables still to come. A variable that an earlier removal
    /// took out of the support is inessential and counts as removed.
    ///
    /// Returns the reduced ISF and the number of variables removed.
    pub fn remove_inessential(&self, mgr: &mut Bdd) -> (Isf, usize) {
        let mut isf = *self;
        let mut removed = 0;
        let support = isf.support(mgr);
        let mut rest = support;
        let mut essential = mgr.essential_vars(isf.q, isf.r, &rest);
        for v in support.iter() {
            rest.remove(v);
            if !essential.contains(v) {
                let vs = VarSet::singleton(v);
                isf = Isf { q: mgr.exists_set(isf.q, &vs), r: mgr.exists_set(isf.r, &vs) };
                removed += 1;
                essential = mgr.essential_vars(isf.q, isf.r, &rest);
            }
        }
        (isf, removed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_membership() {
        let mut mgr = Bdd::new(3);
        let a = mgr.var(0);
        let b = mgr.var(1);
        let ab = mgr.and(a, b);
        let aorb = mgr.or(a, b);
        let nor = mgr.nor(a, b);
        // ISF: must be 1 on a·b, must be 0 on ¬a·¬b; a+b and a·b both fit.
        let isf = Isf::new(&mut mgr, ab, nor);
        assert!(isf.contains(&mut mgr, ab));
        assert!(isf.contains(&mut mgr, aorb));
        assert!(isf.contains(&mut mgr, a));
        assert!(!isf.contains(&mut mgr, nor));
        let n_ab = mgr.not(ab);
        assert!(!isf.contains(&mut mgr, n_ab));
        assert!(isf.contains_complement(&mut mgr, n_ab), "¬(¬(a·b)) = a·b fits");
    }

    #[test]
    fn csf_isf_has_no_dont_cares() {
        let mut mgr = Bdd::new(2);
        let a = mgr.var(0);
        let isf = Isf::from_csf(&mut mgr, a);
        assert!(isf.dont_care(&mut mgr).is_zero());
        assert!(isf.contains(&mut mgr, a));
        let na = mgr.not(a);
        assert!(!isf.contains(&mut mgr, na));
    }

    #[test]
    fn complement_swaps_sets() {
        let mut mgr = Bdd::new(2);
        let a = mgr.var(0);
        let isf = Isf::from_csf(&mut mgr, a);
        let c = isf.complement();
        let na = mgr.not(a);
        assert!(c.contains(&mut mgr, na));
        assert!(!c.contains(&mut mgr, a));
    }

    #[test]
    fn inessential_variable_removal() {
        let mut mgr = Bdd::new(3);
        let a = mgr.var(0);
        let b = mgr.var(1);
        let c = mgr.var(2);
        // Q = a·b·c, R = ¬a·b — variable c is inessential (choose f = a·b).
        let abc = {
            let ab = mgr.and(a, b);
            mgr.and(ab, c)
        };
        let nab = {
            let na = mgr.not(a);
            mgr.and(na, b)
        };
        let isf = Isf::new(&mut mgr, abc, nab);
        assert!(isf.is_inessential(&mut mgr, 2));
        assert!(!isf.is_inessential(&mut mgr, 0));
        // Greedy sweep: removing c makes b inessential too (f = a fits the
        // interval), so two variables go.
        let (reduced, removed) = isf.remove_inessential(&mut mgr);
        assert_eq!(removed, 2);
        assert!(!reduced.support(&mgr).contains(2));
        assert!(!reduced.support(&mgr).contains(1));
        assert!(reduced.contains(&mut mgr, a));
        // Every completion of the reduced interval fits the original.
        assert!(isf.contains(&mut mgr, a));
    }

    #[test]
    fn completely_specified_has_no_inessential_support_vars() {
        let mut mgr = Bdd::new(3);
        let a = mgr.var(0);
        let b = mgr.var(1);
        let f = mgr.xor(a, b);
        let isf = Isf::from_csf(&mut mgr, f);
        let (reduced, removed) = isf.remove_inessential(&mut mgr);
        assert_eq!(removed, 0);
        assert_eq!(reduced.support(&mgr), isf.support(&mgr));
    }

    /// Random intervals `[f·c, ¬(¬f·c)]` over `n` variables.
    fn random_isf(mgr: &mut Bdd, n: usize, seed: u64) -> Isf {
        use boolfn::TruthTable;
        let f = TruthTable::random(n, 0.5, seed);
        let care = TruthTable::random(n, 0.15 + 0.1 * (seed % 6) as f64, seed ^ 0xca4e);
        let q = f.and(&care).to_bdd(mgr);
        let r = f.complement().and(&care).to_bdd(mgr);
        Isf::new(mgr, q, r)
    }

    #[test]
    fn contains_complement_matches_the_negated_function() {
        for seed in 0..60u64 {
            let mut mgr = Bdd::new(5);
            let isf = random_isf(&mut mgr, 5, seed);
            let candidates = [
                isf.q,
                isf.r,
                Func::ZERO,
                Func::ONE,
                boolfn::TruthTable::random(5, 0.5, seed ^ 0xf00d).to_bdd(&mut mgr),
            ];
            for f in candidates {
                let nodes = mgr.total_nodes();
                let got = isf.contains_complement(&mut mgr, f);
                assert_eq!(mgr.total_nodes(), nodes, "seed {seed}: no node allocated");
                let nf = mgr.not(f);
                assert_eq!(got, isf.contains(&mut mgr, nf), "seed {seed}");
            }
        }
    }

    /// The sweep one variable at a time, each test building `∃v Q` and
    /// `∃v R`: what `remove_inessential` computes with fewer queries.
    fn remove_one_at_a_time(isf: &Isf, mgr: &mut Bdd) -> (Isf, usize) {
        let mut isf = *isf;
        let mut removed = 0;
        for v in isf.support(mgr).iter() {
            let vs = VarSet::singleton(v);
            let eq = mgr.exists_set(isf.q, &vs);
            let er = mgr.exists_set(isf.r, &vs);
            if mgr.disjoint(eq, er) {
                isf = Isf { q: eq, r: er };
                removed += 1;
            }
        }
        (isf, removed)
    }

    #[test]
    fn sweep_matches_the_per_variable_loop() {
        let mut removing = 0;
        for seed in 0..120u64 {
            let mut mgr = Bdd::new(6);
            let isf = random_isf(&mut mgr, 6, seed);
            for v in isf.support(&mgr).iter() {
                let vs = VarSet::singleton(v);
                let eq = mgr.exists_set(isf.q, &vs);
                let er = mgr.exists_set(isf.r, &vs);
                let want = mgr.disjoint(eq, er);
                assert_eq!(isf.is_inessential(&mut mgr, v), want, "seed {seed} var {v}");
            }
            let want = remove_one_at_a_time(&isf, &mut mgr);
            assert_eq!(isf.remove_inessential(&mut mgr), want, "seed {seed}");
            removing += usize::from(want.1 > 1);
        }
        assert!(removing >= 20, "only {removing} cases remove two or more variables");
        // Q = c·(a ⊕ b), R = ¬c: removing `a` takes `b` out of the support,
        // and `b` still counts as removed.
        let mut mgr = Bdd::new(3);
        let (a, b, c) = (mgr.var(0), mgr.var(1), mgr.var(2));
        let ab = mgr.xor(a, b);
        let q = mgr.and(c, ab);
        let nc = mgr.not(c);
        let isf = Isf::new(&mut mgr, q, nc);
        let (reduced, removed) = isf.remove_inessential(&mut mgr);
        assert_eq!((reduced, removed), (Isf { q: c, r: nc }, 2));
        assert_eq!(remove_one_at_a_time(&isf, &mut mgr), (reduced, removed));
    }

    #[test]
    #[should_panic(expected = "must be disjoint")]
    fn overlapping_sets_panic() {
        let mut mgr = Bdd::new(1);
        let a = mgr.var(0);
        let _ = Isf::new(&mut mgr, a, a);
    }
}
