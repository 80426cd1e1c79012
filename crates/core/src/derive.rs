//! Component derivation — Section 4 (Theorems 3 and 4) and Table 1.
//!
//! Given a decomposable ISF and the variable sets, these formulas produce
//! the ISFs of components A and B. Component A is derived first; its
//! completed CSF `f_A` (obtained by recursive decomposition) then enters
//! the formula for component B, which lets B absorb every don't-care A
//! left unused.

use bdd::{Bdd, Func, VarSet};

use crate::Isf;

/// Theorem 3: component A of a strong OR-decomposition.
///
/// `Q_A = ∃X_B (Q · ∃X_A R)`, `R_A = ∃X_B R`.
pub fn or_component_a(mgr: &mut Bdd, isf: &Isf, xa: &VarSet, xb: &VarSet) -> Isf {
    let ca = mgr.cube(xa);
    let cb = mgr.cube(xb);
    let er_a = mgr.exists(isf.r, ca);
    let q_need = mgr.and(isf.q, er_a);
    let qa = mgr.exists(q_need, cb);
    let ra = mgr.exists(isf.r, cb);
    Isf::new_unchecked(qa, ra)
}

/// Theorem 4: component B of a strong OR-decomposition, given the chosen
/// CSF `f_a` for component A.
///
/// `Q_B = ∃X_A (Q − f_A)`, `R_B = ∃X_A R`.
pub fn or_component_b(mgr: &mut Bdd, isf: &Isf, f_a: Func, xa: &VarSet) -> Isf {
    let ca = mgr.cube(xa);
    let q_rest = mgr.diff(isf.q, f_a);
    let qb = mgr.exists(q_rest, ca);
    let rb = mgr.exists(isf.r, ca);
    Isf::new_unchecked(qb, rb)
}

/// Dual of Theorem 3: component A of a strong AND-decomposition.
///
/// `Q_A = ∃X_B Q`, `R_A = ∃X_B (R · ∃X_A Q)`.
pub fn and_component_a(mgr: &mut Bdd, isf: &Isf, xa: &VarSet, xb: &VarSet) -> Isf {
    or_component_a(mgr, &isf.complement(), xa, xb).complement()
}

/// Dual of Theorem 4: component B of a strong AND-decomposition given
/// `f_a`.
///
/// `Q_B = ∃X_A Q`, `R_B = ∃X_A (R · f_A)`.
pub fn and_component_b(mgr: &mut Bdd, isf: &Isf, f_a: Func, xa: &VarSet) -> Isf {
    let nfa = mgr.not(f_a);
    or_component_b(mgr, &isf.complement(), nfa, xa).complement()
}

/// Weak OR-decomposition, component A (Table 1, second row):
/// `Q_A = Q · ∃X_A R`, `R_A = R`. The dedicated set `X_A` stays in A's
/// support; the gain is the enlarged don't-care set.
pub fn weak_or_component_a(mgr: &mut Bdd, isf: &Isf, xa: &VarSet) -> Isf {
    let ca = mgr.cube(xa);
    let er = mgr.exists(isf.r, ca);
    let qa = mgr.and(isf.q, er);
    Isf::new_unchecked(qa, isf.r)
}

/// Weak OR-decomposition, component B: same formula as the strong case
/// (Theorem 4) — `Q_B = ∃X_A (Q − f_A)`, `R_B = ∃X_A R`.
pub fn weak_or_component_b(mgr: &mut Bdd, isf: &Isf, f_a: Func, xa: &VarSet) -> Isf {
    or_component_b(mgr, isf, f_a, xa)
}

/// Weak AND-decomposition, component A (dual of the weak OR row):
/// `Q_A = Q`, `R_A = R · ∃X_A Q`.
pub fn weak_and_component_a(mgr: &mut Bdd, isf: &Isf, xa: &VarSet) -> Isf {
    weak_or_component_a(mgr, &isf.complement(), xa).complement()
}

/// Weak AND-decomposition, component B given `f_a`:
/// `Q_B = ∃X_A Q`, `R_B = ∃X_A (R · f_A)`.
pub fn weak_and_component_b(mgr: &mut Bdd, isf: &Isf, f_a: Func, xa: &VarSet) -> Isf {
    and_component_b(mgr, isf, f_a, xa)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check;

    /// End-to-end sanity for one derivation: pick any compatible completion
    /// of A (we use `Q_A` itself, the minimal one), derive B, pick B's
    /// minimal completion, and verify `A Θ B` lies inside the original
    /// interval and respects the support restrictions.
    fn assert_valid_or_decomposition(mgr: &mut Bdd, isf: &Isf, xa: &VarSet, xb: &VarSet) {
        let isf_a = or_component_a(mgr, isf, xa, xb);
        assert!(mgr.disjoint(isf_a.q, isf_a.r), "component A interval non-empty");
        let fa = isf_a.q; // minimal compatible completion
        assert!(isf_a.contains(mgr, fa));
        assert!(mgr.support(fa).is_disjoint(xb), "A must not see X_B");
        let isf_b = or_component_b(mgr, isf, fa, xa);
        assert!(mgr.disjoint(isf_b.q, isf_b.r), "component B interval non-empty");
        let fb = isf_b.q;
        assert!(mgr.support(fb).is_disjoint(xa), "B must not see X_A");
        let f = mgr.or(fa, fb);
        assert!(isf.contains(mgr, f), "A + B must implement the ISF");
    }

    #[test]
    fn fig3_derivation_recovers_or_of_ands() {
        let mut mgr = Bdd::new(4);
        let a = mgr.var(0);
        let b = mgr.var(1);
        let c = mgr.var(2);
        let d = mgr.var(3);
        let ab = mgr.and(a, b);
        let cd = mgr.and(c, d);
        let f = mgr.or(ab, cd);
        let isf = Isf::from_csf(&mut mgr, f);
        let xa = VarSet::from_iter([2u32, 3]);
        let xb = VarSet::from_iter([0u32, 1]);
        assert!(check::or_decomposable(&mut mgr, &isf, &xa, &xb));
        let isf_a = or_component_a(&mut mgr, &isf, &xa, &xb);
        // For this completely specified example A is forced to be exactly c·d.
        assert_eq!(isf_a.q, cd);
        let n_cd = mgr.not(cd);
        assert_eq!(isf_a.r, n_cd);
        let isf_b = or_component_b(&mut mgr, &isf, cd, &xa);
        assert_eq!(isf_b.q, ab);
        assert_valid_or_decomposition(&mut mgr, &isf, &xa, &xb);
    }

    #[test]
    fn and_derivation_on_product_of_sums() {
        let mut mgr = Bdd::new(4);
        let a = mgr.var(0);
        let b = mgr.var(1);
        let c = mgr.var(2);
        let d = mgr.var(3);
        let aorb = mgr.or(a, b);
        let cord = mgr.or(c, d);
        let f = mgr.and(aorb, cord);
        let isf = Isf::from_csf(&mut mgr, f);
        let xa = VarSet::from_iter([2u32, 3]);
        let xb = VarSet::from_iter([0u32, 1]);
        assert!(check::and_decomposable(&mut mgr, &isf, &xa, &xb));
        let isf_a = and_component_a(&mut mgr, &isf, &xa, &xb);
        assert!(mgr.disjoint(isf_a.q, isf_a.r));
        // A is forced to c + d.
        assert_eq!(isf_a.q, cord);
        let fa = isf_a.q;
        let isf_b = and_component_b(&mut mgr, &isf, fa, &xa);
        assert_eq!(isf_b.q, aorb);
        let fb = isf_b.q;
        let g = mgr.and(fa, fb);
        assert!(isf.contains(&mut mgr, g));
    }

    #[test]
    fn randomized_or_derivations_are_sound() {
        use boolfn::TruthTable;
        let mut checked = 0;
        for seed in 0..60u64 {
            let n = 5;
            let f = TruthTable::random(n, 0.5, seed);
            let care = TruthTable::random(n, 0.7, seed ^ 0xbeef);
            let qt = f.and(&care);
            let rt = f.complement().and(&care);
            let mut mgr = Bdd::new(n);
            let q = qt.to_bdd(&mut mgr);
            let r = rt.to_bdd(&mut mgr);
            let isf = Isf::new(&mut mgr, q, r);
            for (xam, xbm) in [(0b00011u32, 0b11100u32), (0b00001, 0b00110)] {
                let xa: VarSet = (0..n as u32).filter(|v| xam & (1 << v) != 0).collect();
                let xb: VarSet = (0..n as u32).filter(|v| xbm & (1 << v) != 0).collect();
                if check::or_decomposable(&mut mgr, &isf, &xa, &xb) {
                    assert_valid_or_decomposition(&mut mgr, &isf, &xa, &xb);
                    checked += 1;
                }
            }
        }
        assert!(checked > 0, "sweep must hit decomposable instances");
    }

    #[test]
    fn weak_or_derivation_increases_dont_cares_and_stays_sound() {
        let mut mgr = Bdd::new(3);
        let a = mgr.var(0);
        let b = mgr.var(1);
        let c = mgr.var(2);
        let ab = mgr.and(a, b);
        let f = mgr.or(ab, c);
        let isf = Isf::from_csf(&mut mgr, f);
        let xa = VarSet::singleton(2);
        // Weak OR is useful: Q·∃X_A R ≠ Q.
        let ca = mgr.cube(&xa);
        let er = mgr.exists(isf.r, ca);
        assert!(!mgr.implies(isf.q, er));
        let isf_a = weak_or_component_a(&mut mgr, &isf, &xa);
        let dc_before = isf.dont_care(&mut mgr);
        let dc_after = isf_a.dont_care(&mut mgr);
        assert!(mgr.implies(dc_before, dc_after));
        assert_ne!(dc_before, dc_after, "weak decomposition must add don't-cares");
        // Complete A minimally, derive B, and check F = A + B.
        let fa = isf_a.q;
        let isf_b = weak_or_component_b(&mut mgr, &isf, fa, &xa);
        let fb = isf_b.q;
        assert!(mgr.support(fb).is_disjoint(&xa));
        let g = mgr.or(fa, fb);
        assert!(isf.contains(&mut mgr, g));
    }

    #[test]
    fn weak_and_derivation_is_dual() {
        let mut mgr = Bdd::new(3);
        let a = mgr.var(0);
        let b = mgr.var(1);
        let c = mgr.var(2);
        let aorb = mgr.or(a, b);
        let nc = mgr.not(c);
        let f = mgr.and(aorb, nc);
        let isf = Isf::from_csf(&mut mgr, f);
        let xa = VarSet::singleton(2);
        // Weak AND is useful: R·∃X_A Q ≠ R.
        let ca = mgr.cube(&xa);
        let eq = mgr.exists(isf.q, ca);
        assert!(!mgr.implies(isf.r, eq));
        let isf_a = weak_and_component_a(&mut mgr, &isf, &xa);
        let fa = {
            let ndc = isf_a.dont_care(&mut mgr);
            mgr.or(isf_a.q, ndc) // maximal completion
        };
        assert!(isf_a.contains(&mut mgr, fa));
        let isf_b = weak_and_component_b(&mut mgr, &isf, fa, &xa);
        let fb = {
            let ndc = isf_b.dont_care(&mut mgr);
            mgr.or(isf_b.q, ndc)
        };
        assert!(mgr.support(fb).is_disjoint(&xa));
        let g = mgr.and(fa, fb);
        assert!(isf.contains(&mut mgr, g));
    }
}
