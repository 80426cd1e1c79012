//! Decomposability checks — Section 3 of the paper.
//!
//! All checks take the variable sets as [`VarSet`]s and build the
//! quantifier cubes internally. The grouping search reuses quantified
//! sides across candidates through the crate-internal `theorem1`,
//! `quantify_b`, `theorem2_blocked` and `theorem2`.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};

use bdd::{Bdd, Func, VarId, VarSet};

use crate::Isf;

thread_local! {
    /// This thread's count of theorem checks evaluated (Theorem 1 and its
    /// AND dual, Theorem 2 pairs, weak-usefulness tests). A Theorem 2 pair
    /// counts one check when it is answered, also when a blocked set built
    /// earlier answers it with no BDD work; a grouping search that the
    /// bound of `grouping::best_grouping` stops counts nothing for the
    /// candidates it never tests. Monotonic; cost attribution reads
    /// *deltas* around each recursive call. Per thread, so a decomposition
    /// running on another thread never moves this thread's deltas. A
    /// counter rather than a decomposer field because the check functions
    /// only see a `&mut Bdd`, and there is nowhere per-run to hang it
    /// without widening every grouping-loop signature.
    static THEOREM_CHECKS: Cell<u64> = const { Cell::new(0) };
}

/// Total theorem checks evaluated on the calling thread so far.
pub fn theorem_checks() -> u64 {
    THEOREM_CHECKS.with(Cell::get)
}

#[inline]
fn note_check() {
    THEOREM_CHECKS.with(|c| c.set(c.get() + 1));
}

/// Deliberate-fault switch used by the differential fuzz harness to prove
/// it can catch real bugs: when enabled, every Theorem 1 check (OR and
/// AND, from scratch or incremental) quantifies the `X_B` side universally
/// instead of existentially. `∀X_B R ⊆ ∃X_B R`, so the intersection with
/// `∃X_A R` shrinks and the check wrongly *accepts* groupings the true
/// condition rejects, producing components that violate the `[Q, ¬R]`
/// interval.
///
/// Process-global; never enabled in production paths.
static MUTATE_OR_CHECK: AtomicBool = AtomicBool::new(false);

/// Enables or disables the deliberate Theorem 1 mutation (see
/// [`or_check_mutation_enabled`]). Only the fuzz harness self-check and the
/// `fuzz --mutate` binary flip this; remember to restore `false`.
pub fn set_or_check_mutation(enabled: bool) {
    MUTATE_OR_CHECK.store(enabled, Ordering::SeqCst);
}

/// Is the deliberate Theorem 1 mutation currently enabled?
pub fn or_check_mutation_enabled() -> bool {
    MUTATE_OR_CHECK.load(Ordering::SeqCst)
}

/// Theorem 1: is the ISF OR-bi-decomposable with sets `(X_A, X_B)`?
///
/// Condition: `Q · ∃X_A R · ∃X_B R = 0`.
pub fn or_decomposable(mgr: &mut Bdd, isf: &Isf, xa: &VarSet, xb: &VarSet) -> bool {
    let ca = mgr.cube(xa);
    let cb = mgr.cube(xb);
    let ra = mgr.exists(isf.r, ca);
    let rb = quantify_b(mgr, isf.r, cb);
    theorem1(mgr, isf.q, ra, rb)
}

/// Dual of Theorem 1: is the ISF AND-bi-decomposable with `(X_A, X_B)`?
///
/// Condition: `R · ∃X_A Q · ∃X_B Q = 0`.
pub fn and_decomposable(mgr: &mut Bdd, isf: &Isf, xa: &VarSet, xb: &VarSet) -> bool {
    or_decomposable(mgr, &isf.complement(), xa, xb)
}

/// Theorem 1 on pre-quantified sides: `Q · ∃X_A R · ∃X_B R = 0`, decided
/// without building the product.
pub(crate) fn theorem1(mgr: &mut Bdd, q: Func, ra: Func, rb: Func) -> bool {
    note_check();
    mgr.disjoint3(q, ra, rb)
}

/// Quantifies the `X_B` side of Theorem 1 over `cube`: `∃`, or `∀` under
/// the deliberate mutation. Quantifying an already quantified side again
/// grows its set by the cube's variables.
pub(crate) fn quantify_b(mgr: &mut Bdd, r: Func, cube: Func) -> Func {
    if or_check_mutation_enabled() {
        mgr.forall(r, cube)
    } else {
        mgr.exists(r, cube)
    }
}

/// Theorem 2: is the ISF EXOR-bi-decomposable with the singleton sets
/// `X_A = {xa}`, `X_B = {xb}`?
///
/// Uses the Boolean derivative of the interval w.r.t. `xa`:
/// `Q_D = ∃xa Q · ∃xa R` (derivative must be 1), `R_D = ∀xa Q + ∀xa R`
/// (derivative must be 0). Decomposable iff `Q_D · ∃xb R_D = 0`, i.e.
/// iff `xb` is inessential in `[Q_D, ¬R_D]`, which one
/// [`Bdd::essential_vars`] query decides.
pub fn exor_decomposable_pair(mgr: &mut Bdd, isf: &Isf, xa: VarId, xb: VarId) -> bool {
    let care = isf.care(mgr);
    let blocked = theorem2_blocked(mgr, isf, care, xa, &VarSet::singleton(xb));
    theorem2(&blocked, xb)
}

/// Theorem 2 for every partner of `xa` at once: the variables `y` of
/// `within` for which the ISF is *not* EXOR-bi-decomposable with
/// `({xa}, {y})`. `care` is the ISF's care set `Q + R`.
///
/// With the derivative `(Q_D, R_D)` of `xa` ([`care_derivative`]), the pair
/// is decomposable iff `Q_D · ∃y R_D = 0`. Since `Q_D · R_D = 0`, that holds
/// iff `∃y Q_D · ∃y R_D = 0`, i.e. iff `y` is inessential in `[Q_D, ¬R_D]`
/// — so one [`Bdd::essential_vars`] query answers all of `within`. The
/// condition is exact, so it is symmetric in `xa` and `y`.
pub(crate) fn theorem2_blocked(
    mgr: &mut Bdd,
    isf: &Isf,
    care: Func,
    xa: VarId,
    within: &VarSet,
) -> VarSet {
    let (qd, rd) = care_derivative(mgr, isf, care, xa);
    mgr.essential_vars(qd, rd, within)
}

/// Theorem 2 for the pair `(xa, y)`, read from the blocked set of `xa`
/// ([`theorem2_blocked`], with `y` in its `within`).
pub(crate) fn theorem2(blocked: &VarSet, y: VarId) -> bool {
    note_check();
    !blocked.contains(y)
}

/// The on-set and off-set of the Boolean derivative of the ISF w.r.t. `v`.
///
/// `Q_D` marks the points (of the space without `v`) where every
/// compatible completion must change value when `v` flips; `R_D` where it
/// must not.
pub fn derivative(mgr: &mut Bdd, isf: &Isf, v: VarId) -> (Func, Func) {
    let cube = mgr.cube(&VarSet::singleton(v));
    let eq = mgr.exists(isf.q, cube);
    let er = mgr.exists(isf.r, cube);
    let qd = mgr.and(eq, er);
    let aq = mgr.forall(isf.q, cube);
    let ar = mgr.forall(isf.r, cube);
    let rd = mgr.or(aq, ar);
    (qd, rd)
}

/// [`derivative`] from the care set `care = Q + R`, with one `∀` instead
/// of two: `R_D = ∀v(Q + R) · ¬Q_D`. Both `v`-cofactors are cared for and
/// they do not disagree, so (as `Q · R = 0`) both lie in `Q` or both in
/// `R`, which is `∀v Q + ∀v R`. Same handles as [`derivative`].
pub(crate) fn care_derivative(mgr: &mut Bdd, isf: &Isf, care: Func, v: VarId) -> (Func, Func) {
    let cube = mgr.cube(&VarSet::singleton(v));
    let eq = mgr.exists(isf.q, cube);
    let er = mgr.exists(isf.r, cube);
    let qd = mgr.and(eq, er);
    let cared = mgr.forall(care, cube);
    let rd = mgr.diff(cared, qd);
    (qd, rd)
}

/// Is a *weak* OR-bi-decomposition with dedicated set `X_A` useful — does
/// it strictly increase the don't-cares of component A?
///
/// Condition (Table 1): `Q · ∃X_A R ≠ Q`, i.e. `Q ≰ ∃X_A R`.
pub fn weak_or_useful(mgr: &mut Bdd, isf: &Isf, xa: &VarSet) -> bool {
    note_check();
    let ca = mgr.cube(xa);
    let er = mgr.exists(isf.r, ca);
    !mgr.implies(isf.q, er)
}

/// Dual: is a weak AND-bi-decomposition with dedicated set `X_A` useful?
pub fn weak_and_useful(mgr: &mut Bdd, isf: &Isf, xa: &VarSet) -> bool {
    weak_or_useful(mgr, &isf.complement(), xa)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig3_isf(mgr: &mut Bdd) -> Isf {
        // F = OR(a·b, c·d) with a,b,c,d = vars 0..3.
        let a = mgr.var(0);
        let b = mgr.var(1);
        let c = mgr.var(2);
        let d = mgr.var(3);
        let ab = mgr.and(a, b);
        let cd = mgr.and(c, d);
        let f = mgr.or(ab, cd);
        Isf::from_csf(mgr, f)
    }

    #[test]
    fn fig3_or_decomposability() {
        let mut mgr = Bdd::new(4);
        let isf = fig3_isf(&mut mgr);
        let xa = VarSet::from_iter([2u32, 3]);
        let xb = VarSet::from_iter([0u32, 1]);
        assert!(or_decomposable(&mut mgr, &isf, &xa, &xb));
        assert!(!and_decomposable(&mut mgr, &isf, &xa, &xb));
        // Mixed groups are not OR-decomposable.
        let xa_bad = VarSet::from_iter([0u32, 2]);
        let xb_bad = VarSet::from_iter([1u32, 3]);
        assert!(!or_decomposable(&mut mgr, &isf, &xa_bad, &xb_bad));
    }

    #[test]
    fn theorem_checks_on_another_thread_leave_this_threads_count_alone() {
        let before = theorem_checks();
        let counted_there = std::thread::spawn(|| {
            let pla: pla::Pla = ".i 4\n.o 1\n11-- 1\n--11 1\n.e\n".parse().expect("valid");
            let outcome = crate::decompose_pla(&pla, &crate::Options::default());
            assert!(outcome.verified);
            theorem_checks()
        })
        .join()
        .expect("decomposition thread");
        assert!(counted_there > 0, "the spawned decomposition ran theorem checks");
        assert_eq!(theorem_checks(), before, "another thread's checks moved this count");
    }

    #[test]
    fn parity_is_exor_decomposable_only() {
        let mut mgr = Bdd::new(4);
        let vars: Vec<Func> = (0..4).map(|i| mgr.var(i)).collect();
        let f = vars.iter().skip(1).fold(vars[0], |acc, &v| mgr.xor(acc, v));
        let isf = Isf::from_csf(&mut mgr, f);
        assert!(exor_decomposable_pair(&mut mgr, &isf, 0, 1));
        assert!(exor_decomposable_pair(&mut mgr, &isf, 2, 3));
        let xa = VarSet::singleton(0);
        let xb = VarSet::singleton(1);
        assert!(!or_decomposable(&mut mgr, &isf, &xa, &xb));
        assert!(!and_decomposable(&mut mgr, &isf, &xa, &xb));
    }

    #[test]
    fn majority_has_no_strong_pairwise_decomposition() {
        let mut mgr = Bdd::new(3);
        let a = mgr.var(0);
        let b = mgr.var(1);
        let c = mgr.var(2);
        let ab = mgr.and(a, b);
        let ac = mgr.and(a, c);
        let bc = mgr.and(b, c);
        let t = mgr.or(ab, ac);
        let maj = mgr.or(t, bc);
        let isf = Isf::from_csf(&mut mgr, maj);
        for xa in 0..3u32 {
            for xb in 0..3u32 {
                if xa == xb {
                    continue;
                }
                let sa = VarSet::singleton(xa);
                let sb = VarSet::singleton(xb);
                assert!(!or_decomposable(&mut mgr, &isf, &sa, &sb));
                assert!(!and_decomposable(&mut mgr, &isf, &sa, &sb));
                assert!(!exor_decomposable_pair(&mut mgr, &isf, xa, xb));
            }
        }
    }

    #[test]
    fn derivative_of_xor_is_constant_one() {
        let mut mgr = Bdd::new(2);
        let a = mgr.var(0);
        let b = mgr.var(1);
        let f = mgr.xor(a, b);
        let isf = Isf::from_csf(&mut mgr, f);
        let (qd, rd) = derivative(&mut mgr, &isf, 0);
        assert!(qd.is_one(), "xor always toggles");
        assert!(rd.is_zero());
    }

    #[test]
    fn derivative_of_and_depends_on_other_input() {
        let mut mgr = Bdd::new(2);
        let a = mgr.var(0);
        let b = mgr.var(1);
        let f = mgr.and(a, b);
        let isf = Isf::from_csf(&mut mgr, f);
        let (qd, rd) = derivative(&mut mgr, &isf, 0);
        assert_eq!(qd, b, "a·b toggles with a exactly when b=1");
        let nb = mgr.not(b);
        assert_eq!(rd, nb);
    }

    #[test]
    fn care_set_derivative_is_the_derivative() {
        use boolfn::TruthTable;
        let n = 6;
        for seed in 0..40u64 {
            let f = TruthTable::random(n, 0.5, seed);
            // Completely specified, all don't-care, and densities between.
            let care = match seed % 4 {
                0 => TruthTable::ones(n),
                1 => TruthTable::zeros(n),
                _ => TruthTable::random(n, 0.2 + 0.2 * (seed % 4) as f64, seed ^ 0xca4e),
            };
            let mut mgr = Bdd::new(n);
            let q = f.and(&care).to_bdd(&mut mgr);
            let r = f.complement().and(&care).to_bdd(&mut mgr);
            let isf = Isf::new(&mut mgr, q, r);
            let care = isf.care(&mut mgr);
            match seed % 4 {
                0 => assert!(care.is_one(), "seed {seed}: completely specified"),
                1 => assert!(care.is_zero(), "seed {seed}: all don't-care"),
                _ => {}
            }
            for v in 0..n as VarId {
                let want = derivative(&mut mgr, &isf, v);
                assert_eq!(care_derivative(&mut mgr, &isf, care, v), want, "seed {seed} var {v}");
            }
        }
    }

    #[test]
    fn blocked_sets_match_the_exists_disjoint_pair_formula() {
        use boolfn::TruthTable;
        let n = 6;
        let (mut passing, mut failing) = (0, 0);
        for seed in 0..40u64 {
            let f = TruthTable::random(n, 0.5, seed);
            let f = match seed % 3 {
                // An EXOR of halves makes passing pairs common.
                0 => f.exists(0b111000).xor(&TruthTable::random(n, 0.5, !seed).exists(0b000111)),
                _ => f,
            };
            let care = TruthTable::random(n, 0.3 + 0.15 * (seed % 5) as f64, seed ^ 0xca4e);
            let mut mgr = Bdd::new(n);
            let q = f.and(&care).to_bdd(&mut mgr);
            let r = f.complement().and(&care).to_bdd(&mut mgr);
            let isf = Isf::new(&mut mgr, q, r);
            let support = isf.support(&mgr);
            let care = isf.care(&mut mgr);
            for x in support.iter() {
                let (qd, rd) = derivative(&mut mgr, &isf, x);
                assert!(mgr.disjoint(qd, rd), "seed {seed}: Q_D · R_D = 0");
                let mut others = support;
                others.remove(x);
                let blocked = theorem2_blocked(&mut mgr, &isf, care, x, &others);
                for y in others.iter() {
                    // The pair test `Q_D · ∃y R_D = 0`, built in full.
                    let cube = mgr.cube(&VarSet::singleton(y));
                    let erd = mgr.exists(rd, cube);
                    let want = mgr.disjoint(qd, erd);
                    assert_eq!(theorem2(&blocked, y), want, "seed {seed} pair ({x}, {y})");
                    assert_eq!(exor_decomposable_pair(&mut mgr, &isf, x, y), want);
                    if want {
                        passing += 1;
                    } else {
                        failing += 1;
                    }
                }
            }
        }
        assert!(passing >= 50 && failing >= 50, "{passing} passing, {failing} failing pairs");
    }

    #[test]
    fn weak_usefulness_conditions() {
        let mut mgr = Bdd::new(3);
        let a = mgr.var(0);
        let b = mgr.var(1);
        let c = mgr.var(2);
        let ab = mgr.and(a, b);
        let f = mgr.or(ab, c);
        let isf = Isf::from_csf(&mut mgr, f);
        // Quantifying X_A = {c}: rows with c=1 are pure on-set rows.
        assert!(weak_or_useful(&mut mgr, &isf, &VarSet::singleton(2)));
        // For parity nothing is useful.
        let p = {
            let t = mgr.xor(a, b);
            mgr.xor(t, c)
        };
        let pisf = Isf::from_csf(&mut mgr, p);
        for v in 0..3 {
            assert!(!weak_or_useful(&mut mgr, &pisf, &VarSet::singleton(v)));
            assert!(!weak_and_useful(&mut mgr, &pisf, &VarSet::singleton(v)));
        }
    }

    #[test]
    fn checks_agree_with_truth_table_oracle() {
        // Randomized cross-check of Theorems 1 and 2 against the
        // enumeration oracles from `boolfn`.
        use boolfn::{oracle, TruthTable};
        for seed in 0..30u64 {
            let n = 5;
            let f = TruthTable::random(n, 0.5, seed);
            let care = TruthTable::random(n, 0.75, seed ^ 0xdead);
            let qt = f.and(&care);
            let rt = f.complement().and(&care);
            let mut mgr = Bdd::new(n);
            let q = qt.to_bdd(&mut mgr);
            let r = rt.to_bdd(&mut mgr);
            let isf = Isf::new(&mut mgr, q, r);
            for (xa_mask, xb_mask) in
                [(0b00011u32, 0b11100u32), (0b00101, 0b01010), (0b00001, 0b00010)]
            {
                let xa: VarSet = (0..n as u32).filter(|v| xa_mask & (1 << v) != 0).collect();
                let xb: VarSet = (0..n as u32).filter(|v| xb_mask & (1 << v) != 0).collect();
                assert_eq!(
                    or_decomposable(&mut mgr, &isf, &xa, &xb),
                    oracle::or_bidecomposable(&qt, &rt, xa_mask, xb_mask),
                    "OR seed {seed} sets {xa_mask:b}/{xb_mask:b}"
                );
                assert_eq!(
                    and_decomposable(&mut mgr, &isf, &xa, &xb),
                    oracle::and_bidecomposable(&qt, &rt, xa_mask, xb_mask),
                    "AND seed {seed} sets {xa_mask:b}/{xb_mask:b}"
                );
            }
            assert_eq!(
                exor_decomposable_pair(&mut mgr, &isf, 0, 1),
                oracle::exor_bidecomposable(&qt, &rt, 0b1, 0b10),
                "EXOR seed {seed}"
            );
        }
    }
}
