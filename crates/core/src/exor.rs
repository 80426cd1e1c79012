//! EXOR bi-decomposition with arbitrary variable sets — Fig. 4 of the
//! paper (`CheckExorBiDecomp`).
//!
//! The procedure simultaneously *checks* decomposability and *derives* the
//! component ISFs: starting from a seed cube of the on-set it alternately
//! propagates forced values between the A-side (functions over
//! `X_A ∪ X_C`) and the B-side (functions over `X_B ∪ X_C`), subtracting
//! decided constraint minterms from the working on/off-sets. A conflict
//! (`q ∧ r ≠ 0` on either side) proves non-decomposability; exhaustion of
//! the on-set yields the component intervals.
//!
//! Derivation ([`check_exor_bidecomp`]) seeds one connected component per
//! round, as the paper does. The grouping search only needs the verdict
//! ([`exor_decomposable`]), so it seeds every `X_C` class per round and
//! finishes in a handful of rounds instead of one round per component.

use bdd::{Bdd, Func, VarSet};

use crate::Isf;

/// Result of a successful EXOR decomposition: the component ISFs.
#[derive(Clone, Copy, Debug)]
pub struct ExorComponents {
    /// Component A, a function of `X_A ∪ X_C`.
    pub a: Isf,
    /// Component B, a function of `X_B ∪ X_C`.
    pub b: Isf,
}

/// How each round of the Fig. 4 propagation picks its starting decisions.
#[derive(Clone, Copy)]
enum Seed {
    /// The paper's rule: force `A = 1` on the `X_B`-projection of one
    /// on-set cube, one connected component per round. Derivation uses it,
    /// so the component ISFs are the paper's.
    Cube,
    /// Force `A = 1` on one `X_A`-point of every `X_C` class at once.
    /// Propagation quantifies only `X_A` or `X_B`, so classes never
    /// interact, and one seed per class cannot create a false conflict.
    /// Flipping a whole component keeps it conflict-free, so the verdict
    /// is the same as with [`Seed::Cube`]; only the components differ.
    PerClass,
}

/// Which component a step of [`propagate`] decided values of.
enum Side {
    A,
    B,
}

/// The paper's `CheckExorBiDecomp` (Fig. 4): checks EXOR-decomposability
/// of the ISF with arbitrary disjoint sets `(X_A, X_B)` and, on success,
/// returns the component ISFs.
///
/// Returns `None` if no decomposition with these sets exists.
///
/// # Panics
///
/// Panics (in debug builds) if `X_A` and `X_B` overlap.
pub fn check_exor_bidecomp(
    mgr: &mut Bdd,
    isf: &Isf,
    xa: &VarSet,
    xb: &VarSet,
) -> Option<ExorComponents> {
    let (ca, cb) = cubes(mgr, xa, xb);
    // Accumulated component sets.
    let (mut qa_all, mut ra_all) = (Func::ZERO, Func::ZERO);
    let (mut qb_all, mut rb_all) = (Func::ZERO, Func::ZERO);
    let r = propagate(mgr, isf, ca, cb, Seed::Cube, |mgr, side, q, r| match side {
        Side::A => {
            qa_all = mgr.or(qa_all, q);
            ra_all = mgr.or(ra_all, r);
        }
        Side::B => {
            qb_all = mgr.or(qb_all, q);
            rb_all = mgr.or(rb_all, r);
        }
    })?;
    // Leftover off-set components never touched a constraint with the
    // on-set: force both components to 0 there (0 ⊕ 0 = 0).
    if !r.is_zero() {
        let pa = mgr.exists(r, cb);
        ra_all = mgr.or(ra_all, pa);
        let pb = mgr.exists(r, ca);
        rb_all = mgr.or(rb_all, pb);
    }
    // Every round removed its decided regions from `q` and `r`, so no
    // later round, nor the leftover, can decide them again.
    debug_assert!(
        mgr.disjoint(qa_all, ra_all) && mgr.disjoint(qb_all, rb_all),
        "decided component values never conflict"
    );
    Some(ExorComponents {
        a: Isf::new_unchecked(qa_all, ra_all),
        b: Isf::new_unchecked(qb_all, rb_all),
    })
}

/// Does an EXOR decomposition with these sets exist?
///
/// Same verdict as [`check_exor_bidecomp`], reached in fewer rounds: each
/// round seeds every `X_C` class at once, and no component is built.
pub fn exor_decomposable(mgr: &mut Bdd, isf: &Isf, xa: &VarSet, xb: &VarSet) -> bool {
    let (ca, cb) = cubes(mgr, xa, xb);
    propagate(mgr, isf, ca, cb, Seed::PerClass, |_, _, _, _| {}).is_some()
}

/// The cubes of `X_A` and `X_B`, the quantifiers of the propagation.
fn cubes(mgr: &mut Bdd, xa: &VarSet, xb: &VarSet) -> (Func, Func) {
    debug_assert!(xa.is_disjoint(xb), "X_A and X_B must be disjoint");
    (mgr.cube(xa), mgr.cube(xb))
}

/// The Fig. 4 propagation loop over the cubes `ca` of `X_A` and `cb` of
/// `X_B`, parameterised by its seeding rule.
///
/// Hands each step's decided on- and off-set of component A or B (a
/// function of `X_A ∪ X_C` or `X_B ∪ X_C`) to `decided`. Returns the
/// off-set no step decided, or `None` on a conflict.
fn propagate(
    mgr: &mut Bdd,
    isf: &Isf,
    ca: Func,
    cb: Func,
    seed: Seed,
    mut decided: impl FnMut(&mut Bdd, Side, Func, Func),
) -> Option<Func> {
    // Working constraint sets (minterms of the full space not yet decided).
    let mut q = isf.q;
    let mut r = isf.r;

    while !q.is_zero() {
        // Seed new connected components with A = 1 (any polarity works
        // within a component; 1 is the paper's choice).
        let mut q_a = match seed {
            Seed::Cube => {
                let cube = mgr.pick_cube(q).expect("q is non-zero");
                mgr.exists(cube, cb)
            }
            Seed::PerClass => {
                let qa_space = mgr.exists(q, cb);
                mgr.pick_per_class(qa_space, ca)
            }
        };
        let mut r_a = Func::ZERO;
        while !q_a.is_zero() || !r_a.is_zero() {
            // Propagate A-side decisions to the B side. Where A = 1,
            // B = ¬F; where A = 0, B = F. The quantifier distributes over
            // the disjunction, so each term uses the fused and-exists.
            let t1 = mgr.and_exists(q, r_a, ca);
            let t2 = mgr.and_exists(r, q_a, ca);
            let q_b = mgr.or(t1, t2);
            let t3 = mgr.and_exists(q, q_a, ca);
            let t4 = mgr.and_exists(r, r_a, ca);
            let r_b = mgr.or(t3, t4);
            if !mgr.disjoint(q_b, r_b) {
                return None;
            }
            // The constraints inside decided A-regions are now satisfied.
            let decided_a = mgr.or(q_a, r_a);
            q = mgr.diff(q, decided_a);
            r = mgr.diff(r, decided_a);
            decided(mgr, Side::A, q_a, r_a);
            // Propagate the fresh B-side decisions back to the A side.
            let t1 = mgr.and_exists(q, r_b, cb);
            let t2 = mgr.and_exists(r, q_b, cb);
            q_a = mgr.or(t1, t2);
            let t3 = mgr.and_exists(q, q_b, cb);
            let t4 = mgr.and_exists(r, r_b, cb);
            r_a = mgr.or(t3, t4);
            if !mgr.disjoint(q_a, r_a) {
                return None;
            }
            let decided_b = mgr.or(q_b, r_b);
            q = mgr.diff(q, decided_b);
            r = mgr.diff(r, decided_b);
            decided(mgr, Side::B, q_b, r_b);
        }
    }
    Some(r)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parity_isf(mgr: &mut Bdd, n: u32) -> Isf {
        let mut f = Func::ZERO;
        for v in 0..n {
            let x = mgr.var(v);
            f = mgr.xor(f, x);
        }
        Isf::from_csf(mgr, f)
    }

    /// Validates a returned decomposition end to end: supports are right,
    /// intervals are consistent, and minimal completions XOR back into the
    /// original interval.
    fn assert_valid(mgr: &mut Bdd, isf: &Isf, xa: &VarSet, xb: &VarSet, comps: &ExorComponents) {
        assert!(mgr.disjoint(comps.a.q, comps.a.r));
        assert!(mgr.disjoint(comps.b.q, comps.b.r));
        assert!(mgr.support(comps.a.q).union(&mgr.support(comps.a.r)).is_disjoint(xb));
        assert!(mgr.support(comps.b.q).union(&mgr.support(comps.b.r)).is_disjoint(xa));
        // Any compatible completions must recompose. Try the minimal and
        // the maximal ones in all four combinations.
        let a_choices = [comps.a.q, {
            let dc = comps.a.dont_care(mgr);
            mgr.or(comps.a.q, dc)
        }];
        let b_choices = [comps.b.q, {
            let dc = comps.b.dont_care(mgr);
            mgr.or(comps.b.q, dc)
        }];
        for fa in a_choices {
            for fb in b_choices {
                let f = mgr.xor(fa, fb);
                assert!(isf.contains(mgr, f), "recomposition must fit the interval");
            }
        }
    }

    #[test]
    fn parity_decomposes_with_any_split() {
        let mut mgr = Bdd::new(6);
        let isf = parity_isf(&mut mgr, 6);
        let xa = VarSet::from_iter([0u32, 1, 2]);
        let xb = VarSet::from_iter([3u32, 4, 5]);
        let comps = check_exor_bidecomp(&mut mgr, &isf, &xa, &xb).expect("parity splits");
        assert_valid(&mut mgr, &isf, &xa, &xb, &comps);
        // With common variables too.
        let xa = VarSet::from_iter([0u32, 1]);
        let xb = VarSet::from_iter([4u32, 5]);
        let comps = check_exor_bidecomp(&mut mgr, &isf, &xa, &xb).expect("parity splits");
        assert_valid(&mut mgr, &isf, &xa, &xb, &comps);
    }

    #[test]
    fn and_of_vars_is_not_exor_decomposable() {
        let mut mgr = Bdd::new(2);
        let a = mgr.var(0);
        let b = mgr.var(1);
        let f = mgr.and(a, b);
        let isf = Isf::from_csf(&mut mgr, f);
        assert!(!exor_decomposable(&mut mgr, &isf, &VarSet::singleton(0), &VarSet::singleton(1)));
    }

    #[test]
    fn mixed_function_with_common_variables() {
        // F = (a ⊕ b) ⊕ (c · d) with X_A = {a}, X_B = {b}, X_C = {c, d}.
        let mut mgr = Bdd::new(4);
        let a = mgr.var(0);
        let b = mgr.var(1);
        let c = mgr.var(2);
        let d = mgr.var(3);
        let ab = mgr.xor(a, b);
        let cd = mgr.and(c, d);
        let f = mgr.xor(ab, cd);
        let isf = Isf::from_csf(&mut mgr, f);
        let xa = VarSet::singleton(0);
        let xb = VarSet::singleton(1);
        let comps = check_exor_bidecomp(&mut mgr, &isf, &xa, &xb).expect("decomposable");
        assert_valid(&mut mgr, &isf, &xa, &xb, &comps);
    }

    #[test]
    fn matches_truth_table_oracle_on_random_isfs() {
        use boolfn::{oracle, TruthTable};
        let n = 5;
        let mut decomposable_seen = 0;
        for seed in 0..80u64 {
            // Generous don't-cares make decomposable instances common.
            let f = TruthTable::random(n, 0.5, seed);
            let care = TruthTable::random(n, 0.4, seed ^ 0xfeed);
            let qt = f.and(&care);
            let rt = f.complement().and(&care);
            let mut mgr = Bdd::new(n);
            let q = qt.to_bdd(&mut mgr);
            let r = rt.to_bdd(&mut mgr);
            let isf = Isf::new(&mut mgr, q, r);
            for (xam, xbm) in [(0b00011u32, 0b11100u32), (0b00001, 0b00010), (0b01001, 0b00110)] {
                let xa: VarSet = (0..n as u32).filter(|v| xam & (1 << v) != 0).collect();
                let xb: VarSet = (0..n as u32).filter(|v| xbm & (1 << v) != 0).collect();
                let got = check_exor_bidecomp(&mut mgr, &isf, &xa, &xb);
                let expected = oracle::exor_bidecomposable(&qt, &rt, xam, xbm);
                assert_eq!(got.is_some(), expected, "seed {seed} sets {xam:b}/{xbm:b}");
                if let Some(comps) = got {
                    decomposable_seen += 1;
                    assert_valid(&mut mgr, &isf, &xa, &xb, &comps);
                }
            }
        }
        assert!(decomposable_seen > 10, "sweep must exercise the success path");
    }

    #[test]
    fn per_class_seeding_agrees_with_derivation_and_oracle() {
        // Multi-variable X_A/X_B, with and without common variables, on
        // functions built to be EXOR-decomposable (so the success path with
        // several components per class is exercised) and on random ones.
        use boolfn::{oracle, TruthTable};
        let n = 6;
        let splits = [
            (0b000111u32, 0b111000u32),
            (0b000011, 0b001100),
            (0b100101, 0b010010),
            (0b001001, 0b110000),
            (0b000001, 0b000110),
        ];
        let (mut decomposable, mut not_decomposable) = (0, 0);
        for seed in 0..60u64 {
            let (xam, xbm) = splits[seed as usize % splits.len()];
            let xcm = !(xam | xbm) & 0b111111;
            let f = if seed % 2 == 0 {
                // A(X_A, X_C) ⊕ B(X_B, X_C) from random tables.
                let a = TruthTable::random(n, 0.5, seed).exists(xbm);
                let b = TruthTable::random(n, 0.5, seed ^ 0xb).exists(xam);
                a.xor(&b)
            } else {
                TruthTable::random(n, 0.5, seed)
            };
            let care = TruthTable::random(n, 0.3 + 0.1 * (seed % 6) as f64, seed ^ 0xca4e);
            let (qt, rt) = (f.and(&care), f.complement().and(&care));
            let mut mgr = Bdd::new(n);
            let q = qt.to_bdd(&mut mgr);
            let r = rt.to_bdd(&mut mgr);
            let isf = Isf::new(&mut mgr, q, r);
            let mask_set =
                |m: u32| -> VarSet { (0..n as u32).filter(|v| m & (1 << v) != 0).collect() };
            let (xa, xb) = (mask_set(xam), mask_set(xbm));
            let checked = exor_decomposable(&mut mgr, &isf, &xa, &xb);
            let derived = check_exor_bidecomp(&mut mgr, &isf, &xa, &xb);
            let expected = oracle::exor_bidecomposable(&qt, &rt, xam, xbm);
            let what = format!("seed {seed} sets {xam:b}/{xbm:b} (X_C {xcm:b})");
            assert_eq!(checked, expected, "per-class check, {what}");
            assert_eq!(derived.is_some(), expected, "derivation, {what}");
            if let Some(comps) = derived {
                assert_valid(&mut mgr, &isf, &xa, &xb, &comps);
                decomposable += 1;
            } else {
                not_decomposable += 1;
            }
        }
        assert!(decomposable >= 10 && not_decomposable >= 10, "{decomposable}/{not_decomposable}");
    }

    #[test]
    fn fully_unspecified_function_decomposes_trivially() {
        let mut mgr = Bdd::new(3);
        let isf = Isf::new(&mut mgr, Func::ZERO, Func::ZERO);
        let comps =
            check_exor_bidecomp(&mut mgr, &isf, &VarSet::singleton(0), &VarSet::singleton(1))
                .expect("everything is compatible");
        assert!(comps.a.q.is_zero() && comps.a.r.is_zero());
        assert!(comps.b.q.is_zero() && comps.b.r.is_zero());
    }
}
