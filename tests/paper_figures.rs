//! Reproductions of the paper's worked figures and in-text examples.

use bdd::{Bdd, VarSet};
use bidecomp::{check, derive, exor, grouping, GateChoice, Isf};

/// Fig. 3 (left): the completely specified 4-variable function whose
/// Karnaugh map the paper shows, `F = OR(a·b, c·d)`.
fn fig3_left(mgr: &mut Bdd) -> Isf {
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
fn fig3_left_or_bidecomposition() {
    // "This function is bi-decomposable using OR-gate with X_A = {c,d}
    // and X_B = {a,b}. The result of bi-decomposition is F = OR(a·b, c·d)."
    let mut mgr = Bdd::new(4);
    let isf = fig3_left(&mut mgr);
    let xa = VarSet::from_iter([2u32, 3]);
    let xb = VarSet::from_iter([0u32, 1]);
    assert!(check::or_decomposable(&mut mgr, &isf, &xa, &xb));
    let comp_a = derive::or_component_a(&mut mgr, &isf, &xa, &xb);
    let c = mgr.var(2);
    let d = mgr.var(3);
    let cd = mgr.and(c, d);
    assert!(comp_a.contains(&mut mgr, cd), "component A is c·d");
    let comp_b = derive::or_component_b(&mut mgr, &isf, cd, &xa);
    let a = mgr.var(0);
    let b = mgr.var(1);
    let ab = mgr.and(a, b);
    assert!(comp_b.contains(&mut mgr, ab), "component B is a·b");
}

#[test]
fn fig3_right_isf_is_or_bidecomposable_with_same_formula() {
    // "The requirement does not change for functions with don't-cares, as
    // witnessed by an ISF in Fig. 3 (right), which is OR-bi-decomposable
    // using the same formula."
    let mut mgr = Bdd::new(4);
    let csf = fig3_left(&mut mgr);
    // Punch don't-care holes into both sets.
    let a = mgr.var(0);
    let b = mgr.var(1);
    let c = mgr.var(2);
    let d = mgr.var(3);
    let hole1 = {
        // minterm a·b·¬c·¬d out of the on-set
        let nc = mgr.not(c);
        let nd = mgr.not(d);
        let t = mgr.and(a, b);
        let u = mgr.and(nc, nd);
        mgr.and(t, u)
    };
    let hole2 = {
        // minterm ¬a·b·c·¬d out of the off-set
        let na = mgr.not(a);
        let nd = mgr.not(d);
        let t = mgr.and(na, b);
        let u = mgr.and(c, nd);
        mgr.and(t, u)
    };
    let q = mgr.diff(csf.q, hole1);
    let r = mgr.diff(csf.r, hole2);
    let isf = Isf::new(&mut mgr, q, r);
    let xa = VarSet::from_iter([2u32, 3]);
    let xb = VarSet::from_iter([0u32, 1]);
    assert!(check::or_decomposable(&mut mgr, &isf, &xa, &xb));
    // The same completion F = OR(a·b, c·d) is still compatible.
    let ab = mgr.and(a, b);
    let cd = mgr.and(c, d);
    let f = mgr.or(ab, cd);
    assert!(isf.contains(&mut mgr, f));
}

#[test]
fn or_property_cell_with_zero_in_row_and_column() {
    // The Property of §3.1: F is NOT OR-bi-decomposable iff some on-set
    // cell has off-set cells in both its row and its column. Construct
    // exactly that situation and check the Theorem 1 formula agrees.
    let mut mgr = Bdd::new(4);
    // Rows = (a, b), columns = (c, d). Put a 1 at the origin and 0s in its
    // row and column.
    let a = mgr.var(0);
    let b = mgr.var(1);
    let c = mgr.var(2);
    let d = mgr.var(3);
    let na = mgr.not(a);
    let nb = mgr.not(b);
    let nc = mgr.not(c);
    let nd = mgr.not(d);
    let origin = [na, nb, nc, nd].iter().fold(bdd::Func::ONE, |acc, &l| mgr.and(acc, l));
    // Same row (same a,b), different column: a 0 cell.
    let row_zero = {
        let t = mgr.and(na, nb);
        let u = mgr.and(c, d);
        mgr.and(t, u)
    };
    // Same column, different row: another 0 cell.
    let col_zero = {
        let t = mgr.and(a, b);
        let u = mgr.and(nc, nd);
        mgr.and(t, u)
    };
    let q = origin;
    let r = mgr.or(row_zero, col_zero);
    let isf = Isf::new(&mut mgr, q, r);
    let xa = VarSet::from_iter([0u32, 1]);
    let xb = VarSet::from_iter([2u32, 3]);
    assert!(
        !check::or_decomposable(&mut mgr, &isf, &xa, &xb),
        "a 1-cell with 0s in both row and column blocks OR-decomposition"
    );
    // Removing either zero restores decomposability.
    let isf_row_only = Isf::new(&mut mgr, q, row_zero);
    assert!(check::or_decomposable(&mut mgr, &isf_row_only, &xa, &xb));
    let isf_col_only = Isf::new(&mut mgr, q, col_zero);
    assert!(check::or_decomposable(&mut mgr, &isf_col_only, &xa, &xb));
}

#[test]
fn fig1_weak_decomposition_increases_dont_cares() {
    // §2: "The advantage, however, consists in increasing the number of
    // don't-cares of component A." Weak decomposition of a 5-input
    // function that is not strongly decomposable.
    let mut mgr = Bdd::new(5);
    // maj(a,b,c) + d·e is strongly decomposable; use a majority-of-5-ish
    // blocker instead: the 5-input majority.
    let minterms = (0..32u32).filter(|m| m.count_ones() >= 3);
    let f = mgr.cover_function(minterms.map(|m| (0..5).map(move |v| (v, m & (1 << v) != 0))));
    let isf = Isf::from_csf(&mut mgr, f);
    let support = isf.support(&mgr);
    assert_eq!(support.len(), 5);
    // No strong grouping exists for majority.
    for gate in [GateChoice::Or, GateChoice::And, GateChoice::Exor] {
        assert!(grouping::find_initial_grouping(&mut mgr, &isf, &support, gate).is_none());
    }
    // But a weak grouping does, and it strictly grows the don't-care set.
    let (gate, xa) = grouping::group_variables_weak(&mut mgr, &isf, &support).expect("weak exists");
    let comp_a = match gate {
        GateChoice::Or => derive::weak_or_component_a(&mut mgr, &isf, &xa),
        _ => derive::weak_and_component_a(&mut mgr, &isf, &xa),
    };
    let dc_before = isf.dont_care(&mut mgr);
    let dc_after = comp_a.dont_care(&mut mgr);
    assert!(dc_before.is_zero());
    assert!(!dc_after.is_zero(), "weak decomposition must add don't-cares");
    assert_eq!(
        comp_a.support(&mgr).len(),
        5,
        "weak component A may still see all five inputs (Fig. 1 right)"
    );
}

#[test]
fn fig4_exor_check_derives_components() {
    // CheckExorBiDecomp on a function with common variables:
    // F = (a·c) ⊕ (b + c) with X_A = {a}, X_B = {b}, X_C = {c}.
    let mut mgr = Bdd::new(3);
    let a = mgr.var(0);
    let b = mgr.var(1);
    let c = mgr.var(2);
    let ac = mgr.and(a, c);
    let borc = mgr.or(b, c);
    let f = mgr.xor(ac, borc);
    let isf = Isf::from_csf(&mut mgr, f);
    let xa = VarSet::singleton(0);
    let xb = VarSet::singleton(1);
    let comps =
        exor::check_exor_bidecomp(&mut mgr, &isf, &xa, &xb).expect("decomposable by construction");
    // Components must avoid the other side's dedicated variable.
    assert!(!mgr.support(comps.a.q).contains(1));
    assert!(!mgr.support(comps.b.q).contains(0));
    // Minimal completions recompose into the interval.
    let g = mgr.xor(comps.a.q, comps.b.q);
    assert!(isf.contains(&mut mgr, g));
}

#[test]
fn theorem5_claim_on_fig3() {
    // The Fig. 3 netlist produced by the full algorithm is 100% testable.
    let pla: pla::Pla = ".i 4\n.o 1\n11-- 1\n--11 1\n.e\n".parse().expect("valid");
    let outcome = bidecomp::decompose_pla(&pla, &bidecomp::Options::default());
    assert!(outcome.verified);
    let report = atpg::generate_tests(&outcome.netlist);
    assert_eq!(report.redundant, 0);
    assert_eq!(report.coverage(), 1.0);
}
