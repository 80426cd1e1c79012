//! The bounded `FindBestVariableGrouping` against the unbounded one, with
//! exact theorem-check counts.
//!
//! The check counter is per thread and each test runs on a thread of its
//! own, so a test's deltas count only its own checks, even while the
//! other tests of this file run in parallel.

use bdd::{Bdd, VarSet};
use bidecomp::check::theorem_checks;
use bidecomp::grouping::{best_grouping, find_best_grouping, group_variables};
use bidecomp::{GateChoice, Isf};
use boolfn::TruthTable;

/// The ISF `[f·care, ¬(¬f·care)]` with `f = left ∘ right`: the gate `∘`
/// picked by `seed`, `left` independent of the variables in `left_free`
/// and `right` of the others; `seed % 4 == 3` is unstructured.
fn halves_isf(mgr: &mut Bdd, n: usize, left_free: u32, seed: u64) -> Isf {
    let left = TruthTable::random(n, 0.5, seed).exists(left_free);
    let right = TruthTable::random(n, 0.5, seed ^ 0x5eed).exists(!left_free & ((1 << n) - 1));
    let f = match seed % 4 {
        0 => left.or(&right),
        1 => left.and(&right),
        2 => left.xor(&right),
        _ => TruthTable::random(n, 0.5, seed ^ 0xf),
    };
    let care = TruthTable::random(n, 0.5 + 0.1 * (seed % 5) as f64, seed ^ 0xca4e);
    let q = f.and(&care).to_bdd(mgr);
    let r = f.complement().and(&care).to_bdd(mgr);
    Isf::new(mgr, q, r)
}

#[test]
fn bounded_search_picks_the_unbounded_choice_with_fewer_checks() {
    let (mut pruned, mut saved, mut balance_wins) = (0, 0, 0);
    // The grouping module's incremental-search sweep (7 variables split
    // 3/4), then 5 variables split at every point, where a later gate
    // often ties the incumbent's total with a better balance.
    let sweep = (0..90u64).map(|seed| (7, 0b1110000, seed));
    let splits = (0..240u64).map(|seed| (5, 0b11110 << (seed / 4 % 4) & 0b11111, seed));
    for (n, left_free, seed) in sweep.chain(splits) {
        let mut mgr = Bdd::new(n);
        let isf = halves_isf(&mut mgr, n, left_free, seed);
        let support = isf.support(&mgr);

        let before = theorem_checks();
        let unbounded = [GateChoice::Or, GateChoice::And, GateChoice::Exor]
            .map(|gate| (gate, group_variables(&mut mgr, &isf, &support, gate)));
        let unbounded_checks = theorem_checks() - before;
        let before = theorem_checks();
        let got = best_grouping(&mut mgr, &isf, &support, true);
        let bounded_checks = theorem_checks() - before;

        let want = find_best_grouping(unbounded);
        assert_eq!(got, want, "n {n} seed {seed}");
        assert!(
            bounded_checks <= unbounded_checks,
            "n {n} seed {seed}: {bounded_checks} checks bounded, {unbounded_checks} unbounded"
        );
        if bounded_checks < unbounded_checks {
            pruned += 1;
            saved += unbounded_checks - bounded_checks;
        }
        // A later gate won on balance alone: the bound must not stop a
        // search that can still tie the total with a smaller imbalance.
        if let Some((gate, g)) = want {
            let mut earlier = unbounded.iter().take_while(|(other, _)| *other != gate);
            balance_wins +=
                usize::from(earlier.any(|(_, e)| e.is_some_and(|e| e.total() == g.total())));
        }
    }
    assert!(pruned >= 40, "the bound pruned only {pruned} of 330 cases ({saved} checks)");
    assert!(balance_wins >= 10, "only {balance_wins} choices won on balance");
}

#[test]
fn the_pair_scans_stop_at_the_first_row_that_cannot_win() {
    // f = maj(x0, x1, x4) + maj(x2, x3, x4): OR splits {x0, x1} / {x2, x3}
    // around the shared x4, a balanced 4 of the 5 variables. x0 has no AND
    // or EXOR partner, so after row 0 the AND and EXOR scans have at most 4
    // variables left, and 4 balanced variables cannot beat OR's grouping.
    let n = 5;
    let x = |v| TruthTable::var(n, v);
    let maj = |a: usize, b: usize, c: usize| {
        let (a, b, c) = (x(a), x(b), x(c));
        a.and(&b).or(&a.and(&c)).or(&b.and(&c))
    };
    let f = maj(0, 1, 4).or(&maj(2, 3, 4));
    let mut mgr = Bdd::new(n);
    let q = f.to_bdd(&mut mgr);
    let r = f.complement().to_bdd(&mut mgr);
    let isf = Isf::new(&mut mgr, q, r);
    let support = isf.support(&mgr);

    let before = theorem_checks();
    let or = group_variables(&mut mgr, &isf, &support, GateChoice::Or);
    let or_checks = theorem_checks() - before;
    let or = or.expect("OR-decomposable");
    assert_eq!((or.xa, or.xb), (VarSet::from_iter([0u32, 1]), VarSet::from_iter([2u32, 3])));
    let before = theorem_checks();
    let unbounded = [GateChoice::Or, GateChoice::And, GateChoice::Exor]
        .map(|gate| (gate, group_variables(&mut mgr, &isf, &support, gate)));
    let unbounded_checks = theorem_checks() - before;
    assert!(unbounded[1].1.is_none() && unbounded[2].1.is_none(), "{unbounded:?}");

    let before = theorem_checks();
    let got = best_grouping(&mut mgr, &isf, &support, true);
    let bounded_checks = theorem_checks() - before;
    assert_eq!(got, find_best_grouping(unbounded));
    assert!(bounded_checks < unbounded_checks, "{bounded_checks} of {unbounded_checks} checks");
    // The AND and EXOR scans each test row 0's four pairs, then stop.
    assert_eq!(bounded_checks, or_checks + 2 * 4);
}
