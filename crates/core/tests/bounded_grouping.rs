//! The bounded `FindBestVariableGrouping` against the unbounded one, with
//! exact theorem-check counts.
//!
//! The check counter is process-global, so this file holds a single test:
//! no other test of the same process counts checks while it measures.

use bdd::Bdd;
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
