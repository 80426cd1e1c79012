//! The strong-grouping search (`grouping::best_grouping`: Figs. 5 and 6,
//! with the Fig. 7 choice among OR, AND and EXOR) against the
//! truth-table oracles of `boolfn`, on seeded ISFs of 4–6 inputs.
//!
//! Each case runs `Isf::remove_inessential` first, as the decomposer
//! does, and then checks the search three ways:
//!
//! * completeness: a grouping is returned iff some pair `({x}, {y})` of
//!   support variables is bi-decomposable for some gate. Pairs suffice
//!   because strong decomposability is monotone: shrinking either set
//!   keeps a decomposition.
//! * soundness: the returned grouping is decomposable for its gate.
//! * maximality: no support variable outside `X_A ∪ X_B` can join either
//!   side.

use bdd::{Bdd, VarSet};
use benchmarks::SplitMix64;
use bidecomp::grouping::best_grouping;
use bidecomp::{GateChoice, Isf};
use boolfn::oracle::{and_bidecomposable, exor_bidecomposable, or_bidecomposable};
use boolfn::TruthTable;

const GATES: [GateChoice; 3] = [GateChoice::Or, GateChoice::And, GateChoice::Exor];

fn decomposable(gate: GateChoice, q: &TruthTable, r: &TruthTable, xa: u32, xb: u32) -> bool {
    match gate {
        GateChoice::Or => or_bidecomposable(q, r, xa, xb),
        GateChoice::And => and_bidecomposable(q, r, xa, xb),
        GateChoice::Exor => exor_bidecomposable(q, r, xa, xb),
    }
}

fn mask(set: &VarSet) -> u32 {
    set.iter().fold(0, |m, v| m | 1 << v)
}

/// A random function of `n` variables that does not depend on the
/// variables in `drop`.
fn random_over(n: usize, drop: u32, rng: &mut SplitMix64) -> TruthTable {
    (0..n)
        .filter(|v| drop & 1 << v != 0)
        .fold(TruthTable::random(n, 0.5, rng.next_u64()), |t, v| t.cofactor(v, false))
}

/// A seeded ISF `(Q, R)` of 4–6 inputs: an OR or EXOR of two functions
/// on complementary halves of the inputs (a quarter of the cases each),
/// or a random function (the other half), with 0, 20 or 40% of the
/// minterms don't-care.
fn random_isf(rng: &mut SplitMix64) -> (usize, TruthTable, TruthTable) {
    let n = 4 + rng.gen_range(3);
    let all = (1u32 << n) - 1;
    let f = match rng.gen_range(4) {
        kind @ (0 | 1) => {
            // Split the inputs into two non-empty halves.
            let half = loop {
                let m = rng.next_u64() as u32 & all;
                if m != 0 && m != all {
                    break m;
                }
            };
            let a = random_over(n, all & !half, rng);
            let b = random_over(n, half, rng);
            if kind == 0 {
                a.or(&b)
            } else {
                a.xor(&b)
            }
        }
        _ => TruthTable::random(n, 0.5, rng.next_u64()),
    };
    let dc = [0.0, 0.2, 0.4][rng.gen_range(3)];
    let care = TruthTable::random(n, 1.0 - dc, rng.next_u64());
    (n, f.and(&care), f.complement().and(&care))
}

#[test]
fn best_grouping_is_complete_sound_and_maximal() {
    let mut rng = SplitMix64::new(2001);
    let (mut strong, mut none, mut grown) = (0, 0, 0);
    for case in 0..400 {
        let (n, q, r) = random_isf(&mut rng);
        let mut mgr = Bdd::new(n);
        let (qf, rf) = (q.to_bdd(&mut mgr), r.to_bdd(&mut mgr));
        let (isf, _) = Isf::new(&mut mgr, qf, rf).remove_inessential(&mut mgr);
        let support = isf.support(&mgr);
        let q = TruthTable::from_bdd(&mgr, isf.q, n);
        let r = TruthTable::from_bdd(&mgr, isf.r, n);
        let vars: Vec<u32> = support.iter().collect();
        let pair_exists = GATES.iter().any(|&gate| {
            vars.iter().enumerate().any(|(i, &x)| {
                vars[i + 1..].iter().any(|&y| decomposable(gate, &q, &r, 1 << x, 1 << y))
            })
        });
        let found = best_grouping(&mut mgr, &isf, &support, true);
        assert_eq!(found.is_some(), pair_exists, "case {case}: completeness");
        let Some((gate, grouping)) = found else {
            none += 1;
            continue;
        };
        strong += 1;
        let (xa, xb) = (mask(&grouping.xa), mask(&grouping.xb));
        let within = mask(&support);
        assert!(xa != 0 && xb != 0 && xa & xb == 0, "case {case}: sets {xa:b}/{xb:b}");
        assert_eq!((xa | xb) & !within, 0, "case {case}: sets outside the support");
        assert!(decomposable(gate, &q, &r, xa, xb), "case {case}: soundness of {gate}");
        for v in vars.iter().map(|&v| 1u32 << v).filter(|&v| v & (xa | xb) == 0) {
            assert!(
                !decomposable(gate, &q, &r, xa | v, xb) && !decomposable(gate, &q, &r, xa, xb | v),
                "case {case}: {gate} grouping {xa:b}/{xb:b} is not maximal"
            );
        }
        if grouping.total() > 2 {
            grown += 1;
        }
    }
    // The cases cover both verdicts and groupings larger than a pair.
    assert!(strong >= 200 && none >= 50 && grown >= 100, "{strong} / {none} / {grown}");
}
