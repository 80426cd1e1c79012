//! Exhaustive checks of the non-allocating decision procedures
//! (`implies`, `disjoint`, `disjoint3`) and of `pick_per_class` against
//! `boolfn` truth-table enumeration.
//!
//! Up to three variables every function (and, for `disjoint3` on two
//! variables, every triple of functions) is enumerated; four and five
//! variables use seeded random tables with every quantifier mask. These
//! live in the fuzz crate because `bdd` cannot depend on `boolfn`.

use bdd::{Bdd, Func, VarSet};
use benchmarks::SplitMix64;
use boolfn::TruthTable;

/// Every function of `n` variables (`n ≤ 3`), as truth tables.
fn all_tables(n: usize) -> Vec<TruthTable> {
    let minterms = 1u32 << n;
    (0..1u64 << minterms).map(|bits| TruthTable::from_fn(n, |m| bits >> m & 1 != 0)).collect()
}

/// Seeded random tables of `n` variables with varied densities, plus the
/// two constants.
fn random_tables(n: usize, count: usize, seed: u64) -> Vec<TruthTable> {
    let mut rng = SplitMix64::new(seed);
    let mut tables = vec![TruthTable::zeros(n), TruthTable::ones(n)];
    tables.extend((0..count).map(|_| {
        TruthTable::random(n, 0.1 + 0.8 * (rng.gen_range(9) as f64 / 8.0), rng.next_u64())
    }));
    tables
}

fn build(mgr: &mut Bdd, tables: &[TruthTable]) -> Vec<Func> {
    tables.iter().map(|t| t.to_bdd(mgr)).collect()
}

fn mask_set(mask: u32, n: usize) -> VarSet {
    (0..n as u32).filter(|v| mask & (1 << v) != 0).collect()
}

/// `implies` and `disjoint` on every pair, `disjoint3` on every triple.
fn check_decisions(n: usize, tables: &[TruthTable], triples: bool) {
    let mut mgr = Bdd::new(n);
    let funcs = build(&mut mgr, tables);
    let nodes_before = mgr.total_nodes();
    for (i, ta) in tables.iter().enumerate() {
        for (j, tb) in tables.iter().enumerate() {
            let (fa, fb) = (funcs[i], funcs[j]);
            assert_eq!(mgr.implies(fa, fb), ta.implies(tb), "implies #{i} #{j} (n={n})");
            assert_eq!(mgr.disjoint(fa, fb), ta.disjoint(tb), "disjoint #{i} #{j} (n={n})");
            if !triples {
                continue;
            }
            let tab = ta.and(tb);
            for (k, tc) in tables.iter().enumerate() {
                assert_eq!(
                    mgr.disjoint3(fa, fb, funcs[k]),
                    tab.disjoint(tc),
                    "disjoint3 #{i} #{j} #{k} (n={n})"
                );
            }
        }
    }
    assert_eq!(mgr.total_nodes(), nodes_before, "decision procedures must not build nodes");
}

/// `pick_per_class` under every quantifier mask.
fn check_pick(n: usize, tables: &[TruthTable]) {
    let mut mgr = Bdd::new(n);
    let funcs = build(&mut mgr, tables);
    for mask in 0..1u32 << n {
        let cube = mgr.cube(&mask_set(mask, n));
        for (i, t) in tables.iter().enumerate() {
            let got = mgr.pick_per_class(funcs[i], cube);
            let want = t.pick_per_class(mask);
            assert_eq!(
                TruthTable::from_bdd(&mgr, got, n),
                want,
                "pick_per_class #{i} mask {mask:b} (n={n})"
            );
        }
    }
}

#[test]
fn decision_procedures_match_enumeration_exhaustively() {
    for n in 1..=2 {
        check_decisions(n, &all_tables(n), true);
    }
    check_decisions(3, &all_tables(3), false);
}

#[test]
fn decision_procedures_match_enumeration_on_random_tables() {
    check_decisions(3, &random_tables(3, 14, 0x3d15), true);
    check_decisions(4, &random_tables(4, 14, 0x4d15), true);
    check_decisions(5, &random_tables(5, 14, 0x5d15), true);
}

#[test]
fn pick_per_class_matches_enumeration() {
    for n in 1..=3 {
        check_pick(n, &all_tables(n));
    }
    check_pick(4, &random_tables(4, 40, 0x4c1a));
    check_pick(5, &random_tables(5, 40, 0x5c1a));
}

#[test]
fn pick_per_class_keeps_one_point_per_class_under_any_order() {
    // Order-independent properties: the pick implies f, has f's
    // projection, and holds one cube-minterm per class.
    let n = 5;
    let mask = 0b01101u32;
    for (k, t) in random_tables(n, 12, 0x0dd).iter().enumerate() {
        let mut mgr = Bdd::new(n);
        mgr.set_order(&[4, 1, 3, 0, 2]);
        let f = t.to_bdd(&mut mgr);
        let cube = mgr.cube(&mask_set(mask, n));
        let p = mgr.pick_per_class(f, cube);
        let picked = TruthTable::from_bdd(&mgr, p, n);
        assert!(picked.implies(t), "case {k}: pick must imply f");
        assert_eq!(picked.exists(mask), t.exists(mask), "case {k}: projection changed");
        let per_class = picked.count_ones();
        let classes = t.exists(mask).count_ones() >> mask.count_ones();
        assert_eq!(per_class, classes, "case {k}: one minterm per non-empty class");
    }
}
