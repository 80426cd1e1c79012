//! Seeded property tests for variable orders, cross-checked via `boolfn`:
//! a function built in a fresh manager under any variable order
//! ([`Bdd::set_order`]) keeps its semantics, `support` and `sat_count`.
//!
//! These live in the fuzz crate because `bdd` cannot depend on `boolfn`
//! (the oracle crate depends on `bdd` for conversions).

use bdd::{reorder, Bdd, VarId, VarSet};
use benchmarks::SplitMix64;
use boolfn::TruthTable;

fn varset_mask(set: &VarSet) -> u32 {
    set.iter().fold(0u32, |m, v| m | (1 << v))
}

/// Builds every table in a fresh manager under `order` (top to bottom)
/// and checks semantics, support and satisfy-count of each root.
fn assert_invariants_under(order: &[VarId], tables: &[TruthTable], what: &str) {
    let n = tables[0].num_vars();
    let mut mgr = Bdd::new(n);
    mgr.set_order(order);
    assert_eq!(mgr.order(), order, "{what}: order adopted");
    for (k, tt) in tables.iter().enumerate() {
        let f = tt.to_bdd(&mut mgr);
        assert_eq!(TruthTable::from_bdd(&mgr, f, n), *tt, "{what}: root {k} changed semantics");
        assert_eq!(
            varset_mask(&mgr.support(f)),
            tt.support_mask(),
            "{what}: root {k} changed support"
        );
        let count = mgr.sat_count(f);
        assert_eq!(count, tt.count_ones() as f64, "{what}: root {k} changed sat_count");
    }
}

#[test]
fn random_orders_preserve_semantics_support_and_satcount() {
    let mut rng = SplitMix64::new(41);
    for case in 0..30 {
        let n = 4 + rng.gen_range(4); // 4..=7
        let tables: Vec<TruthTable> = (0..2)
            .map(|_| {
                TruthTable::random(n, 0.2 + 0.6 * (rng.gen_range(7) as f64 / 10.0), rng.next_u64())
            })
            .collect();
        // A few random orders: invariants must hold under each.
        for round in 0..3 {
            let mut perm: Vec<VarId> = (0..n as VarId).collect();
            rng.shuffle(&mut perm);
            assert_invariants_under(&perm, &tables, &format!("case {case} round {round} {perm:?}"));
        }
    }
}

#[test]
fn frequency_order_is_a_permutation_and_set_order_accepts_it() {
    let mut rng = SplitMix64::new(47);
    let n = 6;
    let weights: Vec<f64> = (0..n).map(|_| rng.gen_range(100) as f64).collect();
    let order = reorder::order_by_frequency(&weights);
    let mut sorted = order.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, (0..n as VarId).collect::<Vec<_>>(), "result is a permutation");
    assert_invariants_under(&order, &[TruthTable::random(n, 0.5, 7)], "frequency order");
}

#[test]
fn structured_functions_survive_adversarial_orders() {
    // Parity and blockwise-AND functions have strongly order-sensitive
    // BDD sizes; semantics must nevertheless be order-free.
    let n = 6;
    let parity = TruthTable::from_fn(n, |m| m.count_ones() % 2 == 1);
    let blocks = TruthTable::from_fn(n, |m| {
        (m & 0b11 == 0b11) || (m >> 2 & 0b11 == 0b11) || (m >> 4 & 0b11 == 0b11)
    });
    let tables = [parity, blocks];
    let reversed: Vec<VarId> = (0..n as VarId).rev().collect();
    assert_invariants_under(&reversed, &tables, "reversed order");
    assert_invariants_under(&[0, 2, 4, 1, 3, 5], &tables, "interleaved order");
}
