//! Cross-crate end-to-end tests: random and structured specifications
//! through the full decomposition, checked against independent oracles.

use bidecomp::{decompose_pla, isfs_from_pla, Options};
use boolfn::TruthTable;
use pla::{Cube, OutputValue, Pla, Trit};

/// Builds a single-output `fr`-type PLA from explicit on/off truth tables.
fn pla_from_tables(q: &TruthTable, r: &TruthTable) -> Pla {
    let n = q.num_vars();
    let mut pla = Pla::new(n, 1).with_type(pla::PlaType::Fr);
    for m in q.minterms() {
        pla.push(minterm_cube(n, m, OutputValue::One));
    }
    for m in r.minterms() {
        pla.push(minterm_cube(n, m, OutputValue::Zero));
    }
    pla
}

fn minterm_cube(n: usize, m: u32, value: OutputValue) -> Cube {
    let inputs: Vec<Trit> =
        (0..n).map(|k| if m & (1 << k) != 0 { Trit::One } else { Trit::Zero }).collect();
    Cube::new(&inputs, &[value])
}

#[test]
fn random_isfs_decompose_to_compatible_netlists() {
    for seed in 0..25u64 {
        let n = 6;
        let f = TruthTable::random(n, 0.5, seed);
        let care = TruthTable::random(n, 0.7, seed ^ 0xa5a5);
        let q = f.and(&care);
        let r = f.complement().and(&care);
        let pla = pla_from_tables(&q, &r);
        let outcome = decompose_pla(&pla, &Options::default());
        assert!(outcome.verified, "seed {seed}: BDD verifier must accept");
        // Independent check through simulation against the truth tables.
        for m in 0..1u64 << n {
            let vals: Vec<bool> = (0..n).map(|k| m & (1 << k) != 0).collect();
            let got = outcome.netlist.eval_all(&vals)[0];
            if q.get(m as u32) {
                assert!(got, "seed {seed}: on-set violated at {m:b}");
            }
            if r.get(m as u32) {
                assert!(!got, "seed {seed}: off-set violated at {m:b}");
            }
        }
    }
}

#[test]
fn every_option_variant_produces_correct_netlists() {
    let variants = [
        Options::default(),
        Options { use_exor: false, ..Options::default() },
        Options { use_cache: false, ..Options::default() },
        Options { remove_inessential: false, ..Options::default() },
        Options { order_by_frequency: false, ..Options::default() },
        Options::weak_only(),
    ];
    for (vi, options) in variants.iter().enumerate() {
        for seed in 0..8u64 {
            let n = 5;
            let f = TruthTable::random(n, 0.45, seed.wrapping_mul(77).wrapping_add(vi as u64));
            let q = f.clone();
            let r = f.complement();
            let pla = pla_from_tables(&q, &r);
            let outcome = decompose_pla(&pla, options);
            assert!(outcome.verified, "variant {vi} seed {seed}");
        }
    }
}

#[test]
fn more_dont_cares_never_hurt_much() {
    // §1: "the more don't-cares, the more efficient is the algorithm".
    // Compare the fully specified function against the same function with
    // 60% of the space freed; gate count must not grow.
    let mut freed_total = 0usize;
    let mut full_total = 0usize;
    for seed in 0..10u64 {
        let n = 6;
        let f = TruthTable::random(n, 0.5, seed);
        let full = pla_from_tables(&f, &f.complement());
        let care = TruthTable::random(n, 0.4, seed ^ 0x77);
        let freed = pla_from_tables(&f.and(&care), &f.complement().and(&care));
        let g_full = decompose_pla(&full, &Options::default());
        let g_freed = decompose_pla(&freed, &Options::default());
        assert!(g_full.verified && g_freed.verified);
        full_total += g_full.netlist.stats().gates;
        freed_total += g_freed.netlist.stats().gates;
    }
    assert!(
        freed_total < full_total,
        "don't-cares must reduce total gates: {freed_total} vs {full_total}"
    );
}

#[test]
fn multi_output_pla_spec_intervals_are_respected() {
    // A 3-output fd PLA with shared structure and don't-cares.
    let text = "\
.i 5
.o 3
11--- 11-
--11- 1-1
----1 -1-
00000 --d
.e
";
    let pla: Pla = text.parse().expect("valid");
    let outcome = decompose_pla(&pla, &Options::default());
    assert!(outcome.verified);
    // Manual interval check via a fresh manager.
    let mut mgr = bdd::Bdd::new(5);
    let isfs = isfs_from_pla(&mut mgr, &pla);
    assert!(bidecomp::verify::verify_netlist(&mut mgr, &outcome.netlist, &isfs));
    assert_eq!(outcome.netlist.outputs().len(), 3);
}

#[test]
fn weak_vs_strong_netlist_quality() {
    // Strong decomposition must beat weak-only on a deeply decomposable
    // function: an 8-input disjoint OR of ANDs.
    let mut pla = Pla::new(8, 1);
    for k in 0..4 {
        let mut inputs = vec![Trit::Dc; 8];
        inputs[2 * k] = Trit::One;
        inputs[2 * k + 1] = Trit::One;
        pla.push(Cube::new(&inputs, &[OutputValue::One]));
    }
    let strong = decompose_pla(&pla, &Options::default());
    let weak = decompose_pla(&pla, &Options::weak_only());
    assert!(strong.verified && weak.verified);
    let (ss, ws) = (strong.netlist.stats(), weak.netlist.stats());
    assert_eq!(ss.gates, 7, "optimal OR-of-ANDs");
    assert!(ss.cascades <= ws.cascades);
    assert!(ss.gates <= ws.gates);
    // And the strong netlist is balanced: 7 gates in 3 levels.
    assert_eq!(ss.cascades, 3);
}

#[test]
fn decomposition_statistics_are_consistent() {
    let b = benchmarks::by_name("rd73").expect("known");
    let outcome = decompose_pla(&b.pla, &Options::default());
    let s = outcome.stats;
    assert!(s.calls > 0);
    let classified = s.cache_hits
        + s.cache_hits_complement
        + s.terminal_cases
        + s.strong_or
        + s.strong_and
        + s.strong_exor
        + s.weak
        + s.shannon;
    assert_eq!(classified, s.calls, "every call ends in exactly one class");
}

#[test]
fn paper_configuration_beats_exorless_on_symmetric_functions() {
    let b = benchmarks::by_name("rd73").expect("known");
    let with_exor = decompose_pla(&b.pla, &Options::default());
    let without = decompose_pla(&b.pla, &Options { use_exor: false, ..Options::default() });
    assert!(with_exor.verified && without.verified);
    assert!(
        with_exor.netlist.stats().gates < without.netlist.stats().gates,
        "EXOR gates must pay off on the ones-counter: {} vs {}",
        with_exor.netlist.stats().gates,
        without.netlist.stats().gates
    );
}

#[test]
fn components_are_reused_across_outputs() {
    // f = a·b + c and g = a·b + d. Decomposing g needs a component for
    // a·b, which the §6 cache already holds from f.
    let both: Pla = ".i 4\n.o 2\n11-- 11\n--1- 10\n---1 01\n.e\n".parse().expect("valid");
    let f_only: Pla = ".i 4\n.o 1\n11-- 1\n--1- 1\n.e\n".parse().expect("valid");
    let g_only: Pla = ".i 4\n.o 1\n11-- 1\n---1 1\n.e\n".parse().expect("valid");
    let hits = |pla: &Pla| {
        let outcome = decompose_pla(pla, &Options::default());
        assert!(outcome.verified);
        outcome.stats.cache_hits
    };
    assert_eq!(hits(&f_only), 0);
    assert_eq!(hits(&g_only), 0);
    assert_eq!(hits(&both), 1, "g's a·b must come from the component cached for f");
    let no_cache = decompose_pla(&both, &Options { use_cache: false, ..Options::default() });
    assert_eq!(no_cache.stats.cache_hits, 0);

    // rd84's outputs share most of their structure: 58 gates with the
    // cache shared across outputs (89 when it is cleared between them).
    let rd84 = benchmarks::by_name("rd84").expect("known");
    let outcome = decompose_pla(&rd84.pla, &Options::default());
    assert!(outcome.verified);
    assert_eq!(outcome.netlist.stats().gates, 58);
    assert!(outcome.stats.cache_hits > 0);
}
