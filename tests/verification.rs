//! The §8 verification flow over the benchmark suite: every decomposed
//! netlist is accepted by the BDD verifier and by independent simulation,
//! and the BLIF output round-trips.

use bidecomp::{decompose_pla, isfs_from_pla, Options};
use boolfn::TruthTable;
use netlist::Netlist;

/// Debug builds are slow; verify the suite members that stay fast.
const FAST_SUITE: &[&str] = &["9sym", "rd73", "rd84", "5xp1", "misex1", "con1", "e64", "cordic"];

fn fast_suite() -> Vec<benchmarks::Benchmark> {
    FAST_SUITE.iter().filter_map(|n| benchmarks::by_name(n)).collect()
}

#[test]
fn verifier_accepts_all_fast_benchmarks() {
    for b in fast_suite() {
        let outcome = decompose_pla(&b.pla, &Options::default());
        assert!(outcome.verified, "{}", b.name);
    }
}

#[test]
fn spec_isfs_under_frequency_order_match_pla_semantics() {
    // The driver builds its ISFs under the literal-frequency order, so the
    // cube-list builder must split on levels of that order, not indices:
    // each set must be the canonical BDD of its `Pla::eval` truth table.
    for b in benchmarks::small() {
        let n = b.pla.num_inputs();
        let mut mgr = bdd::Bdd::new(n);
        mgr.set_order(&bdd::reorder::order_by_frequency(&b.pla.literal_frequencies()));
        let isfs = isfs_from_pla(&mut mgr, &b.pla);
        for (out, isf) in isfs.iter().enumerate() {
            for (value, got) in [(true, isf.q), (false, isf.r)] {
                let table = TruthTable::from_fn(n, |m| b.pla.eval(out, m as u64) == Some(value));
                let want = table.to_bdd(&mut mgr);
                assert_eq!(got, want, "{} output {out}, {value}-set", b.name);
            }
        }
    }
}

#[test]
fn verifier_rejects_a_sabotaged_netlist() {
    let b = benchmarks::by_name("rd73").expect("known");
    let outcome = decompose_pla(&b.pla, &Options::default());
    // Rebuild the netlist with outputs swapped — must fail verification.
    let good = &outcome.netlist;
    let mut bad = Netlist::new();
    let mut map = std::collections::HashMap::new();
    for (idx, gate) in good.nodes().iter().enumerate() {
        let new = match gate {
            netlist::Gate::Input(name) => bad.add_input(name.clone()),
            netlist::Gate::Const(v) => bad.constant(*v),
            netlist::Gate::Not(a) => {
                let fa = map[a];
                bad.add_not(fa)
            }
            netlist::Gate::Binary(op, a, b) => {
                let (fa, fb) = (map[a], map[b]);
                bad.add_gate(*op, fa, fb)
            }
        };
        map.insert(idx as netlist::SignalId, new);
    }
    let outs: Vec<_> = good.outputs().to_vec();
    bad.add_output(outs[0].0.clone(), map[&outs[1].1]); // swapped!
    bad.add_output(outs[1].0.clone(), map[&outs[0].1]);
    bad.add_output(outs[2].0.clone(), map[&outs[2].1]);
    let mut mgr = bdd::Bdd::new(b.pla.num_inputs());
    let isfs = isfs_from_pla(&mut mgr, &b.pla);
    assert!(!bidecomp::verify::verify_netlist(&mut mgr, &bad, &isfs));
    let failing = bidecomp::verify::failing_outputs(&mut mgr, &bad, &isfs);
    assert_eq!(failing, vec![0, 1], "outputs 0 and 1 were swapped");
}

#[test]
fn simulation_agrees_with_pla_semantics() {
    for b in fast_suite() {
        let n = b.pla.num_inputs();
        if n > 16 {
            continue; // exhaustive simulation only
        }
        let outcome = decompose_pla(&b.pla, &Options::default());
        for m in (0..1u64 << n).step_by(7) {
            let vals: Vec<bool> = (0..n).map(|k| m & (1 << k) != 0).collect();
            let got = outcome.netlist.eval_all(&vals);
            for (out, &bit) in got.iter().enumerate() {
                if let Some(expected) = b.pla.eval(out, m) {
                    assert_eq!(bit, expected, "{} m={m:b} out={out}", b.name);
                }
            }
        }
    }
}

#[test]
fn blif_roundtrip_preserves_benchmark_netlists() {
    for b in fast_suite() {
        let outcome = decompose_pla(&b.pla, &Options::default());
        let text = outcome.netlist.to_blif(b.name);
        let back = Netlist::from_blif(&text).expect("parse back");
        // Spot-check equivalence by simulation on a pattern batch.
        let n = b.pla.num_inputs();
        let patterns: Vec<u64> =
            (0..n).map(|k| 0x9e3779b97f4a7c15u64.rotate_left(k as u32)).collect();
        assert_eq!(outcome.netlist.simulate(&patterns), back.simulate(&patterns), "{}", b.name);
    }
}
