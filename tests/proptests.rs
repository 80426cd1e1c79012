//! Workspace-level property tests: random multi-output incompletely
//! specified PLAs driven through every system, with the independent
//! truth-table referee from `boolfn`.
//!
//! Cases are generated from a seeded splitmix64 stream (the workspace
//! carries no external property-testing dependency), so failures
//! reproduce from their seed alone.

use baseline::{bds_like, sis_like};
use benchmarks::SplitMix64;
use bidecomp::{decompose_pla, Options};
use boolfn::TruthTable;
use pla::{Cube, OutputValue, Pla, PlaType, Trit};

const MAX_VARS: usize = 6;

/// Seeded random cases per property (mirrors the old proptest case count).
const CASES: u64 = 24;

/// A random multi-output ISF described by per-output (function, care) seed
/// pairs plus a PLA type.
#[derive(Debug, Clone)]
struct RandomSpec {
    num_vars: usize,
    outputs: Vec<(u64, u64)>,
    fr_type: bool,
}

fn random_spec(seed: u64) -> RandomSpec {
    let mut rng = SplitMix64::new(seed);
    let num_vars = 3 + rng.gen_range(MAX_VARS - 2); // 3..=MAX_VARS
    let num_outputs = 1 + rng.gen_range(3); // 1..=3
    let outputs = (0..num_outputs).map(|_| (rng.next_u64(), rng.next_u64())).collect();
    RandomSpec { num_vars, outputs, fr_type: rng.gen_bool(0.5) }
}

struct Materialized {
    pla: Pla,
    qs: Vec<TruthTable>,
    rs: Vec<TruthTable>,
}

fn materialize(spec: &RandomSpec) -> Materialized {
    let n = spec.num_vars;
    let mut qs = Vec::new();
    let mut rs = Vec::new();
    for &(fseed, cseed) in &spec.outputs {
        let f = TruthTable::random(n, 0.5, fseed);
        let care =
            if spec.fr_type { TruthTable::random(n, 0.7, cseed) } else { TruthTable::ones(n) };
        qs.push(f.and(&care));
        rs.push(f.complement().and(&care));
    }
    let ty = if spec.fr_type { PlaType::Fr } else { PlaType::Fd };
    let mut pla = Pla::new(n, spec.outputs.len()).with_type(ty);
    for m in 0..1u32 << n {
        let mut outs = vec![OutputValue::NotUsed; spec.outputs.len()];
        let mut any = false;
        for (k, (q, r)) in qs.iter().zip(&rs).enumerate() {
            if q.get(m) {
                outs[k] = OutputValue::One;
                any = true;
            } else if spec.fr_type && r.get(m) {
                outs[k] = OutputValue::Zero;
                any = true;
            }
        }
        if !any {
            continue;
        }
        let inputs: Vec<Trit> =
            (0..n).map(|k| if m & (1 << k) != 0 { Trit::One } else { Trit::Zero }).collect();
        pla.push(Cube::new(&inputs, &outs));
    }
    Materialized { pla, qs, rs }
}

/// Asserts a netlist respects the on-/off-sets of every output.
fn assert_in_interval(name: &str, nl: &netlist::Netlist, m: &Materialized) {
    let n = m.pla.num_inputs();
    for minterm in 0..1u64 << n {
        let vals: Vec<bool> = (0..n).map(|k| minterm & (1 << k) != 0).collect();
        let got = nl.eval_all(&vals);
        for (k, (q, r)) in m.qs.iter().zip(&m.rs).enumerate() {
            if q.get(minterm as u32) {
                assert!(got[k], "{name}: out {k} must be 1 at {minterm:b}");
            }
            if r.get(minterm as u32) {
                assert!(!got[k], "{name}: out {k} must be 0 at {minterm:b}");
            }
        }
    }
}

#[test]
fn bidecomp_respects_random_intervals() {
    for seed in 0..CASES {
        let m = materialize(&random_spec(seed));
        let outcome = decompose_pla(&m.pla, &Options::default());
        assert!(outcome.verified, "seed {seed}");
        assert_in_interval("bidecomp", &outcome.netlist, &m);
    }
}

#[test]
fn baselines_respect_random_intervals() {
    for seed in 0..CASES {
        let m = materialize(&random_spec(seed));
        assert_in_interval("sis_like", &sis_like(&m.pla), &m);
        assert_in_interval("bds_like", &bds_like(&m.pla), &m);
    }
}

#[test]
fn blif_roundtrip_on_random_netlists() {
    for seed in 0..CASES {
        let m = materialize(&random_spec(seed));
        let outcome = decompose_pla(&m.pla, &Options::default());
        let text = outcome.netlist.to_blif("random");
        let back = netlist::Netlist::from_blif(&text).expect("roundtrip");
        let n = m.pla.num_inputs();
        for minterm in 0..1u64 << n {
            let vals: Vec<bool> = (0..n).map(|k| minterm & (1 << k) != 0).collect();
            assert_eq!(outcome.netlist.eval_all(&vals), back.eval_all(&vals), "seed {seed}");
        }
    }
}

#[test]
fn inverter_folding_preserves_random_netlists() {
    for seed in 0..CASES {
        let m = materialize(&random_spec(seed));
        let outcome = decompose_pla(&m.pla, &Options::default());
        let folded = outcome.netlist.fold_inverters();
        let n = m.pla.num_inputs();
        for minterm in 0..1u64 << n {
            let vals: Vec<bool> = (0..n).map(|k| minterm & (1 << k) != 0).collect();
            assert_eq!(outcome.netlist.eval_all(&vals), folded.eval_all(&vals), "seed {seed}");
        }
        // Only input inverters (which have no gate to fold into) may remain.
        for &s in &folded.live_signals() {
            if let netlist::Gate::Not(a) = folded.gate(s) {
                assert!(
                    matches!(folded.gate(*a), netlist::Gate::Input(_)),
                    "seed {seed}: all internal inverters must fold into complement gates"
                );
            }
        }
    }
}

#[test]
fn pla_text_roundtrip_random() {
    for seed in 0..CASES {
        let m = materialize(&random_spec(seed));
        let text = m.pla.to_string();
        let back: Pla = text.parse().expect("own output must parse");
        assert_eq!(&m.pla, &back, "seed {seed}");
    }
}

#[test]
fn decomposed_netlists_are_fully_testable() {
    // Theorem 5 as a property over random ISFs (the strongest end-to-
    // end invariant in the paper).
    for seed in 0..CASES {
        let m = materialize(&random_spec(seed));
        let outcome = decompose_pla(&m.pla, &Options::default());
        let report = atpg::generate_tests(&outcome.netlist);
        assert_eq!(report.redundant, 0, "seed {seed}: {:?}", report.redundant_faults);
    }
}
