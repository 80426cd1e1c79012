//! Full-pipeline tests: PLA text → parse → decompose → BLIF → re-parse →
//! equivalence, plus baseline comparisons on the same inputs — the
//! complete §8 experimental flow in miniature.

use baseline::{bds_like, sis_like};
use bidecomp::{decompose_pla, Options};
use netlist::Netlist;
use pla::Pla;

const ADDER_PLA: &str = "\
# 3-bit ripple sum bit 2 plus carry-out, as a PLA
.i 6
.o 2
.ilb a0 a1 a2 b0 b1 b2
.ob s2 cout
.type fd
";

/// Builds the PLA of the 2 most significant outputs of a 3-bit adder by
/// enumeration (uses the text header above for labels).
fn adder_pla() -> Pla {
    let mut text = String::from(ADDER_PLA);
    for m in 0..64u32 {
        let a = m & 0b111;
        let b = (m >> 3) & 0b111;
        let sum = a + b;
        let s2 = sum & 0b100 != 0;
        let cout = sum & 0b1000 != 0;
        if !s2 && !cout {
            continue;
        }
        let ins: String = (0..6).map(|k| if m & (1 << k) != 0 { '1' } else { '0' }).collect();
        let outs = format!("{}{}", if s2 { '1' } else { '-' }, if cout { '1' } else { '-' });
        text.push_str(&format!("{ins} {outs}\n"));
    }
    text.push_str(".e\n");
    text.parse().expect("generated PLA is valid")
}

fn equivalent(a: &Netlist, b: &Netlist, num_inputs: usize) -> bool {
    let mut mgr = bdd::Bdd::new(num_inputs);
    let fa = a.to_bdds(&mut mgr);
    let fb = b.to_bdds(&mut mgr);
    fa == fb
}

#[test]
fn adder_pipeline_end_to_end() {
    let pla = adder_pla();
    assert_eq!(pla.input_labels().unwrap()[0], "a0");
    let outcome = decompose_pla(&pla, &Options::default());
    assert!(outcome.verified);
    // Output names survive into the netlist and the BLIF.
    let names: Vec<&str> = outcome.netlist.outputs().iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(names, vec!["s2", "cout"]);
    let blif = outcome.netlist.to_blif("adder_hi");
    assert!(blif.contains(".inputs a0 a1 a2 b0 b1 b2"));
    let back = Netlist::from_blif(&blif).expect("roundtrip");
    assert!(equivalent(&outcome.netlist, &back, 6));
    // Check the arithmetic on every input.
    for m in 0..64u32 {
        let a = m & 0b111;
        let b = (m >> 3) & 0b111;
        let sum = a + b;
        let vals: Vec<bool> = (0..6).map(|k| m & (1 << k) != 0).collect();
        let got = outcome.netlist.eval_all(&vals);
        assert_eq!(got[0], sum & 0b100 != 0, "s2 at {m:06b}");
        assert_eq!(got[1], sum & 0b1000 != 0, "cout at {m:06b}");
    }
}

#[test]
fn three_systems_same_function_different_structure() {
    let pla = adder_pla();
    let bi = decompose_pla(&pla, &Options::default());
    let sis = sis_like(&pla);
    let bds = bds_like(&pla);
    // All three implement compatible functions (the spec is completely
    // specified here, so all are equivalent).
    assert!(equivalent(&bi.netlist, &sis, 6));
    assert!(equivalent(&bi.netlist, &bds, 6));
    // The adder is EXOR-intensive: BI-DECOMP must use EXORs and come out
    // smallest.
    let (bs, ss, ds) = (bi.netlist.stats(), sis.stats(), bds.stats());
    assert!(bs.exors > 0);
    assert_eq!(ss.exors, 0);
    assert!(bs.gates <= ss.gates, "BI-DECOMP {} vs SIS-like {}", bs.gates, ss.gates);
    assert!(bs.gates <= ds.gates, "BI-DECOMP {} vs BDS-like {}", bs.gates, ds.gates);
}

#[test]
fn pla_written_and_reread_gives_identical_results() {
    // The benchmark generators emit PLA values; their textual form must
    // round-trip through the parser with identical decomposition results.
    let b = benchmarks::by_name("rd73").expect("known");
    let text = b.pla.to_string();
    let reparsed: Pla = text.parse().expect("roundtrip");
    assert_eq!(b.pla, reparsed);
    let o1 = decompose_pla(&b.pla, &Options::default());
    let o2 = decompose_pla(&reparsed, &Options::default());
    assert_eq!(o1.netlist.stats().gates, o2.netlist.stats().gates);
    assert!(equivalent(&o1.netlist, &o2.netlist, 7));
}

#[test]
fn gc_threshold_does_not_change_results() {
    let b = benchmarks::by_name("rd84").expect("known");
    let normal = decompose_pla(&b.pla, &Options::default());
    let tight = decompose_pla(&b.pla, &Options { gc_threshold: 500, ..Options::default() });
    assert!(normal.verified && tight.verified);
    assert!(equivalent(&normal.netlist, &tight.netlist, 8));

    // cps has 109 outputs, so a tight threshold collects between many of
    // them while the §6 cache carries components from earlier outputs: GC
    // must keep every cached component alive and leave the netlist
    // byte-identical.
    let b = benchmarks::by_name("cps").expect("known");
    let normal = decompose_pla(&b.pla, &Options::default());
    let tight = decompose_pla(&b.pla, &Options { gc_threshold: 500, ..Options::default() });
    assert!(normal.verified && tight.verified);
    assert_eq!(normal.op_stats.gc_runs, 0);
    assert!(tight.op_stats.gc_runs > 0, "the tight threshold must trigger GC");
    assert!(tight.stats.cache_hits > 0, "cached components must be reused across GCs");
    assert_eq!(tight.netlist.to_blif("cps"), normal.netlist.to_blif("cps"));
}

#[test]
fn peak_nodes_do_not_depend_on_telemetry() {
    // The peak is sampled after every output, before any GC. Live nodes
    // only grow between collections, so no per-call sampling inside the
    // recursion can see a larger count: the peak is the same with
    // telemetry on and off, also when GC runs between outputs.
    let b = benchmarks::by_name("cps").expect("known");
    let tight = Options { gc_threshold: 500, ..Options::default() };
    let off = decompose_pla(&b.pla, &tight);
    let on = decompose_pla(&b.pla, &Options { telemetry: true, ..tight });
    assert!(off.op_stats.gc_runs > 0, "the tight threshold must trigger GC");
    assert_eq!(on.bdd_nodes, off.bdd_nodes);
    assert_eq!(on.op_stats, off.op_stats);
}

#[test]
fn suite_sanity_cross_system() {
    // On a slice of the suite: every system implements a function
    // compatible with the specification (don't-cares may differ).
    for name in ["rd73", "5xp1"] {
        let b = benchmarks::by_name(name).expect("known");
        let n = b.pla.num_inputs();
        let bi = decompose_pla(&b.pla, &Options::default()).netlist;
        let sis = sis_like(&b.pla);
        let bds = bds_like(&b.pla);
        for m in (0..1u64 << n).step_by(5) {
            let vals: Vec<bool> = (0..n).map(|k| m & (1 << k) != 0).collect();
            for out in 0..b.pla.num_outputs() {
                if let Some(expected) = b.pla.eval(out, m) {
                    assert_eq!(bi.eval_all(&vals)[out], expected, "{name} bi {m:b}");
                    assert_eq!(sis.eval_all(&vals)[out], expected, "{name} sis {m:b}");
                    assert_eq!(bds.eval_all(&vals)[out], expected, "{name} bds {m:b}");
                }
            }
        }
    }
}
