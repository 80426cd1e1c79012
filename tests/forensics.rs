//! Forensics golden tests: the rendered decomposition trace and the
//! doctor findings JSON must stay byte-stable on fixed inputs, the doctor
//! must stay silent on healthy runs, and the tree reconstruction must
//! agree with real traces and with the run's own statistics.
//!
//! Regenerate the goldens with `BLESS=1 cargo test --test forensics`
//! after an intentional format change, and review the diff.

use bidecomp::doctor::{diagnose, DOCTOR_SCHEMA};
use bidecomp::trace::render_trace;
use bidecomp::trace::tree::DecompTree;
use bidecomp::Options;
use obs::json::Json;
use pla::Pla;

/// Fig. 3 of the paper: f = a·b + c·d, the canonical strong-OR example.
const FIG3: &str = ".i 4\n.o 1\n.ilb a b c d\n.ob f\n11-- 1\n--11 1\n.e\n";

/// The multi-output sharing example from the driver tests: f = a·b + c,
/// g = a·b + d. The a·b component is decomposed once, for f; g's copy is a
/// §6 component-cache hit.
const SHARED: &str = ".i 4\n.o 2\n11-- 11\n--1- 10\n---1 01\n.e\n";

fn trace_of(text: &str) -> Vec<bidecomp::trace::TraceEvent> {
    let pla: Pla = text.parse().expect("valid pla");
    // The text rendering leaves the measured costs out, so the golden
    // below is byte-deterministic.
    let outcome = bidecomp::decompose_pla(&pla, &Options { trace: true, ..Options::default() });
    assert!(outcome.verified);
    outcome.trace
}

/// Compares `actual` against the committed golden file, or rewrites the
/// golden when `BLESS` is set.
fn check_golden(name: &str, actual: &str) {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(&path, actual).unwrap_or_else(|e| panic!("cannot bless {path}: {e}"));
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {path} (run with BLESS=1 to create): {e}"));
    assert_eq!(actual, expected, "{name} drifted — bless deliberately with BLESS=1");
}

#[test]
fn decomposition_trace_text_is_golden() {
    // One labelled block per PLA; depth in the tree is the indentation.
    let text = [("fig3", FIG3), ("shared", SHARED)]
        .map(|(name, pla)| format!("{name}:\n{}", render_trace(&trace_of(pla))))
        .join("\n");
    check_golden("forensics_trace.txt", &text);
}

#[test]
fn doctor_findings_json_is_golden() {
    // cps collects between its 109 outputs at a tight GC threshold, and
    // the cached components and remaining specifications pin most nodes:
    // a real `gc-thrash` finding.
    let b = benchmarks::by_name("cps").expect("known");
    let outcome =
        bidecomp::decompose_pla(&b.pla, &Options { gc_threshold: 500, ..Options::default() });
    assert!(outcome.verified);
    let report = diagnose(&outcome);
    assert_eq!(report.findings.len(), 1);
    assert_eq!(report.findings[0].kind, "gc-thrash");
    let json = report.to_json().render();
    // The workspace parser must accept the doctor's output.
    let parsed = Json::parse(&json).expect("doctor JSON parses");
    assert_eq!(parsed.get("schema").and_then(Json::as_str), Some(DOCTOR_SCHEMA));
    check_golden("forensics_doctor.json", &(json + "\n"));
}

#[test]
fn doctor_is_silent_on_the_small_suite() {
    for b in benchmarks::small() {
        let outcome = bidecomp::decompose_pla(&b.pla, &Options::default());
        assert!(outcome.verified, "{}", b.name);
        let findings = diagnose(&outcome).findings;
        assert!(findings.is_empty(), "{}: {findings:?}", b.name);
    }
}

#[test]
fn tree_reconstruction_round_trips_real_traces() {
    for text in [FIG3, SHARED] {
        let trace = trace_of(text);
        let tree = DecompTree::from_trace(&trace);
        // The nodes are the trace's events, in the trace's order.
        let events: Vec<_> = tree.nodes().iter().map(|n| n.event.clone()).collect();
        assert_eq!(events, trace);
        // Parent/child depths are consistent, and every node but the
        // roots is some node's child.
        let mut children = 0;
        for node in tree.nodes() {
            for &child in &node.children {
                assert_eq!(tree.nodes()[child].event.depth, node.event.depth + 1);
                children += 1;
            }
        }
        assert_eq!(children + tree.roots().len(), trace.len());
    }
}

#[test]
fn stats_depth_matches_the_trace_tree_on_the_small_suite() {
    for b in benchmarks::small() {
        let outcome =
            bidecomp::decompose_pla(&b.pla, &Options { trace: true, ..Options::default() });
        assert!(outcome.verified, "{}", b.name);
        let tree = DecompTree::from_trace(&outcome.trace);
        assert_eq!(outcome.stats.max_depth, tree.max_depth(), "{}", b.name);
        // The statistics do not depend on the trace.
        let untraced = bidecomp::decompose_pla(&b.pla, &Options::default());
        assert_eq!(untraced.stats, outcome.stats, "{}", b.name);
    }
}

#[test]
fn cost_attributed_traces_roll_up_in_real_runs() {
    let pla: Pla = SHARED.parse().expect("valid pla");
    let outcome = bidecomp::decompose_pla(&pla, &Options { trace: true, ..Options::default() });
    assert!(outcome.trace.iter().all(|e| e.cost.elapsed_ns > 0), "every call is measured");
    let tree = DecompTree::from_trace(&outcome.trace);
    let total: u64 = tree.roots().iter().map(|&r| tree.nodes()[r].inclusive.elapsed_ns).sum();
    // Exclusive costs partition the inclusive total.
    let excl_sum: u64 = tree.nodes().iter().map(|n| n.exclusive.elapsed_ns).sum();
    assert!(excl_sum > 0 && excl_sum <= total);
    // Every allocated node is owned by exactly one call.
    let allocated: u64 =
        tree.roots().iter().map(|&r| tree.nodes()[r].inclusive.nodes_allocated).sum();
    let owned: u64 = tree.nodes().iter().map(|n| n.exclusive.nodes_allocated).sum();
    assert_eq!(owned, allocated);
}
