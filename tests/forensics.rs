//! Forensics golden tests: the decomposition-tree DOT export and the
//! doctor findings JSON must stay byte-stable on fixed inputs, and the
//! tree reconstruction must round-trip real traces.
//!
//! Regenerate the goldens with `BLESS=1 cargo test --test forensics`
//! after an intentional format change, and review the diff.

use bidecomp::doctor::{diagnose_pla, DoctorConfig, DOCTOR_SCHEMA};
use bidecomp::trace::tree::{render_dot_clusters, DecompTree};
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
    // Trace on, telemetry off: no cost attribution, so the DOT output is
    // byte-deterministic.
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
fn decomposition_tree_dot_is_golden() {
    let trees = vec![
        ("fig3".to_owned(), DecompTree::from_trace(&trace_of(FIG3))),
        ("shared".to_owned(), DecompTree::from_trace(&trace_of(SHARED))),
    ];
    check_golden("forensics_tree.dot", &render_dot_clusters(&trees, false));
}

#[test]
fn doctor_findings_json_is_golden() {
    let pla: Pla = FIG3.parse().expect("valid pla");
    let (outcome, report) = diagnose_pla(&pla, &Options::default(), &DoctorConfig::default());
    assert!(outcome.verified);
    let json = report.to_json().render();
    // The workspace parser must accept the doctor's output.
    let parsed = Json::parse(&json).expect("doctor JSON parses");
    assert_eq!(parsed.get("schema").and_then(Json::as_str), Some(DOCTOR_SCHEMA));
    check_golden("forensics_doctor.json", &(json + "\n"));
}

#[test]
fn tree_reconstruction_round_trips_real_traces() {
    for text in [FIG3, SHARED] {
        let trace = trace_of(text);
        let tree = DecompTree::from_trace(&trace);
        assert_eq!(tree.len(), trace.len());
        // Flattening the tree in preorder reproduces the trace exactly
        // (depths, steps and cost slots).
        assert_eq!(tree.flatten(), trace);
        // Parent/child depths are consistent.
        for node in tree.nodes() {
            if let Some(parent) = node.parent {
                assert_eq!(tree.nodes()[parent].event.depth + 1, node.event.depth);
            }
        }
    }
}

#[test]
fn cost_attributed_traces_roll_up_in_real_runs() {
    let pla: Pla = SHARED.parse().expect("valid pla");
    let options = Options { trace: true, telemetry: true, ..Options::default() };
    let outcome = bidecomp::decompose_pla(&pla, &options);
    assert!(outcome.trace.iter().all(|e| e.cost.is_some()), "telemetry attributes every call");
    let tree = DecompTree::from_trace(&outcome.trace);
    let total = tree.total_inclusive();
    assert!(total.elapsed_ns > 0);
    // Exclusive costs partition the inclusive total.
    let excl_sum: u64 = tree.nodes().iter().map(|n| n.exclusive.elapsed_ns).sum();
    assert!(excl_sum <= total.elapsed_ns);
    // The costliest call by exclusive time is a real node.
    let hottest = tree.hottest(1);
    assert_eq!(hottest.len(), 1);
}
