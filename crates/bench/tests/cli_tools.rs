//! Integration tests driving the compiled `stats`, `report` and `diff`
//! binaries — the acceptance checks for the trace exports, the
//! regression gate and the output-path error handling.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

use obs::json::Json;

/// A scratch directory unique to this test process, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("bidecomp-{tag}-{}", std::process::id()));
        fs::create_dir_all(&dir).expect("scratch dir");
        Scratch(dir)
    }

    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

const SAMPLE_PLA: &str = "\
.i 4
.o 2
.ob f g
11-- 11
--11 10
---1 01
.e
";

/// Runs `stats --pla sample.pla <flag> <out>`, asserting success; returns
/// stdout.
fn run_stats_on_sample(scratch: &Scratch, flag: &str, out: &Path) -> String {
    let pla_path = scratch.path("sample.pla");
    fs::write(&pla_path, SAMPLE_PLA).expect("write pla");
    let output = Command::new(env!("CARGO_BIN_EXE_stats"))
        .arg("--pla")
        .arg(&pla_path)
        .arg(flag)
        .arg(out)
        .output()
        .expect("stats runs");
    assert!(output.status.success(), "stats failed: {}", String::from_utf8_lossy(&output.stderr));
    String::from_utf8_lossy(&output.stdout).into_owned()
}

#[test]
fn stats_chrome_trace_matches_the_span_tree() {
    let scratch = Scratch::new("stats");
    let trace_path = scratch.path("out.trace.json");
    let stdout = run_stats_on_sample(&scratch, "--chrome-trace", &trace_path);
    assert!(stdout.contains("sample"), "the PLA's file stem names the run: {stdout}");

    // The Chrome trace must be a valid trace_event array mirroring the
    // driver's spans.
    let text = fs::read_to_string(&trace_path).expect("trace written");
    let trace = Json::parse(&text).expect("trace is valid JSON");
    let events = trace.as_arr().expect("trace_event array form");
    // `(name, start, end)` in integer nanoseconds.
    let mut spans = Vec::new();
    for e in events {
        let name = e.get("name").and_then(Json::as_str).expect("name");
        let ph = e.get("ph").and_then(Json::as_str).expect("ph");
        assert_eq!(ph, "X", "spans only: every event is a complete event");
        let ns = |key: &str| {
            let us = e.get(key).and_then(Json::as_f64).expect(key);
            assert!(us >= 0.0);
            (us * 1e3).round() as u64
        };
        spans.push((name.to_owned(), ns("ts"), ns("ts") + ns("dur")));
        assert_eq!(e.get("pid").and_then(Json::as_f64), Some(1.0));
        assert_eq!(e.get("tid").and_then(Json::as_f64), Some(1.0));
    }
    let names: Vec<&str> = spans.iter().map(|s| s.0.as_str()).collect();
    assert_eq!(
        names,
        ["decompose_pla", "order", "bdd_build", "decompose", "output.f", "output.g", "verify"],
        "spans in start order"
    );
    // Every span lies exactly inside the spans that enclose it: the root
    // holds every phase, the decompose phase holds each output.
    let inside = |child: usize, parent: usize| {
        let ((_, cs, ce), (_, ps, pe)) = (&spans[child], &spans[parent]);
        assert!(ps <= cs && ce <= pe, "{} escapes {}: {spans:?}", spans[child].0, spans[parent].0);
    };
    for child in 1..spans.len() {
        inside(child, 0);
    }
    inside(4, 3);
    inside(5, 3);
}

#[test]
fn stats_trace_out_writes_one_json_line_per_recursive_call() {
    let scratch = Scratch::new("trace-out");
    let trace_path = scratch.path("trace.jsonl");
    let stdout = run_stats_on_sample(&scratch, "--trace-out", &trace_path);
    // The `calls` column of the benchmark's row.
    let row = stdout.lines().find(|l| l.starts_with("sample ")).expect("a row for the PLA");
    let calls: usize = row.split_whitespace().nth(1).and_then(|c| c.parse().ok()).expect("calls");
    let text = fs::read_to_string(&trace_path).expect("trace written");
    assert_eq!(text.lines().count(), calls, "one line per recursive call: {text}");
    for line in text.lines() {
        let record = Json::parse(line).expect("every line parses");
        assert_eq!(record.get("benchmark").and_then(Json::as_str), Some("sample"), "{line}");
        assert!(record.get("step").and_then(Json::as_str).is_some(), "{line}");
    }
}

#[test]
fn stats_doctor_writes_the_schema_once_and_name_findings_per_benchmark() {
    let scratch = Scratch::new("doctor");
    let pla_path = scratch.path("sample.pla");
    fs::write(&pla_path, SAMPLE_PLA).expect("write pla");
    let doctor_path = scratch.path("doctor.json");
    let output = Command::new(env!("CARGO_BIN_EXE_stats"))
        .arg("--pla")
        .arg(&pla_path)
        .arg("--doctor")
        .arg(&doctor_path)
        .output()
        .expect("stats runs");
    assert!(output.status.success(), "stats failed: {}", String::from_utf8_lossy(&output.stderr));
    let text = fs::read_to_string(&doctor_path).expect("doctor document written");
    assert_eq!(text.matches("bidecomp-doctor/v2").count(), 1, "one schema tag: {text}");
    let doc = Json::parse(&text).expect("doctor document parses");
    assert_eq!(doc.keys(), ["schema", "benchmarks"]);
    let benchmarks = doc.get("benchmarks").and_then(Json::as_arr).expect("benchmarks array");
    assert_eq!(benchmarks.len(), 1);
    assert_eq!(benchmarks[0].keys(), ["name", "findings"]);
    assert_eq!(benchmarks[0].get("findings").and_then(Json::as_arr).map(|f| f.len()), Some(0));
}

#[test]
fn stats_rejects_bad_flags() {
    let output =
        Command::new(env!("CARGO_BIN_EXE_stats")).arg("--nonsense").output().expect("stats runs");
    assert_eq!(output.status.code(), Some(2));
}

#[test]
fn unwritable_output_paths_exit_1_without_a_panic() {
    let scratch = Scratch::new("unwritable");
    let missing = scratch.path("no-such-dir").join("out.json");
    let pla_path = scratch.path("sample.pla");
    fs::write(&pla_path, SAMPLE_PLA).expect("write pla");
    let report = Command::new(env!("CARGO_BIN_EXE_report"))
        .arg("--small")
        .arg(&missing)
        .output()
        .expect("report runs");
    let stats = Command::new(env!("CARGO_BIN_EXE_stats"))
        .arg("--pla")
        .arg(&pla_path)
        .arg("--chrome-trace")
        .arg(&missing)
        .output()
        .expect("stats runs");
    for (name, output) in [("report", report), ("stats", stats)] {
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{name}: {stderr}");
        assert!(
            stderr.contains(&format!("cannot write {}: ", missing.display())),
            "{name}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{name}: {stderr}");
    }
}

#[test]
fn unreadable_or_malformed_pla_exits_1_without_a_panic() {
    let scratch = Scratch::new("badpla");
    let missing = scratch.path("no-such.pla");
    let malformed = scratch.path("malformed.pla");
    fs::write(&malformed, ".i 2\n.o 1\n1z 1\n.e\n").expect("write pla");
    let reshaped = scratch.path("reshaped.pla");
    fs::write(&reshaped, ".i 4\n.o 1\n1111 1\n.i 3\n.e\n").expect("write pla");
    for (path, expected) in [
        (&missing, format!("cannot read {}: ", missing.display())),
        (&malformed, format!("{}: ", malformed.display())),
        (&reshaped, format!("{}: ", reshaped.display())),
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_stats"))
            .arg("--pla")
            .arg(path)
            .output()
            .expect("stats runs");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{}: {stderr}", path.display());
        assert!(stderr.starts_with(&expected), "{stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");
    }
}

#[test]
fn pla_wider_than_the_bdd_kernel_exits_1_before_the_run() {
    let scratch = Scratch::new("widepla");
    // 4294967296 inputs would need a 103 GB name table if the run began.
    for width in ["300", "4294967296"] {
        let path = scratch.path(&format!("wide{width}.pla"));
        fs::write(&path, format!(".i {width}\n.o 1\n.e\n")).expect("write pla");
        let output = Command::new(env!("CARGO_BIN_EXE_stats"))
            .arg("--pla")
            .arg(&path)
            .output()
            .expect("stats runs");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{width}: {stderr}");
        let expected =
            format!("{}: {width} inputs; the BDD kernel supports at most 256", path.display());
        assert_eq!(stderr.trim_end(), expected);
    }
}

/// A minimal report record.
fn record(name: &str, gates: u64, nodes_allocated: u64) -> Json {
    Json::obj()
        .field("name", name)
        .field("netlist", Json::obj().field("gates", gates).field("cascades", 4u64))
        .field(
            "bdd",
            Json::obj().field("peak_nodes", 321u64).field("nodes_allocated", nodes_allocated),
        )
        .field("mem", Json::obj().field("peak_bytes", 65536u64))
}

/// Wraps one record into a report document.
fn report(record: Json) -> String {
    Json::obj()
        .field("schema", "bidecomp-bench/v6")
        .field("records", Json::Arr(vec![record]))
        .render()
}

/// Runs `diff` on two report documents.
fn diff(tag: &str, baseline: &str, current: &str) -> std::process::Output {
    let scratch = Scratch::new(tag);
    let a = scratch.path("a.json");
    let b = scratch.path("b.json");
    fs::write(&a, baseline).expect("write");
    fs::write(&b, current).expect("write");
    Command::new(env!("CARGO_BIN_EXE_diff")).arg(&a).arg(&b).output().expect("diff runs")
}

#[test]
fn diff_exits_zero_on_identical_reports() {
    let a = report(record("rd73", 40, 5000));
    let output = diff("diff-same", &a, &a);
    assert!(output.status.success(), "identical reports must pass");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("no regressions"), "got: {stdout}");
    assert!(stdout.contains("rd73"));
}

#[test]
fn diff_fails_on_gate_growth() {
    let output =
        diff("diff-gates", &report(record("alu2", 40, 5000)), &report(record("alu2", 41, 5000)));
    assert_eq!(output.status.code(), Some(1), "one extra gate fails");
    assert!(String::from_utf8_lossy(&output.stderr).contains("netlist.gates"));
}

#[test]
fn diff_fails_on_nodes_allocated_growth() {
    let output =
        diff("diff-nodes", &report(record("alu2", 40, 5000)), &report(record("alu2", 40, 5001)));
    assert_eq!(output.status.code(), Some(1), "one extra allocation fails");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("REGRESSION alu2: bdd.nodes_allocated grew"), "got: {stderr}");
}

#[test]
fn diff_fails_when_current_lacks_the_gated_counters() {
    // A current record stripped of `netlist.gates` and
    // `bdd.nodes_allocated`: a missing counter is not a zero.
    let stripped = Json::obj()
        .field("name", "alu2")
        .field("netlist", Json::obj().field("cascades", 4u64))
        .field("bdd", Json::obj().field("peak_nodes", 321u64));
    let output = diff("diff-missing", &report(record("alu2", 40, 5000)), &report(stripped));
    assert_eq!(output.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("netlist.gates is missing"), "got: {stderr}");
    assert!(stderr.contains("bdd.nodes_allocated is missing"), "got: {stderr}");
}

#[test]
fn diff_usage_and_unreadable_inputs_exit_2() {
    let output = Command::new(env!("CARGO_BIN_EXE_diff")).output().expect("diff runs");
    assert_eq!(output.status.code(), Some(2), "missing positionals is a usage error");
    let output = Command::new(env!("CARGO_BIN_EXE_diff"))
        .args(["/nonexistent/a.json", "/nonexistent/b.json"])
        .output()
        .expect("diff runs");
    assert_eq!(output.status.code(), Some(2), "unreadable input is not a regression");
    // The tolerance flags are gone: the gate has no knobs.
    let output = Command::new(env!("CARGO_BIN_EXE_diff"))
        .args(["a.json", "b.json", "--max-time-regress", "400"])
        .output()
        .expect("diff runs");
    assert_eq!(output.status.code(), Some(2), "threshold flags are a usage error");
}
