//! Integration tests driving the compiled `stats`, `report` and `diff`
//! binaries — the acceptance checks for the profiling exporters, the
//! regression gate and the output-path error handling.

use std::fs;
use std::path::PathBuf;
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

#[test]
fn stats_chrome_trace_and_flame_match_the_span_tree() {
    let scratch = Scratch::new("stats");
    let pla_path = scratch.path("sample.pla");
    fs::write(&pla_path, SAMPLE_PLA).expect("write pla");
    let trace_path = scratch.path("out.trace.json");
    let flame_path = scratch.path("out.folded");

    let output = Command::new(env!("CARGO_BIN_EXE_stats"))
        .arg("--pla")
        .arg(&pla_path)
        .arg("--chrome-trace")
        .arg(&trace_path)
        .arg("--flame")
        .arg(&flame_path)
        .output()
        .expect("stats runs");
    assert!(output.status.success(), "stats failed: {}", String::from_utf8_lossy(&output.stderr));
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("sample"), "the PLA's file stem names the run: {stdout}");

    // The Chrome trace must be a valid trace_event array mirroring the
    // driver's span tree.
    let text = fs::read_to_string(&trace_path).expect("trace written");
    let trace = Json::parse(&text).expect("trace is valid JSON");
    let events = trace.as_arr().expect("trace_event array form");
    assert!(!events.is_empty());
    let mut names = Vec::new();
    for e in events {
        let name = e.get("name").and_then(Json::as_str).expect("name");
        let ph = e.get("ph").and_then(Json::as_str).expect("ph");
        assert!(matches!(ph, "X" | "i"), "only complete and instant events, got {ph}");
        assert!(e.get("ts").and_then(Json::as_f64).expect("ts") >= 0.0);
        if ph == "X" {
            assert!(e.get("dur").and_then(Json::as_f64).expect("dur") >= 0.0);
            names.push(name.to_owned());
        }
        assert_eq!(e.get("pid").and_then(Json::as_f64), Some(1.0));
        assert_eq!(e.get("tid").and_then(Json::as_f64), Some(1.0));
    }
    for expected in
        ["decompose_pla", "order", "bdd_build", "decompose", "output.f", "output.g", "verify"]
    {
        assert!(names.contains(&expected.to_owned()), "span {expected} missing from {names:?}");
    }
    // The root span comes first and spans the whole array's time range.
    assert_eq!(events[0].get("name").and_then(Json::as_str), Some("decompose_pla"));

    // The collapsed stacks mirror the same tree, rooted at decompose_pla.
    let folded = fs::read_to_string(&flame_path).expect("flame written");
    assert!(folded.lines().count() >= 5, "one line per distinct stack: {folded}");
    for line in folded.lines() {
        assert!(line.starts_with("decompose_pla"), "all stacks share the root: {line}");
        let value = line.rsplit(' ').next().expect("value");
        let _: u128 = value.parse().expect("integer self-time in µs");
    }
    assert!(folded.contains("decompose_pla;decompose;output.f "));
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
        .arg("--flame")
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
