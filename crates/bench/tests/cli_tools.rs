//! Integration tests driving the compiled `stats`, `report` and `diff`
//! binaries — the acceptance checks for the profiling exporters, the perf
//! gate and the output-path error handling.

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

/// Builds a minimal report document with one record.
fn report(name: &str, time_s: f64, gates: u64) -> String {
    Json::obj()
        .field("schema", "bidecomp-bench/v2")
        .field(
            "records",
            Json::Arr(vec![Json::obj()
                .field("name", name)
                .field("time_s", time_s)
                .field("netlist", Json::obj().field("gates", gates).field("cascades", 4u64))
                .field("bdd", Json::obj().field("peak_nodes", 321u64))
                .field("mem", Json::obj().field("peak_bytes", 65536u64))]),
        )
        .render()
}

#[test]
fn diff_exits_zero_on_identical_reports() {
    let scratch = Scratch::new("diff-same");
    let a = scratch.path("a.json");
    fs::write(&a, report("rd73", 0.5, 40)).expect("write");
    let output =
        Command::new(env!("CARGO_BIN_EXE_diff")).arg(&a).arg(&a).output().expect("diff runs");
    assert!(output.status.success(), "identical reports must pass");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("no regressions"), "got: {stdout}");
    assert!(stdout.contains("rd73"));
}

#[test]
fn diff_fails_on_time_inflation_and_respects_thresholds() {
    let scratch = Scratch::new("diff-time");
    let a = scratch.path("a.json");
    let b = scratch.path("b.json");
    fs::write(&a, report("rd73", 0.5, 40)).expect("write");
    fs::write(&b, report("rd73", 1.0, 40)).expect("write");

    // 2× slower against the default 10% budget: exit 1 and name the cause.
    let output =
        Command::new(env!("CARGO_BIN_EXE_diff")).arg(&a).arg(&b).output().expect("diff runs");
    assert_eq!(output.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("REGRESSION") && stderr.contains("time"), "got: {stderr}");

    // The same delta passes a 150% budget.
    let output = Command::new(env!("CARGO_BIN_EXE_diff"))
        .args([a.to_str().unwrap(), b.to_str().unwrap(), "--max-time-regress", "150"])
        .output()
        .expect("diff runs");
    assert!(output.status.success(), "loose budget must accept +100% time");
}

#[test]
fn diff_fails_on_gate_growth() {
    let scratch = Scratch::new("diff-gates");
    let a = scratch.path("a.json");
    let b = scratch.path("b.json");
    fs::write(&a, report("alu2", 0.5, 40)).expect("write");
    fs::write(&b, report("alu2", 0.5, 41)).expect("write");
    let output =
        Command::new(env!("CARGO_BIN_EXE_diff")).arg(&a).arg(&b).output().expect("diff runs");
    assert_eq!(output.status.code(), Some(1), "one extra gate fails the 0% default");
    assert!(String::from_utf8_lossy(&output.stderr).contains("gates"));
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
}
