//! Compares two `BENCH_bidecomp.json` reports and exits non-zero on
//! regression — the CI regression gate.
//!
//! Usage: `diff BASELINE CURRENT`
//!
//! Fails on any growth of a gated counter (`netlist.gates`,
//! `bdd.nodes_allocated`) and on a gated counter or benchmark missing
//! from CURRENT. Both counters are deterministic, so there is no
//! tolerance to set.
//!
//! Exit codes: 0 clean, 1 regression, 2 usage or unreadable input.

use bench::diff::diff_reports;
use obs::json::Json;

fn usage() -> ! {
    eprintln!("usage: diff BASELINE CURRENT");
    std::process::exit(2);
}

fn load(path: &str) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(2);
    });
    Json::parse(&text).unwrap_or_else(|e| {
        eprintln!("{path}: {e}");
        std::process::exit(2);
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [baseline_path, current_path] = args.as_slice() else { usage() };
    if args.iter().any(|a| a.starts_with('-')) {
        usage();
    }

    let baseline = load(baseline_path);
    let current = load(current_path);
    let diff = diff_reports(&baseline, &current).unwrap_or_else(|e| {
        eprintln!("cannot diff: {e}");
        std::process::exit(2);
    });
    println!("{baseline_path} → {current_path}");
    print!("{}", diff.render());
    if diff.has_regressions() {
        eprintln!();
        for line in diff.regressions() {
            eprintln!("REGRESSION {line}");
        }
        std::process::exit(1);
    }
    println!("no regressions");
}
