//! The differential fuzzing CLI.
//!
//! Usage: `fuzz [--seed N] [--iters N] [--time-budget SECS]
//! [--replay DIR] [--corpus-out DIR] [--mutate] [--report FILE]`
//!
//! * Default mode generates `--iters` seeded cases and checks each one
//!   against the `boolfn` oracles and the end-to-end pipeline. Any
//!   failure is shrunk to a minimal PLA; with `--corpus-out DIR` the
//!   minimized cases are written there (and the directory's existing
//!   cases seed the mutation generator).
//! * `--replay DIR` checks every `.pla` file in `DIR` instead of
//!   generating — the fast regression gate CI runs on the committed
//!   corpus.
//! * `--mutate` enables the deliberate Theorem 1 mutation in
//!   `bidecomp::check` — the harness self-check: a run with this flag
//!   must find counterexamples.
//! * `--report FILE` writes a machine-readable JSON summary (schema
//!   `fuzz-report-v2`).
//!
//! Exit codes: 0 clean, 1 failures found, 2 usage error.

use std::path::PathBuf;
use std::time::Duration;

use fuzz::{corpus, replay, run, FuzzConfig, FuzzReport};
use obs::json::Json;

struct Args {
    seed: u64,
    iters: u64,
    time_budget: Option<Duration>,
    replay_dir: Option<PathBuf>,
    corpus_out: Option<PathBuf>,
    mutate: bool,
    report: Option<PathBuf>,
}

fn usage() -> ! {
    eprintln!(
        "usage: fuzz [--seed N] [--iters N] [--time-budget SECS] \
         [--replay DIR] [--corpus-out DIR] [--mutate] [--report FILE]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        seed: 1,
        iters: 500,
        time_budget: None,
        replay_dir: None,
        corpus_out: None,
        mutate: false,
        report: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--mutate" {
            args.mutate = true;
            continue;
        }
        let Some(value) = it.next() else { usage() };
        match flag.as_str() {
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| usage()),
            "--iters" => args.iters = value.parse().unwrap_or_else(|_| usage()),
            "--time-budget" => {
                let secs: f64 = value.parse().unwrap_or_else(|_| usage());
                if !secs.is_finite() || secs < 0.0 {
                    usage();
                }
                args.time_budget = Some(Duration::from_secs_f64(secs));
            }
            "--replay" => args.replay_dir = Some(PathBuf::from(value)),
            "--corpus-out" => args.corpus_out = Some(PathBuf::from(value)),
            "--report" => args.report = Some(PathBuf::from(value)),
            _ => usage(),
        }
    }
    args
}

fn print_failures(report: &FuzzReport) {
    for failure in &report.failures {
        eprintln!(
            "FAIL case {} ({}): [{}] {}",
            failure.case_index, failure.mode, failure.kind, failure.detail
        );
        eprintln!(
            "  minimized to {} cubes / {} inputs / {} outputs in {} shrink checks:",
            failure.minimized.cubes().len(),
            failure.minimized.num_inputs(),
            failure.minimized.num_outputs(),
            failure.shrink_checks
        );
        for line in failure.minimized.to_string().lines() {
            eprintln!("    {line}");
        }
    }
}

fn report_json(report: &FuzzReport, args: &Args, mode: &str) -> Json {
    let failures: Vec<Json> = report
        .failures
        .iter()
        .map(|f| {
            Json::obj()
                .field("case_index", f.case_index)
                .field("mode", f.mode.as_str())
                .field("kind", f.kind)
                .field("detail", f.detail.as_str())
                .field("minimized_cubes", f.minimized.cubes().len())
                .field("shrink_checks", f.shrink_checks)
        })
        .collect();
    Json::obj()
        .field("schema", "fuzz-report-v2")
        .field("mode", mode)
        .field("seed", args.seed)
        .field("mutate", args.mutate)
        .field("cases", report.cases)
        .field("operator_checks", report.operator_checks)
        .field("elapsed_ms", report.elapsed.as_secs_f64() * 1e3)
        .field("failures", failures)
}

fn main() {
    let args = parse_args();
    if args.mutate {
        // The self-check mode: prove the harness finds the planted bug.
        bidecomp::check::set_or_check_mutation(true);
        // The planted bug trips debug assertions inside the decomposer;
        // the harness treats panics as failures, so keep stderr quiet.
        std::panic::set_hook(Box::new(|_| {}));
    }

    let mut cfg = FuzzConfig {
        seed: args.seed,
        iters: args.iters,
        time_budget: args.time_budget,
        ..FuzzConfig::default()
    };

    let (report, mode) = match &args.replay_dir {
        Some(dir) => {
            let cases = corpus::load_dir(dir)
                .unwrap_or_else(|e| panic!("cannot read corpus {}: {e}", dir.display()));
            println!("replaying {} corpus cases from {}", cases.len(), dir.display());
            (replay(&cases, &cfg), "replay")
        }
        None => {
            if let Some(dir) = &args.corpus_out {
                cfg.pool = corpus::load_dir(dir)
                    .unwrap_or_else(|e| panic!("cannot read corpus {}: {e}", dir.display()))
                    .into_iter()
                    .map(|(_, pla)| pla)
                    .collect();
            }
            (run(&cfg), "fuzz")
        }
    };
    if args.mutate {
        let _ = std::panic::take_hook();
        bidecomp::check::set_or_check_mutation(false);
    }

    print_failures(&report);
    if let Some(dir) = &args.corpus_out {
        for failure in &report.failures {
            match corpus::save_case(dir, failure.kind, &failure.minimized) {
                Ok(Some(path)) => eprintln!("saved {}", path.display()),
                Ok(None) => eprintln!("duplicate of an existing corpus case, not saved"),
                Err(e) => eprintln!("cannot save into {}: {e}", dir.display()),
            }
        }
    }
    println!(
        "{mode}: {} cases, {} oracle checks, {} failures (seed {}) in {:.2}s",
        report.cases,
        report.operator_checks,
        report.failures.len(),
        args.seed,
        report.elapsed.as_secs_f64()
    );
    if let Some(path) = &args.report {
        let json = report_json(&report, &args, mode).render();
        std::fs::write(path, json + "\n")
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
        eprintln!("wrote {}", path.display());
    }
    std::process::exit(if report.clean() { 0 } else { 1 });
}
