//! `bdbench` — run one workload and print its metrics.
//!
//! ```text
//! bdbench --workload <deep|wide|random-dc> --seed <n> --seconds <s> --trace <0|1>
//!         [--draw-seed <n>] [--out-dir <dir>]
//! ```
//!
//! `--seed` orders the PLAs within a pass and picks the oracle's sampled
//! vectors. `--draw-seed` chooses `random-dc`'s PLAs; it defaults to
//! `DEFAULT_DRAW_SEED`, and `HELD_OUT_DRAW_SEED` is kept for re-checking
//! claims.
//!
//! Prints one human-readable line per metric, then, as the last line of
//! standard output, one JSON object with the keys `correct`, `attempted`,
//! `failed` and `metrics`. Failures and warnings go to standard error.
//! Exits 0 when a result was printed and 2 on a usage error.

use std::path::PathBuf;
use std::process::ExitCode;

use bdbench::metrics::result_json;
use bdbench::workload::DEFAULT_DRAW_SEED;
use bdbench::{run, Config, Workload};

/// Where spans and the determinism record go, relative to the working
/// directory, unless `--out-dir` says otherwise.
const DEFAULT_OUT_DIR: &str = ".bench_out";

const USAGE: &str = "usage: bdbench --workload <deep|wide|random-dc> --seed <n> \
                     --seconds <s> --trace <0|1> [--draw-seed <n>] [--out-dir <dir>]";

fn parse_args(args: &[String]) -> Result<Config, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut draw_seed = DEFAULT_DRAW_SEED;
    let mut out_dir = PathBuf::from(DEFAULT_OUT_DIR);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            "--draw-seed" => {
                draw_seed = value.parse::<u64>().map_err(|e| format!("--draw-seed: {e}"))?
            }
            "--out-dir" => out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Config {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        draw_seed,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out_dir,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = match parse_args(&args) {
        Ok(config) => config,
        Err(e) => {
            eprintln!("bdbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = run(&config);
    for msg in &report.messages {
        eprintln!("bdbench: {msg}");
    }
    if let Some(path) = &report.trace_file {
        eprintln!("bdbench: spans written to {}", path.display());
    }
    let draw = if config.workload.is_drawn() {
        format!(" draw {}", config.draw_seed)
    } else {
        String::new()
    };
    println!(
        "# {} seed {}{draw} ({}): {} of {} outputs failed",
        config.workload.name(),
        config.seed,
        if config.trace { "traced run, per-layer metrics" } else { "end-to-end metrics" },
        report.failed,
        report.attempted
    );
    for m in &report.metrics {
        let note = if m.note.is_empty() { String::new() } else { format!("  ({})", m.note) };
        println!("{:<30} {:>16} {}{note}", m.name, format!("{:.6}", m.value), m.unit);
    }
    let correct = report.failed == 0;
    println!("{}", result_json(correct, report.attempted, report.failed, &report.metrics).render());
    ExitCode::SUCCESS
}
