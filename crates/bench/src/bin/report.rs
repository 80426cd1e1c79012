//! Runs the benchmark suite and writes `BENCH_bidecomp.json`: one record
//! per benchmark with the Table 2 netlist columns, BDD op/GC counters,
//! memory footprint, cache analytics and the §7 rates — counters only,
//! no wall time. Each benchmark is also run past the doctor; findings are
//! echoed to stderr so a slow report run explains itself.
//!
//! Usage: `report [--small] [OUTPUT]` (default `BENCH_bidecomp.json`).
//! `--small` runs the quick subset (`benchmarks::small()`) — the set the CI
//! perf gate regenerates on every push.

use std::fs::File;
use std::io::BufWriter;

use bench::exit_cannot_write;
use bench::report::{record_from_outcome, report_document, write_report};
use bidecomp::doctor::diagnose;
use bidecomp::Options;

fn main() {
    let mut small = false;
    let mut path = "BENCH_bidecomp.json".to_owned();
    let usage = || -> ! {
        eprintln!("usage: report [--small] [OUTPUT]");
        std::process::exit(2);
    };
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--small" => small = true,
            other if !other.starts_with('-') => path = other.to_owned(),
            _ => usage(),
        }
    }
    // Open the output first, so an unwritable path fails before the run.
    let file = File::create(&path).unwrap_or_else(|e| exit_cannot_write(&path, e));
    let suite = if small { benchmarks::small() } else { benchmarks::all() };
    let mut records = Vec::new();
    for b in suite {
        // Telemetry on, as bench_record does: records carry the kernel
        // analytics.
        let options = Options { telemetry: true, ..Options::default() };
        let outcome = bidecomp::decompose_pla(&b.pla, &options);
        let record = record_from_outcome(b.name, &outcome);
        for finding in &diagnose(&outcome).findings {
            eprintln!("{}: {}: {}", b.name, finding.kind, finding.message);
        }
        println!(
            "{:8} {:>6} gates {:>9} nodes allocated",
            b.name,
            outcome.netlist.stats().gates,
            outcome.op_stats.nodes_allocated()
        );
        records.push(record);
    }
    let document = report_document(records);
    write_report(&document, BufWriter::new(file)).unwrap_or_else(|e| exit_cannot_write(&path, e));
    println!("wrote {path}");
}
