//! Reproduces the §7 instrumentation claims: the rates of weak
//! decompositions, component reuse (cache hits) and inessential variables
//! across the benchmark suite.
//!
//! Usage: `stats [--trace-out FILE] [--chrome-trace FILE] [--flame FILE]
//! [--doctor FILE] [--tree-dot FILE] [--small] [--pla FILE]`
//!
//! * `--trace-out` streams every benchmark's decomposition trace to
//!   `FILE` as JSONL (one `benchmark` marker point per benchmark, then
//!   one `trace` point per recursive call).
//! * `--chrome-trace` writes the run's span tree as Chrome `trace_event`
//!   JSON — load it in `chrome://tracing` or Perfetto.
//! * `--flame` writes the span tree as collapsed stacks for
//!   `flamegraph.pl` / speedscope.
//! * `--doctor` runs the doctor over every benchmark and writes one
//!   `bidecomp-doctor/v2` document: the schema tag once, then a
//!   `{name, findings}` entry per benchmark.
//! * `--tree-dot` writes every benchmark's cost-annotated decomposition
//!   tree as Graphviz DOT (one cluster per benchmark).
//! * `--small` runs the quick subset (`benchmarks::small()`).
//! * `--pla` runs a single PLA file instead of the built-in suite.
//!
//! The process exits 1 when any netlist fails verification (the CI
//! gate).

use std::fs::File;
use std::io::{BufWriter, Write as _};

use bench::exit_cannot_write;
use bidecomp::doctor::{diagnose, Finding, DOCTOR_SCHEMA};
use bidecomp::trace::tree::{render_dot_clusters, DecompTree};
use bidecomp::{Options, Stats};
use obs::json::Json;
use obs::profile::{Profile, ProfileSink};
use obs::report::{pct, pct2};
use obs::{Event, JsonlSink, Recorder, Sink as _};
use pla::Pla;

#[derive(Default)]
struct Args {
    trace_out: Option<String>,
    chrome_trace: Option<String>,
    flame: Option<String>,
    doctor: Option<String>,
    tree_dot: Option<String>,
    small: bool,
    pla: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: stats [--trace-out FILE] [--chrome-trace FILE] [--flame FILE] \
         [--doctor FILE] [--tree-dot FILE] [--small] [--pla FILE]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let slot = match flag.as_str() {
            "--trace-out" => &mut args.trace_out,
            "--chrome-trace" => &mut args.chrome_trace,
            "--flame" => &mut args.flame,
            "--doctor" => &mut args.doctor,
            "--tree-dot" => &mut args.tree_dot,
            "--small" => {
                args.small = true;
                continue;
            }
            "--pla" => &mut args.pla,
            _ => usage(),
        };
        match it.next() {
            Some(value) => *slot = Some(value),
            None => usage(),
        }
    }
    args
}

/// Reports an unusable input on stderr and exits with status 1.
fn exit_with(message: &str) -> ! {
    eprintln!("{message}");
    std::process::exit(1);
}

fn write_file(path: &str, contents: &str) {
    std::fs::write(path, contents).unwrap_or_else(|e| exit_cannot_write(path, e));
    eprintln!("wrote {path}");
}

fn main() {
    let args = parse_args();
    let mut trace_sink = args.trace_out.as_ref().map(|path| {
        let file = File::create(path).unwrap_or_else(|e| exit_cannot_write(path, e));
        JsonlSink::new(BufWriter::new(file))
    });
    let sink_errors = trace_sink.as_ref().map(|sink| sink.write_errors());
    // The cost-annotated tree needs the trace and telemetry (costs).
    let options = Options {
        trace: args.trace_out.is_some() || args.tree_dot.is_some(),
        telemetry: args.tree_dot.is_some(),
        ..Options::default()
    };

    // The profile exporters share one recorder: each benchmark contributes
    // one `decompose_pla` root to the span forest.
    let profiling = args.chrome_trace.is_some() || args.flame.is_some();
    let profile_sink = profiling.then(ProfileSink::new);
    let recorder = profile_sink.as_ref().map(|sink| {
        let rec = Recorder::new();
        rec.add_sink(Box::new(sink.clone()));
        rec
    });

    let suite: Vec<(String, Pla)> = match &args.pla {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|e| exit_with(&format!("cannot read {path}: {e}")));
            let pla: Pla = text.parse().unwrap_or_else(|e| exit_with(&format!("{path}: {e}")));
            let name = std::path::Path::new(path)
                .file_stem()
                .map_or_else(|| path.clone(), |s| s.to_string_lossy().into_owned());
            vec![(name, pla)]
        }
        None if args.small => {
            benchmarks::small().into_iter().map(|b| (b.name.to_owned(), b.pla)).collect()
        }
        None => benchmarks::all().into_iter().map(|b| (b.name.to_owned(), b.pla)).collect(),
    };

    println!("Per-benchmark decomposition statistics (paper §7):");
    println!(
        "{:8} {:>7} {:>9} {:>9} {:>11} {:>12}",
        "name", "calls", "weak%", "cache%", "inessent.%", "shannon"
    );
    let mut merged = Stats::default();
    let mut doctor_records: Vec<Json> = Vec::new();
    let mut unverified = 0usize;
    let mut trees: Vec<(String, DecompTree)> = Vec::new();
    for (name, pla) in &suite {
        let outcome = bidecomp::decompose_pla_with_recorder(pla, &options, recorder.clone());
        let s = outcome.stats;
        println!(
            "{:8} {:>7} {:>9} {:>9} {:>11} {:>12}",
            name,
            s.calls,
            pct(s.weak_rate()),
            pct(s.cache_hit_rate()),
            pct2(s.inessential_rate()),
            s.shannon
        );
        merged.merge(&s);
        if !outcome.verified {
            eprintln!("{name}: the netlist does not match its specification");
            unverified += 1;
        }
        if let Some(sink) = &mut trace_sink {
            sink.accept(&Event::Point {
                name: "benchmark".to_owned(),
                fields: Json::obj().field("name", name.as_str()),
            });
            for event in &outcome.trace {
                sink.accept(&event.to_point());
            }
        }
        if args.doctor.is_some() {
            let report = diagnose(&outcome);
            for finding in &report.findings {
                eprintln!("{name}: {}: {}", finding.kind, finding.message);
            }
            let findings = report.findings.iter().map(Finding::to_json).collect();
            doctor_records.push(
                Json::obj().field("name", name.as_str()).field("findings", Json::Arr(findings)),
            );
        }
        if args.tree_dot.is_some() {
            trees.push((name.clone(), DecompTree::from_trace(&outcome.trace)));
        }
    }
    if let Some(sink) = trace_sink {
        let path = args.trace_out.expect("set together with the sink");
        sink.into_inner().flush().unwrap_or_else(|e| exit_cannot_write(&path, e));
        let errors = sink_errors.map_or(0, |e| e.get());
        if errors > 0 {
            eprintln!("warning: {errors} trace line(s) were lost to sink write errors ({path})");
        }
        eprintln!("trace written to {path}");
    }
    if let Some(sink) = &profile_sink {
        let profile = Profile::from_events(&sink.events());
        if let Some(path) = &args.chrome_trace {
            write_file(path, &profile.chrome_trace().render());
        }
        if let Some(path) = &args.flame {
            write_file(path, &profile.collapsed_stacks());
        }
    }
    if let Some(path) = &args.doctor {
        let document = Json::obj()
            .field("schema", DOCTOR_SCHEMA)
            .field("benchmarks", Json::Arr(doctor_records));
        write_file(path, &document.render());
    }
    if let Some(path) = &args.tree_dot {
        write_file(path, &render_dot_clusters(&trees, true));
    }
    println!();
    println!("Suite totals:\n{merged}");
    println!();
    println!("Paper's claims: weak in 20-30% of calls; up to 20% component reuse;");
    println!("inessential variables in <1% of calls.");
    if unverified > 0 {
        eprintln!("{unverified} netlist(s) failed verification — failing");
        std::process::exit(1);
    }
}
