//! Shared harness for regenerating the paper's evaluation tables.
//!
//! Each binary prints one artifact:
//! * `table2` — BI-DECOMP vs. the SIS-substitute on the Table 2 suite
//!   (ins/outs/gates/exors/area/cascades/delay/time columns).
//! * `table3` — BI-DECOMP vs. the BDS-substitute on the Table 3 suite
//!   (gates/exors/time columns).
//! * `stats` — the §7 instrumentation (weak-decomposition rate, component
//!   reuse rate, inessential-variable rate) over the whole suite.
//! * `report` — the whole suite as one machine-readable JSON document
//!   (`BENCH_bidecomp.json`, see [`report`]).
//! * `diff` — compares two report documents and exits non-zero on
//!   regression (see [`diff`]): the CI perf gate.
//!
//! The benches under `benches/` time the same computations with the
//! dependency-free [`obs::bench`] harness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diff;
pub mod report;

use std::time::Instant;

use bidecomp::{DecompOutcome, Options};
use netlist::Netlist;
use pla::Pla;

/// Reports an output file that cannot be written — `cannot write <path>:
/// <error>` on stderr — and exits with status 1.
pub fn exit_cannot_write(path: &str, err: std::io::Error) -> ! {
    eprintln!("cannot write {path}: {err}");
    std::process::exit(1);
}

/// One row of a comparison table: the §8 measurement columns.
#[derive(Clone, Debug)]
pub struct Row {
    /// Benchmark name.
    pub name: String,
    /// Primary inputs.
    pub ins: usize,
    /// Primary outputs.
    pub outs: usize,
    /// Two-input gates.
    pub gates: usize,
    /// EXOR-family gates among them.
    pub exors: usize,
    /// Logic levels ("cascades").
    pub cascades: usize,
    /// Area under the paper's cost model.
    pub area: f64,
    /// Critical-path delay under the paper's cost model.
    pub delay: f64,
    /// Wall-clock seconds.
    pub time_s: f64,
    /// Did the BDD verifier accept (always true for baselines, which are
    /// correct by construction and cross-checked in their unit tests)?
    pub verified: bool,
}

impl Row {
    fn from_netlist(name: &str, nl: &Netlist, time_s: f64, verified: bool) -> Row {
        let s = nl.stats();
        Row {
            name: name.to_owned(),
            ins: s.inputs,
            outs: s.outputs,
            gates: s.gates,
            exors: s.exors,
            cascades: s.cascades,
            area: s.area,
            delay: s.delay,
            time_s,
            verified,
        }
    }
}

/// Runs BI-DECOMP on a PLA and measures the Table 2 columns.
pub fn run_bidecomp(name: &str, pla: &Pla, options: &Options) -> (Row, DecompOutcome) {
    let outcome = bidecomp::decompose_pla(pla, options);
    // Forensics must be strictly opt-in: a timed run without the flags
    // pays nothing — no trace events, no per-call costs, no analytics,
    // no resource samples.
    if !options.trace {
        assert!(outcome.trace.is_empty(), "tracing disabled but trace events were recorded");
    }
    if !options.telemetry {
        assert!(
            outcome.trace.iter().all(|e| e.cost.is_none()),
            "telemetry disabled but per-call costs were attributed"
        );
        assert!(
            outcome.analytics.is_none() && outcome.timeseries.is_empty(),
            "telemetry disabled but analytics/timeseries were collected"
        );
    }
    let row =
        Row::from_netlist(name, &outcome.netlist, outcome.elapsed.as_secs_f64(), outcome.verified);
    (row, outcome)
}

/// Runs the SIS-substitute baseline.
pub fn run_sis(name: &str, pla: &Pla) -> Row {
    let start = Instant::now();
    let nl = baseline::sis_like(pla);
    Row::from_netlist(name, &nl, start.elapsed().as_secs_f64(), true)
}

/// Runs the BDS-substitute baseline.
pub fn run_bds(name: &str, pla: &Pla) -> Row {
    let start = Instant::now();
    let nl = baseline::bds_like(pla);
    Row::from_netlist(name, &nl, start.elapsed().as_secs_f64(), true)
}

/// Formats the Table 2 header (two systems side by side).
pub fn table2_header() -> String {
    format!(
        "{:8} {:>4} {:>4} | {:>6} {:>6} {:>8} {:>5} {:>7} {:>8} | {:>6} {:>6} {:>8} {:>5} {:>7} {:>8}",
        "name", "ins", "outs", "gates", "exors", "area", "casc", "delay", "time,s",
        "gates", "exors", "area", "casc", "delay", "time,s"
    )
}

/// Formats one Table 2 row: the SIS-substitute columns, then BI-DECOMP's.
pub fn table2_row(sis: &Row, bi: &Row) -> String {
    format!(
        "{:8} {:>4} {:>4} | {:>6} {:>6} {:>8.0} {:>5} {:>7.1} {:>8.3} | {:>6} {:>6} {:>8.0} {:>5} {:>7.1} {:>8.3}",
        bi.name, bi.ins, bi.outs,
        sis.gates, sis.exors, sis.area, sis.cascades, sis.delay, sis.time_s,
        bi.gates, bi.exors, bi.area, bi.cascades, bi.delay, bi.time_s
    )
}

/// Formats the Table 3 header.
pub fn table3_header() -> String {
    format!(
        "{:8} | {:>6} {:>6} {:>8} | {:>6} {:>6} {:>8}",
        "name", "gates", "exors", "time,s", "gates", "exors", "time,s"
    )
}

/// Formats one Table 3 row: BDS-substitute columns, then BI-DECOMP's.
pub fn table3_row(bds: &Row, bi: &Row) -> String {
    format!(
        "{:8} | {:>6} {:>6} {:>8.3} | {:>6} {:>6} {:>8.3}",
        bi.name, bds.gates, bds.exors, bds.time_s, bi.gates, bi.exors, bi.time_s
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_capture_netlist_stats() {
        let b = benchmarks::by_name("rd73").expect("known");
        let (row, outcome) = run_bidecomp("rd73", &b.pla, &Options::default());
        assert!(outcome.verified && row.verified);
        assert_eq!(row.ins, 7);
        assert_eq!(row.outs, 3);
        assert!(row.gates > 0);
        assert!(row.time_s >= 0.0);
    }

    #[test]
    fn baselines_produce_rows() {
        let pla: Pla = ".i 4\n.o 1\n11-- 1\n--11 1\n.e\n".parse().expect("valid");
        let sis = run_sis("t", &pla);
        let bds = run_bds("t", &pla);
        assert_eq!(sis.gates, 3);
        assert_eq!(sis.exors, 0);
        assert!(bds.gates >= 3);
    }

    #[test]
    fn formatting_is_stable() {
        let pla: Pla = ".i 4\n.o 1\n11-- 1\n--11 1\n.e\n".parse().expect("valid");
        let sis = run_sis("t", &pla);
        let (bi, _) = run_bidecomp("t", &pla, &Options::default());
        let line = table2_row(&sis, &bi);
        assert!(line.contains('|'));
        let bds = run_bds("t", &pla);
        assert!(table3_row(&bds, &bi).starts_with('t'));
        assert!(table3_header().contains("exors"));
        assert!(table2_header().contains("casc"));
    }
}
