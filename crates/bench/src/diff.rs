//! Comparing two `BENCH_bidecomp.json` documents: the perf-regression
//! gate.
//!
//! [`diff_reports`] pairs the records of a baseline and a current report
//! by benchmark name and computes per-benchmark deltas of the columns that
//! matter for the paper's claims: wall-clock time, gate count, logic
//! levels, peak BDD nodes, and peak manager bytes. A configurable
//! [`Thresholds`] decides which deltas count as regressions; the `diff`
//! binary renders the table and exits non-zero when any survive, which is
//! what CI gates on.

use obs::json::Json;

/// Regression thresholds for [`diff_reports`].
#[derive(Clone, Copy, Debug)]
pub struct Thresholds {
    /// Allowed fractional time increase (0.10 = 10%). Times are noisy:
    /// CI passes a much larger value than the local default.
    pub max_time_regress: f64,
    /// Allowed fractional gate-count increase (0.0 = any growth fails).
    /// Gate counts are deterministic, so the default is strict.
    pub max_gates_regress: f64,
    /// Allowed fractional increase of `bdd.nodes_allocated` (fresh
    /// unique-table insertions — the memory-churn dimension of the kernel).
    /// The count is deterministic, so any growth past this budget is a
    /// real change. Skipped when the baseline reports 0 allocations
    /// (pre-v4 baselines lack the counter).
    pub max_nodes_regress: f64,
    /// Benchmarks faster than this (in *both* reports) skip the time
    /// check: sub-threshold runs are dominated by clock noise.
    pub min_time_s: f64,
}

impl Default for Thresholds {
    fn default() -> Self {
        Thresholds {
            max_time_regress: 0.10,
            max_gates_regress: 0.0,
            max_nodes_regress: 0.10,
            min_time_s: 0.01,
        }
    }
}

/// One benchmark's columns from both reports, plus the verdict.
#[derive(Clone, Debug)]
pub struct DiffRow {
    /// Benchmark name (the pairing key).
    pub name: String,
    /// Wall-clock seconds in the baseline / current report.
    pub time: (f64, f64),
    /// Two-input gates.
    pub gates: (f64, f64),
    /// Logic levels (cascades).
    pub levels: (f64, f64),
    /// Peak live BDD nodes.
    pub peak_nodes: (f64, f64),
    /// Fresh unique-table insertions (`bdd.nodes_allocated`; 0 when a
    /// report predates the v4 schema).
    pub nodes_allocated: (f64, f64),
    /// Peak sampled manager bytes (0 when a report predates the `mem`
    /// section).
    pub peak_bytes: (f64, f64),
    /// Human-readable reasons this row regressed (empty = clean).
    pub regressions: Vec<String>,
}

/// The full comparison of two report documents.
#[derive(Clone, Debug, Default)]
pub struct DiffReport {
    /// Paired records, in baseline order.
    pub rows: Vec<DiffRow>,
    /// Benchmarks present only in the baseline (treated as regressions:
    /// coverage must not silently shrink).
    pub only_in_baseline: Vec<String>,
    /// Benchmarks present only in the current report (informational).
    pub only_in_current: Vec<String>,
    /// Non-fatal observations: schema-version mismatches and record
    /// sections unknown to one side. The gate still runs on the columns
    /// both reports share, so a v3 report diffs cleanly against a v2
    /// baseline — with a warning, not a failure.
    pub warnings: Vec<String>,
}

impl DiffReport {
    /// Does anything fail the thresholds?
    pub fn has_regressions(&self) -> bool {
        !self.only_in_baseline.is_empty() || self.rows.iter().any(|r| !r.regressions.is_empty())
    }

    /// All regression messages, one line each.
    pub fn regressions(&self) -> Vec<String> {
        let mut out: Vec<String> = self
            .only_in_baseline
            .iter()
            .map(|n| format!("{n}: present in the baseline but missing from the current report"))
            .collect();
        for row in &self.rows {
            for reason in &row.regressions {
                out.push(format!("{}: {}", row.name, reason));
            }
        }
        out
    }

    /// Renders the delta table (baseline → current, one benchmark per
    /// line, a `!` marker on regressed rows).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:10} {:>8} {:>8} {:>7} | {:>6} {:>6} | {:>4} {:>4} | {:>9} {:>9} | {:>9} {:>9} | {:>9} {:>9}\n",
            "name",
            "time_a,s",
            "time_b,s",
            "Δtime",
            "gates",
            "gates",
            "lvl",
            "lvl",
            "nodes",
            "nodes",
            "alloc",
            "alloc",
            "bytes",
            "bytes",
        ));
        for row in &self.rows {
            let (ta, tb) = row.time;
            let dt = if ta > 0.0 { format!("{:+.0}%", (tb - ta) / ta * 100.0) } else { "-".into() };
            let mark = if row.regressions.is_empty() { ' ' } else { '!' };
            out.push_str(&format!(
                "{:10} {:>8.3} {:>8.3} {:>7} | {:>6} {:>6} | {:>4} {:>4} | {:>9} {:>9} | {:>9} {:>9} | {:>9} {:>9} {}\n",
                row.name,
                ta,
                tb,
                dt,
                row.gates.0,
                row.gates.1,
                row.levels.0,
                row.levels.1,
                row.peak_nodes.0 as u64,
                row.peak_nodes.1 as u64,
                row.nodes_allocated.0 as u64,
                row.nodes_allocated.1 as u64,
                row.peak_bytes.0 as u64,
                row.peak_bytes.1 as u64,
                mark,
            ));
        }
        for name in &self.only_in_baseline {
            out.push_str(&format!("{name:10} missing from the current report !\n"));
        }
        for name in &self.only_in_current {
            out.push_str(&format!("{name:10} new in the current report\n"));
        }
        for warning in &self.warnings {
            out.push_str(&format!("warning: {warning}\n"));
        }
        out
    }
}

/// The comparison columns of one record.
struct Cols {
    time: f64,
    gates: f64,
    levels: f64,
    peak_nodes: f64,
    nodes_allocated: f64,
    peak_bytes: f64,
}

fn num(record: &Json, section: Option<&str>, key: &str) -> f64 {
    let holder = match section {
        Some(s) => match record.get(s) {
            Some(h) => h,
            None => return 0.0,
        },
        None => record,
    };
    holder.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

fn cols(record: &Json) -> Cols {
    Cols {
        time: num(record, None, "time_s"),
        gates: num(record, Some("netlist"), "gates"),
        levels: num(record, Some("netlist"), "cascades"),
        peak_nodes: num(record, Some("bdd"), "peak_nodes"),
        nodes_allocated: num(record, Some("bdd"), "nodes_allocated"),
        peak_bytes: num(record, Some("mem"), "peak_bytes"),
    }
}

fn records(doc: &Json) -> Result<Vec<(String, &Json)>, String> {
    let records = doc
        .get("records")
        .and_then(Json::as_arr)
        .ok_or("document has no records array (not a bench report?)")?;
    records
        .iter()
        .map(|r| {
            let name = r
                .get("name")
                .and_then(Json::as_str)
                .ok_or("record without a name field")?
                .to_owned();
            Ok((name, r))
        })
        .collect()
}

/// Pairs the records of `baseline` and `current` by name and applies the
/// thresholds.
///
/// # Errors
///
/// Returns a message when either document is not a bench report (no
/// `records` array, or records without names). Schema *versions* are not
/// required to match: columns a report lacks compare as 0 and only the
/// thresholded columns can fail the gate.
pub fn diff_reports(
    baseline: &Json,
    current: &Json,
    thresholds: &Thresholds,
) -> Result<DiffReport, String> {
    let base = records(baseline)?;
    let cur = records(current)?;
    let mut report = DiffReport::default();
    let schema_of =
        |doc: &Json| doc.get("schema").and_then(Json::as_str).unwrap_or("(untagged)").to_owned();
    let (base_schema, cur_schema) = (schema_of(baseline), schema_of(current));
    if base_schema != cur_schema {
        report.warnings.push(format!(
            "schema mismatch: baseline is {base_schema}, current is {cur_schema} — \
             sections unknown to either side are ignored by the gate"
        ));
    }
    let mut only_base_keys: Vec<&str> = Vec::new();
    let mut only_cur_keys: Vec<&str> = Vec::new();
    for (name, b_rec) in &base {
        let Some((_, c_rec)) = cur.iter().find(|(n, _)| n == name) else {
            report.only_in_baseline.push(name.clone());
            continue;
        };
        for key in b_rec.keys() {
            if c_rec.get(key).is_none() && !only_base_keys.contains(&key) {
                only_base_keys.push(key);
            }
        }
        for key in c_rec.keys() {
            if b_rec.get(key).is_none() && !only_cur_keys.contains(&key) {
                only_cur_keys.push(key);
            }
        }
        let a = cols(b_rec);
        let b = cols(c_rec);
        let mut regressions = Vec::new();
        if (a.time >= thresholds.min_time_s || b.time >= thresholds.min_time_s)
            && b.time > a.time * (1.0 + thresholds.max_time_regress)
        {
            regressions.push(format!(
                "time {:.3}s → {:.3}s exceeds the +{:.0}% budget",
                a.time,
                b.time,
                thresholds.max_time_regress * 100.0
            ));
        }
        if b.gates > a.gates * (1.0 + thresholds.max_gates_regress) {
            regressions.push(format!(
                "gates {} → {} exceeds the +{:.0}% budget",
                a.gates,
                b.gates,
                thresholds.max_gates_regress * 100.0
            ));
        }
        // Baseline 0 = the counter predates the v4 schema; nothing to
        // compare against.
        if a.nodes_allocated > 0.0
            && b.nodes_allocated > a.nodes_allocated * (1.0 + thresholds.max_nodes_regress)
        {
            regressions.push(format!(
                "nodes_allocated {} → {} exceeds the +{:.0}% budget",
                a.nodes_allocated,
                b.nodes_allocated,
                thresholds.max_nodes_regress * 100.0
            ));
        }
        report.rows.push(DiffRow {
            name: name.clone(),
            time: (a.time, b.time),
            gates: (a.gates, b.gates),
            levels: (a.levels, b.levels),
            peak_nodes: (a.peak_nodes, b.peak_nodes),
            nodes_allocated: (a.nodes_allocated, b.nodes_allocated),
            peak_bytes: (a.peak_bytes, b.peak_bytes),
            regressions,
        });
    }
    for (name, _) in &cur {
        if !base.iter().any(|(n, _)| n == name) {
            report.only_in_current.push(name.clone());
        }
    }
    for key in only_base_keys {
        report.warnings.push(format!(
            "record section `{key}` appears only in the baseline — ignored by the gate"
        ));
    }
    for key in only_cur_keys {
        report.warnings.push(format!(
            "record section `{key}` appears only in the current report — ignored by the gate"
        ));
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(name: &str, time: f64, gates: u64) -> Json {
        record_with_nodes(name, time, gates, 5000)
    }

    fn record_with_nodes(name: &str, time: f64, gates: u64, nodes_allocated: u64) -> Json {
        Json::obj()
            .field("name", name)
            .field("time_s", time)
            .field("netlist", Json::obj().field("gates", gates).field("cascades", 3u64))
            .field(
                "bdd",
                Json::obj().field("peak_nodes", 100u64).field("nodes_allocated", nodes_allocated),
            )
            .field("mem", Json::obj().field("peak_bytes", 4096u64))
    }

    fn doc(records: Vec<Json>) -> Json {
        Json::obj().field("schema", "bidecomp-bench/v2").field("records", Json::Arr(records))
    }

    #[test]
    fn identical_reports_are_clean() {
        let a = doc(vec![record("rd73", 0.5, 40), record("alu2", 1.0, 120)]);
        let diff = diff_reports(&a, &a, &Thresholds::default()).expect("valid docs");
        assert!(!diff.has_regressions());
        assert_eq!(diff.rows.len(), 2);
        assert!(diff.regressions().is_empty());
        let table = diff.render();
        assert!(table.contains("rd73") && table.contains("alu2"));
        assert!(!table.contains('!'), "no regression markers on clean diffs");
    }

    #[test]
    fn time_inflation_past_threshold_regresses() {
        let a = doc(vec![record("rd73", 0.5, 40)]);
        let b = doc(vec![record("rd73", 0.6, 40)]);
        let diff = diff_reports(&a, &b, &Thresholds::default()).expect("valid");
        assert!(diff.has_regressions(), "+20% time against a 10% budget");
        assert!(diff.regressions()[0].contains("time"));
        // A looser budget accepts the same delta.
        let loose = Thresholds { max_time_regress: 0.5, ..Thresholds::default() };
        assert!(!diff_reports(&a, &b, &loose).expect("valid").has_regressions());
    }

    #[test]
    fn sub_floor_times_are_ignored() {
        let a = doc(vec![record("tiny", 0.001, 5)]);
        let b = doc(vec![record("tiny", 0.004, 5)]);
        // 4× slower, but both under the 10 ms floor: noise, not signal.
        assert!(!diff_reports(&a, &b, &Thresholds::default()).expect("valid").has_regressions());
        // Crossing the floor re-arms the check.
        let b = doc(vec![record("tiny", 0.1, 5)]);
        assert!(diff_reports(&a, &b, &Thresholds::default()).expect("valid").has_regressions());
    }

    #[test]
    fn gate_growth_is_strict_by_default() {
        let a = doc(vec![record("rd73", 0.5, 40)]);
        let b = doc(vec![record("rd73", 0.5, 41)]);
        let diff = diff_reports(&a, &b, &Thresholds::default()).expect("valid");
        assert!(diff.has_regressions(), "one extra gate fails the 0% budget");
        assert!(diff.regressions()[0].contains("gates"));
        // Gate *improvements* never fail.
        let b = doc(vec![record("rd73", 0.5, 39)]);
        assert!(!diff_reports(&a, &b, &Thresholds::default()).expect("valid").has_regressions());
    }

    #[test]
    fn node_allocation_growth_past_threshold_regresses() {
        let a = doc(vec![record_with_nodes("rd73", 0.5, 40, 5000)]);
        let b = doc(vec![record_with_nodes("rd73", 0.5, 40, 6000)]);
        let diff = diff_reports(&a, &b, &Thresholds::default()).expect("valid");
        assert!(diff.has_regressions(), "+20% allocations against a 10% budget");
        assert!(diff.regressions()[0].contains("nodes_allocated"));
        assert_eq!(diff.rows[0].nodes_allocated, (5000.0, 6000.0));
        // A generous budget (the CI multi-thread gate) accepts the delta…
        let loose = Thresholds { max_nodes_regress: 5.0, ..Thresholds::default() };
        assert!(!diff_reports(&a, &b, &loose).expect("valid").has_regressions());
        // …improvements never fail…
        let better = doc(vec![record_with_nodes("rd73", 0.5, 40, 4000)]);
        assert!(!diff_reports(&a, &better, &Thresholds::default())
            .expect("valid")
            .has_regressions());
        // …and a pre-v4 baseline (counter absent or 0) skips the check.
        let zero = doc(vec![record_with_nodes("rd73", 0.5, 40, 0)]);
        assert!(!diff_reports(&zero, &b, &Thresholds::default()).expect("valid").has_regressions());
    }

    #[test]
    fn missing_benchmarks_fail_new_ones_do_not() {
        let a = doc(vec![record("rd73", 0.5, 40), record("alu2", 1.0, 120)]);
        let b = doc(vec![record("rd73", 0.5, 40), record("t481", 2.0, 30)]);
        let diff = diff_reports(&a, &b, &Thresholds::default()).expect("valid");
        assert_eq!(diff.only_in_baseline, vec!["alu2"]);
        assert_eq!(diff.only_in_current, vec!["t481"]);
        assert!(diff.has_regressions(), "lost coverage is a regression");
        assert!(diff.render().contains("missing from the current report"));
    }

    #[test]
    fn v1_reports_without_mem_compare_as_zero() {
        let strip = |mut r: Json| {
            if let Json::Obj(fields) = &mut r {
                fields.retain(|(k, _)| k != "mem");
            }
            r
        };
        let a = doc(vec![strip(record("rd73", 0.5, 40))]);
        let b = doc(vec![record("rd73", 0.5, 40)]);
        let diff = diff_reports(&a, &b, &Thresholds::default()).expect("v1 docs still diff");
        assert!(!diff.has_regressions());
        assert_eq!(diff.rows[0].peak_bytes.0, 0.0);
        assert!(diff.rows[0].peak_bytes.1 > 0.0);
    }

    #[test]
    fn newer_schemas_warn_but_still_gate() {
        // A v3 current report (extra analytics/timeseries sections)
        // against a committed v2 baseline: the unknown sections are
        // warned about, the shared columns still gate.
        let a = doc(vec![record("rd73", 0.5, 40)]);
        let mut b = Json::obj()
            .field("schema", "bidecomp-bench/v3")
            .field("obs", Json::obj().field("sink_write_errors", 0u64));
        let extended = record("rd73", 0.5, 40)
            .field("analytics", Json::obj().field("reorders", 0u64))
            .field("timeseries", Json::obj().field("samples", Json::Arr(Vec::new())));
        b = b.field("records", Json::Arr(vec![extended]));
        let diff = diff_reports(&a, &b, &Thresholds::default()).expect("valid docs");
        assert!(!diff.has_regressions(), "unknown sections must not fail the gate");
        assert!(diff.warnings.iter().any(|w| w.contains("schema mismatch")));
        assert!(diff.warnings.iter().any(|w| w.contains("`analytics`")));
        assert!(diff.warnings.iter().any(|w| w.contains("`timeseries`")));
        assert!(diff.render().contains("warning: schema mismatch"));
        // The reverse direction (old current vs new baseline) warns too.
        let diff = diff_reports(&b, &a, &Thresholds::default()).expect("valid docs");
        assert!(!diff.has_regressions());
        assert!(diff.warnings.iter().any(|w| w.contains("only in the baseline")));
        // But a real regression hiding behind the schema skew still fails.
        let b2 = doc(vec![record("rd73", 0.5, 50)]);
        let diff = diff_reports(&a, &b2, &Thresholds::default()).expect("valid docs");
        assert!(diff.has_regressions(), "gate must still fire across schema versions");
    }

    #[test]
    fn non_reports_are_rejected() {
        let junk = Json::obj().field("hello", "world");
        assert!(diff_reports(&junk, &junk, &Thresholds::default()).is_err());
    }
}
