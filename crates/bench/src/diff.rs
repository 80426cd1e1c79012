//! Comparing two `BENCH_bidecomp.json` documents: the regression gate.
//!
//! [`diff_reports`] pairs the records of a baseline and a current report
//! by benchmark name and lines up the columns that matter for the paper's
//! claims: gate count, logic levels, peak BDD nodes, node allocations and
//! peak manager bytes. Every one of them is a deterministic counter, so
//! the gate needs no tolerance: any growth of a [`GATED`] counter, or a
//! gated counter missing from the current report, is a regression. The
//! `diff` binary renders the table and exits non-zero when any survive,
//! which is what CI gates on. Wall time is not compared: bdbench measures
//! it.

use obs::json::Json;

/// The `(section, key)` counters the gate fails on when they grow.
pub const GATED: [(&str, &str); 2] = [("netlist", "gates"), ("bdd", "nodes_allocated")];

/// One benchmark's columns from both reports, plus the verdict.
#[derive(Clone, Debug)]
pub struct DiffRow {
    /// Benchmark name (the pairing key).
    pub name: String,
    /// Two-input gates.
    pub gates: (f64, f64),
    /// Logic levels (cascades).
    pub levels: (f64, f64),
    /// Peak live BDD nodes.
    pub peak_nodes: (f64, f64),
    /// Fresh unique-table insertions (`bdd.nodes_allocated`; 0 when a
    /// report lacks the counter).
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
    /// Does anything fail the gate?
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
            "{:10} {:>6} {:>6} | {:>4} {:>4} | {:>9} {:>9} | {:>9} {:>9} | {:>9} {:>9}\n",
            "name",
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
            let mark = if row.regressions.is_empty() { ' ' } else { '!' };
            out.push_str(&format!(
                "{:10} {:>6} {:>6} | {:>4} {:>4} | {:>9} {:>9} | {:>9} {:>9} | {:>9} {:>9} {}\n",
                row.name,
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

/// The `section.key` counter of a record, `None` when it is absent.
fn counter(record: &Json, section: &str, key: &str) -> Option<f64> {
    record.get(section)?.get(key)?.as_f64()
}

/// Both reports' values of one column, absent read as 0 (display only).
fn pair(a: &Json, b: &Json, section: &str, key: &str) -> (f64, f64) {
    let value = |r| counter(r, section, key).unwrap_or(0.0);
    (value(a), value(b))
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
/// gate.
///
/// # Errors
///
/// Returns a message when either document is not a bench report (no
/// `records` array, or records without names). Schema *versions* are not
/// required to match: only the [`GATED`] counters can fail the gate, and
/// one the baseline lacks is not compared.
pub fn diff_reports(baseline: &Json, current: &Json) -> Result<DiffReport, String> {
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
        let mut regressions = Vec::new();
        for (section, key) in GATED {
            match (counter(b_rec, section, key), counter(c_rec, section, key)) {
                (_, None) => regressions.push(format!("{section}.{key} is missing")),
                (Some(a), Some(b)) if b > a => {
                    regressions.push(format!("{section}.{key} grew {a} → {b}"));
                }
                _ => {}
            }
        }
        report.rows.push(DiffRow {
            name: name.clone(),
            gates: pair(b_rec, c_rec, "netlist", "gates"),
            levels: pair(b_rec, c_rec, "netlist", "cascades"),
            peak_nodes: pair(b_rec, c_rec, "bdd", "peak_nodes"),
            nodes_allocated: pair(b_rec, c_rec, "bdd", "nodes_allocated"),
            peak_bytes: pair(b_rec, c_rec, "mem", "peak_bytes"),
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

    fn record(name: &str, gates: u64) -> Json {
        record_with_nodes(name, gates, 5000)
    }

    fn record_with_nodes(name: &str, gates: u64, nodes_allocated: u64) -> Json {
        Json::obj()
            .field("name", name)
            .field("netlist", Json::obj().field("gates", gates).field("cascades", 3u64))
            .field(
                "bdd",
                Json::obj().field("peak_nodes", 100u64).field("nodes_allocated", nodes_allocated),
            )
            .field("mem", Json::obj().field("peak_bytes", 4096u64))
    }

    fn doc(records: Vec<Json>) -> Json {
        Json::obj().field("schema", "bidecomp-bench/v6").field("records", Json::Arr(records))
    }

    /// `r` without its `section`.
    fn strip(mut r: Json, section: &str) -> Json {
        if let Json::Obj(fields) = &mut r {
            fields.retain(|(k, _)| k != section);
        }
        r
    }

    /// A record whose `bdd` section predates `nodes_allocated`.
    fn record_without_allocations(name: &str, gates: u64) -> Json {
        strip(record(name, gates), "bdd").field("bdd", Json::obj().field("peak_nodes", 100u64))
    }

    #[test]
    fn identical_reports_are_clean() {
        let a = doc(vec![record("rd73", 40), record("alu2", 120)]);
        let diff = diff_reports(&a, &a).expect("valid docs");
        assert!(!diff.has_regressions());
        assert_eq!(diff.rows.len(), 2);
        assert!(diff.regressions().is_empty());
        let table = diff.render();
        assert!(table.contains("rd73") && table.contains("alu2"));
        assert!(!table.contains('!'), "no regression markers on clean diffs");
    }

    #[test]
    fn any_gate_growth_fails() {
        let a = doc(vec![record("rd73", 40)]);
        let b = doc(vec![record("rd73", 41)]);
        let diff = diff_reports(&a, &b).expect("valid");
        assert!(diff.has_regressions(), "one extra gate fails");
        assert!(diff.regressions()[0].contains("netlist.gates grew 40 → 41"));
        // Gate *improvements* never fail.
        let b = doc(vec![record("rd73", 39)]);
        assert!(!diff_reports(&a, &b).expect("valid").has_regressions());
    }

    #[test]
    fn any_node_allocation_growth_fails() {
        let a = doc(vec![record_with_nodes("rd73", 40, 5000)]);
        let b = doc(vec![record_with_nodes("rd73", 40, 5001)]);
        let diff = diff_reports(&a, &b).expect("valid");
        assert!(diff.has_regressions(), "one extra allocation fails");
        assert!(diff.regressions()[0].contains("bdd.nodes_allocated"));
        assert_eq!(diff.rows[0].nodes_allocated, (5000.0, 5001.0));
        // Improvements never fail…
        let better = doc(vec![record_with_nodes("rd73", 40, 4000)]);
        assert!(!diff_reports(&a, &better).expect("valid").has_regressions());
        // …and a baseline that predates the counter (v1-v3) skips it.
        let old = doc(vec![record_without_allocations("rd73", 40)]);
        assert!(!diff_reports(&old, &b).expect("valid").has_regressions());
    }

    #[test]
    fn gated_counters_missing_from_current_fail() {
        let a = doc(vec![record("rd73", 40)]);
        let b = doc(vec![record_without_allocations("rd73", 40)]);
        let diff = diff_reports(&a, &b).expect("valid");
        assert_eq!(diff.regressions(), vec!["rd73: bdd.nodes_allocated is missing"]);
        let b = doc(vec![strip(record("rd73", 40), "netlist")]);
        let diff = diff_reports(&a, &b).expect("valid");
        assert_eq!(diff.regressions(), vec!["rd73: netlist.gates is missing"]);
    }

    #[test]
    fn missing_benchmarks_fail_new_ones_do_not() {
        let a = doc(vec![record("rd73", 40), record("alu2", 120)]);
        let b = doc(vec![record("rd73", 40), record("t481", 30)]);
        let diff = diff_reports(&a, &b).expect("valid");
        assert_eq!(diff.only_in_baseline, vec!["alu2"]);
        assert_eq!(diff.only_in_current, vec!["t481"]);
        assert!(diff.has_regressions(), "lost coverage is a regression");
        assert!(diff.render().contains("missing from the current report"));
    }

    #[test]
    fn v1_reports_without_mem_compare_as_zero() {
        let a = doc(vec![strip(record("rd73", 40), "mem")]);
        let b = doc(vec![record("rd73", 40)]);
        let diff = diff_reports(&a, &b).expect("v1 docs still diff");
        assert!(!diff.has_regressions());
        assert_eq!(diff.rows[0].peak_bytes.0, 0.0);
        assert!(diff.rows[0].peak_bytes.1 > 0.0);
    }

    #[test]
    fn schema_skew_warns_but_still_gates() {
        // A v5 baseline (with its clock sections) against a v6 current
        // report: the sections only one side has are warned about, the
        // gated counters still gate.
        let old = Json::obj().field("schema", "bidecomp-bench/v5").field(
            "records",
            Json::Arr(vec![record("rd73", 40)
                .field("time_s", 0.5)
                .field("timeseries", Json::obj().field("samples", Json::Arr(Vec::new())))]),
        );
        let a = doc(vec![record("rd73", 40)]);
        let diff = diff_reports(&old, &a).expect("valid docs");
        assert!(!diff.has_regressions(), "unknown sections must not fail the gate");
        assert!(diff.warnings.iter().any(|w| w.contains("schema mismatch")));
        assert!(diff.warnings.iter().any(|w| w.contains("`time_s`")));
        assert!(diff.warnings.iter().any(|w| w.contains("`timeseries`")));
        assert!(diff.render().contains("warning: schema mismatch"));
        // The reverse direction warns too.
        let diff = diff_reports(&a, &old).expect("valid docs");
        assert!(!diff.has_regressions());
        assert!(diff.warnings.iter().any(|w| w.contains("only in the current report")));
        // But a real regression hiding behind the schema skew still fails.
        let b2 = doc(vec![record("rd73", 50)]);
        let diff = diff_reports(&old, &b2).expect("valid docs");
        assert!(diff.has_regressions(), "gate must still fire across schema versions");
    }

    #[test]
    fn non_reports_are_rejected() {
        let junk = Json::obj().field("hello", "world");
        assert!(diff_reports(&junk, &junk).is_err());
    }
}
