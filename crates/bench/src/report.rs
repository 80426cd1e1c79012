//! Machine-readable run reports: `BENCH_bidecomp.json`.
//!
//! The `report` binary runs the benchmark suite and writes one JSON
//! document with a record per benchmark — the Table 2 netlist columns plus
//! the counters the text tables do not show: BDD operation and GC
//! counters, the manager's memory footprint, cache analytics, and the
//! §7 rates (weak decomposition, component reuse, inessential variables).
//! Records carry no clock: every number is deterministic for a given
//! input, so two reports diff exactly (wall time is bdbench's job). The
//! schema is versioned ([`REPORT_SCHEMA`]) and covered by a golden test so
//! downstream tooling can diff reports across revisions.

use std::io::{self, Write};

use bidecomp::{DecompOutcome, Options};
use obs::json::Json;
use pla::Pla;

/// Schema identifier stamped on every report document.
///
/// v2 added the `percentiles` (per-output / per-BDD-op latency) and `mem`
/// (manager heap footprint) sections between `bdd` and `decomp`. v3 added
/// per-record `analytics` (unique-table probe distribution, per-op
/// computed-cache hit rates, component-cache reuse, and a reorder count
/// and a GC log that v6 and v7 dropped) and `timeseries` (the background
/// resource sampler) sections, plus a top-level `obs` section with the
/// trace-sink write-error count.
/// v4 added the `bdd.nodes_allocated` / `bdd.cache_evictions` counters of
/// the kernel-grade manager (and a per-record `threads` field). v5 drops
/// `threads`: decomposition is always serial. v6 drops every clock:
/// `time_s`, `phases`, `bdd.gc_time_s`, `percentiles`, `timeseries`,
/// `analytics.reorders` and the GC samples' `elapsed_ns`. v7 drops the GC
/// sample log (`analytics.gc`), the always-zero top-level `obs` section
/// and the component cache's copies of the `decomp` hit counts, and adds
/// `bdd.gc_nodes_before`.
pub const REPORT_SCHEMA: &str = "bidecomp-bench/v7";

/// Runs BI-DECOMP on one benchmark (with telemetry on, so the
/// recursion-depth histogram is populated) and builds its report record.
pub fn bench_record(name: &str, pla: &Pla, options: &Options) -> Json {
    let options = Options { telemetry: true, ..*options };
    let outcome = bidecomp::decompose_pla(pla, &options);
    record_from_outcome(name, &outcome)
}

/// Builds the report record of an already-computed outcome.
pub fn record_from_outcome(name: &str, outcome: &DecompOutcome) -> Json {
    let op = outcome.op_stats;
    let d = &outcome.stats;
    let histogram: Vec<Json> = outcome.depth_histogram.iter().map(|&n| Json::from(n)).collect();
    Json::obj()
        .field("name", name)
        .field("verified", outcome.verified)
        .field("netlist", outcome.netlist.stats().to_json())
        .field(
            "bdd",
            Json::obj()
                .field("peak_nodes", outcome.bdd_nodes)
                .field("mk_calls", op.mk_calls)
                .field("unique_hits", op.unique_hits)
                .field("nodes_allocated", op.nodes_allocated())
                .field("apply_steps", op.apply_steps)
                .field("cache_lookups", op.cache_lookups)
                .field("cache_hits", op.cache_hits)
                .field("cache_hit_rate", op.cache_hit_rate())
                .field("cache_evictions", op.cache_evictions)
                .field("gc_runs", op.gc_runs)
                .field("gc_nodes_reclaimed", op.gc_nodes_reclaimed)
                .field("gc_nodes_before", op.gc_nodes_before),
        )
        .field("mem", outcome.mem.to_json())
        .field(
            "analytics",
            match &outcome.analytics {
                Some(a) => a.to_json().field("component_cache", outcome.component_cache.to_json()),
                None => Json::Null,
            },
        )
        .field(
            "decomp",
            Json::obj()
                .field("calls", d.calls)
                .field("cache_hits", d.cache_hits + d.cache_hits_complement)
                .field("terminal_cases", d.terminal_cases)
                .field("strong_or", d.strong_or)
                .field("strong_and", d.strong_and)
                .field("strong_exor", d.strong_exor)
                .field("weak", d.weak)
                .field("shannon", d.shannon)
                .field("weak_rate", d.weak_rate())
                .field("cache_hit_rate", d.cache_hit_rate())
                .field("inessential_rate", d.inessential_rate())
                .field("max_depth", outcome.depth_histogram.len())
                .field("depth_histogram", histogram),
        )
}

/// Wraps records into the versioned report document.
pub fn report_document(records: Vec<Json>) -> Json {
    Json::obj().field("schema", REPORT_SCHEMA).field("records", records)
}

/// Writes the report document as pretty-enough JSON (one record per line,
/// diff-friendly) and flushes the writer.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_report<W: Write>(document: &Json, mut out: W) -> io::Result<()> {
    let records = document
        .get("records")
        .and_then(Json::as_arr)
        .expect("report documents carry a records array");
    let schema =
        document.get("schema").and_then(Json::as_str).expect("report documents carry a schema tag");
    writeln!(out, "{{\"schema\": {},", Json::from(schema).render())?;
    writeln!(out, " \"records\": [")?;
    for (k, record) in records.iter().enumerate() {
        let comma = if k + 1 == records.len() { "" } else { "," };
        writeln!(out, "  {}{}", record.render(), comma)?;
    }
    writeln!(out, " ]}}")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_carry_the_full_shape() {
        let pla: Pla = ".i 4\n.o 1\n11-- 1\n--11 1\n.e\n".parse().expect("valid");
        let record = bench_record("fig3", &pla, &Options::default());
        assert_eq!(record.get("name").and_then(Json::as_str), Some("fig3"));
        assert_eq!(record.get("verified").and_then(Json::as_bool), Some(true));
        let netlist = record.get("netlist").expect("netlist stats");
        assert_eq!(netlist.get("gates").and_then(Json::as_f64), Some(3.0));
        let bdd = record.get("bdd").expect("bdd counters");
        assert!(bdd.get("mk_calls").and_then(Json::as_f64).unwrap() > 0.0);
        // v4 kernel counters; v5 dropped the thread count.
        assert!(record.get("threads").is_none());
        let allocated = bdd.get("nodes_allocated").and_then(Json::as_f64).unwrap();
        assert!(
            allocated > 0.0 && allocated <= bdd.get("mk_calls").and_then(Json::as_f64).unwrap()
        );
        assert!(bdd.get("cache_evictions").and_then(Json::as_f64).is_some());
        let decomp = record.get("decomp").expect("decomp stats");
        assert!(decomp.get("calls").and_then(Json::as_f64).unwrap() >= 1.0);
        let histogram = decomp.get("depth_histogram").and_then(Json::as_arr).expect("histogram");
        assert!(!histogram.is_empty(), "telemetry is forced on for records");
        let mem = record.get("mem").expect("mem section");
        assert!(mem.get("peak_bytes").and_then(Json::as_f64).unwrap() > 0.0);
        // v3: analytics ride along (telemetry is forced on for records).
        let analytics = record.get("analytics").expect("analytics section");
        assert!(
            analytics.get("unique_table").and_then(|t| t.get("entries")).is_some(),
            "probe stats present"
        );
        assert!(analytics.get("component_cache").is_some());
        // v6: no clock anywhere in the record.
        for key in ["time_s", "phases", "percentiles", "timeseries"] {
            assert!(record.get(key).is_none(), "v6 records carry no `{key}`");
        }
        assert!(bdd.get("gc_time_s").is_none());
    }

    #[test]
    fn written_documents_parse_back() {
        let pla: Pla = ".i 4\n.o 1\n11-- 1\n--11 1\n.e\n".parse().expect("valid");
        let doc = report_document(vec![bench_record("fig3", &pla, &Options::default())]);
        let mut bytes = Vec::new();
        write_report(&doc, &mut bytes).expect("in-memory write");
        let text = String::from_utf8(bytes).expect("utf-8");
        let parsed = Json::parse(&text).expect("writer output must parse");
        assert_eq!(parsed.get("schema").and_then(Json::as_str), Some(REPORT_SCHEMA));
        assert_eq!(parsed.get("records").and_then(Json::as_arr).unwrap().len(), 1);
    }
}
