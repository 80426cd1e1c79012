//! Machine-readable run reports: `BENCH_bidecomp.json`.
//!
//! The `report` binary runs the benchmark suite and writes one JSON
//! document with a record per benchmark — the Table 2 columns plus the
//! telemetry the text tables do not show: per-phase wall-clock times, BDD
//! operation and GC counters, and the §7 rates (weak decomposition,
//! component reuse, inessential variables). The schema is versioned
//! ([`REPORT_SCHEMA`]) and covered by a golden test so downstream tooling
//! can diff reports across revisions.

use std::io::{self, Write};

use bidecomp::{DecompOutcome, Options};
use obs::json::Json;
use pla::Pla;

/// Schema identifier stamped on every report document.
///
/// v2 added the `percentiles` (per-output / per-BDD-op latency) and `mem`
/// (manager heap footprint) sections between `bdd` and `decomp`. v3 adds
/// per-record `analytics` (unique-table probe distribution, per-op
/// computed-cache hit rates, GC efficacy, reorder count, component-cache
/// reuse) and `timeseries` (the background resource sampler) sections,
/// plus a top-level `obs` section with the trace-sink write-error count.
/// v4 added the `bdd.nodes_allocated` / `bdd.cache_evictions` counters of
/// the kernel-grade manager (and a per-record `threads` field). v5 drops
/// `threads`: decomposition is always serial.
pub const REPORT_SCHEMA: &str = "bidecomp-bench/v5";

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
        .field("time_s", outcome.elapsed.as_secs_f64())
        .field("netlist", outcome.netlist.stats().to_json())
        .field("phases", outcome.phases.to_json())
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
                .field("gc_time_s", op.gc_time.as_secs_f64()),
        )
        .field(
            "percentiles",
            Json::obj().field("output_latency", outcome.output_latency.to_json()).field(
                "op_latency",
                match &outcome.op_latency {
                    Some(h) => h.to_json(),
                    None => Json::Null,
                },
            ),
        )
        .field("mem", outcome.mem.to_json())
        .field(
            "analytics",
            match &outcome.analytics {
                Some(a) => a.to_json().field("component_cache", outcome.component_cache.to_json()),
                None => Json::Null,
            },
        )
        .field("timeseries", outcome.timeseries.to_json())
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

/// Wraps records into the versioned report document. The observability
/// health section reports zero sink write errors (no trace sink ran);
/// use [`report_document_with_obs`] to surface a real count.
pub fn report_document(records: Vec<Json>) -> Json {
    report_document_with_obs(records, 0)
}

/// Wraps records into the versioned report document, surfacing the
/// `obs.sink.write_errors` counter (dropped trace/event lines) in the
/// top-level `obs` section.
pub fn report_document_with_obs(records: Vec<Json>, sink_write_errors: u64) -> Json {
    Json::obj()
        .field("schema", REPORT_SCHEMA)
        .field("obs", Json::obj().field("sink_write_errors", sink_write_errors))
        .field("records", records)
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
    if let Some(obs) = document.get("obs") {
        writeln!(out, " \"obs\": {},", obs.render())?;
    }
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
        let pct = record.get("percentiles").expect("percentiles section");
        let out_lat = pct.get("output_latency").expect("output latency summary");
        assert_eq!(out_lat.get("count").and_then(Json::as_f64), Some(1.0), "one output");
        let op_lat = pct.get("op_latency").expect("op latency summary");
        assert!(
            op_lat.get("count").and_then(Json::as_f64).unwrap() > 0.0,
            "telemetry forces op timing on"
        );
        let mem = record.get("mem").expect("mem section");
        assert!(mem.get("peak_bytes").and_then(Json::as_f64).unwrap() > 0.0);
        // v3: analytics and timeseries ride along (telemetry is forced on
        // for records, so both are populated).
        let analytics = record.get("analytics").expect("analytics section");
        assert!(
            analytics.get("unique_table").and_then(|t| t.get("entries")).is_some(),
            "probe stats present"
        );
        assert!(analytics.get("component_cache").is_some());
        let ts = record.get("timeseries").expect("timeseries section");
        assert!(!ts.get("samples").and_then(Json::as_arr).expect("samples").is_empty());
    }

    #[test]
    fn documents_carry_the_obs_health_section() {
        let doc = report_document_with_obs(Vec::new(), 7);
        assert_eq!(
            doc.get("obs").and_then(|o| o.get("sink_write_errors")).and_then(Json::as_f64),
            Some(7.0)
        );
        let clean = report_document(Vec::new());
        assert_eq!(
            clean.get("obs").and_then(|o| o.get("sink_write_errors")).and_then(Json::as_f64),
            Some(0.0)
        );
        let mut bytes = Vec::new();
        write_report(&doc, &mut bytes).expect("in-memory write");
        let parsed = Json::parse(&String::from_utf8(bytes).expect("utf-8")).expect("parses");
        assert_eq!(
            parsed.get("obs").and_then(|o| o.get("sink_write_errors")).and_then(Json::as_f64),
            Some(7.0)
        );
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
