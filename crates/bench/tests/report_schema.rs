//! Golden test for the `BENCH_bidecomp.json` schema: the document the
//! `report` binary writes must parse with the workspace JSON parser and
//! keep the `bidecomp-bench/v5` record shape stable.

use bench::report::{bench_record, report_document, write_report, REPORT_SCHEMA};
use bidecomp::Options;
use obs::json::Json;

/// The top-level keys of one record, in schema order.
const RECORD_KEYS: [&str; 10] = [
    "name",
    "verified",
    "time_s",
    "netlist",
    "phases",
    "bdd",
    "percentiles",
    "mem",
    "analytics",
    "timeseries",
];
const NETLIST_KEYS: [&str; 8] =
    ["inputs", "outputs", "gates", "exors", "inverters", "cascades", "area", "delay"];
const PHASE_KEYS: [&str; 4] = ["ordering_s", "bdd_build_s", "decompose_s", "verify_s"];
const BDD_KEYS: [&str; 12] = [
    "peak_nodes",
    "mk_calls",
    "unique_hits",
    "nodes_allocated",
    "apply_steps",
    "cache_lookups",
    "cache_hits",
    "cache_hit_rate",
    "cache_evictions",
    "gc_runs",
    "gc_nodes_reclaimed",
    "gc_time_s",
];
const PERCENTILE_KEYS: [&str; 2] = ["output_latency", "op_latency"];
const LATENCY_KEYS: [&str; 6] = ["count", "mean_ns", "p50_ns", "p90_ns", "p99_ns", "max_ns"];
const MEM_KEYS: [&str; 5] =
    ["unique_table_bytes", "computed_cache_bytes", "node_slab_bytes", "total_bytes", "peak_bytes"];
const ANALYTICS_KEYS: [&str; 5] =
    ["unique_table", "computed_cache_by_op", "gc", "reorders", "component_cache"];
const TIMESERIES_KEYS: [&str; 3] = ["capacity", "dropped", "samples"];
const DECOMP_KEYS: [&str; 13] = [
    "calls",
    "cache_hits",
    "terminal_cases",
    "strong_or",
    "strong_and",
    "strong_exor",
    "weak",
    "shannon",
    "weak_rate",
    "cache_hit_rate",
    "inessential_rate",
    "max_depth",
    "depth_histogram",
];

fn suite_document() -> Json {
    // Two small suite members keep the test fast while exercising the
    // exact record builder the `report` binary uses.
    let mut records = Vec::new();
    for name in ["rd73", "alu2"] {
        let b = benchmarks::by_name(name).expect("suite member");
        records.push(bench_record(b.name, &b.pla, &Options::default()));
    }
    report_document(records)
}

#[test]
fn report_document_matches_the_v5_schema() {
    let document = suite_document();
    let mut bytes = Vec::new();
    write_report(&document, &mut bytes).expect("in-memory write");
    let text = String::from_utf8(bytes).expect("utf-8");
    let parsed = Json::parse(&text).expect("document must parse with the workspace parser");

    assert_eq!(parsed.get("schema").and_then(Json::as_str), Some(REPORT_SCHEMA));
    // v3: the top-level obs health section survives the hand-rolled
    // writer.
    assert_eq!(
        parsed.get("obs").and_then(|o| o.get("sink_write_errors")).and_then(Json::as_f64),
        Some(0.0),
        "no trace sink runs during report generation"
    );
    let records = parsed.get("records").and_then(Json::as_arr).expect("records array");
    assert_eq!(records.len(), 2);
    for record in records {
        let keys = record.keys();
        for want in RECORD_KEYS {
            assert!(keys.contains(&want), "record key {want} missing from {keys:?}");
        }
        assert_eq!(record.keys().last(), Some(&"decomp"), "decomp closes the record");
        for (section, wanted) in [
            ("netlist", &NETLIST_KEYS[..]),
            ("phases", &PHASE_KEYS[..]),
            ("bdd", &BDD_KEYS[..]),
            ("percentiles", &PERCENTILE_KEYS[..]),
            ("mem", &MEM_KEYS[..]),
            ("analytics", &ANALYTICS_KEYS[..]),
            ("timeseries", &TIMESERIES_KEYS[..]),
            ("decomp", &DECOMP_KEYS[..]),
        ] {
            let obj = record.get(section).unwrap_or_else(|| panic!("{section} section"));
            assert_eq!(obj.keys(), wanted, "{section} keys drifted");
        }
        // v2: both latency summaries carry the histogram shape, with
        // internally consistent percentiles.
        let pct = record.get("percentiles").expect("percentiles");
        for kind in PERCENTILE_KEYS {
            let summary = pct.get(kind).unwrap_or_else(|| panic!("{kind} summary"));
            assert_eq!(summary.keys(), LATENCY_KEYS, "{kind} histogram keys drifted");
            let get = |k: &str| summary.get(k).and_then(Json::as_f64).expect("numeric");
            assert!(get("count") > 0.0, "{kind} must have samples (telemetry is on)");
            assert!(get("p50_ns") <= get("p90_ns"));
            assert!(get("p90_ns") <= get("p99_ns"));
            assert!(get("p99_ns") <= get("max_ns"));
        }
        let out_count =
            pct.get("output_latency").and_then(|s| s.get("count")).and_then(Json::as_f64);
        let outputs = record.get("netlist").and_then(|n| n.get("outputs")).and_then(Json::as_f64);
        assert_eq!(out_count, outputs, "per-output latency has one sample per PLA output");
        // v2: the mem section adds up and the peak bounds the total.
        let mem = record.get("mem").expect("mem");
        let get = |k: &str| mem.get(k).and_then(Json::as_f64).expect("numeric");
        assert_eq!(
            get("total_bytes"),
            get("unique_table_bytes") + get("computed_cache_bytes") + get("node_slab_bytes"),
            "mem components must sum to the total"
        );
        assert!(get("peak_bytes") >= get("total_bytes"));
        // v3: analytics and the time series carry real measurements.
        let analytics = record.get("analytics").expect("analytics");
        let entries = analytics
            .get("unique_table")
            .and_then(|t| t.get("entries"))
            .and_then(Json::as_f64)
            .expect("probe entries");
        assert!(entries > 0.0, "live nodes populate the unique table");
        let ops = analytics.get("computed_cache_by_op").and_then(Json::as_arr).expect("per-op");
        assert!(
            ops.iter().any(|o| o.get("lookups").and_then(Json::as_f64).unwrap_or(0.0) > 0.0),
            "computed cache saw traffic"
        );
        let samples =
            record.get("timeseries").and_then(|t| t.get("samples")).and_then(Json::as_arr);
        assert!(!samples.expect("samples array").is_empty(), "sampler fired during the run");
        // Spot-check semantics, not just shape.
        assert_eq!(record.get("verified").and_then(Json::as_bool), Some(true));
        let decomp = record.get("decomp").expect("decomp");
        let calls = decomp.get("calls").and_then(Json::as_f64).expect("calls");
        let histogram = decomp.get("depth_histogram").and_then(Json::as_arr).expect("histogram");
        let total: f64 = histogram.iter().map(|n| n.as_f64().expect("numeric bucket")).sum();
        assert_eq!(total, calls, "histogram buckets sum to the recursive call count");
        assert_eq!(decomp.get("max_depth").and_then(Json::as_f64), Some(histogram.len() as f64));
        // v5 dropped the thread count; the v4 kernel counters are
        // consistent.
        assert!(record.get("threads").is_none());
        let bdd = record.get("bdd").expect("bdd");
        let b = |k: &str| bdd.get(k).and_then(Json::as_f64).expect("numeric");
        // Every mk call is a unique-table hit, an insertion or a
        // reduction (`low == high`), so insertions never exceed the rest.
        let allocated = b("nodes_allocated");
        assert!(allocated > 0.0);
        assert!(
            allocated <= b("mk_calls") - b("unique_hits"),
            "allocations are mk calls minus unique-table hits minus reductions"
        );
        assert!(b("cache_evictions") <= b("cache_lookups"));
    }
}

#[test]
fn benchmark_names_with_escapes_render_safely() {
    // The schema must survive names needing JSON escaping.
    let b = benchmarks::by_name("rd73").expect("suite member");
    let record = bench_record("odd \"name\"\\path", &b.pla, &Options::default());
    let document = report_document(vec![record]);
    let mut bytes = Vec::new();
    write_report(&document, &mut bytes).expect("in-memory write");
    let text = String::from_utf8(bytes).expect("utf-8");
    let parsed = Json::parse(&text).expect("escaped names must round-trip");
    let records = parsed.get("records").and_then(Json::as_arr).expect("records");
    assert_eq!(records[0].get("name").and_then(Json::as_str), Some("odd \"name\"\\path"));
}
