//! Golden test for the `BENCH_bidecomp.json` schema: the document the
//! `report` binary writes must parse with the workspace JSON parser and
//! keep the `bidecomp-bench/v8` record shape stable.

use bench::report::{bench_record, report_document, write_report, REPORT_SCHEMA};
use bidecomp::Options;
use obs::json::Json;

/// The top-level keys of one record, in schema order.
const RECORD_KEYS: [&str; 7] = ["name", "verified", "netlist", "bdd", "mem", "analytics", "decomp"];
const NETLIST_KEYS: [&str; 8] =
    ["inputs", "outputs", "gates", "exors", "inverters", "cascades", "area", "delay"];
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
    "gc_nodes_before",
];
const MEM_KEYS: [&str; 5] =
    ["unique_table_bytes", "computed_cache_bytes", "node_slab_bytes", "total_bytes", "peak_bytes"];
const ANALYTICS_KEYS: [&str; 3] = ["unique_table", "computed_cache_by_op", "component_cache"];
const COMPONENT_CACHE_KEYS: [&str; 3] = ["support_sets", "components", "max_bucket"];
const DECOMP_KEYS: [&str; 12] = [
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
fn report_document_matches_the_v8_schema() {
    let document = suite_document();
    let mut bytes = Vec::new();
    write_report(&document, &mut bytes).expect("in-memory write");
    let text = String::from_utf8(bytes).expect("utf-8");
    let parsed = Json::parse(&text).expect("document must parse with the workspace parser");

    assert_eq!(parsed.get("schema").and_then(Json::as_str), Some(REPORT_SCHEMA));
    assert_eq!(REPORT_SCHEMA, "bidecomp-bench/v8");
    // v7: no top-level `obs` section.
    assert_eq!(parsed.keys(), ["schema", "records"]);
    let records = parsed.get("records").and_then(Json::as_arr).expect("records array");
    assert_eq!(records.len(), 2);
    // v8: the 0-based depth of the deepest recursive call, as the trace
    // tree counts it (v7 wrote 8 and 9, the depth histogram's length).
    for (record, want_depth) in records.iter().zip([7.0, 8.0]) {
        // v7: exactly these sections, in this order — no clock anywhere,
        // no GC sample log; v8: no depth histogram.
        assert_eq!(record.keys(), RECORD_KEYS, "record keys drifted");
        for (section, wanted) in [
            ("netlist", &NETLIST_KEYS[..]),
            ("bdd", &BDD_KEYS[..]),
            ("mem", &MEM_KEYS[..]),
            ("analytics", &ANALYTICS_KEYS[..]),
            ("decomp", &DECOMP_KEYS[..]),
        ] {
            let obj = record.get(section).unwrap_or_else(|| panic!("{section} section"));
            assert_eq!(obj.keys(), wanted, "{section} keys drifted");
        }
        // v2: the mem section adds up and the peak bounds the total.
        let mem = record.get("mem").expect("mem");
        let get = |k: &str| mem.get(k).and_then(Json::as_f64).expect("numeric");
        assert_eq!(
            get("total_bytes"),
            get("unique_table_bytes") + get("computed_cache_bytes") + get("node_slab_bytes"),
            "mem components must sum to the total"
        );
        assert!(get("peak_bytes") >= get("total_bytes"));
        // v3: analytics carry real measurements.
        let analytics = record.get("analytics").expect("analytics");
        let component_cache = analytics.get("component_cache").expect("component cache");
        assert_eq!(component_cache.keys(), COMPONENT_CACHE_KEYS, "component_cache keys drifted");
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
        // Spot-check semantics, not just shape.
        assert_eq!(record.get("verified").and_then(Json::as_bool), Some(true));
        let decomp = record.get("decomp").expect("decomp");
        let calls = decomp.get("calls").and_then(Json::as_f64).expect("calls");
        let max_depth = decomp.get("max_depth").and_then(Json::as_f64).expect("max_depth");
        assert_eq!(max_depth, want_depth);
        assert!(max_depth < calls, "every level holds at least one call");
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
