//! The decomposition *doctor*: a pure analysis pass over a finished
//! [`DecompOutcome`] that flags unproductive garbage collection.
//!
//! It has one detector, `gc-thrash`, the only one that the benchmark
//! suite, the fuzz corpus and the ablation configurations make fire (cps,
//! e64, pdc and spla at `gc_threshold: 500`; EXPERIMENTS.md, "Diagnosing
//! a slow benchmark"). It reads the GC counters of [`OpStats`], so it
//! needs neither the trace nor telemetry. Each finding names its layer
//! and the `bdd.*` run-report keys behind it; [`DoctorReport::to_json`]
//! serializes the report under the `bidecomp-doctor/v2` schema.

use bdd::OpStats;
use obs::json::Json;

use crate::DecompOutcome;

/// Schema identifier stamped on every serialized doctor report.
pub const DOCTOR_SCHEMA: &str = "bidecomp-doctor/v2";

/// Collections needed before their reclaim is judged.
const GC_THRASH_MIN_RUNS: u64 = 4;

/// Collections that reclaim less than this share of the live nodes they
/// started with thrash.
const GC_THRASH_RECLAIM: f64 = 0.10;

/// One anomaly the doctor found.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Stable kebab-case detector kind (`gc-thrash`).
    pub kind: &'static str,
    /// The layer of the run the finding is about.
    pub layer: &'static str,
    /// The run-report keys of the counters behind the finding.
    pub counters: &'static [&'static str],
    /// One-line human-readable description.
    pub message: String,
    /// The counters' values and what the detector derived from them.
    pub evidence: Json,
}

impl Finding {
    /// The finding as a JSON object.
    pub fn to_json(&self) -> Json {
        let counters: Vec<Json> = self.counters.iter().map(|&c| Json::from(c)).collect();
        Json::obj()
            .field("kind", self.kind)
            .field("layer", self.layer)
            .field("counters", counters)
            .field("message", self.message.as_str())
            .field("evidence", self.evidence.clone())
    }
}

/// The doctor's verdict on one run.
#[derive(Clone, Debug)]
pub struct DoctorReport {
    /// All findings (empty for a healthy run).
    pub findings: Vec<Finding>,
}

impl DoctorReport {
    /// The report as a JSON document under [`DOCTOR_SCHEMA`].
    pub fn to_json(&self) -> Json {
        Json::obj()
            .field("schema", DOCTOR_SCHEMA)
            .field("findings", Json::Arr(self.findings.iter().map(Finding::to_json).collect()))
    }
}

/// Runs the detector over a finished run.
pub fn diagnose(outcome: &DecompOutcome) -> DoctorReport {
    DoctorReport { findings: gc_thrash(&outcome.op_stats).into_iter().collect() }
}

/// The driver's between-output collections (`Options::gc_threshold`)
/// reclaim under [`GC_THRASH_RECLAIM`] of the live nodes they started
/// with, over at least [`GC_THRASH_MIN_RUNS`] runs.
fn gc_thrash(ops: &OpStats) -> Option<Finding> {
    let reclaimed = ops.gc_nodes_reclaimed as f64 / ops.gc_nodes_before.max(1) as f64;
    if ops.gc_runs < GC_THRASH_MIN_RUNS || reclaimed >= GC_THRASH_RECLAIM {
        return None;
    }
    Some(Finding {
        kind: "gc-thrash",
        layer: "gc",
        counters: &["bdd.gc_runs", "bdd.gc_nodes_reclaimed", "bdd.gc_nodes_before"],
        message: format!(
            "{} GC runs reclaimed only {:.1}% of the live nodes they started with — \
             gc_threshold is too low or roots pin everything",
            ops.gc_runs,
            reclaimed * 100.0
        ),
        evidence: Json::obj()
            .field("gc_runs", ops.gc_runs)
            .field("gc_nodes_reclaimed", ops.gc_nodes_reclaimed)
            .field("gc_nodes_before", ops.gc_nodes_before)
            .field("reclaim_fraction", reclaimed),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Options;

    #[test]
    fn gc_thrash_needs_many_unproductive_runs() {
        let ops = OpStats {
            gc_runs: 6,
            gc_nodes_reclaimed: 30,
            gc_nodes_before: 6_000,
            ..OpStats::default()
        };
        let finding = gc_thrash(&ops).expect("0.5% reclaimed over 6 runs");
        assert_eq!((finding.kind, finding.layer), ("gc-thrash", "gc"));
        assert_eq!(finding.evidence.get("reclaim_fraction").and_then(Json::as_f64), Some(0.005));
        // Productive GC at the same cadence: silent.
        assert!(gc_thrash(&OpStats { gc_nodes_reclaimed: 3_600, ..ops }).is_none());
        // Few runs: silent regardless of efficacy.
        assert!(gc_thrash(&OpStats { gc_runs: 3, ..ops }).is_none());
        // No GC at all: silent.
        assert!(gc_thrash(&OpStats::default()).is_none());
    }

    #[test]
    fn diagnose_on_a_healthy_circuit_is_clean() {
        let pla: pla::Pla = ".i 4\n.o 1\n11-- 1\n--11 1\n.e\n".parse().expect("valid");
        let report = diagnose(&crate::decompose_pla(&pla, &Options::default()));
        assert!(report.findings.is_empty());
        let json = report.to_json();
        assert_eq!(json.keys(), ["schema", "findings"]);
        assert_eq!(json.get("schema").and_then(Json::as_str), Some(DOCTOR_SCHEMA));
        // The serialized report round-trips through the parser.
        let parsed = Json::parse(&json.render()).expect("valid JSON");
        assert!(parsed.get("findings").and_then(Json::as_arr).is_some());
    }
}
