//! The decomposition *doctor*: a pure analysis pass over a finished
//! [`DecompOutcome`] that flags anomalies worth a human look — computed
//! caches that thrash, Shannon-fallback storms, systematically unbalanced
//! variable groupings and unproductive GC.
//!
//! The doctor never re-runs anything: every detector reads counters the
//! run already produced ([`Stats`], [`OpStats`], [`bdd::Analytics`], the
//! trace). Detectors that need telemetry simply stay silent when the run
//! was executed without it.
//!
//! Findings carry a severity, a human-readable message and machine-usable
//! evidence; [`DoctorReport::to_json`] serializes the whole report under
//! the `bidecomp-doctor/v1` schema.

use bdd::{Analytics, OpStats};
use obs::json::Json;

use crate::trace::{Step, TraceEvent};
use crate::{DecompOutcome, Options, Stats};

/// Schema identifier stamped on every serialized doctor report.
pub const DOCTOR_SCHEMA: &str = "bidecomp-doctor/v1";

/// How bad a finding is.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Severity {
    /// Worth knowing, no action needed.
    Info,
    /// Likely costing time or memory; investigate.
    Warning,
    /// The run is broken or pathological.
    Error,
}

impl Severity {
    /// Lower-case name used in JSON and rendered reports.
    pub fn name(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// One anomaly the doctor found.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Stable kebab-case detector kind (e.g. `cache-thrash`).
    pub kind: &'static str,
    /// How bad it is.
    pub severity: Severity,
    /// One-line human-readable description.
    pub message: String,
    /// Machine-usable evidence backing the finding.
    pub evidence: Json,
}

impl Finding {
    /// The finding as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .field("kind", self.kind)
            .field("severity", self.severity.name())
            .field("message", self.message.as_str())
            .field("evidence", self.evidence.clone())
    }
}

/// Detector thresholds. The defaults are deliberately conservative: a
/// healthy run produces an empty report.
#[derive(Clone, Debug)]
pub struct DoctorConfig {
    /// Minimum per-op computed-cache lookups before hit rates are judged.
    pub cache_min_lookups: u64,
    /// Per-op hit rate below this (with enough traffic, and with live
    /// entries evicted) is cache thrash.
    pub cache_thrash_hit_rate: f64,
    /// Minimum recursive calls before the Shannon fraction is judged.
    pub shannon_min_calls: usize,
    /// Shannon fraction at or above this warns.
    pub shannon_warn_fraction: f64,
    /// Shannon fraction at or above this is an error (the strong/weak
    /// machinery is effectively not working).
    pub shannon_error_fraction: f64,
    /// Minimum strong steps before grouping balance is judged.
    pub unbalanced_min_strong: usize,
    /// A strong step is unbalanced when `max(|XA|,|XB|)` is at least this
    /// multiple of `min(|XA|,|XB|).max(1)`.
    pub unbalanced_ratio: usize,
    /// Fraction of unbalanced strong steps at or above this warns.
    pub unbalanced_fraction: f64,
    /// Minimum GC runs before reclaim efficacy is judged.
    pub gc_thrash_runs: u64,
    /// Mean reclaim fraction below this (with enough runs) is GC thrash.
    pub gc_thrash_reclaim: f64,
}

impl Default for DoctorConfig {
    fn default() -> DoctorConfig {
        DoctorConfig {
            cache_min_lookups: 512,
            cache_thrash_hit_rate: 0.02,
            shannon_min_calls: 8,
            shannon_warn_fraction: 0.25,
            shannon_error_fraction: 0.60,
            unbalanced_min_strong: 4,
            unbalanced_ratio: 8,
            unbalanced_fraction: 0.5,
            gc_thrash_runs: 4,
            gc_thrash_reclaim: 0.10,
        }
    }
}

/// The doctor's verdict on one run.
#[derive(Clone, Debug)]
pub struct DoctorReport {
    /// All findings, most severe first.
    pub findings: Vec<Finding>,
}

impl DoctorReport {
    /// Counts by severity: `(info, warning, error)`.
    pub fn counts(&self) -> (usize, usize, usize) {
        let mut c = (0, 0, 0);
        for f in &self.findings {
            match f.severity {
                Severity::Info => c.0 += 1,
                Severity::Warning => c.1 += 1,
                Severity::Error => c.2 += 1,
            }
        }
        c
    }

    /// Whether any finding is an [`Severity::Error`].
    pub fn has_errors(&self) -> bool {
        self.findings.iter().any(|f| f.severity == Severity::Error)
    }

    /// The report as a JSON document under [`DOCTOR_SCHEMA`].
    pub fn to_json(&self) -> Json {
        let (info, warning, error) = self.counts();
        Json::obj()
            .field("schema", DOCTOR_SCHEMA)
            .field(
                "counts",
                Json::obj().field("info", info).field("warning", warning).field("error", error),
            )
            .field("findings", Json::Arr(self.findings.iter().map(Finding::to_json).collect()))
    }

    /// Renders the report as human-readable text.
    pub fn render(&self) -> String {
        if self.findings.is_empty() {
            return "doctor: no anomalies detected\n".to_owned();
        }
        let (info, warning, error) = self.counts();
        let mut out = format!(
            "doctor: {} finding(s) — {error} error, {warning} warning, {info} info\n",
            self.findings.len()
        );
        for f in &self.findings {
            out.push_str(&format!("  [{}] {}: {}\n", f.severity.name(), f.kind, f.message));
        }
        out
    }
}

/// Runs every detector over a finished run.
pub fn diagnose(outcome: &DecompOutcome, cfg: &DoctorConfig) -> DoctorReport {
    let mut findings = Vec::new();
    check_verified(outcome.verified, &mut findings);
    check_cache_thrash(outcome.analytics.as_ref(), &outcome.op_stats, cfg, &mut findings);
    check_shannon_storm(&outcome.stats, cfg, &mut findings);
    check_unbalanced_grouping(&outcome.trace, cfg, &mut findings);
    check_gc_thrash(outcome.analytics.as_ref(), cfg, &mut findings);
    findings.sort_by_key(|f| std::cmp::Reverse(f.severity));
    DoctorReport { findings }
}

/// Decomposes a PLA with tracing and telemetry forced on (the doctor
/// needs both) and diagnoses the outcome in one step.
pub fn diagnose_pla(
    pla: &pla::Pla,
    options: &Options,
    cfg: &DoctorConfig,
) -> (DecompOutcome, DoctorReport) {
    let options = Options { trace: true, telemetry: true, ..*options };
    let outcome = crate::decompose_pla(pla, &options);
    let report = diagnose(&outcome, cfg);
    (outcome, report)
}

fn check_verified(verified: bool, out: &mut Vec<Finding>) {
    if !verified {
        out.push(Finding {
            kind: "verify-failed",
            severity: Severity::Error,
            message: "the synthesized netlist does not match its specification".to_owned(),
            evidence: Json::obj().field("verified", false),
        });
    }
}

fn check_cache_thrash(
    analytics: Option<&Analytics>,
    ops: &OpStats,
    cfg: &DoctorConfig,
    out: &mut Vec<Finding>,
) {
    let Some(analytics) = analytics else { return };
    // Misses with no evictions are compulsory: the cache never had to drop
    // a live entry, so it is not what is slowing the run.
    if ops.cache_evictions == 0 {
        return;
    }
    for op in &analytics.cache_by_op {
        if op.lookups >= cfg.cache_min_lookups && op.hit_rate() < cfg.cache_thrash_hit_rate {
            out.push(Finding {
                kind: "cache-thrash",
                severity: Severity::Warning,
                message: format!(
                    "computed cache is thrashing on `{}`: {:.2}% hits over {} lookups, \
                     {} evictions",
                    op.op,
                    op.hit_rate() * 100.0,
                    op.lookups,
                    ops.cache_evictions
                ),
                evidence: Json::obj()
                    .field("op", op.op)
                    .field("lookups", op.lookups)
                    .field("hits", op.hits)
                    .field("hit_rate", op.hit_rate())
                    .field("evictions", ops.cache_evictions),
            });
        }
    }
    let overall_rate =
        if ops.cache_lookups == 0 { 1.0 } else { ops.cache_hits as f64 / ops.cache_lookups as f64 };
    if ops.cache_lookups >= 4 * cfg.cache_min_lookups && overall_rate < cfg.cache_thrash_hit_rate {
        out.push(Finding {
            kind: "cache-thrash",
            severity: Severity::Warning,
            message: format!(
                "computed cache is thrashing overall: {:.2}% hits over {} lookups, \
                 {} evictions",
                overall_rate * 100.0,
                ops.cache_lookups,
                ops.cache_evictions
            ),
            evidence: Json::obj()
                .field("op", "all")
                .field("lookups", ops.cache_lookups)
                .field("hits", ops.cache_hits)
                .field("hit_rate", overall_rate)
                .field("evictions", ops.cache_evictions),
        });
    }
}

fn check_shannon_storm(stats: &Stats, cfg: &DoctorConfig, out: &mut Vec<Finding>) {
    if stats.calls < cfg.shannon_min_calls {
        return;
    }
    let fraction = stats.shannon as f64 / stats.calls as f64;
    if fraction < cfg.shannon_warn_fraction {
        return;
    }
    let severity =
        if fraction >= cfg.shannon_error_fraction { Severity::Error } else { Severity::Warning };
    out.push(Finding {
        kind: "shannon-storm",
        severity,
        message: format!(
            "Shannon fallback fired on {:.1}% of {} calls — bi-decomposition is \
             rarely succeeding",
            fraction * 100.0,
            stats.calls
        ),
        evidence: Json::obj()
            .field("shannon", stats.shannon)
            .field("calls", stats.calls)
            .field("fraction", fraction),
    });
}

fn check_unbalanced_grouping(trace: &[TraceEvent], cfg: &DoctorConfig, out: &mut Vec<Finding>) {
    let mut strong = 0usize;
    let mut unbalanced = 0usize;
    let mut worst: Option<(usize, usize)> = None;
    for event in trace {
        let Step::Strong { xa, xb, .. } = &event.step else { continue };
        strong += 1;
        let (small, large) =
            if xa.len() <= xb.len() { (xa.len(), xb.len()) } else { (xb.len(), xa.len()) };
        if large >= cfg.unbalanced_ratio * small.max(1) {
            unbalanced += 1;
            if worst.is_none_or(|(ws, wl)| large * ws.max(1) > wl * small.max(1)) {
                worst = Some((small, large));
            }
        }
    }
    if strong < cfg.unbalanced_min_strong {
        return;
    }
    let fraction = unbalanced as f64 / strong as f64;
    if fraction < cfg.unbalanced_fraction {
        return;
    }
    let (small, large) = worst.unwrap_or((0, 0));
    out.push(Finding {
        kind: "unbalanced-grouping",
        severity: Severity::Warning,
        message: format!(
            "{unbalanced} of {strong} strong steps split their dedicated sets at \
             {}:1 or worse (worst |XA|,|XB| split: {small} vs {large})",
            cfg.unbalanced_ratio
        ),
        evidence: Json::obj()
            .field("strong_steps", strong)
            .field("unbalanced", unbalanced)
            .field("fraction", fraction)
            .field("worst_small", small)
            .field("worst_large", large),
    });
}

fn check_gc_thrash(analytics: Option<&Analytics>, cfg: &DoctorConfig, out: &mut Vec<Finding>) {
    let Some(analytics) = analytics else { return };
    let gc = &analytics.gc;
    if gc.runs >= cfg.gc_thrash_runs && gc.mean_reclaim_fraction < cfg.gc_thrash_reclaim {
        out.push(Finding {
            kind: "gc-thrash",
            severity: Severity::Warning,
            message: format!(
                "{} GC runs reclaimed only {:.1}% of live nodes on average — the \
                 threshold is too low or roots pin everything",
                gc.runs,
                gc.mean_reclaim_fraction * 100.0
            ),
            evidence: Json::obj()
                .field("runs", gc.runs)
                .field("nodes_reclaimed", gc.nodes_reclaimed)
                .field("mean_reclaim_fraction", gc.mean_reclaim_fraction),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdd::{GcAnalytics, GcSample, OpCacheStats, ProbeStats, VarSet};

    fn analytics() -> Analytics {
        Analytics {
            probe: ProbeStats {
                buckets: 16,
                entries: 8,
                occupied_buckets: 8,
                max_chain: 1,
                chain_histogram: vec![8, 8],
                expected_probes: 1.0,
            },
            cache_by_op: Vec::new(),
            gc: GcAnalytics {
                runs: 0,
                nodes_reclaimed: 0,
                mean_reclaim_fraction: 0.0,
                samples: Vec::new(),
                truncated: 0,
            },
        }
    }

    #[test]
    fn cache_thrash_needs_traffic_and_misses() {
        let cfg = DoctorConfig::default();
        let mut a = analytics();
        a.cache_by_op.push(OpCacheStats { op: "and", lookups: 10_000, hits: 50 });
        let ops = OpStats { cache_evictions: 700, ..OpStats::default() };
        let mut findings = Vec::new();
        check_cache_thrash(Some(&a), &ops, &cfg, &mut findings);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].kind, "cache-thrash");
        assert_eq!(findings[0].severity, Severity::Warning);
        assert_eq!(findings[0].evidence.get("op").and_then(Json::as_str), Some("and"));
        assert_eq!(findings[0].evidence.get("evictions").and_then(Json::as_f64), Some(700.0));
        // Healthy hit rate on the same traffic: silent.
        a.cache_by_op[0].hits = 5_000;
        findings.clear();
        check_cache_thrash(Some(&a), &ops, &cfg, &mut findings);
        assert!(findings.is_empty());
        // Low traffic never judged, even at 0% hits.
        a.cache_by_op[0] = OpCacheStats { op: "xor", lookups: 100, hits: 0 };
        findings.clear();
        check_cache_thrash(Some(&a), &ops, &cfg, &mut findings);
        assert!(findings.is_empty());
    }

    #[test]
    fn cache_misses_without_evictions_are_not_thrash() {
        let cfg = DoctorConfig::default();
        let mut a = analytics();
        // Well over the traffic floor, almost no hits, but the cache never
        // dropped a live entry — every miss is compulsory.
        a.cache_by_op.push(OpCacheStats { op: "and", lookups: 1_506, hits: 8 });
        let ops = OpStats { cache_lookups: 4_000, cache_hits: 10, ..OpStats::default() };
        let mut findings = Vec::new();
        check_cache_thrash(Some(&a), &ops, &cfg, &mut findings);
        assert!(findings.is_empty(), "{findings:?}");
        // The same traffic with one eviction is judged.
        let ops = OpStats { cache_evictions: 1, ..ops };
        check_cache_thrash(Some(&a), &ops, &cfg, &mut findings);
        assert_eq!(findings.len(), 2, "per-op and overall");
    }

    #[test]
    fn shannon_storm_escalates_with_the_fraction() {
        let cfg = DoctorConfig::default();
        let mut stats = Stats { calls: 100, shannon: 10, ..Stats::default() };
        let mut findings = Vec::new();
        check_shannon_storm(&stats, &cfg, &mut findings);
        assert!(findings.is_empty(), "10% is healthy");
        stats.shannon = 30;
        check_shannon_storm(&stats, &cfg, &mut findings);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].kind, "shannon-storm");
        assert_eq!(findings[0].severity, Severity::Warning);
        stats.shannon = 70;
        findings.clear();
        check_shannon_storm(&stats, &cfg, &mut findings);
        assert_eq!(findings[0].severity, Severity::Error);
        // Tiny runs are never judged.
        let tiny = Stats { calls: 4, shannon: 4, ..Stats::default() };
        findings.clear();
        check_shannon_storm(&tiny, &cfg, &mut findings);
        assert!(findings.is_empty());
    }

    #[test]
    fn unbalanced_grouping_reads_strong_steps_from_the_trace() {
        use crate::GateChoice;
        let cfg = DoctorConfig::default();
        let lopsided = |n: usize| {
            let mut xa = VarSet::new();
            xa.insert(0);
            let mut xb = VarSet::new();
            for v in 1..=n as u32 {
                xb.insert(v);
            }
            TraceEvent::new(0, Step::Strong { gate: GateChoice::Or, xa, xb })
        };
        let trace: Vec<TraceEvent> = (0..4).map(|_| lopsided(9)).collect();
        let mut findings = Vec::new();
        check_unbalanced_grouping(&trace, &cfg, &mut findings);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].kind, "unbalanced-grouping");
        assert_eq!(findings[0].evidence.get("worst_large").and_then(Json::as_f64), Some(9.0));
        // Balanced splits (1 vs 2) stay silent.
        let trace: Vec<TraceEvent> = (0..4).map(|_| lopsided(2)).collect();
        findings.clear();
        check_unbalanced_grouping(&trace, &cfg, &mut findings);
        assert!(findings.is_empty());
        // Too few strong steps: silent even when all are lopsided.
        let trace: Vec<TraceEvent> = (0..3).map(|_| lopsided(9)).collect();
        findings.clear();
        check_unbalanced_grouping(&trace, &cfg, &mut findings);
        assert!(findings.is_empty());
    }

    #[test]
    fn gc_thrash_needs_many_unproductive_runs() {
        let cfg = DoctorConfig::default();
        let mut a = analytics();
        a.gc = GcAnalytics {
            runs: 6,
            nodes_reclaimed: 30,
            mean_reclaim_fraction: 0.005,
            samples: vec![GcSample { nodes_before: 1000, freed: 5, cache_entries_dropped: 0 }],
            truncated: 0,
        };
        let mut findings = Vec::new();
        check_gc_thrash(Some(&a), &cfg, &mut findings);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].kind, "gc-thrash");
        // Productive GC at the same cadence: silent.
        a.gc.mean_reclaim_fraction = 0.6;
        findings.clear();
        check_gc_thrash(Some(&a), &cfg, &mut findings);
        assert!(findings.is_empty());
        // Few runs: silent regardless of efficacy.
        a.gc.runs = 2;
        a.gc.mean_reclaim_fraction = 0.001;
        findings.clear();
        check_gc_thrash(Some(&a), &cfg, &mut findings);
        assert!(findings.is_empty());
    }

    #[test]
    fn diagnose_pla_on_a_healthy_circuit_is_clean() {
        let pla: pla::Pla = ".i 4\n.o 1\n11-- 1\n--11 1\n.e\n".parse().expect("valid");
        let (outcome, report) = diagnose_pla(&pla, &Options::default(), &DoctorConfig::default());
        assert!(outcome.verified);
        assert!(!report.has_errors());
        let json = report.to_json();
        assert_eq!(json.get("schema").and_then(Json::as_str), Some(DOCTOR_SCHEMA));
        // The serialized report round-trips through the parser.
        let parsed = Json::parse(&json.render()).expect("valid JSON");
        assert!(parsed.get("findings").and_then(Json::as_arr).is_some());
        assert!(report.render().starts_with("doctor:"));
    }

    #[test]
    fn reports_sort_errors_first_and_count_by_severity() {
        let mk = |severity| Finding {
            kind: "cache-thrash",
            severity,
            message: "x".to_owned(),
            evidence: Json::obj(),
        };
        let mut report = DoctorReport { findings: vec![mk(Severity::Info), mk(Severity::Error)] };
        report.findings.sort_by_key(|f| std::cmp::Reverse(f.severity));
        assert_eq!(report.findings[0].severity, Severity::Error);
        assert_eq!(report.counts(), (1, 0, 1));
        assert!(report.has_errors());
    }
}
