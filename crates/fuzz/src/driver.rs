//! The seeded fuzz loop and corpus replay.
//!
//! Each case runs the operator-level differentials ([`crate::oracle`])
//! and the end-to-end pipeline check ([`crate::e2e`]); any failure is
//! delta-debugged down to a minimal PLA ([`crate::shrink`]). Every count
//! of the run is a field of the returned [`FuzzReport`].

use std::time::{Duration, Instant};

use benchmarks::SplitMix64;
use pla::Pla;

use crate::{e2e, gen, oracle, shrink, Failure};

/// How many recently passing cases feed the mutation generator.
const MUTATION_POOL_CAP: usize = 64;

/// Configuration of a fuzz run.
#[derive(Clone)]
pub struct FuzzConfig {
    /// Master seed; equal seeds reproduce the run exactly.
    pub seed: u64,
    /// Number of cases to generate (an exhausted time budget stops
    /// earlier).
    pub iters: u64,
    /// Optional wall-clock budget for the whole run.
    pub time_budget: Option<Duration>,
    /// Predicate-invocation budget per failure shrink.
    pub shrink_checks: usize,
    /// Skip the ATPG layer for netlists with more nodes than this (test
    /// generation is the expensive step).
    pub atpg_node_budget: usize,
    /// Stop after this many failures (each failure costs a shrink run).
    pub max_failures: usize,
    /// Pre-seeded mutation pool, typically the replay corpus.
    pub pool: Vec<Pla>,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            seed: 1,
            iters: 500,
            time_budget: None,
            shrink_checks: 4_000,
            atpg_node_budget: 120,
            max_failures: 5,
            pool: Vec::new(),
        }
    }
}

/// A failing case, before and after minimization.
#[derive(Clone, Debug)]
pub struct CaseFailure {
    /// Index of the case within the run (0-based).
    pub case_index: u64,
    /// Generator mode (or corpus file stem on replay).
    pub mode: String,
    /// Failure class from the first check that disagreed.
    pub kind: &'static str,
    /// Human-readable specifics.
    pub detail: String,
    /// The case as generated.
    pub original: Pla,
    /// The delta-debugged minimal case (equal to `original` on replay,
    /// where cases are already minimal).
    pub minimized: Pla,
    /// Shrink predicate invocations spent on this failure.
    pub shrink_checks: usize,
}

/// The outcome of a fuzz or replay run.
#[derive(Clone, Debug, Default)]
pub struct FuzzReport {
    /// Cases executed.
    pub cases: u64,
    /// Individual oracle comparisons performed.
    pub operator_checks: u64,
    /// Failures found (empty = clean run).
    pub failures: Vec<CaseFailure>,
    /// Wall-clock time of the run.
    pub elapsed: Duration,
}

impl FuzzReport {
    /// Did every case pass?
    pub fn clean(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Runs every check on one case: operator differentials first, then the
/// end-to-end pipeline. Returns the number of oracle comparisons.
///
/// `case_seed` drives the auxiliary random choices inside the operator
/// sweep; equal `(pla, case_seed)` pairs are fully deterministic.
pub fn check_case(pla: &Pla, case_seed: u64, atpg_node_budget: usize) -> Result<u64, Failure> {
    let checks = oracle::check_operators(pla, case_seed)?;
    e2e::check_end_to_end(pla, atpg_node_budget)?;
    Ok(checks)
}

/// Handles one failing case: shrink it (unless the config's shrink
/// budget is zero) and append the result.
fn handle_failure(
    cfg: &FuzzConfig,
    report: &mut FuzzReport,
    case_index: u64,
    mode: String,
    pla: &Pla,
    case_seed: u64,
    failure: Failure,
) {
    let (minimized, used) = if cfg.shrink_checks > 0 {
        let mut still_fails =
            |candidate: &Pla| check_case(candidate, case_seed, cfg.atpg_node_budget).is_err();
        let outcome = shrink::shrink(pla, &mut still_fails, cfg.shrink_checks);
        (outcome.pla, outcome.checks_used)
    } else {
        (pla.clone(), 0)
    };
    report.failures.push(CaseFailure {
        case_index,
        mode,
        kind: failure.kind,
        detail: failure.detail,
        original: pla.clone(),
        minimized,
        shrink_checks: used,
    });
}

/// Runs a seeded fuzz session.
pub fn run(cfg: &FuzzConfig) -> FuzzReport {
    let start = Instant::now();
    let mut rng = SplitMix64::new(cfg.seed);
    let mut pool = cfg.pool.clone();
    pool.retain(|p| p.num_inputs() <= gen::MAX_INPUTS && !p.cubes().is_empty());
    let mut report = FuzzReport::default();

    for i in 0..cfg.iters {
        if cfg.time_budget.is_some_and(|budget| start.elapsed() >= budget) {
            break;
        }
        let case = gen::generate(&mut rng, &pool);
        let case_seed = rng.next_u64();
        report.cases += 1;
        match check_case(&case.pla, case_seed, cfg.atpg_node_budget) {
            Ok(checks) => {
                report.operator_checks += checks;
                // Passing cases feed the mutation generator.
                if pool.len() < MUTATION_POOL_CAP {
                    pool.push(case.pla);
                } else {
                    let slot = rng.gen_range(pool.len());
                    pool[slot] = case.pla;
                }
            }
            Err(failure) => {
                handle_failure(
                    cfg,
                    &mut report,
                    i,
                    case.mode.to_owned(),
                    &case.pla,
                    case_seed,
                    failure,
                );
                if report.failures.len() >= cfg.max_failures {
                    break;
                }
            }
        }
    }
    report.elapsed = start.elapsed();
    report
}

/// Replays a list of (already minimized) corpus cases. Failures are not
/// shrunk again; the auxiliary seed is fixed so replay is deterministic
/// regardless of corpus order.
pub fn replay(cases: &[(String, Pla)], cfg: &FuzzConfig) -> FuzzReport {
    let start = Instant::now();
    // Corpus cases are already minimal: disable shrinking on replay.
    let cfg = FuzzConfig { shrink_checks: 0, ..cfg.clone() };
    let mut report = FuzzReport::default();
    for (i, (name, pla)) in cases.iter().enumerate() {
        report.cases += 1;
        match check_case(pla, cfg.seed, cfg.atpg_node_budget) {
            Ok(checks) => report.operator_checks += checks,
            Err(failure) => {
                handle_failure(&cfg, &mut report, i as u64, name.clone(), pla, cfg.seed, failure);
            }
        }
    }
    report.elapsed = start.elapsed();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_run_is_deterministic() {
        let cfg = FuzzConfig { iters: 40, ..FuzzConfig::default() };
        let a = run(&cfg);
        let b = run(&cfg);
        assert!(a.clean(), "HEAD must fuzz clean: {:?}", a.failures.first().map(|f| f.kind));
        assert_eq!(a.cases, 40);
        assert_eq!(a.operator_checks, b.operator_checks, "equal seeds, equal work");
    }

    #[test]
    fn time_budget_stops_the_run() {
        let cfg = FuzzConfig {
            iters: u64::MAX,
            time_budget: Some(Duration::from_millis(200)),
            ..FuzzConfig::default()
        };
        let report = run(&cfg);
        assert!(report.cases > 0, "at least one case runs");
        assert!(report.elapsed < Duration::from_secs(30), "the budget binds");
    }

    #[test]
    fn replay_of_generated_cases_is_clean() {
        let mut rng = SplitMix64::new(12);
        let cases: Vec<(String, Pla)> =
            (0..10).map(|i| (format!("case{i}"), gen::generate(&mut rng, &[]).pla)).collect();
        let report = replay(&cases, &FuzzConfig::default());
        assert!(report.clean());
        assert_eq!(report.cases, 10);
    }
}
