//! End-to-end pipeline checks: decompose → netlist → bit-parallel
//! resimulation against the specification interval, plus Theorem 5
//! (100% single-stuck-at testability) via the ATPG crate.

use std::panic::{catch_unwind, AssertUnwindSafe};

use atpg::{collapse, detects, enumerate_faults, fault_coverage, generate_tests};
use bdd::Bdd;
use bidecomp::{decompose_pla, isfs_from_pla, verify, DecompOutcome, Options};
use pla::Pla;

use crate::oracle::reference_tables;
use crate::Failure;

/// What the end-to-end check observed on a passing case.
#[derive(Clone, Copy, Debug)]
pub struct E2eReport {
    /// Nodes in the decomposed netlist (inputs + gates).
    pub nodes: usize,
    /// Whether the ATPG testability check ran (skipped above the gate
    /// budget).
    pub atpg_ran: bool,
}

/// Extracts a printable message from a caught panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Runs the full pipeline on one case.
///
/// Checks, in order:
///
/// 1. `decompose_pla` neither panics nor fails its own BDD verifier.
///    A second run with `gc_threshold: 0`, which collects garbage after
///    every output, must write a byte-identical BLIF (kind `gc`).
/// 2. Bit-parallel resimulation of the emitted netlist over all `2^n`
///    minterms satisfies `Q ⊆ net ⊆ ¬R` for every output (against the
///    [`Pla::eval`] enumeration oracle, independent of any BDD).
/// 3. An independent `verify::verify_netlist` run on a fresh manager
///    agrees.
/// 4. If the netlist has at most `atpg_node_budget` nodes: every
///    collapsed single-stuck-at fault is detected (`redundant == 0`,
///    Theorem 5), fault simulation of the generated tests reproduces the
///    ATPG coverage, and per-fault BDD-exact TPG agrees with fault
///    simulation.
pub fn check_end_to_end(pla: &Pla, atpg_node_budget: usize) -> Result<E2eReport, Failure> {
    let n = pla.num_inputs();
    let refs = reference_tables(pla);

    let decompose = |options: Options| {
        catch_unwind(AssertUnwindSafe(|| decompose_pla(pla, &options))).map_err(panic_message)
    };
    let outcome: DecompOutcome =
        decompose(Options::default()).map_err(|msg| Failure::new("panic", msg))?;
    if !outcome.verified {
        return Err(Failure::new("verify", "decompose_pla's own verifier rejected the result"));
    }
    let nl = &outcome.netlist;
    let collected = decompose(Options { gc_threshold: 0, ..Options::default() })
        .map_err(|msg| Failure::new("gc", format!("panic with GC after every output: {msg}")))?;
    if !collected.verified || collected.netlist.to_blif("case") != nl.to_blif("case") {
        return Err(Failure::new(
            "gc",
            format!(
                "GC after every output ({} runs) changed the netlist (verified: {})",
                collected.op_stats.gc_runs, collected.verified
            ),
        ));
    }
    if nl.inputs().len() != n {
        return Err(Failure::new(
            "netlist_arity",
            format!("netlist has {} inputs for a {n}-input PLA", nl.inputs().len()),
        ));
    }
    if nl.outputs().len() != pla.num_outputs() {
        return Err(Failure::new(
            "netlist_arity",
            format!("netlist has {} outputs for {}", nl.outputs().len(), pla.num_outputs()),
        ));
    }

    // Bit-parallel resimulation: 64 minterms per word.
    let total = 1u64 << n;
    let mut base = 0u64;
    while base < total {
        let lanes = (total - base).min(64) as u32;
        let patterns: Vec<u64> = (0..n)
            .map(|i| {
                let mut word = 0u64;
                for j in 0..lanes {
                    if (base + j as u64) >> i & 1 != 0 {
                        word |= 1 << j;
                    }
                }
                word
            })
            .collect();
        let values = nl.simulate(&patterns);
        for (o, (on, off)) in refs.iter().enumerate() {
            for j in 0..lanes {
                let m = base + j as u64;
                let bit = values[o] >> j & 1 != 0;
                if on.get(m as u32) && !bit {
                    return Err(Failure::new(
                        "resim",
                        format!("output {o}: minterm {m} is in Q but the netlist yields 0"),
                    ));
                }
                if off.get(m as u32) && bit {
                    return Err(Failure::new(
                        "resim",
                        format!("output {o}: minterm {m} is in R but the netlist yields 1"),
                    ));
                }
            }
        }
        base += 64;
    }

    // Independent BDD verification on a fresh manager must agree with the
    // resimulation verdict (which, having got here, is "pass").
    let mut mgr = Bdd::new(n);
    let isfs = isfs_from_pla(&mut mgr, pla);
    if !verify::verify_netlist(&mut mgr, nl, &isfs) {
        let failing = verify::failing_outputs(&mut mgr, nl, &isfs);
        return Err(Failure::new(
            "verify_mismatch",
            format!("resimulation passed but verify_netlist rejects outputs {failing:?}"),
        ));
    }

    let nodes = nl.nodes().len();
    if nodes > atpg_node_budget {
        return Ok(E2eReport { nodes, atpg_ran: false });
    }

    // Theorem 5: the emitted netlist is fully testable.
    let report = generate_tests(nl);
    if report.redundant != 0 {
        return Err(Failure::new(
            "atpg_redundant",
            format!(
                "{} of {} collapsed faults are redundant: {:?}",
                report.redundant, report.total_faults, report.redundant_faults
            ),
        ));
    }
    if report.detected != report.total_faults {
        return Err(Failure::new(
            "atpg_coverage",
            format!("{} of {} faults detected", report.detected, report.total_faults),
        ));
    }
    // The generated test set, fault-simulated from scratch, must
    // reproduce the ATPG's own coverage claim.
    let faults = collapse(nl, &enumerate_faults(nl));
    let sim_cov = fault_coverage(nl, &faults, &report.tests);
    if sim_cov != report.coverage() {
        return Err(Failure::new(
            "atpg_sim_mismatch",
            format!("fault simulation sees {sim_cov}, TPG claimed {}", report.coverage()),
        ));
    }
    // BDD-exact per-fault TPG must agree with fault simulation on the
    // detected/undetected partition.
    for &fault in &faults {
        match atpg::test_for_fault(nl, fault) {
            Some(test) => {
                let patterns: Vec<u64> = test.iter().map(|&v| if v { 1u64 } else { 0 }).collect();
                if !detects(nl, fault, &patterns) {
                    return Err(Failure::new(
                        "atpg_tpg_mismatch",
                        format!("TPG test for {fault:?} does not detect it in simulation"),
                    ));
                }
            }
            None => {
                return Err(Failure::new(
                    "atpg_tpg_mismatch",
                    format!("TPG calls {fault:?} redundant on a Theorem 5 netlist"),
                ));
            }
        }
    }

    Ok(E2eReport { nodes, atpg_ran: true })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use benchmarks::SplitMix64;

    #[test]
    fn generated_cases_pass_end_to_end() {
        let mut rng = SplitMix64::new(8);
        let mut atpg_runs = 0;
        for i in 0..15 {
            let case = gen::generate(&mut rng, &[]);
            let report = crate::e2e::check_end_to_end(&case.pla, 150)
                .unwrap_or_else(|f| panic!("case {i} ({}) failed: {f}\n{}", case.mode, case.pla));
            if report.atpg_ran {
                atpg_runs += 1;
            }
        }
        assert!(atpg_runs > 0, "the ATPG layer must run on small netlists");
    }

    #[test]
    fn known_benchmark_passes_end_to_end() {
        let suite = benchmarks::by_name("rd73").expect("rd73 exists");
        let report = check_end_to_end(&suite.pla, usize::MAX).expect("rd73 is clean");
        assert!(report.atpg_ran);
    }
}
