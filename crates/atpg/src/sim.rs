//! Parallel-pattern single-fault fault simulation (PPSFP).

use netlist::Netlist;

use crate::fault::{inject, Fault};

/// Does the pattern set detect the fault? `patterns[k]` packs 64 values of
/// input `k`; a fault is detected iff some pattern makes some output
/// differ between the good and faulty circuits.
///
/// # Panics
///
/// Panics if `patterns.len()` differs from the number of inputs.
pub fn detects(nl: &Netlist, fault: Fault, patterns: &[u64]) -> bool {
    let good = nl.simulate(patterns);
    let faulty = inject(nl, fault).simulate(patterns);
    good.iter().zip(&faulty).any(|(g, f)| g != f)
}

/// Fault coverage of a test set over a fault list: the fraction of faults
/// detected by at least one of the `tests` (each a complete input
/// assignment).
///
/// Uses 64-way parallel simulation: tests are packed into words and all
/// faults are simulated against each 64-test batch.
///
/// # Panics
///
/// Panics if a test's length differs from the number of inputs.
pub fn fault_coverage(nl: &Netlist, faults: &[Fault], tests: &[Vec<bool>]) -> f64 {
    if faults.is_empty() {
        return 1.0;
    }
    let num_inputs = nl.inputs().len();
    let mut detected = vec![false; faults.len()];
    for chunk in tests.chunks(64) {
        let mut patterns = vec![0u64; num_inputs];
        for (t, test) in chunk.iter().enumerate() {
            assert_eq!(test.len(), num_inputs, "test arity mismatch");
            for (k, &bit) in test.iter().enumerate() {
                if bit {
                    patterns[k] |= 1 << t;
                }
            }
        }
        let good = nl.simulate(&patterns);
        let used: u64 = if chunk.len() == 64 { u64::MAX } else { (1 << chunk.len()) - 1 };
        for (fi, &fault) in faults.iter().enumerate() {
            if detected[fi] {
                continue;
            }
            let faulty = inject(nl, fault).simulate(&patterns);
            if good.iter().zip(&faulty).any(|(g, f)| (g ^ f) & used != 0) {
                detected[fi] = true;
            }
        }
    }
    let hit = detected.iter().filter(|&&d| d).count();
    hit as f64 / faults.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{collapse, enumerate_faults, FaultSite};
    use netlist::Gate2;

    fn and_circuit() -> Netlist {
        let mut nl = Netlist::new();
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let g = nl.add_gate(Gate2::And, a, b);
        nl.add_output("f", g);
        nl
    }

    #[test]
    fn detection_basics() {
        let nl = and_circuit();
        let g = nl.outputs()[0].1;
        let f = Fault { site: FaultSite::Stem(g), stuck_at: false };
        // Pattern a=b=1 detects output s-a-0 (bit 0 of each word).
        assert!(detects(&nl, f, &[0b1, 0b1]));
        // Pattern a=1,b=0 does not.
        assert!(!detects(&nl, f, &[0b1, 0b0]));
    }

    #[test]
    fn exhaustive_tests_cover_an_and_gate_fully() {
        let nl = and_circuit();
        let faults = collapse(&nl, &enumerate_faults(&nl));
        let tests: Vec<Vec<bool>> = (0..4u32).map(|m| vec![m & 1 != 0, m & 2 != 0]).collect();
        assert_eq!(fault_coverage(&nl, &faults, &tests), 1.0);
    }

    #[test]
    fn insufficient_tests_give_partial_coverage() {
        let nl = and_circuit();
        let faults = collapse(&nl, &enumerate_faults(&nl));
        // Only the all-ones test: detects s-a-0 faults but no s-a-1.
        let coverage = fault_coverage(&nl, &faults, &[vec![true, true]]);
        assert!(coverage > 0.0 && coverage < 1.0, "got {coverage}");
    }

    #[test]
    fn more_than_64_tests_use_multiple_batches() {
        // 7-input circuit, 128 exhaustive tests.
        let mut nl = Netlist::new();
        let inputs: Vec<_> = (0..7).map(|k| nl.add_input(format!("x{k}"))).collect();
        let mut acc = inputs[0];
        for &i in &inputs[1..] {
            acc = nl.add_gate(Gate2::Xor, acc, i);
        }
        nl.add_output("p", acc);
        let faults = collapse(&nl, &enumerate_faults(&nl));
        let tests: Vec<Vec<bool>> =
            (0..128u32).map(|m| (0..7).map(|k| m & (1 << k) != 0).collect()).collect();
        assert_eq!(fault_coverage(&nl, &faults, &tests), 1.0, "parity chain fully testable");
    }

    #[test]
    fn empty_fault_list_is_fully_covered() {
        let nl = and_circuit();
        assert_eq!(fault_coverage(&nl, &[], &[]), 1.0);
    }
}
