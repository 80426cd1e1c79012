//! Umbrella crate of the BI-DECOMP reproduction: re-exports every
//! subsystem and provides cross-crate flows that combine them.
//!
//! The individual crates are usable on their own:
//!
//! | crate | role |
//! |-------|------|
//! | [`bdd`] | ROBDD engine (BuDDy substitute) |
//! | [`boolfn`] | truth tables + brute-force oracles |
//! | [`pla`] | PLA file format and cube lists |
//! | [`netlist`] | two-input gate networks, cost model, BLIF |
//! | [`atpg`] | stuck-at fault testing |
//! | [`benchmarks`] | MCNC-style workloads |
//! | [`bidecomp`] | the DAC 2001 algorithm |
//! | [`baseline`] | SIS-like and BDS-like comparators |
//! | [`sat`] | DPLL solver + Tseitin miters (second verification engine) |
//!
//! The [`flow`] module implements the §9 "future work" integration: test
//! pattern generation as part of the decomposition run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use atpg;
pub use baseline;
pub use bdd;
pub use benchmarks;
pub use bidecomp;
pub use boolfn;
pub use netlist;
pub use pla;
pub use sat;

pub mod flow {
    //! Combined flows across subsystems.

    use atpg::TestReport;
    use bidecomp::{DecompOutcome, Options};
    use pla::Pla;

    /// Result of the ATPG-integrated decomposition flow.
    #[derive(Debug)]
    pub struct TestedOutcome {
        /// The ordinary decomposition outcome (netlist, stats, verifier).
        pub outcome: DecompOutcome,
        /// Complete single-stuck-at ATPG over the produced netlist.
        pub report: TestReport,
    }

    impl TestedOutcome {
        /// Theorem 5 holds for this run: the netlist verified and every
        /// collapsed fault has a test.
        pub fn fully_testable(&self) -> bool {
            self.outcome.verified && self.report.redundant == 0
        }
    }

    /// Decomposes a PLA and generates a complete single-stuck-at test set
    /// for the result — the paper's §9 roadmap item ("a test pattern
    /// generation technique can be integrated into the decomposition
    /// algorithm with little if any increase in complexity"): the netlist
    /// arrives together with its tests.
    ///
    /// ```
    /// let pla: pla::Pla = ".i 3\n.o 1\n11- 1\n--1 1\n.e\n".parse()?;
    /// let tested = bidecomp_suite::flow::decompose_with_tests(
    ///     &pla,
    ///     &bidecomp::Options::default(),
    /// );
    /// assert!(tested.fully_testable());
    /// assert!(!tested.report.tests.is_empty());
    /// # Ok::<(), pla::ParsePlaError>(())
    /// ```
    pub fn decompose_with_tests(pla: &Pla, options: &Options) -> TestedOutcome {
        let outcome = bidecomp::decompose_pla(pla, options);
        let report = atpg::generate_tests(&outcome.netlist);
        TestedOutcome { outcome, report }
    }
}

#[cfg(test)]
mod tests {
    use super::flow;

    #[test]
    fn integrated_flow_produces_tests() {
        let pla: pla::Pla = ".i 4\n.o 1\n11-- 1\n--11 1\n.e\n".parse().expect("valid");
        let tested = flow::decompose_with_tests(&pla, &bidecomp::Options::default());
        assert!(tested.fully_testable());
        assert_eq!(tested.report.testable_coverage(), 1.0);
        // The tests exercise the netlist meaningfully.
        assert!(tested.report.tests.len() >= 3);
        for t in &tested.report.tests {
            assert_eq!(t.len(), 4);
        }
    }
}
