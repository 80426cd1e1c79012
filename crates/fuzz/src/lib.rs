//! Differential fuzzing of the bi-decomposition pipeline.
//!
//! The paper's guarantees are mechanically checkable: every BDD operator
//! has a brute-force [`boolfn::TruthTable`] counterpart, and every
//! decomposed netlist must implement a completion of its specification
//! interval `[Q, ¬R]` (Theorems 1–4) while being 100% single-stuck-at
//! testable (Theorem 5). This crate generates seeded incompletely
//! specified functions as PLAs, cross-checks the operator layer and the
//! end-to-end pipeline against enumeration, and delta-debugs any failing
//! case down to a minimal PLA that is saved into a replayable corpus.
//!
//! Layers:
//!
//! * [`gen`] — seeded case generators (cube lists, expression trees,
//!   mutation of corpus cases) sweeping arity, cube density and
//!   don't-care density.
//! * [`oracle`] — operator-level differential checks of every BDD
//!   operation the decomposer relies on: `apply`/ITE, quantification,
//!   cofactor, `isop`, decision procedures, essential variables, and
//!   functions built under a random variable order.
//! * [`e2e`] — decompose → netlist → bit-parallel resimulation for
//!   interval containment, a second decomposition that collects garbage
//!   after every output and must write the same netlist, plus ATPG
//!   full-testability.
//! * [`shrink`] — delta-debugging minimizer (cube removal, output and
//!   variable projection, literal widening, don't-care promotion).
//! * [`corpus`] — hashed PLA filenames, round-trip-checked save/load.
//! * [`driver`] — the seeded fuzz loop and corpus replay; every count
//!   is a field of the returned report.
//!
//! The harness proves it can catch real bugs via the deliberate Theorem 1
//! mutation in `bidecomp::check` (see
//! [`bidecomp::check::set_or_check_mutation`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

pub mod corpus;
pub mod driver;
pub mod e2e;
pub mod gen;
pub mod oracle;
pub mod shrink;

pub use driver::{check_case, replay, run, CaseFailure, FuzzConfig, FuzzReport};

/// One detected disagreement between the system under test and an oracle.
#[derive(Clone, Debug)]
pub struct Failure {
    /// Stable machine-readable failure class (e.g. `"apply"`, `"resim"`,
    /// `"panic"`, `"atpg_redundant"`).
    pub kind: &'static str,
    /// Human-readable specifics: which operator, output, or minterm.
    pub detail: String,
}

impl Failure {
    /// Convenience constructor.
    pub fn new(kind: &'static str, detail: impl Into<String>) -> Self {
        Failure { kind, detail: detail.into() }
    }
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.kind, self.detail)
    }
}
