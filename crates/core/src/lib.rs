//! **BI-DECOMP** — BDD-based bi-decomposition of incompletely specified
//! multi-output logic functions into netlists of two-input AND/OR/EXOR
//! gates.
//!
//! Reproduction of: A. Mishchenko, B. Steinbach, M. Perkowski, *An
//! Algorithm for Bi-Decomposition of Logic Functions*, DAC 2001.
//!
//! The algorithm recursively splits an incompletely specified function
//! (ISF, an interval `[Q, ¬R]` given by on-set `Q` and off-set `R`) as
//! `F = A Θ B` where `Θ` is a two-input AND, OR or EXOR gate and the
//! components `A`, `B` see disjoint *dedicated* variable sets `X_A`, `X_B`
//! plus shared variables `X_C` (Fig. 1 of the paper). Don't-cares are
//! exploited at every step, components are reused through a support-hashed
//! cache, and the resulting netlists are non-redundant (fully single
//! stuck-at testable, Theorem 5).
//!
//! # Quick start
//!
//! ```
//! use bidecomp::{decompose_pla, Options};
//!
//! let pla: pla::Pla = "\
//! .i 4
//! .o 1
//! 11-- 1
//! --11 1
//! .e
//! ".parse()?;
//! let outcome = decompose_pla(&pla, &Options::default());
//! assert!(outcome.verified);
//! let stats = outcome.netlist.stats();
//! assert_eq!(stats.gates, 3); // OR(a·b, c·d)
//! # Ok::<(), pla::ParsePlaError>(())
//! ```
//!
//! # Module map
//!
//! * [`Isf`] — intervals of Boolean functions over a BDD manager.
//! * [`check`] — decomposability conditions (Theorems 1 and 2).
//! * [`mod@derive`] — component derivation (Theorems 3 and 4, Table 1).
//! * [`exor`] — the `CheckExorBiDecomp` constraint-propagation algorithm
//!   (Fig. 4).
//! * [`grouping`] — variable grouping (Figs. 5 and 6).
//! * [`Decomposer`] — the recursive `BiDecompose` procedure (Fig. 7) with
//!   the component-reuse cache (Theorem 6).
//! * [`decompose_pla`] / [`verify`] — the end-to-end driver and the
//!   BDD-based verifier.
//! * [`trace`] / [`trace::tree`] — cost-attributed decomposition traces
//!   and tree reconstruction with inclusive/exclusive rollups.
//! * [`doctor`] — anomaly detection over a finished run (GC thrash).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
mod decompose;
pub mod derive;
pub mod doctor;
mod driver;
pub mod exor;
mod export;
pub mod grouping;
mod isf;
mod options;
mod stats;
pub mod trace;
pub mod verify;

pub use decompose::{Component, ComponentCacheStats, Decomposer};
pub use driver::{
    decompose_pla, decompose_pla_with_recorder, isfs_from_pla, signal_names, DecompOutcome,
    PhaseTimes,
};
pub use export::pla_from_netlist;
pub use isf::Isf;
pub use options::{GateChoice, Options};
pub use stats::Stats;
