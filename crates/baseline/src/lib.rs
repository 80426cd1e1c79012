//! Comparator decomposers for the paper's Tables 2 and 3.
//!
//! * [`sis_like`] stands in for **SIS 1.2** (`resub -a; simplify -m` +
//!   area-oriented mapping into two-input gates): a two-level SOP flow —
//!   cube expansion against the off-set, irredundant cover extraction,
//!   then balanced AND trees ORed by a chain, with structural sharing. Like SIS
//!   in the paper's experiments, it "uses mostly NOR/NAND gates but
//!   ignores other two-input gate types" — it never produces EXORs.
//! * [`bds_like`] stands in for **BDS** (Yang & Ciesielski, DAC 2000) as
//!   the paper characterizes it (§8): a BDD-driven decomposer that "applies
//!   only weak bi-decomposition" — every split dedicates a single variable
//!   (1-/0-/x-dominator cuts on the top variable, Shannon otherwise), so
//!   it never searches the strong `(X_A, X_B)` groupings that give
//!   BI-DECOMP its edge.
//!
//! Both return ordinary [`netlist::Netlist`]s so the bench harness can
//! apply the same cost model to all three systems.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bds;
mod sis;

pub use bds::bds_like;
pub use sis::sis_like;
