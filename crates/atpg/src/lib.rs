//! Single stuck-at fault testing for two-input gate netlists.
//!
//! Theorem 5 of the paper claims that netlists produced by bi-decomposition
//! with the Fig. 6 grouping are *completely testable* for single stuck-at
//! faults (no redundant internal signals). This crate provides the
//! machinery to validate that claim:
//!
//! * a structural fault model with classical equivalence collapsing
//!   ([`enumerate_faults`], [`collapse`]);
//! * fault injection ([`inject`]) producing the faulty circuit;
//! * 64-way parallel-pattern single-fault fault simulation
//!   ([`fault_coverage`], [`detects`]);
//! * exact, BDD-based test generation and redundancy identification
//!   ([`generate_tests`]): a fault is redundant iff the good and faulty
//!   circuits are equivalent, decided by BDD comparison.
//!
//! ```
//! use netlist::{Netlist, Gate2};
//!
//! let mut nl = Netlist::new();
//! let a = nl.add_input("a");
//! let b = nl.add_input("b");
//! let g = nl.add_gate(Gate2::And, a, b);
//! nl.add_output("f", g);
//! let report = atpg::generate_tests(&nl);
//! assert_eq!(report.redundant, 0, "a bare AND gate is fully testable");
//! assert_eq!(report.coverage(), 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fault;
mod sim;
mod tpg;

pub use fault::{collapse, enumerate_faults, inject, Fault, FaultSite};
pub use sim::{detects, fault_coverage};
pub use tpg::{compact_tests, generate_tests, remove_redundancies, test_for_fault, TestReport};
