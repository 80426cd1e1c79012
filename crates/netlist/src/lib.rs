//! Two-input gate networks — the output representation of bi-decomposition.
//!
//! A [`Netlist`] is a DAG of primary inputs, constants, inverters and
//! two-input gates (AND/OR/XOR and their complements). The crate provides:
//!
//! * structural hashing and constant folding on construction
//!   (shared sub-circuits are created once);
//! * circuit statistics under the paper's area/delay cost model
//!   ([`Netlist::stats`]: XOR/NOR area ratio 5/2, delay ratio 2.1/1.0,
//!   inverters free);
//! * 64-way bit-parallel simulation ([`Netlist::simulate`]);
//! * extraction of output BDDs ([`Netlist::to_bdds`]) for the BDD-based
//!   verifier;
//! * BLIF export/import ([`Netlist::to_blif`], [`Netlist::from_blif`]) —
//!   the paper writes its results to BLIF files.
//!
//! ```
//! use netlist::{Netlist, Gate2};
//!
//! let mut nl = Netlist::new();
//! let a = nl.add_input("a");
//! let b = nl.add_input("b");
//! let c = nl.add_input("c");
//! let ab = nl.add_gate(Gate2::And, a, b);
//! let f = nl.add_gate(Gate2::Or, ab, c);
//! nl.add_output("f", f);
//! assert_eq!(nl.stats().gates, 2);
//! assert!(nl.eval_single("f", &[true, false, false]).is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod blif;
mod cost;
mod extract;
mod graph;
mod optimize;
mod report;
mod sim;

pub use blif::ParseBlifError;
pub use cost::NetlistStats;
pub use graph::{Gate, Gate2, Netlist, SignalId};
