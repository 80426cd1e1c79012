//! Multi-valued bi-decomposition — the §9 future-work generalization.
//!
//! The DAC 2001 paper closes with: "The future work includes …
//! generalization of the algorithm for multi-valued logic with potential
//! applications in datamining \[16\]". This crate implements that
//! generalization in the direction of reference \[16\]
//! (Steinbach–Perkowski–Lang, *Bi-Decomposition of Multi-Valued Functions
//! for Circuit Design and Data Mining Applications*, ISMVL 1999):
//!
//! * multi-valued variables with independent domain sizes, functions with
//!   values in `{0, .., k-1}` ([`MvTable`]);
//! * incompletely specified MV functions as pointwise *intervals*
//!   `[lo, hi]` ([`MvIsf`]) — the MV analogue of the on-set/off-set pair;
//! * **MIN-** and **MAX-bi-decomposability** checks with dedicated
//!   variable sets (the exact generalizations of the paper's AND/OR
//!   Theorem 1), component derivation, and a recursive decomposer into a
//!   network of two-input MIN/MAX gates and unary literals
//!   ([`decompose`], [`MvNetlist`]);
//! * an MV Shannon expansion fallback, keeping the algorithm total.
//!
//! For Boolean domains (every domain = 2, `k = 2`), MIN is AND and MAX is
//! OR, and the checks coincide with the paper's Theorems — the test suite
//! cross-validates against the `boolfn` oracles on exactly that case.
//!
//! ```
//! use mv::{decompose, MvIsf, MvTable};
//!
//! // A ternary function of two ternary variables: f = min(x0, x1).
//! let f = MvTable::from_fn(&[3, 3], 3, |point| point[0].min(point[1]));
//! let isf = MvIsf::from_table(&f);
//! let (netlist, root) = decompose(&isf);
//! assert_eq!(netlist.eval(root, &[2, 1]), 1);
//! assert!(netlist.min_max_gates() <= 1, "a single MIN gate suffices");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod decompose;
mod isf;
mod netlist;
mod table;

pub use decompose::{decompose, decompose_with_options, MvOptions, MvStats};
pub use isf::MvIsf;
pub use netlist::{MvGate, MvNetlist, MvNodeId};
pub use table::MvTable;
