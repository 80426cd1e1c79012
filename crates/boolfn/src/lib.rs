//! Dense truth-table Boolean functions and brute-force oracles.
//!
//! This crate is the *independent referee* of the reproduction: it
//! implements Boolean functions the dumb, obviously-correct way (one bit
//! per minterm) so the BDD engine and all the decomposability theorems of
//! the paper can be cross-checked against enumeration semantics rather
//! than against themselves.
//!
//! ```
//! use boolfn::TruthTable;
//!
//! // f(a, b, c) = a·b + c, built by enumeration.
//! let f = TruthTable::from_fn(3, |bits| (bits & 0b011) == 0b011 || bits & 0b100 != 0);
//! assert_eq!(f.count_ones(), 5);
//! let g = f.cofactor(2, false);
//! assert_eq!(g.count_ones(), 2); // a·b over the remaining space
//! ```
//!
//! Contents:
//! * [`TruthTable`] — up to 24-variable dense functions with the full
//!   operator set, quantification and cofactors.
//! * [`builders`] — symmetric, parity, majority and threshold functions
//!   for the tests.
//! * [`oracle`] — enumeration-based decomposability deciders for OR-, AND-
//!   and EXOR-bi-decomposition (Sections 3–4 of the paper), used by the
//!   test suites of the `bidecomp` crate.
//! * BDD interop: [`TruthTable::to_bdd`] and [`TruthTable::from_bdd`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builders;
mod convert;
pub mod oracle;
mod table;

pub use table::TruthTable;
