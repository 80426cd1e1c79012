//! Reduced ordered binary decision diagrams (ROBDDs).
//!
//! This crate is a self-contained substitute for the BuDDy package used by
//! the DAC 2001 paper *An Algorithm for Bi-Decomposition of Logic Functions*.
//! Like BuDDy it uses plain (non-complemented) edges, a unique table for
//! canonicity, a computed cache for memoization, and explicit garbage
//! collection from protected roots.
//!
//! The central type is the [`Bdd`] manager. Functions are lightweight
//! [`Func`] handles (indices into the manager's node store); all operations
//! are methods on the manager.
//!
//! ```
//! use bdd::Bdd;
//!
//! let mut mgr = Bdd::new(3);
//! let (a, b, c) = (mgr.var(0), mgr.var(1), mgr.var(2));
//! let ab = mgr.and(a, b);
//! let f = mgr.or(ab, c); // f = a·b + c
//! assert_eq!(mgr.sat_count(f), 5.0);
//! assert!(mgr.implies(ab, f));
//! ```
//!
//! # Highlights
//!
//! * [`Bdd::apply`]-family binary operators, [`Bdd::ite`], negation.
//! * Existential and universal quantification over variable cubes
//!   ([`Bdd::exists`], [`Bdd::forall`]) — the workhorses of the
//!   bi-decomposition formulas.
//! * Shannon cofactors ([`Bdd::cofactor`]).
//! * Structural queries: support, node counts, satisfy counts, cube picking.
//! * Explicit mark-and-sweep garbage collection ([`Bdd::gc`]) from
//!   [`Bdd::protect`]ed roots.
//! * A variable order set once, on the empty manager ([`Bdd::set_order`]),
//!   plus a static ordering heuristic ([`reorder::order_by_frequency`]).
//! * Post-run table and cache analytics ([`Bdd::analytics`]): probe-length
//!   distribution and per-op cache hit rates.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analytics;
mod cofactor;
mod hash;
mod isop;
mod manager;
mod ops;
mod quant;
pub mod reorder;
mod sat;
mod support;
mod varset;

pub use analytics::{Analytics, OpCacheStats, ProbeStats};
pub use isop::IsopCube;
pub use manager::{Bdd, Func, MemReport, OpStats, VarId, DEFAULT_CACHE_ENTRIES, MAX_NODES};
pub use ops::BinOp;
pub use varset::{VarSet, MAX_VARS};
