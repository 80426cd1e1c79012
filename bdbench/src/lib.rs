//! **bdbench** — the timed, traced benchmark of BI-DECOMP.
//!
//! One command runs one workload in a closed loop from a single thread:
//! it decomposes every PLA of the workload with the library's default
//! options, pass after pass, until the time budget is spent. It checks
//! each netlist with an [`oracle`] that shares no code with the
//! decomposer, checks that the deterministic counts repeat, and prints
//! the end-to-end metrics (or, in the traced run, the per-layer ones).
//! See `README.md` in this directory for the metrics and workloads.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calib;
pub mod metrics;
pub mod oracle;
pub mod runner;
pub mod workload;

pub use runner::{run, Config};
pub use workload::Workload;
