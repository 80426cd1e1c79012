//! Espresso-format PLA files and cube-list representations.
//!
//! The paper's experimental flow reads MCNC benchmarks as PLA files ("Both
//! programs used the PLA input files", §8); this crate supplies that input
//! path: a faithful reader/writer for the espresso PLA dialect (`.i`,
//! `.o`, `.p`, `.ilb`, `.ob`, `.type f|fd|fr|fdr`) and the cube-list data
//! model the rest of the workspace consumes. Each cube is one fixed-size
//! packed value (see [`Cube`]).
//!
//! ```
//! use pla::Pla;
//!
//! let text = "\
//! .i 3
//! .o 1
//! .type fd
//! 11- 1
//! --1 1
//! .e
//! ";
//! let pla: Pla = text.parse()?;
//! assert_eq!(pla.num_inputs(), 3);
//! assert_eq!(pla.cubes().len(), 2);
//! # Ok::<(), pla::ParsePlaError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cube;
mod format;

pub use cube::{Cube, Inputs, OutputValue, Outputs, Trit, MAX_INPUTS};
pub use format::{ParsePlaError, Pla, PlaType};
