//! The experiment library: one function per table/figure.
//!
//! Every function is deterministic given its seed and returns the data
//! the paper plots; the `fig*`/`table*` binaries print the same
//! rows/series the paper reports, and the Criterion benches time the
//! underlying operations. Measured baselines live in the repository's
//! `BENCH_*.json` files, and `nymbench/README.md` documents the
//! end-to-end nym-lifecycle benchmark.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod report;

pub use experiments::*;
pub use report::Table;
