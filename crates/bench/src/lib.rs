//! The experiment library: one function per table/figure.
//!
//! Every function is deterministic given its seed and returns the data
//! the paper plots. The `repro` binary prints every table and figure;
//! `crates/bench/repro.out` pins its output. The Criterion benches time
//! what no harness above them covers: `primitives` (crypto and store
//! kernels, written to `BENCH_primitives.jsonl` at the repository root
//! via `NYMIX_BENCH_JSON`), `disk` (the `LocalStore` baseline) and
//! `placement` (per-geometry and degraded reads).
//! `nymbench/README.md` documents the end-to-end nym-lifecycle
//! benchmark.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod report;

pub use experiments::*;
pub use report::Table;
