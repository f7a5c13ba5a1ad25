//! Deterministic discrete-event simulation substrate for Nymix.
//!
//! The paper's evaluation (§5) ran on real hardware: an i7 quad-core with
//! 16 GB RAM talking to a DeterLab-hosted Tor deployment. This crate is
//! the replacement testbed: a deterministic discrete-event engine, a
//! seeded RNG, and the simulated clock every cost model charges in. The
//! shared resources are priced by closed forms next to their owners:
//! the access link by `nymix_net::access_transfer`, the host CPU by
//! `nymix_vmm::CpuHost::batch_secs`, and the disk by [`DiskProfile`].
//! Every experiment is reproducible from a seed.
//!
//! Components:
//!
//! * [`time`] — microsecond-resolution simulated clock types.
//! * [`rng`] — from-scratch xoshiro256** deterministic RNG (stable across
//!   toolchains, unlike external RNG crates).
//! * [`engine`] — the event loop: timed callbacks over a user world type.
//! * [`stats`] — small helpers for series and summary statistics.
//! * [`storage`] — the disk cost model: device I/O to simulated time.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod rng;
pub mod stats;
pub mod storage;
pub mod time;

pub use engine::Engine;
pub use rng::Rng;
pub use stats::{Series, Summary};
pub use storage::DiskProfile;
pub use time::{SimDuration, SimTime};
