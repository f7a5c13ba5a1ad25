//! Synthetic workloads reproducing the paper's evaluation inputs.
//!
//! The evaluation (§5) drives Nymix with: interactive visits to eight
//! real websites (Gmail, Twitter, Youtube, Tor Blog, BBC, Facebook,
//! Slashdot, ESPN), the Peacekeeper JavaScript CPU benchmark, and bulk
//! downloads of linux-3.14.2. None of those exist inside a simulation,
//! so this crate models their *resource behaviour*:
//!
//! * [`sites`] — per-site profiles: page weight, cache/cookie growth
//!   per visit, login state, memory dirtying. Calibrated so Figure 6's
//!   archive-size trajectories come out at the paper's magnitudes.
//! * [`browser`] — a Chromium-like session over a VM: writes real cache
//!   bytes into the AnonVM's writable layer (cap 83 MB, the Chromium
//!   default the paper cites), stores credentials, dirties guest
//!   memory, and can be *stained* (evercookie injection) to test
//!   amnesia.
//! * [`peacekeeper`] — the CPU benchmark as core-seconds of work with
//!   score calibration (Figure 4).
//! * [`download`] — the bulk-transfer workload (Figure 5).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod behavior;
pub mod browser;
pub mod download;
pub mod peacekeeper;
pub mod sites;

pub use behavior::{Behavior, BehaviorCost};
pub use browser::{BrowserSession, BrowserState, CACHE_CAP_BYTES};
pub use download::DownloadSpec;
pub use peacekeeper::PEACEKEEPER_WORK;
pub use sites::{Site, SiteProfile};
