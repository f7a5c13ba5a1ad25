//! Nymix: an anonymity-centric operating system architecture.
//!
//! This crate is the paper's primary contribution: the **Nym Manager**,
//! which gives users "explicit, first-class control over pseudonyms
//! representing the multiple roles or personas they may use online"
//! (§3.1). Each pseudonym (*nym*) runs in a **nymbox** — an AnonVM for
//! browsing plus a CommVM for its private anonymizer instance — wired
//! so that the only path from browser to Internet runs through the
//! anonymizer, and the only cross-nym file path runs through the
//! sanitizing SaniVM.
//!
//! Modules:
//!
//! * [`nymbox`] — a nymbox: VM pair, usage model, network attachment.
//! * [`manager`] — the Nym Manager: create/save/restore/destroy nyms,
//!   full topology wiring, startup timing (Figure 7). Layered as
//!   [`manager::env`] (the shared simulated world),
//!   [`manager::session`] (per-nym state with hard ownership
//!   boundaries), [`manager::pipeline`] (the staged, batched store
//!   pipeline over [`nymix_store::chain`]) and [`manager::fleet`]
//!   (multi-nym scheduling).
//! * [`timing`] — startup phase breakdowns and calibration.
//! * [`sanivm`] — the sanitized file-transfer path (§3.6/§4.3).
//! * [`installed_os`] — booting the machine's installed OS as a nym
//!   (§3.7, Table 1).
//! * [`intersection`] — Buddies-style anonymity-set tracking (§7).
//! * [`validation`] — the §5.1 leak-validation harness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod installed_os;
pub mod intersection;
pub mod manager;
pub mod nymbox;
pub mod sanivm;
pub mod timing;
pub mod validation;

pub use installed_os::{InstalledOs, OsKind, RepairOutcome};
pub use manager::fleet::FleetSaveRequest;
pub use manager::{NymFleet, NymId, NymManager, NymManagerError, SaveKind, StorageDest};
pub use nymbox::{Nymbox, UsageModel};
pub use sanivm::SaniVm;
pub use timing::StartupBreakdown;
pub use validation::{validate_isolation, IsolationReport};
