//! Virtual networking for Nymix.
//!
//! Two complementary layers model the prototype's network (§4.2):
//!
//! * A **packet layer** ([`fabric`]) answers *who can talk to whom*: it
//!   models nodes, interfaces, point-to-point links, NAT, firewalls and
//!   DNS, and records every frame on every link ([`trace`]) — the
//!   simulated Wireshark used to validate isolation exactly as §5.1 does.
//! * A **timing rule** ([`flow`]) answers *how fast*:
//!   [`access_transfer`] charges a transfer's latency plus its bytes at
//!   the shaped access link's rate (or the anonymizer's slower cap),
//!   which yields download/upload times for the Figure 5/6/7
//!   experiments.
//!
//! The Nymix topology built on these (in the `nymix` core crate) is:
//! each AnonVM has a single virtual wire to its CommVM ("a UDP port,
//! effectively setting a virtual wire connecting the two machines"); the
//! CommVM reaches the Internet through KVM user-mode NAT; nothing else
//! is reachable.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addr;
pub mod dns;
pub mod fabric;
pub mod firewall;
pub mod flow;
pub mod trace;

pub use addr::{Ip, Mac};
pub use fabric::{DeliveryStatus, Fabric, NodeId, NodeKind};
pub use firewall::{Action, Firewall, Rule};
pub use flow::access_transfer;
pub use trace::{TraceEntry, Tracer};
