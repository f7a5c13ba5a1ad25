//! Pluggable anonymizers — the CommVM's contents.
//!
//! §3.3/§4.1: "Nymix treats the anonymizer as a pluggable module, and
//! offers the user a choice of several alternative anonymizers
//! pre-configured to address different security/performance tradeoffs."
//! The prototype ships Tor, Dissent, SWEET, and a lightweight incognito
//! (NAT) mode; [`AnonymizerKind`] selects among exactly these four.
//!
//! Each anonymizer implements the [`Anonymizer`] trait: a startup plan
//! (what Figure 7's "Start Tor" phase measures), a transfer cost model
//! (Figure 5's ~12% Tor overhead), an exit-address/linkability contract
//! (what the §5.1 leak analysis checks), and optional persistent state
//! (Tor entry guards — the §3.5 security argument for quasi-persistent
//! nyms).
//!
//! Modules:
//!
//! * [`api`] — the trait and shared request/cost types.
//! * [`tor`] — onion routing: directory, guards, 3-hop path selection
//!   (which fixes the exit address), guard persistence.
//! * [`dissent`] — an anytrust DC-net, modeled by its startup phases,
//!   byte overhead and rate cap.
//! * [`incognito`] — the NAT-based incognito mode (weak, fast).
//! * [`sweet`] — the email-tunnel transport.
//!
//! No anonymizer runs its wire-level mechanics (onion cell crypto, DC-net
//! rounds): every figure depends only on the cost model above. The
//! DC-net's rounds come back only with the `repro` row that measures
//! §3.3's traffic-analysis resistance. Likewise §3.3's serial
//! composition ("best of both worlds") is not modeled; if it is ever
//! wanted, it comes back as an [`AnonymizerKind`] variant with a `repro`
//! row.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod dissent;
pub mod incognito;
pub mod sweet;
pub mod tor;

pub use api::{Anonymizer, AnonymizerKind, StartupPhase, TransferCost};
pub use dissent::DissentNet;
pub use incognito::Incognito;
pub use sweet::Sweet;
pub use tor::{TorClient, TorDirectory, TorState};
