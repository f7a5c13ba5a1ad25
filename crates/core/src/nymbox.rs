//! The nymbox: one pseudonym's isolated execution container.
//!
//! "Each nymbox in fact represents two virtual machines" (§3.1): the
//! AnonVM (browser, untrusted) and the CommVM (anonymizer). A nymbox
//! also carries its usage model (§3.5) and its network attachment
//! points in the fabric.

use nymix_anon::AnonymizerKind;
use nymix_net::NodeId;
use nymix_vmm::VmId;

/// The three nym usage models of §3.5.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UsageModel {
    /// Amnesiac: all state discarded at shutdown (the default).
    Ephemeral,
    /// Stored state updated after every session — convenient, but "a
    /// stain or other exploit attack in one browsing session will
    /// persist for the lifetime of the nym".
    Persistent,
    /// Snapshot-once: every session starts from the frozen snapshot;
    /// "a malware infection affecting one browsing session will be
    /// scrubbed at the user's next session".
    PreConfigured,
}

/// A live nymbox.
#[derive(Debug, Clone)]
pub struct Nymbox {
    /// User-facing nym name.
    pub name: String,
    /// Usage model.
    pub model: UsageModel,
    /// Which anonymizer the CommVM runs.
    pub anonymizer: AnonymizerKind,
    /// The browsing VM.
    pub anon_vm: VmId,
    /// The anonymizer VM.
    pub comm_vm: VmId,
    /// Fabric node of the AnonVM.
    pub anon_node: NodeId,
    /// Fabric node of the CommVM.
    pub comm_node: NodeId,
    /// Whether this nymbox was restored from stored state.
    pub restored: bool,
}
