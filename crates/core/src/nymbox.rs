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

#[cfg(test)]
impl Nymbox {
    /// Whether shutdown should write state back to storage.
    fn saves_on_close(&self) -> bool {
        self.model == UsageModel::Persistent
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn saves_on_close_only_for_persistent() {
        let mk = |model| Nymbox {
            name: "n".into(),
            model,
            anonymizer: AnonymizerKind::Tor,
            anon_vm: VmId(1),
            comm_vm: VmId(2),
            anon_node: NodeId(0),
            comm_node: NodeId(1),
            restored: false,
        };
        assert!(!mk(UsageModel::Ephemeral).saves_on_close());
        assert!(mk(UsageModel::Persistent).saves_on_close());
        assert!(!mk(UsageModel::PreConfigured).saves_on_close());
    }
}
