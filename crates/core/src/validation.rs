//! The §5.1 leak-validation harness.
//!
//! "We attempted to transmit Ethernet and IP packets from one AnonVM as
//! well as one CommVM to the local network, other AnonVMs and CommVMs,
//! as well as the hypervisor. All attempts failed with a no-response,
//! as if the host did not exist. The AnonVM can only communicate with a
//! functional CommVM and the CommVM could only communicate with the
//! Internet not local intranets."
//!
//! [`validate_isolation`] launches `n` nyms and runs the full probe
//! matrix, returning a machine-checkable report.

use nymix_anon::AnonymizerKind;
use nymix_net::fabric::Packet;
use nymix_net::Ip;

use crate::manager::{NymId, NymManager, NymManagerError};
use crate::nymbox::UsageModel;

/// One probe's outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProbeResult {
    /// Description ("anonvm-1 -> intranet").
    pub label: String,
    /// Whether the packet was delivered.
    pub delivered: bool,
    /// Whether delivery was expected/required.
    pub expected_delivered: bool,
}

impl ProbeResult {
    /// Whether the probe matched the isolation contract.
    pub fn ok(&self) -> bool {
        self.delivered == self.expected_delivered
    }
}

/// The full §5.1 matrix for one configuration.
#[derive(Debug, Clone)]
pub struct IsolationReport {
    /// Every probe run.
    pub probes: Vec<ProbeResult>,
    /// Whether the AnonVM's fixed address ever appeared on the WAN side.
    pub anon_ip_leaked: bool,
    /// Whether any cleartext DNS left a CommVM toward the LAN.
    pub cleartext_dns_leaked: bool,
}

impl IsolationReport {
    /// Whether every probe matched expectations and no leak occurred.
    pub fn passed(&self) -> bool {
        self.probes.iter().all(ProbeResult::ok)
            && !self.anon_ip_leaked
            && !self.cleartext_dns_leaked
    }

    /// Failed probes, for diagnostics.
    pub fn failures(&self) -> Vec<&ProbeResult> {
        self.probes.iter().filter(|p| !p.ok()).collect()
    }
}

/// Launches `n` concurrent nyms and runs the §5.1 probe matrix.
pub fn validate_isolation(n: usize) -> Result<IsolationReport, NymManagerError> {
    let mut m = NymManager::new(0xA11CE, 64);
    let mut ids: Vec<NymId> = Vec::new();
    for i in 0..n {
        let (id, _) = m.create_nym(
            &format!("probe-{i}"),
            AnonymizerKind::Tor,
            UsageModel::Ephemeral,
        )?;
        ids.push(id);
    }
    let intranet = m.intranet_ip();
    let internet_target = m.dns().resolve("twitter.com").expect("eval site");
    let mut probes = Vec::new();

    m.fabric_mut().clear_trace();

    for (i, id) in ids.iter().enumerate() {
        let nb = m.nymbox(*id)?.clone();

        // AnonVM -> its own CommVM (the virtual wire): must deliver.
        let status = m.fabric_mut().send(
            nb.anon_node,
            Packet::tcp(Ip::ANONVM_FIXED, Ip::COMMVM_WIRE, 9050, 512),
        );
        probes.push(ProbeResult {
            label: format!("anonvm-{i} -> own commvm"),
            delivered: status.delivered(),
            expected_delivered: true,
        });

        // AnonVM -> the local intranet: must die.
        let status = m
            .fabric_mut()
            .send(nb.anon_node, Packet::icmp(Ip::ANONVM_FIXED, intranet));
        probes.push(ProbeResult {
            label: format!("anonvm-{i} -> intranet"),
            delivered: status.delivered(),
            expected_delivered: false,
        });

        // AnonVM -> hypervisor LAN leg: must die.
        let status = m.fabric_mut().send(
            nb.anon_node,
            Packet::icmp(Ip::ANONVM_FIXED, Ip::parse("192.168.1.100")),
        );
        probes.push(ProbeResult {
            label: format!("anonvm-{i} -> hypervisor"),
            delivered: status.delivered(),
            expected_delivered: false,
        });

        // CommVM -> Internet: must deliver (that's its job).
        let status = m.fabric_mut().send(
            nb.comm_node,
            Packet::tcp(Ip::parse("10.0.3.2"), internet_target, 443, 512),
        );
        probes.push(ProbeResult {
            label: format!("commvm-{i} -> internet"),
            delivered: status.delivered(),
            expected_delivered: true,
        });

        // CommVM -> intranet: must die ("could only communicate with
        // the Internet not local intranets").
        let status = m
            .fabric_mut()
            .send(nb.comm_node, Packet::icmp(Ip::parse("10.0.3.2"), intranet));
        probes.push(ProbeResult {
            label: format!("commvm-{i} -> intranet"),
            delivered: status.delivered(),
            expected_delivered: false,
        });

        // AnonVM -> another nym's CommVM uplink: structurally
        // unaddressable (all wires use identical addresses); probing the
        // uplink subnet from the AnonVM must die at its own CommVM.
        let status = m.fabric_mut().send(
            nb.anon_node,
            Packet::icmp(Ip::ANONVM_FIXED, Ip::parse("10.0.3.1")),
        );
        probes.push(ProbeResult {
            label: format!("anonvm-{i} -> nymbox uplink gateway"),
            delivered: status.delivered(),
            expected_delivered: false,
        });
    }

    // Leak analysis over everything captured during the matrix.
    let tracer = m.fabric().tracer();
    let anon_ip_leaked = tracer
        .entries()
        .iter()
        .any(|e| e.packet.src == Ip::ANONVM_FIXED && e.from_node == "hypervisor");
    let cleartext_dns_leaked = tracer.entries().iter().any(|e| {
        e.from_node.starts_with("commvm") && e.packet.dst_port == 53 && e.packet.dst == intranet
    });

    Ok(IsolationReport {
        probes,
        anon_ip_leaked,
        cleartext_dns_leaked,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_nym_matrix_passes() {
        let report = validate_isolation(1).unwrap();
        assert!(report.passed(), "failures: {:?}", report.failures());
        assert_eq!(report.probes.len(), 6);
    }

    #[test]
    fn many_concurrent_nyms_stay_isolated() {
        // §5.1: "We also started many pseudonyms simultaneously in
        // order to verify the restricted communication model."
        let report = validate_isolation(5).unwrap();
        assert!(report.passed(), "failures: {:?}", report.failures());
        assert_eq!(report.probes.len(), 30);
    }

    /// The idle-traffic analysis of §5.1: boots Nymix with three idle
    /// nyms and classifies all emitted traffic ("we ran Wireshark and
    /// inspected traffic entering and exiting an idle Nymix client").
    #[test]
    fn idle_host_emits_only_dhcp() {
        let mut m = NymManager::new(0x1D7E, 64);
        for i in 0..3 {
            m.create_nym(
                &format!("idle-{i}"),
                AnonymizerKind::Tor,
                UsageModel::Ephemeral,
            )
            .unwrap();
        }
        // No browsing: the host is idle. Inspect everything captured
        // since boot (the DHCP exchange) and since the nyms launched.
        let emissions: Vec<(Ip, u16)> = m
            .fabric()
            .tracer()
            .entries()
            .iter()
            .filter(|e| e.from_node == "hypervisor")
            .map(|e| (e.packet.dst, e.packet.dst_port))
            .collect();
        // Exactly the boot DHCP exchange: nothing else, and nothing
        // bound for the anonymizer while idle.
        assert_eq!(emissions.len(), 1, "unexpected emissions: {emissions:?}");
        assert_eq!(emissions[0].1, 67);
        // "the AnonVM transmitted no traffic" beyond its wire.
        let anonvm_external_frames = m
            .fabric()
            .tracer()
            .entries()
            .iter()
            .filter(|e| e.from_node.starts_with("anonvm") && !e.to_node.starts_with("commvm"))
            .count();
        assert_eq!(anonvm_external_frames, 0);
    }

    #[test]
    fn report_accounting() {
        let report = validate_isolation(2).unwrap();
        assert!(report.failures().is_empty());
        assert!(!report.anon_ip_leaked);
        assert!(!report.cleartext_dns_leaked);
    }
}
