//! The **Environment** layer: the shared simulated world.
//!
//! Everything every nym sees in common lives here — the hypervisor
//! (VMs, memory), the packet fabric (isolation), DNS, the relay
//! directory, the simulation clock, the world RNG, and the storage
//! endpoints (cloud providers, the journaled disk, the striped
//! placement). Transfer timing is not state here:
//! [`nymix_net::access_transfer`] charges every transfer.
//! The layering rule: an [`Environment`] never holds per-nym state.
//! Per-nym state — nymbox, anonymizer, browser, snapshot chains,
//! sealing scratch — lives in
//! [`NymSession`](super::session::NymSession), one value per nym, so
//! no `&mut` on one nym's session can alias another's. Sessions take
//! `&mut Environment` for exactly the operations that genuinely touch
//! the shared world (booting VMs, advancing the clock).

use nymix_anon::tor::{TorClient, TorDirectory};
use nymix_anon::{Anonymizer, AnonymizerKind, DissentNet, Incognito, Sweet};
use nymix_net::dns::DnsDb;
use nymix_net::{Fabric, Ip, Mac, NodeId, NodeKind};
use nymix_sim::{Rng, SimDuration, SimTime};
use nymix_store::{CloudProvider, CloudSession, DiskStore, ObjectBackend, PlacementStore};
use nymix_vmm::Hypervisor;

use std::collections::BTreeMap;

use super::{NymManagerError, StorageDest};

/// The shared simulated world every nym runs in.
pub struct Environment {
    pub(super) hv: Hypervisor,
    pub(super) fabric: Fabric,
    pub(super) dns: DnsDb,
    pub(super) directory: TorDirectory,
    pub(super) rng: Rng,
    pub(super) clock: SimTime,
    pub(super) cloud: BTreeMap<String, CloudProvider>,
    pub(super) disk: DiskStore,
    pub(super) striped: Option<StripedStore>,
    pub(super) browser_scale: u64,
    // Fabric landmarks.
    pub(super) hyp_node: NodeId,
    pub(super) internet_node: NodeId,
    pub(super) intranet_node: NodeId,
    pub(super) public_ip: Ip,
    pub(super) lan_gateway_ip: Ip,
}

impl Environment {
    /// Boots the paper's testbed topology on a host with
    /// `host_ram_mib` MiB of RAM (minimal base image for speed;
    /// `browser_scale` divides browser byte volumes).
    pub(super) fn new(seed: u64, browser_scale: u64, host_ram_mib: u32) -> Self {
        let mut fabric = Fabric::new();
        let public_ip = Ip::parse("203.0.113.9");
        let lan_gateway_ip = Ip::parse("192.168.1.1");

        // The hypervisor host: NAT from nymboxes to the access link,
        // plus a leg on the local intranet.
        let hyp_node = fabric.add_node("hypervisor", NodeKind::Nat);
        let hyp_wan = fabric.add_iface(hyp_node, Mac::host_nic(1), public_ip);
        let hyp_lan = fabric.add_iface(hyp_node, Mac::host_nic(2), Ip::parse("192.168.1.100"));

        // The wide-area Internet: owns every evaluation-site address.
        let internet_node = fabric.add_node("internet", NodeKind::Internet);
        let inet_iface =
            fabric.add_iface(internet_node, Mac::host_nic(3), Ip::parse("198.51.100.1"));
        let dns = DnsDb::with_eval_sites();
        for (i, name) in [
            "gmail.com",
            "twitter.com",
            "youtube.com",
            "blog.torproject.org",
            "bbc.co.uk",
            "facebook.com",
            "slashdot.org",
            "espn.com",
            "kernel.deterlab.net",
            "cloud.dropbox.example",
            "cloud.drive.example",
        ]
        .iter()
        .enumerate()
        {
            let ip = dns.resolve(name).expect("eval site registered");
            fabric.add_iface(internet_node, Mac::host_nic(100 + i as u32), ip);
        }
        // Tor relays live on the internet node too (198.18.0.0/15).
        for i in 0..4u32 {
            fabric.add_iface(
                internet_node,
                Mac::host_nic(200 + i),
                Ip([198, 18, 0, i as u8]),
            );
        }
        fabric.connect(hyp_node, hyp_wan, internet_node, inet_iface);
        fabric.add_route(internet_node, Ip::parse("0.0.0.0"), 0, inet_iface);

        // The local intranet (what CommVMs must NOT reach, §5.1).
        let intranet_node = fabric.add_node("intranet-fileserver", NodeKind::Host);
        let intr_iface = fabric.add_iface(intranet_node, Mac::host_nic(4), lan_gateway_ip);
        fabric.connect(hyp_node, hyp_lan, intranet_node, intr_iface);
        fabric.add_route(intranet_node, Ip::parse("0.0.0.0"), 0, intr_iface);

        // Hypervisor routing: LAN to the LAN leg, everything else WAN.
        fabric.add_route(hyp_node, Ip::parse("0.0.0.0"), 0, hyp_wan);
        fabric.add_route(hyp_node, Ip::parse("192.168.1.0"), 24, hyp_lan);

        let mut rng = Rng::seed_from(seed);
        let directory = TorDirectory::generate(rng.next_u64(), 120);

        // Boot-time DHCP: the only LAN traffic an idle Nymix host emits
        // (§5.1: "The Nymix hypervisor emitted only traffic for DHCP and
        // anonymizer traffic").
        let dhcp =
            nymix_net::fabric::Packet::udp(Ip::parse("192.168.1.100"), lan_gateway_ip, 67, 300);
        let _ = fabric.send(hyp_node, dhcp);

        Self {
            // paper_testbed_minimal() at the paper's 16 GiB; larger
            // hosts run bigger fleets (the admission model is unchanged).
            hv: Hypervisor::new(host_ram_mib, nymix_fs::BaseImage::minimal().to_layer()),
            fabric,
            dns,
            directory,
            rng,
            clock: SimTime::ZERO,
            cloud: BTreeMap::new(),
            disk: DiskStore::new(),
            striped: None,
            browser_scale,
            hyp_node,
            internet_node,
            intranet_node,
            public_ip,
            lan_gateway_ip,
        }
    }

    /// Boots a fresh anonymizer of the requested kind against the
    /// shared relay directory (drawing from the world RNG).
    pub(super) fn build_anonymizer(&mut self, kind: AnonymizerKind) -> Box<dyn Anonymizer> {
        match kind {
            AnonymizerKind::Tor => {
                let mut tor = TorClient::bootstrap(&self.directory, &mut self.rng);
                // The startup phases include the circuit build; give the
                // client its live circuit so exit_address is a real exit.
                let _ = tor.build_circuit(&self.directory, &mut self.rng);
                Box::new(tor)
            }
            AnonymizerKind::Dissent => {
                // This draw keeps the world RNG stream, and so every later
                // exit address, unchanged.
                let _ = self.rng.next_u64();
                Box::new(DissentNet::new())
            }
            AnonymizerKind::Incognito => Box::new(Incognito::new()),
            AnonymizerKind::Sweet => Box::new(Sweet::new()),
        }
    }
}

/// Deterministic semi-compressible filler (directory documents are
/// text-ish: ~half repeated tokens, half digest material).
pub(super) fn deterministic_blob(tag: u64, len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len);
    let mut x = tag ^ 0x9e3779b97f4a7c15;
    while out.len() < len {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        if x & 1 == 0 {
            out.extend_from_slice(b"router relay-descriptor bandwidth=");
        }
        out.extend_from_slice(&x.to_le_bytes());
    }
    out.truncate(len);
    out
}

/// The [`StorageDest::Striped`] placement: one owned provider per
/// child, each behind a long-lived session.
pub(super) type StripedStore = PlacementStore<CloudSession<CloudProvider>>;

/// The opened storage destination: a credentialed cloud session
/// observing the anonymizer's exit address, the crash-consistent
/// journaled disk, or the striped placement.
/// Everything the save/restore pipeline ships — base archives, deltas,
/// chunk objects — moves through [`DestBackend::as_backend`].
pub(super) enum DestBackend<'a> {
    Cloud(CloudSession<&'a mut CloudProvider>),
    Disk(&'a mut DiskStore),
    Striped(&'a mut StripedStore),
}

impl DestBackend<'_> {
    /// The destination as a flat [`ObjectBackend`].
    pub(super) fn as_backend(&mut self) -> &mut dyn ObjectBackend {
        match self {
            DestBackend::Cloud(s) => s,
            DestBackend::Disk(s) => *s,
            DestBackend::Striped(s) => *s,
        }
    }

    /// Drains the simulated retry backoff the destination's cloud
    /// writes accrued (zero for the disk).
    pub(super) fn take_accrued_backoff(&mut self) -> SimDuration {
        match self {
            DestBackend::Cloud(s) => s.take_accrued_backoff(),
            DestBackend::Striped(s) => s.take_accrued_backoff(),
            DestBackend::Disk(_) => SimDuration::ZERO,
        }
    }
}

/// Opens the storage destination as an [`ObjectBackend`]: a
/// credentialed cloud session (which needs the fetching/saving
/// anonymizer's `exit` address — that is all the provider ever
/// observes), the journaled disk, or the striped placement.
pub(super) fn dest_backend<'a>(
    cloud: &'a mut BTreeMap<String, CloudProvider>,
    disk: &'a mut DiskStore,
    striped: Option<&'a mut StripedStore>,
    dest: &StorageDest,
    exit: Option<Ip>,
) -> Result<DestBackend<'a>, NymManagerError> {
    match dest {
        StorageDest::Cloud {
            provider,
            account,
            credential,
        } => {
            let p = cloud
                .get_mut(provider)
                .ok_or_else(|| NymManagerError::NoSuchProvider(provider.clone()))?;
            Ok(DestBackend::Cloud(p.session(
                account,
                credential,
                exit.expect("cloud access rides an anonymizer with an exit"),
            )))
        }
        StorageDest::Disk => Ok(DestBackend::Disk(disk)),
        StorageDest::Striped => {
            let s = striped
                .ok_or_else(|| NymManagerError::NoSuchProvider("striped placement".into()))?;
            // Child providers observe only the anonymizer's exit.
            s.set_observed_ip(exit.expect("striped access rides an anonymizer with an exit"));
            Ok(DestBackend::Striped(s))
        }
    }
}
