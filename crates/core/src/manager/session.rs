//! The **NymSession** layer: everything owned by exactly one nym.
//!
//! A [`NymSession`] is the hard ownership boundary around one
//! pseudonym: its nymbox (VM pair + network attachment), its private
//! anonymizer instance, its browser state, its snapshot chains, its
//! own [`SealScratch`] arena (checked out of the store pipeline's
//! scratch pool) and its own nonce RNG (forked from the world RNG at
//! instantiation, so one session's nonce stream never perturbs
//! another's). The rules:
//!
//! * **No cross-nym state lives in a session.** Anything shared —
//!   hypervisor, fabric, clock, storage endpoints — belongs to
//!   [`Environment`] and is borrowed for the
//!   duration of one operation.
//! * **Sessions are independently sealable.** Because each session
//!   owns its scratch, RNG, chain keys, chunk index and chunk-id
//!   cache, the store pipeline can seal N sessions' saves on N threads
//!   with no locks and deterministic output (see [`super::pipeline`]).
//! * **Chains die with the session; epochs don't.** Destroying a nym
//!   drops its sessions' chains, but the pipeline's label registry
//!   remembers the highest epoch (and orphaned chunk objects) per
//!   storage label so a recreated nym can never collide with stale
//!   objects.

use nymix_anon::tor::TorState;
use nymix_anon::{Anonymizer, AnonymizerKind};
use nymix_net::firewall::{Action, Direction, Firewall, Rule};
use nymix_net::{access_transfer, Ip, Mac, NodeKind};
use nymix_sim::{Rng, SimDuration};
use nymix_store::cas::{ChunkIndex, ChunkManifest};
use nymix_store::{ArchiveCommitment, NymArchive, SealKey, SealScratch};
use nymix_vmm::VmConfig;
use nymix_workload::browser::BrowserState;
use nymix_workload::{BrowserSession, Site};

use std::collections::BTreeMap;

use super::env::{deterministic_blob, Environment};
use super::NymManagerError;
use crate::nymbox::{Nymbox, UsageModel};
use crate::timing::{calib as tcal, StartupBreakdown};

/// Per-storage-label snapshot-chain bookkeeping: what the last sealed
/// full logical state was, which layer generations it captured, and
/// the chain key deltas are sealed under. Owned by the session whose
/// nym the chain snapshots — never shared.
pub(super) struct ChainState {
    /// KDF output for this chain epoch; deltas reuse it (fresh nonce,
    /// own label as AEAD data) so an incremental save skips PBKDF2.
    pub(super) key: SealKey,
    pub(super) epoch: u64,
    pub(super) delta_count: usize,
    /// The archive as of the latest save on this chain, in **stored
    /// form**: records at or above
    /// [`nymix_store::CHUNK_RECORD_THRESHOLD`] hold their `"NYMC"`
    /// chunk manifest, the payload living in per-chunk objects beside
    /// the chain. Diffing stored forms is what makes a sub-record
    /// write ship a new manifest plus O(1) chunks.
    pub(super) archive: NymArchive,
    /// The chunks this epoch's live manifests reference. Each delta
    /// save mark-and-sweeps it against the new archive's manifests and
    /// deletes the chunks that fell out; a compacting save deletes the
    /// whole retired epoch's set.
    pub(super) chunks: ChunkIndex,
    /// Merkle commitment over `archive`'s stored-form records, with
    /// every leaf hash and interior node cached. Carrying it across
    /// saves is what makes a delta save's commitment O(dirty): only
    /// records that actually changed are rehashed, the root path is
    /// recomputed incrementally, and everything else is a cache hit.
    /// Derivable state — rebuilt from the archive on restore, never
    /// serialized.
    pub(super) commitment: ArchiveCommitment,
    pub(super) anon_gen: u64,
    pub(super) comm_gen: u64,
}

/// Disk layers and anonymizer state recovered from storage, handed to
/// [`NymSession::instantiate`] when re-creating a stored nym.
pub(super) struct RestoredState {
    pub(super) anon_upper: nymix_fs::Layer,
    pub(super) comm_upper: nymix_fs::Layer,
    pub(super) anonymizer_state: Option<Vec<u8>>,
}

/// One live nym: the per-nym half of the manager's state.
pub struct NymSession {
    pub(super) nymbox: Nymbox,
    pub(super) anonymizer: Box<dyn Anonymizer>,
    pub(super) browser: Option<BrowserState>,
    /// Snapshot chains by storage label. Holding the last stored-form
    /// archive in memory is what lets a save skip serializing clean
    /// layers and seal only the delta.
    pub(super) chains: BTreeMap<String, ChainState>,
    /// This session's sealing arena, checked out of the pipeline's
    /// scratch pool at instantiation and returned on destroy. Owning
    /// it per session is what lets fleet saves seal concurrently.
    pub(super) scratch: SealScratch,
    /// Ciphertext working copy for restores, reused alongside the arena.
    pub(super) unseal_work: Vec<u8>,
    /// Nonce/salt RNG, forked from the world RNG per session so
    /// concurrent seals stay deterministic and order-independent.
    pub(super) seal_rng: Rng,
    /// Per chunked record: the raw bytes it was last chunked from (by
    /// a save) or resolved to (by the restore that created this
    /// session), with their manifest. The chunk stage reuses the id of
    /// any new chunk a `memcmp` against these bytes proves unchanged.
    /// Moved in, never copied; it survives compaction (ids are content
    /// hashes, not per epoch) and dies with the session, so it is
    /// never shared across nyms.
    pub(super) chunk_cache: BTreeMap<String, (Vec<u8>, ChunkManifest)>,
}

impl NymSession {
    /// Builds the nymbox (two VMs, §4.2-homogeneous network wiring,
    /// §5.1 egress policy) and the session around it. `scratch` comes
    /// from the pipeline's pool.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn instantiate(
        env: &mut Environment,
        n: u64,
        name: &str,
        kind: AnonymizerKind,
        model: UsageModel,
        mut anonymizer: Box<dyn Anonymizer>,
        restored: Option<RestoredState>,
        cold: bool,
        scratch: SealScratch,
    ) -> Result<(Self, StartupBreakdown), NymManagerError> {
        // VMs.
        let anon_vm = env.hv.create_vm(VmConfig::anonvm())?;
        let comm_vm = match env.hv.create_vm(VmConfig::commvm()) {
            Ok(id) => id,
            Err(e) => {
                // Roll back the half-built nymbox.
                let _ = env.hv.destroy_vm(anon_vm);
                return Err(e.into());
            }
        };
        env.hv.boot(anon_vm)?;
        env.hv.boot(comm_vm)?;

        // Restore saved disk layers and anonymizer state if present.
        if let Some(state) = restored {
            let vm = env.hv.vm_mut(anon_vm)?;
            let _ = vm.take_disk_upper();
            assert!(vm.push_disk_upper(state.anon_upper));
            let vm = env.hv.vm_mut(comm_vm)?;
            let _ = vm.take_disk_upper();
            assert!(vm.push_disk_upper(state.comm_upper));
            if let Some(blob) = state.anonymizer_state {
                anonymizer.restore_state(&blob);
            }
        }

        // Network wiring: AnonVM --(virtual wire)-- CommVM --(uplink)--
        // hypervisor NAT. Addresses are identical for every nymbox
        // (§4.2 homogeneity).
        let anon_node = env.fabric.add_node(&format!("anonvm-{n}"), NodeKind::Host);
        let anon_if = env
            .fabric
            .add_iface(anon_node, Mac::ANONVM_FIXED, Ip::ANONVM_FIXED);
        let comm_node = env.fabric.add_node(&format!("commvm-{n}"), NodeKind::Nat);
        let comm_wire = env
            .fabric
            .add_iface(comm_node, Mac::COMMVM_FIXED, Ip::COMMVM_WIRE);
        let comm_up = env
            .fabric
            .add_iface(comm_node, Mac::COMMVM_FIXED, Ip::parse("10.0.3.2"));
        let hyp_leg = env.fabric.add_iface(
            env.hyp_node,
            Mac::host_nic(1000 + n as u32),
            Ip::parse("10.0.3.1"),
        );
        env.fabric.connect(anon_node, anon_if, comm_node, comm_wire);
        env.fabric
            .connect(comm_node, comm_up, env.hyp_node, hyp_leg);
        env.fabric
            .add_route(anon_node, Ip::parse("0.0.0.0"), 0, anon_if);
        env.fabric
            .add_route(comm_node, Ip::parse("10.0.2.0"), 24, comm_wire);
        env.fabric
            .add_route(comm_node, Ip::parse("0.0.0.0"), 0, comm_up);

        // CommVM egress policy: wire + uplink gateway + public Internet
        // only. Private space (the user's LAN, other VMs) is
        // unreachable — the §5.1 matrix.
        let mut fw = Firewall::default_drop();
        fw.push(Rule {
            direction: Direction::In,
            src: Some((Ip::parse("10.0.2.0"), 24)),
            dst: None,
            proto: None,
            dst_port: None,
            action: Action::Allow,
        });
        fw.push(Rule {
            direction: Direction::In,
            src: None,
            dst: Some((Ip::parse("10.0.3.2"), 32)),
            proto: None,
            dst_port: None,
            action: Action::Allow,
        });
        for (net, len) in [
            (Ip::parse("192.168.0.0"), 16u8),
            (Ip::parse("172.16.0.0"), 12),
            (Ip::parse("10.0.2.0"), 24),
        ] {
            fw.push(Rule {
                direction: Direction::Out,
                src: None,
                dst: Some((net, len)),
                proto: None,
                dst_port: None,
                action: if net == Ip::parse("10.0.2.0") {
                    Action::Allow // Its own wire.
                } else {
                    Action::Drop
                },
            });
        }
        fw.push(Rule {
            direction: Direction::Out,
            src: None,
            dst: Some((Ip::parse("10.0.0.0"), 8)),
            proto: None,
            dst_port: None,
            action: Action::Drop,
        });
        fw.push(Rule::allow_all(Direction::Out));
        // Out rules above are evaluated before the default drop; the
        // 10/8 drop must come after the wire allow but before allow-all
        // — the push order above encodes exactly that.
        env.fabric.set_firewall(comm_node, fw);

        // Startup timing.
        let breakdown = StartupBreakdown {
            ephemeral_fetch: SimDuration::ZERO,
            boot_vm: tcal::ANONVM_BOOT,
            start_anonymizer: anonymizer.startup_time(cold),
            load_page: SimDuration::ZERO,
        };
        env.clock += breakdown.boot_vm + breakdown.start_anonymizer;

        let seal_rng = env.rng.fork(n);
        Ok((
            Self {
                nymbox: Nymbox {
                    name: name.to_string(),
                    model,
                    anonymizer: kind,
                    anon_vm,
                    comm_vm,
                    anon_node,
                    comm_node,
                    restored: false, // restore_nym overwrites after fetch
                },
                anonymizer,
                browser: None,
                chains: BTreeMap::new(),
                scratch,
                unseal_work: Vec::new(),
                seal_rng,
                chunk_cache: BTreeMap::new(),
            },
            breakdown,
        ))
    }

    /// Visits `site` in this nym's browser. Returns the page-load time
    /// (network via the anonymizer + render).
    pub(super) fn visit_site(
        &mut self,
        env: &mut Environment,
        site: Site,
    ) -> Result<SimDuration, NymManagerError> {
        let cost = self.anonymizer.transfer_cost();
        let profile = site.profile();

        // Network: the page rides the shared access link, inflated by
        // the anonymizer and throttled by its cap (if any).
        let start = env.clock;
        let wire = cost.wire_bytes(profile.page_weight as f64);
        let network = access_transfer(wire, cost.rate_cap) + cost.connect_latency;
        let load = network + tcal::PAGE_RENDER;
        env.clock = start + load;

        // Client-side state: the browser writes cache/cookies into the
        // AnonVM and dirties guest memory.
        let comm_vm = self.nymbox.comm_vm;
        let vm = env.hv.vm_mut(self.nymbox.anon_vm)?;
        // Rendering overwrites a slice of previously-pristine shared
        // pages too, slightly reducing what KSM can merge (the
        // before/after gap in Figure 3's shared-pages series).
        vm.memory_mut().dirty_shared_pages(512);
        let state = self.browser.take().unwrap_or_else(|| {
            BrowserState::fresh(Rng::seed_from(env.rng.next_u64()), env.browser_scale)
        });
        let mut session = BrowserSession::resume(vm, state);
        session.visit(site);
        self.browser = Some(session.suspend());

        // The CommVM's anonymizer also accretes disk state (consensus
        // cache, descriptors, logs) — the other ~15% of a saved nym's
        // payload (§5.3).
        let scale = env.browser_scale as usize;
        let comm = env.hv.vm_mut(comm_vm)?;
        let consensus = nymix_fs::Path::new("/var/lib/tor/cached-consensus");
        if !comm.disk().exists(&consensus) {
            comm.disk_mut()
                .write(&consensus, deterministic_blob(0xC0_45, 2_500_000 / scale))
                .map_err(|e| NymManagerError::Storage(e.to_string()))?;
        }
        comm.disk_mut()
            .append(
                &nymix_fs::Path::new("/var/lib/tor/cached-descriptors"),
                &deterministic_blob(0xDE_5C, 180_000 / scale),
            )
            .map_err(|e| NymManagerError::Storage(e.to_string()))?;
        Ok(load)
    }

    /// Injects an evercookie-style stain into this nym's browser (§3.3
    /// attack model; used by the amnesia tests).
    pub(super) fn inject_stain(
        &mut self,
        env: &mut Environment,
        marker: &str,
    ) -> Result<(), NymManagerError> {
        let vm = env.hv.vm_mut(self.nymbox.anon_vm)?;
        let state = self.browser.take().unwrap_or_else(|| {
            BrowserState::fresh(Rng::seed_from(env.rng.next_u64()), env.browser_scale)
        });
        let mut session = BrowserSession::resume(vm, state);
        session.inject_stain(marker);
        self.browser = Some(session.suspend());
        Ok(())
    }

    /// Whether a stain marker is visible in this nym's AnonVM.
    pub(super) fn has_stain(
        &mut self,
        env: &mut Environment,
        marker: &str,
    ) -> Result<bool, NymManagerError> {
        let vm = env.hv.vm_mut(self.nymbox.anon_vm)?;
        let state = self
            .browser
            .take()
            .unwrap_or_else(|| BrowserState::fresh(Rng::seed_from(0), env.browser_scale));
        let session = BrowserSession::resume(vm, state);
        let stained = session.has_stain(marker);
        self.browser = Some(session.suspend());
        Ok(stained)
    }

    /// Applies the §3.5 deterministic-guard extension: derive guard
    /// choice from the storage location and password so the ephemeral
    /// fetch nym converges on the same entry relays.
    pub(super) fn seed_guards_deterministically(
        &mut self,
        env: &Environment,
        storage_location: &str,
        password: &str,
    ) -> TorState {
        let state = TorState::deterministic(&env.directory, storage_location, password);
        self.anonymizer.restore_state(&state.to_bytes());
        state
    }
}

/// The storage-object label of a nym at a destination — the namespace
/// the whole chain (base, deltas, chunk objects) hangs off.
pub(super) fn storage_label(name: &str, dest: &super::StorageDest) -> String {
    match dest {
        super::StorageDest::Cloud {
            provider, account, ..
        } => {
            format!("nym:{name}@{provider}/{account}")
        }
        super::StorageDest::Local => format!("nym:{name}@local"),
        super::StorageDest::Disk => format!("nym:{name}@disk"),
        super::StorageDest::Striped => format!("nym:{name}@striped"),
    }
}
