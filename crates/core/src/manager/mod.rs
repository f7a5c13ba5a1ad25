//! The Nym Manager.
//!
//! "Nymix's most crucial component is its Nym Manager, which manages
//! nyms and separates all client-side browsing and other activities
//! into separate virtual machines or nymboxes for each nym" (§3.1).
//!
//! The manager is a thin facade over three layers with hard ownership
//! boundaries:
//!
//! * [`mod@env`] — the **Environment**: the shared simulated world
//!   (hypervisor, fabric, DNS, relay directory, clock, storage
//!   endpoints). Exactly one per manager; never holds per-nym state.
//! * [`session`] — one **NymSession** per live nym: nymbox, private
//!   anonymizer, browser state, snapshot chains, its own sealing
//!   scratch and nonce RNG. No `&mut` on one session can alias
//!   another, which is what lets fleets of nyms operate concurrently.
//! * [`pipeline`] — the **store pipeline**: the staged §3.5 store-nym
//!   workflow (dirty-detect → chunk → seal → upload) over any number
//!   of sessions at once. It keeps no state of its own: what a
//!   storage label holds is listed from the destination itself.
//!
//! [`fleet`] adds the multi-nym scheduler: deterministic interleaving
//! of N sessions over sim time, with batched saves that run one job
//! per nym on a shared worker pool and land through one backend round
//! trip per destination.
//!
//! The public API implements the §3.5 workflow verbatim: *start a
//! fresh nym*, *store nym* (pause → sync → compress → encrypt → upload
//! via the nym's own CommVM), and *load an existing nym* (ephemeral
//! fetch nym → download → decrypt → resume).

pub mod env;
pub mod fleet;
pub mod pipeline;
pub mod restore;
pub mod session;

use std::collections::BTreeMap;

use nymix_anon::tor::{TorDirectory, TorState};
use nymix_anon::{Anonymizer, AnonymizerKind};
use nymix_net::dns::DnsDb;
use nymix_net::{access_transfer, Fabric, Ip, NodeId};
use nymix_sim::{SimDuration, SimTime};
use nymix_store::{
    CloudProvider, CloudSession, DiskStore, FaultPlan, PlacementStore, SealScratch, SimDisk,
};
use nymix_vmm::{Hypervisor, HypervisorError};
use nymix_workload::browser::BrowserState;
use nymix_workload::Site;

use crate::nymbox::{Nymbox, UsageModel};
use crate::timing::{calib as tcal, StartupBreakdown};

use env::Environment;
use pipeline::{drop_other_chains, save_many, SaveRequest};
use restore::fetch_chain;
use session::{storage_label, ChainState, NymSession, RestoredState};

pub use fleet::NymFleet;

/// Identifies a nym within a manager.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NymId(pub u64);

/// Where quasi-persistent state is kept (§3.5).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageDest {
    /// Anonymous cloud storage: deniable, needs an ephemeral fetch nym.
    Cloud {
        /// Provider name (must be registered).
        provider: String,
        /// Pseudonymous account id.
        account: String,
        /// Account credential.
        credential: String,
    },
    /// Local partition / USB drive: faster, not deniable — whoever
    /// seizes the device finds the sealed blobs. Backed by the
    /// crash-consistent journaled [`nymix_store::DiskStore`], so stored
    /// nyms survive power loss at any instant and every save batch
    /// lands atomically; a save costs the device I/O it counts.
    /// The device image can be detached with [`NymManager::take_disk`]
    /// and re-attached to a later manager with
    /// [`NymManager::attach_disk`].
    Disk,
    /// The multi-provider placement store configured with
    /// [`NymManager::register_striped`]: every object is striped
    /// across N cloud providers as k-of-n erasure shards, so saves
    /// tolerate provider outages and restores reconstruct from any k
    /// honest providers (byzantine shards are excluded by hash). Like
    /// [`StorageDest::Cloud`], access rides an anonymizer — every
    /// provider observes only the exit address.
    Striped,
}

/// Errors from Nym Manager operations.
#[derive(Debug)]
pub enum NymManagerError {
    /// The hypervisor refused (usually memory admission).
    Hypervisor(HypervisorError),
    /// Unknown nym id.
    NoSuchNym(NymId),
    /// One save batch named the same nym twice. Refused before any
    /// capture: a nym's save is one job with one nonce stream.
    DuplicateNym(NymId),
    /// One save batch held two nyms of one storage label: the same
    /// name saved to the same destination. Refused before any listing
    /// or capture: both would plan against one listing and full-save
    /// into one epoch, and the later save's objects would overwrite
    /// the earlier one's. Carries the later request's nym.
    DuplicateLabel(NymId),
    /// Unknown cloud provider.
    NoSuchProvider(String),
    /// Storage/crypto failure on save or restore.
    Storage(String),
    /// A required stored object is authoritatively **absent** — the
    /// backend answered, and the answer was "gone" (e.g. a chunk a
    /// manifest references was garbage-collected away). Retrying
    /// cannot help; the stored state is incomplete. Distinct from
    /// [`NymManagerError::Unavailable`], where the object may be fine
    /// but the backend couldn't be reached.
    MissingObject(String),
    /// The storage backend was unreachable or overloaded (provider
    /// outage, throttling past the retry budget, too few placement
    /// children reachable). The stored state is presumed intact —
    /// retrying once the backend recovers may succeed, which is
    /// exactly what [`NymManagerError::MissingObject`] rules out.
    Unavailable(String),
    /// The nym has no stored state to restore.
    NothingStored,
}

impl core::fmt::Display for NymManagerError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            NymManagerError::Hypervisor(e) => write!(f, "hypervisor: {e}"),
            NymManagerError::NoSuchNym(id) => write!(f, "no such nym: {id:?}"),
            NymManagerError::DuplicateNym(id) => write!(f, "nym named twice in one save: {id:?}"),
            NymManagerError::DuplicateLabel(id) => {
                write!(f, "storage label saved twice in one batch: {id:?}")
            }
            NymManagerError::NoSuchProvider(p) => write!(f, "no such provider: {p}"),
            NymManagerError::Storage(s) => write!(f, "storage: {s}"),
            NymManagerError::MissingObject(s) => write!(f, "stored object missing: {s}"),
            NymManagerError::Unavailable(s) => write!(f, "storage unavailable: {s}"),
            NymManagerError::NothingStored => write!(f, "no stored state for nym"),
        }
    }
}

impl std::error::Error for NymManagerError {}

impl From<HypervisorError> for NymManagerError {
    fn from(e: HypervisorError) -> Self {
        NymManagerError::Hypervisor(e)
    }
}

/// Whether a store-nym operation sealed the full archive or only the
/// dirty-record delta.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SaveKind {
    /// The whole record set was sealed (and a new chain epoch began).
    Full,
    /// Only records dirty since the previous snapshot were sealed.
    Delta,
}

/// The Nym Manager: facade over the environment, the per-nym sessions
/// and the store pipeline.
pub struct NymManager {
    env: Environment,
    sessions: BTreeMap<NymId, NymSession>,
    next_nym: u64,
    /// Warm [`SealScratch`] arenas from destroyed sessions, handed to
    /// the next session created — fleet churn doesn't re-grow arenas.
    scratch_pool: Vec<SealScratch>,
    /// Per-record sizes of the most recent save: (anonvm, commvm,
    /// other) payload bytes — Figure 6's "AnonVM content accounting
    /// for 85% of the pseudonym size" breakdown.
    last_save_breakdown: Option<(usize, usize, usize)>,
}

impl NymManager {
    /// Boots Nymix on the paper's testbed (minimal base image for
    /// speed; `browser_scale` divides browser byte volumes — use 1 for
    /// full fidelity, 16–64 for fast runs).
    pub fn new(seed: u64, browser_scale: u64) -> Self {
        Self::with_host_ram(
            seed,
            browser_scale,
            nymix_vmm::hypervisor::calib::HOST_RAM_MIB,
        )
    }

    /// [`NymManager::new`] on a host with `host_ram_mib` MiB of RAM —
    /// the admission model is unchanged, so a 64 GiB host runs fleets
    /// the paper's 16 GiB testbed would refuse (each nymbox costs
    /// ~706 MiB).
    pub fn with_host_ram(seed: u64, browser_scale: u64, host_ram_mib: u32) -> Self {
        Self {
            env: Environment::new(seed, browser_scale, host_ram_mib),
            sessions: BTreeMap::new(),
            next_nym: 1,
            scratch_pool: Vec::new(),
            last_save_breakdown: None,
        }
    }

    /// Registers a cloud provider (e.g. "dropbox") with one account.
    /// Registering the same provider again adds the account to it — a
    /// fleet of nyms keeps one pseudonymous account each on a shared
    /// provider (previously this silently replaced the provider,
    /// wiping its accounts and access log).
    pub fn register_cloud(&mut self, provider: &str, account: &str, credential: &str) {
        self.env
            .cloud
            .entry(provider.to_string())
            .or_insert_with(|| CloudProvider::new(provider))
            .create_account(account, credential);
    }

    /// Configures [`StorageDest::Striped`]: a placement store that
    /// stripes every object across one freshly-created provider per
    /// `(provider, account, credential)` entry as k-of-n erasure
    /// shards (`k = 1` mirrors). Replaces any previous striped store.
    /// The placement children are owned by the store — they are
    /// separate providers from the [`NymManager::register_cloud`]
    /// registry, so a scenario can fault one without touching plain
    /// cloud destinations.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= k <= children.len() <= 16`.
    pub fn register_striped(&mut self, k: usize, children: &[(&str, &str, &str)]) {
        let children = children
            .iter()
            .map(|(provider, account, credential)| {
                let mut p = CloudProvider::new(provider);
                p.create_account(account, credential);
                // Observed from the unspecified address until a save or
                // restore routes the child through an anonymizer exit.
                CloudSession::new(p, account, credential, Ip([0, 0, 0, 0]))
            })
            .collect();
        self.env.striped = Some(PlacementStore::new(children, k));
    }

    /// The striped placement store, if configured.
    pub fn striped_store(&self) -> Option<&PlacementStore<CloudSession<CloudProvider>>> {
        self.env.striped.as_ref()
    }

    /// A striped child's provider by name (for fault injection and
    /// access-log inspection in scenarios).
    pub fn striped_provider(&self, name: &str) -> Option<&CloudProvider> {
        self.env.striped.as_ref()?.provider(name)
    }

    /// Mutable access to a striped child's provider — arm outages,
    /// throttles and byzantine modes here.
    pub fn striped_provider_mut(&mut self, name: &str) -> Option<&mut CloudProvider> {
        self.env.striped.as_mut()?.provider_mut(name)
    }

    /// Runs one repair pass on the striped store: flushes deletes that
    /// couldn't reach a child and re-materializes missing shards from
    /// surviving ones. `None` if no striped store is configured.
    pub fn repair_striped(&mut self) -> Option<nymix_store::RepairReport> {
        let clock = self.env.clock;
        let striped = self.env.striped.as_mut()?;
        striped.set_now(clock);
        Some(striped.repair())
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.env.clock
    }

    /// The hypervisor (for memory/CPU accounting).
    pub fn hypervisor(&self) -> &Hypervisor {
        &self.env.hv
    }

    /// Mutable hypervisor access (ablation knobs like KSM).
    pub fn hypervisor_mut(&mut self) -> &mut Hypervisor {
        &mut self.env.hv
    }

    /// The packet fabric (for validation probes).
    pub fn fabric(&self) -> &Fabric {
        &self.env.fabric
    }

    /// Mutable fabric access (validation probes mutate trace state).
    pub fn fabric_mut(&mut self) -> &mut Fabric {
        &mut self.env.fabric
    }

    /// A registered cloud provider.
    pub fn cloud_provider(&self, name: &str) -> Option<&CloudProvider> {
        self.env.cloud.get(name)
    }

    /// The crash-consistent disk store behind [`StorageDest::Disk`].
    pub fn disk_store(&self) -> &DiskStore {
        &self.env.disk
    }

    /// Attaches a surviving device image as the [`StorageDest::Disk`]
    /// backend, replaying or discarding whatever one batch was in
    /// flight when the device last lost power. The previous disk store
    /// (and anything on it) is dropped. Fails closed — without
    /// attaching — if the image's committed region is corrupt.
    pub fn attach_disk(&mut self, image: SimDisk) -> Result<(), NymManagerError> {
        self.env.disk =
            DiskStore::open(image).map_err(|e| NymManagerError::Storage(e.to_string()))?;
        Ok(())
    }

    /// Detaches the disk backend's device image — everything durable at
    /// this instant, exactly as a power cut would leave it — replacing
    /// it with a fresh empty device. Reattach with
    /// [`NymManager::attach_disk`] (on this or any later manager) to
    /// recover the stored nyms.
    pub fn take_disk(&mut self) -> SimDisk {
        std::mem::replace(&mut self.env.disk, DiskStore::new()).into_disk()
    }

    /// Simulates power loss on the disk backend: returns the device
    /// image as the cut would leave it — durable state plus whichever
    /// unflushed writes `mode` says landed — for
    /// [`NymManager::attach_disk`] recovery on this or a fresh manager.
    /// The running store is untouched, so one failed save can be
    /// crash-tested under every [`nymix_store::CrashMode`].
    pub fn crash_disk(&self, mode: nymix_store::CrashMode) -> SimDisk {
        self.env.disk.crash(mode)
    }

    /// Arms deterministic fault injection on the disk backend: the
    /// device dies at the `n`th write/fsync from now (see
    /// [`nymix_store::FaultPlan`]).
    pub fn set_disk_fault_plan(&mut self, plan: FaultPlan) {
        self.env.disk.set_fault_plan(plan);
    }

    /// Live nym ids.
    pub fn nym_ids(&self) -> Vec<NymId> {
        self.sessions.keys().copied().collect()
    }

    /// A live nymbox.
    pub fn nymbox(&self, id: NymId) -> Result<&Nymbox, NymManagerError> {
        self.sessions
            .get(&id)
            .map(|s| &s.nymbox)
            .ok_or(NymManagerError::NoSuchNym(id))
    }

    /// The anonymizer running in a nym's CommVM.
    pub fn anonymizer(&self, id: NymId) -> Result<&dyn Anonymizer, NymManagerError> {
        self.sessions
            .get(&id)
            .map(|s| s.anonymizer.as_ref())
            .ok_or(NymManagerError::NoSuchNym(id))
    }

    /// Starts a fresh nym (§3.5 workflow: "start a fresh nym").
    ///
    /// Returns the nym id and the startup breakdown (boot + anonymizer
    /// phases; page load is measured by [`NymManager::visit_site`]).
    pub fn create_nym(
        &mut self,
        name: &str,
        kind: AnonymizerKind,
        model: UsageModel,
    ) -> Result<(NymId, StartupBreakdown), NymManagerError> {
        let anonymizer = self.env.build_anonymizer(kind);
        self.instantiate(name, kind, model, anonymizer, None, true)
    }

    fn instantiate(
        &mut self,
        name: &str,
        kind: AnonymizerKind,
        model: UsageModel,
        anonymizer: Box<dyn Anonymizer>,
        restored: Option<RestoredState>,
        cold: bool,
    ) -> Result<(NymId, StartupBreakdown), NymManagerError> {
        let scratch = self.scratch_pool.pop().unwrap_or_default();
        let n = self.next_nym;
        let (session, breakdown) = NymSession::instantiate(
            &mut self.env,
            n,
            name,
            kind,
            model,
            anonymizer,
            restored,
            cold,
            scratch,
        )?;
        let id = NymId(n);
        self.next_nym += 1;
        self.sessions.insert(id, session);
        Ok((id, breakdown))
    }

    /// Visits `site` in the nym's browser. Returns the page-load time
    /// (network via the anonymizer + render).
    pub fn visit_site(&mut self, id: NymId, site: Site) -> Result<SimDuration, NymManagerError> {
        let env = &mut self.env;
        let session = self
            .sessions
            .get_mut(&id)
            .ok_or(NymManagerError::NoSuchNym(id))?;
        session.visit_site(env, site)
    }

    /// Injects an evercookie-style stain into the nym's browser (§3.3
    /// attack model; used by the amnesia tests).
    pub fn inject_stain(&mut self, id: NymId, marker: &str) -> Result<(), NymManagerError> {
        let env = &mut self.env;
        let session = self
            .sessions
            .get_mut(&id)
            .ok_or(NymManagerError::NoSuchNym(id))?;
        session.inject_stain(env, marker)
    }

    /// Whether a stain marker is visible in the nym's AnonVM.
    pub fn has_stain(&mut self, id: NymId, marker: &str) -> Result<bool, NymManagerError> {
        let env = &mut self.env;
        let session = self
            .sessions
            .get_mut(&id)
            .ok_or(NymManagerError::NoSuchNym(id))?;
        session.has_stain(env, marker)
    }

    /// Stores a nym (§3.5 "store nym"): pause, sync, compress, encrypt,
    /// upload through the nym's own CommVM. Returns the sealed size and
    /// the wall-clock cost. Always seals the full archive (starting a
    /// fresh chain epoch); see [`NymManager::save_nym_incremental`] for
    /// the delta path.
    pub fn save_nym(
        &mut self,
        id: NymId,
        password: &str,
        dest: &StorageDest,
    ) -> Result<(usize, SimDuration), NymManagerError> {
        let (_, size, duration) = self.save_nym_with(id, password, dest, false)?;
        Ok((size, duration))
    }

    /// Incremental store-nym: when a snapshot chain exists for this
    /// nym and destination, seals **only the records dirty since the
    /// last save** as a [`nymix_store::DeltaArchive`] — dirty disk
    /// records are detected from the writable layers' generation
    /// counters without serializing clean state, the chain's
    /// [`nymix_store::SealKey`] skips the per-save PBKDF2, and the
    /// delta commits to the Merkle root of the full record set so
    /// restore fails closed on tampering.
    ///
    /// Falls back to a full save (compaction) when no usable chain
    /// exists, after [`nymix_store::DELTA_CHAIN_LIMIT`] chained deltas,
    /// or when the serialized delta would be no smaller than the full
    /// archive (a delta would not pay for itself). A save with no chain
    /// for its label lists the destination first: its full save takes
    /// the epoch after the highest one stored and sweeps the rest.
    pub fn save_nym_incremental(
        &mut self,
        id: NymId,
        password: &str,
        dest: &StorageDest,
    ) -> Result<(SaveKind, usize, SimDuration), NymManagerError> {
        self.save_nym_with(id, password, dest, true)
    }

    fn save_nym_with(
        &mut self,
        id: NymId,
        password: &str,
        dest: &StorageDest,
        allow_delta: bool,
    ) -> Result<(SaveKind, usize, SimDuration), NymManagerError> {
        let outcomes = save_many(
            &mut self.env,
            &mut self.sessions,
            vec![SaveRequest {
                id,
                password,
                dest,
                allow_delta,
            }],
        )?;
        let outcome = outcomes
            .into_iter()
            .next()
            .expect("one request, one outcome");
        self.last_save_breakdown = Some(outcome.breakdown);
        Ok((outcome.kind, outcome.uploaded, outcome.duration))
    }

    /// Loads a stored nym (§3.5 "load an existing nym").
    ///
    /// For cloud storage this spins up an ephemeral fetch nym first
    /// ("Nymix starts an ephemeral nym for the purpose of gathering the
    /// nym's state anonymously"), whose cost appears as the
    /// `ephemeral_fetch` phase.
    pub fn restore_nym(
        &mut self,
        name: &str,
        kind: AnonymizerKind,
        model: UsageModel,
        password: &str,
        dest: &StorageDest,
    ) -> Result<(NymId, StartupBreakdown), NymManagerError> {
        let label = storage_label(name, dest);
        // Cloud restores ride an ephemeral fetch nym (boot + cold
        // anonymizer); its exit address and transfer cost cover every
        // object in the chain, base and deltas alike.
        let (fetch_exit, fetch_cost, fetch_boot) = match dest {
            StorageDest::Cloud { .. } | StorageDest::Striped => {
                let fetch_anonymizer = self.env.build_anonymizer(kind);
                let boot = tcal::ANONVM_BOOT + fetch_anonymizer.startup_time(true);
                (
                    Some(fetch_anonymizer.exit_address(self.env.public_ip)),
                    Some(fetch_anonymizer.transfer_cost()),
                    boot,
                )
            }
            StorageDest::Disk => (None, None, SimDuration::ZERO),
        };

        // The restoring session doesn't exist yet, so the fetch runs on
        // a pool scratch that then becomes the new session's arena.
        let mut scratch = self.scratch_pool.pop().unwrap_or_default();
        let mut work = Vec::new();
        let fetched = match fetch_chain(
            &mut self.env,
            &label,
            password,
            dest,
            fetch_exit,
            &mut work,
            &mut scratch,
        ) {
            Ok(f) => f,
            Err(e) => {
                self.scratch_pool.push(scratch);
                return Err(e);
            }
        };

        let ephemeral_fetch = match fetch_cost {
            Some(cost) => {
                let wire =
                    cost.wire_bytes(fetched.fetched_bytes as f64 * self.env.browser_scale as f64);
                fetch_boot + access_transfer(wire, cost.rate_cap) + tcal::RESTORE_UNPACK
            }
            None => tcal::RESTORE_UNPACK,
        };
        self.env.clock += ephemeral_fetch;

        let mut archive = fetched.archive;
        let instantiate_span = nymix_obs::span!("instantiate");
        let anon_upper = archive
            .get_layer("anonvm.disk")
            .map_err(|e| NymManagerError::Storage(e.to_string()))?;
        let comm_upper = archive
            .get_layer("commvm.disk")
            .map_err(|e| NymManagerError::Storage(e.to_string()))?;
        let anonymizer_state = archive.get("anonymizer.state").map(|b| b.to_vec());
        let browser = archive
            .get("browser.state")
            .and_then(BrowserState::from_bytes);

        let anonymizer = self.env.build_anonymizer(kind);
        let n = self.next_nym;
        let (mut session, mut breakdown) = NymSession::instantiate(
            &mut self.env,
            n,
            name,
            kind,
            model,
            anonymizer,
            Some(RestoredState {
                anon_upper,
                comm_upper,
                anonymizer_state,
            }),
            false, // Warm start: guards and consensus restored.
            scratch,
        )?;
        drop(instantiate_span);
        session.browser = browser;
        session.nymbox.restored = true;

        // Continue the chain where the restored state left it, so the
        // next incremental save appends a delta instead of re-sealing
        // everything. The resolved records swap back to their stored
        // (manifest) form first — the chain's base is the stored form —
        // and move into the session's chunk cache: the fetch checked
        // every chunk id against them, so the next save reuses the ids
        // of every chunk the nym did not touch. The new session takes
        // the chain over: any other live session of the label drops it.
        let anon_gen = self
            .env
            .hv
            .vm(session.nymbox.anon_vm)?
            .disk()
            .upper()
            .map(nymix_fs::Layer::generation)
            .unwrap_or(0);
        let comm_gen = self
            .env
            .hv
            .vm(session.nymbox.comm_vm)?
            .disk()
            .upper()
            .map(nymix_fs::Layer::generation)
            .unwrap_or(0);
        for (record_name, stored, manifest) in fetched.stored_overrides {
            if let Some(resolved) = archive.replace(&record_name, stored) {
                session
                    .chunk_cache
                    .insert(record_name, (resolved, manifest));
            }
        }
        let id = NymId(n);
        drop_other_chains(&mut self.sessions, id, &label);
        session.chains.insert(
            label,
            ChainState {
                key: fetched.key,
                epoch: fetched.epoch,
                delta_count: fetched.delta_count,
                archive,
                chunks: fetched.chunk_index,
                commitment: fetched.commitment,
                anon_gen,
                comm_gen,
            },
        );

        self.next_nym += 1;
        self.sessions.insert(id, session);
        breakdown.ephemeral_fetch = ephemeral_fetch;
        Ok((id, breakdown))
    }

    /// Destroys a nym: both VMs are securely wiped; "turning off a
    /// pseudonym results in amnesia" (§3.4). The session's snapshot
    /// chains die with it; their stored objects stay on the
    /// destination, where the next chain-less save under the same
    /// label finds their epochs and sweeps them.
    pub fn destroy_nym(&mut self, id: NymId) -> Result<(), NymManagerError> {
        let session = self
            .sessions
            .remove(&id)
            .ok_or(NymManagerError::NoSuchNym(id))?;
        self.env.hv.destroy_vm(session.nymbox.anon_vm)?;
        self.env.hv.destroy_vm(session.nymbox.comm_vm)?;
        self.scratch_pool.push(session.scratch);
        Ok(())
    }

    /// Uncompressed per-record sizes of the most recent save:
    /// `(anonvm_bytes, commvm_bytes, other_bytes)`. Every save call sets
    /// it — [`Self::save_nym`], [`Self::save_nym_incremental`], and
    /// [`Self::save_nyms_incremental`], which leaves the batch's last
    /// outcome here.
    pub fn last_save_breakdown(&self) -> Option<(usize, usize, usize)> {
        self.last_save_breakdown
    }

    /// The browser byte-scale divisor this manager runs with.
    pub fn browser_scale(&self) -> u64 {
        self.env.browser_scale
    }

    /// The user's public IP (what incognito mode leaks).
    pub fn public_ip(&self) -> Ip {
        self.env.public_ip
    }

    /// The intranet host's address (the §5.1 "must not reach" target).
    pub fn intranet_ip(&self) -> Ip {
        self.env.lan_gateway_ip
    }

    /// Fabric node of the intranet host.
    pub fn intranet_node(&self) -> NodeId {
        self.env.intranet_node
    }

    /// Fabric node of the Internet.
    pub fn internet_node(&self) -> NodeId {
        self.env.internet_node
    }

    /// Fabric node of the hypervisor.
    pub fn hypervisor_node(&self) -> NodeId {
        self.env.hyp_node
    }

    /// The DNS database.
    pub fn dns(&self) -> &DnsDb {
        &self.env.dns
    }

    /// The relay directory (for guard analysis).
    pub fn directory(&self) -> &TorDirectory {
        &self.env.directory
    }

    /// Applies the §3.5 deterministic-guard extension to a nym: derive
    /// guard choice from the storage location and password so the
    /// ephemeral fetch nym converges on the same entry relays.
    pub fn seed_guards_deterministically(
        &mut self,
        id: NymId,
        storage_location: &str,
        password: &str,
    ) -> Result<TorState, NymManagerError> {
        let env = &self.env;
        let session = self
            .sessions
            .get_mut(&id)
            .ok_or(NymManagerError::NoSuchNym(id))?;
        Ok(session.seed_guards_deterministically(env, storage_location, password))
    }
}

#[cfg(test)]
mod scenarios;
#[cfg(test)]
mod tests;
