//! The **StorePipeline** layer: staged, batched save/restore.
//!
//! The §3.5 store-nym workflow — pause → sync → compress → encrypt →
//! upload — runs here as four explicit stages over any number of
//! sessions at once:
//!
//! 1. **Capture** (needs the [`Environment`]): pause the nym's VMs,
//!    detect dirty records from the writable layers' generation
//!    counters, and stage the new archive. Sequential — it touches the
//!    shared hypervisor.
//! 2. **Chunk**: convert large dirty records to `"NYMC"` manifests.
//!    Chunk hashing is batched **across sessions** with
//!    [`nymix_store::build_manifests`], so equal-length chunks from
//!    different nyms share `sha256_x4` passes.
//! 3. **Seal**: derive/reuse the chain key, seal chunk objects
//!    (entropy-gated) and the delta or full blob. Each session owns
//!    its scratch arena, RNG and chain key, so N sessions seal on N
//!    threads with no locks and bit-deterministic output.
//! 4. **Upload**: land every staged object through
//!    [`nymix_store::ObjectBackend::put_many`], grouped per
//!    destination — one authenticated round trip per backend instead
//!    of one per object — then sweep retired objects.
//!
//! The pipeline also owns the **label registry**: the highest chain
//! epoch ever used per storage label, plus chunk objects orphaned by
//! destroyed sessions. Sessions own their live chains
//! (`ChainState`); the registry is what outlives them, so a
//! recreated nym can never collide with a dead nym's stale objects,
//! and a session whose label was taken over by another nym falls back
//! to a full save (a new epoch) instead of appending deltas to a base
//! it no longer owns.

use nymix_net::{access_transfer, Ip};
use nymix_sim::{DiskProfile, Rng, SimDuration};
use nymix_store::cas::{self, ChunkIndex, ChunkManifest};
use nymix_store::{
    seal_into, ArchiveCommitment, DeltaArchive, NymArchive, SealKey, SealScratch, Sealable,
    CHUNK_RECORD_THRESHOLD, DELTA_CHAIN_LIMIT,
};

use std::collections::BTreeMap;

use super::env::{dest_backend, storage_err, Environment};
use super::session::{storage_label, ChainState, NymSession};
use super::{NymId, NymManagerError, SaveKind, StorageDest};

/// Record name carrying the chain epoch inside each full archive: a
/// compacting save bumps it, so deltas stranded by an older epoch are
/// never even fetched on restore.
pub(super) const EPOCH_RECORD: &str = "snapshot.epoch";

/// Storage object name of delta `index` in chain epoch `epoch`.
pub(super) fn delta_label(label: &str, epoch: u64, index: usize) -> String {
    format!("{label}#e{epoch}.{index}")
}

/// Chunk-object namespace of chain epoch `epoch` (chunks live at
/// `"{prefix}/c/{chunk_id}"`, sealed under the epoch's key with that
/// full name as AEAD data — see [`nymix_store::cas`]).
pub(super) fn chunk_prefix(label: &str, epoch: u64) -> String {
    format!("{label}#e{epoch}")
}

/// A record's logical (pre-chunking) payload length: manifests report
/// the length of the content they describe, raw records their own.
pub(super) fn record_logical_len(data: &[u8]) -> usize {
    ChunkManifest::from_bytes(data).map_or(data.len(), |m| m.total_len())
}

/// What the label registry remembers after the chains under a label
/// die: the highest epoch ever used (epoch numbers must never repeat
/// per label) and the chunk objects a destroyed session's chain left
/// behind, swept at the next compaction under that label.
#[derive(Default)]
struct LabelState {
    last_epoch: u64,
    orphaned_objects: Vec<String>,
}

/// One save request of a (possibly multi-session) pipeline run.
pub(super) struct SaveRequest<'a> {
    pub id: NymId,
    pub password: &'a str,
    pub dest: &'a StorageDest,
    pub allow_delta: bool,
}

/// One save's result.
pub(super) struct SaveOutcome {
    pub kind: SaveKind,
    pub uploaded: usize,
    pub duration: SimDuration,
    /// Logical `(anonvm, commvm, other)` payload bytes (Figure 6).
    pub breakdown: (usize, usize, usize),
}

/// Capture-stage output for one session: the staged next archive with
/// everything the later (env-free) stages need, fully owned.
struct SavePlan<'a> {
    req: SaveRequest<'a>,
    label: String,
    exit_ip: Ip,
    wire_overhead: f64,
    /// The session anonymizer's per-flow throughput ceiling (bytes/s).
    rate_cap: f64,
    next: NymArchive,
    /// `(record name, previous stored bytes)` per captured record —
    /// the delta stage compares these against the new bytes, so
    /// unchanged re-captures never ship.
    dirty_old: Vec<(&'static str, Option<Vec<u8>>)>,
    anon_gen: u64,
    comm_gen: u64,
    /// `(key, epoch, delta_count)` when a usable chain was carried.
    chain: Option<(SealKey, u64, usize)>,
    /// The carried chain's Merkle commitment cache (empty when no
    /// chain carried). A delta save recomputes only dirty leaves plus
    /// the root path against it; a full save refreshes it in place so
    /// clean carried records keep their cached leaf hashes.
    commitment: ArchiveCommitment,
    chunk_index: ChunkIndex,
    /// Chunk objects of the carried chain's epoch (swept on compaction).
    prev_chunk_objects: Vec<String>,
    last_epoch: Option<u64>,
    want_delta: bool,
    /// `(name, raw bytes, manifest)` per chunk-converted record.
    chunked: Vec<(String, Vec<u8>, ChunkManifest)>,
    delta: Option<DeltaArchive>,
    breakdown: (usize, usize, usize),
}

/// Seal-stage input: everything one thread needs, owned and `Send`.
struct SealJob<'a> {
    plan: SavePlan<'a>,
    scratch: SealScratch,
    rng: Rng,
    /// Orphaned objects registered under this label (swept on
    /// compaction alongside the carried chain's).
    orphaned_objects: Vec<String>,
}

/// Seal-stage output: staged uploads plus the state flowing back into
/// the session's chain once the upload lands.
struct SealedSave<'a> {
    plan: SavePlan<'a>,
    staged: Vec<(String, Vec<u8>)>,
    deletes: Vec<String>,
    uploaded: usize,
    kind: SaveKind,
    key: SealKey,
    epoch: u64,
    delta_count: usize,
    chunk_index: ChunkIndex,
    /// Commitment cache over the sealed archive, flowing back into the
    /// session's `ChainState` so the next delta save stays O(dirty).
    commitment: ArchiveCommitment,
}

/// The store pipeline: save/restore policy plus the state that must
/// outlive any single session — the label registry and the scratch
/// pool sessions draw their sealing arenas from.
pub(super) struct StorePipeline {
    labels: BTreeMap<String, LabelState>,
    /// Warm [`SealScratch`] arenas from destroyed sessions, handed to
    /// the next session created — fleet churn doesn't re-grow arenas.
    scratch_pool: Vec<SealScratch>,
}

impl StorePipeline {
    pub(super) fn new() -> Self {
        Self {
            labels: BTreeMap::new(),
            scratch_pool: Vec::new(),
        }
    }

    /// A sealing arena for a new session: a warm one from the pool if
    /// available.
    pub(super) fn acquire_scratch(&mut self) -> SealScratch {
        self.scratch_pool.pop().unwrap_or_default()
    }

    /// Returns a destroyed session's arena to the pool.
    pub(super) fn release_scratch(&mut self, scratch: SealScratch) {
        self.scratch_pool.push(scratch);
    }

    /// Registers a dying session's chains: remembers each label's
    /// epoch (it must never be reused) and the chain's chunk objects
    /// (swept at the next compaction under that label).
    pub(super) fn retire_chains(&mut self, chains: impl IntoIterator<Item = (String, ChainState)>) {
        for (label, chain) in chains {
            let prefix = chunk_prefix(&label, chain.epoch);
            let entry = self.labels.entry(label).or_default();
            if chain.epoch >= entry.last_epoch {
                entry.last_epoch = chain.epoch;
            }
            entry.orphaned_objects.extend(
                chain
                    .chunks
                    .ids()
                    .map(|id| cas::chunk_object_name(&prefix, id)),
            );
        }
    }

    /// Records that `epoch` is now in use under `label` (restores and
    /// full saves call this so epoch numbers stay globally fresh).
    pub(super) fn note_epoch(&mut self, label: &str, epoch: u64) {
        let entry = self.labels.entry(label.to_string()).or_default();
        if epoch >= entry.last_epoch {
            entry.last_epoch = epoch;
        }
    }

    pub(super) fn last_epoch(&self, label: &str) -> Option<u64> {
        self.labels
            .get(label)
            .map(|l| l.last_epoch)
            .filter(|e| *e > 0)
    }

    /// Runs the full staged pipeline over every request: capture →
    /// chunk → seal (threaded when more than one session saves and the
    /// host has more than one core) → upload. Outcomes are in request
    /// order; the simulation clock advances once, by the concurrent
    /// completion time of the batch. Output is bit-identical at any
    /// core count: every job's randomness comes from its session's own
    /// forked RNG.
    pub(super) fn save_many(
        &mut self,
        env: &mut Environment,
        sessions: &mut BTreeMap<NymId, NymSession>,
        reqs: Vec<SaveRequest<'_>>,
    ) -> Result<Vec<SaveOutcome>, NymManagerError> {
        // Validate every id before any capture runs: a capture moves
        // the session's chain into its plan, so failing mid-batch on a
        // bad id would drop the chains of every request before it.
        for req in &reqs {
            if !sessions.contains_key(&req.id) {
                return Err(NymManagerError::NoSuchNym(req.id));
            }
        }
        nymix_obs::sim_clock(env.clock.as_micros());
        let workers = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
            .min(reqs.len());
        // Capture everything (sequential — it touches the shared
        // hypervisor), batch the chunk hashing across sessions, then
        // seal on one thread per session.
        let mut plans = Vec::with_capacity(reqs.len());
        for req in reqs {
            plans.push(self.capture(env, sessions, req)?);
        }
        self.chunk_stage(&mut plans, false);
        for plan in &mut plans {
            build_delta(plan);
        }
        // Delta didn't pay off (or wasn't possible) for some plans:
        // re-capture their carried-over clean layers raw so the new
        // base is self-contained, then chunk the re-captures (batched
        // across plans again).
        self.full_fallback(env, sessions, &mut plans)?;
        let jobs: Vec<SealJob> = plans
            .into_iter()
            .map(|plan| self.seal_job(sessions, plan))
            .collect();
        // Each job's nonce RNG and arena go back to its session before
        // any upload runs. A failed upload must not leave the session
        // holding its pre-seal RNG: the retry would redraw the same
        // salt and nonces over different plaintext.
        let sealed: Vec<SealedSave> = seal_stage(jobs, workers, env.clock.as_micros())
            .into_iter()
            .map(|(s, scratch, rng)| {
                let session = sessions.get_mut(&s.plan.req.id).expect("captured above");
                session.scratch = scratch;
                session.seal_rng = rng;
                s
            })
            .collect();

        // Stage 4: upload (grouped per destination) + bookkeeping.
        let mut outcomes = Vec::with_capacity(sealed.len());
        // Striped uploads ship n/k redundant bytes per sealed byte
        // (k-of-n erasure shards, plus negligible per-shard headers).
        let striped_overhead = env
            .striped
            .as_ref()
            .map_or(1.0, |s| s.redundancy_overhead());
        // Bytes one save puts on the access link (zero for local ones).
        let scale = env.browser_scale as f64;
        let upload_wire = |s: &SealedSave| {
            let amplify = match s.plan.req.dest {
                StorageDest::Cloud { .. } => 1.0,
                StorageDest::Striped => striped_overhead,
                StorageDest::Local | StorageDest::Disk => 0.0,
            };
            (1.0 + s.plan.wire_overhead) * (s.uploaded as f64 * scale) * amplify
        };
        let mut cloud_wire_total = 0.0f64;
        for s in &sealed {
            cloud_wire_total += upload_wire(s);
        }
        let batched = sealed.len() > 1;
        let mut batch_duration = SimDuration::ZERO;
        let mut group: Vec<SealedSave> = Vec::new();
        let mut pending = sealed.into_iter().peekable();
        while let Some(s) = pending.next() {
            let same_target = |a: &SealedSave, b: &SealedSave| {
                a.plan.req.dest == b.plan.req.dest
                    && (matches!(a.plan.req.dest, StorageDest::Local | StorageDest::Disk)
                        || a.plan.exit_ip == b.plan.exit_ip)
            };
            let flush = match pending.peek() {
                Some(next) => !same_target(&s, next),
                None => true,
            };
            group.push(s);
            if !flush {
                continue;
            }
            // One backend open, one batch — every staged put plus every
            // sweep — for the whole group. On the journaled disk the
            // batch is a single atomic transaction: a crash mid-save
            // leaves either every nym's previous version (with its
            // chunk objects) or every new one, never a mixture.
            let dest = group[0].plan.req.dest;
            let exit = group[0].plan.exit_ip;
            let disk_before = env.disk.device_stats();
            let now = env.clock;
            let cloud_backoff = {
                let mut backend = dest_backend(
                    &mut env.cloud,
                    &mut env.local,
                    &mut env.disk,
                    env.striped.as_mut(),
                    now,
                    dest,
                    Some(exit),
                )?;
                let staged: Vec<(String, Vec<u8>)> = group
                    .iter_mut()
                    .flat_map(|s| std::mem::take(&mut s.staged))
                    .collect();
                let deletes: Vec<String> = group
                    .iter_mut()
                    .flat_map(|s| std::mem::take(&mut s.deletes))
                    .collect();
                backend
                    .as_backend()
                    .apply_batch(staged, deletes)
                    .map_err(storage_err)?;
                // Transient-failure retries slept on simulated backoff;
                // charge it to this batch's wall clock.
                backend.take_accrued_backoff()
            };
            // Disk saves cost the actual device I/O the batch incurred
            // (journal + heap writes and both fsync barriers), priced
            // at SSD speed.
            let disk_io = {
                let io = env.disk.device_stats().since(&disk_before);
                DiskProfile::ssd().io_time(
                    io.bytes_written,
                    io.bytes_read,
                    io.fsyncs,
                    io.writes + io.reads,
                )
            };
            for s in group.drain(..) {
                let duration = match s.plan.req.dest {
                    // The batch's cloud and striped uploads share the
                    // access link, so each takes the batch total's time
                    // or its own wire at its anonymizer's cap, whichever
                    // is longer; a lone save sees exactly the serial
                    // transfer time.
                    StorageDest::Cloud { .. } | StorageDest::Striped => {
                        let wire = upload_wire(&s);
                        let total = if batched { cloud_wire_total } else { wire };
                        access_transfer(total, f64::INFINITY)
                            .max(access_transfer(wire, s.plan.rate_cap))
                            + cloud_backoff
                    }
                    // One media sync flushes the whole batch.
                    StorageDest::Local => SimDuration::from_millis(300),
                    // The journaled batch commit, at modeled device speed.
                    StorageDest::Disk => disk_io,
                };
                batch_duration = batch_duration.max(duration);
                // The per-session upload span: its wall time is the
                // (tiny) bookkeeping cost; the transfer itself exists
                // only in modeled time, charged explicitly.
                let mut up_span = nymix_obs::span!(
                    "upload", "session" => s.plan.req.id.0, "objects" => s.uploaded
                );
                up_span.add_modeled_us(duration.0);
                drop(up_span);
                self.note_epoch(&s.plan.label, s.epoch);
                let session = sessions.get_mut(&s.plan.req.id).expect("captured above");
                outcomes.push((
                    s.plan.req.id,
                    SaveOutcome {
                        kind: s.kind,
                        uploaded: s.uploaded,
                        duration,
                        breakdown: s.plan.breakdown,
                    },
                ));
                session.chains.insert(
                    s.plan.label,
                    ChainState {
                        key: s.key,
                        epoch: s.epoch,
                        delta_count: s.delta_count,
                        archive: s.plan.next,
                        chunks: s.chunk_index,
                        commitment: s.commitment,
                        anon_gen: s.plan.anon_gen,
                        comm_gen: s.plan.comm_gen,
                    },
                );
            }
        }
        env.clock += batch_duration;
        nymix_obs::sim_clock(env.clock.as_micros());
        Ok(outcomes.into_iter().map(|(_, o)| o).collect())
    }

    /// Packages a finished plan as an owned, `Send` seal job: the
    /// session's scratch arena and nonce RNG travel with it, plus —
    /// for full saves only — the orphaned objects registered under its
    /// label. A delta save must leave the orphan list in the registry
    /// untouched: sweeping happens at compaction, and draining the
    /// list on a path that never deletes would leak a destroyed nym's
    /// chunk objects on the backend forever.
    fn seal_job<'a>(
        &mut self,
        sessions: &mut BTreeMap<NymId, NymSession>,
        plan: SavePlan<'a>,
    ) -> SealJob<'a> {
        let session = sessions.get_mut(&plan.req.id).expect("captured above");
        let orphaned_objects = if plan.delta.is_none() {
            self.labels
                .get_mut(&plan.label)
                .map(|l| std::mem::take(&mut l.orphaned_objects))
                .unwrap_or_default()
        } else {
            Vec::new()
        };
        SealJob {
            scratch: std::mem::take(&mut session.scratch),
            rng: session.seal_rng.clone(),
            plan,
            orphaned_objects,
        }
    }

    /// Stage 1: pause the VMs, read layer generations, carry the chain
    /// over (by value — the session owns it, so nothing is cloned) and
    /// stage every dirty record into the next archive.
    fn capture<'a>(
        &mut self,
        env: &mut Environment,
        sessions: &mut BTreeMap<NymId, NymSession>,
        req: SaveRequest<'a>,
    ) -> Result<SavePlan<'a>, NymManagerError> {
        let _span = nymix_obs::span!("capture", "session" => req.id.0);
        let session = sessions
            .get_mut(&req.id)
            .ok_or(NymManagerError::NoSuchNym(req.id))?;
        let label = storage_label(&session.nymbox.name, req.dest);
        let anon_vm = session.nymbox.anon_vm;
        let comm_vm = session.nymbox.comm_vm;

        // Pause both VMs while the writable layers are captured. The
        // generation read doubles as the existence check for both
        // uppers; it runs — with the VMs resumed again on failure —
        // *before* the chain is moved out of the session, so no error
        // path can strand a paused VM or drop a chain.
        env.hv.vm_mut(anon_vm)?.pause();
        env.hv.vm_mut(comm_vm)?.pause();
        let gens = (|| {
            let missing = |what: &str| NymManagerError::Storage(format!("{what} upper missing"));
            let anon_gen = env
                .hv
                .vm(anon_vm)?
                .disk()
                .upper()
                .map(nymix_fs::Layer::generation)
                .ok_or_else(|| missing("anon"))?;
            let comm_gen = env
                .hv
                .vm(comm_vm)?
                .disk()
                .upper()
                .map(nymix_fs::Layer::generation)
                .ok_or_else(|| missing("comm"))?;
            Ok((anon_gen, comm_gen))
        })();
        let (anon_gen, comm_gen) = match gens {
            Ok(g) => g,
            Err(e) => {
                env.hv.vm_mut(anon_vm)?.resume();
                env.hv.vm_mut(comm_vm)?.resume();
                return Err(e);
            }
        };

        // The chain is usable only if it is still the label's newest
        // epoch — another session full-saving under the same label
        // bumps the registry, and appending deltas to an overwritten
        // base would strand them.
        let registry_epoch = self.last_epoch(&label);
        let chain = session.chains.remove(&label);
        let chain_epoch = chain.as_ref().map(|c| c.epoch);
        let last_epoch = chain_epoch.max(registry_epoch);
        let chain = chain.filter(|c| registry_epoch.is_none_or(|e| c.epoch >= e));
        let want_delta = req.allow_delta
            && chain
                .as_ref()
                .is_some_and(|c| c.delta_count < DELTA_CHAIN_LIMIT);
        let anon_clean = want_delta && chain.as_ref().is_some_and(|c| c.anon_gen == anon_gen);
        let comm_clean = want_delta && chain.as_ref().is_some_and(|c| c.comm_gen == comm_gen);

        // Start from the chain's stored-form archive when a delta is
        // possible — clean records (chunk manifests included) carry
        // over untouched, by move. A full save rebuilds from scratch so
        // the new epoch never references the old one's chunk objects.
        let (mut next, chain_carry, commitment, chunk_index, prev_chunk_objects) = match chain {
            Some(c) if want_delta => {
                let prefix = chunk_prefix(&label, c.epoch);
                let prev: Vec<String> = c
                    .chunks
                    .ids()
                    .map(|id| cas::chunk_object_name(&prefix, id))
                    .collect();
                (
                    c.archive,
                    Some((c.key, c.epoch, c.delta_count)),
                    c.commitment,
                    c.chunks,
                    prev,
                )
            }
            Some(c) => {
                let prefix = chunk_prefix(&label, c.epoch);
                let prev = c
                    .chunks
                    .ids()
                    .map(|id| cas::chunk_object_name(&prefix, id))
                    .collect();
                // The archive rebuilds from scratch, so the old cache
                // has nothing reusable: every record lands in
                // `dirty_old` and would be rehashed anyway.
                (
                    NymArchive::new(),
                    None,
                    ArchiveCommitment::default(),
                    ChunkIndex::new(),
                    prev,
                )
            }
            None => (
                NymArchive::new(),
                None,
                ArchiveCommitment::default(),
                ChunkIndex::new(),
                Vec::new(),
            ),
        };

        // Infallible from here to the resume: the generation read
        // above proved both uppers exist, and nothing intervenes while
        // the VMs are paused.
        let mut dirty_old: Vec<(&'static str, Option<Vec<u8>>)> = Vec::new();
        if !anon_clean {
            let upper = env
                .hv
                .vm(anon_vm)?
                .disk()
                .upper()
                .expect("generation read above proved the upper exists");
            let old = next.replace_layer("anonvm.disk", upper);
            dirty_old.push(("anonvm.disk", old));
        }
        if !comm_clean {
            let upper = env
                .hv
                .vm(comm_vm)?
                .disk()
                .upper()
                .expect("generation read above proved the upper exists");
            let old = next.replace_layer("commvm.disk", upper);
            dirty_old.push(("commvm.disk", old));
        }
        env.hv.vm_mut(anon_vm)?.resume();
        env.hv.vm_mut(comm_vm)?.resume();

        let old = next.replace("anonymizer.state", session.anonymizer.save_state());
        dirty_old.push(("anonymizer.state", old));
        let old = next.replace(
            "meta",
            format!(
                "name={};model={:?};anonymizer={}",
                session.nymbox.name,
                session.nymbox.model,
                session.anonymizer.name()
            )
            .into_bytes(),
        );
        dirty_old.push(("meta", old));
        if let Some(browser) = &session.browser {
            let old = next.replace("browser.state", browser.to_bytes());
            dirty_old.push(("browser.state", old));
        }
        let cost = session.anonymizer.transfer_cost();
        let exit_ip = session.anonymizer.exit_address(env.public_ip);

        // Figure 6 accounting reports logical (pre-chunking) sizes.
        let anon_bytes = next.get("anonvm.disk").map_or(0, record_logical_len);
        let comm_bytes = next.get("commvm.disk").map_or(0, record_logical_len);
        let other_bytes = next
            .records()
            .map(|(_, d)| record_logical_len(d))
            .sum::<usize>()
            - anon_bytes
            - comm_bytes;

        Ok(SavePlan {
            req,
            label,
            exit_ip,
            wire_overhead: cost.byte_overhead,
            rate_cap: cost.rate_cap,
            next,
            dirty_old,
            anon_gen,
            comm_gen,
            chain: chain_carry,
            commitment,
            chunk_index,
            prev_chunk_objects,
            last_epoch,
            want_delta,
            chunked: Vec::new(),
            delta: None,
            breakdown: (anon_bytes, comm_bytes, other_bytes),
        })
    }

    /// Stage 2: convert captured records at or above the chunk
    /// threshold into `"NYMC"` manifests. Manifest hashing is batched
    /// across every plan in the run. With `fallback` set, only plans
    /// that fell back to a full save participate (their re-captured
    /// clean layers need converting too).
    fn chunk_stage(&self, plans: &mut [SavePlan<'_>], fallback: bool) {
        // (plan index, record name, raw bytes) for every convertible
        // record, then one batched manifest build over all of them.
        let mut raws: Vec<(usize, &'static str, Vec<u8>)> = Vec::new();
        for (pi, plan) in plans.iter_mut().enumerate() {
            // Per-session chunk span: covers this plan's record
            // extraction; the cross-session batched manifest hashing
            // below is shared work and deliberately unattributed.
            let _span = nymix_obs::span!("chunk", "session" => plan.req.id.0);
            if !plan.req.allow_delta || (fallback && plan.delta.is_some()) {
                continue;
            }
            let names: Vec<&'static str> = plan
                .dirty_old
                .iter()
                .map(|(n, _)| *n)
                .filter(|n| {
                    plan.next
                        .get(n)
                        .is_some_and(|d| d.len() >= CHUNK_RECORD_THRESHOLD)
                        && ChunkManifest::from_bytes(plan.next.get(n).expect("checked")).is_err()
                })
                .collect();
            for name in names {
                // Swap the record bytes out rather than copying them
                // (the raw payload is needed once more, for the chunk
                // upload); the in-place replace keeps record order,
                // which the Merkle commitment depends on.
                let raw = plan
                    .next
                    .replace(name, Vec::new())
                    .expect("record present above");
                raws.push((pi, name, raw));
            }
        }
        if raws.is_empty() {
            return;
        }
        let views: Vec<&[u8]> = raws.iter().map(|(_, _, d)| d.as_slice()).collect();
        let manifests = cas::build_manifests(&views);
        for ((pi, name, raw), manifest) in raws.into_iter().zip(manifests) {
            plans[pi].next.replace(name, manifest.to_bytes());
            plans[pi].chunked.push((name.to_string(), raw, manifest));
        }
    }

    /// Re-captures clean layers raw for plans whose delta didn't pay
    /// off, so their new full base is self-contained, then chunks the
    /// re-captures.
    fn full_fallback(
        &mut self,
        env: &mut Environment,
        sessions: &mut BTreeMap<NymId, NymSession>,
        plans: &mut [SavePlan<'_>],
    ) -> Result<(), NymManagerError> {
        for plan in plans.iter_mut() {
            if !plan.want_delta || plan.delta.is_some() {
                continue;
            }
            plan.chain = None; // Compaction: a fresh epoch, a fresh key.
            let session = sessions.get_mut(&plan.req.id).expect("captured above");
            let (anon_vm, comm_vm) = (session.nymbox.anon_vm, session.nymbox.comm_vm);
            for (name, vm) in [("anonvm.disk", anon_vm), ("commvm.disk", comm_vm)] {
                if plan.next.get(name).is_some() && plan.dirty_old.iter().any(|(n, _)| *n == name) {
                    continue;
                }
                env.hv.vm_mut(vm)?.pause();
                if env.hv.vm(vm)?.disk().upper().is_none() {
                    // Never leave the VM paused on the error path.
                    env.hv.vm_mut(vm)?.resume();
                    return Err(NymManagerError::Storage("upper missing".into()));
                }
                let upper = env.hv.vm(vm)?.disk().upper().expect("checked above");
                let old = plan.next.replace_layer(name, upper);
                env.hv.vm_mut(vm)?.resume();
                plan.dirty_old.push((name, old));
            }
        }
        self.chunk_stage(plans, true);
        Ok(())
    }
}

/// Builds the delta for a plan directly from its captured records: a
/// record is dirty iff its new stored bytes differ from the bytes the
/// chain held — no base-archive clone, no full-set re-compare. Keeps
/// the delta only when the chain can absorb one and the dirty set is
/// actually smaller than re-sealing everything.
fn build_delta(plan: &mut SavePlan<'_>) {
    if !plan.want_delta {
        return;
    }
    let dirty: Vec<(&'static str, &[u8])> = plan
        .dirty_old
        .iter()
        .filter_map(|(name, old)| {
            let new = plan.next.get(name).expect("captured record present");
            (old.as_deref() != Some(new)).then_some((*name, new))
        })
        .collect();
    // O(dirty) commitment: only records the delta ships are rehashed;
    // every clean leaf — and all interior nodes off the dirty leaves'
    // root paths — comes straight from the chain's carried cache.
    let root = plan
        .commitment
        .update(&plan.next, |name| dirty.iter().any(|(n, _)| *n == name));
    let mut delta = DeltaArchive::new(plan.next.record_count(), root);
    for (name, new) in dirty {
        delta.put(name, new.to_vec());
    }
    if delta.serialized_len() < plan.next.serialized_len() {
        plan.delta = Some(delta);
    }
}

/// What one seal job hands back: the staged save, plus the session's
/// arena and nonce RNG as the seal left them.
type SealOutput<'a> = (SealedSave<'a>, SealScratch, Rng);

/// Stage 3: run every seal job, on one thread per job when the run is
/// batched. Jobs are fully owned and independent — each session's
/// scratch, RNG and keys travel with its job — so scheduling cannot
/// change any output byte.
fn seal_stage<'a>(mut jobs: Vec<SealJob<'a>>, workers: usize, now_us: u64) -> Vec<SealOutput<'a>> {
    if jobs.len() <= 1 || workers <= 1 {
        return jobs.drain(..).map(seal_one).collect();
    }
    let workers = workers.min(jobs.len());
    let per = jobs.len().div_ceil(workers);
    let mut slots: Vec<Option<SealJob>> = jobs.drain(..).map(Some).collect();
    let mut results: Vec<Option<SealOutput>> =
        std::iter::repeat_with(|| None).take(slots.len()).collect();
    std::thread::scope(|scope| {
        for (job_chunk, result_chunk) in slots.chunks_mut(per).zip(results.chunks_mut(per)) {
            scope.spawn(move || {
                // Worker threads carry their own sim-clock view; seed
                // it so seal spans report the batch's modeled time.
                nymix_obs::sim_clock(now_us);
                for (job, result) in job_chunk.iter_mut().zip(result_chunk.iter_mut()) {
                    *result = Some(seal_one(job.take().expect("job present")));
                }
            });
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("every job sealed"))
        .collect()
}

/// Seals one plan: chunk objects first (entropy-gated, deduplicated
/// against the epoch's index), then the delta or full blob, staging
/// every object in upload order. Full saves derive the new epoch's key
/// here — the per-save PBKDF2 runs inside the threaded stage.
fn seal_one(job: SealJob<'_>) -> SealOutput<'_> {
    let _span = nymix_obs::span!("seal", "session" => job.plan.req.id.0);
    let SealJob {
        mut plan,
        mut scratch,
        mut rng,
        orphaned_objects,
    } = job;
    let mut staged = Vec::new();
    let mut deletes = Vec::new();
    let mut uploaded = 0usize;
    let mut chunk_index = std::mem::take(&mut plan.chunk_index);
    let delta = plan.delta.take();

    let (kind, key, epoch, delta_count) = match delta {
        Some(delta) => {
            let (key, epoch, prev_count) = plan.chain.take().expect("delta implies carried chain");
            let prefix = chunk_prefix(&plan.label, epoch);
            for (_, raw, manifest) in &plan.chunked {
                uploaded += cas::seal_new_chunks_into(
                    raw,
                    manifest,
                    &mut chunk_index,
                    &key,
                    &prefix,
                    &mut rng,
                    &mut scratch,
                    &mut staged,
                );
            }
            let index = prev_count + 1;
            let obj_label = delta_label(&plan.label, epoch, index);
            let mut sealed = Vec::new();
            seal_into(
                Sealable::Delta(&delta),
                &key,
                &obj_label,
                &mut rng,
                &mut scratch,
                &mut sealed,
            );
            uploaded += sealed.len();
            staged.push((obj_label, sealed));
            // The previous version retired: sweep chunks no live
            // manifest references.
            let live: Vec<ChunkManifest> = plan
                .next
                .records()
                .filter_map(|(_, d)| ChunkManifest::from_bytes(d).ok())
                .collect();
            for dead in chunk_index.mark_and_sweep(&live) {
                deletes.push(cas::chunk_object_name(&prefix, &dead));
            }
            (SaveKind::Delta, key, epoch, index)
        }
        None => {
            let epoch = plan.last_epoch.map_or(1, |e| e + 1);
            plan.next.put(EPOCH_RECORD, epoch.to_le_bytes().to_vec());
            // Refresh the commitment cache over the new base so the
            // next delta save starts O(dirty). Clean carried records
            // (including the fallback path's) keep their cached leaf
            // hashes; everything this save re-captured, plus the epoch
            // record, is rehashed.
            let dirty_old = &plan.dirty_old;
            plan.commitment.update(&plan.next, |name| {
                name == EPOCH_RECORD || dirty_old.iter().any(|(n, _)| *n == name)
            });
            let key = SealKey::derive(plan.req.password, &plan.label, &mut rng);
            let prefix = chunk_prefix(&plan.label, epoch);
            chunk_index = ChunkIndex::new();
            for (_, raw, manifest) in &plan.chunked {
                uploaded += cas::seal_new_chunks_into(
                    raw,
                    manifest,
                    &mut chunk_index,
                    &key,
                    &prefix,
                    &mut rng,
                    &mut scratch,
                    &mut staged,
                );
            }
            let mut sealed = Vec::new();
            seal_into(
                Sealable::Archive(&plan.next),
                &key,
                &plan.label,
                &mut rng,
                &mut scratch,
                &mut sealed,
            );
            uploaded += sealed.len();
            staged.push((plan.label.clone(), sealed));
            // Compaction retires everything under the previous epoch:
            // its delta objects, the carried chain's chunk objects, and
            // whatever destroyed sessions left orphaned on this label.
            if let Some(old) = plan.last_epoch {
                for i in 1..=DELTA_CHAIN_LIMIT {
                    deletes.push(delta_label(&plan.label, old, i));
                }
            }
            deletes.extend(std::mem::take(&mut plan.prev_chunk_objects));
            deletes.extend(orphaned_objects);
            (SaveKind::Full, key, epoch, 0)
        }
    };
    let commitment = std::mem::take(&mut plan.commitment);
    let sealed = SealedSave {
        plan,
        staged,
        deletes,
        uploaded,
        kind,
        key,
        epoch,
        delta_count,
        chunk_index,
        commitment,
    };
    (sealed, scratch, rng)
}
