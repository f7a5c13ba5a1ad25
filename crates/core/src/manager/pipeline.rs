//! The store pipeline: staged, batched save/restore.
//!
//! The §3.5 store-nym workflow — pause → sync → compress → encrypt →
//! upload — runs here over any number of sessions at once, in three
//! phases:
//!
//! 1. **Before** (calling thread): validate the batch — every id live,
//!    none named twice — list the destination of every session that
//!    carries no chain for its label, pause every VM in the batch,
//!    read the writable layers' generation counters, and move each
//!    session's chain, nonce RNG, sealing arena and chunk-id cache
//!    into its save job. Every fallible step runs before anything
//!    leaves a session, and a failure resumes whatever it paused.
//! 2. **Jobs** (worker pool): one job per nym. It serializes its dirty
//!    layers from a shared borrow of the hypervisor (*capture*),
//!    converts large records to `"NYMC"` manifests with
//!    [`nymix_store::build_manifests`] against its own chunk-id cache
//!    (a chunk a `memcmp` proves unchanged keeps its id unhashed) and
//!    diffs the result into a delta (*chunk*). When the delta does not
//!    pay, the job falls back to a full save and re-serializes the
//!    clean layers itself. It then seals chunk objects and the delta
//!    or full blob (*seal*). `available_parallelism()` threads, the
//!    calling thread among them, pull jobs off one shared queue. A job
//!    owns everything it writes — RNG, arena, cache, keys — and only
//!    reads the layers, so no nym's bytes are ever compared against
//!    another's and the output is bit-identical at any worker count.
//! 3. **After** (calling thread): resume the VMs, hand each job's RNG,
//!    arena and cache back to its session, then land every staged
//!    object through one [`nymix_store::ObjectBackend::apply_batch`]
//!    per destination group — one authenticated round trip per
//!    backend instead of one per object — sweeping retired objects in
//!    the same batch.
//!
//! The **destination is the chain registry**: a save without a chain
//! lists the label's `{label}#e{N}.{i}` and `{label}#e{N}/c/{id}`
//! objects, full-saves into epoch `max(N) + 1` and sweeps them all, so
//! a recreated nym, a fresh manager or a failed batch's retry never
//! collides with stale objects or leaks them. One live session owns
//! each chain: a full save or a restore under a label drops the
//! label's chain from every other session.

use nymix_fs::Layer;
use nymix_net::{access_transfer, Ip};
use nymix_sim::{DiskProfile, Rng, SimDuration};
use nymix_store::cas::{self, ChunkIndex, ChunkManifest, ManifestScratch, PrevChunks};
use nymix_store::{
    seal_into, ArchiveCommitment, DeltaArchive, NymArchive, SealKey, SealScratch, Sealable,
    CHUNK_RECORD_THRESHOLD, DELTA_CHAIN_LIMIT,
};
use nymix_vmm::{Hypervisor, VmId};

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Mutex;

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

/// The epoch `N` of a chain object of `label` — a delta
/// `{label}#e{N}.{i}` or a chunk `{label}#e{N}/c/{64 hex}` — or `None`
/// for any other name, a longer label's objects included.
fn chain_object_epoch(name: &str, label: &str) -> Option<u64> {
    let rest = name.strip_prefix(label)?.strip_prefix("#e")?;
    let (epoch, tail) = rest.split_at(rest.find(|c: char| !c.is_ascii_digit())?);
    let digits = |s: &str, hex| {
        s.bytes()
            .all(|b| b.is_ascii_digit() || (hex && b"abcdef".contains(&b)))
    };
    let named = match tail.strip_prefix('.') {
        Some(index) => !index.is_empty() && digits(index, false),
        None => tail
            .strip_prefix("/c/")
            .is_some_and(|id| id.len() == 64 && digits(id, true)),
    };
    named.then(|| epoch.parse().ok()).flatten()
}

/// Lists `dest` through `exit` for the chain objects it holds under
/// `label`: their highest epoch (`None` when there are none) and their
/// names, which the next full save sweeps.
fn list_chain_objects(
    env: &mut Environment,
    dest: &StorageDest,
    exit: Ip,
    label: &str,
) -> Result<(Option<u64>, Vec<String>), NymManagerError> {
    let mut names = Vec::new();
    dest_backend(
        &mut env.cloud,
        &mut env.disk,
        env.striped.as_mut(),
        env.clock,
        dest,
        Some(exit),
    )?
    .as_backend()
    .list(&mut names)
    .map_err(storage_err)?;
    let mut last = None;
    names.retain(|n| {
        let epoch = chain_object_epoch(n, label);
        last = last.max(epoch);
        epoch.is_some()
    });
    Ok((last, names))
}

/// Drops `label`'s chain from every live session but `owner`: one live
/// session owns each chain.
pub(super) fn drop_other_chains(
    sessions: &mut BTreeMap<NymId, NymSession>,
    owner: NymId,
    label: &str,
) {
    for (_, session) in sessions.iter_mut().filter(|(id, _)| **id != owner) {
        session.chains.remove(label);
    }
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

/// One session's save as it moves through the phases: the staged next
/// archive with everything the job needs, fully owned.
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
    /// delta is possible). A delta save recomputes only dirty leaves
    /// plus the root path against it; a full save refreshes it in
    /// place so clean carried records keep their cached leaf hashes.
    commitment: ArchiveCommitment,
    /// The carried chain's chunk index (empty when none was carried).
    chunk_index: ChunkIndex,
    /// The carried chain's epoch: `chunk_index` names its chunk
    /// objects under this epoch's prefix, and a full save sweeps them.
    carried_epoch: Option<u64>,
    /// The carried chain's epoch, or the highest one the destination
    /// listed for a chain-less save: a full save takes the next.
    last_epoch: Option<u64>,
    /// The chain objects a chain-less save listed; a full save sweeps
    /// them.
    listed: Vec<String>,
    want_delta: bool,
    /// `(name, raw bytes, manifest)` per chunk-converted record; moved
    /// into the session's chunk cache once sealed.
    chunked: Vec<(String, Vec<u8>, ChunkManifest)>,
    delta: Option<DeltaArchive>,
    breakdown: (usize, usize, usize),
}

/// What a job takes from its session by value and hands back: the
/// nonce RNG, the sealing arena and the chunk-id cache. They return
/// before any upload runs. A failed upload must not leave the session
/// holding its pre-seal RNG: the retry would redraw the same salt and
/// nonces over different plaintext.
struct SessionKit {
    rng: Rng,
    scratch: SealScratch,
    chunk_cache: BTreeMap<String, (Vec<u8>, ChunkManifest)>,
}

/// One nym's save job: its plan, its kit, and read-only borrows of its
/// two writable layers.
struct SaveJob<'a, 'hv> {
    plan: SavePlan<'a>,
    /// `(record name, writable upper, clean)` for the AnonVM disk, then
    /// the CommVM disk. A clean layer's generation matches the carried
    /// chain's, so only a full-save fallback serializes it.
    layers: [(&'static str, &'hv Layer, bool); 2],
    /// The small records read from the session, in archive order after
    /// the layers.
    records: Vec<(&'static str, Vec<u8>)>,
    kit: SessionKit,
}

/// A sealed job: staged uploads plus the state flowing back into the
/// session's chain once the upload lands.
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

/// Runs the three-phase pipeline over every request, with one
/// worker per available core. Outcomes are in request order; the
/// simulation clock advances once, by the concurrent completion
/// time of the batch.
pub(super) fn save_many(
    env: &mut Environment,
    sessions: &mut BTreeMap<NymId, NymSession>,
    reqs: Vec<SaveRequest<'_>>,
) -> Result<Vec<SaveOutcome>, NymManagerError> {
    let workers = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    save_many_on(env, sessions, reqs, workers)
}

/// [`save_many`] on `workers` threads, the calling thread among them.
/// Output is bit-identical at any worker count: every job's randomness
/// comes from its session's own forked RNG.
pub(super) fn save_many_on(
    env: &mut Environment,
    sessions: &mut BTreeMap<NymId, NymSession>,
    reqs: Vec<SaveRequest<'_>>,
    workers: usize,
) -> Result<Vec<SaveOutcome>, NymManagerError> {
    // Before. Validate every id before anything moves: failing
    // mid-batch would drop the chains of every request before it.
    // A nym named twice is refused outright: its two jobs would
    // seal different plaintext from one nonce RNG position. So is a
    // label saved twice: both saves would plan against one listing
    // and write one epoch's names.
    let mut seen = BTreeSet::new();
    let mut labels = Vec::with_capacity(reqs.len());
    for req in &reqs {
        let Some(session) = sessions.get(&req.id) else {
            return Err(NymManagerError::NoSuchNym(req.id));
        };
        if !seen.insert(req.id) {
            return Err(NymManagerError::DuplicateNym(req.id));
        }
        let label = storage_label(&session.nymbox.name, req.dest);
        if labels.contains(&label) {
            return Err(NymManagerError::DuplicateLabel(req.id));
        }
        labels.push(label);
    }
    nymix_obs::sim_clock(env.clock.as_micros());
    // A session without a chain for its label learns the label's
    // epochs and objects from the destination, through its own exit.
    let mut listings = Vec::with_capacity(reqs.len());
    for (req, label) in reqs.iter().zip(&labels) {
        let session = &sessions[&req.id];
        listings.push(if session.chains.contains_key(label) {
            (None, Vec::new())
        } else {
            let exit = session.anonymizer.exit_address(env.public_ip);
            list_chain_objects(env, req.dest, exit, label)?
        });
    }
    let vms: Vec<[VmId; 2]> = reqs
        .iter()
        .map(|r| {
            let nymbox = &sessions[&r.id].nymbox;
            [nymbox.anon_vm, nymbox.comm_vm]
        })
        .collect();
    let mut paused = Vec::with_capacity(2 * vms.len());
    let uppers = match pause_and_borrow_uppers(&mut env.hv, &vms, &mut paused) {
        Ok(uppers) => uppers,
        Err(e) => {
            resume_all(&mut env.hv, &paused);
            return Err(e);
        }
    };
    let jobs: Vec<SaveJob> = reqs
        .into_iter()
        .zip(uppers)
        .zip(listings)
        .map(|((req, uppers), listing)| {
            let session = sessions.get_mut(&req.id).expect("validated above");
            plan_job(session, env.public_ip, req, uppers, listing)
        })
        .collect();

    // Jobs.
    let done = run_jobs(jobs, workers, env.clock.as_micros());

    // After: the layer borrows are over, so the VMs resume before
    // any upload can fail.
    resume_all(&mut env.hv, &paused);
    let mut sealed = Vec::with_capacity(done.len());
    for (s, kit) in done {
        let session = sessions.get_mut(&s.plan.req.id).expect("validated above");
        session.seal_rng = kit.rng;
        session.scratch = kit.scratch;
        session.chunk_cache = kit.chunk_cache;
        sealed.push(s);
    }

    // Upload (grouped per destination) + bookkeeping.
    let mut outcomes = Vec::with_capacity(sealed.len());
    // Striped uploads ship n/k redundant bytes per sealed byte
    // (k-of-n erasure shards, plus negligible per-shard headers).
    let striped_overhead = env
        .striped
        .as_ref()
        .map_or(1.0, |s| s.redundancy_overhead());
    // Bytes one save puts on the access link (zero for disk ones).
    let scale = env.browser_scale as f64;
    let upload_wire = |s: &SealedSave| {
        let amplify = match s.plan.req.dest {
            StorageDest::Cloud { .. } => 1.0,
            StorageDest::Striped => striped_overhead,
            StorageDest::Disk => 0.0,
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
                && (matches!(a.plan.req.dest, StorageDest::Disk)
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
        // sweep — for the whole group. On the disk store the batch
        // is one log frame, a single atomic transaction: a crash
        // mid-save leaves either every nym's previous version (with
        // its chunk objects) or every new one, never a mixture.
        let dest = group[0].plan.req.dest;
        let exit = group[0].plan.exit_ip;
        let disk_before = env.disk.device_stats();
        let now = env.clock;
        let cloud_backoff = {
            let staged: Vec<(String, Vec<u8>)> = group
                .iter_mut()
                .flat_map(|s| std::mem::take(&mut s.staged))
                .collect();
            let deletes: Vec<String> = group
                .iter_mut()
                .flat_map(|s| std::mem::take(&mut s.deletes))
                .collect();
            let _span = nymix_obs::span!("apply_batch", "objects" => staged.len());
            let mut backend = dest_backend(
                &mut env.cloud,
                &mut env.disk,
                env.striped.as_mut(),
                now,
                dest,
                Some(exit),
            )?;
            backend
                .as_backend()
                .apply_batch(staged, deletes)
                .map_err(storage_err)?;
            // Transient-failure retries slept on simulated backoff;
            // charge it to this batch's wall clock.
            backend.take_accrued_backoff()
        };
        // Disk saves cost the actual device I/O the batch incurred
        // (the frame append, the superblock write and both fsync
        // barriers), priced at SSD speed.
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
                // The batch's frame commit, at modeled device speed.
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
            let id = s.plan.req.id;
            if s.kind == SaveKind::Full {
                drop_other_chains(sessions, id, &s.plan.label);
            }
            outcomes.push(SaveOutcome {
                kind: s.kind,
                uploaded: s.uploaded,
                duration,
                breakdown: s.plan.breakdown,
            });
            let session = sessions.get_mut(&id).expect("validated above");
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
    Ok(outcomes)
}

/// Builds one session's job on the calling thread: carries the
/// chain over (by value — the session owns it, so nothing is
/// cloned), reads the small records only the session can produce,
/// and moves the session's kit in. `uppers` are the session's
/// AnonVM and CommVM writable layers, already paused; `listing` is
/// what the destination holds under the label when the session
/// carries no chain for it.
fn plan_job<'a, 'hv>(
    session: &mut NymSession,
    public_ip: Ip,
    req: SaveRequest<'a>,
    uppers: [&'hv Layer; 2],
    (listed_epoch, listed): (Option<u64>, Vec<String>),
) -> SaveJob<'a, 'hv> {
    let _span = nymix_obs::span!("capture", "session" => req.id.0);
    let label = storage_label(&session.nymbox.name, req.dest);
    let [anon_gen, comm_gen] = uppers.map(Layer::generation);

    let chain = session.chains.remove(&label);
    let last_epoch = chain.as_ref().map(|c| c.epoch).or(listed_epoch);
    let want_delta = req.allow_delta
        && chain
            .as_ref()
            .is_some_and(|c| c.delta_count < DELTA_CHAIN_LIMIT);
    let anon_clean = want_delta && chain.as_ref().is_some_and(|c| c.anon_gen == anon_gen);
    let comm_clean = want_delta && chain.as_ref().is_some_and(|c| c.comm_gen == comm_gen);

    // Start from the chain's stored-form archive when a delta is
    // possible — clean records (chunk manifests included) carry
    // over untouched, by move. A full save rebuilds from scratch so
    // the new epoch never references the old one's chunk objects;
    // it keeps the old index only to sweep them.
    let (next, chain_carry, commitment, chunk_index, carried_epoch) = match chain {
        Some(c) if want_delta => (
            c.archive,
            Some((c.key, c.epoch, c.delta_count)),
            c.commitment,
            c.chunks,
            Some(c.epoch),
        ),
        Some(c) => (
            NymArchive::new(),
            None,
            ArchiveCommitment::default(),
            c.chunks,
            Some(c.epoch),
        ),
        None => (
            NymArchive::new(),
            None,
            ArchiveCommitment::default(),
            ChunkIndex::new(),
            None,
        ),
    };

    let mut records = vec![
        ("anonymizer.state", session.anonymizer.save_state()),
        (
            "meta",
            format!(
                "name={};model={:?};anonymizer={}",
                session.nymbox.name,
                session.nymbox.model,
                session.anonymizer.name()
            )
            .into_bytes(),
        ),
    ];
    if let Some(browser) = &session.browser {
        records.push(("browser.state", browser.to_bytes()));
    }
    let cost = session.anonymizer.transfer_cost();
    let [anon_upper, comm_upper] = uppers;
    SaveJob {
        plan: SavePlan {
            req,
            label,
            exit_ip: session.anonymizer.exit_address(public_ip),
            wire_overhead: cost.byte_overhead,
            rate_cap: cost.rate_cap,
            next,
            dirty_old: Vec::new(),
            anon_gen,
            comm_gen,
            chain: chain_carry,
            commitment,
            chunk_index,
            carried_epoch,
            last_epoch,
            listed,
            want_delta,
            chunked: Vec::new(),
            delta: None,
            breakdown: (0, 0, 0),
        },
        layers: [
            ("anonvm.disk", anon_upper, anon_clean),
            ("commvm.disk", comm_upper, comm_clean),
        ],
        records,
        kit: SessionKit {
            rng: session.seal_rng.clone(),
            scratch: std::mem::take(&mut session.scratch),
            chunk_cache: std::mem::take(&mut session.chunk_cache),
        },
    }
}

/// Pauses both VMs of every request, recording each in `paused`, then
/// borrows every writable upper. The borrow doubles as the check that
/// both uppers exist. On error the caller resumes `paused`.
fn pause_and_borrow_uppers<'hv>(
    hv: &'hv mut Hypervisor,
    vms: &[[VmId; 2]],
    paused: &mut Vec<VmId>,
) -> Result<Vec<[&'hv Layer; 2]>, NymManagerError> {
    for &vm in vms.iter().flatten() {
        hv.vm_mut(vm)?.pause();
        paused.push(vm);
    }
    let hv = &*hv;
    let upper = |vm: VmId, what: &str| -> Result<&'hv Layer, NymManagerError> {
        hv.vm(vm)?
            .disk()
            .upper()
            .ok_or_else(|| NymManagerError::Storage(format!("{what} upper missing")))
    };
    vms.iter()
        .map(|&[anon, comm]| Ok([upper(anon, "anon")?, upper(comm, "comm")?]))
        .collect()
}

/// Resumes every VM in `paused`.
fn resume_all(hv: &mut Hypervisor, paused: &[VmId]) {
    for &vm in paused {
        if let Ok(vm) = hv.vm_mut(vm) {
            vm.resume();
        }
    }
}

/// What one job hands back: the sealed save and the session's kit.
type JobOutput<'a> = (SealedSave<'a>, SessionKit);

/// Runs every job on `workers` threads — the calling thread among
/// them — each pulling the next job off one shared queue. Results come
/// back in job order. Every job owns what it writes, so neither the
/// worker count nor the scheduling can change an output byte.
fn run_jobs<'a>(jobs: Vec<SaveJob<'a, '_>>, workers: usize, now_us: u64) -> Vec<JobOutput<'a>> {
    let n = jobs.len();
    let queue = Mutex::new(jobs.into_iter().enumerate());
    let done = Mutex::new(Vec::with_capacity(n));
    let work = || loop {
        let Some((i, job)) = queue
            .lock()
            .expect("no job panics holding the queue")
            .next()
        else {
            break;
        };
        let out = run_job(job);
        done.lock()
            .expect("no job panics holding the results")
            .push((i, out));
    };
    std::thread::scope(|scope| {
        for _ in 1..workers.min(n) {
            scope.spawn(|| {
                // Worker threads carry their own sim-clock view; seed
                // it so job spans report the batch's modeled time.
                nymix_obs::sim_clock(now_us);
                work();
            });
        }
        work();
    });
    let mut done = done.into_inner().expect("every worker joined");
    done.sort_unstable_by_key(|(i, _)| *i);
    done.into_iter().map(|(_, out)| out).collect()
}

/// One nym's job: capture its dirty layers, chunk and diff, fall back
/// to a full save when the delta does not pay, seal.
fn run_job<'a>(job: SaveJob<'a, '_>) -> JobOutput<'a> {
    let SaveJob {
        mut plan,
        layers,
        records,
        mut kit,
    } = job;
    let id = plan.req.id.0;
    {
        let _span = nymix_obs::span!("capture", "session" => id);
        for &(name, upper, clean) in &layers {
            if !clean {
                let old = plan.next.replace_layer(name, upper);
                plan.dirty_old.push((name, old));
            }
        }
        for (name, bytes) in records {
            let old = plan.next.replace(name, bytes);
            plan.dirty_old.push((name, old));
        }
        // Figure 6 accounting reports logical (pre-chunking) sizes.
        let anon_bytes = plan.next.get("anonvm.disk").map_or(0, record_logical_len);
        let comm_bytes = plan.next.get("commvm.disk").map_or(0, record_logical_len);
        let other_bytes = plan
            .next
            .records()
            .map(|(_, d)| record_logical_len(d))
            .sum::<usize>()
            - anon_bytes
            - comm_bytes;
        plan.breakdown = (anon_bytes, comm_bytes, other_bytes);
    }
    let mut manifest_scratch = ManifestScratch::default();
    {
        let _span = nymix_obs::span!("chunk", "session" => id);
        chunk_records(&mut plan, &mut kit.chunk_cache, &mut manifest_scratch);
        build_delta(&mut plan);
    }
    if plan.want_delta && plan.delta.is_none() {
        // The delta didn't pay: compact to a fresh epoch and key. The
        // new base must be self-contained — a carried layer's manifest
        // names the retired epoch's chunk objects — so the clean
        // layers are serialized raw too, then chunked.
        {
            let _span = nymix_obs::span!("capture", "session" => id);
            for &(name, upper, clean) in &layers {
                if clean {
                    let old = plan.next.replace_layer(name, upper);
                    plan.dirty_old.push((name, old));
                }
            }
        }
        let _span = nymix_obs::span!("chunk", "session" => id);
        chunk_records(&mut plan, &mut kit.chunk_cache, &mut manifest_scratch);
    }
    let mut sealed = seal(plan, &mut kit.rng, &mut kit.scratch);
    // The manifests just sealed are what the next save reuses ids from.
    for (name, raw, manifest) in sealed.plan.chunked.drain(..) {
        kit.chunk_cache.insert(name, (raw, manifest));
    }
    (sealed, kit)
}

/// Converts every captured record at or above the chunk threshold that
/// is not yet a manifest into a `"NYMC"` manifest. Each record reuses
/// the chunk ids `cache` proves unchanged, and consumes its cache
/// entry, so the previous raw bytes are freed before sealing starts.
fn chunk_records(
    plan: &mut SavePlan<'_>,
    cache: &mut BTreeMap<String, (Vec<u8>, ChunkManifest)>,
    scratch: &mut ManifestScratch,
) {
    if !plan.req.allow_delta {
        return;
    }
    let names: Vec<&'static str> = plan
        .dirty_old
        .iter()
        .map(|(n, _)| *n)
        .filter(|n| {
            plan.next.get(n).is_some_and(|d| {
                d.len() >= CHUNK_RECORD_THRESHOLD && ChunkManifest::from_bytes(d).is_err()
            })
        })
        .collect();
    if names.is_empty() {
        return;
    }
    // Swap the record bytes out rather than copying them (the raw
    // payload is needed once more, for the chunk upload); the in-place
    // replace keeps record order, which the Merkle commitment depends
    // on.
    let raws: Vec<(&'static str, Vec<u8>)> = names
        .into_iter()
        .map(|name| {
            let raw = plan
                .next
                .replace(name, Vec::new())
                .expect("record present above");
            (name, raw)
        })
        .collect();
    let prevs: Vec<Option<(Vec<u8>, ChunkManifest)>> =
        raws.iter().map(|(name, _)| cache.remove(*name)).collect();
    let inputs: Vec<(&[u8], Option<PrevChunks>)> = raws
        .iter()
        .zip(&prevs)
        .map(|((_, raw), prev)| {
            let prev = prev.as_ref().map(|(raw, m)| (raw.as_slice(), m));
            (raw.as_slice(), prev)
        })
        .collect();
    let mut manifests = Vec::with_capacity(inputs.len());
    cas::build_manifests(&inputs, scratch, &mut manifests);
    for ((name, raw), manifest) in raws.into_iter().zip(manifests) {
        plan.next.replace(name, manifest.to_bytes());
        plan.chunked.push((name.to_string(), raw, manifest));
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

/// Seals one plan: chunk objects first (entropy-gated, deduplicated
/// against the epoch's index), then the delta or full blob, staging
/// every object in upload order. Full saves derive the new epoch's key
/// here — the per-save PBKDF2 runs on the worker pool.
fn seal<'a>(mut plan: SavePlan<'a>, rng: &mut Rng, scratch: &mut SealScratch) -> SealedSave<'a> {
    let _span = nymix_obs::span!("seal", "session" => plan.req.id.0);
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
                    rng,
                    scratch,
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
                rng,
                scratch,
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
            let key = SealKey::derive(plan.req.password, &plan.label, rng);
            let prefix = chunk_prefix(&plan.label, epoch);
            let retired = std::mem::take(&mut chunk_index);
            for (_, raw, manifest) in &plan.chunked {
                uploaded += cas::seal_new_chunks_into(
                    raw,
                    manifest,
                    &mut chunk_index,
                    &key,
                    &prefix,
                    rng,
                    scratch,
                    &mut staged,
                );
            }
            let mut sealed = Vec::new();
            seal_into(
                Sealable::Archive(&plan.next),
                &key,
                &plan.label,
                rng,
                scratch,
                &mut sealed,
            );
            uploaded += sealed.len();
            staged.push((plan.label.clone(), sealed));
            // Compaction retires everything under the previous epoch:
            // the carried chain's delta and chunk objects, or every
            // chain object a chain-less save listed.
            if let Some(carried) = plan.carried_epoch {
                for i in 1..=DELTA_CHAIN_LIMIT {
                    deletes.push(delta_label(&plan.label, carried, i));
                }
                let old_prefix = chunk_prefix(&plan.label, carried);
                deletes.extend(
                    retired
                        .ids()
                        .map(|id| cas::chunk_object_name(&old_prefix, id)),
                );
            }
            deletes.append(&mut plan.listed);
            (SaveKind::Full, key, epoch, 0)
        }
    };
    let commitment = std::mem::take(&mut plan.commitment);
    SealedSave {
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
    }
}
