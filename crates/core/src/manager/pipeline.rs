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
//! 2. **Jobs** (worker pool): one job per nym. It captures its dirty
//!    layers from a shared borrow of the hypervisor into its
//!    [`nymix_store::chain::SavePlan`] (*capture*): each layer record
//!    is spliced from the raw record the job's chunk cache holds,
//!    copying the entries unchanged since the layer generation that
//!    record serialized and encoding only the changed ones. The plan
//!    converts large records to `"NYMC"` manifests against the same
//!    cache and diffs the result into a delta (*chunk*): the chunker
//!    walks only from each changed run until its cuts land on the
//!    cached ones again, and a chunk a `memcmp` proves unchanged keeps
//!    its cached id unhashed. When the delta does not pay, the job
//!    falls back to a full save and captures the clean layers too,
//!    each a copy of its cached record. The plan then seals chunk
//!    objects and the delta or full blob (*seal*).
//!    `available_parallelism()` threads, the calling thread among
//!    them, pull jobs off one shared queue. A job owns everything it
//!    writes — RNG, arena, cache, keys — and only reads the layers, so
//!    no nym's bytes are ever compared against another's and the
//!    output is bit-identical at any worker count.
//! 3. **After** (calling thread): resume the VMs, hand each job's RNG,
//!    arena and cache back to its session, then land every staged
//!    object through one [`nymix_store::ObjectBackend::apply_batch`]
//!    per destination group — one authenticated round trip per
//!    backend instead of one per object — sweeping retired objects in
//!    the same batch.
//!
//! The **destination is the chain registry**: a save without a chain
//! lists the label's chain objects ([`nymix_store::chain::list`]),
//! full-saves into the epoch after the highest and sweeps them all, so
//! a recreated nym, a fresh manager or a failed batch's retry never
//! collides with stale objects or leaks them. One live session owns
//! each chain: a full save or a restore under a label drops the
//! label's chain from every other session.

use nymix_fs::Layer;
use nymix_net::{access_transfer, Ip};
use nymix_sim::{DiskProfile, Rng, SimDuration};
use nymix_store::cas::{ChunkManifest, ManifestScratch};
use nymix_store::chain::{self, ChainError, ChunkCache, Listing, Sealed};
use nymix_store::SealScratch;
use nymix_vmm::{Hypervisor, VmId};

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Mutex;

use super::env::{dest_backend, Environment};
use super::session::{storage_label, ChainState, NymSession};
use super::{NymId, NymManagerError, SaveKind, StorageDest};

/// A record's logical (pre-chunking) payload length: manifests report
/// the length of the content they describe, raw records their own.
fn record_logical_len(data: &[u8]) -> usize {
    ChunkManifest::from_bytes(data).map_or(data.len(), |m| m.total_len())
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

/// What the after phase needs of one save besides its sealed objects:
/// the request, its label, and how its upload is charged.
struct Upload<'a> {
    req: SaveRequest<'a>,
    label: String,
    exit_ip: Ip,
    wire_overhead: f64,
    /// The session anonymizer's per-flow throughput ceiling (bytes/s).
    rate_cap: f64,
    anon_gen: u64,
    comm_gen: u64,
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
    chunk_cache: ChunkCache,
}

/// One nym's save job: its upload, its chain plan, its kit, and
/// read-only borrows of its two writable layers.
struct SaveJob<'a, 'hv> {
    upload: Upload<'a>,
    save: chain::SavePlan,
    /// `(record name, writable upper, clean)` for the AnonVM disk, then
    /// the CommVM disk. A clean layer's generation matches the carried
    /// chain's, so only a full-save fallback serializes it.
    layers: [(&'static str, &'hv Layer, bool); 2],
    /// The small records read from the session, in archive order after
    /// the layers.
    records: Vec<(&'static str, Vec<u8>)>,
    kit: SessionKit,
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
// lint:allow(test-only-pub): manager/tests.rs pins batches at fixed worker counts through it
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
    // Either way the next epoch is known, and checked, before any VM
    // pauses.
    let mut listings = Vec::with_capacity(reqs.len());
    for (req, label) in reqs.iter().zip(&labels) {
        let session = &sessions[&req.id];
        listings.push(match session.chains.get(label) {
            Some(state) => Listing::of(&state.chain)?,
            None => {
                let exit = session.anonymizer.exit_address(env.public_ip);
                let mut dest = dest_backend(
                    &mut env.cloud,
                    &mut env.disk,
                    env.striped.as_mut(),
                    req.dest,
                    Some(exit),
                )?;
                chain::list(dest.as_backend(), label)?
            }
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
    for ((up, s), kit) in done {
        let session = sessions.get_mut(&up.req.id).expect("validated above");
        session.seal_rng = kit.rng;
        session.scratch = kit.scratch;
        session.chunk_cache = kit.chunk_cache;
        sealed.push((up, s));
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
    let upload_wire = |up: &Upload, uploaded: usize| {
        let amplify = match up.req.dest {
            StorageDest::Cloud { .. } => 1.0,
            StorageDest::Striped => striped_overhead,
            StorageDest::Disk => 0.0,
        };
        (1.0 + up.wire_overhead) * (uploaded as f64 * scale) * amplify
    };
    let mut cloud_wire_total = 0.0f64;
    for (up, s) in &sealed {
        cloud_wire_total += upload_wire(up, s.uploaded);
    }
    let batched = sealed.len() > 1;
    let mut batch_duration = SimDuration::ZERO;
    let mut group: Vec<SealedSave> = Vec::new();
    let mut pending = sealed.into_iter().peekable();
    while let Some(s) = pending.next() {
        let same_target = |(a, _): &SealedSave, (b, _): &SealedSave| {
            a.req.dest == b.req.dest
                && (matches!(a.req.dest, StorageDest::Disk) || a.exit_ip == b.exit_ip)
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
        let (dest, exit) = (group[0].0.req.dest, group[0].0.exit_ip);
        let disk_before = env.disk.device_stats();
        let cloud_backoff = {
            let staged: Vec<(String, Vec<u8>)> = group
                .iter_mut()
                .flat_map(|(_, s)| std::mem::take(&mut s.puts))
                .collect();
            let deletes: Vec<String> = group
                .iter_mut()
                .flat_map(|(_, s)| std::mem::take(&mut s.deletes))
                .collect();
            let _span = nymix_obs::span!("apply_batch", "objects" => staged.len());
            let mut backend = dest_backend(
                &mut env.cloud,
                &mut env.disk,
                env.striped.as_mut(),
                dest,
                Some(exit),
            )?;
            backend
                .as_backend()
                .apply_batch(staged, deletes)
                .map_err(ChainError::from)?;
            // Transient-failure retries slept on simulated backoff;
            // charge it to this batch's modeled (simulated) time.
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
        for (up, s) in group.drain(..) {
            let duration = match up.req.dest {
                // The batch's cloud and striped uploads share the
                // access link, so each takes the batch total's time
                // or its own wire at its anonymizer's cap, whichever
                // is longer; a lone save sees exactly the serial
                // transfer time.
                StorageDest::Cloud { .. } | StorageDest::Striped => {
                    let wire = upload_wire(&up, s.uploaded);
                    let total = if batched { cloud_wire_total } else { wire };
                    access_transfer(total, f64::INFINITY).max(access_transfer(wire, up.rate_cap))
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
                "upload", "session" => up.req.id.0, "objects" => s.uploaded
            );
            up_span.add_modeled_us(duration.0);
            drop(up_span);
            let id = up.req.id;
            let kind = if s.chain.delta_count() == 0 {
                drop_other_chains(sessions, id, &up.label);
                SaveKind::Full
            } else {
                SaveKind::Delta
            };
            outcomes.push(SaveOutcome {
                kind,
                uploaded: s.uploaded,
                duration,
                breakdown: up.breakdown,
            });
            let session = sessions.get_mut(&id).expect("validated above");
            session.chains.insert(
                up.label,
                ChainState {
                    chain: s.chain,
                    anon_gen: up.anon_gen,
                    comm_gen: up.comm_gen,
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
/// AnonVM and CommVM writable layers, already paused.
fn plan_job<'a, 'hv>(
    session: &mut NymSession,
    public_ip: Ip,
    req: SaveRequest<'a>,
    uppers: [&'hv Layer; 2],
    listing: Listing,
) -> SaveJob<'a, 'hv> {
    let _span = nymix_obs::span!("capture", "session" => req.id.0);
    let label = storage_label(&session.nymbox.name, req.dest);
    let [anon_gen, comm_gen] = uppers.map(Layer::generation);
    let state = session.chains.remove(&label);
    let unchanged = state.as_ref().map_or([false; 2], |s| {
        [s.anon_gen == anon_gen, s.comm_gen == comm_gen]
    });
    let save = chain::SavePlan::new(state.map(|s| s.chain), listing, req.allow_delta);
    let clean = unchanged.map(|same| same && save.delta_possible());
    let layers = [
        ("anonvm.disk", uppers[0], clean[0]),
        ("commvm.disk", uppers[1], clean[1]),
    ];

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
    SaveJob {
        upload: Upload {
            req,
            label,
            exit_ip: session.anonymizer.exit_address(public_ip),
            wire_overhead: cost.byte_overhead,
            rate_cap: cost.rate_cap,
            anon_gen,
            comm_gen,
            breakdown: (0, 0, 0),
        },
        save,
        layers,
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

/// One save sealed: its upload and its chain objects.
type SealedSave<'a> = (Upload<'a>, Sealed);

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
        mut upload,
        mut save,
        layers,
        records,
        mut kit,
    } = job;
    let id = upload.req.id.0;
    {
        let _span = nymix_obs::span!("capture", "session" => id);
        for &(name, upper, clean) in &layers {
            if !clean {
                save.capture_layer(name, upper, &kit.chunk_cache);
            }
        }
        for (name, bytes) in records {
            save.capture(name, bytes);
        }
        // Figure 6 accounting reports logical (pre-chunking) sizes.
        let archive = save.archive();
        let anon_bytes = archive.get("anonvm.disk").map_or(0, record_logical_len);
        let comm_bytes = archive.get("commvm.disk").map_or(0, record_logical_len);
        let other_bytes = archive
            .records()
            .map(|(_, d)| record_logical_len(d))
            .sum::<usize>()
            - anon_bytes
            - comm_bytes;
        upload.breakdown = (anon_bytes, comm_bytes, other_bytes);
    }
    let mut manifest_scratch = ManifestScratch::default();
    let as_delta = {
        let _span = nymix_obs::span!("chunk", "session" => id);
        save.chunk(&mut kit.chunk_cache, &mut manifest_scratch);
        save.diff()
    };
    if save.delta_possible() && !as_delta {
        // The delta didn't pay: compact to a fresh epoch and key. The
        // new base must be self-contained — a carried layer's manifest
        // names the retired epoch's chunk objects — so the clean
        // layers are serialized raw too, then chunked.
        {
            let _span = nymix_obs::span!("capture", "session" => id);
            for &(name, upper, clean) in &layers {
                if clean {
                    save.capture_layer(name, upper, &kit.chunk_cache);
                }
            }
        }
        let _span = nymix_obs::span!("chunk", "session" => id);
        save.chunk(&mut kit.chunk_cache, &mut manifest_scratch);
    }
    let sealed = {
        let _span = nymix_obs::span!("seal", "session" => id);
        save.seal(
            &upload.label,
            upload.req.password,
            &mut kit.rng,
            &mut kit.scratch,
            &mut kit.chunk_cache,
        )
    };
    ((upload, sealed), kit)
}
