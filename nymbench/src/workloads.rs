//! The workloads: seeded, fixed-length schedules over the public
//! `nymix` API, driven by one calling thread in a closed loop, and
//! checked against a reference model of what every restore must show.
//!
//! One *repetition* is set-up plus the schedule, on a fresh manager
//! booted from the workload seed, so every repetition of one seed does
//! identical work. Growth within a repetition (nym state accreting
//! with browsing, disk garbage, longer chains) is part of what gets
//! measured; it is never mistaken for noise because each repetition
//! replays it exactly.

use std::time::Instant;

use nymix::{
    FleetSaveRequest, NymId, NymManager, SaveKind, StartupBreakdown, StorageDest, UsageModel,
};
use nymix_anon::AnonymizerKind;
use nymix_store::delta::DELTA_CHAIN_LIMIT;
use nymix_store::RepairReport;
use nymix_workload::Site;

use crate::record::{Op, Recorder};

const PASSWORD: &str = "bench-pw";
/// The manager's browser byte-scale divisor: page and cache volumes
/// are 1/64 of the paper's, so a repetition takes about a second and a
/// run sees enough of them to take per-call minima.
const BROWSER_SCALE: u64 = 64;
/// Host RAM for the simulated hypervisor: a fleet of 8 nymboxes
/// (~706 MiB each) needs more than the paper's 16 GiB testbed.
const HOST_RAM_MIB: u32 = 65_536;
const STRIPE_ACCOUNT: &str = "stripe-acct";
const STRIPE_CHILDREN: [&str; 3] = ["dropbox", "gdrive", "s3"];

/// A named workload.
pub struct Workload {
    /// `--workload` name.
    pub name: &'static str,
    /// Runs one repetition.
    pub run: fn(&mut Rep, u64) -> Result<(), String>,
}

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "heartbeat",
        run: heartbeat,
    },
    Workload {
        name: "storage",
        run: storage,
    },
];

/// One batched save round as the program reported it.
#[derive(Debug, Clone)]
pub struct SaveRound {
    /// Modeled concurrent completion time (the slowest nym's).
    pub modeled_s: f64,
    /// Sealed bytes shipped, all nyms.
    pub uploaded: u64,
    /// The part of `uploaded` shipped to the journaled disk.
    pub uploaded_to_disk: u64,
    /// Nyms saved.
    pub nyms: usize,
}

/// State read through public accessors at the end of a repetition.
#[derive(Debug, Clone, Default)]
pub struct EndState {
    /// Nyms whose state is stored.
    pub nyms: usize,
    /// Bytes at rest across the destination's backends.
    pub stored_bytes: u64,
    /// Modeled hypervisor memory in use, MiB, sampled while the whole
    /// fleet was live.
    pub used_memory_mib: f64,
    /// The same per live nymbox, host base excluded.
    pub nymbox_mem_mib: f64,
    /// Disk heap garbage (disk workload).
    pub disk_garbage: u64,
    /// Live disk objects (disk workload).
    pub disk_objects: u64,
}

/// Everything one repetition recorded.
#[derive(Debug)]
pub struct Rep {
    /// Timed calls.
    pub rec: Recorder,
    /// Wall time of set-up: boot, registration, spawn, seeding saves.
    pub setup_s: f64,
    /// Every save round, set-up included.
    pub saves: Vec<SaveRound>,
    /// Modeled startup breakdown of every restore.
    pub restores: Vec<StartupBreakdown>,
    /// Modeled page load of every visit, seconds.
    pub visits_modeled_s: Vec<f64>,
    /// Every striped repair pass.
    pub repairs: Vec<RepairReport>,
    /// End-of-repetition state.
    pub end: EndState,
    /// Failed calls and reference-model mismatches.
    pub failures: Vec<String>,
}

impl Rep {
    /// An empty repetition record.
    pub fn new(traced: bool) -> Self {
        Rep {
            rec: Recorder::new(traced),
            setup_s: 0.0,
            saves: Vec::new(),
            restores: Vec::new(),
            visits_modeled_s: Vec::new(),
            repairs: Vec::new(),
            end: EndState::default(),
            failures: Vec::new(),
        }
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }
}

/// The benchmark's own input generator (SplitMix64); the program only
/// ever sees the sites and markers it produces.
///
/// Sites follow a seeded Latin square over the eight §5.2 sites: nym
/// `i` visits site `perm[i] + round` (mod 8), so no nym revisits a site
/// within eight rounds and a round of eight nyms loads each site once.
/// The work per repetition then barely depends on the seed.
struct Inputs {
    state: u64,
    perm: [usize; 8],
    round: usize,
}

impl Inputs {
    fn new(seed: u64) -> Self {
        let mut inputs = Inputs {
            state: seed ^ 0x6E79_6D62_656E_6368,
            perm: [0, 1, 2, 3, 4, 5, 6, 7],
            round: 0,
        };
        for i in (1..8).rev() {
            let j = inputs.below(i + 1);
            inputs.perm.swap(i, j);
        }
        inputs
    }

    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// One site per nym (at most eight) for the next round.
    fn sites(&mut self, n: usize) -> Vec<Site> {
        let all = Site::VISIT_ORDER;
        let round = self.perm[..n]
            .iter()
            .map(|p| all[(p + self.round) % all.len()])
            .collect();
        self.round += 1;
        round
    }
}

/// A fleet under test plus its reference model: which stain each
/// nym's last acknowledged save carried, and how many saves each
/// chain has taken (which fixes the expected save kind).
struct World {
    m: NymManager,
    seed: u64,
    inputs: Inputs,
    names: Vec<String>,
    dests: Vec<StorageDest>,
    ids: Vec<Option<NymId>>,
    saves: Vec<usize>,
    pending: Vec<Option<String>>,
    acked: Vec<Option<String>>,
}

fn err(what: &str, e: impl std::fmt::Display) -> String {
    format!("{what}: {e}")
}

impl World {
    /// Boots a manager and spawns `n` nyms, each storing to `dests[i]`.
    fn spawn(
        rep: &mut Rep,
        m: NymManager,
        seed: u64,
        dests: Vec<StorageDest>,
    ) -> Result<Self, String> {
        let n = dests.len();
        let mut w = World {
            m,
            seed,
            inputs: Inputs::new(seed),
            names: (0..n).map(|i| format!("persona-{i}")).collect(),
            dests,
            ids: vec![None; n],
            saves: vec![0; n],
            pending: vec![None; n],
            acked: vec![None; n],
        };
        for i in 0..n {
            let out = rep.rec.time(Op::Create, || {
                w.m.create_nym(&w.names[i], AnonymizerKind::Tor, UsageModel::Persistent)
            });
            w.ids[i] = Some(out.map_err(|e| err("create_nym", e))?.0);
        }
        Ok(w)
    }

    fn id(&self, i: usize) -> Result<NymId, String> {
        self.ids[i].ok_or_else(|| format!("nym {i} is not live"))
    }

    /// Every live nym loads one page.
    fn browse(&mut self, rep: &mut Rep) -> Result<(), String> {
        let sites = self.inputs.sites(self.names.len());
        for (i, site) in sites.into_iter().enumerate() {
            let id = self.id(i)?;
            let out = rep.rec.time(Op::Visit, || self.m.visit_site(id, site));
            let load = out.map_err(|e| err("visit_site", e))?;
            nymix_obs::sim_clock(self.m.now().as_micros());
            rep.visits_modeled_s.push(load.as_secs_f64());
        }
        Ok(())
    }

    /// Every nym gets a stain unique to it and to `round`; it becomes
    /// the expected restore content once a save acknowledges it.
    fn stain(&mut self, round: usize) -> Result<(), String> {
        for i in 0..self.names.len() {
            let marker = format!("stain-s{}-n{i}-r{round}", self.seed);
            self.m
                .inject_stain(self.id(i)?, &marker)
                .map_err(|e| err("inject_stain", e))?;
            self.pending[i] = Some(marker);
        }
        Ok(())
    }

    /// One batched save round of every live nym. Checks each save kind
    /// against the chain schedule: a full save, then
    /// `DELTA_CHAIN_LIMIT` deltas, then a compaction, and so on.
    fn save(&mut self, rep: &mut Rep) -> Result<(), String> {
        let ids = (0..self.names.len())
            .map(|i| self.id(i))
            .collect::<Result<Vec<_>, _>>()?;
        let reqs: Vec<FleetSaveRequest<'_>> = ids
            .iter()
            .zip(&self.dests)
            .map(|(id, dest)| FleetSaveRequest {
                id: *id,
                password: PASSWORD,
                dest,
            })
            .collect();
        let out = rep
            .rec
            .time(Op::Save, || self.m.save_nyms_incremental(&reqs));
        let outcomes = out.map_err(|e| err("save_nyms_incremental", e))?;
        rep.check(outcomes.len() == ids.len(), || {
            format!(
                "save returned {} outcomes for {} nyms",
                outcomes.len(),
                ids.len()
            )
        });
        for (i, (kind, _, _)) in outcomes.iter().enumerate() {
            let expected = if self.saves[i].is_multiple_of(DELTA_CHAIN_LIMIT + 1) {
                SaveKind::Full
            } else {
                SaveKind::Delta
            };
            let n = self.saves[i];
            rep.check(*kind == expected, || {
                format!("nym {i} save #{n}: {kind:?}, expected {expected:?}")
            });
            self.saves[i] += 1;
            self.acked[i] = self.pending[i].take().or(self.acked[i].take());
        }
        rep.saves.push(SaveRound {
            modeled_s: outcomes
                .iter()
                .map(|o| o.2.as_secs_f64())
                .fold(0.0, f64::max),
            uploaded: outcomes.iter().map(|o| o.1 as u64).sum(),
            uploaded_to_disk: outcomes
                .iter()
                .zip(&self.dests)
                .filter(|(_, d)| **d == StorageDest::Disk)
                .map(|(o, _)| o.1 as u64)
                .sum(),
            nyms: outcomes.len(),
        });
        Ok(())
    }

    /// Amnesia: every live nym is destroyed.
    fn amnesia(&mut self, rep: &mut Rep) -> Result<(), String> {
        for i in 0..self.names.len() {
            let id = self.id(i)?;
            let out = rep.rec.time(Op::Destroy, || self.m.destroy_nym(id));
            out.map_err(|e| err("destroy_nym", e))?;
            self.ids[i] = None;
        }
        Ok(())
    }

    /// Restores every nym and checks each against the reference model:
    /// its own last acknowledged stain is there, no other nym's is.
    fn restore_all(&mut self, rep: &mut Rep) -> Result<(), String> {
        for i in 0..self.names.len() {
            let out = rep.rec.time(Op::Restore, || {
                self.m.restore_nym(
                    &self.names[i],
                    AnonymizerKind::Tor,
                    UsageModel::Persistent,
                    PASSWORD,
                    &self.dests[i],
                )
            });
            let (id, breakdown) = out.map_err(|e| err("restore_nym", e))?;
            self.ids[i] = Some(id);
            rep.restores.push(breakdown);
            for (j, marker) in self.acked.iter().enumerate() {
                let Some(marker) = marker else { continue };
                let seen = self
                    .m
                    .has_stain(id, marker)
                    .map_err(|e| err("has_stain", e))?;
                rep.check(seen == (i == j), || {
                    format!("restored nym {i}: stain of nym {j} visible={seen}")
                });
            }
        }
        Ok(())
    }

    /// Modeled hypervisor memory in use, and per live nymbox with the
    /// host base excluded, MiB.
    fn memory(&self) -> (f64, f64) {
        let live = self.m.nym_ids().len().max(1);
        let base = f64::from(nymix_vmm::hypervisor::calib::HOST_BASE_MIB);
        let used = self.m.hypervisor().used_memory_mib();
        (used, (used - base) / live as f64)
    }

    /// Bytes at rest behind every destination the nyms use.
    fn stored_bytes(&self) -> u64 {
        let blobs = |p: Option<&nymix_store::CloudProvider>, account: &str| -> u64 {
            p.map_or(0, |p| {
                p.subpoena(account)
                    .iter()
                    .map(|(_, b)| b.len() as u64)
                    .sum()
            })
        };
        let cloud: u64 = self
            .dests
            .iter()
            .map(|d| match d {
                StorageDest::Cloud {
                    provider, account, ..
                } => blobs(self.m.cloud_provider(provider), account),
                _ => 0,
            })
            .sum();
        let striped: u64 = STRIPE_CHILDREN
            .iter()
            .map(|c| blobs(self.m.striped_provider(c), STRIPE_ACCOUNT))
            .sum();
        cloud + striped + self.m.disk_store().committed_heap_len()
    }

    fn finish(&self, rep: &mut Rep, (used_memory_mib, nymbox_mem_mib): (f64, f64)) {
        let disk = self.m.disk_store();
        rep.end = EndState {
            nyms: self.names.len(),
            stored_bytes: self.stored_bytes(),
            used_memory_mib,
            nymbox_mem_mib,
            disk_garbage: disk.garbage_bytes(),
            disk_objects: disk.object_count() as u64,
        };
    }
}

/// Ends set-up: records its wall time; later calls are measured-phase.
fn setup_done(rep: &mut Rep, t0: Instant) {
    rep.setup_s = t0.elapsed().as_secs_f64();
    rep.rec.in_setup = false;
}

/// `heartbeat`: an 8-nym Cloud fleet, one pseudonymous account per nym
/// on one provider. Each round browses, stains and saves the whole
/// fleet in one batch; two chains' worth of rounds put two compactions
/// in the measured phase. The repetition ends with amnesia and one
/// restore-and-verify pass.
fn heartbeat(rep: &mut Rep, seed: u64) -> Result<(), String> {
    let t0 = Instant::now();
    let mut m = NymManager::with_host_ram(seed, BROWSER_SCALE, HOST_RAM_MIB);
    let dests = (0..8)
        .map(|i| {
            m.register_cloud("dropbox", &format!("acct-{i}"), &format!("tok-{i}"));
            StorageDest::Cloud {
                provider: "dropbox".into(),
                account: format!("acct-{i}"),
                credential: format!("tok-{i}"),
            }
        })
        .collect();
    let mut w = World::spawn(rep, m, seed, dests)?;
    w.browse(rep)?;
    w.stain(0)?;
    w.save(rep)?;
    setup_done(rep, t0);
    for round in 1..=2 * (DELTA_CHAIN_LIMIT + 1) {
        w.browse(rep)?;
        w.stain(round)?;
        w.save(rep)?;
    }
    let mem = w.memory();
    w.amnesia(rep)?;
    w.restore_all(rep)?;
    w.finish(rep, mem);
    Ok(())
}

/// `storage`: 4 nyms on 2-of-3 striped placement and 4 on the journaled
/// disk, saved together in one batch per cycle (one backend batch per
/// destination). Each of 10 cycles browses, stains, saves, forgets
/// every nym, power-cycles the disk (detach, then reattach, which runs
/// journal recovery), restores and verifies every nym, and runs one
/// striped repair pass. On odd cycles one placement child, each in
/// turn whatever the seed, is dark through save and restore.
fn storage(rep: &mut Rep, seed: u64) -> Result<(), String> {
    let t0 = Instant::now();
    let mut m = NymManager::with_host_ram(seed, BROWSER_SCALE, HOST_RAM_MIB);
    let children: Vec<(&str, &str, &str)> = STRIPE_CHILDREN
        .iter()
        .map(|c| (*c, STRIPE_ACCOUNT, "stripe-tok"))
        .collect();
    m.register_striped(2, &children);
    let dests = [vec![StorageDest::Striped; 4], vec![StorageDest::Disk; 4]].concat();
    let mut w = World::spawn(rep, m, seed, dests)?;
    w.browse(rep)?;
    w.stain(0)?;
    w.save(rep)?;
    setup_done(rep, t0);
    let mut mem = (0.0, 0.0);
    for cycle in 1..=10 {
        let dark = (cycle % 2 == 1).then(|| STRIPE_CHILDREN[(cycle / 2) % STRIPE_CHILDREN.len()]);
        if let Some(c) = dark {
            w.m.striped_provider_mut(c)
                .ok_or("striped child missing")?
                .outage();
        }
        w.browse(rep)?;
        w.stain(cycle)?;
        w.save(rep)?;
        mem = w.memory();
        w.amnesia(rep)?;
        let out = rep.rec.time(Op::PowerCycle, || {
            let image = w.m.take_disk();
            w.m.attach_disk(image)
        });
        out.map_err(|e| err("attach_disk", e))?;
        w.restore_all(rep)?;
        if let Some(c) = dark {
            w.m.striped_provider_mut(c)
                .ok_or("striped child missing")?
                .heal();
        }
        let report = rep
            .rec
            .time(Op::Repair, || w.m.repair_striped())
            .ok_or("no striped store configured")?;
        let queued = w.m.striped_store().map_or(0, |s| s.pending_repairs());
        rep.check(report.shards_still_missing == 0 && queued == 0, || {
            format!(
                "cycle {cycle}: repair left {} shards missing, {queued} queued",
                report.shards_still_missing
            )
        });
        rep.repairs.push(report);
    }
    w.finish(rep, mem);
    Ok(())
}
