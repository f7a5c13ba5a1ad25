//! The experiment implementations, one per table/figure.

use nymix::{NymManager, StorageDest, UsageModel};
use nymix_anon::AnonymizerKind;
use nymix_net::flow::calib as netcal;
use nymix_vmm::{CpuHost, Hypervisor};
use nymix_workload::peacekeeper;
use nymix_workload::{DownloadSpec, Site};

use crate::report::Table;

/// One Figure 3 sample: state after launching (and after interacting
/// with) the n-th nym.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemorySample {
    /// Number of live nymboxes.
    pub nyms: usize,
    /// Used memory right after the nym launches, MiB.
    pub used_before_mib: f64,
    /// Used memory after the site interaction, MiB.
    pub used_after_mib: f64,
    /// KSM `pages_sharing` before interaction.
    pub shared_before: usize,
    /// KSM `pages_sharing` after interaction.
    pub shared_after: usize,
    /// Committed (pre-KSM) memory after interaction, MiB — what the
    /// host would use with KSM disabled.
    pub committed_after_mib: f64,
    /// The dashed estimated-cost line, MiB.
    pub expected_mib: f64,
}

impl MemorySample {
    /// Fraction of committed memory KSM reclaimed.
    pub fn ksm_saving(&self) -> f64 {
        1.0 - self.used_after_mib / self.committed_after_mib
    }
}

/// Figure 3: RAM usage and shared pages while launching eight nyms in
/// succession, interacting with one site each (§5.2).
pub fn fig3_memory(seed: u64) -> Vec<MemorySample> {
    let mut m = NymManager::new(seed, 64);
    let mut samples = Vec::new();
    for (i, site) in Site::VISIT_ORDER.iter().enumerate() {
        let n = i + 1;
        let (id, _) = m
            .create_nym(
                &format!("nym-{n}"),
                AnonymizerKind::Tor,
                UsageModel::Ephemeral,
            )
            .expect("capacity for 8 nymboxes");
        let used_before_mib = m.hypervisor().used_memory_mib();
        let shared_before = m.hypervisor().ksm_stats().pages_sharing;
        m.visit_site(id, *site).expect("visit succeeds");
        samples.push(MemorySample {
            nyms: n,
            used_before_mib,
            used_after_mib: m.hypervisor().used_memory_mib(),
            shared_before,
            shared_after: m.hypervisor().ksm_stats().pages_sharing,
            committed_after_mib: m.hypervisor().committed_memory_mib(),
            expected_mib: Hypervisor::expected_memory_mib(n),
        });
    }
    samples
}

/// Renders Figure 3 as a table.
pub fn fig3_table(samples: &[MemorySample]) -> Table {
    let mut t = Table::new(
        "Figure 3: RAM usage and shared pages vs number of pseudonyms",
        &[
            "nyms",
            "used-before(MB)",
            "used-after(MB)",
            "shared-before(pages)",
            "shared-after(pages)",
            "expected(MB)",
        ],
    );
    for s in samples {
        t.row(&[
            s.nyms.to_string(),
            format!("{:.0}", s.used_before_mib),
            format!("{:.0}", s.used_after_mib),
            s.shared_before.to_string(),
            s.shared_after.to_string(),
            format!("{:.0}", s.expected_mib),
        ]);
    }
    t
}

/// One Figure 4 sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuSample {
    /// Parallel nym count (0 = native).
    pub nyms: usize,
    /// Mean per-instance Peacekeeper score measured.
    pub actual: f64,
    /// The perfectly-parallel extrapolation from the 1-nym score.
    pub expected: f64,
}

/// Figure 4: average Peacekeeper score for 0 (native) through 8
/// simultaneous nymboxes (§5.2).
pub fn fig4_cpu() -> Vec<CpuSample> {
    let single = peacekeeper::run_parallel(&mut CpuHost::paper_testbed(), 1)[0];
    (0..=8)
        .map(|n| {
            let mut cpu = CpuHost::paper_testbed();
            let scores = peacekeeper::run_parallel(&mut cpu, n);
            let actual = scores.iter().sum::<f64>() / scores.len() as f64;
            CpuSample {
                nyms: n,
                actual,
                expected: peacekeeper::expected_score(single, cpu.cores(), n),
            }
        })
        .collect()
}

/// Renders Figure 4 as a table.
pub fn fig4_table(samples: &[CpuSample]) -> Table {
    let mut t = Table::new(
        "Figure 4: average Peacekeeper score vs parallel nyms (0 = native)",
        &["nyms", "actual", "expected"],
    );
    for s in samples {
        t.row(&[
            s.nyms.to_string(),
            format!("{:.0}", s.actual),
            format!("{:.0}", s.expected),
        ]);
    }
    t
}

/// One Figure 5 sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DownloadSample {
    /// Parallel downloading nyms.
    pub nyms: usize,
    /// Measured completion time of the last download, seconds.
    pub actual_secs: f64,
    /// The no-anonymizer ideal, seconds.
    pub ideal_secs: f64,
}

/// Figure 5: time to download linux-3.14.2 with 1–8 nyms in parallel,
/// each through its own Tor instance (§5.2).
pub fn fig5_download() -> Vec<DownloadSample> {
    let spec = DownloadSpec::linux_kernel(netcal::TOR_BYTE_OVERHEAD);
    (1..=8)
        .map(|n| {
            let times = nymix_workload::download::run_parallel_downloads(spec, n);
            let actual = times.iter().copied().fold(0.0, f64::max);
            DownloadSample {
                nyms: n,
                actual_secs: actual,
                ideal_secs: nymix_workload::download::ideal_time(netcal::LINUX_KERNEL_BYTES, n),
            }
        })
        .collect()
}

/// Renders Figure 5 as a table.
pub fn fig5_table(samples: &[DownloadSample]) -> Table {
    let mut t = Table::new(
        "Figure 5: parallel kernel download time (seconds)",
        &["nyms", "actual(s)", "ideal(s)", "overhead"],
    );
    for s in samples {
        t.row(&[
            s.nyms.to_string(),
            format!("{:.1}", s.actual_secs),
            format!("{:.1}", s.ideal_secs),
            format!("{:.1}%", (s.actual_secs / s.ideal_secs - 1.0) * 100.0),
        ]);
    }
    t
}

/// One Figure 6 trajectory point.
#[derive(Debug, Clone, PartialEq)]
pub struct StorageSample {
    /// Which site's nym.
    pub site: Site,
    /// Save/restore cycle (1-based).
    pub cycle: usize,
    /// Encrypted archive size in (logical) MB.
    pub encrypted_mb: f64,
    /// AnonVM share of the uncompressed payload.
    pub anonvm_share: f64,
}

/// Figure 6: encrypted quasi-persistent nym size across ten
/// save/restore cycles for four persistent site-nyms (§5.3).
///
/// `scale` trades fidelity for speed (16 ≈ full shape, fast).
pub fn fig6_storage(seed: u64, scale: u64, cycles: usize) -> Vec<StorageSample> {
    let mut out = Vec::new();
    for site in Site::STORAGE_SITES {
        let mut m = NymManager::new(seed ^ site as u64, scale);
        m.register_cloud("dropbox", "anon", "tok");
        let dest = StorageDest::Cloud {
            provider: "dropbox".into(),
            account: "anon".into(),
            credential: "tok".into(),
        };
        let name = format!("nym-{site:?}");
        let (mut id, _) = m
            .create_nym(&name, AnonymizerKind::Tor, UsageModel::Persistent)
            .expect("capacity");
        for cycle in 1..=cycles {
            m.visit_site(id, site).expect("visit");
            let (sealed, _) = m.save_nym(id, "pw", &dest).expect("save");
            let (anon, comm, other) = m.last_save_breakdown().expect("just saved");
            let total = (anon + comm + other).max(1);
            out.push(StorageSample {
                site,
                cycle,
                encrypted_mb: sealed as f64 * scale as f64 / 1_000_000.0,
                anonvm_share: anon as f64 / total as f64,
            });
            m.destroy_nym(id).expect("destroy");
            let (nid, _) = m
                .restore_nym(
                    &name,
                    AnonymizerKind::Tor,
                    UsageModel::Persistent,
                    "pw",
                    &dest,
                )
                .expect("restore");
            id = nid;
        }
    }
    out
}

/// Renders Figure 6 as a table (one column per site).
pub fn fig6_table(samples: &[StorageSample]) -> Table {
    let mut t = Table::new(
        "Figure 6: encrypted pseudonym size (MB) across save/restore cycles",
        &["cycle", "Gmail", "Facebook", "Twitter", "TorBlog"],
    );
    let cycles: usize = samples.iter().map(|s| s.cycle).max().unwrap_or(0);
    for c in 1..=cycles {
        let get = |site: Site| -> String {
            samples
                .iter()
                .find(|s| s.site == site && s.cycle == c)
                .map(|s| format!("{:.1}", s.encrypted_mb))
                .unwrap_or_default()
        };
        t.row(&[
            c.to_string(),
            get(Site::Gmail),
            get(Site::Facebook),
            get(Site::Twitter),
            get(Site::TorBlog),
        ]);
    }
    t
}

/// One Figure 7 bar.
#[derive(Debug, Clone, PartialEq)]
pub struct StartupSample {
    /// Configuration label ("Fresh", "Pre-config.", "Persisted").
    pub label: String,
    /// Phase durations in seconds: (ephemeral, boot, anonymizer, page).
    pub phases: (f64, f64, f64, f64),
}

impl StartupSample {
    /// Total startup seconds.
    pub fn total(&self) -> f64 {
        self.phases.0 + self.phases.1 + self.phases.2 + self.phases.3
    }
}

/// Figure 7: startup time by phase for the three nym usage models,
/// visiting Twitter (§5.4).
pub fn fig7_startup(seed: u64) -> Vec<StartupSample> {
    let mut out = Vec::new();

    // Fresh (ephemeral) nym.
    let mut m = NymManager::new(seed, 64);
    let (id, b) = m
        .create_nym("fresh", AnonymizerKind::Tor, UsageModel::Ephemeral)
        .expect("capacity");
    let page = m.visit_site(id, Site::Twitter).expect("visit");
    out.push(StartupSample {
        label: "Fresh".into(),
        phases: (
            0.0,
            b.boot_vm.as_secs_f64(),
            b.start_anonymizer.as_secs_f64(),
            page.as_secs_f64(),
        ),
    });

    // Pre-configured: snapshot stored locally, restored at each use.
    let mut m = NymManager::new(seed ^ 1, 64);
    let (id, _) = m
        .create_nym("pre", AnonymizerKind::Tor, UsageModel::PreConfigured)
        .expect("capacity");
    m.visit_site(id, Site::Twitter).expect("visit");
    m.save_nym(id, "pw", &StorageDest::Disk).expect("save");
    m.destroy_nym(id).expect("destroy");
    let (id, b) = m
        .restore_nym(
            "pre",
            AnonymizerKind::Tor,
            UsageModel::PreConfigured,
            "pw",
            &StorageDest::Disk,
        )
        .expect("restore");
    let page = m.visit_site(id, Site::Twitter).expect("visit");
    out.push(StartupSample {
        label: "Pre-config.".into(),
        phases: (
            b.ephemeral_fetch.as_secs_f64(),
            b.boot_vm.as_secs_f64(),
            b.start_anonymizer.as_secs_f64(),
            page.as_secs_f64(),
        ),
    });

    // Persisted: state in the cloud; save after the session too.
    let mut m = NymManager::new(seed ^ 2, 64);
    m.register_cloud("dropbox", "anon", "tok");
    let dest = StorageDest::Cloud {
        provider: "dropbox".into(),
        account: "anon".into(),
        credential: "tok".into(),
    };
    let (id, _) = m
        .create_nym("pers", AnonymizerKind::Tor, UsageModel::Persistent)
        .expect("capacity");
    m.visit_site(id, Site::Twitter).expect("visit");
    m.save_nym(id, "pw", &dest).expect("save");
    m.destroy_nym(id).expect("destroy");
    let (id, b) = m
        .restore_nym(
            "pers",
            AnonymizerKind::Tor,
            UsageModel::Persistent,
            "pw",
            &dest,
        )
        .expect("restore");
    let page = m.visit_site(id, Site::Twitter).expect("visit");
    m.save_nym(id, "pw", &dest).expect("save-back");
    out.push(StartupSample {
        label: "Persisted".into(),
        phases: (
            b.ephemeral_fetch.as_secs_f64(),
            b.boot_vm.as_secs_f64(),
            b.start_anonymizer.as_secs_f64(),
            page.as_secs_f64(),
        ),
    });

    out
}

/// Renders Figure 7 as a table.
pub fn fig7_table(samples: &[StartupSample]) -> Table {
    let mut t = Table::new(
        "Figure 7: average startup time by phase (seconds)",
        &[
            "config",
            "boot-vm",
            "start-tor",
            "load-page",
            "ephemeral-nym",
            "total",
        ],
    );
    for s in samples {
        t.row(&[
            s.label.clone(),
            format!("{:.1}", s.phases.1),
            format!("{:.1}", s.phases.2),
            format!("{:.1}", s.phases.3),
            format!("{:.1}", s.phases.0),
            format!("{:.1}", s.total()),
        ]);
    }
    t
}

/// One Table 1 row.
#[derive(Debug, Clone, PartialEq)]
pub struct InstalledOsSample {
    /// OS label.
    pub os: String,
    /// Repair seconds.
    pub repair_secs: f64,
    /// Boot seconds.
    pub boot_secs: f64,
    /// COW delta MB.
    pub size_mb: f64,
}

/// Table 1: repair/boot/COW-size for Windows installed-OS nyms (§5.5).
pub fn table1_installed_os() -> Vec<InstalledOsSample> {
    nymix::OsKind::TABLE1
        .iter()
        .map(|kind| {
            let mut os = nymix::InstalledOs::new(*kind);
            let outcome = os.repair_and_boot();
            InstalledOsSample {
                os: format!("{kind:?}"),
                repair_secs: outcome.repair_time.as_secs_f64(),
                boot_secs: outcome.boot_time.as_secs_f64(),
                size_mb: outcome.cow_mb(),
            }
        })
        .collect()
}

/// Renders Table 1.
pub fn table1_table(samples: &[InstalledOsSample]) -> Table {
    let mut t = Table::new(
        "Table 1: installed-OS-as-nym repair/boot/size",
        &["os", "repair(s)", "boot(s)", "size(MB)"],
    );
    for s in samples {
        t.row(&[
            s.os.clone(),
            format!("{:.1}", s.repair_secs),
            format!("{:.1}", s.boot_secs),
            format!("{:.1}", s.size_mb),
        ]);
    }
    t
}

/// Ablation: KSM on vs off at `n` nymboxes — used memory in MiB.
pub fn ablation_ksm(seed: u64, n: usize) -> (f64, f64) {
    let mut m = NymManager::new(seed, 64);
    for i in 0..n {
        let (id, _) = m
            .create_nym(&format!("k{i}"), AnonymizerKind::Tor, UsageModel::Ephemeral)
            .expect("capacity");
        m.visit_site(id, Site::VISIT_ORDER[i % 8]).expect("visit");
    }
    let with = m.hypervisor().used_memory_mib();
    m.hypervisor_mut().set_ksm(false);
    let without = m.hypervisor().used_memory_mib();
    (with, without)
}

/// Ablation: compression on vs off — sealed archive bytes for one
/// Facebook session.
pub fn ablation_compression(seed: u64) -> (usize, usize) {
    let mut m = NymManager::new(seed, 64);
    let (id, _) = m
        .create_nym("c", AnonymizerKind::Tor, UsageModel::Persistent)
        .expect("capacity");
    m.visit_site(id, Site::Facebook).expect("visit");
    let (sealed, _) = m.save_nym(id, "pw", &StorageDest::Disk).expect("save");
    let (anon, comm, other) = m.last_save_breakdown().expect("saved");
    let raw = anon + comm + other;
    (sealed, raw)
}

/// Ablation: anonymizer choice vs fresh-nym startup seconds and
/// transfer overhead.
pub fn ablation_anonymizers(seed: u64) -> Vec<(String, f64, f64)> {
    AnonymizerKind::ALL
        .iter()
        .map(|kind| {
            let mut m = NymManager::new(seed, 64);
            let (id, b) = m
                .create_nym("a", *kind, UsageModel::Ephemeral)
                .expect("capacity");
            let overhead = m
                .anonymizer(id)
                .expect("live")
                .transfer_cost()
                .byte_overhead;
            (
                format!("{kind:?}"),
                (b.boot_vm + b.start_anonymizer).as_secs_f64(),
                overhead,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig4_shape_holds() {
        let samples = fig4_cpu();
        assert_eq!(samples.len(), 9);
        // Native beats virtualized by ~20%.
        let native = samples[0].actual;
        let one = samples[1].actual;
        assert!((1.0 - one / native - 0.20).abs() < 0.01);
        // Actual >= expected everywhere, strictly above at 8.
        for s in &samples[1..] {
            assert!(s.actual >= s.expected - 1.0, "{s:?}");
        }
        assert!(samples[8].actual > samples[8].expected * 1.1);
    }

    #[test]
    fn fig5_shape_holds() {
        let samples = fig5_download();
        assert_eq!(samples.len(), 8);
        for s in &samples {
            let overhead = s.actual_secs / s.ideal_secs - 1.0;
            assert!((overhead - 0.12).abs() < 0.01, "{s:?}");
        }
        // Linear: t(8) ≈ 8 * t(1).
        let ratio = samples[7].actual_secs / samples[0].actual_secs;
        assert!((ratio - 8.0).abs() < 0.2, "ratio {ratio}");
    }

    #[test]
    fn table1_matches_paper() {
        let rows = table1_installed_os();
        assert_eq!(rows.len(), 3);
        let expect = [(133.7, 37.7, 4.9), (129.3, 34.3, 4.5), (157.0, 58.7, 14.0)];
        for (row, (r, b, s)) in rows.iter().zip(expect) {
            assert!((row.repair_secs - r).abs() < 1.5, "{row:?}");
            assert!((row.boot_secs - b).abs() < 1.0, "{row:?}");
            assert!((row.size_mb - s).abs() < 1.0, "{row:?}");
        }
    }

    #[test]
    fn fig7_shape_holds() {
        let samples = fig7_startup(7);
        assert_eq!(samples.len(), 3);
        let fresh = &samples[0];
        let pre = &samples[1];
        let pers = &samples[2];
        // Abstract: fresh nymboxes load within 15-25 s.
        assert!((15.0..25.0).contains(&fresh.total()), "{fresh:?}");
        // Warm Tor start beats cold (quasi-persistent advantage).
        assert!(pre.phases.2 < fresh.phases.2);
        assert!(pers.phases.2 < fresh.phases.2);
        // Persisted pays the ephemeral fetch nym.
        assert!(pers.phases.0 > 15.0, "{pers:?}");
        assert!(pers.total() > fresh.total());
        // Pre-configured (local snapshot) is the fastest path.
        assert!(pre.total() < fresh.total(), "pre {pre:?} fresh {fresh:?}");
    }

    #[test]
    fn ablation_ksm_saves_memory() {
        let (with, without) = ablation_ksm(5, 3);
        assert!(with < without);
    }

    #[test]
    fn ablation_compression_shrinks() {
        let (sealed, raw) = ablation_compression(5);
        assert!(sealed < raw, "sealed {sealed} raw {raw}");
    }
}
