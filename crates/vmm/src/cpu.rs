//! The host CPU model.
//!
//! The evaluation host is "an Intel I7 quad core desktop with hardware
//! virtualization extensions" (§5.2). Figure 4 shows virtualization
//! costing about 20% versus native, and parallel nymboxes outperforming
//! a naive perfectly-parallel extrapolation (hyper-threading plus
//! workload idle phases overlap under time-sharing).
//!
//! [`CpuHost::batch_secs`] is the one CPU cost rule. Each vCPU is capped
//! at one core and the cores, plus the hyper-threading uplift, are
//! shared fairly; `n` equal jobs started together therefore each run at
//! `min(1, cores * (1 + uplift) / n)` cores and finish together.
//! Virtualized work is inflated by the overhead factor first.

use nymix_sim::SimDuration;

/// Calibration constants for the paper's testbed CPU.
pub mod calib {
    /// Physical cores of the i7 testbed.
    pub const HOST_CORES: f64 = 4.0;

    /// Extra throughput available from hyper-threading when the cores
    /// are oversubscribed (a conservative 22% uplift).
    pub const HT_UPLIFT: f64 = 0.22;

    /// Fraction of cycles lost to virtualization ("about a 20%
    /// overhead", §5.2).
    pub const VIRT_OVERHEAD: f64 = 0.20;
}

/// A host CPU shared by VMs' vCPUs.
///
/// Work is measured in *core-seconds of native computation*. A
/// virtualized job consumes `work / (1 - overhead)` core-seconds.
///
/// # Examples
///
/// ```
/// use nymix_vmm::CpuHost;
///
/// let cpu = CpuHost::paper_testbed();
/// // One vCPU on an idle quad-core runs at 1 core: 8 native units at
/// // 20% overhead take 10 seconds.
/// assert_eq!(cpu.batch_secs(8.0, 1, true), 10.0);
/// // Eight share 4 cores plus the 22% HT uplift: 0.61 core each.
/// assert!((cpu.batch_secs(8.0, 8, true) - 10.0 / 0.61).abs() < 1e-6);
/// ```
#[derive(Debug, Clone)]
pub struct CpuHost {
    cores: f64,
    ht_uplift: f64,
    virt_overhead: f64,
}

impl CpuHost {
    /// A host with explicit parameters.
    ///
    /// # Panics
    ///
    /// Panics if `virt_overhead` is not in `[0, 1)`.
    pub fn new(cores: f64, ht_uplift: f64, virt_overhead: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&virt_overhead),
            "overhead must be a fraction"
        );
        Self {
            cores,
            ht_uplift,
            virt_overhead,
        }
    }

    /// The paper's i7 testbed.
    pub fn paper_testbed() -> Self {
        Self::new(calib::HOST_CORES, calib::HT_UPLIFT, calib::VIRT_OVERHEAD)
    }

    /// Physical core count.
    pub fn cores(&self) -> f64 {
        self.cores
    }

    /// Seconds each of `n` identical single-core jobs of `core_seconds`
    /// native work takes when all start together (`virtualized` jobs
    /// pay the overhead). Each job runs at one core while the host has
    /// cores to spare; past that, the cores plus the hyper-threading
    /// uplift (which only materializes under oversubscription, as SMT
    /// does) are split evenly. Rounded up to the whole microsecond.
    pub fn batch_secs(&self, core_seconds: f64, n: usize, virtualized: bool) -> f64 {
        let work = if virtualized {
            core_seconds / (1.0 - self.virt_overhead)
        } else {
            core_seconds
        };
        let rate = (self.cores * (1.0 + self.ht_uplift) / n as f64).min(1.0);
        SimDuration((work / rate * 1e6).ceil() as u64).as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn native_faster_than_virtualized() {
        let cpu = CpuHost::paper_testbed();
        let t_native = cpu.batch_secs(10.0, 1, false);
        let t_virt = cpu.batch_secs(10.0, 1, true);
        assert_eq!(t_native, 10.0);
        assert_eq!(t_virt, 12.5); // 20% overhead
        assert!((t_virt / t_native - 1.25).abs() < 1e-9);
    }

    #[test]
    fn up_to_four_vcpus_run_unimpeded() {
        let cpu = CpuHost::paper_testbed();
        for n in 1..=4 {
            let d = cpu.batch_secs(8.0, n, true);
            assert!((d - 10.0).abs() < 1e-6, "n={n} duration {d}");
        }
    }

    #[test]
    fn eight_vcpus_oversubscribe_with_ht_uplift() {
        let cpu = CpuHost::paper_testbed();
        let d = cpu.batch_secs(8.0, 8, true);
        // 8 jobs share 4*(1+0.22)=4.88 cores: each gets 0.61 cores.
        let expect = 10.0 / 0.61;
        assert!((d - expect).abs() < 0.01, "duration {d} expect {expect}");
        // Better than the naive "perfectly parallel on 4 cores"
        // extrapolation of 2x the 4-job duration (20 s).
        let naive = 20.0;
        assert!(expect < naive);
    }

    #[test]
    fn five_jobs_share_fairly() {
        let cpu = CpuHost::new(4.0, 0.0, 0.2);
        let d = cpu.batch_secs(8.0, 5, true);
        // 5 jobs, 4 cores, no HT: each gets 0.8 cores → 12.5 s.
        assert!((d - 12.5).abs() < 0.01, "duration {d}");
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn bad_overhead_rejected() {
        let _ = CpuHost::new(4.0, 0.0, 1.0);
    }
}
