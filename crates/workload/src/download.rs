//! The bulk-download workload (Figure 5).
//!
//! §5.2: "we download the current Linux kernel version 3.14.2, from a
//! server running within DeterLab in order to guarantee the 10 Mbit
//! download rate. We varied the number of parallel downloading nyms...
//! As we scale the number of nyms, the performance remains relatively
//! linear, indicating that Tor ... has a fixed cost, approximately 12%
//! overhead."

use nymix_net::access_transfer;
use nymix_net::flow::calib as netcal;

/// A bulk transfer specification.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DownloadSpec {
    /// Payload bytes.
    pub bytes: f64,
    /// Byte inflation applied by the transport (e.g. Tor's 0.12).
    pub overhead: f64,
}

impl DownloadSpec {
    /// The linux-3.14.2 artifact.
    pub fn linux_kernel(overhead: f64) -> Self {
        Self {
            bytes: netcal::LINUX_KERNEL_BYTES,
            overhead,
        }
    }

    /// Bytes that actually cross the wire.
    pub fn wire_bytes(&self) -> f64 {
        self.bytes * (1.0 + self.overhead)
    }
}

/// Runs `n` identical parallel downloads over one shared access link
/// and returns each download's completion time in seconds. Fair
/// sharing gives each `1/n` of the link, so all finish together, once
/// the link has carried all `n` payloads.
pub fn run_parallel_downloads(spec: DownloadSpec, n: usize) -> Vec<f64> {
    let done = access_transfer(n as f64 * spec.wire_bytes(), f64::INFINITY);
    vec![done.as_secs_f64(); n]
}

/// The "Ideal" series of Figure 5: `n` parallel raw downloads with no
/// transport overhead.
pub fn ideal_time(bytes: f64, n: usize) -> f64 {
    access_transfer(n as f64 * bytes, f64::INFINITY).as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_download_near_ideal_plus_overhead() {
        let spec = DownloadSpec::linux_kernel(netcal::TOR_BYTE_OVERHEAD);
        let t = run_parallel_downloads(spec, 1)[0];
        let ideal = ideal_time(netcal::LINUX_KERNEL_BYTES, 1);
        let ratio = t / ideal;
        assert!((ratio - 1.12).abs() < 0.01, "ratio {ratio}");
    }

    #[test]
    fn scaling_is_linear() {
        let spec = DownloadSpec::linux_kernel(netcal::TOR_BYTE_OVERHEAD);
        let t1 = run_parallel_downloads(spec, 1)[0];
        for n in [2usize, 4, 8] {
            let tn = run_parallel_downloads(spec, n);
            assert_eq!(tn.len(), n);
            for t in &tn {
                assert!(
                    (t / (t1 * n as f64) - 1.0).abs() < 0.02,
                    "n={n}: {t} vs {}",
                    t1 * n as f64
                );
            }
        }
    }

    #[test]
    fn no_overhead_download_matches_ideal() {
        let spec = DownloadSpec::linux_kernel(0.0);
        let t = run_parallel_downloads(spec, 1)[0];
        assert!((t - ideal_time(netcal::LINUX_KERNEL_BYTES, 1)).abs() < 0.01);
    }
}
