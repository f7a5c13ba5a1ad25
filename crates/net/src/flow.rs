//! Access-link timing: how long a transfer takes.
//!
//! Models the evaluation network of §5.2: a 10 Mbit/s shaped access link
//! with 80 ms RTT to a DeterLab-hosted Tor deployment. Every modeled
//! transfer — a page load, a batched archive upload, an ephemeral
//! fetch, Figure 5's parallel kernel downloads — is charged by
//! [`access_transfer`]. Under max-min sharing, `n` equal flows started
//! together each get `1/n` of the link and finish together, so `n`
//! parallel transfers of `w` wire bytes take `access_transfer(n * w)`.

use nymix_sim::SimDuration;

/// Time to move `wire_bytes` across the otherwise idle access link as
/// one flow throttled to at most `rate_cap` bytes/second
/// (`f64::INFINITY` for none): the one-way latency, then the bytes at
/// the slower of the link rate and the cap.
///
/// # Examples
///
/// ```
/// use nymix_net::access_transfer;
/// use nymix_net::flow::calib;
/// use nymix_sim::SimDuration;
///
/// // 1.25 MB at 10 Mbit/s: 1 s of transfer plus 40 ms propagation.
/// let t = access_transfer(calib::ACCESS_LINK_BPS, f64::INFINITY);
/// assert_eq!(t, SimDuration(1_040_000));
/// // A 125 kB/s cap stretches the same bytes to 10 s.
/// let capped = access_transfer(calib::ACCESS_LINK_BPS, 125_000.0);
/// assert_eq!(capped, SimDuration(10_040_000));
/// ```
pub fn access_transfer(wire_bytes: f64, rate_cap: f64) -> SimDuration {
    let rate = calib::ACCESS_LINK_BPS.min(rate_cap);
    SimDuration::from_secs_f64(wire_bytes / rate + calib::ACCESS_ONE_WAY.as_secs_f64())
}

/// Paper calibration constants for the evaluation network.
pub mod calib {
    use nymix_sim::SimDuration;

    /// Shaped access-link rate: 10 Mbit/s in bytes/second (§5.2).
    pub const ACCESS_LINK_BPS: f64 = 10_000_000.0 / 8.0;

    /// One-way access latency: half the 80 ms DeterLab RTT.
    pub const ACCESS_ONE_WAY: SimDuration = SimDuration(40_000);

    /// Fixed Tor bandwidth overhead: "approximately 12%" (§5.2).
    pub const TOR_BYTE_OVERHEAD: f64 = 0.12;

    /// linux-3.14.2.tar.xz size in bytes (the Figure 5 artifact).
    pub const LINUX_KERNEL_BYTES: f64 = 76.8 * 1024.0 * 1024.0;
}

#[cfg(test)]
mod tests {
    use super::*;

    const NO_CAP: f64 = f64::INFINITY;

    #[test]
    fn single_flow_full_rate() {
        // Ten seconds' worth of link bytes take ten seconds plus latency.
        let t = access_transfer(10.0 * calib::ACCESS_LINK_BPS, NO_CAP);
        assert_eq!(t, SimDuration::from_secs(10) + calib::ACCESS_ONE_WAY);
    }

    #[test]
    fn latency_delays_start() {
        for bytes in [1.0e3, 1.0e5, 1.0e7] {
            let serve = SimDuration::from_secs_f64(bytes / calib::ACCESS_LINK_BPS);
            assert_eq!(
                access_transfer(bytes, NO_CAP),
                serve + calib::ACCESS_ONE_WAY
            );
        }
    }

    #[test]
    fn rate_cap_is_the_bottleneck() {
        // A cap below the link rate sets the pace; one above it does not.
        let bytes = calib::ACCESS_LINK_BPS;
        let cap = calib::ACCESS_LINK_BPS / 10.0;
        assert_eq!(
            access_transfer(bytes, cap),
            SimDuration::from_secs(10) + calib::ACCESS_ONE_WAY
        );
        assert_eq!(
            access_transfer(bytes, calib::ACCESS_LINK_BPS * 2.0),
            access_transfer(bytes, NO_CAP)
        );
    }

    #[test]
    fn n_parallel_downloads_scale_linearly() {
        // The Figure 5 shape: n equal flows on one shared link finish
        // together, after the link has carried all n payloads.
        let t1 = access_transfer(calib::LINUX_KERNEL_BYTES, NO_CAP).as_secs_f64();
        for n in [2usize, 4, 8] {
            let tn = access_transfer(n as f64 * calib::LINUX_KERNEL_BYTES, NO_CAP).as_secs_f64();
            let ideal = t1 * n as f64;
            assert!(
                (tn - ideal).abs() / ideal < 0.01,
                "n={n} tn={tn} ideal={ideal}"
            );
        }
    }

    #[test]
    fn zero_byte_flow_completes_after_latency() {
        assert_eq!(access_transfer(0.0, NO_CAP), calib::ACCESS_ONE_WAY);
    }

    #[test]
    fn kernel_download_time_matches_arithmetic() {
        // 76.8 MiB at 10 Mbit/s = 64.4 s + 40 ms latency.
        let t = access_transfer(calib::LINUX_KERNEL_BYTES, NO_CAP);
        let expect = calib::LINUX_KERNEL_BYTES / calib::ACCESS_LINK_BPS + 0.04;
        assert!((t.as_secs_f64() - expect).abs() < 1e-6);
    }
}
