//! Startup timing: phases and calibration (Figure 7).
//!
//! §5.4 divides nym startup into "three phases: AnonVM boot time, Tor
//! startup time, and webpage load time", with quasi-persistent nyms
//! adding an "Ephemeral Nym" phase (the throwaway nym that downloads
//! the state from the cloud). The abstract's headline: nymboxes load
//! "within 15 to 25 seconds".

use nymix_sim::SimDuration;

/// Calibration constants for the boot-time model.
pub mod calib {
    use nymix_sim::SimDuration;

    /// AnonVM kernel boot + X + Chromium launch on the testbed.
    /// The CommVM boots concurrently and is smaller, so the phase is
    /// bounded by the AnonVM.
    pub const ANONVM_BOOT: SimDuration = SimDuration(11_000_000);

    /// Page render CPU time after the bytes arrive (virtualized).
    pub const PAGE_RENDER: SimDuration = SimDuration(1_500_000);

    /// Unsealing (PBKDF2 + decrypt + decompress) plus re-attaching the
    /// restored layers when loading a quasi-persistent nym.
    pub const RESTORE_UNPACK: SimDuration = SimDuration(1_800_000);
}

/// Per-phase startup breakdown for one nym launch.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StartupBreakdown {
    /// Throwaway-nym time when fetching quasi-persistent state from the
    /// cloud (zero for fresh/pre-configured nyms).
    pub ephemeral_fetch: SimDuration,
    /// AnonVM boot.
    pub boot_vm: SimDuration,
    /// Anonymizer startup ("Start Tor").
    pub start_anonymizer: SimDuration,
    /// First page load.
    pub load_page: SimDuration,
}

impl StartupBreakdown {
    /// Total startup latency.
    pub fn total(&self) -> SimDuration {
        self.ephemeral_fetch + self.boot_vm + self.start_anonymizer + self.load_page
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_sums_phases() {
        let b = StartupBreakdown {
            ephemeral_fetch: SimDuration::from_secs(20),
            boot_vm: SimDuration::from_secs(11),
            start_anonymizer: SimDuration::from_secs(4),
            load_page: SimDuration::from_secs(3),
        };
        assert_eq!(b.total(), SimDuration::from_secs(38));
    }

    #[test]
    fn default_is_zero() {
        assert_eq!(StartupBreakdown::default().total(), SimDuration::ZERO);
    }
}
