//! Dissent: an anytrust DC-net, modeled by its cost.
//!
//! §3.3: Nymix "experimentally supports anonymous browsing via Dissent,
//! an anonymizer based on DC-nets that in principle offers formally
//! provable traffic analysis resistance". Nothing Nymix measures depends
//! on the DC-net's rounds themselves, only on what they cost a nym: the
//! startup phases of key agreement and round scheduling, the per-byte
//! overhead of every client transmitting every slot, the deployment's
//! throughput ceiling, and an exit address at the anytrust servers.
//! Those are what [`DissentNet`] models.

use nymix_net::Ip;
use nymix_sim::SimDuration;

use crate::api::{Anonymizer, AnonymizerKind, StartupPhase, TransferCost};

/// Calibration constants for the Dissent model.
pub mod calib {
    use nymix_sim::SimDuration;

    /// Byte overhead: every client transmits every slot every round, so
    /// the efficiency loss is steep; slot padding, control and
    /// scheduling ≈ 30%.
    pub const BYTE_OVERHEAD: f64 = 0.30;

    /// Process launch.
    pub const PROCESS_LAUNCH: SimDuration = SimDuration(1_500_000);

    /// Client-server key agreement (M servers).
    pub const KEY_AGREEMENT: SimDuration = SimDuration(2_400_000);

    /// Round scheduling latency per connection.
    pub const ROUND_LATENCY: SimDuration = SimDuration(900_000);

    /// Per-flow throughput ceiling of the experimental deployment.
    pub const RATE_CAP: f64 = 600_000.0; // bytes/second
}

/// The Dissent anonymizer: an anytrust DC-net, modeled by its cost.
///
/// # Examples
///
/// ```
/// use nymix_anon::{Anonymizer, DissentNet};
/// use nymix_net::Ip;
///
/// let net = DissentNet::new();
/// let me = Ip::parse("203.0.113.9");
/// // Traffic leaves from the anytrust servers, never from the client.
/// assert_ne!(net.exit_address(me), me);
/// assert!(net.startup_time(true) > net.startup_time(false));
/// ```
#[derive(Debug, Clone, Default)]
pub struct DissentNet;

impl DissentNet {
    /// Creates the Dissent module.
    pub fn new() -> Self {
        Self
    }
}

impl Anonymizer for DissentNet {
    fn name(&self) -> &'static str {
        "dissent"
    }

    fn kind(&self) -> AnonymizerKind {
        AnonymizerKind::Dissent
    }

    fn startup_phases(&self, cold: bool) -> Vec<StartupPhase> {
        let mut phases = vec![StartupPhase::new("launch dissent", calib::PROCESS_LAUNCH)];
        if cold {
            phases.push(StartupPhase::new(
                "anytrust key agreement",
                calib::KEY_AGREEMENT,
            ));
        } else {
            phases.push(StartupPhase::new(
                "resume session keys",
                SimDuration(calib::KEY_AGREEMENT.0 / 3),
            ));
        }
        phases.push(StartupPhase::new(
            "join round schedule",
            calib::ROUND_LATENCY,
        ));
        phases
    }

    fn transfer_cost(&self) -> TransferCost {
        TransferCost {
            byte_overhead: calib::BYTE_OVERHEAD,
            connect_latency: calib::ROUND_LATENCY,
            rate_cap: calib::RATE_CAP,
        }
    }

    fn exit_address(&self, _client_public: Ip) -> Ip {
        // Traffic exits from the anytrust servers.
        Ip([198, 19, 0, 1])
    }

    fn remote_dns(&self) -> bool {
        true // "Dissent ... does have support for UDP redirection" (§4.1).
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn anonymizer_contract() {
        let net = DissentNet::new();
        assert!(net.hides_source());
        assert!(net.remote_dns());
        assert!(net.transfer_cost().rate_cap.is_finite());
        assert!(net.startup_time(true) > net.startup_time(false));
    }
}
