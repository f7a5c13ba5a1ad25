//! Tor: onion routing with persistent entry guards.
//!
//! A faithful structural simulation of the pieces Nymix's evaluation
//! touches:
//!
//! * a **directory** of relays with Guard/Exit flags and bandwidth
//!   weights, generated deterministically from a seed (the private
//!   DeterLab deployment of §5.2);
//! * **entry-guard selection and persistence** — "Tor normally
//!   maintains the same entry relay for several months" (§3.5); the
//!   guard set is the state quasi-persistent nyms carry, and losing it
//!   exposes users to faster intersection attacks. The months-scale
//!   guard rotation of §3.5 is not modelled: a nym keeps its guards;
//! * **3-hop circuits**: bandwidth-weighted path selection whose exit
//!   is the address destinations see (cells are not encrypted; the
//!   figures depend only on the byte overhead below);
//! * a **startup model** split into Figure 7's phases (consensus fetch,
//!   guard handshake, circuit build) with warm starts skipping the
//!   consensus fetch and reusing guards;
//! * the **~12% fixed byte overhead** measured in Figure 5.
//!
//! §3.5's extension, in which the throwaway fetch nym that loads a
//! stored nym derives its guards from the storage location and
//! password, is left out: the fetch nym draws fresh guards
//! ([`TorState::fresh`]) on every Cloud or Striped restore. A seed
//! that skips the password KDF would let anyone who sees the guards
//! test guesses cheaply, and a hardened one adds a PBKDF2 to every
//! restore, about a third of its wall time today.
//!
//! A restore also contacts one guard that may not be in the saved set:
//! [`TorClient::restore_state`] swaps the guards but keeps the exit of
//! the client's only circuit, built at bootstrap through a freshly
//! drawn guard. This holds for every restore, Disk included.

use nymix_net::Ip;
use nymix_sim::{Rng, SimDuration};

use crate::api::{Anonymizer, AnonymizerKind, StartupPhase, TransferCost};

/// Identifies a relay in a directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RelayId(pub u32);

/// A Tor relay descriptor.
#[derive(Debug, Clone)]
pub struct Relay {
    /// Identity.
    pub id: RelayId,
    /// Advertised bandwidth (selection weight), bytes/second.
    pub bandwidth: f64,
    /// May serve as an entry guard.
    pub is_guard: bool,
    /// May serve as an exit.
    pub is_exit: bool,
    /// The relay's address (what destinations see for exits).
    pub address: Ip,
}

/// A relay directory (consensus).
#[derive(Debug, Clone)]
pub struct TorDirectory {
    relays: Vec<Relay>,
}

/// Generator/serializer-side index to `u32`, checked instead of cast:
/// saturates on breach rather than silently wrapping into colliding
/// relay ids or a corrupt length prefix.
fn idx_u32(i: usize) -> u32 {
    debug_assert!(u32::try_from(i).is_ok(), "index {i} exceeds u32");
    u32::try_from(i).unwrap_or(u32::MAX)
}

impl TorDirectory {
    /// Generates a deterministic directory of `n` relays.
    ///
    /// Roughly a third are guards, a third exits, mirroring consensus
    /// flag proportions.
    pub fn generate(seed: u64, n: usize) -> Self {
        let mut rng = Rng::seed_from(seed ^ 0x7d1550fd15eed);
        let mut relays = Vec::with_capacity(n);
        for i in 0..n {
            // 32 bytes drawn and discarded: dropping the draw would shift
            // every bandwidth, flag and exit address generated after it.
            rng.fill_bytes(&mut [0u8; 32]);
            relays.push(Relay {
                id: RelayId(idx_u32(i)),
                bandwidth: rng.range_f64(1e6, 20e6),
                is_guard: rng.chance(0.35),
                is_exit: rng.chance(0.30),
                address: Ip([
                    198,
                    18,
                    u8::try_from(i / 256 % 256).unwrap_or(0),
                    u8::try_from(i % 256).unwrap_or(0),
                ]),
            });
        }
        // Guarantee at least one of each role.
        relays[0].is_guard = true;
        relays[n - 1].is_exit = true;
        Self { relays }
    }

    /// All relays.
    // lint:allow(test-only-pub): tests/world_rng.rs pins each relay's draw through it
    pub fn relays(&self) -> &[Relay] {
        &self.relays
    }

    /// Looks up a relay.
    fn relay(&self, id: RelayId) -> Option<&Relay> {
        self.relays.get(id.0 as usize)
    }

    /// Bandwidth-weighted choice among relays passing `filter`.
    fn weighted_pick(
        &self,
        rng: &mut Rng,
        filter: impl Fn(&Relay) -> bool,
        exclude: &[RelayId],
    ) -> Option<RelayId> {
        let candidates: Vec<&Relay> = self
            .relays
            .iter()
            .filter(|r| filter(r) && !exclude.contains(&r.id))
            .collect();
        if candidates.is_empty() {
            return None;
        }
        let total: f64 = candidates.iter().map(|r| r.bandwidth).sum();
        let mut x = rng.next_f64() * total;
        for r in &candidates {
            x -= r.bandwidth;
            if x <= 0.0 {
                return Some(r.id);
            }
        }
        Some(candidates[candidates.len() - 1].id)
    }
}

/// Persistent Tor client state: the entry guards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TorState {
    /// Chosen entry guards, in preference order.
    pub guards: Vec<RelayId>,
    /// When the guard set was chosen (microseconds of simulated time).
    /// Always 0 here, since guard rotation is not modelled; it stays
    /// because the anonymizer-state blob stores it.
    pub chosen_at_us: u64,
}

const STATE_MAGIC: &[u8; 4] = b"TGS2";

impl TorState {
    /// Picks fresh guards at random (what a cold boot without state
    /// does — the §3.5 hazard for amnesiac systems).
    pub fn fresh(directory: &TorDirectory, rng: &mut Rng) -> Self {
        Self {
            guards: Self::pick_guards(directory, rng),
            chosen_at_us: 0,
        }
    }

    fn pick_guards(directory: &TorDirectory, rng: &mut Rng) -> Vec<RelayId> {
        let mut guards = Vec::new();
        for _ in 0..3 {
            if let Some(id) = directory.weighted_pick(rng, |r| r.is_guard, &guards) {
                guards.push(id);
            }
        }
        guards
    }

    /// Serializes the guard set.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = STATE_MAGIC.to_vec();
        out.extend_from_slice(&self.chosen_at_us.to_le_bytes());
        out.extend_from_slice(&idx_u32(self.guards.len()).to_le_bytes());
        for g in &self.guards {
            out.extend_from_slice(&g.0.to_le_bytes());
        }
        out
    }

    /// Parses a serialized guard set.
    pub fn from_bytes(blob: &[u8]) -> Option<Self> {
        if blob.len() < 16 || &blob[..4] != STATE_MAGIC {
            return None;
        }
        let chosen_at_us = u64::from_le_bytes(blob[4..12].try_into().ok()?);
        let count = u32::from_le_bytes(blob[12..16].try_into().ok()?) as usize;
        if blob.len() != 16 + count * 4 {
            return None;
        }
        let mut guards = Vec::with_capacity(count);
        for i in 0..count {
            let off = 16 + i * 4;
            let word: [u8; 4] = blob[off..off + 4].try_into().ok()?;
            guards.push(RelayId(u32::from_le_bytes(word)));
        }
        Some(Self {
            guards,
            chosen_at_us,
        })
    }
}

/// A built circuit: guard → middle → exit.
#[derive(Debug, Clone)]
pub struct Circuit {
    /// The three hops, entry first.
    pub hops: [RelayId; 3],
}

/// Calibration constants for the Tor model.
pub mod calib {
    use nymix_sim::SimDuration;

    /// Fixed byte overhead (cells + control), Figure 5: "approximately
    /// 12% overhead".
    pub const BYTE_OVERHEAD: f64 = 0.12;

    /// Cold-start consensus fetch (directory download + parse).
    pub const CONSENSUS_FETCH: SimDuration = SimDuration(3_600_000);

    /// Per-hop circuit-extension handshake (CREATE/EXTEND round trip at
    /// the 80 ms testbed RTT plus crypto).
    pub const HOP_HANDSHAKE: SimDuration = SimDuration(450_000);

    /// Process launch + bootstrap bookkeeping.
    pub const PROCESS_LAUNCH: SimDuration = SimDuration(1_900_000);

    /// Guard re-validation on warm start (already have consensus +
    /// guards).
    pub const WARM_REVALIDATE: SimDuration = SimDuration(700_000);

    /// Stream attach latency per connection (BEGIN round trip).
    pub const STREAM_LATENCY: SimDuration = SimDuration(240_000);
}

/// A Tor client instance inside one nym's CommVM.
///
/// # Examples
///
/// ```
/// use nymix_anon::tor::{TorClient, TorDirectory};
/// use nymix_anon::Anonymizer;
/// use nymix_sim::Rng;
///
/// let dir = TorDirectory::generate(42, 100);
/// let mut rng = Rng::seed_from(7);
/// let mut tor = TorClient::bootstrap(&dir, &mut rng);
/// let circuit = tor.build_circuit(&dir, &mut rng).unwrap();
/// assert_eq!(circuit.hops.len(), 3);
/// assert!(tor.hides_source());
/// ```
#[derive(Debug, Clone)]
pub struct TorClient {
    state: TorState,
    /// Exit of the most recent circuit (what destinations see).
    current_exit: Option<Ip>,
}

impl TorClient {
    /// Boots a fresh client: picks new guards (cold start).
    pub fn bootstrap(directory: &TorDirectory, rng: &mut Rng) -> Self {
        Self {
            state: TorState::fresh(directory, rng),
            current_exit: None,
        }
    }

    /// Boots from persisted state (warm start).
    pub fn from_state(state: TorState) -> Self {
        Self {
            state,
            current_exit: None,
        }
    }

    /// The client's guard set.
    pub fn state(&self) -> &TorState {
        &self.state
    }

    /// Builds a circuit: primary guard, weighted middle, weighted exit.
    ///
    /// Returns `None` if the directory lacks usable relays.
    pub fn build_circuit(&mut self, directory: &TorDirectory, rng: &mut Rng) -> Option<Circuit> {
        let guard = *self.state.guards.first()?;
        let exclude = [guard];
        let exit = directory.weighted_pick(rng, |r| r.is_exit, &exclude)?;
        let exclude2 = [guard, exit];
        let middle = directory.weighted_pick(rng, |_| true, &exclude2)?;
        self.current_exit = Some(directory.relay(exit)?.address);
        Some(Circuit {
            hops: [guard, middle, exit],
        })
    }
}

impl Anonymizer for TorClient {
    fn name(&self) -> &'static str {
        "tor"
    }

    fn kind(&self) -> AnonymizerKind {
        AnonymizerKind::Tor
    }

    fn startup_phases(&self, cold: bool) -> Vec<StartupPhase> {
        let mut phases = vec![StartupPhase::new("launch tor", calib::PROCESS_LAUNCH)];
        if cold {
            phases.push(StartupPhase::new("fetch consensus", calib::CONSENSUS_FETCH));
            phases.push(StartupPhase::new("guard handshake", calib::HOP_HANDSHAKE));
        } else {
            phases.push(StartupPhase::new(
                "revalidate cached consensus/guards",
                calib::WARM_REVALIDATE,
            ));
        }
        phases.push(StartupPhase::new(
            "build circuit",
            SimDuration(calib::HOP_HANDSHAKE.0 * 3),
        ));
        phases
    }

    fn transfer_cost(&self) -> TransferCost {
        TransferCost {
            byte_overhead: calib::BYTE_OVERHEAD,
            connect_latency: calib::STREAM_LATENCY,
            rate_cap: f64::INFINITY,
        }
    }

    fn exit_address(&self, _client_public: Ip) -> Ip {
        self.current_exit.unwrap_or(Ip([198, 18, 0, 0]))
    }

    fn remote_dns(&self) -> bool {
        true // Tor's built-in DNS port (§4.1).
    }

    fn save_state(&self) -> Vec<u8> {
        self.state.to_bytes()
    }

    fn restore_state(&mut self, blob: &[u8]) -> bool {
        match TorState::from_bytes(blob) {
            Some(state) => {
                self.state = state;
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (TorDirectory, Rng) {
        (TorDirectory::generate(1, 200), Rng::seed_from(99))
    }

    #[test]
    fn directory_is_deterministic() {
        let a = TorDirectory::generate(5, 50);
        let b = TorDirectory::generate(5, 50);
        assert_eq!(a.relays().len(), 50);
        for (x, y) in a.relays().iter().zip(b.relays()) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.bandwidth, y.bandwidth);
            assert_eq!((x.is_guard, x.is_exit), (y.is_guard, y.is_exit));
        }
    }

    #[test]
    fn circuit_has_distinct_hops() {
        let (dir, mut rng) = setup();
        let mut tor = TorClient::bootstrap(&dir, &mut rng);
        for _ in 0..20 {
            let c = tor.build_circuit(&dir, &mut rng).unwrap();
            assert_ne!(c.hops[0], c.hops[1]);
            assert_ne!(c.hops[1], c.hops[2]);
            assert_ne!(c.hops[0], c.hops[2]);
            // Guard stays fixed across circuits (§3.5).
            assert_eq!(c.hops[0], tor.state().guards[0]);
        }
    }

    #[test]
    fn state_roundtrip() {
        let (dir, mut rng) = setup();
        let tor = TorClient::bootstrap(&dir, &mut rng);
        let blob = tor.save_state();
        let restored = TorState::from_bytes(&blob).unwrap();
        assert_eq!(&restored, tor.state());
        // Corrupt blobs are rejected.
        assert!(TorState::from_bytes(&blob[..blob.len() - 1]).is_none());
        assert!(TorState::from_bytes(b"XXXX").is_none());
        let mut bad = blob.clone();
        bad[0] ^= 1;
        assert!(TorState::from_bytes(&bad).is_none());
    }

    #[test]
    fn warm_start_skips_consensus_fetch() {
        let (dir, mut rng) = setup();
        let tor = TorClient::bootstrap(&dir, &mut rng);
        let cold = tor.startup_time(true);
        let warm = tor.startup_time(false);
        assert!(warm < cold);
        // Figure 7 calibration: cold ≈ 7.2 s, warm ≈ 3.9 s.
        assert!((cold.as_secs_f64() - 7.2).abs() < 0.5, "cold {cold}");
        assert!((warm.as_secs_f64() - 3.95).abs() < 0.5, "warm {warm}");
    }

    #[test]
    fn fresh_boots_usually_pick_different_guards() {
        let (dir, mut rng) = setup();
        let mut distinct = std::collections::HashSet::new();
        for _ in 0..10 {
            let s = TorState::fresh(&dir, &mut rng);
            distinct.insert(s.guards[0]);
        }
        // The §3.5 hazard: amnesiac boots churn guards.
        assert!(distinct.len() > 2, "guard churn expected: {distinct:?}");
    }

    #[test]
    fn restore_rejects_garbage() {
        let (dir, mut rng) = setup();
        let mut tor = TorClient::bootstrap(&dir, &mut rng);
        let orig = tor.state().clone();
        assert!(!tor.restore_state(b"not a state blob"));
        assert_eq!(tor.state(), &orig);
    }

    #[test]
    fn exit_address_hides_client() {
        let (dir, mut rng) = setup();
        let mut tor = TorClient::bootstrap(&dir, &mut rng);
        tor.build_circuit(&dir, &mut rng).unwrap();
        let client = Ip::parse("203.0.113.50");
        let seen = tor.exit_address(client);
        assert_ne!(seen, client);
        assert!(tor.hides_source());
        assert!(tor.remote_dns());
    }
}
