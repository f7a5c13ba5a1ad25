//! Property-based tests for Tor's guard state.

use nymix_anon::tor::{TorDirectory, TorState};
use nymix_sim::Rng;
use proptest::prelude::*;

proptest! {
    /// Guard-state serialization round-trips and rejects truncation.
    #[test]
    fn tor_state_roundtrip(seed in any::<u64>()) {
        let dir = TorDirectory::generate(seed, 40);
        let mut rng = Rng::seed_from(seed);
        let state = TorState::fresh(&dir, &mut rng);
        let blob = state.to_bytes();
        prop_assert_eq!(TorState::from_bytes(&blob).expect("parses"), state);
        for cut in 0..blob.len() {
            prop_assert!(TorState::from_bytes(&blob[..cut]).is_none());
        }
    }

    /// Deterministic guard seeding is a pure function of
    /// (location, password).
    #[test]
    fn deterministic_guards(loc in "[a-z]{1,16}", pw in "[a-z]{1,16}", seed in any::<u64>()) {
        let dir = TorDirectory::generate(seed, 50);
        let a = TorState::deterministic(&dir, &loc, &pw);
        let b = TorState::deterministic(&dir, &loc, &pw);
        prop_assert_eq!(a, b);
    }
}
