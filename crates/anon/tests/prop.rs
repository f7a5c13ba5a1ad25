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
}
