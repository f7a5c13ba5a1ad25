//! Property-based tests for the engine invariants.

use nymix_sim::{Engine, SimDuration};
use proptest::prelude::*;

proptest! {
    /// Engine executes every event exactly once, in time order.
    #[test]
    fn engine_runs_everything_in_order(delays in proptest::collection::vec(0u64..10_000, 1..50)) {
        let mut engine: Engine<Vec<u64>> = Engine::new();
        for d in &delays {
            let at = *d;
            engine.schedule_in(SimDuration::from_micros(at), move |eng, log: &mut Vec<u64>| {
                log.push(eng.now().as_micros());
            });
        }
        let mut log = Vec::new();
        engine.run(&mut log);
        prop_assert_eq!(log.len(), delays.len());
        let mut sorted = delays.clone();
        sorted.sort_unstable();
        prop_assert_eq!(log, sorted);
    }
}
