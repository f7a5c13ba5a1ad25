//! Property-based tests for the access-link cost function.

use nymix_net::access_transfer;
use proptest::prelude::*;

proptest! {
    /// Completion times are monotone in transfer size on a quiet link.
    #[test]
    fn completion_monotone_in_bytes(sizes in proptest::collection::vec(1.0f64..1e6, 2..6)) {
        let mut sorted = sizes.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        let times: Vec<_> = sorted.iter().map(|s| access_transfer(*s, f64::INFINITY)).collect();
        for w in times.windows(2) {
            prop_assert!(w[1] >= w[0]);
        }
    }
}
