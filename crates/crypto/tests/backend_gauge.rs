//! Pins that the `crypto.sha256.backend` gauge is published when the
//! backend is selected, not only when someone asks for it. This binary
//! holds one test on purpose: the selection happens once per process,
//! on the first hash, and a sibling test hashing first would make it
//! before the recorder is on.

use std::hint::black_box;

#[test]
fn first_hash_publishes_the_backend_gauge() {
    nymix_obs::set_enabled(true);
    black_box(nymix_crypto::sha256(black_box(b"abc")));
    let published = nymix_obs::snapshot().gauge("crypto.sha256.backend");
    // Read the selection only now: `sha256_backend` sets the gauge too.
    let selected = nymix_crypto::sha256_backend();
    nymix_obs::set_enabled(false);
    assert_ne!(published, 0, "a bare hash left the gauge unset");
    assert_eq!(published, selected.id() as u64);
}
