//! Pins the `crypto.sha256.blocks` counter to the message's block
//! structure: however `Sha256::update` is fed, every compression is
//! counted, and a PBKDF2 derivation counts every compression of its
//! iteration chain. This binary holds one test on purpose — it turns the
//! process-global recorder on, and a sibling test hashing on another
//! harness thread would land in the measured window.

use std::hint::black_box;

use nymix_crypto::Sha256;

/// Runs `f` and returns how many SHA-256 blocks the recorder counted.
fn blocks_counted(f: impl FnOnce()) -> u64 {
    let read = || {
        nymix_obs::snapshot()
            .counters
            .iter()
            .find(|(name, _)| *name == "crypto.sha256.blocks")
            .map_or(0, |(_, n)| *n)
    };
    let before = read();
    f();
    read() - before
}

#[test]
fn split_update_counts_the_same_blocks_as_one_shot() {
    nymix_obs::set_enabled(true);
    let data: Vec<u8> = (0u8..=255).cycle().take(1000).collect();
    let one_shot = blocks_counted(|| {
        black_box(nymix_crypto::sha256(&data));
    });
    // 15 full blocks plus one padded tail block.
    assert_eq!(one_shot, 16);
    // Splits that leave a partial block buffered make `update`
    // complete it from the next call's input.
    for split in [1usize, 10, 63, 64, 65, 500] {
        let split_count = blocks_counted(|| {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            black_box(h.finalize());
        });
        assert_eq!(split_count, one_shot, "split at {split}");
    }
    // A 10,000-iteration, 32-byte derivation: two key pad blocks, U_1's
    // inner and outer blocks, then two compressions for each of the
    // 9,999 further iterations. Benchmarks compare counted blocks
    // across versions, so the chain loop must count exactly these.
    let kdf = blocks_counted(|| {
        let mut out = [0u8; 32];
        nymix_crypto::pbkdf2_hmac_sha256_into(b"password", &[b"nym:", b"salt"], 10_000, &mut out);
        black_box(out);
    });
    assert_eq!(kdf, 2 + 2 + 2 * 9_999);
    nymix_obs::set_enabled(false);
}
