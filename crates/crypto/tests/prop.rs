//! Property-based tests for the crypto primitives.

use nymix_crypto::{
    open, open_in_place_detached, pbkdf2_hmac_sha256_into, poly1305_tag, seal,
    seal_in_place_detached, ChaCha20, HmacKey, Poly1305, Sha256,
};
use proptest::prelude::*;

/// Literal RFC 2104: pad the key, run two full hashes from scratch. The
/// midstate-cached `HmacKey` must agree bit-for-bit on everything.
fn hmac_reference(key: &[u8], msg: &[u8]) -> [u8; 32] {
    let mut key_block = [0u8; 64];
    if key.len() > 64 {
        key_block[..32].copy_from_slice(&nymix_crypto::sha256(key));
    } else {
        key_block[..key.len()].copy_from_slice(key);
    }
    let mut inner = Sha256::new();
    let mut outer = Sha256::new();
    inner.update(&key_block.map(|b| b ^ 0x36));
    inner.update(msg);
    outer.update(&key_block.map(|b| b ^ 0x5c));
    outer.update(&inner.finalize());
    outer.finalize()
}

/// Literal RFC 8018 §5.2 PBKDF2 on [`hmac_reference`]: every `U_j` is a
/// from-scratch HMAC of the previous one's bytes, and each output
/// block `T_i` is their XOR.
fn pbkdf2_reference(password: &[u8], salt: &[u8], iterations: u32, len: usize) -> Vec<u8> {
    let mut out = Vec::new();
    let mut block_index = 1u32;
    while out.len() < len {
        let mut msg = salt.to_vec();
        msg.extend_from_slice(&block_index.to_be_bytes());
        let mut u = hmac_reference(password, &msg);
        let mut t = u;
        for _ in 1..iterations {
            u = hmac_reference(password, &u);
            for (t, u) in t.iter_mut().zip(&u) {
                *t ^= u;
            }
        }
        out.extend_from_slice(&t);
        block_index += 1;
    }
    out.truncate(len);
    out
}

proptest! {
    #[test]
    fn sha256_incremental_equals_oneshot(data in proptest::collection::vec(any::<u8>(), 0..2048),
                                         split in 0usize..2048) {
        let split = split.min(data.len());
        let mut h = Sha256::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        prop_assert_eq!(h.finalize(), nymix_crypto::sha256(&data));
    }

    #[test]
    fn chacha_roundtrip(key in any::<[u8; 32]>(), nonce in any::<[u8; 12]>(),
                        mut data in proptest::collection::vec(any::<u8>(), 0..1024)) {
        let orig = data.clone();
        ChaCha20::new(&key, &nonce, 1).apply(&mut data);
        ChaCha20::new(&key, &nonce, 1).apply(&mut data);
        prop_assert_eq!(data, orig);
    }

    #[test]
    fn chacha_chunking_irrelevant(key in any::<[u8; 32]>(), nonce in any::<[u8; 12]>(),
                                  data in proptest::collection::vec(any::<u8>(), 1..512),
                                  cuts in proptest::collection::vec(1usize..64, 0..8)) {
        let mut whole = data.clone();
        ChaCha20::new(&key, &nonce, 0).apply(&mut whole);
        let mut chunked = data.clone();
        let mut c = ChaCha20::new(&key, &nonce, 0);
        let mut off = 0usize;
        for cut in cuts {
            if off >= chunked.len() { break; }
            let end = (off + cut).min(chunked.len());
            c.apply(&mut chunked[off..end]);
            off = end;
        }
        c.apply(&mut chunked[off..]);
        prop_assert_eq!(whole, chunked);
    }

    #[test]
    fn aead_roundtrip(key in any::<[u8; 32]>(), nonce in any::<[u8; 12]>(),
                      aad in proptest::collection::vec(any::<u8>(), 0..64),
                      msg in proptest::collection::vec(any::<u8>(), 0..1024)) {
        let boxed = seal(&key, &nonce, &aad, &msg);
        prop_assert_eq!(boxed.len(), msg.len() + 16);
        prop_assert_eq!(open(&key, &nonce, &aad, &boxed).unwrap(), msg);
    }

    #[test]
    fn aead_any_bitflip_detected(key in any::<[u8; 32]>(), nonce in any::<[u8; 12]>(),
                                 msg in proptest::collection::vec(any::<u8>(), 1..256),
                                 flip_byte in any::<usize>(), flip_bit in 0u8..8) {
        let mut boxed = seal(&key, &nonce, b"aad", &msg);
        let idx = flip_byte % boxed.len();
        boxed[idx] ^= 1 << flip_bit;
        prop_assert!(open(&key, &nonce, b"aad", &boxed).is_err());
    }

    #[test]
    fn poly1305_streaming_equals_oneshot(key in any::<[u8; 32]>(),
                                         data in proptest::collection::vec(any::<u8>(), 0..1024),
                                         cuts in proptest::collection::vec(1usize..48, 0..12)) {
        // Feeding the message through `update` in arbitrary chunk splits
        // must equal the one-shot tag, regardless of where the 16-byte
        // block boundaries fall relative to the cuts.
        let mut mac = Poly1305::new(&key);
        let mut off = 0usize;
        for cut in cuts {
            if off >= data.len() { break; }
            let end = (off + cut).min(data.len());
            mac.update(&data[off..end]);
            off = end;
        }
        mac.update(&data[off..]);
        prop_assert_eq!(mac.finalize(), poly1305_tag(&key, &data));
    }

    #[test]
    fn aead_in_place_matches_boxed(key in any::<[u8; 32]>(), nonce in any::<[u8; 12]>(),
                                   aad in proptest::collection::vec(any::<u8>(), 0..64),
                                   msg in proptest::collection::vec(any::<u8>(), 0..1024)) {
        // seal_in_place_detached must produce exactly the bytes of seal,
        // and open_in_place_detached must round-trip and agree with open.
        let boxed = seal(&key, &nonce, &aad, &msg);
        let mut buf = msg.clone();
        let tag = seal_in_place_detached(&key, &nonce, &aad, &mut buf);
        prop_assert_eq!(&boxed[..msg.len()], &buf[..]);
        prop_assert_eq!(&boxed[msg.len()..], &tag[..]);
        open_in_place_detached(&key, &nonce, &aad, &mut buf, &tag).unwrap();
        prop_assert_eq!(&buf, &msg);
        prop_assert_eq!(open(&key, &nonce, &aad, &boxed).unwrap(), msg);
    }

    #[test]
    fn chacha_xor_into_accumulates_pads(seeds in proptest::collection::vec(any::<[u8; 32]>(), 1..5),
                                        nonce in any::<[u8; 12]>(), len in 1usize..600) {
        // XOR-accumulating several streams into one buffer via xor_into
        // must equal materializing each stream and XORing byte-wise.
        let mut acc = vec![0u8; len];
        for seed in &seeds {
            ChaCha20::new(seed, &nonce, 0).xor_into(&mut acc);
        }
        let mut want = vec![0u8; len];
        for seed in &seeds {
            let mut stream = vec![0u8; len];
            ChaCha20::new(seed, &nonce, 0).apply(&mut stream);
            for (w, s) in want.iter_mut().zip(&stream) {
                *w ^= s;
            }
        }
        prop_assert_eq!(acc, want);
    }

    #[test]
    fn hmac_midstate_equals_naive(key in proptest::collection::vec(any::<u8>(), 0..150),
                                  msg in proptest::collection::vec(any::<u8>(), 0..512)) {
        let want = hmac_reference(&key, &msg);
        let hk = HmacKey::new(&key);
        prop_assert_eq!(hk.mac(&msg), want);
        // Streaming over arbitrary splits agrees too.
        let mut h = hk.hasher();
        let split = msg.len() / 2;
        h.update(&msg[..split]);
        h.update(&msg[split..]);
        prop_assert_eq!(hk.finish(h), want);
    }

    #[test]
    fn pbkdf2_equals_reference(password in proptest::collection::vec(any::<u8>(), 0..150),
                               salt in proptest::collection::vec(any::<u8>(), 0..80),
                               cuts in proptest::collection::vec(0usize..80, 0..4),
                               iterations in 1u32..65,
                               len in 1usize..101) {
        // Passwords over 64 bytes take HMAC's hashed-key path, and
        // lengths past 32 bytes derive more than one block.
        let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(salt.len())).collect();
        cuts.sort_unstable();
        let mut parts: Vec<&[u8]> = Vec::new();
        let mut start = 0;
        for cut in cuts {
            parts.push(&salt[start..cut]);
            start = cut;
        }
        parts.push(&salt[start..]);
        let mut out = vec![0u8; len];
        pbkdf2_hmac_sha256_into(&password, &parts, iterations, &mut out);
        prop_assert_eq!(out, pbkdf2_reference(&password, &salt, iterations, len));
    }
}
