//! Property-based tests for the crypto primitives.

use nymix_crypto::{
    open, open_in_place_detached, poly1305_tag, seal, seal_in_place_detached, ChaCha20, HmacKey,
    MerkleAccumulator, Poly1305, Sha256,
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
    fn merkle_proofs_verify(blocks in proptest::collection::vec(
        proptest::collection::vec(any::<u8>(), 0..64), 1..40)) {
        let mut tree = MerkleAccumulator::from_blocks(blocks.iter().map(|b| b.as_slice()));
        let n = blocks.len();
        for (i, b) in blocks.iter().enumerate() {
            let proof = tree.prove(i).unwrap();
            prop_assert!(MerkleAccumulator::verify(&tree.root(), i, b, &proof, n));
        }
    }

    #[test]
    fn merkle_cross_block_proofs_fail(blocks in proptest::collection::vec(
        proptest::collection::vec(any::<u8>(), 1..32), 2..20), i in any::<usize>(), j in any::<usize>()) {
        let n = blocks.len();
        let (i, j) = (i % n, j % n);
        prop_assume!(i != j && blocks[i] != blocks[j]);
        let mut tree = MerkleAccumulator::from_blocks(blocks.iter().map(|b| b.as_slice()));
        let proof = tree.prove(i).unwrap();
        prop_assert!(!MerkleAccumulator::verify(&tree.root(), i, &blocks[j], &proof, n));
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
        // XOR-accumulating streams via xor_into (the DC-net pad path) must
        // equal materializing each stream and XORing byte-wise.
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
        prop_assert_eq!(nymix_crypto::hmac_sha256(&key, &msg), want);
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
    fn hmac_mac32_equals_naive(key in proptest::collection::vec(any::<u8>(), 0..150),
                               msg in any::<[u8; 32]>()) {
        // The PBKDF2 iteration shape: the two-compression fast path must
        // match the from-scratch construction.
        prop_assert_eq!(HmacKey::new(&key).mac32(&msg), hmac_reference(&key, &msg));
    }

    #[test]
    fn sha256_x4_equals_scalar(prefix in proptest::collection::vec(any::<u8>(), 0..80),
                               len in 0usize..300,
                               seed in any::<u64>()) {
        let msgs: Vec<Vec<u8>> = (0..4).map(|l| {
            (0..len).map(|i| (seed as usize + l * 31 + i * 7) as u8).collect()
        }).collect();
        let got = nymix_crypto::sha256_x4(&prefix, [&msgs[0], &msgs[1], &msgs[2], &msgs[3]]);
        for l in 0..4 {
            let mut h = Sha256::new();
            h.update(&prefix);
            h.update(&msgs[l]);
            prop_assert_eq!(got[l], h.finalize());
        }
    }

    #[test]
    fn merkle_incremental_equals_scratch(
        initial in proptest::collection::vec(any::<u8>(), 0..40),
        ops in proptest::collection::vec((any::<u8>(), any::<u16>()), 0..40)
    ) {
        // Model-based: drive a MerkleAccumulator through random dirty
        // sets *and* leaf-count changes (push/truncate), checking after
        // every op that its root is bit-identical to a from-scratch
        // fold over the model leaf vector.
        use nymix_crypto::{leaf_hash_parts, merkle_root_from_leaves};
        let mut acc = MerkleAccumulator::new();
        let mut model: Vec<[u8; 32]> = Vec::new();
        for b in &initial {
            let leaf = leaf_hash_parts(&[&[*b]]);
            acc.push_leaf(leaf);
            model.push(leaf);
        }
        prop_assert_eq!(acc.root(), merkle_root_from_leaves(&mut model.clone()));
        for (step, (op, arg)) in ops.iter().enumerate() {
            match op % 4 {
                0 => {
                    let leaf = leaf_hash_parts(&[&arg.to_le_bytes(), &[step as u8]]);
                    acc.push_leaf(leaf);
                    model.push(leaf);
                }
                1 | 2 if !model.is_empty() => {
                    // Dirty an arbitrary leaf; alternate between warm
                    // interiors (root queried first, so the O(log n)
                    // path-update runs) and cold ones.
                    if op % 2 == 1 {
                        acc.root();
                    }
                    let idx = *arg as usize % model.len();
                    let leaf = leaf_hash_parts(&[&arg.to_be_bytes(), &(step as u32).to_le_bytes()]);
                    acc.update_leaf(idx, leaf);
                    model[idx] = leaf;
                }
                3 => {
                    let len = *arg as usize % (model.len() + 1);
                    acc.truncate(len);
                    model.truncate(len);
                }
                _ => {}
            }
            prop_assert_eq!(
                acc.root(),
                merkle_root_from_leaves(&mut model.clone()),
                "step {}",
                step
            );
            prop_assert_eq!(acc.leaf_count(), model.len());
        }
    }

    #[test]
    fn sha256_backends_bit_identical(data in proptest::collection::vec(any::<u8>(), 0..2048),
                                     split in 0usize..2048) {
        // Every dispatched kernel must agree with the strictly-serial
        // scalar floor over arbitrary lengths and split points, both
        // single-stream and through the four-lane batch entry point.
        use nymix_crypto::{set_sha_backend, sha256_backend, sha256_x4, ShaBackend};
        let prev = sha256_backend();
        let split = split.min(data.len());
        set_sha_backend(ShaBackend::Scalar);
        let want = nymix_crypto::sha256(&data);
        let want_x4 = sha256_x4(b"p:", [&data, &data, &data, &data]);
        for requested in [ShaBackend::X4, ShaBackend::ShaNi] {
            let installed = set_sha_backend(requested);
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            prop_assert_eq!(h.finalize(), want, "backend {}", installed.name());
            prop_assert_eq!(nymix_crypto::sha256(&data), want, "backend {}", installed.name());
            prop_assert_eq!(
                sha256_x4(b"p:", [&data, &data, &data, &data]),
                want_x4,
                "backend {}",
                installed.name()
            );
        }
        set_sha_backend(prev);
    }

    #[test]
    fn hkdf_deterministic(salt in proptest::collection::vec(any::<u8>(), 0..32),
                          ikm in proptest::collection::vec(any::<u8>(), 1..64),
                          info in proptest::collection::vec(any::<u8>(), 0..32),
                          len in 1usize..200) {
        let a = nymix_crypto::hkdf::derive(&salt, &ikm, &info, len);
        let b = nymix_crypto::hkdf::derive(&salt, &ikm, &info, len);
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(a.len(), len);
    }
}
