//! Pins the allocation-freedom of the crypto hot path: once buffers exist,
//! `ChaCha20::apply`/`xor_into`, the incremental `Poly1305`, the
//! in-place AEAD and the PBKDF2 derivation into a caller buffer must
//! never touch the heap.

#[path = "../../devshims/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::allocations_in;

#[test]
fn chacha20_apply_is_allocation_free() {
    let key = [7u8; 32];
    let nonce = [3u8; 12];
    let mut buf = vec![0u8; 64 * 1024 + 17];
    let n = allocations_in(|| {
        let mut c = nymix_crypto::ChaCha20::new(&key, &nonce, 1);
        c.apply(&mut buf);
        c.xor_into(&mut buf);
    });
    assert_eq!(n, 0, "ChaCha20 apply/xor_into must not allocate");
}

#[test]
fn poly1305_streaming_is_allocation_free() {
    let key = [9u8; 32];
    let msg = vec![0xa5u8; 4096 + 7];
    let n = allocations_in(|| {
        let mut mac = nymix_crypto::Poly1305::new(&key);
        mac.update(&msg[..1000]);
        mac.pad_to_block();
        mac.update(&msg[1000..]);
        std::hint::black_box(mac.finalize());
    });
    assert_eq!(n, 0, "incremental Poly1305 must not allocate");
}

#[test]
fn in_place_aead_is_allocation_free() {
    let key = [1u8; 32];
    let nonce = [2u8; 12];
    let mut buf = vec![0x42u8; 8192];
    let n = allocations_in(|| {
        let tag = nymix_crypto::seal_in_place_detached(&key, &nonce, b"aad", &mut buf);
        nymix_crypto::open_in_place_detached(&key, &nonce, b"aad", &mut buf, &tag)
            .expect("roundtrip");
    });
    assert_eq!(n, 0, "in-place AEAD seal/open must not allocate");
}

#[test]
fn pbkdf2_into_is_allocation_free() {
    let mut out = [0u8; 40];
    let n = allocations_in(|| {
        nymix_crypto::pbkdf2_hmac_sha256_into(
            b"pw",
            &[b"nym:alice", &[0], b"random"],
            100,
            &mut out,
        );
    });
    assert_eq!(n, 0, "pbkdf2_hmac_sha256_into must not allocate");
}
