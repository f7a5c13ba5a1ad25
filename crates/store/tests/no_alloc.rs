//! Pins the allocation-freedom of the sealing hot path: once the scratch
//! arena and output buffer are warm, `seal_into` (serialize → LZSS →
//! in-place AEAD) and `unseal_into` (decrypt → decompress) must never
//! touch the heap. Keys are derived outside the counted loops, as the
//! store pipeline derives one per chain epoch.

#[path = "../../devshims/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::allocations_in;

use nymix_sim::Rng;
use nymix_store::{
    chunker, seal_into, unseal_into, DeltaArchive, NymArchive, SealKey, SealScratch, Sealable,
};

fn archive() -> NymArchive {
    let mut a = NymArchive::new();
    a.put("meta", b"nym=alice;site=forum".to_vec());
    a.put(
        "anonvm.disk",
        b"<div class=\"post\">cache entry</div>\n"
            .repeat(800)
            .to_vec(),
    );
    a.put("tor.state", vec![0x5a; 2048]);
    a
}

#[test]
fn warm_seal_pipeline_is_allocation_free() {
    let a = archive();
    let mut scratch = SealScratch::new();
    let mut out = Vec::new();
    let mut rng = Rng::seed_from(3);
    let key = SealKey::derive("pw", "nym:alice", &mut rng);
    let what = Sealable::Archive(&a);
    // Warm-up: sizes the arena, the output blob and the match-finder.
    seal_into(what, &key, "nym:alice", &mut rng, &mut scratch, &mut out);
    let n = allocations_in(|| {
        for _ in 0..3 {
            seal_into(what, &key, "nym:alice", &mut rng, &mut scratch, &mut out);
        }
    });
    assert_eq!(n, 0, "warm seal_into must not allocate");
}

#[test]
fn warm_delta_seal_pipeline_is_allocation_free() {
    // The incremental save path: delta serialization rides the same
    // arena, the chain key skips the KDF, and with warm buffers neither
    // sealing nor unsealing a delta touches the heap.
    let prev = archive();
    let mut next = prev.clone();
    next.put("meta", b"nym=alice;site=forum;rev=2".to_vec());
    let delta = DeltaArchive::diff(&prev, &next);

    let mut rng = Rng::seed_from(5);
    let key = SealKey::derive("pw", "nym:alice", &mut rng);
    let mut scratch = SealScratch::new();
    let mut out = Vec::new();
    let mut work = Vec::new();
    let what = Sealable::Delta(&delta);
    // Warm-up sizes every buffer.
    seal_into(
        what,
        &key,
        "nym:alice#e1.1",
        &mut rng,
        &mut scratch,
        &mut out,
    );
    unseal_into(&out, &key, "nym:alice#e1.1", &mut work, &mut scratch).expect("opens");
    let n = allocations_in(|| {
        for _ in 0..3 {
            seal_into(
                what,
                &key,
                "nym:alice#e1.1",
                &mut rng,
                &mut scratch,
                &mut out,
            );
            let bytes =
                unseal_into(&out, &key, "nym:alice#e1.1", &mut work, &mut scratch).expect("opens");
            std::hint::black_box(bytes.len());
        }
    });
    assert_eq!(n, 0, "warm delta seal/unseal must not allocate");
}

#[test]
fn warm_commitment_update_is_allocation_free() {
    // The O(dirty) save path: with the accumulator warm and the record
    // shape unchanged, re-committing after a dirty record rewrites one
    // leaf and the root path strictly in place — every save would
    // otherwise pay a heap round trip per record.
    use nymix_store::ArchiveCommitment;
    let a = archive();
    let mut b = a.clone();
    b.put("meta", b"nym=alice;site=forum;rev=2".to_vec());
    let mut commitment = ArchiveCommitment::build(&a);
    // Warm-up: one update in each direction sizes nothing further —
    // the fast path must already be in-place.
    std::hint::black_box(commitment.update(&b, |name| name == "meta"));
    std::hint::black_box(commitment.update(&a, |name| name == "meta"));
    let n = allocations_in(|| {
        for _ in 0..4 {
            let r1 = commitment.update(&b, |name| name == "meta");
            let r2 = commitment.update(&a, |name| name == "meta");
            std::hint::black_box((r1, r2));
        }
    });
    assert_eq!(n, 0, "warm same-shape commitment update must not allocate");
}

#[test]
fn disabled_obs_recorder_is_allocation_free() {
    // Every hot path in this crate carries obs call sites; with the
    // recorder disabled (the default — this test binary never enables
    // it) each one must be a relaxed load and a branch, never a heap
    // touch, or the warm-path guarantees above silently erode.
    assert!(!nymix_obs::enabled());
    let n = allocations_in(|| {
        for i in 0..64u64 {
            let mut span = nymix_obs::span!("journal_commit", "bytes" => i);
            span.add_modeled_us(i);
            nymix_obs::counter!("disk.commits", 1u64);
            nymix_obs::gauge!("disk.garbage_bytes", i);
            nymix_obs::histogram!("disk.commit_bytes", i);
            nymix_obs::sim_clock(i);
            drop(span);
        }
    });
    assert_eq!(n, 0, "disabled obs recorder must not allocate");
}

#[test]
fn meter_is_allocation_free_with_recorder_disabled() {
    // `AccessLog` / `CloudSession` accounting now rides `Meter`s; their
    // local tallies must stay heap-free when the recorder is off.
    assert!(!nymix_obs::enabled());
    let mut meter = nymix_obs::meter!("cloud.ops");
    let n = allocations_in(|| {
        for i in 0..64u64 {
            meter.add(i);
        }
        std::hint::black_box(meter.get());
        std::hint::black_box(meter.take());
    });
    assert_eq!(n, 0, "Meter bookkeeping must not allocate");
}

#[test]
fn content_defined_chunking_is_allocation_free() {
    // The chunker runs over every large record on every incremental
    // save; it yields borrowed sub-slices and must never touch the
    // heap, warm or cold.
    let mut data = vec![0u8; 256 * 1024];
    let mut x = 0x9E37_79B9u64;
    for b in data.iter_mut() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *b = (x >> 32) as u8;
    }
    let n = allocations_in(|| {
        let mut total = 0usize;
        let mut count = 0usize;
        for chunk in chunker::chunks(&data) {
            total += chunk.len();
            count += 1;
        }
        assert_eq!(total, data.len());
        assert!(count > 1);
    });
    assert_eq!(n, 0, "chunking must not allocate");
}

#[test]
fn warm_unseal_pipeline_is_allocation_free() {
    let a = archive();
    let mut scratch = SealScratch::new();
    let mut out = Vec::new();
    let mut work = Vec::new();
    let mut rng = Rng::seed_from(3);
    let key = SealKey::derive("pw", "nym:alice", &mut rng);
    seal_into(
        Sealable::Archive(&a),
        &key,
        "nym:alice",
        &mut rng,
        &mut scratch,
        &mut out,
    );
    // Restore derives the key from the blob once, before any unseal.
    let key = SealKey::from_blob("pw", "nym:alice", &out).expect("sealed blob");
    // Warm-up run sizes the ciphertext copy and the plaintext arena.
    unseal_into(&out, &key, "nym:alice", &mut work, &mut scratch).expect("opens");
    let n = allocations_in(|| {
        for _ in 0..3 {
            let bytes =
                unseal_into(&out, &key, "nym:alice", &mut work, &mut scratch).expect("opens");
            std::hint::black_box(bytes.len());
        }
    });
    assert_eq!(n, 0, "warm unseal_into must not allocate");
}

#[test]
fn warm_gated_chunk_seal_is_allocation_free() {
    // The entropy-gated chunk path: the probe (stack histogram) plus
    // the stored-body seal must stay off the heap once warm — chunk
    // sealing runs per chunk on every incremental save.
    use nymix_store::{lzss, INCOMPRESSIBLE_BITS_PER_BYTE};
    let mut chunk = vec![0u8; 32 * 1024];
    let mut x = 0x1234_5678_9abc_def0u64;
    for b in chunk.iter_mut() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *b = (x >> 32) as u8;
    }
    let mut rng = Rng::seed_from(9);
    let key = SealKey::derive("pw", "l", &mut rng);
    let mut scratch = SealScratch::new();
    let mut out = Vec::new();
    assert!(lzss::entropy_bits_per_byte(&chunk) >= INCOMPRESSIBLE_BITS_PER_BYTE);
    let what = Sealable::Chunk(&chunk);
    // Warm-up sizes the blob buffer.
    seal_into(what, &key, "l#e1/c/ab", &mut rng, &mut scratch, &mut out);
    let n = allocations_in(|| {
        for _ in 0..3 {
            seal_into(what, &key, "l#e1/c/ab", &mut rng, &mut scratch, &mut out);
            std::hint::black_box(out.len());
        }
    });
    assert_eq!(n, 0, "warm gated chunk seal must not allocate");
}
