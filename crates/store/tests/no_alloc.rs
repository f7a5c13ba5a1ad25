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
    build_manifests, chunker, seal_into, unseal_into, ChunkManifest, DeltaArchive, ManifestScratch,
    NymArchive, SealKey, SealScratch, Sealable,
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
fn warm_manifest_build_reusing_every_id_is_allocation_free() {
    // The chunk stage of a save whose chunk ids all come from the
    // session's cache: the record's first two chunks trade places, so
    // every chunk is still one the previous version held (cuts depend
    // only on a chunk's own bytes) but at another offset. Beside it, a
    // record equal to its previous version. Once the lookup, miss and
    // output buffers are warm, the build allocates nothing.
    let mut old = vec![0u8; 256 * 1024];
    let mut x = 0x0DDB_A11Cu64;
    for b in old.iter_mut() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *b = (x >> 32) as u8;
    }
    let prev = ChunkManifest::build(&old);
    let cuts: Vec<usize> = chunker::chunks(&old).map(<[u8]>::len).take(2).collect();
    assert!(
        prev.chunk_count() > 3,
        "seeded data has content-defined cuts"
    );
    let (a, b) = (cuts[0], cuts[1]);
    let mut new = Vec::with_capacity(old.len());
    new.extend_from_slice(&old[a..a + b]);
    new.extend_from_slice(&old[..a]);
    new.extend_from_slice(&old[a + b..]);
    let old_chunks: Vec<&[u8]> = chunker::chunks(&old).collect();
    assert!(chunker::chunks(&new).all(|c| old_chunks.contains(&c)));
    let records = [
        (&new[..], Some((&old[..], &prev))),
        (&old[..], Some((&old[..], &prev))),
    ];
    let mut scratch = ManifestScratch::default();
    let mut out = Vec::new();
    // Warm-up sizes the lookup, the miss list and both manifests.
    build_manifests(&records, &mut scratch, &mut out);
    assert_eq!(out[0], ChunkManifest::build(&new));
    assert_eq!(out[1], prev);
    let n = allocations_in(|| {
        for _ in 0..3 {
            build_manifests(&records, &mut scratch, &mut out);
            std::hint::black_box(out[0].chunk_count());
        }
    });
    assert_eq!(n, 0, "warm all-reused manifest build must not allocate");
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

#[test]
fn warm_compressor_takes_a_larger_input_without_allocating() {
    // The match finder's arena is fixed-size: once a compressor has run
    // at all, an input sixteen times larger than anything it has seen
    // needs no more heap than the caller's output buffer.
    use nymix_store::lzss;
    let text = b"<li class=\"entry\">cached profile page</li>\n";
    let small: Vec<u8> = text.iter().copied().cycle().take(64 * 1024).collect();
    let mut large: Vec<u8> = text.iter().copied().cycle().take(1024 * 1024).collect();
    for (i, b) in large.iter_mut().enumerate().step_by(97) {
        *b = (i >> 7) as u8;
    }
    let mut c = lzss::Compressor::new();
    let mut out = Vec::with_capacity(2 * large.len());
    c.compress_into(&small, &mut out);
    out.clear();
    let n = allocations_in(|| c.compress_into(&large, &mut out));
    assert_eq!(n, 0, "a warm compressor must not grow with its input");
    assert_eq!(lzss::decompress(&out).expect("valid stream"), large);
}

#[test]
fn layer_serialization_allocates_one_buffer_once() {
    // A writable layer serializes into exactly one allocation of its
    // final size: no per-path strings, no entry list, no regrowth.
    use nymix_fs::{Layer, LayerKind, Path};
    let mut layer = Layer::new(LayerKind::Writable);
    for i in 0..200 {
        layer.put_file(
            Path::new(&format!("/home/user/.cache/chromium/entry-{i:03}")),
            vec![i as u8; 300 + i],
        );
    }
    layer.put_dir(Path::new("/home/user/.cache"));
    layer.put_whiteout(Path::new("/etc/motd"));
    let mut a = NymArchive::new();
    a.put_layer("anonvm.disk", &layer);
    let mut previous = None;
    let n = allocations_in(|| previous = a.replace_layer("anonvm.disk", &layer));
    assert_eq!(n, 1, "one buffer, allocated once");
    assert_eq!(previous.as_deref(), a.get("anonvm.disk"));
}
