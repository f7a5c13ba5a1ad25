//! Microbenchmarks for the hot primitives behind the experiments:
//! SHA-256, ChaCha20-Poly1305, LZSS, layer decoding, KSM scanning.

use criterion::{criterion_group, Criterion, Throughput};
use std::hint::black_box;

/// A writable layer shaped like a `heartbeat` nym's restored
/// `anonvm.disk`: 1,136 cache files of 1,056 bytes (1.2 MB) at depth
/// 7, in 8 site directories, 1,149 entries with their ancestors.
fn cache_layer() -> nymix_fs::Layer {
    use nymix_fs::{Layer, LayerKind, Path};
    let mut layer = Layer::new(LayerKind::Writable);
    for i in 0..1136u32 {
        let body: Vec<u8> = (0..1056u32).map(|k| (k * 7 + i) as u8).collect();
        let path = format!(
            "/home/user/.cache/chromium/Default/site-{}/obj-{i:08}",
            i % 8
        );
        layer.put_file(Path::new(&path), body);
    }
    layer
}

/// 64 KiB of repeated markup: the compressible chunk shape sealing
/// runs the LZSS match finder over.
fn markup_64k() -> Vec<u8> {
    b"<div class=\"post\">timeline entry</div>\n"
        .iter()
        .copied()
        .cycle()
        .take(64 * 1024)
        .collect()
}

fn bench_crypto(c: &mut Criterion) {
    let data = vec![0xabu8; 64 * 1024];
    let key = [7u8; 32];
    let nonce = [1u8; 12];

    let mut group = c.benchmark_group("primitives");
    group.throughput(Throughput::Bytes(data.len() as u64));
    group.bench_function("sha256_64k", |b| {
        b.iter(|| black_box(nymix_crypto::sha256(black_box(&data))));
    });
    group.bench_function("aead_seal_64k", |b| {
        b.iter(|| black_box(nymix_crypto::seal(&key, &nonce, b"", black_box(&data))));
    });
    group.bench_function("aead_seal_in_place_64k", |b| {
        let mut buf = data.clone();
        b.iter(|| {
            black_box(nymix_crypto::seal_in_place_detached(
                &key,
                &nonce,
                b"",
                black_box(&mut buf),
            ))
        });
    });
    group.bench_function("chacha20_xor_into_64k", |b| {
        let mut buf = data.clone();
        b.iter(|| {
            let mut c = nymix_crypto::ChaCha20::new(&key, &nonce, 1);
            c.xor_into(black_box(&mut buf));
        });
    });
    // A warm compressor on markup: the chain walk sealing pays, not
    // the arena's first allocation.
    group.bench_function("lzss_compress_64k_text", |b| {
        let text = markup_64k();
        let mut compressor = nymix_store::lzss::Compressor::new();
        let mut out = Vec::new();
        b.iter(|| {
            out.clear();
            compressor.compress_into(black_box(&text), &mut out);
            black_box(out.len())
        });
    });
    // A stored (all-literal) stream: what restore decodes for the
    // incompressible chunks that make up most of a nym's archive.
    group.bench_function("lzss_decompress_64k_stored", |b| {
        let mut packed = Vec::new();
        nymix_store::lzss::store_into(&markup_64k(), &mut packed);
        let mut out = Vec::new();
        b.iter(|| {
            nymix_store::lzss::decompress_into(black_box(&packed), &mut out).expect("decodes");
            black_box(out.len())
        });
    });
    // The restore's rebuild of a nym's AnonVM disk layer from its
    // archive record.
    let mut archive = nymix_store::NymArchive::new();
    archive.put_layer("anonvm.disk", &cache_layer());
    group.throughput(Throughput::Bytes(archive.payload_bytes() as u64));
    group.bench_function("archive_get_layer_1k", |b| {
        b.iter(|| black_box(archive.get_layer("anonvm.disk").expect("decodes")).node_count());
    });
    group.finish();
}

fn bench_kdf(c: &mut Criterion) {
    // The save/restore KDF cost: 10k iterations is what sealing pays on
    // every nym store/load (KDF_ITERATIONS in nymix-store).
    c.bench_function("pbkdf2_hmac_sha256_10k", |b| {
        b.iter(|| {
            black_box(nymix_crypto::pbkdf2_hmac_sha256(
                black_box(b"hunter2"),
                black_box(b"nym:alice\x000123456789abcdef"),
                10_000,
                32,
            ))
        });
    });
}

fn bench_seal(c: &mut Criterion) {
    use nymix_sim::Rng;
    use nymix_store::NymArchive;

    // A 64 KiB-ish archive with the browser-cache content mix: mostly
    // repetitive HTML plus an incompressible tail (media).
    let mut a = NymArchive::new();
    let html: Vec<u8> = b"<div class=\"post\"><span>timeline entry</span></div>\n"
        .iter()
        .copied()
        .cycle()
        .take(48 * 1024)
        .collect();
    let mut media = vec![0u8; 16 * 1024];
    nymix_crypto::ChaCha20::new(&[9u8; 32], &[0u8; 12], 0).xor_into(&mut media);
    a.put("anonvm.disk", html);
    a.put("commvm.disk", media);
    let payload = a.payload_bytes() as u64;

    use nymix_store::{
        seal_into, unseal_into, ArchiveCommitment, DeltaArchive, SealKey, SealScratch, Sealable,
    };
    let mut group = c.benchmark_group("seal");
    group.throughput(Throughput::Bytes(payload));
    group.sample_size(10);
    // A full save: a new epoch's KDF plus the archive seal.
    group.bench_function("seal_64k", |b| {
        let mut rng = Rng::seed_from(7);
        let mut scratch = SealScratch::new();
        let mut out = Vec::new();
        b.iter(|| {
            let key = SealKey::derive("pw", "nym:bench", &mut rng);
            seal_into(
                Sealable::Archive(black_box(&a)),
                &key,
                "nym:bench",
                &mut rng,
                &mut scratch,
                &mut out,
            );
            black_box(out.len())
        });
    });
    // A full restore: the KDF from the blob's salt, unseal, parse.
    group.bench_function("unseal_64k", |b| {
        let mut rng = Rng::seed_from(7);
        let key = SealKey::derive("pw", "nym:bench", &mut rng);
        let mut scratch = SealScratch::new();
        let (mut blob, mut work) = (Vec::new(), Vec::new());
        seal_into(
            Sealable::Archive(&a),
            &key,
            "nym:bench",
            &mut rng,
            &mut scratch,
            &mut blob,
        );
        b.iter(|| {
            let key = SealKey::from_blob("pw", "nym:bench", black_box(&blob)).expect("sealed blob");
            let bytes =
                unseal_into(&blob, &key, "nym:bench", &mut work, &mut scratch).expect("opens");
            black_box(NymArchive::from_bytes(bytes).expect("parses"))
        });
    });

    // The incremental save path: same 64 KiB archive plus two small
    // records, of which only those two are dirty. The measured work is
    // the whole delta-save critical path as the store pipeline runs it
    // — it knows the dirty set from capture (layer generation
    // counters), commits incrementally against the chain's warm
    // [`ArchiveCommitment`] (O(dirty) leaves + root path, no full-set
    // rehash), and keyed-seals the delta (no KDF). Compare against
    // seal_64k (the full re-seal a delta avoids) and the `_scratch`
    // variant (the pre-incremental diff that re-Merkled everything).
    let mut prev = a.clone();
    prev.put("tor.state", vec![0x5a; 1024]);
    prev.put("meta", b"name=bench;model=Persistent".to_vec());
    let mut next = prev.clone();
    next.put("tor.state", vec![0xa5; 1024]);
    next.put("meta", b"name=bench;model=Persistent;rev=2".to_vec());
    let dirty_2 = |name: &str| name == "tor.state" || name == "meta";
    let seal_dirty_2 = |from: &NymArchive,
                        commitment: &mut ArchiveCommitment,
                        key: &SealKey,
                        rng: &mut Rng,
                        scratch: &mut SealScratch,
                        out: &mut Vec<u8>| {
        let root = commitment.update(from, dirty_2);
        let mut delta = DeltaArchive::new(from.record_count(), root);
        for name in ["tor.state", "meta"] {
            delta.put(name, from.get(name).expect("dirty record present").to_vec());
        }
        seal_into(
            Sealable::Delta(&delta),
            key,
            "nym:bench#e1.1",
            rng,
            scratch,
            out,
        );
        out.len()
    };

    group.bench_function("delta_save_2dirty_of_64k", |b| {
        let mut rng = Rng::seed_from(7);
        let key = SealKey::derive("pw", "nym:bench", &mut rng);
        let mut scratch = SealScratch::new();
        let mut out = Vec::new();
        let mut commitment = ArchiveCommitment::build(&prev);
        black_box(commitment.root());
        // Ping-pong between the two versions so every iteration is a
        // warm 2-dirty update, never a no-op.
        let mut flip = false;
        b.iter(|| {
            let to = if flip { &prev } else { &next };
            flip = !flip;
            black_box(seal_dirty_2(
                black_box(to),
                &mut commitment,
                &key,
                &mut rng,
                &mut scratch,
                &mut out,
            ))
        });
    });
    // The pre-incremental baseline: a from-scratch diff byte-compares
    // every record and re-Merkles the whole set per save.
    group.bench_function("delta_save_2dirty_of_64k_scratch", |b| {
        let mut rng = Rng::seed_from(7);
        let key = SealKey::derive("pw", "nym:bench", &mut rng);
        let mut scratch = SealScratch::new();
        let mut out = Vec::new();
        b.iter(|| {
            let delta = DeltaArchive::diff(black_box(&prev), black_box(&next));
            seal_into(
                Sealable::Delta(&delta),
                &key,
                "nym:bench#e1.1",
                &mut rng,
                &mut scratch,
                &mut out,
            );
            black_box(out.len())
        });
    });
    // Same two dirty records inside a 1 MiB archive (16 64 KiB layer
    // records): with the incremental commitment the save cost stays
    // near-flat in archive size — leaves off the dirty root paths are
    // cache hits, not rehashes.
    {
        let mut prev_1m = NymArchive::new();
        for i in 0..16u8 {
            let mut blob = vec![0u8; 64 * 1024];
            nymix_crypto::ChaCha20::new(&[i; 32], &[i; 12], 0).xor_into(&mut blob);
            prev_1m.put(&format!("layer.{i:02}"), blob);
        }
        prev_1m.put("tor.state", vec![0x5a; 1024]);
        prev_1m.put("meta", b"name=bench;model=Persistent".to_vec());
        let mut next_1m = prev_1m.clone();
        next_1m.put("tor.state", vec![0xa5; 1024]);
        next_1m.put("meta", b"name=bench;model=Persistent;rev=2".to_vec());

        group.bench_function("delta_save_2dirty_of_1m", |b| {
            let mut rng = Rng::seed_from(7);
            let key = SealKey::derive("pw", "nym:bench", &mut rng);
            let mut scratch = SealScratch::new();
            let mut out = Vec::new();
            let mut commitment = ArchiveCommitment::build(&prev_1m);
            black_box(commitment.root());
            let mut flip = false;
            b.iter(|| {
                let to = if flip { &prev_1m } else { &next_1m };
                flip = !flip;
                black_box(seal_dirty_2(
                    black_box(to),
                    &mut commitment,
                    &key,
                    &mut rng,
                    &mut scratch,
                    &mut out,
                ))
            });
        });
    }
    // Sub-record chunked deltas vs the record-granular baseline: one
    // 4 KiB write inside an incompressible 64 KiB disk record. The
    // NYMD path re-seals the whole record; the CAS path re-chunks it
    // (content-defined boundaries keep the edit local), uploads only
    // the chunks the write touched, and ships a delta carrying the new
    // "NYMC" manifest.
    use nymix_store::cas::{seal_new_chunks_into, ChunkIndex, ChunkManifest};
    use nymix_store::{chunker, LocalStore, ObjectBackend};

    let disk = {
        // Deterministic incompressible filler (browser caches are
        // mostly media); seed picked so a mid-size chunk hosts the
        // whole 4 KiB edit — the typical case for a cache write.
        let mut data = vec![0u8; 64 * 1024];
        nymix_crypto::ChaCha20::new(&[0xA7; 32], &[3u8; 12], 0).xor_into(&mut data);
        data
    };
    let edit_at = {
        let mut offset = 0usize;
        let mut site = None;
        for c in chunker::chunks(&disk) {
            if c.len() >= 4096 + 256 {
                site = Some(offset + 128);
                break;
            }
            offset += c.len();
        }
        site.expect("a chunk can host the 4 KiB edit")
    };
    let mut disk2 = disk.clone();
    nymix_crypto::ChaCha20::new(&[0xB9; 32], &[4u8; 12], 0)
        .xor_into(&mut disk2[edit_at..edit_at + 4096]);

    let (mut raw_prev, mut raw_next) = (NymArchive::new(), NymArchive::new());
    for a in [&mut raw_prev, &mut raw_next] {
        a.put("meta", b"name=bench;model=Persistent".to_vec());
        a.put("tor.state", vec![0x5a; 1024]);
    }
    raw_prev.put("anonvm.disk", disk.clone());
    raw_next.put("anonvm.disk", disk2.clone());

    group.bench_function("nymd_delta_save_4k_of_64k", |b| {
        let mut rng = Rng::seed_from(7);
        let key = SealKey::derive("pw", "nym:bench", &mut rng);
        let mut scratch = SealScratch::new();
        let mut out = Vec::new();
        b.iter(|| {
            let delta = DeltaArchive::diff(black_box(&raw_prev), black_box(&raw_next));
            seal_into(
                Sealable::Delta(&delta),
                &key,
                "l#e1.1",
                &mut rng,
                &mut scratch,
                &mut out,
            );
            black_box(out.len())
        });
    });

    group.bench_function("chunked_delta_save_4k_of_64k", |b| {
        let mut rng = Rng::seed_from(7);
        let key = SealKey::derive("pw", "nym:bench", &mut rng);
        let mut scratch = SealScratch::new();
        let mut out = Vec::new();
        // Warm chain: the base's chunks are already uploaded.
        let m1 = ChunkManifest::build(&disk);
        let mut index = ChunkIndex::new();
        let mut backend = LocalStore::new();
        let mut staged = Vec::new();
        seal_new_chunks_into(
            &disk,
            &m1,
            &mut index,
            &key,
            "l#e1",
            &mut rng,
            &mut scratch,
            &mut staged,
        );
        backend.apply_batch(staged, Vec::new()).expect("local put");
        let mut prev_m = raw_prev.clone();
        prev_m.put("anonvm.disk", m1.to_bytes());
        b.iter(|| {
            // The incremental-save critical path: re-chunk the dirty
            // record, upload only new chunks, diff + seal the
            // manifest-bearing delta.
            let m2 = ChunkManifest::build(black_box(&disk2));
            let mut idx = index.clone();
            let mut staged = Vec::new();
            let uploaded = seal_new_chunks_into(
                &disk2,
                &m2,
                &mut idx,
                &key,
                "l#e1",
                &mut rng,
                &mut scratch,
                &mut staged,
            );
            backend.apply_batch(staged, Vec::new()).expect("local put");
            let mut next_m = prev_m.clone();
            next_m.put("anonvm.disk", m2.to_bytes());
            let delta = DeltaArchive::diff(&prev_m, &next_m);
            seal_into(
                Sealable::Delta(&delta),
                &key,
                "l#e1.1",
                &mut rng,
                &mut scratch,
                &mut out,
            );
            black_box(uploaded + out.len())
        });
    });

    // The entropy gate on the chunk-seal path: incompressible chunks
    // skip the LZSS match finder (stored all-literal body, identical
    // wire format) while text keeps compressing. `_random_lzss` is the
    // match-finder pass the gate skips; `_random_stored` and
    // `_text_lzss` are the gated chunk seal itself.
    {
        let mut random_chunk = vec![0u8; 64 * 1024];
        nymix_crypto::ChaCha20::new(&[0x5E; 32], &[7u8; 12], 0).xor_into(&mut random_chunk);
        let text_chunk = markup_64k();
        let mut rng = Rng::seed_from(7);
        let key = SealKey::derive("pw", "nym:bench", &mut rng);
        let mut scratch = SealScratch::new();
        let mut out = Vec::new();
        group.bench_function("chunk_seal_64k_random_lzss", |b| {
            let mut compressor = nymix_store::lzss::Compressor::new();
            b.iter(|| {
                out.clear();
                compressor.compress_into(black_box(&random_chunk), &mut out);
                black_box(out.len())
            });
        });
        group.bench_function("chunk_seal_64k_random_stored", |b| {
            b.iter(|| {
                seal_into(
                    Sealable::Chunk(black_box(&random_chunk)),
                    &key,
                    "l#e1/c/ab",
                    &mut rng,
                    &mut scratch,
                    &mut out,
                );
                black_box(out.len())
            });
        });
        group.bench_function("chunk_seal_64k_text_lzss", |b| {
            b.iter(|| {
                seal_into(
                    Sealable::Chunk(black_box(&text_chunk)),
                    &key,
                    "l#e1/c/cd",
                    &mut rng,
                    &mut scratch,
                    &mut out,
                );
                black_box(out.len())
            });
        });
    }

    group.bench_function("delta_restore_replay_64k", |b| {
        let mut rng = Rng::seed_from(7);
        let key = SealKey::derive("pw", "nym:bench", &mut rng);
        let mut scratch = SealScratch::new();
        let (mut out, mut work) = (Vec::new(), Vec::new());
        let delta = DeltaArchive::diff(&prev, &next);
        seal_into(
            Sealable::Delta(&delta),
            &key,
            "nym:bench#e1.1",
            &mut rng,
            &mut scratch,
            &mut out,
        );
        b.iter(|| {
            let bytes =
                unseal_into(&out, &key, "nym:bench#e1.1", &mut work, &mut scratch).expect("opens");
            let delta = DeltaArchive::from_bytes(bytes).expect("parses");
            let mut base = black_box(&prev).clone();
            let mut commitment = ArchiveCommitment::build(&base);
            delta.apply(&mut base, &mut commitment).expect("verifies");
            black_box(base.record_count())
        });
    });
    group.finish();
}

fn bench_ksm(c: &mut Criterion) {
    use nymix_vmm::{PageClass, VmMemory};
    let mut vms = Vec::new();
    for i in 0..4u64 {
        let mut m = VmMemory::allocate(i, 64 * 1024 * 1024);
        m.fill(0, 2000, PageClass::Shared(0));
        m.fill(2000, 10_000, PageClass::Unique(0));
        vms.push(m);
    }
    c.bench_function("ksm_scan_4x64MiB", |b| {
        b.iter(|| black_box(nymix_vmm::ksm::scan(vms.iter().map(|v| v.page_ids()))));
    });
}

criterion_group!(benches, bench_crypto, bench_kdf, bench_seal, bench_ksm);
fn main() {
    // The CI bench-smoke job sets NYMIX_BENCH_SMOKE=1: record obs
    // metrics across the run and emit the merged snapshot, so the
    // cheap-op counters (AEAD seals, SHA-256 blocks, KDF calls) land
    // in the job log next to the timings they explain.
    let smoke = std::env::var("NYMIX_BENCH_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0");
    if smoke {
        nymix_obs::set_enabled(true);
        // Record which SHA-256 backend dispatch selected: the call
        // publishes the crypto.sha256.backend gauge, so the snapshot
        // says which kernel produced the numbers above it.
        let _ = nymix_crypto::sha256_backend();
    }
    benches();
    if smoke {
        println!("{}", nymix_obs::snapshot().to_json());
    }
}
