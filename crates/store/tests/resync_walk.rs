//! Pins the `chunker.bytes_walked` and `crypto.sha256.blocks` counters
//! for a one-entry edit of a 768 KiB layer record: the save splices the
//! record from its cached previous version, walks the chunker only from
//! the last cached cut before the edit until its cuts land on the
//! cached ones again, and hashes only the chunks it could not reuse. This
//! binary holds one test on purpose: it turns the process-global
//! recorder on, and a sibling test chunking on another harness thread
//! would land in the measured window.

use nymix_fs::{Layer, LayerKind, Path};
use nymix_store::archive::splice_layer;
use nymix_store::{build_manifest, ChunkManifest, ManifestScratch, NymArchive, PrevChunks};

/// `(chunker.bytes_walked, crypto.sha256.blocks)` so far.
fn counters() -> (u64, u64) {
    let snapshot = nymix_obs::snapshot();
    let get = |want: &str| {
        snapshot
            .counters
            .iter()
            .find(|(name, _)| *name == want)
            .map_or(0, |(_, n)| *n)
    };
    (get("chunker.bytes_walked"), get("crypto.sha256.blocks"))
}

/// Deterministic filler (xorshift64*).
fn noise(seed: u64, len: usize) -> Vec<u8> {
    let mut x = seed | 1;
    (0..len)
        .map(|_| {
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 56) as u8
        })
        .collect()
}

#[test]
fn one_entry_edit_of_a_768k_record_resyncs_within_a_few_chunks() {
    // 707 cache files of 1,056 bytes in 8 site directories, as a
    // browsing nym's AnonVM disk holds them.
    let mut layer = Layer::new(LayerKind::Writable);
    for i in 0..707u64 {
        let path = format!("/home/user/.cache/chromium/site-{}/obj-{i:08}", i % 8);
        layer.put_file(Path::new(&path), noise(i, 1056));
    }
    let mut archive = NymArchive::new();
    archive.put_layer("anonvm.disk", &layer);
    let cached = archive.get("anonvm.disk").unwrap().to_vec();
    assert_eq!(cached.len() / 1024, 768);
    let (gen, manifest) = (layer.generation(), ChunkManifest::build(&cached));

    layer.put_file(
        Path::new("/home/user/.cache/chromium/site-3/obj-00000347"),
        noise(0xED17, 1056),
    );
    let mut runs = Vec::new();
    let mut out = ChunkManifest::default();
    nymix_obs::set_enabled(true);
    let before = counters();
    let spliced = splice_layer(&layer, Some((&cached, gen)), &mut runs);
    let prev = PrevChunks {
        raw: &cached,
        manifest: &manifest,
        copied: &runs,
    };
    build_manifest(
        &spliced,
        Some(prev),
        &mut ManifestScratch::default(),
        &mut out,
    );
    let after = counters();
    let (walked, blocks) = (after.0 - before.0, after.1 - before.1);
    nymix_obs::set_enabled(false);

    assert_eq!(out, ChunkManifest::build(&spliced));
    assert_eq!(spliced.len(), cached.len());
    // The walk covers the chunks from the last cached cut before the
    // edited entry to the first cut landing on a cached one: 2.3% of
    // the record, where a whole walk covers all of it.
    assert_eq!(walked, 17_842, "walked {walked} of {} bytes", spliced.len());
    // Every chunk the cached manifest lacks is hashed once, as its
    // 16-byte domain tag, its bytes and the 9 bytes of padding rounded
    // up to 64-byte blocks; no reused chunk is hashed.
    let misses: u64 = out
        .chunks()
        .filter(|(id, _)| !manifest.chunks().any(|(cached, _)| cached == *id))
        .map(|(_, len)| (16 + len as u64 + 9).div_ceil(64))
        .sum();
    assert!(misses > 0, "the edit must change a chunk");
    assert_eq!(blocks, misses, "hashed {blocks} blocks, {misses} missed");
}
