//! Pins the `chunker.bytes_walked` counter for a one-entry edit of a
//! 768 KiB layer record: the save splices the record from its cached
//! previous version and walks the chunker only from the last cached cut
//! before the edit until its cuts land on the cached ones again. This
//! binary holds one test on purpose: it turns the process-global
//! recorder on, and a sibling test chunking on another harness thread
//! would land in the measured window.

use nymix_fs::{Layer, LayerKind, Path};
use nymix_store::archive::splice_layer;
use nymix_store::{build_manifests, ChunkManifest, ManifestScratch, NymArchive, PrevChunks};

fn bytes_walked() -> u64 {
    nymix_obs::snapshot()
        .counters
        .iter()
        .find(|(name, _)| *name == "chunker.bytes_walked")
        .map_or(0, |(_, n)| *n)
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
    let mut out = Vec::new();
    nymix_obs::set_enabled(true);
    let before = bytes_walked();
    let spliced = splice_layer(&layer, Some((&cached, gen)), &mut runs);
    let prev = PrevChunks {
        raw: &cached,
        manifest: &manifest,
        copied: &runs,
    };
    build_manifests(
        &[(&spliced, Some(prev))],
        &mut ManifestScratch::default(),
        &mut out,
    );
    let walked = bytes_walked() - before;
    nymix_obs::set_enabled(false);

    assert_eq!(out[0], ChunkManifest::build(&spliced));
    assert_eq!(spliced.len(), cached.len());
    // The walk covers the chunks from the last cached cut before the
    // edited entry to the first cut landing on a cached one: 2.3% of
    // the record, where a whole walk covers all of it.
    assert_eq!(walked, 17_842, "walked {walked} of {} bytes", spliced.len());
}
