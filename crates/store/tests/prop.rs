//! Property-based tests for the storage pipeline.

use nymix_sim::Rng;
use nymix_store::{
    build_manifest, chunker, lzss, seal_into, unseal_into, ChunkManifest, DeltaArchive,
    ManifestScratch, NymArchive, PrevChunks, SealKey, SealScratch, Sealable, SealedError,
    MAX_CHUNK,
};
use proptest::prelude::*;

proptest! {
    #[test]
    fn lzss_roundtrip_any_bytes(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
        let packed = lzss::compress(&data);
        prop_assert_eq!(lzss::decompress(&packed).unwrap(), data);
    }

    #[test]
    fn lzss_roundtrip_repetitive(unit in proptest::collection::vec(any::<u8>(), 1..16),
                                 reps in 1usize..400) {
        let data: Vec<u8> = unit.iter().copied().cycle().take(unit.len() * reps).collect();
        let packed = lzss::compress(&data);
        prop_assert_eq!(lzss::decompress(&packed).unwrap(), data);
    }

    #[test]
    fn lzss_decompress_never_panics(garbage in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = lzss::decompress(&garbage); // Result, not panic.
    }

    #[test]
    fn lzss_roundtrips_repeated_unit_with_noisy_tail(
        unit in proptest::collection::vec(any::<u8>(), 1..24),
        reps in 1usize..200,
        noise in proptest::collection::vec(any::<u8>(), 0..64)) {
        // Browser-cache-shaped input: a repeated unit with a noisy tail.
        let mut data: Vec<u8> = unit.iter().copied().cycle().take(unit.len() * reps).collect();
        data.extend_from_slice(&noise);
        let packed = lzss::compress(&data);
        prop_assert_eq!(lzss::decompress(&packed).unwrap(), &data[..]);
    }

    #[test]
    fn lzss_reused_compressor_matches_fresh(
        steps in proptest::collection::vec((any::<bool>(), 0usize..4096, any::<u64>(), 1u8..6), 1..8)) {
        // One compressor takes long inputs (past the chain ring) and
        // short ones in any order. Its chain ring is never cleared, so a
        // stale link from an earlier call reaching the walk would show
        // here as a stream differing from a fresh compressor's.
        let mut c = lzss::Compressor::new();
        let mut out = Vec::new();
        for (long, len, seed, alphabet) in steps {
            let len = if long { 9_000 + 4 * len } else { len / 16 };
            // A small alphabet plus a repeated unit: long chains, many
            // candidates per hash bucket.
            let mut x = seed | 1;
            let unit: Vec<u8> = (0..1 + seed % 64).map(|k| (k * 31) as u8).collect();
            let data: Vec<u8> = (0..len)
                .map(|i| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    if x % 4 == 0 {
                        b'a' + (x >> 8) as u8 % alphabet
                    } else {
                        unit[i % unit.len()]
                    }
                })
                .collect();
            out.clear();
            c.compress_into(&data, &mut out);
            prop_assert_eq!(&out, &lzss::compress(&data), "len {}", len);
        }
    }

    #[test]
    fn archive_roundtrip(records in proptest::collection::vec(
        ("[a-z]{1,12}", proptest::collection::vec(any::<u8>(), 0..256)), 0..8)) {
        let mut a = NymArchive::new();
        for (name, data) in &records {
            a.put(name, data.clone());
        }
        let b = NymArchive::from_bytes(&a.to_bytes()).unwrap();
        prop_assert_eq!(a, b);
    }

    // The archive parsers are the trust boundary for bytes fetched from
    // an untrusted backend: arbitrary input must parse or error, never
    // panic and never over-reserve (this suite also runs under
    // `--release`, where unchecked arithmetic wraps instead of
    // panicking — the profile the `Reader::take` overflow shipped in).
    #[test]
    fn archive_parser_never_panics(garbage in proptest::collection::vec(any::<u8>(), 0..2048)) {
        if let Ok(a) = NymArchive::from_bytes(&garbage) {
            // Parseable garbage must re-serialize to the same bytes.
            prop_assert_eq!(a.to_bytes(), garbage);
        }
    }

    #[test]
    fn delta_parser_never_panics(garbage in proptest::collection::vec(any::<u8>(), 0..2048)) {
        if let Ok(d) = DeltaArchive::from_bytes(&garbage) {
            prop_assert_eq!(d.to_bytes(), garbage);
        }
    }

    #[test]
    fn magic_prefixed_garbage_never_panics(tail in proptest::collection::vec(any::<u8>(), 0..512),
                                           which in 0u8..2) {
        // Force the parser past the magic check into the length-driven
        // record loops.
        let mut bytes = if which == 0 { b"NYM1".to_vec() } else { b"NYMD".to_vec() };
        bytes.extend_from_slice(&tail);
        let _ = NymArchive::from_bytes(&bytes);
        let _ = DeltaArchive::from_bytes(&bytes);
    }

    #[test]
    fn mutated_valid_archive_parses_or_errors(
        records in proptest::collection::vec(
            ("[a-z]{1,12}", proptest::collection::vec(any::<u8>(), 0..128)), 1..6),
        flip in any::<usize>(), bit in 0u8..8) {
        let mut a = NymArchive::new();
        for (name, data) in &records {
            a.put(name, data.clone());
        }
        let mut bytes = a.to_bytes();
        let n = bytes.len();
        bytes[flip % n] ^= 1 << bit;
        // Any single-bit corruption parses or errors — and whatever
        // parses must survive layer extraction attempts too.
        if let Ok(parsed) = NymArchive::from_bytes(&bytes) {
            for name in parsed.names() {
                let _ = parsed.get_layer(name);
            }
        }
    }

    #[test]
    fn mutated_valid_delta_parses_or_errors(
        seed_data in proptest::collection::vec(any::<u8>(), 1..128),
        flip in any::<usize>(), bit in 0u8..8) {
        let mut prev = NymArchive::new();
        prev.put("disk", seed_data.clone());
        prev.put("meta", b"m".to_vec());
        let mut next = prev.clone();
        next.put("disk", [seed_data, vec![1, 2, 3]].concat());
        next.remove("meta");
        let delta = DeltaArchive::diff(&prev, &next);
        let mut bytes = delta.to_bytes();
        let n = bytes.len();
        bytes[flip % n] ^= 1 << bit;
        if let Ok(mutated) = DeltaArchive::from_bytes(&bytes) {
            // Replay of a corrupted-but-parseable delta must verify
            // (the flip hit bytes outside the commitment's view, i.e.
            // re-encode identically) or fail closed — never panic.
            let mut base = prev.clone();
            let reencoded = mutated.to_bytes();
            if mutated.apply(&mut base).is_ok() {
                prop_assert_eq!(reencoded, delta.to_bytes());
            }
        }
    }

    // The chunker feeds the content-addressed store: its boundaries
    // must be deterministic, lossless, within bounds, and local to an
    // edit — otherwise chunk IDs churn and dedup evaporates.
    #[test]
    fn chunker_is_deterministic_lossless_and_bounded(
        data in proptest::collection::vec(any::<u8>(), 0..100_000)) {
        let a: Vec<&[u8]> = chunker::chunks(&data).collect();
        let b: Vec<&[u8]> = chunker::chunks(&data).collect();
        prop_assert_eq!(&a, &b, "chunking must be deterministic");
        prop_assert_eq!(a.concat(), data.clone());
        for (i, c) in a.iter().enumerate() {
            prop_assert!(!c.is_empty());
            prop_assert!(c.len() <= chunker::MAX_CHUNK);
            if i + 1 < a.len() {
                prop_assert!(c.len() >= chunker::MIN_CHUNK, "short non-tail chunk");
            }
        }
    }

    #[test]
    fn chunker_single_byte_edit_is_local(
        data in proptest::collection::vec(any::<u8>(), 20_000..80_000),
        at in any::<usize>(), flip in 1u8..255) {
        let before: Vec<Vec<u8>> = chunker::chunks(&data).map(<[u8]>::to_vec).collect();
        let mut edited = data.clone();
        let at = at % edited.len();
        edited[at] ^= flip;
        let after: Vec<Vec<u8>> = chunker::chunks(&edited).map(<[u8]>::to_vec).collect();
        // Chunks strictly before the edit are untouched (boundaries are
        // decided left to right from the previous boundary)...
        let mut offset = 0usize;
        for (a, b) in before.iter().zip(after.iter()) {
            if offset + a.len() > at {
                break;
            }
            prop_assert_eq!(a, b, "pre-edit chunk at {} changed", offset);
            offset += a.len();
        }
        // ...and the edit perturbs only a handful of chunks before the
        // streams re-synchronize.
        let prefix = before.iter().zip(after.iter()).take_while(|(a, b)| a == b).count();
        let suffix = before.iter().rev().zip(after.iter().rev())
            .take_while(|(a, b)| a == b).count();
        let changed = before.len().max(after.len()).saturating_sub(prefix + suffix);
        prop_assert!(changed <= 4, "edit changed {} of {} chunks", changed, before.len());
    }

    #[test]
    fn chunker_resyncs_after_prefix_insertion(
        prefix in proptest::collection::vec(any::<u8>(), 1..5_000),
        stream_len in 40_000usize..90_000,
        stream_seed in any::<u64>()) {
        // Concatenating new bytes in front of a stream must re-chunk
        // identically past the edit window: once a boundary of the
        // longer stream lands on a boundary of the original, every
        // later chunk is byte-identical (this is what makes insertions
        // cheap, where fixed-size chunking would shift every block).
        // The stream is entropy-rich by construction — cut candidates
        // are content-defined, so a pathological constant stream has
        // none and only MAX-forced (offset-relative) cuts.
        let mut stream = vec![0u8; stream_len];
        let mut x = stream_seed | 1;
        for b in stream.iter_mut() {
            x ^= x >> 12; x ^= x << 25; x ^= x >> 27;
            *b = (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 56) as u8;
        }
        let shifted: Vec<u8> = prefix.iter().chain(stream.iter()).copied().collect();
        let orig: Vec<Vec<u8>> = chunker::chunks(&stream).map(<[u8]>::to_vec).collect();
        let moved: Vec<Vec<u8>> = chunker::chunks(&shifted).map(<[u8]>::to_vec).collect();
        let shared_suffix = orig.iter().rev().zip(moved.iter().rev())
            .take_while(|(a, b)| a == b).count();
        let tail_bytes: usize = orig.iter().rev().take(shared_suffix).map(Vec::len).sum();
        prop_assert!(
            stream.len() - tail_bytes <= prefix.len() + 6 * chunker::AVG_CHUNK,
            "resync took {} bytes ({} shared trailing chunks of {})",
            stream.len() - tail_bytes, shared_suffix, orig.len()
        );
    }

    #[test]
    fn chunker_cut_short_of_the_end_ignores_the_bytes_after_it(
        data in proptest::collection::vec(any::<u8>(), 0..80_000),
        constant in any::<bool>(),
        keep in any::<usize>(),
        tail in proptest::collection::vec(any::<u8>(), 0..70_000)) {
        // The resync takes a cached chunk on a memcmp of its own bytes
        // alone: a cut short of the end must not move with the bytes
        // after it. Constant input reaches the forced MAX_CHUNK cut.
        let data = if constant { vec![7u8; data.len() * 2] } else { data };
        let Some(cut) = chunker::chunks(&data).next().map(<[u8]>::len) else { return; };
        prop_assume!(cut < data.len());
        let shorter = &data[..cut + keep % (data.len() - cut + 1)];
        prop_assert_eq!(chunker::chunks(shorter).next().map(<[u8]>::len), Some(cut));
        let other = [&data[..cut], &tail[..]].concat();
        prop_assert_eq!(chunker::chunks(&other).next().map(<[u8]>::len), Some(cut));
    }

    #[test]
    fn reused_chunk_ids_equal_a_fresh_build(
        len in 20_000usize..80_000,
        seed in any::<u64>(),
        edits in proptest::collection::vec(
            (0u8..4, any::<usize>(), 1usize..6_000, any::<u64>()), 1..5)) {
        // Each step edits the record (overwrite, insert, delete or
        // append), then builds its manifest reusing ids from the
        // previous version, the way consecutive saves chain the cache.
        // With the same scratch, the previous version with no cache must
        // rebuild its own manifest.
        let mut data = noise(seed, len);
        let mut prev = (data.clone(), ChunkManifest::build(&data));
        let mut scratch = ManifestScratch::default();
        let (mut out, mut rebuilt) = (ChunkManifest::default(), ChunkManifest::default());
        for (kind, at, n, fill) in edits {
            let at = at % (data.len() + 1);
            let end = (at + n).min(data.len());
            match kind {
                0 => data[at..end].copy_from_slice(&noise(fill, end - at)),
                1 => drop(data.splice(at..at, noise(fill, n))),
                2 => drop(data.drain(at..end)),
                _ => data.extend_from_slice(&noise(fill, n)),
            }
            let cached = PrevChunks { raw: &prev.0, manifest: &prev.1, copied: &[] };
            build_manifest(&data, Some(cached), &mut scratch, &mut out);
            build_manifest(&prev.0, None, &mut scratch, &mut rebuilt);
            prop_assert_eq!(&out, &ChunkManifest::build(&data));
            prop_assert_eq!(&rebuilt, &prev.1);
            prev = (data.clone(), out.clone());
        }
    }

    #[test]
    fn reused_chunk_ids_never_trust_length_and_head_alone(
        full in 1usize..4,
        tail in 0usize..3_000,
        flips in proptest::collection::vec(any::<usize>(), 1..4),
        x in 1u8..255) {
        // Constant bytes never fire a content-defined cut, so every
        // chunk but the tail is MAX_CHUNK long and starts with the same
        // 8 bytes. Changing a chunk's last byte keeps both its length
        // and its head: every cached chunk is a lookup candidate, and
        // only the memcmp can tell them apart.
        let old = vec![7u8; full * MAX_CHUNK + tail];
        let mut new = old.clone();
        for k in flips {
            new[(k % full + 1) * MAX_CHUNK - 1] ^= x;
        }
        let prev = ChunkManifest::build(&old);
        let fresh = ChunkManifest::build(&new);
        let lens = |m: &ChunkManifest| m.chunks().map(|(_, l)| l).collect::<Vec<_>>();
        prop_assert_eq!(lens(&fresh), lens(&prev));
        let mut out = ChunkManifest::default();
        let cached = PrevChunks { raw: &old, manifest: &prev, copied: &[] };
        build_manifest(&new, Some(cached), &mut ManifestScratch::default(), &mut out);
        prop_assert_eq!(&out, &fresh);
    }

    // NYMC manifests ride inside archives fetched from untrusted
    // backends: the parser must never panic, and whatever parses must
    // re-serialize identically (same guarantee the NYM1/NYMD parsers
    // give).
    #[test]
    fn manifest_parser_never_panics(garbage in proptest::collection::vec(any::<u8>(), 0..2048)) {
        if let Ok(m) = ChunkManifest::from_bytes(&garbage) {
            prop_assert_eq!(m.to_bytes(), garbage);
        }
    }

    #[test]
    fn manifest_magic_prefixed_garbage_never_panics(
        tail in proptest::collection::vec(any::<u8>(), 0..512)) {
        let mut bytes = b"NYMC".to_vec();
        bytes.extend_from_slice(&tail);
        let _ = ChunkManifest::from_bytes(&bytes);
    }

    #[test]
    fn mutated_valid_manifest_parses_or_errors(
        len in 33_000usize..120_000,
        seed in any::<u64>(),
        flip in any::<usize>(), bit in 0u8..8) {
        // A real manifest with one flipped bit parses (re-encoding
        // identically, i.e. the flip landed in an id) or errors; the
        // structural invariants (lengths bounded and summing to the
        // total) catch every length corruption.
        let mut data = vec![0u8; len];
        let mut x = seed | 1;
        for b in data.iter_mut() {
            x ^= x >> 12; x ^= x << 25; x ^= x >> 27;
            *b = (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 56) as u8;
        }
        let manifest = ChunkManifest::build(&data);
        let mut bytes = manifest.to_bytes();
        let n = bytes.len();
        bytes[flip % n] ^= 1 << bit;
        if let Ok(parsed) = ChunkManifest::from_bytes(&bytes) {
            prop_assert_eq!(parsed.to_bytes(), bytes);
            prop_assert_eq!(parsed.total_len(),
                parsed.chunks().map(|(_, l)| l).sum::<usize>());
        }
    }

    #[test]
    fn sealed_roundtrip(noise in proptest::collection::vec(any::<u8>(), 0..2048),
                        unit in proptest::collection::vec(any::<u8>(), 1..16),
                        reps in 1usize..200,
                        seed in any::<u64>()) {
        let text: Vec<u8> = unit.iter().copied().cycle().take(unit.len() * reps).collect();
        let (_, blobs) = sealed_chain(&noise, &text, seed);
        // Restore's path: one KDF from the base blob opens every kind.
        let key = SealKey::from_blob("pw", "nym:prop", &blobs[0].1).unwrap();
        let (mut work, mut scratch) = (Vec::new(), SealScratch::new());
        for (label, blob, plain) in &blobs {
            let opened = unseal_into(blob, &key, label, &mut work, &mut scratch).unwrap();
            prop_assert_eq!(opened, &plain[..]);
        }
    }

    #[test]
    fn sealed_bitflip_always_detected(noise in proptest::collection::vec(any::<u8>(), 0..2048),
                                      seed in any::<u64>(),
                                      flip in any::<usize>(),
                                      bit in 0u8..8) {
        // A flip in the magic is malformed, in the salt another epoch's
        // blob, in the nonce, body or tag an AEAD failure: every single
        // bit of every kind of blob is covered.
        let (key, blobs) = sealed_chain(&noise, b"<p>post</p>", seed);
        let (mut work, mut scratch) = (Vec::new(), SealScratch::new());
        for (label, blob, _) in &blobs {
            let mut evil = blob.clone();
            evil[flip % blob.len()] ^= 1 << bit;
            prop_assert!(unseal_into(&evil, &key, label, &mut work, &mut scratch).is_err());
        }
    }

    #[test]
    fn sealed_truncation_always_rejected(noise in proptest::collection::vec(any::<u8>(), 0..2048),
                                         seed in any::<u64>(),
                                         cut in any::<usize>()) {
        let (key, blobs) = sealed_chain(&noise, b"<p>post</p>", seed);
        let (mut work, mut scratch) = (Vec::new(), SealScratch::new());
        for (label, blob, _) in &blobs {
            let short = &blob[..cut % blob.len()];
            prop_assert!(unseal_into(short, &key, label, &mut work, &mut scratch).is_err());
            // Deriving a key from a truncated blob errors or succeeds,
            // never panics.
            let _ = SealKey::from_blob("pw", label, short);
        }
    }

    #[test]
    fn sealed_other_epoch_key_fails_auth(noise in proptest::collection::vec(any::<u8>(), 0..2048),
                                         seed in any::<u64>(),
                                         other in any::<u64>()) {
        prop_assume!(seed != other);
        let (_, blobs) = sealed_chain(&noise, b"<p>post</p>", seed);
        let stale = SealKey::derive("pw", "nym:prop", &mut Rng::seed_from(other));
        let (mut work, mut scratch) = (Vec::new(), SealScratch::new());
        for (label, blob, _) in &blobs {
            prop_assert_eq!(
                unseal_into(blob, &stale, label, &mut work, &mut scratch),
                Err(SealedError::AuthFailed)
            );
        }
    }
}

/// A labelled sealed blob with the plaintext it must unseal to.
type SealedObject = (&'static str, Vec<u8>, Vec<u8>);

/// One blob of every kind a save writes, under one chain-epoch key: the
/// full base archive, a delta on it, and two chunks (`noise` mostly
/// takes the entropy gate's stored body, `text` the compressed one).
fn sealed_chain(noise: &[u8], text: &[u8], seed: u64) -> (SealKey, [SealedObject; 4]) {
    let mut rng = Rng::seed_from(seed);
    let key = SealKey::derive("pw", "nym:prop", &mut rng);
    let mut base = NymArchive::new();
    base.put("anonvm.disk", noise.to_vec());
    base.put("meta", text.to_vec());
    let mut next = base.clone();
    next.put("browser.state", text.to_vec());
    let delta = DeltaArchive::diff(&base, &next);
    let mut scratch = SealScratch::new();
    let mut seal = |what: Sealable<'_>, label: &'static str, plain: Vec<u8>| {
        let mut blob = Vec::new();
        seal_into(what, &key, label, &mut rng, &mut scratch, &mut blob);
        (label, blob, plain)
    };
    let blobs = [
        seal(Sealable::Archive(&base), "nym:prop", base.to_bytes()),
        seal(Sealable::Delta(&delta), "nym:prop#e1.1", delta.to_bytes()),
        seal(Sealable::Chunk(noise), "nym:prop#e1/c/01", noise.to_vec()),
        seal(Sealable::Chunk(text), "nym:prop#e1/c/02", text.to_vec()),
    ];
    (key, blobs)
}

// ---------------------------------------------------------------------
// DiskStore crash consistency (hostile-bytes style, applied to the
// frame log and its superblocks).

use nymix_store::disk::{log, FileId};
use nymix_store::{CrashMode, DiskStore, FaultPlan, ObjectBackend};

/// Everything a store holds, by exhaustive read-back.
fn disk_contents(store: &mut DiskStore) -> Vec<(String, Vec<u8>)> {
    let mut names = Vec::new();
    store.list(&mut names).unwrap();
    names
        .into_iter()
        .map(|n| {
            let d = store.get(&n).unwrap().expect("listed object").to_vec();
            (n, d)
        })
        .collect()
}

/// Builds a store holding `objects`, runs one more batch with a fault
/// plan killing at `kill`, and returns the poisoned store (or None if
/// the batch completed before the kill point).
fn crashed_store(
    objects: &[(String, Vec<u8>)],
    batch: &[(String, Vec<u8>)],
    kill: u64,
) -> Option<DiskStore> {
    let mut s = DiskStore::new();
    if !objects.is_empty() {
        s.apply_batch(objects.to_vec(), Vec::new()).unwrap();
    }
    let base = s.disk().ops();
    s.set_fault_plan(FaultPlan::kill_at_op(base + kill));
    match s.apply_batch(batch.to_vec(), Vec::new()) {
        Ok(()) => None,
        Err(_) => Some(s),
    }
}

proptest! {
    // Recovering twice is recovering once: open(crash) and
    // open(open(crash).close()) observe identical contents.
    #[test]
    fn disk_recovery_is_idempotent(
        base in proptest::collection::vec(("[a-z]{1,8}", proptest::collection::vec(any::<u8>(), 0..200)), 0..4),
        batch in proptest::collection::vec(("[a-z]{1,8}", proptest::collection::vec(any::<u8>(), 0..200)), 1..4),
        kill in 0u64..8,
        mode_sel in any::<u8>()) {
        if let Some(s) = crashed_store(&base, &batch, kill) {
            let pending = s.disk().pending_writes();
            prop_assert!(pending <= 1, "kill {}: {} writes queued", kill, pending);
            let modes = CrashMode::covering_set(pending, 16);
            let mode = modes[mode_sel as usize % modes.len()];
            let img = s.crash(mode);
            let mut once = DiskStore::open(img.clone()).expect("recovery");
            let mut twice =
                DiskStore::open(DiskStore::open(img).expect("recovery").into_disk())
                    .expect("re-recovery");
            prop_assert_eq!(disk_contents(&mut once), disk_contents(&mut twice));
        }
    }

    // A crash leaves exactly the pre-batch or post-batch object set —
    // never a prefix, never a blend.
    #[test]
    fn disk_crash_is_all_or_nothing(
        base in proptest::collection::vec(("[a-z]{1,8}", proptest::collection::vec(any::<u8>(), 0..200)), 0..4),
        batch in proptest::collection::vec(("[a-z]{1,8}", proptest::collection::vec(any::<u8>(), 0..200)), 1..4),
        kill in 0u64..8,
        mode_sel in any::<u8>()) {
        let pre = {
            let mut s = DiskStore::new();
            if !base.is_empty() { s.apply_batch(base.clone(), Vec::new()).unwrap(); }
            disk_contents(&mut s)
        };
        let post = {
            let mut s = DiskStore::new();
            if !base.is_empty() { s.apply_batch(base.clone(), Vec::new()).unwrap(); }
            s.apply_batch(batch.clone(), Vec::new()).unwrap();
            disk_contents(&mut s)
        };
        if let Some(s) = crashed_store(&base, &batch, kill) {
            let pending = s.disk().pending_writes();
            prop_assert!(pending <= 1, "kill {}: {} writes queued", kill, pending);
            let modes = CrashMode::covering_set(pending, 16);
            let mode = modes[mode_sel as usize % modes.len()];
            let mut r = DiskStore::open(s.crash(mode)).expect("recovery");
            let got = disk_contents(&mut r);
            prop_assert!(got == pre || got == post,
                         "intermediate state after kill {} mode {:?}", kill, mode);
        }
    }

    // Arbitrary bytes at the log's committed end — crash residue, a
    // hostile trailing frame — or over the superblock slots: open never
    // panics, and if it returns a store, committed data stays readable.
    #[test]
    fn disk_trailing_bytes_parse_or_fail_closed(
        garbage in proptest::collection::vec(any::<u8>(), 0..512),
        in_superblocks in any::<bool>(),
        sb_at in 0usize..2 * log::SB_SLOT_LEN) {
        let mut s = DiskStore::new();
        s.put("committed", vec![0x5A; 64]).unwrap();
        let committed_end = s.committed_heap_len() as usize;
        let mut img = s.into_disk();
        // A hostile writer puts the garbage there and even gets it
        // synced.
        let (file, at) = if in_superblocks {
            (FileId::Journal, sb_at)
        } else {
            (FileId::Heap, committed_end)
        };
        img.write(file, at, &garbage).unwrap();
        img.fsync(file).unwrap();
        // Failing closed is acceptable; panicking is not.
        if let Ok(mut r) = DiskStore::open(img) {
            prop_assert_eq!(r.get("committed").unwrap(), Some(&[0x5A; 64][..]));
        }
    }

    // The frame decoder on arbitrary bytes, bare or behind the frame
    // magic: "not a frame" or a frame whose extents lie inside the
    // input, never a panic.
    #[test]
    fn disk_frame_decode_never_panics(
        garbage in proptest::collection::vec(any::<u8>(), 0..2048),
        with_magic in any::<bool>()) {
        let bytes = if with_magic { [&b"JBAT"[..], &garbage].concat() } else { garbage };
        if let Some(frame) = log::decode_frame(&bytes) {
            prop_assert!(frame.len <= bytes.len());
            for op in &frame.ops {
                if let log::Op::Put(_, loc) = op {
                    prop_assert!(loc.off + loc.len <= frame.len as u64);
                }
            }
        }
    }

    // The superblock decoder on arbitrary bytes, bare or behind the
    // superblock magic: "not a superblock" or a decoded one, never a
    // panic. A mutated valid slot never decodes to different values.
    #[test]
    fn disk_superblock_decode_never_panics(
        garbage in proptest::collection::vec(any::<u8>(), 0..128),
        with_magic in any::<bool>(),
        bit in 0usize..48 * 8) {
        let bytes = if with_magic { [&b"NYMJ"[..], &garbage].concat() } else { garbage };
        let _ = log::decode_superblock(&bytes);
        let sb = log::Superblock { gen: 3, applied_seq: 2, log_len: 900 };
        let mut slot = log::encode_superblock(&sb);
        slot[bit / 8] ^= 1 << (bit % 8);
        prop_assert_eq!(log::decode_superblock(&slot), None);
    }

    // Garbage accounting is a pure function of the log: after any
    // script of puts, overwrites and deletes, the live count equals the
    // one a reopen re-derives by scanning, and both equal the frame-op
    // footprints of every shadowed put (12 + data bytes for a one-byte
    // name) plus every committed delete (4).
    #[test]
    fn disk_garbage_matches_reopen(
        script in proptest::collection::vec(
            proptest::collection::vec((0usize..4, any::<bool>(), 0usize..64), 1..5),
            1..8)) {
        let names = ["a", "b", "c", "d"];
        let mut s = DiskStore::new();
        let mut model = std::collections::BTreeMap::new();
        let mut garbage = 0usize;
        for batch in &script {
            let puts: Vec<(String, Vec<u8>)> = batch
                .iter()
                .filter(|&&(_, put, _)| put)
                .map(|&(n, _, len)| (names[n].to_string(), vec![n as u8; len]))
                .collect();
            let deletes: Vec<String> = batch
                .iter()
                .filter(|&&(_, put, _)| !put)
                .map(|&(n, ..)| names[n].to_string())
                .collect();
            // Deleting a name neither live nor put in the batch is a
            // no-op, not a logged delete; a name deleted twice is
            // logged once.
            let mut logged: Vec<&String> = deletes
                .iter()
                .filter(|n| model.contains_key(*n) || puts.iter().any(|(p, _)| p == *n))
                .collect();
            logged.sort();
            logged.dedup();
            for (name, data) in &puts {
                garbage += model.insert(name.clone(), data.len()).map_or(0, |len| 12 + len);
            }
            for name in logged {
                garbage += 4 + model.remove(name).map_or(0, |len| 12 + len);
            }
            s.apply_batch(puts, deletes).unwrap();
            prop_assert_eq!(s.garbage_bytes(), garbage as u64);
        }
        let live = s.garbage_bytes();
        let want = disk_contents(&mut s);
        let mut reopened = DiskStore::open(s.into_disk()).unwrap();
        prop_assert_eq!(reopened.garbage_bytes(), live);
        prop_assert_eq!(disk_contents(&mut reopened), want);
    }

    // Any single bit flipped anywhere on either file: open returns a
    // store or an error, never panics — and if it returns a store, the
    // store is internally consistent (every listed object readable).
    #[test]
    fn disk_image_bitflip_never_panics(
        journal_file in any::<bool>(),
        bit in any::<usize>()) {
        let mut s = DiskStore::new();
        s.put("a", vec![1; 100]).unwrap();
        s.apply_batch(vec![("b".into(), vec![2; 50]), ("a".into(), vec![3; 25])], Vec::new()).unwrap();
        let mut img = s.into_disk();
        let file = if journal_file { FileId::Journal } else { FileId::Heap };
        let nbits = img.len(file).max(1) * 8;
        img.corrupt_durable_bit(file, bit % nbits);
        if let Ok(mut r) = DiskStore::open(img) {
            let mut names = Vec::new();
            r.list(&mut names).unwrap();
            for n in names {
                prop_assert!(r.get(&n).unwrap().is_some());
            }
        }
    }
}

// ---------------------------------------------------------------------
// Placement shards (NYMP) and the erasure layer. A shard blob fetched
// from a provider is hostile bytes — same trust boundary as the
// archive parsers above — and the placement store must never hand back
// wrong bytes while corruption stays within the geometry's tolerance.

use nymix_store::placement::{gf256, shard};
use nymix_store::{LocalStore, PlacementStore};

/// Seeded xorshift step shared by the placement proptests.
fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x >> 12;
    *x ^= *x << 25;
    *x ^= *x >> 27;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// Flips one seeded bit of child `ci`'s stored shard for `name`.
fn corrupt_child(store: &mut PlacementStore<LocalStore>, ci: usize, name: &str, x: &mut u64) {
    let mut blob = LocalStore::get(store.child_mut(ci), name)
        .expect("shard written")
        .to_vec();
    let bit = xorshift(x) as usize % (blob.len() * 8);
    blob[bit / 8] ^= 1 << (bit % 8);
    LocalStore::put(store.child_mut(ci), name, blob);
}

proptest! {
    #[test]
    fn shard_parser_never_panics(garbage in proptest::collection::vec(any::<u8>(), 0..2048)) {
        let _ = shard::decode_shard(&garbage, "chain#e1.2");
    }

    #[test]
    fn magic_prefixed_shard_garbage_never_accepted(
        tail in proptest::collection::vec(any::<u8>(), 0..512)) {
        // Force the parser past the magic/version checks into the
        // geometry/length gauntlet: random bytes can never satisfy the
        // 32-byte hash binding, so nothing here may ever be accepted.
        let mut bytes = shard::MAGIC.to_vec();
        bytes.push(shard::VERSION);
        bytes.extend_from_slice(&tail);
        prop_assert!(shard::decode_shard(&bytes, "x").is_err());
    }

    // Any k of the n erasure shards reconstruct the object exactly —
    // the identity the whole placement layer stands on.
    #[test]
    fn erasure_any_k_subset_reconstructs(
        k in 1usize..5, parity in 0usize..4,
        data in proptest::collection::vec(any::<u8>(), 0..4096),
        seed in any::<u64>()) {
        let n = k + parity;
        let shards = gf256::encode(&data, k, n);
        prop_assert_eq!(shards.len(), n);
        // A seeded Fisher-Yates picks which k shards survive.
        let mut order: Vec<usize> = (0..n).collect();
        let mut x = seed | 1;
        for i in (1..n).rev() {
            let j = xorshift(&mut x) as usize % (i + 1);
            order.swap(i, j);
        }
        let picked: Vec<(usize, &[u8])> =
            order[..k].iter().map(|&i| (i, shards[i].as_slice())).collect();
        let rebuilt = gf256::reconstruct(&picked, k, data.len()).expect("k shards suffice");
        prop_assert_eq!(rebuilt, data);
    }

    // Corrupting up to n−k stored shards never yields wrong bytes: the
    // per-shard hash excludes every corrupted shard *before* the
    // decoder runs, and the ≥ k intact survivors reconstruct exactly.
    #[test]
    fn corruption_within_tolerance_reconstructs_exactly(
        k in 1usize..4, parity in 0usize..3,
        data in proptest::collection::vec(any::<u8>(), 0..2048),
        seed in any::<u64>()) {
        let n = k + parity;
        let mut store = PlacementStore::new((0..n).map(|_| LocalStore::new()).collect(), k);
        store.put("obj", data.clone()).unwrap();
        let mut x = seed | 1;
        let corrupt = seed as usize % (parity + 1);
        for ci in 0..corrupt {
            corrupt_child(&mut store, ci, "obj", &mut x);
        }
        let got = store.get("obj").expect("k intact shards remain").expect("object present");
        prop_assert_eq!(got, &data[..]);
    }

    // Past the tolerance — fewer than k intact shards — the read fails
    // closed: an error, never absence and never wrong bytes.
    #[test]
    fn corruption_beyond_tolerance_fails_closed(
        k in 1usize..4, parity in 0usize..3,
        data in proptest::collection::vec(any::<u8>(), 0..2048),
        seed in any::<u64>()) {
        let n = k + parity;
        let mut store = PlacementStore::new((0..n).map(|_| LocalStore::new()).collect(), k);
        store.put("obj", data.clone()).unwrap();
        let mut x = seed | 1;
        let corrupt = parity + 1 + seed as usize % (n - parity);
        for ci in 0..corrupt {
            corrupt_child(&mut store, ci, "obj", &mut x);
        }
        prop_assert!(store.get("obj").is_err(), "read past tolerance must fail closed");
    }
}

/// Deterministic entropy-rich filler (xorshift64*): content-defined
/// cuts fire in it, as in real browser-cache bytes.
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

// Delta capture splices each layer record from its cached previous
// version and walks the chunker only until it resyncs with the cached
// cuts. Both must be invisible in the output: the spliced record is the
// layer's serialization, and the manifests are a fresh build's.
use nymix_fs::{Layer, LayerKind, Node, Path};
use nymix_store::archive::{deserialize_layer, splice_layer, CopiedRun};

/// A writable layer of `files` seeded files in five directories.
fn seeded_layer(files: usize, seed: u64) -> Layer {
    let mut layer = Layer::new(LayerKind::Writable);
    for i in 0..files as u64 {
        let len = (seed.rotate_left(i as u32) % 5_000) as usize;
        let path = format!("/d{}/f{i:04}", i % 5);
        layer.put_file(Path::new(&path), noise(seed ^ i, len));
    }
    layer
}

/// The layer's record as a whole serialization writes it.
fn serialized(layer: &Layer) -> Vec<u8> {
    let mut archive = NymArchive::new();
    archive.put_layer("layer", layer);
    archive.get("layer").unwrap().to_vec()
}

/// One scripted edit: insert, delete, rewrite in place, resize,
/// whiteout, remove-then-reinsert, an entry sorting first (the record's
/// first bytes), or the last entry and one sorting after it (its last
/// 64 KiB).
fn edit_layer(layer: &mut Layer, kind: u8, pick: usize, len: usize, fill: u64) {
    let files: Vec<Path> = layer
        .entries()
        .filter(|(_, node)| matches!(node, Node::File(_)))
        .map(|(path, _)| path.clone())
        .collect();
    let new = Path::new(&format!("/d{}/n{fill:016x}", pick % 6));
    let picked = files
        .get(pick % files.len().max(1))
        .cloned()
        .unwrap_or(new.clone());
    let size = |layer: &Layer, path: &Path| layer.get(path).map_or(0, Node::size);
    match kind {
        0 => layer.put_file(new, noise(fill, len)),
        // A directory goes while its entries stay, too.
        1 if fill.is_multiple_of(4) => drop(layer.remove(&Path::new(&format!("/d{}", pick % 5)))),
        1 => drop(layer.remove(&picked)),
        2 => {
            let same = size(layer, &picked);
            layer.put_file(picked, noise(fill, same));
        }
        3 => layer.put_file(picked, noise(fill, len)),
        4 => layer.put_whiteout(if pick.is_multiple_of(2) { picked } else { new }),
        5 => {
            if let Some(node) = layer.remove(&picked) {
                match node {
                    Node::File(data) => layer.put_file(picked, data),
                    Node::Dir => layer.put_dir(picked),
                    Node::Whiteout => layer.put_whiteout(picked),
                }
            }
        }
        6 => match files.first() {
            Some(first) if pick.is_multiple_of(2) => {
                layer.put_file(first.clone(), noise(fill, len))
            }
            _ => layer.put_file(Path::new(&format!("/!{fill:x}")), noise(fill, len)),
        },
        _ => {
            if let Some(last) = files.last() {
                let mut data = noise(fill, len);
                data.extend(noise(!fill, size(layer, last)));
                layer.put_file(last.clone(), data);
            }
            if pick.is_multiple_of(2) {
                layer.put_file(Path::new(&format!("/~{fill:x}")), noise(fill, len));
            }
        }
    }
}

/// Bytes an entry's node adds after its tag.
fn node_data_len(node: &Node) -> usize {
    match node {
        Node::File(data) => 8 + data.len(),
        Node::Dir | Node::Whiteout => 0,
    }
}

/// Scripted edits: per round, `(kind, pick, len, fill)` steps.
type Rounds = Vec<Vec<(u8, usize, usize, u64)>>;

fn rounds() -> impl Strategy<Value = Rounds> {
    proptest::collection::vec(
        proptest::collection::vec((0u8..8, any::<usize>(), 0usize..6_000, any::<u64>()), 1..5),
        1..4,
    )
}

/// The offset of every chunk of `manifest`, in order.
fn cuts(manifest: &ChunkManifest) -> Vec<usize> {
    let mut at = 0;
    manifest
        .chunks()
        .map(|(_, len)| {
            at += len;
            at - len
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn splice_equals_serialize_under_scripted_edits(
        files in 1usize..120, seed in any::<u64>(), rounds in rounds()) {
        // Each round edits the layer, then splices its record from the
        // previous round's, as consecutive saves chain the cache.
        let mut layer = seeded_layer(files, seed);
        let (mut cached, mut gen) = (serialized(&layer), layer.generation());
        let mut runs = Vec::new();
        for script in rounds {
            for (kind, pick, len, fill) in script {
                edit_layer(&mut layer, kind, pick, len, fill);
            }
            let spliced = splice_layer(&layer, Some((&cached, gen)), &mut runs);
            prop_assert_eq!(&spliced, &serialized(&layer));
            // The runs are copies, and they are every byte but the
            // count and the entries changed since `gen`.
            for r in &runs {
                prop_assert_eq!(&spliced[r.at..r.at + r.len], &cached[r.from..r.from + r.len]);
            }
            let encoded: usize = layer
                .entries_since(gen)
                .filter(|(path, _)| !path.is_root())
                .map(|(path, node)| 3 + path.to_string().len() + node_data_len(node))
                .sum();
            let copied: usize = runs.iter().map(|r| r.len).sum();
            prop_assert_eq!(4 + encoded + copied, spliced.len());
            (cached, gen) = (spliced, layer.generation());
        }
    }

    #[test]
    fn splice_after_a_restore_equals_serialize(
        files in 1usize..120, seed in any::<u64>(), before in rounds(), after in rounds()) {
        // A restore decodes each layer from its cached record, missing
        // ancestors included, and the next save splices from that
        // record as of the decoded generation.
        let mut layer = seeded_layer(files, seed);
        for (kind, pick, len, fill) in before.concat() {
            edit_layer(&mut layer, kind, pick, len, fill);
        }
        let cached = serialized(&layer);
        let mut restored = deserialize_layer(&cached).unwrap();
        let gen = restored.generation();
        let mut runs = Vec::new();
        prop_assert_eq!(splice_layer(&restored, Some((&cached, gen)), &mut runs), serialized(&restored));
        for (kind, pick, len, fill) in after.concat() {
            edit_layer(&mut restored, kind, pick, len, fill);
        }
        prop_assert_eq!(splice_layer(&restored, Some((&cached, gen)), &mut runs), serialized(&restored));
    }

    #[test]
    fn resynced_manifests_equal_a_fresh_build(
        files in 20usize..120, seed in any::<u64>(), rounds in rounds()) {
        let mut layer = seeded_layer(files, seed);
        let (mut cached, mut gen) = (serialized(&layer), layer.generation());
        let mut manifest = ChunkManifest::build(&cached);
        let (mut runs, mut scratch) = (Vec::new(), ManifestScratch::default());
        let mut out = ChunkManifest::default();
        for script in rounds {
            for (kind, pick, len, fill) in script {
                edit_layer(&mut layer, kind, pick, len, fill);
            }
            let spliced = splice_layer(&layer, Some((&cached, gen)), &mut runs);
            let prev = PrevChunks { raw: &cached, manifest: &manifest, copied: &runs };
            build_manifest(&spliced, Some(prev), &mut scratch, &mut out);
            prop_assert_eq!(&out, &ChunkManifest::build(&spliced));
            (cached, gen, manifest) = (spliced, layer.generation(), out.clone());
        }
    }

    #[test]
    fn resync_proves_every_copied_run_it_is_given(
        files in 20usize..120, seed in any::<u64>(), script in rounds(),
        picks in proptest::collection::vec(any::<usize>(), 1..64)) {
        // Runs that put each new chunk on an arbitrary cached cut: only
        // the memcmp and the bytes-left rule stand between them and a
        // wrong chunk.
        let mut layer = seeded_layer(files, seed);
        let cached = serialized(&layer);
        let manifest = ChunkManifest::build(&cached);
        for (kind, pick, len, fill) in script.concat() {
            edit_layer(&mut layer, kind, pick, len, fill);
        }
        let new = serialized(&layer);
        let fresh = ChunkManifest::build(&new);
        let old_cuts = cuts(&manifest);
        let runs: Vec<CopiedRun> = cuts(&fresh)
            .into_iter()
            .zip(picks.iter().cycle())
            .map(|(at, pick)| CopiedRun { at, from: old_cuts[pick % old_cuts.len()], len: 1 })
            .collect();
        let prev = PrevChunks { raw: &cached, manifest: &manifest, copied: &runs };
        let mut out = ChunkManifest::default();
        build_manifest(&new, Some(prev), &mut ManifestScratch::default(), &mut out);
        prop_assert_eq!(&out, &fresh);
    }
}
