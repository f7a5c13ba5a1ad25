//! The restore path's two decoders against the slow decoders they
//! replaced, kept here as references: a layer payload must decode to
//! the layer a `put_*` replay in stream order builds, generations
//! included, and an LZSS stream must decode to the bytes, or fail with
//! the error, of a decoder that reads one flag bit at a time.

use nymix_fs::{Layer, LayerKind, Path};
use nymix_store::lzss::{self, LzssError};
use nymix_store::NymArchive;
use proptest::prelude::*;

/// Path components picked so that component-wise and byte-wise order
/// disagree: `/a/b` sorts before `/a-b` by component, after it by byte.
const COMPONENTS: [&str; 4] = ["a", "a-b", "b", "é"];

/// A path of depth 1 to 4 over [`COMPONENTS`]: few enough paths that
/// scripts overwrite, nest under and remove each other's entries.
fn script_path(seed: u16) -> Path {
    let mut digits = seed / 4;
    let mut raw = String::new();
    for _ in 0..=seed % 4 {
        raw.push('/');
        raw.push_str(COMPONENTS[usize::from(digits % 4)]);
        digits /= 4;
    }
    Path::new(&raw)
}

/// Runs a mutation script: `(op, seed, data)` per step.
fn run_script(script: &[(u8, u16, Vec<u8>)]) -> Layer {
    let mut layer = Layer::new(LayerKind::Writable);
    for (op, seed, data) in script {
        match op {
            0..=4 => layer.put_file(script_path(*seed), data.clone()),
            5..=7 => layer.put_dir(script_path(*seed)),
            8 | 9 => layer.put_whiteout(script_path(*seed)),
            // Remove a present entry, which is often a directory that
            // still has children: the payload then holds the children
            // without their parent.
            10..=14 => {
                let present = layer.node_count();
                if present > 0 {
                    let victim = layer
                        .entries()
                        .nth(1 + usize::from(*seed) % present)
                        .map(|(p, _)| p.clone())
                        .expect("a non-root entry");
                    layer.remove(&victim);
                }
            }
            _ => layer.secure_wipe(),
        }
    }
    layer
}

/// The reference layer decoder: `put_*` per entry in stream order, on
/// a well-formed payload.
fn replay_decode(payload: &[u8]) -> Layer {
    let mut at = 0usize;
    let mut take = |n: usize| {
        at += n;
        &payload[at - n..at]
    };
    let count = u32::from_le_bytes(take(4).try_into().unwrap());
    let mut layer = Layer::new(LayerKind::Writable);
    for _ in 0..count {
        let path_len = u16::from_le_bytes(take(2).try_into().unwrap());
        let path = Path::new(std::str::from_utf8(take(usize::from(path_len))).unwrap());
        match take(1)[0] {
            0 => {
                let len = u64::from_le_bytes(take(8).try_into().unwrap());
                layer.put_file(path, take(len as usize).to_vec());
            }
            1 => layer.put_dir(path),
            2 => layer.put_whiteout(path),
            t => panic!("tag {t} in a serialized layer"),
        }
    }
    layer
}

/// The reference LZSS decoder: every item through its own flag bit.
/// On failure it returns the output decoded so far with the error.
fn reference_decompress(packed: &[u8]) -> Result<Vec<u8>, (LzssError, Vec<u8>)> {
    let mut out = Vec::new();
    let Some(header) = packed.first_chunk::<8>() else {
        return Err((LzssError::Truncated, out));
    };
    let expect_len = u64::from_le_bytes(*header) as usize;
    if expect_len > 8 + (packed.len() - 8).saturating_mul(18) {
        return Err((LzssError::Truncated, out));
    }
    let mut pos = 8;
    while out.len() < expect_len {
        let Some(&flag) = packed.get(pos) else {
            return Err((LzssError::Truncated, out));
        };
        pos += 1;
        for bit in 0..8 {
            if out.len() >= expect_len {
                break;
            }
            if flag >> bit & 1 == 1 {
                let Some(&b) = packed.get(pos) else {
                    return Err((LzssError::Truncated, out));
                };
                out.push(b);
                pos += 1;
                continue;
            }
            let Some(&[lo, hi]) = packed.get(pos..pos + 2) else {
                return Err((LzssError::Truncated, out));
            };
            pos += 2;
            let token = u16::from_le_bytes([lo, hi]);
            let dist = usize::from(token >> 4) + 1;
            let len = usize::from(token & 0x0f) + 3;
            if dist > out.len() {
                return Err((LzssError::BadReference, out));
            }
            for _ in 0..len {
                out.push(out[out.len() - dist]);
            }
        }
    }
    if out.len() != expect_len {
        return Err((LzssError::LengthMismatch, out));
    }
    Ok(out)
}

/// Asserts that [`lzss::decompress_into`] agrees with the reference:
/// the same bytes, or the same error after the same partial output.
fn assert_matches_reference(packed: &[u8]) {
    let mut out = vec![0xAA; 3]; // Cleared by the decoder.
    let got = lzss::decompress_into(packed, &mut out);
    match reference_decompress(packed) {
        Ok(want) => {
            assert_eq!(got, Ok(()), "reference decoded {} bytes", want.len());
            assert_eq!(out, want);
        }
        Err((err, partial)) => {
            assert_eq!(out, partial, "partial output before {err:?}");
            assert_eq!(got, Err(err));
        }
    }
}

/// Browser-cache-shaped input: a repeated unit, then noise.
fn cache_like(unit: &[u8], reps: usize, noise: &[u8]) -> Vec<u8> {
    let mut data: Vec<u8> = unit
        .iter()
        .copied()
        .cycle()
        .take(unit.len() * reps)
        .collect();
    data.extend_from_slice(noise);
    data
}

/// A matched ([`lzss::compress`]) or stored ([`lzss::store_into`])
/// stream of `data`.
fn packed(data: &[u8], stored: bool) -> Vec<u8> {
    if stored {
        let mut out = Vec::new();
        lzss::store_into(data, &mut out);
        out
    } else {
        lzss::compress(data)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn layer_decode_matches_put_replay(
        script in proptest::collection::vec(
            (0u8..16, any::<u16>(), proptest::collection::vec(any::<u8>(), 0..6)), 0..40)) {
        let layer = run_script(&script);
        let mut archive = NymArchive::new();
        archive.put_layer("layer", &layer);
        let decoded = archive.get_layer("layer").unwrap();
        let reference = replay_decode(archive.get("layer").unwrap());
        // Equal content, including the `Dir` that both re-create for a
        // directory removed while its children stayed.
        prop_assert_eq!(&decoded, &reference);
        for (path, node) in layer.entries() {
            prop_assert_eq!(decoded.get(path), Some(node), "{}", path);
        }
        prop_assert_eq!(decoded.generation(), reference.generation());
        for (path, _) in reference.entries() {
            prop_assert_eq!(
                decoded.entry_generation(path),
                reference.entry_generation(path),
                "generation of {}", path
            );
        }
        prop_assert_eq!(decoded.removed_since(0).count(), 0);
    }

    #[test]
    fn lzss_decoder_matches_reference_on_arbitrary_streams(
        expect_len in 0u64..1200,
        groups in proptest::collection::vec(
            (any::<bool>(), any::<u8>(), proptest::collection::vec(any::<u8>(), 0..18)), 0..64)) {
        // Flag bytes and item bytes need not agree: an item run may be
        // short of or past what its flag announces. Half the flags are
        // full literal groups.
        let mut stream = expect_len.to_le_bytes().to_vec();
        for (all_literal, flag, items) in &groups {
            stream.push(if *all_literal { 0xFF } else { *flag });
            stream.extend_from_slice(items);
        }
        assert_matches_reference(&stream);
    }

    #[test]
    fn lzss_decoder_matches_reference_on_mutated_streams(
        unit in proptest::collection::vec(any::<u8>(), 1..12),
        reps in 0usize..120,
        noise in proptest::collection::vec(any::<u8>(), 0..200),
        stored in any::<bool>(),
        flips in proptest::collection::vec((any::<usize>(), 0u8..8), 1..4)) {
        let data = cache_like(&unit, reps, &noise);
        let mut stream = packed(&data, stored);
        assert_matches_reference(&stream);
        let n = stream.len();
        for (at, bit) in flips {
            stream[at % n] ^= 1 << bit;
        }
        assert_matches_reference(&stream);
    }

    #[test]
    fn lzss_decoder_matches_reference_when_a_literal_group_straddles_the_length(
        data in proptest::collection::vec(any::<u8>(), 0..100),
        shift in -9i64..10,
        stored in any::<bool>()) {
        // Rewriting the header moves the end of output inside, onto or
        // past a group: shorter lengths stop mid-group (and ignore the
        // rest of the input), longer ones run out of input.
        let mut stream = packed(&data, stored);
        let expect_len = (data.len() as i64 + shift).max(0) as u64;
        stream[..8].copy_from_slice(&expect_len.to_le_bytes());
        assert_matches_reference(&stream);
    }

    #[test]
    fn lzss_decoder_matches_reference_on_truncated_streams(
        unit in proptest::collection::vec(any::<u8>(), 1..12),
        reps in 0usize..60,
        noise in proptest::collection::vec(any::<u8>(), 0..120),
        stored in any::<bool>(),
        cut in any::<usize>()) {
        // Stored streams are literal groups throughout, so most cuts
        // land inside one.
        let data = cache_like(&unit, reps, &noise);
        let stream = packed(&data, stored);
        assert_matches_reference(&stream[..cut % (stream.len() + 1)]);
    }
}
