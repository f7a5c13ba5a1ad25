//! LZSS compression.
//!
//! A windowed dictionary compressor in the LZSS family: output is a
//! stream of flag-grouped items, each either a literal byte or a
//! `(distance, length)` back-reference into a 4 KiB sliding window.
//! Nym archives are mostly browser profile/cache data — a mix of highly
//! repetitive text (HTML, JSON, SQLite) and incompressible media — so a
//! simple LZSS captures the right size behaviour for Figure 6.
//!
//! Format: repeated groups of `flag_byte` + 8 items. Flag bit *i* set
//! means item *i* is a literal byte; clear means a 2-byte match token:
//! 12 bits of distance (1-based) and 4 bits of length-3 (match lengths
//! 3..=18). The stream is prefixed with the 8-byte plaintext length.
//!
//! The encoder is built for the sealing hot path:
//!
//! * [`Compressor`] owns the hash-chain match-finder arena, so repeated
//!   seals reuse it. The arena is fixed-size — a `head` table of one
//!   slot per 3-byte-prefix hash and a ring of `2 × WINDOW` chain links
//!   indexed by position modulo its length — so it is allocated once, on
//!   first use, and never grows with the input: a warm
//!   [`Compressor::compress_into`] appends to a caller buffer and
//!   performs no allocation whatever the input length.
//! * Output is emitted incrementally — the flag byte of each 8-item
//!   group is reserved and patched — instead of staging an item list.
//! * Matching is lazy (one-step deferred): when position `i` matches, the
//!   encoder also probes `i + 1` and emits a literal first if the next
//!   position matches strictly longer, which is worth a few percent on
//!   HTML/JSON-like input over always taking the match at `i`.
//!
//! The stream is fully determined by the hash, the 32-candidate probe
//! budget, and the rule that among the longest candidates the nearest
//! wins; the match finder's shortcuts (word-at-a-time compares, skipping
//! a candidate whose byte at the current best length differs) never
//! change which match is chosen.

const WINDOW: usize = 4096;
const MIN_MATCH: usize = 3;
const MAX_MATCH: usize = 18;

const HASH_BITS: usize = 13;
const HEAD_LEN: usize = 1 << HASH_BITS;
/// Match-finder probe budget per position.
const MAX_TRIES: usize = 32;

/// Chain-link ring length. A slot is overwritten only by a position
/// `RING` later, and a chain walk from position `i` reads the slot of a
/// candidate at most `WINDOW` back, so every slot it reads still holds
/// the link written for that candidate.
const RING: usize = 2 * WINDOW;
const RING_MASK: usize = RING - 1;

/// Positions are stored as `pos + BIAS`, with 0 for "no position": an
/// empty slot then decodes to a distance beyond the window, so the
/// chain walk needs no separate end-of-chain test.
const BIAS: usize = WINDOW + 1;

#[inline]
fn hash3(a: u8, b: u8, c: u8) -> usize {
    ((a as usize) << 6 ^ (b as usize) << 3 ^ c as usize) & (HEAD_LEN - 1)
}

/// A reusable LZSS encoder: the fixed-size hash-chain arena is
/// allocated on first use and persists across calls.
#[derive(Debug, Default, Clone)]
pub struct Compressor {
    arena: Option<Box<ChainArena>>,
}

/// The match finder's state: the most recent position per hash bucket
/// and, per position modulo [`RING`], the previous position with the
/// same hash. `head` is reset on every call, which is the only way into
/// a chain; the ring is never reset.
#[derive(Debug, Clone)]
struct ChainArena {
    head: [usize; HEAD_LEN],
    ring: [usize; RING],
}

impl ChainArena {
    /// Links position `pos` (with at least [`MIN_MATCH`] bytes left)
    /// into its hash chain.
    #[inline]
    fn insert(&mut self, data: &[u8], pos: usize) {
        let h = hash3(data[pos], data[pos + 1], data[pos + 2]);
        self.ring[pos & RING_MASK] = self.head[h];
        self.head[h] = pos + BIAS;
    }

    /// Longest match for position `i` among chained earlier positions,
    /// returned as `(len, dist)`; `len` is below [`MIN_MATCH`] when
    /// nothing reaches it. Among equally long candidates the nearest
    /// (first probed) wins.
    #[inline]
    fn find_match(&self, data: &[u8], i: usize) -> (usize, usize) {
        if i + MIN_MATCH > data.len() {
            return (0, 0);
        }
        let max = MAX_MATCH.min(data.len() - i);
        // Only a candidate longer than the current best changes the
        // outcome, and 1- or 2-byte matches are never emitted.
        let mut best_len = MIN_MATCH - 1;
        let mut best_dist = 0usize;
        let here = i + BIAS;
        let mut slot = self.head[hash3(data[i], data[i + 1], data[i + 2])];
        for _ in 0..MAX_TRIES {
            let dist = here - slot;
            if dist > WINDOW {
                break;
            }
            let c = i - dist;
            // A candidate can beat `best_len` only if it also matches
            // the byte at `best_len`.
            if data[c + best_len] == data[i + best_len] {
                let len = match_len(data, c, i, max);
                if len > best_len {
                    best_len = len;
                    best_dist = dist;
                    if len == max {
                        break;
                    }
                }
            }
            slot = self.ring[c & RING_MASK];
        }
        (best_len, best_dist)
    }
}

/// Length of the common prefix of `data[a..]` and `data[b..]` (`a < b`),
/// capped at `max`, compared eight bytes at a time.
#[inline]
fn match_len(data: &[u8], a: usize, b: usize, max: usize) -> usize {
    let mut len = 0usize;
    while len < max {
        let (Some(x), Some(y)) = (
            data[a + len..].first_chunk::<8>(),
            data[b + len..].first_chunk::<8>(),
        ) else {
            while len < max && data[a + len] == data[b + len] {
                len += 1;
            }
            return len;
        };
        let diff = u64::from_le_bytes(*x) ^ u64::from_le_bytes(*y);
        if diff != 0 {
            return max.min(len + (diff.trailing_zeros() / 8) as usize);
        }
        len += 8;
    }
    max
}

impl Compressor {
    /// A compressor with an empty arena (allocated on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Compresses `data`, appending the stream to `out`. With a warm
    /// arena and sufficient `out` capacity this performs no allocation.
    pub fn compress_into(&mut self, data: &[u8], out: &mut Vec<u8>) {
        out.reserve(data.len() + data.len() / 8 + 16);
        out.extend_from_slice(&(data.len() as u64).to_le_bytes());

        let arena = self.arena.get_or_insert_with(|| {
            Box::new(ChainArena {
                head: [0; HEAD_LEN],
                ring: [0; RING],
            })
        });
        arena.head.fill(0);

        // Incremental flag-group emission: reserve the flag byte, push
        // the group's items, patch the flags once 8 items are out.
        let mut flag_pos = 0usize;
        let mut flag = 0u8;
        let mut flag_count = 0u8;
        macro_rules! begin_item {
            () => {
                if flag_count == 0 {
                    flag_pos = out.len();
                    out.push(0);
                }
            };
        }
        macro_rules! end_item {
            () => {
                flag_count += 1;
                if flag_count == 8 {
                    out[flag_pos] = flag;
                    flag = 0;
                    flag_count = 0;
                }
            };
        }

        // Positions `.. inserted` are in the chains; insertion is lazy, so
        // a position is linked only once a match search reaches it. Only
        // positions `.. insertable` have the MIN_MATCH bytes a hash needs.
        let mut inserted = 0usize;
        let insertable = data.len().saturating_sub(MIN_MATCH - 1);
        macro_rules! insert_below {
            ($limit:expr) => {
                let limit = insertable.min($limit);
                while inserted < limit {
                    arena.insert(data, inserted);
                    inserted += 1;
                }
            };
        }

        let mut i = 0usize;
        // A match found while probing `i + 1` for the lazy decision,
        // carried into the next loop step.
        let mut pending: Option<(usize, usize)> = None;
        while i < data.len() {
            insert_below!(i);
            let (best_len, best_dist) = pending.take().unwrap_or_else(|| arena.find_match(data, i));
            if best_len >= MIN_MATCH {
                // Lazy probe: if the very next position matches strictly
                // longer, emit this byte as a literal and defer.
                if best_len < MAX_MATCH && i + 1 + MIN_MATCH <= data.len() {
                    insert_below!(i + 1);
                    let next = arena.find_match(data, i + 1);
                    if next.0 > best_len {
                        begin_item!();
                        flag |= 1 << flag_count;
                        out.push(data[i]);
                        end_item!();
                        pending = Some(next);
                        i += 1;
                        continue;
                    }
                }
                // lint:allow(panic-free-parser): compressor-side pack; find_match bounds dist to the window and len to MAX_MATCH by construction
                let token = (((best_dist - 1) as u16) << 4) | ((best_len - MIN_MATCH) as u16);
                begin_item!();
                out.extend_from_slice(&token.to_le_bytes());
                end_item!();
                i += best_len;
            } else {
                begin_item!();
                flag |= 1 << flag_count;
                out.push(data[i]);
                end_item!();
                i += 1;
            }
        }
        if flag_count > 0 {
            out[flag_pos] = flag;
        }
    }
}

/// Compresses `data`.
///
/// # Examples
///
/// ```
/// let data = b"abcabcabcabcabcabc".to_vec();
/// let packed = nymix_store::lzss::compress(&data);
/// assert!(packed.len() < data.len() + 9);
/// assert_eq!(nymix_store::lzss::decompress(&packed).unwrap(), data);
/// ```
pub fn compress(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    Compressor::new().compress_into(data, &mut out);
    out
}

/// Emits `data` as a *stored* (all-literal) stream of the same format:
/// header + flag bytes of all ones + the raw bytes. [`decompress_into`]
/// reads it like any other stream, so callers that know their payload
/// is incompressible (see [`entropy_bits_per_byte`]) can skip the
/// match finder — no hash-chain build, no probing — at the cost LZSS
/// already pays on such input anyway (one flag byte per 8 literals).
pub fn store_into(data: &[u8], out: &mut Vec<u8>) {
    out.reserve(8 + data.len() + data.len() / 8 + 1);
    out.extend_from_slice(&(data.len() as u64).to_le_bytes());
    let mut chunks = data.chunks_exact(8);
    for group in &mut chunks {
        out.push(0xFF);
        out.extend_from_slice(group);
    }
    let tail = chunks.remainder();
    if !tail.is_empty() {
        out.push(0xFF);
        out.extend_from_slice(tail);
    }
}

/// Sampled Shannon entropy estimate of `data`'s byte distribution, in
/// bits per byte (0.0 for empty input, 8.0 for uniform bytes). Up to
/// 4 KiB is sampled at an even stride, so the probe is O(1) for large
/// inputs and allocation-free. Byte entropy overestimates LZSS
/// compressibility on byte-uniform-but-repetitive input (repeated
/// random blocks), so treat a high reading as "not worth compressing",
/// not as a guarantee in the other direction.
pub fn entropy_bits_per_byte(data: &[u8]) -> f64 {
    if data.is_empty() {
        return 0.0;
    }
    const SAMPLE: usize = 4096;
    let stride = data.len().div_ceil(SAMPLE).max(1);
    let mut histogram = [0u32; 256];
    let mut sampled = 0u32;
    let mut i = 0;
    while i < data.len() {
        histogram[data[i] as usize] += 1;
        sampled += 1;
        i += stride;
    }
    let n = f64::from(sampled);
    let mut bits = 0.0;
    for &count in &histogram {
        if count > 0 {
            let p = f64::from(count) / n;
            bits -= p * p.log2();
        }
    }
    bits
}

/// Error from [`decompress`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LzssError {
    /// Input ended mid-stream.
    Truncated,
    /// A back-reference pointed before the start of output.
    BadReference,
    /// Output length disagreed with the header.
    LengthMismatch,
}

impl core::fmt::Display for LzssError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            LzssError::Truncated => write!(f, "compressed stream truncated"),
            LzssError::BadReference => write!(f, "back-reference out of range"),
            LzssError::LengthMismatch => write!(f, "decompressed length mismatch"),
        }
    }
}

impl std::error::Error for LzssError {}

/// Decompresses a [`compress`] stream, appending the plaintext to `out`
/// (which is cleared first). With sufficient capacity in `out` this
/// performs no allocation.
///
/// Items are decoded one flag bit at a time, except that a flag byte of
/// `0xFF` with at least 8 output bytes still owed and 8 input bytes
/// left copies its whole literal group at once. Stored streams
/// ([`store_into`]) and incompressible chunks are almost all such
/// groups. The shortcut changes no result: every stream decodes to the
/// same bytes or fails with the same error as the per-item loop.
pub fn decompress_into(packed: &[u8], out: &mut Vec<u8>) -> Result<(), LzssError> {
    out.clear();
    if packed.len() < 8 {
        return Err(LzssError::Truncated);
    }
    let expect_len = match packed[..8].try_into() {
        Ok(bytes) => u64::from_le_bytes(bytes) as usize,
        Err(_) => return Err(LzssError::Truncated),
    };
    // The header is untrusted input: a match token encodes at most
    // MAX_MATCH bytes per 2 wire bytes, so anything claiming more than
    // that is malformed — reject before allocating.
    if expect_len > 8 + (packed.len().saturating_sub(8)).saturating_mul(MAX_MATCH) {
        return Err(LzssError::Truncated);
    }
    out.reserve(expect_len);
    let mut pos = 8usize;
    while out.len() < expect_len {
        if pos >= packed.len() {
            return Err(LzssError::Truncated);
        }
        let flag = packed[pos];
        pos += 1;
        // A full literal group still owed in full is one block copy.
        // Anything else — a match, a group the output length cuts
        // short, input ending inside the group — takes the per-item
        // loop, so errors and partial output are the same either way.
        if flag == 0xFF && expect_len - out.len() >= 8 {
            if let Some(group) = packed.get(pos..pos + 8) {
                out.extend_from_slice(group);
                pos += 8;
                continue;
            }
        }
        for k in 0..8 {
            if out.len() >= expect_len {
                break;
            }
            if flag & (1 << k) != 0 {
                let Some(&b) = packed.get(pos) else {
                    return Err(LzssError::Truncated);
                };
                out.push(b);
                pos += 1;
            } else {
                if pos + 2 > packed.len() {
                    return Err(LzssError::Truncated);
                }
                let token = u16::from_le_bytes([packed[pos], packed[pos + 1]]);
                pos += 2;
                let dist = (token >> 4) as usize + 1;
                let len = (token & 0x0f) as usize + MIN_MATCH;
                if dist > out.len() {
                    return Err(LzssError::BadReference);
                }
                let start = out.len() - dist;
                if dist >= len {
                    // Non-overlapping: one block copy.
                    out.extend_from_within(start..start + len);
                } else {
                    for j in 0..len {
                        let b = out[start + j];
                        out.push(b);
                    }
                }
            }
        }
    }
    if out.len() != expect_len {
        return Err(LzssError::LengthMismatch);
    }
    Ok(())
}

/// Decompresses a [`compress`] stream.
pub fn decompress(packed: &[u8]) -> Result<Vec<u8>, LzssError> {
    let mut out = Vec::new();
    decompress_into(packed, &mut out)?;
    Ok(out)
}

/// Compression ratio achieved on `data` (compressed/original; lower is
/// better; >1 means expansion).
pub fn ratio(data: &[u8]) -> f64 {
    if data.is_empty() {
        return 1.0;
    }
    compress(data).len() as f64 / data.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_roundtrip() {
        let packed = compress(b"");
        assert_eq!(decompress(&packed).unwrap(), b"");
    }

    #[test]
    fn short_roundtrip() {
        for data in [&b"a"[..], b"ab", b"abc", b"aaaa", b"abcd"] {
            let packed = compress(data);
            assert_eq!(decompress(&packed).unwrap(), data, "{data:?}");
        }
    }

    #[test]
    fn repetitive_text_compresses_well() {
        let data: Vec<u8> = b"<div class=\"tweet\">hello world</div>\n"
            .iter()
            .copied()
            .cycle()
            .take(50_000)
            .collect();
        let packed = compress(&data);
        assert!(
            packed.len() < data.len() / 4,
            "ratio {}",
            packed.len() as f64 / data.len() as f64
        );
        assert_eq!(decompress(&packed).unwrap(), data);
    }

    #[test]
    fn random_data_barely_expands() {
        // Keystream bytes are incompressible; expansion is bounded by
        // the flag bytes (1/8) plus the header.
        let key = [1u8; 32];
        let mut data = vec![0u8; 10_000];
        nymix_crypto::ChaCha20::new(&key, &[0u8; 12], 0).xor_into(&mut data);
        let packed = compress(&data);
        assert!(packed.len() <= data.len() + data.len() / 8 + 9 + 8);
        assert_eq!(decompress(&packed).unwrap(), data);
    }

    #[test]
    fn long_match_chains() {
        let mut data = vec![0u8; 100_000];
        for (i, b) in data.iter_mut().enumerate() {
            *b = (i / 1000) as u8;
        }
        let packed = compress(&data);
        assert!(packed.len() < data.len() / 5);
        assert_eq!(decompress(&packed).unwrap(), data);
    }

    #[test]
    fn window_boundary_matches() {
        // Repetition farther apart than the window cannot match, but
        // the stream must still round-trip.
        let mut data = Vec::new();
        data.extend_from_slice(&[7u8; 100]);
        data.extend(std::iter::repeat_n(0u8, WINDOW + 50));
        data.extend_from_slice(&[7u8; 100]);
        let packed = compress(&data);
        assert_eq!(decompress(&packed).unwrap(), data);
    }

    #[test]
    fn truncation_detected() {
        let packed = compress(b"hello hello hello hello");
        for cut in [0usize, 4, 8, 9, packed.len() - 1] {
            assert!(decompress(&packed[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn bad_reference_detected() {
        // Handcraft: header len 3, one group with a match token first.
        let mut packed = Vec::new();
        packed.extend_from_slice(&3u64.to_le_bytes());
        packed.push(0x00); // all matches
        packed.extend_from_slice(&(0xffu16 << 4).to_le_bytes()); // dist 256 into empty output
        assert_eq!(decompress(&packed), Err(LzssError::BadReference));
    }

    #[test]
    fn ratio_helper() {
        assert_eq!(ratio(b""), 1.0);
        let text: Vec<u8> = b"abcabcabc".iter().copied().cycle().take(5000).collect();
        assert!(ratio(&text) < 0.3);
    }

    #[test]
    fn compressor_reuse_is_deterministic() {
        let mut c = Compressor::new();
        let data = b"the quick brown fox jumps over the lazy dog; the quick brown fox".to_vec();
        let mut first = Vec::new();
        c.compress_into(&data, &mut first);
        let mut second = Vec::new();
        c.compress_into(&data, &mut second);
        assert_eq!(first, second, "arena reuse must not change the stream");
        assert_eq!(first, compress(&data), "fresh arena must agree too");
    }

    #[test]
    fn stored_stream_roundtrips() {
        for len in [0usize, 1, 7, 8, 9, 4096, 10_001] {
            let data: Vec<u8> = (0..len).map(|i| (i * 37 + i / 251) as u8).collect();
            let mut packed = Vec::new();
            store_into(&data, &mut packed);
            assert_eq!(decompress(&packed).unwrap(), data, "len {len}");
        }
    }

    #[test]
    fn stored_stream_size_matches_incompressible_lzss_bound() {
        let mut data = vec![0u8; 10_000];
        nymix_crypto::ChaCha20::new(&[1u8; 32], &[0u8; 12], 0).xor_into(&mut data);
        let mut stored = Vec::new();
        store_into(&data, &mut stored);
        // Same worst-case envelope the matcher pays on random input.
        assert!(stored.len() <= 8 + data.len() + data.len() / 8 + 1);
        let packed = compress(&data);
        assert!(
            stored.len() <= packed.len() + 16,
            "stored {} lzss {}",
            stored.len(),
            packed.len()
        );
    }

    #[test]
    fn entropy_estimate_separates_text_from_keystream() {
        assert_eq!(entropy_bits_per_byte(b""), 0.0);
        assert_eq!(entropy_bits_per_byte(&[7u8; 4096]), 0.0);
        let html: Vec<u8> = b"<div class=\"post\">entry</div>\n"
            .iter()
            .copied()
            .cycle()
            .take(64 * 1024)
            .collect();
        let mut noise = vec![0u8; 64 * 1024];
        nymix_crypto::ChaCha20::new(&[2u8; 32], &[0u8; 12], 0).xor_into(&mut noise);
        let text_bits = entropy_bits_per_byte(&html);
        let noise_bits = entropy_bits_per_byte(&noise);
        assert!(text_bits < 6.0, "html measured {text_bits}");
        assert!(noise_bits > 7.5, "keystream measured {noise_bits}");
    }

    #[test]
    fn compress_into_appends_after_existing_bytes() {
        let mut out = b"header:".to_vec();
        Compressor::new().compress_into(b"abcabcabcabc", &mut out);
        assert_eq!(&out[..7], b"header:");
        assert_eq!(decompress(&out[7..]).unwrap(), b"abcabcabcabc");
    }
}
