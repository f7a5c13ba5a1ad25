//! Content-defined chunking for the chunk store.
//!
//! Record-granular deltas hit a wall the roadmap records: any AnonVM
//! write dirties the entire `anonvm.disk` record (~85% of a nym's
//! payload), so a 4 KiB browser-cache write re-ships tens of kilobytes.
//! The content-addressed store ([`crate::cas`]) splits large records
//! into chunks first — and the split must be **content-defined**, not
//! fixed-offset, so an insertion near the front doesn't shift every
//! later chunk boundary and re-dirty the whole record.
//!
//! The cut rule is a FastCDC-style gear hash: a 64-byte rolling window
//! (`h = (h << 1) + GEAR[byte]`; each shift ages a byte out of the top
//! bit within 64 steps) with normalized cut masks — a stricter mask
//! (`MASK_S`) before the [`AVG_CHUNK`] target makes early cuts rare, a
//! looser one (`MASK_L`) after it makes late cuts likely, pulling the
//! size distribution in around the average. Sizes are clamped to
//! [[`MIN_CHUNK`], [`MAX_CHUNK`]] (a final tail chunk may be shorter
//! than the minimum).
//!
//! Properties the CAS relies on (pinned by proptests in
//! `tests/prop.rs`):
//!
//! * **Deterministic**: the same bytes always produce the same
//!   boundaries — chunk IDs are stable across saves, machines, nyms.
//! * **Edit-local**: a boundary depends only on the 64 bytes of window
//!   before it (plus the previous boundary), so an edit perturbs the
//!   chunking only until the stream re-synchronizes — typically at the
//!   first post-edit cut candidate — and every chunk before the edit is
//!   untouched.
//! * **Lossless**: the chunks concatenate back to exactly the input.

/// Smallest chunk the cutter will emit (except a final short tail).
pub const MIN_CHUNK: usize = 2 * 1024;

/// Target average chunk size.
pub const AVG_CHUNK: usize = 8 * 1024;

/// Largest chunk the cutter will emit; a cut is forced at this length.
pub const MAX_CHUNK: usize = 64 * 1024;

/// Strict cut mask used before [`AVG_CHUNK`]: 14 high bits, so an early
/// cut fires with probability 2⁻¹⁴ per byte.
const MASK_S: u64 = 0xFFFC_0000_0000_0000;

/// Loose cut mask used after [`AVG_CHUNK`]: 12 high bits (2⁻¹² per
/// byte), hurrying oversized chunks toward a boundary before
/// [`MAX_CHUNK`] forces one.
const MASK_L: u64 = 0xFFF0_0000_0000_0000;

/// Gear table: one pseudorandom 64-bit word per byte value, generated
/// by splitmix64 from a fixed seed so the chunking is identical on
/// every build (chunk IDs must be stable across machines and sessions).
const GEAR: [u64; 256] = build_gear_table();

const fn build_gear_table() -> [u64; 256] {
    let mut table = [0u64; 256];
    // Seed: leading hex digits of π — a nothing-up-my-sleeve constant.
    let mut x: u64 = 0x243F_6A88_85A3_08D3;
    let mut i = 0;
    while i < 256 {
        // splitmix64.
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        table[i] = z ^ (z >> 31);
        i += 1;
    }
    table
}

/// Length of the first chunk of `data` under the gear-hash cut rule.
/// Returns `data.len()` when no boundary fires before the input ends;
/// never returns 0 for non-empty input. A cut `c < data.len()` depends
/// only on `data[..c]`: every input that starts with those bytes and is
/// at least `c` long cuts there too. The input's length only caps where
/// the strict mask gives way to the loose one and where a cut is
/// forced, and every such input agrees with `data` on both caps up to
/// `c`.
pub(crate) fn cut_point(data: &[u8]) -> usize {
    let n = data.len();
    if n <= MIN_CHUNK {
        return n;
    }
    let center = AVG_CHUNK.min(n);
    let end = MAX_CHUNK.min(n);
    let mut h: u64 = 0;
    // The hash is warmed over the tail of the skipped minimum so a cut
    // decision at position i always sees the full 64-byte window, no
    // matter where the previous boundary fell.
    for &b in &data[MIN_CHUNK - 64..MIN_CHUNK] {
        h = (h << 1).wrapping_add(GEAR[b as usize]);
    }
    let mut i = MIN_CHUNK;
    while i < center {
        h = (h << 1).wrapping_add(GEAR[data[i] as usize]);
        i += 1;
        if h & MASK_S == 0 {
            return i;
        }
    }
    while i < end {
        h = (h << 1).wrapping_add(GEAR[data[i] as usize]);
        i += 1;
        if h & MASK_L == 0 {
            return i;
        }
    }
    end
}

/// Iterator over the content-defined chunks of a byte slice, in order.
/// Yields borrowed sub-slices — chunking allocates nothing.
#[derive(Debug, Clone)]
pub struct Chunks<'a> {
    rest: &'a [u8],
}

impl<'a> Iterator for Chunks<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        if self.rest.is_empty() {
            return None;
        }
        let cut = cut_point(self.rest);
        let (chunk, rest) = self.rest.split_at(cut);
        self.rest = rest;
        Some(chunk)
    }
}

/// Splits `data` into content-defined chunks.
///
/// # Examples
///
/// ```
/// use nymix_store::chunker::{chunks, MAX_CHUNK, MIN_CHUNK};
///
/// let data = vec![0x5Au8; 100 * 1024];
/// let parts: Vec<&[u8]> = chunks(&data).collect();
/// assert_eq!(parts.concat(), data);
/// for part in &parts[..parts.len() - 1] {
///     assert!((MIN_CHUNK..=MAX_CHUNK).contains(&part.len()));
/// }
/// ```
pub fn chunks(data: &[u8]) -> Chunks<'_> {
    Chunks { rest: data }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random filler (xorshift64*).
    fn noise(seed: u64, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        let mut x = seed | 1;
        while out.len() < len {
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            out.extend_from_slice(&x.wrapping_mul(0x2545_F491_4F6C_DD1D).to_le_bytes());
        }
        out.truncate(len);
        out
    }

    #[test]
    fn chunks_concat_to_input_and_respect_bounds() {
        for len in [0usize, 1, MIN_CHUNK - 1, MIN_CHUNK, 10_000, 200_000] {
            let data = noise(7, len);
            let parts: Vec<&[u8]> = chunks(&data).collect();
            assert_eq!(parts.concat(), data, "len {len}");
            for (i, part) in parts.iter().enumerate() {
                assert!(part.len() <= MAX_CHUNK, "len {len} chunk {i}");
                assert!(!part.is_empty(), "len {len} chunk {i}");
                if i + 1 < parts.len() {
                    assert!(part.len() >= MIN_CHUNK, "len {len} chunk {i}");
                }
            }
        }
    }

    #[test]
    fn chunking_is_deterministic() {
        let data = noise(42, 150_000);
        let a: Vec<usize> = chunks(&data).map(<[u8]>::len).collect();
        let b: Vec<usize> = chunks(&data).map(<[u8]>::len).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn average_size_lands_near_target() {
        let data = noise(3, 2 * 1024 * 1024);
        let count = chunks(&data).count();
        let avg = data.len() / count;
        // Normalized chunking concentrates sizes around AVG_CHUNK; allow
        // a generous band (the minimum skip alone guarantees >= 2 KiB).
        assert!(
            (AVG_CHUNK / 2..=AVG_CHUNK * 2).contains(&avg),
            "avg chunk {avg}"
        );
    }

    #[test]
    fn low_entropy_input_still_cuts() {
        // All-identical bytes never match a cut mask mid-stream (the
        // window is constant), so MAX_CHUNK must force boundaries.
        let data = vec![0u8; 300 * 1024];
        let parts: Vec<&[u8]> = chunks(&data).collect();
        assert!(parts.iter().all(|p| p.len() <= MAX_CHUNK));
        assert_eq!(parts.concat(), data);
    }

    #[test]
    fn prefix_chunks_unaffected_by_suffix_edit() {
        // Boundaries are decided left to right from the previous
        // boundary, so chunks strictly before an edit are identical.
        let mut data = noise(11, 100_000);
        let before: Vec<Vec<u8>> = chunks(&data).map(<[u8]>::to_vec).collect();
        let edit_at = 80_000;
        data[edit_at] ^= 0xFF;
        let after: Vec<Vec<u8>> = chunks(&data).map(<[u8]>::to_vec).collect();
        let mut offset = 0usize;
        for (a, b) in before.iter().zip(after.iter()) {
            if offset + a.len() > edit_at {
                break;
            }
            assert_eq!(a, b, "chunk at offset {offset} changed by later edit");
            offset += a.len();
        }
    }

    #[test]
    fn single_byte_edit_changes_few_chunks() {
        let data = noise(23, 120_000);
        let before: Vec<Vec<u8>> = chunks(&data).map(<[u8]>::to_vec).collect();
        for edit_at in [5_000usize, 60_000, 119_999] {
            let mut edited = data.clone();
            edited[edit_at] ^= 0x80;
            let after: Vec<Vec<u8>> = chunks(&edited).map(<[u8]>::to_vec).collect();
            let common_prefix = before
                .iter()
                .zip(after.iter())
                .take_while(|(a, b)| a == b)
                .count();
            let common_suffix = before
                .iter()
                .rev()
                .zip(after.iter().rev())
                .take_while(|(a, b)| a == b)
                .count();
            let changed = before
                .len()
                .max(after.len())
                .saturating_sub(common_prefix + common_suffix);
            assert!(
                changed <= 3,
                "edit at {edit_at} changed {changed} of {} chunks",
                before.len()
            );
        }
    }
}
