//! GF(256) arithmetic and systematic Reed–Solomon erasure coding.
//!
//! The field is GF(2⁸) with the reducing polynomial `x⁸+x⁴+x³+x²+1`
//! (0x11D, the classic RS/QR polynomial; 2 is a primitive element).
//! Log/exp tables are built at compile time, so multiplication is two
//! lookups and an add — fast enough that reconstructing a 64 KiB
//! object is a few hundred microseconds of pure table work.
//!
//! Encoding is **systematic**: the n×k generator matrix is a
//! Vandermonde matrix (rows `[xᵢ⁰ … xᵢᵏ⁻¹]` for distinct field points
//! `xᵢ = i`) post-multiplied by the inverse of its own top k×k block,
//! so the first k rows are the identity — data shards are plain
//! stripes of the object, parity shards are field combinations of
//! them. Any k rows of the result stay invertible (the Vandermonde
//! property survives multiplication by an invertible matrix), which is
//! exactly the k-of-n reconstruction guarantee.
//!
//! `k = 1` degenerates to n-way mirroring: every row of the generator
//! is `[1]`, so every shard is a verbatim copy of the object.

/// Upper bound on shard count: indices fit a `u8` with headroom and a
/// placement wider than this models no realistic provider set.
pub const MAX_SHARDS: usize = 16;

const fn build_tables() -> ([u8; 512], [u8; 256]) {
    let mut exp = [0u8; 512];
    let mut log = [0u8; 256];
    let mut x: u16 = 1;
    let mut i = 0;
    while i < 255 {
        exp[i] = x as u8;
        log[x as usize] = i as u8;
        x <<= 1;
        if x & 0x100 != 0 {
            x ^= 0x11d;
        }
        i += 1;
    }
    // Mirror the cycle so `exp[log a + log b]` needs no reduction.
    while i < 512 {
        exp[i] = exp[i - 255];
        i += 1;
    }
    (exp, log)
}

const TABLES: ([u8; 512], [u8; 256]) = build_tables();
const EXP: [u8; 512] = TABLES.0;
const LOG: [u8; 256] = TABLES.1;

/// GF(256) multiplication.
#[inline]
fn mul(a: u8, b: u8) -> u8 {
    if a == 0 || b == 0 {
        0
    } else {
        EXP[LOG[a as usize] as usize + LOG[b as usize] as usize]
    }
}

/// GF(256) multiplicative inverse (`a` must be non-zero).
#[inline]
fn inv(a: u8) -> u8 {
    debug_assert!(a != 0, "zero has no inverse");
    EXP[255 - LOG[a as usize] as usize]
}

/// `x` raised to `e` in GF(256).
fn pow(x: u8, e: usize) -> u8 {
    if e == 0 {
        return 1;
    }
    if x == 0 {
        return 0;
    }
    EXP[(LOG[x as usize] as usize * e) % 255]
}

/// Inverts a k×k matrix over GF(256) by Gauss–Jordan elimination.
/// Returns `None` for a singular matrix (cannot happen for the row
/// selections this module builds, but the decoder still refuses to
/// fabricate bytes rather than panic).
fn invert(mut m: Vec<Vec<u8>>) -> Option<Vec<Vec<u8>>> {
    let k = m.len();
    let mut out: Vec<Vec<u8>> = (0..k)
        .map(|i| (0..k).map(|j| u8::from(i == j)).collect())
        .collect();
    for col in 0..k {
        let pivot = (col..k).find(|&r| m[r][col] != 0)?;
        m.swap(col, pivot);
        out.swap(col, pivot);
        let piv_inv = inv(m[col][col]);
        for j in 0..k {
            m[col][j] = mul(m[col][j], piv_inv);
            out[col][j] = mul(out[col][j], piv_inv);
        }
        for row in 0..k {
            if row == col || m[row][col] == 0 {
                continue;
            }
            let f = m[row][col];
            for j in 0..k {
                let a = mul(f, m[col][j]);
                let b = mul(f, out[col][j]);
                m[row][j] ^= a;
                out[row][j] ^= b;
            }
        }
    }
    Some(out)
}

/// Row `index` of the systematic n×k generator matrix for stripe width
/// `k`. Depends only on `(index, k)` — not on n — so the decoder can
/// rebuild exactly the rows it holds shards for.
fn generator_row(index: usize, k: usize) -> Vec<u8> {
    let vrow = |i: usize| -> Vec<u8> { (0..k).map(|j| pow(i as u8, j)).collect() };
    if index < k {
        // The top block of V·V_top⁻¹ is the identity by construction.
        return (0..k).map(|j| u8::from(index == j)).collect();
    }
    let top: Vec<Vec<u8>> = (0..k).map(vrow).collect();
    let top_inv = invert(top).expect("Vandermonde top block is invertible");
    let v = vrow(index);
    (0..k)
        .map(|j| {
            let mut acc = 0u8;
            for (t, &vt) in v.iter().enumerate() {
                acc ^= mul(vt, top_inv[t][j]);
            }
            acc
        })
        .collect()
}

/// Stripe width for an object of `len` bytes split k ways (each of the
/// k data shards carries this many bytes, the last one zero-padded).
pub fn stripe_len(len: usize, k: usize) -> usize {
    len.div_ceil(k)
}

/// Encodes `data` as n shards of which any k reconstruct it: shards
/// `0..k` are plain stripes (zero-padded to equal width), shards
/// `k..n` are Reed–Solomon parity.
///
/// # Panics
///
/// Panics if `k` or `n` is outside `1 ..= MAX_SHARDS` or `k > n`.
pub fn encode(data: &[u8], k: usize, n: usize) -> Vec<Vec<u8>> {
    assert!(
        (1..=n).contains(&k) && n <= MAX_SHARDS,
        "invalid erasure config k={k} n={n}"
    );
    let width = stripe_len(data.len(), k);
    let stripe = |j: usize| -> &[u8] {
        let start = (j * width).min(data.len());
        let end = ((j + 1) * width).min(data.len());
        &data[start..end]
    };
    let mut shards = Vec::with_capacity(n);
    for j in 0..k {
        let mut s = stripe(j).to_vec();
        s.resize(width, 0);
        shards.push(s);
    }
    for i in k..n {
        let row = generator_row(i, k);
        let mut s = vec![0u8; width];
        for (j, &coef) in row.iter().enumerate() {
            if coef == 0 {
                continue;
            }
            for (p, &b) in stripe(j).iter().enumerate() {
                s[p] ^= mul(coef, b);
            }
        }
        shards.push(s);
    }
    shards
}

/// Reconstructs the original `object_len` bytes from any k shards
/// (given as `(shard index, payload)`; the first k distinct indices
/// are used). Returns `None` when fewer than k distinct shards are
/// supplied, when payload widths disagree with `object_len`/`k`, or
/// when the selected rows are singular — the caller treats `None` as a
/// verification failure, never as data.
pub fn reconstruct(shards: &[(usize, &[u8])], k: usize, object_len: usize) -> Option<Vec<u8>> {
    if k == 0 || k > MAX_SHARDS {
        return None;
    }
    let width = stripe_len(object_len, k);
    let mut sel: Vec<(usize, &[u8])> = Vec::with_capacity(k);
    for &(idx, payload) in shards {
        if idx >= MAX_SHARDS || payload.len() != width || sel.iter().any(|&(i, _)| i == idx) {
            continue;
        }
        sel.push((idx, payload));
        if sel.len() == k {
            break;
        }
    }
    if sel.len() < k {
        return None;
    }
    let mut out = vec![0u8; width * k];
    if sel.iter().all(|&(i, _)| i < k) {
        // Fast path: all-systematic selection needs no matrix at all.
        for &(i, payload) in &sel {
            out[i * width..(i + 1) * width].copy_from_slice(payload);
        }
        out.truncate(object_len);
        return Some(out);
    }
    let rows: Vec<Vec<u8>> = sel.iter().map(|&(i, _)| generator_row(i, k)).collect();
    let inverse = invert(rows)?;
    for (j, inv_row) in inverse.iter().enumerate() {
        let dst = &mut out[j * width..(j + 1) * width];
        for (t, &coef) in inv_row.iter().enumerate() {
            if coef == 0 {
                continue;
            }
            for (p, &b) in sel[t].1.iter().enumerate() {
                dst[p] ^= mul(coef, b);
            }
        }
    }
    out.truncate(object_len);
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u8).wrapping_mul(31).wrapping_add(7))
            .collect()
    }

    #[test]
    fn field_axioms_hold() {
        // Spot-check inverse and distributivity over the whole field.
        for a in 1..=255u8 {
            assert_eq!(mul(a, inv(a)), 1, "a={a}");
        }
        for a in [1u8, 2, 3, 0x53, 0xCA, 0xFF] {
            for b in [0u8, 1, 2, 0x8E, 0xFF] {
                for c in [1u8, 7, 0x1D] {
                    assert_eq!(mul(a, b ^ c), mul(a, b) ^ mul(a, c));
                }
            }
        }
        assert_eq!(pow(2, 8), 0x1d); // x⁸ ≡ x⁴+x³+x²+1 under 0x11D.
    }

    #[test]
    fn roundtrip_every_config_and_every_k_subset() {
        // The configuration space matters, not one happy-path layout:
        // every (k, n) up to 5-wide, every k-subset of shard indices.
        let data = sample(257); // deliberately not stripe-aligned
        for n in 1..=5usize {
            for k in 1..=n {
                let shards = encode(&data, k, n);
                assert!(shards.iter().all(|s| s.len() == stripe_len(data.len(), k)));
                for mask in 0u32..(1 << n) {
                    if mask.count_ones() as usize != k {
                        continue;
                    }
                    let sel: Vec<(usize, &[u8])> = (0..n)
                        .filter(|i| mask & (1 << i) != 0)
                        .map(|i| (i, shards[i].as_slice()))
                        .collect();
                    assert_eq!(
                        reconstruct(&sel, k, data.len()).as_deref(),
                        Some(&data[..]),
                        "k={k} n={n} mask={mask:b}"
                    );
                }
            }
        }
    }

    #[test]
    fn mirroring_is_the_k1_degenerate_case() {
        let data = sample(100);
        let shards = encode(&data, 1, 3);
        for s in &shards {
            assert_eq!(s, &data);
        }
    }

    #[test]
    fn empty_object_roundtrips() {
        let shards = encode(&[], 2, 3);
        assert!(shards.iter().all(Vec::is_empty));
        let sel: Vec<(usize, &[u8])> = vec![(1, &shards[1]), (2, &shards[2])];
        assert_eq!(reconstruct(&sel, 2, 0).as_deref(), Some(&[][..]));
    }

    #[test]
    fn insufficient_or_duplicate_shards_refused() {
        let data = sample(64);
        let shards = encode(&data, 2, 3);
        assert_eq!(reconstruct(&[(0, shards[0].as_slice())], 2, 64), None);
        // A duplicate index is not a second independent shard.
        assert_eq!(
            reconstruct(
                &[(0, shards[0].as_slice()), (0, shards[0].as_slice())],
                2,
                64
            ),
            None
        );
        // Wrong-width payloads are refused, not mis-decoded.
        assert_eq!(
            reconstruct(&[(0, &shards[0][1..]), (1, shards[1].as_slice())], 2, 64),
            None
        );
    }

    #[test]
    #[should_panic(expected = "invalid erasure config")]
    fn zero_k_rejected() {
        let _ = encode(&[1, 2, 3], 0, 3);
    }
}
