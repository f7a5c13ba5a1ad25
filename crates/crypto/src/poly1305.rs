//! RFC 8439 Poly1305 one-time authenticator.
//!
//! Implemented with 44/44/42-bit limbs over the prime `2^130 - 5` using
//! full 64x64→128 products (the portable-fast "donna-64" shape). Only used
//! through [`crate::aead`], which derives a fresh one-time key per message
//! as RFC 8439 requires.
//!
//! The authenticator is incremental: [`Poly1305::update`] consumes input
//! slices of any length (buffering at most 15 bytes between calls), so the
//! AEAD construction MACs `aad || pad || ciphertext || pad || lengths`
//! directly from the caller's slices without assembling a scratch copy.

/// Bytes in a Poly1305 one-time key.
pub const KEY_LEN: usize = 32;

/// Bytes in a Poly1305 tag.
pub const TAG_LEN: usize = 16;

/// Bytes per Poly1305 message block.
const BLOCK_LEN: usize = 16;

/// Multiplies two 44/44/42-limb values mod `2^130 - 5` (partial
/// reduction); used once per MAC to precompute `r^2`.
fn mul_mod(a: &[u64; 3], b: &[u64; 3]) -> [u64; 3] {
    let sb1 = b[1] * 20;
    let sb2 = b[2] * 20;
    let d0 = (a[0] as u128) * (b[0] as u128)
        + (a[1] as u128) * (sb2 as u128)
        + (a[2] as u128) * (sb1 as u128);
    let mut d1 = (a[0] as u128) * (b[1] as u128)
        + (a[1] as u128) * (b[0] as u128)
        + (a[2] as u128) * (sb2 as u128);
    let mut d2 = (a[0] as u128) * (b[2] as u128)
        + (a[1] as u128) * (b[1] as u128)
        + (a[2] as u128) * (b[0] as u128);
    let mut c = (d0 >> 44) as u64;
    let mut h0 = (d0 as u64) & 0xfffffffffff;
    d1 += c as u128;
    c = (d1 >> 44) as u64;
    let h1 = (d1 as u64) & 0xfffffffffff;
    d2 += c as u128;
    c = (d2 >> 42) as u64;
    let h2 = (d2 as u64) & 0x3ffffffffff;
    h0 += c * 5;
    [h0, h1, h2]
}

/// Incremental Poly1305 hasher.
///
/// # Examples
///
/// ```
/// use nymix_crypto::{poly1305_tag, Poly1305};
///
/// let key = [7u8; 32];
/// let mut mac = Poly1305::new(&key);
/// mac.update(b"split ");
/// mac.update(b"message");
/// assert_eq!(mac.finalize(), poly1305_tag(&key, b"split message"));
/// ```
pub struct Poly1305 {
    /// Clamped multiplier `r` in 44/44/42-bit limbs.
    r: [u64; 3],
    /// Precomputed `20 * r[1..3]` for the modular folding trick
    /// (`2^130 ≡ 5 (mod p)` and the limbs sit 2 bits high).
    s: [u64; 2],
    /// `r^2 mod p`, for the two-blocks-per-iteration Horner stride.
    r2: [u64; 3],
    /// `20 * r2[1..3]`.
    s2: [u64; 2],
    /// Accumulator `h` in 44/44/42-bit limbs.
    h: [u64; 3],
    /// Final added secret `s` (key bytes 16..32) as little-endian words.
    pad: [u64; 2],
    /// Partial input block.
    buf: [u8; BLOCK_LEN],
    buf_len: usize,
}

impl Drop for Poly1305 {
    fn drop(&mut self) {
        // r/r2 (and their folded s/s2 forms) are the one-time key; h and
        // buf hold message-dependent state under it. pad is key bytes
        // 16..32 verbatim.
        crate::zeroize::wipe_limbs(&mut self.r);
        crate::zeroize::wipe_limbs(&mut self.s);
        crate::zeroize::wipe_limbs(&mut self.r2);
        crate::zeroize::wipe_limbs(&mut self.s2);
        crate::zeroize::wipe_limbs(&mut self.h);
        crate::zeroize::wipe_limbs(&mut self.pad);
        crate::zeroize::wipe_bytes(&mut self.buf);
    }
}

impl Poly1305 {
    /// Starts a MAC under the one-time `key`.
    pub fn new(key: &[u8; KEY_LEN]) -> Self {
        // Clamp r per RFC 8439 §2.5, folded into the 44-bit limb masks.
        let t0 = u64::from_le_bytes(key[0..8].try_into().expect("8 bytes"));
        let t1 = u64::from_le_bytes(key[8..16].try_into().expect("8 bytes"));

        let r = [
            t0 & 0xffc0fffffff,
            ((t0 >> 44) | (t1 << 20)) & 0xfffffc0ffff,
            (t1 >> 24) & 0x00ffffffc0f,
        ];
        let r2 = mul_mod(&r, &r);
        Self {
            r,
            s: [r[1] * 20, r[2] * 20],
            r2,
            s2: [r2[1] * 20, r2[2] * 20],
            h: [0; 3],
            pad: [
                u64::from_le_bytes(key[16..24].try_into().expect("8 bytes")),
                u64::from_le_bytes(key[24..32].try_into().expect("8 bytes")),
            ],
            buf: [0u8; BLOCK_LEN],
            buf_len: 0,
        }
    }

    /// Absorbs a run of full 16-byte blocks; `hibit` is `1 << 40` for
    /// normal blocks and `0` for the already-0x01-terminated final partial
    /// block. The accumulator stays in registers across the run; pairs of
    /// blocks are folded per iteration via `r^2` — `(h + m0)·r² + m1·r` —
    /// so the two 3x3 multiplies are independent and overlap in the
    /// pipeline instead of serializing on the accumulator.
    #[inline(always)]
    fn process_blocks(&mut self, data: &[u8], hibit: u64) {
        debug_assert!(data.len().is_multiple_of(BLOCK_LEN));
        let [mut h0, mut h1, mut h2] = self.h;
        let [r0, r1, r2] = self.r;
        let [s1, s2] = self.s;
        let [q0, q1, q2] = self.r2;
        let [p1, p2] = self.s2;

        let mut chunks = data.chunks_exact(2 * BLOCK_LEN);
        for pair in &mut chunks {
            let t0 = u64::from_le_bytes(pair[0..8].try_into().expect("8 bytes"));
            let t1 = u64::from_le_bytes(pair[8..16].try_into().expect("8 bytes"));
            let u0 = u64::from_le_bytes(pair[16..24].try_into().expect("8 bytes"));
            let u1 = u64::from_le_bytes(pair[24..32].try_into().expect("8 bytes"));

            // a = (h + m0) * r^2.
            let a0 = h0 + (t0 & 0xfffffffffff);
            let a1 = h1 + (((t0 >> 44) | (t1 << 20)) & 0xfffffffffff);
            let a2 = h2 + (((t1 >> 24) & 0x3ffffffffff) | hibit);
            // b = m1 * r (independent of h — overlaps with a's multiply).
            let b0 = u0 & 0xfffffffffff;
            let b1 = ((u0 >> 44) | (u1 << 20)) & 0xfffffffffff;
            let b2 = ((u1 >> 24) & 0x3ffffffffff) | hibit;

            let d0 = (a0 as u128) * (q0 as u128)
                + (a1 as u128) * (p2 as u128)
                + (a2 as u128) * (p1 as u128)
                + (b0 as u128) * (r0 as u128)
                + (b1 as u128) * (s2 as u128)
                + (b2 as u128) * (s1 as u128);
            let mut d1 = (a0 as u128) * (q1 as u128)
                + (a1 as u128) * (q0 as u128)
                + (a2 as u128) * (p2 as u128)
                + (b0 as u128) * (r1 as u128)
                + (b1 as u128) * (r0 as u128)
                + (b2 as u128) * (s2 as u128);
            let mut d2 = (a0 as u128) * (q2 as u128)
                + (a1 as u128) * (q1 as u128)
                + (a2 as u128) * (q0 as u128)
                + (b0 as u128) * (r2 as u128)
                + (b1 as u128) * (r1 as u128)
                + (b2 as u128) * (r0 as u128);

            let mut c = (d0 >> 44) as u64;
            h0 = (d0 as u64) & 0xfffffffffff;
            d1 += c as u128;
            c = (d1 >> 44) as u64;
            h1 = (d1 as u64) & 0xfffffffffff;
            d2 += c as u128;
            c = (d2 >> 42) as u64;
            h2 = (d2 as u64) & 0x3ffffffffff;
            h0 += c * 5;
            c = h0 >> 44;
            h0 &= 0xfffffffffff;
            h1 += c;
        }

        for block in chunks.remainder().chunks_exact(BLOCK_LEN) {
            let t0 = u64::from_le_bytes(block[0..8].try_into().expect("8 bytes"));
            let t1 = u64::from_le_bytes(block[8..16].try_into().expect("8 bytes"));

            h0 += t0 & 0xfffffffffff;
            h1 += ((t0 >> 44) | (t1 << 20)) & 0xfffffffffff;
            h2 += ((t1 >> 24) & 0x3ffffffffff) | hibit;

            // h *= r (mod 2^130 - 5): 3x3 schoolbook over u128 with the
            // high limbs folded back via s = 20r.
            let d0 = (h0 as u128) * (r0 as u128)
                + (h1 as u128) * (s2 as u128)
                + (h2 as u128) * (s1 as u128);
            let mut d1 = (h0 as u128) * (r1 as u128)
                + (h1 as u128) * (r0 as u128)
                + (h2 as u128) * (s2 as u128);
            let mut d2 = (h0 as u128) * (r2 as u128)
                + (h1 as u128) * (r1 as u128)
                + (h2 as u128) * (r0 as u128);

            // Partial carry propagation.
            let mut c = (d0 >> 44) as u64;
            h0 = (d0 as u64) & 0xfffffffffff;
            d1 += c as u128;
            c = (d1 >> 44) as u64;
            h1 = (d1 as u64) & 0xfffffffffff;
            d2 += c as u128;
            c = (d2 >> 42) as u64;
            h2 = (d2 as u64) & 0x3ffffffffff;
            h0 += c * 5;
            c = h0 >> 44;
            h0 &= 0xfffffffffff;
            h1 += c;
        }
        self.h = [h0, h1, h2];
    }

    /// Absorbs one 16-byte block (see [`Poly1305::process_blocks`]).
    #[inline(always)]
    fn process_block(&mut self, block: &[u8; BLOCK_LEN], hibit: u64) {
        self.process_blocks(block, hibit);
    }

    /// Feeds `data` into the MAC; call any number of times with any split.
    pub fn update(&mut self, mut data: &[u8]) {
        // Top up a buffered partial block first.
        if self.buf_len > 0 {
            let take = (BLOCK_LEN - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len < BLOCK_LEN {
                return; // data exhausted without completing the block
            }
            let block = self.buf;
            self.process_block(&block, 1 << 40);
            self.buf_len = 0;
        }
        // Full blocks straight from the input slice — no copying, and the
        // accumulator stays in registers across the whole run.
        let full = data.len() - data.len() % BLOCK_LEN;
        self.process_blocks(&data[..full], 1 << 40);
        let rem = &data[full..];
        self.buf[..rem.len()].copy_from_slice(rem);
        self.buf_len = rem.len();
    }

    /// Zero-pads the stream to a 16-byte boundary (the AEAD layout pads the
    /// aad and ciphertext sections independently).
    pub fn pad_to_block(&mut self) {
        if self.buf_len > 0 {
            const ZEROS: [u8; BLOCK_LEN] = [0u8; BLOCK_LEN];
            let need = BLOCK_LEN - self.buf_len;
            self.update(&ZEROS[..need]);
        }
    }

    /// Completes the MAC and returns the tag.
    pub fn finalize(mut self) -> [u8; TAG_LEN] {
        if self.buf_len > 0 {
            // Final partial block: append 0x01 then zeros, high bit clear.
            let mut block = [0u8; BLOCK_LEN];
            block[..self.buf_len].copy_from_slice(&self.buf[..self.buf_len]);
            block[self.buf_len] = 1;
            self.process_block(&block, 0);
        }

        let [mut h0, mut h1, mut h2] = self.h;

        // Full carry propagation.
        let mut c = h1 >> 44;
        h1 &= 0xfffffffffff;
        h2 += c;
        c = h2 >> 42;
        h2 &= 0x3ffffffffff;
        h0 += c * 5;
        c = h0 >> 44;
        h0 &= 0xfffffffffff;
        h1 += c;
        c = h1 >> 44;
        h1 &= 0xfffffffffff;
        h2 += c;
        c = h2 >> 42;
        h2 &= 0x3ffffffffff;
        h0 += c * 5;
        c = h0 >> 44;
        h0 &= 0xfffffffffff;
        h1 += c;

        // Compute h + -p = h - (2^130 - 5) and select it if non-negative.
        let mut g0 = h0.wrapping_add(5);
        c = g0 >> 44;
        g0 &= 0xfffffffffff;
        let mut g1 = h1.wrapping_add(c);
        c = g1 >> 44;
        g1 &= 0xfffffffffff;
        let g2 = h2.wrapping_add(c).wrapping_sub(1 << 42);

        // Constant-time select: mask is all-ones when g >= p.
        let mask = (g2 >> 63).wrapping_sub(1);
        h0 = (h0 & !mask) | (g0 & mask);
        h1 = (h1 & !mask) | (g1 & mask);
        h2 = (h2 & !mask) | (g2 & mask);

        // Serialize to 128 bits and add s mod 2^128.
        let f0 = h0 | (h1 << 44);
        let f1 = (h1 >> 20) | (h2 << 24);
        let (o0, carry) = f0.overflowing_add(self.pad[0]);
        let o1 = f1.wrapping_add(self.pad[1]).wrapping_add(carry as u64);

        let mut tag = [0u8; TAG_LEN];
        tag[0..8].copy_from_slice(&o0.to_le_bytes());
        tag[8..16].copy_from_slice(&o1.to_le_bytes());
        tag
    }
}

/// Computes the Poly1305 tag of `msg` under the one-time key `key`.
///
/// One-shot wrapper over the incremental [`Poly1305`] hasher.
///
/// # Examples
///
/// ```
/// let tag = nymix_crypto::poly1305_tag(&[1u8; 32], b"msg");
/// assert_eq!(tag.len(), 16);
/// ```
// lint:allow(test-only-pub): crypto/tests/prop.rs checks the streaming hasher against this one-shot form
pub fn poly1305_tag(key: &[u8; KEY_LEN], msg: &[u8]) -> [u8; TAG_LEN] {
    let mut mac = Poly1305::new(key);
    mac.update(msg);
    mac.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// RFC 8439 §2.5.2 one-time key.
    fn rfc_key() -> [u8; 32] {
        [
            0x85, 0xd6, 0xbe, 0x78, 0x57, 0x55, 0x6d, 0x33, 0x7f, 0x44, 0x52, 0xfe, 0x42, 0xd5,
            0x06, 0xa8, 0x01, 0x03, 0x80, 0x8a, 0xfb, 0x0d, 0xb2, 0xfd, 0x4a, 0xbf, 0xf6, 0xaf,
            0x41, 0x49, 0xf5, 0x1b,
        ]
    }

    #[test]
    fn rfc8439_vector() {
        // RFC 8439 §2.5.2.
        let tag = poly1305_tag(&rfc_key(), b"Cryptographic Forum Research Group");
        assert_eq!(hex(&tag), "a8061dc1305136c6c22b8baf0c0127a9");
    }

    #[test]
    fn rfc8439_vector_incremental() {
        // Same §2.5.2 vector through the streaming API, byte at a time.
        let mut mac = Poly1305::new(&rfc_key());
        for b in b"Cryptographic Forum Research Group" {
            mac.update(core::slice::from_ref(b));
        }
        assert_eq!(hex(&mac.finalize()), "a8061dc1305136c6c22b8baf0c0127a9");
    }

    #[test]
    fn zero_key_zero_message() {
        let tag = poly1305_tag(&[0u8; 32], b"");
        assert_eq!(tag, [0u8; 16]);
    }

    #[test]
    fn tag_depends_on_message() {
        let key = [0x11u8; 32];
        assert_ne!(poly1305_tag(&key, b"aaaa"), poly1305_tag(&key, b"aaab"));
    }

    #[test]
    fn tag_depends_on_key() {
        assert_ne!(
            poly1305_tag(&[1u8; 32], b"same message"),
            poly1305_tag(&[2u8; 32], b"same message")
        );
    }

    #[test]
    fn block_boundary_lengths() {
        // Exercise the partial-final-block path on either side of 16 bytes.
        let key = [0x5au8; 32];
        let msg = [0xc3u8; 64];
        let mut tags = std::collections::HashSet::new();
        for len in [0usize, 1, 15, 16, 17, 31, 32, 33, 48, 63, 64] {
            assert!(tags.insert(poly1305_tag(&key, &msg[..len])), "len {len}");
        }
    }

    #[test]
    fn streaming_split_invariance() {
        let key = [0x77u8; 32];
        let msg: Vec<u8> = (0..100u8).collect();
        let want = poly1305_tag(&key, &msg);
        for split in [0usize, 1, 15, 16, 17, 50, 99, 100] {
            let mut mac = Poly1305::new(&key);
            mac.update(&msg[..split]);
            mac.update(&msg[split..]);
            assert_eq!(mac.finalize(), want, "split {split}");
        }
    }

    #[test]
    fn pad_to_block_equals_explicit_zeros() {
        let key = [0x3cu8; 32];
        let msg = [0xaau8; 21];
        let mut padded = Poly1305::new(&key);
        padded.update(&msg);
        padded.pad_to_block();
        let mut explicit = Poly1305::new(&key);
        explicit.update(&msg);
        explicit.update(&[0u8; 11]);
        assert_eq!(padded.finalize(), explicit.finalize());
        // Padding an already-aligned stream is a no-op.
        let mut aligned = Poly1305::new(&key);
        aligned.update(&[1u8; 32]);
        aligned.pad_to_block();
        let mut plain = Poly1305::new(&key);
        plain.update(&[1u8; 32]);
        assert_eq!(aligned.finalize(), plain.finalize());
    }
}
