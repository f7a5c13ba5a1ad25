//! RFC 8439 ChaCha20 stream cipher.
//!
//! ChaCha20 is the bulk cipher of the [`crate::aead`] construction that
//! seals quasi-persistent nym state. Sealing is a hot path (every byte of
//! every saved archive, delta and chunk crosses it), so the cipher works
//! block-at-a-time rather than byte-at-a-time: the key/nonce are parsed
//! once into a flat `[u32; 16]` initial state, keystream is produced by a
//! 4-block batched kernel where only the counter word changes between
//! blocks, and [`ChaCha20::xor_into`] XORs whole 32-bit words of
//! keystream into the caller's buffer without ever materializing a
//! keystream allocation.

/// Bytes in a ChaCha20 key.
pub const KEY_LEN: usize = 32;

/// Bytes in a ChaCha20 nonce.
pub const NONCE_LEN: usize = 12;

/// Bytes produced per block invocation.
pub const BLOCK_LEN: usize = 64;

/// Blocks per batched keystream kernel invocation. Four 32-bit lanes per
/// state word: wide enough to fill a 128-bit vector (and let AVX2 fuse
/// pairs of operations), narrow enough that the 2x16 lane-vectors of
/// working + initial state still fit the register file without spills.
const BATCH_BLOCKS: usize = 4;

const SIGMA: [u32; 4] = [0x61707865, 0x3320646e, 0x79622d32, 0x6b206574];

#[inline(always)]
fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

/// Builds the flat initial state from key, counter and nonce.
#[inline]
fn init_state(key: &[u8; KEY_LEN], counter: u32, nonce: &[u8; NONCE_LEN]) -> [u32; 16] {
    let mut state = [0u32; 16];
    state[..4].copy_from_slice(&SIGMA);
    for (i, chunk) in key.chunks_exact(4).enumerate() {
        state[4 + i] = u32::from_le_bytes(chunk.try_into().expect("4 bytes"));
    }
    state[12] = counter;
    for (i, chunk) in nonce.chunks_exact(4).enumerate() {
        state[13 + i] = u32::from_le_bytes(chunk.try_into().expect("4 bytes"));
    }
    state
}

/// The 20-round core: runs the double round ten times over `working` and
/// adds the initial `state` back in, yielding one block of keystream as
/// sixteen little-endian words.
#[inline(always)]
fn block_words(state: &[u32; 16]) -> [u32; 16] {
    let mut working = *state;
    for _ in 0..10 {
        quarter_round(&mut working, 0, 4, 8, 12);
        quarter_round(&mut working, 1, 5, 9, 13);
        quarter_round(&mut working, 2, 6, 10, 14);
        quarter_round(&mut working, 3, 7, 11, 15);
        quarter_round(&mut working, 0, 5, 10, 15);
        quarter_round(&mut working, 1, 6, 11, 12);
        quarter_round(&mut working, 2, 7, 8, 13);
        quarter_round(&mut working, 3, 4, 9, 14);
    }
    for (w, s) in working.iter_mut().zip(state) {
        *w = w.wrapping_add(*s);
    }
    working
}

/// XORs keystream words into a word-aligned run of bytes.
///
/// `dst.len()` must be `4 * ks.len()` at most; partial final words are the
/// caller's problem (handled via the block buffer).
#[inline(always)]
fn xor_words(dst: &mut [u8], ks: &[u32]) {
    for (chunk, &w) in dst.chunks_exact_mut(4).zip(ks) {
        let v = u32::from_le_bytes(chunk.try_into().expect("4 bytes")) ^ w;
        chunk.copy_from_slice(&v.to_le_bytes());
    }
}

/// One word position across [`BATCH_BLOCKS`] blocks computed in parallel
/// (structure-of-arrays lane vector; each elementwise loop compiles to one
/// SIMD op).
type Lanes = [u32; BATCH_BLOCKS];

#[inline(always)]
fn vadd(a: &mut Lanes, b: &Lanes) {
    for i in 0..BATCH_BLOCKS {
        a[i] = a[i].wrapping_add(b[i]);
    }
}

#[inline(always)]
fn vxor_rotl<const R: u32>(d: &mut Lanes, a: &Lanes) {
    for i in 0..BATCH_BLOCKS {
        d[i] = (d[i] ^ a[i]).rotate_left(R);
    }
}

/// The quarter round across all lanes at once.
#[inline(always)]
fn vquarter_round(s: &mut [Lanes; 16], a: usize, b: usize, c: usize, d: usize) {
    let t = s[b];
    vadd(&mut s[a], &t);
    let t = s[a];
    vxor_rotl::<16>(&mut s[d], &t);
    let t = s[d];
    vadd(&mut s[c], &t);
    let t = s[c];
    vxor_rotl::<12>(&mut s[b], &t);
    let t = s[b];
    vadd(&mut s[a], &t);
    let t = s[a];
    vxor_rotl::<8>(&mut s[d], &t);
    let t = s[d];
    vadd(&mut s[c], &t);
    let t = s[c];
    vxor_rotl::<7>(&mut s[b], &t);
}

/// Batched kernel: computes [`BATCH_BLOCKS`] consecutive keystream blocks
/// (counters `state[12] .. state[12] + BATCH_BLOCKS`) and XORs them into
/// `dst` (`BATCH_BLOCKS * BLOCK_LEN` bytes).
///
/// The working state is kept flat across blocks — only the counter lane
/// differs — and every round operation runs elementwise across the four
/// block lanes, which the compiler lowers to 4-wide vector instructions.
#[inline]
fn xor_batch(state: &[u32; 16], dst: &mut [u8]) {
    debug_assert_eq!(dst.len(), BATCH_BLOCKS * BLOCK_LEN);
    let mut v: [Lanes; 16] = std::array::from_fn(|i| [state[i]; BATCH_BLOCKS]);
    for (j, lane) in v[12].iter_mut().enumerate() {
        *lane = state[12].wrapping_add(j as u32);
    }
    let init = v;
    for _ in 0..10 {
        vquarter_round(&mut v, 0, 4, 8, 12);
        vquarter_round(&mut v, 1, 5, 9, 13);
        vquarter_round(&mut v, 2, 6, 10, 14);
        vquarter_round(&mut v, 3, 7, 11, 15);
        vquarter_round(&mut v, 0, 5, 10, 15);
        vquarter_round(&mut v, 1, 6, 11, 12);
        vquarter_round(&mut v, 2, 7, 8, 13);
        vquarter_round(&mut v, 3, 4, 9, 14);
    }
    for (word, seed) in v.iter_mut().zip(&init) {
        vadd(word, seed);
    }
    // De-interleave lanes back into byte order while XORing into dst.
    for j in 0..BATCH_BLOCKS {
        let block = &mut dst[j * BLOCK_LEN..(j + 1) * BLOCK_LEN];
        for (i, chunk) in block.chunks_exact_mut(4).enumerate() {
            let w = u32::from_le_bytes(chunk.try_into().expect("4 bytes")) ^ v[i][j];
            chunk.copy_from_slice(&w.to_le_bytes());
        }
    }
}

/// Computes one 64-byte ChaCha20 keystream block.
pub fn block(key: &[u8; KEY_LEN], counter: u32, nonce: &[u8; NONCE_LEN]) -> [u8; BLOCK_LEN] {
    let words = block_words(&init_state(key, counter, nonce));
    let mut out = [0u8; BLOCK_LEN];
    for (chunk, w) in out.chunks_exact_mut(4).zip(words) {
        chunk.copy_from_slice(&w.to_le_bytes());
    }
    out
}

/// Streaming ChaCha20 keystream generator.
///
/// The key and nonce are parsed into the flat initial state exactly once in
/// [`ChaCha20::new`]; afterwards only the counter word (`state[12]`)
/// advances. Applying keystream is allocation-free and word-vectorized.
///
/// # Examples
///
/// ```
/// use nymix_crypto::ChaCha20;
///
/// let key = [7u8; 32];
/// let nonce = [1u8; 12];
/// let mut msg = *b"nymbox state";
/// ChaCha20::new(&key, &nonce, 1).apply(&mut msg);
/// assert_ne!(&msg, b"nymbox state");
/// ChaCha20::new(&key, &nonce, 1).apply(&mut msg);
/// assert_eq!(&msg, b"nymbox state");
/// ```
pub struct ChaCha20 {
    /// Flat initial state; `state[12]` is the block counter and is the only
    /// word that changes between blocks.
    state: [u32; 16],
    /// Leftover keystream from a partially consumed block.
    buf: [u8; BLOCK_LEN],
    buf_pos: usize,
}

impl Drop for ChaCha20 {
    fn drop(&mut self) {
        // state[4..12] are the key words and buf is live keystream
        // (key-equivalent); wipe the whole state rather than track which
        // words are sensitive.
        crate::zeroize::wipe_words(&mut self.state);
        crate::zeroize::wipe_bytes(&mut self.buf);
    }
}

impl ChaCha20 {
    /// Creates a cipher positioned at `initial_counter`.
    pub fn new(key: &[u8; KEY_LEN], nonce: &[u8; NONCE_LEN], initial_counter: u32) -> Self {
        Self {
            state: init_state(key, initial_counter, nonce),
            buf: [0u8; BLOCK_LEN],
            buf_pos: BLOCK_LEN,
        }
    }

    /// The next block counter value that would be consumed.
    pub fn counter(&self) -> u32 {
        self.state[12]
    }

    /// XORs the keystream into `data` in place (encrypts or decrypts).
    ///
    /// Equivalent to [`ChaCha20::xor_into`]; kept as the cipher-flavored
    /// name.
    #[inline]
    pub fn apply(&mut self, data: &mut [u8]) {
        self.xor_into(data);
    }

    /// XORs the next `dst.len()` keystream bytes into `dst`.
    ///
    /// This is the allocation-free entry point: keystream is XORed
    /// directly into the caller's buffer. Full 64-byte blocks are produced by a `BATCH_BLOCKS`-block batched
    /// kernel and XORed word-by-word; only a trailing partial block goes
    /// through the byte buffer.
    pub fn xor_into(&mut self, dst: &mut [u8]) {
        let n = dst.len();
        let mut off = 0;

        // Drain leftover keystream from a previous partial block.
        while self.buf_pos < BLOCK_LEN && off < n {
            dst[off] ^= self.buf[self.buf_pos];
            self.buf_pos += 1;
            off += 1;
        }

        // Batched kernel: BATCH_BLOCKS blocks per round trip through the
        // working state, only the counter lane changing between blocks.
        while n - off >= BATCH_BLOCKS * BLOCK_LEN {
            xor_batch(&self.state, &mut dst[off..off + BATCH_BLOCKS * BLOCK_LEN]);
            self.state[12] = self.state[12].wrapping_add(BATCH_BLOCKS as u32);
            off += BATCH_BLOCKS * BLOCK_LEN;
        }

        // Remaining full blocks.
        while n - off >= BLOCK_LEN {
            let words = block_words(&self.state);
            self.state[12] = self.state[12].wrapping_add(1);
            xor_words(&mut dst[off..off + BLOCK_LEN], &words);
            off += BLOCK_LEN;
        }

        // Trailing partial block: materialize one block into the buffer and
        // consume what is needed; the rest stays for the next call.
        if off < n {
            let words = block_words(&self.state);
            self.state[12] = self.state[12].wrapping_add(1);
            for (chunk, w) in self.buf.chunks_exact_mut(4).zip(words) {
                chunk.copy_from_slice(&w.to_le_bytes());
            }
            self.buf_pos = 0;
            while off < n {
                dst[off] ^= self.buf[self.buf_pos];
                self.buf_pos += 1;
                off += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn test_key() -> [u8; 32] {
        let mut k = [0u8; 32];
        for (i, b) in k.iter_mut().enumerate() {
            *b = i as u8;
        }
        k
    }

    #[test]
    fn rfc8439_block_vector() {
        // RFC 8439 §2.3.2.
        let key = test_key();
        let nonce = [
            0x00, 0x00, 0x00, 0x09, 0x00, 0x00, 0x00, 0x4a, 0x00, 0x00, 0x00, 0x00,
        ];
        let out = block(&key, 1, &nonce);
        assert_eq!(
            hex(&out),
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e\
             d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e"
        );
    }

    #[test]
    fn rfc8439_encrypt_vector() {
        // RFC 8439 §2.4.2 ("sunscreen" plaintext).
        let key = test_key();
        let nonce = [
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x4a, 0x00, 0x00, 0x00, 0x00,
        ];
        let mut data = *b"Ladies and Gentlemen of the class of '99: If I could offer you \
only one tip for the future, sunscreen would be it.";
        // The plaintext starts at block counter 1, as in the AEAD.
        ChaCha20::new(&key, &nonce, 1).xor_into(&mut data);
        assert_eq!(
            hex(&data),
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b\
             f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8\
             07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736\
             5af90bbf74a35be6b40b8eedf2785e42874d"
        );
    }

    #[test]
    fn streaming_matches_block_boundaries() {
        let key = test_key();
        let nonce = [3u8; 12];
        let mut a = vec![0u8; 200];
        ChaCha20::new(&key, &nonce, 0).apply(&mut a);
        // Apply in uneven chunks; result must be identical.
        let mut b = vec![0u8; 200];
        let mut c = ChaCha20::new(&key, &nonce, 0);
        let mut off = 0;
        for chunk in [1usize, 63, 64, 65, 7] {
            c.apply(&mut b[off..off + chunk]);
            off += chunk;
        }
        assert_eq!(a, b);
    }

    #[test]
    fn batched_path_matches_single_blocks() {
        // Cross 4-block batch boundaries with a large buffer and verify
        // against the reference single-block function.
        let key = test_key();
        let nonce = [5u8; 12];
        let mut data = vec![0u8; 64 * 11 + 17];
        ChaCha20::new(&key, &nonce, 3).xor_into(&mut data);
        for (i, chunk) in data.chunks(64).enumerate() {
            let want = block(&key, 3 + i as u32, &nonce);
            assert_eq!(chunk, &want[..chunk.len()], "block {i}");
        }
    }

    #[test]
    fn keystream_is_deterministic() {
        // XOR into zeroed buffers exposes the raw keystream.
        let key = [9u8; 32];
        let nonce = [4u8; 12];
        let keystream = |counter| {
            let mut out = [0u8; 100];
            ChaCha20::new(&key, &nonce, counter).xor_into(&mut out);
            out
        };
        assert_eq!(keystream(0), keystream(0));
        assert_ne!(keystream(0), keystream(1));
    }

    #[test]
    fn xor_into_equals_apply() {
        let key = [0x31u8; 32];
        let nonce = [0x13u8; 12];
        let mut a = vec![0x5au8; 333];
        let mut b = a.clone();
        ChaCha20::new(&key, &nonce, 2).apply(&mut a);
        ChaCha20::new(&key, &nonce, 2).xor_into(&mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn roundtrip_inverts() {
        let key = [0x42u8; 32];
        let nonce = [0x24u8; 12];
        let msg: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        let mut work = msg.clone();
        ChaCha20::new(&key, &nonce, 1).xor_into(&mut work);
        assert_ne!(work, msg);
        ChaCha20::new(&key, &nonce, 1).xor_into(&mut work);
        assert_eq!(work, msg);
    }
}
