//! FIPS 180-4 SHA-256.
//!
//! Used throughout Nymix: chunk ids and delta commitments in the
//! snapshot store, the keys of the base image's file content, and as
//! the compression function behind HMAC and PBKDF2.
//!
//! # Performance notes
//!
//! The compression function is fully unrolled with the message schedule
//! kept as a rolling 16-word window that is advanced in place between
//! 16-round groups. The straightforward formulation (precompute `w[64]`,
//! then a 64-iteration round loop) autovectorizes badly under
//! `-C target-cpu=native`: LLVM turns the 48-iteration schedule loop into
//! AVX-512 gather/shuffle soup while leaving the serially-dependent round
//! loop scalar, which is how the seed lost ~1.5× on `sha256_64k`. The
//! unrolled form has no loop to pessimize and keeps both the state and the
//! window register-resident.
//!
//! Two entry points share the kernel:
//!
//! * [`Sha256`] — incremental hashing; `update` feeds aligned full blocks
//!   straight from the input slice without staging them through the
//!   partial-block buffer.
//! * [`sha256`] — one-shot convenience.
//!
//! # Runtime backend dispatch
//!
//! PR 2's notes document how a single compile-time codegen target made
//! `sha256_64k` silently 2.4× slower when `-C target-cpu=native` was
//! dropped — a build-configuration dependency nobody notices until the
//! performance envelope is gone. The kernel behind both entry points
//! is therefore selected **at runtime**, once per process, and CPUID
//! is the only selector: no setting can change it. There is one role,
//! a single stream, and one kernel per platform for it: SHA-NI
//! (hardware rounds) where the CPU has the SHA extensions, otherwise
//! the unrolled portable kernel.
//!
//! The SHA-NI kernel lives in a cfg-isolated child module (`shani`)
//! compiled on every `x86_64` build; CPUID dispatch is its only
//! guard, and its kernel function is `#[target_feature]`-fenced, so a
//! baseline x86-64 build carries it too. It is the only unsafe code in
//! the workspace, and `nymix-lint` carries it as a registered,
//! reason-required `unsafe-kernel` exemption. The portable kernel
//! remains the bit-identical floor on every target; the unit tests call
//! each kernel directly, so every test run checks the portable kernel
//! and, on a CPU that has it, SHA-NI against it. The
//! selection is exported as the `crypto.sha256.backend` gauge when it
//! is made (and again by [`sha256_backend`], which reports it).

/// Number of bytes in a SHA-256 digest.
pub const DIGEST_LEN: usize = 32;

/// Number of bytes in a SHA-256 input block.
pub const BLOCK_LEN: usize = 64;

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Initial hash state (exposed to `hmac` for midstate caching).
pub(crate) const INIT_STATE: [u32; 8] = H0;

#[inline(always)]
fn sig0(x: u32) -> u32 {
    x.rotate_right(7) ^ x.rotate_right(18) ^ (x >> 3)
}

#[inline(always)]
fn sig1(x: u32) -> u32 {
    x.rotate_right(17) ^ x.rotate_right(19) ^ (x >> 10)
}

/// One round: consumes `$kw = K[t] + w[t]`, updates `$d` and `$h` so the
/// caller cycles the variable names instead of shuffling eight registers.
macro_rules! rnd {
    ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $g:ident, $h:ident, $kw:expr) => {{
        let t1 = $h
            .wrapping_add($e.rotate_right(6) ^ $e.rotate_right(11) ^ $e.rotate_right(25))
            .wrapping_add(($e & $f) ^ (!$e & $g))
            .wrapping_add($kw);
        let t2 = ($a.rotate_right(2) ^ $a.rotate_right(13) ^ $a.rotate_right(22))
            .wrapping_add(($a & $b) ^ ($c & ($a ^ $b)));
        $d = $d.wrapping_add(t1);
        $h = t1.wrapping_add(t2);
    }};
}

/// Sixteen unrolled rounds reading the current schedule window; `$off` is
/// the logical round number of `$w[0]`.
macro_rules! rnd16 {
    ($w:ident, $off:expr,
     $a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $g:ident, $h:ident) => {{
        rnd!($a, $b, $c, $d, $e, $f, $g, $h, $w[0].wrapping_add(K[$off]));
        rnd!(
            $h,
            $a,
            $b,
            $c,
            $d,
            $e,
            $f,
            $g,
            $w[1].wrapping_add(K[$off + 1])
        );
        rnd!(
            $g,
            $h,
            $a,
            $b,
            $c,
            $d,
            $e,
            $f,
            $w[2].wrapping_add(K[$off + 2])
        );
        rnd!(
            $f,
            $g,
            $h,
            $a,
            $b,
            $c,
            $d,
            $e,
            $w[3].wrapping_add(K[$off + 3])
        );
        rnd!(
            $e,
            $f,
            $g,
            $h,
            $a,
            $b,
            $c,
            $d,
            $w[4].wrapping_add(K[$off + 4])
        );
        rnd!(
            $d,
            $e,
            $f,
            $g,
            $h,
            $a,
            $b,
            $c,
            $w[5].wrapping_add(K[$off + 5])
        );
        rnd!(
            $c,
            $d,
            $e,
            $f,
            $g,
            $h,
            $a,
            $b,
            $w[6].wrapping_add(K[$off + 6])
        );
        rnd!(
            $b,
            $c,
            $d,
            $e,
            $f,
            $g,
            $h,
            $a,
            $w[7].wrapping_add(K[$off + 7])
        );
        rnd!(
            $a,
            $b,
            $c,
            $d,
            $e,
            $f,
            $g,
            $h,
            $w[8].wrapping_add(K[$off + 8])
        );
        rnd!(
            $h,
            $a,
            $b,
            $c,
            $d,
            $e,
            $f,
            $g,
            $w[9].wrapping_add(K[$off + 9])
        );
        rnd!(
            $g,
            $h,
            $a,
            $b,
            $c,
            $d,
            $e,
            $f,
            $w[10].wrapping_add(K[$off + 10])
        );
        rnd!(
            $f,
            $g,
            $h,
            $a,
            $b,
            $c,
            $d,
            $e,
            $w[11].wrapping_add(K[$off + 11])
        );
        rnd!(
            $e,
            $f,
            $g,
            $h,
            $a,
            $b,
            $c,
            $d,
            $w[12].wrapping_add(K[$off + 12])
        );
        rnd!(
            $d,
            $e,
            $f,
            $g,
            $h,
            $a,
            $b,
            $c,
            $w[13].wrapping_add(K[$off + 13])
        );
        rnd!(
            $c,
            $d,
            $e,
            $f,
            $g,
            $h,
            $a,
            $b,
            $w[14].wrapping_add(K[$off + 14])
        );
        rnd!(
            $b,
            $c,
            $d,
            $e,
            $f,
            $g,
            $h,
            $a,
            $w[15].wrapping_add(K[$off + 15])
        );
    }};
}

/// Advances the rolling window by one word:
/// `w[t] += s0(w[t+1]) + w[t+9] + s1(w[t+14])` with all indices mod 16.
/// In-place updates in ascending order naturally pick up
/// already-advanced words where the recurrence needs them.
macro_rules! sched1 {
    ($w:ident, $t:expr) => {
        $w[$t & 15] = $w[$t & 15]
            .wrapping_add(sig0($w[($t + 1) & 15]))
            .wrapping_add($w[($t + 9) & 15])
            .wrapping_add(sig1($w[($t + 14) & 15]));
    };
}

/// Advances the whole window sixteen rounds.
macro_rules! sched16 {
    ($w:ident) => {{
        sched1!($w, 0);
        sched1!($w, 1);
        sched1!($w, 2);
        sched1!($w, 3);
        sched1!($w, 4);
        sched1!($w, 5);
        sched1!($w, 6);
        sched1!($w, 7);
        sched1!($w, 8);
        sched1!($w, 9);
        sched1!($w, 10);
        sched1!($w, 11);
        sched1!($w, 12);
        sched1!($w, 13);
        sched1!($w, 14);
        sched1!($w, 15);
    }};
}

#[inline(always)]
fn compress_block(state: &mut [u32; 8], block: &[u8; BLOCK_LEN]) {
    let mut w = [0u32; 16];
    for (t, chunk) in block.chunks_exact(4).enumerate() {
        w[t] = u32::from_be_bytes(chunk.try_into().expect("4-byte chunk"));
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    rnd16!(w, 0, a, b, c, d, e, f, g, h);
    sched16!(w);
    rnd16!(w, 16, a, b, c, d, e, f, g, h);
    sched16!(w);
    rnd16!(w, 32, a, b, c, d, e, f, g, h);
    sched16!(w);
    rnd16!(w, 48, a, b, c, d, e, f, g, h);
    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
    state[5] = state[5].wrapping_add(f);
    state[6] = state[6].wrapping_add(g);
    state[7] = state[7].wrapping_add(h);
}

/// The portable block loop — also the fallback the cfg-gated SHA-NI
/// kernel takes when the runtime CPU check says no.
fn compress_blocks_portable(state: &mut [u32; 8], data: &[u8]) {
    for block in data.chunks_exact(BLOCK_LEN) {
        compress_block(state, block.try_into().expect("exact chunk"));
    }
}

/// Compresses every 64-byte block of `data` (whose length must be a
/// multiple of [`BLOCK_LEN`]) into `state`, reading the input in place.
/// Routed through the dispatched backend (single-stream, so only the
/// SHA-NI kernel beats the unrolled portable loop here).
pub(crate) fn compress_blocks(state: &mut [u32; 8], data: &[u8]) {
    debug_assert_eq!(data.len() % BLOCK_LEN, 0);
    nymix_obs::counter!("crypto.sha256.blocks", data.len() / BLOCK_LEN);
    // Every target selects (and publishes the gauge); only x86_64
    // builds carry the SHA-NI kernel, so only they can pick it.
    if backend() == ShaBackend::ShaNi {
        #[cfg(target_arch = "x86_64")]
        {
            shani::compress_blocks(state, data);
            return;
        }
    }
    compress_blocks_portable(state, data);
}

/// Serializes a state into the big-endian digest byte order.
pub(crate) fn state_to_digest(state: &[u32; 8]) -> [u8; DIGEST_LEN] {
    let mut out = [0u8; DIGEST_LEN];
    for (i, word) in state.iter().enumerate() {
        out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// Incremental SHA-256 hasher.
///
/// # Examples
///
/// ```
/// use nymix_crypto::Sha256;
///
/// let mut h = Sha256::new();
/// h.update(b"ab");
/// h.update(b"c");
/// assert_eq!(h.finalize(), nymix_crypto::sha256(b"abc"));
/// ```
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buf: [u8; BLOCK_LEN],
    buf_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a hasher in the initial state.
    pub fn new() -> Self {
        Self {
            state: H0,
            buf: [0u8; BLOCK_LEN],
            buf_len: 0,
            total_len: 0,
        }
    }

    /// Resumes hashing from a captured compression state after
    /// `bytes_consumed` bytes (which must be block-aligned). This is how
    /// `HmacKey` replays its cached ipad/opad midstates.
    pub(crate) fn from_midstate(state: [u32; 8], bytes_consumed: u64) -> Self {
        debug_assert_eq!(bytes_consumed % BLOCK_LEN as u64, 0);
        Self {
            state,
            buf: [0u8; BLOCK_LEN],
            buf_len: 0,
            total_len: bytes_consumed,
        }
    }

    /// Absorbs `data` into the hash state. Full blocks are compressed
    /// directly from `data`; only a trailing partial block is staged.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut input = data;
        if self.buf_len > 0 {
            let take = (BLOCK_LEN - self.buf_len).min(input.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&input[..take]);
            self.buf_len += take;
            input = &input[take..];
            if self.buf_len == BLOCK_LEN {
                let block = self.buf;
                compress_blocks(&mut self.state, &block);
                self.buf_len = 0;
            }
        }
        let full = input.len() - input.len() % BLOCK_LEN;
        if full > 0 {
            compress_blocks(&mut self.state, &input[..full]);
            input = &input[full..];
        }
        if !input.is_empty() {
            self.buf[..input.len()].copy_from_slice(input);
            self.buf_len = input.len();
        }
    }

    /// Finishes the hash and returns the 32-byte digest.
    pub fn finalize(mut self) -> [u8; DIGEST_LEN] {
        let bit_len = self.total_len.wrapping_mul(8);
        // Build the padding in one or two tail blocks directly rather
        // than dribbling pad bytes through `update`.
        let mut tail = [0u8; 2 * BLOCK_LEN];
        tail[..self.buf_len].copy_from_slice(&self.buf[..self.buf_len]);
        tail[self.buf_len] = 0x80;
        let tail_len = if self.buf_len < 56 {
            BLOCK_LEN
        } else {
            2 * BLOCK_LEN
        };
        tail[tail_len - 8..tail_len].copy_from_slice(&bit_len.to_be_bytes());
        compress_blocks(&mut self.state, &tail[..tail_len]);
        state_to_digest(&self.state)
    }
}

/// Computes the SHA-256 digest of `data` in one shot.
///
/// # Examples
///
/// ```
/// let d = nymix_crypto::sha256(b"abc");
/// assert_eq!(d[0], 0xba);
/// ```
pub fn sha256(data: &[u8]) -> [u8; DIGEST_LEN] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

// ---------------------------------------------------------------------------
// Runtime backend dispatch
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod shani;

use core::sync::atomic::{AtomicU8, Ordering};

/// The SHA-256 compression kernel a process dispatches to, picked
/// once by CPUID (see the [module docs](self#runtime-backend-dispatch)).
/// Discriminants are stable: they are what the `crypto.sha256.backend`
/// gauge exports, so the retired kernels' values (1 and 3) stay
/// unassigned rather than renumbering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ShaBackend {
    /// The unrolled portable kernel. Selected on every CPU without the
    /// SHA extensions; available on every target.
    Portable = 2,
    /// Hardware SHA extensions (`sha256rnds2` rounds). Selected on
    /// `x86_64` CPUs that advertise `sha`, `ssse3` and `sse4.1`.
    ShaNi = 4,
}

impl ShaBackend {
    /// Stable lower-case name, as benchmark fingerprints print it.
    pub fn name(self) -> &'static str {
        match self {
            ShaBackend::Portable => "portable",
            ShaBackend::ShaNi => "shani",
        }
    }

    /// Numeric id exported as the `crypto.sha256.backend` gauge.
    pub fn id(self) -> usize {
        self as u8 as usize
    }
}

/// 0 = not yet selected; otherwise a `ShaBackend` discriminant.
static BACKEND: AtomicU8 = AtomicU8::new(0);

/// The kernel CPUID says this build and CPU can run.
fn select_backend() -> ShaBackend {
    #[cfg(target_arch = "x86_64")]
    if std::is_x86_feature_detected!("sha")
        && std::is_x86_feature_detected!("ssse3")
        && std::is_x86_feature_detected!("sse4.1")
    {
        return ShaBackend::ShaNi;
    }
    ShaBackend::Portable
}

#[inline]
fn backend() -> ShaBackend {
    match BACKEND.load(Ordering::Relaxed) {
        2 => ShaBackend::Portable,
        4 => ShaBackend::ShaNi,
        _ => {
            let b = select_backend();
            BACKEND.store(b as u8, Ordering::Relaxed);
            nymix_obs::gauge!("crypto.sha256.backend", b.id());
            b
        }
    }
}

/// The kernel this process dispatches SHA-256 to, selecting it by
/// CPUID on first call. Also exports the selection as the
/// `crypto.sha256.backend` gauge so bench-smoke snapshots record
/// which kernel produced the numbers, even when the recorder was
/// switched on after the first hash selected it.
pub fn sha256_backend() -> ShaBackend {
    let b = backend();
    nymix_obs::gauge!("crypto.sha256.backend", b.id());
    b
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn empty_vector() {
        assert_eq!(
            hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn abc_vector() {
        assert_eq!(
            hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn two_block_vector() {
        assert_eq!(
            hex(&sha256(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn four_block_vector() {
        // FIPS 180-4 / NIST CAVP long-message vector (896 bits).
        assert_eq!(
            hex(&sha256(
                b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn\
                  hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"
            )),
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"
        );
    }

    #[test]
    fn million_a() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            hex(&h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_matches_oneshot_at_all_splits() {
        let data: Vec<u8> = (0u8..=255).cycle().take(300).collect();
        let want = sha256(&data);
        for split in 0..data.len() {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), want, "split at {split}");
        }
    }

    #[test]
    fn boundary_lengths() {
        // Lengths around the 55/56/64-byte padding boundaries must all work.
        for len in [0usize, 1, 54, 55, 56, 57, 63, 64, 65, 119, 120, 127, 128] {
            let data = vec![0xa5u8; len];
            let mut h = Sha256::new();
            for b in &data {
                h.update(core::slice::from_ref(b));
            }
            assert_eq!(h.finalize(), sha256(&data), "len {len}");
        }
    }

    #[test]
    fn multi_block_fast_path_matches_buffered() {
        // Feed the same 1000 bytes as one aligned slab, as misaligned
        // chunks, and byte-at-a-time; all must agree.
        let data: Vec<u8> = (0u8..=255).cycle().take(1000).collect();
        let want = sha256(&data);
        for chunk in [1usize, 7, 63, 64, 65, 128, 130, 999] {
            let mut h = Sha256::new();
            for piece in data.chunks(chunk) {
                h.update(piece);
            }
            assert_eq!(h.finalize(), want, "chunk {chunk}");
        }
    }

    proptest! {
        /// SHA-NI and the portable block loop agree over multi-block
        /// inputs from any state. (Without SHA-NI the entry point falls
        /// back to the portable loop, and the check is trivially met.)
        #[test]
        #[cfg(target_arch = "x86_64")]
        fn shani_matches_portable(
            state in any::<[u32; 8]>(),
            data in proptest::collection::vec(any::<u8>(), 0..8 * BLOCK_LEN)
        ) {
            let data = &data[..data.len() - data.len() % BLOCK_LEN];
            let mut got = state;
            shani::compress_blocks(&mut got, data);
            let mut want = state;
            compress_blocks_portable(&mut want, data);
            prop_assert_eq!(got, want, "{} blocks", data.len() / BLOCK_LEN);
        }
    }

    #[test]
    fn cpuid_selects_the_backend() {
        let b = sha256_backend();
        #[cfg(target_arch = "x86_64")]
        let shani = std::is_x86_feature_detected!("sha")
            && std::is_x86_feature_detected!("ssse3")
            && std::is_x86_feature_detected!("sse4.1");
        #[cfg(not(target_arch = "x86_64"))]
        let shani = false;
        let want = if shani {
            ShaBackend::ShaNi
        } else {
            ShaBackend::Portable
        };
        assert_eq!(b, want);
        assert_eq!(ShaBackend::Portable.name(), "portable");
        assert_eq!(ShaBackend::Portable.id(), 2);
        assert_eq!(ShaBackend::ShaNi.name(), "shani");
    }
}
