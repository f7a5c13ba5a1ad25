//! SHA-NI kernel: FIPS 180-4 compression on the x86 SHA extensions
//! (`sha256rnds2` / `sha256msg1` / `sha256msg2`).
//!
//! Compiled on every `x86_64` build. Hashing reaches it only through
//! [`super::backend`] dispatch, which picks it by CPUID alone; the
//! unit tests also call it directly to check it against the portable
//! kernel. The kernel functions are `#[target_feature]`-fenced, so no
//! build flag is needed to carry them. This file is the workspace's
//! only unsafe code; `nymix-lint` carries it as a registered, reasoned
//! `unsafe-kernel` exemption — the entry points below stay sound on
//! their own by re-verifying the CPU features and falling back to the
//! portable loops, so a bypassed dispatcher degrades instead of hitting
//! undefined behavior.
//!
//! The round structure is the canonical SHA-NI formulation: the state
//! rides in two XMM registers packed `ABEF`/`CDGH`, each
//! `sha256rnds2` retires two rounds (four per K-group), and the
//! message schedule advances through `sha256msg1`/`sha256msg2` plus
//! one `palignr` add, four words at a time. One round body
//! ([`compress`]) serves two loops: the block loop, and the PBKDF2
//! chain, which keeps both HMAC midstates packed and feeds each digest
//! straight back in as message words, so its state never leaves
//! registers between iterations.
#![allow(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]

use core::arch::x86_64::{
    __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_loadu_si128, _mm_set_epi64x,
    _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
    _mm_shuffle_epi8, _mm_storeu_si128, _mm_xor_si128,
};

use super::{BLOCK_LEN, K, PAD_32B};

/// Whether this CPU has every feature the kernels enable — the CPUID
/// check that selects this kernel and that its entry points repeat.
pub(super) fn cpu_has_shani() -> bool {
    std::is_x86_feature_detected!("sha")
        && std::is_x86_feature_detected!("ssse3")
        && std::is_x86_feature_detected!("sse4.1")
}

/// Safe entry point: verifies the CPU features the intrinsics need and
/// falls back to the portable kernel when any is absent.
pub(super) fn compress_blocks(state: &mut [u32; 8], data: &[u8]) {
    debug_assert_eq!(data.len() % BLOCK_LEN, 0);
    if cpu_has_shani() {
        // SAFETY: the target features `compress_blocks_shani` enables
        // were all verified present on this CPU just above.
        unsafe { compress_blocks_shani(state, data) }
    } else {
        super::compress_blocks_portable(state, data);
    }
}

/// Safe entry point of the PBKDF2 chain (see [`super::pbkdf2_chain`]):
/// verifies the CPU features and falls back to the portable chain when
/// any is absent.
pub(super) fn pbkdf2_chain(
    inner: &[u32; 8],
    outer: &[u32; 8],
    u: &mut [u32; 8],
    t: &mut [u32; 8],
    rounds: u32,
) {
    if cpu_has_shani() {
        // SAFETY: the target features `pbkdf2_chain_shani` enables were
        // all verified present on this CPU just above.
        unsafe { pbkdf2_chain_shani(inner, outer, u, t, rounds) }
    } else {
        super::pbkdf2_chain_portable(inner, outer, u, t, rounds);
    }
}

/// Loads eight words (`a..h` of a state) as two registers, word 0 in
/// lane 0.
#[inline(always)]
fn load8(words: &[u32; 8]) -> (__m128i, __m128i) {
    // SAFETY: SSE2 is part of every `x86_64` CPU, and these are
    // unaligned 16-byte loads of words 0..4 and 4..8, both inside
    // `words`.
    unsafe {
        (
            _mm_loadu_si128(words.as_ptr().cast::<__m128i>()),
            _mm_loadu_si128(words.as_ptr().add(4).cast::<__m128i>()),
        )
    }
}

/// Stores two registers as eight words, the inverse of [`load8`].
#[inline(always)]
fn store8(words: &mut [u32; 8], lo: __m128i, hi: __m128i) {
    // SAFETY: SSE2 is part of every `x86_64` CPU, and these are
    // unaligned 16-byte stores of words 0..4 and 4..8, both inside
    // `words`.
    unsafe {
        _mm_storeu_si128(words.as_mut_ptr().cast::<__m128i>(), lo);
        _mm_storeu_si128(words.as_mut_ptr().add(4).cast::<__m128i>(), hi);
    }
}

/// Repacks the `a..d`/`e..h` registers [`load8`] gives into the
/// `ABEF`/`CDGH` layout `sha256rnds2` consumes.
///
/// # Safety
///
/// The CPU must have `ssse3` and `sse4.1`.
#[inline(always)]
unsafe fn pack(dcba: __m128i, hgfe: __m128i) -> (__m128i, __m128i) {
    // SAFETY: register shuffles only; the caller guarantees the
    // features.
    unsafe {
        let cdab = _mm_shuffle_epi32::<0xB1>(dcba);
        let efgh = _mm_shuffle_epi32::<0x1B>(hgfe);
        (
            _mm_alignr_epi8::<8>(cdab, efgh),
            _mm_blend_epi16::<0xF0>(efgh, cdab),
        )
    }
}

/// Unpacks `ABEF`/`CDGH` back to `a..d`/`e..h`, word `a` in lane 0 —
/// the order of a digest's words, and so of message words 0..8 when a
/// digest is the next hash's payload.
///
/// # Safety
///
/// The CPU must have `ssse3` and `sse4.1`.
#[inline(always)]
unsafe fn unpack(abef: __m128i, cdgh: __m128i) -> (__m128i, __m128i) {
    // SAFETY: register shuffles only; the caller guarantees the
    // features.
    unsafe {
        let feba = _mm_shuffle_epi32::<0x1B>(abef);
        let dchg = _mm_shuffle_epi32::<0xB1>(cdgh);
        (
            _mm_blend_epi16::<0xF0>(feba, dchg),
            _mm_alignr_epi8::<8>(dchg, feba),
        )
    }
}

/// The round body both loops share: compresses the sixteen message
/// words `w0..w3` (four per register, the lowest word in lane 0) into
/// the packed state, feed-forward add included. All sixteen K-groups
/// are unrolled over the four named window registers, so the window
/// never goes through memory.
///
/// # Safety
///
/// The CPU must have `sha`, `ssse3` and `sse4.1`; callers are
/// `#[target_feature]` functions enabling them, into which this body
/// inlines.
#[inline(always)]
unsafe fn compress(
    abef: &mut __m128i,
    cdgh: &mut __m128i,
    mut w0: __m128i,
    mut w1: __m128i,
    mut w2: __m128i,
    mut w3: __m128i,
) {
    // SAFETY: every intrinsic needs only the features the caller
    // guarantees; the K loads read groups 0..16 of the 64-word `K`.
    unsafe {
        let (abef_in, cdgh_in) = (*abef, *cdgh);
        // Four rounds of K-group `$g` on window register `$w`.
        macro_rules! quad {
            ($g:literal, $w:ident) => {{
                let k = _mm_loadu_si128(K.as_ptr().add(4 * $g).cast::<__m128i>());
                let wk = _mm_add_epi32($w, k);
                *cdgh = _mm_sha256rnds2_epu32(*cdgh, *abef, wk);
                *abef = _mm_sha256rnds2_epu32(*abef, *cdgh, _mm_shuffle_epi32::<0x0E>(wk));
            }};
        }
        // Advances the window: `$a` (group g) becomes group g + 4,
        // msg2(msg1(w[g], w[g+1]) + alignr(w[g+3], w[g+2], 4), w[g+3]).
        macro_rules! sched {
            ($a:ident, $b:ident, $c:ident, $d:ident) => {
                $a = _mm_sha256msg2_epu32(
                    _mm_add_epi32(_mm_sha256msg1_epu32($a, $b), _mm_alignr_epi8::<4>($d, $c)),
                    $d,
                );
            };
        }
        quad!(0, w0);
        sched!(w0, w1, w2, w3);
        quad!(1, w1);
        sched!(w1, w2, w3, w0);
        quad!(2, w2);
        sched!(w2, w3, w0, w1);
        quad!(3, w3);
        sched!(w3, w0, w1, w2);
        quad!(4, w0);
        sched!(w0, w1, w2, w3);
        quad!(5, w1);
        sched!(w1, w2, w3, w0);
        quad!(6, w2);
        sched!(w2, w3, w0, w1);
        quad!(7, w3);
        sched!(w3, w0, w1, w2);
        quad!(8, w0);
        sched!(w0, w1, w2, w3);
        quad!(9, w1);
        sched!(w1, w2, w3, w0);
        quad!(10, w2);
        sched!(w2, w3, w0, w1);
        quad!(11, w3);
        sched!(w3, w0, w1, w2);
        quad!(12, w0);
        quad!(13, w1);
        quad!(14, w2);
        quad!(15, w3);
        *abef = _mm_add_epi32(*abef, abef_in);
        *cdgh = _mm_add_epi32(*cdgh, cdgh_in);
    }
}

#[target_feature(enable = "sha,ssse3,sse4.1")]
unsafe fn compress_blocks_shani(state: &mut [u32; 8], data: &[u8]) {
    // SAFETY: all intrinsics used here require only the features this
    // function enables; the unaligned load/store intrinsics carry no
    // alignment requirement, and every pointer stays inside `state` or
    // a full 64-byte block of `data`.
    unsafe {
        // Big-endian word loads via one byte shuffle per 16 bytes.
        let swap = _mm_set_epi64x(0x0c0d0e0f_08090a0bu64 as i64, 0x04050607_00010203u64 as i64);
        let (dcba, hgfe) = load8(state);
        let (mut abef, mut cdgh) = pack(dcba, hgfe);
        for block in data.chunks_exact(BLOCK_LEN) {
            let p = block.as_ptr().cast::<__m128i>();
            compress(
                &mut abef,
                &mut cdgh,
                _mm_shuffle_epi8(_mm_loadu_si128(p), swap),
                _mm_shuffle_epi8(_mm_loadu_si128(p.add(1)), swap),
                _mm_shuffle_epi8(_mm_loadu_si128(p.add(2)), swap),
                _mm_shuffle_epi8(_mm_loadu_si128(p.add(3)), swap),
            );
        }
        let (dcba, hgfe) = unpack(abef, cdgh);
        store8(state, dcba, hgfe);
    }
}

#[target_feature(enable = "sha,ssse3,sse4.1")]
unsafe fn pbkdf2_chain_shani(
    inner: &[u32; 8],
    outer: &[u32; 8],
    u: &mut [u32; 8],
    t: &mut [u32; 8],
    rounds: u32,
) {
    // SAFETY: all intrinsics used here require only the features this
    // function enables, and the helpers' loads and stores stay inside
    // the eight-word arrays they are given.
    unsafe {
        let (lo, hi) = load8(inner);
        let (inner_abef, inner_cdgh) = pack(lo, hi);
        let (lo, hi) = load8(outer);
        let (outer_abef, outer_cdgh) = pack(lo, hi);
        // Message words 8..16 are the same constant padding for both
        // hashes of every iteration.
        let (pad_lo, pad_hi) = load8(&PAD_32B);
        let (mut u_lo, mut u_hi) = load8(u);
        let (mut t_lo, mut t_hi) = load8(t);
        for _ in 0..rounds {
            let (mut abef, mut cdgh) = (inner_abef, inner_cdgh);
            compress(&mut abef, &mut cdgh, u_lo, u_hi, pad_lo, pad_hi);
            let (d_lo, d_hi) = unpack(abef, cdgh);
            let (mut abef, mut cdgh) = (outer_abef, outer_cdgh);
            compress(&mut abef, &mut cdgh, d_lo, d_hi, pad_lo, pad_hi);
            (u_lo, u_hi) = unpack(abef, cdgh);
            t_lo = _mm_xor_si128(t_lo, u_lo);
            t_hi = _mm_xor_si128(t_hi, u_hi);
        }
        store8(u, u_lo, u_hi);
        store8(t, t_lo, t_hi);
    }
}
