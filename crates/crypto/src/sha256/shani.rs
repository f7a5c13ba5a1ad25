//! SHA-NI kernel: FIPS 180-4 compression on the x86 SHA extensions
//! (`sha256rnds2` / `sha256msg1` / `sha256msg2`).
//!
//! Compiled on every `x86_64` build. Hashing reaches it only through
//! [`super::backend`] dispatch, which picks it by CPUID alone; the
//! unit tests also call it directly to check it against the portable
//! kernel. The kernel function is `#[target_feature]`-fenced, so no
//! build flag is needed to carry it. This file is the workspace's only
//! unsafe code; `nymix-lint` carries it as a registered, reasoned
//! `unsafe-kernel` exemption — the entry point below stays sound on
//! its own by re-verifying the CPU features and falling back to the
//! portable loop, so a bypassed dispatcher degrades instead of hitting
//! undefined behavior.
//!
//! The round structure is the canonical SHA-NI formulation: the state
//! rides in two XMM registers packed `ABEF`/`CDGH`, each
//! `sha256rnds2` retires two rounds (four per K-group), and the
//! message schedule advances through `sha256msg1`/`sha256msg2` plus
//! one `palignr` add, four words at a time.
#![allow(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]

use core::arch::x86_64::{
    __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_loadu_si128, _mm_set_epi64x,
    _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
    _mm_shuffle_epi8, _mm_storeu_si128,
};

use super::{BLOCK_LEN, K};

/// Safe entry point: verifies the CPU features the intrinsics need and
/// falls back to the portable kernel when any is absent.
pub(super) fn compress_blocks(state: &mut [u32; 8], data: &[u8]) {
    debug_assert_eq!(data.len() % BLOCK_LEN, 0);
    if std::is_x86_feature_detected!("sha")
        && std::is_x86_feature_detected!("ssse3")
        && std::is_x86_feature_detected!("sse4.1")
    {
        // SAFETY: the target features `compress_blocks_shani` enables
        // were all verified present on this CPU just above.
        unsafe { compress_blocks_shani(state, data) }
    } else {
        super::compress_blocks_portable(state, data);
    }
}

#[target_feature(enable = "sha,ssse3,sse4.1")]
unsafe fn compress_blocks_shani(state: &mut [u32; 8], data: &[u8]) {
    // SAFETY: all intrinsics used here require only the features this
    // function enables; the unaligned load/store intrinsics carry no
    // alignment requirement, and every pointer stays inside `state`,
    // `K`, or a full 64-byte block of `data`.
    unsafe {
        // Big-endian word loads via one byte shuffle per 16 bytes.
        let swap = _mm_set_epi64x(0x0c0d0e0f_08090a0bu64 as i64, 0x04050607_00010203u64 as i64);

        // Repack the a..h state into the ABEF/CDGH register layout the
        // rnds2 instruction consumes.
        let dcba = _mm_loadu_si128(state.as_ptr().cast::<__m128i>());
        let hgfe = _mm_loadu_si128(state.as_ptr().add(4).cast::<__m128i>());
        let cdab = _mm_shuffle_epi32::<0xB1>(dcba);
        let efgh = _mm_shuffle_epi32::<0x1B>(hgfe);
        let mut abef = _mm_alignr_epi8::<8>(cdab, efgh);
        let mut cdgh = _mm_blend_epi16::<0xF0>(efgh, cdab);

        for block in data.chunks_exact(BLOCK_LEN) {
            let abef_save = abef;
            let cdgh_save = cdgh;

            // The current 16-word schedule window, four words per
            // register; `msgs[i & 3]` is logical word group `i`.
            let mut msgs = [
                _mm_shuffle_epi8(_mm_loadu_si128(block.as_ptr().cast::<__m128i>()), swap),
                _mm_shuffle_epi8(
                    _mm_loadu_si128(block.as_ptr().add(16).cast::<__m128i>()),
                    swap,
                ),
                _mm_shuffle_epi8(
                    _mm_loadu_si128(block.as_ptr().add(32).cast::<__m128i>()),
                    swap,
                ),
                _mm_shuffle_epi8(
                    _mm_loadu_si128(block.as_ptr().add(48).cast::<__m128i>()),
                    swap,
                ),
            ];

            for group in 0..16usize {
                let k = _mm_loadu_si128(K.as_ptr().add(4 * group).cast::<__m128i>());
                let wk = _mm_add_epi32(msgs[group & 3], k);
                cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                let wk_hi = _mm_shuffle_epi32::<0x0E>(wk);
                abef = _mm_sha256rnds2_epu32(abef, cdgh, wk_hi);
                if group < 12 {
                    // w[g+4] = msg2(msg1(w[g], w[g+1]) + alignr(w[g+3], w[g+2], 4), w[g+3])
                    let shifted =
                        _mm_alignr_epi8::<4>(msgs[(group + 3) & 3], msgs[(group + 2) & 3]);
                    let partial = _mm_sha256msg1_epu32(msgs[group & 3], msgs[(group + 1) & 3]);
                    msgs[group & 3] = _mm_sha256msg2_epu32(
                        _mm_add_epi32(partial, shifted),
                        msgs[(group + 3) & 3],
                    );
                }
            }

            abef = _mm_add_epi32(abef, abef_save);
            cdgh = _mm_add_epi32(cdgh, cdgh_save);
        }

        // Unpack ABEF/CDGH back to the a..h word order.
        let feba = _mm_shuffle_epi32::<0x1B>(abef);
        let dchg = _mm_shuffle_epi32::<0xB1>(cdgh);
        let dcba = _mm_blend_epi16::<0xF0>(feba, dchg);
        let hgfe = _mm_alignr_epi8::<8>(dchg, feba);
        _mm_storeu_si128(state.as_mut_ptr().cast::<__m128i>(), dcba);
        _mm_storeu_si128(state.as_mut_ptr().add(4).cast::<__m128i>(), hgfe);
    }
}
