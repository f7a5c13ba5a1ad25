//! Cryptographic primitives for Nymix, implemented from scratch.
//!
//! Nymix encrypts quasi-persistent nym state before shipping it to cloud
//! storage (§3.5 of the paper) and commits to each snapshot delta with a
//! SHA-256 over its full record set so a restore detects any tampered
//! record. This crate provides the primitives those paths need:
//!
//! * [`sha256`](mod@crate::sha256) — FIPS 180-4 SHA-256.
//! * [`hmac`] — RFC 2104 HMAC-SHA256.
//! * [`pbkdf2`] — RFC 8018 PBKDF2-HMAC-SHA256 password KDF.
//! * [`chacha20`] — RFC 8439 ChaCha20 stream cipher.
//! * [`poly1305`] — RFC 8439 Poly1305 one-time authenticator.
//! * [`aead`] — RFC 8439 ChaCha20-Poly1305 AEAD.
//! * [`ct`] — constant-time comparison helpers.
//!
//! # The in-place hot path
//!
//! Everything Nymix moves in bulk — sealed nym archives, deltas and
//! chunks — runs through ChaCha20/Poly1305, so these primitives are
//! built for block-level, zero-copy operation:
//!
//! * [`ChaCha20::xor_into`] XORs keystream directly into a caller buffer,
//!   word-vectorized over 64-byte blocks (4-block batched kernel). No
//!   keystream `Vec` is ever allocated.
//! * [`Poly1305`] is an incremental `update`/`finalize` hasher, so MACs
//!   stream over scattered slices without a scratch copy.
//! * [`seal_in_place_detached`] / [`open_in_place_detached`] encrypt and
//!   authenticate a caller buffer in place with a detached tag; the
//!   allocating [`seal`] / [`open`] are thin wrappers over them.
//!
//! The SHA-256 stack gets the same treatment for the save/restore path:
//!
//! * The compression function is fully unrolled with a rolling 16-word
//!   schedule window, and [`Sha256::update`] compresses aligned input
//!   directly from the caller's slice (no staging buffer).
//! * [`HmacKey`] caches the ipad/opad midstates so every MAC under a
//!   reused key skips the key-block compressions.
//!   [`pbkdf2_hmac_sha256_into`] derives keys into a caller buffer with
//!   a multi-part salt and no allocation, and runs its iterations as one
//!   word-level loop inside the SHA-256 kernel from those midstates,
//!   two compressions per iteration with no byte round trip.
//!
//! # SHA-256 backend dispatch
//!
//! The SHA-256 compression kernel is selected once per process at
//! runtime rather than at compile time, by CPUID alone: SHA-NI where
//! the CPU has the SHA extensions, otherwise the unrolled portable
//! kernel that every build retains. The SHA-NI kernel is compiled on
//! every `x86_64` build, with CPUID as its only guard, and the unit
//! tests check it bit-identical to the portable kernel. See the
//! [`sha256`](mod@crate::sha256) module docs for the full model;
//! [`sha256_backend`] reports the selection.
//!
//! # AEAD counter convention
//!
//! Per RFC 8439 §2.8, ChaCha20 block counter 0 under the message nonce
//! derives the Poly1305 one-time key, and payload keystream starts at
//! block counter 1. Standalone cipher users (e.g. the base image's
//! deterministic file content) are free to start at counter 0.
//!
//! # Secret hygiene
//!
//! Key-bearing types ([`HmacKey`], [`ChaCha20`], [`Poly1305`]) do not
//! implement `Clone` or derive `Debug`, and wipe their material on drop
//! via [`zeroize`]. The workspace's `nymix-lint` `secret-*` rules pin
//! these properties; `LINTS.md` at the repository root documents the
//! full rule catalogue.
//!
//! All implementations are validated against published test vectors in
//! their module tests. The crate has no dependencies and performs no I/O.

// Unsafe stays denied everywhere except the x86_64 SHA-NI kernel
// module, which overrides with a file-level allow that nymix-lint
// cross-checks against its registered unsafe-kernel exemptions (forbid
// could not be overridden, hence deny; nymix-lint accepts deny at a
// crate root only for a crate that holds such a registered file).
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod aead;
pub mod chacha20;
pub mod ct;
pub mod hmac;
pub mod pbkdf2;
pub mod poly1305;
pub mod sha256;
pub mod zeroize;

pub use aead::{open, open_in_place_detached, seal, seal_in_place_detached, AeadError};
pub use chacha20::ChaCha20;
pub use hmac::HmacKey;
pub use pbkdf2::{pbkdf2_hmac_sha256, pbkdf2_hmac_sha256_into};
pub use poly1305::{poly1305_tag, Poly1305};
pub use sha256::{sha256, sha256_backend, Sha256, ShaBackend};
