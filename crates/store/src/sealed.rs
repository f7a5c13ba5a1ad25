//! Password-sealed storage objects.
//!
//! The store-nym workflow asks the user for "a name for the nym, a
//! password to encrypt it with" (§3.5). Sealing pipeline:
//!
//! ```text
//! object bytes → LZSS compress → ChaCha20-Poly1305 under a key
//! derived with PBKDF2-HMAC-SHA256(password, salt=label||random)
//! ```
//!
//! Blob layout: `magic "NYS1" | salt [16] | nonce [12] | body | tag [16]`.
//! The label (nym name / storage location) is bound as AEAD associated
//! data, so an adversary — or a confused user — cannot splice one nym's
//! ciphertext into another nym's slot undetected.
//!
//! There is one way in and one way out. [`seal_into`] is told what it
//! seals ([`Sealable`]): a full archive or a delta is serialized into a
//! reusable arena ([`SealScratch`]) and LZSS-compressed from there into
//! the output blob; a chunk compresses straight from the caller's slice,
//! entropy-gated so incompressible chunks ship a stored body without
//! running the match finder. The body is then encrypted in place with
//! the detached-tag AEAD. [`unseal_into`] is the symmetric
//! authenticate-decrypt-decompress half. With warm buffers neither
//! touches the heap.
//!
//! ## One key per chain epoch
//!
//! PBKDF2 is slow by design (password hardening): one derivation costs
//! about as much CPU as compressing a nym's whole full archive. Paid on
//! every save, it would erase the point of incremental snapshots, since
//! a delta carrying 2 KiB of dirty records would still pay the full
//! multi-ms KDF. A [`SealKey`] therefore derives the key **once per chain
//! epoch** — the full-archive save draws a fresh salt, and every delta
//! and chunk sealed on that base reuses the same key with a fresh
//! random nonce (safe for ChaCha20-Poly1305: distinct nonces under one
//! key). Each blob in the chain binds its own storage label as
//! associated data, so a provider cannot splice delta *i* into slot *j*
//! undetected, and restore recovers the key with a single KDF from the
//! base blob's salt ([`SealKey::from_blob`]) before opening the whole
//! chain.
//!
//! Measured per nym save in nymbench's `heartbeat` workload (seed 1,
//! 2-vCPU AMD EPYC host), counting the CPU of the storage stages only
//! (serialization, chunking, chunk ids, LZSS, AEAD, KDF): a delta save
//! spends ~0.96 ms there and none of it in the KDF. LZSS takes ~35%,
//! the content-defined chunking walk ~31%, layer serialization ~13%,
//! AEAD ~12% and chunk-id hashing ~9%. A full save (first save or
//! compaction) spends ~3.3 ms: the KDF ~35% (~1.2 ms), LZSS ~34%,
//! AEAD ~16%.

use nymix_crypto::poly1305::TAG_LEN;
use nymix_crypto::{open_in_place_detached, pbkdf2_hmac_sha256_into, seal_in_place_detached};
use nymix_sim::Rng;

use crate::archive::NymArchive;
use crate::delta::DeltaArchive;
use crate::lzss;

/// PBKDF2 iteration count (modest: sealing happens on every save).
pub const KDF_ITERATIONS: u32 = 10_000;

/// Sampled byte-entropy threshold (bits per byte) above which a chunk
/// is treated as incompressible and sealed with the stored LZSS body —
/// the match finder never runs. Browser-cache media and ciphertext sit
/// near 8.0; text, JSON and SQLite pages sit well below 6.0. The gate
/// only skips work: a high-entropy chunk that would have compressed
/// (byte-uniform but repetitive) ships a few percent larger, and the
/// unseal path cannot tell the difference.
pub const INCOMPRESSIBLE_BITS_PER_BYTE: f64 = 7.0;

const MAGIC: &[u8; 4] = b"NYS1";
const SALT_LEN: usize = 16;
const NONCE_LEN: usize = 12;
const HEADER_LEN: usize = MAGIC.len() + SALT_LEN + NONCE_LEN;

/// Errors from unsealing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SealedError {
    /// Structural problem with the sealed blob.
    Malformed,
    /// Wrong password, wrong label, another epoch's key, or tampered
    /// ciphertext.
    AuthFailed,
    /// Decompression failed after successful authentication (object
    /// corrupted before sealing — should be impossible).
    Corrupt,
}

impl core::fmt::Display for SealedError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SealedError::Malformed => write!(f, "malformed sealed nym"),
            SealedError::AuthFailed => write!(f, "authentication failed (wrong password/label?)"),
            SealedError::Corrupt => write!(f, "archive corrupt after decryption"),
        }
    }
}

impl std::error::Error for SealedError {}

fn derive_key(password: &str, label: &str, salt: &[u8]) -> [u8; 32] {
    // Salt = label ‖ 0 ‖ random, passed as parts — no concatenation buffer.
    let mut key = [0u8; 32];
    pbkdf2_hmac_sha256_into(
        password.as_bytes(),
        &[label.as_bytes(), &[0], salt],
        KDF_ITERATIONS,
        &mut key,
    );
    key
}

/// Splits a sealed blob into `(salt, nonce, body ‖ tag)`, or `None` if
/// it is structurally not a sealed object.
fn split_header(blob: &[u8]) -> Option<(&[u8; SALT_LEN], &[u8; NONCE_LEN], &[u8])> {
    if blob.len() < HEADER_LEN || &blob[..MAGIC.len()] != MAGIC {
        return None;
    }
    let (salt, rest) = blob[MAGIC.len()..].split_at(SALT_LEN);
    let (nonce, boxed) = rest.split_at(NONCE_LEN);
    Some((salt.try_into().ok()?, nonce.try_into().ok()?, boxed))
}

/// A password-derived sealing key bound to one chain epoch: the KDF
/// runs once, and every blob sealed with this key carries the same
/// salt (with a fresh nonce per seal). Restore re-derives the same key
/// from the base blob with [`SealKey::from_blob`].
pub struct SealKey {
    salt: [u8; SALT_LEN],
    key: [u8; 32],
}

// Manual Debug: never print key material.
impl core::fmt::Debug for SealKey {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("SealKey")
            .field("salt", &self.salt)
            .field("key", &"[redacted]")
            .finish()
    }
}

impl Drop for SealKey {
    fn drop(&mut self) {
        // The salt is public (it rides in every blob header); the derived
        // key is the password-equivalent secret.
        nymix_crypto::zeroize::wipe_bytes(&mut self.key);
    }
}

impl SealKey {
    /// Derives a fresh key for a new chain epoch: `rng` supplies the
    /// salt, the KDF binds `label` (the base archive's storage label).
    pub fn derive(password: &str, label: &str, rng: &mut Rng) -> Self {
        let mut salt = [0u8; SALT_LEN];
        rng.fill_bytes(&mut salt);
        Self {
            key: derive_key(password, label, &salt),
            salt,
        }
    }

    /// Re-derives the key an existing chain was sealed under from the
    /// salt in `blob`'s header (normally the chain's base blob, sealed
    /// under `label`). One KDF opens the whole chain.
    pub fn from_blob(password: &str, label: &str, blob: &[u8]) -> Result<Self, SealedError> {
        let (salt, _, _) = split_header(blob).ok_or(SealedError::Malformed)?;
        Ok(Self {
            key: derive_key(password, label, salt),
            salt: *salt,
        })
    }
}

/// What [`seal_into`] seals.
#[derive(Debug, Clone, Copy)]
pub enum Sealable<'a> {
    /// A full archive: the base of a chain epoch.
    Archive(&'a NymArchive),
    /// A delta on the chain's previous state.
    Delta(&'a DeltaArchive),
    /// One content-addressed chunk's plaintext (see [`crate::cas`]).
    /// Entropy-gated through [`INCOMPRESSIBLE_BITS_PER_BYTE`].
    Chunk(&'a [u8]),
}

/// Reusable working memory for [`seal_into`] / [`unseal_into`]: the
/// serialized-object arena, which grows to the largest object sealed or
/// opened, and the LZSS match finder's chain arena, which is fixed-size
/// (two tables of 8,192 positions, allocated on the first compression
/// and never grown, whatever the input length). Holding one of these
/// across saves makes repeated sealing allocation-free.
#[derive(Debug, Default, Clone)]
pub struct SealScratch {
    /// Serialized (or decompressed) object bytes.
    plain: Vec<u8>,
    /// LZSS encoder with its fixed-size chain arena.
    compressor: lzss::Compressor,
}

impl SealScratch {
    /// Empty scratch; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Seals `what` under `key`, binding `label` (the object's storage
/// label) as AEAD associated data, and writes the blob into `out`
/// (cleared first). `rng` supplies the nonce (deterministic in
/// simulations); the key's salt rides in the header so restore can
/// re-derive the key.
///
/// Archives and deltas serialize into `scratch` and compress from
/// there; a chunk compresses straight from its slice, or — when its
/// sampled entropy reaches [`INCOMPRESSIBLE_BITS_PER_BYTE`] — ships as
/// a stored (all-literal) LZSS body with no match finder run. Every
/// body unseals the same way. With warm `scratch` and `out` buffers the
/// whole pipeline — serialize, compress, encrypt, tag — performs zero
/// heap allocations.
///
/// # Examples
///
/// ```
/// use nymix_sim::Rng;
/// use nymix_store::{seal_into, unseal_into, NymArchive, SealKey, SealScratch, Sealable};
///
/// let mut a = NymArchive::new();
/// a.put("meta", b"nym=alice".to_vec());
/// let mut rng = Rng::seed_from(1);
/// let key = SealKey::derive("hunter2", "nym:alice", &mut rng);
/// let (mut scratch, mut blob, mut work) = (SealScratch::new(), Vec::new(), Vec::new());
/// seal_into(Sealable::Archive(&a), &key, "nym:alice", &mut rng, &mut scratch, &mut blob);
///
/// // Restore: one KDF from the blob's salt opens it.
/// let key = SealKey::from_blob("hunter2", "nym:alice", &blob).unwrap();
/// let bytes = unseal_into(&blob, &key, "nym:alice", &mut work, &mut scratch).unwrap();
/// assert_eq!(NymArchive::from_bytes(bytes).unwrap(), a);
/// ```
pub fn seal_into(
    what: Sealable<'_>,
    key: &SealKey,
    label: &str,
    rng: &mut Rng,
    scratch: &mut SealScratch,
    out: &mut Vec<u8>,
) {
    let SealScratch { plain, compressor } = scratch;
    let (body, compress): (&[u8], bool) = match what {
        Sealable::Archive(archive) => {
            plain.clear();
            archive.write_into(plain);
            (plain.as_slice(), true)
        }
        Sealable::Delta(delta) => {
            plain.clear();
            delta.write_into(plain);
            (plain.as_slice(), true)
        }
        Sealable::Chunk(chunk) => (
            chunk,
            lzss::entropy_bits_per_byte(chunk) < INCOMPRESSIBLE_BITS_PER_BYTE,
        ),
    };

    let mut nonce = [0u8; NONCE_LEN];
    rng.fill_bytes(&mut nonce);
    out.clear();
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&key.salt);
    out.extend_from_slice(&nonce);
    if compress {
        compressor.compress_into(body, out);
    } else {
        lzss::store_into(body, out);
    }
    let tag = seal_in_place_detached(&key.key, &nonce, label.as_bytes(), &mut out[HEADER_LEN..]);
    out.extend_from_slice(&tag);
}

/// Authenticates, decrypts and decompresses `blob` under `key` and its
/// storage `label`, leaving the plaintext (serialized archive, delta or
/// chunk bytes) in `scratch` and returning a view of it. The ciphertext
/// working copy lives in `work`; with warm buffers the whole path
/// performs zero heap allocations.
///
/// A blob whose salt differs from the key's belongs to another chain
/// epoch and fails [`SealedError::AuthFailed`] before any decryption.
pub fn unseal_into<'s>(
    blob: &[u8],
    key: &SealKey,
    label: &str,
    work: &mut Vec<u8>,
    scratch: &'s mut SealScratch,
) -> Result<&'s [u8], SealedError> {
    let (salt, nonce, boxed) = split_header(blob).ok_or(SealedError::Malformed)?;
    // A body shorter than a tag fails authentication rather than
    // structural validation.
    if !nymix_crypto::ct::eq(salt, &key.salt) || boxed.len() < TAG_LEN {
        return Err(SealedError::AuthFailed);
    }
    // Single working copy of the ciphertext, decrypted in place.
    let (ciphertext, tag) = boxed.split_at(boxed.len() - TAG_LEN);
    work.clear();
    work.extend_from_slice(ciphertext);
    open_in_place_detached(&key.key, nonce, label.as_bytes(), work, tag)
        .map_err(|_| SealedError::AuthFailed)?;
    lzss::decompress_into(work, &mut scratch.plain).map_err(|_| SealedError::Corrupt)?;
    Ok(&scratch.plain)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn archive() -> NymArchive {
        let mut a = NymArchive::new();
        a.put("meta", b"nym=bob;site=twitter".to_vec());
        a.put("anonvm.disk", b"<html>cache</html>".repeat(200).to_vec());
        a
    }

    /// A full-archive blob under a freshly derived epoch key.
    fn seal(a: &NymArchive, password: &str, label: &str, rng: &mut Rng) -> Vec<u8> {
        let key = SealKey::derive(password, label, rng);
        let mut blob = Vec::new();
        seal_into(
            Sealable::Archive(a),
            &key,
            label,
            rng,
            &mut SealScratch::new(),
            &mut blob,
        );
        blob
    }

    /// The restore side of [`seal`]: one KDF from the blob, then unseal.
    fn open(blob: &[u8], password: &str, label: &str) -> Result<NymArchive, SealedError> {
        let key = SealKey::from_blob(password, label, blob)?;
        let mut scratch = SealScratch::new();
        let bytes = unseal_into(blob, &key, label, &mut Vec::new(), &mut scratch)?;
        NymArchive::from_bytes(bytes).map_err(|_| SealedError::Corrupt)
    }

    #[test]
    fn roundtrip() {
        let a = archive();
        let blob = seal(&a, "pw", "nym:bob", &mut Rng::seed_from(5));
        assert_eq!(open(&blob, "pw", "nym:bob").unwrap(), a);
    }

    #[test]
    fn reused_scratch_roundtrips_and_matches_fresh() {
        // The steady-state save path: one scratch + one blob buffer
        // across many seals of every kind must produce byte-identical
        // blobs to a fresh scratch per seal.
        let a = archive();
        let mut next = a.clone();
        next.put("meta", b"nym=bob;v=2".to_vec());
        let delta = DeltaArchive::diff(&a, &next);
        let chunk = a.get("anonvm.disk").unwrap();
        let key = SealKey::derive("pw", "l", &mut Rng::seed_from(1));
        let mut scratch = SealScratch::new();
        let (mut out, mut work) = (Vec::new(), Vec::new());
        for seed in [1u64, 2, 3] {
            for what in [
                Sealable::Archive(&a),
                Sealable::Delta(&delta),
                Sealable::Chunk(chunk),
            ] {
                seal_into(
                    what,
                    &key,
                    "l",
                    &mut Rng::seed_from(seed),
                    &mut scratch,
                    &mut out,
                );
                let mut fresh = Vec::new();
                seal_into(
                    what,
                    &key,
                    "l",
                    &mut Rng::seed_from(seed),
                    &mut SealScratch::new(),
                    &mut fresh,
                );
                assert_eq!(out, fresh, "seed {seed}, {what:?}");
                let plain = unseal_into(&out, &key, "l", &mut work, &mut scratch).unwrap();
                match what {
                    Sealable::Archive(a) => assert_eq!(&NymArchive::from_bytes(plain).unwrap(), a),
                    Sealable::Delta(d) => assert_eq!(&DeltaArchive::from_bytes(plain).unwrap(), d),
                    Sealable::Chunk(c) => assert_eq!(plain, c),
                }
            }
        }
    }

    #[test]
    fn delta_seal_roundtrips_under_chain_key() {
        let prev = archive();
        let mut next = prev.clone();
        next.put("meta", b"nym=bob;site=twitter;v=2".to_vec());
        let delta = DeltaArchive::diff(&prev, &next);

        let mut rng = Rng::seed_from(7);
        let key = SealKey::derive("pw", "nym:bob", &mut rng);
        let mut scratch = SealScratch::new();
        let mut blob = Vec::new();
        seal_into(
            Sealable::Delta(&delta),
            &key,
            "nym:bob#e1.1",
            &mut rng,
            &mut scratch,
            &mut blob,
        );

        let mut work = Vec::new();
        let bytes = unseal_into(&blob, &key, "nym:bob#e1.1", &mut work, &mut scratch).unwrap();
        let opened = DeltaArchive::from_bytes(bytes).unwrap();
        assert_eq!(opened, delta);
        let mut replayed = prev.clone();
        opened.apply(&mut replayed).unwrap();
        assert_eq!(replayed, next);
    }

    #[test]
    fn stored_body_seal_roundtrips_and_authenticates() {
        // The entropy-gated chunk path: an incompressible chunk ships
        // the stored body, opens through the one unseal, and still
        // authenticates its label binding.
        let mut rng = Rng::seed_from(13);
        let key = SealKey::derive("pw", "l", &mut rng);
        let mut noise = vec![0u8; 8192];
        nymix_crypto::ChaCha20::new(&[3u8; 32], &[0u8; 12], 0).xor_into(&mut noise);
        let mut scratch = SealScratch::new();
        let (mut blob, mut work) = (Vec::new(), Vec::new());
        seal_into(
            Sealable::Chunk(&noise),
            &key,
            "l#e1/c/ab",
            &mut rng,
            &mut scratch,
            &mut blob,
        );
        let mut stored = Vec::new();
        lzss::store_into(&noise, &mut stored);
        assert_eq!(blob.len(), HEADER_LEN + stored.len() + TAG_LEN);
        let plain = unseal_into(&blob, &key, "l#e1/c/ab", &mut work, &mut scratch).unwrap();
        assert_eq!(plain, &noise[..]);
        assert_eq!(
            unseal_into(&blob, &key, "l#e1/c/cd", &mut work, &mut scratch).unwrap_err(),
            SealedError::AuthFailed
        );
        // A low-entropy chunk keeps compressing.
        let text = b"<div>timeline entry</div>\n".repeat(300);
        seal_into(
            Sealable::Chunk(&text),
            &key,
            "l#e1/c/cd",
            &mut rng,
            &mut scratch,
            &mut blob,
        );
        assert!(blob.len() * 4 < text.len());
        let plain = unseal_into(&blob, &key, "l#e1/c/cd", &mut work, &mut scratch).unwrap();
        assert_eq!(plain, &text[..]);
    }

    #[test]
    fn chain_position_cannot_be_spliced() {
        // Two deltas sealed under one chain key but different slot
        // labels: serving slot 1's blob in slot 2 must fail auth.
        let a = archive();
        let delta = DeltaArchive::diff(&a, &a);
        let mut rng = Rng::seed_from(9);
        let key = SealKey::derive("pw", "l", &mut rng);
        let mut scratch = SealScratch::new();
        let (mut b1, mut work) = (Vec::new(), Vec::new());
        seal_into(
            Sealable::Delta(&delta),
            &key,
            "l#e1.1",
            &mut rng,
            &mut scratch,
            &mut b1,
        );
        assert_eq!(
            unseal_into(&b1, &key, "l#e1.2", &mut work, &mut scratch).unwrap_err(),
            SealedError::AuthFailed
        );
        // A blob from a different chain epoch (different salt) is
        // rejected before any decryption happens.
        let other = SealKey::derive("pw", "l", &mut Rng::seed_from(99));
        assert_eq!(
            unseal_into(&b1, &other, "l#e1.1", &mut work, &mut scratch).unwrap_err(),
            SealedError::AuthFailed
        );
    }

    #[test]
    fn blob_salt_extraction() {
        // from_blob reads the epoch salt out of the header and
        // re-derives exactly the sealing key.
        let mut rng = Rng::seed_from(5);
        let key = SealKey::derive("pw", "l", &mut rng.clone());
        let blob = seal(&archive(), "pw", "l", &mut rng);
        let back = SealKey::from_blob("pw", "l", &blob).unwrap();
        assert_eq!(back.salt, key.salt);
        assert_eq!(&blob[4..20], &key.salt);
        assert_eq!(back.key, key.key);
        assert_eq!(
            SealKey::from_blob("pw", "l", b"junk").unwrap_err(),
            SealedError::Malformed
        );
        assert_eq!(
            SealKey::from_blob("pw", "l", &blob[..10]).unwrap_err(),
            SealedError::Malformed
        );
    }

    #[test]
    fn wrong_password_fails() {
        let blob = seal(&archive(), "pw", "nym:bob", &mut Rng::seed_from(5));
        assert_eq!(
            open(&blob, "wrong", "nym:bob"),
            Err(SealedError::AuthFailed)
        );
    }

    #[test]
    fn wrong_label_fails() {
        // Splicing bob's blob into alice's slot must not decrypt.
        let blob = seal(&archive(), "pw", "nym:bob", &mut Rng::seed_from(5));
        assert_eq!(open(&blob, "pw", "nym:alice"), Err(SealedError::AuthFailed));
    }

    #[test]
    fn tamper_fails() {
        let mut blob = seal(&archive(), "pw", "nym:bob", &mut Rng::seed_from(5));
        let last = blob.len() - 1;
        blob[last] ^= 1;
        assert_eq!(open(&blob, "pw", "nym:bob"), Err(SealedError::AuthFailed));
        let key = SealKey::derive("pw", "nym:bob", &mut Rng::seed_from(5));
        assert_eq!(
            unseal_into(
                b"junk",
                &key,
                "nym:bob",
                &mut Vec::new(),
                &mut SealScratch::new()
            ),
            Err(SealedError::Malformed)
        );
    }

    #[test]
    fn ciphertext_looks_random() {
        // The provider stores only high-entropy bytes: no plaintext
        // marker from the archive appears in the sealed blob.
        let blob = seal(&archive(), "pw", "nym:bob", &mut Rng::seed_from(5));
        let needle = b"twitter";
        assert!(!blob.windows(needle.len()).any(|w| w == needle));
    }

    #[test]
    fn compression_helps_repetitive_state() {
        let a = archive();
        let sealed = seal(&a, "pw", "l", &mut Rng::seed_from(1));
        assert!(sealed.len() < a.to_bytes().len() / 2);
    }

    #[test]
    fn salts_differ_across_seals() {
        let mut rng = Rng::seed_from(9);
        let a = seal(&archive(), "pw", "l", &mut rng);
        let b = seal(&archive(), "pw", "l", &mut rng);
        assert_ne!(a[4..20], b[4..20], "fresh salt per epoch");
        assert_ne!(a, b);
        // Both still open.
        assert!(open(&a, "pw", "l").is_ok());
        assert!(open(&b, "pw", "l").is_ok());
    }
}
