//! RFC 8018 PBKDF2-HMAC-SHA256.
//!
//! Nymix derives the archive master secret from the user's nym password
//! and the nym's storage label (§3.5 workflow: "a password to encrypt it
//! with"). PBKDF2 slows down offline guessing if a cloud provider or a
//! confiscating adversary obtains the encrypted archive.
//!
//! The password's ipad/opad midstates are compressed once up front
//! ([`HmacKey`]), so every `U_{n+1} = HMAC(P, U_n)` step costs two
//! SHA-256 compressions instead of the four a from-scratch HMAC pays.
//! The iterations after `U_1` run as one loop inside the dispatched
//! SHA-256 kernel: U, the accumulator T and both midstates stay as
//! words (SHA-NI registers) from the first iteration to the last, and
//! each digest is fed straight back in as the next message words with
//! the constant padding words, so no iteration builds a byte block or
//! serializes a digest. One derivation is 20,000 serially dependent
//! compressions, and every restore that reads a sealed chain pays one.

use crate::hmac::HmacKey;
use crate::sha256::{be_words, state_to_digest, DIGEST_LEN};

/// Derives key material from `password` and a salt supplied as
/// concatenated `salt_parts`, writing exactly `out.len()` bytes into
/// `out` without allocating.
///
/// Callers that assemble the salt from several pieces (the sealed-archive
/// path binds `label ‖ 0 ‖ random`) pass the pieces directly instead of
/// materializing the concatenation.
///
/// # Panics
///
/// Panics if `iterations` is zero.
pub fn pbkdf2_hmac_sha256_into(
    password: &[u8],
    salt_parts: &[&[u8]],
    iterations: u32,
    out: &mut [u8],
) {
    assert!(iterations > 0, "PBKDF2 requires at least one iteration");
    nymix_obs::counter!("crypto.kdf.calls", 1u64);
    let key = HmacKey::new(password);
    let mut block_index = 1u32;
    for chunk in out.chunks_mut(DIGEST_LEN) {
        // U_1 = HMAC(P, salt ‖ INT(i)), streamed over the salt parts.
        let mut h = key.hasher();
        for part in salt_parts {
            h.update(part);
        }
        h.update(&block_index.to_be_bytes());
        let mut u1 = key.finish(h);
        let mut u: [u32; 8] = be_words(&u1);
        let mut acc = u;
        key.pbkdf2_chain(&mut u, &mut acc, iterations - 1);
        let mut t = state_to_digest(&acc);
        chunk.copy_from_slice(&t[..chunk.len()]);
        crate::zeroize::wipe_bytes(&mut u1);
        crate::zeroize::wipe_words(&mut u);
        crate::zeroize::wipe_words(&mut acc);
        crate::zeroize::wipe_bytes(&mut t);
        block_index = block_index.wrapping_add(1);
    }
}

/// Derives `len` bytes from `password` and `salt` with `iterations`
/// rounds of PBKDF2-HMAC-SHA256.
///
/// # Panics
///
/// Panics if `iterations` is zero.
///
/// # Examples
///
/// ```
/// let key = nymix_crypto::pbkdf2_hmac_sha256(b"hunter2", b"nym:alice", 1000, 32);
/// assert_eq!(key.len(), 32);
/// ```
pub fn pbkdf2_hmac_sha256(password: &[u8], salt: &[u8], iterations: u32, len: usize) -> Vec<u8> {
    let mut out = vec![0u8; len];
    pbkdf2_hmac_sha256_into(password, &[salt], iterations, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn known_vector_one_iteration() {
        // Widely published PBKDF2-HMAC-SHA256 vector.
        let dk = pbkdf2_hmac_sha256(b"password", b"salt", 1, 32);
        assert_eq!(
            hex(&dk),
            "120fb6cffcf8b32c43e7225256c4f837a86548c92ccc35480805987cb70be17b"
        );
    }

    #[test]
    fn known_vector_two_iterations() {
        let dk = pbkdf2_hmac_sha256(b"password", b"salt", 2, 32);
        assert_eq!(
            hex(&dk),
            "ae4d0c95af6b46d32d0adff928f06dd02a303f8ef3c251dfd6e2d85a95474c43"
        );
    }

    #[test]
    fn known_vector_4096_iterations() {
        let dk = pbkdf2_hmac_sha256(b"password", b"salt", 4096, 32);
        assert_eq!(
            hex(&dk),
            "c5e478d59288c841aa530db6845c4c8d962893a001ce4e11a4963873aa98134a"
        );
    }

    #[test]
    fn longer_output_spans_blocks() {
        let dk = pbkdf2_hmac_sha256(
            b"passwordPASSWORDpassword",
            b"saltSALTsaltSALTsaltSALTsaltSALTsalt",
            4096,
            40,
        );
        assert_eq!(
            hex(&dk),
            "348c89dbcbd32b2f32d814b8116e84cf2b17347ebc1800181c4e2a1fb8dd53e1\
             c635518c7dac47e9"
        );
    }

    #[test]
    fn rfc7914_vectors() {
        // RFC 7914 §11 lists PBKDF2-HMAC-SHA256 vectors with 64-byte
        // output (two derived blocks).
        let dk = pbkdf2_hmac_sha256(b"passwd", b"salt", 1, 64);
        assert_eq!(
            hex(&dk),
            "55ac046e56e3089fec1691c22544b605f94185216dde0465e68b9d57c20dacbc\
             49ca9cccf179b645991664b39d77ef317c71b845b1e30bd509112041d3a19783"
        );
        let dk = pbkdf2_hmac_sha256(b"Password", b"NaCl", 80_000, 64);
        assert_eq!(
            hex(&dk),
            "4ddcd8f60b98be21830cee5ef22701f9641a4418d04c0414aeff08876b34ab56\
             a1d425a1225833549adb841b51c9b3176a272bdebba1d078478f62b397f33c8d"
        );
    }

    #[test]
    fn multipart_salt_equals_concatenation() {
        let mut split = [0u8; 40];
        pbkdf2_hmac_sha256_into(b"pw", &[b"nym:alice", &[0], b"random"], 100, &mut split);
        let joined = pbkdf2_hmac_sha256(b"pw", b"nym:alice\x00random", 100, 40);
        assert_eq!(&split[..], &joined[..]);
    }

    #[test]
    fn different_salts_differ() {
        let a = pbkdf2_hmac_sha256(b"pw", b"nym:a", 10, 32);
        let b = pbkdf2_hmac_sha256(b"pw", b"nym:b", 10, 32);
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic(expected = "at least one iteration")]
    fn zero_iterations_rejected() {
        let _ = pbkdf2_hmac_sha256(b"pw", b"s", 0, 32);
    }

    #[test]
    #[should_panic(expected = "at least one iteration")]
    fn zero_iterations_rejected_into() {
        pbkdf2_hmac_sha256_into(b"pw", &[b"s"], 0, &mut [0u8; 32]);
    }
}
