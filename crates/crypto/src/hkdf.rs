//! RFC 5869 HKDF-SHA256.
//!
//! Nymix derives all per-purpose keys from a nym's master secret with
//! HKDF: the archive encryption key and the deterministic entry-guard
//! seed (§3.5 "Security Tradeoffs"), each separated by an `info` label so
//! that no key is ever reused across purposes.

use crate::hmac::hmac_sha256;
use crate::sha256::DIGEST_LEN;

/// HKDF-Extract: derives a pseudorandom key from input keying material.
fn hkdf_extract(salt: &[u8], ikm: &[u8]) -> [u8; DIGEST_LEN] {
    hmac_sha256(salt, ikm)
}

/// HKDF-Expand: expands `prk` into `len` bytes of output keying material.
///
/// # Panics
///
/// Panics if `len > 255 * 32`, the RFC 5869 limit.
fn hkdf_expand(prk: &[u8; DIGEST_LEN], info: &[u8], len: usize) -> Vec<u8> {
    assert!(len <= 255 * DIGEST_LEN, "HKDF output length limit exceeded");
    let mut out = Vec::with_capacity(len);
    let mut prev: Vec<u8> = Vec::new();
    let mut counter = 1u8;
    while out.len() < len {
        let mut msg = prev.clone();
        msg.extend_from_slice(info);
        msg.push(counter);
        let block = hmac_sha256(prk, &msg);
        let take = (len - out.len()).min(DIGEST_LEN);
        out.extend_from_slice(&block[..take]);
        prev = block.to_vec();
        counter = counter.wrapping_add(1);
    }
    out
}

/// Derives a fixed 32-byte key, convenient for cipher keys: one-shot
/// extract-then-expand.
///
/// # Examples
///
/// ```
/// let key = nymix_crypto::hkdf::derive_key32(b"salt", b"master", b"nymix/archive");
/// assert_ne!(key, nymix_crypto::hkdf::derive_key32(b"salt", b"master", b"nymix/guards"));
/// ```
pub fn derive_key32(salt: &[u8], ikm: &[u8], info: &[u8]) -> [u8; 32] {
    let v = hkdf_expand(&hkdf_extract(salt, ikm), info, 32);
    let mut out = [0u8; 32];
    out.copy_from_slice(&v);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn rfc5869_case1() {
        let ikm = [0x0bu8; 22];
        let salt: Vec<u8> = (0x00..=0x0c).collect();
        let info: Vec<u8> = (0xf0..=0xf9).collect();
        let prk = hkdf_extract(&salt, &ikm);
        assert_eq!(
            hex(&prk),
            "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5"
        );
        let okm = hkdf_expand(&prk, &info, 42);
        assert_eq!(
            hex(&okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf\
             34007208d5b887185865"
        );
    }

    #[test]
    fn rfc5869_case3_empty_salt_info() {
        let ikm = [0x0bu8; 22];
        let prk = hkdf_extract(&[], &ikm);
        let okm = hkdf_expand(&prk, &[], 42);
        assert_eq!(
            hex(&okm),
            "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d\
             9d201395faa4b61a96c8"
        );
    }

    #[test]
    fn info_separates_keys() {
        let a = derive_key32(b"s", b"master", b"purpose-a");
        let b = derive_key32(b"s", b"master", b"purpose-b");
        assert_ne!(a, b);
    }

    #[test]
    fn expand_prefix_property() {
        // A shorter expansion is a prefix of a longer one.
        let prk = hkdf_extract(b"salt", b"ikm");
        let short = hkdf_expand(&prk, b"info", 20);
        let long = hkdf_expand(&prk, b"info", 100);
        assert_eq!(short, long[..20]);
    }

    #[test]
    #[should_panic(expected = "HKDF output length limit")]
    fn expand_limit_enforced() {
        let prk = [0u8; 32];
        let _ = hkdf_expand(&prk, b"", 255 * 32 + 1);
    }
}
