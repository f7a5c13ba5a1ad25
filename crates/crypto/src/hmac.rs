//! RFC 2104 HMAC-SHA256.
//!
//! [`HmacKey`] is a precomputed key: the ipad/opad SHA-256 midstates are
//! compressed once at construction and replayed for every message, so
//! each subsequent MAC costs two compression calls for short messages
//! instead of four. PBKDF2 hands the midstates to the SHA-256 kernel's
//! chain loop, which runs all of its `U_{n+1} = HMAC(P, U_n)` steps on
//! words at two compressions each.

use crate::sha256::{compress_blocks, pbkdf2_chain, Sha256, BLOCK_LEN, DIGEST_LEN, INIT_STATE};

/// A precomputed HMAC-SHA256 key.
///
/// Construction hashes the padded key into the two midstates; MACs then
/// resume from those states without touching the key material again.
///
/// # Examples
///
/// ```
/// use nymix_crypto::HmacKey;
///
/// let key = HmacKey::new(b"key");
/// let mut h = key.hasher();
/// h.update(b"m");
/// h.update(b"sg");
/// assert_eq!(key.finish(h), key.mac(b"msg"));
/// ```
pub struct HmacKey {
    /// State after compressing `key ^ ipad`.
    inner: [u32; 8],
    /// State after compressing `key ^ opad`.
    outer: [u32; 8],
}

impl Drop for HmacKey {
    fn drop(&mut self) {
        // The midstates are key-equivalent: anyone holding them can MAC
        // arbitrary messages under this key.
        crate::zeroize::wipe_words(&mut self.inner);
        crate::zeroize::wipe_words(&mut self.outer);
    }
}

impl HmacKey {
    /// Precomputes the midstates for `key` (hashed first if longer than
    /// one block, per RFC 2104).
    pub fn new(key: &[u8]) -> Self {
        let mut key_block = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            let digest = crate::sha256(key);
            key_block[..DIGEST_LEN].copy_from_slice(&digest);
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }
        let mut ipad = [0x36u8; BLOCK_LEN];
        let mut opad = [0x5cu8; BLOCK_LEN];
        for i in 0..BLOCK_LEN {
            ipad[i] ^= key_block[i];
            opad[i] ^= key_block[i];
        }
        let mut inner = INIT_STATE;
        compress_blocks(&mut inner, &ipad);
        let mut outer = INIT_STATE;
        compress_blocks(&mut outer, &opad);
        crate::zeroize::wipe_bytes(&mut key_block);
        crate::zeroize::wipe_bytes(&mut ipad);
        crate::zeroize::wipe_bytes(&mut opad);
        Self { inner, outer }
    }

    /// Starts a streaming MAC: a hasher resumed from the inner midstate.
    /// Feed the message with [`Sha256::update`], then pass the hasher to
    /// [`HmacKey::finish`].
    pub fn hasher(&self) -> Sha256 {
        Sha256::from_midstate(self.inner, BLOCK_LEN as u64)
    }

    /// Completes a streaming MAC started with [`HmacKey::hasher`]: the
    /// outer hash of the inner digest, resumed from the opad midstate.
    pub fn finish(&self, inner: Sha256) -> [u8; DIGEST_LEN] {
        let mut outer = Sha256::from_midstate(self.outer, BLOCK_LEN as u64);
        outer.update(&inner.finalize());
        outer.finalize()
    }

    /// Computes `HMAC-SHA256(key, msg)`.
    pub fn mac(&self, msg: &[u8]) -> [u8; DIGEST_LEN] {
        let mut h = self.hasher();
        h.update(msg);
        self.finish(h)
    }

    /// Runs `rounds` PBKDF2 iterations under this key on digest words:
    /// `U ← HMAC(P, U)`, then `T ^= U`, two compressions each.
    pub(crate) fn pbkdf2_chain(&self, u: &mut [u32; 8], t: &mut [u32; 8], rounds: u32) {
        pbkdf2_chain(&self.inner, &self.outer, u, t, rounds);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Direct RFC 2104 construction with no midstate caching, as the seed
    /// implemented it; the fast paths must agree with this exactly.
    fn hmac_naive(key: &[u8], msg: &[u8]) -> [u8; DIGEST_LEN] {
        let mut key_block = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            let digest = crate::sha256(key);
            key_block[..DIGEST_LEN].copy_from_slice(&digest);
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }
        let mut ipad = [0x36u8; BLOCK_LEN];
        let mut opad = [0x5cu8; BLOCK_LEN];
        for i in 0..BLOCK_LEN {
            ipad[i] ^= key_block[i];
            opad[i] ^= key_block[i];
        }
        let mut inner = Sha256::new();
        inner.update(&ipad);
        inner.update(msg);
        let inner_digest = inner.finalize();
        let mut outer = Sha256::new();
        outer.update(&opad);
        outer.update(&inner_digest);
        outer.finalize()
    }

    #[test]
    fn rfc4231_case1() {
        let key = [0x0bu8; 20];
        let mac = HmacKey::new(&key).mac(b"Hi There");
        assert_eq!(
            hex(&mac),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case2() {
        let mac = HmacKey::new(b"Jefe").mac(b"what do ya want for nothing?");
        assert_eq!(
            hex(&mac),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case3() {
        let key = [0xaau8; 20];
        let data = [0xddu8; 50];
        let mac = HmacKey::new(&key).mac(&data);
        assert_eq!(
            hex(&mac),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn long_key_is_hashed() {
        // RFC 4231 test case 6: 131-byte key.
        let key = [0xaau8; 131];
        let mac = HmacKey::new(&key).mac(b"Test Using Larger Than Block-Size Key - Hash Key First");
        assert_eq!(
            hex(&mac),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn distinct_keys_distinct_macs() {
        assert_ne!(HmacKey::new(b"k1").mac(b"m"), HmacKey::new(b"k2").mac(b"m"));
    }

    #[test]
    fn precomputed_key_matches_naive() {
        for key_len in [0usize, 1, 20, 63, 64, 65, 131] {
            let key = vec![0x7eu8; key_len];
            let hk = HmacKey::new(&key);
            for msg_len in [0usize, 1, 31, 32, 33, 55, 56, 64, 200] {
                let msg: Vec<u8> = (0..msg_len as u8).collect();
                assert_eq!(
                    hk.mac(&msg),
                    hmac_naive(&key, &msg),
                    "key {key_len} msg {msg_len}"
                );
            }
        }
    }

    #[test]
    fn streaming_matches_oneshot() {
        let hk = HmacKey::new(b"stream");
        let mut h = hk.hasher();
        h.update(b"part one|");
        h.update(b"part two");
        assert_eq!(hk.finish(h), hk.mac(b"part one|part two"));
    }
}
