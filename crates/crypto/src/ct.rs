//! Constant-time comparison helpers.
//!
//! Tag verification in [`crate::aead`] and password checks in the nym
//! store must not leak how many leading bytes matched.

/// Compares two byte slices in time independent of their contents.
///
/// Returns `false` immediately (and safely) if lengths differ — length is
/// not secret in any Nymix use.
///
/// # Examples
///
/// ```
/// assert!(nymix_crypto::ct::eq(b"abc", b"abc"));
/// assert!(!nymix_crypto::ct::eq(b"abc", b"abd"));
/// ```
pub fn eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut diff = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        diff |= x ^ y;
    }
    diff == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq_basic() {
        assert!(eq(b"", b""));
        assert!(eq(b"x", b"x"));
        assert!(!eq(b"x", b"y"));
        assert!(!eq(b"x", b"xx"));
        assert!(!eq(b"ax", b"bx"));
    }
}
