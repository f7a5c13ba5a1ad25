//! `test-only-pub` fixture crate root, linted at `crates/demo/src/lib.rs`
//! together with `other.rs`, `harness.rs` and `tests/it.rs`.

#![forbid(unsafe_code)]

pub mod other;
#[cfg(test)]
mod harness;

pub fn callerless() {} // named by no other file
pub fn called_elsewhere() {} // clean: other.rs production code calls it
pub fn called_in_cfg_test() {} // only other.rs's test module calls it
pub fn called_in_tests_dir() {} // only tests/it.rs calls it
pub fn called_in_test_mod() {} // only harness.rs, a test module file, calls it
pub fn reexported() {} // only other.rs's `pub use` names it
pub fn mentioned_in_comment() {} // only a comment in other.rs names it
pub fn defined_elsewhere() {} // other.rs only defines a private fn of this name
pub(crate) fn restricted() {} // restricted visibility is still public surface
pub const fn qualified() {} // qualifiers between `pub` and `fn` are read through
pub fn derive() {} // only other.rs's `#[derive(..)]` attribute names it
pub fn warn() {} // only other.rs's inner `#![warn(..)]` attribute names it
// lint:allow(test-only-pub): tests/it.rs drives it as a hook
pub fn allowed_hook() {}
// lint:allow(test-only-pub): stale, since other.rs calls it now
pub fn allowed_but_called() {}
fn private_helper() {} // not public surface

#[cfg(test)]
mod tests {
    pub fn test_helper() {} // test code is not policed
}
