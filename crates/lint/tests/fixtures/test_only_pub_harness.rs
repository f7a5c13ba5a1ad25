//! `test-only-pub` fixture, linted at `crates/demo/src/harness.rs`:
//! the crate root declares it with `#[cfg(test)] mod harness;`, so its
//! own `pub fn` is test code and its calls are not callers.

pub fn drive() {
    crate::called_in_test_mod();
}
