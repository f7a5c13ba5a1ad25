//! `test-only-pub` fixture, linted at `crates/demo/src/other.rs`.

#![warn(missing_docs)]

pub use crate::reexported;

fn production() {
    // mentioned_in_comment() is only ever named here.
    crate::called_elsewhere();
    crate::allowed_but_called();
}

fn defined_elsewhere() {}

#[derive(Debug)]
struct Marker;

#[cfg(test)]
mod tests {
    #[test]
    fn calls() {
        crate::called_in_cfg_test();
    }
}
