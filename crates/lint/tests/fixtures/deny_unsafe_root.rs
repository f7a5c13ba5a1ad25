//! Crate-root fixture with the weaker unconditional gate: clean only
//! at the root of a crate that holds a registered unsafe-kernel file.

#![deny(unsafe_code)]

pub fn safe() {}
