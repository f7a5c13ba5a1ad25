//! Failing crate-root fixture: the forbid gate is `cfg_attr`-wrapped,
//! so a build with the feature on compiles without it.

#![cfg_attr(not(feature = "fast"), forbid(unsafe_code))]

pub fn safe() {}
