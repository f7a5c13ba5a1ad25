//! The SaniVM's scrubbing toolchain.
//!
//! §3.6: nymboxes never touch local files directly; a dedicated,
//! non-networked SaniVM mounts the user's data, runs "a suite of
//! scrubbing tools that inspect the files to be transferred, attempt to
//! identify potential risks such as hidden metadata or visible faces in
//! photos, present the user a list of these files and potential risks,
//! and offer to apply appropriate scrubbing transformations".
//!
//! §4.3: two modes — a MAT-style metadata stripper, and a rasterizer
//! that "converts the document into a series of images", scrubbing
//! anything non-visual.
//!
//! Real JPEG/PDF/DOCX parsers are out of scope; instead [`formats`]
//! defines structured synthetic containers with the same *risk surface*
//! (EXIF GPS + serial numbers, document author/revision metadata,
//! hidden layers, steganographic payloads, detectable faces), complete
//! with binary serialization so scrubbing is a real byte-level
//! transformation.
//!
//! * [`formats`] — synthetic JPEG/PDF/DOC containers and codecs.
//! * [`risk`] — the automated risk analyzer.
//! * [`scrub`](mod@crate::scrub) — the transformations and paranoia-level pipeline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod formats;
pub mod risk;
pub mod scrub;

/// Serializer-side length to `u32`, checked instead of cast: the
/// synthetic wire formats cap every field at `u32`, and a breach
/// saturates rather than silently truncating into a length-prefix
/// confusion (the `panic-free-parser` lint forbids narrowing `as`
/// casts in [`formats`]).
pub(crate) fn len_u32(len: usize) -> u32 {
    debug_assert!(
        u32::try_from(len).is_ok(),
        "length {len} exceeds u32 wire field"
    );
    u32::try_from(len).unwrap_or(u32::MAX)
}

pub use formats::{DocFile, JpegImage, MediaFile, PdfDoc};
pub use risk::{analyze, Risk, RiskKind, Severity};
pub use scrub::{scrub, ParanoiaLevel, ScrubReport, Transform};
