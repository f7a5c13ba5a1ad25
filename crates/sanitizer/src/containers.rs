//! Additional media formats: PNG and multi-file archives.
//!
//! §3.6: "Developers continuously create new file types, and add
//! extensions to existing file types, which might conceal identifying
//! information." The pipeline therefore has to be extensible: this
//! module adds a PNG-like chunked image (textual metadata chunks à la
//! `tEXt`, ancillary private chunks that can hide anything) and a
//! zip-like archive container whose members are scrubbed recursively.

use crate::formats::{JpegImage, MediaFile};
use crate::risk::{analyze, Risk, RiskKind, Severity};
use crate::scrub::{scrub, ParanoiaLevel, ScrubReport};

/// A PNG-style chunked image.
#[derive(Debug, Clone, PartialEq)]
pub struct PngImage {
    /// Pixel dimensions.
    pub width: u16,
    /// Pixel dimensions.
    pub height: u16,
    /// Pixel samples (luma).
    pub pixels: Vec<u8>,
    /// `tEXt`-style key/value metadata ("Author", "Software",
    /// "Location", ...).
    pub text_chunks: Vec<(String, String)>,
    /// Private ancillary chunks — opaque bytes an application stashed.
    pub private_chunks: Vec<Vec<u8>>,
}

const PNG_MAGIC: &[u8; 4] = b"NPNG";
const ARCHIVE_MAGIC: &[u8; 4] = b"NARC";

impl PngImage {
    /// A screenshot-like PNG with identifying chunks.
    // lint:allow(test-only-pub): tests/sanitizer_pipeline.rs drives the container path end to end through it
    pub fn screenshot() -> Self {
        Self {
            width: 320,
            height: 200,
            // lint:allow(panic-free-parser): fixture generator, not a parser; % 253 bounds the value below 256
            pixels: (0..320u32 * 200).map(|i| (i % 253) as u8).collect(),
            text_chunks: vec![
                ("Author".into(), "bob".into()),
                ("Software".into(), "shutter 0.93 on bob-laptop".into()),
                ("Location".into(), "38.8977,-77.0365".into()),
            ],
            private_chunks: vec![b"prIV tracking-blob".to_vec()],
        }
    }

    /// Serializes the image.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = PNG_MAGIC.to_vec();
        out.extend_from_slice(&self.width.to_le_bytes());
        out.extend_from_slice(&self.height.to_le_bytes());
        out.extend_from_slice(&crate::len_u32(self.pixels.len()).to_le_bytes());
        out.extend_from_slice(&self.pixels);
        out.extend_from_slice(&crate::len_u32(self.text_chunks.len()).to_le_bytes());
        for (k, v) in &self.text_chunks {
            for s in [k, v] {
                out.extend_from_slice(&crate::len_u32(s.len()).to_le_bytes());
                out.extend_from_slice(s.as_bytes());
            }
        }
        out.extend_from_slice(&crate::len_u32(self.private_chunks.len()).to_le_bytes());
        for c in &self.private_chunks {
            out.extend_from_slice(&crate::len_u32(c.len()).to_le_bytes());
            out.extend_from_slice(c);
        }
        out
    }

    /// Parses an image; `None` if malformed.
    pub fn parse(bytes: &[u8]) -> Option<Self> {
        if bytes.len() < 4 || &bytes[..4] != PNG_MAGIC {
            return None;
        }
        let mut pos = 4usize;
        let take = |pos: &mut usize, n: usize| -> Option<&[u8]> {
            if *pos + n > bytes.len() {
                return None;
            }
            let s = &bytes[*pos..*pos + n];
            *pos += n;
            Some(s)
        };
        let width = u16::from_le_bytes(take(&mut pos, 2)?.try_into().ok()?);
        let height = u16::from_le_bytes(take(&mut pos, 2)?.try_into().ok()?);
        let plen = u32::from_le_bytes(take(&mut pos, 4)?.try_into().ok()?) as usize;
        let pixels = take(&mut pos, plen)?.to_vec();
        let tcount = u32::from_le_bytes(take(&mut pos, 4)?.try_into().ok()?) as usize;
        if tcount > bytes.len() {
            return None;
        }
        let mut text_chunks = Vec::with_capacity(tcount.min(256));
        for _ in 0..tcount {
            let klen = u32::from_le_bytes(take(&mut pos, 4)?.try_into().ok()?) as usize;
            let k = String::from_utf8(take(&mut pos, klen)?.to_vec()).ok()?;
            let vlen = u32::from_le_bytes(take(&mut pos, 4)?.try_into().ok()?) as usize;
            let v = String::from_utf8(take(&mut pos, vlen)?.to_vec()).ok()?;
            text_chunks.push((k, v));
        }
        let pcount = u32::from_le_bytes(take(&mut pos, 4)?.try_into().ok()?) as usize;
        if pcount > bytes.len() {
            return None;
        }
        let mut private_chunks = Vec::with_capacity(pcount.min(256));
        for _ in 0..pcount {
            let len = u32::from_le_bytes(take(&mut pos, 4)?.try_into().ok()?) as usize;
            private_chunks.push(take(&mut pos, len)?.to_vec());
        }
        if pos != bytes.len() {
            return None;
        }
        Some(Self {
            width,
            height,
            pixels,
            text_chunks,
            private_chunks,
        })
    }

    /// Risk analysis for PNG content.
    pub fn risks(&self) -> Vec<Risk> {
        let mut risks = Vec::new();
        for (k, v) in &self.text_chunks {
            let kind = if k.eq_ignore_ascii_case("location") {
                (RiskKind::GpsLocation, Severity::High)
            } else if k.eq_ignore_ascii_case("author") {
                (RiskKind::Authorship, Severity::High)
            } else {
                (RiskKind::Authorship, Severity::Medium)
            };
            risks.push(Risk {
                kind: kind.0,
                severity: kind.1,
                detail: format!("tEXt {k}={v}"),
            });
        }
        if !self.private_chunks.is_empty() {
            risks.push(Risk {
                kind: RiskKind::HiddenContent,
                severity: Severity::High,
                detail: format!("{} private ancillary chunk(s)", self.private_chunks.len()),
            });
        }
        risks.sort_by_key(|r| std::cmp::Reverse(r.severity));
        risks
    }

    /// Scrubs the image: drops all text and private chunks, keeping
    /// pixels (re-encoding, as the rasterize mode does).
    fn scrubbed(&self) -> PngImage {
        PngImage {
            width: self.width,
            height: self.height,
            pixels: self.pixels.clone(),
            text_chunks: Vec::new(),
            private_chunks: Vec::new(),
        }
    }
}

/// A zip-like archive of named members.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FileArchive {
    /// `(name, bytes)` members.
    pub members: Vec<(String, Vec<u8>)>,
}

impl FileArchive {
    /// An empty archive.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a member.
    pub fn push(&mut self, name: &str, data: Vec<u8>) {
        self.members.push((name.to_string(), data));
    }

    /// Serializes the archive.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = ARCHIVE_MAGIC.to_vec();
        out.extend_from_slice(&crate::len_u32(self.members.len()).to_le_bytes());
        for (name, data) in &self.members {
            out.extend_from_slice(&crate::len_u32(name.len()).to_le_bytes());
            out.extend_from_slice(name.as_bytes());
            out.extend_from_slice(&crate::len_u32(data.len()).to_le_bytes());
            out.extend_from_slice(data);
        }
        out
    }

    /// Parses an archive; `None` if malformed.
    pub fn parse(bytes: &[u8]) -> Option<Self> {
        if bytes.len() < 8 || &bytes[..4] != ARCHIVE_MAGIC {
            return None;
        }
        let count = u32::from_le_bytes(bytes[4..8].try_into().ok()?) as usize;
        if count > bytes.len() {
            return None;
        }
        let mut pos = 8usize;
        let mut members = Vec::with_capacity(count.min(1024));
        for _ in 0..count {
            if pos + 4 > bytes.len() {
                return None;
            }
            let nlen = u32::from_le_bytes(bytes[pos..pos + 4].try_into().ok()?) as usize;
            pos += 4;
            if pos + nlen + 4 > bytes.len() {
                return None;
            }
            let name = String::from_utf8(bytes[pos..pos + nlen].to_vec()).ok()?;
            pos += nlen;
            let dlen = u32::from_le_bytes(bytes[pos..pos + 4].try_into().ok()?) as usize;
            pos += 4;
            if pos + dlen > bytes.len() {
                return None;
            }
            members.push((name, bytes[pos..pos + dlen].to_vec()));
            pos += dlen;
        }
        if pos != bytes.len() {
            return None;
        }
        Some(Self { members })
    }

    /// Scrubs every member recursively at `level`; members that stay
    /// risky are *dropped* (with a report entry) rather than leaked.
    // lint:allow(test-only-pub): tests/sanitizer_pipeline.rs drives the container path end to end through it
    pub fn scrub_members(&self, level: ParanoiaLevel) -> (FileArchive, Vec<(String, ScrubReport)>) {
        let mut out = FileArchive::new();
        let mut reports = Vec::new();
        for (name, data) in &self.members {
            if let Some(png) = PngImage::parse(data) {
                // PNGs have their own path.
                let clean = png.scrubbed();
                out.push(name, clean.to_bytes());
                continue;
            }
            let report = scrub(data, level);
            if report.clean() {
                out.push(name, report.output.clone());
            }
            reports.push((name.clone(), report));
        }
        (out, reports)
    }
}

/// Analyzes any supported byte blob, dispatching across every format
/// this crate knows (the "suite of scrubbing tools" entry point).
// lint:allow(test-only-pub): tests/sanitizer_pipeline.rs drives the container path end to end through it
pub fn analyze_any(bytes: &[u8]) -> Vec<Risk> {
    if let Some(png) = PngImage::parse(bytes) {
        return png.risks();
    }
    if let Some(archive) = FileArchive::parse(bytes) {
        let mut risks: Vec<Risk> = archive
            .members
            .iter()
            .flat_map(|(name, data)| {
                let mut member_risks = analyze_any(data);
                for r in &mut member_risks {
                    r.detail = format!("{name}: {}", r.detail);
                }
                member_risks
            })
            .collect();
        risks.sort_by_key(|r| std::cmp::Reverse(r.severity));
        return risks;
    }
    analyze(&MediaFile::parse(bytes))
}

/// Builds a camera-roll archive for tests/examples: a risky JPEG, a
/// risky PNG, and an innocuous text file.
// lint:allow(test-only-pub): tests/sanitizer_pipeline.rs drives the container path end to end through it
pub fn sample_camera_roll() -> FileArchive {
    let mut archive = FileArchive::new();
    archive.push(
        "protest.jpg",
        MediaFile::Jpeg(JpegImage::protest_photo()).to_bytes(),
    );
    archive.push("screen.png", PngImage::screenshot().to_bytes());
    archive.push("notes.txt", b"meet at the square at noon".to_vec());
    archive
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn png_roundtrip() {
        let png = PngImage::screenshot();
        let parsed = PngImage::parse(&png.to_bytes()).unwrap();
        assert_eq!(parsed, png);
        assert!(PngImage::parse(b"JUNK").is_none());
        let bytes = png.to_bytes();
        assert!(PngImage::parse(&bytes[..bytes.len() - 1]).is_none());
    }

    #[test]
    fn png_risks_and_scrub() {
        let png = PngImage::screenshot();
        let risks = png.risks();
        assert!(risks.iter().any(|r| r.kind == RiskKind::GpsLocation));
        assert!(risks.iter().any(|r| r.kind == RiskKind::HiddenContent));
        let clean = png.scrubbed();
        assert!(clean.risks().is_empty());
        assert_eq!(clean.pixels, png.pixels, "pixels preserved");
    }

    #[test]
    fn archive_roundtrip() {
        let archive = sample_camera_roll();
        let parsed = FileArchive::parse(&archive.to_bytes()).unwrap();
        assert_eq!(parsed, archive);
        assert!(FileArchive::parse(b"nope").is_none());
    }

    #[test]
    fn archive_scrub_recurses_and_drops_unknowns() {
        let archive = sample_camera_roll();
        let (clean, reports) = archive.scrub_members(ParanoiaLevel::Paranoid);
        // The jpeg and the png survive, scrubbed; the unknown text file
        // is dropped (cannot be certified).
        let names: Vec<&str> = clean.members.iter().map(|(n, _)| n.as_str()).collect();
        assert!(names.contains(&"protest.jpg"));
        assert!(names.contains(&"screen.png"));
        assert!(!names.contains(&"notes.txt"));
        let notes_report = reports
            .iter()
            .find(|(n, _)| n == "notes.txt")
            .map(|(_, r)| r)
            .expect("reported");
        assert!(!notes_report.clean());
        // Everything that survived is risk-free.
        for (_, data) in &clean.members {
            assert!(analyze_any(data).is_empty(), "residual risk in member");
        }
    }

    #[test]
    fn analyze_any_dispatches() {
        assert!(!analyze_any(&PngImage::screenshot().to_bytes()).is_empty());
        assert!(!analyze_any(&sample_camera_roll().to_bytes()).is_empty());
        assert_eq!(
            analyze_any(b"plain unknown bytes")[0].kind,
            RiskKind::UnknownFormat
        );
        // Member names are prefixed in nested reports.
        let risks = analyze_any(&sample_camera_roll().to_bytes());
        assert!(risks
            .iter()
            .any(|r| r.detail.starts_with("protest.jpg:") || r.detail.starts_with("screen.png:")));
    }
}
