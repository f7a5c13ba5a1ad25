//! Automated risk analysis.
//!
//! §3.6: the SaniVM "launches a suite of scrubbing tools that inspect
//! the files to be transferred, attempt to identify potential risks
//! such as hidden metadata or visible faces in photos, \[and\] present
//! the user a list of these files and potential risks". This module is
//! the inspection half; [`crate::scrub::scrub`] is the transformation half.

use crate::formats::MediaFile;

/// How damaging a leak through this channel would be.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Contextual/deanonymizing only in aggregate.
    Low,
    /// Identifies equipment or authorship.
    Medium,
    /// Directly identifies or locates the user.
    High,
}

/// A category of identifying information.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RiskKind {
    /// GPS coordinates in EXIF (§2: Bob's protest photo).
    GpsLocation,
    /// Camera/device serial number.
    DeviceSerial,
    /// Capture/author timestamp.
    Timestamp,
    /// Author/artist/owner metadata.
    Authorship,
    /// Human faces detectable in the image.
    VisibleFaces,
    /// Non-visual document content (hidden layers, tracked changes).
    HiddenContent,
    /// Revision history.
    RevisionHistory,
    /// Low-order-bit payload detected (steganography).
    Steganography,
    /// Possible robust watermark.
    Watermark,
    /// Format not understood — cannot certify as clean.
    UnknownFormat,
}

/// One identified risk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Risk {
    /// What kind of leak.
    pub kind: RiskKind,
    /// How bad.
    pub severity: Severity,
    /// Human-readable detail for the user-facing list.
    pub detail: String,
}

impl Risk {
    fn new(kind: RiskKind, severity: Severity, detail: impl Into<String>) -> Self {
        Self {
            kind,
            severity,
            detail: detail.into(),
        }
    }
}

/// Crude stego detector: the model marks payloads explicitly, but a
/// detector in a real pipeline only sees bit-plane statistics — model
/// that by "detecting" only payloads of at least 16 bytes.
fn stego_detectable(payload: &Option<Vec<u8>>) -> bool {
    payload.as_ref().is_some_and(|p| p.len() >= 16)
}

/// Inspects a file and lists its risks, highest severity first.
///
/// # Examples
///
/// ```
/// use nymix_sanitizer::{analyze, MediaFile, JpegImage, RiskKind};
///
/// let photo = MediaFile::Jpeg(JpegImage::protest_photo());
/// let risks = analyze(&photo);
/// assert!(risks.iter().any(|r| r.kind == RiskKind::GpsLocation));
/// ```
pub fn analyze(file: &MediaFile) -> Vec<Risk> {
    let mut risks = Vec::new();
    match file {
        MediaFile::Jpeg(j) => {
            if let Some((lat, lon)) = j.exif.gps {
                risks.push(Risk::new(
                    RiskKind::GpsLocation,
                    Severity::High,
                    format!("EXIF GPS fix {lat:.4},{lon:.4}"),
                ));
            }
            if let Some(serial) = &j.exif.camera_serial {
                risks.push(Risk::new(
                    RiskKind::DeviceSerial,
                    Severity::High,
                    format!("camera serial {serial}"),
                ));
            }
            if let Some(artist) = &j.exif.artist {
                risks.push(Risk::new(
                    RiskKind::Authorship,
                    Severity::Medium,
                    format!("artist tag '{artist}'"),
                ));
            }
            if j.exif.timestamp.is_some() {
                risks.push(Risk::new(
                    RiskKind::Timestamp,
                    Severity::Low,
                    "capture timestamp present",
                ));
            }
            if !j.faces.is_empty() {
                risks.push(Risk::new(
                    RiskKind::VisibleFaces,
                    Severity::High,
                    format!("{} detectable face(s)", j.faces.len()),
                ));
            }
            if stego_detectable(&j.stego_payload) {
                risks.push(Risk::new(
                    RiskKind::Steganography,
                    Severity::Medium,
                    "suspicious low-order bit-plane statistics",
                ));
            }
            if j.watermark.is_some() {
                risks.push(Risk::new(
                    RiskKind::Watermark,
                    Severity::Medium,
                    "possible vendor watermark",
                ));
            }
        }
        MediaFile::Pdf(p) => {
            if let Some(author) = &p.author {
                risks.push(Risk::new(
                    RiskKind::Authorship,
                    Severity::High,
                    format!("document author '{author}'"),
                ));
            }
            if p.producer.is_some() {
                risks.push(Risk::new(
                    RiskKind::Authorship,
                    Severity::Low,
                    "producer application identifies toolchain",
                ));
            }
            if !p.hidden_layers.is_empty() {
                risks.push(Risk::new(
                    RiskKind::HiddenContent,
                    Severity::High,
                    format!("{} non-visual content object(s)", p.hidden_layers.len()),
                ));
            }
        }
        MediaFile::Doc(d) => {
            if let Some(author) = &d.author {
                risks.push(Risk::new(
                    RiskKind::Authorship,
                    Severity::High,
                    format!("author '{author}'"),
                ));
            }
            if d.last_modified_by.is_some() {
                risks.push(Risk::new(
                    RiskKind::Authorship,
                    Severity::Medium,
                    "last-modified-by present",
                ));
            }
            if !d.revisions.is_empty() {
                risks.push(Risk::new(
                    RiskKind::RevisionHistory,
                    Severity::High,
                    format!("{} revision(s) recoverable", d.revisions.len()),
                ));
            }
        }
        MediaFile::Unknown(bytes) => {
            risks.push(Risk::new(
                RiskKind::UnknownFormat,
                Severity::Medium,
                format!(
                    "unrecognized format ({} bytes); cannot certify",
                    bytes.len()
                ),
            ));
        }
    }
    risks.sort_by_key(|r| std::cmp::Reverse(r.severity));
    risks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formats::{DocFile, Exif, JpegImage, PdfDoc};

    #[test]
    fn protest_photo_is_a_minefield() {
        let risks = analyze(&MediaFile::Jpeg(JpegImage::protest_photo()));
        let kinds: Vec<RiskKind> = risks.iter().map(|r| r.kind).collect();
        for expect in [
            RiskKind::GpsLocation,
            RiskKind::DeviceSerial,
            RiskKind::VisibleFaces,
            RiskKind::Authorship,
            RiskKind::Timestamp,
            RiskKind::Watermark,
        ] {
            assert!(kinds.contains(&expect), "missing {expect:?}");
        }
        // Sorted by severity, highest first.
        assert_eq!(risks[0].severity, Severity::High);
        assert_eq!(risks[risks.len() - 1].severity, Severity::Low);
    }

    #[test]
    fn clean_photo_is_clean() {
        let img = JpegImage {
            exif: Exif::default(),
            faces: vec![],
            stego_payload: None,
            watermark: None,
            ..JpegImage::protest_photo()
        };
        let risks = analyze(&MediaFile::Jpeg(img));
        assert!(risks.is_empty());
    }

    #[test]
    fn small_stego_evades_detection_large_does_not() {
        let mut img = JpegImage::protest_photo();
        img.stego_payload = Some(vec![0u8; 8]);
        let risks = analyze(&MediaFile::Jpeg(img.clone()));
        assert!(!risks.iter().any(|r| r.kind == RiskKind::Steganography));
        img.stego_payload = Some(vec![0u8; 64]);
        let risks = analyze(&MediaFile::Jpeg(img));
        assert!(risks.iter().any(|r| r.kind == RiskKind::Steganography));
    }

    #[test]
    fn documents_flag_hidden_content() {
        let risks = analyze(&MediaFile::Pdf(PdfDoc::memo()));
        assert!(risks.iter().any(|r| r.kind == RiskKind::HiddenContent));
        assert!(risks.iter().any(|r| r.kind == RiskKind::Authorship));

        let doc = DocFile {
            author: None,
            last_modified_by: None,
            body: "text".into(),
            revisions: vec!["older text".into()],
        };
        let risks = analyze(&MediaFile::Doc(doc));
        assert_eq!(risks.len(), 1);
        assert_eq!(risks[0].kind, RiskKind::RevisionHistory);
    }

    #[test]
    fn unknown_formats_flagged() {
        let risks = analyze(&MediaFile::Unknown(vec![1, 2, 3]));
        assert_eq!(risks[0].kind, RiskKind::UnknownFormat);
    }
}
