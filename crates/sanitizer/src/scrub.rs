//! Scrubbing transformations and the paranoia-level pipeline.
//!
//! §3.6: the user chooses "any combination of: (a) scrub EXIF or other
//! metadata, (b) blur any detectable faces using OpenCV, and/or (c)
//! reduce the resolution and add noise in attempt to disrupt any
//! watermarks". For documents: "scrub metadata, but also ... reconstruct
//! the document completely as a series of bitmaps, effectively
//! scrubbing any nonvisual information".

use crate::formats::{DocFile, JpegImage, MediaFile, PdfDoc};
use crate::risk::{analyze, Risk};

/// An individual scrubbing transformation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Transform {
    /// Remove metadata (MAT mode, §4.3 mode 1).
    StripMetadata,
    /// Blur detected face regions.
    BlurFaces,
    /// Downscale and add noise (breaks watermarks and small stego).
    NoiseAndDownscale,
    /// Re-render the document as bitmaps (§4.3 mode 2) — drops all
    /// non-visual structure.
    Rasterize,
}

/// Preset transform bundles ("different paranoia levels", §3.6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ParanoiaLevel {
    /// Metadata stripping only.
    Basic,
    /// Metadata + faces.
    Careful,
    /// Everything: metadata, faces, noise, rasterization.
    Paranoid,
}

impl ParanoiaLevel {
    /// The transforms this level applies, in order.
    fn transforms(self) -> Vec<Transform> {
        match self {
            ParanoiaLevel::Basic => vec![Transform::StripMetadata],
            ParanoiaLevel::Careful => vec![Transform::StripMetadata, Transform::BlurFaces],
            ParanoiaLevel::Paranoid => vec![
                Transform::StripMetadata,
                Transform::BlurFaces,
                Transform::NoiseAndDownscale,
                Transform::Rasterize,
            ],
        }
    }
}

/// Outcome of running the pipeline over one file.
#[derive(Debug, Clone)]
pub struct ScrubReport {
    /// Risks identified before scrubbing (the user-facing list).
    pub risks_before: Vec<Risk>,
    /// Transforms that were applied.
    pub applied: Vec<Transform>,
    /// Risks remaining after scrubbing.
    pub risks_after: Vec<Risk>,
    /// The scrubbed output bytes.
    pub output: Vec<u8>,
}

impl ScrubReport {
    /// Whether scrubbing removed every detected risk.
    pub fn clean(&self) -> bool {
        self.risks_after.is_empty()
    }
}

fn apply_to_jpeg(j: &mut JpegImage, t: Transform) {
    match t {
        Transform::StripMetadata => {
            j.exif = Default::default();
        }
        Transform::BlurFaces => {
            // Average each face region's pixels (visibly destroys it)
            // and drop the detectability record.
            for face in j.faces.clone() {
                let mut sum = 0u64;
                let mut count = 0u64;
                for y in face.y..face.y.saturating_add(face.h).min(j.height) {
                    for x in face.x..face.x.saturating_add(face.w).min(j.width) {
                        sum += j.pixels[y as usize * j.width as usize + x as usize] as u64;
                        count += 1;
                    }
                }
                let avg = sum.checked_div(count).unwrap_or(0) as u8;
                for y in face.y..face.y.saturating_add(face.h).min(j.height) {
                    for x in face.x..face.x.saturating_add(face.w).min(j.width) {
                        j.pixels[y as usize * j.width as usize + x as usize] = avg;
                    }
                }
            }
            j.faces.clear();
        }
        Transform::NoiseAndDownscale => {
            // 2x downscale plus deterministic dither: kills watermarks
            // and low-order-bit payloads.
            let nw = (j.width / 2).max(1);
            let nh = (j.height / 2).max(1);
            let mut np = vec![0u8; nw as usize * nh as usize];
            for y in 0..nh as usize {
                for x in 0..nw as usize {
                    let src = j.pixels[(y * 2) * j.width as usize + x * 2];
                    let noise = ((x * 7 + y * 13) % 5) as u8;
                    np[y * nw as usize + x] = src.wrapping_add(noise);
                }
            }
            j.width = nw;
            j.height = nh;
            j.pixels = np;
            j.watermark = None;
            j.stego_payload = None;
        }
        Transform::Rasterize => {
            // For photos, rasterizing is equivalent to re-encoding:
            // structure-borne extras vanish, pixels stay.
            j.watermark = None;
            j.stego_payload = None;
            j.exif = Default::default();
        }
    }
}

fn rasterize_pdf(p: &PdfDoc) -> JpegImage {
    // "Loading the document into a proper viewer, taking one or more
    // screen shots, and then assembling the images together" (§4.3):
    // visible page text becomes pixels; author, producer and hidden
    // layers do not survive.
    let width = 612u16;
    let height = (p.pages.len().max(1) as u16) * 128;
    let mut pixels = vec![255u8; width as usize * height as usize];
    for (page_no, text) in p.pages.iter().enumerate() {
        for (i, b) in text.bytes().enumerate() {
            let idx = page_no * 128 * width as usize + i % (width as usize * 127);
            pixels[idx] = b;
        }
    }
    JpegImage {
        width,
        height,
        pixels,
        exif: Default::default(),
        faces: vec![],
        stego_payload: None,
        watermark: None,
    }
}

fn rasterize_doc(d: &DocFile) -> JpegImage {
    rasterize_pdf(&PdfDoc {
        author: None,
        producer: None,
        pages: vec![d.body.clone()],
        hidden_layers: vec![],
    })
}

/// Runs the paranoia-level pipeline over `input` bytes.
///
/// # Examples
///
/// ```
/// use nymix_sanitizer::{scrub, MediaFile, JpegImage, ParanoiaLevel};
///
/// let photo = MediaFile::Jpeg(JpegImage::protest_photo()).to_bytes();
/// let report = scrub(&photo, ParanoiaLevel::Paranoid);
/// assert!(report.clean());
/// assert!(!report.risks_before.is_empty());
/// ```
pub fn scrub(input: &[u8], level: ParanoiaLevel) -> ScrubReport {
    let file = MediaFile::parse(input);
    let risks_before = analyze(&file);
    let mut applied = Vec::new();
    let mut current = file;
    for t in level.transforms() {
        current = match (current, t) {
            (MediaFile::Jpeg(mut j), t) => {
                apply_to_jpeg(&mut j, t);
                applied.push(t);
                MediaFile::Jpeg(j)
            }
            (MediaFile::Pdf(mut p), Transform::StripMetadata) => {
                p.author = None;
                p.producer = None;
                applied.push(t);
                MediaFile::Pdf(p)
            }
            (MediaFile::Pdf(p), Transform::Rasterize) => {
                applied.push(t);
                MediaFile::Jpeg(rasterize_pdf(&p))
            }
            (MediaFile::Doc(mut d), Transform::StripMetadata) => {
                d.author = None;
                d.last_modified_by = None;
                applied.push(t);
                MediaFile::Doc(d)
            }
            (MediaFile::Doc(d), Transform::Rasterize) => {
                applied.push(t);
                MediaFile::Jpeg(rasterize_doc(&d))
            }
            (other, _) => other, // Transform not applicable.
        };
    }
    let risks_after = analyze(&current);
    ScrubReport {
        risks_before,
        applied,
        risks_after,
        output: current.to_bytes(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formats::Exif;
    use crate::risk::RiskKind;

    fn photo_bytes() -> Vec<u8> {
        MediaFile::Jpeg(JpegImage::protest_photo()).to_bytes()
    }

    #[test]
    fn basic_strips_exif_only() {
        let report = scrub(&photo_bytes(), ParanoiaLevel::Basic);
        let after: Vec<RiskKind> = report.risks_after.iter().map(|r| r.kind).collect();
        assert!(!after.contains(&RiskKind::GpsLocation));
        assert!(!after.contains(&RiskKind::DeviceSerial));
        // Faces and watermark survive Basic.
        assert!(after.contains(&RiskKind::VisibleFaces));
        assert!(after.contains(&RiskKind::Watermark));
        assert!(!report.clean());
    }

    #[test]
    fn careful_also_blurs_faces() {
        let report = scrub(&photo_bytes(), ParanoiaLevel::Careful);
        let after: Vec<RiskKind> = report.risks_after.iter().map(|r| r.kind).collect();
        assert!(!after.contains(&RiskKind::VisibleFaces));
        assert!(after.contains(&RiskKind::Watermark));
    }

    #[test]
    fn paranoid_cleans_photo_completely() {
        let report = scrub(&photo_bytes(), ParanoiaLevel::Paranoid);
        assert!(report.clean(), "risks remain: {:?}", report.risks_after);
        // The output is a real downscaled image.
        if let MediaFile::Jpeg(j) = MediaFile::parse(&report.output) {
            assert_eq!(j.width, 320);
            assert_eq!(j.height, 240);
            assert!(j.exif.is_empty());
        } else {
            panic!("output is not a jpeg");
        }
    }

    #[test]
    fn blur_actually_destroys_pixels() {
        let img = JpegImage::protest_photo();
        let face = img.faces[0];
        let before = img.pixels[face.y as usize * img.width as usize + face.x as usize + 5];
        let report = scrub(
            &MediaFile::Jpeg(img.clone()).to_bytes(),
            ParanoiaLevel::Careful,
        );
        if let MediaFile::Jpeg(j) = MediaFile::parse(&report.output) {
            let region: Vec<u8> = (0..face.h as usize)
                .flat_map(|dy| {
                    let w = j.width as usize;
                    let (x, y) = (face.x as usize, face.y as usize);
                    j.pixels[(y + dy) * w + x..(y + dy) * w + x + face.w as usize].to_vec()
                })
                .collect();
            // Uniform after blur.
            assert!(region.windows(2).all(|w| w[0] == w[1]));
            let _ = before;
        } else {
            panic!("not a jpeg");
        }
    }

    #[test]
    fn rasterized_pdf_loses_hidden_layers_and_keeps_pages() {
        let memo = PdfDoc::memo();
        let report = scrub(&MediaFile::Pdf(memo).to_bytes(), ParanoiaLevel::Paranoid);
        assert!(report.clean(), "risks remain: {:?}", report.risks_after);
        assert!(matches!(
            MediaFile::parse(&report.output),
            MediaFile::Jpeg(_)
        ));
    }

    #[test]
    fn doc_revision_history_removed_by_rasterize_only() {
        let doc = DocFile {
            author: Some("bob".into()),
            last_modified_by: Some("bob".into()),
            body: "public statement".into(),
            revisions: vec!["incriminating draft".into()],
        };
        let bytes = MediaFile::Doc(doc).to_bytes();
        let basic = scrub(&bytes, ParanoiaLevel::Basic);
        assert!(basic
            .risks_after
            .iter()
            .any(|r| r.kind == RiskKind::RevisionHistory));
        let paranoid = scrub(&bytes, ParanoiaLevel::Paranoid);
        assert!(paranoid.clean());
    }

    #[test]
    fn noise_kills_watermark_and_stego() {
        let mut img = JpegImage::protest_photo();
        img.stego_payload = Some(vec![7u8; 64]);
        let report = scrub(&MediaFile::Jpeg(img).to_bytes(), ParanoiaLevel::Paranoid);
        if let MediaFile::Jpeg(j) = MediaFile::parse(&report.output) {
            assert!(j.watermark.is_none());
            assert!(j.stego_payload.is_none());
        } else {
            panic!("not a jpeg");
        }
    }

    #[test]
    fn unknown_files_cannot_be_certified() {
        let report = scrub(b"GIF89a...", ParanoiaLevel::Paranoid);
        assert!(!report.clean());
        assert_eq!(report.risks_after[0].kind, RiskKind::UnknownFormat);
        assert!(report.applied.is_empty());
    }

    #[test]
    fn clean_input_stays_clean_and_intact() {
        let img = JpegImage {
            exif: Exif::default(),
            faces: vec![],
            stego_payload: None,
            watermark: None,
            ..JpegImage::protest_photo()
        };
        let bytes = MediaFile::Jpeg(img).to_bytes();
        let report = scrub(&bytes, ParanoiaLevel::Basic);
        assert!(report.clean());
        assert_eq!(report.output, bytes);
    }

    #[test]
    fn paranoia_levels_are_ordered() {
        assert!(ParanoiaLevel::Basic < ParanoiaLevel::Paranoid);
        assert_eq!(ParanoiaLevel::Paranoid.transforms().len(), 4);
    }
}
