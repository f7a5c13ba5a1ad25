//! Synthetic media containers with realistic risk surfaces.
//!
//! Each format captures the fields the paper's scenarios worry about:
//! Bob's protest photo carries "GPS coordinates and his smartphone's
//! serial number" in EXIF (§2); documents leak authors and revision
//! history, and can hide non-visual content in "complex text or vector
//! graphics structures" (§3.6); steganography can survive naive
//! scrubbing (§6).
//!
//! Files serialize to length-prefixed binary with per-format magic so
//! the SaniVM pipeline operates on real bytes.

/// A rectangular region (face bounding boxes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Region {
    /// Left edge, pixels.
    pub x: u16,
    /// Top edge, pixels.
    pub y: u16,
    /// Width, pixels.
    pub w: u16,
    /// Height, pixels.
    pub h: u16,
}

/// EXIF-style metadata on a photo.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Exif {
    /// GPS fix, degrees (lat, lon).
    pub gps: Option<(f64, f64)>,
    /// Camera body serial number.
    pub camera_serial: Option<String>,
    /// Capture timestamp (Unix seconds).
    pub timestamp: Option<u64>,
    /// Artist/owner tag.
    pub artist: Option<String>,
}

impl Exif {
    /// Whether any identifying field is present.
    pub fn is_empty(&self) -> bool {
        self.gps.is_none()
            && self.camera_serial.is_none()
            && self.timestamp.is_none()
            && self.artist.is_none()
    }
}

/// A synthetic JPEG: pixels plus EXIF plus hidden extras.
#[derive(Debug, Clone, PartialEq)]
pub struct JpegImage {
    /// Pixel dimensions.
    pub width: u16,
    /// Pixel dimensions.
    pub height: u16,
    /// Luma samples (one byte per pixel; enough to carry watermarks and
    /// "visible" faces for the model).
    pub pixels: Vec<u8>,
    /// EXIF block.
    pub exif: Exif,
    /// Detectable faces (what OpenCV would find; §3.6 option (b)).
    pub faces: Vec<Region>,
    /// A steganographic payload hidden in low-order pixel bits, if any
    /// (§6: "Data may be hidden by steganography").
    pub stego_payload: Option<Vec<u8>>,
    /// An invisible vendor watermark (robust to metadata stripping but
    /// not to noise; §3.6 option (c)).
    pub watermark: Option<u64>,
}

impl JpegImage {
    /// A photo like Bob's protest shot: GPS, serial, faces, watermark.
    pub fn protest_photo() -> Self {
        let (width, height) = (640u16, 480u16);
        let mut pixels = vec![0u8; width as usize * height as usize];
        for (i, p) in pixels.iter_mut().enumerate() {
            // lint:allow(panic-free-parser): fixture generator, not a parser; % 251 bounds the value below 256
            *p = ((i * 31) % 251) as u8;
        }
        Self {
            width,
            height,
            pixels,
            exif: Exif {
                gps: Some((38.8977, -77.0365)),
                camera_serial: Some("SN-8842-TYR".to_string()),
                timestamp: Some(1_400_000_000),
                artist: Some("bob".to_string()),
            },
            faces: vec![
                Region {
                    x: 100,
                    y: 80,
                    w: 60,
                    h: 60,
                },
                Region {
                    x: 300,
                    y: 120,
                    w: 48,
                    h: 48,
                },
            ],
            stego_payload: None,
            watermark: Some(0xC0FFEE),
        }
    }
}

/// A synthetic PDF: visible text plus hidden structure.
#[derive(Debug, Clone, PartialEq)]
pub struct PdfDoc {
    /// Document metadata: author.
    pub author: Option<String>,
    /// Producing application.
    pub producer: Option<String>,
    /// Visible page text.
    pub pages: Vec<String>,
    /// Non-visual content: cropped-out text, OCG hidden layers,
    /// embedded object streams (§3.6: content "concealed ... in \[the\]
    /// document's complex text or vector graphics structures").
    pub hidden_layers: Vec<String>,
}

impl PdfDoc {
    /// A leaked-memo style document.
    // lint:allow(test-only-pub): the risk, scrub and nymix SaniVM tests build their sample PDF with it
    pub fn memo() -> Self {
        Self {
            author: Some("bob@statepaper.ty".to_string()),
            producer: Some("LibreOffice 4.2".to_string()),
            pages: vec![
                "GLORIOUS LEADER OPENS NEW DAM".to_string(),
                "Page 2: production figures".to_string(),
            ],
            hidden_layers: vec!["tracked-change: delete 'allegedly'".to_string()],
        }
    }
}

/// A synthetic word-processor document.
#[derive(Debug, Clone, PartialEq)]
pub struct DocFile {
    /// Author field.
    pub author: Option<String>,
    /// Last-modified-by field.
    pub last_modified_by: Option<String>,
    /// Visible text.
    pub body: String,
    /// Revision history entries (prior text fragments).
    pub revisions: Vec<String>,
}

/// Any file entering the SaniVM.
#[derive(Debug, Clone, PartialEq)]
pub enum MediaFile {
    /// JPEG photo.
    Jpeg(JpegImage),
    /// PDF document.
    Pdf(PdfDoc),
    /// DOC document.
    Doc(DocFile),
    /// Unrecognized bytes — the analyzer flags these as unknown risk.
    Unknown(Vec<u8>),
}

const JPEG_MAGIC: &[u8; 4] = b"NJPG";
const PDF_MAGIC: &[u8; 4] = b"NPDF";
const DOC_MAGIC: &[u8; 4] = b"NDOC";

fn put_str(out: &mut Vec<u8>, s: &Option<String>) {
    match s {
        Some(v) => {
            out.extend_from_slice(&crate::len_u32(v.len()).saturating_add(1).to_le_bytes());
            out.extend_from_slice(v.as_bytes());
        }
        None => out.extend_from_slice(&0u32.to_le_bytes()),
    }
}

fn put_vec_str(out: &mut Vec<u8>, v: &[String]) {
    out.extend_from_slice(&crate::len_u32(v.len()).to_le_bytes());
    for s in v {
        out.extend_from_slice(&crate::len_u32(s.len()).to_le_bytes());
        out.extend_from_slice(s.as_bytes());
    }
}

struct Reader<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if self.pos + n > self.b.len() {
            return None;
        }
        let s = &self.b[self.pos..self.pos + n];
        self.pos += n;
        Some(s)
    }

    fn u16(&mut self) -> Option<u16> {
        Some(u16::from_le_bytes(self.take(2)?.try_into().ok()?))
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    fn f64(&mut self) -> Option<f64> {
        Some(f64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    fn opt_str(&mut self) -> Option<Option<String>> {
        let tag = self.u32()?;
        if tag == 0 {
            return Some(None);
        }
        let s = self.take(tag as usize - 1)?;
        Some(Some(String::from_utf8(s.to_vec()).ok()?))
    }

    fn vec_str(&mut self) -> Option<Vec<String>> {
        let n = self.u32()? as usize;
        if n > self.b.len() {
            return None; // Length sanity against hostile headers.
        }
        let mut out = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            let len = self.u32()? as usize;
            let s = self.take(len)?;
            out.push(String::from_utf8(s.to_vec()).ok()?);
        }
        Some(out)
    }
}

impl MediaFile {
    /// Serializes to bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            MediaFile::Jpeg(j) => {
                out.extend_from_slice(JPEG_MAGIC);
                out.extend_from_slice(&j.width.to_le_bytes());
                out.extend_from_slice(&j.height.to_le_bytes());
                out.extend_from_slice(&crate::len_u32(j.pixels.len()).to_le_bytes());
                out.extend_from_slice(&j.pixels);
                // EXIF.
                match j.exif.gps {
                    Some((lat, lon)) => {
                        out.push(1);
                        out.extend_from_slice(&lat.to_le_bytes());
                        out.extend_from_slice(&lon.to_le_bytes());
                    }
                    None => out.push(0),
                }
                put_str(&mut out, &j.exif.camera_serial);
                match j.exif.timestamp {
                    Some(t) => {
                        out.push(1);
                        out.extend_from_slice(&t.to_le_bytes());
                    }
                    None => out.push(0),
                }
                put_str(&mut out, &j.exif.artist);
                // Faces.
                out.extend_from_slice(&crate::len_u32(j.faces.len()).to_le_bytes());
                for f in &j.faces {
                    for v in [f.x, f.y, f.w, f.h] {
                        out.extend_from_slice(&v.to_le_bytes());
                    }
                }
                // Stego payload.
                match &j.stego_payload {
                    Some(p) => {
                        out.push(1);
                        out.extend_from_slice(&crate::len_u32(p.len()).to_le_bytes());
                        out.extend_from_slice(p);
                    }
                    None => out.push(0),
                }
                // Watermark.
                match j.watermark {
                    Some(w) => {
                        out.push(1);
                        out.extend_from_slice(&w.to_le_bytes());
                    }
                    None => out.push(0),
                }
            }
            MediaFile::Pdf(p) => {
                out.extend_from_slice(PDF_MAGIC);
                put_str(&mut out, &p.author);
                put_str(&mut out, &p.producer);
                put_vec_str(&mut out, &p.pages);
                put_vec_str(&mut out, &p.hidden_layers);
            }
            MediaFile::Doc(d) => {
                out.extend_from_slice(DOC_MAGIC);
                put_str(&mut out, &d.author);
                put_str(&mut out, &d.last_modified_by);
                put_vec_str(&mut out, core::slice::from_ref(&d.body));
                put_vec_str(&mut out, &d.revisions);
            }
            MediaFile::Unknown(bytes) => out.extend_from_slice(bytes),
        }
        out
    }

    /// Parses bytes; unrecognized content becomes [`MediaFile::Unknown`].
    pub fn parse(bytes: &[u8]) -> MediaFile {
        Self::try_parse(bytes).unwrap_or_else(|| MediaFile::Unknown(bytes.to_vec()))
    }

    fn try_parse(bytes: &[u8]) -> Option<MediaFile> {
        if bytes.len() < 4 {
            return None;
        }
        let mut r = Reader { b: bytes, pos: 4 };
        match &bytes[..4] {
            m if m == JPEG_MAGIC => {
                let width = r.u16()?;
                let height = r.u16()?;
                let plen = r.u32()? as usize;
                let pixels = r.take(plen)?.to_vec();
                let gps = if r.take(1)?[0] == 1 {
                    Some((r.f64()?, r.f64()?))
                } else {
                    None
                };
                let camera_serial = r.opt_str()?;
                let timestamp = if r.take(1)?[0] == 1 {
                    Some(r.u64()?)
                } else {
                    None
                };
                let artist = r.opt_str()?;
                let nfaces = r.u32()? as usize;
                if nfaces > bytes.len() {
                    return None;
                }
                let mut faces = Vec::with_capacity(nfaces.min(1024));
                for _ in 0..nfaces {
                    faces.push(Region {
                        x: r.u16()?,
                        y: r.u16()?,
                        w: r.u16()?,
                        h: r.u16()?,
                    });
                }
                let stego_payload = if r.take(1)?[0] == 1 {
                    let len = r.u32()? as usize;
                    Some(r.take(len)?.to_vec())
                } else {
                    None
                };
                let watermark = if r.take(1)?[0] == 1 {
                    Some(r.u64()?)
                } else {
                    None
                };
                if r.pos != bytes.len() {
                    return None;
                }
                Some(MediaFile::Jpeg(JpegImage {
                    width,
                    height,
                    pixels,
                    exif: Exif {
                        gps,
                        camera_serial,
                        timestamp,
                        artist,
                    },
                    faces,
                    stego_payload,
                    watermark,
                }))
            }
            m if m == PDF_MAGIC => {
                let author = r.opt_str()?;
                let producer = r.opt_str()?;
                let pages = r.vec_str()?;
                let hidden_layers = r.vec_str()?;
                if r.pos != bytes.len() {
                    return None;
                }
                Some(MediaFile::Pdf(PdfDoc {
                    author,
                    producer,
                    pages,
                    hidden_layers,
                }))
            }
            m if m == DOC_MAGIC => {
                let author = r.opt_str()?;
                let last_modified_by = r.opt_str()?;
                let body = r.vec_str()?.into_iter().next().unwrap_or_default();
                let revisions = r.vec_str()?;
                if r.pos != bytes.len() {
                    return None;
                }
                Some(MediaFile::Doc(DocFile {
                    author,
                    last_modified_by,
                    body,
                    revisions,
                }))
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jpeg_roundtrip() {
        let img = JpegImage::protest_photo();
        let f = MediaFile::Jpeg(img);
        let bytes = f.to_bytes();
        assert_eq!(MediaFile::parse(&bytes), f);
    }

    #[test]
    fn jpeg_with_stego_roundtrip() {
        let mut img = JpegImage::protest_photo();
        img.stego_payload = Some(b"hidden tracking id".to_vec());
        img.exif = Exif::default();
        img.watermark = None;
        let f = MediaFile::Jpeg(img);
        assert_eq!(MediaFile::parse(&f.to_bytes()), f);
    }

    #[test]
    fn pdf_roundtrip() {
        let f = MediaFile::Pdf(PdfDoc::memo());
        assert_eq!(MediaFile::parse(&f.to_bytes()), f);
    }

    #[test]
    fn doc_roundtrip() {
        let f = MediaFile::Doc(DocFile {
            author: Some("alice".into()),
            last_modified_by: None,
            body: "final text".into(),
            revisions: vec!["draft 1".into(), "draft 2".into()],
        });
        assert_eq!(MediaFile::parse(&f.to_bytes()), f);
    }

    #[test]
    fn unknown_passthrough() {
        let f = MediaFile::parse(b"GIF89a....");
        assert!(matches!(f, MediaFile::Unknown(_)));
        assert_eq!(f.to_bytes(), b"GIF89a....");
    }

    #[test]
    fn truncated_jpeg_degrades_to_unknown() {
        let bytes = MediaFile::Jpeg(JpegImage::protest_photo()).to_bytes();
        let cut = &bytes[..bytes.len() / 2];
        assert!(matches!(MediaFile::parse(cut), MediaFile::Unknown(_)));
    }

    #[test]
    fn trailing_garbage_degrades_to_unknown() {
        let mut bytes = MediaFile::Pdf(PdfDoc::memo()).to_bytes();
        bytes.push(0xFF);
        assert!(matches!(MediaFile::parse(&bytes), MediaFile::Unknown(_)));
    }

    #[test]
    fn exif_emptiness() {
        assert!(Exif::default().is_empty());
        assert!(!JpegImage::protest_photo().exif.is_empty());
    }
}
