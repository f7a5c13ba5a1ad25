//! The frame log: the disk store's one record format, its encoder,
//! and the fail-closed decoder recovery runs.
//!
//! # On-disk format (version 2)
//!
//! All integers are little-endian; all checksums are SHA-256
//! truncated to 16 bytes over a domain-separation string followed by
//! the covered bytes.
//!
//! **Superblock slots** — [`FileId::Journal`](super::FileId::Journal)
//! holds only two 64-byte slots at offsets 0 and 64, written
//! alternately (never in place), each:
//!
//! ```text
//! "NYMJ" | version u32 | gen u64 | applied_seq u64 | log_len u64
//!        | checksum [16] | zero padding to 64
//! ```
//!
//! `gen` is a monotone write generation — open picks the valid slot
//! with the higher `gen`, so a torn superblock write can only destroy
//! the slot being written, never the current one. `log_len` is the
//! committed log length and `applied_seq` the `seq` of the last frame
//! inside it. Checksum domain: `"nymix.disk.sb"` over the 32 bytes
//! before it.
//!
//! **Frames** — [`FileId::Heap`](super::FileId::Heap) is the log:
//! batch frames appended back to back from offset 0, one per commit,
//! `seq` counting up from 1:
//!
//! ```text
//! "JBAT" | seq u64 | op_count u32 | body_len u64 | checksum [16] | body
//! ```
//!
//! Checksum domain: `"nymix.disk.batch"` over `seq | op_count |
//! body_len | body`. The body is `op_count` operations:
//!
//! ```text
//! put:    0x01 | name_len u16 | name (UTF-8) | data_len u64 | data
//! delete: 0x02 | name_len u16 | name (UTF-8)
//! ```
//!
//! A put's data bytes are the object's home: the store's index points
//! into the frame, and a later put or delete of the same name shadows
//! it.
//!
//! # Decode policy
//!
//! [`decode_frame`] returns `None` for *anything* that is not a
//! complete, checksummed, exactly-consistent frame — truncation, a torn
//! tail, flipped bits, non-UTF-8 names, an op count or body length the
//! ops do not fill exactly. Bytes after the frame are not its concern.
//! Decode never panics on hostile bytes (property-tested in
//! `tests/prop.rs`).

use nymix_crypto::Sha256;

/// On-disk format version this build reads and writes.
const FORMAT_VERSION: u32 = 2;

/// Size of one superblock slot, bytes.
pub const SB_SLOT_LEN: usize = 64;

/// Fixed frame header length: magic + seq + op_count + body_len +
/// checksum.
const FRAME_HEADER_LEN: usize = 4 + 8 + 4 + 8 + 16;

const SB_MAGIC: &[u8; 4] = b"NYMJ";
const FRAME_MAGIC: &[u8; 4] = b"JBAT";
const SB_DOMAIN: &[u8] = b"nymix.disk.sb";
const FRAME_DOMAIN: &[u8] = b"nymix.disk.batch";
const PUT: u8 = 1;
const DELETE: u8 = 2;

/// Truncated-SHA-256 checksum with domain separation.
fn check16(domain: &[u8], parts: &[&[u8]]) -> [u8; 16] {
    let mut h = Sha256::new();
    h.update(domain);
    for p in parts {
        h.update(p);
    }
    let digest = h.finalize();
    let mut out = [0u8; 16];
    out.copy_from_slice(&digest[..16]);
    out
}

/// A decoded, validated superblock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Superblock {
    /// Monotone slot-write generation.
    pub gen: u64,
    /// `seq` of the last frame inside the committed log.
    pub applied_seq: u64,
    /// Committed log length in bytes.
    pub log_len: u64,
}

/// Encodes a superblock into one 64-byte slot image.
pub fn encode_superblock(sb: &Superblock) -> [u8; SB_SLOT_LEN] {
    let mut out = [0u8; SB_SLOT_LEN];
    out[..4].copy_from_slice(SB_MAGIC);
    out[4..8].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
    out[8..16].copy_from_slice(&sb.gen.to_le_bytes());
    out[16..24].copy_from_slice(&sb.applied_seq.to_le_bytes());
    out[24..32].copy_from_slice(&sb.log_len.to_le_bytes());
    let check = check16(SB_DOMAIN, &[&out[..32]]);
    out[32..48].copy_from_slice(&check);
    out
}

fn le_u64(b: &[u8], at: usize) -> Option<u64> {
    Some(u64::from_le_bytes(b.get(at..at + 8)?.try_into().ok()?))
}

/// Decodes one superblock slot; `None` when the slot is torn, blank,
/// from a different version, or fails its checksum.
pub fn decode_superblock(slot: &[u8]) -> Option<Superblock> {
    let slot = slot.get(..48)?;
    if &slot[..4] != SB_MAGIC
        || slot[4..8] != FORMAT_VERSION.to_le_bytes()
        || check16(SB_DOMAIN, &[&slot[..32]]) != slot[32..48]
    {
        return None;
    }
    Some(Superblock {
        gen: le_u64(slot, 8)?,
        applied_seq: le_u64(slot, 16)?,
        log_len: le_u64(slot, 24)?,
    })
}

/// Where one object's data bytes sit in the log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObjLoc {
    /// Byte offset of the data (from the frame start in a [`Frame`],
    /// from the log start in the store's index).
    pub off: u64,
    /// Data length in bytes.
    pub len: u64,
}

/// One operation of a frame, as the index applies it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op<'a> {
    /// `name` now lives at this extent of the frame.
    Put(&'a str, ObjLoc),
    /// `name` is removed if present.
    Delete(&'a str),
}

/// A frame's metadata: what [`encode_frame`] wrote or
/// [`decode_frame`] verified. The bytes themselves stay where they
/// are.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame<'a> {
    /// The batch's commit sequence number.
    pub seq: u64,
    /// Whole frame length, header included.
    pub len: usize,
    /// Operations in apply order: every put, then every delete.
    pub ops: Vec<Op<'a>>,
}

/// Log bytes a put op occupies (the garbage it leaves once shadowed).
pub(super) fn put_op_len(name: &str, data_len: u64) -> u64 {
    1 + 2 + name.len() as u64 + 8 + data_len
}

/// Log bytes a delete op occupies (garbage from the moment it lands).
pub(super) fn delete_op_len(name: &str) -> u64 {
    1 + 2 + name.len() as u64
}

/// Encodes one batch as a frame into `out` (cleared first): the puts
/// in order, then the deletes. The returned [`Frame`] borrows the
/// names and locates each put's data inside `out`.
pub fn encode_frame<'a>(
    seq: u64,
    puts: &'a [(String, Vec<u8>)],
    deletes: &'a [String],
    out: &mut Vec<u8>,
) -> Frame<'a> {
    let body_len: u64 = puts
        .iter()
        .map(|(n, d)| put_op_len(n, d.len() as u64))
        .chain(deletes.iter().map(|n| delete_op_len(n)))
        .sum();
    out.clear();
    out.reserve(FRAME_HEADER_LEN + body_len as usize);
    out.extend_from_slice(FRAME_MAGIC);
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&crate::archive::len_u32(puts.len() + deletes.len()).to_le_bytes());
    out.extend_from_slice(&body_len.to_le_bytes());
    out.extend_from_slice(&[0u8; 16]); // checksum, filled in below
    let mut ops = Vec::with_capacity(puts.len() + deletes.len());
    for (name, data) in puts {
        out.push(PUT);
        out.extend_from_slice(&crate::archive::len_u16(name.len()).to_le_bytes());
        out.extend_from_slice(name.as_bytes());
        out.extend_from_slice(&(data.len() as u64).to_le_bytes());
        let loc = ObjLoc {
            off: out.len() as u64,
            len: data.len() as u64,
        };
        out.extend_from_slice(data);
        ops.push(Op::Put(name, loc));
    }
    for name in deletes {
        out.push(DELETE);
        out.extend_from_slice(&crate::archive::len_u16(name.len()).to_le_bytes());
        out.extend_from_slice(name.as_bytes());
        ops.push(Op::Delete(name));
    }
    debug_assert_eq!(out.len() as u64, FRAME_HEADER_LEN as u64 + body_len);
    let check = check16(FRAME_DOMAIN, &[&out[4..24], &out[FRAME_HEADER_LEN..]]);
    out[24..FRAME_HEADER_LEN].copy_from_slice(&check);
    Frame {
        seq,
        len: out.len(),
        ops,
    }
}

/// Decodes the frame at the start of `region`. Returns `None` — "not
/// a frame" — for any incomplete, inconsistent, or corrupted frame.
/// Never panics.
pub fn decode_frame(region: &[u8]) -> Option<Frame<'_>> {
    let header = region.get(..FRAME_HEADER_LEN)?;
    if &header[..4] != FRAME_MAGIC {
        return None;
    }
    let seq = le_u64(header, 4)?;
    let count = u32::from_le_bytes(header[12..16].try_into().ok()?);
    let body_len = usize::try_from(le_u64(header, 16)?).ok()?;
    let len = FRAME_HEADER_LEN.checked_add(body_len)?;
    let body = region.get(FRAME_HEADER_LEN..len)?;
    if check16(FRAME_DOMAIN, &[&header[4..24], body]) != header[24..] {
        return None;
    }
    // Parse exactly `count` ops consuming exactly the body.
    let mut ops = Vec::with_capacity(count.min(4096) as usize);
    let mut pos = 0usize;
    for _ in 0..count {
        let tag = *body.get(pos)?;
        let name_len = u16::from_le_bytes(body.get(pos + 1..pos + 3)?.try_into().ok()?);
        pos += 3;
        let name_end = pos + usize::from(name_len);
        let name = core::str::from_utf8(body.get(pos..name_end)?).ok()?;
        pos = name_end;
        match tag {
            PUT => {
                let data_len = le_u64(body, pos)?;
                pos += 8;
                let end = pos.checked_add(usize::try_from(data_len).ok()?)?;
                body.get(pos..end)?;
                let loc = ObjLoc {
                    off: (FRAME_HEADER_LEN + pos) as u64,
                    len: data_len,
                };
                ops.push(Op::Put(name, loc));
                pos = end;
            }
            DELETE => ops.push(Op::Delete(name)),
            _ => return None,
        }
    }
    (pos == body.len()).then_some(Frame { seq, len, ops })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A frame holding two puts and a delete.
    fn sample(seq: u64) -> Vec<u8> {
        let puts = vec![
            ("a/b".to_string(), b"hello".to_vec()),
            ("k".to_string(), vec![7u8; 300]),
        ];
        let mut buf = Vec::new();
        encode_frame(seq, &puts, &["old".to_string()], &mut buf);
        buf
    }

    #[test]
    fn superblock_round_trips_and_rejects_flips() {
        let sb = Superblock {
            gen: 7,
            applied_seq: 41,
            log_len: 9001,
        };
        let slot = encode_superblock(&sb);
        assert_eq!(decode_superblock(&slot), Some(sb));
        for bit in [0usize, 40, 200, 380] {
            let mut bad = slot;
            bad[bit / 8] ^= 1 << (bit % 8);
            assert_eq!(decode_superblock(&bad), None, "bit {bit} accepted");
        }
        assert_eq!(decode_superblock(&[0u8; SB_SLOT_LEN]), None);
        assert_eq!(decode_superblock(b"NYMJ"), None);
    }

    #[test]
    fn frame_round_trips() {
        let puts = vec![
            ("a/b".to_string(), b"hello".to_vec()),
            (String::new(), Vec::new()),
        ];
        let deletes = vec!["old".to_string()];
        let mut buf = vec![0xEE; 37]; // cleared: the frame starts at 0
        let enc = encode_frame(5, &puts, &deletes, &mut buf);
        let dec = decode_frame(&buf).expect("valid frame");
        assert_eq!(dec, enc);
        assert_eq!(dec.seq, 5);
        assert_eq!(dec.len, buf.len());
        let Op::Put("a/b", loc) = dec.ops[0] else {
            panic!("first op {:?}", dec.ops[0]);
        };
        assert_eq!(&buf[loc.off as usize..][..loc.len as usize], b"hello");
        assert_eq!(dec.ops[1], Op::Put("", ObjLoc { off: 70, len: 0 }));
        assert_eq!(dec.ops[2], Op::Delete("old"));
    }

    #[test]
    fn frame_tolerates_trailing_bytes() {
        // The next frame, or crash residue, follows a frame in the log.
        let mut frame = sample(9);
        let len = frame.len();
        frame.extend_from_slice(&[0xAB; 100]);
        let dec = decode_frame(&frame).expect("valid frame");
        assert_eq!((dec.seq, dec.len), (9, len));
    }

    #[test]
    fn torn_or_flipped_frame_is_not_a_frame() {
        let frame = sample(3);
        // Every truncation point: not a frame, never a panic.
        for cut in 0..frame.len() {
            assert_eq!(decode_frame(&frame[..cut]), None, "cut {cut}");
        }
        // A bit flip at every 13th byte: rejected.
        for i in (0..frame.len()).step_by(13) {
            let mut bad = frame.clone();
            bad[i] ^= 0x40;
            assert_eq!(decode_frame(&bad), None, "flip {i}");
        }
    }

    /// A frame around `body` with a valid checksum — what a hostile
    /// writer, not a crash, can produce.
    fn forged(count: u32, body_len: u64, body: &[u8]) -> Vec<u8> {
        let mut frame = Vec::new();
        frame.extend_from_slice(FRAME_MAGIC);
        frame.extend_from_slice(&1u64.to_le_bytes());
        frame.extend_from_slice(&count.to_le_bytes());
        frame.extend_from_slice(&body_len.to_le_bytes());
        let body = &body[..(body_len as usize).min(body.len())];
        let check = check16(FRAME_DOMAIN, &[&frame[4..24], body]);
        frame.extend_from_slice(&check);
        frame.extend_from_slice(body);
        frame
    }

    #[test]
    fn frame_with_inconsistent_count_or_length_is_not_a_frame() {
        let mut body = vec![PUT];
        body.extend_from_slice(&2u16.to_le_bytes());
        body.extend_from_slice(b"ab");
        body.extend_from_slice(&1u64.to_le_bytes());
        body.push(9);
        let n = body.len() as u64;
        assert!(decode_frame(&forged(1, n, &body)).is_some(), "control");
        // Claims 3 ops, body holds 1.
        assert_eq!(decode_frame(&forged(3, n, &body)), None);
        // Claims 0 ops, body holds 1: unparsed bytes inside the body.
        assert_eq!(decode_frame(&forged(0, n, &body)), None);
        // Body length cuts the put's data short.
        assert_eq!(decode_frame(&forged(1, n - 1, &body)), None);
        // Body length runs past the region.
        assert_eq!(decode_frame(&forged(1, n + 1, &body)), None);
        // A put whose data length overflows the body.
        let mut huge = body.clone();
        huge[5..13].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(decode_frame(&forged(1, n, &huge)), None);
        // An unknown op tag.
        let mut tagged = body;
        tagged[0] = 3;
        assert_eq!(decode_frame(&forged(1, n, &tagged)), None);
    }
}
