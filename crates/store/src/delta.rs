//! Incremental (delta) nym snapshots.
//!
//! The paper's store-nym workflow (§3.5) re-seals the entire
//! AnonVM/CommVM writable state on every snapshot, so save latency
//! grows with total nym size even when one browser session touched a
//! handful of files. A [`DeltaArchive`] holds only the records that
//! changed since the previous snapshot — plus enough commitment to make
//! replay tamper-evident:
//!
//! ```text
//! magic "NYMD" | full_record_count u32 | records_root [32]u8 |
//! dirty_count u32 | records (name_len u16 | name | data_len u64 | data) |
//! removed_count u32 | (name_len u16 | name)...
//! ```
//!
//! `records_root` commits to the **entire** record set of the full
//! archive this delta produces when applied, not just the dirty
//! records: it is [`records_root`], one SHA-256 over a domain tag, the
//! record count (u32 LE) and every record in order as the archive
//! encodes it (`name_len u16 ‖ name ‖ data_len u64 ‖ data`). Restore
//! replays base + deltas in order and [`DeltaArchive::apply`] rejects
//! the result whenever the recomputed root differs — a tampered record,
//! a reordered chain, or a delta replayed against the wrong base fails
//! closed instead of restoring silently-wrong state.
//!
//! The root is computed over the chain's stored form, where a chunking
//! save has turned every record at or above the chunk threshold into a
//! short manifest, so hashing the whole record set costs a few dozen
//! SHA-256 blocks per delta saved or replayed. A chain whose base was
//! saved without chunking keeps its clean records raw, and each of its
//! deltas hashes them whole.
//!
//! Chains are bounded: after [`DELTA_CHAIN_LIMIT`] deltas the next save
//! compacts back to a full `"NYM1"` archive ([`crate::chain`] owns
//! chain naming, sealing and compaction).
//!
//! Like [`NymArchive::from_bytes`](crate::NymArchive::from_bytes), the
//! parser treats its input as hostile: overflow-safe bounds checks
//! everywhere, pre-allocation clamped by the bytes actually present.
//! Parsing either succeeds or returns an error — never panics.

use nymix_crypto::Sha256;

use crate::archive::{
    clamp_count, len_u16, len_u32, read_name, read_record, write_record, ArchiveError, NymArchive,
    Reader, MAX_NAME_LEN, MIN_RECORD_LEN,
};

/// Maximum deltas chained on one base archive before a save must
/// compact back to a full archive. Bounds restore latency (base + at
/// most this many replays) and the blast radius of a lost object.
pub const DELTA_CHAIN_LIMIT: usize = 4;

/// The 32-byte [`records_root`] of an archive's full record set.
pub type RecordsRoot = [u8; 32];

const MAGIC: &[u8; 4] = b"NYMD";

/// Domain tag of [`records_root`]: no other SHA-256 in the stack
/// starts with it.
const ROOT_TAG: &[u8] = b"nymix:delta:records\x00";

/// The commitment a delta carries to the archive it produces: SHA-256
/// over the tag `"nymix:delta:records\0"`, the record count (u32 LE),
/// then each record in order as `name_len u16 ‖ name ‖ data_len u64 ‖
/// data`. That is the archive's own record encoding, so the hashed
/// stream parses back to exactly one record list, order included.
/// Streams the records through one hasher and allocates nothing.
pub fn records_root(archive: &NymArchive) -> RecordsRoot {
    let mut h = Sha256::new();
    h.update(ROOT_TAG);
    h.update(&len_u32(archive.record_count()).to_le_bytes());
    for (name, data) in archive.records() {
        h.update(&len_u16(name.len()).to_le_bytes());
        h.update(name.as_bytes());
        h.update(&(data.len() as u64).to_le_bytes());
        h.update(data);
    }
    h.finalize()
}

/// Errors from delta parsing and replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaError {
    /// Bad magic, structural truncation, or hostile lengths.
    Malformed,
    /// Applying the delta produced a record count other than the one
    /// the delta committed to.
    CountMismatch,
    /// The recomputed [`records_root`] of the replayed record set differs
    /// from the committed root: tampering, reordering, or a stale base.
    RootMismatch,
}

impl core::fmt::Display for DeltaError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DeltaError::Malformed => write!(f, "malformed delta archive"),
            DeltaError::CountMismatch => write!(f, "replayed record count mismatches commitment"),
            DeltaError::RootMismatch => write!(f, "records root mismatch after replay"),
        }
    }
}

impl std::error::Error for DeltaError {}

impl From<ArchiveError> for DeltaError {
    fn from(_: ArchiveError) -> Self {
        DeltaError::Malformed
    }
}

/// The dirty-record set between two snapshots, plus the commitment to
/// the full record set after replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaArchive {
    full_count: u32,
    root: RecordsRoot,
    dirty: Vec<(String, Vec<u8>)>,
    removed: Vec<String>,
}

impl DeltaArchive {
    /// An empty delta committing to a full archive of `full_count`
    /// records under `root`. Populate with [`DeltaArchive::put`].
    pub fn new(full_count: usize, root: RecordsRoot) -> Self {
        Self {
            full_count: len_u32(full_count),
            root,
            dirty: Vec::new(),
            removed: Vec::new(),
        }
    }

    /// Computes the delta turning `prev` into `next`: records whose
    /// bytes changed (or are new), plus removals, committing to
    /// `next`'s full record set. The store pipeline knows its dirty set
    /// from capture and builds its deltas with [`DeltaArchive::new`]
    /// and the same [`records_root`] instead.
    pub fn diff(prev: &NymArchive, next: &NymArchive) -> Self {
        let mut delta = Self::new(next.record_count(), records_root(next));
        for (name, data) in next.records() {
            if prev.get(name) != Some(data) {
                delta.put(name, data.to_vec());
            }
        }
        for (name, _) in prev.records() {
            if next.get(name).is_none() {
                delta.mark_removed(name);
            }
        }
        delta
    }

    /// Adds (or replaces) a dirty record.
    ///
    /// # Panics
    ///
    /// Panics if `name` exceeds [`MAX_NAME_LEN`] bytes (see
    /// [`NymArchive::put`](crate::NymArchive::put)).
    pub fn put(&mut self, name: &str, data: Vec<u8>) {
        // lint:allow(panic-free-parser): serializer-side contract on caller-chosen names (documented under # Panics); wire bytes never reach this path
        assert!(
            name.len() <= MAX_NAME_LEN,
            "record name of {} bytes exceeds the u16 wire limit ({MAX_NAME_LEN})",
            name.len()
        );
        if let Some(slot) = self.dirty.iter_mut().find(|(n, _)| n == name) {
            slot.1 = data;
        } else {
            self.dirty.push((name.to_string(), data));
        }
    }

    /// Marks a record as removed since the previous snapshot.
    ///
    /// # Panics
    ///
    /// Panics if `name` exceeds [`MAX_NAME_LEN`] bytes.
    fn mark_removed(&mut self, name: &str) {
        // lint:allow(panic-free-parser): serializer-side contract on caller-chosen names (documented under # Panics); wire bytes never reach this path
        assert!(
            name.len() <= MAX_NAME_LEN,
            "record name of {} bytes exceeds the u16 wire limit ({MAX_NAME_LEN})",
            name.len()
        );
        if !self.removed.iter().any(|n| n == name) {
            self.removed.push(name.to_string());
        }
    }

    /// The committed [`records_root`] of the post-replay record set.
    pub fn root(&self) -> &RecordsRoot {
        &self.root
    }

    /// Total dirty payload bytes (what a delta save actually re-seals).
    pub fn payload_bytes(&self) -> usize {
        self.dirty.iter().map(|(_, d)| d.len()).sum()
    }

    /// Replays this delta onto `base` in place: dirty records replace
    /// same-named ones (new names append in delta order), moved in
    /// without a copy, and removed names drop out. The result is then
    /// verified against the committed record count and
    /// [`records_root`]. On any mismatch `base` must be considered
    /// corrupt and discarded — the method fails closed rather than
    /// rolling back.
    pub fn apply(self, base: &mut NymArchive) -> Result<(), DeltaError> {
        for (name, data) in self.dirty {
            base.put(&name, data);
        }
        for name in &self.removed {
            base.remove(name);
        }
        if base.record_count() != self.full_count as usize {
            return Err(DeltaError::CountMismatch);
        }
        if records_root(base) != self.root {
            return Err(DeltaError::RootMismatch);
        }
        Ok(())
    }

    /// Exact byte length [`DeltaArchive::write_into`] will append.
    pub fn serialized_len(&self) -> usize {
        MAGIC.len()
            + 4
            + 32
            + 4
            + self
                .dirty
                .iter()
                .map(|(name, data)| 2 + name.len() + 8 + data.len())
                .sum::<usize>()
            + 4
            + self.removed.iter().map(|n| 2 + n.len()).sum::<usize>()
    }

    /// Serializes the delta by appending to `out`; with
    /// [`DeltaArchive::serialized_len`] spare capacity this performs no
    /// allocation, so the sealing pipeline can serialize straight into
    /// its reusable arena.
    pub fn write_into(&self, out: &mut Vec<u8>) {
        out.reserve(self.serialized_len());
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&self.full_count.to_le_bytes());
        out.extend_from_slice(&self.root);
        out.extend_from_slice(&len_u32(self.dirty.len()).to_le_bytes());
        for (name, data) in &self.dirty {
            write_record(out, name, data);
        }
        out.extend_from_slice(&len_u32(self.removed.len()).to_le_bytes());
        for name in &self.removed {
            out.extend_from_slice(&len_u16(name.len()).to_le_bytes());
            out.extend_from_slice(name.as_bytes());
        }
    }

    /// Serializes the delta.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.serialized_len());
        self.write_into(&mut out);
        out
    }

    /// Parses a serialized delta. Never panics and never over-reserves,
    /// no matter how hostile the bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, DeltaError> {
        let mut r = Reader::new(bytes);
        if r.take(4)? != MAGIC {
            return Err(DeltaError::Malformed);
        }
        let full_count = r.u32()?;
        let root: RecordsRoot = r.take_array()?;
        let dirty_count = r.u32()?;
        let mut dirty = Vec::with_capacity(clamp_count(dirty_count, r.remaining(), MIN_RECORD_LEN));
        for _ in 0..dirty_count {
            dirty.push(read_record(&mut r)?);
        }
        let removed_count = r.u32()?;
        let mut removed = Vec::with_capacity(clamp_count(removed_count, r.remaining(), 2));
        for _ in 0..removed_count {
            removed.push(read_name(&mut r)?);
        }
        if !r.done() {
            return Err(DeltaError::Malformed);
        }
        Ok(Self {
            full_count,
            root,
            dirty,
            removed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> NymArchive {
        let mut a = NymArchive::new();
        a.put("anonvm.disk", vec![1; 300]);
        a.put("commvm.disk", vec![2; 200]);
        a.put("meta", b"name=alice".to_vec());
        a
    }

    /// Replays `delta` onto `base` the way restore does.
    fn replay(delta: &DeltaArchive, base: &mut NymArchive) -> Result<(), DeltaError> {
        delta.clone().apply(base)
    }

    #[test]
    fn diff_apply_reproduces_exact_archive() {
        let prev = base();
        let mut next = prev.clone();
        next.put("anonvm.disk", vec![9; 350]); // changed
        next.put("browser.state", b"cookies".to_vec()); // new
        next.remove("meta"); // gone
        let delta = DeltaArchive::diff(&prev, &next);
        assert_eq!(
            delta.dirty.iter().map(|(n, _)| n).collect::<Vec<_>>(),
            vec!["anonvm.disk", "browser.state"]
        );
        assert_eq!(delta.removed, vec!["meta"]);
        // Only the dirty payload rides the wire.
        assert_eq!(delta.payload_bytes(), 350 + 7);

        assert_eq!(*delta.root(), records_root(&next));
        let mut replayed = prev.clone();
        delta.apply(&mut replayed).unwrap();
        assert_eq!(replayed, next);
    }

    #[test]
    fn wire_roundtrip() {
        let prev = base();
        let mut next = prev.clone();
        next.put("meta", b"name=alice;v=2".to_vec());
        next.remove("commvm.disk");
        let delta = DeltaArchive::diff(&prev, &next);
        let bytes = delta.to_bytes();
        assert_eq!(bytes.len(), delta.serialized_len());
        assert_eq!(DeltaArchive::from_bytes(&bytes).unwrap(), delta);
    }

    #[test]
    fn empty_delta_roundtrips_and_verifies() {
        let a = base();
        let delta = DeltaArchive::diff(&a, &a);
        assert!(delta.dirty.is_empty());
        assert_eq!(delta.payload_bytes(), 0);
        let delta = DeltaArchive::from_bytes(&delta.to_bytes()).unwrap();
        let mut replayed = a.clone();
        replay(&delta, &mut replayed).unwrap();
        assert_eq!(replayed, a);
    }

    #[test]
    fn tampered_record_fails_closed() {
        let prev = base();
        let mut next = prev.clone();
        next.put("anonvm.disk", vec![9; 10]);
        let delta = DeltaArchive::diff(&prev, &next);

        // Tamper with a record the delta does NOT carry: the dirty set
        // authenticates fine record-by-record; only the full-set root
        // catches it.
        let mut stale_base = prev.clone();
        stale_base.put("commvm.disk", vec![0xEE; 200]);
        assert_eq!(
            replay(&delta, &mut stale_base),
            Err(DeltaError::RootMismatch)
        );

        // Tamper with the carried record's bytes on the wire (the last
        // payload byte sits just before the trailing removed_count u32).
        let mut bytes = delta.to_bytes();
        let last_payload = bytes.len() - 5;
        bytes[last_payload] ^= 1;
        let evil = DeltaArchive::from_bytes(&bytes).unwrap();
        let mut replayed = prev.clone();
        assert_eq!(replay(&evil, &mut replayed), Err(DeltaError::RootMismatch));
    }

    #[test]
    fn wrong_base_fails_closed() {
        let prev = base();
        let mut next = prev.clone();
        next.put("meta", b"v2".to_vec());
        let delta = DeltaArchive::diff(&prev, &next);
        // Replaying against an archive with an extra record: the count
        // check fails before any hashing.
        let mut fat = prev.clone();
        fat.put("extra", vec![1]);
        assert_eq!(replay(&delta, &mut fat), Err(DeltaError::CountMismatch));
    }

    #[test]
    fn hostile_bytes_rejected_without_panic() {
        assert_eq!(
            DeltaArchive::from_bytes(b"NYMD"),
            Err(DeltaError::Malformed)
        );
        assert_eq!(
            DeltaArchive::from_bytes(b"NYM1aaaaaaaa"),
            Err(DeltaError::Malformed)
        );
        // Hostile data_len near u64::MAX inside a dirty record.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 32]);
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&1u16.to_le_bytes());
        bytes.push(b'x');
        bytes.extend_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(DeltaArchive::from_bytes(&bytes), Err(DeltaError::Malformed));
        // Huge removed_count with no bytes behind it.
        let mut bytes = DeltaArchive::new(0, [0; 32]).to_bytes();
        let n = bytes.len();
        bytes[n - 4..].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(DeltaArchive::from_bytes(&bytes), Err(DeltaError::Malformed));
    }

    #[test]
    fn records_root_covers_order_names_and_boundaries() {
        let root = |records: &[(&str, &[u8])]| {
            let mut a = NymArchive::new();
            for (name, data) in records {
                a.put(name, data.to_vec());
            }
            records_root(&a)
        };
        let original = root(&[("ab", b"cd"), ("ef", b"gh")]);
        for (what, changed) in [
            ("reorder", root(&[("ef", b"gh"), ("ab", b"cd")])),
            ("rename", root(&[("ab", b"cd"), ("eF", b"gh")])),
            ("name byte into data", root(&[("a", b"bcd"), ("ef", b"gh")])),
            ("data byte into name", root(&[("abc", b"d"), ("ef", b"gh")])),
            (
                "byte into next record",
                root(&[("ab", b"c"), ("def", b"gh")]),
            ),
            (
                "byte into previous record",
                root(&[("ab", b"cde"), ("f", b"gh")]),
            ),
        ] {
            assert_ne!(changed, original, "{what}");
        }
        assert_eq!(root(&[("ab", b"cd"), ("ef", b"gh")]), original);
    }
}
