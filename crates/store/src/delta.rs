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
//! magic "NYMD" | full_record_count u32 | merkle_root [32]u8 |
//! dirty_count u32 | records (name_len u16 | name | data_len u64 | data) |
//! removed_count u32 | (name_len u16 | name)...
//! ```
//!
//! `merkle_root` commits to the **entire** record set of the full
//! archive this delta produces when applied, not just the dirty
//! records: each leaf is `name_len u16 ‖ name ‖ data` in record order,
//! hashed through the domain-separated tree of `nymix_crypto::merkle`
//! (built on the 4-way `sha256_x4` batch kernel). Restore replays
//! base + deltas in order and [`DeltaArchive::apply`] rejects the
//! result whenever the recomputed root differs — a tampered record, a
//! reordered chain, or a delta replayed against the wrong base fails
//! closed instead of restoring silently-wrong state.
//!
//! Chains are bounded: after [`DELTA_CHAIN_LIMIT`] deltas the next save
//! compacts back to a full `"NYM1"` archive ([`crate::chain`] owns
//! chain naming, sealing and compaction).
//!
//! Computing `merkle_root` is O(dirty), not O(archive), when the saver
//! keeps an [`ArchiveCommitment`] warm across saves: the accumulator
//! caches every leaf hash and interior node, so a save rewrites only
//! the dirty leaves plus their root paths. The cache is **derivable
//! state** — rebuilt from the archive bytes on restore
//! ([`ArchiveCommitment::build`]), never serialized, and bit-identical
//! to the from-scratch root by construction (property-tested) — so the
//! `NYMD` wire format above is unchanged and old blobs replay
//! byte-for-byte.
//!
//! Like [`NymArchive::from_bytes`](crate::NymArchive::from_bytes), the
//! parser treats its input as hostile: overflow-safe bounds checks
//! everywhere, pre-allocation clamped by the bytes actually present.
//! Parsing either succeeds or returns an error — never panics.

use std::collections::HashMap;

use nymix_crypto::{leaf_hash_parts, MerkleAccumulator};

use crate::archive::{
    clamp_count, len_u16, len_u32, read_name, read_record, write_record, ArchiveError, NymArchive,
    Reader, MAX_NAME_LEN, MIN_RECORD_LEN,
};

/// Maximum deltas chained on one base archive before a save must
/// compact back to a full archive. Bounds restore latency (base + at
/// most this many replays) and the blast radius of a lost object.
pub const DELTA_CHAIN_LIMIT: usize = 4;

/// A 32-byte Merkle root over an archive's full record set.
pub type MerkleRoot = [u8; 32];

const MAGIC: &[u8; 4] = b"NYMD";

/// Errors from delta parsing and replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaError {
    /// Bad magic, structural truncation, or hostile lengths.
    Malformed,
    /// Applying the delta produced a record count other than the one
    /// the delta committed to.
    CountMismatch,
    /// The recomputed Merkle root over the replayed record set differs
    /// from the committed root: tampering, reordering, or a stale base.
    RootMismatch,
}

impl core::fmt::Display for DeltaError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DeltaError::Malformed => write!(f, "malformed delta archive"),
            DeltaError::CountMismatch => write!(f, "replayed record count mismatches commitment"),
            DeltaError::RootMismatch => write!(f, "merkle root mismatch after replay"),
        }
    }
}

impl std::error::Error for DeltaError {}

impl From<ArchiveError> for DeltaError {
    fn from(_: ArchiveError) -> Self {
        DeltaError::Malformed
    }
}

/// The dirty-record set between two snapshots, plus the Merkle
/// commitment to the full record set after replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaArchive {
    full_count: u32,
    root: MerkleRoot,
    dirty: Vec<(String, Vec<u8>)>,
    removed: Vec<String>,
}

impl DeltaArchive {
    /// An empty delta committing to a full archive of `full_count`
    /// records under `root`. Populate with [`DeltaArchive::put`].
    pub fn new(full_count: usize, root: MerkleRoot) -> Self {
        Self {
            full_count: len_u32(full_count),
            root,
            dirty: Vec::new(),
            removed: Vec::new(),
        }
    }

    /// Computes the delta turning `prev` into `next`: records whose
    /// bytes changed (or are new), plus removals, committing to
    /// `next`'s full record set from scratch — O(archive) hashing. The
    /// store pipeline knows its dirty set from capture and builds its
    /// deltas with [`DeltaArchive::new`] against a warm
    /// [`ArchiveCommitment`] instead.
    pub fn diff(prev: &NymArchive, next: &NymArchive) -> Self {
        let mut delta = Self::new(next.record_count(), [0u8; 32]);
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
        delta.root = ArchiveCommitment::build(next).root();
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

    /// The committed Merkle root of the post-replay record set.
    pub fn root(&self) -> &MerkleRoot {
        &self.root
    }

    /// Total dirty payload bytes (what a delta save actually re-seals).
    pub fn payload_bytes(&self) -> usize {
        self.dirty.iter().map(|(_, d)| d.len()).sum()
    }

    /// Replays this delta onto `base` in place: dirty records replace
    /// same-named ones (new names append in delta order), removed names
    /// drop out. The result is then verified against the committed
    /// record count and Merkle root through `commitment`, which
    /// rehashes only the leaves this delta touched — O(dirty · log n)
    /// per link instead of O(archive).
    ///
    /// `commitment` must reflect `base` as it was before this call
    /// (restore builds it once over the parsed base archive with
    /// [`ArchiveCommitment::build`] and threads it through the whole
    /// replay chain). On success it reflects the replayed state; on any
    /// mismatch both `base` and the commitment must be considered
    /// corrupt and discarded — the method fails closed rather than
    /// rolling back.
    pub fn apply(
        &self,
        base: &mut NymArchive,
        commitment: &mut ArchiveCommitment,
    ) -> Result<(), DeltaError> {
        for (name, data) in &self.dirty {
            base.put(name, data.clone());
        }
        for name in &self.removed {
            base.remove(name);
        }
        if base.record_count() != self.full_count as usize {
            return Err(DeltaError::CountMismatch);
        }
        let root = commitment.update(base, |name| self.dirty.iter().any(|(n, _)| n == name));
        if root != self.root {
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
        let root: MerkleRoot = r.take_array()?;
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

/// A cached Merkle commitment over an archive's record set.
///
/// Wraps [`MerkleAccumulator`] with the archive leaf schema (one leaf
/// per record: `name_len u16 ‖ name ‖ data`, in record order) plus the
/// record-name list needed to reconcile the cache against an archive
/// after edits. The cache is **derivable state**: nothing about the
/// NYMD wire format changes, and a commitment rebuilt from scratch
/// over the same archive is bit-identical — sessions keep one per
/// snapshot chain purely to make recommitting O(dirty).
///
/// [`ArchiveCommitment::update`] is the single entry point: given the
/// archive's current state and a dirty predicate, it rehashes exactly
/// the dirty leaves (`merkle.leaf_rehash` counts them, and
/// `merkle.cache_hit` the leaves served from cache) and returns the
/// new root. When the record *shape* changed — names added, removed,
/// or reordered — it falls back to relinking the whole leaf level,
/// still reusing cached leaf hashes for clean records carried over by
/// name.
///
/// The dirty predicate is a soundness contract: it must return `true`
/// for every record whose bytes differ from what this commitment last
/// saw. An under-reporting caller commits a wrong root — which the
/// fail-closed replay check then rejects, so the failure mode is a
/// refused restore, never silently-wrong state.
#[derive(Debug, Clone, Default)]
pub struct ArchiveCommitment {
    /// Record names in committed order, mirroring the archive.
    names: Vec<String>,
    acc: MerkleAccumulator,
}

impl ArchiveCommitment {
    /// Builds the cache over `archive` from scratch: one full leaf
    /// pass, the last O(archive) hash this chain pays until the shape
    /// changes.
    pub fn build(archive: &NymArchive) -> Self {
        let mut c = Self::default();
        for (name, data) in archive.records() {
            c.names.push(name.to_string());
            c.acc.push_leaf(record_leaf(name, data));
        }
        c.acc.root();
        c
    }

    /// The committed root (cached; rebuilds interior nodes only after
    /// a shape change).
    pub fn root(&mut self) -> MerkleRoot {
        self.acc.root()
    }

    /// Reconciles the cache with `archive` and returns the new root.
    /// `is_dirty` must flag every record whose bytes changed since the
    /// last reconciliation (see the type docs for the contract).
    ///
    /// Unchanged shape: O(dirty · log n) hashing, allocation-free.
    /// Changed shape: the leaf level relinks, reusing cached hashes
    /// for clean same-named records.
    pub fn update<F: Fn(&str) -> bool>(&mut self, archive: &NymArchive, is_dirty: F) -> MerkleRoot {
        let same_shape = self.names.len() == archive.record_count()
            && archive
                .records()
                .zip(self.names.iter())
                .all(|((name, _), cached)| name == cached);
        if same_shape {
            let mut rehashed = 0usize;
            for (i, (name, data)) in archive.records().enumerate() {
                if is_dirty(name) {
                    self.acc.update_leaf(i, record_leaf(name, data));
                    rehashed += 1;
                }
            }
            nymix_obs::counter!("merkle.leaf_rehash", rehashed);
            nymix_obs::counter!("merkle.cache_hit", self.names.len() - rehashed);
        } else {
            // Shape changed: rebuild the leaf level, reusing cached
            // leaf hashes for clean records carried over by name.
            let cached: HashMap<&str, MerkleRoot> = self
                .names
                .iter()
                .enumerate()
                .filter_map(|(i, n)| self.acc.leaf(i).map(|h| (n.as_str(), *h)))
                .collect();
            let mut names = Vec::with_capacity(archive.record_count());
            let mut leaves = Vec::with_capacity(archive.record_count());
            let mut rehashed = 0usize;
            for (name, data) in archive.records() {
                let reused = if is_dirty(name) {
                    None
                } else {
                    cached.get(name)
                };
                leaves.push(match reused {
                    Some(h) => *h,
                    None => {
                        rehashed += 1;
                        record_leaf(name, data)
                    }
                });
                names.push(name.to_string());
            }
            nymix_obs::counter!("merkle.leaf_rehash", rehashed);
            nymix_obs::counter!("merkle.cache_hit", names.len() - rehashed);
            drop(cached);
            self.names = names;
            self.acc.clear();
            for leaf in leaves {
                self.acc.push_leaf(leaf);
            }
        }
        self.acc.root()
    }
}

/// One commitment leaf: `name_len u16 ‖ name ‖ data`, hashed without
/// materializing the concatenation.
fn record_leaf(name: &str, data: &[u8]) -> MerkleRoot {
    let name_len = len_u16(name.len()).to_le_bytes();
    leaf_hash_parts(&[&name_len, name.as_bytes(), data])
}

#[cfg(test)]
mod tests {
    use super::*;
    use nymix_crypto::merkle_root_from_leaves;

    /// The Merkle root over an archive's full record set: one leaf per
    /// record (`name_len u16 ‖ name ‖ data`), in record order, folded
    /// from scratch. The independent oracle the tests pin
    /// [`ArchiveCommitment`] against.
    fn archive_merkle_root(archive: &NymArchive) -> MerkleRoot {
        let mut leaves: Vec<MerkleRoot> = archive
            .records()
            .map(|(name, data)| record_leaf(name, data))
            .collect();
        merkle_root_from_leaves(&mut leaves)
    }

    fn base() -> NymArchive {
        let mut a = NymArchive::new();
        a.put("anonvm.disk", vec![1; 300]);
        a.put("commvm.disk", vec![2; 200]);
        a.put("meta", b"name=alice".to_vec());
        a
    }

    /// Replays `delta` onto `base` the way restore does: through a
    /// commitment built over the base as parsed.
    fn replay(delta: &DeltaArchive, base: &mut NymArchive) -> Result<(), DeltaError> {
        let mut commitment = ArchiveCommitment::build(base);
        delta.apply(base, &mut commitment)
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

        let mut replayed = prev.clone();
        let mut commitment = ArchiveCommitment::build(&replayed);
        delta.apply(&mut replayed, &mut commitment).unwrap();
        assert_eq!(replayed, next);
        // The threaded commitment now reflects the replayed state.
        assert_eq!(commitment.root(), archive_merkle_root(&next));
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
        // authenticates fine record-by-record, and the commitment —
        // built over the tampered base, as restore would — serves that
        // record's leaf from cache; only the full-set root catches it.
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
    fn chained_commitment_updates_match_scratch_roots() {
        // The save path's O(dirty) commitment: data-only edits (fast
        // path), new records, and removals (shape-change path) must all
        // commit to the scratch root, and to what diff commits.
        let mut prev = base();
        let mut commitment = ArchiveCommitment::build(&prev);
        assert_eq!(commitment.root(), archive_merkle_root(&prev));

        // Data-only change: cached shape holds, only one leaf rehashes.
        let mut next = prev.clone();
        next.put("anonvm.disk", vec![7; 350]);
        let root = commitment.update(&next, |name| name == "anonvm.disk");
        assert_eq!(root, archive_merkle_root(&next));
        assert_eq!(*DeltaArchive::diff(&prev, &next).root(), root);
        prev = next;

        // New record + removal: the shape-change path.
        let mut next = prev.clone();
        next.put("browser.state", b"cookies".to_vec());
        next.remove("meta");
        let root = commitment.update(&next, |name| name == "browser.state");
        assert_eq!(root, archive_merkle_root(&next));
        assert_eq!(*DeltaArchive::diff(&prev, &next).root(), root);

        // The commitment now reflects `next` and keeps chaining.
        let mut last = next.clone();
        last.put("commvm.disk", vec![3; 64]);
        let root = commitment.update(&last, |name| name == "commvm.disk");
        assert_eq!(root, archive_merkle_root(&last));
    }

    #[test]
    fn commitment_update_handles_reorder() {
        // Same name set, different record order: the shape check must
        // catch it (order is part of the commitment).
        let a = base();
        let mut commitment = ArchiveCommitment::build(&a);
        let mut reordered = NymArchive::new();
        let records: Vec<_> = a
            .records()
            .map(|(n, d)| (n.to_string(), d.to_vec()))
            .collect();
        for (name, data) in records.iter().rev() {
            reordered.put(name, data.clone());
        }
        let root = commitment.update(&reordered, |_| false);
        assert_eq!(root, archive_merkle_root(&reordered));
        assert_ne!(root, archive_merkle_root(&a));
    }
}
