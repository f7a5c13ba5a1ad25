//! The nym archive container.
//!
//! A [`NymArchive`] is what the Nym Manager produces when the user
//! selects *store nym* (§3.5): the AnonVM and CommVM writable layers
//! serialized, plus named records for anonymizer state (Tor guards) and
//! metadata. Binary format (all integers little-endian):
//!
//! ```text
//! full archive:  magic "NYM1" | record_count u32 | records...
//! record:        name_len u16 | name | data_len u64 | data
//! layer payload: entry_count u32 | entries...
//! entry:         path_len u16 | path | tag u8 (0=file,1=dir,2=whiteout) |
//!                data_len u64 | data (files only)
//! ```
//!
//! Layer entries come in strictly increasing path order, compared
//! component by component (`/a/z` before `/a-b`, though `-` sorts
//! before `/` as a byte), and the root is never encoded. A path's
//! missing ancestors, such as a directory removed while its children
//! stayed, decode as directories. A payload with a path out of order,
//! a path twice or a root entry is [`ArchiveError::Malformed`], so
//! decoding is one pass with no lookups.
//!
//! A save builds a layer payload by splicing ([`splice_layer`]): the
//! entries that have not changed since a cached payload of the same
//! layer are copied from it in runs, and only the changed entries and
//! the entry count are encoded. The spliced payload is byte-identical
//! to encoding every entry; when the cached payload's entries do not
//! add up to the layer's, every entry is encoded.
//!
//! Incremental snapshots ([`crate::delta::DeltaArchive`]) share the
//! record encoding under a different magic:
//!
//! ```text
//! delta archive: magic "NYMD" | full_record_count u32 |
//!                records_root [32]u8 | dirty_count u32 | records... |
//!                removed_count u32 | (name_len u16 | name)...
//! ```
//!
//! `records_root` commits to the **entire** record set of the full
//! archive the delta produces when applied: one SHA-256 over the tag
//! `"nymix:delta:records\0"`, `full_record_count` as u32 LE, then every
//! record in order in the record encoding above
//! ([`crate::delta::records_root`]). Restore replays base + deltas in
//! order and must reject the result whenever the recomputed root
//! differs — a tampered, reordered, or stale record set fails closed.
//! Chains are bounded: after [`crate::delta::DELTA_CHAIN_LIMIT`]
//! deltas the next save compacts back to a full "NYM1" archive.
//!
//! ## Chain object names
//!
//! One storage label's chain lives under names [`crate::chain`] builds
//! and parses:
//!
//! ```text
//! base:  {label}
//! delta: {label}#e{N}.{i}           i in 1..=DELTA_CHAIN_LIMIT
//! chunk: {label}#e{N}/c/{64 hex}    lowercase hex of the chunk id
//! epoch record: "snapshot.epoch" = N as u64 LE, a record of the base
//! ```
//!
//! `N` is the chain epoch in decimal. Every full save writes the base
//! with its epoch record and takes a fresh key; the deltas and chunks
//! of epoch `N` are sealed under that key with their full name as AEAD
//! data, so an object cannot be replayed under another name. A base
//! without the epoch record fails restore. Deltas fill slots in order,
//! so a present slot after an absent one means a delta was withheld,
//! and restore fails. A full save takes the epoch after the highest
//! one the destination lists under the label and sweeps every listed
//! delta and chunk. The parser accepts only the two suffixes above,
//! so no label's objects parse as another label's, even when one label
//! is a prefix of the other.
//!
//! Records at or above [`crate::cas::CHUNK_RECORD_THRESHOLD`] may hold
//! a **chunk manifest** ([`crate::cas::ChunkManifest`]) instead of the
//! payload itself — the *stored form* the incremental save pipeline
//! diffs and commits to:
//!
//! ```text
//! chunk manifest: magic "NYMC" | total_len u64 | chunk_count u32 |
//!                 (chunk_id [32]u8 | chunk_len u32)...
//! ```
//!
//! `chunk_id` is the domain-separated SHA-256 of the chunk's plaintext
//! (boundaries are content-defined; see [`crate::chunker`]); the chunks
//! themselves are sealed individually as `"{label}#e{epoch}/c/{id}"`
//! objects with that name bound as AEAD data. A manifest-bearing
//! record rides the NYM1/NYMD encodings unchanged — the records root
//! covers the manifest bytes, each fetched chunk is
//! verified against its ID, and restore resolves manifests back to
//! payload bytes after replay, failing closed on a missing, tampered,
//! or transplanted chunk. The parser enforces structural invariants
//! strictly (non-zero chunk count, each length in
//! `1..=`[`crate::chunker::MAX_CHUNK`], lengths summing to
//! `total_len`, no trailing bytes), so raw record bytes can
//! essentially never masquerade as a manifest — and if they somehow
//! did, resolution fails closed rather than restoring wrong state.
//!
//! ## Erasure shards (`NYMP`)
//!
//! When the destination is a multi-provider placement
//! ([`crate::placement::PlacementStore`]), no child backend holds a
//! whole object: each holds one **shard** — a fixed header binding the
//! shard to its object name, stripe position, and erasure geometry,
//! followed by `stripe_len = ceil(object_len / k)` payload bytes of
//! GF(256) Reed–Solomon stripe (`index < k`) or parity (`index ≥ k`):
//!
//! ```text
//! shard: magic "NYMP" | version u8 | index u8 | k u8 | n u8 |
//!        object_len u64 | shard_len u32 | object_hash [32]u8 |
//!        shard_hash [32]u8 | name_len u16 | name | payload
//! ```
//!
//! `object_hash` is the domain-separated SHA-256 of the whole original
//! object — the cross-shard consistency anchor: shards from different
//! object versions hash apart and can never mix into one decode.
//! `shard_hash` is a domain-separated SHA-256 over the name, geometry
//! (`index`, `k`, `n`), `object_len`, `object_hash`, and payload, so
//! *every* field a byzantine provider could forge is bound. The parser
//! ([`crate::placement::shard::decode_shard`]) verifies magic, version,
//! geometry bounds, exact lengths (`shard_len` must equal the stripe
//! width `(object_len, k)` determines — a header claiming otherwise is
//! lying about one of the two), the name binding, and the recomputed
//! `shard_hash`, all **before** the payload reaches the erasure
//! decoder. A shard failing any check contributes nothing: with at
//! least `k` verified shards of one version the object reconstructs
//! exactly; with fewer the read fails closed.
//!
//! ## On-disk persistence (`NYMJ` superblocks + `JBAT` frame log)
//!
//! The wire formats above describe *objects* — opaque blobs a backend
//! stores by name. When the backend is the crash-consistent disk store
//! ([`crate::disk`]), those objects live inside one append-only log of
//! `"JBAT"` batch frames, each carrying a truncated-SHA-256 checksum
//! over its body, under two alternating `"NYMJ"` superblock slots that say
//! how much of the log is committed. A put's bytes inside its frame
//! are the object's home. The byte layouts are specified in
//! [`crate::disk::log`], the commit protocol and recovery rules in the
//! [`crate::disk`] module docs, alongside the durability model in the
//! crate root. The containers are independent layers: a sealed NYM1
//! archive rides a frame unchanged, and recovery never needs to parse
//! the objects it indexes.
//!
//! ## Parsing hostile bytes
//!
//! [`NymArchive::from_bytes`] (and the delta parser) is the trust
//! boundary for bytes fetched from an untrusted cloud backend: every
//! length is bounds-checked with overflow-safe arithmetic, and
//! pre-allocations are clamped by the bytes actually remaining, so a
//! crafted header can neither panic (even with release-mode wrapping
//! arithmetic) nor reserve unbounded memory. Parsing either succeeds or
//! returns [`ArchiveError`] — never panics.

use nymix_fs::{Layer, LayerKind, Node, Path};

/// Longest serializable record name / layer path (the wire format's
/// length prefix is a `u16`).
pub const MAX_NAME_LEN: usize = u16::MAX as usize;

/// Errors from archive parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArchiveError {
    /// Bad magic or structural truncation.
    Malformed,
    /// Unknown node tag in a layer payload.
    BadTag(u8),
}

impl core::fmt::Display for ArchiveError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ArchiveError::Malformed => write!(f, "malformed nym archive"),
            ArchiveError::BadTag(t) => write!(f, "unknown layer node tag {t}"),
        }
    }
}

impl std::error::Error for ArchiveError {}

/// A named-record container for one nym's persistent state.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NymArchive {
    records: Vec<(String, Vec<u8>)>,
}

const MAGIC: &[u8; 4] = b"NYM1";

impl NymArchive {
    /// An empty archive.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds (or replaces) a named record.
    ///
    /// # Panics
    ///
    /// Panics if `name` is longer than [`MAX_NAME_LEN`] bytes: the wire
    /// format's `u16` length prefix would silently truncate it,
    /// producing an archive that mis-parses on restore. Rejecting the
    /// record at insertion keeps serialization infallible.
    pub fn put(&mut self, name: &str, data: Vec<u8>) {
        // lint:allow(panic-free-parser): serializer-side contract on caller-chosen names (documented under # Panics); wire bytes never reach this path
        assert!(
            name.len() <= MAX_NAME_LEN,
            "record name of {} bytes exceeds the u16 wire limit ({MAX_NAME_LEN})",
            name.len()
        );
        if let Some(slot) = self.records.iter_mut().find(|(n, _)| n == name) {
            slot.1 = data;
        } else {
            self.records.push((name.to_string(), data));
        }
    }

    /// Removes a record, returning its data if it existed.
    pub fn remove(&mut self, name: &str) -> Option<Vec<u8>> {
        let idx = self.records.iter().position(|(n, _)| n == name)?;
        Some(self.records.remove(idx).1)
    }

    /// Replaces a record's data **in place** — record order (which the
    /// records root and delta replay depend on) is preserved, and
    /// the previous bytes are returned without copying. Appends like
    /// [`NymArchive::put`] when the record doesn't exist.
    ///
    /// # Panics
    ///
    /// Panics if `name` exceeds [`MAX_NAME_LEN`] bytes (see
    /// [`NymArchive::put`]).
    pub fn replace(&mut self, name: &str, mut data: Vec<u8>) -> Option<Vec<u8>> {
        // lint:allow(panic-free-parser): serializer-side contract on caller-chosen names (documented under # Panics); wire bytes never reach this path
        assert!(
            name.len() <= MAX_NAME_LEN,
            "record name of {} bytes exceeds the u16 wire limit ({MAX_NAME_LEN})",
            name.len()
        );
        if let Some(slot) = self.records.iter_mut().find(|(n, _)| n == name) {
            core::mem::swap(&mut slot.1, &mut data);
            Some(data)
        } else {
            self.records.push((name.to_string(), data));
            None
        }
    }

    /// Iterates `(name, data)` records in insertion order.
    pub fn records(&self) -> impl Iterator<Item = (&str, &[u8])> {
        self.records.iter().map(|(n, d)| (n.as_str(), d.as_slice()))
    }

    /// Number of records held.
    pub fn record_count(&self) -> usize {
        self.records.len()
    }

    /// Fetches a record.
    pub fn get(&self, name: &str) -> Option<&[u8]> {
        self.records
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, d)| d.as_slice())
    }

    /// Record names in insertion order.
    pub fn names(&self) -> Vec<&str> {
        self.records.iter().map(|(n, _)| n.as_str()).collect()
    }

    /// Total payload bytes across records.
    pub fn payload_bytes(&self) -> usize {
        self.records.iter().map(|(_, d)| d.len()).sum()
    }

    /// Adds a serialized writable layer under `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` or any path in `layer` exceeds
    /// [`MAX_NAME_LEN`] bytes (see [`NymArchive::put`]).
    pub fn put_layer(&mut self, name: &str, layer: &Layer) {
        self.put(name, serialize_layer(layer));
    }

    /// Reconstructs a writable layer from record `name`.
    pub fn get_layer(&self, name: &str) -> Result<Layer, ArchiveError> {
        deserialize_layer(self.get(name).ok_or(ArchiveError::Malformed)?)
    }

    /// Exact byte length [`NymArchive::write_into`] will append — lets
    /// callers reserve once and serialize without reallocation.
    pub fn serialized_len(&self) -> usize {
        MAGIC.len()
            + 4
            + self
                .records
                .iter()
                .map(|(name, data)| 2 + name.len() + 8 + data.len())
                .sum::<usize>()
    }

    /// Serializes the archive by appending to `out`. With
    /// [`NymArchive::serialized_len`] bytes of spare capacity this
    /// performs no allocation — the sealing pipeline serializes straight
    /// into its reusable arena.
    pub fn write_into(&self, out: &mut Vec<u8>) {
        out.reserve(self.serialized_len());
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&len_u32(self.records.len()).to_le_bytes());
        for (name, data) in &self.records {
            write_record(out, name, data);
        }
    }

    /// Serializes the archive.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.serialized_len());
        self.write_into(&mut out);
        out
    }

    /// Parses a serialized archive. Never panics and never reserves
    /// more memory than the input could actually describe, no matter
    /// how hostile the bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ArchiveError> {
        let mut r = Reader::new(bytes);
        if r.take(4)? != MAGIC {
            return Err(ArchiveError::Malformed);
        }
        let count = r.u32()?;
        let mut records = Vec::with_capacity(clamp_count(count, r.remaining(), MIN_RECORD_LEN));
        for _ in 0..count {
            records.push(read_record(&mut r)?);
        }
        if !r.done() {
            return Err(ArchiveError::Malformed);
        }
        Ok(Self { records })
    }
}

/// The smallest possible serialized record: empty name (2-byte length)
/// plus empty data (8-byte length).
pub(crate) const MIN_RECORD_LEN: usize = 2 + 8;

/// Clamps an attacker-controlled element count to what `remaining`
/// input bytes could actually hold, so `Vec::with_capacity` on a
/// 12-byte blob claiming four billion records cannot reserve gigabytes.
/// Oversized counts still iterate — and fail on the first truncated
/// element — they just don't pre-allocate.
pub(crate) fn clamp_count(count: u32, remaining: usize, min_element_len: usize) -> usize {
    (count as usize).min(remaining / min_element_len.max(1))
}

/// Reads one `name_len u16 | name | data_len u64 | data` record.
pub(crate) fn read_record(r: &mut Reader<'_>) -> Result<(String, Vec<u8>), ArchiveError> {
    let name = read_name(r)?;
    let data_len = r.u64()?;
    let data_len = usize::try_from(data_len).map_err(|_| ArchiveError::Malformed)?;
    let data = r.take(data_len)?.to_vec();
    Ok((name, data))
}

/// Reads one `name_len u16 | name` length-prefixed UTF-8 name.
pub(crate) fn read_name(r: &mut Reader<'_>) -> Result<String, ArchiveError> {
    read_str(r).map(str::to_owned)
}

/// [`read_name`], borrowed from the input.
fn read_str<'a>(r: &mut Reader<'a>) -> Result<&'a str, ArchiveError> {
    let name_len = r.u16()? as usize;
    core::str::from_utf8(r.take(name_len)?).map_err(|_| ArchiveError::Malformed)
}

/// Serializer-side length to `u16`, checked instead of cast: callers
/// uphold the bound (`MAX_NAME_LEN` names), a breach saturates rather
/// than silently truncating into a length-prefix confusion.
pub(crate) fn len_u16(len: usize) -> u16 {
    debug_assert!(
        u16::try_from(len).is_ok(),
        "length {len} exceeds u16 wire field"
    );
    u16::try_from(len).unwrap_or(u16::MAX)
}

/// Serializer-side length to `u32`, checked instead of cast (see
/// [`len_u16`]).
pub(crate) fn len_u32(len: usize) -> u32 {
    debug_assert!(
        u32::try_from(len).is_ok(),
        "length {len} exceeds u32 wire field"
    );
    u32::try_from(len).unwrap_or(u32::MAX)
}

/// Appends one record in wire encoding. Caller guarantees
/// `name.len() <= MAX_NAME_LEN` (enforced by [`NymArchive::put`]).
pub(crate) fn write_record(out: &mut Vec<u8>, name: &str, data: &[u8]) {
    debug_assert!(name.len() <= MAX_NAME_LEN);
    out.extend_from_slice(&len_u16(name.len()).to_le_bytes());
    out.extend_from_slice(name.as_bytes());
    out.extend_from_slice(&(data.len() as u64).to_le_bytes());
    out.extend_from_slice(data);
}

/// Serializes `layer`'s entries (all but the root) as a layer payload:
/// [`splice_layer`] with no cached version, so every entry is encoded.
fn serialize_layer(layer: &Layer) -> Vec<u8> {
    splice_layer(layer, None, &mut Vec::new())
}

/// A byte run a spliced layer record copies from its cached previous
/// version: `new[at..at + len] == old[from..from + len]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CopiedRun {
    /// Offset of the run in the new record.
    pub at: usize,
    /// Offset of the run in the cached record.
    pub from: usize,
    /// Length of the run.
    pub len: usize,
}

/// The layer payload with no entries.
const EMPTY_LAYER: &[u8] = &[0; 4];

/// Builds `layer`'s record, byte for byte what serializing it whole
/// writes, from `prev`: a cached record of the same layer and the
/// [`Layer::generation`] that record serialized. Every entry that
/// changed after that generation ([`Layer::entries_since`]) is encoded
/// and the cached entry at its path dropped, so is every cached entry at
/// a path removed since ([`Layer::removed_since`]), and the runs of
/// cached entries between them are copied whole. `runs` receives the
/// copied runs in record order.
///
/// `prev` must be a record of this layer as of that generation: one
/// this function wrote, or one the layer was decoded from. The splice
/// trusts the generations, as a save trusts an unchanged
/// [`Layer::generation`] to mean an unchanged layer. With no `prev`, or
/// a cached record whose entries do not add up to the layer's entry
/// count, every entry is encoded. Either way the record returned is
/// one allocation of its exact size.
///
/// # Panics
///
/// Panics if a path in `layer` exceeds [`MAX_NAME_LEN`] bytes (see
/// [`NymArchive::put`]).
pub fn splice_layer(
    layer: &Layer,
    prev: Option<(&[u8], u64)>,
    runs: &mut Vec<CopiedRun>,
) -> Vec<u8> {
    if let Some((cached, gen)) = prev {
        let dirty = layer.entries_since(gen);
        let (out, whole) = splice(layer, cached, dirty, layer.removed_since(gen), runs);
        if whole {
            return out;
        }
    }
    let removed = core::iter::empty();
    splice(layer, EMPTY_LAYER, layer.entries(), removed, runs).0
}

/// [`splice_layer`] over the entries `dirty` yields and the paths in
/// `removed`, both in path order. Also returns whether the record holds
/// exactly the layer's entries: a `cached` record not of this layer, or
/// not in the layer payload format, may leave it short or long.
fn splice<'a>(
    layer: &'a Layer,
    cached: &[u8],
    dirty: impl Iterator<Item = (&'a Path, &'a Node)>,
    removed: impl Iterator<Item = &'a Path>,
    runs: &mut Vec<CopiedRun>,
) -> (Vec<u8>, bool) {
    runs.clear();
    let mut len = 4usize;
    for (path, node) in layer.entries().filter(|(p, _)| !p.is_root()) {
        let path_len = encoded_path_len(path);
        // lint:allow(panic-free-parser): serializer-side contract on locally built paths, not wire input; fs layer caps component lengths
        assert!(
            path_len <= MAX_NAME_LEN,
            "layer path of {path_len} bytes exceeds the u16 wire limit ({MAX_NAME_LEN})"
        );
        len += 2 + path_len + 1 + node_data_len(node);
    }
    let count = layer.node_count();
    let mut out = Vec::with_capacity(len);
    out.extend_from_slice(&len_u32(count).to_le_bytes());
    let mut old = CachedEntries::new(cached);
    let mut written = 0usize;
    let dirty = dirty.filter(|(p, _)| !p.is_root());
    let (mut dirty, mut removed) = (dirty.peekable(), removed.peekable());
    loop {
        let event = match (dirty.peek(), removed.peek()) {
            (Some(&(d, _)), Some(&r)) if r < d => removed.next().map(|r| (r, None)),
            (Some(_), _) => dirty.next().map(|(d, node)| (d, Some(node))),
            (None, _) => removed.next().map(|r| (r, None)),
        };
        let Some((path, node)) = event else { break };
        written += old.copy_until(path, &mut out, runs);
        if let Some(node) = node {
            write_entry(&mut out, path, node);
            written += 1;
        }
    }
    written += old.copy_rest(&mut out, runs);
    let whole = old.parsed && written == count;
    debug_assert!(
        !whole || out.len() == len,
        "a whole record is its sized length"
    );
    (out, whole)
}

/// Bytes a layer entry's node adds after its tag: the data length and
/// the data, for a file.
fn node_data_len(node: &Node) -> usize {
    match node {
        Node::File(data) => 8 + data.len(),
        Node::Dir | Node::Whiteout => 0,
    }
}

/// Appends one layer entry in wire encoding.
fn write_entry(out: &mut Vec<u8>, path: &Path, node: &Node) {
    out.extend_from_slice(&len_u16(encoded_path_len(path)).to_le_bytes());
    for component in path.components() {
        out.push(b'/');
        out.extend_from_slice(component.as_bytes());
    }
    match node {
        Node::File(data) => {
            out.push(0);
            out.extend_from_slice(&(data.len() as u64).to_le_bytes());
            out.extend_from_slice(data);
        }
        Node::Dir => out.push(1),
        Node::Whiteout => out.push(2),
    }
}

/// A cursor over a cached layer record's entries, found by scanning
/// their headers, which copies the runs of entries a splice keeps.
struct CachedEntries<'c> {
    bytes: &'c [u8],
    /// Start of the next unscanned entry.
    pos: usize,
    /// Start of the run of kept entries not yet copied.
    run: usize,
    /// Whether every entry scanned so far parsed.
    parsed: bool,
}

impl<'c> CachedEntries<'c> {
    fn new(bytes: &'c [u8]) -> Self {
        let start = 4.min(bytes.len());
        Self {
            bytes,
            pos: start,
            run: start,
            parsed: bytes.len() >= 4,
        }
    }

    /// The next entry's path bytes and end offset, or `None` at the end
    /// of the record or at an entry that does not parse.
    fn peek(&mut self) -> Option<(&'c [u8], usize)> {
        let rest = self.bytes.get(self.pos..).filter(|r| !r.is_empty())?;
        let mut r = Reader::new(rest);
        let entry = (|| {
            let path_len = r.u16()? as usize;
            let path = r.take(path_len)?;
            match r.u8()? {
                0 => {
                    let len = usize::try_from(r.u64()?).map_err(|_| ArchiveError::Malformed)?;
                    r.take(len)?;
                }
                1 | 2 => {}
                t => return Err(ArchiveError::BadTag(t)),
            }
            Ok(path)
        })();
        match entry {
            Ok(path) => Some((path, self.pos + rest.len() - r.remaining())),
            Err(_) => {
                self.parsed = false;
                None
            }
        }
    }

    /// Keeps every entry whose path sorts before `path` and drops the
    /// one at `path`, copying the kept run into `out`. Returns the
    /// entries kept.
    fn copy_until(&mut self, path: &Path, out: &mut Vec<u8>, runs: &mut Vec<CopiedRun>) -> usize {
        let mut kept = 0;
        while let Some((at, end)) = self.peek() {
            match cmp_encoded(at, path) {
                core::cmp::Ordering::Less => {
                    self.pos = end;
                    kept += 1;
                }
                core::cmp::Ordering::Equal => {
                    self.flush(out, runs);
                    self.pos = end;
                    self.run = end;
                    break;
                }
                core::cmp::Ordering::Greater => break,
            }
        }
        self.flush(out, runs);
        kept
    }

    /// Keeps every remaining entry. Returns the entries kept.
    fn copy_rest(&mut self, out: &mut Vec<u8>, runs: &mut Vec<CopiedRun>) -> usize {
        let mut kept = 0;
        while let Some((_, end)) = self.peek() {
            self.pos = end;
            kept += 1;
        }
        self.flush(out, runs);
        kept
    }

    /// Copies the pending run of kept entries into `out`.
    fn flush(&mut self, out: &mut Vec<u8>, runs: &mut Vec<CopiedRun>) {
        if self.pos > self.run {
            runs.push(CopiedRun {
                at: out.len(),
                from: self.run,
                len: self.pos - self.run,
            });
            out.extend_from_slice(&self.bytes[self.run..self.pos]);
        }
        self.run = self.pos;
    }
}

/// Orders an encoded path (`/c1/c2/...`) against `path` component by
/// component, the order layer entries are stored in.
fn cmp_encoded(encoded: &[u8], path: &Path) -> core::cmp::Ordering {
    let mut components = encoded.split(|&b| b == b'/');
    components.next(); // The empty part before the leading `/`.
    components.cmp(path.components().iter().map(String::as_bytes))
}

/// Byte length of a non-root path's wire form, `/c1/c2/...` (what its
/// `Display` prints).
fn encoded_path_len(path: &Path) -> usize {
    path.components().iter().map(|c| 1 + c.len()).sum()
}

/// The smallest possible serialized layer entry: empty path (2-byte
/// length) plus its tag.
const MIN_ENTRY_LEN: usize = 2 + 1;

/// Parses a layer payload (a [`NymArchive::put_layer`] record) in one
/// pass: the entries are read in stream order, then
/// [`Layer::from_sorted_entries`] builds the layer, which refuses a
/// root entry or a path out of order as [`ArchiveError::Malformed`].
pub fn deserialize_layer(bytes: &[u8]) -> Result<Layer, ArchiveError> {
    let mut r = Reader::new(bytes);
    let count = r.u32()?;
    let mut entries = Vec::with_capacity(clamp_count(count, r.remaining(), MIN_ENTRY_LEN));
    for _ in 0..count {
        let path = Path::new(read_str(&mut r)?);
        let node = match r.u8()? {
            0 => {
                let len = r.u64()?;
                let len = usize::try_from(len).map_err(|_| ArchiveError::Malformed)?;
                Node::File(r.take(len)?.to_vec())
            }
            1 => Node::Dir,
            2 => Node::Whiteout,
            t => return Err(ArchiveError::BadTag(t)),
        };
        entries.push((path, node));
    }
    if !r.done() {
        return Err(ArchiveError::Malformed);
    }
    Layer::from_sorted_entries(LayerKind::Writable, entries).ok_or(ArchiveError::Malformed)
}

/// Bounds-checked cursor over untrusted input. All arithmetic is
/// overflow-safe: a crafted length near `u64::MAX` used to wrap
/// `pos + n` in release builds (overflow checks off) and panic on the
/// slice; `checked_add` turns every such input into `Malformed`.
pub(crate) struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], ArchiveError> {
        let end = self.pos.checked_add(n).ok_or(ArchiveError::Malformed)?;
        if end > self.bytes.len() {
            return Err(ArchiveError::Malformed);
        }
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    pub(crate) fn take_array<const N: usize>(&mut self) -> Result<[u8; N], ArchiveError> {
        self.take(N)?
            .try_into()
            .map_err(|_| ArchiveError::Malformed)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, ArchiveError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u16(&mut self) -> Result<u16, ArchiveError> {
        Ok(u16::from_le_bytes(self.take_array()?))
    }

    pub(crate) fn u32(&mut self) -> Result<u32, ArchiveError> {
        Ok(u32::from_le_bytes(self.take_array()?))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, ArchiveError> {
        Ok(u64::from_le_bytes(self.take_array()?))
    }

    /// Unconsumed bytes left in the input.
    pub(crate) fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    pub(crate) fn done(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_layer() -> Layer {
        let mut l = Layer::new(LayerKind::Writable);
        l.put_file(
            Path::new("/home/user/.config/chromium/cookies"),
            vec![9; 500],
        );
        l.put_file(Path::new("/home/user/bookmarks"), b"tor blog".to_vec());
        l.put_dir(Path::new("/home/user/cache"));
        l.put_whiteout(Path::new("/etc/motd"));
        l
    }

    #[test]
    fn record_roundtrip() {
        let mut a = NymArchive::new();
        a.put("meta", b"nym=alice".to_vec());
        a.put("tor.state", vec![1, 2, 3]);
        a.put("meta", b"nym=alice-v2".to_vec()); // replace
        let bytes = a.to_bytes();
        let b = NymArchive::from_bytes(&bytes).unwrap();
        assert_eq!(a, b);
        assert_eq!(b.get("meta").unwrap(), b"nym=alice-v2");
        assert_eq!(b.names(), vec!["meta", "tor.state"]);
        assert_eq!(b.get("missing"), None);
    }

    #[test]
    fn layer_roundtrip_preserves_everything() {
        let layer = sample_layer();
        let mut a = NymArchive::new();
        a.put_layer("anonvm.disk", &layer);
        let bytes = a.to_bytes();
        let restored = NymArchive::from_bytes(&bytes)
            .unwrap()
            .get_layer("anonvm.disk")
            .unwrap();
        // Compare every entry.
        let orig: Vec<_> = layer.entries().collect();
        let back: Vec<_> = restored.entries().collect();
        assert_eq!(orig.len(), back.len());
        for ((p1, n1), (p2, n2)) in orig.iter().zip(back.iter()) {
            assert_eq!(p1, p2);
            assert_eq!(n1, n2);
        }
    }

    #[test]
    fn layer_payload_bytes_are_pinned() {
        // Nested dirs, a file, a whiteout and a multi-byte UTF-8 name,
        // in path order; the root never appears.
        let mut layer = Layer::new(LayerKind::Writable);
        layer.put_whiteout(Path::new("/w"));
        layer.put_file(Path::new("/a/é☕"), vec![0x00, 0xff]);
        layer.put_file(Path::new("/a/b/f"), b"hi".to_vec());
        layer.put_dir(Path::new("/a/b"));
        layer.put_dir(Path::new("/a"));
        let expected = [
            &b"\x05\0\0\0"[..],
            b"\x02\0/a\x01",
            b"\x04\0/a/b\x01",
            b"\x06\0/a/b/f\x00\x02\0\0\0\0\0\0\0hi",
            b"\x08\0/a/\xc3\xa9\xe2\x98\x95\x00\x02\0\0\0\0\0\0\0\x00\xff",
            b"\x02\0/w\x02",
        ]
        .concat();
        let mut a = NymArchive::new();
        a.put_layer("layer", &layer);
        assert_eq!(a.get("layer"), Some(&expected[..]));
        assert_eq!(a.get_layer("layer"), Ok(layer));
    }

    #[test]
    fn truncation_rejected() {
        let mut a = NymArchive::new();
        a.put("x", vec![0u8; 100]);
        let bytes = a.to_bytes();
        for cut in [0usize, 3, 4, 8, 10, bytes.len() - 1] {
            assert!(NymArchive::from_bytes(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut a = NymArchive::new();
        a.put("x", vec![1]);
        let mut bytes = a.to_bytes();
        bytes.push(0);
        assert_eq!(NymArchive::from_bytes(&bytes), Err(ArchiveError::Malformed));
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = NymArchive::new().to_bytes();
        bytes[0] ^= 1;
        assert_eq!(NymArchive::from_bytes(&bytes), Err(ArchiveError::Malformed));
    }

    #[test]
    fn bad_layer_tag_rejected() {
        let mut payload = Vec::new();
        payload.extend_from_slice(&1u32.to_le_bytes());
        payload.extend_from_slice(&2u16.to_le_bytes());
        payload.extend_from_slice(b"/x");
        payload.push(7); // bad tag
        let mut a = NymArchive::new();
        a.put("layer", payload);
        assert!(matches!(a.get_layer("layer"), Err(ArchiveError::BadTag(7))));
        assert!(matches!(
            a.get_layer("missing"),
            Err(ArchiveError::Malformed)
        ));
    }

    /// The `Reader::take` overflow regression: a record whose
    /// `data_len` is near `u64::MAX` used to wrap `pos + n` in release
    /// builds and panic on the slice. It must parse to `Malformed` in
    /// both profiles.
    #[test]
    fn hostile_lengths_rejected_without_panic() {
        for data_len in [
            u64::MAX,
            u64::MAX - 7,
            u64::MAX / 2,
            usize::MAX as u64,
            (usize::MAX as u64).wrapping_add(1),
            1 << 48,
        ] {
            let mut bytes = Vec::new();
            bytes.extend_from_slice(MAGIC);
            bytes.extend_from_slice(&1u32.to_le_bytes());
            bytes.extend_from_slice(&1u16.to_le_bytes());
            bytes.push(b'x');
            bytes.extend_from_slice(&data_len.to_le_bytes());
            bytes.extend_from_slice(&[0u8; 16]); // some trailing bytes
            assert_eq!(
                NymArchive::from_bytes(&bytes),
                Err(ArchiveError::Malformed),
                "data_len {data_len:#x}"
            );
        }
        // Same hostile length inside a layer payload (file entry).
        let mut payload = Vec::new();
        payload.extend_from_slice(&1u32.to_le_bytes());
        payload.extend_from_slice(&2u16.to_le_bytes());
        payload.extend_from_slice(b"/f");
        payload.push(0); // file tag
        payload.extend_from_slice(&u64::MAX.to_le_bytes());
        let mut a = NymArchive::new();
        a.put("layer", payload);
        assert!(matches!(a.get_layer("layer"), Err(ArchiveError::Malformed)));
    }

    /// A 12-byte blob claiming u32::MAX records must fail fast without
    /// reserving gigabytes up front.
    #[test]
    fn huge_record_count_does_not_over_reserve() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 4]);
        assert_eq!(NymArchive::from_bytes(&bytes), Err(ArchiveError::Malformed));
        // The clamp itself: tiny remainder => tiny reservation.
        assert_eq!(clamp_count(u32::MAX, 4, MIN_RECORD_LEN), 0);
        assert_eq!(clamp_count(u32::MAX, 1024, MIN_RECORD_LEN), 1024 / 10);
        assert_eq!(clamp_count(3, 1024, MIN_RECORD_LEN), 3);
    }

    /// A layer payload of `(path, tag)` entries; files are empty.
    fn layer_payload(entries: &[(&str, u8)]) -> Vec<u8> {
        let mut payload = len_u32(entries.len()).to_le_bytes().to_vec();
        for (path, tag) in entries {
            payload.extend_from_slice(&len_u16(path.len()).to_le_bytes());
            payload.extend_from_slice(path.as_bytes());
            payload.push(*tag);
            if *tag == 0 {
                payload.extend_from_slice(&0u64.to_le_bytes());
            }
        }
        payload
    }

    #[test]
    fn layer_missing_ancestors_decode_as_dirs() {
        // `/a/b` was removed while `/a/b/c` stayed; `/a` was never
        // encoded. Both come back as directories of the entry that
        // needs them, as a `put_*` replay creates them.
        let layer = deserialize_layer(&layer_payload(&[("/a/b/c", 0), ("/a/d", 2)])).unwrap();
        assert_eq!(layer.get(&Path::new("/a")), Some(&Node::Dir));
        assert_eq!(layer.get(&Path::new("/a/b")), Some(&Node::Dir));
        assert_eq!(layer.entry_generation(&Path::new("/a")), Some(1));
        assert_eq!(layer.entry_generation(&Path::new("/a/b")), Some(1));
        assert_eq!(layer.entry_generation(&Path::new("/a/d")), Some(2));
        assert_eq!(layer.generation(), 2);
        assert_eq!(layer.node_count(), 4);
        // An encoded file keeps its node even with entries beneath it.
        let layer = deserialize_layer(&layer_payload(&[("/f", 0), ("/f/g", 1)])).unwrap();
        assert_eq!(layer.get(&Path::new("/f")), Some(&Node::File(Vec::new())));
    }

    #[test]
    fn layer_order_is_component_wise() {
        // `/a/z` < `/a-b` by component, though `-` < `/` by byte.
        assert!(deserialize_layer(&layer_payload(&[("/a/z", 1), ("/a-b", 1)])).is_ok());
        assert_eq!(
            deserialize_layer(&layer_payload(&[("/a-b", 1), ("/a/z", 1)])),
            Err(ArchiveError::Malformed)
        );
    }

    #[test]
    fn unsorted_layer_payload_rejected() {
        for entries in [
            &[("/b", 1), ("/a", 1)][..],
            &[("/a/b", 0), ("/a", 1)],
            &[("/a", 1), ("/c", 0), ("/b/x", 0)],
        ] {
            assert_eq!(
                deserialize_layer(&layer_payload(entries)),
                Err(ArchiveError::Malformed),
                "{entries:?}"
            );
        }
    }

    #[test]
    fn duplicate_layer_path_rejected() {
        for entries in [
            &[("/a", 1), ("/a", 1)][..],
            &[("/a", 0), ("/a", 2)],
            // Equal once normalized.
            &[("/a/b", 0), ("/a/./b", 0)],
            &[("/a/b", 0), ("/a//b", 1)],
        ] {
            assert_eq!(
                deserialize_layer(&layer_payload(entries)),
                Err(ArchiveError::Malformed),
                "{entries:?}"
            );
        }
    }

    #[test]
    fn root_layer_entry_rejected() {
        for entries in [
            &[("/", 1)][..],
            &[("", 1)],
            &[("/a", 1), ("/", 1)],
            &[("/..", 0)],
        ] {
            assert_eq!(
                deserialize_layer(&layer_payload(entries)),
                Err(ArchiveError::Malformed),
                "{entries:?}"
            );
        }
    }

    /// A 4-byte layer payload claiming u32::MAX entries must fail
    /// fast without reserving for them.
    #[test]
    fn huge_layer_entry_count_does_not_over_reserve() {
        let mut payload = u32::MAX.to_le_bytes().to_vec();
        payload.extend_from_slice(&[0u8; 4]);
        assert_eq!(deserialize_layer(&payload), Err(ArchiveError::Malformed));
        assert_eq!(clamp_count(u32::MAX, 4, MIN_ENTRY_LEN), 1);
        assert_eq!(clamp_count(u32::MAX, 1024, MIN_ENTRY_LEN), 1024 / 3);
        assert_eq!(clamp_count(3, 1024, MIN_ENTRY_LEN), 3);
    }

    #[test]
    fn name_at_u16_boundary_roundtrips() {
        let name = "n".repeat(MAX_NAME_LEN);
        let mut a = NymArchive::new();
        a.put(&name, b"edge".to_vec());
        let b = NymArchive::from_bytes(&a.to_bytes()).unwrap();
        assert_eq!(b.get(&name).unwrap(), b"edge");
    }

    #[test]
    #[should_panic(expected = "exceeds the u16 wire limit")]
    fn over_long_record_name_rejected_at_put() {
        let name = "n".repeat(MAX_NAME_LEN + 1);
        NymArchive::new().put(&name, Vec::new());
    }

    #[test]
    #[should_panic(expected = "exceeds the u16 wire limit")]
    fn over_long_layer_path_rejected_at_serialize() {
        let mut layer = Layer::new(LayerKind::Writable);
        let long = format!("/{}", "p".repeat(MAX_NAME_LEN + 1));
        layer.put_file(Path::new(&long), vec![1]);
        let mut a = NymArchive::new();
        a.put_layer("layer", &layer);
    }

    #[test]
    fn layer_path_at_u16_boundary_roundtrips() {
        // "/" + 65534 chars = exactly 65535 bytes once normalized.
        let path = format!("/{}", "p".repeat(MAX_NAME_LEN - 1));
        let mut layer = Layer::new(LayerKind::Writable);
        layer.put_file(Path::new(&path), b"deep".to_vec());
        let mut a = NymArchive::new();
        a.put_layer("layer", &layer);
        let restored = NymArchive::from_bytes(&a.to_bytes())
            .unwrap()
            .get_layer("layer")
            .unwrap();
        assert_eq!(
            restored.get(&Path::new(&path)),
            Some(&Node::File(b"deep".to_vec()))
        );
    }

    #[test]
    fn record_remove_and_iteration() {
        let mut a = NymArchive::new();
        a.put("a", vec![1]);
        a.put("b", vec![2]);
        assert_eq!(a.record_count(), 2);
        assert_eq!(a.remove("a"), Some(vec![1]));
        assert_eq!(a.remove("a"), None);
        let records: Vec<_> = a.records().collect();
        assert_eq!(records, vec![("b", &[2u8][..])]);
    }

    #[test]
    fn replace_preserves_record_order() {
        let mut a = NymArchive::new();
        a.put("a", vec![1]);
        a.put("b", vec![2]);
        a.put("c", vec![3]);
        // Swapping the middle record's data must not move it: the
        // records root and delta replay both walk record order.
        assert_eq!(a.replace("b", vec![9, 9]), Some(vec![2]));
        assert_eq!(a.names(), vec!["a", "b", "c"]);
        assert_eq!(a.get("b"), Some(&[9u8, 9][..]));
        // Absent records append, like put.
        assert_eq!(a.replace("d", vec![4]), None);
        assert_eq!(a.names(), vec!["a", "b", "c", "d"]);
    }

    #[test]
    fn payload_accounting() {
        let mut a = NymArchive::new();
        a.put("a", vec![0; 10]);
        a.put("b", vec![0; 32]);
        assert_eq!(a.payload_bytes(), 42);
    }

    #[test]
    fn write_into_appends_exactly_serialized_len() {
        let mut a = NymArchive::new();
        a.put("meta", b"nym=alice".to_vec());
        a.put_layer("anonvm.disk", &sample_layer());
        let mut out = b"prefix".to_vec();
        a.write_into(&mut out);
        assert_eq!(out.len(), 6 + a.serialized_len());
        assert_eq!(&out[..6], b"prefix");
        assert_eq!(NymArchive::from_bytes(&out[6..]).unwrap(), a);
        assert_eq!(a.to_bytes().len(), a.serialized_len());
    }
}
