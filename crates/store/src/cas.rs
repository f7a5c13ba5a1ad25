//! Content-addressed chunk store.
//!
//! Record-granular deltas ([`crate::delta`]) stop paying off once one
//! record dominates the archive: any AnonVM write dirties the whole
//! `anonvm.disk` record (~85% of a nym's payload), so every browser
//! session re-ships tens of kilobytes for a 4 KiB write. This module
//! splits large records into content-defined chunks
//! ([`crate::chunker`]), names each chunk by its content hash, and
//! ships only the chunks a save actually changed:
//!
//! * A **chunk ID** is the domain-separated SHA-256 of the chunk's
//!   plaintext, hashed where the chunker cuts it. Given a record's
//!   previous raw bytes and manifest ([`PrevChunks`]),
//!   [`build_manifest`] reuses the id of every chunk a `memcmp` proves
//!   unchanged, so a save hashes only the chunks an edit touched, and
//!   runs the chunker only from an edit until its cuts resync with the
//!   previous ones.
//! * A **chunk manifest** ([`ChunkManifest`], magic `"NYMC"`) replaces
//!   the record's bytes inside the archive: the record's total length
//!   plus the ordered `(chunk ID, length)` list. Manifests ride the
//!   ordinary NYMD delta path, so the delta's records root covers
//!   them and replay fails closed on any tampering.
//! * The **chunk index** ([`ChunkIndex`]) is the set of chunks the
//!   live manifests reference; [`seal_new_chunks_into`] skips every
//!   chunk already in it (dedup across versions and across records),
//!   and [`ChunkIndex::mark_and_sweep`] returns the chunks no live
//!   manifest mentions any more, for the caller to delete.
//! * Chunks are sealed individually ([`Sealable::Chunk`], entropy-gated)
//!   under the chain-epoch [`SealKey`] with their storage name — which
//!   embeds the chunk ID and the chain's label — bound as AEAD
//!   associated data, so a backend cannot transplant a chunk between
//!   nyms, epochs, or IDs undetected. [`fetch_record_into`]
//!   additionally re-hashes every fetched chunk against the manifest
//!   entry before use.
//!
//! Chunk objects live on any [`ObjectBackend`] beside the sealed
//! archive blobs, named `"{prefix}/c/{hex(chunk_id)}"`.
//!
//! Like the archive and delta parsers, [`ChunkManifest::from_bytes`]
//! treats its input as hostile: bounds-checked reads, pre-allocation
//! clamped by the bytes present, structural invariants (chunk lengths
//! in range, lengths summing to the committed total) enforced — it
//! parses or errors, never panics.

use nymix_crypto::Sha256;
use nymix_sim::Rng;

use crate::archive::{clamp_count, len_u32, ArchiveError, CopiedRun, Reader};
use crate::backend::{BackendError, ObjectBackend};
use crate::chunker::{self, MAX_CHUNK};
use crate::sealed::{seal_into, unseal_into, SealKey, SealScratch, Sealable, SealedError};

/// A 32-byte content address: the domain-separated SHA-256 of a
/// chunk's plaintext.
pub type ChunkId = [u8; 32];

/// Records at or above this size are stored as chunk manifests by the
/// incremental save path; smaller records ride the NYMD delta whole
/// (a manifest plus per-chunk seal overhead would not pay for itself).
pub const CHUNK_RECORD_THRESHOLD: usize = 32 * 1024;

/// Domain-separation prefix for chunk IDs, so a chunk hash can never
/// collide with a delta's records root or any other SHA-256 use in the
/// system.
const CHUNK_TAG: &[u8] = b"nymix:cas:chunk\x00";

const MAGIC: &[u8; 4] = b"NYMC";

/// Serialized size of one manifest entry: `id [32] | len u32`.
const ENTRY_LEN: usize = 32 + 4;

/// Errors from chunk storage and retrieval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CasError {
    /// The object backend failed.
    Backend(BackendError),
    /// A chunk object the manifest references is gone — garbage
    /// collected away, withheld by the provider, or never uploaded.
    MissingChunk,
    /// A chunk blob failed authentication or decompression (tampered
    /// ciphertext, or a chunk served under another chunk's name).
    ChunkSeal(SealedError),
    /// A chunk decrypted fine but its plaintext doesn't match the
    /// manifest's ID or length.
    ChunkMismatch,
}

impl core::fmt::Display for CasError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CasError::Backend(e) => write!(f, "chunk backend: {e}"),
            CasError::MissingChunk => write!(f, "chunk object missing from backend"),
            CasError::ChunkSeal(e) => write!(f, "chunk unseal failed: {e}"),
            CasError::ChunkMismatch => write!(f, "chunk plaintext mismatches manifest"),
        }
    }
}

impl std::error::Error for CasError {}

impl From<BackendError> for CasError {
    fn from(e: BackendError) -> Self {
        CasError::Backend(e)
    }
}

/// The content address of `data`.
fn chunk_id(data: &[u8]) -> ChunkId {
    let mut h = Sha256::new();
    h.update(CHUNK_TAG);
    h.update(data);
    h.finalize()
}

/// Storage object name of chunk `id` under a chain's `prefix` (the
/// chain label plus epoch, e.g. `"nym:alice@disk#e3"`). The name is
/// also the AEAD label the chunk is sealed under, binding chain, epoch
/// and chunk ID into the ciphertext.
pub fn chunk_object_name(prefix: &str, id: &ChunkId) -> String {
    let mut name = String::with_capacity(prefix.len() + 3 + 64);
    name.push_str(prefix);
    name.push_str("/c/");
    for byte in id {
        const HEX: &[u8; 16] = b"0123456789abcdef";
        name.push(HEX[(byte >> 4) as usize] as char);
        name.push(HEX[(byte & 0xF) as usize] as char);
    }
    name
}

/// One record's content expressed as an ordered list of content-
/// addressed chunks. Wire format (little-endian):
///
/// ```text
/// magic "NYMC" | total_len u64 | chunk_count u32 |
/// (chunk_id [32]u8 | chunk_len u32)...
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChunkManifest {
    total_len: u64,
    entries: Vec<(ChunkId, u32)>,
}

impl ChunkManifest {
    /// Chunks `data` and builds its manifest: [`build_manifest`] with
    /// no previous version to reuse ids from.
    pub fn build(data: &[u8]) -> Self {
        let mut out = Self::default();
        build_manifest(data, None, &mut ManifestScratch::default(), &mut out);
        out
    }

    /// Total plaintext bytes the manifest describes.
    pub fn total_len(&self) -> usize {
        self.total_len as usize
    }

    /// `(chunk ID, plaintext length)` entries in record order.
    pub fn chunks(&self) -> impl Iterator<Item = (&ChunkId, usize)> {
        self.entries.iter().map(|(id, len)| (id, *len as usize))
    }

    /// Exact byte length [`ChunkManifest::write_into`] will append.
    pub fn serialized_len(&self) -> usize {
        MAGIC.len() + 8 + 4 + self.entries.len() * ENTRY_LEN
    }

    /// Serializes the manifest by appending to `out`.
    pub fn write_into(&self, out: &mut Vec<u8>) {
        out.reserve(self.serialized_len());
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&self.total_len.to_le_bytes());
        out.extend_from_slice(&len_u32(self.entries.len()).to_le_bytes());
        for (id, len) in &self.entries {
            out.extend_from_slice(id);
            out.extend_from_slice(&len.to_le_bytes());
        }
    }

    /// Serializes the manifest.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.serialized_len());
        self.write_into(&mut out);
        out
    }

    /// Parses a serialized manifest, enforcing every structural
    /// invariant [`ChunkManifest::build`] guarantees: at least one
    /// chunk, each length in `1..=`[`MAX_CHUNK`], lengths summing to
    /// the committed total, no trailing bytes. The strictness doubles
    /// as collision armor — a record whose raw bytes accidentally
    /// start with `"NYMC"` will virtually never satisfy all of it, so
    /// manifest detection on restore cannot misfire silently (and the
    /// delta's records root fails closed regardless). Never
    /// panics and never over-reserves.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ArchiveError> {
        let mut r = Reader::new(bytes);
        if r.take(4)? != MAGIC {
            return Err(ArchiveError::Malformed);
        }
        let total_len = r.u64()?;
        let count = r.u32()?;
        let mut entries = Vec::with_capacity(clamp_count(count, r.remaining(), ENTRY_LEN));
        let mut sum: u64 = 0;
        for _ in 0..count {
            let id: ChunkId = r.take_array()?;
            let len = r.u32()?;
            if len == 0 || len as usize > MAX_CHUNK {
                return Err(ArchiveError::Malformed);
            }
            sum = sum.checked_add(len as u64).ok_or(ArchiveError::Malformed)?;
            entries.push((id, len));
        }
        if entries.is_empty() || sum != total_len || !r.done() {
            return Err(ArchiveError::Malformed);
        }
        Ok(Self { total_len, entries })
    }
}

/// The set of chunks the live manifests of one chain epoch reference:
/// what a save may skip uploading, and what a retiring epoch's sweep
/// must delete.
#[derive(Debug, Clone, Default)]
pub struct ChunkIndex {
    ids: std::collections::BTreeSet<ChunkId>,
}

impl ChunkIndex {
    /// An empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Iterates every referenced chunk ID (the epoch's live object
    /// set — what a retiring epoch's sweep must delete).
    pub fn ids(&self) -> impl Iterator<Item = &ChunkId> {
        self.ids.iter()
    }

    /// Adds `id`; returns `true` when the chunk is new to the index
    /// (i.e. its object must be uploaded).
    pub fn retain(&mut self, id: &ChunkId) -> bool {
        self.ids.insert(*id)
    }

    /// Adds every chunk of `manifest`.
    pub fn retain_manifest(&mut self, manifest: &ChunkManifest) {
        for (id, _) in manifest.chunks() {
            self.retain(id);
        }
    }

    /// Mark-and-sweep over the full live set: rebuilds the index from
    /// `live` manifests and returns every previously-referenced chunk
    /// no live manifest mentions — the sweep list a caller deletes from
    /// the backend.
    pub fn mark_and_sweep<'a>(
        &mut self,
        live: impl IntoIterator<Item = &'a ChunkManifest>,
    ) -> Vec<ChunkId> {
        let mut marked = Self::new();
        for manifest in live {
            marked.retain_manifest(manifest);
        }
        let dead = self.ids.difference(&marked.ids).copied().collect();
        *self = marked;
        dead
    }
}

/// A record's previous version: the proof material [`build_manifest`]
/// reuses chunk ids from.
#[derive(Debug, Clone, Copy)]
pub struct PrevChunks<'a> {
    /// The previous raw bytes.
    pub raw: &'a [u8],
    /// The manifest of `raw`. Its ids must be the true chunk ids of
    /// those bytes, and its cuts the chunker's cuts of them, as they
    /// are for a manifest `build_manifest` made from them or one
    /// restored from a chain it made ([`fetch_record_into`] checks
    /// every id).
    pub manifest: &'a ChunkManifest,
    /// Where the new record is expected to copy `raw`, in record order,
    /// as [`crate::archive::splice_layer`] reports it. Only a hint: a
    /// wrong run costs a walk, never a wrong id.
    pub copied: &'a [CopiedRun],
}

/// Reusable buffers for [`build_manifest`]. Once warm, a build over
/// records of an unchanged shape allocates nothing.
#[derive(Debug, Default)]
pub struct ManifestScratch {
    /// `(length, first 8 bytes, offset, entry)` per chunk of the
    /// previous version being matched against, sorted: the candidate
    /// lookup for id reuse.
    known: Vec<(u32, u64, usize, usize)>,
    /// Offset of each chunk of the previous version, in order.
    cuts: Vec<usize>,
}

/// A chunk's first 8 bytes as a lookup key (zero-padded when shorter).
fn head(chunk: &[u8]) -> u64 {
    let mut word = [0u8; 8];
    let n = chunk.len().min(8);
    word[..n].copy_from_slice(&chunk[..n]);
    u64::from_le_bytes(word)
}

/// The previous version's chunk, as an index into `cuts`, that a new
/// chunk starting at `pos` may equal: the one starting where the copied
/// run holding `pos` puts it. `run` is the first run that may hold
/// `pos`; calls must come in increasing `pos` order.
fn aligned_cut(copied: &[CopiedRun], run: &mut usize, cuts: &[usize], pos: usize) -> Option<usize> {
    while copied.get(*run).is_some_and(|r| r.at + r.len <= pos) {
        *run += 1;
    }
    let r = copied.get(*run).filter(|r| r.at <= pos)?;
    cuts.binary_search(&(r.from + (pos - r.at))).ok()
}

/// Builds the manifest of `data` into `out`, reusing its buffer,
/// hashing each byte at most once:
///
/// * **Resync.** When the record comes with its previous version
///   ([`PrevChunks`]), a chunk that starts where a previous chunk does
///   (at the record's start, or where a copied run puts it) is that
///   previous chunk, id and all, without running the chunker, once a
///   `memcmp` proves the bytes equal. The chunk after it is then tried
///   the same way. Anywhere else the chunker walks, from the last
///   previous cut before the changed bytes to the first of its cuts
///   that lands on a previous one. A cut before the end of the bytes
///   depends only on the bytes up to it, so the cuts are those of a
///   walk over the whole record. The previous version's last chunk
///   ends where its bytes end, so it is taken only where the record
///   ends with it too.
/// * **Reuse.** A walked chunk takes a cached id only when a cached
///   chunk has the same length and a `memcmp` of the two byte ranges is
///   equal; candidates are looked up by (length, first 8 bytes). No
///   weaker proof ever reuses an id. Every other walked chunk is hashed
///   where the walk cuts it.
///
/// The output equals a build with no previous version at all. The
/// walked bytes are counted in `chunker.bytes_walked`.
pub fn build_manifest(
    data: &[u8],
    prev: Option<PrevChunks<'_>>,
    scratch: &mut ManifestScratch,
    out: &mut ChunkManifest,
) {
    out.total_len = data.len() as u64;
    out.entries.clear();
    // A previous version whose lengths don't add up proves nothing.
    let prev = prev.filter(|p| p.manifest.total_len() == p.raw.len());
    let (raw, entries, copied) = match prev {
        Some(p) => (p.raw, &p.manifest.entries[..], p.copied),
        None => (&[][..], &[][..], &[][..]),
    };
    let (known, cuts) = (&mut scratch.known, &mut scratch.cuts);
    known.clear();
    cuts.clear();
    let mut offset = 0usize;
    for (ei, &(_, len)) in entries.iter().enumerate() {
        let chunk = &raw[offset..offset + len as usize];
        known.push((len, head(chunk), offset, ei));
        cuts.push(offset);
        offset += len as usize;
    }
    known.sort_unstable();
    let mut run = 0;
    // Both versions start with a cut.
    let mut synced = (!cuts.is_empty()).then_some(0);
    let mut walked = 0usize;
    let mut offset = 0usize;
    while offset < data.len() {
        if let Some(k) = synced {
            let (entry, at) = (entries[k], cuts[k]);
            let len = entry.1 as usize;
            let ends = at + len == raw.len();
            if (!ends || offset + len == data.len())
                && data[offset..].get(..len) == Some(&raw[at..at + len])
            {
                out.entries.push(entry);
                offset += len;
                synced = (k + 1 < cuts.len()).then_some(k + 1);
                continue;
            }
        }
        let chunk = &data[offset..offset + chunker::cut_point(&data[offset..])];
        walked += chunk.len();
        let len = len_u32(chunk.len());
        let key = (len, head(chunk));
        let start = known.partition_point(|&(l, h, _, _)| (l, h) < key);
        let id = known[start..]
            .iter()
            .take_while(|&&(l, h, _, _)| (l, h) == key)
            .find(|&&(_, _, at, _)| raw[at..at + chunk.len()] == *chunk)
            .map_or_else(|| chunk_id(chunk), |&(_, _, _, cached)| entries[cached].0);
        out.entries.push((id, len));
        offset += chunk.len();
        synced = aligned_cut(copied, &mut run, cuts, offset);
    }
    nymix_obs::counter!("chunker.bytes_walked", walked);
}

/// Seals every chunk of `data` that `index` doesn't already hold,
/// walking `manifest` (which must be `ChunkManifest::build(data)`) in
/// order, **staging** the sealed objects into `staged` instead of
/// touching a backend. Each chunk is sealed under `key` with its object
/// name — `"{prefix}/c/{id}"` — as AEAD label, entropy-gated through
/// [`crate::INCOMPRESSIBLE_BITS_PER_BYTE`]. Returns the sealed bytes staged:
/// the dedup savings are exactly what this number omits. The store
/// pipeline stages a save's chunks this way, then lands them with the
/// rest of the save in one [`ObjectBackend::apply_batch`].
#[allow(clippy::too_many_arguments)]
pub fn seal_new_chunks_into(
    data: &[u8],
    manifest: &ChunkManifest,
    index: &mut ChunkIndex,
    key: &SealKey,
    prefix: &str,
    rng: &mut Rng,
    scratch: &mut SealScratch,
    staged: &mut Vec<(String, Vec<u8>)>,
) -> usize {
    debug_assert_eq!(manifest.total_len(), data.len());
    let mut sealed = 0usize;
    let mut offset = 0usize;
    let mut blob = Vec::new();
    for (id, len) in manifest.chunks() {
        let chunk = &data[offset..offset + len];
        offset += len;
        if !index.retain(id) {
            continue; // Already stored: dedup across versions/records.
        }
        let name = chunk_object_name(prefix, id);
        seal_into(Sealable::Chunk(chunk), key, &name, rng, scratch, &mut blob);
        sealed += blob.len();
        staged.push((name, std::mem::take(&mut blob)));
    }
    sealed
}

/// Fetches, authenticates and reassembles a manifest's record from the
/// backend into `out` (cleared first). Fails closed on a missing chunk
/// (GC'd away or withheld), a chunk that doesn't authenticate under its
/// name-bound AEAD label (tampered or transplanted), or a plaintext
/// that doesn't re-hash to the manifest's chunk ID. Returns the sealed
/// bytes fetched (for transfer accounting).
pub fn fetch_record_into(
    manifest: &ChunkManifest,
    key: &SealKey,
    prefix: &str,
    backend: &mut dyn ObjectBackend,
    work: &mut Vec<u8>,
    scratch: &mut SealScratch,
    out: &mut Vec<u8>,
) -> Result<usize, CasError> {
    out.clear();
    out.reserve(manifest.total_len());
    let mut fetched = 0usize;
    for (id, len) in manifest.chunks() {
        let name = chunk_object_name(prefix, id);
        let blob = backend.get(&name)?.ok_or(CasError::MissingChunk)?;
        fetched += blob.len();
        let plain = unseal_into(blob, key, &name, work, scratch).map_err(CasError::ChunkSeal)?;
        if plain.len() != len || !nymix_crypto::ct::eq(&chunk_id(plain), id) {
            return Err(CasError::ChunkMismatch);
        }
        out.extend_from_slice(plain);
    }
    debug_assert_eq!(out.len(), manifest.total_len());
    Ok(fetched)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LocalStore;

    /// Deterministic pseudo-random filler (xorshift64*).
    fn noise(seed: u64, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        let mut x = seed | 1;
        while out.len() < len {
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            out.extend_from_slice(&x.wrapping_mul(0x2545_F491_4F6C_DD1D).to_le_bytes());
        }
        out.truncate(len);
        out
    }

    /// One chain epoch's sealing state, as the store pipeline holds it.
    struct Chain {
        key: SealKey,
        rng: Rng,
        scratch: SealScratch,
        work: Vec<u8>,
    }

    fn chain() -> Chain {
        let mut rng = Rng::seed_from(9);
        let key = SealKey::derive("pw", "nym:cas", &mut rng);
        Chain {
            key,
            rng,
            scratch: SealScratch::new(),
            work: Vec::new(),
        }
    }

    impl Chain {
        /// Seals `data`'s chunks missing from `index` and lands them in
        /// one `apply_batch`, the way a save does. Returns the sealed
        /// bytes uploaded.
        fn upload(
            &mut self,
            data: &[u8],
            manifest: &ChunkManifest,
            index: &mut ChunkIndex,
            prefix: &str,
            backend: &mut LocalStore,
        ) -> usize {
            let mut staged = Vec::new();
            let sealed = seal_new_chunks_into(
                data,
                manifest,
                index,
                &self.key,
                prefix,
                &mut self.rng,
                &mut self.scratch,
                &mut staged,
            );
            backend.apply_batch(staged, Vec::new()).unwrap();
            sealed
        }

        fn fetch(
            &mut self,
            manifest: &ChunkManifest,
            prefix: &str,
            backend: &mut LocalStore,
            out: &mut Vec<u8>,
        ) -> Result<usize, CasError> {
            fetch_record_into(
                manifest,
                &self.key,
                prefix,
                backend,
                &mut self.work,
                &mut self.scratch,
                out,
            )
        }
    }

    #[test]
    fn manifest_roundtrips_and_covers_data() {
        let data = noise(1, 200_000);
        let m = ChunkManifest::build(&data);
        assert_eq!(m.total_len(), data.len());
        assert_eq!(m.chunks().map(|(_, l)| l).sum::<usize>(), data.len());
        assert!(m.chunks().count() > 1);
        let bytes = m.to_bytes();
        assert_eq!(bytes.len(), m.serialized_len());
        assert_eq!(ChunkManifest::from_bytes(&bytes).unwrap(), m);
    }

    #[test]
    fn manifest_ids_match_scalar_hashing() {
        // Uniform bytes never fire a content-defined cut: every chunk
        // but the tail is max-capped, and each must still carry the id
        // of its own bytes.
        let data = vec![7u8; 4 * MAX_CHUNK + 100];
        let m = ChunkManifest::build(&data);
        let mut offset = 0;
        for (id, len) in m.chunks() {
            assert_eq!(*id, chunk_id(&data[offset..offset + len]));
            offset += len;
        }
    }

    #[test]
    fn build_manifest_matches_chunker_oracle() {
        // One scratch and one output across records of every shape:
        // same IDs, same lengths, same order as hashing each record's
        // chunks one by one.
        let records: Vec<Vec<u8>> = vec![
            noise(21, 150_000),
            noise(22, 40_000),
            vec![7u8; 5 * MAX_CHUNK], // uniform: every chunk max-capped
            noise(23, 33_000),
            Vec::new(),
        ];
        let (mut scratch, mut manifest) = (ManifestScratch::default(), ChunkManifest::default());
        for data in &records {
            build_manifest(data, None, &mut scratch, &mut manifest);
            let oracle: Vec<(ChunkId, usize)> = chunker::chunks(data)
                .map(|c| (chunk_id(c), c.len()))
                .collect();
            let got: Vec<(ChunkId, usize)> =
                manifest.chunks().map(|(id, len)| (*id, len)).collect();
            assert_eq!(got, oracle);
            assert_eq!(manifest.total_len(), data.len());
        }
    }

    #[test]
    fn entropy_gate_seals_random_chunks_stored_and_roundtrips() {
        let mut c = chain();
        let mut backend = LocalStore::new();
        let mut index = ChunkIndex::new();
        // Random payload: every chunk takes the stored path, so each
        // sealed object is the stored body plus header and tag.
        let data = noise(31, 100_000);
        let m = ChunkManifest::build(&data);
        let sealed_random = c.upload(&data, &m, &mut index, "p", &mut backend);
        let stored: usize = m
            .chunks()
            .map(|(_, len)| 4 + 16 + 12 + 8 + len + len.div_ceil(8) + 16)
            .sum();
        assert_eq!(sealed_random, stored);
        let mut out = Vec::new();
        c.fetch(&m, "p", &mut backend, &mut out).unwrap();
        assert_eq!(out, data);

        // Text payload: the gate keeps compressing, so sealed chunk
        // objects stay much smaller than their plaintext.
        let html: Vec<u8> = b"<div class=\"post\">timeline entry</div>\n"
            .iter()
            .copied()
            .cycle()
            .take(100_000)
            .collect();
        let mh = ChunkManifest::build(&html);
        let sealed_text = c.upload(&html, &mh, &mut index, "p", &mut backend);
        assert!(
            sealed_text * 4 < html.len(),
            "text chunks must still compress: {sealed_text} of {}",
            html.len()
        );
        c.fetch(&mh, "p", &mut backend, &mut out).unwrap();
        assert_eq!(out, html);
    }

    #[test]
    fn hostile_manifest_bytes_rejected() {
        assert!(ChunkManifest::from_bytes(b"").is_err());
        assert!(ChunkManifest::from_bytes(b"NYMC").is_err());
        assert!(ChunkManifest::from_bytes(b"NYM1aaaaaaaaaaaa").is_err());
        // Zero chunks.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&0u64.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        assert!(ChunkManifest::from_bytes(&bytes).is_err());
        // Huge count with no bytes behind it: fails fast, no reserve.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&u64::MAX.to_le_bytes());
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(ChunkManifest::from_bytes(&bytes).is_err());
        // Entry length over MAX_CHUNK.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&(MAX_CHUNK as u64 + 1).to_le_bytes());
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 32]);
        bytes.extend_from_slice(&(MAX_CHUNK as u32 + 1).to_le_bytes());
        assert!(ChunkManifest::from_bytes(&bytes).is_err());
        // Lengths not summing to total_len.
        let data = noise(2, 40_000);
        let m = ChunkManifest::build(&data);
        let mut bytes = m.to_bytes();
        bytes[4] ^= 1; // total_len low byte
        assert!(ChunkManifest::from_bytes(&bytes).is_err());
        // Trailing garbage.
        let mut bytes = m.to_bytes();
        bytes.push(0);
        assert!(ChunkManifest::from_bytes(&bytes).is_err());
    }

    #[test]
    fn store_fetch_roundtrip_with_dedup() {
        let mut c = chain();
        let mut backend = LocalStore::new();
        let mut index = ChunkIndex::new();
        let data = noise(3, 150_000);
        let m = ChunkManifest::build(&data);
        let up1 = c.upload(&data, &m, &mut index, "nym:cas#e1", &mut backend);
        assert!(up1 > 0);
        assert_eq!(index.ids().count(), m.chunks().count());

        // Same content again (another record, another version): every
        // chunk dedups, zero bytes uploaded, the index is unchanged.
        let before = index.clone();
        let up2 = c.upload(&data, &m, &mut index, "nym:cas#e1", &mut backend);
        assert_eq!(up2, 0);
        assert!(index.ids().eq(before.ids()));

        let mut out = Vec::new();
        let fetched = c.fetch(&m, "nym:cas#e1", &mut backend, &mut out).unwrap();
        assert_eq!(out, data);
        assert_eq!(fetched, up1);
    }

    #[test]
    fn edit_uploads_only_touched_chunks() {
        let mut c = chain();
        let mut backend = LocalStore::new();
        let mut index = ChunkIndex::new();
        let mut data = noise(4, 128 * 1024);
        let m1 = ChunkManifest::build(&data);
        let full = c.upload(&data, &m1, &mut index, "p", &mut backend);

        // Overwrite 4 KiB in the middle: only the chunks covering the
        // edit change; everything else dedups against the first upload.
        let at = 64 * 1024;
        data[at..at + 4096].copy_from_slice(&noise(99, 4096));
        let m2 = ChunkManifest::build(&data);
        let incremental = c.upload(&data, &m2, &mut index, "p", &mut backend);
        assert!(
            incremental > 0 && incremental * 4 < full,
            "incremental {incremental} vs full {full}"
        );

        // Retire the old version: chunks only m1 referenced become
        // garbage; deleting them must not break the new version.
        let dead = index.mark_and_sweep([&m2]);
        assert!(!dead.is_empty());
        for id in &dead {
            assert!(backend.delete(&chunk_object_name("p", id)));
        }
        let mut out = Vec::new();
        c.fetch(&m2, "p", &mut backend, &mut out).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn missing_tampered_and_swapped_chunks_fail_closed() {
        let mut c = chain();
        let mut backend = LocalStore::new();
        let mut index = ChunkIndex::new();
        let data = noise(5, 100_000);
        let m = ChunkManifest::build(&data);
        c.upload(&data, &m, &mut index, "p", &mut backend);
        let names: Vec<String> = m
            .chunks()
            .map(|(id, _)| chunk_object_name("p", id))
            .collect();
        let mut out = Vec::new();

        // GC'd-away / withheld chunk.
        let stolen = backend.get(&names[1]).unwrap().to_vec();
        assert!(backend.delete(&names[1]));
        assert_eq!(
            c.fetch(&m, "p", &mut backend, &mut out),
            Err(CasError::MissingChunk)
        );
        backend.put(&names[1], stolen.clone());

        // Tampered ciphertext.
        let mut evil = stolen.clone();
        let last = evil.len() - 1;
        evil[last] ^= 1;
        backend.put(&names[1], evil);
        assert!(matches!(
            c.fetch(&m, "p", &mut backend, &mut out),
            Err(CasError::ChunkSeal(_))
        ));
        backend.put(&names[1], stolen);

        // Swapped chunk objects: each blob authenticates only under its
        // own name-bound label, so serving chunk 0 in slot 2 fails.
        let c0 = backend.get(&names[0]).unwrap().to_vec();
        let c2 = backend.get(&names[2]).unwrap().to_vec();
        backend.put(&names[0], c2);
        backend.put(&names[2], c0);
        assert!(matches!(
            c.fetch(&m, "p", &mut backend, &mut out),
            Err(CasError::ChunkSeal(_))
        ));
    }

    #[test]
    fn retain_dedups_and_mark_and_sweep_frees_unreferenced() {
        let mut index = ChunkIndex::new();
        let a = ChunkManifest::build(&noise(61, 60_000));
        let b = ChunkManifest::build(&noise(71, 60_000));
        index.retain_manifest(&a);
        // A second version sharing a's content adds nothing new.
        assert!(a.chunks().all(|(id, _)| !index.retain(id)));
        index.retain_manifest(&b);
        assert_eq!(index.ids().count(), a.chunks().count() + b.chunks().count());

        // Sweeping with b live frees exactly a's chunks.
        let dead = index.mark_and_sweep([&b]);
        assert_eq!(dead.len(), a.chunks().count());
        assert!(dead.iter().all(|id| a.chunks().any(|(i, _)| i == id)));
        assert_eq!(index.ids().count(), b.chunks().count());

        // Mark-and-sweep down to nothing live: b's chunks are swept.
        let swept = index.mark_and_sweep([]);
        assert_eq!(swept.len(), b.chunks().count());
        assert_eq!(index.ids().count(), 0);
    }

    /// The acceptance criterion: a 4 KiB write inside a 64 KiB record
    /// must upload >= 10x fewer sealed bytes through the chunk store
    /// than the record-granular NYMD delta re-sealing the whole record.
    #[test]
    fn chunked_delta_beats_record_delta_10x() {
        use crate::delta::DeltaArchive;
        use crate::NymArchive;

        let mut c = chain();
        let mut backend = LocalStore::new();
        let mut index = ChunkIndex::new();

        // Incompressible 64 KiB disk record (browser caches are mostly
        // media) plus the usual small records.
        let disk = noise(0xAB1, 64 * 1024);
        // Pick the edit site the way a real workload lands one: fully
        // inside one chunk (boundaries are content-defined, so a mid-
        // chunk 4 KiB overwrite dirties that chunk alone).
        let (at, host_len) = {
            let mut offset = 0usize;
            let mut site = None;
            for chunk in chunker::chunks(&disk) {
                if chunk.len() >= 4096 + 256 && chunk.len() <= 6 * 1024 {
                    site = Some((offset + 128, chunk.len()));
                    break;
                }
                offset += chunk.len();
            }
            site.expect("seeded data contains a 4.3-6 KiB chunk")
        };
        let mut disk2 = disk.clone();
        disk2[at..at + 4096].copy_from_slice(&noise(0xED17, 4096));

        let mut small = NymArchive::new();
        small.put("meta", b"name=bench".to_vec());
        small.put("tor.state", vec![0x5a; 512]);

        let seal_delta = |c: &mut Chain, delta: &DeltaArchive| {
            let mut blob = Vec::new();
            seal_into(
                Sealable::Delta(delta),
                &c.key,
                "l#e1.1",
                &mut c.rng,
                &mut c.scratch,
                &mut blob,
            );
            blob.len()
        };

        // Record-granular NYMD path: the delta carries the whole record.
        let (prev, next) = {
            let mut prev = small.clone();
            prev.put("anonvm.disk", disk.clone());
            let mut next = prev.clone();
            next.put("anonvm.disk", disk2.clone());
            (prev, next)
        };
        let record_bytes = seal_delta(&mut c, &DeltaArchive::diff(&prev, &next));

        // Chunked path: the archives hold manifests; the base's chunks
        // are already in the store, so the delta ships the new manifest
        // plus only the chunks the edit touched.
        let m1 = ChunkManifest::build(&disk);
        c.upload(&disk, &m1, &mut index, "l#e1", &mut backend);
        let m2 = ChunkManifest::build(&disk2);
        let chunk_upload = c.upload(&disk2, &m2, &mut index, "l#e1", &mut backend);
        let (prev_m, next_m) = {
            let mut prev = small.clone();
            prev.put("anonvm.disk", m1.to_bytes());
            let mut next = prev.clone();
            next.put("anonvm.disk", m2.to_bytes());
            (prev, next)
        };
        let manifest_bytes = seal_delta(&mut c, &DeltaArchive::diff(&prev_m, &next_m));
        let chunked_bytes = manifest_bytes + chunk_upload;

        assert!(
            chunked_bytes * 10 <= record_bytes,
            "chunked {chunked_bytes} (manifest {manifest_bytes} + chunks {chunk_upload}) vs \
             record-granular {record_bytes}: < 10x (edit in a {host_len}-byte chunk)",
        );
        assert!(
            host_len + 2048 >= chunk_upload,
            "edit should ship ~1 chunk: uploaded {chunk_upload} from a {host_len}-byte chunk"
        );
    }
}
