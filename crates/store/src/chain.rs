//! Snapshot chains: how one storage label's base, deltas and chunk
//! objects are named, epoched, swept and verified, over any
//! [`ObjectBackend`].
//!
//! A chain epoch is one full `"NYM1"` base, up to
//! [`DELTA_CHAIN_LIMIT`] `"NYMD"` deltas in slot order and the chunk
//! objects their manifests name, all sealed under one key. The object
//! names and the epoch record are specified in the format spec of
//! [`crate::archive`]. This module owns the three operations on them:
//!
//! * [`list`]: which epochs and objects the backend holds under a
//!   label. The backend is the only chain registry.
//! * [`SavePlan`]: the next save from a carried [`Chain`] or a
//!   [`Listing`]. It tracks the captured records (each layer spliced
//!   from its cached record), converts large ones to chunk manifests,
//!   keeps a delta only when it pays, and seals the chunks and the blob
//!   into the puts and sweeps of one [`ObjectBackend::apply_batch`].
//! * [`fetch`]: the base, the root-verified delta replay and the
//!   manifest resolution, failing closed with a [`ChainError`] on
//!   anything missing, tampered or transplanted.

use std::collections::BTreeMap;

use nymix_fs::Layer;
use nymix_sim::Rng;

use crate::archive::{splice_layer, CopiedRun};
use crate::backend::{BackendError, ObjectBackend};
use crate::cas::{self, CasError, ChunkIndex, ChunkManifest, ManifestScratch, PrevChunks};
use crate::delta::records_root;
use crate::{
    seal_into, unseal_into, DeltaArchive, NymArchive, SealKey, SealScratch, Sealable,
    CHUNK_RECORD_THRESHOLD, DELTA_CHAIN_LIMIT,
};

/// The base record holding the chain epoch (u64 LE). Every full save
/// writes it: a base without one never came from a save.
pub const EPOCH_RECORD: &str = "snapshot.epoch";

/// Object name of delta slot `index` of chain epoch `epoch`.
fn delta_name(label: &str, epoch: u64, index: usize) -> String {
    format!("{label}#e{epoch}.{index}")
}

/// Chunk-object namespace of chain epoch `epoch`: its chunks live at
/// [`cas::chunk_object_name`]`(prefix, id)`.
fn chunk_prefix(label: &str, epoch: u64) -> String {
    format!("{label}#e{epoch}")
}

/// The epoch `N` of a chain object of `label`: a delta
/// `{label}#e{N}.{i}` or a chunk `{label}#e{N}/c/{64 hex}`. `None` for
/// any other name, a longer label's objects included.
fn object_epoch(name: &str, label: &str) -> Option<u64> {
    let rest = name.strip_prefix(label)?.strip_prefix("#e")?;
    let (epoch, tail) = rest.split_at(rest.find(|c: char| !c.is_ascii_digit())?);
    let digits = |s: &str, hex| {
        s.bytes()
            .all(|b| b.is_ascii_digit() || (hex && b"abcdef".contains(&b)))
    };
    let named = match tail.strip_prefix('.') {
        Some(index) => !index.is_empty() && digits(index, false),
        None => tail
            .strip_prefix("/c/")
            .is_some_and(|id| id.len() == 64 && digits(id, true)),
    };
    named.then(|| epoch.parse().ok()).flatten()
}

/// One chunked record's raw bytes as it was last chunked from or
/// resolved to. A save splices a layer record from them and reuses the
/// id of every chunk a `memcmp` against them proves unchanged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CachedRecord {
    /// The raw bytes.
    pub raw: Vec<u8>,
    /// The manifest of `raw`.
    pub manifest: ChunkManifest,
    /// For a layer record, the [`Layer::generation`] whose entries `raw`
    /// serializes: [`SavePlan::capture_layer`] copies every entry that
    /// has not changed since. `None` when unknown.
    pub layer_gen: Option<u64>,
}

/// The cached raw bytes of each chunked record, by record name.
pub type ChunkCache = BTreeMap<String, CachedRecord>;

/// One label's chain as of its latest save or restore. Only
/// [`SavePlan::seal`] and [`fetch`] make one, so its parts agree.
pub struct Chain {
    /// The epoch's key: deltas reuse it and skip the KDF.
    key: SealKey,
    epoch: u64,
    delta_count: usize,
    /// The archive in **stored form**: records at or above
    /// [`CHUNK_RECORD_THRESHOLD`] hold their `"NYMC"` manifest. Diffing
    /// stored forms makes a sub-record write ship a new manifest plus
    /// O(1) chunks.
    archive: NymArchive,
    /// The chunks the live manifests reference.
    chunks: ChunkIndex,
}

impl Chain {
    /// Deltas stored on the base: 0 after a full save.
    pub fn delta_count(&self) -> usize {
        self.delta_count
    }

    /// The archive in stored form.
    pub fn archive(&self) -> &NymArchive {
        &self.archive
    }

    /// Record `name` resolved for use: the raw bytes `cache` holds for
    /// a chunked record, else the stored bytes.
    pub fn resolved<'a>(&'a self, cache: &'a ChunkCache, name: &str) -> Option<&'a [u8]> {
        match cache.get(name) {
            Some(cached) => Some(&cached.raw),
            None => self.archive.get(name),
        }
    }
}

/// Why a chain operation failed. `Missing` and `Unavailable` differ in
/// what a retry can do: an absent object stays absent, while state
/// behind an unreachable backend is presumed intact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChainError {
    /// No base is stored under the label.
    NothingStored,
    /// An object the chain needs is authoritatively absent.
    Missing(String),
    /// The backend was unreachable or throttled past its retry budget.
    Unavailable(String),
    /// A denied or failed backend, or an object that does not open,
    /// parse or verify.
    Failed(String),
    /// The label's highest epoch is `u64::MAX`: no next epoch exists.
    EpochExhausted,
}

impl core::fmt::Display for ChainError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ChainError::NothingStored => write!(f, "nothing stored under the label"),
            ChainError::Missing(s) => write!(f, "stored object missing: {s}"),
            ChainError::Unavailable(s) => write!(f, "storage unavailable: {s}"),
            ChainError::Failed(s) => f.write_str(s),
            ChainError::EpochExhausted => write!(f, "chain epoch {} has no successor", u64::MAX),
        }
    }
}

impl std::error::Error for ChainError {}

impl From<BackendError> for ChainError {
    fn from(e: BackendError) -> Self {
        match e {
            BackendError::Unavailable(s) | BackendError::Transient(s) => ChainError::Unavailable(s),
            e @ (BackendError::Denied | BackendError::Other(_)) => {
                ChainError::Failed(e.to_string())
            }
        }
    }
}

fn failed(e: impl core::fmt::Display) -> ChainError {
    ChainError::Failed(e.to_string())
}

/// What a label's next full save plans from: the epoch it takes and
/// the listed chain objects it sweeps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Listing {
    /// One past the highest epoch held.
    next_epoch: u64,
    /// Every listed chain object of the label.
    names: Vec<String>,
}

impl Listing {
    /// The listing of a save that carries `chain`: the epoch after the
    /// chain's, and no names (the chain's own objects are swept).
    pub fn of(chain: &Chain) -> Result<Self, ChainError> {
        Ok(Self {
            next_epoch: next_epoch(Some(chain.epoch))?,
            names: Vec::new(),
        })
    }
}

fn next_epoch(last: Option<u64>) -> Result<u64, ChainError> {
    last.map_or(Some(1), |e| e.checked_add(1))
        .ok_or(ChainError::EpochExhausted)
}

/// Lists `label`'s chain objects on `backend`. Fails with
/// [`ChainError::EpochExhausted`] when a listed name claims epoch
/// `u64::MAX`.
pub fn list(backend: &mut dyn ObjectBackend, label: &str) -> Result<Listing, ChainError> {
    let mut names = Vec::new();
    backend.list(&mut names)?;
    let mut last = None;
    names.retain(|n| {
        let epoch = object_epoch(n, label);
        last = last.max(epoch);
        epoch.is_some()
    });
    Ok(Listing {
        next_epoch: next_epoch(last)?,
        names,
    })
}

/// One save of a label, from capture to seal.
pub struct SavePlan {
    archive: NymArchive,
    /// The carried chain, its archive taken: it is the field above
    /// when a delta is possible, else dropped.
    carried: Option<Chain>,
    listing: Listing,
    chunking: bool,
    delta_ok: bool,
    captured: Vec<Captured>,
    /// Each chunk-converted record, for the cache once sealed.
    chunked: Vec<(String, CachedRecord)>,
    delta: Option<DeltaArchive>,
}

/// One captured record.
struct Captured {
    name: &'static str,
    /// The record's previous stored bytes, for the diff.
    old: Option<Vec<u8>>,
    /// For a layer: its generation, and the runs its record copied from
    /// the cached record.
    layer: Option<(u64, Vec<CopiedRun>)>,
}

/// A sealed save: its objects to put and sweep, and the chain it leaves.
pub struct Sealed {
    /// The continued or new chain.
    pub chain: Chain,
    /// Sealed objects in upload order.
    pub puts: Vec<(String, Vec<u8>)>,
    /// Objects the save retires.
    pub deletes: Vec<String>,
    /// Sealed bytes in `puts`.
    pub uploaded: usize,
}

impl SavePlan {
    /// Plans a save from the `carried` chain, if any, and `listing`.
    /// `incremental` allows chunking and, when the chain has a free
    /// slot, a delta. A delta save starts from the chain's stored form,
    /// so clean records carry over by move; a full save starts empty,
    /// so the new epoch never names the old one's chunks.
    pub fn new(mut carried: Option<Chain>, listing: Listing, incremental: bool) -> Self {
        let delta_ok = incremental
            && carried
                .as_ref()
                .is_some_and(|c| c.delta_count < DELTA_CHAIN_LIMIT);
        let taken = carried.as_mut().map(|c| std::mem::take(&mut c.archive));
        let archive = taken.filter(|_| delta_ok).unwrap_or_default();
        Self {
            archive,
            carried,
            listing,
            chunking: incremental,
            delta_ok,
            captured: Vec::new(),
            chunked: Vec::new(),
            delta: None,
        }
    }

    /// Whether the save may go as a delta.
    pub fn delta_possible(&self) -> bool {
        self.delta_ok
    }

    /// The archive being built, in stored form.
    pub fn archive(&self) -> &NymArchive {
        &self.archive
    }

    /// Captures record `name`, keeping its previous bytes for the diff.
    pub fn capture(&mut self, name: &'static str, bytes: Vec<u8>) {
        let old = self.archive.replace(name, bytes);
        self.captured.push(Captured {
            name,
            old,
            layer: None,
        });
    }

    /// Captures `layer` serialized into record `name`: spliced
    /// ([`splice_layer`]) from the record `cache` holds, when it knows
    /// the layer generation that record serialized.
    ///
    /// # Panics
    ///
    /// Panics if a path in `layer` exceeds
    /// [`crate::archive::MAX_NAME_LEN`] bytes.
    pub fn capture_layer(&mut self, name: &'static str, layer: &Layer, cache: &ChunkCache) {
        let prev = cache
            .get(name)
            .and_then(|c| Some((c.raw.as_slice(), c.layer_gen?)));
        let mut copied = Vec::new();
        let old = self
            .archive
            .replace(name, splice_layer(layer, prev, &mut copied));
        self.captured.push(Captured {
            name,
            old,
            layer: Some((layer.generation(), copied)),
        });
    }

    /// Converts every captured record at or above the chunk threshold
    /// that is not yet a manifest into one, resyncing with the cuts and
    /// reusing the chunk ids of the record `cache` holds. Each
    /// conversion consumes its cache entry, so the previous raw bytes
    /// are freed before sealing.
    pub fn chunk(&mut self, cache: &mut ChunkCache, scratch: &mut ManifestScratch) {
        if !self.chunking {
            return;
        }
        for Captured { name, .. } in &self.captured {
            let raw_record = self.archive.get(name).is_some_and(|d| {
                d.len() >= CHUNK_RECORD_THRESHOLD && ChunkManifest::from_bytes(d).is_err()
            });
            if !raw_record {
                continue;
            }
            // Swap the raw bytes out rather than copying them; the
            // in-place replace keeps record order, which the commitment
            // depends on.
            let raw = self.archive.replace(name, Vec::new()).unwrap_or_default();
            // The record's cached version, and for a layer its
            // generation and the runs its splice copied from that
            // version, from the last capture of `name`: the one the
            // archive holds.
            let old = cache.remove(*name);
            let captured = self.captured.iter().rev().find(|c| c.name == *name);
            let layer = captured.and_then(|c| c.layer.as_ref());
            let prev = old.as_ref().map(|c| PrevChunks {
                raw: &c.raw,
                manifest: &c.manifest,
                copied: layer.map_or(&[][..], |(_, copied)| copied),
            });
            let mut manifest = ChunkManifest::default();
            cas::build_manifest(&raw, prev, scratch, &mut manifest);
            self.archive.replace(name, manifest.to_bytes());
            let cached = CachedRecord {
                raw,
                manifest,
                layer_gen: layer.map(|(gen, _)| *gen),
            };
            self.chunked.push((name.to_string(), cached));
        }
    }

    /// Builds the delta from the captured records: a record is dirty
    /// iff its new stored bytes differ from the carried ones, and the
    /// delta commits to the [`records_root`] of the stored form. Keeps
    /// the delta only when a delta is possible and smaller than the
    /// full archive; returns whether it kept one.
    pub fn diff(&mut self) -> bool {
        if !self.delta_ok {
            return false;
        }
        let archive = &self.archive;
        let mut delta = DeltaArchive::new(archive.record_count(), records_root(archive));
        for Captured { name, old, .. } in &self.captured {
            if let Some(new) = archive.get(name).filter(|&new| old.as_deref() != Some(new)) {
                delta.put(name, new.to_vec());
            }
        }
        if delta.serialized_len() < archive.serialized_len() {
            self.delta = Some(delta);
        }
        self.delta.is_some()
    }

    /// Seals the save: the chunks the epoch's index lacks, then the
    /// delta or the full archive. A full save takes the listing's epoch
    /// and a fresh key, and sweeps the carried epoch's objects or the
    /// listed ones; a delta sweeps the chunks no live manifest names.
    /// The chunked records' raw bytes move into `cache` for the next
    /// save's id reuse.
    pub fn seal(
        mut self,
        label: &str,
        password: &str,
        rng: &mut Rng,
        scratch: &mut SealScratch,
        cache: &mut ChunkCache,
    ) -> Sealed {
        let (key, epoch, delta_count, mut chunks, delta, retired) =
            match (self.carried, self.delta.take()) {
                (Some(c), Some(delta)) => (
                    c.key,
                    c.epoch,
                    c.delta_count + 1,
                    c.chunks,
                    Some(delta),
                    None,
                ),
                (carried, _) => {
                    let epoch = self.listing.next_epoch;
                    self.archive.put(EPOCH_RECORD, epoch.to_le_bytes().to_vec());
                    let key = SealKey::derive(password, label, rng);
                    let retired = carried.map(|c| (c.epoch, c.chunks));
                    (key, epoch, 0, ChunkIndex::new(), None, retired)
                }
            };
        let prefix = chunk_prefix(label, epoch);
        let mut puts = Vec::new();
        let mut uploaded = 0;
        for (_, cached) in &self.chunked {
            uploaded += cas::seal_new_chunks_into(
                &cached.raw,
                &cached.manifest,
                &mut chunks,
                &key,
                &prefix,
                rng,
                scratch,
                &mut puts,
            );
        }
        let (name, blob) = match &delta {
            Some(d) => (delta_name(label, epoch, delta_count), Sealable::Delta(d)),
            None => (label.to_string(), Sealable::Archive(&self.archive)),
        };
        let mut sealed = Vec::new();
        seal_into(blob, &key, &name, rng, scratch, &mut sealed);
        uploaded += sealed.len();
        puts.push((name, sealed));

        let mut deletes = Vec::new();
        if delta.is_some() {
            let live: Vec<ChunkManifest> = self
                .archive
                .records()
                .filter_map(|(_, d)| ChunkManifest::from_bytes(d).ok())
                .collect();
            let dead = chunks.mark_and_sweep(&live);
            deletes.extend(dead.iter().map(|id| cas::chunk_object_name(&prefix, id)));
        } else if let Some((old, retired)) = retired {
            deletes.extend((1..=DELTA_CHAIN_LIMIT).map(|i| delta_name(label, old, i)));
            let old_prefix = chunk_prefix(label, old);
            deletes.extend(
                retired
                    .ids()
                    .map(|id| cas::chunk_object_name(&old_prefix, id)),
            );
        }
        deletes.append(&mut self.listing.names);
        for (name, cached) in self.chunked {
            cache.insert(name, cached);
        }
        Sealed {
            chain: Chain {
                key,
                epoch,
                delta_count,
                archive: self.archive,
                chunks,
            },
            puts,
            deletes,
            uploaded,
        }
    }
}

/// Fetches and verifies `label`'s chain: the base (one KDF from its
/// salt), the delta slots replayed in order, each checked against its
/// committed record count and root, then every manifest's chunks, each
/// checked against its name-bound seal and content hash. The resolved
/// records go into `cache`; the returned chain keeps the stored form.
/// Also returns the sealed bytes fetched.
pub fn fetch(
    backend: &mut dyn ObjectBackend,
    label: &str,
    password: &str,
    cache: &mut ChunkCache,
    work: &mut Vec<u8>,
    scratch: &mut SealScratch,
) -> Result<(Chain, usize), ChainError> {
    let mut fetched = 0;
    let (key, mut archive) = {
        let _span = nymix_obs::span!("fetch");
        let blob = backend.get(label)?.ok_or(ChainError::NothingStored)?;
        fetched += blob.len();
        let key = SealKey::from_blob(password, label, blob).map_err(failed)?;
        let bytes = unseal_into(blob, &key, label, work, scratch).map_err(failed)?;
        (key, NymArchive::from_bytes(bytes).map_err(failed)?)
    };
    let epoch = archive
        .get(EPOCH_RECORD)
        .and_then(|b| <[u8; 8]>::try_from(b).ok())
        .map(u64::from_le_bytes)
        .ok_or_else(|| failed("base has no chain epoch record"))?;
    let mut delta_count = 0;
    {
        // Deltas land in slot order, so the chain ends at its first
        // absent slot. Every slot is still read: a present slot after a
        // gap means a delta was withheld and the prefix is older state.
        let _span = nymix_obs::span!("replay", "epoch" => epoch);
        for index in 1..=DELTA_CHAIN_LIMIT {
            let name = delta_name(label, epoch, index);
            let Some(blob) = backend.get(&name)? else {
                continue;
            };
            if delta_count + 1 < index {
                let missing = delta_count + 1;
                return Err(ChainError::Missing(format!(
                    "delta {missing} of chain epoch {epoch}"
                )));
            }
            fetched += blob.len();
            let bytes = unseal_into(blob, &key, &name, work, scratch).map_err(failed)?;
            DeltaArchive::from_bytes(bytes)
                .map_err(failed)?
                .apply(&mut archive)
                .map_err(failed)?;
            delta_count = index;
        }
    }

    let _span = nymix_obs::span!("resolve", "epoch" => epoch);
    let prefix = chunk_prefix(label, epoch);
    let mut chunks = ChunkIndex::new();
    for (record, data) in archive.records() {
        let Ok(manifest) = ChunkManifest::from_bytes(data) else {
            continue;
        };
        chunks.retain_manifest(&manifest);
        let mut resolved = Vec::new();
        fetched += cas::fetch_record_into(
            &manifest,
            &key,
            &prefix,
            backend,
            work,
            scratch,
            &mut resolved,
        )
        .map_err(|e| match e {
            CasError::MissingChunk => {
                ChainError::Missing(format!("chunk of record {record:?} under {prefix:?}"))
            }
            CasError::Backend(e) => e.into(),
            e @ (CasError::ChunkSeal(_) | CasError::ChunkMismatch) => failed(e),
        })?;
        let cached = CachedRecord {
            raw: resolved,
            manifest,
            layer_gen: None,
        };
        cache.insert(record.to_string(), cached);
    }
    let chain = Chain {
        key,
        epoch,
        delta_count,
        archive,
        chunks,
    };
    Ok((chain, fetched))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cas::chunk_object_name;
    use crate::LocalStore;
    use proptest::prelude::*;

    const LABEL: &str = "nym:a@disk";

    /// Deterministic filler, incompressible enough to chunk.
    fn noise(seed: u64, len: usize) -> Vec<u8> {
        let mut rng = Rng::seed_from(seed);
        let mut out = vec![0; len];
        rng.fill_bytes(&mut out);
        out
    }

    /// One incremental save of `records` under `label`: plan from the
    /// carried chain or a listing, capture, chunk, diff, seal, land.
    fn save(
        store: &mut LocalStore,
        label: &str,
        carried: Option<Chain>,
        records: &[(&'static str, Vec<u8>)],
        rng: &mut Rng,
        cache: &mut ChunkCache,
    ) -> Chain {
        let listing = match &carried {
            Some(c) => Listing::of(c).unwrap(),
            None => list(store, label).unwrap(),
        };
        let mut plan = SavePlan::new(carried, listing, true);
        for (name, bytes) in records {
            plan.capture(name, bytes.clone());
        }
        plan.chunk(cache, &mut ManifestScratch::default());
        plan.diff();
        let sealed = plan.seal(label, "pw", rng, &mut SealScratch::new(), cache);
        store.apply_batch(sealed.puts, sealed.deletes).unwrap();
        sealed.chain
    }

    fn fetch_from(store: &mut LocalStore, label: &str) -> Result<(Chain, ChunkCache), ChainError> {
        let mut cache = ChunkCache::new();
        let (chain, _) = fetch(
            store,
            label,
            "pw",
            &mut cache,
            &mut Vec::new(),
            &mut SealScratch::new(),
        )?;
        Ok((chain, cache))
    }

    /// A base, then two deltas that each change one small record.
    fn base_and_two_deltas(store: &mut LocalStore) -> (Chain, Vec<(&'static str, Vec<u8>)>) {
        let (mut rng, mut cache) = (Rng::seed_from(7), ChunkCache::new());
        let mut records = vec![
            ("disk", noise(1, 3 * CHUNK_RECORD_THRESHOLD)),
            ("state", b"guards=1".to_vec()),
        ];
        let mut chain = save(store, LABEL, None, &records, &mut rng, &mut cache);
        assert_eq!((chain.epoch, chain.delta_count), (1, 0));
        for (i, state) in [&b"guards=2"[..], b"guards=3"].into_iter().enumerate() {
            records[1].1 = state.to_vec();
            chain = save(store, LABEL, Some(chain), &records, &mut rng, &mut cache);
            assert_eq!((chain.epoch, chain.delta_count), (1, i + 1));
        }
        (chain, records)
    }

    #[test]
    fn full_save_two_deltas_then_fetch_returns_the_last_archive() {
        let mut store = LocalStore::new();
        let (saved, records) = base_and_two_deltas(&mut store);
        let (chain, cache) = fetch_from(&mut store, LABEL).unwrap();
        assert_eq!((chain.epoch, chain.delta_count), (1, 2));
        assert_eq!(chain.archive, saved.archive);
        assert_eq!(
            chain.chunks.ids().collect::<Vec<_>>(),
            saved.chunks.ids().collect::<Vec<_>>()
        );
        for (name, bytes) in &records {
            assert_eq!(chain.resolved(&cache, name), Some(&bytes[..]), "{name}");
        }
        assert!(cache.contains_key("disk") && !cache.contains_key("state"));
    }

    #[test]
    fn planned_delta_commits_to_the_stored_form_like_diff() {
        let mut store = LocalStore::new();
        let (chain, mut records) = base_and_two_deltas(&mut store);
        let prev = chain.archive.clone();
        // One byte inside the chunked disk: a delta carrying its new
        // manifest is smaller than the stored form.
        records[0].1[CHUNK_RECORD_THRESHOLD] ^= 1;
        let listing = Listing::of(&chain).unwrap();
        let mut plan = SavePlan::new(Some(chain), listing, true);
        for (name, bytes) in &records {
            plan.capture(name, bytes.clone());
        }
        let mut cache = ChunkCache::new();
        plan.chunk(&mut cache, &mut ManifestScratch::default());
        assert!(plan.diff());
        assert!(ChunkManifest::from_bytes(plan.archive().get("disk").unwrap()).is_ok());
        let planned = plan.delta.as_ref().unwrap();
        let diffed = DeltaArchive::diff(&prev, plan.archive());
        assert_eq!(planned.root(), diffed.root());
        assert_eq!(*planned.root(), records_root(plan.archive()));
        assert_eq!(planned, &diffed);
    }

    #[test]
    fn withheld_middle_delta_fails_fetch_as_missing() {
        let mut store = LocalStore::new();
        base_and_two_deltas(&mut store);
        store.delete(&delta_name(LABEL, 1, 1));
        let err = fetch_from(&mut store, LABEL).err();
        assert_eq!(
            err,
            Some(ChainError::Missing("delta 1 of chain epoch 1".into()))
        );
    }

    #[test]
    fn base_without_epoch_record_fails_fetch() {
        let mut store = LocalStore::new();
        let mut rng = Rng::seed_from(3);
        let key = SealKey::derive("pw", LABEL, &mut rng);
        let mut archive = NymArchive::new();
        archive.put("state", b"guards=1".to_vec());
        let mut blob = Vec::new();
        let mut scratch = SealScratch::new();
        seal_into(
            Sealable::Archive(&archive),
            &key,
            LABEL,
            &mut rng,
            &mut scratch,
            &mut blob,
        );
        store.put(LABEL, blob);
        let err = fetch_from(&mut store, LABEL).err();
        assert_eq!(
            err,
            Some(ChainError::Failed("base has no chain epoch record".into()))
        );
    }

    #[test]
    fn chain_less_full_save_sweeps_its_label_and_no_sibling() {
        // The sibling's label extends ours with what looks like an epoch,
        // so all its names start with `{LABEL}#e7`.
        let sibling = format!("{LABEL}#e7");
        let mut store = LocalStore::new();
        let (mut rng, mut cache) = (Rng::seed_from(11), ChunkCache::new());
        let mut records = vec![
            ("disk", noise(2, 2 * CHUNK_RECORD_THRESHOLD)),
            ("state", b"s=1".to_vec()),
        ];
        let sib = save(&mut store, &sibling, None, &records, &mut rng, &mut cache);
        records[1].1 = b"s=2".to_vec();
        save(
            &mut store,
            &sibling,
            Some(sib),
            &records,
            &mut rng,
            &mut cache,
        );
        base_and_two_deltas(&mut store);
        let ours = |store: &LocalStore| -> Vec<String> {
            let names = store.list().into_iter().map(str::to_string);
            names.filter(|n| object_epoch(n, LABEL).is_some()).collect()
        };
        let siblings = |store: &LocalStore| -> Vec<String> {
            let names = store.list().into_iter().map(str::to_string);
            names.filter(|n| n.starts_with(&sibling)).collect()
        };
        let listed = ours(&store);
        assert!(listed.contains(&delta_name(LABEL, 1, 2)) && listed.len() > 2);
        let sibling_objects = siblings(&store);

        // A chain-less save under our label: a fresh cache, as after a
        // restart, so every chunk of the new epoch is sealed again.
        let mut fresh = ChunkCache::new();
        let chain = save(&mut store, LABEL, None, &records, &mut rng, &mut fresh);
        assert_eq!((chain.epoch, chain.delta_count), (2, 0));
        let prefix = chunk_prefix(LABEL, 2);
        let mut expected: Vec<String> = chain
            .chunks
            .ids()
            .map(|id| chunk_object_name(&prefix, id))
            .collect();
        expected.sort();
        assert_eq!(ours(&store), expected);
        assert_eq!(siblings(&store), sibling_objects);
        let (restored, cache) = fetch_from(&mut store, &sibling).unwrap();
        assert_eq!(restored.delta_count, 1);
        assert_eq!(restored.archive.get("state"), Some(&b"s=2"[..]));
        assert_eq!(cache["disk"].raw, records[0].1);
    }

    #[test]
    fn listed_max_epoch_has_no_successor() {
        let mut store = LocalStore::new();
        store.put(&delta_name(LABEL, u64::MAX, 1), vec![0]);
        assert_eq!(list(&mut store, LABEL), Err(ChainError::EpochExhausted));
        store.delete(&delta_name(LABEL, u64::MAX, 1));
        store.put(&delta_name(LABEL, u64::MAX - 1, 1), vec![0]);
        assert_eq!(list(&mut store, LABEL).unwrap().next_epoch, u64::MAX);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn name_grammar_parses_back_and_keeps_labels_apart(
            label in "[a-e0-9#./c:]{1,12}",
            other in "[a-e0-9#./c:]{0,12}",
            epoch in any::<u64>(),
            index in 1usize..DELTA_CHAIN_LIMIT + 1,
            id in any::<[u8; 32]>(),
            cut in any::<proptest::sample::Index>(),
        ) {
            let names = [
                delta_name(&label, epoch, index),
                chunk_object_name(&chunk_prefix(&label, epoch), &id),
            ];
            // Another label, and a proper prefix of this one.
            let prefix = &label[..cut.index(label.len())];
            for name in &names {
                prop_assert_eq!(object_epoch(name, &label), Some(epoch), "{}", name);
                prop_assert_eq!(object_epoch(&label, &label), None);
                for b in [other.as_str(), prefix] {
                    if b != label {
                        prop_assert_eq!(object_epoch(name, b), None, "{} as {}", name, b);
                    }
                }
            }
        }
    }
}
