//! The restore (read) side of the store pipeline: fetch a chain's
//! base, Merkle-verified delta replay, and chunk-manifest resolution,
//! all failing closed on anything missing, tampered or transplanted.
//! Split from [`super::pipeline`] (the write side) purely for module
//! size; the two share the destination-backend plumbing defined there.

use nymix_net::Ip;
use nymix_store::cas::{self, ChunkIndex, ChunkManifest};
use nymix_store::{
    unseal_into, ArchiveCommitment, DeltaArchive, NymArchive, SealKey, SealScratch,
    DELTA_CHAIN_LIMIT,
};

use super::env::Environment;
use super::env::{dest_backend, storage_err};
use super::pipeline::{chunk_prefix, delta_label, EPOCH_RECORD};
use super::{NymManagerError, StorageDest};

/// What the read side of the pipeline recovers for a restore: the
/// chain key, the replayed archive (resolved for use — chunked records
/// reassembled and verified), and the stored-form bytes to swap back
/// before the archive becomes the continued chain's base.
pub(super) struct FetchedChain {
    pub archive: NymArchive,
    /// `(record name, stored manifest bytes, manifest)` for every
    /// resolved record — swapped back into `archive` when it becomes
    /// the chain's stored-form base. The manifest's every chunk id was
    /// checked against the resolved bytes.
    pub stored_overrides: Vec<(String, Vec<u8>, ChunkManifest)>,
    pub key: SealKey,
    pub epoch: u64,
    pub delta_count: usize,
    pub chunk_index: ChunkIndex,
    /// The commitment cache built over the base and advanced through
    /// every verified delta replay — it covers the stored form the
    /// continued chain starts from, so the session's next delta save
    /// is O(dirty) with no rebuild.
    pub commitment: ArchiveCommitment,
    pub fetched_bytes: usize,
}

/// Fetches and verifies a whole chain: base blob (one KDF from its
/// salt), Merkle-verified delta replay, then manifest resolution —
/// fetch, name-bound unseal, content-hash check, reassemble — failing
/// closed on anything missing, tampered or transplanted.
pub(super) fn fetch_chain(
    env: &mut Environment,
    label: &str,
    password: &str,
    dest: &StorageDest,
    fetch_exit: Option<Ip>,
    work: &mut Vec<u8>,
    scratch: &mut SealScratch,
) -> Result<FetchedChain, NymManagerError> {
    let seal_err = |e: nymix_store::SealedError| NymManagerError::Storage(e.to_string());
    nymix_obs::sim_clock(env.clock.as_micros());
    let now = env.clock;
    let mut opened = dest_backend(
        &mut env.cloud,
        &mut env.disk,
        env.striped.as_mut(),
        now,
        dest,
        fetch_exit,
    )?;
    let backend = opened.as_backend();
    let mut fetched_bytes = 0usize;

    // One KDF opens the whole chain: re-derive the chain key from the
    // base blob's salt, then open base + deltas keyed. The blob is
    // unsealed straight off the backend's borrow — no working copy
    // beyond the (reused) ciphertext buffer.
    let (chain_key, mut archive) = {
        let _span = nymix_obs::span!("fetch");
        let base_blob = backend
            .get(label)
            .map_err(storage_err)?
            .ok_or(NymManagerError::NothingStored)?;
        fetched_bytes += base_blob.len();
        let chain_key = SealKey::from_blob(password, label, base_blob).map_err(seal_err)?;
        let bytes = unseal_into(base_blob, &chain_key, label, work, scratch).map_err(seal_err)?;
        let archive =
            NymArchive::from_bytes(bytes).map_err(|e| NymManagerError::Storage(e.to_string()))?;
        (chain_key, archive)
    };

    // Replay the delta chain: each blob is bound to its slot label (no
    // splicing), each replay is Merkle-verified against the delta's
    // full-record-set commitment — any mismatch aborts the restore
    // instead of resurrecting silently-wrong state. The commitment
    // accumulator is built once over the base, then advanced leaf-wise
    // per delta, so verification rehashes only each delta's dirty
    // records instead of the whole record set per replay.
    //
    // Deltas land in slot order, so the chain ends at its first absent
    // slot; every slot is still read, because a present slot after a
    // gap means a delta was withheld and the prefix is an older state.
    let mut commitment = ArchiveCommitment::build(&archive);
    // Every full save writes the epoch record: a base without one
    // never came from this program.
    let epoch = archive
        .get(EPOCH_RECORD)
        .and_then(|b| <[u8; 8]>::try_from(b).ok())
        .map(u64::from_le_bytes)
        .ok_or_else(|| NymManagerError::Storage("base has no chain epoch record".into()))?;
    let mut delta_count = 0;
    {
        let _span = nymix_obs::span!("replay", "epoch" => epoch);
        for index in 1..=DELTA_CHAIN_LIMIT {
            let dlabel = delta_label(label, epoch, index);
            let delta = {
                let Some(dblob) = backend.get(&dlabel).map_err(storage_err)? else {
                    continue;
                };
                if delta_count + 1 < index {
                    let missing = delta_count + 1;
                    let e = format!("delta {missing} of chain epoch {epoch}");
                    return Err(NymManagerError::MissingObject(e));
                }
                fetched_bytes += dblob.len();
                let bytes =
                    unseal_into(dblob, &chain_key, &dlabel, work, scratch).map_err(seal_err)?;
                DeltaArchive::from_bytes(bytes)
                    .map_err(|e| NymManagerError::Storage(e.to_string()))?
            };
            delta
                .apply(&mut archive, &mut commitment)
                .map_err(|e| NymManagerError::Storage(e.to_string()))?;
            delta_count = index;
        }
    }

    // The replayed archive — verified against the chain's Merkle
    // commitment — is the *stored* form: large records hold chunk
    // manifests. Resolve each manifest in place (the stored bytes swap
    // out, to swap back when the archive becomes the continued chain's
    // base — no whole-archive clone), verifying every chunk against
    // its name-bound seal and content hash.
    let mut chunk_index = ChunkIndex::new();
    let mut stored_overrides = Vec::new();
    let _span = nymix_obs::span!("resolve", "epoch" => epoch);
    let prefix = chunk_prefix(label, epoch);
    let manifests: Vec<(String, ChunkManifest)> = archive
        .records()
        .filter_map(|(n, d)| {
            ChunkManifest::from_bytes(d)
                .ok()
                .map(|m| (n.to_string(), m))
        })
        .collect();
    for (record_name, manifest) in manifests {
        chunk_index.retain_manifest(&manifest);
        let mut resolved = Vec::with_capacity(manifest.total_len());
        // Absent and failed are different restore outcomes: a
        // manifest-required chunk the backend *answered* is gone
        // (GC'd away, provider withheld it) is a permanent
        // MissingObject — the stored state is incomplete — while a
        // backend that couldn't be reached leaves the state
        // presumed intact behind an Unavailable error.
        fetched_bytes += cas::fetch_record_into(
            &manifest,
            &chain_key,
            &prefix,
            backend,
            work,
            scratch,
            &mut resolved,
        )
        .map_err(|e| match e {
            cas::CasError::MissingChunk => NymManagerError::MissingObject(format!(
                "chunk of record {record_name:?} under {prefix:?}"
            )),
            cas::CasError::Backend(be) => storage_err(be),
            other => NymManagerError::Storage(other.to_string()),
        })?;
        let stored = archive
            .replace(&record_name, resolved)
            .expect("record present above");
        stored_overrides.push((record_name, stored, manifest));
    }

    Ok(FetchedChain {
        archive,
        stored_overrides,
        key: chain_key,
        epoch,
        delta_count,
        chunk_index,
        commitment,
        fetched_bytes,
    })
}
