//! Pins, through the `crypto.sha256.blocks` counter, that the first
//! incremental save after a restore hashes only the chunks the nym
//! changed: the restore's checked chunk ids are reused for the rest.
//! This binary holds one test on purpose — it turns the process-global
//! recorder on, and a sibling test hashing on another harness thread
//! would land in the measured window.

use nymix::{NymId, NymManager, SaveKind, StorageDest, UsageModel};
use nymix_anon::AnonymizerKind;
use nymix_store::{chunker, NymArchive};
use nymix_workload::Site;

/// Runs `f` and returns how many SHA-256 blocks the recorder counted.
fn blocks_counted(f: impl FnOnce()) -> u64 {
    let read = || nymix_obs::snapshot().counter("crypto.sha256.blocks");
    let before = read();
    f();
    read() - before
}

/// The AnonVM disk record exactly as the next save captures it.
fn anon_record(m: &NymManager, id: NymId) -> Vec<u8> {
    let vm = m.hypervisor().vm(m.nymbox(id).unwrap().anon_vm).unwrap();
    let mut archive = NymArchive::new();
    archive.replace_layer("anonvm.disk", vm.disk().upper().unwrap());
    archive.get("anonvm.disk").unwrap().to_vec()
}

/// SHA-256 blocks one chunk id costs: the 16-byte domain tag, the
/// chunk, and the padding.
fn id_blocks(chunk: &[u8]) -> u64 {
    (16 + chunk.len() + 9).div_ceil(64) as u64
}

/// Saves a browsed nym, destroys it, restores it, stains it and counts
/// the blocks the stained save hashes. With `chunked_base` the stored
/// base holds chunk manifests, so the restore resolves and checks every
/// chunk and the session caches them; without it the base stores the
/// records raw and the restored session has nothing to reuse. Returns
/// the blocks with the AnonVM record before and after the stain.
fn stained_save_after_restore(chunked_base: bool) -> (u64, Vec<u8>, Vec<u8>) {
    let dest = StorageDest::Local;
    let mut m = NymManager::new(77, 8);
    let (id, _) = m
        .create_nym("ck", AnonymizerKind::Tor, UsageModel::Persistent)
        .unwrap();
    m.visit_site(id, Site::Twitter).unwrap();
    if chunked_base {
        m.save_nym_incremental(id, "pw", &dest).unwrap();
    } else {
        m.save_nym(id, "pw", &dest).unwrap();
    }
    // The session dies with its cache: only the restore can refill it.
    m.destroy_nym(id).unwrap();
    let (id, _) = m
        .restore_nym(
            "ck",
            AnonymizerKind::Tor,
            UsageModel::Persistent,
            "pw",
            &dest,
        )
        .unwrap();
    let before = anon_record(&m, id);
    m.inject_stain(id, "reuse-mark").unwrap();
    let after = anon_record(&m, id);
    let blocks = blocks_counted(|| {
        let (kind, _, _) = m.save_nym_incremental(id, "pw", &dest).unwrap();
        assert_eq!(kind, SaveKind::Delta);
    });
    (blocks, before, after)
}

#[test]
fn first_save_after_restore_hashes_only_the_changed_chunks() {
    nymix_obs::set_enabled(true);
    let (cached, before, after) = stained_save_after_restore(true);
    let (cold, before_cold, after_cold) = stained_save_after_restore(false);
    nymix_obs::set_enabled(false);
    // Both runs save the same bytes; they differ only in what the
    // restored session could prove unchanged.
    assert_eq!((&before, &after), (&before_cold, &after_cold));

    let old: Vec<&[u8]> = chunker::chunks(&before).collect();
    let (kept, changed): (Vec<&[u8]>, Vec<&[u8]>) =
        chunker::chunks(&after).partition(|c| old.contains(c));
    assert!(
        !changed.is_empty() && changed.len() * 4 < kept.len(),
        "a stain touches a few chunks: {} changed, {} kept",
        changed.len(),
        kept.len()
    );
    // The cold save hashed every chunk; the cached one skipped exactly
    // the chunks the stain left alone, and nothing else changed.
    let kept_blocks: u64 = kept.iter().map(|c| id_blocks(c)).sum();
    assert_eq!(
        cold - cached,
        kept_blocks,
        "cached save hashed {cached} blocks, cold save {cold}"
    );
}
