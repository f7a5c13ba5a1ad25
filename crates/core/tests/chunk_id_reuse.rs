//! Pins, through the `crypto.sha256.blocks` counter, that the first
//! incremental save after a restore hashes only the chunks the nym
//! changed: the restore's checked chunk ids are reused for the rest.
//! This binary holds one test on purpose — it turns the process-global
//! recorder on, and a sibling test hashing on another harness thread
//! would land in the measured window.

use nymix::{NymId, NymManager, SaveKind, StorageDest, UsageModel};
use nymix_anon::AnonymizerKind;
use nymix_store::{chunker, records_root, ChunkManifest, NymArchive};
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
    disk_record(m, m.nymbox(id).unwrap().anon_vm, "anonvm.disk")
}

/// Record `name` of `vm`'s writable layer, serialized as a save would.
fn disk_record(m: &NymManager, vm: nymix_vmm::VmId, name: &str) -> Vec<u8> {
    let vm = m.hypervisor().vm(vm).unwrap();
    let mut archive = NymArchive::new();
    archive.put_layer(name, vm.disk().upper().unwrap());
    archive.get(name).unwrap().to_vec()
}

/// SHA-256 blocks of the records root of a six-record stored form
/// whose disk records are `anon_len` and `comm_len` bytes and whose
/// other records total `other_len`. Only the encoded length sets the
/// count, so the other bytes all go into one record.
fn root_blocks(anon_len: usize, comm_len: usize, other_len: usize) -> u64 {
    let mut archive = NymArchive::new();
    archive.put("anonvm.disk", vec![0; anon_len]);
    archive.put("commvm.disk", vec![0; comm_len]);
    archive.put("anonymizer.state", vec![0; other_len]);
    for name in ["meta", "browser.state", "snapshot.epoch"] {
        archive.put(name, Vec::new());
    }
    blocks_counted(|| {
        std::hint::black_box(records_root(&archive));
    })
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
/// the blocks with the AnonVM record before and after the stain, the
/// CommVM record the stain leaves clean, and the bytes of the records
/// other than the disks. The nym saves to the cloud, whose writes hash
/// nothing; the journaled disk would add its frame checksums to the
/// count.
fn stained_save_after_restore(chunked_base: bool) -> (u64, Vec<u8>, Vec<u8>, Vec<u8>, usize) {
    let dest = StorageDest::Cloud {
        provider: "drive".into(),
        account: "ck".into(),
        credential: "tok".into(),
    };
    let mut m = NymManager::new(77, 8);
    m.register_cloud("drive", "ck", "tok");
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
    let comm = disk_record(&m, m.nymbox(id).unwrap().comm_vm, "commvm.disk");
    let blocks = blocks_counted(|| {
        let (kind, _, _) = m.save_nym_incremental(id, "pw", &dest).unwrap();
        assert_eq!(kind, SaveKind::Delta);
    });
    let (_, _, other_len) = m.last_save_breakdown().unwrap();
    (blocks, before, after, comm, other_len)
}

#[test]
fn first_save_after_restore_hashes_only_the_changed_chunks() {
    nymix_obs::set_enabled(true);
    let (cached, before, after, comm, other_len) = stained_save_after_restore(true);
    let (cold, before_cold, after_cold, comm_cold, other_cold) = stained_save_after_restore(false);
    // Both runs save the same bytes; they differ only in what the
    // restored session could prove unchanged.
    assert_eq!((&before, &after), (&before_cold, &after_cold));
    assert_eq!((&comm, other_len), (&comm_cold, other_cold));

    let old: Vec<&[u8]> = chunker::chunks(&before).collect();
    let (kept, changed): (Vec<&[u8]>, Vec<&[u8]>) =
        chunker::chunks(&after).partition(|c| old.contains(c));
    assert!(
        !changed.is_empty() && changed.len() * 4 < kept.len(),
        "a stain touches a few chunks: {} changed, {} kept",
        changed.len(),
        kept.len()
    );
    // Both deltas commit to their stored form. The stain leaves the
    // CommVM disk clean, so it is not captured again: the cached run
    // stores it as the manifest its chunked base holds, the cold run
    // as the raw record its base holds, and the cold records root
    // hashes those raw bytes too.
    let manifest_len = |raw: &[u8]| ChunkManifest::build(raw).to_bytes().len();
    let anon_len = manifest_len(&after);
    let root_extra = root_blocks(anon_len, comm.len(), other_len)
        - root_blocks(anon_len, manifest_len(&comm), other_len);
    nymix_obs::set_enabled(false);
    // The cold save hashed every chunk; the cached one skipped exactly
    // the chunks the stain left alone, and nothing else changed.
    let kept_blocks: u64 = kept.iter().map(|c| id_blocks(c)).sum();
    assert_eq!(
        cold - cached,
        kept_blocks + root_extra,
        "cached save hashed {cached} blocks, cold save {cold}"
    );
}
