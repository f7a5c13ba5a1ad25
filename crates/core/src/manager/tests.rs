//! Facade-level tests: the public `NymManager` behavior across the
//! env / session / pipeline layers, plus the fleet scheduler and
//! cross-nym isolation under a shared backend.

use super::*;
use fleet::FleetSaveRequest;
use nymix_anon::AnonymizerKind;
use nymix_sim::SimDuration;
use nymix_store::DELTA_CHAIN_LIMIT;
use nymix_workload::Site;

pub(super) fn manager() -> NymManager {
    NymManager::new(42, 64)
}

#[test]
fn fresh_nym_within_paper_band() {
    let mut m = manager();
    let (id, breakdown) = m
        .create_nym("reader", AnonymizerKind::Tor, UsageModel::Ephemeral)
        .unwrap();
    let page = m.visit_site(id, Site::Twitter).unwrap();
    let total = breakdown.total() + page;
    // Abstract: "loads within 15 to 25 seconds".
    assert!((15.0..25.0).contains(&total.as_secs_f64()), "total {total}");
}

#[test]
fn visits_pay_the_anonymizer_rate_cap() {
    let mut m = manager();
    let page = Site::Twitter.profile().page_weight as f64;

    // Tor imposes no cap: the page moves at the access link's rate.
    let (tor, _) = m
        .create_nym("tor", AnonymizerKind::Tor, UsageModel::Ephemeral)
        .unwrap();
    let cost = m.anonymizer(tor).unwrap().transfer_cost();
    let expect = nymix_net::access_transfer(cost.wire_bytes(page), f64::INFINITY)
        + cost.connect_latency
        + tcal::PAGE_RENDER;
    assert_eq!(m.visit_site(tor, Site::Twitter).unwrap(), expect);

    // SWEET's e-mail tunnel caps the flow far below the link rate.
    let (sweet, _) = m
        .create_nym("sweet", AnonymizerKind::Sweet, UsageModel::Ephemeral)
        .unwrap();
    let wire = m
        .anonymizer(sweet)
        .unwrap()
        .transfer_cost()
        .wire_bytes(page);
    let floor = wire / nymix_anon::sweet::calib::RATE_CAP;
    let load = m.visit_site(sweet, Site::Twitter).unwrap().as_secs_f64();
    assert!(
        load >= floor,
        "SWEET page load {load} s beats its cap's {floor} s"
    );
}

#[test]
fn nymbox_is_two_vms() {
    let mut m = manager();
    let (id, _) = m
        .create_nym("n", AnonymizerKind::Tor, UsageModel::Ephemeral)
        .unwrap();
    let nb = m.nymbox(id).unwrap();
    assert_ne!(nb.anon_vm, nb.comm_vm);
    assert_eq!(m.hypervisor().vm_count(), 2);
    let anon = m.hypervisor().vm(nb.anon_vm).unwrap();
    let comm = m.hypervisor().vm(nb.comm_vm).unwrap();
    assert_eq!(anon.config().role, nymix_vmm::VmRole::Anon);
    assert_eq!(comm.config().role, nymix_vmm::VmRole::Comm);
}

#[test]
fn destroy_wipes_and_frees() {
    let mut m = manager();
    let (id, _) = m
        .create_nym("n", AnonymizerKind::Tor, UsageModel::Ephemeral)
        .unwrap();
    m.visit_site(id, Site::Bbc).unwrap();
    m.destroy_nym(id).unwrap();
    assert_eq!(m.hypervisor().vm_count(), 0);
    assert!(matches!(
        m.visit_site(id, Site::Bbc),
        Err(NymManagerError::NoSuchNym(_))
    ));
}

#[test]
fn stain_does_not_survive_ephemeral_nym() {
    let mut m = manager();
    let (id, _) = m
        .create_nym("n", AnonymizerKind::Tor, UsageModel::Ephemeral)
        .unwrap();
    m.inject_stain(id, "evercookie-77").unwrap();
    assert!(m.has_stain(id, "evercookie-77").unwrap());
    m.destroy_nym(id).unwrap();
    let (id2, _) = m
        .create_nym("n", AnonymizerKind::Tor, UsageModel::Ephemeral)
        .unwrap();
    assert!(!m.has_stain(id2, "evercookie-77").unwrap());
}

#[test]
fn save_restore_roundtrip_via_cloud() {
    let mut m = manager();
    m.register_cloud("dropbox", "anon-4711", "tok");
    let (id, _) = m
        .create_nym("alice", AnonymizerKind::Tor, UsageModel::Persistent)
        .unwrap();
    m.visit_site(id, Site::Twitter).unwrap();
    let dest = StorageDest::Cloud {
        provider: "dropbox".into(),
        account: "anon-4711".into(),
        credential: "tok".into(),
    };
    let (size, _dur) = m.save_nym(id, "pw", &dest).unwrap();
    assert!(size > 0);
    m.destroy_nym(id).unwrap();

    let (id2, breakdown) = m
        .restore_nym(
            "alice",
            AnonymizerKind::Tor,
            UsageModel::Persistent,
            "pw",
            &dest,
        )
        .unwrap();
    assert!(breakdown.ephemeral_fetch > SimDuration::ZERO);
    assert!(m.nymbox(id2).unwrap().restored);
    // Credentials survived: the browser still knows twitter.com.
    let vm = m.hypervisor().vm(m.nymbox(id2).unwrap().anon_vm).unwrap();
    assert!(vm.disk().exists(&nymix_fs::Path::new(
        "/home/user/.config/chromium/logins/twitter.com"
    )));
}

#[test]
fn wrong_password_fails_restore() {
    let mut m = manager();
    let (id, _) = m
        .create_nym("bob", AnonymizerKind::Tor, UsageModel::Persistent)
        .unwrap();
    m.save_nym(id, "right", &StorageDest::Local).unwrap();
    m.destroy_nym(id).unwrap();
    assert!(matches!(
        m.restore_nym(
            "bob",
            AnonymizerKind::Tor,
            UsageModel::Persistent,
            "wrong",
            &StorageDest::Local
        ),
        Err(NymManagerError::Storage(_))
    ));
}

#[test]
fn local_restore_skips_ephemeral_nym() {
    let mut m = manager();
    let (id, _) = m
        .create_nym("carol", AnonymizerKind::Tor, UsageModel::PreConfigured)
        .unwrap();
    m.save_nym(id, "pw", &StorageDest::Local).unwrap();
    m.destroy_nym(id).unwrap();
    let (_, breakdown) = m
        .restore_nym(
            "carol",
            AnonymizerKind::Tor,
            UsageModel::PreConfigured,
            "pw",
            &StorageDest::Local,
        )
        .unwrap();
    assert!(breakdown.ephemeral_fetch < SimDuration::from_secs(3));
    // Warm anonymizer start beats a cold one.
    let (_, fresh) = m
        .create_nym("fresh", AnonymizerKind::Tor, UsageModel::Ephemeral)
        .unwrap();
    assert!(breakdown.start_anonymizer < fresh.start_anonymizer);
}

#[test]
fn cloud_provider_never_sees_user_ip() {
    let mut m = manager();
    m.register_cloud("drive", "acct", "tok");
    let (id, _) = m
        .create_nym("dave", AnonymizerKind::Tor, UsageModel::Persistent)
        .unwrap();
    let dest = StorageDest::Cloud {
        provider: "drive".into(),
        account: "acct".into(),
        credential: "tok".into(),
    };
    m.save_nym(id, "pw", &dest).unwrap();
    let user_ip = m.public_ip();
    let provider = m.cloud_provider("drive").unwrap();
    for entry in provider.access_log() {
        assert_ne!(entry.observed_ip, user_ip, "provider saw the user");
    }
}

#[test]
fn incognito_mode_leaks_ip_to_provider() {
    // The documented trade-off: incognito's exit is the user.
    let mut m = manager();
    m.register_cloud("drive", "acct", "tok");
    let (id, _) = m
        .create_nym("erin", AnonymizerKind::Incognito, UsageModel::Persistent)
        .unwrap();
    let dest = StorageDest::Cloud {
        provider: "drive".into(),
        account: "acct".into(),
        credential: "tok".into(),
    };
    m.save_nym(id, "pw", &dest).unwrap();
    let user_ip = m.public_ip();
    assert!(m
        .cloud_provider("drive")
        .unwrap()
        .access_log()
        .iter()
        .any(|e| e.observed_ip == user_ip));
}

#[test]
fn persistent_nym_grows_across_cycles() {
    let mut m = manager();
    let (mut id, _) = m
        .create_nym("grower", AnonymizerKind::Tor, UsageModel::Persistent)
        .unwrap();
    let mut sizes = Vec::new();
    for _ in 0..4 {
        m.visit_site(id, Site::Facebook).unwrap();
        let (size, _) = m.save_nym(id, "pw", &StorageDest::Local).unwrap();
        sizes.push(size);
        m.destroy_nym(id).unwrap();
        let (nid, _) = m
            .restore_nym(
                "grower",
                AnonymizerKind::Tor,
                UsageModel::Persistent,
                "pw",
                &StorageDest::Local,
            )
            .unwrap();
        id = nid;
    }
    assert!(
        sizes.windows(2).all(|w| w[1] > w[0]),
        "persistent nym should grow: {sizes:?}"
    );
}

#[test]
fn incremental_save_seals_only_the_delta() {
    let mut m = manager();
    let (id, _) = m
        .create_nym("inc", AnonymizerKind::Tor, UsageModel::Persistent)
        .unwrap();
    m.visit_site(id, Site::Twitter).unwrap();
    // First save: no chain yet, must be full.
    let (kind, full_size, _) = m
        .save_nym_incremental(id, "pw", &StorageDest::Local)
        .unwrap();
    assert_eq!(kind, SaveKind::Full);
    // A tiny change — new guard state dirties only the
    // anonymizer.state record; both disk records stay clean and are
    // neither re-serialized nor re-sealed.
    m.seed_guards_deterministically(id, "usb://nyms/inc", "pw")
        .unwrap();
    let (kind, delta_size, _) = m
        .save_nym_incremental(id, "pw", &StorageDest::Local)
        .unwrap();
    assert_eq!(kind, SaveKind::Delta);
    assert!(
        delta_size * 10 < full_size,
        "delta {delta_size} not small vs full {full_size}"
    );
    // The delta rides a chained object, not the base slot.
    assert!(m.local_store().get("nym:inc@local#e1.1").is_some());
    // A stain (browser + AnonVM disk) still saves as a delta: two
    // dirty records out of five.
    m.inject_stain(id, "evercookie-9").unwrap();
    let (kind, stain_delta, _) = m
        .save_nym_incremental(id, "pw", &StorageDest::Local)
        .unwrap();
    assert_eq!(kind, SaveKind::Delta);
    assert!(stain_delta < full_size);

    // Restore replays base + delta: the stain must be visible.
    m.destroy_nym(id).unwrap();
    let (id2, _) = m
        .restore_nym(
            "inc",
            AnonymizerKind::Tor,
            UsageModel::Persistent,
            "pw",
            &StorageDest::Local,
        )
        .unwrap();
    assert!(m.has_stain(id2, "evercookie-9").unwrap());
    // Credentials from the pre-delta session survived too.
    let vm = m.hypervisor().vm(m.nymbox(id2).unwrap().anon_vm).unwrap();
    assert!(vm.disk().exists(&nymix_fs::Path::new(
        "/home/user/.config/chromium/logins/twitter.com"
    )));
    // The restored chain keeps accepting deltas where it left off.
    m.inject_stain(id2, "evercookie-10").unwrap();
    let (kind, _, _) = m
        .save_nym_incremental(id2, "pw", &StorageDest::Local)
        .unwrap();
    assert_eq!(kind, SaveKind::Delta);
    assert!(m.local_store().get("nym:inc@local#e1.3").is_some());
}

#[test]
fn clean_saves_stay_deltas_and_chains_compact() {
    let mut m = manager();
    let (id, _) = m
        .create_nym("c", AnonymizerKind::Tor, UsageModel::Persistent)
        .unwrap();
    m.visit_site(id, Site::Bbc).unwrap();
    let mut kinds = Vec::new();
    for i in 0..=nymix_store::DELTA_CHAIN_LIMIT + 1 {
        if i > 0 {
            m.inject_stain(id, &format!("mark-{i}")).unwrap();
        }
        let (kind, _, _) = m
            .save_nym_incremental(id, "pw", &StorageDest::Local)
            .unwrap();
        kinds.push(kind);
    }
    // Full, then DELTA_CHAIN_LIMIT deltas, then compaction (full).
    let mut expected = vec![SaveKind::Full];
    expected.extend([SaveKind::Delta; nymix_store::DELTA_CHAIN_LIMIT]);
    expected.push(SaveKind::Full);
    assert_eq!(kinds, expected);
    // The compacted restore carries every mark.
    m.destroy_nym(id).unwrap();
    let (id2, _) = m
        .restore_nym(
            "c",
            AnonymizerKind::Tor,
            UsageModel::Persistent,
            "pw",
            &StorageDest::Local,
        )
        .unwrap();
    for i in 1..=nymix_store::DELTA_CHAIN_LIMIT + 1 {
        assert!(m.has_stain(id2, &format!("mark-{i}")).unwrap(), "mark-{i}");
    }
}

#[test]
fn incremental_save_via_cloud_roundtrips() {
    let mut m = manager();
    m.register_cloud("dropbox", "anon-1", "tok");
    let dest = StorageDest::Cloud {
        provider: "dropbox".into(),
        account: "anon-1".into(),
        credential: "tok".into(),
    };
    let (id, _) = m
        .create_nym("cl", AnonymizerKind::Tor, UsageModel::Persistent)
        .unwrap();
    m.visit_site(id, Site::Twitter).unwrap();
    m.save_nym_incremental(id, "pw", &dest).unwrap();
    m.inject_stain(id, "cloud-mark").unwrap();
    let (kind, _, _) = m.save_nym_incremental(id, "pw", &dest).unwrap();
    assert_eq!(kind, SaveKind::Delta);
    m.destroy_nym(id).unwrap();
    let (id2, breakdown) = m
        .restore_nym(
            "cl",
            AnonymizerKind::Tor,
            UsageModel::Persistent,
            "pw",
            &dest,
        )
        .unwrap();
    assert!(breakdown.ephemeral_fetch > SimDuration::ZERO);
    assert!(m.has_stain(id2, "cloud-mark").unwrap());
    // The provider never saw the user's address, deltas included.
    let user_ip = m.public_ip();
    for entry in m.cloud_provider("dropbox").unwrap().access_log() {
        assert_ne!(entry.observed_ip, user_ip);
    }
}

#[test]
fn tampered_delta_fails_restore_closed() {
    let mut m = manager();
    let (id, _) = m
        .create_nym("t", AnonymizerKind::Tor, UsageModel::Persistent)
        .unwrap();
    m.visit_site(id, Site::Bbc).unwrap();
    m.save_nym_incremental(id, "pw", &StorageDest::Local)
        .unwrap();
    m.inject_stain(id, "x").unwrap();
    let (kind, _, _) = m
        .save_nym_incremental(id, "pw", &StorageDest::Local)
        .unwrap();
    assert_eq!(kind, SaveKind::Delta);
    m.destroy_nym(id).unwrap();
    // Flip one ciphertext byte in the stored delta object.
    let mut blob = m.env.local.get("nym:t@local#e1.1").unwrap().to_vec();
    let mid = blob.len() / 2;
    blob[mid] ^= 1;
    m.env.local.put("nym:t@local#e1.1", blob);
    assert!(matches!(
        m.restore_nym(
            "t",
            AnonymizerKind::Tor,
            UsageModel::Persistent,
            "pw",
            &StorageDest::Local
        ),
        Err(NymManagerError::Storage(_))
    ));
}

#[test]
fn delta_chain_slots_cannot_be_swapped() {
    let mut m = manager();
    let (id, _) = m
        .create_nym("s", AnonymizerKind::Tor, UsageModel::Persistent)
        .unwrap();
    m.visit_site(id, Site::Bbc).unwrap();
    m.save_nym_incremental(id, "pw", &StorageDest::Local)
        .unwrap();
    for mark in ["a", "b"] {
        m.inject_stain(id, mark).unwrap();
        m.save_nym_incremental(id, "pw", &StorageDest::Local)
            .unwrap();
    }
    m.destroy_nym(id).unwrap();
    // A malicious backend swaps the two delta objects: each blob
    // still authenticates under the chain key, but against the
    // wrong slot label — restore must refuse.
    let d1 = m.env.local.get("nym:s@local#e1.1").unwrap().to_vec();
    let d2 = m.env.local.get("nym:s@local#e1.2").unwrap().to_vec();
    m.env.local.put("nym:s@local#e1.1", d2);
    m.env.local.put("nym:s@local#e1.2", d1);
    assert!(matches!(
        m.restore_nym(
            "s",
            AnonymizerKind::Tor,
            UsageModel::Persistent,
            "pw",
            &StorageDest::Local
        ),
        Err(NymManagerError::Storage(_))
    ));
}

#[test]
fn recreated_nym_does_not_collide_with_stale_chain() {
    // A destroyed nym leaves its chain objects behind; a brand-new
    // nym with the same name must start a fresh epoch so the stale
    // deltas (sealed under the old chain key) are never replayed
    // into its restores.
    let mut m = manager();
    let (id, _) = m
        .create_nym("re", AnonymizerKind::Tor, UsageModel::Persistent)
        .unwrap();
    m.visit_site(id, Site::Bbc).unwrap();
    m.save_nym_incremental(id, "pw", &StorageDest::Local)
        .unwrap();
    m.inject_stain(id, "old-life").unwrap();
    m.save_nym_incremental(id, "pw", &StorageDest::Local)
        .unwrap();
    assert!(m.local_store().get("nym:re@local#e1.1").is_some());
    m.destroy_nym(id).unwrap();

    // Fresh nym, same name: full save must take epoch 2, not 1.
    let (id2, _) = m
        .create_nym("re", AnonymizerKind::Tor, UsageModel::Persistent)
        .unwrap();
    let (kind, _, _) = m
        .save_nym_incremental(id2, "pw", &StorageDest::Local)
        .unwrap();
    assert_eq!(kind, SaveKind::Full);
    m.destroy_nym(id2).unwrap();
    let (id3, _) = m
        .restore_nym(
            "re",
            AnonymizerKind::Tor,
            UsageModel::Persistent,
            "pw",
            &StorageDest::Local,
        )
        .unwrap();
    // The restored state is the fresh nym's, not the stained one.
    assert!(!m.has_stain(id3, "old-life").unwrap());
}

/// Chunk-object names the local store currently holds.
fn chunk_objects(m: &NymManager) -> Vec<String> {
    m.local_store()
        .list()
        .into_iter()
        .filter(|n| n.contains("/c/"))
        .map(str::to_string)
        .collect()
}

/// A manager at low browser scale so disk records cross the chunk
/// threshold, with one browser session saved incrementally.
fn chunked_setup(seed: u64) -> (NymManager, NymId, usize) {
    let mut m = NymManager::new(seed, 8);
    let (id, _) = m
        .create_nym("ck", AnonymizerKind::Tor, UsageModel::Persistent)
        .unwrap();
    m.visit_site(id, Site::Twitter).unwrap();
    let (kind, full_uploaded, _) = m
        .save_nym_incremental(id, "pw", &StorageDest::Local)
        .unwrap();
    assert_eq!(kind, SaveKind::Full);
    (m, id, full_uploaded)
}

#[test]
fn chunked_save_dedups_and_roundtrips() {
    let (mut m, id, full_uploaded) = chunked_setup(77);
    // The base shipped manifests + chunk objects.
    let after_full = chunk_objects(&m);
    assert!(!after_full.is_empty(), "large records should chunk");

    // A stain dirties the big AnonVM disk record; the delta ships
    // the new manifest plus only the chunks the write touched —
    // far fewer bytes than the base (which re-ships everything).
    m.inject_stain(id, "cas-mark").unwrap();
    let (kind, delta_uploaded, _) = m
        .save_nym_incremental(id, "pw", &StorageDest::Local)
        .unwrap();
    assert_eq!(kind, SaveKind::Delta);
    assert!(
        delta_uploaded * 4 < full_uploaded,
        "chunked delta {delta_uploaded} vs full {full_uploaded}"
    );

    // Restore replays the chain and resolves every manifest.
    m.destroy_nym(id).unwrap();
    let (id2, _) = m
        .restore_nym(
            "ck",
            AnonymizerKind::Tor,
            UsageModel::Persistent,
            "pw",
            &StorageDest::Local,
        )
        .unwrap();
    assert!(m.has_stain(id2, "cas-mark").unwrap());
    let vm = m.hypervisor().vm(m.nymbox(id2).unwrap().anon_vm).unwrap();
    assert!(vm.disk().exists(&nymix_fs::Path::new(
        "/home/user/.config/chromium/logins/twitter.com"
    )));
    // The restored chain keeps absorbing chunked deltas.
    m.inject_stain(id2, "cas-mark-2").unwrap();
    let (kind, _, _) = m
        .save_nym_incremental(id2, "pw", &StorageDest::Local)
        .unwrap();
    assert_eq!(kind, SaveKind::Delta);
}

/// The AnonVM disk record exactly as the next save would capture it.
fn anon_record(m: &NymManager, id: NymId) -> Vec<u8> {
    let vm = m.hypervisor().vm(m.nymbox(id).unwrap().anon_vm).unwrap();
    let mut archive = nymix_store::NymArchive::new();
    archive.replace_layer("anonvm.disk", vm.disk().upper().unwrap());
    archive.get("anonvm.disk").unwrap().to_vec()
}

#[test]
fn chunk_cache_is_per_session_and_refilled_by_restore() {
    use nymix_store::ChunkManifest;
    let (mut m, id, _) = chunked_setup(78);
    // The save moved each chunked record's raw bytes into the cache,
    // beside the manifest its chain stored.
    let session = &m.sessions[&id];
    let chain = session.chains.values().next().unwrap();
    assert!(session.chunk_cache.contains_key("anonvm.disk"));
    for (name, (raw, manifest)) in &session.chunk_cache {
        let stored = ChunkManifest::from_bytes(chain.archive.get(name).unwrap()).unwrap();
        assert_eq!(*manifest, stored, "{name}");
        assert_eq!(*manifest, ChunkManifest::build(raw), "{name}");
    }
    let names: Vec<String> = session.chunk_cache.keys().cloned().collect();
    assert_eq!(session.chunk_cache["anonvm.disk"].0, anon_record(&m, id));

    // Destroy drops the cache with the session; a nym recreated under
    // the same name starts with nothing to reuse.
    m.destroy_nym(id).unwrap();
    assert!(!m.sessions.contains_key(&id));
    let (fresh, _) = m
        .create_nym("ck", AnonymizerKind::Tor, UsageModel::Persistent)
        .unwrap();
    assert!(m.sessions[&fresh].chunk_cache.is_empty());
    m.destroy_nym(fresh).unwrap();

    // A restore refills it from the resolved records, which are the
    // bytes the next capture produces.
    let (id2, _) = m
        .restore_nym(
            "ck",
            AnonymizerKind::Tor,
            UsageModel::Persistent,
            "pw",
            &StorageDest::Local,
        )
        .unwrap();
    let cache = &m.sessions[&id2].chunk_cache;
    assert_eq!(cache.keys().cloned().collect::<Vec<_>>(), names);
    assert_eq!(cache["anonvm.disk"].0, anon_record(&m, id2));

    // Ids are content hashes, not per epoch: the cache survives the
    // compaction that the chain limit forces, refreshed by every save.
    let mut kinds = Vec::new();
    for i in 0..=DELTA_CHAIN_LIMIT {
        m.inject_stain(id2, &format!("cache-{i}")).unwrap();
        let (kind, _, _) = m
            .save_nym_incremental(id2, "pw", &StorageDest::Local)
            .unwrap();
        kinds.push(kind);
        assert_eq!(
            m.sessions[&id2].chunk_cache["anonvm.disk"].0,
            anon_record(&m, id2)
        );
    }
    assert_eq!(kinds.last(), Some(&SaveKind::Full), "{kinds:?}");
}

#[test]
fn tampered_chunk_fails_restore_closed() {
    let (mut m, id, _) = chunked_setup(78);
    m.destroy_nym(id).unwrap();
    let victim = chunk_objects(&m)[0].clone();
    let mut blob = m.env.local.get(&victim).unwrap().to_vec();
    let mid = blob.len() / 2;
    blob[mid] ^= 1;
    m.env.local.put(&victim, blob);
    assert!(matches!(
        m.restore_nym(
            "ck",
            AnonymizerKind::Tor,
            UsageModel::Persistent,
            "pw",
            &StorageDest::Local
        ),
        Err(NymManagerError::Storage(_))
    ));
}

#[test]
fn swapped_chunks_fail_restore_closed() {
    let (mut m, id, _) = chunked_setup(79);
    m.destroy_nym(id).unwrap();
    // Each chunk is sealed with its own object name as AEAD data:
    // a backend serving chunk A's bytes under chunk B's name fails
    // authentication even though both blobs are individually valid.
    let names = chunk_objects(&m);
    assert!(names.len() >= 2, "need two chunks to swap");
    let a = m.env.local.get(&names[0]).unwrap().to_vec();
    let b = m.env.local.get(&names[1]).unwrap().to_vec();
    m.env.local.put(&names[0], b);
    m.env.local.put(&names[1], a);
    assert!(matches!(
        m.restore_nym(
            "ck",
            AnonymizerKind::Tor,
            UsageModel::Persistent,
            "pw",
            &StorageDest::Local
        ),
        Err(NymManagerError::Storage(_))
    ));
}

#[test]
fn gcd_away_chunk_fails_restore_closed() {
    let (mut m, id, _) = chunked_setup(80);
    m.destroy_nym(id).unwrap();
    let victim = chunk_objects(&m)[0].clone();
    assert!(m.env.local.delete(&victim));
    // The backend answered and the chunk is *gone* — the distinct
    // authoritatively-absent error, not a generic storage failure and
    // not Unavailable (nothing is down; retrying cannot help).
    assert!(matches!(
        m.restore_nym(
            "ck",
            AnonymizerKind::Tor,
            UsageModel::Persistent,
            "pw",
            &StorageDest::Local
        ),
        Err(NymManagerError::MissingObject(_))
    ));
}

#[test]
fn compaction_sweeps_retired_epoch_chunks() {
    let (mut m, id, _) = chunked_setup(81);
    let epoch1: Vec<String> = chunk_objects(&m);
    assert!(epoch1.iter().all(|n| n.contains("#e1/")), "{epoch1:?}");
    // Run the chain past the delta limit so a save compacts into a
    // new epoch; epoch 1's chunk and delta objects must be swept.
    for i in 0..=DELTA_CHAIN_LIMIT {
        m.inject_stain(id, &format!("gc-{i}")).unwrap();
        m.save_nym_incremental(id, "pw", &StorageDest::Local)
            .unwrap();
    }
    let now = chunk_objects(&m);
    assert!(
        now.iter().all(|n| n.contains("#e2/")),
        "old-epoch chunks not swept: {now:?}"
    );
    assert!(m.local_store().get("nym:ck@local#e1.1").is_none());
    // The compacted chain restores with every mark intact.
    m.destroy_nym(id).unwrap();
    let (id2, _) = m
        .restore_nym(
            "ck",
            AnonymizerKind::Tor,
            UsageModel::Persistent,
            "pw",
            &StorageDest::Local,
        )
        .unwrap();
    for i in 0..=DELTA_CHAIN_LIMIT {
        assert!(m.has_stain(id2, &format!("gc-{i}")).unwrap(), "gc-{i}");
    }
}

#[test]
fn cloud_compaction_sweeps_retired_epoch() {
    // The Cloud destination sweeps through the trait's default
    // `apply_batch` (puts, then one delete per name): a compacting
    // save must leave no epoch-1 delta or chunk object in the account.
    let mut m = NymManager::new(84, 8);
    m.register_cloud("dropbox", "anon-gc", "tok");
    let dest = StorageDest::Cloud {
        provider: "dropbox".into(),
        account: "anon-gc".into(),
        credential: "tok".into(),
    };
    let (id, _) = m
        .create_nym("cg", AnonymizerKind::Tor, UsageModel::Persistent)
        .unwrap();
    m.visit_site(id, Site::Twitter).unwrap();
    m.save_nym_incremental(id, "pw", &dest).unwrap();
    let objects = |m: &NymManager, epoch: &str| -> Vec<String> {
        m.cloud_provider("dropbox")
            .unwrap()
            .subpoena("anon-gc")
            .into_iter()
            .map(|(n, _)| n.to_string())
            .filter(|n| n.contains(epoch))
            .collect()
    };
    assert!(
        !objects(&m, "#e1/c/").is_empty(),
        "large records should chunk"
    );
    for i in 0..=DELTA_CHAIN_LIMIT {
        m.inject_stain(id, &format!("cgc-{i}")).unwrap();
        m.save_nym_incremental(id, "pw", &dest).unwrap();
    }
    let stale = objects(&m, "#e1");
    assert!(stale.is_empty(), "old-epoch objects not swept: {stale:?}");
    assert!(!objects(&m, "#e2").is_empty());
    // The compacted chain restores with every mark intact.
    m.destroy_nym(id).unwrap();
    let (id2, _) = m
        .restore_nym(
            "cg",
            AnonymizerKind::Tor,
            UsageModel::Persistent,
            "pw",
            &dest,
        )
        .unwrap();
    for i in 0..=DELTA_CHAIN_LIMIT {
        assert!(m.has_stain(id2, &format!("cgc-{i}")).unwrap(), "cgc-{i}");
    }
}

#[test]
fn chunked_cloud_save_hides_user_behind_exit() {
    // Chunk uploads multiply provider operations; every one of them
    // must still show only the anonymizer's exit address.
    let mut m = NymManager::new(83, 8);
    m.register_cloud("dropbox", "anon-9", "tok");
    let dest = StorageDest::Cloud {
        provider: "dropbox".into(),
        account: "anon-9".into(),
        credential: "tok".into(),
    };
    let (id, _) = m
        .create_nym("cc", AnonymizerKind::Tor, UsageModel::Persistent)
        .unwrap();
    m.visit_site(id, Site::Twitter).unwrap();
    m.save_nym_incremental(id, "pw", &dest).unwrap();
    m.inject_stain(id, "cloud-cas").unwrap();
    m.save_nym_incremental(id, "pw", &dest).unwrap();
    m.destroy_nym(id).unwrap();
    let (id2, _) = m
        .restore_nym(
            "cc",
            AnonymizerKind::Tor,
            UsageModel::Persistent,
            "pw",
            &dest,
        )
        .unwrap();
    assert!(m.has_stain(id2, "cloud-cas").unwrap());
    let user_ip = m.public_ip();
    let provider = m.cloud_provider("dropbox").unwrap();
    assert!(provider.access_log().total_recorded() > 4);
    for entry in provider.access_log() {
        assert_ne!(entry.observed_ip, user_ip, "provider saw the user");
    }
}

#[test]
fn deterministic_guard_extension() {
    let mut m = manager();
    let (a, _) = m
        .create_nym("x", AnonymizerKind::Tor, UsageModel::Persistent)
        .unwrap();
    let s1 = m
        .seed_guards_deterministically(a, "dropbox://nyms/x", "pw")
        .unwrap();
    let (b, _) = m
        .create_nym("y", AnonymizerKind::Tor, UsageModel::Ephemeral)
        .unwrap();
    let s2 = m
        .seed_guards_deterministically(b, "dropbox://nyms/x", "pw")
        .unwrap();
    assert_eq!(s1, s2, "same location+password must give same guards");
}

#[test]
fn admission_eventually_refuses() {
    let mut m = manager();
    let mut created = 0;
    loop {
        match m.create_nym("n", AnonymizerKind::Incognito, UsageModel::Ephemeral) {
            Ok(_) => created += 1,
            Err(NymManagerError::Hypervisor(HypervisorError::InsufficientMemory { .. })) => break,
            Err(e) => panic!("unexpected: {e}"),
        }
        assert!(created < 64);
    }
    // 16 GiB host, ~706 MiB/nymbox: low twenties.
    assert!((20..24).contains(&created), "created {created}");
}

#[test]
fn delta_saves_do_not_drain_orphaned_chunk_registry() {
    // A destroyed nym's chunk objects are registered as orphans and
    // must survive any number of *delta* saves under the same label —
    // only the next compaction sweeps them. (Regression: the seal
    // stage used to drain the orphan list on every save, so a delta in
    // between dropped it without deleting anything and the dead nym's
    // chunks leaked on the backend forever.)
    let mut m = NymManager::new(91, 8);
    let (a, _) = m
        .create_nym("twin", AnonymizerKind::Tor, UsageModel::Persistent)
        .unwrap();
    m.visit_site(a, Site::Twitter).unwrap();
    m.save_nym_incremental(a, "pw", &StorageDest::Local)
        .unwrap(); // epoch 1, chunks on disk
    let epoch1: Vec<String> = chunk_objects(&m);
    assert!(epoch1.iter().any(|n| n.contains("#e1/")), "{epoch1:?}");

    // A second nym takes over the label with a full save (epoch 2),
    // then the first nym dies — its epoch-1 chunks become orphans.
    let (b, _) = m
        .create_nym("twin", AnonymizerKind::Tor, UsageModel::Persistent)
        .unwrap();
    m.visit_site(b, Site::Bbc).unwrap();
    m.save_nym_incremental(b, "pw", &StorageDest::Local)
        .unwrap(); // epoch 2
    m.destroy_nym(a).unwrap();

    // Delta saves on b's chain must leave the orphans alone.
    m.inject_stain(b, "delta-1").unwrap();
    let (kind, _, _) = m
        .save_nym_incremental(b, "pw", &StorageDest::Local)
        .unwrap();
    assert_eq!(kind, SaveKind::Delta);
    assert!(
        chunk_objects(&m).iter().any(|n| n.contains("#e1/")),
        "delta save must not sweep (or forget) the dead nym's chunks"
    );

    // Run the chain into compaction: now the orphans are swept.
    for i in 0..=DELTA_CHAIN_LIMIT {
        m.inject_stain(b, &format!("fill-{i}")).unwrap();
        m.save_nym_incremental(b, "pw", &StorageDest::Local)
            .unwrap();
    }
    assert!(
        chunk_objects(&m).iter().all(|n| !n.contains("#e1/")),
        "compaction must sweep the orphaned epoch-1 chunks: {:?}",
        chunk_objects(&m)
    );
}

#[test]
fn disk_save_restore_roundtrip_survives_detach() {
    let mut m = manager();
    let (id, _) = m
        .create_nym("disky", AnonymizerKind::Tor, UsageModel::Persistent)
        .unwrap();
    m.visit_site(id, Site::Twitter).unwrap();
    m.inject_stain(id, "disk-marker").unwrap();
    let (size, dur) = m.save_nym(id, "pw", &StorageDest::Disk).unwrap();
    assert!(size > 0);
    // Disk saves are charged real device time (journal + heap + fsyncs).
    assert!(dur > SimDuration::ZERO);
    m.destroy_nym(id).unwrap();

    // Detach the device image, boot a brand-new manager, plug it in.
    let image = m.take_disk();
    let mut m2 = manager();
    m2.attach_disk(image).unwrap();
    let (id2, breakdown) = m2
        .restore_nym(
            "disky",
            AnonymizerKind::Tor,
            UsageModel::Persistent,
            "pw",
            &StorageDest::Disk,
        )
        .unwrap();
    // Like Local, disk restores need no ephemeral fetch nym.
    assert!(breakdown.ephemeral_fetch < SimDuration::from_secs(3));
    assert!(m2.nymbox(id2).unwrap().restored);
    assert!(m2.has_stain(id2, "disk-marker").unwrap());
}

/// Two nyms with one durable round-1 save on the disk backend, round-2
/// stains staged but unsaved — the setup every fleet crash test below
/// perturbs.
fn disk_fleet_round2() -> (NymManager, Vec<NymId>) {
    let mut m = manager();
    let mut ids = Vec::new();
    for name in ["fleet-a", "fleet-b"] {
        let (id, _) = m
            .create_nym(name, AnonymizerKind::Tor, UsageModel::Persistent)
            .unwrap();
        m.inject_stain(id, "round-1").unwrap();
        ids.push(id);
    }
    let reqs: Vec<FleetSaveRequest> = ids
        .iter()
        .map(|id| FleetSaveRequest {
            id: *id,
            password: "pw",
            dest: &StorageDest::Disk,
        })
        .collect();
    m.save_nyms_incremental(&reqs).unwrap();
    for id in &ids {
        m.inject_stain(*id, "round-2").unwrap();
    }
    (m, ids)
}

#[test]
fn fleet_disk_crash_matrix_recovers_whole_fleet_pre_or_post() {
    use nymix_store::{CrashMode, FaultPlan};
    // Kill the device at every write/fsync boundary of a two-nym
    // batched save, materialize every covering crash mode, and recover
    // into a fresh manager: the *whole fleet* must come back at
    // round 1 or round 2 together — a crashed batch never splits the
    // fleet across save generations.
    let stride = if cfg!(debug_assertions) { 3u64 } else { 1 };
    let (mut seen_pre, mut seen_post) = (0u32, 0u32);
    let mut kill = 0u64;
    loop {
        let (mut m, ids) = disk_fleet_round2();
        let base_ops = m.disk_store().disk().ops();
        m.set_disk_fault_plan(FaultPlan::kill_at_op(base_ops + kill));
        let reqs: Vec<FleetSaveRequest> = ids
            .iter()
            .map(|id| FleetSaveRequest {
                id: *id,
                password: "pw",
                dest: &StorageDest::Disk,
            })
            .collect();
        if m.save_nyms_incremental(&reqs).is_ok() {
            break; // Kill point beyond the batch: matrix exhausted.
        }
        if !kill.is_multiple_of(stride) {
            kill += 1;
            continue;
        }
        for mode in CrashMode::covering_set(m.disk_store().disk().pending_writes(), 64) {
            let mut m2 = manager();
            m2.attach_disk(m.crash_disk(mode))
                .unwrap_or_else(|e| panic!("kill {kill} {mode:?}: recovery failed: {e}"));
            let mut round2 = Vec::new();
            for name in ["fleet-a", "fleet-b"] {
                let (rid, _) = m2
                    .restore_nym(
                        name,
                        AnonymizerKind::Tor,
                        UsageModel::Persistent,
                        "pw",
                        &StorageDest::Disk,
                    )
                    .unwrap_or_else(|e| panic!("kill {kill} {mode:?}: {name} lost: {e}"));
                assert!(
                    m2.has_stain(rid, "round-1").unwrap(),
                    "kill {kill} {mode:?}: {name} lost its round-1 state"
                );
                round2.push(m2.has_stain(rid, "round-2").unwrap());
            }
            assert_eq!(
                round2[0], round2[1],
                "kill {kill} {mode:?}: fleet split across save generations"
            );
            if round2[0] {
                seen_post += 1;
            } else {
                seen_pre += 1;
            }
        }
        kill += 1;
    }
    assert!(kill >= 4, "matrix covered only {kill} kill points");
    assert!(seen_pre > 0, "no crash point preserved the round-1 fleet");
    assert!(seen_post > 0, "no crash point reached the round-2 fleet");
}
