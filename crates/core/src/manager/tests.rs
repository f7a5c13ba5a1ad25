//! Facade-level tests: the public `NymManager` behavior across the
//! env / session / pipeline layers, plus the fleet scheduler and
//! cross-nym isolation under a shared backend.

use super::*;
use fleet::FleetSaveRequest;
use nymix_anon::tor::TorState;
use nymix_anon::AnonymizerKind;
use nymix_sim::SimDuration;
use nymix_store::{ObjectBackend, DELTA_CHAIN_LIMIT};
use nymix_workload::Site;

pub(super) fn manager() -> NymManager {
    NymManager::new(42, 64)
}

/// A copy of the object stored on the manager's disk under `name`.
fn stored(m: &mut NymManager, name: &str) -> Option<Vec<u8>> {
    m.env.disk.get(name).unwrap().map(<[u8]>::to_vec)
}

/// Gives nym `id` a new guard set drawn from its own `seed`, not the
/// world RNG, dirtying only its `anonymizer.state` record.
fn replace_guards(m: &mut NymManager, id: NymId, seed: u64) -> TorState {
    let state = TorState::fresh(&m.env.directory, &mut nymix_sim::Rng::seed_from(seed));
    let session = m.sessions.get_mut(&id).unwrap();
    assert!(session.anonymizer.restore_state(&state.to_bytes()));
    state
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
    assert!(
        !m.nymbox(id).unwrap().restored,
        "a fresh nym is not restored"
    );
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
    m.save_nym(id, "right", &StorageDest::Disk).unwrap();
    m.destroy_nym(id).unwrap();
    assert!(matches!(
        m.restore_nym(
            "bob",
            AnonymizerKind::Tor,
            UsageModel::Persistent,
            "wrong",
            &StorageDest::Disk
        ),
        Err(NymManagerError::Storage(_))
    ));
}

#[test]
fn refused_nymboxes_return_their_scratch_to_the_pool() {
    let mut m = manager();
    let (id, _) = m
        .create_nym("a", AnonymizerKind::Tor, UsageModel::Persistent)
        .unwrap();
    m.save_nym(id, "pw", &StorageDest::Disk).unwrap();
    m.destroy_nym(id).unwrap();
    let pooled = m.scratch_pool.len();
    assert_eq!(pooled, 1);
    // Fill the host so that not even a CommVM is admitted.
    while m.env.hv.create_vm(nymix_vmm::VmConfig::commvm()).is_ok() {}
    let restored = m.restore_nym(
        "a",
        AnonymizerKind::Tor,
        UsageModel::Persistent,
        "pw",
        &StorageDest::Disk,
    );
    assert!(
        matches!(restored, Err(NymManagerError::Hypervisor(_))),
        "{restored:?}"
    );
    assert_eq!(m.scratch_pool.len(), pooled, "refused restore");
    let created = m.create_nym("c", AnonymizerKind::Tor, UsageModel::Persistent);
    assert!(
        matches!(created, Err(NymManagerError::Hypervisor(_))),
        "{created:?}"
    );
    assert_eq!(m.scratch_pool.len(), pooled, "refused create");
}

#[test]
fn local_restore_skips_ephemeral_nym() {
    let mut m = manager();
    let (id, _) = m
        .create_nym("carol", AnonymizerKind::Tor, UsageModel::PreConfigured)
        .unwrap();
    m.save_nym(id, "pw", &StorageDest::Disk).unwrap();
    m.destroy_nym(id).unwrap();
    let (_, breakdown) = m
        .restore_nym(
            "carol",
            AnonymizerKind::Tor,
            UsageModel::PreConfigured,
            "pw",
            &StorageDest::Disk,
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
        let (size, _) = m.save_nym(id, "pw", &StorageDest::Disk).unwrap();
        sizes.push(size);
        m.destroy_nym(id).unwrap();
        let (nid, _) = m
            .restore_nym(
                "grower",
                AnonymizerKind::Tor,
                UsageModel::Persistent,
                "pw",
                &StorageDest::Disk,
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
        .save_nym_incremental(id, "pw", &StorageDest::Disk)
        .unwrap();
    assert_eq!(kind, SaveKind::Full);
    // A tiny change — new guard state dirties only the
    // anonymizer.state record; both disk records stay clean and are
    // neither re-serialized nor re-sealed.
    let guards = replace_guards(&mut m, id, 1);
    let (kind, delta_size, _) = m
        .save_nym_incremental(id, "pw", &StorageDest::Disk)
        .unwrap();
    assert_eq!(kind, SaveKind::Delta);
    assert!(
        delta_size * 10 < full_size,
        "delta {delta_size} not small vs full {full_size}"
    );
    // The delta rides a chained object, not the base slot.
    assert!(stored(&mut m, "nym:inc@disk#e1.1").is_some());
    // A stain (browser + AnonVM disk) still saves as a delta: two
    // dirty records out of five.
    m.inject_stain(id, "evercookie-9").unwrap();
    let (kind, stain_delta, _) = m
        .save_nym_incremental(id, "pw", &StorageDest::Disk)
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
            &StorageDest::Disk,
        )
        .unwrap();
    assert!(m.has_stain(id2, "evercookie-9").unwrap());
    // So did the guard set the first delta carried.
    assert_eq!(m.anonymizer(id2).unwrap().save_state(), guards.to_bytes());
    // Credentials from the pre-delta session survived too.
    let vm = m.hypervisor().vm(m.nymbox(id2).unwrap().anon_vm).unwrap();
    assert!(vm.disk().exists(&nymix_fs::Path::new(
        "/home/user/.config/chromium/logins/twitter.com"
    )));
    // The restored chain keeps accepting deltas where it left off.
    m.inject_stain(id2, "evercookie-10").unwrap();
    let (kind, _, _) = m
        .save_nym_incremental(id2, "pw", &StorageDest::Disk)
        .unwrap();
    assert_eq!(kind, SaveKind::Delta);
    assert!(stored(&mut m, "nym:inc@disk#e1.3").is_some());
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
            .save_nym_incremental(id, "pw", &StorageDest::Disk)
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
            &StorageDest::Disk,
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
    m.save_nym_incremental(id, "pw", &StorageDest::Disk)
        .unwrap();
    m.inject_stain(id, "x").unwrap();
    let (kind, _, _) = m
        .save_nym_incremental(id, "pw", &StorageDest::Disk)
        .unwrap();
    assert_eq!(kind, SaveKind::Delta);
    m.destroy_nym(id).unwrap();
    // Flip one ciphertext byte in the stored delta object.
    let mut blob = stored(&mut m, "nym:t@disk#e1.1").unwrap();
    let mid = blob.len() / 2;
    blob[mid] ^= 1;
    m.env.disk.put("nym:t@disk#e1.1", blob).unwrap();
    assert!(matches!(
        m.restore_nym(
            "t",
            AnonymizerKind::Tor,
            UsageModel::Persistent,
            "pw",
            &StorageDest::Disk
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
    m.save_nym_incremental(id, "pw", &StorageDest::Disk)
        .unwrap();
    for mark in ["a", "b"] {
        m.inject_stain(id, mark).unwrap();
        m.save_nym_incremental(id, "pw", &StorageDest::Disk)
            .unwrap();
    }
    m.destroy_nym(id).unwrap();
    // A malicious backend swaps the two delta objects: each blob
    // still authenticates under the chain key, but against the
    // wrong slot label — restore must refuse.
    let d1 = stored(&mut m, "nym:s@disk#e1.1").unwrap();
    let d2 = stored(&mut m, "nym:s@disk#e1.2").unwrap();
    m.env
        .disk
        .apply_batch(
            vec![
                ("nym:s@disk#e1.1".into(), d2),
                ("nym:s@disk#e1.2".into(), d1),
            ],
            Vec::new(),
        )
        .unwrap();
    assert!(matches!(
        m.restore_nym(
            "s",
            AnonymizerKind::Tor,
            UsageModel::Persistent,
            "pw",
            &StorageDest::Disk
        ),
        Err(NymManagerError::Storage(_))
    ));
}

#[test]
fn withheld_middle_delta_fails_restore_closed() {
    let mut m = manager();
    let (id, _) = m
        .create_nym("w", AnonymizerKind::Tor, UsageModel::Persistent)
        .unwrap();
    m.visit_site(id, Site::Bbc).unwrap();
    m.save_nym_incremental(id, "pw", &StorageDest::Disk)
        .unwrap();
    // Each delta dirties only the small anonymizer.state record, so no
    // chunk the base references is swept and the base alone restores.
    for seed in [1, 2] {
        replace_guards(&mut m, id, seed);
        let (kind, _, _) = m
            .save_nym_incremental(id, "pw", &StorageDest::Disk)
            .unwrap();
        assert_eq!(kind, SaveKind::Delta);
    }
    m.destroy_nym(id).unwrap();
    // A backend withholds delta 1 but still serves delta 2: replaying
    // the base alone would silently restore the first guard state.
    m.env
        .disk
        .apply_batch(Vec::new(), vec!["nym:w@disk#e1.1".into()])
        .unwrap();
    let err = m
        .restore_nym(
            "w",
            AnonymizerKind::Tor,
            UsageModel::Persistent,
            "pw",
            &StorageDest::Disk,
        )
        .unwrap_err();
    assert!(
        matches!(&err, NymManagerError::MissingObject(s) if s == "delta 1 of chain epoch 1"),
        "{err}"
    );
}

#[test]
fn epochless_base_fails_restore_closed() {
    use nymix_store::{seal_into, NymArchive, SealKey, SealScratch, Sealable};
    // Every full save writes the epoch record, so a base without one
    // never came from this program. It decrypts under the nym's label
    // and password, and still must not restore.
    let mut m = manager();
    let (id, _) = m
        .create_nym("ne", AnonymizerKind::Tor, UsageModel::Persistent)
        .unwrap();
    let nymbox = m.nymbox(id).unwrap().clone();
    let mut archive = NymArchive::new();
    for (record, vm) in [
        ("anonvm.disk", nymbox.anon_vm),
        ("commvm.disk", nymbox.comm_vm),
    ] {
        let upper = m.hypervisor().vm(vm).unwrap().disk().upper().unwrap();
        archive.put_layer(record, upper);
    }
    m.destroy_nym(id).unwrap();
    let label = storage_label("ne", &StorageDest::Disk);
    let mut rng = nymix_sim::Rng::seed_from(5);
    let key = SealKey::derive("pw", &label, &mut rng);
    let mut blob = Vec::new();
    seal_into(
        Sealable::Archive(&archive),
        &key,
        &label,
        &mut rng,
        &mut SealScratch::new(),
        &mut blob,
    );
    m.env.disk.put(&label, blob).unwrap();
    assert!(matches!(
        m.restore_nym(
            "ne",
            AnonymizerKind::Tor,
            UsageModel::Persistent,
            "pw",
            &StorageDest::Disk
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
    m.save_nym_incremental(id, "pw", &StorageDest::Disk)
        .unwrap();
    m.inject_stain(id, "old-life").unwrap();
    m.save_nym_incremental(id, "pw", &StorageDest::Disk)
        .unwrap();
    assert!(stored(&mut m, "nym:re@disk#e1.1").is_some());
    m.destroy_nym(id).unwrap();

    // Fresh nym, same name: full save must take epoch 2, not 1.
    let (id2, _) = m
        .create_nym("re", AnonymizerKind::Tor, UsageModel::Persistent)
        .unwrap();
    let (kind, _, _) = m
        .save_nym_incremental(id2, "pw", &StorageDest::Disk)
        .unwrap();
    assert_eq!(kind, SaveKind::Full);
    m.destroy_nym(id2).unwrap();
    let (id3, _) = m
        .restore_nym(
            "re",
            AnonymizerKind::Tor,
            UsageModel::Persistent,
            "pw",
            &StorageDest::Disk,
        )
        .unwrap();
    // The restored state is the fresh nym's, not the stained one.
    assert!(!m.has_stain(id3, "old-life").unwrap());
}

/// Chunk-object names the disk currently holds.
fn chunk_objects(m: &mut NymManager) -> Vec<String> {
    let mut names = Vec::new();
    m.env.disk.list(&mut names).unwrap();
    names.retain(|n| n.contains("/c/"));
    names
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
        .save_nym_incremental(id, "pw", &StorageDest::Disk)
        .unwrap();
    assert_eq!(kind, SaveKind::Full);
    (m, id, full_uploaded)
}

#[test]
fn chunked_save_dedups_and_roundtrips() {
    let (mut m, id, full_uploaded) = chunked_setup(77);
    // The base shipped manifests + chunk objects.
    let after_full = chunk_objects(&mut m);
    assert!(!after_full.is_empty(), "large records should chunk");

    // A stain dirties the big AnonVM disk record; the delta ships
    // the new manifest plus only the chunks the write touched —
    // far fewer bytes than the base (which re-ships everything).
    m.inject_stain(id, "cas-mark").unwrap();
    let (kind, delta_uploaded, _) = m
        .save_nym_incremental(id, "pw", &StorageDest::Disk)
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
            &StorageDest::Disk,
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
        .save_nym_incremental(id2, "pw", &StorageDest::Disk)
        .unwrap();
    assert_eq!(kind, SaveKind::Delta);
}

/// The AnonVM disk record exactly as the next save would capture it.
fn anon_record(m: &NymManager, id: NymId) -> Vec<u8> {
    let vm = m.hypervisor().vm(m.nymbox(id).unwrap().anon_vm).unwrap();
    let mut archive = nymix_store::NymArchive::new();
    archive.put_layer("anonvm.disk", vm.disk().upper().unwrap());
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
    for (name, cached) in &session.chunk_cache {
        let stored = ChunkManifest::from_bytes(chain.chain.archive().get(name).unwrap()).unwrap();
        assert_eq!(cached.manifest, stored, "{name}");
        assert_eq!(cached.manifest, ChunkManifest::build(&cached.raw), "{name}");
    }
    let names: Vec<String> = session.chunk_cache.keys().cloned().collect();
    assert_eq!(session.chunk_cache["anonvm.disk"].raw, anon_record(&m, id));

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
            &StorageDest::Disk,
        )
        .unwrap();
    let cache = &m.sessions[&id2].chunk_cache;
    assert_eq!(cache.keys().cloned().collect::<Vec<_>>(), names);
    assert_eq!(cache["anonvm.disk"].raw, anon_record(&m, id2));

    // Ids are content hashes, not per epoch: the cache survives the
    // compaction that the chain limit forces, refreshed by every save.
    let mut kinds = Vec::new();
    for i in 0..=DELTA_CHAIN_LIMIT {
        m.inject_stain(id2, &format!("cache-{i}")).unwrap();
        let (kind, _, _) = m
            .save_nym_incremental(id2, "pw", &StorageDest::Disk)
            .unwrap();
        kinds.push(kind);
        assert_eq!(
            m.sessions[&id2].chunk_cache["anonvm.disk"].raw,
            anon_record(&m, id2)
        );
    }
    assert_eq!(kinds.last(), Some(&SaveKind::Full), "{kinds:?}");
}

#[test]
fn tampered_chunk_fails_restore_closed() {
    let (mut m, id, _) = chunked_setup(78);
    m.destroy_nym(id).unwrap();
    let victim = chunk_objects(&mut m)[0].clone();
    let mut blob = stored(&mut m, &victim).unwrap();
    let mid = blob.len() / 2;
    blob[mid] ^= 1;
    m.env.disk.put(&victim, blob).unwrap();
    assert!(matches!(
        m.restore_nym(
            "ck",
            AnonymizerKind::Tor,
            UsageModel::Persistent,
            "pw",
            &StorageDest::Disk
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
    let names = chunk_objects(&mut m);
    assert!(names.len() >= 2, "need two chunks to swap");
    let a = stored(&mut m, &names[0]).unwrap();
    let b = stored(&mut m, &names[1]).unwrap();
    m.env
        .disk
        .apply_batch(
            vec![(names[0].clone(), b), (names[1].clone(), a)],
            Vec::new(),
        )
        .unwrap();
    assert!(matches!(
        m.restore_nym(
            "ck",
            AnonymizerKind::Tor,
            UsageModel::Persistent,
            "pw",
            &StorageDest::Disk
        ),
        Err(NymManagerError::Storage(_))
    ));
}

#[test]
fn gcd_away_chunk_fails_restore_closed() {
    let (mut m, id, _) = chunked_setup(80);
    m.destroy_nym(id).unwrap();
    let victim = chunk_objects(&mut m)[0].clone();
    assert!(stored(&mut m, &victim).is_some());
    m.env.disk.apply_batch(Vec::new(), vec![victim]).unwrap();
    // The backend answered and the chunk is *gone* — the distinct
    // authoritatively-absent error, not a generic storage failure and
    // not Unavailable (nothing is down; retrying cannot help).
    assert!(matches!(
        m.restore_nym(
            "ck",
            AnonymizerKind::Tor,
            UsageModel::Persistent,
            "pw",
            &StorageDest::Disk
        ),
        Err(NymManagerError::MissingObject(_))
    ));
}

#[test]
fn compaction_sweeps_retired_epoch_chunks() {
    let (mut m, id, _) = chunked_setup(81);
    let epoch1: Vec<String> = chunk_objects(&mut m);
    assert!(epoch1.iter().all(|n| n.contains("#e1/")), "{epoch1:?}");
    // Run the chain past the delta limit so a save compacts into a
    // new epoch; epoch 1's chunk and delta objects must be swept.
    for i in 0..=DELTA_CHAIN_LIMIT {
        m.inject_stain(id, &format!("gc-{i}")).unwrap();
        m.save_nym_incremental(id, "pw", &StorageDest::Disk)
            .unwrap();
    }
    let now = chunk_objects(&mut m);
    assert!(
        now.iter().all(|n| n.contains("#e2/")),
        "old-epoch chunks not swept: {now:?}"
    );
    assert!(stored(&mut m, "nym:ck@disk#e1.1").is_none());
    // The compacted chain restores with every mark intact.
    m.destroy_nym(id).unwrap();
    let (id2, _) = m
        .restore_nym(
            "ck",
            AnonymizerKind::Tor,
            UsageModel::Persistent,
            "pw",
            &StorageDest::Disk,
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
fn takeover_full_save_sweeps_the_dead_epoch() {
    // A second nym with the same name takes the label over. Its first
    // save carries no chain, so it lists the disk, full-saves into the
    // next epoch and sweeps every epoch-1 object in the same batch;
    // none comes back through its deltas and compaction.
    let mut m = NymManager::new(91, 8);
    let (a, _) = m
        .create_nym("twin", AnonymizerKind::Tor, UsageModel::Persistent)
        .unwrap();
    m.visit_site(a, Site::Twitter).unwrap();
    m.save_nym_incremental(a, "pw", &StorageDest::Disk).unwrap(); // epoch 1, chunks on disk
    let epoch1: Vec<String> = chunk_objects(&mut m);
    assert!(epoch1.iter().any(|n| n.contains("#e1/")), "{epoch1:?}");

    let (b, _) = m
        .create_nym("twin", AnonymizerKind::Tor, UsageModel::Persistent)
        .unwrap();
    m.visit_site(b, Site::Bbc).unwrap();
    let (kind, _, _) = m.save_nym_incremental(b, "pw", &StorageDest::Disk).unwrap();
    assert_eq!(kind, SaveKind::Full);
    let no_epoch1 = |m: &mut NymManager| {
        let mut names = Vec::new();
        m.env.disk.list(&mut names).unwrap();
        let stale: Vec<String> = names.into_iter().filter(|n| n.contains("#e1")).collect();
        assert!(stale.is_empty(), "epoch-1 objects left: {stale:?}");
    };
    no_epoch1(&mut m);
    m.destroy_nym(a).unwrap();

    // Run b's chain through deltas into compaction.
    for i in 0..=DELTA_CHAIN_LIMIT {
        m.inject_stain(b, &format!("fill-{i}")).unwrap();
        m.save_nym_incremental(b, "pw", &StorageDest::Disk).unwrap();
        no_epoch1(&mut m);
    }
    assert!(chunk_objects(&mut m).iter().all(|n| n.contains("#e3/")));
}

#[test]
fn chain_less_save_leaves_a_sibling_label_alone() {
    // The nym `x@disk#e7` stores under `nym:x@disk#e7@disk`, whose
    // objects all start with `nym:x@disk#`. A chain-less save of nym
    // "x" must sweep only its own `#e{N}.{i}` and `#e{N}/c/{id}`
    // names, never a longer label's.
    let mut m = NymManager::new(92, 8);
    let (sib, _) = m
        .create_nym("x@disk#e7", AnonymizerKind::Tor, UsageModel::Persistent)
        .unwrap();
    m.visit_site(sib, Site::Twitter).unwrap();
    m.save_nym_incremental(sib, "pw", &StorageDest::Disk)
        .unwrap();
    m.inject_stain(sib, "sibling").unwrap();
    let (kind, _, _) = m
        .save_nym_incremental(sib, "pw", &StorageDest::Disk)
        .unwrap();
    assert_eq!(kind, SaveKind::Delta);
    m.destroy_nym(sib).unwrap();

    let (x, _) = m
        .create_nym("x", AnonymizerKind::Tor, UsageModel::Persistent)
        .unwrap();
    m.save_nym_incremental(x, "pw", &StorageDest::Disk).unwrap();
    assert!(stored(&mut m, "nym:x@disk#e7@disk#e1.1").is_some());
    let (sib, _) = m
        .restore_nym(
            "x@disk#e7",
            AnonymizerKind::Tor,
            UsageModel::Persistent,
            "pw",
            &StorageDest::Disk,
        )
        .unwrap();
    assert!(m.has_stain(sib, "sibling").unwrap());
}

#[test]
fn listed_max_epoch_refuses_save_before_pausing() {
    // A destination can list any name. One claiming the last epoch
    // leaves no epoch for the next full save: the save is refused
    // before any VM pauses, and the disk is not touched.
    let mut m = manager();
    let (x, _) = m
        .create_nym("x", AnonymizerKind::Tor, UsageModel::Persistent)
        .unwrap();
    m.visit_site(x, Site::Bbc).unwrap();
    let planted = format!("nym:x@disk#e{}.1", u64::MAX);
    m.env
        .disk
        .apply_batch(vec![(planted, vec![0])], Vec::new())
        .unwrap();
    let objects = m.disk_store().object_count();
    let io = m.disk_store().device_stats();
    let err = m
        .save_nym_incremental(x, "pw", &StorageDest::Disk)
        .unwrap_err();
    let exhausted = ChainError::EpochExhausted.to_string();
    assert!(
        matches!(&err, NymManagerError::Storage(s) if *s == exhausted),
        "{err}"
    );
    let nymbox = m.nymbox(x).unwrap().clone();
    for vm in [nymbox.anon_vm, nymbox.comm_vm] {
        let state = m.hypervisor().vm(vm).unwrap().state();
        assert_eq!(state, nymix_vmm::VmState::Running);
    }
    assert_eq!(m.disk_store().object_count(), objects);
    assert_eq!(m.disk_store().device_stats(), io);
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
    // Disk saves are charged real device time (frame + superblock + fsyncs).
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
    // Disk restores need no ephemeral fetch nym.
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
        // Each write is fsynced before the next, so a kill leaves at
        // most one queued and CrashMode needs no reordering shapes.
        let pending = m.disk_store().disk().pending_writes();
        assert!(pending <= 1, "kill {kill}: {pending} writes queued");
        if !kill.is_multiple_of(stride) {
            kill += 1;
            continue;
        }
        for mode in CrashMode::covering_set(pending, 64) {
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

/// One save of every nym in `ids` as a single batch through the
/// pipeline on `workers` threads.
fn save_batch_on(
    m: &mut NymManager,
    ids: &[NymId],
    dest: &StorageDest,
    workers: usize,
) -> Result<Vec<pipeline::SaveOutcome>, NymManagerError> {
    let reqs = ids
        .iter()
        .map(|&id| pipeline::SaveRequest {
            id,
            password: "pw",
            dest,
            allow_delta: true,
        })
        .collect();
    pipeline::save_many_on(&mut m.env, &mut m.sessions, reqs, workers)
}

/// The kinds of a batch's saves, in request order.
fn kinds(outcomes: &[pipeline::SaveOutcome]) -> Vec<SaveKind> {
    outcomes.iter().map(|o| o.kind).collect()
}

/// Both writable disk records of a nym, exactly as the next save
/// captures them.
fn layer_records(m: &NymManager, id: NymId) -> [Vec<u8>; 2] {
    let nymbox = m.nymbox(id).unwrap();
    [nymbox.anon_vm, nymbox.comm_vm].map(|vm| {
        let mut archive = nymix_store::NymArchive::new();
        let upper = m.hypervisor().vm(vm).unwrap().disk().upper().unwrap();
        archive.put_layer("disk", upper);
        archive.get("disk").unwrap().to_vec()
    })
}

#[test]
fn save_jobs_match_at_one_and_four_workers() {
    // The same fleet and schedule, run once on the inline path and
    // once on four workers: every provider-visible operation (staged
    // names and bytes, deletes, in order), every outcome, and each
    // session's nonce RNG and chunk cache must match exactly.
    let dest = StorageDest::Cloud {
        provider: "drive".into(),
        account: "anon".into(),
        credential: "tok".into(),
    };
    let fleet = |workers: usize| {
        let mut m = NymManager::new(91, 8);
        m.register_cloud("drive", "anon", "tok");
        let ids: Vec<NymId> = (0..4)
            .map(|i| {
                m.create_nym(
                    &format!("w{i}"),
                    AnonymizerKind::Tor,
                    UsageModel::Persistent,
                )
                .unwrap()
                .0
            })
            .collect();
        let mut rounds = Vec::new();
        for round in 0..DELTA_CHAIN_LIMIT + 2 {
            for (i, &id) in ids.iter().enumerate() {
                if (round + i) % 2 == 0 {
                    m.visit_site(id, Site::Twitter).unwrap();
                }
                m.inject_stain(id, &format!("r{round}-{i}")).unwrap();
            }
            let outcomes: Vec<_> = save_batch_on(&mut m, &ids, &dest, workers)
                .unwrap()
                .iter()
                .map(|o| (o.kind, o.uploaded, o.duration, o.breakdown))
                .collect();
            let log: Vec<(&str, Option<String>, usize)> = m
                .cloud_provider("drive")
                .unwrap()
                .access_log()
                .iter()
                .map(|e| (e.op, e.object.clone(), e.bytes))
                .collect();
            let log = format!("{log:?}");
            let stored = format!("{:?}", m.cloud_provider("drive").unwrap().subpoena("anon"));
            let sessions: Vec<(u64, String)> = ids
                .iter()
                .map(|id| {
                    let s = &m.sessions[id];
                    (
                        s.seal_rng.clone().next_u64(),
                        format!("{:?}", s.chunk_cache),
                    )
                })
                .collect();
            rounds.push((outcomes, log, stored, sessions));
        }
        rounds
    };
    let inline = fleet(1);
    let pooled = fleet(4);
    let seen: Vec<SaveKind> = inline
        .iter()
        .flat_map(|(o, ..)| o.iter().map(|o| o.0))
        .collect();
    assert!(seen.contains(&SaveKind::Delta) && seen.contains(&SaveKind::Full));
    for (round, (a, b)) in inline.iter().zip(&pooled).enumerate() {
        assert_eq!(a.0, b.0, "round {round}: outcomes");
        assert!(a.1 == b.1, "round {round}: provider operations differ");
        assert!(a.2 == b.2, "round {round}: stored objects differ");
        assert_eq!(a.3, b.3, "round {round}: session RNGs or chunk caches");
    }
}

#[test]
fn pooled_batch_mixes_a_full_fallback_with_deltas() {
    // Nym "c" comes back under another anonymizer, so its next save
    // dirties every record — meta and anonymizer state included — and
    // its delta would outgrow the full archive. In a four-worker batch
    // it compacts while "a" and "b" ship deltas; every nym must
    // restore to exactly the bytes it saved.
    let mut m = NymManager::new(93, 8);
    let dest = StorageDest::Disk;
    let kind_of = |name: &str| {
        if name == "c" {
            AnonymizerKind::Incognito
        } else {
            AnonymizerKind::Tor
        }
    };
    let mut ids: Vec<NymId> = ["a", "b", "c"]
        .iter()
        .map(|name| {
            let (id, _) = m
                .create_nym(name, AnonymizerKind::Tor, UsageModel::Persistent)
                .unwrap();
            m.visit_site(id, Site::Twitter).unwrap();
            id
        })
        .collect();
    save_batch_on(&mut m, &ids, &dest, 4).unwrap();
    m.destroy_nym(ids[2]).unwrap();
    ids[2] = m
        .restore_nym("c", kind_of("c"), UsageModel::Persistent, "pw", &dest)
        .unwrap()
        .0;
    let chain = m.sessions[&ids[2]].chains.values().next().unwrap();
    assert!(
        chain.chain.delta_count() < DELTA_CHAIN_LIMIT,
        "a delta was possible"
    );
    for &id in &ids {
        m.inject_stain(id, "mixed").unwrap();
        m.visit_site(id, Site::Bbc).unwrap();
    }
    let saved: Vec<[Vec<u8>; 2]> = ids.iter().map(|&id| layer_records(&m, id)).collect();
    let outcomes = save_batch_on(&mut m, &ids, &dest, 4).unwrap();
    assert_eq!(
        kinds(&outcomes),
        [SaveKind::Delta, SaveKind::Delta, SaveKind::Full]
    );
    for (name, want) in ["a", "b", "c"].iter().zip(saved) {
        let id = m
            .sessions
            .keys()
            .copied()
            .find(|id| m.nymbox(*id).unwrap().name == *name);
        m.destroy_nym(id.unwrap()).unwrap();
        let (id, _) = m
            .restore_nym(name, kind_of(name), UsageModel::Persistent, "pw", &dest)
            .unwrap();
        assert_eq!(layer_records(&m, id), want, "{name}");
        assert!(m.has_stain(id, "mixed").unwrap(), "{name}");
    }
}

#[test]
fn failed_batches_leave_every_vm_running() {
    let mut m = manager();
    m.register_cloud("drive", "anon", "tok");
    let dest = StorageDest::Cloud {
        provider: "drive".into(),
        account: "anon".into(),
        credential: "tok".into(),
    };
    let ids: Vec<NymId> = ["p", "q", "r"]
        .iter()
        .map(|name| {
            let (id, _) = m
                .create_nym(name, AnonymizerKind::Tor, UsageModel::Persistent)
                .unwrap();
            m.inject_stain(id, "first").unwrap();
            id
        })
        .collect();
    save_batch_on(&mut m, &ids, &dest, 4).unwrap();
    let all_running = |m: &NymManager| {
        ids.iter().all(|&id| {
            let nymbox = m.nymbox(id).unwrap();
            [nymbox.anon_vm, nymbox.comm_vm]
                .iter()
                .all(|&vm| m.hypervisor().vm(vm).unwrap().state() == nymix_vmm::VmState::Running)
        })
    };

    // The before phase fails: the last nym's AnonVM lost its upper,
    // found after every VM of the batch was paused. Nothing has left
    // a session yet, so the others' chains survive and their next save
    // is a delta.
    let anon = m.nymbox(ids[2]).unwrap().anon_vm;
    let upper = m.env.hv.vm_mut(anon).unwrap().take_disk_upper().unwrap();
    assert!(save_batch_on(&mut m, &ids, &dest, 4).is_err());
    assert!(all_running(&m), "a VM stayed paused after a failed capture");
    assert!(m.env.hv.vm_mut(anon).unwrap().push_disk_upper(upper));
    let outcomes = save_batch_on(&mut m, &ids[..2], &dest, 4).unwrap();
    assert_eq!(kinds(&outcomes), [SaveKind::Delta, SaveKind::Delta]);

    // The upload fails: the provider is down after every job sealed.
    m.env.cloud.get_mut("drive").unwrap().outage();
    assert!(save_batch_on(&mut m, &ids, &dest, 4).is_err());
    assert!(all_running(&m), "a VM stayed paused after a failed upload");
}
