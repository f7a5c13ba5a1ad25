//! The quasi-persistence pipeline, end to end: what the cloud provider
//! and a confiscating adversary actually obtain.

use nymix::{NymManager, SaveKind, StorageDest, UsageModel};
use nymix_anon::AnonymizerKind;
use nymix_store::DELTA_CHAIN_LIMIT;
use nymix_workload::Site;

fn dest() -> StorageDest {
    StorageDest::Cloud {
        provider: "drive".into(),
        account: "pseud".into(),
        credential: "tok".into(),
    }
}

fn manager(seed: u64) -> NymManager {
    let mut m = NymManager::new(seed, 64);
    m.register_cloud("drive", "pseud", "tok");
    m
}

#[test]
fn provider_stores_only_ciphertext() {
    let mut m = manager(21);
    let (id, _) = m
        .create_nym("alice", AnonymizerKind::Tor, UsageModel::Persistent)
        .expect("capacity");
    m.visit_site(id, Site::Twitter).expect("live");
    m.save_nym(id, "pw", &dest()).expect("save");

    let provider = m.cloud_provider("drive").expect("registered");
    let blobs = provider.subpoena("pseud");
    assert_eq!(blobs.len(), 1);
    let (_, blob) = blobs[0];
    // No plaintext marker survives: not the nym name, not the site,
    // not the browser profile paths.
    for needle in [&b"alice"[..], b"twitter", b"chromium", b"cookies"] {
        assert!(
            !blob.windows(needle.len()).any(|w| w == needle),
            "plaintext {:?} visible to provider",
            String::from_utf8_lossy(needle)
        );
    }
    // Entropy check: ciphertext has no dominant byte.
    let mut counts = [0usize; 256];
    for &b in blob {
        counts[b as usize] += 1;
    }
    let max = counts.iter().max().copied().unwrap_or(0);
    let dominant = max as f64 / blob.len() as f64;
    assert!(dominant < 0.02, "low-entropy blob: {dominant}");
}

#[test]
fn disk_storage_is_evidence_cloud_is_not() {
    // §2: local media "becomes evidence". The sealed bytes sit in the
    // journaled disk's log, and neither destroying the nym nor a
    // compaction that deletes its old epoch takes them off the device.
    let mut m = manager(22);
    let (id, _) = m
        .create_nym("bob", AnonymizerKind::Tor, UsageModel::Persistent)
        .expect("capacity");
    m.visit_site(id, Site::Twitter).expect("live");
    let save = |m: &mut NymManager, mark: &str| {
        m.inject_stain(id, mark).expect("live");
        m.save_nym_incremental(id, "pw", &StorageDest::Disk)
            .expect("save")
            .0
    };
    assert_eq!(save(&mut m, "mark-0"), SaveKind::Full);
    assert!(
        m.disk_store().committed_heap_len() > 0,
        "disk blob is evidence"
    );
    for i in 1..=DELTA_CHAIN_LIMIT {
        assert_eq!(save(&mut m, &format!("mark-{i}")), SaveKind::Delta);
    }
    let (objects, log_len) = (
        m.disk_store().object_count(),
        m.disk_store().committed_heap_len(),
    );
    // The compacting save starts epoch 2 and deletes epoch 1's deltas.
    assert_eq!(save(&mut m, "mark-last"), SaveKind::Full);
    m.destroy_nym(id).expect("live");
    assert!(m.disk_store().object_count() < objects, "epoch 1 deleted");
    assert!(m.disk_store().garbage_bytes() > 0);
    assert!(
        m.disk_store().committed_heap_len() > log_len,
        "deletion only appends: the old bytes stay on the device"
    );

    let mut m2 = manager(23);
    let (id2, _) = m2
        .create_nym("carol", AnonymizerKind::Tor, UsageModel::Persistent)
        .expect("capacity");
    m2.visit_site(id2, Site::Gmail).expect("live");
    m2.save_nym(id2, "pw", &dest()).expect("save");
    m2.destroy_nym(id2).expect("live");
    assert_eq!(
        m2.disk_store().committed_heap_len(),
        0,
        "cloud storage leaves no local trace"
    );
}

#[test]
fn fresh_manager_on_a_reattached_disk_starts_a_new_epoch() {
    // A new manager knows nothing of the disk it is handed: a recreated
    // nym's first full save must learn the old life's epoch from the
    // disk itself, or it lands in epoch 1 beside the old delta and its
    // restore replays a blob sealed under another key.
    let mut m = manager(26);
    let (id, _) = m
        .create_nym("x", AnonymizerKind::Tor, UsageModel::Persistent)
        .expect("capacity");
    m.visit_site(id, Site::Twitter).expect("live");
    m.save_nym(id, "pw", &StorageDest::Disk).expect("save");
    m.inject_stain(id, "old-life").expect("live");
    let (kind, _, _) = m
        .save_nym_incremental(id, "pw", &StorageDest::Disk)
        .expect("save");
    assert_eq!(kind, SaveKind::Delta);

    let mut m2 = manager(27);
    m2.attach_disk(m.take_disk()).expect("intact image");
    let (id, _) = m2
        .create_nym("x", AnonymizerKind::Tor, UsageModel::Persistent)
        .expect("capacity");
    m2.save_nym(id, "pw", &StorageDest::Disk).expect("save");
    m2.destroy_nym(id).expect("live");
    let (id, _) = m2
        .restore_nym(
            "x",
            AnonymizerKind::Tor,
            UsageModel::Persistent,
            "pw",
            &StorageDest::Disk,
        )
        .expect("the new life restores");
    assert!(!m2.has_stain(id, "old-life").expect("live"));
}

#[test]
fn save_restore_preserves_browser_state_exactly() {
    let mut m = manager(24);
    let (id, _) = m
        .create_nym("dave", AnonymizerKind::Tor, UsageModel::Persistent)
        .expect("capacity");
    m.visit_site(id, Site::Facebook).expect("live");
    m.visit_site(id, Site::Facebook).expect("live");
    let nb = m.nymbox(id).expect("live").clone();
    let files_before: Vec<String> = m
        .hypervisor()
        .vm(nb.anon_vm)
        .expect("vm")
        .disk()
        .walk_files(&nymix_fs::Path::new("/home/user"))
        .iter()
        .map(|p| p.to_string())
        .collect();
    m.save_nym(id, "pw", &dest()).expect("save");
    m.destroy_nym(id).expect("live");
    let (id2, _) = m
        .restore_nym(
            "dave",
            AnonymizerKind::Tor,
            UsageModel::Persistent,
            "pw",
            &dest(),
        )
        .expect("restore");
    let nb2 = m.nymbox(id2).expect("live").clone();
    let files_after: Vec<String> = m
        .hypervisor()
        .vm(nb2.anon_vm)
        .expect("vm")
        .disk()
        .walk_files(&nymix_fs::Path::new("/home/user"))
        .iter()
        .map(|p| p.to_string())
        .collect();
    assert_eq!(files_before, files_after);
}

#[test]
fn growing_nym_sizes_match_fig6_shape() {
    // Three cycles of Facebook vs Tor Blog: Facebook's archive must be
    // consistently larger and both must grow monotonically.
    let grow = |site: Site, seed: u64| -> Vec<usize> {
        let mut m = manager(seed);
        let name = format!("n-{site:?}");
        let (mut id, _) = m
            .create_nym(&name, AnonymizerKind::Tor, UsageModel::Persistent)
            .expect("capacity");
        let mut sizes = Vec::new();
        for _ in 0..3 {
            m.visit_site(id, site).expect("live");
            let (s, _) = m.save_nym(id, "pw", &dest()).expect("save");
            sizes.push(s);
            m.destroy_nym(id).expect("live");
            let (nid, _) = m
                .restore_nym(
                    &name,
                    AnonymizerKind::Tor,
                    UsageModel::Persistent,
                    "pw",
                    &dest(),
                )
                .expect("restore");
            id = nid;
        }
        sizes
    };
    let fb = grow(Site::Facebook, 30);
    let tb = grow(Site::TorBlog, 31);
    assert!(fb.windows(2).all(|w| w[1] > w[0]), "{fb:?}");
    assert!(tb.windows(2).all(|w| w[1] > w[0]), "{tb:?}");
    for (f, t) in fb.iter().zip(&tb) {
        assert!(f > t, "facebook {fb:?} vs torblog {tb:?}");
    }
}

#[test]
fn anonvm_dominates_archive_size() {
    // §5.3: "the AnonVM content accounting for 85% of the pseudonym
    // size".
    let mut m = manager(25);
    let (id, _) = m
        .create_nym("heavy", AnonymizerKind::Tor, UsageModel::Persistent)
        .expect("capacity");
    for _ in 0..3 {
        m.visit_site(id, Site::Gmail).expect("live");
    }
    m.save_nym(id, "pw", &dest()).expect("save");
    let (anon, comm, other) = m.last_save_breakdown().expect("saved");
    let share = anon as f64 / (anon + comm + other) as f64;
    assert!(share > 0.75, "AnonVM share {share}");
}
