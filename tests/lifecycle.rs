//! End-to-end nym lifecycle tests: usage models, staining/amnesia,
//! guard persistence, credential binding.

use nymix::{NymManager, StorageDest, UsageModel};
use nymix_anon::tor::TorState;
use nymix_anon::AnonymizerKind;
use nymix_workload::Site;

fn cloud_dest() -> StorageDest {
    StorageDest::Cloud {
        provider: "dropbox".into(),
        account: "anon".into(),
        credential: "tok".into(),
    }
}

fn manager_with_cloud(seed: u64) -> NymManager {
    let mut m = NymManager::new(seed, 64);
    m.register_cloud("dropbox", "anon", "tok");
    m
}

#[test]
fn stain_survives_persistent_but_not_preconfigured_nym() {
    // The §3.5 trade-off, end to end. Persistent mode saves after each
    // session, so a stain planted mid-session rides into storage;
    // pre-configured mode restarts from the clean snapshot.
    let mut m = manager_with_cloud(11);

    // Pre-configured: snapshot FIRST, then stain, then next session.
    let (pre, _) = m
        .create_nym("pre", AnonymizerKind::Tor, UsageModel::PreConfigured)
        .expect("capacity");
    m.visit_site(pre, Site::Twitter).expect("live");
    m.save_nym(pre, "pw", &StorageDest::Disk).expect("snapshot");
    m.inject_stain(pre, "mullenize").expect("live");
    assert!(m.has_stain(pre, "mullenize").expect("live"));
    m.destroy_nym(pre).expect("live");
    let (pre2, _) = m
        .restore_nym(
            "pre",
            AnonymizerKind::Tor,
            UsageModel::PreConfigured,
            "pw",
            &StorageDest::Disk,
        )
        .expect("restore");
    assert!(
        !m.has_stain(pre2, "mullenize").expect("live"),
        "pre-configured nym must scrub the stain at next session"
    );

    // Persistent: the stain is part of the saved state.
    let (pers, _) = m
        .create_nym("pers", AnonymizerKind::Tor, UsageModel::Persistent)
        .expect("capacity");
    m.visit_site(pers, Site::Twitter).expect("live");
    m.inject_stain(pers, "mullenize").expect("live");
    m.save_nym(pers, "pw", &cloud_dest()).expect("save");
    m.destroy_nym(pers).expect("live");
    let (pers2, _) = m
        .restore_nym(
            "pers",
            AnonymizerKind::Tor,
            UsageModel::Persistent,
            "pw",
            &cloud_dest(),
        )
        .expect("restore");
    assert!(
        m.has_stain(pers2, "mullenize").expect("live"),
        "persistent nym carries the stain (the documented risk)"
    );
}

#[test]
fn tor_guards_persist_across_save_restore() {
    // §3.5: quasi-persistence preserves the entry guards, closing the
    // guard-churn intersection-attack window.
    let mut m = manager_with_cloud(12);
    let (id, _) = m
        .create_nym("guarded", AnonymizerKind::Tor, UsageModel::Persistent)
        .expect("capacity");
    let before = TorState::from_bytes(&m.anonymizer(id).expect("live").save_state())
        .expect("tor state parses");
    m.save_nym(id, "pw", &cloud_dest()).expect("save");
    m.destroy_nym(id).expect("live");
    let (id2, _) = m
        .restore_nym(
            "guarded",
            AnonymizerKind::Tor,
            UsageModel::Persistent,
            "pw",
            &cloud_dest(),
        )
        .expect("restore");
    let after = TorState::from_bytes(&m.anonymizer(id2).expect("live").save_state())
        .expect("tor state parses");
    assert_eq!(before, after, "entry guards must survive the round trip");
}

#[test]
fn fresh_nyms_get_fresh_guards() {
    let mut m = NymManager::new(13, 64);
    let mut guard_sets = std::collections::HashSet::new();
    for i in 0..6 {
        let (id, _) = m
            .create_nym(&format!("g{i}"), AnonymizerKind::Tor, UsageModel::Ephemeral)
            .expect("capacity");
        let state =
            TorState::from_bytes(&m.anonymizer(id).expect("live").save_state()).expect("parses");
        guard_sets.insert(format!("{:?}", state.guards));
        m.destroy_nym(id).expect("live");
    }
    assert!(guard_sets.len() > 1, "fresh boots should churn guards");
}

#[test]
fn credentials_bound_to_nym_not_to_machine() {
    // §3.1: "when using the correct nymbox the user need not enter
    // those credentials at all" — and no other nymbox has them.
    let mut m = manager_with_cloud(14);
    let (tw, _) = m
        .create_nym("tweeter", AnonymizerKind::Tor, UsageModel::Persistent)
        .expect("capacity");
    m.visit_site(tw, Site::Twitter).expect("live");
    let (other, _) = m
        .create_nym("reader", AnonymizerKind::Tor, UsageModel::Ephemeral)
        .expect("capacity");
    m.visit_site(other, Site::Bbc).expect("live");

    let cred_path = nymix_fs::Path::new("/home/user/.config/chromium/logins/twitter.com");
    let has = |m: &NymManager, id| {
        let nb = m.nymbox(id).expect("live").clone();
        m.hypervisor()
            .vm(nb.anon_vm)
            .expect("vm")
            .disk()
            .exists(&cred_path)
    };
    assert!(has(&m, tw));
    assert!(!has(&m, other), "credentials leaked across nymboxes");
}

#[test]
fn deleted_cloud_object_means_nym_gone() {
    let mut m = manager_with_cloud(15);
    let (id, _) = m
        .create_nym("gone", AnonymizerKind::Tor, UsageModel::Persistent)
        .expect("capacity");
    m.save_nym(id, "pw", &cloud_dest()).expect("save");
    m.destroy_nym(id).expect("live");
    // Simulate the provider wiping the account.
    // (Restore with wrong account name fails cleanly.)
    let bad = StorageDest::Cloud {
        provider: "dropbox".into(),
        account: "someone-else".into(),
        credential: "tok".into(),
    };
    assert!(m
        .restore_nym(
            "gone",
            AnonymizerKind::Tor,
            UsageModel::Persistent,
            "pw",
            &bad
        )
        .is_err());
}

#[test]
fn all_anonymizers_complete_a_session() {
    let mut m = NymManager::new(16, 64);
    for kind in AnonymizerKind::ALL {
        let (id, breakdown) = m
            .create_nym("s", kind, UsageModel::Ephemeral)
            .expect("capacity");
        let load = m.visit_site(id, Site::TorBlog).expect("live");
        assert!(load.as_secs_f64() > 0.0);
        assert!(breakdown.total().as_secs_f64() > 0.0);
        // SWEET is painfully slow; incognito is fast (§3.3 trade-off).
        if kind == AnonymizerKind::Sweet {
            assert!(load.as_secs_f64() > 8.0, "{kind:?} {load}");
        }
        if kind == AnonymizerKind::Incognito {
            assert!(load.as_secs_f64() < 3.5, "{kind:?} {load}");
        }
        m.destroy_nym(id).expect("live");
    }
}

#[test]
fn memory_returns_to_baseline_after_teardown() {
    let mut m = NymManager::new(17, 64);
    let baseline = m.hypervisor().used_memory_mib();
    let mut ids = Vec::new();
    for i in 0..5 {
        let (id, _) = m
            .create_nym(&format!("m{i}"), AnonymizerKind::Tor, UsageModel::Ephemeral)
            .expect("capacity");
        m.visit_site(id, Site::VISIT_ORDER[i]).expect("live");
        ids.push(id);
    }
    assert!(m.hypervisor().used_memory_mib() > baseline + 2000.0);
    for id in ids {
        m.destroy_nym(id).expect("live");
    }
    assert_eq!(m.hypervisor().used_memory_mib(), baseline);
}
