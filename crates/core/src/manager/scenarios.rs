//! Multi-provider survival scenarios: whole save/restore round trips
//! through [`StorageDest::Striped`] while placement children die,
//! throttle, come back stale, or lie. Every test here is named
//! `scenario_*` so CI's scenario-matrix job can run exactly this
//! module in release profile.

use super::tests::manager;
use super::*;
use fleet::FleetSaveRequest;
use nymix_workload::Site;

const PROVIDERS: [(&str, &str, &str); 5] = [
    ("prov0", "acct0", "tok0"),
    ("prov1", "acct1", "tok1"),
    ("prov2", "acct2", "tok2"),
    ("prov3", "acct3", "tok3"),
    ("prov4", "acct4", "tok4"),
];

fn striped_manager(k: usize, n: usize) -> NymManager {
    let mut m = manager();
    m.register_striped(k, &PROVIDERS[..n]);
    m
}

/// One persistent nym with browsing state and a two-save chain (full +
/// delta) on the striped destination; `fault` runs between the two
/// saves — mid-chain, so the chain's objects span the fault.
fn saved_nym_chain(m: &mut NymManager, fault: impl FnOnce(&mut NymManager)) -> NymId {
    let (id, _) = m
        .create_nym("walker", AnonymizerKind::Tor, UsageModel::Persistent)
        .unwrap();
    m.visit_site(id, Site::Twitter).unwrap();
    m.inject_stain(id, "round-1").unwrap();
    m.save_nym(id, "pw", &StorageDest::Striped).unwrap();
    m.inject_stain(id, "round-2").unwrap();
    fault(m);
    let (kind, _, _) = m
        .save_nym_incremental(id, "pw", &StorageDest::Striped)
        .unwrap();
    assert_eq!(kind, SaveKind::Delta, "chain continued across the fault");
    id
}

/// Restores the chain nym and checks the state round-tripped exactly:
/// both stain markers and the browser's credential survive.
fn assert_restored_intact(m: &mut NymManager) -> NymId {
    let (id, _) = m
        .restore_nym(
            "walker",
            AnonymizerKind::Tor,
            UsageModel::Persistent,
            "pw",
            &StorageDest::Striped,
        )
        .unwrap();
    assert!(m.nymbox(id).unwrap().restored);
    assert!(m.has_stain(id, "round-1").unwrap());
    assert!(m.has_stain(id, "round-2").unwrap());
    let vm = m.hypervisor().vm(m.nymbox(id).unwrap().anon_vm).unwrap();
    assert!(vm.disk().exists(&nymix_fs::Path::new(
        "/home/user/.config/chromium/logins/twitter.com"
    )));
    id
}

#[test]
fn scenario_provider_outage_mid_chain_survived_2_of_3() {
    let mut m = striped_manager(2, 3);
    // prov2 dies between the base save and the delta save: the delta
    // lands on a 2-of-3 quorum and the whole degraded batch is queued
    // for repair.
    let id = saved_nym_chain(&mut m, |m| {
        m.striped_provider_mut("prov2").unwrap().outage();
    });
    assert!(m.striped_store().unwrap().pending_repairs() > 0);
    m.destroy_nym(id).unwrap();

    // Restore with the provider still down: every chain object decodes
    // from the two survivors.
    let id = assert_restored_intact(&mut m);
    m.destroy_nym(id).unwrap();

    // The provider returns; one repair pass re-materializes its shards
    // and every child holds a full shard set again.
    m.striped_provider_mut("prov2").unwrap().heal();
    let report = m.repair_striped().unwrap();
    assert!(report.shards_rebuilt > 0);
    assert_eq!(report.shards_still_missing, 0);
    let store = m.striped_store().unwrap();
    assert_eq!(store.pending_repairs(), 0);
    let mut m = m;
    let counts = m.env.striped.as_mut().unwrap().shard_counts().unwrap();
    assert!(
        counts.windows(2).all(|w| w[0] == w[1]),
        "unequal shard counts after repair: {counts:?}"
    );
    assert_restored_intact(&mut m);
}

#[test]
fn scenario_stale_provider_excluded_on_restore() {
    let mut m = striped_manager(2, 3);
    // prov0 snapshots its state mid-chain and serves that snapshot
    // from then on — hash-valid but version-stale shards. The restore
    // must reconstruct the *newest* version: stale shards group apart
    // by object hash and can never mix into a decode.
    let id = saved_nym_chain(&mut m, |m| {
        m.striped_provider_mut("prov0").unwrap().serve_stale();
    });
    m.destroy_nym(id).unwrap();
    let id = assert_restored_intact(&mut m);
    m.destroy_nym(id).unwrap();
    // Healed, the live (post-snapshot) objects are intact — prov0 kept
    // accepting writes while lying on reads.
    m.striped_provider_mut("prov0").unwrap().heal();
    assert_restored_intact(&mut m);
}

#[test]
fn scenario_byzantine_provider_lies_and_is_excluded() {
    let mut m = striped_manager(2, 3);
    let id = saved_nym_chain(&mut m, |_| {});
    m.destroy_nym(id).unwrap();
    // prov1 turns byzantine after the chain is stored: right-length
    // garbage for every read. Shard hashes exclude it before the
    // decoder ever sees the bytes.
    m.striped_provider_mut("prov1").unwrap().serve_garbage();
    let id = assert_restored_intact(&mut m);
    m.destroy_nym(id).unwrap();
    // Every lying read queued the child for refresh.
    assert!(m.striped_store().unwrap().pending_repairs() > 0);
    m.striped_provider_mut("prov1").unwrap().heal();
    let report = m.repair_striped().unwrap();
    assert_eq!(report.shards_still_missing, 0);
    assert_eq!(m.striped_store().unwrap().pending_repairs(), 0);
}

#[test]
fn scenario_throttled_provider_during_batched_fleet_save() {
    let mut m = striped_manager(2, 3);
    let fleet = NymFleet::spawn(
        &mut m,
        "crowd",
        2,
        AnonymizerKind::Tor,
        UsageModel::Persistent,
    )
    .unwrap();
    let ids = fleet.ids().to_vec();
    for id in &ids {
        m.inject_stain(*id, "fleet-round").unwrap();
    }
    // prov1 throttles every write, outlasting the retry budget: the
    // batched fleet save still lands on the other two children.
    m.striped_provider_mut("prov1").unwrap().throttle();
    let reqs: Vec<FleetSaveRequest> = ids
        .iter()
        .map(|id| FleetSaveRequest {
            id: *id,
            password: "pw",
            dest: &StorageDest::Striped,
        })
        .collect();
    let outcomes = m.save_nyms_incremental(&reqs).unwrap();
    assert_eq!(outcomes.len(), 2);
    assert!(m.striped_store().unwrap().pending_repairs() > 0);
    fleet.destroy_all(&mut m).unwrap();

    // Both nyms restore (reads are unaffected by a write throttle).
    for name in ["crowd-0", "crowd-1"] {
        let (rid, _) = m
            .restore_nym(
                name,
                AnonymizerKind::Tor,
                UsageModel::Persistent,
                "pw",
                &StorageDest::Striped,
            )
            .unwrap();
        assert!(m.has_stain(rid, "fleet-round").unwrap());
        m.destroy_nym(rid).unwrap();
    }

    m.striped_provider_mut("prov1").unwrap().heal();
    let report = m.repair_striped().unwrap();
    assert_eq!(report.shards_still_missing, 0);
    let counts = m.env.striped.as_mut().unwrap().shard_counts().unwrap();
    assert!(counts.windows(2).all(|w| w[0] == w[1]), "{counts:?}");
}

#[test]
fn scenario_losing_n_minus_k_plus_1_providers_fails_closed() {
    let mut m = striped_manager(2, 3);
    let id = saved_nym_chain(&mut m, |_| {});
    m.destroy_nym(id).unwrap();
    // Two of three children down: below quorum. The restore fails
    // Unavailable — never NothingStored (which would claim the nym was
    // never saved) and never partial state.
    m.striped_provider_mut("prov0").unwrap().outage();
    m.striped_provider_mut("prov2").unwrap().outage();
    let err = m
        .restore_nym(
            "walker",
            AnonymizerKind::Tor,
            UsageModel::Persistent,
            "pw",
            &StorageDest::Striped,
        )
        .unwrap_err();
    assert!(matches!(err, NymManagerError::Unavailable(_)), "{err:?}");
    // One provider recovers — quorum is back, the nym restores whole.
    m.striped_provider_mut("prov0").unwrap().heal();
    assert_restored_intact(&mut m);
}

#[test]
fn scenario_save_below_quorum_fails_closed() {
    let mut m = striped_manager(2, 3);
    let (id, _) = m
        .create_nym("walker", AnonymizerKind::Tor, UsageModel::Persistent)
        .unwrap();
    m.striped_provider_mut("prov0").unwrap().outage();
    m.striped_provider_mut("prov1").unwrap().outage();
    let err = m.save_nym(id, "pw", &StorageDest::Striped).unwrap_err();
    assert!(matches!(err, NymManagerError::Unavailable(_)), "{err:?}");
}

#[test]
fn scenario_mirrored_1_of_2_survives_either_provider() {
    // k = 1 degenerates to plain mirroring: either child alone can
    // serve the whole chain.
    let mut m = striped_manager(1, 2);
    let id = saved_nym_chain(&mut m, |_| {});
    m.destroy_nym(id).unwrap();
    for down in ["prov0", "prov1"] {
        m.striped_provider_mut(down).unwrap().outage();
        let id = assert_restored_intact(&mut m);
        m.destroy_nym(id).unwrap();
        m.striped_provider_mut(down).unwrap().heal();
    }
}

#[test]
fn scenario_providers_observe_only_the_exit_address() {
    // The deniability story survives striping: every placement child
    // logs only the anonymizer's exit, never the user's address.
    let mut m = striped_manager(2, 3);
    let id = saved_nym_chain(&mut m, |_| {});
    m.destroy_nym(id).unwrap();
    assert_restored_intact(&mut m);
    let user_ip = m.public_ip();
    for (name, _, _) in &PROVIDERS[..3] {
        let log = m.striped_provider(name).unwrap().access_log();
        assert!(!log.is_empty(), "{name} saw no traffic");
        assert!(log.iter().all(|e| e.observed_ip != user_ip));
    }
}

#[test]
fn scenario_unavailable_vs_missing_is_classified_per_backend() {
    // Satellite contract: a required object the backend *answered* is
    // gone → MissingObject (closed); an unreachable backend →
    // Unavailable (state presumed intact). Cloud outage side:
    let mut m = manager();
    m.register_cloud("drive", "anon", "tok");
    let dest = StorageDest::Cloud {
        provider: "drive".into(),
        account: "anon".into(),
        credential: "tok".into(),
    };
    let (id, _) = m
        .create_nym("cloudy", AnonymizerKind::Tor, UsageModel::Persistent)
        .unwrap();
    m.save_nym(id, "pw", &dest).unwrap();
    m.destroy_nym(id).unwrap();
    m.env.cloud.get_mut("drive").unwrap().outage();
    let err = m
        .restore_nym(
            "cloudy",
            AnonymizerKind::Tor,
            UsageModel::Persistent,
            "pw",
            &dest,
        )
        .unwrap_err();
    assert!(matches!(err, NymManagerError::Unavailable(_)), "{err:?}");
    // Healed, a *genuinely absent* label is still NothingStored — the
    // healthy-absence answer Unavailable must never shadow.
    m.env.cloud.get_mut("drive").unwrap().heal();
    let err = m
        .restore_nym(
            "ghost",
            AnonymizerKind::Tor,
            UsageModel::Persistent,
            "pw",
            &dest,
        )
        .unwrap_err();
    assert!(matches!(err, NymManagerError::NothingStored), "{err:?}");
}

#[test]
fn scenario_failed_save_retry_never_reuses_a_nonce() {
    // A Cloud nym's first save dies partway: 13 of its 14 objects land
    // before the provider throttles one past the retry budget. After
    // more browsing the retry seals different plaintext, and it must
    // do so under fresh randomness: the provider may never hold two
    // different ciphertexts under one (salt, nonce) pair, which for
    // ChaCha20-Poly1305 leaks the XOR of the plaintexts and the
    // one-time authenticator key.
    let mut m = manager();
    m.register_cloud("drive", "anon", "tok");
    let dest = StorageDest::Cloud {
        provider: "drive".into(),
        account: "anon".into(),
        credential: "tok".into(),
    };
    let (id, _) = m
        .create_nym("retry", AnonymizerKind::Tor, UsageModel::Persistent)
        .unwrap();
    m.visit_site(id, Site::Twitter).unwrap();
    m.env
        .cloud
        .get_mut("drive")
        .unwrap()
        .inject_transient_put_failures_after(13, 4);
    assert!(m.save_nym_incremental(id, "pw", &dest).is_err());
    let drive = |m: &NymManager| -> Vec<Vec<u8>> {
        m.cloud_provider("drive")
            .unwrap()
            .subpoena("anon")
            .into_iter()
            .map(|(_, blob)| blob.to_vec())
            .collect()
    };
    let failed = drive(&m);
    assert_eq!(failed.len(), 13, "the failed batch landed a prefix");

    m.inject_stain(id, "after-failure").unwrap();
    m.save_nym_incremental(id, "pw", &dest).unwrap();

    // Sealed blob header: magic [4] | salt [16] | nonce [12].
    let mut seen: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
    let mut reused = 0;
    for blob in failed.into_iter().chain(drive(&m)) {
        let salt_nonce = blob[4..32].to_vec();
        if seen
            .insert(salt_nonce, blob.clone())
            .is_some_and(|b| b != blob)
        {
            reused += 1;
        }
    }
    assert_eq!(reused, 0, "(salt, nonce) pairs sealing two ciphertexts");
}

#[test]
fn scenario_failed_save_leaves_nothing_behind_after_compaction() {
    // A failed batch lands a prefix its session never learns of. The
    // retry carries no chain, so it lists the account and sweeps those
    // objects; once the chain has compacted, no epoch-1 object is left.
    let mut m = manager();
    m.register_cloud("drive", "anon", "tok");
    let dest = StorageDest::Cloud {
        provider: "drive".into(),
        account: "anon".into(),
        credential: "tok".into(),
    };
    let (id, _) = m
        .create_nym("retry", AnonymizerKind::Tor, UsageModel::Persistent)
        .unwrap();
    m.visit_site(id, Site::Twitter).unwrap();
    m.env
        .cloud
        .get_mut("drive")
        .unwrap()
        .inject_transient_put_failures_after(13, 4);
    assert!(m.save_nym_incremental(id, "pw", &dest).is_err());
    m.inject_stain(id, "after-failure").unwrap();
    m.save_nym_incremental(id, "pw", &dest).unwrap();
    for i in 0..5 {
        m.inject_stain(id, &format!("round-{i}")).unwrap();
        m.save_nym_incremental(id, "pw", &dest).unwrap();
    }
    let stale: Vec<String> = m
        .cloud_provider("drive")
        .unwrap()
        .subpoena("anon")
        .into_iter()
        .map(|(n, _)| n.to_string())
        .filter(|n| n.contains("#e1"))
        .collect();
    assert!(stale.is_empty(), "epoch-1 objects leaked: {stale:?}");
}

#[test]
fn scenario_restored_twin_keeps_the_last_acknowledged_delta() {
    // Restoring a label while a session of it is live makes the new
    // session the chain's one owner. The old session's next save must
    // not append to a chain it no longer owns: it full-saves a new
    // epoch, and that acknowledged state is what the next restore
    // returns.
    let mut m = manager();
    let dest = StorageDest::Disk;
    let restore = |m: &mut NymManager| {
        m.restore_nym(
            "twin",
            AnonymizerKind::Tor,
            UsageModel::Persistent,
            "pw",
            &dest,
        )
        .unwrap()
        .0
    };
    let (a, _) = m
        .create_nym("twin", AnonymizerKind::Tor, UsageModel::Persistent)
        .unwrap();
    m.visit_site(a, Site::Twitter).unwrap();
    m.save_nym(a, "pw", &dest).unwrap();
    m.inject_stain(a, "a1").unwrap();
    m.save_nym_incremental(a, "pw", &dest).unwrap();

    let b = restore(&mut m);
    for mark in ["b1", "b2"] {
        m.inject_stain(b, mark).unwrap();
        let (kind, _, _) = m.save_nym_incremental(b, "pw", &dest).unwrap();
        assert_eq!(kind, SaveKind::Delta);
    }
    m.inject_stain(a, "a3").unwrap();
    m.save_nym_incremental(a, "pw", &dest).unwrap();

    m.destroy_nym(a).unwrap();
    m.destroy_nym(b).unwrap();
    let c = restore(&mut m);
    assert!(m.has_stain(c, "a3").unwrap(), "A's acknowledged save lost");
    assert!(!m.has_stain(c, "b2").unwrap());
}

#[test]
fn scenario_nym_named_twice_in_one_batch_is_refused() {
    // A batch naming one nym twice would run two save jobs from one
    // nonce RNG position. Here the two jobs seal for different drives;
    // the session keeps only one job's RNG, so the nym's next save to
    // the other drive redraws the same (salt, nonce) pairs over new
    // plaintext. The batch must be refused before any capture.
    let mut m = manager();
    let drive = |name: &str| StorageDest::Cloud {
        provider: name.into(),
        account: "anon".into(),
        credential: "tok".into(),
    };
    let (drive1, drive2) = (drive("drive1"), drive("drive2"));
    m.register_cloud("drive1", "anon", "tok");
    m.register_cloud("drive2", "anon", "tok");
    let (id, _) = m
        .create_nym("twice", AnonymizerKind::Tor, UsageModel::Persistent)
        .unwrap();
    m.visit_site(id, Site::Twitter).unwrap();
    m.save_nym_incremental(id, "pw", &drive1).unwrap();
    let objects = |m: &NymManager, name: &str| -> Vec<(String, Vec<u8>)> {
        m.cloud_provider(name)
            .unwrap()
            .subpoena("anon")
            .into_iter()
            .map(|(n, blob)| (n.to_string(), blob.to_vec()))
            .collect()
    };
    let before = objects(&m, "drive1");

    let err = m
        .save_nyms_incremental(&[
            FleetSaveRequest {
                id,
                password: "pw",
                dest: &drive2,
            },
            FleetSaveRequest {
                id,
                password: "pw",
                dest: &drive1,
            },
        ])
        .unwrap_err();
    assert!(
        matches!(err, NymManagerError::DuplicateNym(d) if d == id),
        "{err:?}"
    );
    assert!(objects(&m, "drive2").is_empty(), "the refused batch landed");
    assert_eq!(objects(&m, "drive1"), before, "the refused batch landed");

    m.inject_stain(id, "after").unwrap();
    m.visit_site(id, Site::Bbc).unwrap();
    m.save_nym_incremental(id, "pw", &drive2).unwrap();
    let (kind, _, _) = m.save_nym_incremental(id, "pw", &drive1).unwrap();
    assert_eq!(kind, SaveKind::Delta, "drive1's chain survived the refusal");

    // Sealed blob header: magic [4] | salt [16] | nonce [12].
    let mut seen: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
    for (_, blob) in objects(&m, "drive1")
        .into_iter()
        .chain(objects(&m, "drive2"))
    {
        let prior = seen.insert(blob[4..32].to_vec(), blob.clone());
        assert!(
            prior.is_none_or(|b| b == blob),
            "(salt, nonce) pair sealing two ciphertexts"
        );
    }
}
