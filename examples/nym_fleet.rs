//! A multi-nym fleet: one user, eight concurrent pseudonyms — the
//! paper's "explicit, first-class control over pseudonyms representing
//! the multiple roles or personas they may use online" (§3.1), run at
//! fleet scale on a larger host.
//!
//! Eight persistent nyms browse different sites, then snapshot
//! *together* through the batched store pipeline: one save job per
//! nym (capture, chunk, seal) on a shared worker pool, and one backend
//! round trip per destination.
//! The whole fleet is then destroyed (amnesia) and restored, and each
//! nym's state comes back isolated — no nym's chunks, deltas or base
//! can satisfy another's restore. Then the fleet snapshots to the
//! crash-consistent journaled disk, the device loses power mid-save,
//! and a fresh manager recovers every nym from the torn image.
//! Finally the chains stripe 2-of-3 across three independent providers:
//! a provider that is dark during the save is absorbed by the write
//! quorum, the fleet restores whole from the survivors, and one repair
//! pass re-materializes the missed shards once the provider returns.
//!
//! Run with: `cargo run --release --example nym_fleet`
//!
//! With `NYMIX_TRACE=1` the run also records a privacy-disciplined
//! Chrome trace (see `OBSERVABILITY.md`) of every pipeline stage and
//! writes it to `NYMIX_TRACE_OUT` (default `nym_fleet_trace.json`),
//! plus an end-of-run metrics snapshot. Validate the artifact with
//! `cargo run -p nymix-obs --bin trace_check -- <path>`.

use nymix::{NymFleet, NymManager, SaveKind, StorageDest, UsageModel};
use nymix_anon::AnonymizerKind;
use nymix_store::{CrashMode, FaultPlan};
use nymix_workload::Site;

const FLEET: usize = 8;

fn dest_for(i: usize) -> StorageDest {
    // Each nym keeps its own pseudonymous account on the shared
    // provider — the provider sees eight unlinkable accounts.
    StorageDest::Cloud {
        provider: "dropbox".into(),
        account: format!("acct-{i}"),
        credential: format!("tok-{i}"),
    }
}

fn main() {
    let tracing = std::env::var("NYMIX_TRACE").is_ok_and(|v| !v.is_empty() && v != "0");
    if tracing {
        nymix_obs::set_enabled(true);
    }

    // A 64 GiB host: the paper's 16 GiB testbed admits ~22 nymboxes;
    // fleets want headroom (each nymbox costs ~706 MiB).
    let mut nymix = NymManager::with_host_ram(2026, 8, 65_536);
    for i in 0..FLEET {
        nymix.register_cloud("dropbox", &format!("acct-{i}"), &format!("tok-{i}"));
    }

    // Spawn the fleet and give every nym its own browsing life.
    let fleet = NymFleet::spawn(
        &mut nymix,
        "persona",
        FLEET,
        AnonymizerKind::Tor,
        UsageModel::Persistent,
    )
    .expect("host admits the fleet");
    let sites = [
        Site::Twitter,
        Site::Bbc,
        Site::Facebook,
        Site::Youtube,
        Site::Slashdot,
        Site::Espn,
        Site::TorBlog,
        Site::Gmail,
    ];
    let loads = fleet
        .visit_round(&mut nymix, |i| sites[i % sites.len()])
        .expect("fleet browses");
    println!(
        "{FLEET} nyms browsing: first page {:.1}s, used host memory {:.0} MiB",
        loads[0].as_secs_f64(),
        nymix.hypervisor().used_memory_mib()
    );

    // First snapshot round: every chain starts with a full archive.
    let round1 = fleet
        .save_round(&mut nymix, "fleet-pw", dest_for)
        .expect("fleet saves");
    let full_bytes: usize = round1.iter().map(|(_, b, _)| b).sum();
    assert!(round1.iter().all(|(k, _, _)| *k == SaveKind::Full));
    println!(
        "fleet save #1 (full): {full_bytes} sealed bytes, concurrent completion {:.1}s",
        round1[0].2.as_secs_f64()
    );

    // A second round of check-ins on the same sites dirties only a
    // slice of each nym's state; the next batched save ships deltas +
    // the chunks each write touched, not eight re-sealed archives.
    fleet
        .visit_round(&mut nymix, |i| sites[i % sites.len()])
        .expect("fleet browses again");
    let round2 = fleet
        .save_round(&mut nymix, "fleet-pw", dest_for)
        .expect("fleet delta saves");
    let delta_bytes: usize = round2.iter().map(|(_, b, _)| b).sum();
    assert!(round2.iter().all(|(k, _, _)| *k == SaveKind::Delta));
    println!(
        "fleet save #2 (delta): {delta_bytes} sealed bytes ({:.1}x less than full)",
        full_bytes as f64 / delta_bytes as f64
    );

    // Amnesia for the whole fleet, then restore it.
    let names = fleet.names().to_vec();
    fleet.destroy_all(&mut nymix).expect("fleet teardown");
    assert_eq!(nymix.hypervisor().vm_count(), 0);
    let (restored, breakdowns) = NymFleet::restore_all(
        &mut nymix,
        &names,
        AnonymizerKind::Tor,
        UsageModel::Persistent,
        "fleet-pw",
        dest_for,
    )
    .expect("fleet restores");
    println!(
        "fleet restored: {} nyms, ephemeral fetch {:.1}s each",
        restored.ids().len(),
        breakdowns[0].ephemeral_fetch.as_secs_f64()
    );

    // Every provider interaction showed an anonymizer exit, never the
    // user's address — across both batched rounds and the restores.
    let user_ip = nymix.public_ip();
    let provider = nymix.cloud_provider("dropbox").expect("registered");
    assert!(provider.access_log().total_recorded() > 0);
    for entry in provider.access_log() {
        assert_ne!(entry.observed_ip, user_ip, "provider saw the user");
    }
    println!(
        "provider observed {} operations, none from the user's address",
        provider.access_log().total_recorded()
    );

    // Crash-consistent disk tier: snapshot the restored fleet to the
    // journaled disk store, then cut power during the *next* batched
    // save. Each batch is one checksummed log frame that commits only
    // once a superblock covers it, so a fresh manager attached to the
    // torn device recovers the whole fleet at one save — never a blend.
    let disk_round = restored
        .save_round(&mut nymix, "fleet-pw", |_| StorageDest::Disk)
        .expect("fleet saves to disk");
    println!(
        "fleet save #3 (journaled disk): {} sealed bytes, device commit {:.0} ms",
        disk_round.iter().map(|(_, b, _)| b).sum::<usize>(),
        disk_round[0].2.as_secs_f64() * 1e3
    );
    // Dies at the log fsync, with the batch's frame still in the
    // write cache.
    let armed = nymix.disk_store().disk().ops() + 1;
    nymix.set_disk_fault_plan(FaultPlan::kill_at_op(armed));
    let cut = restored.save_round(&mut nymix, "fleet-pw", |_| StorageDest::Disk);
    assert!(cut.is_err(), "the armed power cut must abort the save");

    let mut recovered = NymManager::with_host_ram(2027, 8, 65_536);
    recovered
        .attach_disk(nymix.crash_disk(CrashMode::All))
        .expect("disk recovery never fails on a torn image");
    let (back, _) = NymFleet::restore_all(
        &mut recovered,
        &names,
        AnonymizerKind::Tor,
        UsageModel::Persistent,
        "fleet-pw",
        |_| StorageDest::Disk,
    )
    .expect("every nym survives the power cut");
    assert_eq!(back.ids().len(), FLEET);
    println!(
        "power cut mid-save: fresh manager recovered all {} nyms from the torn image",
        back.ids().len()
    );

    // Multi-provider placement: no single provider is a point of
    // failure *or* surveillance. The fleet's chains stripe 2-of-3
    // across three independent providers (1.5x storage, any single
    // loss survivable) — and one of the three is already dark when the
    // save lands, so the batch commits on the two-child quorum and the
    // missed shards queue for repair.
    recovered.register_striped(
        2,
        &[
            ("dropbox", "stripe-acct", "stripe-tok"),
            ("gdrive", "stripe-acct", "stripe-tok"),
            ("s3", "stripe-acct", "stripe-tok"),
        ],
    );
    recovered.striped_provider_mut("gdrive").unwrap().outage();
    let striped_round = back
        .save_round(&mut recovered, "fleet-pw", |_| StorageDest::Striped)
        .expect("a degraded 2-of-3 save still meets quorum");
    let queued = recovered.striped_store().unwrap().pending_repairs();
    assert!(queued > 0, "the dark provider's shards queue for repair");
    println!(
        "fleet save #4 (2-of-3 striped, one provider dark): {} sealed bytes, {queued} shards queued for repair",
        striped_round.iter().map(|(_, b, _)| b).sum::<usize>(),
    );

    // Amnesia again, then restore with the provider *still* down:
    // every chain object decodes from the two surviving shards.
    back.destroy_all(&mut recovered).expect("fleet teardown");
    let (survivors, _) = NymFleet::restore_all(
        &mut recovered,
        &names,
        AnonymizerKind::Tor,
        UsageModel::Persistent,
        "fleet-pw",
        |_| StorageDest::Striped,
    )
    .expect("2-of-3 survives any single provider outage");
    assert_eq!(survivors.ids().len(), FLEET);

    // The provider returns; one repair pass reads only the degraded
    // objects and re-materializes the shards it missed.
    recovered.striped_provider_mut("gdrive").unwrap().heal();
    let report = recovered.repair_striped().expect("placement registered");
    assert_eq!(report.shards_still_missing, 0);
    assert_eq!(recovered.striped_store().unwrap().pending_repairs(), 0);
    println!(
        "provider outage absorbed: {FLEET} nyms restored degraded, {} shards re-materialized on repair",
        report.shards_rebuilt
    );

    // End-of-run observability: the Chrome trace of every pipeline
    // stage plus the merged metrics snapshot. Both artifacts carry
    // only registered static labels and plain numbers — safe to ship.
    if tracing {
        let snap = nymix_obs::snapshot();
        println!(
            "obs: disk.garbage_bytes={} placement.repair_queue={} (snapshot follows)",
            snap.gauge("disk.garbage_bytes"),
            snap.gauge("placement.repair_queue"),
        );
        println!("{}", snap.to_json());
        let out =
            std::env::var("NYMIX_TRACE_OUT").unwrap_or_else(|_| "nym_fleet_trace.json".to_string());
        let trace = nymix_obs::trace_json();
        std::fs::write(&out, &trace).expect("writing trace file");
        println!("wrote Chrome trace to {out} ({} bytes)", trace.len());
    }
}
