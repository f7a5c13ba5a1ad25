//! Bob's workflow (§2, Tyrannistan): boot the installed OS read-only,
//! pull a protest photo through the SaniVM scrubber, post it from a
//! Tor nym, and keep the nym's state in the cloud — nothing
//! incriminating on the machine.
//!
//! Run with: `cargo run --example dissident_workflow`

use nymix::{InstalledOs, NymManager, OsKind, SaniVm, StorageDest, UsageModel};
use nymix_anon::AnonymizerKind;
use nymix_fs::Path;
use nymix_sanitizer::{JpegImage, MediaFile, ParanoiaLevel};
use nymix_workload::Site;

fn main() {
    let mut nymix = NymManager::new(7, 64);
    nymix.register_cloud("dropbox", "throwaway-8841", "app-token");

    // 1. Boot the installed Windows as a (non-anonymous) nym to find
    //    the photo. The physical disk stays read-only; the repair pass
    //    writes only into a copy-on-write layer (§3.7).
    let mut windows = InstalledOs::new(OsKind::Windows7);
    let outcome = windows.repair_and_boot();
    println!(
        "installed Windows 7 booted as a nym: repair {:.1}s, boot {:.1}s, cow {:.1} MB",
        outcome.repair_time.as_secs_f64(),
        outcome.boot_time.as_secs_f64(),
        outcome.cow_mb()
    );
    // The camera dropped the protest photo on the Windows disk.
    windows
        .disk_mut()
        .write(
            &Path::new("/users/owner/pictures/protest.jpg"),
            MediaFile::Jpeg(JpegImage::protest_photo()).to_bytes(),
        )
        .expect("cow layer writable");

    // 2. Start the pseudonymous Twitter nym over Tor.
    let (nym, _) = nymix
        .create_nym("tyr-press", AnonymizerKind::Tor, UsageModel::Persistent)
        .expect("capacity");
    nymix.visit_site(nym, Site::Twitter).expect("live nym");

    // 3. The SaniVM is the only path for the photo into the nymbox.
    //    Paranoid level: strip EXIF (GPS + camera serial!), blur the
    //    two visible faces, add noise against watermarks.
    let mut sani = SaniVm::new();
    sani.mount_host_fs("windows", windows.disk().clone());
    let nb = nymix.nymbox(nym).expect("nym exists").clone();
    // Split-borrow the AnonVM out of the manager for the transfer.
    let report = {
        let anon_vm_id = nb.anon_vm;
        let hv = nymix.hypervisor_mut();
        let vm = hv.vm_mut(anon_vm_id).expect("anonvm exists");
        let (report, landed) = sani
            .transfer_to_nym(
                "windows",
                &Path::new("/users/owner/pictures/protest.jpg"),
                "tyr-press",
                vm,
                ParanoiaLevel::Paranoid,
                false,
            )
            .expect("paranoid scrub leaves nothing risky");
        println!("photo scrubbed and delivered to {landed}");
        report
    };
    println!("risks found: {}", report.risks_before.len());
    for r in &report.risks_before {
        println!("  - {:?}: {}", r.kind, r.detail);
    }
    println!("risks after scrubbing: {}", report.risks_after.len());

    // 4. Save the nym to the cloud, anonymously. The provider sees a
    //    Tor exit and ciphertext; the machine keeps nothing.
    let dest = StorageDest::Cloud {
        provider: "dropbox".into(),
        account: "throwaway-8841".into(),
        credential: "app-token".into(),
    };
    let (size, duration) = nymix
        .save_nym(nym, "len(gth)-of-rope", &dest)
        .expect("save");
    println!(
        "nym sealed to cloud: {size} bytes in {:.1}s",
        duration.as_secs_f64()
    );
    nymix.destroy_nym(nym).expect("nym exists");
    windows.discard_session();

    // 5. What an inspection finds: no local nym blobs, pristine
    //    Windows, provider log shows only the exit address.
    let local_bytes = nymix.disk_store().committed_heap_len();
    println!("local evidence after shutdown: {local_bytes} bytes on disk");
    assert_eq!(local_bytes, 0, "a cloud session left bytes on local media");
    let provider = nymix.cloud_provider("dropbox").expect("registered");
    let user_ip = nymix.public_ip();
    let saw_user = provider
        .access_log()
        .iter()
        .any(|e| e.observed_ip == user_ip);
    println!("cloud provider ever saw Bob's IP: {saw_user}");

    // 6. Bob comes back for another browser session. Incremental saves
    //    upload only what changed — and with content-addressed chunking
    //    a write inside the big AnonVM disk record ships a manifest
    //    plus the few chunks it touched, not the whole record.
    let (full_bytes, delta_bytes) = follow_up_session();
    println!("follow-up session, bytes uploaded through Tor:");
    println!("  first save (full, chunked):      {full_bytes:>8} B");
    println!("  next save (one session's delta): {delta_bytes:>8} B");
    println!(
        "  the incremental save ships {:.1}x fewer bytes",
        full_bytes as f64 / delta_bytes as f64
    );
}

/// One follow-up workflow — resume the nym, browse, save incrementally
/// twice — returning (full-save bytes, incremental-save bytes) actually
/// uploaded. Deterministic: the same seed always ships the same bytes.
fn follow_up_session() -> (usize, usize) {
    let mut nymix = NymManager::new(11, 8);
    nymix.register_cloud("dropbox", "throwaway-8841", "app-token");
    let dest = StorageDest::Cloud {
        provider: "dropbox".into(),
        account: "throwaway-8841".into(),
        credential: "app-token".into(),
    };
    let (nym, _) = nymix
        .create_nym("tyr-press", AnonymizerKind::Tor, UsageModel::Persistent)
        .expect("capacity");
    nymix.visit_site(nym, Site::Twitter).expect("live nym");
    let (_, full_bytes, _) = nymix
        .save_nym_incremental(nym, "len(gth)-of-rope", &dest)
        .expect("save");
    // The next session dirties the browser cache inside the AnonVM.
    nymix.visit_site(nym, Site::TorBlog).expect("live nym");
    let (_, delta_bytes, _) = nymix
        .save_nym_incremental(nym, "len(gth)-of-rope", &dest)
        .expect("save");
    (full_bytes, delta_bytes)
}
