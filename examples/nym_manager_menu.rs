//! The §3.5 Nym Manager workflow as a scripted menu session.
//!
//! "In a typical workflow, Nymix on boot presents the user with a Nym
//! Manager, offering options to start a fresh nym or load an existing
//! nym... the user returns to the Nym Manager and selects store nym.
//! The user enters a name for the nym, a password to encrypt it with,
//! and an indication of a cloud service on which to store the nym."
//!
//! This example drives that exact command sequence (scripted rather
//! than interactive, so it runs under CI) and prints what the user
//! would see.
//!
//! Run with: `cargo run --example nym_manager_menu`

use nymix::{NymManager, NymManagerError, StartupBreakdown, StorageDest, UsageModel};
use nymix_anon::AnonymizerKind;
use nymix_workload::Site;

/// The menu commands a user can issue.
enum Command {
    StartFreshNym {
        name: &'static str,
    },
    Browse {
        name: &'static str,
        site: Site,
    },
    StoreNym {
        name: &'static str,
        password: &'static str,
    },
    CloseNym {
        name: &'static str,
    },
    LoadExistingNym {
        name: &'static str,
        password: &'static str,
    },
}

/// One Figure 7 stacked-bar row for a nym launch.
fn startup_row(label: &str, b: &StartupBreakdown) -> String {
    format!(
        "{label}: boot={:.1}s tor={:.1}s page={:.1}s ephemeral={:.1}s total={:.1}s",
        b.boot_vm.as_secs_f64(),
        b.start_anonymizer.as_secs_f64(),
        b.load_page.as_secs_f64(),
        b.ephemeral_fetch.as_secs_f64(),
        b.total().as_secs_f64()
    )
}

fn run(script: Vec<Command>) -> Result<(), NymManagerError> {
    let mut nymix = NymManager::new(31337, 64);
    nymix.register_cloud("dropbox", "pseudonymous-acct", "app-token");
    let dest = StorageDest::Cloud {
        provider: "dropbox".into(),
        account: "pseudonymous-acct".into(),
        credential: "app-token".into(),
    };
    let mut live: std::collections::BTreeMap<&str, nymix::NymId> = Default::default();

    for cmd in script {
        match cmd {
            Command::StartFreshNym { name } => {
                let (id, b) =
                    nymix.create_nym(name, AnonymizerKind::Tor, UsageModel::Persistent)?;
                live.insert(name, id);
                println!("> start a fresh nym '{name}'");
                println!("  {}", startup_row(name, &b));
            }
            Command::Browse { name, site } => {
                let id = live[name];
                let t = nymix.visit_site(id, site)?;
                println!("> browse {:?} in '{name}'  ({:.1}s)", site, t.as_secs_f64());
            }
            Command::StoreNym { name, password } => {
                let id = live[name];
                let (bytes, dur) = nymix.save_nym(id, password, &dest)?;
                println!(
                    "> store nym '{name}' -> dropbox ({} bytes sealed, {:.1}s upload)",
                    bytes,
                    dur.as_secs_f64()
                );
            }
            Command::CloseNym { name } => {
                let id = live.remove(name).expect("script bug: nym not live");
                nymix.destroy_nym(id)?;
                println!("> close nym '{name}' (memory wiped)");
            }
            Command::LoadExistingNym { name, password } => {
                let (id, b) = nymix.restore_nym(
                    name,
                    AnonymizerKind::Tor,
                    UsageModel::Persistent,
                    password,
                    &dest,
                )?;
                live.insert(name, id);
                println!("> load an existing nym '{name}'");
                println!("  {}", startup_row(name, &b));
            }
        }
    }

    // Every nym went to the cloud: the local disk must stay blank.
    let local_bytes = nymix.disk_store().committed_heap_len();
    println!(
        "\nsession over; host at {:.0} MiB; local evidence: {local_bytes} bytes",
        nymix.hypervisor().used_memory_mib(),
    );
    assert_eq!(local_bytes, 0, "a cloud session left bytes on local media");
    Ok(())
}

fn main() {
    // Night one: create the pseudonymous Twitter nym, log in, store it.
    // Night two: load it back (credentials intact), read, store again.
    let script = vec![
        Command::StartFreshNym { name: "tyr-press" },
        Command::Browse {
            name: "tyr-press",
            site: Site::Twitter,
        },
        Command::StoreNym {
            name: "tyr-press",
            password: "len(gth)-of-rope",
        },
        Command::CloseNym { name: "tyr-press" },
        Command::LoadExistingNym {
            name: "tyr-press",
            password: "len(gth)-of-rope",
        },
        Command::Browse {
            name: "tyr-press",
            site: Site::Twitter,
        },
        Command::StoreNym {
            name: "tyr-press",
            password: "len(gth)-of-rope",
        },
        Command::CloseNym { name: "tyr-press" },
    ];
    run(script).expect("workflow succeeds");
}
