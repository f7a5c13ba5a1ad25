//! A day in the life: scheduled nym sessions (morning news, lunchtime
//! mail, evening pseudonymous posting) played from a plain schedule
//! sorted by time, with peak host memory sampled after each session
//! starts.
//!
//! Run with: `cargo run --example daily_routine`

use nymix::{NymId, NymManager, UsageModel};
use nymix_anon::AnonymizerKind;
use nymix_sim::{SimDuration, SimTime};
use nymix_workload::Site;

enum Event {
    Start(usize),
    Teardown(usize),
}

fn main() {
    // (start, name, anonymizer, sites) in daily order.
    let day: [(SimDuration, &str, AnonymizerKind, &[Site]); 3] = [
        // 07:30 — coffee and headlines (throwaway nym, Tor).
        (
            SimDuration::from_secs(7 * 3600 + 30 * 60),
            "news",
            AnonymizerKind::Tor,
            &[Site::Bbc, Site::Slashdot],
        ),
        // 12:15 — lunch: mail + video (incognito is fine for this role).
        (
            SimDuration::from_secs(12 * 3600 + 15 * 60),
            "lunch",
            AnonymizerKind::Incognito,
            &[Site::Gmail, Site::Youtube],
        ),
        // 22:00 — the pseudonymous feed, over Dissent, while most users
        // are online (intersection hygiene).
        (
            SimDuration::from_secs(22 * 3600),
            "nightpost",
            AnonymizerKind::Dissent,
            &[Site::Twitter],
        ),
    ];
    // A session lasts half an hour, then the nym evaporates.
    let session = SimDuration::from_secs(30 * 60);

    // Every start and every teardown, sorted by time; the stable sort
    // keeps insertion order on ties.
    let mut schedule: Vec<(SimTime, Event)> = Vec::new();
    for (i, (start, ..)) in day.iter().enumerate() {
        let at = SimTime::ZERO + *start;
        schedule.push((at, Event::Start(i)));
        schedule.push((at + session, Event::Teardown(i)));
    }
    schedule.sort_by_key(|(at, _)| *at);

    let mut nymix = NymManager::new(2026, 64);
    let mut live: Vec<Option<NymId>> = vec![None; day.len()];
    let mut peak_memory_mib: f64 = 0.0;
    let mut sessions_done = 0u32;
    let mut end = SimTime::ZERO;

    for (at, event) in schedule {
        end = at;
        match event {
            Event::Start(i) => {
                let (_, name, kind, sites) = day[i];
                let (id, startup) = nymix
                    .create_nym(name, kind, UsageModel::Ephemeral)
                    .expect("capacity");
                let mut total = startup.total();
                for site in sites {
                    total = total + nymix.visit_site(id, *site).expect("live");
                }
                println!(
                    "[{at:>8}] {name:<10} {} site(s) in {:.1}s via {kind:?}",
                    sites.len(),
                    total.as_secs_f64()
                );
                peak_memory_mib = peak_memory_mib.max(nymix.hypervisor().used_memory_mib());
                live[i] = Some(id);
            }
            Event::Teardown(i) => {
                let id = live[i].take().expect("started before teardown");
                nymix.destroy_nym(id).expect("live");
                sessions_done += 1;
                println!("[{at:>8}] {:<10} destroyed (amnesia)", day[i].1);
            }
        }
    }

    println!("\nday finished at {end}");
    println!("sessions completed: {sessions_done}");
    println!("peak host memory:   {peak_memory_mib:.0} MiB");
    println!(
        "memory after teardown: {:.0} MiB (baseline)",
        nymix.hypervisor().used_memory_mib()
    );
    assert_eq!(sessions_done, 3);
}
