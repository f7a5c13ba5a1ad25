//! Property-based tests over the Nym Manager: arbitrary operation
//! sequences must never violate the core invariants.

use nymix::{NymId, NymManager, StorageDest, UsageModel};
use nymix_anon::AnonymizerKind;
use nymix_workload::Site;
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Create(u8),
    Visit(u8),
    Save(u8),
    Destroy(u8),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..4).prop_map(Op::Create),
        (0u8..4).prop_map(Op::Visit),
        (0u8..4).prop_map(Op::Save),
        (0u8..4).prop_map(Op::Destroy),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Invariants under arbitrary op interleavings:
    /// 1. used memory never exceeds host RAM;
    /// 2. destroying everything returns memory to the baseline;
    /// 3. the VM count is always exactly 2x the live-nym count;
    /// 4. operations on dead nyms fail cleanly (no panic).
    #[test]
    fn manager_invariants_hold(ops in proptest::collection::vec(arb_op(), 1..25), seed in any::<u64>()) {
        let mut m = NymManager::new(seed, 256);
        m.register_cloud("c", "a", "t");
        let dest = StorageDest::Cloud {
            provider: "c".into(),
            account: "a".into(),
            credential: "t".into(),
        };
        let baseline = m.hypervisor().used_memory_mib();
        let mut live: [Option<NymId>; 4] = [None; 4];
        for op in ops {
            match op {
                Op::Create(slot) => {
                    let slot = slot as usize;
                    if live[slot].is_none() {
                        if let Ok((id, _)) = m.create_nym(
                            &format!("p{slot}"),
                            AnonymizerKind::Tor,
                            UsageModel::Persistent,
                        ) {
                            live[slot] = Some(id);
                        }
                    }
                }
                Op::Visit(slot) => {
                    let slot = slot as usize;
                    match live[slot] {
                        Some(id) => { m.visit_site(id, Site::Bbc).expect("live nym visit"); }
                        None => { prop_assert!(m.visit_site(NymId(9999), Site::Bbc).is_err()); }
                    }
                }
                Op::Save(slot) => {
                    if let Some(id) = live[slot as usize] {
                        m.save_nym(id, "pw", &dest).expect("live nym save");
                    }
                }
                Op::Destroy(slot) => {
                    let slot = slot as usize;
                    if let Some(id) = live[slot].take() {
                        m.destroy_nym(id).expect("live nym destroy");
                        prop_assert!(m.destroy_nym(id).is_err(), "double destroy must fail");
                    }
                }
            }
            // Invariant 1 and 3 after every step.
            prop_assert!(m.hypervisor().used_memory_mib() <= 16_384.0);
            let live_count = live.iter().filter(|s| s.is_some()).count();
            prop_assert_eq!(m.hypervisor().vm_count(), live_count * 2);
        }
        for id in live.into_iter().flatten() {
            m.destroy_nym(id).expect("cleanup");
        }
        prop_assert_eq!(m.hypervisor().used_memory_mib(), baseline);
    }

    /// Save → restore is lossless for the browser-visible filesystem,
    /// for any site mix.
    #[test]
    fn save_restore_lossless(sites in proptest::collection::vec(0usize..8, 1..4), seed in any::<u64>()) {
        let mut m = NymManager::new(seed, 256);
        let (id, _) = m
            .create_nym("r", AnonymizerKind::Tor, UsageModel::Persistent)
            .expect("capacity");
        for s in &sites {
            m.visit_site(id, Site::VISIT_ORDER[*s]).expect("live");
        }
        let nb = m.nymbox(id).expect("live").clone();
        let before = m
            .hypervisor()
            .vm(nb.anon_vm)
            .expect("vm")
            .disk()
            .walk_files(&nymix_fs::Path::new("/home/user"));
        m.save_nym(id, "pw", &StorageDest::Disk).expect("save");
        m.destroy_nym(id).expect("live");
        let (id2, _) = m
            .restore_nym("r", AnonymizerKind::Tor, UsageModel::Persistent, "pw", &StorageDest::Disk)
            .expect("restore");
        let nb2 = m.nymbox(id2).expect("live").clone();
        let after = m
            .hypervisor()
            .vm(nb2.anon_vm)
            .expect("vm")
            .disk()
            .walk_files(&nymix_fs::Path::new("/home/user"));
        prop_assert_eq!(before, after);
    }
}
