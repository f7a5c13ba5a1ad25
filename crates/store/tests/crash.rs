//! Exhaustive crash-point matrix for the log-structured disk store.
//!
//! For *every* write/fsync boundary of a batch commit, and for every
//! crash mode in the covering set (nothing landed, each whole-write
//! prefix, torn final sector, everything landed), this suite kills the device, reopens the image, and checks
//! the recovered store is exactly the pre-batch or the post-batch
//! state — never a blend — and that recovering twice equals recovering
//! once. CI runs this under `--release` (the `crash-matrix` job), the
//! profile where unchecked-arithmetic torn-write bugs actually
//! manifest.

use std::collections::BTreeMap;

use nymix_store::disk::{log, DiskError, FileId};
use nymix_store::{CrashMode, DiskStore, FaultPlan, ObjectBackend, SimDisk};

fn contents(store: &mut DiskStore) -> BTreeMap<String, Vec<u8>> {
    let mut names = Vec::new();
    store.list(&mut names).unwrap();
    names
        .into_iter()
        .map(|n| {
            let d = store.get(&n).unwrap().expect("listed object").to_vec();
            (n, d)
        })
        .collect()
}

/// A baseline store shaped like a mid-life nym label: a base blob, an
/// epoch record, and a couple of chunk objects about to be retired.
fn baseline() -> DiskStore {
    let mut s = DiskStore::new();
    s.apply_batch(
        vec![
            ("nym:a@disk".into(), vec![0x11; 700]),
            ("nym:a@disk/snapshot.epoch".into(), b"e1".to_vec()),
            ("nym:a@disk#e1/c/aaaa".into(), vec![0x22; 300]),
            ("nym:a@disk#e1/c/bbbb".into(), vec![0x33; 90]),
        ],
        Vec::new(),
    )
    .unwrap();
    s
}

/// The batch under test: a GC-shaped transaction — new epoch objects
/// land while retired ones are deleted, in one atomic apply_batch.
fn gc_batch(s: &mut DiskStore) -> Result<(), nymix_store::BackendError> {
    s.apply_batch(
        vec![
            ("nym:a@disk".into(), vec![0x44; 650]),
            ("nym:a@disk/snapshot.epoch".into(), b"e2".to_vec()),
            ("nym:a@disk#e2/c/cccc".into(), vec![0x55; 420]),
        ],
        vec!["nym:a@disk#e1/c/aaaa".into(), "nym:a@disk#e1/c/bbbb".into()],
    )
}

#[test]
fn every_crash_point_recovers_to_pre_or_post_batch() {
    let pre = {
        let mut s = baseline();
        contents(&mut s)
    };
    let post = {
        let mut s = baseline();
        gc_batch(&mut s).unwrap();
        contents(&mut s)
    };
    assert_ne!(pre, post);

    let (mut seen_pre, mut seen_post, mut points) = (0u32, 0u32, 0u32);
    for kill in 0u64.. {
        let mut s = baseline();
        let base_ops = s.disk().ops();
        s.set_fault_plan(FaultPlan::kill_at_op(base_ops + kill));
        if gc_batch(&mut s).is_ok() {
            // The kill point lies beyond the batch: matrix exhausted.
            break;
        }
        points += 1;
        // Each write is fsynced before the next, so a kill leaves at
        // most one queued and CrashMode needs no reordering shapes.
        let pending = s.disk().pending_writes();
        assert!(pending <= 1, "kill {kill}: {pending} writes queued");
        let last_len = 64; // torn-tail granularity for the covering set
        for mode in CrashMode::covering_set(pending, last_len) {
            let img = s.crash(mode);
            let mut r = DiskStore::open(img.clone())
                .unwrap_or_else(|e| panic!("kill {kill} {mode:?}: recovery failed: {e}"));
            let got = contents(&mut r);
            if got == pre {
                seen_pre += 1;
            } else if got == post {
                seen_post += 1;
            } else {
                panic!("kill {kill} {mode:?}: intermediate state observed");
            }
            // Chunk GC atomicity: the retired chunks and their
            // replacement never coexist, in either direction.
            let has_old = got.contains_key("nym:a@disk#e1/c/aaaa");
            let has_new = got.contains_key("nym:a@disk#e2/c/cccc");
            assert_ne!(
                has_old, has_new,
                "kill {kill} {mode:?}: mark-and-sweep half-applied"
            );

            // Idempotence: recover the same image again.
            let mut r2 = DiskStore::open(DiskStore::open(img).unwrap().into_disk()).unwrap();
            assert_eq!(
                contents(&mut r2),
                got,
                "kill {kill} {mode:?}: re-recovery differs"
            );
        }
    }
    // Frame append, log fsync, superblock write, superblock fsync.
    assert_eq!(points, 4, "the commit protocol is four device operations");
    assert!(seen_pre > 0, "no crash point preserved the pre-state");
    assert!(seen_post > 0, "no crash point reached the post-state");
}

#[test]
fn crash_matrix_across_consecutive_batches() {
    // Crash during the second of two batches: the first must survive
    // regardless of mode; the second is all-or-nothing.
    let batch1 = vec![("one".to_string(), vec![1u8; 120])];
    let batch2 = vec![
        ("two".to_string(), vec![2u8; 80]),
        ("one".to_string(), vec![9u8; 40]), // overwrite
    ];
    for kill in 0u64..16 {
        let mut s = DiskStore::new();
        s.apply_batch(batch1.clone(), Vec::new()).unwrap();
        let base_ops = s.disk().ops();
        s.set_fault_plan(FaultPlan::kill_at_op(base_ops + kill));
        if s.apply_batch(batch2.clone(), Vec::new()).is_ok() {
            break;
        }
        let pending = s.disk().pending_writes();
        assert!(pending <= 1, "kill {kill}: {pending} writes queued");
        for mode in CrashMode::covering_set(pending, 32) {
            let mut r = DiskStore::open(s.crash(mode)).unwrap();
            let got = contents(&mut r);
            match got.get("one").map(|d| d[0]) {
                Some(1) => assert!(!got.contains_key("two"), "{kill} {mode:?}"),
                Some(9) => assert_eq!(got["two"], vec![2u8; 80], "{kill} {mode:?}"),
                other => panic!("{kill} {mode:?}: batch1 lost ({other:?})"),
            }
        }
    }
}

#[test]
fn recovered_store_accepts_new_writes() {
    // The recovered store must keep working, and the rolled-forward +
    // new state must survive another graceful reopen.
    let mut s = baseline();
    let base_ops = s.disk().ops();
    s.set_fault_plan(FaultPlan::kill_at_op(base_ops + 2));
    let _ = gc_batch(&mut s);
    let mut r = DiskStore::open(s.crash(CrashMode::All)).unwrap();
    r.put("post-recovery", vec![0x77; 33]).unwrap();
    let want = contents(&mut r);
    let mut again = DiskStore::open(r.into_disk()).unwrap();
    assert_eq!(contents(&mut again), want);
}

#[test]
fn bit_flips_on_crashed_images_never_panic() {
    // Crash + media corruption combined: every recovery either
    // succeeds with a consistent store or fails closed. Never panics,
    // never yields a store with unreadable listed objects.
    let mut s = baseline();
    let base_ops = s.disk().ops();
    s.set_fault_plan(FaultPlan::kill_at_op(base_ops + 3));
    let _ = gc_batch(&mut s);
    let img = s.crash(CrashMode::All);
    for file in [FileId::Journal, FileId::Heap] {
        let nbits = img.len(file) * 8;
        for bit in (0..nbits).step_by(101) {
            let mut flipped: SimDisk = img.clone();
            flipped.corrupt_durable_bit(file, bit);
            if let Ok(mut r) = DiskStore::open(flipped) {
                let mut names = Vec::new();
                r.list(&mut names).unwrap();
                for n in names {
                    assert!(
                        r.get(&n).unwrap().is_some(),
                        "{file:?} bit {bit}: listed but unreadable"
                    );
                }
            }
        }
    }
}

/// The baseline with the GC batch's frame fsynced but its superblock
/// write lost: `kill` indexes the batch's device operations.
fn frame_without_superblock(kill: u64) -> SimDisk {
    let mut s = baseline();
    let base_ops = s.disk().ops();
    s.set_fault_plan(FaultPlan::kill_at_op(base_ops + kill));
    assert!(gc_batch(&mut s).is_err());
    s.crash(CrashMode::None)
}

#[test]
fn frame_without_superblock_rolls_forward_without_writing() {
    let post = {
        let mut s = baseline();
        gc_batch(&mut s).unwrap();
        contents(&mut s)
    };
    // Killed at the superblock write and at its fsync: either way only
    // the frame is durable.
    for kill in [2, 3] {
        let img = frame_without_superblock(kill);
        let durable = (
            img.durable(FileId::Journal).to_vec(),
            img.durable(FileId::Heap).to_vec(),
        );
        let mut r = DiskStore::open(img).expect("roll-forward");
        assert_eq!(r.disk().ops(), 0, "kill {kill}: open wrote to the device");
        assert_eq!(contents(&mut r), post, "kill {kill}");
        assert_eq!(
            (
                r.disk().durable(FileId::Journal).to_vec(),
                r.disk().durable(FileId::Heap).to_vec()
            ),
            durable,
            "kill {kill}: open changed the image"
        );
    }
}

#[test]
fn batch_after_roll_forward_lost_before_its_superblock() {
    // Recover the rolled-forward image, commit one more batch, and lose
    // power at each operation before that batch's superblock is
    // durable: recovery returns the rolled-forward batch and nothing of
    // the second, again without a write.
    let post = {
        let mut s = baseline();
        gc_batch(&mut s).unwrap();
        contents(&mut s)
    };
    for kill in 0u64..4 {
        let mut r = DiskStore::open(frame_without_superblock(2)).unwrap();
        let base_ops = r.disk().ops();
        r.set_fault_plan(FaultPlan::kill_at_op(base_ops + kill));
        let second = r.apply_batch(vec![("second".into(), vec![0x66; 200])], Vec::new());
        assert!(second.is_err(), "kill {kill}");
        let mut again = DiskStore::open(r.crash(CrashMode::None)).unwrap();
        assert_eq!(again.disk().ops(), 0, "kill {kill}: open wrote");
        assert_eq!(contents(&mut again), post, "kill {kill}");
    }
}

/// A device image whose log holds `frames` (seq and one put each),
/// built by hand with valid checksums, under a superblock committing
/// all of them with `applied_seq`.
fn forged_image(frames: &[u64], applied_seq: u64) -> SimDisk {
    let mut disk = SimDisk::new();
    let mut at = 0;
    for (i, &seq) in frames.iter().enumerate() {
        let mut buf = Vec::new();
        log::encode_frame(
            seq,
            &[(format!("obj{i}"), vec![i as u8; 20])],
            &[],
            &mut buf,
        );
        disk.write(FileId::Heap, at, &buf).unwrap();
        at += buf.len();
    }
    let sb = log::Superblock {
        gen: 2,
        applied_seq,
        log_len: at as u64,
    };
    disk.write(FileId::Journal, 0, &log::encode_superblock(&sb))
        .unwrap();
    disk.fsync(FileId::Heap).unwrap();
    disk.fsync(FileId::Journal).unwrap();
    disk
}

#[test]
fn committed_seq_gap_or_replayed_frame_fails_closed() {
    let mut ok = DiskStore::open(forged_image(&[1, 2, 3], 3)).expect("control");
    assert_eq!(contents(&mut ok).len(), 3);
    for (frames, applied) in [
        (&[1, 3][..], 3), // a seq gap
        (&[1, 2, 2], 2),  // a replayed frame
        (&[1, 1], 1),     // a replayed first frame
        (&[2, 3], 3),     // the log does not start at seq 1
        (&[1, 2], 3),     // superblock claims a frame the log lacks
        (&[1, 2], 1),     // the log runs past the superblock's seq
    ] {
        assert!(
            matches!(
                DiskStore::open(forged_image(frames, applied)),
                Err(DiskError::CorruptHeap(_))
            ),
            "{frames:?} under applied_seq {applied} accepted"
        );
    }
}
