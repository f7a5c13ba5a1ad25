//! Store-level placement tests: quorum writes, verified degraded
//! reads, byzantine exclusion, fail-closed floors, and targeted
//! repair — across the (k, n) configuration space, not one layout.

use super::*;
use crate::local::LocalStore;

/// A child wrapper with switchable failure modes and operation
/// counters — the store-level stand-in for a provider outage.
struct TestChild {
    inner: LocalStore,
    fail_reads: bool,
    fail_writes: bool,
    deny: bool,
    gets: usize,
    /// `apply_batch` calls, failed ones included.
    writes: usize,
}

impl TestChild {
    fn new() -> Self {
        Self {
            inner: LocalStore::new(),
            fail_reads: false,
            fail_writes: false,
            deny: false,
            gets: 0,
            writes: 0,
        }
    }

    fn down(&mut self, down: bool) {
        self.fail_reads = down;
        self.fail_writes = down;
    }

    fn gate(&self, write: bool) -> Result<(), BackendError> {
        if self.deny {
            return Err(BackendError::Denied);
        }
        if (write && self.fail_writes) || (!write && self.fail_reads) {
            return Err(BackendError::Unavailable("child down".into()));
        }
        Ok(())
    }
}

impl ObjectBackend for TestChild {
    fn apply_batch(
        &mut self,
        puts: Vec<(String, Vec<u8>)>,
        deletes: Vec<String>,
    ) -> Result<(), BackendError> {
        self.writes += 1;
        self.gate(true)?;
        self.inner.apply_batch(puts, deletes)
    }

    fn get(&mut self, name: &str) -> Result<Option<&[u8]>, BackendError> {
        self.gate(false)?;
        self.gets += 1;
        Ok(self.inner.get(name))
    }

    fn list(&mut self, out: &mut Vec<String>) -> Result<(), BackendError> {
        self.gate(false)?;
        out.extend(self.inner.list().into_iter().map(String::from));
        Ok(())
    }
}

fn store(k: usize, n: usize) -> PlacementStore<TestChild> {
    PlacementStore::new((0..n).map(|_| TestChild::new()).collect(), k)
}

fn payload(tag: u8, len: usize) -> Vec<u8> {
    (0..len).map(|i| (i as u8).wrapping_mul(37) ^ tag).collect()
}

#[test]
fn roundtrip_across_config_space() {
    for (k, n) in [(1, 1), (1, 2), (1, 3), (2, 3), (3, 5), (2, 2)] {
        let mut s = store(k, n);
        for (i, len) in [0usize, 1, 100, 5000].into_iter().enumerate() {
            let name = format!("obj{i}");
            let data = payload(i as u8, len);
            s.put(&name, data.clone()).unwrap();
            assert_eq!(
                s.get(&name).unwrap(),
                Some(&data[..]),
                "k={k} n={n} len={len}"
            );
        }
        assert_eq!(s.get("ghost").unwrap(), None);
        assert_eq!(s.shard_counts().unwrap(), vec![4; n]);
        assert_eq!(s.pending_repairs(), 0);
    }
}

#[test]
fn every_single_child_loss_is_survivable_in_2_of_3() {
    let data = payload(9, 4096);
    for down in 0..3 {
        let mut s = store(2, 3);
        s.put("x", data.clone()).unwrap();
        s.child_mut(down).down(true);
        assert_eq!(s.get("x").unwrap(), Some(&data[..]), "child {down} down");
    }
}

#[test]
fn degraded_write_meets_quorum_and_queues_repair() {
    let mut s = store(2, 3);
    s.child_mut(2).down(true);
    let data = payload(1, 2000);
    s.put("x", data.clone()).unwrap(); // 2 of 3 landed: success
    assert_eq!(s.pending_repairs(), 1);
    assert_eq!(s.queued_objects(), vec!["x"]);
    assert_eq!(s.get("x").unwrap(), Some(&data[..]));

    // The child recovers; repair re-materializes exactly its shard.
    s.child_mut(2).down(false);
    let report = s.repair();
    assert_eq!(report.shards_rebuilt, 1);
    assert_eq!(report.shards_still_missing, 0);
    assert_eq!(s.pending_repairs(), 0);
    assert_eq!(s.shard_counts().unwrap(), vec![1, 1, 1]);
    // Full redundancy again: any single child now suffices to fail.
    s.child_mut(0).down(true);
    assert_eq!(s.get("x").unwrap(), Some(&data[..]));
}

#[test]
fn write_below_quorum_fails_unavailable() {
    let mut s = store(2, 3);
    s.child_mut(0).down(true);
    s.child_mut(1).down(true);
    let err = s.put("x", payload(2, 100)).unwrap_err();
    assert!(matches!(err, BackendError::Unavailable(_)), "got {err:?}");
    // Nothing was queued for a write that reported failure.
    assert_eq!(s.pending_repairs(), 0);
}

#[test]
fn read_below_quorum_fails_closed_not_absent() {
    let mut s = store(2, 3);
    s.put("x", payload(3, 500)).unwrap();
    // n−k+1 = 2 children lost: the object is unreadable, and crucially
    // the error is Unavailable — never Ok(None), which would silently
    // truncate a delta chain.
    s.child_mut(0).down(true);
    s.child_mut(1).down(true);
    let err = s.get("x").unwrap_err();
    assert!(matches!(err, BackendError::Unavailable(_)), "got {err:?}");
    // A genuinely absent object still reads as absent while a minority
    // of children is down (the reachable majority is authoritative).
    s.child_mut(1).down(false);
    assert_eq!(s.get("ghost").unwrap(), None);
}

#[test]
fn denied_child_fails_everything_closed() {
    let mut s = store(2, 3);
    s.put("x", payload(4, 100)).unwrap();
    s.child_mut(1).deny = true;
    assert_eq!(s.put("y", vec![1]), Err(BackendError::Denied));
    assert_eq!(s.get("x"), Err(BackendError::Denied));
    let mut names = Vec::new();
    assert_eq!(s.list(&mut names), Err(BackendError::Denied));
}

#[test]
fn garbage_shards_are_excluded_not_decoded() {
    let mut s = store(2, 3);
    let data = payload(5, 3000);
    s.put("x", data.clone()).unwrap();
    // One child serves garbage of the right length: hash verification
    // excludes it and the read reconstructs from the two survivors.
    let shard_len = s.child_mut(0).inner.get("x").unwrap().len();
    s.child_mut(0).inner.put("x", vec![0xAA; shard_len]);
    assert_eq!(s.get("x").unwrap(), Some(&data[..]));
    // The lying child was queued for re-materialization.
    assert_eq!(s.queued_objects(), vec!["x"]);
    let report = s.repair();
    assert_eq!(report.shards_rebuilt, 1);
    assert_eq!(s.get("x").unwrap(), Some(&data[..]));
    assert_eq!(s.pending_repairs(), 0);
}

#[test]
fn stale_shards_cannot_mix_into_a_decode() {
    let mut s = store(2, 3);
    let old = payload(6, 2048);
    let new = payload(7, 2048);
    s.put("x", old.clone()).unwrap();
    // Child 0 keeps the old version (a byzantine provider serving
    // stale): snapshot its shard, overwrite everything, restore it.
    let stale = s.child_mut(0).inner.get("x").unwrap().to_vec();
    s.put("x", new.clone()).unwrap();
    s.child_mut(0).inner.put("x", stale);
    // The stale shard is hash-valid — but its object hash groups it
    // apart, so the decode uses only the two new-version shards.
    assert_eq!(s.get("x").unwrap(), Some(&new[..]));
    // And the stale child is queued for refresh.
    assert_eq!(s.queued_objects(), vec!["x"]);
}

#[test]
fn corruption_beyond_tolerance_fails_closed_with_children_up() {
    let mut s = store(2, 3);
    s.put("x", payload(8, 1000)).unwrap();
    for ci in 0..2 {
        let len = s.child_mut(ci).inner.get("x").unwrap().len();
        s.child_mut(ci).inner.put("x", vec![0x55; len]);
    }
    // Only one verified shard left: present but unreconstructable is a
    // permanent failure, not Unavailable (nothing is down) and never
    // wrong bytes.
    let err = s.get("x").unwrap_err();
    assert!(matches!(err, BackendError::Other(_)), "got {err:?}");
}

#[test]
fn mirror_mode_survives_all_but_one() {
    let mut s = store(1, 3);
    let data = payload(9, 777);
    s.put("x", data.clone()).unwrap();
    s.child_mut(0).down(true);
    s.child_mut(2).down(true);
    assert_eq!(s.get("x").unwrap(), Some(&data[..]));
}

#[test]
fn batched_writes_fan_out_one_batch_per_child_and_degrade() {
    let mut s = store(2, 3);
    s.child_mut(1).down(true);
    let objects: Vec<(String, Vec<u8>)> = (0..4)
        .map(|i| (format!("o{i}"), payload(i as u8, 800)))
        .collect();
    s.apply_batch(objects.clone(), Vec::new()).unwrap();
    // Every object of the batch is queued for the failed child.
    assert_eq!(s.pending_repairs(), 4);
    for (name, data) in &objects {
        assert_eq!(s.get(name).unwrap(), Some(&data[..]));
    }
    s.child_mut(1).down(false);
    let report = s.repair();
    assert_eq!(report.shards_rebuilt, 4);
    assert_eq!(s.shard_counts().unwrap(), vec![4, 4, 4]);
}

#[test]
fn apply_batch_deletes_are_queued_on_down_children_and_do_not_resurrect() {
    let mut s = store(1, 2); // mirroring: the resurrection-prone case
    s.put("x", payload(1, 64)).unwrap();
    s.child_mut(1).down(true);
    // The delete lands on child 0 only; child 1 still holds a copy.
    s.apply_batch(vec![("y".into(), payload(2, 64))], vec!["x".into()])
        .unwrap();
    assert_eq!(s.pending_delete_count(), 1);
    // Child 1 comes back with its stale copy — the pending delete
    // keeps the object dead instead of resurrecting it.
    s.child_mut(1).down(false);
    assert_eq!(s.get("x").unwrap(), None);
    let report = s.repair();
    assert_eq!(report.deletes_flushed, 1);
    assert_eq!(s.get("x").unwrap(), None);
    assert!(s.child_mut(1).inner.get("x").is_none());
}

#[test]
fn failed_delete_batch_keeps_repair_work() {
    // Regression: a delete batch that failed below quorum used to drop
    // the repair work of the objects it named, though it deleted none.
    let mut s = store(2, 3);
    s.child_mut(2).down(true);
    s.put("x", payload(1, 256)).unwrap();
    assert_eq!(s.pending_repairs(), 1);
    s.child_mut(2).down(false);
    s.child_mut(0).down(true);
    s.child_mut(1).down(true);
    assert!(s.apply_batch(Vec::new(), vec!["x".into()]).is_err());
    s.child_mut(0).down(false);
    s.child_mut(1).down(false);
    assert_eq!(s.pending_repairs(), 1);
    assert_eq!(s.repair().shards_rebuilt, 1);
    assert_eq!(s.shard_counts().unwrap(), vec![1, 1, 1]);
}

#[test]
fn repair_sends_each_child_at_most_two_batches() {
    let mut s = store(2, 3);
    s.put("gone", payload(9, 128)).unwrap();
    s.child_mut(2).down(true);
    for i in 0..4 {
        s.put(&format!("d{i}"), payload(i as u8, 300)).unwrap();
    }
    s.apply_batch(Vec::new(), vec!["gone".into()]).unwrap();
    s.child_mut(2).down(false);
    let before: Vec<usize> = (0..3).map(|ci| s.child_mut(ci).writes).collect();
    let report = s.repair();
    assert_eq!(report.shards_rebuilt, 4);
    assert_eq!(report.deletes_flushed, 1);
    let writes: Vec<usize> = (0..3)
        .map(|ci| s.child_mut(ci).writes - before[ci])
        .collect();
    // One delete batch, then one shard batch, on the healed child only.
    assert_eq!(writes, vec![0, 0, 2]);
    assert_eq!(s.shard_counts().unwrap(), vec![4, 4, 4]);
}

#[test]
fn repair_lands_queued_deletes_before_rebuilt_shards() {
    // x is deleted and then re-put while child 1 is down, so child 1
    // owes both a delete of its stale shard and the new shard. The new
    // shard must survive the pass.
    let mut s = store(2, 3);
    s.put("x", payload(1, 512)).unwrap();
    s.child_mut(1).down(true);
    s.apply_batch(Vec::new(), vec!["x".into()]).unwrap();
    let fresh = payload(2, 512);
    s.put("x", fresh.clone()).unwrap();
    s.child_mut(1).down(false);
    let report = s.repair();
    assert_eq!((report.deletes_flushed, report.shards_rebuilt), (1, 1));
    assert!(s.child_mut(1).inner.get("x").is_some());
    assert_eq!(s.get("x").unwrap(), Some(&fresh[..]));
    assert_eq!(s.shard_counts().unwrap(), vec![1, 1, 1]);
}

#[test]
fn repair_reads_only_the_degraded_objects() {
    let mut s = store(2, 3);
    for i in 0..10 {
        s.put(&format!("healthy{i}"), payload(i as u8, 256))
            .unwrap();
    }
    s.child_mut(2).down(true);
    s.put("degraded0", payload(20, 256)).unwrap();
    s.put("degraded1", payload(21, 256)).unwrap();
    s.child_mut(2).down(false);
    let before: Vec<usize> = (0..3).map(|ci| s.child_mut(ci).gets).collect();
    let report = s.repair();
    assert_eq!(report.shards_rebuilt, 2);
    let after: Vec<usize> = (0..3).map(|ci| s.child_mut(ci).gets).collect();
    // The acceptance bar: repair re-read no more than the 2 degraded
    // objects per child — the 10 healthy objects were never touched.
    for ci in 0..3 {
        assert!(
            after[ci] - before[ci] <= 2,
            "child {ci} read {} objects during repair",
            after[ci] - before[ci]
        );
    }
}

#[test]
fn repair_against_a_still_down_child_requeues() {
    let mut s = store(2, 3);
    s.child_mut(2).down(true);
    s.put("x", payload(3, 128)).unwrap();
    let report = s.repair();
    assert_eq!(report.shards_rebuilt, 0);
    assert_eq!(report.shards_still_missing, 1);
    assert_eq!(s.pending_repairs(), 1);
    s.child_mut(2).down(false);
    assert_eq!(s.repair().shards_rebuilt, 1);
    assert_eq!(s.pending_repairs(), 0);
}

#[test]
fn list_unions_children_and_fails_closed_past_tolerance() {
    let mut s = store(2, 3);
    s.put("a", payload(1, 64)).unwrap();
    s.put("b", payload(2, 64)).unwrap();
    s.child_mut(0).down(true);
    let mut names = Vec::new();
    s.list(&mut names).unwrap();
    assert_eq!(names, vec!["a", "b"]);
    s.child_mut(1).down(true);
    let mut names = Vec::new();
    let err = s.list(&mut names).unwrap_err();
    assert!(matches!(err, BackendError::Unavailable(_)), "got {err:?}");
}

#[test]
fn storage_overhead_matches_redundancy_level() {
    // n/k amplification on payload bytes (headers add a small constant
    // per shard).
    for (k, n) in [(1, 2), (2, 3), (3, 5)] {
        let mut s = store(k, n);
        let data = payload(0, 64 * 1024);
        s.put("x", data.clone()).unwrap();
        let stored: usize = (0..n)
            .map(|ci| s.child_mut(ci).inner.get("x").unwrap().len())
            .sum();
        let expected = gf256::stripe_len(data.len(), k) * n;
        assert!(stored >= expected, "k={k} n={n}");
        assert!(
            stored < expected + n * (shard::FIXED_LEN + 8),
            "k={k} n={n}: header overhead larger than expected"
        );
        assert!((s.redundancy_overhead() - n as f64 / k as f64).abs() < 1e-9);
    }
}

#[test]
#[should_panic(expected = "invalid placement config")]
fn k_above_n_rejected() {
    let _ = store(4, 3);
}
