//! Crash-consistent disk-backed object store.
//!
//! Every other [`ObjectBackend`] in this crate lives in memory; this
//! one survives power loss. [`DiskStore`] journals batches through a
//! write-ahead log ([`journal`], the `NYMJ` format) ahead of a
//! log-structured object heap ([`heap`]), over a simulated block
//! device ([`SimDisk`]) whose volatile write cache, torn sectors, and
//! deterministic fault injection ([`FaultPlan`], [`CrashMode`]) let an
//! exhaustive test loop crash the store at *every* write/fsync boundary
//! and replay recovery from each.
//!
//! # Durability model
//!
//! The commit protocol for one batch (one [`DiskStore::apply_batch`]
//! of puts + deletes; a lone `put` is a one-object batch):
//!
//! 1. Encode the whole batch as one checksummed `JBAT` frame and write
//!    it at the journal's batch cursor; **fsync the journal**. The
//!    batch is now the commit point: it either decodes completely after
//!    a crash or it never happened.
//! 2. Append the batch's object records / tombstones to the heap;
//!    **fsync the heap**.
//! 3. Write the superblock (alternating slot, bumped generation) with
//!    the new applied sequence and committed heap length; **fsync the
//!    journal**. The batch cursor thereby resets — at most one batch
//!    ever awaits replay.
//!
//! Recovery on [`DiskStore::open`] picks the newest valid superblock,
//! rebuilds the object index by scanning the heap up to the committed
//! length (bytes past it are crash garbage, overwritten by the next
//! batch), and then looks at the batch frame: a valid frame with the
//! next sequence number is replayed (idempotently — replay is just the
//! missed steps 2–3); anything else is discarded. Consequences:
//!
//! * **Atomic batches.** A crash at any point leaves exactly the
//!   pre-batch or post-batch state — `apply_batch` upgrades the trait's
//!   "a prefix may have landed" to all-or-nothing, which makes chunk
//!   mark-and-sweep crash-atomic (new objects land and retired objects
//!   vanish together, so GC can neither leak referenced chunks nor drop
//!   live ones).
//! * **Fail closed.** Corruption *inside* the committed region — a
//!   flipped bit under a valid superblock, both superblocks of a
//!   non-empty store destroyed — is an error ([`DiskError`]), never a
//!   silent partial store.
//! * **Idempotent recovery.** Opening a crashed image twice yields the
//!   same store as opening it once (property-tested).
//!
//! Reads copy the record off the device into one reused buffer. The
//! device tallies I/O in [`DiskStats`]; the nym manager converts those
//! counters into simulated time with `nymix_sim::DiskProfile`, pricing
//! every fsync barrier the protocol issues.

pub mod dev;
pub mod fault;
pub mod heap;
pub mod journal;

use std::collections::BTreeMap;

use crate::backend::{BackendError, ObjectBackend};

pub use dev::{DeviceError, DiskStats, FileId, SimDisk};
pub use fault::{CrashMode, FaultPlan};

use heap::ObjLoc;
use journal::{BatchOp, Superblock, BATCH_START, SB_SLOT_LEN};

/// Errors opening or operating a [`DiskStore`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiskError {
    /// The simulated device failed (power loss mid-operation).
    Device(DeviceError),
    /// The store lost power earlier in this incarnation; reopen from
    /// the crashed image ([`DiskStore::crash`] → [`DiskStore::open`]).
    Poisoned,
    /// A non-empty store has no valid superblock — media corruption of
    /// both slots. Fails closed.
    CorruptSuperblocks,
    /// The committed heap region failed to parse under a valid
    /// superblock — media corruption. Fails closed.
    CorruptHeap(heap::HeapCorrupt),
}

impl core::fmt::Display for DiskError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DiskError::Device(e) => write!(f, "device: {e}"),
            DiskError::Poisoned => write!(f, "store poisoned by earlier power loss"),
            DiskError::CorruptSuperblocks => {
                write!(f, "no valid superblock on a non-empty device")
            }
            DiskError::CorruptHeap(e) => write!(f, "committed heap corrupt: {e}"),
        }
    }
}

impl std::error::Error for DiskError {}

impl From<DeviceError> for DiskError {
    fn from(e: DeviceError) -> Self {
        DiskError::Device(e)
    }
}

impl From<DiskError> for BackendError {
    fn from(e: DiskError) -> Self {
        BackendError::Other(format!("disk: {e}"))
    }
}

/// Exact on-heap footprint of one object record (for garbage
/// accounting).
fn put_record_len(name: &str, data_len: u64) -> u64 {
    4 + 2 + name.len() as u64 + 8 + data_len + 16
}

/// Exact on-heap footprint of one tombstone record.
fn tombstone_len(name: &str) -> u64 {
    4 + 2 + name.len() as u64 + 16
}

/// A journaled, log-structured, crash-consistent object store over a
/// [`SimDisk`]. See the [module docs](self) for the durability model.
#[derive(Debug)]
pub struct DiskStore {
    disk: SimDisk,
    index: BTreeMap<String, ObjLoc>,
    /// Committed heap length (superblock `heap_len`).
    heap_len: u64,
    /// Last fully applied batch sequence.
    applied_seq: u64,
    /// Superblock write generation (slot = `gen % 2`).
    sb_gen: u64,
    garbage_bytes: u64,
    poisoned: bool,
    /// Scratch every media read lands in (the borrow `get` returns).
    read_buf: Vec<u8>,
}

impl DiskStore {
    /// Formats a fresh in-memory device and opens a store on it.
    pub fn new() -> Self {
        Self::open(SimDisk::new()).expect("fresh device always formats cleanly")
    }

    /// Opens (and if necessary recovers) a store from a device image —
    /// typically one produced by [`DiskStore::crash`]. A blank device
    /// is formatted; a crashed one is rolled forward or back to a
    /// batch boundary; a corrupted one fails closed.
    pub fn open(mut disk: SimDisk) -> Result<Self, DiskError> {
        let _span = nymix_obs::span!("recovery");
        if disk.is_dead() {
            return Err(DiskError::Device(DeviceError::Dead));
        }
        let best = {
            let jview = disk.view(FileId::Journal);
            let slot = |i: usize| jview.get(i * SB_SLOT_LEN..(i + 1) * SB_SLOT_LEN);
            [slot(0), slot(1)]
                .into_iter()
                .flatten()
                .filter_map(journal::decode_superblock)
                .max_by_key(|sb| sb.gen)
        };
        let sb = match best {
            Some(sb) => sb,
            None => {
                // No root. Legitimate only for a store that never
                // completed its format fsync — which implies no
                // committed heap and no decodable batch. Anything else
                // is double media corruption: fail closed.
                let heap_dirty = !disk.is_empty(FileId::Heap);
                let batch_present = disk
                    .view(FileId::Journal)
                    .get(BATCH_START..)
                    .and_then(journal::decode_batch)
                    .is_some();
                if heap_dirty || batch_present {
                    return Err(DiskError::CorruptSuperblocks);
                }
                let sb = Superblock {
                    gen: 1,
                    applied_seq: 0,
                    heap_len: 0,
                };
                let img = journal::encode_superblock(&sb);
                disk.write(FileId::Journal, (sb.gen % 2) as usize * SB_SLOT_LEN, &img)?;
                disk.fsync(FileId::Journal)?;
                sb
            }
        };
        let committed_len = usize::try_from(sb.heap_len)
            .map_err(|_| DiskError::CorruptHeap(heap::HeapCorrupt { at: 0 }))?;
        let hview = disk.view(FileId::Heap);
        if hview.len() < committed_len {
            // Committed bytes were fsynced; their absence is media
            // truncation, not a crash artifact.
            return Err(DiskError::CorruptHeap(heap::HeapCorrupt {
                at: hview.len() as u64,
            }));
        }
        let scan = heap::scan(&hview[..committed_len]).map_err(DiskError::CorruptHeap)?;
        let mut store = DiskStore {
            disk,
            index: scan.index,
            heap_len: sb.heap_len,
            applied_seq: sb.applied_seq,
            sb_gen: sb.gen,
            garbage_bytes: scan.garbage_bytes,
            poisoned: false,
            read_buf: Vec::new(),
        };
        // Replay the (at most one) batch the crash interrupted.
        let batch = store
            .disk
            .view(FileId::Journal)
            .get(BATCH_START..)
            .and_then(journal::decode_batch);
        if let Some(batch) = batch {
            if batch.seq == store.applied_seq + 1 {
                nymix_obs::counter!("disk.recoveries", 1u64);
                let owned: Vec<(String, Vec<u8>)> = batch
                    .ops
                    .iter()
                    .filter_map(|op| match op {
                        journal::OwnedOp::Put(n, d) => Some((n.clone(), d.clone())),
                        journal::OwnedOp::Delete(_) => None,
                    })
                    .collect();
                let deletes: Vec<String> = batch
                    .ops
                    .iter()
                    .filter_map(|op| match op {
                        journal::OwnedOp::Delete(n) => Some(n.clone()),
                        journal::OwnedOp::Put(..) => None,
                    })
                    .collect();
                store
                    .apply_to_heap(batch.seq, &owned, &deletes)
                    .map_err(DiskError::from)?;
            }
            // seq <= applied_seq: stale frame from an already-applied
            // batch; seq > applied_seq + 1 is unreachable under the
            // protocol and treated as uncommitted garbage. Both: skip.
        }
        Ok(store)
    }

    /// Steps 2–3 of the commit protocol: heap append + superblock
    /// flip. Used both by live commits (after step 1 wrote the
    /// journal) and by recovery replay (where the journal frame is
    /// already durable).
    fn apply_to_heap(
        &mut self,
        seq: u64,
        puts: &[(String, Vec<u8>)],
        deletes: &[String],
    ) -> Result<(), DeviceError> {
        let mut buf = Vec::new();
        let mut new_locs = Vec::with_capacity(puts.len());
        for (name, data) in puts {
            let base = buf.len() as u64;
            let rel = heap::encode_put(name, data, &mut buf);
            new_locs.push(ObjLoc {
                off: self.heap_len + base + rel.off,
                len: rel.len,
            });
        }
        for name in deletes {
            heap::encode_delete(name, &mut buf);
        }
        self.disk
            .write(FileId::Heap, self.heap_len as usize, &buf)?;
        self.disk.fsync(FileId::Heap)?;
        let new_heap_len = self.heap_len + buf.len() as u64;
        let sb = Superblock {
            gen: self.sb_gen + 1,
            applied_seq: seq,
            heap_len: new_heap_len,
        };
        let img = journal::encode_superblock(&sb);
        self.disk
            .write(FileId::Journal, (sb.gen % 2) as usize * SB_SLOT_LEN, &img)?;
        self.disk.fsync(FileId::Journal)?;
        // Durable: now (and only now) mutate in-memory state.
        self.sb_gen = sb.gen;
        self.applied_seq = seq;
        self.heap_len = new_heap_len;
        for ((name, _), loc) in puts.iter().zip(new_locs) {
            if let Some(old) = self.index.insert(name.clone(), loc) {
                self.garbage_bytes += put_record_len(name, old.len);
            }
        }
        for name in deletes {
            if let Some(old) = self.index.remove(name) {
                self.garbage_bytes += put_record_len(name, old.len);
            }
            self.garbage_bytes += tombstone_len(name);
        }
        nymix_obs::gauge!("disk.garbage_bytes", self.garbage_bytes);
        Ok(())
    }

    /// Installs a fault plan on the underlying device (counted from the
    /// device's current operation index; see [`SimDisk::ops`]).
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.disk.set_fault_plan(plan);
    }

    /// Materializes the post-crash device image under `mode` — what a
    /// reboot would find. Valid at any time, poisoned or not.
    pub fn crash(&self, mode: CrashMode) -> SimDisk {
        self.disk.crashed(mode)
    }

    /// Consumes the store, returning the device (all committed batches
    /// are already durable — the commit protocol never returns with
    /// unflushed writes).
    pub fn into_disk(self) -> SimDisk {
        self.disk
    }

    /// Borrows the underlying device (e.g. for stats or forensics).
    pub fn disk(&self) -> &SimDisk {
        &self.disk
    }

    /// Cumulative device I/O counters (input to the simulated-time disk
    /// model).
    pub fn device_stats(&self) -> DiskStats {
        *self.disk.stats()
    }

    /// Last fully applied batch sequence number.
    pub fn applied_seq(&self) -> u64 {
        self.applied_seq
    }

    /// Committed heap length in bytes.
    pub fn committed_heap_len(&self) -> u64 {
        self.heap_len
    }

    /// Heap bytes occupied by shadowed records and tombstones —
    /// reclaimable by a future compactor (tracked, not yet reclaimed).
    pub fn garbage_bytes(&self) -> u64 {
        self.garbage_bytes
    }

    /// Number of live objects.
    pub fn object_count(&self) -> usize {
        self.index.len()
    }

    /// Whether an earlier power loss poisoned this incarnation.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }
}

impl Default for DiskStore {
    fn default() -> Self {
        Self::new()
    }
}

impl ObjectBackend for DiskStore {
    /// The full commit protocol (see the [module docs](self)) for one
    /// batch: atomic, so after a crash at any point either the whole
    /// batch is visible or none of it.
    fn apply_batch(
        &mut self,
        puts: Vec<(String, Vec<u8>)>,
        deletes: Vec<String>,
    ) -> Result<(), BackendError> {
        if self.poisoned {
            return Err(DiskError::Poisoned.into());
        }
        // Deleting what was never there is a no-op, not a journal entry.
        let deletes: Vec<String> = deletes
            .into_iter()
            .filter(|n| self.index.contains_key(n) || puts.iter().any(|(p, _)| p == n))
            .collect();
        if puts.is_empty() && deletes.is_empty() {
            return Ok(());
        }
        let _span = nymix_obs::span!("journal_commit", "objects" => puts.len());
        let seq = self.applied_seq + 1;
        let ops: Vec<BatchOp<'_>> = puts
            .iter()
            .map(|(n, d)| BatchOp::Put(n, d))
            .chain(deletes.iter().map(|n| BatchOp::Delete(n)))
            .collect();
        let frame = journal::encode_batch(seq, &ops);
        drop(ops);
        nymix_obs::histogram!("disk.commit_bytes", frame.len());
        let res = (|| -> Result<(), DeviceError> {
            self.disk.write(FileId::Journal, BATCH_START, &frame)?;
            self.disk.fsync(FileId::Journal)?;
            Ok(())
        })();
        if let Err(e) = res {
            self.poisoned = true;
            return Err(DiskError::from(e).into());
        }
        if let Err(e) = self.apply_to_heap(seq, &puts, &deletes) {
            self.poisoned = true;
            return Err(DiskError::from(e).into());
        }
        nymix_obs::counter!("disk.commits", 1u64);
        Ok(())
    }

    fn get(&mut self, name: &str) -> Result<Option<&[u8]>, BackendError> {
        if self.poisoned {
            return Err(DiskError::Poisoned.into());
        }
        let Some(loc) = self.index.get(name).copied() else {
            return Ok(None);
        };
        self.disk.read(
            FileId::Heap,
            loc.off as usize,
            loc.len as usize,
            &mut self.read_buf,
        );
        Ok(Some(&self.read_buf))
    }

    fn list(&mut self, out: &mut Vec<String>) -> Result<(), BackendError> {
        if self.poisoned {
            return Err(DiskError::Poisoned.into());
        }
        out.extend(self.index.keys().cloned());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn put_get_delete_round_trip() {
        let mut s = DiskStore::new();
        s.put("a", b"alpha".to_vec()).unwrap();
        s.put("b", b"beta".to_vec()).unwrap();
        assert_eq!(s.get("a").unwrap(), Some(&b"alpha"[..]));
        assert_eq!(s.get("missing").unwrap(), None);
        s.apply_batch(Vec::new(), vec!["a".into()]).unwrap();
        assert_eq!(s.get("a").unwrap(), None);
        // Deleting an absent name commits nothing.
        let seq = s.applied_seq();
        s.apply_batch(Vec::new(), vec!["a".into()]).unwrap();
        assert_eq!(s.applied_seq(), seq);
        assert_eq!(s.object_count(), 1);
    }

    #[test]
    fn graceful_close_reopens_identically() {
        let mut s = DiskStore::new();
        s.put("x", vec![1; 100]).unwrap();
        s.apply_batch(
            vec![("y".into(), vec![2; 50]), ("x".into(), vec![3; 10])],
            Vec::new(),
        )
        .unwrap();
        let before = contents(&mut s);
        let mut reopened = DiskStore::open(s.into_disk()).unwrap();
        assert_eq!(contents(&mut reopened), before);
        assert_eq!(reopened.get("x").unwrap(), Some(&[3u8; 10][..]));
    }

    #[test]
    fn apply_batch_is_atomic_across_put_and_delete() {
        let mut s = DiskStore::new();
        s.put("old", b"retired".to_vec()).unwrap();
        s.apply_batch(
            vec![("new".into(), b"fresh".to_vec())],
            vec!["old".into(), "never-existed".into()],
        )
        .unwrap();
        assert_eq!(s.get("new").unwrap(), Some(&b"fresh"[..]));
        assert_eq!(s.get("old").unwrap(), None);
    }

    #[test]
    fn power_loss_poisons_until_reopen() {
        let mut s = DiskStore::new();
        s.put("a", b"1".to_vec()).unwrap();
        let ops = s.disk().ops();
        s.set_fault_plan(FaultPlan::kill_at_op(ops));
        assert!(s.put("b", b"2".to_vec()).is_err());
        assert!(s.is_poisoned());
        assert!(s.get("a").is_err());
        assert!(s.put("c", b"3".to_vec()).is_err());
        // Recovery path works.
        let mut r = DiskStore::open(s.crash(CrashMode::None)).unwrap();
        assert_eq!(r.get("a").unwrap(), Some(&b"1"[..]));
        assert_eq!(r.get("b").unwrap(), None);
    }

    #[test]
    fn interrupted_batch_never_half_applies() {
        // Kill at every op of a mixed batch, under every crash mode:
        // reopening must observe exactly pre- or post-batch contents.
        let build = || {
            let mut s = DiskStore::new();
            s.put("keep", b"kept".to_vec()).unwrap();
            s.put("victim", b"doomed".to_vec()).unwrap();
            s
        };
        let pre: BTreeMap<String, Vec<u8>> = {
            let mut s = build();
            contents(&mut s)
        };
        let post: BTreeMap<String, Vec<u8>> = {
            let mut s = build();
            s.apply_batch(
                vec![("added".into(), b"new".to_vec())],
                vec!["victim".into()],
            )
            .unwrap();
            contents(&mut s)
        };
        let mut seen_pre = false;
        let mut seen_post = false;
        for kill in 0u64.. {
            let mut s = build();
            let base_ops = s.disk().ops();
            s.set_fault_plan(FaultPlan::kill_at_op(base_ops + kill));
            let r = s.apply_batch(
                vec![("added".into(), b"new".to_vec())],
                vec!["victim".into()],
            );
            if r.is_ok() {
                // Past the last op of the batch: loop is exhausted.
                assert!(seen_pre && seen_post, "both outcomes must occur");
                break;
            }
            for mode in CrashMode::covering_set(s.disk().pending_writes(), 64) {
                let mut reopened =
                    DiskStore::open(s.crash(mode)).expect("crash recovery never fails");
                let got = contents(&mut reopened);
                if got == pre {
                    seen_pre = true;
                } else if got == post {
                    seen_post = true;
                } else {
                    panic!("kill {kill} {mode:?}: intermediate state {got:?}");
                }
            }
        }
    }

    #[test]
    fn recovery_is_idempotent() {
        let mut s = DiskStore::new();
        s.put("a", vec![9; 40]).unwrap();
        let ops = s.disk().ops();
        s.set_fault_plan(FaultPlan::kill_at_op(ops + 3));
        let _ = s.apply_batch(
            vec![("b".into(), vec![8; 30]), ("a".into(), vec![7; 20])],
            Vec::new(),
        );
        let img = s.crash(CrashMode::JournalOnly);
        let mut once = DiskStore::open(img.clone()).unwrap();
        let mut twice = DiskStore::open(DiskStore::open(img).unwrap().into_disk()).unwrap();
        assert_eq!(contents(&mut once), contents(&mut twice));
    }

    #[test]
    fn bit_flip_in_superblocks_fails_closed() {
        let mut s = DiskStore::new();
        s.put("a", b"x".to_vec()).unwrap();
        let mut img = s.into_disk();
        // Destroy both slots.
        for bit in [8, 64 * 8 + 8] {
            img.corrupt_durable_bit(FileId::Journal, bit);
        }
        assert_eq!(
            DiskStore::open(img).err(),
            Some(DiskError::CorruptSuperblocks)
        );
    }

    #[test]
    fn bit_flip_in_committed_heap_fails_closed() {
        let mut s = DiskStore::new();
        s.put("a", vec![0x55; 64]).unwrap();
        let mut img = s.into_disk();
        img.corrupt_durable_bit(FileId::Heap, 300);
        assert!(matches!(
            DiskStore::open(img),
            Err(DiskError::CorruptHeap(_))
        ));
    }

    #[test]
    fn garbage_tracking_counts_shadowed_records() {
        let mut s = DiskStore::new();
        s.put("k", vec![0; 100]).unwrap();
        assert_eq!(s.garbage_bytes(), 0);
        s.put("k", vec![1; 10]).unwrap();
        assert!(s.garbage_bytes() > 100);
        let reopened = DiskStore::open(s.into_disk()).unwrap();
        assert!(reopened.garbage_bytes() > 100, "scan re-derives garbage");
    }
}
