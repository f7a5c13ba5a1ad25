//! Crash-consistent disk-backed object store.
//!
//! Every other [`ObjectBackend`] in this crate lives in memory; this
//! one survives power loss. [`DiskStore`] keeps one append-only log of
//! checksummed batch frames ([`log`]) — each frame is both a batch's
//! commit record and the home of every object it puts — plus two
//! superblock slots that say how much of the log is committed, over a
//! simulated block device ([`SimDisk`]) whose volatile write cache,
//! torn sectors, and deterministic fault injection ([`FaultPlan`],
//! [`CrashMode`]) let an exhaustive test loop crash the store at
//! *every* write/fsync boundary and replay recovery from each.
//!
//! # Durability model
//!
//! The commit protocol for one batch (one [`DiskStore::apply_batch`]
//! of puts + deletes; a lone `put` is a one-object batch) is four
//! device operations:
//!
//! 1. Append the whole batch as one checksummed frame (`seq` = last
//!    `seq` + 1) at the end of the log ([`FileId::Heap`]);
//! 2. **fsync the log**;
//! 3. write the superblock (alternating slot in [`FileId::Journal`],
//!    bumped generation) with `applied_seq = seq` and the new log
//!    length;
//! 4. **fsync the superblock file**. The batch is committed.
//!
//! The first commit on a blank device first writes and fsyncs an empty
//! superblock (the format), so a log is never found without one.
//!
//! Recovery on [`DiskStore::open`] writes nothing. It picks the newest
//! valid superblock, then rebuilds
//! the object index by scanning the frames up to the committed length;
//! any frame there that does not verify, or whose `seq` is not its
//! predecessor's plus one, or a last `seq` other than the superblock's
//! `applied_seq`, fails closed. Then it accepts at most one more frame:
//! the one starting exactly at the committed length with the next
//! `seq` — a batch whose frame was fsynced but whose superblock never
//! landed. That frame is kept in memory only; the next commit appends
//! after it and its superblock covers both. Consequences:
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
//! * **Idempotent recovery.** Since opening changes nothing on the
//!   device, opening a crashed image twice yields the same store as
//!   opening it once (property-tested); a crash before the next
//!   superblock lands rolls the same frame forward again.
//!
//! Reads copy the object's bytes out of its frame into one reused
//! buffer. The device tallies I/O in [`DiskStats`]; the nym manager
//! converts those counters into simulated time with
//! `nymix_sim::DiskProfile`, pricing every fsync barrier the protocol
//! issues.

pub mod dev;
pub mod fault;
pub mod log;

use std::collections::{BTreeMap, BTreeSet};

use crate::backend::{BackendError, ObjectBackend};

pub use dev::{DeviceError, DiskStats, FileId, SimDisk};
pub use fault::{CrashMode, FaultPlan};

use log::{Frame, ObjLoc, Op, Superblock, SB_SLOT_LEN};

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
    /// The committed log failed to verify at this byte offset under a
    /// valid superblock — media corruption. Fails closed.
    CorruptHeap(u64),
}

impl core::fmt::Display for DiskError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DiskError::Device(e) => write!(f, "device: {e}"),
            DiskError::Poisoned => write!(f, "store poisoned by earlier power loss"),
            DiskError::CorruptSuperblocks => {
                write!(f, "no valid superblock on a non-empty device")
            }
            DiskError::CorruptHeap(at) => write!(f, "committed log corrupt at byte {at}"),
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

/// Live objects and the log bytes their shadowed predecessors and
/// tombstones occupy. Commits and the recovery scan update it through
/// the same [`Index::apply`].
#[derive(Debug, Default)]
struct Index {
    live: BTreeMap<String, ObjLoc>,
    garbage_bytes: u64,
}

impl Index {
    /// Applies `frame`, which starts at log offset `at`.
    fn apply(&mut self, at: u64, frame: &Frame<'_>) {
        for op in &frame.ops {
            match *op {
                Op::Put(name, loc) => {
                    let loc = ObjLoc {
                        off: at + loc.off,
                        len: loc.len,
                    };
                    if let Some(old) = self.live.insert(name.to_owned(), loc) {
                        self.garbage_bytes += log::put_op_len(name, old.len);
                    }
                }
                Op::Delete(name) => {
                    if let Some(old) = self.live.remove(name) {
                        self.garbage_bytes += log::put_op_len(name, old.len);
                    }
                    self.garbage_bytes += log::delete_op_len(name);
                }
            }
        }
    }
}

/// Writes `sb` into its slot and fsyncs the superblock file.
fn write_superblock(disk: &mut SimDisk, sb: &Superblock) -> Result<(), DeviceError> {
    let slot = (sb.gen % 2) as usize * SB_SLOT_LEN;
    disk.write(FileId::Journal, slot, &log::encode_superblock(sb))?;
    disk.fsync(FileId::Journal)
}

/// A log-structured, crash-consistent object store over a
/// [`SimDisk`]. See the [module docs](self) for the durability model.
#[derive(Debug)]
pub struct DiskStore {
    disk: SimDisk,
    index: Index,
    /// End of the log: every committed frame plus a rolled-forward one.
    log_len: u64,
    /// `seq` of the frame that ends at `log_len`.
    applied_seq: u64,
    /// Superblock write generation (slot = `gen % 2`).
    sb_gen: u64,
    poisoned: bool,
    /// Scratch every media read lands in (the borrow `get` returns).
    read_buf: Vec<u8>,
}

impl DiskStore {
    /// Opens a store on a fresh in-memory device (formatted by its
    /// first commit).
    pub fn new() -> Self {
        Self::open(SimDisk::new()).expect("a blank device always opens")
    }

    /// Opens (and if necessary recovers) a store from a device image —
    /// typically one produced by [`DiskStore::crash`] — without writing
    /// to it. A blank device opens empty; a crashed one is rolled
    /// forward or back to a batch boundary; a corrupted one fails
    /// closed.
    pub fn open(disk: SimDisk) -> Result<Self, DiskError> {
        let _span = nymix_obs::span!("recovery");
        if disk.is_dead() {
            return Err(DiskError::Device(DeviceError::Dead));
        }
        let newest = {
            let slots = disk.view(FileId::Journal);
            (0..2)
                .filter_map(|i| slots.get(i * SB_SLOT_LEN..(i + 1) * SB_SLOT_LEN))
                .filter_map(log::decode_superblock)
                .max_by_key(|sb| sb.gen)
        };
        let sb = match newest {
            Some(sb) => sb,
            // No root. Legitimate only for a device whose format never
            // became durable, which every frame follows, so the log is
            // empty. Anything else is double media corruption.
            None if disk.is_empty(FileId::Heap) => Superblock {
                gen: 0,
                applied_seq: 0,
                log_len: 0,
            },
            None => return Err(DiskError::CorruptSuperblocks),
        };
        let view = disk.view(FileId::Heap);
        // Committed bytes were fsynced; their absence is media
        // truncation, not a crash artifact.
        let committed = usize::try_from(sb.log_len)
            .ok()
            .filter(|&len| len <= view.len())
            .ok_or(DiskError::CorruptHeap(view.len() as u64))?;
        let mut index = Index::default();
        let (mut at, mut seq) = (0usize, 0u64);
        while at < committed {
            let frame = log::decode_frame(&view[at..committed])
                .filter(|f| f.seq == seq + 1)
                .ok_or(DiskError::CorruptHeap(at as u64))?;
            index.apply(at as u64, &frame);
            (at, seq) = (at + frame.len, frame.seq);
        }
        if seq != sb.applied_seq {
            return Err(DiskError::CorruptHeap(at as u64));
        }
        // A batch whose frame reached the log but whose superblock did
        // not. Anything else past the committed end is crash garbage
        // the next commit overwrites.
        if let Some(frame) = log::decode_frame(&view[at..]).filter(|f| f.seq == seq + 1) {
            nymix_obs::counter!("disk.recoveries", 1u64);
            index.apply(at as u64, &frame);
            (at, seq) = (at + frame.len, frame.seq);
        }
        Ok(DiskStore {
            disk,
            index,
            log_len: at as u64,
            applied_seq: seq,
            sb_gen: sb.gen,
            poisoned: false,
            read_buf: Vec::new(),
        })
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

    /// Sequence number of the last batch the store holds.
    pub fn applied_seq(&self) -> u64 {
        self.applied_seq
    }

    /// Committed log length in bytes (including a frame recovery
    /// rolled forward, which the next commit's superblock covers).
    pub fn committed_heap_len(&self) -> u64 {
        self.log_len
    }

    /// Log bytes occupied by shadowed puts and by deletes —
    /// reclaimable by a future compactor (tracked, not yet reclaimed).
    pub fn garbage_bytes(&self) -> u64 {
        self.index.garbage_bytes
    }

    /// Number of live objects.
    pub fn object_count(&self) -> usize {
        self.index.live.len()
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
        // Deleting what was never there is a no-op, not a log entry,
        // and a name deleted twice is one entry.
        let mut named = BTreeSet::new();
        let deletes: Vec<String> = deletes
            .into_iter()
            .filter(|n| self.index.live.contains_key(n) || puts.iter().any(|(p, _)| p == n))
            .filter(|n| named.insert(n.clone()))
            .collect();
        if puts.is_empty() && deletes.is_empty() {
            return Ok(());
        }
        let _span = nymix_obs::span!("journal_commit", "objects" => puts.len());
        let mut buf = Vec::new();
        let frame = log::encode_frame(self.applied_seq + 1, &puts, &deletes, &mut buf);
        nymix_obs::histogram!("disk.commit_bytes", buf.len());
        // A blank device is formatted first: an empty superblock,
        // durable before the first frame.
        let format = (self.sb_gen == 0).then_some(Superblock {
            gen: 1,
            applied_seq: 0,
            log_len: 0,
        });
        let sb = Superblock {
            gen: self.sb_gen.max(1) + 1,
            applied_seq: frame.seq,
            log_len: self.log_len + buf.len() as u64,
        };
        let res = (|| -> Result<(), DeviceError> {
            if let Some(format) = &format {
                write_superblock(&mut self.disk, format)?;
            }
            self.disk.write(FileId::Heap, self.log_len as usize, &buf)?;
            self.disk.fsync(FileId::Heap)?;
            write_superblock(&mut self.disk, &sb)
        })();
        if let Err(e) = res {
            self.poisoned = true;
            return Err(DiskError::from(e).into());
        }
        // Durable: now (and only now) mutate in-memory state.
        self.index.apply(self.log_len, &frame);
        (self.sb_gen, self.applied_seq, self.log_len) = (sb.gen, sb.applied_seq, sb.log_len);
        nymix_obs::gauge!("disk.garbage_bytes", self.index.garbage_bytes);
        nymix_obs::counter!("disk.commits", 1u64);
        Ok(())
    }

    fn get(&mut self, name: &str) -> Result<Option<&[u8]>, BackendError> {
        if self.poisoned {
            return Err(DiskError::Poisoned.into());
        }
        let Some(loc) = self.index.live.get(name).copied() else {
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
        out.extend(self.index.live.keys().cloned());
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
        assert_eq!(s.disk().ops(), 0, "a blank device opens without a write");
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
    fn a_name_deleted_twice_in_one_batch_is_one_op() {
        let heap_and_garbage = |deletes: &[&str]| {
            let mut s = DiskStore::new();
            s.put("x", vec![7; 64]).unwrap();
            let deletes = deletes.iter().map(|n| n.to_string()).collect();
            s.apply_batch(Vec::new(), deletes).unwrap();
            assert_eq!(s.get("x").unwrap(), None);
            (s.committed_heap_len(), s.garbage_bytes())
        };
        assert_eq!(heap_and_garbage(&["x", "x"]), heap_and_garbage(&["x"]));
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
        assert!(s.poisoned);
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
            let pending = s.disk().pending_writes();
            assert!(pending <= 1, "kill {kill}: {pending} writes queued");
            for mode in CrashMode::covering_set(pending, 64) {
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
        let img = s.crash(CrashMode::All);
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
}
