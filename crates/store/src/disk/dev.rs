//! The simulated block device under the disk store.
//!
//! [`SimDisk`] models the only properties of a real disk that matter to
//! crash consistency, and nothing else:
//!
//! * **Two logical files** ([`FileId::Journal`], [`FileId::Heap`]) of
//!   byte-addressable storage, each with a *view* (what reads observe —
//!   the OS page cache, read-your-writes) and a *durable image* (what
//!   survives power loss).
//! * **A volatile write cache.** `write` updates the view and queues
//!   the operation; nothing reaches the durable image until `fsync` on
//!   that file flushes its queued writes. At power loss the device
//!   persists what [`CrashMode`] picks of the queue: an ordered prefix,
//!   a torn last write, or all of it. Real caches may also reorder,
//!   but the disk store never queues more than one write, so order
//!   cannot matter to it.
//! * **Torn sectors.** A queued write interrupted by power loss may
//!   land only a prefix of its bytes.
//! * **Deterministic failure.** A [`FaultPlan`]
//!   kills the device at an exact operation index, so an exhaustive
//!   test loop can crash a store at *every* write/fsync boundary of a
//!   fleet save and replay recovery from each.
//!
//! The device never touches the real filesystem: images live in RAM,
//! crashes are pure functions of the queue, and every run is
//! reproducible. I/O volume is tallied in [`DiskStats`] so the nym
//! manager can charge simulated time for it via
//! `nymix_sim::DiskProfile`.

use super::fault::{CrashMode, FaultPlan};

/// Which logical file of the device an operation targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileId {
    /// The two superblock slots, nothing else.
    Journal,
    /// The frame log: every batch frame, home of the objects it puts.
    Heap,
}

impl FileId {
    fn idx(self) -> usize {
        match self {
            FileId::Journal => 0,
            FileId::Heap => 1,
        }
    }
}

/// Why a device operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeviceError {
    /// The fault plan cut power at this operation. The in-flight
    /// operation may have partially reached media; nothing after it
    /// exists.
    PowerLoss,
    /// The device already lost power earlier; every later operation
    /// fails until the disk is recovered via
    /// [`SimDisk::crashed`].
    Dead,
}

impl core::fmt::Display for DeviceError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DeviceError::PowerLoss => write!(f, "simulated power loss"),
            DeviceError::Dead => write!(f, "device is powered off"),
        }
    }
}

impl std::error::Error for DeviceError {}

/// Running I/O counters, the inputs to the simulated-time disk model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DiskStats {
    /// Total bytes submitted by `write` calls.
    pub bytes_written: u64,
    /// Total bytes returned by media reads.
    pub bytes_read: u64,
    /// Number of `write` submissions.
    pub writes: u64,
    /// Number of completed fsync barriers.
    pub fsyncs: u64,
    /// Number of media read operations.
    pub reads: u64,
}

impl DiskStats {
    /// Counter-wise difference `self - earlier` (saturating), for
    /// costing one I/O episode.
    pub fn since(&self, earlier: &DiskStats) -> DiskStats {
        DiskStats {
            bytes_written: self.bytes_written.saturating_sub(earlier.bytes_written),
            bytes_read: self.bytes_read.saturating_sub(earlier.bytes_read),
            writes: self.writes.saturating_sub(earlier.writes),
            fsyncs: self.fsyncs.saturating_sub(earlier.fsyncs),
            reads: self.reads.saturating_sub(earlier.reads),
        }
    }
}

/// One queued-but-unflushed write.
#[derive(Debug, Clone)]
struct PendingWrite {
    file: FileId,
    at: usize,
    data: Vec<u8>,
}

/// An in-memory simulated disk with a volatile write cache and a
/// deterministic fault plan. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct SimDisk {
    /// Read view per file (durable image + every queued write applied).
    view: [Vec<u8>; 2],
    /// What survives power loss, per file.
    durable: [Vec<u8>; 2],
    /// Queued writes not yet flushed, in submission order.
    pending: Vec<PendingWrite>,
    plan: FaultPlan,
    /// Operations executed so far (writes + fsyncs), the fault-plan
    /// coordinate space.
    ops: u64,
    /// Borrowable snapshot for [`SimDisk::stats`], refreshed from the
    /// meters below on every tallied operation — the meters are the
    /// accounting (and mirror into the `disk.*` obs counters when the
    /// recorder is on); this struct is only the public view of them.
    stats: DiskStats,
    m_writes: nymix_obs::Meter,
    m_bytes_written: nymix_obs::Meter,
    m_reads: nymix_obs::Meter,
    m_bytes_read: nymix_obs::Meter,
    m_fsyncs: nymix_obs::Meter,
    dead: bool,
}

impl Default for SimDisk {
    fn default() -> Self {
        Self::new()
    }
}

impl SimDisk {
    /// A fresh, empty, fault-free device.
    pub fn new() -> Self {
        Self {
            view: [Vec::new(), Vec::new()],
            durable: [Vec::new(), Vec::new()],
            pending: Vec::new(),
            plan: FaultPlan::default(),
            ops: 0,
            stats: DiskStats::default(),
            m_writes: nymix_obs::meter!("disk.writes"),
            m_bytes_written: nymix_obs::meter!("disk.bytes_written"),
            m_reads: nymix_obs::meter!("disk.reads"),
            m_bytes_read: nymix_obs::meter!("disk.bytes_read"),
            m_fsyncs: nymix_obs::meter!("disk.fsyncs"),
            dead: false,
        }
    }

    /// Installs a fault plan. Counting starts from the device's current
    /// operation counter.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.plan = plan;
    }

    /// Operations (writes + fsyncs) executed so far. Fault-plan kill
    /// points index this counter.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Cumulative I/O counters.
    pub fn stats(&self) -> &DiskStats {
        &self.stats
    }

    /// Number of queued writes that have not reached a barrier yet.
    // lint:allow(test-only-pub): store/tests/{crash,prop}.rs and nymix's manager tests size their crash matrices with it
    pub fn pending_writes(&self) -> usize {
        self.pending.len()
    }

    /// Whether the device has lost power and needs crash recovery.
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    /// Current length of a file as reads observe it.
    pub fn len(&self, file: FileId) -> usize {
        self.view[file.idx()].len()
    }

    /// True when the file has never been written.
    pub fn is_empty(&self, file: FileId) -> bool {
        self.view[file.idx()].is_empty()
    }

    fn charge(&mut self) -> Result<(), DeviceError> {
        if self.dead {
            return Err(DeviceError::Dead);
        }
        let op = self.ops;
        self.ops += 1;
        if self.plan.kills_at(op) {
            self.dead = true;
            return Err(DeviceError::PowerLoss);
        }
        Ok(())
    }

    /// Submits a write of `data` at byte offset `at`, extending the
    /// file with zeros if it ends before `at`. The view reflects the
    /// write immediately; the durable image only after a successful
    /// [`SimDisk::fsync`] of the same file.
    ///
    /// On [`DeviceError::PowerLoss`] the interrupted write stays queued:
    /// depending on the [`CrashMode`], a prefix of its bytes may still
    /// reach media.
    pub fn write(&mut self, file: FileId, at: usize, data: &[u8]) -> Result<(), DeviceError> {
        let queue = |disk: &mut Self| {
            apply_write(&mut disk.view[file.idx()], at, data);
            disk.pending.push(PendingWrite {
                file,
                at,
                data: data.to_vec(),
            });
            disk.m_bytes_written.add(data.len() as u64);
            disk.m_writes.add(1);
            disk.stats.bytes_written = disk.m_bytes_written.get();
            disk.stats.writes = disk.m_writes.get();
        };
        match self.charge() {
            Ok(()) => {
                queue(self);
                Ok(())
            }
            Err(DeviceError::PowerLoss) => {
                // The write was in flight when power died: it is part
                // of the unflushed queue the crash model draws from,
                // but the submitter never saw it complete.
                queue(self);
                Err(DeviceError::PowerLoss)
            }
            Err(e) => Err(e),
        }
    }

    /// Flushes every queued write of `file` to the durable image, in
    /// submission order. Queued writes of the *other* file stay
    /// volatile — barriers are per-file, like `fsync(2)` on one fd.
    pub fn fsync(&mut self, file: FileId) -> Result<(), DeviceError> {
        self.charge()?;
        let mut remaining = Vec::with_capacity(self.pending.len());
        for w in self.pending.drain(..) {
            if w.file == file {
                apply_write(&mut self.durable[file.idx()], w.at, &w.data);
            } else {
                remaining.push(w);
            }
        }
        self.pending = remaining;
        self.m_fsyncs.add(1);
        self.stats.fsyncs = self.m_fsyncs.get();
        Ok(())
    }

    /// Reads `len` bytes at `at` from the view, zero-filling past EOF.
    /// Tallied as one media read.
    pub fn read(&mut self, file: FileId, at: usize, len: usize, out: &mut Vec<u8>) {
        out.clear();
        let v = &self.view[file.idx()];
        let end = at.saturating_add(len).min(v.len());
        if at < end {
            out.extend_from_slice(&v[at..end]);
        }
        out.resize(len, 0);
        self.m_bytes_read.add(len as u64);
        self.m_reads.add(1);
        self.stats.bytes_read = self.m_bytes_read.get();
        self.stats.reads = self.m_reads.get();
    }

    /// Borrows the whole view of a file (used by recovery scans; not
    /// tallied — recovery cost is charged by the caller from the scan
    /// length).
    pub fn view(&self, file: FileId) -> &[u8] {
        &self.view[file.idx()]
    }

    /// Borrows the durable image of a file, i.e. what a forensic read
    /// of the powered-off media would find.
    // lint:allow(test-only-pub): store/tests/crash.rs compares recovered images through it
    pub fn durable(&self, file: FileId) -> &[u8] {
        &self.durable[file.idx()]
    }

    /// Flips one bit of the **durable** image — media corruption (a
    /// decayed cell, a hostile edit), distinct from a crash's lost writes.
    /// `bit` indexes bits little-endian within the file; out-of-range
    /// flips extend the file with zeros first.
    // lint:allow(test-only-pub): store/tests/{crash,prop}.rs flip media bits with it
    pub fn corrupt_durable_bit(&mut self, file: FileId, bit: usize) {
        let byte = bit / 8;
        let img = &mut self.durable[file.idx()];
        if img.len() <= byte {
            img.resize(byte + 1, 0);
        }
        img[byte] ^= 1 << (bit % 8);
        // Reads must observe the corruption too (cold cache).
        self.view = self.durable.clone();
        self.pending.clear();
    }

    /// Materializes the post-crash device: the durable image plus
    /// whichever queued writes `mode` lets reach media. The result is
    /// powered on, fault-free, with an empty write cache — ready for
    /// [`DiskStore::open`](crate::disk::DiskStore::open) to recover.
    pub fn crashed(&self, mode: CrashMode) -> SimDisk {
        let mut durable = self.durable.clone();
        let apply = |durable: &mut [Vec<u8>; 2], w: &PendingWrite, take: usize| {
            apply_write(
                &mut durable[w.file.idx()],
                w.at,
                &w.data[..take.min(w.data.len())],
            );
        };
        match mode {
            CrashMode::None => {}
            CrashMode::Prefix(n) => {
                for w in self.pending.iter().take(n) {
                    apply(&mut durable, w, w.data.len());
                }
            }
            CrashMode::Torn { landed, torn_bytes } => {
                for w in self.pending.iter().take(landed) {
                    apply(&mut durable, w, w.data.len());
                }
                if let Some(w) = self.pending.get(landed) {
                    apply(&mut durable, w, torn_bytes);
                }
            }
            CrashMode::All => {
                for w in &self.pending {
                    apply(&mut durable, w, w.data.len());
                }
            }
        }
        SimDisk {
            view: durable.clone(),
            durable,
            pending: Vec::new(),
            plan: FaultPlan::none(),
            ops: 0,
            stats: DiskStats::default(),
            m_writes: nymix_obs::meter!("disk.writes"),
            m_bytes_written: nymix_obs::meter!("disk.bytes_written"),
            m_reads: nymix_obs::meter!("disk.reads"),
            m_bytes_read: nymix_obs::meter!("disk.bytes_read"),
            m_fsyncs: nymix_obs::meter!("disk.fsyncs"),
            dead: false,
        }
    }
}

/// Applies `data` at offset `at`, zero-extending the file as needed.
fn apply_write(file: &mut Vec<u8>, at: usize, data: &[u8]) {
    let end = at + data.len();
    if file.len() < end {
        file.resize(end, 0);
    }
    file[at..end].copy_from_slice(data);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_are_volatile_until_fsync() {
        let mut d = SimDisk::new();
        d.write(FileId::Heap, 0, b"hello").unwrap();
        assert_eq!(d.view(FileId::Heap), b"hello");
        assert!(d.durable(FileId::Heap).is_empty());
        d.fsync(FileId::Heap).unwrap();
        assert_eq!(d.durable(FileId::Heap), b"hello");
        assert_eq!(d.pending_writes(), 0);
    }

    #[test]
    fn fsync_is_per_file() {
        let mut d = SimDisk::new();
        d.write(FileId::Journal, 0, b"j").unwrap();
        d.write(FileId::Heap, 0, b"h").unwrap();
        d.fsync(FileId::Journal).unwrap();
        assert_eq!(d.durable(FileId::Journal), b"j");
        assert!(d.durable(FileId::Heap).is_empty());
        assert_eq!(d.pending_writes(), 1);
    }

    #[test]
    fn fault_plan_kills_then_device_is_dead() {
        let mut d = SimDisk::new();
        d.set_fault_plan(FaultPlan::kill_at_op(1));
        d.write(FileId::Heap, 0, b"a").unwrap();
        assert_eq!(d.write(FileId::Heap, 1, b"b"), Err(DeviceError::PowerLoss));
        assert_eq!(d.fsync(FileId::Heap), Err(DeviceError::Dead));
        assert!(d.is_dead());
    }

    #[test]
    fn crash_modes_select_pending_subsets() {
        let mut d = SimDisk::new();
        d.write(FileId::Journal, 0, b"JJ").unwrap();
        d.write(FileId::Heap, 0, b"HHHH").unwrap();

        let none = d.crashed(CrashMode::None);
        assert!(none.durable(FileId::Journal).is_empty());
        assert!(none.durable(FileId::Heap).is_empty());

        let first = d.crashed(CrashMode::Prefix(1));
        assert_eq!(first.durable(FileId::Journal), b"JJ");
        assert!(first.durable(FileId::Heap).is_empty());

        let torn = d.crashed(CrashMode::Torn {
            landed: 1,
            torn_bytes: 2,
        });
        assert_eq!(torn.durable(FileId::Heap), b"HH");

        let all = d.crashed(CrashMode::All);
        assert_eq!(all.durable(FileId::Journal), b"JJ");
        assert_eq!(all.durable(FileId::Heap), b"HHHH");
    }

    #[test]
    fn crashed_disk_is_powered_and_clean() {
        let mut d = SimDisk::new();
        d.set_fault_plan(FaultPlan::kill_at_op(0));
        assert_eq!(d.write(FileId::Heap, 0, b"x"), Err(DeviceError::PowerLoss));
        let mut r = d.crashed(CrashMode::All);
        assert!(!r.is_dead());
        r.write(FileId::Heap, 1, b"y").unwrap();
        assert_eq!(r.view(FileId::Heap), b"xy");
    }

    #[test]
    fn read_zero_fills_past_eof_and_counts() {
        let mut d = SimDisk::new();
        d.write(FileId::Heap, 0, b"abc").unwrap();
        let mut buf = Vec::new();
        d.read(FileId::Heap, 1, 4, &mut buf);
        assert_eq!(buf, b"bc\0\0");
        assert_eq!(d.stats().reads, 1);
        assert_eq!(d.stats().bytes_read, 4);
    }

    #[test]
    fn corrupt_durable_bit_flips_and_invalidates_cache() {
        let mut d = SimDisk::new();
        d.write(FileId::Journal, 0, &[0u8]).unwrap();
        d.fsync(FileId::Journal).unwrap();
        d.corrupt_durable_bit(FileId::Journal, 3);
        assert_eq!(d.durable(FileId::Journal), &[8u8]);
        assert_eq!(d.view(FileId::Journal), &[8u8]);
    }

    #[test]
    fn stats_since_subtracts() {
        let mut d = SimDisk::new();
        d.write(FileId::Heap, 0, b"abcd").unwrap();
        let before = *d.stats();
        d.write(FileId::Heap, 4, b"ef").unwrap();
        d.fsync(FileId::Heap).unwrap();
        let delta = d.stats().since(&before);
        assert_eq!(delta.bytes_written, 2);
        assert_eq!(delta.writes, 1);
        assert_eq!(delta.fsyncs, 1);
    }
}
