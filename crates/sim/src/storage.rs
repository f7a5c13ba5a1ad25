//! Modeled local-storage endpoints.
//!
//! `nymix_net::access_transfer` prices the access link; this module prices
//! the *disk* — the other physical resource a store-nym pipeline
//! touches. A [`DiskProfile`] maps the I/O a storage backend actually
//! performed (bytes written, fsync barriers, bytes read back) onto
//! simulated time, so a fleet save to a journaled on-disk store pays
//! for its write volume **and** for every durability barrier the
//! crash-consistency protocol issues, instead of a flat per-save
//! constant.
//!
//! Profiles are deliberately simple — sequential-throughput plus
//! per-barrier latency — because the disk-backed object store is
//! log-structured: journal and heap writes are appends, so seek-heavy
//! behaviour never enters the hot path.

use crate::time::SimDuration;

/// Throughput/latency model of one local storage device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiskProfile {
    /// Sustained sequential write throughput, bytes per second.
    pub write_bytes_per_sec: f64,
    /// Sustained sequential read throughput, bytes per second.
    pub read_bytes_per_sec: f64,
    /// Cost of one fsync barrier (flush + FUA round trip).
    pub fsync: SimDuration,
    /// Fixed per-operation submission overhead (syscall + queueing).
    pub op_overhead: SimDuration,
}

impl DiskProfile {
    /// A commodity SATA SSD: ~450/520 MB/s write/read, ~1 ms flush.
    pub const fn ssd() -> Self {
        Self {
            write_bytes_per_sec: 450.0e6,
            read_bytes_per_sec: 520.0e6,
            fsync: SimDuration(1_000),
            op_overhead: SimDuration(20),
        }
    }

    /// Time to stream `bytes` of writes (no barrier).
    fn write_time(&self, bytes: u64) -> SimDuration {
        SimDuration::from_secs_f64(bytes as f64 / self.write_bytes_per_sec)
    }

    /// Time to stream `bytes` of reads.
    fn read_time(&self, bytes: u64) -> SimDuration {
        SimDuration::from_secs_f64(bytes as f64 / self.read_bytes_per_sec)
    }

    /// Total modeled time for a mixed I/O episode: `ops` submissions
    /// moving `written`/`read` bytes through `fsyncs` barriers. This is
    /// what the nym manager charges a disk-backed save against the
    /// simulation clock.
    pub fn io_time(&self, written: u64, read: u64, fsyncs: u64, ops: u64) -> SimDuration {
        self.write_time(written)
            + self.read_time(read)
            + SimDuration(self.fsync.0.saturating_mul(fsyncs))
            + SimDuration(self.op_overhead.0.saturating_mul(ops))
    }
}

impl Default for DiskProfile {
    fn default() -> Self {
        Self::ssd()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ssd_prices_fsync_barriers() {
        let p = DiskProfile::ssd();
        // 45 MB at 450 MB/s = 100 ms of streaming...
        assert_eq!(p.write_time(45_000_000), SimDuration(100_000));
        // ...and three barriers add 3 ms on top.
        let t = p.io_time(45_000_000, 0, 3, 0);
        assert_eq!(t, SimDuration(103_000));
    }

    #[test]
    fn io_time_saturates() {
        let p = DiskProfile {
            fsync: SimDuration(u64::MAX),
            ..DiskProfile::ssd()
        };
        assert_eq!(p.io_time(0, 0, 2, 0), SimDuration(u64::MAX));
    }
}
