//! Deterministic fault injection for the simulated disk.
//!
//! Two orthogonal knobs reproduce every crash scenario the disk store
//! must survive:
//!
//! * **Where power dies** — [`FaultPlan`] names the exact operation
//!   index (write or fsync, in submission order) at which the device
//!   stops. An exhaustive loop over `0..ops_of_a_save` crashes a store
//!   at every boundary of the commit protocol.
//! * **What the write cache managed to persist** — [`CrashMode`] picks
//!   which queued-but-unflushed writes reached media: none, an ordered
//!   prefix, a prefix plus a *torn* final write, or all of them. The
//!   disk store fsyncs every write before it issues the next, so a
//!   killed commit leaves at most one write queued, and these shapes
//!   are every subset a real volatile cache could persist of it: not
//!   at all, torn, or whole. No reordering shape is needed; the crash
//!   loops assert the one-write bound at every kill point, so a
//!   protocol that queues two writes fails them until reorder shapes
//!   come back.
//!
//! Media corruption (bit rot, hostile edits) is a third, separate knob:
//! [`SimDisk::corrupt_durable_bit`](super::SimDisk::corrupt_durable_bit).

/// Deterministic kill schedule for a [`SimDisk`](super::SimDisk).
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultPlan {
    kill_at: Option<u64>,
}

impl FaultPlan {
    /// No injected faults.
    pub fn none() -> Self {
        Self { kill_at: None }
    }

    /// Cut power at operation index `op` (0-based over writes+fsyncs,
    /// counted from when the plan is installed on a fresh counter).
    pub fn kill_at_op(op: u64) -> Self {
        Self { kill_at: Some(op) }
    }

    /// Whether this plan kills the device at operation `op`.
    pub fn kills_at(&self, op: u64) -> bool {
        self.kill_at == Some(op)
    }
}

/// What the volatile write cache persisted at the instant of power
/// loss. Applied by [`SimDisk::crashed`](super::SimDisk::crashed) to
/// the queued (post-last-barrier) writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashMode {
    /// Nothing unflushed reached media.
    None,
    /// The first `n` queued writes landed, in order.
    Prefix(usize),
    /// `landed` whole writes landed, then the next one landed only its
    /// first `torn_bytes` bytes — a torn sector.
    Torn {
        /// Whole queued writes that landed before the torn one.
        landed: usize,
        /// Bytes of the next write that reached media.
        torn_bytes: usize,
    },
    /// Every queued write landed (power died just short of the ack).
    All,
}

impl CrashMode {
    /// A canonical covering set of modes for a device with `pending`
    /// queued writes and a final write of `last_len` bytes: every
    /// whole-write prefix, torn variants of the final write, and the
    /// all-landed case. Exhaustive crash loops iterate this.
    // lint:allow(test-only-pub): store/tests/{crash,prop}.rs and nymix's manager tests iterate it
    pub fn covering_set(pending: usize, last_len: usize) -> Vec<CrashMode> {
        let mut modes = vec![CrashMode::None];
        for n in 1..=pending {
            modes.push(CrashMode::Prefix(n));
        }
        if pending > 0 && last_len > 1 {
            for torn in [1, last_len / 2, last_len - 1] {
                modes.push(CrashMode::Torn {
                    landed: pending - 1,
                    torn_bytes: torn,
                });
            }
        }
        modes.push(CrashMode::All);
        modes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kill_at_matches_only_its_op() {
        let p = FaultPlan::kill_at_op(3);
        assert!(!p.kills_at(2));
        assert!(p.kills_at(3));
        assert!(!p.kills_at(4));
        assert!(!FaultPlan::none().kills_at(0));
    }

    #[test]
    fn covering_set_shapes() {
        // One queued write, as a killed commit leaves: lost, torn, or
        // landed whole.
        let torn = |torn_bytes| CrashMode::Torn {
            landed: 0,
            torn_bytes,
        };
        assert_eq!(
            CrashMode::covering_set(1, 8),
            vec![
                CrashMode::None,
                CrashMode::Prefix(1),
                torn(1),
                torn(4),
                torn(7),
                CrashMode::All
            ]
        );
        let modes = CrashMode::covering_set(3, 8);
        assert!(modes.contains(&CrashMode::None));
        assert!(modes.contains(&CrashMode::Prefix(3)));
        assert!(modes.contains(&CrashMode::Torn {
            landed: 2,
            torn_bytes: 7
        }));
        assert!(modes.contains(&CrashMode::All));
        // Degenerate queue still yields the trivial cases.
        let empty = CrashMode::covering_set(0, 0);
        assert_eq!(empty, vec![CrashMode::None, CrashMode::All]);
    }
}
