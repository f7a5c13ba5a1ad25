//! The static telemetry vocabulary: every stage name, metric name and
//! label key the recorder will ever emit, fixed at compile time.
//!
//! This mirrors the role `nymix-lint`'s `Registry` plays for trust
//! boundaries: the vocabulary *is* the privacy argument. Telemetry can
//! only name things listed here, label **values** are bare integers
//! (session indices, child indices, byte counts, packed exit
//! addresses), and nothing else — a nym label, an object name or a key
//! byte has no representable form in the event stream. The
//! `obs-label-hygiene` lint rule enforces the same vocabulary at every
//! `span!`/`counter!` call site, and the const lookup functions below
//! turn an unregistered name into a *compile error* before the lint
//! ever runs.
//!
//! See `OBSERVABILITY.md` at the repo root for the span taxonomy and
//! how to extend these tables.

/// Span stage names, the `span!` taxonomy. Indexed by [`stage_id`].
pub const STAGES: &[&str] = &[
    // Save pipeline, per session (crates/core/src/manager/pipeline.rs).
    "capture",
    "chunk",
    "seal",
    "upload",
    // Save pipeline, per destination group: the backend's batch write.
    "apply_batch",
    // Restore pipeline: the chain fetch (crates/store/src/chain.rs).
    "fetch",
    "replay",
    "resolve",
    // Restore, in `NymManager::restore_nym`: archive decode and
    // session build (crates/core/src/manager/mod.rs).
    "instantiate",
    // Disk store (crates/store/src/disk).
    "journal_commit",
    "recovery",
    // Placement (crates/store/src/placement).
    "shard_write",
    "quorum_wait",
    "repair",
    // Fleet-level session activity (crates/core/src/manager/fleet.rs).
    "browse",
    "restore",
];

/// Label keys admissible on spans. Values are always plain `u64`s.
pub const LABEL_KEYS: &[&str] = &[
    "session", "child", "exit", "bytes", "objects", "epoch", "chunks",
];

/// Monotonic counters. Indexed by [`counter_id`].
pub const COUNTERS: &[&str] = &[
    "crypto.aead.seals",
    "crypto.aead.opens",
    "crypto.sha256.blocks",
    "crypto.kdf.calls",
    "cloud.auth",
    "cloud.puts",
    "cloud.gets",
    "cloud.ops",
    "cloud.dropped",
    "cloud.backoff_us",
    "disk.commits",
    "disk.recoveries",
    "disk.writes",
    "disk.bytes_written",
    "disk.reads",
    "disk.bytes_read",
    "disk.fsyncs",
    "placement.shard_writes",
    "placement.shard_failures",
    "placement.repair_passes",
    "placement.shards_rebuilt",
    "placement.deletes_flushed",
    // Bytes the content-defined chunker walked, in the save pipeline's
    // `chunk` stage (store/src/cas.rs).
    "chunker.bytes_walked",
    // Never incremented since the Merkle tree went; nymbench's
    // `crypto.merkle.cache_hit_ratio` column still reads both names.
    "merkle.cache_hit",
    "merkle.leaf_rehash",
];

/// Last-write-wins gauges. Indexed by [`gauge_id`].
pub const GAUGES: &[&str] = &[
    "disk.garbage_bytes",
    "placement.repair_queue",
    "placement.pending_deletes",
    "crypto.sha256.backend",
];

/// Log-bucketed value histograms. Indexed by [`histogram_id`].
pub const HISTOGRAMS: &[&str] = &["disk.commit_bytes", "cloud.put_bytes"];

/// Number of registered stages.
pub const N_STAGES: usize = STAGES.len();
/// Number of registered counters.
pub const N_COUNTERS: usize = COUNTERS.len();
/// Number of registered gauges.
pub const N_GAUGES: usize = GAUGES.len();
/// Number of registered histograms.
pub const N_HISTOGRAMS: usize = HISTOGRAMS.len();

/// Buckets per histogram: power-of-two bounds, `bucket i` counting
/// values in `[2^(i-1), 2^i)` (bucket 0 holds zero). 32 buckets cover
/// the full range the saturating [`bucket_of`] maps into.
pub const N_BUCKETS: usize = 32;

/// Lower bound (inclusive) of histogram bucket `i` — the const bucket
/// table, so exporters never compute with floats.
#[must_use]
pub const fn bucket_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << (i - 1)
    }
}

/// Bucket index for `v`: HDR-style floor-log2, saturating into the
/// last bucket. Integer-only, no floats on the hot path.
#[must_use]
pub const fn bucket_of(v: u64) -> usize {
    let b = (u64::BITS - v.leading_zeros()) as usize;
    if b >= N_BUCKETS {
        N_BUCKETS - 1
    } else {
        b
    }
}

const fn str_eq(a: &str, b: &str) -> bool {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    if a.len() != b.len() {
        return false;
    }
    let mut i = 0;
    while i < a.len() {
        if a[i] != b[i] {
            return false;
        }
        i += 1;
    }
    true
}

const fn lookup(table: &[&str], name: &str) -> Option<usize> {
    let mut i = 0;
    while i < table.len() {
        if str_eq(table[i], name) {
            return Some(i);
        }
        i += 1;
    }
    None
}

/// Index of a registered stage name. Evaluate inside a `const` block
/// (the macros do) so an unregistered stage fails the build.
///
/// # Panics
///
/// Panics when `name` is not in [`STAGES`].
#[must_use]
pub const fn stage_id(name: &str) -> usize {
    match lookup(STAGES, name) {
        Some(i) => i,
        None => panic!("stage name is not in the nymix-obs registry (see OBSERVABILITY.md)"),
    }
}

/// Index of a registered label key.
///
/// # Panics
///
/// Panics when `name` is not in [`LABEL_KEYS`].
#[must_use]
pub const fn label_id(name: &str) -> usize {
    match lookup(LABEL_KEYS, name) {
        Some(i) => i,
        None => panic!("label key is not in the nymix-obs registry (see OBSERVABILITY.md)"),
    }
}

/// Index of a registered counter.
///
/// # Panics
///
/// Panics when `name` is not in [`COUNTERS`].
#[must_use]
pub const fn counter_id(name: &str) -> usize {
    match lookup(COUNTERS, name) {
        Some(i) => i,
        None => panic!("counter name is not in the nymix-obs registry (see OBSERVABILITY.md)"),
    }
}

/// Index of a registered gauge.
///
/// # Panics
///
/// Panics when `name` is not in [`GAUGES`].
#[must_use]
pub const fn gauge_id(name: &str) -> usize {
    match lookup(GAUGES, name) {
        Some(i) => i,
        None => panic!("gauge name is not in the nymix-obs registry (see OBSERVABILITY.md)"),
    }
}

/// Index of a registered histogram.
///
/// # Panics
///
/// Panics when `name` is not in [`HISTOGRAMS`].
#[must_use]
pub const fn histogram_id(name: &str) -> usize {
    match lookup(HISTOGRAMS, name) {
        Some(i) => i,
        None => panic!("histogram name is not in the nymix-obs registry (see OBSERVABILITY.md)"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookups_resolve_registered_names() {
        assert_eq!(stage_id("capture"), 0);
        assert_eq!(STAGES[stage_id("upload")], "upload");
        assert_eq!(COUNTERS[counter_id("cloud.ops")], "cloud.ops");
        assert_eq!(GAUGES[gauge_id("disk.garbage_bytes")], "disk.garbage_bytes");
        assert_eq!(
            HISTOGRAMS[histogram_id("cloud.put_bytes")],
            "cloud.put_bytes"
        );
        assert_eq!(LABEL_KEYS[label_id("session")], "session");
    }

    #[test]
    fn vocabulary_has_no_duplicates() {
        for table in [STAGES, LABEL_KEYS, COUNTERS, GAUGES, HISTOGRAMS] {
            for (i, a) in table.iter().enumerate() {
                for b in &table[i + 1..] {
                    assert_ne!(a, b, "duplicate vocabulary entry");
                }
            }
        }
    }

    #[test]
    fn buckets_are_monotonic_and_saturating() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), N_BUCKETS - 1);
        for i in 1..N_BUCKETS {
            assert!(bucket_bound(i) > bucket_bound(i - 1) || i == 1);
            // Every bound maps into its own bucket.
            assert_eq!(bucket_of(bucket_bound(i)), i.min(N_BUCKETS - 1));
        }
    }
}
