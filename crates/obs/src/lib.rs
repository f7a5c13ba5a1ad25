//! # nymix-obs — privacy-disciplined tracing and metrics
//!
//! A structured span/metric layer for the whole workspace, recording
//! **both wall time and sim-clock modeled time** into per-thread
//! fixed-capacity ring buffers. Two exporters: a JSON metrics snapshot
//! ([`ObsSnapshot::to_json`]) and Chrome `chrome://tracing` trace-event
//! format ([`trace_json`]), so a full fleet heartbeat renders as a
//! timeline of overlapping per-session stage spans.
//!
//! The full span taxonomy, the privacy rationale behind the static
//! label registry, both exporter formats, and the recipe for adding an
//! instrumentation point without tripping the `obs-label-hygiene` lint
//! rule are documented in
//! [`OBSERVABILITY.md`](https://github.com/nymix/nymix/blob/main/OBSERVABILITY.md)
//! at the repository root.
//!
//! ## Design constraints
//!
//! * **Zero dependencies, no unsafe.** The crate sits below every
//!   other workspace crate (even `nymix-crypto` counts through it), so
//!   it depends on nothing and represents modeled time as raw `u64`
//!   microseconds instead of importing `nymix_sim::SimTime`.
//! * **Disabled means free.** The recorder is off by default; a
//!   disabled call site is one relaxed atomic load and a branch, and
//!   never touches the heap — the workspace `no_alloc` tests pin this.
//! * **Static vocabulary.** Stage names, metric names and label keys
//!   are `&'static str` drawn from the [`registry`] tables; the macros
//!   resolve them in `const` blocks, so an unregistered name is a
//!   compile error. Label *values* are bare integers — session
//!   indices, child indices, byte counts and packed exit addresses are
//!   admissible; nym labels, object names and key material have no
//!   representable form.
//! * **Integer-only hot path.** Histograms are HDR-style log buckets
//!   over a const bound table ([`registry::bucket_bound`]); no floats
//!   anywhere near a record call.
//!
//! ## Recording
//!
//! ```
//! // Stages, counters and labels must be registry-registered.
//! let mut span = nymix_obs::span!("capture", "session" => 3usize);
//! nymix_obs::counter!("crypto.aead.seals", 1u64);
//! span.add_modeled_us(1_500); // charge sim-clock time to the span
//! drop(span); // RAII: the end event records wall + modeled duration
//! ```

#![forbid(unsafe_code)]

pub mod registry;
mod ring;
mod snapshot;
mod trace;

pub use ring::{
    count, enabled, gauge_set, observe, reset, set_enabled, sim_clock, Event, Phase, NO_LABEL,
    RING_CAPACITY,
};
pub use snapshot::{snapshot, HistogramSnap, ObsSnapshot, StageSnap};
pub use trace::{trace_json, validate_trace, TraceSummary};

/// Conversion into the integer-only label/counter value domain. The
/// macros call this instead of `as u64` so widening stays explicit and
/// lossless per type.
pub trait IntoLabelValue {
    /// The value as a `u64`.
    fn into_label(self) -> u64;
}

macro_rules! impl_into_label {
    ($($t:ty),*) => {
        $(impl IntoLabelValue for $t {
            #[inline]
            fn into_label(self) -> u64 {
                self as u64
            }
        })*
    };
}
impl_into_label!(u8, u16, u32, u64, usize);

impl IntoLabelValue for bool {
    #[inline]
    fn into_label(self) -> u64 {
        u64::from(self)
    }
}

/// An RAII span guard: records a begin event on creation and the
/// matching end event on drop — including during panic unwinding, so
/// exported traces stay balanced. Create via [`span!`](crate::span!).
#[must_use = "a span measures the scope it lives in; dropping it immediately records nothing"]
#[derive(Debug)]
pub struct Span {
    stage: u16,
    start_wall_us: u64,
    start_sim_us: u64,
    modeled_us: u64,
    labels: [(u16, u64); 2],
    armed: bool,
}

impl Span {
    /// Opens a span over stage index `stage` (a
    /// [`registry::stage_id`] index) with up to two labels. Prefer
    /// [`span!`](crate::span!), which resolves names at compile time.
    #[inline]
    // lint:allow(test-only-pub): the `span!` expansion calls it from every instrumented crate
    pub fn enter(stage: usize, labels: [(u16, u64); 2]) -> Span {
        let stage = stage as u16;
        if !enabled() {
            return Span {
                stage,
                start_wall_us: 0,
                start_sim_us: 0,
                modeled_us: 0,
                labels,
                armed: false,
            };
        }
        Self::enter_armed(stage, labels)
    }

    // Outlined so the disabled path above stays branch-plus-return.
    fn enter_armed(stage: u16, labels: [(u16, u64); 2]) -> Span {
        let wall = ring::record_begin(stage, labels);
        Span {
            stage,
            start_wall_us: wall.0,
            start_sim_us: wall.1,
            modeled_us: 0,
            labels,
            armed: true,
        }
    }

    /// Charges `us` microseconds of sim-clock modeled time to this
    /// span, on top of the modeled timestamps the boundaries carry.
    /// Layers that compute a modeled duration out of band (the save
    /// pipeline's transfer/disk pricing) report it here.
    #[inline]
    pub fn add_modeled_us(&mut self, us: u64) {
        self.modeled_us = self.modeled_us.saturating_add(us);
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.armed {
            ring::record_end(
                self.stage,
                self.labels,
                self.start_wall_us,
                self.start_sim_us,
                self.modeled_us,
            );
        }
    }
}

/// An always-on local tally backed by the obs counter machinery: the
/// instance keeps its own total (readable and drainable regardless of
/// whether the recorder is enabled, so existing accounting APIs keep
/// their semantics) and mirrors every increment into the named global
/// counter when recording is on. This is the primitive `AccessLog`
/// totals, `DiskStats` tallies and retry-backoff accrual are built on.
/// Create via [`meter!`](crate::meter!).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Meter {
    total: u64,
    id: usize,
}

impl Meter {
    /// A zeroed meter mirroring into counter `id` (a
    /// [`registry::counter_id`] index). Prefer
    /// [`meter!`](crate::meter!).
    #[must_use]
    pub const fn new(id: usize) -> Self {
        Self { total: 0, id }
    }

    /// Adds `n` locally and mirrors it into the global counter.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.total = self.total.saturating_add(n);
        count(self.id, n);
    }

    /// The local total since construction (or the last [`Meter::take`]).
    #[inline]
    #[must_use]
    pub fn get(&self) -> u64 {
        self.total
    }

    /// Drains the local total. The global mirror stays monotonic —
    /// draining an instance view never un-counts fleet-wide telemetry.
    #[inline]
    pub fn take(&mut self) -> u64 {
        std::mem::take(&mut self.total)
    }
}

/// Opens an RAII span over a registered stage, with optional
/// registered labels: `span!("capture")`,
/// `span!("seal", "session" => idx)`,
/// `span!("upload", "session" => idx, "bytes" => len)`.
///
/// Stage and label names are resolved against [`registry`] in `const`
/// blocks — an unregistered name fails the build. Values go through
/// [`IntoLabelValue`] (unsigned integers and `bool`).
#[macro_export]
macro_rules! span {
    ($stage:literal) => {
        $crate::Span::enter(
            const { $crate::registry::stage_id($stage) },
            [$crate::NO_LABEL, $crate::NO_LABEL],
        )
    };
    ($stage:literal, $k:literal => $v:expr) => {
        $crate::Span::enter(
            const { $crate::registry::stage_id($stage) },
            [
                (
                    const { $crate::registry::label_id($k) } as u16,
                    $crate::IntoLabelValue::into_label($v),
                ),
                $crate::NO_LABEL,
            ],
        )
    };
    ($stage:literal, $k1:literal => $v1:expr, $k2:literal => $v2:expr) => {
        $crate::Span::enter(
            const { $crate::registry::stage_id($stage) },
            [
                (
                    const { $crate::registry::label_id($k1) } as u16,
                    $crate::IntoLabelValue::into_label($v1),
                ),
                (
                    const { $crate::registry::label_id($k2) } as u16,
                    $crate::IntoLabelValue::into_label($v2),
                ),
            ],
        )
    };
}

/// Adds to a registered monotonic counter:
/// `counter!("crypto.aead.seals", 1u64)`. The name resolves at compile
/// time against [`registry::COUNTERS`].
#[macro_export]
macro_rules! counter {
    ($name:literal, $n:expr) => {
        $crate::count(
            const { $crate::registry::counter_id($name) },
            $crate::IntoLabelValue::into_label($n),
        )
    };
}

/// Sets a registered gauge: `gauge!("disk.garbage_bytes", bytes)`.
#[macro_export]
macro_rules! gauge {
    ($name:literal, $v:expr) => {
        $crate::gauge_set(
            const { $crate::registry::gauge_id($name) },
            $crate::IntoLabelValue::into_label($v),
        )
    };
}

/// Records a value into a registered log-bucketed histogram:
/// `histogram!("disk.commit_bytes", len)`.
#[macro_export]
macro_rules! histogram {
    ($name:literal, $v:expr) => {
        $crate::observe(
            const { $crate::registry::histogram_id($name) },
            $crate::IntoLabelValue::into_label($v),
        )
    };
}

/// Builds a [`Meter`] mirroring into a registered counter:
/// `meter!("cloud.ops")`.
#[macro_export]
macro_rules! meter {
    ($name:literal) => {
        $crate::Meter::new(const { $crate::registry::counter_id($name) })
    };
}

/// Serializes unit tests that flip the process-global recorder state.
#[cfg(test)]
pub(crate) fn test_guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::take_thread_events;

    #[test]
    fn disabled_spans_record_nothing() {
        let _g = crate::test_guard();
        set_enabled(false);
        let _ = take_thread_events();
        {
            let mut s = span!("capture", "session" => 1u64);
            s.add_modeled_us(10);
            counter!("cloud.ops", 1u64);
        }
        assert!(take_thread_events().is_empty());
    }

    #[test]
    fn meter_counts_without_recorder() {
        let _g = crate::test_guard();
        set_enabled(false);
        let mut m = meter!("cloud.ops");
        m.add(3);
        m.add(4);
        assert_eq!(m.get(), 7);
        assert_eq!(m.take(), 7);
        assert_eq!(m.get(), 0);
    }

    #[test]
    fn span_nesting_survives_panic_unwind() {
        let _g = crate::test_guard();
        set_enabled(true);
        let _ = take_thread_events();
        let result = std::panic::catch_unwind(|| {
            let _outer = span!("capture", "session" => 0u64);
            let _inner = span!("seal");
            panic!("mid-span failure");
        });
        assert!(result.is_err());
        let events = take_thread_events();
        set_enabled(false);
        // B capture, B seal, E seal, E capture: unwinding ran both
        // drops, innermost first.
        let phases: Vec<(Phase, u16)> = events.iter().map(|e| (e.phase, e.stage)).collect();
        assert_eq!(events.len(), 4, "events: {events:?}");
        assert_eq!(phases[0].0, Phase::Begin);
        assert_eq!(phases[1].0, Phase::Begin);
        assert_eq!(phases[2], (Phase::End, phases[1].1));
        assert_eq!(phases[3], (Phase::End, phases[0].1));
        // Timestamps are monotonic within the thread.
        for pair in events.windows(2) {
            assert!(pair[0].wall_us <= pair[1].wall_us);
        }
    }

    #[test]
    fn modeled_time_rides_the_end_event() {
        let _g = crate::test_guard();
        set_enabled(true);
        let _ = take_thread_events();
        sim_clock(500);
        {
            let mut s = span!("upload", "session" => 2u64, "bytes" => 4096u64);
            sim_clock(900);
            s.add_modeled_us(1_234);
        }
        let events = take_thread_events();
        set_enabled(false);
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].sim_us, 500);
        assert_eq!(events[1].sim_us, 900);
        assert_eq!(events[1].modeled_us, 1_234);
        assert_eq!(events[0].labels[0].1, 2);
        assert_eq!(events[0].labels[1].1, 4096);
    }
}
