//! Per-thread recording state and the global thread directory.
//!
//! Each recording thread owns one [`Slab`]: relaxed atomic counter and
//! histogram arrays (written only by the owner, read by snapshotting
//! threads) plus a fixed-capacity event [`Ring`] behind an uncontended
//! mutex. Slabs are allocated on a thread's *first* recorded event and
//! registered in a process-wide directory; the `Arc` keeps a dead
//! worker thread's events readable until export. After that one cold
//! registration, the warm path never allocates — an enabled event is
//! an index store into the preallocated ring, and a disabled call site
//! is a single relaxed load and branch.

use std::cell::{Cell, OnceCell};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::registry::{bucket_of, N_BUCKETS, N_COUNTERS, N_GAUGES, N_HISTOGRAMS, N_STAGES};

/// Events a thread can hold before the ring overwrites its oldest.
pub const RING_CAPACITY: usize = 8192;

/// Marker for an unused label slot in an [`Event`].
pub const NO_LABEL: (u16, u64) = (u16::MAX, 0);

/// Begin/end phase of a span event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Span opened (`ph: "B"` in the trace-event export).
    Begin,
    /// Span closed (`ph: "E"`).
    End,
}

/// One recorded span boundary. `Copy` and fixed-size so ring writes
/// are plain stores.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// Begin or end.
    pub phase: Phase,
    /// Index into [`crate::registry::STAGES`].
    pub stage: u16,
    /// Recording thread, for per-`tid` timelines.
    pub tid: u32,
    /// Wall-clock microseconds since the process epoch.
    pub wall_us: u64,
    /// The thread's modeled sim-clock at the boundary, microseconds.
    pub sim_us: u64,
    /// Modeled duration explicitly charged to the span (end events).
    pub modeled_us: u64,
    /// Up to two `(label key id, value)` pairs; [`NO_LABEL`] when
    /// unused. Keys index [`crate::registry::LABEL_KEYS`].
    pub labels: [(u16, u64); 2],
}

/// Fixed-capacity overwrite-oldest event buffer.
#[derive(Debug, Default)]
pub struct Ring {
    buf: Vec<Event>,
    /// Next write position once the buffer is full.
    next: usize,
    /// Events lost to overwrite.
    dropped: u64,
}

impl Ring {
    pub(crate) fn push(&mut self, e: Event) {
        if self.buf.len() < RING_CAPACITY {
            if self.buf.capacity() == 0 {
                // The one cold allocation, on the thread's first event.
                self.buf.reserve_exact(RING_CAPACITY);
            }
            self.buf.push(e);
        } else {
            self.buf[self.next] = e;
            self.next = (self.next + 1) % RING_CAPACITY;
            self.dropped += 1;
        }
    }

    /// Events in record order (oldest first).
    pub(crate) fn ordered(&self) -> Vec<Event> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.next..]);
        out.extend_from_slice(&self.buf[..self.next]);
        out
    }

    pub(crate) fn clear(&mut self) {
        self.buf.clear();
        self.next = 0;
        self.dropped = 0;
    }

    pub(crate) fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// Per-stage running aggregate, merged across threads at snapshot.
#[derive(Debug, Default)]
pub struct StageAgg {
    pub(crate) count: AtomicU64,
    pub(crate) wall_us: AtomicU64,
    pub(crate) sim_us: AtomicU64,
    pub(crate) modeled_us: AtomicU64,
    pub(crate) wall_buckets: [AtomicU64; N_BUCKETS],
}

/// One histogram's buckets.
#[derive(Debug, Default)]
pub struct Histogram {
    pub(crate) buckets: [AtomicU64; N_BUCKETS],
}

/// One thread's recording state. All scalar cells are relaxed atomics:
/// the owner thread is the only writer, exporters only read.
#[derive(Debug)]
pub struct Slab {
    pub(crate) tid: u32,
    pub(crate) counters: [AtomicU64; N_COUNTERS],
    pub(crate) histograms: [Histogram; N_HISTOGRAMS],
    pub(crate) stages: [StageAgg; N_STAGES],
    pub(crate) ring: Mutex<Ring>,
}

impl Slab {
    fn new(tid: u32) -> Self {
        Self {
            tid,
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            histograms: std::array::from_fn(|_| Histogram::default()),
            stages: std::array::from_fn(|_| StageAgg::default()),
            ring: Mutex::new(Ring::default()),
        }
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_TID: AtomicU32 = AtomicU32::new(1);
static THREADS: Mutex<Vec<Arc<Slab>>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();
static GAUGES: [AtomicU64; N_GAUGES] = [const { AtomicU64::new(0) }; N_GAUGES];

thread_local! {
    static SLAB: OnceCell<Arc<Slab>> = const { OnceCell::new() };
    /// The thread's view of the simulated clock, microseconds.
    static SIM_NOW: Cell<u64> = const { Cell::new(0) };
}

/// Turns the recorder on or off. Off (the default) every instrumented
/// call site costs one relaxed load and a branch.
pub fn set_enabled(on: bool) {
    if on {
        // Pin the wall epoch before the first event.
        let _ = EPOCH.get_or_init(Instant::now);
    }
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether the recorder is currently on.
#[inline]
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Microseconds since the recorder's wall epoch (pinned at first
/// enable). Monotonic per thread — `Instant` never goes backwards.
#[inline]
fn epoch_us() -> u64 {
    // Saturating: u64 µs wraps after ~584k years of uptime.
    EPOCH.get_or_init(Instant::now).elapsed().as_micros() as u64
}

/// Publishes the simulated clock to this thread's recorder, so span
/// boundaries carry modeled timestamps next to wall ones. Layers call
/// this whenever they advance their `SimTime`.
#[inline]
pub fn sim_clock(us: u64) {
    SIM_NOW.with(|c| c.set(us));
}

/// This thread's last published simulated clock.
#[inline]
#[must_use]
fn sim_clock_now() -> u64 {
    SIM_NOW.with(Cell::get)
}

/// Runs `f` against this thread's slab, registering one on first use.
#[inline]
fn with_slab<R>(f: impl FnOnce(&Slab) -> R) -> R {
    SLAB.with(|cell| {
        let slab = cell.get_or_init(|| {
            let slab = Arc::new(Slab::new(NEXT_TID.fetch_add(1, Ordering::Relaxed)));
            if let Ok(mut threads) = THREADS.lock() {
                threads.push(Arc::clone(&slab));
            }
            slab
        });
        f(slab)
    })
}

/// Every registered thread slab, for snapshot/export.
pub(crate) fn all_slabs() -> Vec<Arc<Slab>> {
    THREADS.lock().map(|t| t.clone()).unwrap_or_default()
}

/// Adds `n` to counter `id` (a [`crate::registry::counter_id`] index).
/// Prefer the [`crate::counter!`] macro, which resolves the id at
/// compile time.
#[inline]
pub fn count(id: usize, n: u64) {
    if !enabled() {
        return;
    }
    with_slab(|s| s.counters[id].fetch_add(n, Ordering::Relaxed));
}

/// Sets gauge `id` (a [`crate::registry::gauge_id`] index) to `v`.
#[inline]
pub fn gauge_set(id: usize, v: u64) {
    if !enabled() {
        return;
    }
    GAUGES[id].store(v, Ordering::Relaxed);
}

/// Records `v` into histogram `id` (a
/// [`crate::registry::histogram_id`] index).
#[inline]
pub fn observe(id: usize, v: u64) {
    if !enabled() {
        return;
    }
    with_slab(|s| s.histograms[id].buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed));
}

/// Current value of gauge `id`.
#[inline]
pub(crate) fn gauge_get(id: usize) -> u64 {
    GAUGES[id].load(Ordering::Relaxed)
}

/// Records a span-begin event on this thread. Returns the
/// `(wall_us, sim_us)` stamped on the event so the span guard can
/// compute durations at end without re-reading the clock twice.
pub(crate) fn record_begin(stage: u16, labels: [(u16, u64); 2]) -> (u64, u64) {
    let wall_us = epoch_us();
    let sim_us = sim_clock_now();
    with_slab(|s| {
        if let Ok(mut ring) = s.ring.lock() {
            ring.push(Event {
                phase: Phase::Begin,
                stage,
                tid: s.tid,
                wall_us,
                sim_us,
                modeled_us: 0,
                labels,
            });
        }
    });
    (wall_us, sim_us)
}

/// Records a span-end event and folds the completed span into the
/// thread's [`StageAgg`]. `modeled_us` is the explicit charge the span
/// accrued via `Span::add_modeled_us`.
pub(crate) fn record_end(
    stage: u16,
    labels: [(u16, u64); 2],
    start_wall_us: u64,
    start_sim_us: u64,
    modeled_us: u64,
) {
    let wall_us = epoch_us();
    let sim_us = sim_clock_now();
    let wall_dur = wall_us.saturating_sub(start_wall_us);
    let sim_dur = sim_us.saturating_sub(start_sim_us);
    with_slab(|s| {
        if let Ok(mut ring) = s.ring.lock() {
            ring.push(Event {
                phase: Phase::End,
                stage,
                tid: s.tid,
                wall_us,
                sim_us,
                modeled_us,
                labels,
            });
        }
        let agg = &s.stages[stage as usize];
        agg.count.fetch_add(1, Ordering::Relaxed);
        agg.wall_us.fetch_add(wall_dur, Ordering::Relaxed);
        agg.sim_us.fetch_add(sim_dur, Ordering::Relaxed);
        agg.modeled_us.fetch_add(modeled_us, Ordering::Relaxed);
        agg.wall_buckets[bucket_of(wall_dur)].fetch_add(1, Ordering::Relaxed);
    });
}

/// Drains the **current thread's** event ring, returning events in
/// record order. Test helper: lets a test inspect exactly what it
/// emitted without seeing other threads' events.
#[cfg(test)]
#[must_use]
pub(crate) fn take_thread_events() -> Vec<Event> {
    with_slab(|s| {
        let Ok(mut ring) = s.ring.lock() else {
            return Vec::new();
        };
        let out = ring.ordered();
        ring.clear();
        out
    })
}

/// Zeroes every counter, gauge, histogram and stage aggregate and
/// clears every ring. For test setup and example runs; racy against
/// concurrent recording threads (late events may survive the reset).
pub fn reset() {
    for g in &GAUGES {
        g.store(0, Ordering::Relaxed);
    }
    for slab in all_slabs() {
        for c in &slab.counters {
            c.store(0, Ordering::Relaxed);
        }
        for h in &slab.histograms {
            for b in &h.buckets {
                b.store(0, Ordering::Relaxed);
            }
        }
        for st in &slab.stages {
            st.count.store(0, Ordering::Relaxed);
            st.wall_us.store(0, Ordering::Relaxed);
            st.sim_us.store(0, Ordering::Relaxed);
            st.modeled_us.store(0, Ordering::Relaxed);
            for b in &st.wall_buckets {
                b.store(0, Ordering::Relaxed);
            }
        }
        if let Ok(mut ring) = slab.ring.lock() {
            ring.clear();
        }
    }
}
