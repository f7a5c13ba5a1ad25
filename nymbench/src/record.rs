//! Timing (and, in traced runs, obs attribution) around each call the
//! benchmark makes into the program.
//!
//! Untraced, a call is bracketed by two `Instant` reads. Traced, the
//! recorder is on and the call is additionally bracketed by two
//! `nymix_obs::snapshot()`s, so counter and stage deltas belong to the
//! call that caused them. Every ring and counter is reset before the
//! call and the trace is exported, validated and parsed after it, so
//! the per-thread rings (`RING_CAPACITY` events each) hold one call's
//! events at a time.

use std::time::{Duration, Instant};

use nymix_obs::registry::{COUNTERS, STAGES};
use nymix_obs::ObsSnapshot;

/// The user operations the workloads time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `create_nym`.
    Create,
    /// One `visit_site`.
    Visit,
    /// One batched `save_nyms_incremental` round.
    Save,
    /// One `restore_nym`.
    Restore,
    /// One `destroy_nym`.
    Destroy,
    /// `take_disk` + `attach_disk` (journal recovery).
    PowerCycle,
    /// One `repair_striped` pass.
    Repair,
}

impl Op {
    /// Every operation kind.
    pub const ALL: [Op; 7] = [
        Op::Create,
        Op::Visit,
        Op::Save,
        Op::Restore,
        Op::Destroy,
        Op::PowerCycle,
        Op::Repair,
    ];
}

/// What the recorder attributed to one call.
#[derive(Debug, Clone)]
pub struct Layer {
    /// Counter deltas, indexed like `registry::COUNTERS`.
    pub counters: Vec<u64>,
    /// Completed spans per stage, indexed like `registry::STAGES`.
    pub stage_count: Vec<u64>,
    /// Summed span wall time per stage (all threads), microseconds.
    pub stage_wall_us: Vec<u64>,
    /// Summed explicitly charged modeled time per stage, microseconds.
    pub stage_modeled_us: Vec<u64>,
    /// Wall time covered by the union of every span interval on every
    /// thread, microseconds.
    pub covered_us: u64,
    /// Span events lost to ring overwrite during the call.
    pub dropped: u64,
    /// Why the exported trace failed `validate_trace`, if it did.
    pub trace_error: Option<String>,
}

impl Layer {
    /// Counter delta by registered name.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters[index(COUNTERS, name)]
    }

    /// `(span count, wall µs, modeled µs)` of a registered stage.
    pub fn stage(&self, name: &str) -> (u64, u64, u64) {
        let i = index(STAGES, name);
        (
            self.stage_count[i],
            self.stage_wall_us[i],
            self.stage_modeled_us[i],
        )
    }

    /// Whether residuals may be computed from this call's trace.
    pub fn complete(&self) -> bool {
        self.dropped == 0 && self.trace_error.is_none()
    }

    fn between(before: &ObsSnapshot, after: &ObsSnapshot) -> Self {
        let trace = nymix_obs::trace_json();
        let (covered_us, trace_error) = match nymix_obs::validate_trace(&trace) {
            Ok(_) => (covered_us(&trace), None),
            Err(e) => (0, Some(e)),
        };
        let diff = |a: u64, b: u64| a.saturating_sub(b);
        Layer {
            counters: after
                .counters
                .iter()
                .zip(&before.counters)
                .map(|(a, b)| diff(a.1, b.1))
                .collect(),
            stage_count: after
                .stages
                .iter()
                .zip(&before.stages)
                .map(|(a, b)| diff(a.count, b.count))
                .collect(),
            stage_wall_us: after
                .stages
                .iter()
                .zip(&before.stages)
                .map(|(a, b)| diff(a.wall_us, b.wall_us))
                .collect(),
            stage_modeled_us: after
                .stages
                .iter()
                .zip(&before.stages)
                .map(|(a, b)| diff(a.modeled_us, b.modeled_us))
                .collect(),
            covered_us,
            dropped: diff(after.dropped_events, before.dropped_events),
            trace_error,
        }
    }
}

fn index(table: &[&str], name: &str) -> usize {
    table
        .iter()
        .position(|n| *n == name)
        .unwrap_or_else(|| panic!("{name:?} is not in the obs registry"))
}

/// Reads `"key": <u64>` out of one exported trace-event line.
fn field_u64(line: &str, key: &str) -> Option<u64> {
    let rest = &line[line.find(key)? + key.len()..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Length of the union of every span interval in a validated trace.
/// `trace_json` writes one event per line, and a validated trace nests
/// begin/end pairs LIFO per thread, so a stack per `tid` pairs them.
fn covered_us(trace: &str) -> u64 {
    let mut open: Vec<(u64, Vec<u64>)> = Vec::new();
    let mut spans: Vec<(u64, u64)> = Vec::new();
    for line in trace.lines() {
        let (Some(tid), Some(ts)) = (field_u64(line, "\"tid\": "), field_u64(line, "\"ts\": "))
        else {
            continue;
        };
        let slot = match open.iter().position(|(t, _)| *t == tid) {
            Some(i) => &mut open[i].1,
            None => {
                open.push((tid, Vec::new()));
                &mut open.last_mut().expect("just pushed").1
            }
        };
        if line.contains("\"ph\": \"B\"") {
            slot.push(ts);
        } else if let Some(start) = slot.pop() {
            spans.push((start, ts));
        }
    }
    spans.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in spans {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// One timed call.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Which operation.
    pub op: Op,
    /// Whether it ran during set-up rather than the measured phase.
    pub setup: bool,
    /// Wall time of the call alone.
    pub wall: Duration,
    /// Recorder attribution (traced runs only).
    pub layer: Option<Layer>,
}

/// Times calls, optionally with the recorder on.
#[derive(Debug)]
pub struct Recorder {
    traced: bool,
    /// Marks samples as set-up work while true.
    pub in_setup: bool,
    /// Every call timed so far, in order.
    pub samples: Vec<Sample>,
}

impl Recorder {
    /// A recorder for one repetition: turns the obs recorder on when
    /// traced, off otherwise.
    pub fn new(traced: bool) -> Self {
        nymix_obs::set_enabled(traced);
        nymix_obs::reset();
        Recorder {
            traced,
            in_setup: true,
            samples: Vec::new(),
        }
    }

    /// Times `f` as one `op` and returns its result.
    pub fn time<T>(&mut self, op: Op, f: impl FnOnce() -> T) -> T {
        let (out, wall, layer) = if self.traced {
            // Drop whatever the benchmark's own untimed work between
            // calls recorded, so the trace holds this call alone.
            nymix_obs::reset();
            let before = nymix_obs::snapshot();
            let t0 = Instant::now();
            let out = f();
            let wall = t0.elapsed();
            let after = nymix_obs::snapshot();
            (out, wall, Some(Layer::between(&before, &after)))
        } else {
            let t0 = Instant::now();
            let out = std::hint::black_box(f());
            (out, t0.elapsed(), None)
        };
        self.samples.push(Sample {
            op,
            setup: self.in_setup,
            wall,
            layer,
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps_across_threads() {
        let ev = |ph: &str, tid: u64, ts: u64| {
            format!("    {{\"name\": \"seal\", \"cat\": \"nymix\", \"ph\": \"{ph}\", \"pid\": 1, \"tid\": {tid}, \"ts\": {ts}, \"args\": {{\"sim_us\": 0}}}}")
        };
        let trace = [
            ev("B", 1, 10),
            ev("B", 1, 12),
            ev("E", 1, 15),
            ev("E", 1, 20),
            ev("B", 2, 18),
            ev("E", 2, 30),
            ev("B", 3, 40),
            ev("E", 3, 45),
        ]
        .join(",\n");
        // [10,20] ∪ [18,30] ∪ [40,45] = 20 + 5.
        assert_eq!(covered_us(&trace), 25);
    }
}
