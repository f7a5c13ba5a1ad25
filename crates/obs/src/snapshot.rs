//! Point-in-time metrics snapshot and its JSON export.
//!
//! A snapshot merges every thread slab's counters, histograms and
//! stage aggregates into one view. The JSON form feeds the `primitives`
//! bench's smoke-mode report and the `nym_fleet` example's end-of-run
//! report; the format is documented in `OBSERVABILITY.md`.

use crate::registry::{
    bucket_bound, COUNTERS, GAUGES, HISTOGRAMS, N_BUCKETS, N_COUNTERS, N_HISTOGRAMS, N_STAGES,
    STAGES,
};
use crate::ring;
use std::sync::atomic::Ordering;

/// Merged view of one histogram.
#[derive(Debug, Clone)]
pub struct HistogramSnap {
    /// Registered histogram name.
    pub name: &'static str,
    /// Total observations.
    pub count: u64,
    /// Per-bucket counts; bucket `i` covers values starting at
    /// [`bucket_bound`]`(i)`.
    pub buckets: [u64; N_BUCKETS],
}

/// Merged view of one span stage's aggregate.
#[derive(Debug, Clone)]
pub struct StageSnap {
    /// Registered stage name.
    pub stage: &'static str,
    /// Completed spans.
    pub count: u64,
    /// Summed wall-clock duration, microseconds.
    pub wall_us: u64,
    /// Summed sim-clock elapsed between span boundaries, microseconds.
    pub sim_us: u64,
    /// Summed explicitly-charged modeled time, microseconds.
    pub modeled_us: u64,
    /// Log-bucketed wall-duration histogram.
    pub wall_buckets: [u64; N_BUCKETS],
}

/// A point-in-time merge of every thread's recorded metrics.
#[derive(Debug, Clone)]
pub struct ObsSnapshot {
    /// `(name, value)` for each registered counter, in registry order.
    pub counters: Vec<(&'static str, u64)>,
    /// `(name, value)` for each registered gauge, in registry order.
    pub gauges: Vec<(&'static str, u64)>,
    /// Every registered histogram, in registry order.
    pub histograms: Vec<HistogramSnap>,
    /// Every registered stage aggregate, in registry order.
    pub stages: Vec<StageSnap>,
    /// Span events lost to ring-buffer overwrite, across all threads.
    pub dropped_events: u64,
}

/// Takes a snapshot of the current metric state across all threads.
/// Safe (and meaningful) whether or not the recorder is enabled.
#[must_use]
pub fn snapshot() -> ObsSnapshot {
    let slabs = ring::all_slabs();
    let mut counters = [0u64; N_COUNTERS];
    let mut hists = vec![[0u64; N_BUCKETS]; N_HISTOGRAMS];
    let mut stage_scalars = [[0u64; 4]; N_STAGES];
    let mut stage_buckets = vec![[0u64; N_BUCKETS]; N_STAGES];
    let mut dropped_events = 0u64;
    for slab in &slabs {
        for (acc, c) in counters.iter_mut().zip(slab.counters.iter()) {
            *acc = acc.saturating_add(c.load(Ordering::Relaxed));
        }
        for (acc, h) in hists.iter_mut().zip(slab.histograms.iter()) {
            for (a, b) in acc.iter_mut().zip(h.buckets.iter()) {
                *a = a.saturating_add(b.load(Ordering::Relaxed));
            }
        }
        for (i, agg) in slab.stages.iter().enumerate() {
            let s = &mut stage_scalars[i];
            s[0] = s[0].saturating_add(agg.count.load(Ordering::Relaxed));
            s[1] = s[1].saturating_add(agg.wall_us.load(Ordering::Relaxed));
            s[2] = s[2].saturating_add(agg.sim_us.load(Ordering::Relaxed));
            s[3] = s[3].saturating_add(agg.modeled_us.load(Ordering::Relaxed));
            for (a, b) in stage_buckets[i].iter_mut().zip(agg.wall_buckets.iter()) {
                *a = a.saturating_add(b.load(Ordering::Relaxed));
            }
        }
        if let Ok(r) = slab.ring.lock() {
            dropped_events = dropped_events.saturating_add(r.dropped());
        }
    }
    ObsSnapshot {
        counters: COUNTERS
            .iter()
            .zip(counters)
            .map(|(n, v)| (*n, v))
            .collect(),
        gauges: GAUGES
            .iter()
            .enumerate()
            .map(|(i, n)| (*n, ring::gauge_get(i)))
            .collect(),
        histograms: HISTOGRAMS
            .iter()
            .zip(hists)
            .map(|(name, buckets)| HistogramSnap {
                name,
                count: buckets.iter().sum(),
                buckets,
            })
            .collect(),
        stages: STAGES
            .iter()
            .enumerate()
            .map(|(i, stage)| StageSnap {
                stage,
                count: stage_scalars[i][0],
                wall_us: stage_scalars[i][1],
                sim_us: stage_scalars[i][2],
                modeled_us: stage_scalars[i][3],
                wall_buckets: stage_buckets[i],
            })
            .collect(),
        dropped_events,
    }
}

fn push_bucket_pairs(out: &mut String, buckets: &[u64; N_BUCKETS]) {
    out.push('[');
    let mut first = true;
    for (i, &c) in buckets.iter().enumerate() {
        if c == 0 {
            continue;
        }
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!("[{},{}]", bucket_bound(i), c));
    }
    out.push(']');
}

impl ObsSnapshot {
    /// Value of a registered counter by name.
    ///
    /// # Panics
    ///
    /// Panics when `name` is not a registered counter.
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("unregistered counter {name:?}"))
            .1
    }

    /// Value of a registered gauge by name.
    ///
    /// # Panics
    ///
    /// Panics when `name` is not a registered gauge.
    #[must_use]
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("unregistered gauge {name:?}"))
            .1
    }

    /// Aggregate for a registered stage by name.
    ///
    /// # Panics
    ///
    /// Panics when `name` is not a registered stage.
    #[must_use]
    pub fn stage(&self, name: &str) -> &StageSnap {
        self.stages
            .iter()
            .find(|s| s.stage == name)
            .unwrap_or_else(|| panic!("unregistered stage {name:?}"))
    }

    /// Serializes the snapshot as JSON. Zero-valued counters and
    /// gauges are kept (so consumers see the full vocabulary);
    /// histogram buckets are emitted sparsely as
    /// `[lower_bound, count]` pairs.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\n  \"counters\": {");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    \"{name}\": {v}"));
        }
        out.push_str("\n  },\n  \"gauges\": {");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    \"{name}\": {v}"));
        }
        out.push_str("\n  },\n  \"histograms\": {");
        for (i, h) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    \"{}\": {{\"count\": {}, \"buckets\": ",
                h.name, h.count
            ));
            push_bucket_pairs(&mut out, &h.buckets);
            out.push('}');
        }
        out.push_str("\n  },\n  \"stages\": {");
        for (i, s) in self.stages.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    \"{}\": {{\"count\": {}, \"wall_us\": {}, \"sim_us\": {}, \"modeled_us\": {}, \"wall_buckets\": ",
                s.stage, s.count, s.wall_us, s.sim_us, s.modeled_us
            ));
            push_bucket_pairs(&mut out, &s.wall_buckets);
            out.push('}');
        }
        out.push_str(&format!(
            "\n  }},\n  \"dropped_events\": {}\n}}\n",
            self.dropped_events
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_merges_counters_and_serializes() {
        let _g = crate::test_guard();
        crate::set_enabled(true);
        crate::counter!("crypto.kdf.calls", 2u64);
        crate::gauge!("disk.garbage_bytes", 777u64);
        crate::histogram!("cloud.put_bytes", 1500u64);
        let snap = snapshot();
        crate::set_enabled(false);
        assert!(snap.counter("crypto.kdf.calls") >= 2);
        assert_eq!(snap.gauge("disk.garbage_bytes"), 777);
        let h = &snap.histograms[1];
        assert_eq!(h.name, "cloud.put_bytes");
        assert!(h.count >= 1);
        let json = snap.to_json();
        assert!(json.contains("\"crypto.kdf.calls\""));
        assert!(json.contains("\"disk.garbage_bytes\": 777"));
        assert!(json.contains("\"dropped_events\""));
    }
}
