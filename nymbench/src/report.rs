//! Turns repetitions into the printed metrics and the deterministic
//! columns the benchmark checks for exact equality.

use crate::record::{Layer, Op};
use crate::workloads::Rep;

const MIB: f64 = 1024.0 * 1024.0;

/// One printed metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
    /// Samples behind the value.
    pub samples: usize,
}

fn metric(name: &'static str, unit: &'static str, value: f64, samples: usize) -> Metric {
    Metric {
        name,
        unit,
        value,
        samples,
    }
}

/// Linear-interpolated percentile (`p` in 0..=1); 0 when empty.
fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

fn mean(values: &[f64]) -> f64 {
    ratio(values.iter().sum(), values.len() as f64)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Wall times in ms of every `op` call across `reps`.
fn walls(reps: &[Rep], op: Op) -> Vec<f64> {
    reps.iter()
        .flat_map(|r| &r.rec.samples)
        .filter(|s| s.op == op)
        .map(|s| s.wall.as_secs_f64() * 1e3)
        .collect()
}

/// Wall times in ms of the measured-phase `op` calls of one schedule,
/// each the best (lowest) across repetitions. Every repetition replays
/// identical work, so the i-th `op` call is the same call in each; its
/// minimum filters out interference from the rest of the machine, while
/// the spread across calls (deltas vs compactions, state growth)
/// remains. Set-up calls are left out: `setup_s` counts them.
fn best_walls(reps: &[Rep], op: Op) -> Vec<f64> {
    let per_rep: Vec<Vec<f64>> = reps
        .iter()
        .map(|r| {
            r.rec
                .samples
                .iter()
                .filter(|s| s.op == op && !s.setup)
                .map(|s| s.wall.as_secs_f64() * 1e3)
                .collect()
        })
        .collect();
    let calls = per_rep.iter().map(Vec::len).min().unwrap_or(0);
    (0..calls)
        .map(|i| per_rep.iter().map(|w| w[i]).fold(f64::INFINITY, f64::min))
        .collect()
}

/// Summed best wall time of every measured-phase call of one schedule,
/// ms.
fn best_total_ms(reps: &[Rep]) -> f64 {
    Op::ALL.iter().flat_map(|&op| best_walls(reps, op)).sum()
}

/// The end-to-end metrics, from untraced repetitions.
pub fn end_to_end(reps: &[Rep], peak_rss_mib: f64) -> Vec<Metric> {
    // Best of repetitions, like the per-call walls: interference only
    // ever adds time.
    let setup_s = reps.iter().map(|r| r.setup_s).fold(f64::INFINITY, f64::min);
    let saves = best_walls(reps, Op::Save);
    let restores = best_walls(reps, Op::Restore);
    // Measured-phase calls per second of their summed best walls.
    let measured = reps[0].rec.samples.iter().filter(|s| !s.setup).count();
    let busy_s = best_total_ms(reps) / 1e3;
    // Modeled columns are identical in every repetition (checked), so
    // the first one stands for all.
    let first = &reps[0];
    let save_modeled: Vec<f64> = first.saves.iter().map(|s| s.modeled_s).collect();
    let restore_modeled: Vec<f64> = first
        .restores
        .iter()
        .map(|b| b.total().as_secs_f64())
        .collect();
    let uploaded: u64 = first.saves.iter().map(|s| s.uploaded).sum();
    let nym_saves: usize = first.saves.iter().map(|s| s.nyms).sum();
    vec![
        metric("setup_s", "s", setup_s, reps.len()),
        metric("save_wall_ms_p50", "ms", median(&saves), saves.len()),
        metric(
            "restore_wall_ms_p50",
            "ms",
            median(&restores),
            restores.len(),
        ),
        metric(
            "restore_wall_ms_p90",
            "ms",
            percentile(&restores, 0.9),
            restores.len(),
        ),
        metric(
            "nym_ops_per_s",
            "1/s",
            ratio(measured as f64, busy_s),
            measured,
        ),
        metric(
            "save_modeled_s_mean",
            "sim_s",
            mean(&save_modeled),
            save_modeled.len(),
        ),
        metric(
            "restore_modeled_s_p50",
            "sim_s",
            median(&restore_modeled),
            restore_modeled.len(),
        ),
        metric(
            "browse_modeled_s_mean",
            "sim_s",
            mean(&first.visits_modeled_s),
            first.visits_modeled_s.len(),
        ),
        metric("peak_rss_mib", "MiB", peak_rss_mib, 1),
        metric("nymbox_mem_mib", "MiB", first.end.nymbox_mem_mib, 1),
        metric(
            "stored_mib_per_nym",
            "MiB",
            first.end.stored_bytes as f64 / MIB / first.end.nyms.max(1) as f64,
            first.end.nyms,
        ),
        metric(
            "wire_mib_per_save",
            "MiB",
            ratio(uploaded as f64 / MIB, nym_saves as f64),
            nym_saves,
        ),
    ]
}

/// Every traced call of kind `op` with its layer attribution.
fn layers(reps: &[Rep], op: Op) -> Vec<(&Layer, f64)> {
    reps.iter()
        .flat_map(|r| &r.rec.samples)
        .filter(|s| s.op == op)
        .filter_map(|s| Some((s.layer.as_ref()?, s.wall.as_secs_f64() * 1e3)))
        .collect()
}

/// Median over calls of one stage's summed wall time per call, ms.
fn stage_ms(calls: &[(&Layer, f64)], stage: &str) -> f64 {
    let v: Vec<f64> = calls
        .iter()
        .map(|(l, _)| l.stage(stage).1 as f64 / 1e3)
        .collect();
    median(&v)
}

/// Wall time per span of one stage over every traced call, ms.
fn per_span_ms(reps: &[Rep], stage: &str) -> f64 {
    let (n, us) = reps
        .iter()
        .flat_map(|r| &r.rec.samples)
        .filter_map(|s| s.layer.as_ref())
        .map(|l| l.stage(stage))
        .fold((0, 0), |(n, us), (c, w, _)| (n + c, us + w));
    ratio(us as f64 / 1e3, n as f64)
}

/// Median of the call's wall minus the span-covered wall, over calls
/// whose trace is complete.
fn residual_ms(calls: &[(&Layer, f64)]) -> f64 {
    let v: Vec<f64> = calls
        .iter()
        .filter(|(l, _)| l.complete())
        .map(|(l, wall)| wall - l.covered_us as f64 / 1e3)
        .collect();
    median(&v)
}

/// Mean of a counter per call.
fn per_call(calls: &[(&Layer, f64)], counter: &str) -> f64 {
    let total: u64 = calls.iter().map(|(l, _)| l.counter(counter)).sum();
    ratio(total as f64, calls.len() as f64)
}

/// A counter summed over every traced call of one repetition.
fn rep_total(rep: &Rep, counter: &str) -> u64 {
    rep.rec
        .samples
        .iter()
        .filter_map(|s| s.layer.as_ref())
        .map(|l| l.counter(counter))
        .sum()
}

/// The per-layer metrics, from traced repetitions (`traced`) and the
/// untraced ones of the same run (for the tracing overhead).
pub fn per_layer(untraced: &[Rep], traced: &[Rep]) -> Vec<Metric> {
    let saves = layers(traced, Op::Save);
    let restores = layers(traced, Op::Restore);
    let first = &traced[0];
    let shipped: f64 = traced
        .iter()
        .flat_map(|r| &r.saves)
        .map(|s| s.uploaded as f64)
        .sum();
    let shipped_to_disk: f64 = traced
        .iter()
        .flat_map(|r| &r.saves)
        .map(|s| s.uploaded_to_disk as f64)
        .sum();
    let save_total = |c: &str| saves.iter().map(|(l, _)| l.counter(c)).sum::<u64>() as f64;
    let all_total = |c: &str| traced.iter().map(|r| rep_total(r, c)).sum::<u64>() as f64;
    let breakdown = |f: fn(&nymix::StartupBreakdown) -> f64| -> f64 {
        let v: Vec<f64> = first.restores.iter().map(f).collect();
        median(&v)
    };
    let upload = saves
        .iter()
        .map(|(l, _)| l.stage("upload"))
        .fold((0, 0), |(n, m), (c, _, md)| (n + c, m + md));
    let overhead = ratio(best_total_ms(traced), best_total_ms(untraced));
    let failures = rep_total(first, "placement.shard_failures") as f64;
    let rebuilt = rep_total(first, "placement.shards_rebuilt") as f64;
    let n = saves.len();
    let r = restores.len();
    vec![
        metric(
            "pipeline.capture.wall_ms",
            "ms",
            stage_ms(&saves, "capture"),
            n,
        ),
        metric("pipeline.chunk.wall_ms", "ms", stage_ms(&saves, "chunk"), n),
        metric("pipeline.seal.busy_ms", "ms", stage_ms(&saves, "seal"), n),
        metric("pipeline.save.residual_ms", "ms", residual_ms(&saves), n),
        metric(
            "pipeline.upload.modeled_s",
            "sim_s",
            ratio(upload.1 as f64 / 1e6, upload.0 as f64),
            upload.0 as usize,
        ),
        metric(
            "restore.fetch.wall_ms",
            "ms",
            stage_ms(&restores, "fetch"),
            r,
        ),
        metric(
            "restore.replay.wall_ms",
            "ms",
            stage_ms(&restores, "replay"),
            r,
        ),
        metric(
            "restore.resolve.wall_ms",
            "ms",
            stage_ms(&restores, "resolve"),
            r,
        ),
        metric("restore.residual_ms", "ms", residual_ms(&restores), r),
        metric(
            "restore.ephemeral_fetch_modeled_s",
            "sim_s",
            breakdown(|b| b.ephemeral_fetch.as_secs_f64()),
            first.restores.len(),
        ),
        metric(
            "restore.boot_modeled_s",
            "sim_s",
            breakdown(|b| b.boot_vm.as_secs_f64()),
            first.restores.len(),
        ),
        metric(
            "restore.anonymizer_modeled_s",
            "sim_s",
            breakdown(|b| b.start_anonymizer.as_secs_f64()),
            first.restores.len(),
        ),
        metric(
            "crypto.sha256.blocks_per_save",
            "count",
            per_call(&saves, "crypto.sha256.blocks"),
            n,
        ),
        metric(
            "crypto.aead.seals_per_save",
            "count",
            per_call(&saves, "crypto.aead.seals"),
            n,
        ),
        metric(
            "crypto.aead.opens_per_save",
            "count",
            per_call(&saves, "crypto.aead.opens"),
            n,
        ),
        metric(
            "crypto.kdf.calls_per_save",
            "count",
            per_call(&saves, "crypto.kdf.calls"),
            n,
        ),
        metric(
            "crypto.sha256.blocks_per_restore",
            "count",
            per_call(&restores, "crypto.sha256.blocks"),
            r,
        ),
        metric(
            "crypto.aead.seals_per_restore",
            "count",
            per_call(&restores, "crypto.aead.seals"),
            r,
        ),
        metric(
            "crypto.aead.opens_per_restore",
            "count",
            per_call(&restores, "crypto.aead.opens"),
            r,
        ),
        metric(
            "crypto.kdf.calls_per_restore",
            "count",
            per_call(&restores, "crypto.kdf.calls"),
            r,
        ),
        metric(
            "crypto.sha256.hashed_per_shipped",
            "ratio",
            ratio(save_total("crypto.sha256.blocks") * 64.0, shipped),
            n,
        ),
        metric(
            "crypto.merkle.cache_hit_ratio",
            "ratio",
            ratio(
                all_total("merkle.cache_hit"),
                all_total("merkle.cache_hit") + all_total("merkle.leaf_rehash"),
            ),
            1,
        ),
        metric(
            "cloud.auth_per_save",
            "count",
            per_call(&saves, "cloud.auth"),
            n,
        ),
        metric(
            "cloud.gets_per_save",
            "count",
            per_call(&saves, "cloud.gets"),
            n,
        ),
        metric(
            "cloud.puts_per_save",
            "count",
            per_call(&saves, "cloud.puts"),
            n,
        ),
        metric(
            "cloud.auth_per_restore",
            "count",
            per_call(&restores, "cloud.auth"),
            r,
        ),
        metric(
            "cloud.gets_per_restore",
            "count",
            per_call(&restores, "cloud.gets"),
            r,
        ),
        metric(
            "cloud.puts_per_restore",
            "count",
            per_call(&restores, "cloud.puts"),
            r,
        ),
        metric(
            "cloud.backoff_us",
            "us",
            rep_total(first, "cloud.backoff_us") as f64,
            1,
        ),
        metric(
            "disk.journal_commit.wall_ms",
            "ms",
            per_span_ms(traced, "journal_commit"),
            1,
        ),
        metric(
            "disk.recovery.wall_ms",
            "ms",
            per_span_ms(traced, "recovery"),
            1,
        ),
        metric(
            "disk.bytes_written_per_shipped",
            "ratio",
            ratio(save_total("disk.bytes_written"), shipped_to_disk),
            n,
        ),
        metric(
            "disk.fsyncs_per_commit",
            "ratio",
            ratio(all_total("disk.fsyncs"), all_total("disk.commits")),
            1,
        ),
        metric("disk.garbage_bytes", "B", first.end.disk_garbage as f64, 1),
        metric(
            "disk.object_count",
            "count",
            first.end.disk_objects as f64,
            1,
        ),
        metric(
            "placement.shard_write.wall_ms",
            "ms",
            per_span_ms(traced, "shard_write"),
            1,
        ),
        metric(
            "placement.quorum_wait.wall_ms",
            "ms",
            per_span_ms(traced, "quorum_wait"),
            1,
        ),
        metric(
            "placement.repair.wall_ms",
            "ms",
            per_span_ms(traced, "repair"),
            1,
        ),
        metric(
            "placement.shard_writes",
            "count",
            rep_total(first, "placement.shard_writes") as f64,
            1,
        ),
        metric("placement.shard_failures", "count", failures, 1),
        metric("placement.shards_rebuilt", "count", rebuilt, 1),
        metric(
            "placement.rebuilt_per_failed",
            "ratio",
            ratio(rebuilt, failures),
            1,
        ),
        metric(
            "workload.browse.wall_ms",
            "ms",
            median(&walls(traced, Op::Visit)),
            walls(traced, Op::Visit).len(),
        ),
        metric(
            "vmm.create.wall_ms",
            "ms",
            median(&walls(traced, Op::Create)),
            walls(traced, Op::Create).len(),
        ),
        metric("vmm.used_memory_mib", "MiB", first.end.used_memory_mib, 1),
        metric("trace.overhead", "ratio", overhead, traced.len()),
    ]
}

/// Why the traced repetitions are not valid: events dropped from a
/// ring, or an exported trace that failed `validate_trace`. Residuals
/// need complete traces, so any of these fails the run.
pub fn trace_faults(traced: &[Rep]) -> Vec<String> {
    let layers = || {
        traced
            .iter()
            .flat_map(|r| &r.rec.samples)
            .filter_map(|s| s.layer.as_ref())
    };
    let dropped: u64 = layers().map(|l| l.dropped).sum();
    let mut faults = Vec::new();
    if dropped > 0 {
        faults.push(format!("trace dropped {dropped} events"));
    }
    faults.extend(
        layers()
            .filter_map(|l| l.trace_error.as_ref())
            .map(|e| format!("invalid trace: {e}")),
    );
    faults
}

/// The modeled and byte columns of one repetition, rendered exactly:
/// every modeled duration, every save's size, every restore's startup
/// phases, the repairs and the end state. Identical for one seed in
/// every repetition, traced or not.
pub fn modeled_columns(rep: &Rep) -> String {
    let saves: Vec<(f64, u64, u64, usize)> = rep
        .saves
        .iter()
        .map(|s| (s.modeled_s, s.uploaded, s.uploaded_to_disk, s.nyms))
        .collect();
    let restores: Vec<[u64; 4]> = rep
        .restores
        .iter()
        .map(|b| {
            [
                b.ephemeral_fetch.0,
                b.boot_vm.0,
                b.start_anonymizer.0,
                b.load_page.0,
            ]
        })
        .collect();
    format!(
        "{saves:?}|{restores:?}|{:?}|{:?}|{:?}",
        rep.visits_modeled_s, rep.repairs, rep.end
    )
}

/// Every traced call's counter deltas, rendered exactly. Identical for
/// one seed in every traced repetition.
pub fn counted_columns(rep: &Rep) -> String {
    let calls: Vec<(Op, &[u64])> = rep
        .rec
        .samples
        .iter()
        .filter_map(|s| Some((s.op, s.layer.as_ref()?.counters.as_slice())))
        .collect();
    format!("{calls:?}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.5), 2.5);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert!((percentile(&v, 0.9) - 3.7).abs() < 1e-12);
        assert_eq!(percentile(&[], 0.9), 0.0);
    }
}
