//! The Peacekeeper CPU benchmark model (Figure 4).
//!
//! Peacekeeper is a single-threaded JavaScript benchmark; its score is
//! inversely proportional to how long the work takes. The model charges
//! a fixed number of core-seconds through [`nymix_vmm::CpuHost`]'s one
//! CPU rule, [`CpuHost::batch_secs`], and converts elapsed time to a
//! score, calibrated so the native run scores ≈3000 and a single
//! virtualized nymbox ≈2400 (the "about a 20% overhead" of §5.2).

use nymix_vmm::CpuHost;

/// Native core-seconds of work one Peacekeeper run performs.
pub const PEACEKEEPER_WORK: f64 = 30.0;

/// Score calibration constant: `score = SCALE / elapsed_seconds`.
pub const SCORE_SCALE: f64 = 90_000.0;

/// Converts an elapsed wall-clock duration into a Peacekeeper score.
fn peacekeeper_score(elapsed_seconds: f64) -> f64 {
    assert!(elapsed_seconds > 0.0, "elapsed time must be positive");
    SCORE_SCALE / elapsed_seconds
}

/// Runs `n` simultaneous virtualized Peacekeeper instances on `cpu`
/// and returns their individual scores. With `n == 0`, runs a single
/// *native* instance (the Figure 4 x=0 point).
pub fn run_parallel(cpu: &mut CpuHost, n: usize) -> Vec<f64> {
    let (jobs, virtualized) = if n == 0 { (1, false) } else { (n, true) };
    let elapsed = cpu.batch_secs(PEACEKEEPER_WORK, jobs, virtualized);
    vec![peacekeeper_score(elapsed); jobs]
}

/// Figure 4's "Expected" curve: the single-nym score extrapolated to
/// `n` instances sharing the physical cores perfectly (no HT uplift,
/// no overlap benefit).
pub fn expected_score(single_nym_score: f64, cores: f64, n: usize) -> f64 {
    if n == 0 {
        return single_nym_score;
    }
    single_nym_score * (cores / n as f64).min(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn native_score_calibration() {
        let mut cpu = CpuHost::paper_testbed();
        let native = run_parallel(&mut cpu, 0);
        assert_eq!(native.len(), 1);
        assert!((native[0] - 3000.0).abs() < 1.0, "native {}", native[0]);
    }

    #[test]
    fn single_nym_shows_20_percent_overhead() {
        let mut cpu = CpuHost::paper_testbed();
        let scores = run_parallel(&mut cpu, 1);
        assert_eq!(scores.len(), 1);
        assert!((scores[0] - 2400.0).abs() < 1.0, "virt {}", scores[0]);
        let native = run_parallel(&mut CpuHost::paper_testbed(), 0)[0];
        let overhead = 1.0 - scores[0] / native;
        assert!((overhead - 0.20).abs() < 0.01, "overhead {overhead}");
    }

    #[test]
    fn four_nyms_hold_per_nym_score() {
        let mut cpu = CpuHost::paper_testbed();
        let scores = run_parallel(&mut cpu, 4);
        for s in &scores {
            assert!((s - 2400.0).abs() < 1.0, "score {s}");
        }
    }

    #[test]
    fn eight_nyms_beat_the_naive_expectation() {
        let mut cpu = CpuHost::paper_testbed();
        let actual = run_parallel(&mut cpu, 8);
        let single = 2400.0;
        let expected = expected_score(single, 4.0, 8); // 1200
        assert!((expected - 1200.0).abs() < 1e-9);
        for s in &actual {
            assert!(
                *s > expected,
                "actual {s} should beat expected {expected} (HT overlap)"
            );
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_elapsed_rejected() {
        let _ = peacekeeper_score(0.0);
    }
}
