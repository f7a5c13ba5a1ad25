//! Offline drop-in shim for the `criterion` benchmark harness.
//!
//! The build container has no crates.io access, so this crate provides the
//! subset of the criterion API the workspace benches use — `Criterion`,
//! `benchmark_group`, `bench_function`, `Throughput`, the `criterion_group!`
//! / `criterion_main!` macros and `black_box` — backed by a real measuring
//! loop (warm-up, auto-scaled iteration batches, median-of-samples).
//! The first benchmark a process measures first runs untimed for at
//! least a second, so its row is not taken on a cold CPU.
//!
//! Output is one line per benchmark:
//!
//! ```text
//! primitives/aead_seal_64k  time:   61.21 us/iter   thrpt: 1021.2 MiB/s
//! ```
//!
//! Set `NYMIX_BENCH_JSON=/path/out.jsonl` to also append one JSON record
//! per benchmark (used to produce `BENCH_primitives.jsonl`).
//! Set `NYMIX_BENCH_SMOKE=1` to run each benchmark exactly once with no
//! calibration — the CI smoke job uses this to keep bench bodies
//! compiling and running without paying measurement time.

#![forbid(unsafe_code)]

pub use std::hint::black_box;

use std::io::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// How long the first measured benchmark of a process runs untimed
/// before its calibration. That benchmark is the only one measured
/// straight after process start (cold caches, lazy set-up, a core that
/// may still be clocking up), and its row read about 40% high in 3 of
/// 12 `primitives` runs on a 2-vCPU host; every later benchmark starts
/// after at least a second of earlier ones.
const FIRST_WARM_UP: Duration = Duration::from_secs(1);

/// Set once this process has run its `FIRST_WARM_UP`.
static WARMED_UP: AtomicBool = AtomicBool::new(false);

/// Throughput annotation for a benchmark group.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Bytes processed per iteration.
    Bytes(u64),
    /// Abstract elements processed per iteration.
    Elements(u64),
}

/// Top-level benchmark driver (shim).
pub struct Criterion {
    sample_count: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Self { sample_count: 15 }
    }
}

impl Criterion {
    /// Starts a named group of benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            _criterion: self,
            name: name.to_string(),
            throughput: None,
            sample_count: 15,
        }
    }

    /// Runs a standalone benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, mut f: F) -> &mut Self {
        run_bench(name, None, self.sample_count, &mut f);
        self
    }
}

/// A named group of benchmarks sharing throughput/sampling settings.
pub struct BenchmarkGroup<'a> {
    _criterion: &'a mut Criterion,
    name: String,
    throughput: Option<Throughput>,
    sample_count: usize,
}

impl BenchmarkGroup<'_> {
    /// Sets the per-iteration throughput used to report MiB/s or elem/s.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Sets how many timed samples to take per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_count = n.max(3);
        self
    }

    /// Runs one benchmark within the group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, mut f: F) -> &mut Self {
        let full = format!("{}/{}", self.name, name);
        run_bench(&full, self.throughput, self.sample_count, &mut f);
        self
    }

    /// Ends the group (no-op; present for API compatibility).
    pub fn finish(&mut self) {}
}

/// Passed to the closure given to `bench_function`; `iter` does the timing.
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Times `iters` back-to-back invocations of `routine`.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(routine());
        }
        self.elapsed = start.elapsed();
    }
}

fn run_once<F: FnMut(&mut Bencher)>(f: &mut F, iters: u64) -> Duration {
    let mut b = Bencher {
        iters,
        elapsed: Duration::ZERO,
    };
    f(&mut b);
    b.elapsed
}

fn run_bench<F: FnMut(&mut Bencher)>(
    name: &str,
    throughput: Option<Throughput>,
    samples: usize,
    f: &mut F,
) {
    // Smoke mode (CI): prove every bench body runs, with one iteration
    // and no calibration, so the job cost is compile + epsilon.
    if std::env::var_os("NYMIX_BENCH_SMOKE").is_some() {
        let t = run_once(f, 1);
        println!(
            "{name:<40} time: {:>12}/iter   (smoke: 1 iteration)",
            fmt_ns(t.as_nanos() as f64)
        );
        return;
    }
    if !WARMED_UP.swap(true, Ordering::Relaxed) {
        let start = Instant::now();
        while start.elapsed() < FIRST_WARM_UP {
            run_once(f, 1);
        }
    }
    // Warm up and discover an iteration count that runs ~10 ms per sample.
    let mut iters = 1u64;
    loop {
        let t = run_once(f, iters);
        if t >= Duration::from_millis(10) || iters >= 1 << 30 {
            break;
        }
        let scale = if t.is_zero() {
            16
        } else {
            (Duration::from_millis(12).as_nanos() / t.as_nanos().max(1)).clamp(2, 16) as u64
        };
        iters = iters.saturating_mul(scale);
    }
    let mut per_iter_ns: Vec<f64> = (0..samples.max(3))
        .map(|_| run_once(f, iters).as_nanos() as f64 / iters as f64)
        .collect();
    per_iter_ns.sort_by(|a, b| a.total_cmp(b));
    let median = per_iter_ns[per_iter_ns.len() / 2];

    let thrpt = match throughput {
        Some(Throughput::Bytes(bytes)) => {
            let mib_s = bytes as f64 / (1024.0 * 1024.0) / (median * 1e-9);
            format!("   thrpt: {mib_s:9.1} MiB/s")
        }
        Some(Throughput::Elements(n)) => {
            let elem_s = n as f64 / (median * 1e-9);
            format!("   thrpt: {elem_s:9.0} elem/s")
        }
        None => String::new(),
    };
    println!("{name:<40} time: {:>12}/iter{thrpt}", fmt_ns(median));

    if let Ok(path) = std::env::var("NYMIX_BENCH_JSON") {
        if let Ok(mut file) = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
        {
            let bytes = match throughput {
                Some(Throughput::Bytes(b)) => b,
                _ => 0,
            };
            let _ = writeln!(
                file,
                "{{\"bench\": \"{name}\", \"ns_per_iter\": {median:.1}, \"bytes_per_iter\": {bytes}}}"
            );
        }
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.2} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2} us", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

/// Bundles benchmark functions into a runnable group, mirroring criterion.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name() {
            let mut c = $crate::Criterion::default();
            $( $target(&mut c); )+
        }
    };
}

/// Emits `main` running the given groups, mirroring criterion.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}
