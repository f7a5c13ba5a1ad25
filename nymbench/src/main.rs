//! `nymbench`: the Nymix nym-lifecycle benchmark.
//!
//! ```text
//! cargo run --release --manifest-path nymbench/Cargo.toml -- \
//!     --workload heartbeat --seed 1 --seconds 60 --trace 0
//! ```
//!
//! Runs one workload (see `workloads.rs` and `README.md`) as repeated,
//! seed-determined repetitions until `--seconds` is used, checks every
//! output against the reference model, checks that the deterministic
//! columns are bit-identical across repetitions (and across runs of the
//! same binary and seed), and prints the metrics: a readable table,
//! then a `fingerprint` line, then one JSON object as the last line.
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the
//! workload untraced and then traced and prints the per-layer split.
//! The exit code is 0 only when every check passed.

mod record;
mod report;
mod workloads;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use report::Metric;
use workloads::{Rep, Workload, WORKLOADS};

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str =
    "usage: nymbench --workload <heartbeat|storage> --seed <n> --seconds <n> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |key: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == key)
            .ok_or_else(|| format!("missing {key}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{key} needs a value"))
    };
    let name = get("--workload")?;
    let workload = WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload {name:?}"))?;
    let num = |key: &str, v: String| v.parse::<u64>().map_err(|e| format!("{key}: {e}"));
    let seed = num("--seed", get("--seed")?)?;
    let seconds = num("--seconds", get("--seconds")?)?;
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds: seconds.max(1),
        trace,
    })
}

/// Runs repetitions until `budget` would be exceeded by one more
/// (judged by the mean so far), but at least `min`. Stops at the first
/// repetition that fails.
fn run(w: &Workload, seed: u64, traced: bool, budget: Duration, min: usize) -> Vec<Rep> {
    let start = Instant::now();
    let mut reps = Vec::new();
    loop {
        let mut rep = Rep::new(traced);
        if let Err(e) = (w.run)(&mut rep, seed) {
            rep.failures.push(e);
        }
        let failed = !rep.failures.is_empty();
        reps.push(rep);
        let spent = start.elapsed();
        let mean = spent / reps.len() as u32;
        if failed || (reps.len() >= min && spent + mean > budget) {
            nymix_obs::set_enabled(false);
            return reps;
        }
    }
}

/// Process high-water resident set size (`VmHWM`), MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// The commit being measured, when the checkout is a git work tree.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|c| c.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".into(),
    }
}

fn cpu_flags() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        format!(
            "{{\"sha\": {}, \"avx2\": {}, \"avx512f\": {}}}",
            std::arch::is_x86_feature_detected!("sha"),
            std::arch::is_x86_feature_detected!("avx2"),
            std::arch::is_x86_feature_detected!("avx512f")
        )
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        "{}".to_string()
    }
}

/// Machine and build identity, printed with every result.
fn fingerprint(args: &Args, reps: (usize, usize)) -> String {
    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"cores\": {cores}, \"cpu_flags\": {}, \
         \"features\": [], \"profile\": \"{profile}\", \"sha256_backend\": \"{}\", \
         \"commit\": \"{}\", \"untraced_reps\": {}, \"traced_reps\": {}}}",
        args.workload.name,
        args.seed,
        cpu_flags(),
        nymix_crypto::sha256_backend().name(),
        commit(),
        reps.0,
        reps.1
    )
}

/// Compares this run's deterministic digests with the last run of the
/// same binary, workload and seed, kept beside the executable; records
/// them when there is none. Returns a description of any drift.
fn cross_run_drift(args: &Args, modeled: &str, counted: Option<&str>) -> Option<String> {
    let exe = std::env::current_exe().ok()?;
    let build = hex(&nymix_crypto::sha256(&std::fs::read(&exe).ok()?)[..8]);
    let dir = exe.parent()?.join("nymbench-det");
    let path = dir.join(format!("{}-{}-{build}.txt", args.workload.name, args.seed));
    let old = std::fs::read_to_string(&path).unwrap_or_default();
    let field = |key: &str| {
        old.lines()
            .find_map(|l| l.strip_prefix(key))
            .map(str::to_string)
    };
    let mut drift = Vec::new();
    let mut counted_now = counted.map(str::to_string);
    if let Some(prev) = field("modeled ") {
        if prev != modeled {
            drift.push("modeled columns differ from the previous run");
        }
    }
    if let Some(prev) = field("counted ") {
        match &counted_now {
            Some(now) if *now != prev => drift.push("counted columns differ from the previous run"),
            Some(_) => {}
            None => counted_now = Some(prev),
        }
    }
    let mut text = format!("modeled {modeled}\n");
    if let Some(c) = counted_now {
        text.push_str(&format!("counted {c}\n"));
    }
    // Best effort: a read-only build directory only skips the check.
    let _ = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, text));
    (!drift.is_empty()).then(|| drift.join("; "))
}

fn digest(s: &str) -> String {
    hex(&nymix_crypto::sha256(s.as_bytes()))
}

fn json_metrics(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("nymbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let budget = Duration::from_secs(args.seconds);
    let w = args.workload;
    // The traced run spends a third of its time untraced, for the
    // determinism cross-check and the tracing overhead.
    let (untraced, traced) = if args.trace {
        let t0 = Instant::now();
        let untraced = run(w, args.seed, false, budget / 3, 1);
        let traced = if untraced.iter().all(|r| r.failures.is_empty()) {
            run(w, args.seed, true, budget.saturating_sub(t0.elapsed()), 1)
        } else {
            Vec::new()
        };
        (untraced, traced)
    } else {
        (run(w, args.seed, false, budget, 2), Vec::new())
    };
    let peak_rss = peak_rss_mib();

    let all: Vec<&Rep> = untraced.iter().chain(&traced).collect();
    let mut problems: Vec<String> = all.iter().flat_map(|r| r.failures.clone()).collect();
    let attempted: usize = all
        .iter()
        .map(|r| r.rec.samples.len())
        .sum::<usize>()
        .max(1);
    let failed = problems.len();

    let modeled = digest(&report::modeled_columns(all[0]));
    if all
        .iter()
        .any(|r| digest(&report::modeled_columns(r)) != modeled)
    {
        problems.push("modeled columns differ between repetitions".into());
    }
    let counted = traced.first().map(|r| digest(&report::counted_columns(r)));
    if traced
        .iter()
        .any(|r| Some(digest(&report::counted_columns(r))) != counted)
    {
        problems.push("counted columns differ between traced repetitions".into());
    }
    if failed == 0 {
        problems.extend(cross_run_drift(&args, &modeled, counted.as_deref()));
    }

    let metrics = if failed > 0 {
        Vec::new()
    } else if args.trace {
        report::per_layer(&untraced, &traced)
    } else {
        report::end_to_end(&untraced, peak_rss)
    };
    problems.extend(report::trace_faults(&traced));

    println!(
        "nymbench {} seed={} trace={}: {} untraced + {} traced repetitions",
        w.name,
        args.seed,
        u8::from(args.trace),
        untraced.len(),
        traced.len()
    );
    for m in &metrics {
        println!(
            "  {:<36} {:>14.6} {:<6} (n={})",
            m.name, m.value, m.unit, m.samples
        );
    }
    println!(
        "  {:<36} {:>14.6} {:<6} (n={attempted})",
        "failed_op_ratio",
        failed as f64 / attempted as f64,
        "ratio"
    );
    println!("  modeled columns sha256 {modeled}");
    if let Some(c) = &counted {
        println!("  counted columns sha256 {c}");
    }
    for p in &problems {
        println!("  FAIL: {p}");
    }
    println!(
        "fingerprint {}",
        fingerprint(&args, (untraced.len(), traced.len()))
    );
    let correct = problems.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        json_metrics(&metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
