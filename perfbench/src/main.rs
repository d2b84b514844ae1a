//! The veridic benchmark: named workloads against the public `veridic`
//! API, with known-answer verdict checks.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <chip_campaign|bdd_reach> --seed <n> --seconds <s> \
//!     --trace <0|1>
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` runs the
//! traced variant and reports the per-layer metrics instead. The last
//! line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; the exit code is
//! non-zero on any known-answer mismatch or trace-accounting violation.

mod chip;
mod daemon;
mod gate;
mod layers;
mod measure;
mod reach;
mod timed;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use gate::Gate;
use measure::{median, peak_rss_mb, quantile, Metric};

/// Minimum set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Runs `setup` at least [`SETUP_REPS`] times and until `min_time` was
/// spent (at most 1000 times), so that sub-millisecond set-ups still
/// yield a steady median; returns the last result and every time.
pub fn repeat_setup<T>(min_time: Duration, mut setup: impl FnMut() -> T) -> (T, Vec<f64>) {
    let started = Instant::now();
    let mut times = Vec::new();
    loop {
        let t0 = Instant::now();
        let out = setup();
        times.push(t0.elapsed().as_secs_f64());
        let enough = times.len() >= SETUP_REPS && started.elapsed() >= min_time;
        if enough || times.len() >= 1000 {
            return (out, times);
        }
    }
}

/// Worker threads (or daemon shards) per workload.
const MAX_THREADS: usize = 2;

/// One measured campaign.
pub struct Sample {
    pub wall: f64,
    pub cpu: f64,
    pub first_bug: f64,
    pub prop_ms: Vec<f64>,
    pub decided_ok: u64,
}

pub struct RunResult {
    pub gate: Gate,
    pub metrics: Vec<Metric>,
    /// Informational lines (trace accounting).
    pub info: Vec<String>,
    /// Trace-accounting or clean-up violations: each fails the run.
    pub violations: Vec<String>,
}

pub fn pass_ratio(gate: &Gate) -> Metric {
    let attempted = gate.attempted.max(1);
    Metric::new(
        "pass_ratio",
        (attempted - gate.failed) as f64 / attempted as f64,
        "ratio",
        attempted as usize,
    )
}

/// One informational line per measured campaign.
pub fn sample_lines(samples: &[Sample]) -> Vec<String> {
    samples
        .iter()
        .enumerate()
        .map(|(i, s)| {
            format!(
                "campaign {i}: wall {:.4} s, cpu {:.2} s, first bug {:.4} s, {} properties",
                s.wall,
                s.cpu,
                s.first_bug,
                s.prop_ms.len()
            )
        })
        .collect()
}

/// The end-to-end metrics of a campaign workload from its samples.
pub fn e2e_metrics(setup: &[f64], samples: &[Sample], gate: &Gate) -> Vec<Metric> {
    let n = samples.len();
    let wall: f64 = samples.iter().map(|s| s.wall).sum();
    let ok: u64 = samples.iter().map(|s| s.decided_ok).sum();
    let prop_ms: Vec<f64> = samples
        .iter()
        .flat_map(|s| s.prop_ms.iter().copied())
        .collect();
    let per_campaign = |f: fn(&Sample) -> f64| samples.iter().map(f).collect::<Vec<_>>();
    let first_bug = per_campaign(|s| s.first_bug);
    vec![
        Metric::new("setup_s", median(setup), "s", setup.len()),
        Metric::new(
            "props_per_s",
            if wall > 0.0 { ok as f64 / wall } else { 0.0 },
            "1/s",
            n,
        ),
        Metric::new("prop_p50_ms", quantile(&prop_ms, 0.5), "ms", prop_ms.len()),
        Metric::new("prop_p90_ms", quantile(&prop_ms, 0.9), "ms", prop_ms.len()),
        Metric::new("first_bug_s", median(&first_bug), "s", n),
        pass_ratio(gate),
        Metric::new("cpu_s", median(&per_campaign(|s| s.cpu)), "s", n),
        Metric::new("peak_rss_mb", peak_rss_mb(), "MiB", 1),
    ]
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(20),
        trace: trace.unwrap_or(false),
    })
}

fn json_result(gate: &Gate, correct: bool, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        gate.attempted,
        gate.failed,
        body.join(", ")
    )
}

fn main() -> ExitCode {
    // Daemon workers re-execute this binary with `--worker <dir>`.
    if let Some(code) = veridic::campaign::maybe_run_worker() {
        return ExitCode::from(u8::try_from(code).unwrap_or(2));
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = nproc.min(MAX_THREADS);
    let seconds = Duration::from_secs(args.seconds);
    let result = match args.workload.as_str() {
        "chip_campaign" => chip::run(threads, seconds, args.trace),
        "bdd_reach" => reach::run(args.seed, threads, seconds, args.trace),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };
    let non_finite = result
        .metrics
        .iter()
        .filter(|m| !m.value.is_finite())
        .map(|m| m.name);
    let mut violations = result.violations;
    violations.extend(non_finite.map(|n| format!("metric {n} is not a finite number")));
    let correct = result.gate.failed == 0 && result.gate.attempted > 0 && violations.is_empty();

    println!(
        "perfbench workload={} seed={} seconds={} trace={} threads={threads} nproc={nproc}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for m in &result.metrics {
        println!(
            "  {:<26} {:>16.6} {:<6} (n={})",
            m.name, m.value, m.unit, m.samples
        );
    }
    let fail_ratio = result.gate.failed as f64 / result.gate.attempted.max(1) as f64;
    println!(
        "  known-answer gate: attempted {} failed {} fail_ratio {fail_ratio}",
        result.gate.attempted, result.gate.failed
    );
    for line in &result.info {
        println!("  {line}");
    }
    for line in result.gate.notes.iter().chain(&violations) {
        println!("  FAIL {line}");
    }
    let metrics: Vec<Metric> = result
        .metrics
        .into_iter()
        .filter(|m| m.value.is_finite())
        .collect();
    println!("{}", json_result(&result.gate, correct, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
