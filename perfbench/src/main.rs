//! spfactor's benchmark: three workloads, nine end-to-end metrics
//! measured with tracing off, and a traced run that times each layer
//! from the benchmark's own code. See `README.md` next to this crate
//! for why each workload exists and which layer metric moves which
//! end-to-end metric.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload plan-lap200 --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is the result:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
//! `--smoke` shrinks every workload (LAP30, 3 tenants, a few requests)
//! while running the same code paths and printing the same schema.

mod layers;
mod plan;
mod rng;
mod serve;
mod spans;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use spfactor::trace::alloc::TrackingAllocator;

use crate::spans::Tracer;

// Heap high-water marks (`peak_heap_mb`, `<layer>.heap_*_mb`).
#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator::new();

/// End-to-end metrics, reported by every workload with tracing off.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("plan_s", "s"),
    ("peak_heap_mb", "MB"),
    ("traffic_elems", "elems"),
    ("imbalance", "ratio"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("latency_mean_ms", "ms"),
    ("throughput_rps", "1/s"),
];

/// Per-layer metrics, reported by every workload's traced run.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("order.ms", "ms"),
    ("symbolic.ms", "ms"),
    ("symbolic.flops", "count"),
    ("symbolic.lnnz", "count"),
    ("partition.clusters.ms", "ms"),
    ("partition.units.ms", "ms"),
    ("partition.units", "count"),
    ("deps.ms", "ms"),
    ("deps.edges", "count"),
    ("partition_deps.ns_per_lnnz", "ns"),
    ("sched.ms", "ms"),
    ("simulate.ms", "ms"),
    ("order.heap_delta_mb", "MB"),
    ("order.heap_live_mb", "MB"),
    ("symbolic.heap_delta_mb", "MB"),
    ("symbolic.heap_live_mb", "MB"),
    ("partition.heap_delta_mb", "MB"),
    ("partition.heap_live_mb", "MB"),
    ("deps.heap_delta_mb", "MB"),
    ("deps.heap_live_mb", "MB"),
    ("sched.heap_delta_mb", "MB"),
    ("sched.heap_live_mb", "MB"),
    ("simulate.heap_delta_mb", "MB"),
    ("simulate.heap_live_mb", "MB"),
    ("build.ms", "ms"),
    ("kernel.ms", "ms"),
    ("cache.hit_rate", "ratio"),
    ("cache.evictions", "count"),
    ("serve.cold_builds", "count"),
    ("latency.hit_p50_ms", "ms"),
    ("latency.miss_p50_ms", "ms"),
    ("queue.depth_max", "count"),
    ("loadgen.late_max_ms", "ms"),
    ("mp.exec.ms", "ms"),
    ("mp.exec_faulted.ms", "ms"),
    ("mp.msgs", "count"),
    ("mp.bytes", "count"),
    ("mp.dropped", "count"),
    ("mp.retries", "count"),
    ("mp.queries", "count"),
    ("serve.degraded", "count"),
    ("serve.failover_steps", "count"),
    ("trace.overhead_pct", "%"),
];

/// Set-ups per run, at least this many and for at least this long;
/// `setup_s` is the median of their times.
const SETUP_REPS: usize = 5;
const SETUP_BUDGET: Duration = Duration::from_secs(1);

/// Runs `setup` [`SETUP_REPS`] times and for [`SETUP_BUDGET`] (once in
/// the traced run, which reports no `setup_s`), dropping each result
/// before the next set-up starts. Returns the last result and the
/// median set-up time in seconds.
pub fn repeat_setup<T>(
    args: &Args,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let started = Instant::now();
    let mut times = Vec::new();
    let mut last = None;
    while last.is_none()
        || (args.tracer.is_none() && (times.len() < SETUP_REPS || started.elapsed() < SETUP_BUDGET))
    {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup()?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((last.expect("one set-up ran"), stats::median(&times)))
}

/// What one invocation runs.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    /// `Some` for the traced run.
    pub tracer: Option<Tracer>,
    pub smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut smoke = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds must be in (0, 3600], got {s}"));
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                })
            }
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        tracer: trace.ok_or("missing --trace")?.then(Tracer::new),
        smoke,
    })
}

const WORKLOADS: [&str; 3] = ["plan-lap200", "serve-zipf", "serve-mp-faults"];

/// Host and source stamp printed with every result, so runs from
/// different machines or sources are never compared silently.
fn host_stamp() -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mem_total_mb = std::fs::read_to_string("/proc/meminfo")
        .ok()
        .and_then(|m| {
            let line = m.lines().find(|l| l.starts_with("MemTotal:"))?.to_string();
            line.split_whitespace().nth(1)?.parse::<u64>().ok()
        })
        .map_or(0, |kb| kb / 1024);
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    format!(
        "\"host\": {{\"available_parallelism\": {cores}, \"mem_total_mb\": {mem_total_mb}, \
         \"commit\": \"{commit}\", \"source_digest\": \"{:016x}\"}}",
        source_digest()
    )
}

/// FNV-1a over the library sources and lock file: identifies the code
/// measured when the checkout carries no git metadata.
fn source_digest() -> u64 {
    fn walk(dir: &std::path::Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else if matches!(
                path.extension().and_then(|e| e.to_str()),
                Some("rs" | "toml")
            ) {
                files.push(path);
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.lock"), PathBuf::from("Cargo.toml")];
    walk(std::path::Path::new("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        for b in f
            .to_string_lossy()
            .bytes()
            .chain(std::fs::read(&f).unwrap_or_default())
        {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Bytes per reported megabyte.
pub const MB: f64 = 1024.0 * 1024.0;

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let host = host_stamp();
    eprintln!(
        "perfbench: workload {} seed {} seconds {:.1} trace {} smoke {}",
        args.workload,
        args.seed,
        args.seconds.as_secs_f64(),
        args.tracer.is_some() as u8,
        args.smoke
    );
    let result = match args.workload.as_str() {
        "plan-lap200" => plan::run(&args),
        "serve-zipf" => serve::run_zipf(&args),
        "serve-mp-faults" => serve::run_mp_faults(&args),
        _ => unreachable!("workload validated by parse_args"),
    };
    let out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {} set-up failed: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    let schema: Vec<(&str, &str)> = match &args.tracer {
        Some(tracer) => {
            let path = PathBuf::from(".bench_out")
                .join(format!("spans-{}-seed{}.json", args.workload, args.seed));
            let header = format!(
                "\"workload\": \"{}\", \"seed\": {}, {host}",
                args.workload, args.seed
            );
            match tracer.write(&path, &header) {
                Ok(()) => eprintln!(
                    "perfbench: {} spans written to {}",
                    tracer.len(),
                    path.display()
                ),
                Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
            }
            PER_LAYER.to_vec()
        }
        None => {
            for (name, _) in END_TO_END {
                assert!(
                    out.get(name).is_some(),
                    "end-to-end metric {name} not measured"
                );
            }
            END_TO_END.to_vec()
        }
    };
    println!("{{{host}}}");
    println!("{}", out.to_json(&schema));
    ExitCode::SUCCESS
}
