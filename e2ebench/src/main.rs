//! End-to-end benchmark for nestdb: a real server on loopback, driven by
//! protocol clients, on three seeded workloads. See README.md.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload point_lookups --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`, with the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics (`--trace 1`). The
//! exit code is nonzero when a correctness check fails.

mod analytics;
mod harness;
mod mirror;
mod point;
mod rng;
mod stats;
mod tally;
mod trace;
mod views;

use harness::Env;
use stats::{Kind, Report};
use std::path::PathBuf;

/// Runs must end within 180 s; a run still going here has hung.
const WATCHDOG: std::time::Duration = std::time::Duration::from_secs(170);

const WORKLOADS: [&str; 3] = ["point_lookups", "recursive_analytics", "view_writes"];

fn parse_args() -> Result<Env, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 20.0f64;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value == "1",
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    let out = PathBuf::from(".bench_out");
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    Ok(Env {
        workload,
        seed,
        seconds,
        trace,
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        out,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if let [_, flag, dir] = args.as_slice() {
        if flag == "--reopen" {
            if let Err(e) = harness::reopen_main(std::path::Path::new(dir)) {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
            return;
        }
    }
    let env = match parse_args() {
        Ok(env) => env,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    // a run that hangs is a failed run, never a stuck one
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("error: the run did not finish within {WATCHDOG:?}");
        std::process::exit(3);
    });
    let mut report = Report::new(if env.trace {
        Kind::Layer
    } else {
        Kind::EndToEnd
    });
    report.config("workload", &env.workload);
    report.config("seed", env.seed);
    report.config("seconds", env.seconds);
    report.config("trace", env.trace);
    report.config("nproc", env.nproc);
    report.config("git_rev", harness::git_rev());
    report.config("session_parallelism", harness::PARALLELISM);
    report.config("sync_policy", format!("{:?}", harness::SYNC_POLICY));
    report.config("tenant_capacity_steps", harness::CAPACITY_STEPS);
    report.config("tenant_refill_steps_per_sec", harness::REFILL_STEPS_PER_SEC);
    let outcome = match env.workload.as_str() {
        "point_lookups" => point::run(&env, &mut report),
        "recursive_analytics" => analytics::run(&env, &mut report),
        _ => views::run(&env, &mut report),
    };
    if let Err(e) = outcome {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
    report.add(
        Kind::EndToEnd,
        "peak_rss_mb",
        harness::peak_rss_mb(),
        "MB",
        1,
    );
    report.print();
    if !report.correct() {
        std::process::exit(1);
    }
}
