//! Per-response accounting shared by the workloads, and the per-layer
//! metrics every workload reports.

use crate::harness::{self, Env};
use crate::stats::{Dist, Kind, Report};
use crate::trace::{Trace, Tracer};
use nestdb::proto::{Op, Response};
use nestdb::server::Client;
use nestdb::storage::{Db, DbOptions};
use std::path::Path;
use std::time::{Duration, Instant};

/// What one phase's responses add up to.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub ok: u64,
    pub failed: u64,
    pub rejected: u64,
    /// Client-measured latency of every eval request, in ms.
    pub eval_ms: Dist,
    /// Roundtrip minus the session's own `Spend.elapsed_us`, in ms.
    pub transport_ms: Dist,
    /// `Spend.elapsed_us` of eval requests, in ms.
    pub session_ms: Dist,
    pub mem_bytes: Dist,
    pub steps: f64,
    pub rows: f64,
    /// CPU seconds the client threads spent (load generation and checks).
    pub client_cpu_s: f64,
}

impl Tally {
    /// Count one response; eval requests also feed the latency and spend
    /// distributions.
    pub fn record(&mut self, resp: &Response, latency: Duration, eval: bool) {
        self.attempted += 1;
        if resp.ok {
            self.ok += 1;
        } else {
            self.failed += 1;
            if resp.error.as_ref().is_some_and(|e| e.kind == "rejected") {
                self.rejected += 1;
            }
        }
        if !eval {
            return;
        }
        let ms = latency.as_secs_f64() * 1e3;
        self.eval_ms.push(ms);
        if let Some(sp) = &resp.spend {
            let own = sp.elapsed_us as f64 / 1e3;
            self.session_ms.push(own);
            self.transport_ms.push(ms - own);
            self.mem_bytes.push(sp.mem_bytes as f64);
            self.steps += sp.steps as f64;
        }
        self.rows += resp
            .relations
            .iter()
            .map(|r| r.rows.len() as f64)
            .sum::<f64>();
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.ok += other.ok;
        self.failed += other.failed;
        self.rejected += other.rejected;
        self.eval_ms.extend(&other.eval_ms);
        self.transport_ms.extend(&other.transport_ms);
        self.session_ms.extend(&other.session_ms);
        self.mem_bytes.extend(&other.mem_bytes);
        self.steps += other.steps;
        self.rows += other.rows;
        self.client_cpu_s += other.client_cpu_s;
    }

    /// Ok responses per second over `window`.
    pub fn throughput(&self, window: Duration) -> f64 {
        self.ok as f64 / window.as_secs_f64()
    }

    /// The end-to-end figures every workload shares. `process_cpu_s` is
    /// the whole process's CPU time over the window; the server's share
    /// is what the client threads did not spend.
    pub fn report_e2e(&self, report: &mut Report, window: Duration, process_cpu_s: f64) {
        report.attempted += self.attempted;
        report.failed += self.failed;
        report.add(
            Kind::EndToEnd,
            "server_cpu_ms_per_request",
            (process_cpu_s - self.client_cpu_s) * 1e3 / self.ok.max(1) as f64,
            "ms",
            self.ok as usize,
        );
        report.add(
            Kind::Extra,
            "throughput_rps",
            self.throughput(window),
            "req/s",
            self.ok as usize,
        );
        report.pct(Kind::Extra, "eval_p50_ms", &self.eval_ms, 0.50, "ms");
        report.pct(Kind::Extra, "eval_p90_ms", &self.eval_ms, 0.90, "ms");
        report.add(
            Kind::Extra,
            "failed_ratio",
            self.failed as f64 / self.attempted.max(1) as f64,
            "ratio",
            self.attempted as usize,
        );
    }

    /// The per-layer figures read off the untraced run's responses.
    pub fn report_free(&self, report: &mut Report) {
        report.median(Kind::Layer, "server.transport_ms", &self.transport_ms, "ms");
        report.add(
            Kind::Layer,
            "server.rejected",
            self.rejected as f64,
            "count",
            self.attempted as usize,
        );
        report.median(Kind::Layer, "session.eval_ms", &self.session_ms, "ms");
        report.add(
            Kind::Layer,
            "governor.steps_per_row",
            self.steps / self.rows.max(1.0),
            "steps",
            self.eval_ms.len(),
        );
        report.median(Kind::Layer, "governor.mem_bytes", &self.mem_bytes, "bytes");
    }
}

/// Plan-cache `(hits, misses)` as the server reports them.
pub fn cache_counters(client: &mut Client) -> Result<(u64, u64), String> {
    let resp = client
        .roundtrip(&harness::op(Op::Stats, ""))
        .map_err(|e| e.to_string())?;
    let stats = resp.stats.ok_or("stats response without stats")?;
    Ok((stats.cache_hits, stats.cache_misses))
}

pub fn report_cache(report: &mut Report, before: (u64, u64), after: (u64, u64)) {
    let hits = after.0 - before.0;
    let total = hits + (after.1 - before.1);
    report.add(
        Kind::Layer,
        "plan.cache_hit_ratio",
        hits as f64 / total.max(1) as f64,
        "ratio",
        total as usize,
    );
}

/// Time `Db::open` on `dir` (the storage layer's share of recovery).
pub fn report_reopen(report: &mut Report, dir: &Path) -> Result<(), String> {
    let mut d = Dist::default();
    for _ in 0..harness::REOPEN_REPEATS {
        let t0 = Instant::now();
        let db = Db::open(
            dir,
            DbOptions {
                sync: harness::SYNC_POLICY,
                ..DbOptions::default()
            },
        )
        .map_err(|e| format!("reopen: {e}"))?;
        d.push(t0.elapsed().as_secs_f64() * 1e3);
        drop(db);
    }
    report.median(Kind::Layer, "storage.reopen_ms", &d, "ms");
    Ok(())
}

/// The per-layer figures read off the traced run's spans.
pub fn report_trace(report: &mut Report, trace: &Trace) {
    let us = 1e3;
    let ms = 1e6;
    for (metric, span, scale, unit) in [
        ("proto.decode_request_us", "proto.decode_request", us, "us"),
        (
            "proto.encode_response_us",
            "proto.encode_response",
            us,
            "us",
        ),
        (
            "proto.decode_response_us",
            "proto.decode_response",
            us,
            "us",
        ),
        ("store.write_wait_us", "store.write_wait", us, "us"),
        ("store.read_wait_us", "store.read_wait", us, "us"),
        ("store.write_hold_us", "store.write_hold", us, "us"),
        ("parse.us", "parse", us, "us"),
        ("analysis.us", "analysis", us, "us"),
        ("plan.compile_us", "plan", us, "us"),
        ("exec.execute_ms", "exec", ms, "ms"),
        ("core.eval_ms", "core", ms, "ms"),
        ("datalog.eval_ms", "datalog", ms, "ms"),
        ("algebra.eval_ms", "algebra", ms, "ms"),
    ] {
        report.median(Kind::Layer, metric, &trace.self_times(span, scale), unit);
    }
    report.median(
        Kind::Layer,
        "proto.response_bytes",
        &trace.counts("proto.response_bytes"),
        "bytes",
    );
    report.median(
        Kind::Layer,
        "datalog.rounds",
        &trace.counts("datalog.rounds"),
        "count",
    );
    report.add(
        Kind::Layer,
        "trace.unattributed_ratio",
        trace.unattributed_ratio(),
        "ratio",
        trace.self_times("request", 1.0).len(),
    );
}

/// Overhead of tracing: traced over untraced throughput, same workload
/// and seed. The traced run skips the sockets, so this can exceed 1.
pub fn report_overhead(report: &mut Report, traced_ok: u64, traced: Duration, untraced_rps: f64) {
    let rps = traced_ok as f64 / traced.as_secs_f64();
    report.add(
        Kind::Layer,
        "trace.overhead_ratio",
        rps / untraced_rps.max(1e-9),
        "ratio",
        traced_ok as usize,
    );
}

/// Write the traced run's spans next to the run's other outputs.
pub fn write_trace(env: &Env, trace: &Trace) {
    let path = env
        .out
        .join(format!("trace-{}-{}.jsonl", env.workload, env.seed));
    if let Err(e) = trace.write(&path) {
        eprintln!("cannot write {}: {e}", path.display());
    }
}

/// A tracer per worker thread, sharing one epoch.
pub fn tracers(n: usize) -> Vec<Tracer> {
    let epoch = Instant::now();
    (0..n).map(|_| Tracer::new(epoch)).collect()
}
