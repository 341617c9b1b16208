//! Shared plumbing: the served database, the request helpers, row
//! decoding for the oracles, and process-level measurements.

use crate::stats::{Dist, Kind, Report};
use nestdb::proto::{parse_json, Json, Lang, Mode, Op, Request, Response};
use nestdb::server::{Client, Server, ServerConfig};
use nestdb::storage::SyncPolicy;
use nestdb::Session;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The tenant every benchmark connection speaks for.
pub const TENANT: &str = "bench";

/// Admission budgets, set far above the designed load so no request is
/// rejected; a rejection still counts as a failure.
pub const CAPACITY_STEPS: u64 = 1_000_000_000_000_000;
pub const REFILL_STEPS_PER_SEC: u64 = 1_000_000_000_000;

/// Worker threads of the session's evaluation pool. Concurrency comes
/// from connections; one worker keeps a request's cost on one core.
pub const PARALLELISM: usize = 1;

/// Fsync policy of the served store: every acknowledged mutation is
/// durable before its reply.
pub const SYNC_POLICY: SyncPolicy = SyncPolicy::Always;

/// How many times set-up is repeated; the median is reported.
pub const SETUP_REPEATS: usize = 9;
/// Recovery (reopening the directory) is measured in this many fresh
/// processes, each reopening at least `REOPEN_REPEATS` times and for at
/// least `REOPEN_MIN`.
pub const REOPEN_PROCESSES: usize = 5;
pub const REOPEN_REPEATS: usize = 11;
pub const REOPEN_MIN: Duration = Duration::from_millis(300);

/// One run's command-line settings.
#[derive(Debug, Clone)]
pub struct Env {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub nproc: usize,
    pub out: PathBuf,
}

impl Env {
    /// A fresh (emptied) directory under the run's output directory.
    pub fn fresh_dir(&self, name: &str) -> PathBuf {
        let dir = self
            .out
            .join(format!("{}-{}-{name}", self.workload, self.seed));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// The timed window of one phase: the whole run length untraced; in a
    /// traced run the untraced and traced phases get half each.
    pub fn window(&self) -> Duration {
        let secs = if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        };
        Duration::from_secs_f64(secs)
    }
}

pub fn server_config() -> ServerConfig {
    ServerConfig {
        tenant_capacity_steps: CAPACITY_STEPS,
        tenant_refill_steps_per_sec: REFILL_STEPS_PER_SEC,
    }
}

pub fn session() -> Session {
    Session::builder()
        .parallelism(PARALLELISM)
        .sync_policy(SYNC_POLICY)
        .build()
}

/// An eval request under the benchmark tenant.
pub fn eval(lang: Lang, mode: Mode, planned: bool, text: String) -> Request {
    Request {
        op: Op::Eval,
        lang,
        mode,
        planned,
        tenant: TENANT.to_string(),
        text,
        ..Request::default()
    }
}

pub fn op(op: Op, text: &str) -> Request {
    Request {
        op,
        tenant: TENANT.to_string(),
        text: text.to_string(),
        ..Request::default()
    }
}

pub fn expect_ok(resp: &Response, what: &str) -> Result<(), String> {
    if resp.ok {
        Ok(())
    } else {
        Err(format!("{what}: {:?}", resp.error))
    }
}

/// Build a durable database at `dir` from schema clauses and facts. The
/// bulk load runs under `SyncPolicy::Manual` and ends in a checkpoint, so
/// the served store starts from one snapshot and an empty log.
pub fn load_durable(dir: &Path, schema: &[&str], facts: &[String]) -> Result<(), String> {
    let loader = Session::builder()
        .parallelism(PARALLELISM)
        .sync_policy(SyncPolicy::Manual)
        .build();
    expect_ok(
        &loader.run(&op(Op::Open, &dir.display().to_string())),
        "open",
    )?;
    for clause in schema {
        expect_ok(&loader.run(&op(Op::Insert, clause)), "declare")?;
    }
    for chunk in facts.chunks(4096) {
        expect_ok(&loader.run(&op(Op::Update, &chunk.join("\n"))), "load")?;
    }
    expect_ok(&loader.run(&op(Op::Save, "")), "checkpoint")?;
    detach(&loader);
    Ok(())
}

/// Close the durable database behind `session` (its files stay).
pub fn detach(session: &Session) {
    let store = session.store();
    let db = store
        .write()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .detach();
    drop(db);
}

/// A server over a fresh session, which opens `dir` over the wire.
pub struct Served {
    pub session: Session,
    pub server: Server,
}

impl Served {
    pub fn open(dir: &Path) -> Result<Served, String> {
        let session = session();
        let server = nestdb::service::serve("127.0.0.1:0", session.clone(), server_config())
            .map_err(|e| format!("bind: {e}"))?;
        let served = Served { session, server };
        let mut c = served.connect()?;
        let resp = c
            .roundtrip(&op(Op::Open, &dir.display().to_string()))
            .map_err(|e| e.to_string())?;
        expect_ok(&resp, "open over the wire")?;
        Ok(served)
    }

    pub fn connect(&self) -> Result<Client, String> {
        Client::connect(self.server.local_addr()).map_err(|e| format!("connect: {e}"))
    }

    /// Stop accepting, and close the durable database.
    pub fn close(self) {
        self.server.shutdown();
        detach(&self.session);
    }
}

/// Set up a served store at `dir` `SETUP_REPEATS` times, each from an
/// empty directory, keeping the last and reporting the median time as
/// `setup_s`.
pub fn repeat_setup<T>(
    report: &mut Report,
    dir: &Path,
    mut setup: impl FnMut() -> Result<(Served, T), String>,
) -> Result<(Served, T), String> {
    let mut times = Dist::default();
    let mut last: Option<(Served, T)> = None;
    for _ in 0..SETUP_REPEATS {
        if let Some((served, _)) = last.take() {
            served.close();
            let _ = std::fs::remove_dir_all(dir);
        }
        let t0 = Instant::now();
        last = Some(setup()?);
        times.push(t0.elapsed().as_secs_f64());
    }
    report.median(Kind::EndToEnd, "setup_s", &times, "s");
    Ok(last.expect("SETUP_REPEATS is positive"))
}

/// Reopen `dir` in a fresh session: the wall time in seconds, and the
/// session holding the reopened store.
pub fn open_once(dir: &Path) -> Result<(f64, Session), String> {
    let s = session();
    let t0 = Instant::now();
    let resp = s.run(&op(Op::Open, &dir.display().to_string()));
    let secs = t0.elapsed().as_secs_f64();
    expect_ok(&resp, "reopen")?;
    if resp
        .message
        .as_deref()
        .is_some_and(|m| m.contains("re-materialized"))
    {
        return Err(format!("reopen lost the views: {:?}", resp.message));
    }
    Ok((secs, s))
}

/// Recovery time of `dir`, measured the way a restart meets it: in fresh
/// processes (this program, run with `--reopen <dir>`), each waited for.
/// A process's speed varies with its memory layout, so the median over
/// `REOPEN_PROCESSES` of them is reported, with the number of reopens.
pub fn recovery_s(dir: &Path) -> Result<(f64, usize), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut medians = Dist::default();
    let mut reopens = 0;
    for _ in 0..REOPEN_PROCESSES {
        let out = std::process::Command::new(&exe)
            .arg("--reopen")
            .arg(dir)
            .output()
            .map_err(|e| format!("recovery process: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        if !out.status.success() {
            return Err(format!(
                "recovery process failed: {}{}",
                stdout.trim(),
                String::from_utf8_lossy(&out.stderr).trim()
            ));
        }
        let fields: Vec<&str> = stdout.split_whitespace().collect();
        let ["reopen", median, n] = fields.as_slice() else {
            return Err(format!("recovery output: {stdout:?}"));
        };
        medians.push(
            median
                .parse()
                .map_err(|e| format!("recovery output: {e}"))?,
        );
        reopens += n
            .parse::<usize>()
            .map_err(|e| format!("recovery output: {e}"))?;
    }
    Ok((medians.median(), reopens))
}

/// The `--reopen <dir>` process: reopen `dir` at least `REOPEN_REPEATS`
/// times and for at least `REOPEN_MIN`, then print the median.
pub fn reopen_main(dir: &Path) -> Result<(), String> {
    let mut times = Dist::default();
    let t0 = Instant::now();
    while times.len() < REOPEN_REPEATS || t0.elapsed() < REOPEN_MIN {
        let (secs, s) = open_once(dir)?;
        times.push(secs);
        detach(&s);
    }
    println!("reopen {} {}", times.median(), times.len());
    Ok(())
}

/// Bytes of every file in `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// CPU time (user and system) of this process, in seconds. Time the
/// host takes away from the process (steal) is not in it.
pub fn process_cpu_s() -> f64 {
    cpu_s("/proc/self/stat")
}

/// CPU time (user and system) of the calling thread, in seconds.
pub fn thread_cpu_s() -> f64 {
    cpu_s("/proc/thread-self/stat")
}

fn cpu_s(path: &str) -> f64 {
    let stat = std::fs::read_to_string(path).unwrap_or_default();
    // after the parenthesised command name, utime and stime are the 12th
    // and 13th fields, in clock ticks of 1/100 s
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    rest.split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|t| t.parse::<f64>().ok())
        .sum::<f64>()
        / 100.0
}

/// The process's peak resident set (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The source revision, when the benchmark runs inside a git checkout.
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".to_string())
}

/// One JSON cell as comparable text: atoms by name, tuples in order,
/// sets sorted.
fn cell(j: &Json) -> String {
    match j {
        Json::Str(s) => s.clone(),
        Json::Arr(items) => {
            let mut parts: Vec<String> = items.iter().map(cell).collect();
            parts.sort();
            format!("{{{}}}", parts.join(","))
        }
        other => format!("{other:?}"),
    }
}

/// The rows of relation `name` in `resp`, each as its cells' text.
pub fn rows(resp: &Response, name: &str) -> Result<Vec<Vec<String>>, String> {
    let rel = resp
        .relations
        .iter()
        .find(|r| r.name == name)
        .ok_or_else(|| format!("response has no relation {name}"))?;
    rows_of(&rel.rows_json)
}

pub fn rows_of(rows_json: &str) -> Result<Vec<Vec<String>>, String> {
    match parse_json(rows_json).map_err(|e| e.to_string())? {
        Json::Arr(rows) => rows
            .iter()
            .map(|r| match r {
                Json::Arr(cells) => Ok(cells.iter().map(cell).collect()),
                other => Err(format!("row is not an array: {other:?}")),
            })
            .collect(),
        other => Err(format!("rows are not an array: {other:?}")),
    }
}

/// Sorted, deduplicated pairs.
pub fn pair_set(rows: Vec<Vec<String>>) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = rows
        .into_iter()
        .filter(|r| r.len() == 2)
        .map(|mut r| {
            let b = r.pop().expect("two cells");
            let a = r.pop().expect("two cells");
            (a, b)
        })
        .collect();
    out.sort();
    out.dedup();
    out
}

/// A 64-bit FNV-1a digest, to compare a large response with the first
/// verified copy of it without parsing it again.
pub fn digest(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}
