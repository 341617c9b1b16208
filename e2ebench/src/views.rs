//! `view_writes`: durable writes beside reads. An open-loop writer sends
//! edge updates at a fixed rate into a store opened under
//! `SyncPolicy::Always` with two materialized views, and checkpoints
//! every `SAVE_EVERY` updates; a reader subscribed to `tc` collects the
//! view's pushes and answers each with a few lookups on `G`. Storage,
//! view maintenance, push fan-out and the store lock dominate.

use crate::harness::{self, Env, Served};
use crate::mirror::Mirror;
use crate::rng::{Deck, Rng};
use crate::stats::{Dist, Kind, Report};
use crate::tally::{self, Tally};
use crate::trace::Trace;
use nestdb::proto::{DeltaOut, Lang, Mode, Op, Request, Response};
use nestdb::server::admission::TokenBuckets;
use nestdb::server::Client;
use nestdb::Session;
use std::collections::BTreeSet;
use std::path::Path;
use std::sync::mpsc;
use std::time::{Duration, Instant};

const CHAINS: usize = 40;
const CHAIN_LEN: usize = 20;
/// Offered update rate: about a seventh of the update capacity measured
/// on a 2-core host (about 330 updates/s), and 1000 updates in a 20 s
/// run, enough for a p99. Higher rates make the read median bimodal;
/// see README.md.
pub const UPDATES_PER_SEC: f64 = 50.0;
/// A checkpoint (`op: save`) after every this many updates.
const SAVE_EVERY: usize = 300;
/// Every `BATCH_EVERY`-th update is a batch of `BATCH_CLAUSES` clauses,
/// big enough that maintenance costs more than recomputing the views.
const BATCH_EVERY: usize = 10;
const BATCH_CLAUSES: usize = 48;
/// How long the traced reader waits for the next push.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(20);
/// Lookups the reader sends for every push it receives.
const READS_PER_PUSH: usize = 4;

const TC: &str = "rel tc(U, U).\ntc(x, y) :- G(x, y).\ntc(x, y) :- tc(x, z), G(z, y).";
const HOP: &str = "rel hop(U, U).\nhop(x, z) :- G(x, y), G(y, z).";

type Pairs = BTreeSet<(String, String)>;

/// The chains, as labelled edges; an update flips edges in and out.
struct Chains {
    edges: Vec<(String, String)>,
}

impl Chains {
    fn generate(seed: u64) -> Chains {
        let mut rng = Rng::new(seed, 3);
        let mut labels: Vec<usize> = (0..CHAINS * CHAIN_LEN).collect();
        rng.shuffle(&mut labels);
        let mut edges = Vec::new();
        for c in 0..CHAINS {
            for k in 0..CHAIN_LEN - 1 {
                edges.push((
                    format!("w{}", labels[c * CHAIN_LEN + k]),
                    format!("w{}", labels[c * CHAIN_LEN + k + 1]),
                ));
            }
        }
        Chains { edges }
    }

    fn facts(&self, present: &[bool]) -> Vec<String> {
        self.edges
            .iter()
            .zip(present)
            .filter(|(_, p)| **p)
            .map(|((a, b), _)| format!("G('{a}', '{b}')."))
            .collect()
    }

    fn live(&self, present: &[bool]) -> Vec<(String, String)> {
        self.edges
            .iter()
            .zip(present)
            .filter(|(_, p)| **p)
            .map(|(e, _)| e.clone())
            .collect()
    }

    /// The original successor of `node`, if it has one.
    fn succ(&self, node: usize) -> Option<&(String, String)> {
        self.edges.get(node)
    }
}

fn closure(edges: &[(String, String)]) -> Pairs {
    let mut out = Pairs::new();
    for (a, b) in edges {
        out.insert((a.clone(), b.clone()));
    }
    loop {
        let mut next = out.clone();
        for (a, b) in &out {
            for (c, d) in edges {
                if b == c {
                    next.insert((a.clone(), d.clone()));
                }
            }
        }
        if next.len() == out.len() {
            return out;
        }
        out = next;
    }
}

fn two_hop(edges: &[(String, String)]) -> Pairs {
    let mut out = Pairs::new();
    for (a, b) in edges {
        for (c, d) in edges {
            if b == c {
                out.insert((a.clone(), d.clone()));
            }
        }
    }
    out
}

/// The writer's seeded update stream and the model of what is live.
struct Writer {
    rng: Rng,
    present: Vec<bool>,
    sent: usize,
}

impl Writer {
    fn new(seed: u64, n: usize) -> Writer {
        Writer {
            rng: Rng::new(seed, 300),
            present: vec![true; n],
            sent: 0,
        }
    }

    fn flip(&mut self, chains: &Chains, i: usize, out: &mut Vec<String>) {
        let (a, b) = &chains.edges[i];
        out.push(if self.present[i] {
            format!("delete G('{a}', '{b}').")
        } else {
            format!("G('{a}', '{b}').")
        });
        self.present[i] = !self.present[i];
    }

    /// The next update's clauses. Every update changes `tc`: each pair
    /// of a chain has one path, so flipping an edge flips its own pair.
    fn next(&mut self, chains: &Chains) -> String {
        let n = self.present.len();
        let mut clauses = Vec::new();
        self.sent += 1;
        if self.sent.is_multiple_of(BATCH_EVERY) {
            let mut picked = BTreeSet::new();
            while picked.len() < BATCH_CLAUSES {
                picked.insert(self.rng.below(n));
            }
            for i in picked {
                self.flip(chains, i, &mut clauses);
            }
        } else {
            let absent: Vec<usize> = (0..n).filter(|&i| !self.present[i]).collect();
            let i = if !absent.is_empty() && self.rng.unit() < 0.5 {
                absent[self.rng.below(absent.len())]
            } else {
                loop {
                    let i = self.rng.below(n);
                    if self.present[i] {
                        break i;
                    }
                }
            };
            self.flip(chains, i, &mut clauses);
        }
        clauses.join("\n")
    }
}

/// The reader's seeded stream: lookups of one node's successor in `G`.
struct Reader {
    rng: Rng,
    kinds: Deck<fn(usize) -> Read>,
}

#[derive(Debug, Clone, Copy)]
enum Read {
    Planned(usize),
    Checked(usize),
    Select(usize),
    Datalog(usize),
}

impl Reader {
    fn new(seed: u64) -> Reader {
        Reader {
            rng: Rng::new(seed, 400),
            kinds: Deck::new(
                Rng::new(seed, 450),
                &[
                    (Read::Planned as fn(usize) -> Read, 16),
                    (Read::Checked, 2),
                    (Read::Select, 1),
                    (Read::Datalog, 1),
                ],
            ),
        }
    }

    fn next(&mut self, nodes: usize) -> Read {
        let k = self.rng.below(nodes);
        (self.kinds.draw())(k)
    }
}

fn read_request(chains: &Chains, r: Read) -> Request {
    let node = |k: usize| chains.edges[k].0.clone();
    match r {
        Read::Planned(k) => harness::eval(
            Lang::Calc,
            Mode::Safe,
            true,
            format!("{{[y:U] | G('{}', y)}}", node(k)),
        ),
        Read::Checked(k) => harness::eval(
            Lang::Calc,
            Mode::Checked,
            false,
            format!("{{[y:U] | G('{}', y)}}", node(k)),
        ),
        Read::Select(k) => harness::eval(
            Lang::Algebra,
            Mode::Safe,
            false,
            format!("select[eqc(1, '{}')](G)", node(k)),
        ),
        Read::Datalog(k) => harness::eval(
            Lang::Datalog,
            Mode::Safe,
            false,
            format!("rel s(U).\ns(y) :- G('{}', y).", node(k)),
        ),
    }
}

/// A read races the writer, so its answer is either empty or the node's
/// one original successor.
fn check_read(chains: &Chains, r: Read, resp: &Response) -> Result<(), String> {
    harness::expect_ok(resp, "read")?;
    let (k, rel, pair) = match r {
        Read::Planned(k) | Read::Checked(k) => (k, "result", false),
        Read::Select(k) => (k, "result", true),
        Read::Datalog(k) => (k, "s", false),
    };
    let (a, b) = chains.succ(k).ok_or("node out of range")?;
    let want = if pair {
        vec![a.clone(), b.clone()]
    } else {
        vec![b.clone()]
    };
    let rows = harness::rows(resp, rel)?;
    if rows.len() > 1 || rows.first().is_some_and(|row| *row != want) {
        return Err(format!("read of {a}: {rows:?}"));
    }
    Ok(())
}

/// Apply one pushed delta to the subscriber's copy of `tc`.
fn apply_push(tc: &mut Pairs, d: &DeltaOut) -> Result<usize, String> {
    let mut changed = 0;
    for rel in &d.removed {
        for p in harness::pair_set(harness::rows_of(&rel.rows_json)?) {
            tc.remove(&p);
            changed += 1;
        }
    }
    for rel in &d.added {
        for p in harness::pair_set(harness::rows_of(&rel.rows_json)?) {
            tc.insert(p);
            changed += 1;
        }
    }
    Ok(changed)
}

fn delta_rows(resp: &Response) -> usize {
    resp.deltas
        .iter()
        .flat_map(|d| d.added.iter().chain(&d.removed))
        .map(|r| r.rows.len())
        .sum()
}

/// Set up the durable store with both views materialized and
/// checkpointed, serving it; returns the server and `tc` as materialized.
fn setup(dir: &Path, chains: &Chains) -> Result<(Served, Pairs), String> {
    harness::load_durable(
        dir,
        &["schema G(U, U)."],
        &chains.facts(&vec![true; chains.edges.len()]),
    )?;
    let served = Served::open(dir)?;
    let mut c = served.connect()?;
    let tc = materialize(|req| c.roundtrip(req).map_err(|e| e.to_string()))?;
    Ok((served, tc))
}

/// Materialize both views, then checkpoint so a restart restores them
/// (views reach disk only through `op: save`).
fn materialize(
    mut send: impl FnMut(&Request) -> Result<Response, String>,
) -> Result<Pairs, String> {
    let mut tc = Pairs::new();
    for (view, text) in [("tc", TC), ("hop", HOP)] {
        let mut req = harness::op(Op::Materialize, text);
        req.view = view.to_string();
        let resp = send(&req)?;
        harness::expect_ok(&resp, "materialize")?;
        if view == "tc" {
            tc = harness::pair_set(harness::rows(&resp, "tc")?)
                .into_iter()
                .collect();
        }
    }
    harness::expect_ok(&send(&harness::op(Op::Save, ""))?, "checkpoint")?;
    Ok(tc)
}

/// What the writer saw.
#[derive(Default)]
struct WriterOut {
    tally: Tally,
    update_ms: Dist,
    late_ms: Dist,
    session_update_ms: Dist,
    session_save_ms: Dist,
    changed_rows: usize,
    updates: usize,
    errors: Vec<String>,
}

/// What the reader saw.
#[derive(Default)]
struct ReaderOut {
    tally: Tally,
    push_lag_ms: Dist,
    pushes: usize,
    tc: Pairs,
    errors: Vec<String>,
}

fn updates_in(window: Duration) -> usize {
    (window.as_secs_f64() * UPDATES_PER_SEC).round() as usize
}

fn due(start: Instant, k: usize) -> Instant {
    start + Duration::from_secs_f64(k as f64 / UPDATES_PER_SEC)
}

/// Open-loop writer: update `k` is due at `start + k / rate`, and its
/// latency is measured from then.
fn write_loop(
    chains: &Chains,
    writer: &mut Writer,
    start: Instant,
    n: usize,
    mut send: impl FnMut(&Request) -> Result<Response, String>,
) -> WriterOut {
    let mut out = WriterOut::default();
    for k in 0..n {
        let due = due(start, k);
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        out.late_ms
            .push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
        let req = harness::op(Op::Update, &writer.next(chains));
        let resp = match send(&req) {
            Ok(r) => r,
            Err(e) => {
                out.errors.push(e);
                break;
            }
        };
        out.tally.record(&resp, Duration::ZERO, false);
        out.update_ms.push(due.elapsed().as_secs_f64() * 1e3);
        if let Some(sp) = &resp.spend {
            out.session_update_ms.push(sp.elapsed_us as f64 / 1e3);
        }
        if let Err(e) = harness::expect_ok(&resp, "update") {
            out.errors.push(e);
        }
        out.changed_rows += delta_rows(&resp);
        out.updates += 1;
        if (k + 1) % SAVE_EVERY == 0 {
            match send(&harness::op(Op::Save, "")) {
                Ok(resp) => {
                    out.tally.record(&resp, Duration::ZERO, false);
                    if let Some(sp) = &resp.spend {
                        out.session_save_ms.push(sp.elapsed_us as f64 / 1e3);
                    }
                    if let Err(e) = harness::expect_ok(&resp, "save") {
                        out.errors.push(e);
                    }
                }
                Err(e) => out.errors.push(e),
            }
        }
    }
    out
}

pub fn run(env: &Env, report: &mut Report) -> Result<(), String> {
    let chains = Chains::generate(env.seed);
    let window = env.window();
    let n = updates_in(window);
    report.config("offered_updates_per_sec", UPDATES_PER_SEC);
    report.config("updates", n);
    report.config("save_every", SAVE_EVERY);

    let dir = env.fresh_dir("db");
    let (served, tc0) = harness::repeat_setup(report, &dir, || setup(&dir, &chains))?;

    let mut stats = served.connect()?;
    let view_steps = |c: &mut Client| -> Result<u64, String> {
        let resp = c
            .roundtrip(&harness::op(Op::Stats, ""))
            .map_err(|e| e.to_string())?;
        Ok(resp
            .stats
            .map_or(0, |s| s.views.iter().map(|v| v.steps_total).sum()))
    };
    let cache0 = tally::cache_counters(&mut stats)?;
    let steps0 = view_steps(&mut stats)?;
    let mut wclient = served.connect()?;
    let mut rclient = served.connect()?;
    let mut sub = harness::op(Op::Subscribe, "");
    sub.view = "tc".to_string();
    harness::expect_ok(
        &rclient.roundtrip(&sub).map_err(|e| e.to_string())?,
        "subscribe",
    )?;

    let start = Instant::now() + Duration::from_millis(20);
    let mut writer = Writer::new(env.seed, chains.edges.len());
    let cpu0 = harness::process_cpu_s();
    let (mut wout, mut rout) = std::thread::scope(|s| {
        let w = s.spawn(|| {
            let mut out = write_loop(&chains, &mut writer, start, n, |req| {
                wclient.roundtrip(req).map_err(|e| e.to_string())
            });
            out.tally.client_cpu_s = harness::thread_cpu_s();
            out
        });
        let r = s.spawn(|| {
            let mut out = read_loop(&chains, &mut rclient, env.seed, start, n, tc0);
            out.tally.client_cpu_s = harness::thread_cpu_s();
            out
        });
        (w.join().expect("writer"), r.join().expect("reader"))
    });
    let cpu = harness::process_cpu_s() - cpu0;
    let elapsed = start.elapsed().max(window);
    let cache1 = tally::cache_counters(&mut stats)?;
    let steps1 = view_steps(&mut stats)?;

    let model = chains.live(&writer.present);
    check_views_wire(&mut stats, &model, &rout, n, report)?;
    wout.errors
        .iter()
        .chain(&rout.errors)
        .for_each(|e| report.mismatch(e.clone()));

    let mut tally = Tally::default();
    tally.merge(std::mem::take(&mut rout.tally));
    tally.merge(std::mem::take(&mut wout.tally));
    tally.report_e2e(report, elapsed, cpu);
    report.pct(Kind::Extra, "eval_p99_ms", &tally.eval_ms, 0.99, "ms");
    report.pct(Kind::Extra, "update_p50_ms", &wout.update_ms, 0.50, "ms");
    report.pct(Kind::Extra, "update_p99_ms", &wout.update_ms, 0.99, "ms");
    report.pct(
        Kind::Extra,
        "push_lag_p50_ms",
        &rout.push_lag_ms,
        0.50,
        "ms",
    );
    report.pct(
        Kind::Extra,
        "push_lag_p99_ms",
        &rout.push_lag_ms,
        0.99,
        "ms",
    );
    report.pct(Kind::Extra, "loadgen.late_ms", &wout.late_ms, 0.99, "ms");
    report.median(
        Kind::Extra,
        "session.update_ms",
        &wout.session_update_ms,
        "ms",
    );
    report.median(Kind::Extra, "session.save_ms", &wout.session_save_ms, "ms");
    report.add(
        Kind::Extra,
        "ivm.steps_per_changed_row",
        (steps1 - steps0) as f64 / wout.changed_rows.max(1) as f64,
        "steps",
        wout.updates,
    );
    let untraced_rps = tally.throughput(elapsed);
    drop((stats, wclient, rclient));
    served.close();

    let facts = chains.facts(&writer.present);
    let user_bytes: usize = facts.iter().map(|f| f.len() + 1).sum();
    report.add(
        Kind::EndToEnd,
        "disk_bytes_per_user_byte",
        harness::dir_bytes(&dir) as f64 / user_bytes as f64,
        "ratio",
        facts.len(),
    );
    let (recovery, reopens) = harness::recovery_s(&dir)?;
    report.add(Kind::Extra, "recovery_s", recovery, "s", reopens);
    let (_, session) = harness::open_once(&dir)?;
    check_recovered(&session, &model, report);
    harness::detach(&session);

    if env.trace {
        tally.report_free(report);
        tally::report_cache(report, cache0, cache1);
        traced(env, report, &chains, untraced_rps)?;
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

/// Reader on a subscribed connection: for every push it takes in, it
/// sends `READS_PER_PUSH` lookups, each after the previous reply, as a
/// subscriber refreshing after a change does. Replies and pushes
/// interleave on one socket, so each receive may be either. It returns
/// once all `n` pushes have arrived and their reads are answered.
fn read_loop(
    chains: &Chains,
    client: &mut Client,
    seed: u64,
    start: Instant,
    n: usize,
    tc: Pairs,
) -> ReaderOut {
    let mut out = ReaderOut {
        tc,
        ..ReaderOut::default()
    };
    let mut reader = Reader::new(seed);
    let mut owed = 0usize;
    loop {
        let pending = if owed > 0 {
            owed -= 1;
            let r = reader.next(chains.edges.len());
            if let Err(e) = client.send(&read_request(chains, r)) {
                out.errors.push(format!("reader: {e}"));
                return out;
            }
            Some((r, Instant::now()))
        } else if out.pushes == n {
            return out;
        } else {
            None
        };
        // receive until this read's reply, or with none pending one push
        loop {
            let resp = match client.recv() {
                Ok(r) => r,
                Err(e) => {
                    out.errors.push(format!("reader: {e}"));
                    return out;
                }
            };
            if resp.event.as_deref() == Some("delta") {
                out.push_lag_ms
                    .push(due(start, out.pushes).elapsed().as_secs_f64() * 1e3);
                out.pushes += 1;
                owed += READS_PER_PUSH;
                for d in &resp.deltas {
                    if let Err(e) = apply_push(&mut out.tc, d) {
                        out.errors.push(e);
                    }
                }
                if pending.is_none() {
                    break;
                }
                continue;
            }
            match pending {
                Some((r, t0)) => {
                    out.tally.record(&resp, t0.elapsed(), true);
                    if let Err(e) = check_read(chains, r, &resp) {
                        out.errors.push(e);
                    }
                }
                None => out.errors.push("reply without a request".to_string()),
            }
            break;
        }
    }
}

/// The subscriber's `tc` must equal both the oracle and a fresh Datalog
/// evaluation, and every update must have been pushed.
fn check_views_wire(
    client: &mut Client,
    model: &[(String, String)],
    rout: &ReaderOut,
    n: usize,
    report: &mut Report,
) -> Result<(), String> {
    let oracle = closure(model);
    if rout.pushes != n {
        report.mismatch(format!("{} pushes for {n} updates", rout.pushes));
    }
    if rout.tc != oracle {
        report.mismatch(format!(
            "subscriber's tc has {} rows, recomputation {}",
            rout.tc.len(),
            oracle.len()
        ));
    }
    let fresh = client
        .roundtrip(&harness::eval(
            Lang::Datalog,
            Mode::Safe,
            false,
            TC.to_string(),
        ))
        .map_err(|e| e.to_string())?;
    let fresh: Pairs = harness::pair_set(harness::rows(&fresh, "tc")?)
        .into_iter()
        .collect();
    if fresh != oracle {
        report.mismatch("a fresh Datalog tc differs from the oracle");
    }
    Ok(())
}

/// After reopening: every acknowledged update is there, and both views
/// equal their recomputation.
fn check_recovered(session: &Session, model: &[(String, String)], report: &mut Report) {
    let store = session.store();
    let store = store
        .read()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let u = store.universe();
    let name = |v: &nestdb::object::Value| match v {
        nestdb::object::Value::Atom(a) => u.name(*a).to_string(),
        other => format!("{other:?}"),
    };
    let pairs = |rel: &nestdb::object::Relation| -> Pairs {
        rel.iter().map(|r| (name(&r[0]), name(&r[1]))).collect()
    };
    let live: Pairs = model.iter().cloned().collect();
    if pairs(store.instance().relation("G")) != live {
        report.mismatch("reopened G differs from the acknowledged updates");
    }
    for (view, rel, want) in [("tc", "tc", closure(model)), ("hop", "hop", two_hop(model))] {
        let got = store.views().get(view).and_then(|v| {
            v.relations()
                .find(|(r, _)| *r == rel)
                .map(|(_, rows)| pairs(rows))
        });
        if got.as_ref() != Some(&want) {
            report.mismatch(format!("restored view {view} differs from recomputation"));
        }
    }
}

/// The traced run: the same streams from the same initial state,
/// in-process, with the writer's pushes carried over a channel.
fn traced(
    env: &Env,
    report: &mut Report,
    chains: &Chains,
    untraced_rps: f64,
) -> Result<(), String> {
    let window = env.window();
    let n = updates_in(window);
    let dir = env.fresh_dir("db-traced");
    harness::load_durable(
        &dir,
        &["schema G(U, U)."],
        &chains.facts(&vec![true; chains.edges.len()]),
    )?;
    let session = harness::session();
    harness::expect_ok(
        &session.run(&harness::op(Op::Open, &dir.display().to_string())),
        "open",
    )?;
    let tc0 = materialize(|req| Ok(session.run(req)))?;
    let buckets = TokenBuckets::new(harness::CAPACITY_STEPS, harness::REFILL_STEPS_PER_SEC);
    let mut tracers = tally::tracers(2);
    let rtracer = tracers.pop().expect("two tracers");
    let wtracer = tracers.pop().expect("two tracers");
    let (tx, rx) = mpsc::channel::<String>();
    let start = Instant::now() + Duration::from_millis(20);
    let mut writer = Writer::new(env.seed, chains.edges.len());
    let wal = dir.join(nestdb::storage::WAL_FILE);
    let ((wtracer, wout, wal_bytes), (rtracer, rout, ok_reads)) = std::thread::scope(|s| {
        let (session, buckets, writer, wal) = (&session, &buckets, &mut writer, &wal);
        let w = s.spawn(move || {
            let mut mirror = Mirror::new(session, buckets, &wtracer);
            mirror.pushes = Some(tx);
            let mut id = 1u64 << 32;
            // log bytes: what each checkpoint folds away, plus the tail
            let mut wal_bytes = 0u64;
            let out = write_loop(chains, writer, start, n, |req| {
                if req.op == Op::Save {
                    wal_bytes += std::fs::metadata(wal).map_or(0, |m| m.len());
                }
                id += 1;
                Ok(mirror.roundtrip(id, req))
            });
            wal_bytes += std::fs::metadata(wal).map_or(0, |m| m.len());
            drop(mirror);
            (wtracer, out, wal_bytes)
        });
        let r = s.spawn(move || {
            let mirror = Mirror::new(session, buckets, &rtracer);
            let mut out = ReaderOut {
                tc: tc0,
                ..ReaderOut::default()
            };
            let mut reader = Reader::new(env.seed);
            let mut ok = 0u64;
            let mut id = 0u64;
            let apply = |out: &mut ReaderOut, line: String| {
                match Response::from_json(&line) {
                    Ok(push) => {
                        for d in &push.deltas {
                            if let Err(e) = apply_push(&mut out.tc, d) {
                                out.errors.push(e);
                            }
                        }
                    }
                    Err(e) => out.errors.push(e),
                }
                out.pushes += 1;
            };
            while out.pushes < n {
                match rx.recv_timeout(DRAIN_TIMEOUT) {
                    Ok(line) => apply(&mut out, line),
                    Err(_) => break,
                }
                for _ in 0..READS_PER_PUSH {
                    let r = reader.next(chains.edges.len());
                    id += 1;
                    let resp = mirror.roundtrip(id, &read_request(chains, r));
                    match check_read(chains, r, &resp) {
                        Ok(()) => ok += 1,
                        Err(e) => out.errors.push(e),
                    }
                }
            }
            drop(mirror);
            (rtracer, out, ok)
        });
        (w.join().expect("writer"), r.join().expect("reader"))
    });
    let elapsed = start.elapsed().max(window);
    let model = chains.live(&writer.present);
    let oracle = closure(&model);
    if rout.pushes != n || rout.tc != oracle {
        report.mismatch(format!(
            "traced subscriber: {} pushes for {n} updates, tc {} rows vs {}",
            rout.pushes,
            rout.tc.len(),
            oracle.len()
        ));
    }
    wout.errors
        .iter()
        .chain(&rout.errors)
        .for_each(|e| report.mismatch(e.clone()));
    let mut trace = Trace::default();
    trace.absorb(wtracer);
    trace.absorb(rtracer);
    tally::report_trace(report, &trace);
    report_writes(report, &trace, &wout, wal_bytes);
    tally::report_overhead(report, ok_reads + wout.tally.ok, elapsed, untraced_rps);
    tally::write_trace(env, &trace);
    harness::detach(&session);
    let (_, reopened) = harness::open_once(&dir)?;
    check_recovered(&reopened, &model, report);
    harness::detach(&reopened);
    tally::report_reopen(report, &dir)?;
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

/// The write path's layer figures (this workload's own; see README.md).
fn report_writes(report: &mut Report, trace: &Trace, wout: &WriterOut, wal_bytes: u64) {
    report.median(
        Kind::Extra,
        "ivm.maintain_ms",
        &trace.self_times("ivm.maintain", 1e6),
        "ms",
    );
    report.median(
        Kind::Extra,
        "storage.apply_us",
        &trace.self_times("storage.apply", 1e3),
        "us",
    );
    report.median(
        Kind::Extra,
        "storage.checkpoint_ms",
        &trace.self_times("storage.checkpoint", 1e6),
        "ms",
    );
    report.add(
        Kind::Extra,
        "storage.wal_bytes_per_update",
        wal_bytes as f64 / wout.updates.max(1) as f64,
        "bytes",
        wout.updates,
    );
}
