//! `point_lookups`: many cheap reads over a random graph, two closed-loop
//! connections. Each request does little engine work, so the fixed path
//! dominates: wire decode, admission, the store write lock taken to parse
//! and intern, the plan cache, one scan, and the response encode.

use crate::harness::{self, Env, Served};
use crate::mirror::Mirror;
use crate::rng::{Deck, Rng};
use crate::stats::{Kind, Report};
use crate::tally::{self, Tally};
use crate::trace::Trace;
use nestdb::proto::{Lang, Mode, Request, Response};
use nestdb::server::admission::TokenBuckets;
use std::collections::BTreeSet;
use std::time::Instant;

const NODES: usize = 4096;
/// Every node has the same out-degree, so a lookup's cost does not
/// depend on which nodes a seed makes hot.
const OUT_DEGREE: usize = 4;
const EDGES: usize = NODES * OUT_DEGREE;
const CONNECTIONS: usize = 2;
/// Constants drawn from the hot set: 12 nodes, so the planned texts
/// built on them (two kinds) stay below the 64-entry plan cache.
const HOT_NODES: usize = 12;
const HOT_SHARE: f64 = 0.5;
const WARMUP_REQUESTS: usize = 50;

/// The random graph `G` and its successor lists.
pub struct Graph {
    succ: Vec<Vec<usize>>,
    hot: Vec<usize>,
}

impl Graph {
    pub fn generate(seed: u64) -> Graph {
        let mut rng = Rng::new(seed, 1);
        let mut succ = vec![Vec::new(); NODES];
        for (a, out) in succ.iter_mut().enumerate() {
            while out.len() < OUT_DEGREE {
                let b = rng.below(NODES);
                if b != a && !out.contains(&b) {
                    out.push(b);
                }
            }
        }
        let hot = (0..HOT_NODES).map(|_| rng.below(NODES)).collect();
        Graph { succ, hot }
    }

    fn facts(&self) -> Vec<String> {
        let mut out = Vec::with_capacity(EDGES);
        for (a, bs) in self.succ.iter().enumerate() {
            for b in bs {
                out.push(format!("G('n{a}', 'n{b}')."));
            }
        }
        out
    }

    fn two_hop(&self, k: usize) -> BTreeSet<usize> {
        self.succ[k]
            .iter()
            .flat_map(|&z| self.succ[z].iter().copied())
            .collect()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ask {
    /// Planned `G('nK', y)`.
    Succ,
    /// Planned two-hop with `exists z`.
    TwoHop,
    /// Checked mode: analysis, then range-restricted tree-walk CALC.
    Checked,
    /// Algebra `select[eqc(1, 'nK')](G)`, tree-walk.
    Select,
    /// A one-rule Datalog lookup, semi-naive.
    Datalog,
}

#[derive(Debug, Clone, Copy)]
pub struct Lookup {
    kind: Ask,
    node: usize,
}

/// One connection's seeded request stream.
pub struct Stream {
    rng: Rng,
    kinds: Deck<Ask>,
    hot: Vec<usize>,
}

impl Stream {
    pub fn new(seed: u64, conn: usize, graph: &Graph) -> Stream {
        Stream {
            rng: Rng::new(seed, 100 + conn as u64),
            kinds: Deck::new(
                Rng::new(seed, 150 + conn as u64),
                &[
                    (Ask::Succ, 14),
                    (Ask::TwoHop, 2),
                    (Ask::Checked, 2),
                    (Ask::Select, 1),
                    (Ask::Datalog, 1),
                ],
            ),
            hot: graph.hot.clone(),
        }
    }

    pub fn next(&mut self) -> Lookup {
        let node = if self.rng.unit() < HOT_SHARE {
            self.hot[self.rng.below(self.hot.len())]
        } else {
            self.rng.below(NODES)
        };
        Lookup {
            kind: self.kinds.draw(),
            node,
        }
    }
}

pub fn request(l: Lookup) -> Request {
    let k = l.node;
    match l.kind {
        Ask::Succ => harness::eval(Lang::Calc, Mode::Safe, true, succ_query(k)),
        Ask::TwoHop => harness::eval(
            Lang::Calc,
            Mode::Safe,
            true,
            format!("{{[y:U] | exists z:U (G('n{k}', z) /\\ G(z, y))}}"),
        ),
        Ask::Checked => harness::eval(Lang::Calc, Mode::Checked, false, succ_query(k)),
        Ask::Select => harness::eval(
            Lang::Algebra,
            Mode::Safe,
            false,
            format!("select[eqc(1, 'n{k}')](G)"),
        ),
        Ask::Datalog => harness::eval(
            Lang::Datalog,
            Mode::Safe,
            false,
            format!("rel s(U).\ns(y) :- G('n{k}', y)."),
        ),
    }
}

pub fn succ_query(k: usize) -> String {
    format!("{{[y:U] | G('n{k}', y)}}")
}

/// Check a lookup's answer against the successor / two-hop oracle.
pub fn check(graph: &Graph, l: Lookup, resp: &Response) -> Result<(), String> {
    harness::expect_ok(resp, "lookup")?;
    let k = l.node;
    let name = |i: &usize| format!("n{i}");
    let (rel, expected): (&str, BTreeSet<Vec<String>>) = match l.kind {
        Ask::Succ | Ask::Checked => (
            "result",
            graph.succ[k].iter().map(|y| vec![name(y)]).collect(),
        ),
        Ask::TwoHop => (
            "result",
            graph.two_hop(k).iter().map(|y| vec![name(y)]).collect(),
        ),
        Ask::Select => (
            "result",
            graph.succ[k]
                .iter()
                .map(|y| vec![name(&k), name(y)])
                .collect(),
        ),
        Ask::Datalog => ("s", graph.succ[k].iter().map(|y| vec![name(y)]).collect()),
    };
    let got: BTreeSet<Vec<String>> = harness::rows(resp, rel)?.into_iter().collect();
    if got != expected {
        return Err(format!(
            "{:?} on n{k}: {} rows, expected {}",
            l.kind,
            got.len(),
            expected.len()
        ));
    }
    Ok(())
}

pub fn run(env: &Env, report: &mut Report) -> Result<(), String> {
    let graph = Graph::generate(env.seed);
    let facts = graph.facts();
    let user_bytes: usize = facts.iter().map(|f| f.len() + 1).sum();

    let dir = env.fresh_dir("db");
    let (served, ()) = harness::repeat_setup(report, &dir, || {
        harness::load_durable(&dir, &["schema G(U, U)."], &facts)?;
        Ok((Served::open(&dir)?, ()))
    })?;

    // untraced: two closed-loop connections over TCP
    let window = env.window();
    let mut stats_client = served.connect()?;
    let mut clients = Vec::new();
    let mut streams = Vec::new();
    for c in 0..CONNECTIONS {
        let mut client = served.connect()?;
        let mut stream = Stream::new(env.seed, c, &graph);
        for _ in 0..WARMUP_REQUESTS {
            let l = stream.next();
            let resp = client.roundtrip(&request(l)).map_err(|e| e.to_string())?;
            if let Err(e) = check(&graph, l, &resp) {
                report.mismatch(e);
            }
        }
        clients.push(client);
        streams.push(stream);
    }
    let cache0 = tally::cache_counters(&mut stats_client)?;
    let cpu0 = harness::process_cpu_s();
    let deadline = Instant::now() + window;
    let results: Vec<(Tally, Vec<String>)> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(streams.iter_mut())
            .map(|(client, stream)| {
                let graph = &graph;
                s.spawn(move || {
                    let mut tally = Tally::default();
                    let mut errors = Vec::new();
                    while Instant::now() < deadline {
                        let l = stream.next();
                        let req = request(l);
                        let t0 = Instant::now();
                        let resp = match client.roundtrip(&req) {
                            Ok(r) => r,
                            Err(e) => {
                                errors.push(format!("connection: {e}"));
                                break;
                            }
                        };
                        tally.record(&resp, t0.elapsed(), true);
                        if let Err(e) = check(graph, l, &resp) {
                            errors.push(e);
                        }
                    }
                    tally.client_cpu_s = harness::thread_cpu_s();
                    (tally, errors)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let cpu = harness::process_cpu_s() - cpu0;
    let cache1 = tally::cache_counters(&mut stats_client)?;
    let mut tally = Tally::default();
    for (t, errors) in results {
        tally.merge(t);
        errors.into_iter().for_each(|e| report.mismatch(e));
    }
    tally.report_e2e(report, window, cpu);
    report.pct(Kind::Extra, "eval_p99_ms", &tally.eval_ms, 0.99, "ms");
    let untraced_rps = tally.throughput(window);
    drop(clients);
    drop(stats_client);
    served.close();

    // recovery: reopen the directory; the graph must be intact
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
    check_graph(&session, &facts, report);

    if env.trace {
        tally.report_free(report);
        tally::report_cache(report, cache0, cache1);
        traced(env, report, &graph, &session, untraced_rps)?;
        harness::detach(&session);
        tally::report_reopen(report, &dir)?;
    } else {
        harness::detach(&session);
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

/// The reopened store must hold exactly the generated graph.
fn check_graph(session: &nestdb::Session, facts: &[String], report: &mut Report) {
    let resp = session.run(&harness::eval(
        Lang::Calc,
        Mode::Safe,
        true,
        "{[x:U, y:U] | G(x, y)}".to_string(),
    ));
    match harness::rows(&resp, "result") {
        Ok(rows) => {
            let got: BTreeSet<String> = rows
                .iter()
                .map(|r| format!("G('{}', '{}').", r[0], r[1]))
                .collect();
            let want: BTreeSet<String> = facts.iter().cloned().collect();
            if got != want {
                report.mismatch(format!(
                    "reopened graph has {} edges, expected {}",
                    got.len(),
                    want.len()
                ));
            }
        }
        Err(e) => report.mismatch(format!("reopened graph: {e}")),
    }
}

/// The traced run: the same streams at the same concurrency, in-process.
fn traced(
    env: &Env,
    report: &mut Report,
    graph: &Graph,
    session: &nestdb::Session,
    untraced_rps: f64,
) -> Result<(), String> {
    let buckets = TokenBuckets::new(harness::CAPACITY_STEPS, harness::REFILL_STEPS_PER_SEC);
    let window = env.window();
    let tracers = tally::tracers(CONNECTIONS);
    let results: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = tracers
            .into_iter()
            .enumerate()
            .map(|(c, tracer)| {
                let buckets = &buckets;
                s.spawn(move || {
                    let mut stream = Stream::new(env.seed, c, graph);
                    let mut errors = Vec::new();
                    for _ in 0..WARMUP_REQUESTS {
                        let l = stream.next();
                        if let Err(e) = check(graph, l, &session.run(&request(l))) {
                            errors.push(e);
                        }
                    }
                    let mirror = Mirror::new(session, buckets, &tracer);
                    let deadline = Instant::now() + window;
                    let mut ok = 0u64;
                    let mut id = (c as u64) << 32;
                    while Instant::now() < deadline {
                        let l = stream.next();
                        id += 1;
                        let resp = mirror.roundtrip(id, &request(l));
                        match check(graph, l, &resp) {
                            Ok(()) => ok += 1,
                            Err(e) => errors.push(e),
                        }
                    }
                    drop(mirror);
                    (tracer, ok, errors)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("traced thread"))
            .collect()
    });
    let mut trace = Trace::default();
    let mut ok = 0;
    for (tracer, n, errors) in results {
        trace.absorb(tracer);
        ok += n;
        errors.into_iter().for_each(|e| report.mismatch(e));
    }
    tally::report_trace(report, &trace);
    tally::report_overhead(report, ok, window, untraced_rps);
    tally::write_trace(env, &trace);
    Ok(())
}
