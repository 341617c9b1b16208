//! `recursive_analytics`: heavy recursive queries on one closed-loop
//! connection. Evaluation engines and large-result encode/decode
//! dominate; per-request overhead is negligible.

use crate::harness::{self, Env, Served};
use crate::mirror::Mirror;
use crate::rng::{Deck, Rng};
use crate::stats::{Kind, Report};
use crate::tally::{self, Tally};
use crate::trace::Trace;
use nestdb::proto::{Lang, Mode, Request, Response, Strategy};
use nestdb::server::admission::TokenBuckets;
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// The forest `F`: disjoint chains, closed by semi-naive Datalog.
const CHAINS: usize = 60;
const CHAIN_LEN: usize = 30;
/// The ring `R`, closed by CALC+IFP on the tree-walk evaluator.
const RING: usize = 6;
/// The small graph `H` under the stratified program with negation.
const H_NODES: usize = 24;
const H_EDGES: usize = 36;
/// `P`: keys with two values each, nested into sets.
const P_KEYS: usize = 12;
const P_VALUES: usize = 6;
/// `Q`: the powerset's base relation.
const Q_ATOMS: usize = 9;

const TC_F: &str = "rel tc(U, U).\ntc(x, y) :- F(x, y).\ntc(x, y) :- tc(x, z), F(z, y).";
const STRATIFIED: &str = "rel tcr(U, U).\nrel tch(U, U).\nrel node(U).\nrel unreach(U, U).\n\
tcr(x, y) :- R(x, y).\ntcr(x, y) :- tcr(x, z), R(z, y).\n\
tch(x, y) :- H(x, y).\ntch(x, y) :- tch(x, z), H(z, y).\n\
node(x) :- H(x, y).\nnode(y) :- H(x, y).\n\
unreach(x, y) :- node(x), node(y), !tch(x, y).";
const IFP_R: &str =
    "{[u:U, v:U] | ifp(T; x:U, y:U | R(x, y) \\/ exists z:U (T(x, z) /\\ R(z, y)))(u, v)}";
const NEST_P: &str = "{[x:U, s:{U}] | exists z:U (P(x, z)) /\\ forall y:U (P(x, y) <-> y in s)}";
const POWERSET_Q: &str = "powerset(Q)";

type Pairs = BTreeSet<(String, String)>;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Query {
    TcForest,
    Stratified,
    IfpRing,
    Nest,
    Powerset,
}

fn request(q: Query) -> Request {
    let (lang, mode, planned, text) = match q {
        Query::TcForest => (Lang::Datalog, Mode::Safe, false, TC_F),
        Query::Stratified => (Lang::Datalog, Mode::Safe, true, STRATIFIED),
        Query::IfpRing => (Lang::Calc, Mode::Checked, false, IFP_R),
        Query::Nest => (Lang::Calc, Mode::Safe, false, NEST_P),
        Query::Powerset => (Lang::Algebra, Mode::Safe, false, POWERSET_Q),
    };
    let mut req = harness::eval(lang, mode, planned, text.to_string());
    if q == Query::Stratified {
        req.strategy = Strategy::Stratified;
    }
    req
}

/// The generated relations and their oracles.
struct Data {
    facts: Vec<String>,
    tc_forest: Pairs,
    tc_ring: Pairs,
    tc_h: Pairs,
    h_nodes: BTreeSet<String>,
    nest: BTreeSet<(String, String)>,
}

fn closure(edges: &[(String, String)]) -> Pairs {
    let mut succ: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (a, b) in edges {
        succ.entry(a).or_default().push(b);
    }
    let mut out = Pairs::new();
    for start in succ.keys() {
        let mut seen = BTreeSet::new();
        let mut todo = vec![*start];
        while let Some(n) = todo.pop() {
            for &m in succ.get(n).map(Vec::as_slice).unwrap_or(&[]) {
                if seen.insert(m) {
                    todo.push(m);
                }
            }
        }
        out.extend(seen.into_iter().map(|m| (start.to_string(), m.to_string())));
    }
    out
}

impl Data {
    fn generate(seed: u64) -> Data {
        let mut rng = Rng::new(seed, 2);
        let mut facts = Vec::new();
        let mut fact = |rel: &str, a: &str, b: &str| facts.push(format!("{rel}('{a}', '{b}')."));
        let mut labels: Vec<usize> = (0..CHAINS * CHAIN_LEN).collect();
        rng.shuffle(&mut labels);
        let mut f = Vec::new();
        for c in 0..CHAINS {
            for k in 0..CHAIN_LEN - 1 {
                let a = format!("f{}", labels[c * CHAIN_LEN + k]);
                let b = format!("f{}", labels[c * CHAIN_LEN + k + 1]);
                fact("F", &a, &b);
                f.push((a, b));
            }
        }
        let mut ring: Vec<usize> = (0..RING).collect();
        rng.shuffle(&mut ring);
        let r: Vec<(String, String)> = (0..RING)
            .map(|i| {
                (
                    format!("r{}", ring[i]),
                    format!("r{}", ring[(i + 1) % RING]),
                )
            })
            .collect();
        r.iter().for_each(|(a, b)| fact("R", a, b));
        // `H` and `P` have one shape for every seed (drawn from a fixed
        // stream); the seed only relabels their nodes
        let mut shape = Rng::new(0, 20);
        let mut h_label: Vec<usize> = (0..H_NODES).collect();
        rng.shuffle(&mut h_label);
        let mut h = BTreeSet::new();
        while h.len() < H_EDGES {
            let (a, b) = (shape.below(H_NODES), shape.below(H_NODES));
            if a != b {
                h.insert((format!("h{}", h_label[a]), format!("h{}", h_label[b])));
            }
        }
        let h: Vec<(String, String)> = h.into_iter().collect();
        h.iter().for_each(|(a, b)| fact("H", a, b));
        let mut v_label: Vec<usize> = (0..P_VALUES).collect();
        rng.shuffle(&mut v_label);
        let mut nest = BTreeSet::new();
        for k in 0..P_KEYS {
            let first = shape.below(P_VALUES);
            let second = (first + 1 + shape.below(P_VALUES - 1)) % P_VALUES;
            for v in [first, second] {
                nest.insert((format!("p{k}"), format!("v{}", v_label[v])));
            }
        }
        nest.iter().for_each(|(a, b)| fact("P", a, b));
        for i in 0..Q_ATOMS {
            facts.push(format!("Q('q{i}')."));
        }
        let h_nodes = h.iter().flat_map(|(a, b)| [a.clone(), b.clone()]).collect();
        Data {
            facts,
            tc_forest: closure(&f),
            tc_ring: closure(&r),
            tc_h: closure(&h),
            h_nodes,
            nest,
        }
    }

    fn nest_rows(&self) -> BTreeSet<Vec<String>> {
        let mut sets: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
        for (x, y) in &self.nest {
            sets.entry(x).or_default().push(y);
        }
        sets.into_iter()
            .map(|(x, ys)| vec![x.to_string(), format!("{{{}}}", ys.join(","))])
            .collect()
    }

    fn unreach(&self) -> Pairs {
        let mut out = Pairs::new();
        for a in &self.h_nodes {
            for b in &self.h_nodes {
                let p = (a.clone(), b.clone());
                if !self.tc_h.contains(&p) {
                    out.insert(p);
                }
            }
        }
        out
    }
}

fn pairs(resp: &Response, rel: &str) -> Result<Pairs, String> {
    Ok(harness::pair_set(harness::rows(resp, rel)?)
        .into_iter()
        .collect())
}

fn expect_pairs(resp: &Response, rel: &str, want: &Pairs) -> Result<(), String> {
    let got = pairs(resp, rel)?;
    if &got != want {
        return Err(format!(
            "{rel}: {} rows, expected {}",
            got.len(),
            want.len()
        ));
    }
    Ok(())
}

/// Full check of one answer against the oracles.
fn verify(data: &Data, q: Query, resp: &Response) -> Result<(), String> {
    harness::expect_ok(resp, &format!("{q:?}"))?;
    match q {
        Query::TcForest => expect_pairs(resp, "tc", &data.tc_forest),
        Query::Stratified => {
            expect_pairs(resp, "tcr", &data.tc_ring)?;
            expect_pairs(resp, "tch", &data.tc_h)?;
            expect_pairs(resp, "unreach", &data.unreach())
        }
        // CALC+IFP rows must equal the Datalog closure of the same ring
        Query::IfpRing => expect_pairs(resp, "result", &data.tc_ring),
        Query::Nest => {
            let got: BTreeSet<Vec<String>> = harness::rows(resp, "result")?.into_iter().collect();
            if got != data.nest_rows() {
                return Err(format!("nest: {} rows, expected {}", got.len(), P_KEYS));
            }
            Ok(())
        }
        Query::Powerset => {
            let rows = harness::rows(resp, "result")?;
            let distinct: BTreeSet<&Vec<String>> = rows.iter().collect();
            if rows.len() != 1 << Q_ATOMS || distinct.len() != rows.len() {
                return Err(format!(
                    "powerset: {} rows, expected {}",
                    rows.len(),
                    1 << Q_ATOMS
                ));
            }
            Ok(())
        }
    }
}

/// Checks answers, fully the first time per query and by digest after:
/// the data never changes, so every later answer must be byte-identical
/// to the verified one.
#[derive(Default)]
struct Checker {
    verified: BTreeMap<Query, u64>,
}

impl Checker {
    fn check(&mut self, data: &Data, q: Query, resp: &Response) -> Result<(), String> {
        let digest = harness::digest(
            &resp
                .relations
                .iter()
                .map(|r| r.rows_json.as_str())
                .collect::<Vec<_>>()
                .join("|"),
        );
        if self.verified.get(&q) == Some(&digest) {
            return harness::expect_ok(resp, &format!("{q:?}"));
        }
        verify(data, q, resp)?;
        self.verified.insert(q, digest);
        Ok(())
    }
}

struct Stream(Deck<Query>);

impl Stream {
    fn new(seed: u64) -> Stream {
        Stream(Deck::new(
            Rng::new(seed, 200),
            &[
                (Query::TcForest, 4),
                (Query::Stratified, 6),
                (Query::IfpRing, 4),
                (Query::Nest, 3),
                (Query::Powerset, 3),
            ],
        ))
    }

    fn next(&mut self) -> Query {
        self.0.draw()
    }
}

const ALL: [Query; 5] = [
    Query::TcForest,
    Query::Stratified,
    Query::IfpRing,
    Query::Nest,
    Query::Powerset,
];

pub fn run(env: &Env, report: &mut Report) -> Result<(), String> {
    let data = Data::generate(env.seed);
    let user_bytes: usize = data.facts.iter().map(|f| f.len() + 1).sum();
    let schema = [
        "schema F(U, U).",
        "schema R(U, U).",
        "schema H(U, U).",
        "schema P(U, U).",
        "schema Q(U).",
    ];

    let dir = env.fresh_dir("db");
    let (served, ()) = harness::repeat_setup(report, &dir, || {
        harness::load_durable(&dir, &schema, &data.facts)?;
        Ok((Served::open(&dir)?, ()))
    })?;

    // untraced: one closed-loop connection; one warm-up pass per query
    let window = env.window();
    let mut client = served.connect()?;
    let mut checker = Checker::default();
    for q in ALL {
        let resp = client.roundtrip(&request(q)).map_err(|e| e.to_string())?;
        if let Err(e) = checker.check(&data, q, &resp) {
            report.mismatch(e);
        }
    }
    // the ring closure by CALC+IFP and by Datalog must agree row for row
    let ifp = client
        .roundtrip(&request(Query::IfpRing))
        .map_err(|e| e.to_string())?;
    let strat = client
        .roundtrip(&request(Query::Stratified))
        .map_err(|e| e.to_string())?;
    if pairs(&ifp, "result")? != pairs(&strat, "tcr")? {
        report.mismatch("CALC+IFP ring closure differs from the Datalog one");
    }
    let cache0 = tally::cache_counters(&mut client)?;
    let mut stream = Stream::new(env.seed);
    let mut tally = Tally::default();
    let (cpu0, client_cpu0) = (harness::process_cpu_s(), harness::thread_cpu_s());
    let deadline = Instant::now() + window;
    while Instant::now() < deadline {
        let q = stream.next();
        let t0 = Instant::now();
        let resp = client.roundtrip(&request(q)).map_err(|e| e.to_string())?;
        tally.record(&resp, t0.elapsed(), true);
        if let Err(e) = checker.check(&data, q, &resp) {
            report.mismatch(e);
        }
    }
    tally.client_cpu_s = harness::thread_cpu_s() - client_cpu0;
    let cpu = harness::process_cpu_s() - cpu0;
    let cache1 = tally::cache_counters(&mut client)?;
    tally.report_e2e(report, window, cpu);
    let untraced_rps = tally.throughput(window);
    drop(client);
    served.close();

    report.add(
        Kind::EndToEnd,
        "disk_bytes_per_user_byte",
        harness::dir_bytes(&dir) as f64 / user_bytes as f64,
        "ratio",
        data.facts.len(),
    );
    let (recovery, reopens) = harness::recovery_s(&dir)?;
    report.add(Kind::Extra, "recovery_s", recovery, "s", reopens);
    let (_, session) = harness::open_once(&dir)?;

    if env.trace {
        tally.report_free(report);
        tally::report_cache(report, cache0, cache1);
        let buckets = TokenBuckets::new(harness::CAPACITY_STEPS, harness::REFILL_STEPS_PER_SEC);
        let tracer = tally::tracers(1).pop().expect("one tracer");
        let mirror = Mirror::new(&session, &buckets, &tracer);
        let mut checker = Checker::default();
        for q in ALL {
            if let Err(e) = checker.check(&data, q, &session.run(&request(q))) {
                report.mismatch(e);
            }
        }
        let mut stream = Stream::new(env.seed);
        let mut ok = 0u64;
        let deadline = Instant::now() + window;
        let mut id = 0;
        while Instant::now() < deadline {
            let q = stream.next();
            id += 1;
            let resp = mirror.roundtrip(id, &request(q));
            match checker.check(&data, q, &resp) {
                Ok(()) => ok += 1,
                Err(e) => report.mismatch(e),
            }
        }
        drop(mirror);
        let mut trace = Trace::default();
        trace.absorb(tracer);
        tally::report_trace(report, &trace);
        tally::report_overhead(report, ok, window, untraced_rps);
        tally::write_trace(env, &trace);
        harness::detach(&session);
        tally::report_reopen(report, &dir)?;
    } else {
        // the reopened store must answer exactly as the served one did
        let resp = session.run(&request(Query::TcForest));
        if let Err(e) = verify(&data, Query::TcForest, &resp) {
            report.mismatch(format!("after reopen: {e}"));
        }
        harness::detach(&session);
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}
