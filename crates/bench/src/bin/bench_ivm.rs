//! Maintenance benchmark: incremental view maintenance against full
//! recomputation, across delta sizes 1 / 10 / 1000, on the TC
//! (recursive, DRed) and two-hop (non-recursive, counting) fixtures.
//!
//! ```text
//! cargo run --release -p no-bench --bin bench_ivm
//! ```
//!
//! Emits `BENCH_ivm.json` in the current directory:
//!
//! ```json
//! { "benchmarks": [ { "name": "...", "delta": d, "maintain_ms": m,
//!                     "recompute_ms": r, "speedup": s }, ... ] }
//! ```
//!
//! Honest caveats: the fixture is many disjoint chains, so a
//! single-clause delta touches one component and maintenance is
//! effectively O(component) while recomputation is O(database) — that
//! locality is the entire case for IVM, and it is also why the speedup
//! *shrinks* as the delta grows: at 1000 mutated clauses DRed has
//! over-deleted most of the database and the delta pipeline approaches
//! (or loses to) a straight recompute. The crossover is the honest
//! result, not a defect.

use minipool::ThreadPool;
use nestdb::datalog::{eval_stratified_pooled, parse_program};
use nestdb::ivm::{BaseDelta, ViewRegistry};
use nestdb::object::{Governor, Instance, RelationSchema, Schema, Type, Universe, Value};
use std::time::Instant;

const TC_SRC: &str = "rel tc(U, U).\ntc(x, y) :- G(x, y).\ntc(x, y) :- tc(x, z), G(z, y).\n";
const HOP_SRC: &str = "rel hop(U, U).\nhop(x, z) :- G(x, y), G(y, z).\n";

const CHAINS: usize = 60;
const CHAIN_LEN: usize = 30; // nodes per chain; edges per chain = len-1

struct Row {
    name: String,
    delta: usize,
    maintain_ms: f64,
    recompute_ms: f64,
}

/// The fixture: `CHAINS` disjoint paths of `CHAIN_LEN` nodes each.
fn fixture() -> (Universe, Instance, Vec<Vec<Value>>) {
    let names: Vec<String> = (0..CHAINS * CHAIN_LEN).map(|i| format!("n{i}")).collect();
    let u = Universe::with_names(names.iter().map(String::as_str));
    let schema = Schema::from_relations([RelationSchema::new("G", vec![Type::Atom, Type::Atom])]);
    let mut instance = Instance::empty(schema);
    let mut edges = Vec::new();
    for c in 0..CHAINS {
        for k in 0..CHAIN_LEN - 1 {
            let a = u.get(&format!("n{}", c * CHAIN_LEN + k)).unwrap();
            let b = u.get(&format!("n{}", c * CHAIN_LEN + k + 1)).unwrap();
            let row = vec![Value::Atom(a), Value::Atom(b)];
            instance.insert("G", row.clone());
            edges.push(row);
        }
    }
    (u, instance, edges)
}

/// Median of `n` timed runs of `f`, in milliseconds.
fn timed(n: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..n)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// One fixture × one delta size: time maintaining a batch of `d` edge
/// deletions (then re-insertions, restoring the instance) against a full
/// stratified recomputation, asserting the maintained state is exact.
fn measure(name: &str, src: &str, d: usize) -> Row {
    let (_u, mut instance, edges) = fixture();
    let mut universe = _u.clone();
    let gov = Governor::unlimited();
    let mut reg = ViewRegistry::new();
    reg.materialize(name, src, &mut universe, &instance, &gov)
        .expect("materialize");
    let program = parse_program(src, &mut universe).expect("parse");

    // spread the victims across chains so a big delta touches many
    // components, like independent writers would
    let victims: Vec<Vec<Value>> = (0..d)
        .map(|i| edges[(i * 11) % edges.len()].clone())
        .collect();
    let mut del = BaseDelta::new();
    let mut ins = BaseDelta::new();
    for row in &victims {
        del.delete("G", row.clone());
        ins.insert("G", row.clone());
    }

    // maintenance: delete the batch, then restore it — two maintains,
    // reported per direction. The instance mutates in lockstep.
    let maintain_ms = timed(5, || {
        reg.maintain(&instance, &del, &gov).expect("maintain del");
        del.apply(&mut instance);
        reg.maintain(&instance, &ins, &gov).expect("maintain ins");
        ins.apply(&mut instance);
    }) / 2.0;

    // exactness: the maintained state equals the oracle bit-for-bit
    let seq = ThreadPool::sequential();
    let oracle = eval_stratified_pooled(&program, &instance, &Governor::unlimited(), &seq)
        .expect("stratified oracle");
    let view = reg.get(name).unwrap();
    for (rel, rows) in view.relations() {
        assert_eq!(
            rows.sorted_rows(),
            oracle[rel].sorted_rows(),
            "{name}.{rel} diverged from recomputation"
        );
    }

    // full recomputation of the same program over the same instance
    let recompute_ms = timed(5, || {
        let idb = eval_stratified_pooled(&program, &instance, &Governor::unlimited(), &seq)
            .expect("recompute");
        assert!(!idb.is_empty());
    });

    Row {
        name: name.to_string(),
        delta: d,
        maintain_ms,
        recompute_ms,
    }
}

fn main() {
    let mut rows = Vec::new();
    for (name, src) in [("tc", TC_SRC), ("two_hop", HOP_SRC)] {
        for d in [1usize, 10, 1000] {
            rows.push(measure(name, src, d));
        }
    }

    let mut json = String::from("{\n  \"benchmarks\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let speedup = r.recompute_ms / r.maintain_ms.max(1e-6);
        println!(
            "{:<10} delta {:>5}   maintain {:>9.3} ms   recompute {:>9.3} ms   {:>7.1}x",
            r.name, r.delta, r.maintain_ms, r.recompute_ms, speedup
        );
        json.push_str(&format!(
            "    {{ \"name\": \"{}\", \"delta\": {}, \"maintain_ms\": {:.4}, \"recompute_ms\": {:.4}, \"speedup\": {:.2} }}{}\n",
            r.name,
            r.delta,
            r.maintain_ms,
            r.recompute_ms,
            speedup,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write("BENCH_ivm.json", &json).expect("write BENCH_ivm.json");
    println!("wrote BENCH_ivm.json");

    // the acceptance gate: single-clause deltas on TC must beat a full
    // recompute by at least 10x
    let tc1 = rows
        .iter()
        .find(|r| r.name == "tc" && r.delta == 1)
        .unwrap();
    let speedup = tc1.recompute_ms / tc1.maintain_ms.max(1e-6);
    assert!(
        speedup >= 10.0,
        "single-clause TC maintenance is only {speedup:.1}x faster than recompute"
    );
}
