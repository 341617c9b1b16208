//! Compile-to-plan benchmark: per-query wall time of the tree-walk
//! engines against planned execution with a cold and a warm plan
//! cache, on the enumeration-heavy fixtures (TC fixpoint, powerset,
//! Datalog¬ semi-naive) and the checked-in `data/queries.calc` corpus.
//!
//! ```text
//! cargo run --release -p no-bench --bin bench_plan
//! ```
//!
//! Emits `BENCH_plan.json` in the current directory:
//!
//! ```json
//! { "host_parallelism": 8,
//!   "benchmarks": [ { "name": "...", "results": n,
//!                     "tree_walk_ms": t, "planned_cold_ms": c,
//!                     "planned_warm_ms": w, "warm_speedup": s }, ... ] }
//! ```
//!
//! Honest caveats, so nobody over-reads the numbers: the planned path
//! executes on the *same* kernels as the tree-walk, so a warm-cache win is
//! the cost of parsing-adjacent front-end work the cache skips (type
//! checking, range analysis, lowering, optimization) — it approaches zero
//! for fixtures whose runtime is dominated by enumeration, and matters
//! most for cheap queries asked repeatedly. The cold-cache column prices
//! planning itself: it must sit within noise of the tree-walk, since
//! planning does the same analysis the tree-walk front end does. All
//! three columns are asserted to produce identical cardinalities.

//!
//! Both sides call the engines directly under the session's governor and
//! worker count, skipping `Session::run`'s parse and render work; the
//! planned side goes through the session's plan cache.

use nestdb::core::eval::Query;
use nestdb::core::ranges::safe_eval_pooled;
use nestdb::datalog::{DTerm, Literal, Program, Strategy};
use nestdb::object::{Atom, AtomOrder, Instance, RelationSchema, Schema, Type, Universe, Value};
use nestdb::plan::{CalcMode, DatalogMode};
use nestdb::{Session, ThreadPool};
use no_bench::best_of;
use std::path::Path;

/// The strided graph from `bench_parallel`: dense enough that TC runs
/// several fixpoint stages.
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

struct Row {
    name: &'static str,
    results: usize,
    tree_walk_ms: f64,
    planned_cold_ms: f64,
    planned_warm_ms: f64,
}

/// Run one fixture three ways. `walk` is the tree-walk engine;
/// `planned` the planned one. Cold clears the session's plan cache before
/// every repetition, warm primes it once and then only pays cache hits.
fn bench_row(
    name: &'static str,
    session: &Session,
    reps: usize,
    walk: impl FnMut() -> usize,
    mut planned: impl FnMut() -> usize,
) -> Row {
    let (tree_walk_ms, n_walk) = best_of(reps, walk);
    session.clear_plan_cache();
    let (planned_cold_ms, n_cold) = best_of(reps, || {
        session.clear_plan_cache();
        planned()
    });
    let _ = planned(); // prime the cache
    let (planned_warm_ms, n_warm) = best_of(reps, &mut planned);
    assert_eq!(n_walk, n_cold, "{name}: cold planned result diverged");
    assert_eq!(n_walk, n_warm, "{name}: warm planned result diverged");
    Row {
        name,
        results: n_walk,
        tree_walk_ms,
        planned_cold_ms,
        planned_warm_ms,
    }
}

fn main() {
    let host = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let reps = 5;
    let session = Session::default();
    let (gov, pool) = (session.governor(), ThreadPool::new(session.parallelism()));
    let mut rows: Vec<Row> = Vec::new();

    // -- CALC TC fixpoint over 48 nodes ---------------------------------
    {
        let (mut u, _order, inst) = graph(48);
        let q = nestdb::core::parse_query(
            "{[qu:U, qv:U] | ifp(S; fx:U, fy:U | G(fx, fy) \\/ exists fz:U (S(fx, fz) /\\ G(fz, fy)))(qu, qv)}",
            &mut u,
        )
        .expect("tc query parses");
        rows.push(bench_row(
            "calc_tc_fixpoint",
            &session,
            reps,
            || {
                safe_eval_pooled(&inst, &q, gov, &pool)
                    .expect("tc evaluates")
                    .len()
            },
            || {
                session
                    .plan_calc(&inst, &q, CalcMode::Safe)
                    .and_then(|p| Ok(p.execute(&inst, gov, &pool)?))
                    .expect("tc evaluates")
                    .into_relation()
                    .len()
            },
        ));
    }

    // -- Datalog¬ semi-naive TC over 64 nodes ---------------------------
    {
        let (_u, _order, inst) = graph(64);
        let p = tc_program();
        rows.push(bench_row(
            "datalog_tc_seminaive",
            &session,
            reps,
            || {
                let (idb, _) =
                    nestdb::datalog::eval_pooled(&p, &inst, Strategy::SemiNaive, gov, &pool)
                        .expect("tc evaluates");
                idb["tc"].len()
            },
            || {
                let idb = session
                    .plan_datalog(&inst, &p, DatalogMode::SemiNaive)
                    .and_then(|p| Ok(p.execute(&inst, gov, &pool)?))
                    .expect("tc evaluates")
                    .into_idb();
                idb["tc"].len()
            },
        ));
    }

    // -- algebra powerset of 14 elements (16384 subsets) ----------------
    {
        let inst = elems(14);
        let expr = nestdb::algebra::Expr::rel("E").powerset();
        rows.push(bench_row(
            "algebra_powerset",
            &session,
            reps,
            || {
                nestdb::algebra::eval_pooled(&expr, &inst, gov, &pool)
                    .expect("powerset evaluates")
                    .len()
            },
            || {
                session
                    .plan_algebra(&inst, &expr)
                    .and_then(|p| Ok(p.execute(&inst, gov, &pool)?))
                    .expect("powerset evaluates")
                    .into_relation()
                    .len()
            },
        ));
    }

    // -- the whole data/queries.calc corpus over data/graph.no ----------
    // Cheap queries asked repeatedly: the regime the plan cache targets.
    {
        let data = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../data");
        let db = std::fs::read_to_string(data.join("graph.no")).expect("data/graph.no");
        let mut u = Universe::new();
        let (_schema, inst) =
            nestdb::object::text::parse_database(&db, &mut u).expect("graph.no parses");
        let corpus = std::fs::read_to_string(data.join("queries.calc")).expect("queries.calc");
        let queries: Vec<Query> = corpus
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('%'))
            .map(|l| nestdb::core::parse_query(l, &mut u).expect("corpus query parses"))
            .collect();
        rows.push(bench_row(
            "queries_calc_corpus",
            &session,
            reps,
            || {
                queries
                    .iter()
                    .map(|q| {
                        safe_eval_pooled(&inst, q, gov, &pool)
                            .expect("evaluates")
                            .len()
                    })
                    .sum()
            },
            || {
                queries
                    .iter()
                    .map(|q| {
                        session
                            .plan_calc(&inst, q, CalcMode::Safe)
                            .and_then(|p| Ok(p.execute(&inst, gov, &pool)?))
                            .expect("evaluates")
                            .into_relation()
                            .len()
                    })
                    .sum()
            },
        ));
    }

    let mut json = format!("{{\n  \"host_parallelism\": {host},\n  \"benchmarks\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let speedup = r.tree_walk_ms / r.planned_warm_ms.max(1e-9);
        println!(
            "{:<22} walk {:>9.3} ms   cold {:>9.3} ms   warm {:>9.3} ms   warm-speedup {:>5.2}x   ({} results)",
            r.name, r.tree_walk_ms, r.planned_cold_ms, r.planned_warm_ms, speedup, r.results
        );
        json.push_str(&format!(
            "    {{ \"name\": \"{}\", \"results\": {}, \"tree_walk_ms\": {:.3}, \"planned_cold_ms\": {:.3}, \"planned_warm_ms\": {:.3}, \"warm_speedup\": {:.2} }}{}\n",
            r.name,
            r.results,
            r.tree_walk_ms,
            r.planned_cold_ms,
            r.planned_warm_ms,
            speedup,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write("BENCH_plan.json", &json).expect("write BENCH_plan.json");
    println!("wrote BENCH_plan.json (host_parallelism = {host})");
}
