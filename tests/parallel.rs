//! Parallel-evaluation guarantees.
//!
//! Two families of tests. First, determinism: every engine's evaluation
//! function, at parallelism 1, 2 and 4, must produce *identical*
//! relations — the work-stealing pool changes wall-clock behaviour, never
//! answers. Second, the shared governor under concurrency: step fuel is
//! conserved across workers, an injected fault fires exactly once no
//! matter how many threads are hammering the governor, and cancellation is
//! observed by every worker.

mod common;

use common::*;
use nestdb::algebra::{Expr, Pred};
use nestdb::core::ranges::safe_eval_pooled;
use nestdb::datalog::{eval_stratified_pooled, DTerm, Literal, Program, Strategy};
use nestdb::object::{BudgetKind, Governor, Instance, Limits, Relation, Type};
use nestdb::{Session, ThreadPool};

/// The Datalog¬ transitive-closure program over `G[U,U]`.
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

/// Edge lists exercising distinct shapes (mirrors the differential suite).
fn graphs() -> Vec<Vec<(usize, usize)>> {
    vec![
        vec![(0, 1), (1, 2), (2, 3)],
        vec![(0, 1), (1, 2), (2, 0)],
        vec![(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)],
        vec![(0, 0), (1, 1), (0, 1)],
        vec![(0, 1), (1, 0), (1, 2), (2, 3), (3, 1), (3, 4), (4, 0)],
    ]
}

/// Algebra expressions covering the parallelised operators and their
/// neighbours.
fn operator_suite() -> Vec<Expr> {
    vec![
        Expr::rel("G"),
        Expr::rel("G").select(Pred::EqCols(1, 2).not()),
        Expr::rel("G").project([2, 1]),
        Expr::rel("G")
            .project([1])
            .product(Expr::rel("G").project([2])),
        Expr::rel("G").difference(Expr::rel("G").project([2, 1])),
        Expr::rel("G").nest(2).unnest(2),
        Expr::rel("G").project([1]).powerset(),
    ]
}

/// Every engine's answer on `inst` at `threads` workers, labelled.
fn every_engine(inst: &Instance, threads: usize) -> Vec<(String, Relation)> {
    let (gov, pool) = (Governor::unlimited(), ThreadPool::new(threads));
    let (q, p) = (tc_query(), tc_program());
    let mut out = vec![
        (
            "calc".into(),
            nestdb::core::eval_pooled(&q, inst, &gov, &pool).unwrap(),
        ),
        (
            "safe".into(),
            safe_eval_pooled(inst, &q, &gov, &pool).unwrap(),
        ),
    ];
    for strategy in [Strategy::Naive, Strategy::SemiNaive] {
        let (idb, _) = nestdb::datalog::eval_pooled(&p, inst, strategy, &gov, &pool).unwrap();
        out.extend(
            idb.into_iter()
                .map(|(r, rel)| (format!("{strategy:?} {r}"), rel)),
        );
    }
    let idb = eval_stratified_pooled(&p, inst, &gov, &pool).unwrap();
    out.extend(
        idb.into_iter()
            .map(|(r, rel)| (format!("stratified {r}"), rel)),
    );
    for e in operator_suite() {
        let rel = nestdb::algebra::eval_pooled(&e, inst, &gov, &pool).unwrap();
        out.push((format!("algebra {e:?}"), rel));
    }
    out
}

#[test]
fn every_engine_agrees_across_parallelism_levels() {
    for edges in graphs() {
        let (_u, _order, inst) = graph_instance(5, &edges);
        let base = every_engine(&inst, 1);
        for threads in [2, 4] {
            let par = every_engine(&inst, threads);
            assert_eq!(par.len(), base.len());
            for ((name, expect), (_, got)) in base.iter().zip(&par) {
                assert_eq!(got, expect, "{name} @{threads}");
            }
        }
    }
}

#[test]
fn step_fuel_is_conserved_across_workers() {
    let g = Governor::new(Limits::unlimited());
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let g = g.clone();
            scope.spawn(move || {
                for _ in 0..1000 {
                    g.tick("parallel.test").unwrap();
                }
            });
        }
    });
    assert_eq!(g.steps_spent(), 4000);
}

#[test]
fn injected_fault_fires_exactly_once_across_workers() {
    // Four workers hammer the same governor; the armed countdown must
    // produce exactly one structured error in total — the nth check
    // fails for exactly one observer, not once per thread.
    let g = Governor::new(Limits::unlimited());
    g.trip_after(500, BudgetKind::Memory);
    let mut trips = 0usize;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let g = g.clone();
                scope.spawn(move || {
                    let mut seen = 0usize;
                    for _ in 0..1000 {
                        if let Err(e) = g.tick("parallel.test") {
                            assert_eq!(e.budget, BudgetKind::Memory);
                            seen += 1;
                        }
                    }
                    seen
                })
            })
            .collect();
        for h in handles {
            trips += h.join().unwrap();
        }
    });
    assert_eq!(trips, 1, "fault must fire exactly once");
}

#[test]
fn cancellation_is_observed_by_every_worker() {
    let g = Governor::new(Limits::unlimited());
    g.cancel();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let g = g.clone();
                scope.spawn(move || match g.tick("parallel.test") {
                    Err(e) => e.budget == BudgetKind::Cancelled,
                    Ok(()) => false,
                })
            })
            .collect();
        for h in handles {
            assert!(h.join().unwrap(), "worker missed the cancellation");
        }
    });
}

#[test]
fn resource_trips_are_structured_at_every_parallelism() {
    // A starvation budget trips at parallelism 1 and 4 alike — possibly at
    // a different site/row, but always as a structured resource error.
    let (_u, _order, inst) = graph_instance(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
    for threads in [1, 4] {
        let gov = Governor::new(Limits {
            max_steps: 25,
            ..Limits::unlimited()
        });
        let pool = ThreadPool::new(threads);
        let err: nestdb::Error =
            nestdb::datalog::eval_pooled(&tc_program(), &inst, Strategy::SemiNaive, &gov, &pool)
                .unwrap_err()
                .into();
        assert!(err.is_resource_trip(), "@{threads}: {err}");
        assert_eq!(err.resource().unwrap().budget, BudgetKind::Steps);
    }
}

#[test]
fn session_reads_thread_count_from_environment() {
    // Builder default comes from NESTDB_THREADS; explicit parallelism wins.
    std::env::set_var(nestdb::session::THREADS_ENV, "3");
    assert_eq!(Session::builder().build().parallelism(), 3);
    assert_eq!(Session::builder().parallelism(2).build().parallelism(), 2);
    std::env::set_var(nestdb::session::THREADS_ENV, "not-a-number");
    assert_eq!(Session::builder().build().parallelism(), 1);
    std::env::remove_var(nestdb::session::THREADS_ENV);
    assert_eq!(Session::builder().build().parallelism(), 1);
}
