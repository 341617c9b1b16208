//! Deterministic fault injection across every evaluator.
//!
//! `Governor::trip_after(n, kind)` arms a countdown that makes the *n*-th
//! governor check fail with the designated budget, regardless of real
//! consumption. These tests drive each engine entry point — CALC
//! active-domain and range-restricted evaluation, IFP and PFP fixpoints,
//! all four Datalog strategies, the algebra (including powerset), and the
//! TM runner plus its relational simulation — with faults armed at several
//! depths and for every budget kind, asserting that the engine always
//! surfaces a structured [`ResourceError`] (never a panic) naming the
//! injected budget.

mod common;

use common::*;
use nestdb::algebra::{self, AlgebraError, Expr};
use nestdb::core::ast::{FixOp, Fixpoint, Formula, Term};
use nestdb::core::eval::{Evaluator, Query};
use nestdb::core::ranges::safe_eval_pooled;
use nestdb::core::EvalError;
use nestdb::datalog::{
    eval_pooled, eval_simultaneous_pooled, eval_stratified_pooled, DTerm, Literal, Program,
    ProgramError, SimEvalError, Strategy, StratifyError,
};
use nestdb::object::{BudgetKind, Governor, ResourceError, Type};
use nestdb::tm::sim::{simulate_on_instance_governed, SimError};
use nestdb::tm::{machines, TmError};
use nestdb::ThreadPool;
use std::sync::Arc;

/// The four budget kinds a fault can impersonate (Range and FixpointIters
/// trips are exercised by each engine's own unit tests with real limits).
const KINDS: [BudgetKind; 4] = [
    BudgetKind::Steps,
    BudgetKind::Memory,
    BudgetKind::Deadline,
    BudgetKind::Cancelled,
];

/// Drive `run` with a fault armed at several depths and every budget kind.
///
/// A fault at depth 1 fires on the engine's very first governor check, so
/// the run *must* fail; deeper faults may fall past the end of a short run,
/// in which case completing normally is the correct behaviour. Whenever the
/// run does fail, the error must be the structured [`ResourceError`] of the
/// injected kind — reaching this assertion at all proves the engine did not
/// panic and unwound cleanly through its own state.
fn assert_degrades_gracefully<T>(
    engine: &str,
    run: impl Fn(&Governor) -> Result<T, ResourceError>,
) {
    for kind in KINDS {
        for depth in [1u64, 2, 3, 7, 20] {
            let g = Governor::unlimited();
            g.trip_after(depth, kind);
            match run(&g) {
                Err(e) => {
                    assert_eq!(e.budget, kind, "{engine}: wrong budget at depth {depth}");
                    assert!(!e.site.is_empty(), "{engine}: empty site at depth {depth}");
                }
                Ok(_) => {
                    assert!(
                        depth > 1,
                        "{engine}: depth-1 fault must fire on the first check"
                    );
                }
            }
            g.clear_fault();
            // The governor itself survives the trip: a fresh call succeeds.
            g.checkpoint("post").expect("cleared governor is usable");
        }
    }
}

fn resource(e: EvalError) -> ResourceError {
    match e {
        EvalError::Resource(r) => r,
        other => panic!("expected structured resource error, got {other:?}"),
    }
}

fn dl_resource(e: ProgramError) -> ResourceError {
    match e {
        ProgramError::Resource(r) => r,
        other => panic!("expected structured resource error, got {other:?}"),
    }
}

fn test_edges() -> Vec<(usize, usize)> {
    vec![(0, 1), (1, 2), (2, 3), (3, 0), (1, 3)]
}

fn tc_program() -> Program {
    let mut p = Program::new();
    p.declare("tc", vec![Type::Atom, Type::Atom]);
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

#[test]
fn calc_active_domain_degrades_gracefully() {
    let (_u, order, i) = graph_instance(4, &test_edges());
    let q = Query::new(
        vec![("x".into(), Type::Atom), ("y".into(), Type::Atom)],
        Formula::and([
            Formula::Rel("G".into(), vec![Term::var("x"), Term::var("y")]),
            Formula::Not(Box::new(Formula::Rel(
                "G".into(),
                vec![Term::var("y"), Term::var("x")],
            ))),
        ]),
    );
    assert_degrades_gracefully("calc-ad", |g| {
        let mut ev = Evaluator::new(&i, order.clone(), g.clone());
        ev.query(&q).map_err(resource)
    });
}

#[test]
fn calc_range_restricted_degrades_gracefully() {
    let (_u, _order, i) = graph_instance(4, &test_edges());
    assert_degrades_gracefully("calc-rr", |g| {
        safe_eval_pooled(&i, &tc_query(), g, &ThreadPool::sequential()).map_err(resource)
    });
}

#[test]
fn ifp_fixpoint_degrades_gracefully() {
    let (_u, order, i) = graph_instance(4, &test_edges());
    let fix = tc_fixpoint();
    assert_degrades_gracefully("ifp", |g| {
        let mut ev = Evaluator::new(&i, order.clone(), g.clone());
        ev.eval_fixpoint(&fix).map_err(resource)
    });
}

#[test]
fn pfp_fixpoint_degrades_gracefully() {
    let (_u, order, i) = graph_instance(4, &test_edges());
    // A monotone PFP body: converges to TC, exercising the PFP loop.
    let ifp = tc_fixpoint();
    let fix = Arc::new(Fixpoint {
        op: FixOp::Pfp,
        rel: ifp.rel.clone(),
        vars: ifp.vars.clone(),
        body: ifp.body.clone(),
    });
    assert_degrades_gracefully("pfp", |g| {
        let mut ev = Evaluator::new(&i, order.clone(), g.clone());
        ev.eval_fixpoint(&fix).map_err(resource)
    });
}

#[test]
fn datalog_naive_degrades_gracefully() {
    let (_u, _order, i) = graph_instance(4, &test_edges());
    let p = tc_program();
    assert_degrades_gracefully("datalog-naive", |g| {
        eval_pooled(&p, &i, Strategy::Naive, g, &ThreadPool::sequential()).map_err(dl_resource)
    });
}

#[test]
fn datalog_semi_naive_degrades_gracefully() {
    let (_u, _order, i) = graph_instance(4, &test_edges());
    let p = tc_program();
    assert_degrades_gracefully("datalog-semi-naive", |g| {
        eval_pooled(&p, &i, Strategy::SemiNaive, g, &ThreadPool::sequential()).map_err(dl_resource)
    });
}

#[test]
fn datalog_stratified_degrades_gracefully() {
    let (_u, _order, i) = graph_instance(4, &test_edges());
    // Two strata: tc, then its complement (negation forces stratification).
    let mut p = tc_program();
    p.declare("untc", vec![Type::Atom, Type::Atom]);
    p.rule(
        "untc",
        vec![DTerm::var("x"), DTerm::var("y")],
        vec![
            Literal::Pos("G".into(), vec![DTerm::var("x"), DTerm::var("y")]),
            Literal::Neg("tc".into(), vec![DTerm::var("y"), DTerm::var("x")]),
        ],
    );
    assert_degrades_gracefully("datalog-stratified", |g| {
        eval_stratified_pooled(&p, &i, g, &ThreadPool::sequential()).map_err(|e| match e {
            StratifyError::Program(pe) => dl_resource(pe),
            other => panic!("expected structured resource error, got {other:?}"),
        })
    });
}

#[test]
fn datalog_simultaneous_degrades_gracefully() {
    let (_u, order, i) = graph_instance(4, &test_edges());
    let p = tc_program();
    assert_degrades_gracefully("datalog-simultaneous", |g| {
        eval_simultaneous_pooled(
            &p,
            &[("z", Type::Atom)],
            &i,
            order.clone(),
            g,
            &ThreadPool::sequential(),
        )
        .map_err(|e| match e {
            SimEvalError::Eval(ee) => resource(ee),
            other => panic!("expected structured resource error, got {other:?}"),
        })
    });
}

#[test]
fn algebra_powerset_degrades_gracefully() {
    let (_u, _order, i) = graph_instance(4, &test_edges());
    let expr = Expr::rel("G").project([1]).powerset();
    assert_degrades_gracefully("algebra", |g| {
        algebra::eval_pooled(&expr, &i, g, &ThreadPool::sequential()).map_err(|e| match e {
            AlgebraError::Resource(r) => r,
            other => panic!("expected structured resource error, got {other:?}"),
        })
    });
}

/// The planned execution path threads the same governor through the same
/// kernels, so an armed fault must surface as the same structured error
/// regardless of which front-end compiled the plan.
#[test]
fn planned_execution_degrades_gracefully() {
    use nestdb::plan::{CalcMode, DatalogMode, PlanError, Planner};
    let (_u, _order, i) = graph_instance(4, &test_edges());
    let pool = minipool::ThreadPool::sequential();
    let plan_resource = |e: PlanError| match e.resource() {
        Some(r) => r.clone(),
        None => panic!("expected structured resource error, got {e:?}"),
    };

    let planner = Planner::new(i.schema()).with_instance(&i);
    let calc_ad = planner
        .plan_calc(&tc_query(), CalcMode::ActiveDomain)
        .unwrap();
    assert_degrades_gracefully("planned-calc-ad", |g| {
        calc_ad.execute(&i, g, &pool).map_err(plan_resource)
    });

    let calc_safe = planner.plan_calc(&tc_query(), CalcMode::Safe).unwrap();
    assert_degrades_gracefully("planned-calc-rr", |g| {
        calc_safe.execute(&i, g, &pool).map_err(plan_resource)
    });

    let algebra = planner
        .plan_algebra(&Expr::rel("G").project([1]).powerset())
        .unwrap();
    assert_degrades_gracefully("planned-algebra", |g| {
        algebra.execute(&i, g, &pool).map_err(plan_resource)
    });

    let p = tc_program();
    for (label, mode) in [
        ("planned-datalog-naive", DatalogMode::Naive),
        ("planned-datalog-semi-naive", DatalogMode::SemiNaive),
        ("planned-datalog-stratified", DatalogMode::Stratified),
        (
            "planned-datalog-simultaneous",
            DatalogMode::Simultaneous(vec![("z".to_string(), Type::Atom)]),
        ),
    ] {
        let planned = planner.plan_datalog(&p, mode).unwrap();
        assert_degrades_gracefully(label, |g| {
            planned.execute(&i, g, &pool).map_err(plan_resource)
        });
    }
}

/// Every columnar join algorithm unwinds cleanly through the kernel,
/// sequential and threaded: the depth-1 fault fires on the `exec.start`
/// checkpoint, deeper ones inside scan/build/probe metering.
#[test]
fn exec_kernels_degrade_gracefully() {
    use nestdb::exec::{execute, ExecOp, ExecPlan, JoinAlgo};
    let (_u, _order, i) = graph_instance(4, &test_edges());
    for algo in [
        JoinAlgo::NestedLoop,
        JoinAlgo::Hash { build_left: true },
        JoinAlgo::Hash { build_left: false },
        JoinAlgo::Merge,
    ] {
        let mut p = ExecPlan::new();
        let l = p.push(ExecOp::Scan { rel: "G".into() });
        let r = p.push(ExecOp::Scan { rel: "G".into() });
        p.push(ExecOp::Join {
            left: l,
            right: r,
            keys: vec![(1, 0)],
            algo,
        });
        for threads in [1usize, 4] {
            let pool = minipool::ThreadPool::new(threads);
            assert_degrades_gracefully(&format!("exec-{}-t{threads}", algo.label()), |g| {
                execute(&p, &i, g, &pool)
            });
        }
    }
}

#[test]
fn tm_run_degrades_gracefully() {
    let machine = machines::binary_increment();
    assert_degrades_gracefully("tm-run", |g| {
        machine.run_governed("1011", g).map_err(|e| match e {
            TmError::Resource(r) => r,
            other => panic!("expected structured resource error, got {other:?}"),
        })
    });
}

#[test]
fn tm_relational_sim_degrades_gracefully() {
    let (_u, order, i) = graph_instance(3, &[(0, 1), (1, 2)]);
    let machine = machines::identity();
    assert_degrades_gracefully("tm-sim", |g| {
        simulate_on_instance_governed(&machine, &order, &i, 3, g).map_err(|e| match e {
            SimError::Resource(r) => r,
            other => panic!("expected structured resource error, got {other:?}"),
        })
    });
}
