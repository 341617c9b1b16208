//! The two execution paths behind `Session::run` must agree: for every
//! engine, CALC mode, and Datalog¬ strategy, a planned request
//! (`planned: true`, compiled through the plan cache) returns exactly the
//! rows — and for Datalog the rounds — of the same request walked by the
//! engine directly. Every response (rows, rounds, Checked analysis, explain
//! text and JSON) is also identical at parallelism 1, 2, and 4.

use nestdb::object::{RelationSchema, Schema, Type, Universe, Value};
use nestdb::plan::{CalcMode, DatalogMode};
use nestdb::proto::{Lang, Mode, Op, Request, Response, Strategy};
use nestdb::{Session, Store};
use std::sync::{Arc, RwLock};

const EDGES: &[(&str, &str)] = &[("a", "b"), ("b", "c"), ("c", "a"), ("a", "d")];
const CALC_QUERIES: &[&str] = &["{[x:U, y:U] | G(x, y)}", "{[x:U] | exists y:U (G(x, y))}"];
const TC_SRC: &str = "rel tc(U, U).\ntc(x, y) :- G(x, y).\ntc(x, y) :- tc(x, z), G(z, y).";
const ALGEBRA_SRC: &str = "select[eq(2, 3)]((G x G))";

fn graph_session(parallelism: usize) -> Session {
    let mut u = Universe::new();
    let schema = Schema::from_relations([RelationSchema::new("G", vec![Type::Atom, Type::Atom])]);
    let mut i = nestdb::object::Instance::empty(schema);
    for (a, b) in EDGES {
        let (a, b) = (u.intern(a), u.intern(b));
        i.insert("G", vec![Value::Atom(a), Value::Atom(b)]);
    }
    Session::builder()
        .store(Arc::new(RwLock::new(Store::with_data(u, i))))
        .parallelism(parallelism)
        .build()
}

fn eval_request(lang: Lang, mode: Mode, strategy: Strategy, text: &str) -> Request {
    Request {
        lang,
        mode,
        strategy,
        text: text.to_string(),
        ..Request::default()
    }
}

/// `req` on a fresh graph session at 1, 2, and 4 workers: the responses
/// must be identical apart from their spend, which carries wall time.
fn at_every_parallelism(req: &Request) -> Response {
    let run = |threads| Response {
        spend: None,
        ..graph_session(threads).run(req)
    };
    let base = run(1);
    for threads in [2, 4] {
        assert_eq!(run(threads), base, "{req:?} at {threads} threads");
    }
    base
}

/// `req` tree-walk and planned: both succeed with the same rows and
/// rounds (and the same analysis, for Checked). Returns the tree-walk
/// response.
fn planned_matches_tree_walk(req: Request) -> Response {
    let walk = at_every_parallelism(&req);
    let planned = at_every_parallelism(&Request {
        planned: true,
        ..req.clone()
    });
    assert!(walk.ok, "{req:?}: {:?}", walk.error);
    assert!(planned.ok, "{req:?} planned: {:?}", planned.error);
    assert_eq!(walk.relations, planned.relations, "{req:?}");
    assert_eq!(walk.rounds, planned.rounds, "{req:?}");
    assert_eq!(walk.analysis, planned.analysis, "{req:?}");
    walk
}

#[test]
fn calc_planned_matches_tree_walk_in_fast_and_safe_mode() {
    for src in CALC_QUERIES {
        for mode in [Mode::Fast, Mode::Safe] {
            let resp =
                planned_matches_tree_walk(eval_request(Lang::Calc, mode, Strategy::default(), src));
            assert!(!resp.relations[0].rows.is_empty(), "{src}");
        }
    }
}

#[test]
fn checked_calc_planned_matches_tree_walk() {
    let resp = planned_matches_tree_walk(eval_request(
        Lang::Calc,
        Mode::Checked,
        Strategy::default(),
        CALC_QUERIES[0],
    ));
    // Checked responses carry the analysis alongside the rows
    let analysis = resp.analysis.as_ref().expect("checked carries analysis");
    assert!(analysis.certified);
    assert_eq!(analysis.errors, 0);
}

#[test]
fn datalog_planned_matches_tree_walk_under_every_strategy() {
    for strategy in [
        Strategy::Naive,
        Strategy::SemiNaive,
        Strategy::Stratified,
        Strategy::Simultaneous,
    ] {
        let resp = planned_matches_tree_walk(eval_request(
            Lang::Datalog,
            Mode::default(),
            strategy,
            TC_SRC,
        ));
        assert_eq!(resp.relations[0].name, "tc");
        // the round-based strategies report their rounds, the others none
        let rounds = matches!(strategy, Strategy::Naive | Strategy::SemiNaive);
        assert_eq!(resp.rounds.is_some(), rounds, "{strategy:?}");
    }
}

#[test]
fn algebra_planned_matches_tree_walk() {
    let resp = planned_matches_tree_walk(eval_request(
        Lang::Algebra,
        Mode::default(),
        Strategy::default(),
        ALGEBRA_SRC,
    ));
    assert!(
        !resp.relations[0].rows.is_empty(),
        "the join must produce rows"
    );
}

#[test]
fn analyze_responses_match_the_analyzer_at_every_parallelism() {
    // one clean query, one with diagnostics, plus the Datalog analyzer
    let cases = [
        (Lang::Calc, CALC_QUERIES[0]),
        (Lang::Calc, "{[x:U] | forall y:U (G(x, y))}"),
        (Lang::Datalog, TC_SRC),
    ];
    for (lang, src) in cases {
        let resp = at_every_parallelism(&Request {
            op: Op::Analyze,
            lang,
            text: src.to_string(),
            ..Request::default()
        });
        assert!(resp.ok, "{:?}", resp.error);
        let direct = {
            let session = graph_session(1);
            let store = session.store();
            let mut guard = store.write().unwrap();
            let schema = guard.instance().schema().clone();
            match lang {
                Lang::Calc => nestdb::analysis::analyze_calc(&schema, src, guard.universe_mut()),
                _ => nestdb::analysis::analyze_datalog(&schema, src, guard.universe_mut()),
            }
        };
        let out = resp.analysis.as_ref().unwrap();
        assert_eq!(out.text, direct.render(src));
        assert_eq!(out.json, direct.to_json());
        assert_eq!(out.certified, direct.certificate.is_some());
    }
}

#[test]
fn explain_responses_match_the_plans_at_every_parallelism() {
    let session = graph_session(1);
    let store = session.store();
    let (query, expr, program) = {
        let mut guard = store.write().unwrap();
        let u = guard.universe_mut();
        (
            nestdb::core::parse_query(CALC_QUERIES[0], u).unwrap(),
            nestdb::algebra::parse_expr(ALGEBRA_SRC, u).unwrap(),
            nestdb::datalog::parse_program(TC_SRC, u).unwrap(),
        )
    };
    let guard = store.read().unwrap();
    let i = guard.instance();
    let cases = [
        (
            eval_request(Lang::Calc, Mode::Fast, Strategy::default(), CALC_QUERIES[0]),
            session.plan_calc(i, &query, CalcMode::ActiveDomain),
        ),
        (
            eval_request(Lang::Calc, Mode::Safe, Strategy::default(), CALC_QUERIES[0]),
            session.plan_calc(i, &query, CalcMode::Safe),
        ),
        (
            eval_request(
                Lang::Algebra,
                Mode::default(),
                Strategy::default(),
                ALGEBRA_SRC,
            ),
            session.plan_algebra(i, &expr),
        ),
        (
            eval_request(Lang::Datalog, Mode::default(), Strategy::SemiNaive, TC_SRC),
            session.plan_datalog(i, &program, DatalogMode::SemiNaive),
        ),
    ];
    for (req, plan) in cases {
        let resp = at_every_parallelism(&Request {
            op: Op::Explain,
            ..req
        });
        assert!(resp.ok, "{:?}", resp.error);
        let (out, plan) = (resp.explain.as_ref().unwrap(), plan.unwrap());
        assert_eq!(out.text, plan.render_text());
        assert_eq!(out.json, plan.render_json());
    }
}
