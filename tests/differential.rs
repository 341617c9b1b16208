//! Cross-engine differential harness.
//!
//! The repo carries five evaluators of the same query semantics: the
//! active-domain CALC evaluator, the range-restricted safe evaluator
//! (Theorem 5.1), the bottom-up algebra evaluator (translated to CALC via
//! [`nestdb::algebra::to_query`]), and the Datalog¬ strategies (naive,
//! semi-naive, stratified, simultaneous-IFP). Every query expressible in
//! more than one of them is pushed through all of them here and the
//! results must be *identical* — any divergence is a bug in one engine,
//! and the disagreeing pair localises it.
//!
//! The second half repeats the exercise under starvation budgets: all
//! engines must trip with a structured [`ResourceError`] — no panics, no
//! hangs, no engine quietly returning a truncated answer.

mod common;

use common::*;
use nestdb::algebra::{self, AlgebraError, Expr};
use nestdb::core::error::EvalError;
use nestdb::core::eval::{active_order, eval_pooled};
use nestdb::core::print::Printer;
use nestdb::core::ranges::safe_eval_pooled;
use nestdb::datalog::{
    self, eval_simultaneous_pooled, eval_stratified_pooled, DTerm, Literal, Program, ProgramError,
    SimEvalError, Strategy, StratifyError,
};
use nestdb::object::{BudgetKind, Governor, Limits, Relation, Universe, Value};
use nestdb::plan::{CalcMode, PassSet, Planner};
use nestdb::proto::{self, Lang, Mode, Request};
use nestdb::{Response, ThreadPool};
use proptest::prelude::*;

/// The Datalog¬ transitive-closure program over `G[U,U]`.
fn tc_program() -> Program {
    let mut p = Program::new();
    p.declare("tc", vec![nestdb::object::Type::Atom; 2]);
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

/// Edge lists exercising distinct shapes: path, cycle, diamond-with-tail,
/// self-loops, and a dense-ish tangle.
fn graphs() -> Vec<Vec<(usize, usize)>> {
    vec![
        vec![(0, 1), (1, 2), (2, 3)],
        vec![(0, 1), (1, 2), (2, 0)],
        vec![(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)],
        vec![(0, 0), (1, 1), (0, 1)],
        vec![(0, 1), (1, 0), (1, 2), (2, 3), (3, 1), (3, 4), (4, 0)],
    ]
}

/// A suite of algebra expressions covering every operator at least once,
/// as request text.
const OPERATOR_SUITE: &[&str] = &[
    "G",
    "select[eq(1, 2)](G)",
    "select[not(eq(1, 2))](G)",
    "project[1](G)",
    "project[2, 1](G)",
    "(project[1](G) x project[2](G))",
    "(G + project[2, 1](G))",
    "(G - project[2, 1](G))",
    "(G & project[2, 1](G))",
    "nest[2](G)",
    "unnest[2](nest[2](G))",
    "powerset(project[1](G))",
];

/// [`OPERATOR_SUITE`] parsed (no constants, so no atoms to intern).
fn operator_suite() -> Vec<Expr> {
    OPERATOR_SUITE
        .iter()
        .map(|src| algebra::parse_expr(src, &mut Universe::new()).unwrap())
        .collect()
}

/// The text of [`tc_program`].
const TC_SRC: &str = "rel tc(U, U).\ntc(x, y) :- G(x, y).\ntc(x, y) :- tc(x, z), G(z, y).";

/// Every operator, three ways: algebra bottom-up, its CALC translation on
/// the active-domain evaluator, and the same translation through range
/// analysis — pairwise identical on every graph shape.
#[test]
fn algebra_calc_and_rr_agree_on_operator_suite() {
    let seq = ThreadPool::sequential();
    for edges in graphs() {
        let (_u, _o, i) = graph_instance(5, &edges);
        for expr in operator_suite() {
            let a = algebra::eval_pooled(&expr, &i, &Governor::default(), &seq)
                .unwrap_or_else(|e| panic!("algebra failed on {expr:?}: {e}"));
            let q = algebra::to_query(&expr, i.schema()).expect("translatable");
            let c = eval_pooled(&q, &i, &Governor::default(), &seq)
                .unwrap_or_else(|e| panic!("calc failed on {expr:?}: {e}"));
            let r = safe_eval_pooled(&i, &q, &Governor::default(), &seq)
                .unwrap_or_else(|e| panic!("safe_eval failed on {expr:?}: {e}"));
            assert_eq!(a, c, "algebra vs calc on {expr:?} over {edges:?}");
            assert_eq!(c, r, "calc vs safe_eval on {expr:?} over {edges:?}");
        }
    }
}

/// Transitive closure through all five engines that can express recursion:
/// CALC+IFP, safe eval of the same query, and the four Datalog strategies.
#[test]
fn transitive_closure_agrees_across_all_engines() {
    let seq = ThreadPool::sequential();
    for edges in graphs() {
        let (u, _o, i) = graph_instance(5, &edges);
        let q = tc_query();
        let calc = eval_pooled(&q, &i, &Governor::default(), &seq).unwrap();
        let rr = safe_eval_pooled(&i, &q, &Governor::default(), &seq).unwrap();
        assert_eq!(calc, rr, "calc vs safe_eval over {edges:?}");

        let p = tc_program();
        let gov = Governor::unlimited();
        let (naive, _) = datalog::eval_pooled(&p, &i, Strategy::Naive, &gov, &seq).unwrap();
        let (semi, _) = datalog::eval_pooled(&p, &i, Strategy::SemiNaive, &gov, &seq).unwrap();
        let strat = eval_stratified_pooled(&p, &i, &gov, &seq).unwrap();
        let order = active_order(&i, &q);
        let sim = eval_simultaneous_pooled(&p, &[], &i, order, &gov, &seq).unwrap();
        let _ = u;

        assert_eq!(naive["tc"], calc, "naive datalog vs calc over {edges:?}");
        assert_eq!(semi["tc"], calc, "semi-naive vs calc over {edges:?}");
        assert_eq!(strat["tc"], calc, "stratified vs calc over {edges:?}");
        assert_eq!(sim["tc"], calc, "simultaneous vs calc over {edges:?}");
    }
}

/// Negation differential: `G` minus its reverse, as algebra difference, as
/// CALC `∧¬`, and as a stratified Datalog¬ program.
#[test]
fn negation_agrees_across_algebra_calc_and_datalog() {
    let seq = ThreadPool::sequential();
    for edges in graphs() {
        let (_u, _o, i) = graph_instance(5, &edges);
        let expr = Expr::rel("G").difference(Expr::rel("G").project([2, 1]));
        let a = algebra::eval_pooled(&expr, &i, &Governor::default(), &seq).unwrap();
        let q = algebra::to_query(&expr, i.schema()).unwrap();
        let c = eval_pooled(&q, &i, &Governor::default(), &seq).unwrap();

        let mut p = Program::new();
        p.declare("asym", vec![nestdb::object::Type::Atom; 2]);
        p.rule(
            "asym",
            vec![DTerm::var("x"), DTerm::var("y")],
            vec![
                Literal::Pos("G".into(), vec![DTerm::var("x"), DTerm::var("y")]),
                Literal::Neg("G".into(), vec![DTerm::var("y"), DTerm::var("x")]),
            ],
        );
        let d = eval_stratified_pooled(&p, &i, &Governor::unlimited(), &seq).unwrap();

        assert_eq!(a, c, "algebra vs calc over {edges:?}");
        assert_eq!(c, d["asym"], "calc vs datalog over {edges:?}");
    }
}

fn starvation_governor() -> Governor {
    Governor::new(Limits {
        max_steps: 25,
        ..Limits::unlimited()
    })
}

/// Under a starvation step budget every engine trips with a structured
/// resource error: nothing panics, hangs, or silently truncates. (A
/// trivially-small Ok would also be acceptable in principle, but the graph
/// below needs far more than 25 evaluation steps in every engine, so here
/// an Ok would mean the engine stopped counting its work.)
#[test]
fn starved_engines_trip_gracefully_and_none_diverge() {
    let seq = ThreadPool::sequential();
    let edges = vec![(0, 1), (1, 0), (1, 2), (2, 3), (3, 1), (3, 4), (4, 0)];
    let (_u, _o, i) = graph_instance(5, &edges);
    let q = tc_query();
    let p = tc_program();

    let err = {
        let mut ev =
            nestdb::core::eval::Evaluator::new(&i, active_order(&i, &q), starvation_governor());
        ev.query(&q).unwrap_err()
    };
    assert!(matches!(err, EvalError::Resource(_)), "calc: {err}");

    let err = safe_eval_pooled(&i, &q, &starvation_governor(), &seq).unwrap_err();
    assert!(matches!(err, EvalError::Resource(_)), "safe_eval: {err}");

    let expr = Expr::rel("G").product(Expr::rel("G")).nest(4);
    let err = algebra::eval_pooled(&expr, &i, &starvation_governor(), &seq).unwrap_err();
    assert!(matches!(err, AlgebraError::Resource(_)), "algebra: {err}");

    for strategy in [Strategy::Naive, Strategy::SemiNaive] {
        let err = datalog::eval_pooled(&p, &i, strategy, &starvation_governor(), &seq).unwrap_err();
        assert!(
            matches!(err, ProgramError::Resource(_)),
            "{strategy:?}: {err}"
        );
    }

    let err = eval_stratified_pooled(&p, &i, &starvation_governor(), &seq).unwrap_err();
    assert!(
        matches!(err, StratifyError::Program(ProgramError::Resource(_))),
        "stratified: {err}"
    );

    let order = active_order(&i, &q);
    let gov = starvation_governor();
    let err = eval_simultaneous_pooled(&p, &[], &i, order, &gov, &seq).unwrap_err();
    assert!(
        matches!(err, SimEvalError::Eval(EvalError::Resource(_))),
        "simultaneous: {err}"
    );
}

/// A starved engine that trips must leave the shared governor observable:
/// the spent counters reflect work actually done, so a caller can report
/// how far evaluation got. (Regression guard for the accounting rework —
/// interning must not bypass the step meters.)
#[test]
fn starved_engines_report_spent_work() {
    let edges = vec![(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)];
    let (_u, _o, i) = graph_instance(5, &edges);
    let gov = starvation_governor();
    let _ = safe_eval_pooled(&i, &tc_query(), &gov, &ThreadPool::sequential());
    assert!(gov.steps_spent() > 0, "no work was metered");
    // the meter increments before checking, so a trip reads limit + 1
    assert!(gov.steps_spent() <= 26, "budget was overrun");
}

/// The nest query of Example 5.1 through safe eval and through the algebra
/// `nest` operator — set-valued outputs must also be identical, which
/// exercises canonical set form across both pipelines.
#[test]
fn nested_outputs_agree_between_safe_eval_and_algebra() {
    let seq = ThreadPool::sequential();
    let mut u = nestdb::object::Universe::new();
    let (a, b, c) = (u.intern("a"), u.intern("b"), u.intern("c"));
    let schema = nestdb::object::Schema::from_relations([nestdb::object::RelationSchema::new(
        "P",
        vec![nestdb::object::Type::Atom; 2],
    )]);
    let mut i = nestdb::object::Instance::empty(schema);
    for (x, y) in [(a, b), (a, c), (b, b), (b, c)] {
        i.insert("P", vec![Value::Atom(x), Value::Atom(y)]);
    }
    let alg =
        algebra::eval_pooled(&Expr::rel("P").nest(2), &i, &Governor::default(), &seq).unwrap();
    let q = algebra::to_query(&Expr::rel("P").nest(2), i.schema()).unwrap();
    let rr = safe_eval_pooled(&i, &q, &Governor::default(), &seq).unwrap();
    let ad = eval_pooled(&q, &i, &Governor::default(), &seq).unwrap();
    assert_eq!(alg, rr);
    assert_eq!(rr, ad);
    assert!(alg.iter().all(|row| matches!(row[1], Value::Set(_))));
    let _: &Relation = &alg;
}

/// A pool of query sources over `G(U, U)` mixing certified-range-restricted
/// queries with deliberately unrestricted ones, so the soundness property
/// below is exercised on both sides of the certificate.
fn analyzer_query_pool() -> Vec<&'static str> {
    vec![
        // range restricted (the data/queries.calc corpus shapes)
        "{[x:U, y:U] | G(x, y)}",
        "{[x:U, y:U] | G(x, y) /\\ ~G(y, x)}",
        "{[x:U] | exists y:U (G(x, y) /\\ G(y, x))}",
        "{[x:U, s:{U}] | G(x, x) \\/ forall y:U (G(x, y) <-> y in s)}",
        "{[u:U, v:U] | ifp(S; fx:U, fy:U | G(fx, fy) \\/ exists fz:U (S(fx, fz) /\\ G(fz, fy)))(u, v)}",
        "{[p:[U,U]] | G(p.1, p.2) /\\ ~p.1 = p.2}",
        // not range restricted: atom-typed fallback (small active domain)
        "{[x:U, y:U] | ~G(x, y)}",
        // not range restricted: set-typed fallback (powerset-sized domain)
        "{[X:{U}] | X = X}",
        "{[X:{U}] | forall x:U (x in X -> G(x, x))}",
    ]
}

/// The compile-to-plan axis: every engine's planned request must return
/// exactly what its tree-walk request returns — for CALC under both
/// semantics (the analyzer pool covers AD fallbacks, sets, tuples, and
/// fixpoints), the whole algebra operator suite, and all four Datalog¬
/// strategies — at parallelism 1, 2, and 4.
#[test]
fn planned_execution_matches_tree_walk_across_all_engines() {
    let tc = Printer::new().query(&tc_query());
    let mut requests = Vec::new();
    // CALC: the recursive TC query plus the full analyzer pool.
    for src in std::iter::once(tc.as_str()).chain(analyzer_query_pool()) {
        for mode in [Mode::Fast, Mode::Safe] {
            requests.push(Request {
                mode,
                text: src.into(),
                ..Request::default()
            });
        }
    }
    // Algebra: every operator.
    for src in OPERATOR_SUITE {
        requests.push(Request::eval(Lang::Algebra, *src));
    }
    // Datalog¬: all four strategies.
    for strategy in [
        proto::Strategy::Naive,
        proto::Strategy::SemiNaive,
        proto::Strategy::Stratified,
        proto::Strategy::Simultaneous,
    ] {
        requests.push(Request {
            lang: Lang::Datalog,
            strategy,
            text: TC_SRC.into(),
            ..Request::default()
        });
    }
    for threads in [1usize, 2, 4] {
        for edges in graphs() {
            let (u, _o, i) = graph_instance(5, &edges);
            let s = session_over(u, i, threads);
            for walk in &requests {
                let planned = Request {
                    planned: true,
                    ..walk.clone()
                };
                let (walk_out, planned_out) = (s.run(walk), s.run(&planned));
                assert!(walk_out.ok, "{walk:?}: {:?}", walk_out.error);
                assert_eq!(
                    walk_out.relations, planned_out.relations,
                    "planned diverged at {threads} threads on {walk:?}"
                );
            }
        }
    }
}

/// The budget a resource-tripped response names in its message.
fn trip_budget(resp: &Response) -> BudgetKind {
    let err = resp.error.as_ref().expect("expected a resource trip");
    assert!(err.resource_trip, "expected a resource trip, got {err:?}");
    let kinds = [
        BudgetKind::Steps,
        BudgetKind::Range,
        BudgetKind::FixpointIters,
        BudgetKind::Memory,
        BudgetKind::Deadline,
    ];
    kinds
        .into_iter()
        .find(|k| err.message.contains(&format!("{k} budget exhausted")))
        .unwrap_or(BudgetKind::Cancelled)
}

/// Under starvation the planned path must trip exactly like the tree-walk
/// path. With passes disabled the physical plan *is* the tree-walk
/// invocation, so both the budget kind and the metered step count must be
/// bit-identical; with the full pass set the plan may do strictly less
/// work, but any failure must still be the same structured resource trip.
#[test]
fn planned_execution_trips_identically_under_starvation() {
    let edges = vec![(0, 1), (1, 0), (1, 2), (2, 3), (3, 1), (3, 4), (4, 0)];
    let (u, _o, i) = graph_instance(5, &edges);
    let q = tc_query();
    let pool = ThreadPool::sequential();
    let s = session_over(u, i.clone(), 1);
    let tc = Request {
        mode: Mode::Safe,
        text: Printer::new().query(&q),
        ..Request::default()
    };

    // tree-walk baseline
    let walk_gov = starvation_governor();
    let walk_trip = trip_budget(&s.run_governed(&tc, walk_gov.clone()));

    // planned, no passes: identical accounting, step for step
    let plan_gov = starvation_governor();
    let planned = Planner::new(i.schema())
        .with_passes(PassSet::none())
        .plan_calc(&q, CalcMode::Safe)
        .unwrap();
    let plan_err = planned.execute(&i, &plan_gov, &pool).unwrap_err();
    let plan_trip = plan_err.resource().expect("planned path must trip too");
    assert_eq!(plan_trip.budget, walk_trip, "budget kinds differ");
    assert_eq!(
        plan_gov.steps_spent(),
        walk_gov.steps_spent(),
        "planned (no passes) must meter exactly the tree-walk steps"
    );

    // planned, full pass set: still a structured trip of the same kind
    let planned = Request {
        planned: true,
        ..tc.clone()
    };
    let opt_trip = trip_budget(&s.run_governed(&planned, starvation_governor()));
    assert_eq!(opt_trip, walk_trip);

    // datalog: the planned semi-naive path is the same engine invocation
    let walk = Request {
        lang: Lang::Datalog,
        strategy: proto::Strategy::SemiNaive,
        text: TC_SRC.into(),
        ..Request::default()
    };
    let walk_gov = starvation_governor();
    let walk_trip = trip_budget(&s.run_governed(&walk, walk_gov.clone()));
    let planned = Request {
        planned: true,
        ..walk
    };
    let plan_gov = starvation_governor();
    let trip = trip_budget(&s.run_governed(&planned, plan_gov.clone()));
    assert_eq!(trip, walk_trip);
    assert_eq!(plan_gov.steps_spent(), walk_gov.steps_spent());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Certificate soundness (the analyzer's core contract): a query the
    /// analyzer certifies `is_rr_safe` evaluates under safe (range-
    /// restricted) evaluation without ever hitting a range-restriction
    /// failure — no `RangeTooLarge`, no `UnboundVariable`, no shape error —
    /// on any instance, even with a range budget too small for domain
    /// fallback. Contrapositively, any query that does trip `RangeTooLarge`
    /// must be one the analyzer declined to certify.
    #[test]
    fn rr_certificates_are_sound(edges in edges_strategy(5, 12), qi in 0usize..9) {
        let src = analyzer_query_pool()[qi];
        let (mut u, _o, i) = graph_instance(5, &edges);
        let analysis = nestdb::analysis::analyze_calc(i.schema(), src, &mut u);
        prop_assert!(!analysis.has_errors(), "pool query rejected: {:?}", analysis.diagnostics);

        let q = nestdb::core::parse_query(src, &mut u).expect("pool queries parse");
        // dom({U}, 5) = 32 > 16, so an unrestricted set variable cannot be
        // enumerated — but 16 still covers the 5-atom active domain.
        let limits = Limits {
            max_range: 16,
            ..Limits::default()
        };
        match safe_eval_pooled(&i, &q, &Governor::new(limits), &ThreadPool::sequential()) {
            Ok(_) => {}
            // A governor budget trip is not a soundness failure: the
            // certificate promises freedom from range-restriction errors,
            // not that evaluation is cheap.
            Err(EvalError::Resource(_)) => {}
            Err(e @ (EvalError::RangeTooLarge { .. }
                   | EvalError::UnboundVariable(_)
                   | EvalError::ShapeError(_))) => {
                prop_assert!(
                    !analysis.is_rr_safe(),
                    "analyzer certified {src} RR-safe but safe evaluation failed: {e}"
                );
            }
            Err(other) => panic!("{src}: unexpected evaluation failure: {other}"),
        }
    }
}
