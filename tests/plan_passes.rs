//! Per-pass equivalence: every optimizer pass is individually inert.
//!
//! For each pass the planner can run, the planned result with the *full*
//! pass set, the planned result with that one pass disabled, and the legacy
//! tree-walk result must all be identical. This localises optimizer bugs
//! to a single pass: if the full pipeline diverges from the tree-walk but
//! every leave-one-out pipeline agrees, the interaction is at fault; if
//! exactly one leave-one-out set diverges, the disabled pass was masking a
//! bug in another.
//!
//! The query corpus is shared with the differential harness: the analyzer
//! pool (AD fallbacks, sets, tuples, fixpoints) for CALC under both
//! semantics, the full operator suite for the algebra, and the
//! transitive-closure program for Datalog¬ — where disabling the delta
//! pass legitimately downgrades a semi-naive request to naive evaluation,
//! which must still compute the same fixpoint.

mod common;

use common::*;
use nestdb::algebra::{Expr, Pred};
use nestdb::core::eval::eval_pooled;
use nestdb::core::ranges::safe_eval_pooled;
use nestdb::datalog::{DTerm, Literal, Program};
use nestdb::object::{Governor, Instance, Relation, Type};
use nestdb::plan::{CalcMode, DatalogMode, Pass, PassSet, Planner};
use nestdb::ThreadPool;
use proptest::prelude::*;

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

/// Query sources shared with the differential harness: certified
/// range-restricted shapes plus deliberate active-domain fallbacks, with a
/// constant-pin query appended so the pushdown pass has something to pin.
fn calc_pool() -> Vec<&'static str> {
    vec![
        "{[x:U, y:U] | G(x, y)}",
        "{[x:U, y:U] | G(x, y) /\\ ~G(y, x)}",
        "{[x:U] | exists y:U (G(x, y) /\\ G(y, x))}",
        "{[x:U, s:{U}] | G(x, x) \\/ forall y:U (G(x, y) <-> y in s)}",
        "{[u:U, v:U] | ifp(S; fx:U, fy:U | G(fx, fy) \\/ exists fz:U (S(fx, fz) /\\ G(fz, fy)))(u, v)}",
        "{[p:[U,U]] | G(p.1, p.2) /\\ ~p.1 = p.2}",
        "{[x:U, y:U] | ~G(x, y)}",
        "{[X:{U}] | forall x:U (x in X -> G(x, x))}",
        "{[x:U, y:U] | G(x, y) /\\ x = 'a0'}",
    ]
}

fn algebra_suite() -> Vec<Expr> {
    vec![
        Expr::rel("G").select(Pred::EqCols(1, 2).not()),
        Expr::rel("G").project([2, 1]),
        Expr::rel("G")
            .project([1])
            .product(Expr::rel("G").project([2]))
            .select(Pred::EqCols(1, 2)),
        Expr::rel("G")
            .union(Expr::rel("G").project([2, 1]))
            .select(Pred::EqCols(1, 2)),
        Expr::rel("G")
            .difference(Expr::rel("G").project([2, 1]))
            .select(Pred::EqCols(1, 2).not()),
        Expr::rel("G").nest(2).unnest(2),
        Expr::rel("G").project([1]).powerset(),
    ]
}

/// Execute `planned` sequentially under an unlimited governor.
fn run_plan(planned: &nestdb::plan::Planned, i: &Instance) -> Relation {
    let pool = minipool::ThreadPool::sequential();
    planned
        .execute(i, &Governor::unlimited(), &pool)
        .expect("planned execution succeeds")
        .into_relation()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// CALC, both semantics: full pipeline ≡ each leave-one-out pipeline
    /// ≡ tree-walk, on random graphs over the whole query pool.
    #[test]
    fn calc_passes_are_individually_inert(edges in edges_strategy(5, 12), qi in 0usize..9) {
        let seq = ThreadPool::sequential();
        let (mut u, _o, i) = graph_instance(5, &edges);
        let q = nestdb::core::parse_query(calc_pool()[qi], &mut u).expect("pool queries parse");
        for (mode, walk) in [
            (CalcMode::ActiveDomain, eval_pooled(&q, &i, &Governor::default(), &seq).unwrap()),
            (CalcMode::Safe, safe_eval_pooled(&i, &q, &Governor::default(), &seq).unwrap()),
        ] {
            let full = Planner::new(i.schema())
                .with_instance(&i)
                .plan_calc(&q, mode)
                .unwrap();
            prop_assert_eq!(&run_plan(&full, &i), &walk, "full pipeline vs tree-walk ({:?})", mode);
            for pass in Pass::ALL {
                let without = Planner::new(i.schema())
                    .with_instance(&i)
                    .with_passes(PassSet::all().without(pass))
                    .plan_calc(&q, mode)
                    .unwrap();
                prop_assert_eq!(
                    &run_plan(&without, &i),
                    &walk,
                    "disabling {} changed the answer ({:?})",
                    pass.name(),
                    mode
                );
            }
        }
    }

    /// Algebra: the pushdown rewrite (and every other pass) preserves the
    /// operator suite's results exactly.
    #[test]
    fn algebra_passes_are_individually_inert(edges in edges_strategy(5, 12), ei in 0usize..7) {
        let (_u, _o, i) = graph_instance(5, &edges);
        let expr = &algebra_suite()[ei];
        let seq = ThreadPool::sequential();
        let walk = nestdb::algebra::eval_pooled(expr, &i, &Governor::default(), &seq)
            .expect("tree-walk algebra succeeds");
        let full = Planner::new(i.schema())
            .with_instance(&i)
            .plan_algebra(expr)
            .unwrap();
        prop_assert_eq!(&run_plan(&full, &i), &walk, "full pipeline vs tree-walk");
        for pass in Pass::ALL {
            let without = Planner::new(i.schema())
                .with_instance(&i)
                .with_passes(PassSet::all().without(pass))
                .plan_algebra(expr)
                .unwrap();
            prop_assert_eq!(
                &run_plan(&without, &i),
                &walk,
                "disabling {} changed the answer",
                pass.name()
            );
        }
    }

    /// Datalog¬: a semi-naive plan with any single pass disabled computes
    /// the same fixpoint as the naive tree-walk — including the delta pass,
    /// whose removal downgrades the plan to naive evaluation.
    #[test]
    fn datalog_passes_are_individually_inert(edges in edges_strategy(5, 12)) {
        let (_u, _o, i) = graph_instance(5, &edges);
        let p = tc_program();
        let pool = minipool::ThreadPool::sequential();
        let naive = nestdb::datalog::Strategy::Naive;
        let (walk, _) =
            nestdb::datalog::eval_pooled(&p, &i, naive, &Governor::unlimited(), &pool).unwrap();
        for passes in std::iter::once(PassSet::all()).chain(Pass::ALL.map(|p| PassSet::all().without(p))) {
            let planned = Planner::new(i.schema())
                .with_instance(&i)
                .with_passes(passes)
                .plan_datalog(&p, DatalogMode::SemiNaive)
                .unwrap();
            let idb = planned
                .execute(&i, &Governor::unlimited(), &pool)
                .expect("planned datalog succeeds")
                .into_idb();
            prop_assert_eq!(&idb["tc"], &walk["tc"]);
        }
    }
}
