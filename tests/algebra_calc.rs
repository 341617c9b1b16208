//! The algebra and the calculus compute the same queries — the language
//! equivalence backdrop of Section 1 (algebraic languages [AB87] vs
//! calculus languages), checked operator by operator on random instances.

mod common;

use common::*;
use nestdb::algebra::{self, Expr, Pred};
use nestdb::core::ast::{Formula, Term};
use nestdb::core::eval::{eval_pooled, Query};
use nestdb::object::{Governor, Limits, Type};
use nestdb::ThreadPool;
use proptest::prelude::*;

fn alg(e: &Expr, i: &nestdb::object::Instance) -> nestdb::object::Relation {
    algebra::eval_pooled(e, i, &Governor::default(), &ThreadPool::sequential()).unwrap()
}

fn calc(q: &Query, i: &nestdb::object::Instance) -> nestdb::object::Relation {
    eval_pooled(q, i, &Governor::default(), &ThreadPool::sequential()).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// σ_{1=2}(G) == {[x,x] | G(x,x)} shape.
    #[test]
    fn selection_agrees(edges in edges_strategy(5, 10)) {
        let (_u, _o, i) = graph_instance(5, &edges);
        let a = alg(&Expr::rel("G").select(Pred::EqCols(1, 2)), &i);
        let q = Query::new(
            vec![("x".into(), Type::Atom), ("y".into(), Type::Atom)],
            Formula::and([
                Formula::Rel("G".into(), vec![Term::var("x"), Term::var("y")]),
                Formula::Eq(Term::var("x"), Term::var("y")),
            ]),
        );
        prop_assert_eq!(a, calc(&q, &i));
    }

    /// π_1(G) == {[x] | ∃y G(x,y)}.
    #[test]
    fn projection_agrees(edges in edges_strategy(5, 10)) {
        let (_u, _o, i) = graph_instance(5, &edges);
        let a = alg(&Expr::rel("G").project([1]), &i);
        let q = Query::new(
            vec![("x".into(), Type::Atom)],
            Formula::exists(
                "y",
                Type::Atom,
                Formula::Rel("G".into(), vec![Term::var("x"), Term::var("y")]),
            ),
        );
        prop_assert_eq!(a, calc(&q, &i));
    }

    /// G − G⁻¹ == {[x,y] | G(x,y) ∧ ¬G(y,x)}.
    #[test]
    fn difference_agrees(edges in edges_strategy(5, 10)) {
        let (_u, _o, i) = graph_instance(5, &edges);
        let reversed = Expr::rel("G").project([2, 1]);
        let a = alg(&Expr::rel("G").difference(reversed), &i);
        let q = Query::new(
            vec![("x".into(), Type::Atom), ("y".into(), Type::Atom)],
            Formula::and([
                Formula::Rel("G".into(), vec![Term::var("x"), Term::var("y")]),
                Formula::Rel("G".into(), vec![Term::var("y"), Term::var("x")]).not(),
            ]),
        );
        prop_assert_eq!(a, calc(&q, &i));
    }

    /// ν_2(G) == the Example 5.1 nest query (on sources with successors).
    #[test]
    fn nest_agrees_with_example_5_1(edges in edges_strategy(5, 10)) {
        let (_u, _o, i) = graph_instance(5, &edges);
        let a = alg(&Expr::rel("G").nest(2), &i);
        let q = Query::new(
            vec![("x".into(), Type::Atom), ("s".into(), Type::set(Type::Atom))],
            Formula::and([
                Formula::exists(
                    "z",
                    Type::Atom,
                    Formula::Rel("G".into(), vec![Term::var("x"), Term::var("z")]),
                ),
                Formula::forall(
                    "y",
                    Type::Atom,
                    Formula::Rel("G".into(), vec![Term::var("x"), Term::var("y")])
                        .iff(Formula::In(Term::var("y"), Term::var("s"))),
                ),
            ]),
        );
        let seq = ThreadPool::sequential();
        let by_calc =
            nestdb::core::ranges::safe_eval_pooled(&i, &q, &Governor::default(), &seq).unwrap();
        prop_assert_eq!(a, by_calc);
    }

    /// μ_2(ν_2(G)) == G — unnest inverts nest.
    #[test]
    fn unnest_inverts_nest(edges in edges_strategy(6, 12)) {
        let (_u, _o, i) = graph_instance(6, &edges);
        let round = Expr::rel("G").nest(2).unnest(2);
        prop_assert_eq!(&alg(&round, &i), i.relation("G"));
    }

    /// Powerset == the CALC query enumerating subsets of π_1(G).
    #[test]
    fn powerset_agrees(edges in edges_strategy(4, 6)) {
        let (_u, _o, i) = graph_instance(4, &edges);
        let a = alg(&Expr::rel("G").project([1]).powerset(), &i);
        // {X : {U} | ∀x (x ∈ X → ∃y G(x,y))} restricted to subsets of the
        // source column — same extension as the powerset of sources
        let q = Query::new(
            vec![("X".into(), Type::set(Type::Atom))],
            Formula::forall(
                "x",
                Type::Atom,
                Formula::In(Term::var("x"), Term::var("X")).implies(Formula::exists(
                    "y",
                    Type::Atom,
                    Formula::Rel("G".into(), vec![Term::var("x"), Term::var("y")]),
                )),
            ),
        );
        prop_assert_eq!(a, calc(&q, &i));
    }
}

/// Joins via product + select agree with the two-hop CALC query.
#[test]
fn join_agrees() {
    let (_u, _o, i) = graph_instance(5, &[(0, 1), (1, 2), (2, 3), (1, 3)]);
    let two_hop = Expr::rel("G")
        .product(Expr::rel("G"))
        .select(Pred::EqCols(2, 3))
        .project([1, 4]);
    let a = alg(&two_hop, &i);
    let q = Query::new(
        vec![("x".into(), Type::Atom), ("y".into(), Type::Atom)],
        Formula::exists(
            "z",
            Type::Atom,
            Formula::and([
                Formula::Rel("G".into(), vec![Term::var("x"), Term::var("z")]),
                Formula::Rel("G".into(), vec![Term::var("z"), Term::var("y")]),
            ]),
        ),
    );
    assert_eq!(a, calc(&q, &i));
    assert_eq!(a.len(), 3); // 0→2, 1→3, 0→3
}

/// The conclusion's contrast, measured: TC via IFP succeeds where TC via
/// the powerset operator (powerset + filter for closed supersets) blows
/// the same budget.
#[test]
fn powerset_recursion_blows_budget_where_ifp_does_not() {
    let seq = ThreadPool::sequential();
    let edges: Vec<(usize, usize)> = (0..14).map(|k| (k, (k + 1) % 14)).collect();
    let (_u, _o, i) = graph_instance(14, &edges);
    // IFP: fine
    let ifp = eval_pooled(&tc_query(), &i, &Governor::default(), &seq).unwrap();
    assert_eq!(ifp.len(), 14 * 14);
    // powerset of the 14 source nodes = 2^14 subsets — over a 1000-row budget
    let edge_sets = Expr::rel("G")
        .product(Expr::rel("G"))
        .project([1, 2])
        .nest(2)
        .project([2])
        .powerset();
    let tight = Limits {
        max_range: 1000,
        ..Limits::default()
    };
    match algebra::eval_pooled(&edge_sets, &i, &Governor::new(tight), &seq) {
        Err(nestdb::algebra::AlgebraError::Resource(e)) => {
            assert_eq!(e.budget, nestdb::object::BudgetKind::Range);
        }
        other => panic!("expected a Resource error, got {other:?}"),
    }
}
