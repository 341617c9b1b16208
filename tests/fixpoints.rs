//! Fixpoint semantics across the stack: the CALC `IFP` operator, the
//! Datalog engine, and a reference algorithm must all compute the same
//! transitive closures on random graphs; `PFP` agrees with `IFP` on
//! monotone bodies; the inflationary sequence is genuinely increasing.

mod common;

use common::*;
use nestdb::core::ast::{FixOp, Fixpoint, Formula, Term};
use nestdb::core::eval::{eval_pooled, Query};
use nestdb::datalog::{DTerm, Literal, Program, Strategy};
use nestdb::object::Governor;
use nestdb::object::{Type, Value};
use nestdb::ThreadPool;
use proptest::prelude::*;
use std::sync::Arc;

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// IFP-TC == Datalog-TC (both strategies) == reference closure.
    #[test]
    fn all_engines_agree_on_transitive_closure(edges in edges_strategy(6, 14)) {
        let seq = ThreadPool::sequential();
        let n = 6;
        let (_u, _order, i) = graph_instance(n, &edges);
        let expect = reference_tc(n, &edges);

        let calc = eval_pooled(&tc_query(), &i, &Governor::default(), &seq).unwrap();
        prop_assert_eq!(calc.len(), expect.len());
        for &(a, b) in &expect {
            prop_assert!(calc.contains(&[
                Value::Atom(nestdb::object::Atom(a as u32)),
                Value::Atom(nestdb::object::Atom(b as u32))
            ]));
        }

        let run = |strategy| {
            nestdb::datalog::eval_pooled(&tc_program(), &i, strategy, &Governor::default(), &seq)
                .unwrap()
                .0
        };
        let (naive, semi) = (run(Strategy::Naive), run(Strategy::SemiNaive));
        prop_assert_eq!(&naive["tc"], &semi["tc"]);
        prop_assert_eq!(naive["tc"].len(), expect.len());
    }

    /// The translated Datalog program agrees with the CALC evaluator.
    #[test]
    fn datalog_translation_agrees(edges in edges_strategy(5, 10)) {
        let seq = ThreadPool::sequential();
        let (_u, _order, i) = graph_instance(5, &edges);
        let fix = nestdb::datalog::to_ifp(&tc_program(), &[("z", Type::Atom)]).unwrap();
        let q = Query::new(
            vec![("qu".into(), Type::Atom), ("qv".into(), Type::Atom)],
            Formula::FixApp(fix, vec![Term::var("qu"), Term::var("qv")]),
        );
        let by_translation = eval_pooled(&q, &i, &Governor::default(), &seq).unwrap();
        let (idb, _) = nestdb::datalog::eval_pooled(
            &tc_program(),
            &i,
            Strategy::SemiNaive,
            &Governor::default(),
            &seq,
        )
        .unwrap();
        prop_assert_eq!(by_translation, idb["tc"].clone());
    }

    /// PFP of the (monotone) TC body computes the same fixpoint as IFP.
    #[test]
    fn pfp_equals_ifp_on_monotone_bodies(edges in edges_strategy(5, 10)) {
        let seq = ThreadPool::sequential();
        let (_u, _order, i) = graph_instance(5, &edges);
        let ifp_ans = eval_pooled(&tc_query(), &i, &Governor::default(), &seq).unwrap();
        let pfp_fix = Arc::new(Fixpoint {
            op: FixOp::Pfp,
            ..(*tc_fixpoint()).clone()
        });
        let q = Query::new(
            vec![("qu".into(), Type::Atom), ("qv".into(), Type::Atom)],
            Formula::FixApp(pfp_fix, vec![Term::var("qu"), Term::var("qv")]),
        );
        let pfp_ans = eval_pooled(&q, &i, &Governor::default(), &seq).unwrap();
        prop_assert_eq!(ifp_ans, pfp_ans);
    }

    /// Safe evaluation agrees with active-domain evaluation on the TC
    /// query (Theorem 5.1 for a fixpoint query).
    #[test]
    fn safe_eval_agrees_on_fixpoint_queries(edges in edges_strategy(5, 10)) {
        let seq = ThreadPool::sequential();
        let (_u, _order, i) = graph_instance(5, &edges);
        let active = eval_pooled(&tc_query(), &i, &Governor::default(), &seq).unwrap();
        let safe = nestdb::core::ranges::safe_eval_pooled(&i, &tc_query(), &Governor::default(), &seq)
            .unwrap();
        prop_assert_eq!(active, safe);
    }
}

/// A non-monotone PFP that genuinely diverges is reported, not looped.
#[test]
fn pfp_divergence_is_an_error() {
    let (_u, _order, i) = graph_instance(2, &[(0, 1)]);
    let fix = Arc::new(Fixpoint {
        op: FixOp::Pfp,
        rel: "S".into(),
        vars: vec![("px".into(), Type::Atom)],
        body: Box::new(Formula::Rel("S".into(), vec![Term::var("px")]).not()),
    });
    let q = Query::new(
        vec![("qx".into(), Type::Atom)],
        Formula::FixApp(fix, vec![Term::var("qx")]),
    );
    assert!(matches!(
        eval_pooled(&q, &i, &Governor::default(), &ThreadPool::sequential()),
        Err(nestdb::core::error::EvalError::PfpDiverged { .. })
    ));
}

/// Nested fixpoints: an outer IFP whose body applies an inner IFP.
#[test]
fn nested_fixpoints_evaluate() {
    // inner: one-step neighbourhood; outer: closure of the inner — equals TC
    let inner = Arc::new(Fixpoint {
        op: FixOp::Ifp,
        rel: "N".into(),
        vars: vec![("nx".into(), Type::Atom), ("ny".into(), Type::Atom)],
        body: Box::new(Formula::Rel(
            "G".into(),
            vec![Term::var("nx"), Term::var("ny")],
        )),
    });
    let outer = Arc::new(Fixpoint {
        op: FixOp::Ifp,
        rel: "S".into(),
        vars: vec![("sx".into(), Type::Atom), ("sy".into(), Type::Atom)],
        body: Box::new(Formula::or([
            Formula::FixApp(inner.clone(), vec![Term::var("sx"), Term::var("sy")]),
            Formula::exists(
                "sz",
                Type::Atom,
                Formula::and([
                    Formula::Rel("S".into(), vec![Term::var("sx"), Term::var("sz")]),
                    Formula::FixApp(inner, vec![Term::var("sz"), Term::var("sy")]),
                ]),
            ),
        ])),
    });
    let q = Query::new(
        vec![("qu".into(), Type::Atom), ("qv".into(), Type::Atom)],
        Formula::FixApp(outer, vec![Term::var("qu"), Term::var("qv")]),
    );
    let edges = [(0, 1), (1, 2), (2, 0), (3, 3)];
    let (_u, _order, i) = graph_instance(4, &edges);
    let ans = eval_pooled(&q, &i, &Governor::default(), &ThreadPool::sequential()).unwrap();
    assert_eq!(ans.len(), reference_tc(4, &edges).len());
}

/// The IFP sequence is inflationary: each stage contains the previous one.
/// (Observed through the growing closure of longer and longer paths.)
#[test]
fn ifp_stages_are_increasing() {
    for len in 2..6usize {
        let edges: Vec<(usize, usize)> = (0..len - 1).map(|k| (k, k + 1)).collect();
        let (_u, _order, i) = graph_instance(len, &edges);
        let ans = eval_pooled(
            &tc_query(),
            &i,
            &Governor::default(),
            &ThreadPool::sequential(),
        )
        .unwrap();
        assert_eq!(ans.len(), len * (len - 1) / 2);
    }
}
