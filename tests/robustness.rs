//! Robustness properties: no user input and no budget trip may ever panic.
//!
//! Two families: (1) the parsers digest arbitrary byte soup and either
//! succeed or return a positioned [`ParseError`]; (2) well-typed random
//! queries evaluated under `EvalConfig::tight()` budgets *with a fault
//! armed at a random depth* always return a structured result — the
//! engines degrade gracefully no matter where the governor trips.

use nestdb::core::ast::{Formula, Term};
use nestdb::core::eval::{active_order, Evaluator, Query};
use nestdb::core::parser::{parse_formula, parse_query, parse_type};
use nestdb::core::ranges::safe_eval_pooled;
use nestdb::object::{
    BudgetKind, Governor, Instance, Limits, RelationSchema, Schema, Type, Universe, Value,
};
use nestdb::ThreadPool;
use proptest::prelude::*;

/// Printable-ASCII soup biased towards the CALC alphabet.
const SOUP: &str = "[ -~]{0,60}";
/// Near-miss CALC syntax: the grammar's own tokens in random order.
const NEAR_CALC: &str = "[{}\\[\\]()|,:.='a-zA-Z0-9_ /\\\\<>-]{0,60}";

/// Random atomic formulas over a fixed scope of typed variables.
fn atom_strategy() -> impl Strategy<Value = Formula> {
    prop_oneof![
        Just(Formula::Rel(
            "G".into(),
            vec![Term::var("x"), Term::var("y")]
        )),
        Just(Formula::Rel("P".into(), vec![Term::var("X")])),
        Just(Formula::Eq(Term::var("x"), Term::var("y"))),
        Just(Formula::In(Term::var("x"), Term::var("X"))),
        Just(Formula::Subset(Term::var("X"), Term::var("X"))),
    ]
}

fn formula_strategy(depth: u32) -> BoxedStrategy<Formula> {
    if depth == 0 {
        atom_strategy().boxed()
    } else {
        let sub = formula_strategy(depth - 1);
        prop_oneof![
            2 => atom_strategy(),
            1 => sub.clone().prop_map(|f| f.not()),
            1 => (sub.clone(), sub.clone()).prop_map(|(a, b)| Formula::and([a, b])),
            1 => (sub.clone(), sub.clone()).prop_map(|(a, b)| Formula::or([a, b])),
            1 => (0u32..3, sub.clone()).prop_map(|(i, f)| {
                Formula::exists(format!("q{i}"), Type::Atom, f)
            }),
            1 => (3u32..6, sub).prop_map(|(i, f)| {
                Formula::forall(format!("q{i}"), Type::Atom, f)
            }),
        ]
        .boxed()
    }
}

/// A small instance matching the generated formulas' relations:
/// `G(U, U)` edges and `P({U})` a few sets.
fn test_instance() -> (Universe, Instance) {
    let mut u = Universe::new();
    let schema = Schema::from_relations([
        RelationSchema::new("G", vec![Type::Atom, Type::Atom]),
        RelationSchema::new("P", vec![Type::set(Type::Atom)]),
    ]);
    let mut i = Instance::empty(schema);
    let atoms: Vec<Value> = ["a", "b", "c"]
        .iter()
        .map(|n| Value::Atom(u.intern(n)))
        .collect();
    for (x, y) in [(0, 1), (1, 2), (2, 0)] {
        i.insert("G", vec![atoms[x].clone(), atoms[y].clone()]);
    }
    i.insert("P", vec![Value::set([atoms[0].clone(), atoms[1].clone()])]);
    i.insert("P", vec![Value::set([atoms[2].clone()])]);
    (u, i)
}

const KINDS: [BudgetKind; 4] = [
    BudgetKind::Steps,
    BudgetKind::Memory,
    BudgetKind::Deadline,
    BudgetKind::Cancelled,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The CALC parsers never panic on arbitrary printable input.
    #[test]
    fn parser_survives_arbitrary_input(s in SOUP, t in NEAR_CALC) {
        for src in [s.as_str(), t.as_str()] {
            let mut u = Universe::new();
            let _ = parse_formula(src, &mut u);
            let _ = parse_query(src, &mut u);
            let _ = parse_type(src);
        }
    }

    /// The Datalog and database-text parsers never panic either.
    #[test]
    fn aux_parsers_survive_arbitrary_input(s in NEAR_CALC) {
        let mut u = Universe::new();
        let _ = nestdb::datalog::parse_program(&s, &mut u);
        let mut u2 = Universe::new();
        let _ = nestdb::object::text::parse_database(&s, &mut u2);
    }

    /// Well-typed random queries under tight budgets and a fault armed at
    /// a random depth: both evaluation modes always return a structured
    /// `Result`, never a panic — regardless of which budget trips where.
    #[test]
    fn tight_budgets_and_faults_never_panic(
        body in formula_strategy(2),
        depth in 1u64..40,
        kind_idx in 0usize..4,
    ) {
        let (_u, i) = test_instance();
        let q = Query::new(
            vec![
                ("x".into(), Type::Atom),
                ("y".into(), Type::Atom),
                ("X".into(), Type::set(Type::Atom)),
            ],
            body,
        );
        // Safe (range-restricted) evaluation.
        let g = Governor::new(Limits::tight());
        g.trip_after(depth, KINDS[kind_idx]);
        let _ = safe_eval_pooled(&i, &q, &g, &ThreadPool::sequential());
        // Active-domain evaluation.
        let g = Governor::new(Limits::tight());
        g.trip_after(depth, KINDS[kind_idx]);
        let order = active_order(&i, &q);
        let _ = Evaluator::new(&i, order, g.clone()).query(&q);
    }
}
