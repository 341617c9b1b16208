//! Translation from Datalog¬ to `CALC + IFP` (the Section 3 connection).
//!
//! A program whose rules all define a *single* IDB relation translates
//! directly: each rule becomes one disjunct — body literals conjoined,
//! non-head variables existentially quantified, IDB occurrences replaced
//! by the fixpoint relation — and the program becomes
//! `IFP(⋁ rules, S)`. The tests check that evaluating the translated
//! fixpoint with the generic CALC evaluator gives exactly the facts the
//! Datalog engine derives (both semantics are inflationary).
//!
//! Programs with several IDB relations require the classic simultaneous-
//! fixpoint encoding into a single wider relation; that transformation is
//! out of scope here and reported as [`TranslateError::MultipleIdb`]
//! (the paper defers the full correspondence to its companion \[GV91a\]).

use crate::program::{DTerm, Literal, Program, Rule};
use no_core::ast::{FixOp, Fixpoint, Formula, Term};
use no_object::Type;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// Why a program could not be translated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TranslateError {
    /// More than one IDB relation.
    MultipleIdb(Vec<String>),
    /// No IDB relation declared.
    NoIdb,
    /// A head argument is not a plain variable (head constants would need
    /// an equality rewrite; keep rules in head-normal form instead).
    HeadNotVariable {
        /// The offending rule, displayed.
        rule: String,
    },
    /// Head variables differ across rules (rules must be normalised to a
    /// common head variable vector).
    InconsistentHeads {
        /// The expected head variables.
        expected: Vec<String>,
        /// The offending rule, displayed.
        rule: String,
    },
}

impl fmt::Display for TranslateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TranslateError::MultipleIdb(names) => {
                write!(f, "program defines several IDB relations: {names:?}")
            }
            TranslateError::NoIdb => write!(f, "program declares no IDB relation"),
            TranslateError::HeadNotVariable { rule } => {
                write!(f, "rule head has a non-variable argument: {rule}")
            }
            TranslateError::InconsistentHeads { expected, rule } => {
                write!(f, "rule {rule} must use head variables {expected:?}")
            }
        }
    }
}

impl std::error::Error for TranslateError {}

fn dterm_to_term(t: &DTerm) -> Term {
    match t {
        DTerm::Var(v) => Term::var(v.clone()),
        DTerm::Const(c) => Term::Const(c.clone()),
    }
}

pub(crate) fn literal_formula(l: &Literal) -> Formula {
    match l {
        Literal::Pos(name, args) => {
            Formula::Rel(name.clone(), args.iter().map(dterm_to_term).collect())
        }
        Literal::Neg(name, args) => {
            Formula::Rel(name.clone(), args.iter().map(dterm_to_term).collect()).not()
        }
        Literal::Eq(a, b) => Formula::Eq(dterm_to_term(a), dterm_to_term(b)),
        Literal::Neq(a, b) => Formula::Eq(dterm_to_term(a), dterm_to_term(b)).not(),
        Literal::In(a, b) => Formula::In(dterm_to_term(a), dterm_to_term(b)),
        Literal::NotIn(a, b) => Formula::In(dterm_to_term(a), dterm_to_term(b)).not(),
    }
}

fn rule_vars(rule: &Rule) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    let mut note = |t: &DTerm| {
        if let DTerm::Var(v) = t {
            out.insert(v.clone());
        }
    };
    for t in &rule.head_args {
        note(t);
    }
    for l in &rule.body {
        match l {
            Literal::Pos(_, args) | Literal::Neg(_, args) => args.iter().for_each(&mut note),
            Literal::Eq(a, b) | Literal::Neq(a, b) | Literal::In(a, b) | Literal::NotIn(a, b) => {
                note(a);
                note(b);
            }
        }
    }
    out
}

/// Translate a single-IDB program into the equivalent `IFP` fixpoint
/// expression. `var_types` for body variables are taken from the IDB and
/// EDB signatures implicitly at evaluation time; quantifier types must be
/// supplied per variable via `infer` against the EDB schema — here we
/// require the caller to pass the type of every non-head variable.
pub fn to_ifp(
    program: &Program,
    body_var_types: &[(&str, Type)],
) -> Result<Arc<Fixpoint>, TranslateError> {
    let mut idb_names: Vec<&String> = program.idb.keys().collect();
    if idb_names.is_empty() {
        return Err(TranslateError::NoIdb);
    }
    if idb_names.len() > 1 {
        return Err(TranslateError::MultipleIdb(
            idb_names.drain(..).cloned().collect(),
        ));
    }
    let rel = idb_names[0].clone();
    let col_types = program.idb[&rel].clone();

    // head variables from the first rule fix the column variable names
    let first = program.rules.first().ok_or(TranslateError::NoIdb)?;
    let head_vars: Vec<String> = first
        .head_args
        .iter()
        .map(|t| match t {
            DTerm::Var(v) => Ok(v.clone()),
            DTerm::Const(_) => Err(TranslateError::HeadNotVariable {
                rule: first.to_string(),
            }),
        })
        .collect::<Result<_, _>>()?;

    let mut disjuncts = Vec::with_capacity(program.rules.len());
    for rule in &program.rules {
        let these: Vec<String> = rule
            .head_args
            .iter()
            .map(|t| match t {
                DTerm::Var(v) => Ok(v.clone()),
                DTerm::Const(_) => Err(TranslateError::HeadNotVariable {
                    rule: rule.to_string(),
                }),
            })
            .collect::<Result<_, _>>()?;
        if these != head_vars {
            return Err(TranslateError::InconsistentHeads {
                expected: head_vars.clone(),
                rule: rule.to_string(),
            });
        }
        let mut body = Formula::and(rule.body.iter().map(literal_formula));
        // existentially close non-head variables, innermost first
        let extra: Vec<String> = rule_vars(rule)
            .into_iter()
            .filter(|v| !head_vars.contains(v))
            .collect();
        for v in extra.into_iter().rev() {
            let ty = body_var_types
                .iter()
                .find(|(n, _)| *n == v)
                .map(|(_, t)| t.clone())
                .unwrap_or(Type::Atom);
            body = Formula::exists(v, ty, body);
        }
        disjuncts.push(body);
    }

    Ok(Arc::new(Fixpoint {
        op: FixOp::Ifp,
        rel,
        vars: head_vars.into_iter().zip(col_types).collect(),
        body: Box::new(Formula::or(disjuncts)),
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::tests::run;
    use crate::eval::Strategy;
    use minipool::ThreadPool;
    use no_core::eval::{eval_pooled, Query};
    use no_object::{Governor, Instance, RelationSchema, Schema, Universe, Value};

    fn graph(edges: &[(&str, &str)]) -> (Universe, Instance) {
        let mut u = Universe::new();
        let schema =
            Schema::from_relations([RelationSchema::new("G", vec![Type::Atom, Type::Atom])]);
        let mut i = Instance::empty(schema);
        for (a, b) in edges {
            let (a, b) = (u.intern(a), u.intern(b));
            i.insert("G", vec![Value::Atom(a), Value::Atom(b)]);
        }
        (u, i)
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
    fn tc_translation_matches_datalog_engine() {
        let (_u, i) = graph(&[("a", "b"), ("b", "c"), ("c", "d"), ("d", "b")]);
        let fix = to_ifp(&tc_program(), &[("z", Type::Atom)]).unwrap();
        let q = Query::new(
            vec![("u".into(), Type::Atom), ("v".into(), Type::Atom)],
            Formula::FixApp(fix, vec![Term::var("u"), Term::var("v")]),
        );
        let by_calc = eval_pooled(&q, &i, &Governor::default(), &ThreadPool::sequential()).unwrap();
        let (idb, _) = run(&tc_program(), &i, Strategy::SemiNaive).unwrap();
        assert_eq!(by_calc, idb["tc"]);
    }

    #[test]
    fn translation_with_negation_matches() {
        // loop-free successors: s(x,y) :- G(x,y), !G(y,x).
        let (_u, i) = graph(&[("a", "b"), ("b", "a"), ("b", "c")]);
        let mut p = Program::new();
        p.declare("s", vec![Type::Atom, Type::Atom]);
        p.rule(
            "s",
            vec![DTerm::var("x"), DTerm::var("y")],
            vec![
                Literal::Pos("G".into(), vec![DTerm::var("x"), DTerm::var("y")]),
                Literal::Neg("G".into(), vec![DTerm::var("y"), DTerm::var("x")]),
            ],
        );
        let fix = to_ifp(&p, &[]).unwrap();
        let q = Query::new(
            vec![("u".into(), Type::Atom), ("v".into(), Type::Atom)],
            Formula::FixApp(fix, vec![Term::var("u"), Term::var("v")]),
        );
        let by_calc = eval_pooled(&q, &i, &Governor::default(), &ThreadPool::sequential()).unwrap();
        let (idb, _) = run(&p, &i, Strategy::Naive).unwrap();
        assert_eq!(by_calc, idb["s"]);
        assert_eq!(by_calc.len(), 1); // only (b, c)
    }

    #[test]
    fn multiple_idb_rejected() {
        let mut p = tc_program();
        p.declare("other", vec![Type::Atom]);
        assert!(matches!(
            to_ifp(&p, &[]),
            Err(TranslateError::MultipleIdb(_))
        ));
    }

    #[test]
    fn head_constants_rejected() {
        let (u, _i) = graph(&[("a", "b")]);
        let a = Value::Atom(u.get("a").unwrap());
        let mut p = Program::new();
        p.declare("r", vec![Type::Atom]);
        p.rule(
            "r",
            vec![DTerm::Const(a)],
            vec![Literal::Pos(
                "G".into(),
                vec![DTerm::var("x"), DTerm::var("y")],
            )],
        );
        assert!(matches!(
            to_ifp(&p, &[]),
            Err(TranslateError::HeadNotVariable { .. })
        ));
    }

    #[test]
    fn inconsistent_heads_rejected() {
        let mut p = Program::new();
        p.declare("r", vec![Type::Atom]);
        p.rule(
            "r",
            vec![DTerm::var("x")],
            vec![Literal::Pos(
                "G".into(),
                vec![DTerm::var("x"), DTerm::var("y")],
            )],
        );
        p.rule(
            "r",
            vec![DTerm::var("w")],
            vec![Literal::Pos(
                "G".into(),
                vec![DTerm::var("w"), DTerm::var("z")],
            )],
        );
        assert!(matches!(
            to_ifp(&p, &[]),
            Err(TranslateError::InconsistentHeads { .. })
        ));
    }

    #[test]
    fn translated_formula_is_range_restricted() {
        let fix = to_ifp(&tc_program(), &[("z", Type::Atom)]).unwrap();
        let f = Formula::FixApp(fix, vec![Term::var("u"), Term::var("v")]);
        let schema =
            Schema::from_relations([RelationSchema::new("G", vec![Type::Atom, Type::Atom])]);
        let types = no_core::typeck::check(
            &schema,
            &[("u".into(), Type::Atom), ("v".into(), Type::Atom)],
            &f,
        )
        .unwrap()
        .var_types;
        assert!(no_core::rr::is_range_restricted(&schema, &types, &f));
    }
}
