//! Stratified semantics for Datalog¬ — the classical alternative to the
//! paper's inflationary semantics.
//!
//! Inflationary evaluation (Section 3's `inf-Datalog¬`) applies negation
//! against the *current*, still-growing database: a fact derived early
//! from a negation that later fails is kept. Stratified evaluation instead
//! orders the IDB predicates so that negation only ever consults fully
//! computed relations, yielding the perfect model — when such an order
//! exists. The two semantics genuinely differ (see the
//! `stratified_vs_inflationary` test, the textbook unreachability
//! example), which is exactly why the paper is explicit about using the
//! inflationary one for its `CALC+IFP` correspondence.

use crate::eval::{fixpoint, Edb, Idb, Strategy};
use crate::program::{Literal, Program, ProgramError};
use no_object::{Governor, Instance};
use std::collections::BTreeMap;
use std::fmt;

/// Why a program cannot be stratified.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StratifyError {
    /// A cycle through negation: the listed predicate depends negatively
    /// on itself (possibly through others).
    NegativeCycle {
        /// A predicate on the cycle.
        on: String,
    },
    /// The underlying program is invalid.
    Program(ProgramError),
}

impl fmt::Display for StratifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StratifyError::NegativeCycle { on } => {
                write!(
                    f,
                    "program is not stratifiable: negative cycle through {on}"
                )
            }
            StratifyError::Program(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for StratifyError {}

impl From<ProgramError> for StratifyError {
    fn from(e: ProgramError) -> Self {
        StratifyError::Program(e)
    }
}

/// Assign strata to the IDB predicates: `stratum(P) ≥ stratum(Q)` when `P`
/// depends positively on `Q`, strictly greater when negatively. Returns
/// predicates grouped by stratum, lowest first.
pub fn stratify(program: &Program) -> Result<Vec<Vec<String>>, StratifyError> {
    let idb: Vec<&String> = program.idb.keys().collect();
    let mut stratum: BTreeMap<&str, usize> = idb.iter().map(|n| (n.as_str(), 0)).collect();
    let max_stratum = idb.len().max(1);
    // Bellman–Ford style relaxation; more than |IDB| rounds of growth
    // implies a negative cycle.
    for _round in 0..=max_stratum {
        let mut changed = false;
        for rule in &program.rules {
            let head_stratum = stratum[rule.head.as_str()];
            for lit in &rule.body {
                let (name, negated) = match lit {
                    Literal::Pos(n, _) => (n, false),
                    Literal::Neg(n, _) => (n, true),
                    _ => continue,
                };
                let Some(&body_stratum) = stratum.get(name.as_str()) else {
                    continue; // EDB
                };
                let required = if negated {
                    body_stratum + 1
                } else {
                    body_stratum
                };
                if head_stratum < required {
                    // raise the head's stratum
                    if required > max_stratum {
                        return Err(StratifyError::NegativeCycle {
                            on: rule.head.clone(),
                        });
                    }
                    stratum.insert(rule.head.as_str(), required);
                    changed = true;
                }
            }
        }
        if !changed {
            let top = stratum.values().copied().max().unwrap_or(0);
            let mut out = vec![Vec::new(); top + 1];
            for (name, s) in stratum {
                out[s].push(name.to_string());
            }
            out.retain(|layer| !layer.is_empty());
            return Ok(out);
        }
    }
    Err(StratifyError::NegativeCycle {
        on: idb.first().map(|s| (*s).clone()).unwrap_or_default(),
    })
}

/// Evaluate with stratified semantics: strata bottom-up, each stratum run
/// to fixpoint (semi-naive) with all lower strata frozen. All strata draw
/// from the *same* `governor` allowance, so a program cannot multiply its
/// budget by stratifying work across layers. Each stratum's inflationary
/// fixpoint runs on the round loop of [`crate::eval::eval_pooled`], so
/// rule evaluation inside every stratum fans out over `pool` (strata
/// themselves stay sequential — each one negates over the previous ones,
/// a hard dependency).
pub fn eval_stratified_pooled(
    program: &Program,
    instance: &Instance,
    governor: &Governor,
    pool: &minipool::ThreadPool,
) -> Result<Idb, StratifyError> {
    program.validate(instance.schema())?;
    let strata = stratify(program)?;
    // Evaluate one stratum at a time. Lower strata are *frozen*: their
    // computed relations join the stored ones as read-only relations, so
    // the current stratum's negation only ever consults finished
    // relations — the perfect-model guarantee. Every stratum reads the
    // instance's cached tables and interns into one overlay.
    let mut edb = Edb::of(instance);
    for layer in &strata {
        let mut sub = Program::new();
        for name in layer {
            sub.declare(name.clone(), program.idb[name].clone());
        }
        for rule in &program.rules {
            if layer.contains(&rule.head) {
                sub.rules.push(rule.clone());
            }
        }
        governor
            .checkpoint("datalog.stratum")
            .map_err(|e| StratifyError::Program(ProgramError::Resource(e)))?;
        let (idb, _) = fixpoint(&sub, &edb, Strategy::SemiNaive, governor, pool)
            .map_err(StratifyError::Program)?;
        edb.frozen.extend(idb);
    }
    let frozen = std::mem::take(&mut edb.frozen);
    let mut computed = edb.resolve(frozen);
    // ensure all declared IDBs appear (empty when no rule derives them)
    for name in program.idb.keys() {
        computed.entry(name.clone()).or_default();
    }
    Ok(computed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::tests::run;
    use crate::program::DTerm;
    use minipool::ThreadPool;

    fn stratified(program: &Program, instance: &Instance) -> Result<Idb, StratifyError> {
        let pool = ThreadPool::sequential();
        eval_stratified_pooled(program, instance, &Governor::default(), &pool)
    }
    use no_object::{RelationSchema, Schema, Type, Universe, Value};

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

    /// tc + node + unreach — the textbook stratified program.
    fn unreach_program() -> Program {
        let mut p = Program::new();
        p.declare("tc", vec![Type::Atom, Type::Atom]);
        p.declare("node", vec![Type::Atom]);
        p.declare("unreach", vec![Type::Atom, Type::Atom]);
        p.rule(
            "node",
            vec![DTerm::var("x")],
            vec![Literal::Pos(
                "G".into(),
                vec![DTerm::var("x"), DTerm::var("y")],
            )],
        );
        p.rule(
            "node",
            vec![DTerm::var("y")],
            vec![Literal::Pos(
                "G".into(),
                vec![DTerm::var("x"), DTerm::var("y")],
            )],
        );
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
        p.rule(
            "unreach",
            vec![DTerm::var("x"), DTerm::var("y")],
            vec![
                Literal::Pos("node".into(), vec![DTerm::var("x")]),
                Literal::Pos("node".into(), vec![DTerm::var("y")]),
                Literal::Neg("tc".into(), vec![DTerm::var("x"), DTerm::var("y")]),
            ],
        );
        p
    }

    #[test]
    fn strata_order_negation_last() {
        let strata = stratify(&unreach_program()).unwrap();
        assert_eq!(strata.len(), 2);
        assert!(strata[0].contains(&"tc".to_string()));
        assert!(strata[0].contains(&"node".to_string()));
        assert_eq!(strata[1], vec!["unreach".to_string()]);
    }

    #[test]
    fn negative_cycle_rejected() {
        // p :- !q. q :- !p.
        let mut p = Program::new();
        p.declare("p", vec![Type::Atom]);
        p.declare("q", vec![Type::Atom]);
        p.rule(
            "p",
            vec![DTerm::var("x")],
            vec![
                Literal::Pos("G".into(), vec![DTerm::var("x"), DTerm::var("x")]),
                Literal::Neg("q".into(), vec![DTerm::var("x")]),
            ],
        );
        p.rule(
            "q",
            vec![DTerm::var("x")],
            vec![
                Literal::Pos("G".into(), vec![DTerm::var("x"), DTerm::var("x")]),
                Literal::Neg("p".into(), vec![DTerm::var("x")]),
            ],
        );
        assert!(matches!(
            stratify(&p),
            Err(StratifyError::NegativeCycle { .. })
        ));
    }

    #[test]
    fn stratified_vs_inflationary() {
        // On a path a → b → c: (a,c) IS reachable. Inflationary semantics
        // derives unreach(a,c) in round one (before tc closes) and keeps
        // it; stratified semantics computes tc first and never derives it.
        let (u, i) = graph(&[("a", "b"), ("b", "c")]);
        let a = Value::Atom(u.get("a").unwrap());
        let c = Value::Atom(u.get("c").unwrap());
        let p = unreach_program();
        let stratified = stratified(&p, &i).unwrap();
        assert!(!stratified["unreach"].contains(&[a.clone(), c.clone()]));
        let (inflationary, _) = run(&i_p(&p), &i, Strategy::Naive).unwrap();
        assert!(inflationary["unreach"].contains(&[a.clone(), c.clone()]));
        // and both contain the genuinely unreachable pair (c, a)
        assert!(stratified["unreach"].contains(&[c.clone(), a.clone()]));
        assert!(inflationary["unreach"].contains(&[c, a]));
    }

    fn i_p(p: &Program) -> Program {
        p.clone()
    }

    #[test]
    fn stratified_matches_reference_complement() {
        let (u, i) = graph(&[("a", "b"), ("b", "c"), ("c", "a"), ("d", "a")]);
        let idb = stratified(&unreach_program(), &i).unwrap();
        // reference: complement of TC over the 4 nodes
        let names = ["a", "b", "c", "d"];
        let reachable = |x: &str, y: &str| -> bool {
            // closure of a→b→c→a cycle plus d→a
            match (x, y) {
                ("a", _) | ("b", _) | ("c", _) if y != "d" => true,
                ("d", _) if y != "d" => true,
                _ => false,
            }
        };
        for x in names {
            for y in names {
                let row = vec![
                    Value::Atom(u.get(x).unwrap()),
                    Value::Atom(u.get(y).unwrap()),
                ];
                assert_eq!(
                    idb["unreach"].contains(&row),
                    !reachable(x, y),
                    "({x}, {y})"
                );
            }
        }
    }

    #[test]
    fn positive_programs_agree_across_semantics() {
        let (_u, i) = graph(&[("a", "b"), ("b", "c"), ("c", "d")]);
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
        let stratified = stratified(&p, &i).unwrap();
        let (inflationary, _) = run(&p, &i, Strategy::SemiNaive).unwrap();
        assert_eq!(stratified, inflationary);
    }

    #[test]
    fn strata_share_one_budget() {
        use no_object::{BudgetKind, Limits};
        let (_u, i) = graph(&[("a", "b"), ("b", "c"), ("c", "d")]);
        let g = Governor::new(Limits {
            max_steps: 50,
            ..Limits::unlimited()
        });
        match eval_stratified_pooled(&unreach_program(), &i, &g, &ThreadPool::sequential()) {
            Err(StratifyError::Program(ProgramError::Resource(e))) => {
                assert_eq!(e.budget, BudgetKind::Steps);
            }
            other => panic!("expected step Resource error, got {other:?}"),
        }
        // the shared governor records the consumption that tripped it
        assert!(g.steps_spent() >= 50);
    }

    #[test]
    fn undeclared_relations_still_reported() {
        let mut p = Program::new();
        p.rule("ghost", vec![DTerm::var("x")], vec![]);
        let (_u, i) = graph(&[("a", "b")]);
        assert!(matches!(stratified(&p, &i), Err(StratifyError::Program(_))));
    }
}
