//! Normal forms and structural metrics for CALC formulas.
//!
//! * [`simplify`] — double-negation elimination and connective
//!   flattening;
//! * [`Formula::negation_normal_form`] (in [`crate::ast`]) — negations
//!   pushed to atoms, `→`/`↔` expanded;
//! * [`prenex`] — quantifier prefix extraction (on top of NNF). Sound
//!   without renaming because well-formed CALC formulas bind each
//!   variable once (the paper's convention, enforced by
//!   [`crate::typeck`]);
//! * [`metrics`] — size, quantifier rank, fixpoint depth: the structural
//!   measures used when comparing formulas (e.g. the synthesized order
//!   formulas of Lemma 4.3 grow linearly in type size but their
//!   quantifier rank grows with set nesting).
//!
//! All transformations preserve active-domain semantics; the property
//! tests check this by exhaustive co-evaluation on small instances.

use crate::ast::{Formula, Term, VarName};
use no_object::Type;

/// Eliminate double negations and flatten nested conjunctions and
/// disjunctions. Purely structural; does not expand `→`/`↔`.
pub fn simplify(f: &Formula) -> Formula {
    match f {
        Formula::Not(g) => match simplify(g) {
            Formula::Not(inner) => *inner,
            other => other.not(),
        },
        Formula::And(gs) => Formula::and(gs.iter().map(simplify)),
        Formula::Or(gs) => Formula::or(gs.iter().map(simplify)),
        Formula::Implies(a, b) => simplify(a).implies(simplify(b)),
        Formula::Iff(a, b) => simplify(a).iff(simplify(b)),
        Formula::Exists(x, t, g) => Formula::exists(x.clone(), t.clone(), simplify(g)),
        Formula::Forall(x, t, g) => Formula::forall(x.clone(), t.clone(), simplify(g)),
        atom => atom.clone(),
    }
}

/// A quantifier in a prenex prefix.
#[derive(Clone, Debug, PartialEq)]
pub enum Quant {
    /// `∃x : T`.
    Exists(VarName, Type),
    /// `∀x : T`.
    Forall(VarName, Type),
}

/// A formula in prenex form: a quantifier prefix over a quantifier-free
/// matrix. Fixpoint subexpressions are treated as atoms (their bodies are
/// separate scopes).
#[derive(Clone, Debug, PartialEq)]
pub struct Prenex {
    /// The quantifier prefix, outermost first.
    pub prefix: Vec<Quant>,
    /// The quantifier-free matrix.
    pub matrix: Formula,
}

impl Prenex {
    /// Reassemble the prenex form into a single formula.
    pub fn to_formula(&self) -> Formula {
        let mut f = self.matrix.clone();
        for q in self.prefix.iter().rev() {
            f = match q {
                Quant::Exists(x, t) => Formula::exists(x.clone(), t.clone(), f),
                Quant::Forall(x, t) => Formula::forall(x.clone(), t.clone(), f),
            };
        }
        f
    }
}

/// Convert to prenex form. The input is first brought to negation normal
/// form, then quantifiers are hoisted out of conjunctions and
/// disjunctions (sound under the unique-binding convention).
///
/// As with classical prenexing, the equivalence assumes a *non-empty*
/// domain: over the empty active domain, `(∀x φ) ∧ ψ` is `ψ` but
/// `∀x (φ ∧ ψ)` is true. Empty instances are the only way to get an empty
/// active domain.
pub fn prenex(f: &Formula) -> Prenex {
    fn go(f: &Formula, prefix: &mut Vec<Quant>) -> Formula {
        match f {
            Formula::Exists(x, t, g) => {
                prefix.push(Quant::Exists(x.clone(), t.clone()));
                go(g, prefix)
            }
            Formula::Forall(x, t, g) => {
                prefix.push(Quant::Forall(x.clone(), t.clone()));
                go(g, prefix)
            }
            Formula::And(gs) => Formula::and(gs.iter().map(|g| go(g, prefix)).collect::<Vec<_>>()),
            Formula::Or(gs) => Formula::or(gs.iter().map(|g| go(g, prefix)).collect::<Vec<_>>()),
            // NNF leaves only atoms (possibly under one Not) otherwise
            other => other.clone(),
        }
    }
    let nnf = f.negation_normal_form();
    let mut prefix = Vec::new();
    let matrix = go(&nnf, &mut prefix);
    Prenex { prefix, matrix }
}

/// Rename the bound variables of `f` so that none collides with `taken`
/// names and none is bound twice — establishing the paper's variable
/// convention on formulas assembled from independently written pieces
/// (e.g. conjoining two parsed queries). Free variables are untouched.
/// Fixpoint bodies are separate scopes and are left as-is (their columns
/// shadow nothing by construction).
pub fn rename_apart(f: &Formula, taken: &mut std::collections::BTreeSet<VarName>) -> Formula {
    fn fresh(base: &str, taken: &mut std::collections::BTreeSet<VarName>) -> VarName {
        if taken.insert(base.to_string()) {
            return base.to_string();
        }
        let mut i = 1usize;
        loop {
            let cand = format!("{base}_{i}");
            if taken.insert(cand.clone()) {
                return cand;
            }
            i += 1;
        }
    }
    fn subst_term(t: &Term, map: &std::collections::BTreeMap<VarName, VarName>) -> Term {
        match t {
            Term::Var(v) => Term::Var(map.get(v).cloned().unwrap_or_else(|| v.clone())),
            Term::Proj(inner, i) => Term::Proj(Box::new(subst_term(inner, map)), *i),
            other => other.clone(),
        }
    }
    fn go(
        f: &Formula,
        map: &mut std::collections::BTreeMap<VarName, VarName>,
        taken: &mut std::collections::BTreeSet<VarName>,
    ) -> Formula {
        match f {
            Formula::Rel(name, ts) => Formula::Rel(
                name.clone(),
                ts.iter().map(|t| subst_term(t, map)).collect(),
            ),
            Formula::Eq(a, b) => Formula::Eq(subst_term(a, map), subst_term(b, map)),
            Formula::In(a, b) => Formula::In(subst_term(a, map), subst_term(b, map)),
            Formula::Subset(a, b) => Formula::Subset(subst_term(a, map), subst_term(b, map)),
            Formula::Not(g) => go(g, map, taken).not(),
            Formula::And(gs) => Formula::And(gs.iter().map(|g| go(g, map, taken)).collect()),
            Formula::Or(gs) => Formula::Or(gs.iter().map(|g| go(g, map, taken)).collect()),
            Formula::Implies(a, b) => go(a, map, taken).implies(go(b, map, taken)),
            Formula::Iff(a, b) => go(a, map, taken).iff(go(b, map, taken)),
            Formula::Exists(x, t, g) | Formula::Forall(x, t, g) => {
                let new = fresh(x, taken);
                let shadowed = map.insert(x.clone(), new.clone());
                let body = go(g, map, taken);
                match shadowed {
                    Some(old) => {
                        map.insert(x.clone(), old);
                    }
                    None => {
                        map.remove(x);
                    }
                }
                if matches!(f, Formula::Exists(..)) {
                    Formula::exists(new, t.clone(), body)
                } else {
                    Formula::forall(new, t.clone(), body)
                }
            }
            Formula::FixApp(fix, ts) => Formula::FixApp(
                std::sync::Arc::clone(fix),
                ts.iter().map(|t| subst_term(t, map)).collect(),
            ),
        }
    }
    let mut map = std::collections::BTreeMap::new();
    go(f, &mut map, taken)
}

/// Structural metrics of a formula.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Metrics {
    /// Number of AST nodes (formulas + terms).
    pub size: usize,
    /// Maximum quantifier nesting depth.
    pub quantifier_rank: usize,
    /// Maximum fixpoint nesting depth.
    pub fixpoint_depth: usize,
}

/// Compute [`Metrics`] for a formula (descends into fixpoint bodies).
pub fn metrics(f: &Formula) -> Metrics {
    fn term_size(t: &Term, m: &mut Metrics, fix_depth: usize) {
        m.size += 1;
        match t {
            Term::Proj(inner, _) => term_size(inner, m, fix_depth),
            Term::Fix(fix) => {
                m.fixpoint_depth = m.fixpoint_depth.max(fix_depth + 1);
                let sub = metrics_at(&fix.body, fix_depth + 1);
                m.size += sub.size;
                m.quantifier_rank = m.quantifier_rank.max(sub.quantifier_rank);
                m.fixpoint_depth = m.fixpoint_depth.max(sub.fixpoint_depth);
            }
            _ => {}
        }
    }
    fn metrics_at(f: &Formula, fix_depth: usize) -> Metrics {
        let mut m = Metrics {
            size: 1,
            ..Metrics::default()
        };
        match f {
            Formula::Rel(_, ts) => ts.iter().for_each(|t| term_size(t, &mut m, fix_depth)),
            Formula::Eq(a, b) | Formula::In(a, b) | Formula::Subset(a, b) => {
                term_size(a, &mut m, fix_depth);
                term_size(b, &mut m, fix_depth);
            }
            Formula::FixApp(fix, ts) => {
                m.fixpoint_depth = m.fixpoint_depth.max(fix_depth + 1);
                let sub = metrics_at(&fix.body, fix_depth + 1);
                m.size += sub.size;
                m.quantifier_rank = m.quantifier_rank.max(sub.quantifier_rank);
                m.fixpoint_depth = m.fixpoint_depth.max(sub.fixpoint_depth);
                ts.iter().for_each(|t| term_size(t, &mut m, fix_depth));
            }
            Formula::Exists(_, _, g) | Formula::Forall(_, _, g) => {
                let sub = metrics_at(g, fix_depth);
                m.size += sub.size;
                m.quantifier_rank = sub.quantifier_rank + 1;
                m.fixpoint_depth = m.fixpoint_depth.max(sub.fixpoint_depth);
            }
            _ => {
                for c in f.children() {
                    let sub = metrics_at(c, fix_depth);
                    m.size += sub.size;
                    m.quantifier_rank = m.quantifier_rank.max(sub.quantifier_rank);
                    m.fixpoint_depth = m.fixpoint_depth.max(sub.fixpoint_depth);
                }
            }
        }
        m
    }
    metrics_at(f, 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{Env, Evaluator};
    use no_object::{AtomOrder, Governor, Instance, RelationSchema, Schema, Universe, Value};
    use proptest::prelude::*;

    fn g(x: &str, y: &str) -> Formula {
        Formula::Rel("G".into(), vec![Term::var(x), Term::var(y)])
    }

    #[test]
    fn simplify_removes_double_negation() {
        let f = g("x", "y").not().not();
        assert_eq!(simplify(&f), g("x", "y"));
        let deep = g("x", "y").not().not().not();
        assert_eq!(simplify(&deep), g("x", "y").not());
    }

    #[test]
    fn simplify_flattens() {
        let f = Formula::And(vec![
            Formula::And(vec![g("a", "b"), g("b", "c")]),
            g("c", "d"),
        ]);
        match simplify(&f) {
            Formula::And(parts) => assert_eq!(parts.len(), 3),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn prenex_extracts_prefix() {
        // ∃x (G(x,x) ∧ ∀y G(x,y)) → prefix ∃x ∀y
        let f = Formula::exists(
            "x",
            Type::Atom,
            Formula::and([g("x", "x"), Formula::forall("y", Type::Atom, g("x", "y"))]),
        );
        let p = prenex(&f);
        assert_eq!(p.prefix.len(), 2);
        assert!(matches!(p.prefix[0], Quant::Exists(..)));
        assert!(matches!(p.prefix[1], Quant::Forall(..)));
        assert!(matches!(p.matrix, Formula::And(_)));
    }

    #[test]
    fn prenex_flips_under_negation() {
        // ¬∃x G(x,x) → ∀x ¬G(x,x)
        let f = Formula::exists("x", Type::Atom, g("x", "x")).not();
        let p = prenex(&f);
        assert_eq!(p.prefix.len(), 1);
        assert!(matches!(p.prefix[0], Quant::Forall(..)));
    }

    #[test]
    fn metrics_counts() {
        let f = Formula::exists(
            "x",
            Type::Atom,
            Formula::and([g("x", "x"), Formula::forall("y", Type::Atom, g("x", "y"))]),
        );
        let m = metrics(&f);
        assert_eq!(m.quantifier_rank, 2);
        assert_eq!(m.fixpoint_depth, 0);
        assert!(m.size > 6);
    }

    #[test]
    fn metrics_sees_fixpoints() {
        let fix = std::sync::Arc::new(crate::ast::Fixpoint {
            op: crate::ast::FixOp::Ifp,
            rel: "S".into(),
            vars: vec![("x".into(), Type::Atom)],
            body: Box::new(Formula::exists(
                "w",
                Type::Atom,
                Formula::Rel("G".into(), vec![Term::var("x"), Term::var("w")]),
            )),
        });
        let f = Formula::FixApp(fix, vec![Term::var("u")]);
        let m = metrics(&f);
        assert_eq!(m.fixpoint_depth, 1);
        assert_eq!(m.quantifier_rank, 1);
    }

    #[test]
    fn rename_apart_freshens_collisions() {
        use std::collections::BTreeSet;
        // two copies of ∃x G(x, y) conjoined: x bound twice
        let piece = Formula::exists("x", Type::Atom, g("x", "y"));
        let mut taken: BTreeSet<String> = ["y".to_string()].into();
        let left = rename_apart(&piece, &mut taken);
        let right = rename_apart(&piece, &mut taken);
        let combined = Formula::and([left, right]);
        // now typechecks under the unique-binding convention
        let schema = no_object::Schema::from_relations([no_object::RelationSchema::new(
            "G",
            vec![Type::Atom, Type::Atom],
        )]);
        let checked = crate::typeck::check(&schema, &[("y".into(), Type::Atom)], &combined);
        assert!(checked.is_ok(), "{checked:?}");
        // free variable y untouched
        assert_eq!(combined.free_vars(), vec!["y".to_string()]);
    }

    #[test]
    fn rename_apart_preserves_semantics() {
        use std::collections::BTreeSet;
        let f = Formula::exists(
            "x",
            Type::Atom,
            Formula::and([
                g("x", "z0"),
                Formula::forall(
                    "y",
                    Type::Atom,
                    Formula::or([g("x", "y").not(), g("y", "x")]),
                ),
            ]),
        );
        let mut taken: BTreeSet<String> = ["x".into(), "y".into(), "z0".into()].into();
        let renamed = rename_apart(&f, &mut taken);
        assert_ne!(renamed, f);
        let (order, i) = graph(&[(0, 1), (1, 2), (2, 0)]);
        let mut ev = Evaluator::new(&i, order, Governor::default());
        for a in 0..3u32 {
            let mut env = Env::new();
            env.push("z0", Value::Atom(no_object::Atom(a)));
            assert_eq!(
                ev.holds(&f, &mut env).unwrap(),
                ev.holds(&renamed, &mut env).unwrap(),
                "z0 = #{a}"
            );
        }
    }

    // --- semantic preservation, property-style ---

    fn graph(edges: &[(u32, u32)]) -> (AtomOrder, Instance) {
        let u = Universe::with_names(["a", "b", "c"]);
        let order = AtomOrder::identity(&u);
        let schema =
            Schema::from_relations([RelationSchema::new("G", vec![Type::Atom, Type::Atom])]);
        let mut i = Instance::empty(schema);
        for &(a, b) in edges {
            i.insert(
                "G",
                vec![
                    Value::Atom(no_object::Atom(a)),
                    Value::Atom(no_object::Atom(b)),
                ],
            );
        }
        (order, i)
    }

    fn closed_formula_strategy(depth: u32) -> BoxedStrategy<Formula> {
        fn atom(bound: Vec<String>) -> BoxedStrategy<Formula> {
            let vars: Vec<String> = bound;
            prop::sample::select(vars.clone())
                .prop_flat_map(move |x| {
                    let vars = vars.clone();
                    prop::sample::select(vars).prop_map(move |y| g(&x, &y))
                })
                .boxed()
        }
        // `pos` identifies the node's tree position, so every quantifier in
        // the generated formula binds a distinct name — the unique-binding
        // convention the prenex transformation relies on.
        fn go(depth: u32, bound: Vec<String>, pos: u64) -> BoxedStrategy<Formula> {
            if depth == 0 {
                return atom(bound);
            }
            let b2 = bound.clone();
            let b3 = bound.clone();
            let b4 = bound.clone();
            let b5 = bound.clone();
            prop_oneof![
                2 => atom(bound.clone()),
                1 => go(depth - 1, b2, pos * 3 + 1).prop_map(|f| f.not()),
                1 => (go(depth - 1, b3.clone(), pos * 3 + 1), go(depth - 1, b3, pos * 3 + 2))
                    .prop_map(|(a, b)| Formula::and([a, b])),
                1 => (go(depth - 1, b4.clone(), pos * 3 + 1), go(depth - 1, b4, pos * 3 + 2))
                    .prop_map(|(a, b)| a.implies(b)),
                1 => {
                    let mut inner = b5.clone();
                    let name = format!("v{pos}");
                    inner.push(name.clone());
                    go(depth - 1, inner, pos * 3 + 1).prop_map(move |f| {
                        Formula::exists(name.clone(), Type::Atom, f)
                    })
                },
            ]
            .boxed()
        }
        go(depth, vec!["z0".into()], 1)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// NNF, simplify, and prenex preserve truth on every assignment of
        /// the one free variable over the active domain.
        #[test]
        fn normal_forms_preserve_semantics(
            f in closed_formula_strategy(3),
            edges in prop::collection::vec((0u32..3, 0u32..3), 0..5),
        ) {
            let (order, i) = graph(&edges);
            let variants = [
                f.negation_normal_form(),
                simplify(&f),
                prenex(&f).to_formula(),
            ];
            let mut ev = Evaluator::new(&i, order.clone(), Governor::default());
            for a in 0..3u32 {
                let mut env = Env::new();
                env.push("z0", Value::Atom(no_object::Atom(a)));
                let base = ev.holds(&f, &mut env).unwrap();
                for (vi, v) in variants.iter().enumerate() {
                    let got = ev.holds(v, &mut env).unwrap();
                    prop_assert_eq!(got, base, "variant {} differs on z0=#{}", vi, a);
                }
            }
        }
    }
}
