//! Definable orders on type domains (Lemma 4.3).
//!
//! Given an order `<_U` on the atomic constants, the paper shows that for
//! every `⟨i,k⟩`-type `T` (`i ≥ 1`, `k ≥ 2`) there is a `CALC_i^k` formula
//! `φ_{<_T}` defining the induced order `<_T` of Definition 4.2 on
//! `dom(T, D)`. This module *synthesizes* those formulas:
//!
//! * tuples: `⋁_i (⋀_{j<i} x.j = y.j ∧ φ_{<_{T_i}}(x.i, y.i))` — verbatim
//!   from the proof;
//! * sets: `x <_{{S}} y` iff the `<_S`-maximal element of the symmetric
//!   difference lies in `y` — expressed with one existential witness `m`
//!   and one universal bound, avoiding the paper's two-witness `Max`
//!   abbreviation but equivalent to it;
//! * atoms: the base order, either a database relation `<_U(x,y)` (the
//!   `L + <_U` languages of Theorem 5.2) or a *postulated* set-valued
//!   variable of type `{[U,U]}` (the `∃<_U` trick of Theorem 4.1 — this is
//!   why those results need `i ≥ 1, k ≥ 2`).
//!
//! The synthesized formulas are ordinary [`Formula`] values: they can be
//! printed, parsed back, and evaluated; the test-suite checks them against
//! the native comparator [`no_object::order::induced_cmp`] over entire
//! small domains.

use crate::ast::{Formula, RelName, Term, VarName};
use no_object::Type;

/// Where the base order on atoms comes from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LtBase {
    /// A binary database relation holding the strict order on atoms.
    Rel(RelName),
    /// A variable of type `{[U,U]}` holding the strict order as a set of
    /// pairs (used when the order is postulated inside the query).
    Var(VarName),
}

/// Synthesizer for order formulas; generates fresh variable names with a
/// reserved prefix so they never clash with user variables.
pub struct OrderSynth {
    base: LtBase,
    counter: usize,
    prefix: String,
}

impl OrderSynth {
    /// Create a synthesizer over the given base order.
    pub fn new(base: LtBase) -> Self {
        OrderSynth {
            base,
            counter: 0,
            prefix: "_o".to_string(),
        }
    }

    /// Create with a custom fresh-variable prefix.
    pub fn with_prefix(base: LtBase, prefix: impl Into<String>) -> Self {
        OrderSynth {
            base,
            counter: 0,
            prefix: prefix.into(),
        }
    }

    fn fresh(&mut self) -> String {
        self.counter += 1;
        format!("{}{}", self.prefix, self.counter)
    }

    /// `x <_U y` at the base.
    fn base_less(&mut self, x: Term, y: Term) -> Formula {
        match self.base.clone() {
            LtBase::Rel(name) => Formula::Rel(name, vec![x, y]),
            LtBase::Var(v) => {
                // ∃p:[U,U] (p ∈ v ∧ p.1 = x ∧ p.2 = y)
                let p = self.fresh();
                Formula::exists(
                    p.clone(),
                    Type::tuple(vec![Type::Atom, Type::Atom]),
                    Formula::and([
                        Formula::In(Term::var(p.clone()), Term::var(v.clone())),
                        Formula::Eq(Term::var(p.clone()).proj(1), x),
                        Formula::Eq(Term::var(p).proj(2), y),
                    ]),
                )
            }
        }
    }

    /// The formula `φ_{<_T}(x, y)`: strict induced order at type `ty`
    /// applied to the given terms.
    pub fn less(&mut self, ty: &Type, x: Term, y: Term) -> Formula {
        match ty {
            Type::Atom => self.base_less(x, y),
            Type::Tuple(ts) => {
                // ⋁_i (⋀_{j<i} x.j = y.j ∧ x.i <_{T_i} y.i)
                let mut disjuncts = Vec::with_capacity(ts.len());
                for (i, ti) in ts.iter().enumerate() {
                    let mut conjuncts: Vec<Formula> = (0..i)
                        .map(|j| Formula::Eq(x.clone().proj(j + 1), y.clone().proj(j + 1)))
                        .collect();
                    conjuncts.push(self.less(ti, x.clone().proj(i + 1), y.clone().proj(i + 1)));
                    disjuncts.push(Formula::and(conjuncts));
                }
                Formula::or(disjuncts)
            }
            Type::Set(s) => {
                // ∃m:S ( m ∈ y ∧ ¬(m ∈ x)
                //        ∧ ∀z:S ((z ∈ x ↔ z ∈ y) ∨ z <_S m ∨ z = m) )
                let m = self.fresh();
                let z = self.fresh();
                let z_sym_diff_bounded = Formula::or([
                    Formula::In(Term::var(z.clone()), x.clone())
                        .iff(Formula::In(Term::var(z.clone()), y.clone())),
                    self.less(s, Term::var(z.clone()), Term::var(m.clone())),
                    Formula::Eq(Term::var(z.clone()), Term::var(m.clone())),
                ]);
                Formula::exists(
                    m.clone(),
                    s.as_ref().clone(),
                    Formula::and([
                        Formula::In(Term::var(m.clone()), y),
                        Formula::In(Term::var(m), x).not(),
                        Formula::forall(z, s.as_ref().clone(), z_sym_diff_bounded),
                    ]),
                )
            }
        }
    }

    /// `x ≤_T y`: `x = y ∨ x <_T y`.
    pub fn less_eq(&mut self, ty: &Type, x: Term, y: Term) -> Formula {
        Formula::or([Formula::Eq(x.clone(), y.clone()), self.less(ty, x, y)])
    }

    /// "x is the `<_T`-minimum of `dom(T, D)`": `∀z:T (z = x ∨ x <_T z)`.
    pub fn is_minimum(&mut self, ty: &Type, x: Term) -> Formula {
        let z = self.fresh();
        let body = Formula::or([
            Formula::Eq(Term::var(z.clone()), x.clone()),
            self.less(ty, x, Term::var(z.clone())),
        ]);
        Formula::forall(z, ty.clone(), body)
    }

    /// "y is the `<_T`-successor of x":
    /// `x <_T y ∧ ¬∃z (x <_T z ∧ z <_T y)`.
    pub fn is_successor(&mut self, ty: &Type, x: Term, y: Term) -> Formula {
        let z = self.fresh();
        let between = Formula::and([
            self.less(ty, x.clone(), Term::var(z.clone())),
            self.less(ty, Term::var(z.clone()), y.clone()),
        ]);
        Formula::and([
            self.less(ty, x, y),
            Formula::exists(z, ty.clone(), between).not(),
        ])
    }

    /// "m is the `<_T`-maximum element of the set s" (`s : {T}`):
    /// `m ∈ s ∧ ∀z:T (z ∈ s → z ≤_T m)` — the paper's `Max_{<_S}` helper.
    pub fn is_max_in(&mut self, elem_ty: &Type, s: Term, m: Term) -> Formula {
        let z = self.fresh();
        let bounded = Formula::In(Term::var(z.clone()), s.clone()).implies(self.less_eq(
            elem_ty,
            Term::var(z.clone()),
            m.clone(),
        ));
        Formula::and([
            Formula::In(m, s),
            Formula::forall(z, elem_ty.clone(), bounded),
        ])
    }
}

/// The `order(<_U)` axiom of Theorem 4.1's proof, over a *strict* base
/// order: irreflexive, total, transitive (asymmetry follows). The paper
/// states a non-strict variant; the strict form is equivalent and is what
/// [`OrderSynth`] consumes.
pub fn order_axiom(synth: &mut OrderSynth) -> Formula {
    let (x, y, z) = (synth.fresh(), synth.fresh(), synth.fresh());
    let irreflexive = synth
        .less(&Type::Atom, Term::var(x.clone()), Term::var(x.clone()))
        .not();
    let total = Formula::or([
        Formula::Eq(Term::var(x.clone()), Term::var(y.clone())),
        synth.less(&Type::Atom, Term::var(x.clone()), Term::var(y.clone())),
        synth.less(&Type::Atom, Term::var(y.clone()), Term::var(x.clone())),
    ]);
    let transitive = Formula::and([
        synth.less(&Type::Atom, Term::var(x.clone()), Term::var(y.clone())),
        synth.less(&Type::Atom, Term::var(y.clone()), Term::var(z.clone())),
    ])
    .implies(synth.less(&Type::Atom, Term::var(x.clone()), Term::var(z.clone())));
    Formula::forall(
        x,
        Type::Atom,
        Formula::forall(
            y,
            Type::Atom,
            Formula::forall(
                z,
                Type::Atom,
                Formula::and([irreflexive, total, transitive]),
            ),
        ),
    )
}

/// The Theorem 4.1 device in full: wrap `body` (which refers to the order
/// through `LtBase::Var(var)`) as
///
/// ```text
/// ∃ var : {[U,U]} ( order(var) ∧ body )
/// ```
///
/// The order is *postulated* rather than given: the quantifier ranges over
/// all `2^(n²)` binary relations and the `order` axiom filters the `n!`
/// genuine total orders. Only **order-invariant** bodies (such as the
/// theorem's whole-simulation formula ψ) yield well-defined queries; this
/// is exactly the `i ≥ 1, k ≥ 2` requirement in the theorem's statement.
pub fn postulate_order(var: impl Into<String>, body: Formula) -> Formula {
    let var = var.into();
    let mut synth = OrderSynth::with_prefix(LtBase::Var(var.clone()), "_po");
    let axiom = order_axiom(&mut synth);
    Formula::exists(
        var,
        Type::set(Type::tuple(vec![Type::Atom, Type::Atom])),
        Formula::and([axiom, body]),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{Env, Evaluator};
    use no_object::domain::DomainIter;
    use no_object::order::induced_cmp;
    use no_object::{AtomOrder, Governor, Instance, RelationSchema, Schema, Universe, Value};
    use std::cmp::Ordering;

    /// Instance holding the strict order on 3 atoms as relation "ltU".
    fn ordered_instance() -> (Universe, AtomOrder, Instance) {
        let u = Universe::with_names(["a", "b", "c"]);
        let order = AtomOrder::identity(&u);
        let schema =
            Schema::from_relations([RelationSchema::new("ltU", vec![Type::Atom, Type::Atom])]);
        let mut i = Instance::empty(schema);
        for x in 0..3u32 {
            for y in 0..3u32 {
                if order.rank(no_object::Atom(x)) < order.rank(no_object::Atom(y)) {
                    i.insert(
                        "ltU",
                        vec![
                            Value::Atom(no_object::Atom(x)),
                            Value::Atom(no_object::Atom(y)),
                        ],
                    );
                }
            }
        }
        (u, order, i)
    }

    /// Check the synthesized φ_{<T} against the native comparator over the
    /// whole domain of `ty` (subsampled for large domains to keep the test
    /// fast; the stride is coprime with the domain sizes used).
    fn check_type(ty: &Type) {
        let (_u, order, i) = ordered_instance();
        let mut synth = OrderSynth::new(LtBase::Rel("ltU".into()));
        let formula = synth.less(ty, Term::var("x"), Term::var("y"));
        let mut ev = Evaluator::new(&i, order.clone(), Governor::default());
        let mut values: Vec<Value> = DomainIter::new(&order, ty).unwrap().collect();
        if values.len() > 32 {
            values = values.into_iter().step_by(13).collect();
        }
        for a in &values {
            for b in &values {
                let mut env = Env::new();
                env.push("x", a.clone());
                env.push("y", b.clone());
                let by_formula = ev.holds(&formula, &mut env).unwrap();
                let native = induced_cmp(&order, a, b) == Ordering::Less;
                assert_eq!(by_formula, native, "{a} <? {b} at {ty}");
            }
        }
    }

    #[test]
    fn atom_order_formula() {
        check_type(&Type::Atom);
    }

    #[test]
    fn pair_order_formula() {
        check_type(&Type::tuple(vec![Type::Atom, Type::Atom]));
    }

    #[test]
    fn set_order_formula() {
        check_type(&Type::set(Type::Atom));
    }

    #[test]
    fn set_of_pairs_order_formula() {
        check_type(&Type::set(Type::tuple(vec![Type::Atom, Type::Atom])));
    }

    #[test]
    fn nested_set_order_formula() {
        check_type(&Type::set(Type::set(Type::Atom)));
    }

    #[test]
    fn tuple_with_set_component() {
        check_type(&Type::tuple(vec![Type::set(Type::Atom), Type::Atom]));
    }

    #[test]
    fn postulated_order_via_variable() {
        // bind the order variable to the set of pairs and check atoms
        let (_u, order, i) = ordered_instance();
        let mut synth = OrderSynth::new(LtBase::Var("lt".into()));
        let formula = synth.less(&Type::Atom, Term::var("x"), Term::var("y"));
        // build the order value {[a,b],[a,c],[b,c]}
        let pairs: Vec<Value> = i
            .relation("ltU")
            .sorted_rows()
            .into_iter()
            .map(|row| Value::tuple(row.clone()))
            .collect();
        let lt_value = Value::set(pairs);
        let mut ev = Evaluator::new(&i, order.clone(), Governor::default());
        for a in 0..3u32 {
            for b in 0..3u32 {
                let mut env = Env::new();
                env.push("lt", lt_value.clone());
                env.push("x", Value::Atom(no_object::Atom(a)));
                env.push("y", Value::Atom(no_object::Atom(b)));
                assert_eq!(ev.holds(&formula, &mut env).unwrap(), a < b);
            }
        }
    }

    #[test]
    fn minimum_and_successor() {
        let (_u, order, i) = ordered_instance();
        let ty = Type::set(Type::Atom);
        let mut synth = OrderSynth::new(LtBase::Rel("ltU".into()));
        let is_min = synth.is_minimum(&ty, Term::var("x"));
        let is_succ = synth.is_successor(&ty, Term::var("x"), Term::var("y"));
        let mut ev = Evaluator::new(&i, order.clone(), Governor::default());
        let values: Vec<Value> = DomainIter::new(&order, &ty).unwrap().collect();
        for (idx, v) in values.iter().enumerate() {
            let mut env = Env::new();
            env.push("x", v.clone());
            assert_eq!(
                ev.holds(&is_min, &mut env).unwrap(),
                idx == 0,
                "minimum at {v}"
            );
        }
        for (i1, v1) in values.iter().enumerate() {
            for (i2, v2) in values.iter().enumerate() {
                let mut env = Env::new();
                env.push("x", v1.clone());
                env.push("y", v2.clone());
                assert_eq!(
                    ev.holds(&is_succ, &mut env).unwrap(),
                    i2 == i1 + 1,
                    "succ({v1}) = {v2}?"
                );
            }
        }
    }

    #[test]
    fn max_in_set_matches_native() {
        let (_u, order, i) = ordered_instance();
        let mut synth = OrderSynth::new(LtBase::Rel("ltU".into()));
        let f = synth.is_max_in(&Type::Atom, Term::var("s"), Term::var("m"));
        let mut ev = Evaluator::new(&i, order.clone(), Governor::default());
        let s = Value::set([
            Value::Atom(no_object::Atom(0)),
            Value::Atom(no_object::Atom(2)),
        ]);
        for m in 0..3u32 {
            let mut env = Env::new();
            env.push("s", s.clone());
            env.push("m", Value::Atom(no_object::Atom(m)));
            assert_eq!(ev.holds(&f, &mut env).unwrap(), m == 2);
        }
    }

    #[test]
    fn order_axiom_holds_for_real_orders_only() {
        let (_u, order, i) = ordered_instance();
        let mut synth = OrderSynth::new(LtBase::Rel("ltU".into()));
        let axiom = order_axiom(&mut synth);
        let mut ev = Evaluator::new(&i, order.clone(), Governor::default());
        assert!(ev.holds(&axiom, &mut Env::new()).unwrap());
        // break the order: drop transitive closure pair (a,c)
        let schema = i.schema().clone();
        let mut broken = Instance::empty(schema);
        broken.insert(
            "ltU",
            vec![
                Value::Atom(no_object::Atom(0)),
                Value::Atom(no_object::Atom(1)),
            ],
        );
        broken.insert(
            "ltU",
            vec![
                Value::Atom(no_object::Atom(1)),
                Value::Atom(no_object::Atom(2)),
            ],
        );
        let mut ev2 = Evaluator::new(&broken, order, Governor::default());
        assert!(!ev2.holds(&axiom, &mut Env::new()).unwrap());
    }

    #[test]
    fn synthesized_formulas_stay_in_calc_ik() {
        // Lemma 4.3: φ_{<T} for an <i,k>-type is a CALC_i^k formula
        let schema =
            Schema::from_relations([RelationSchema::new("ltU", vec![Type::Atom, Type::Atom])]);
        let ty = Type::set(Type::tuple(vec![Type::Atom, Type::Atom]));
        let mut synth = OrderSynth::new(LtBase::Rel("ltU".into()));
        let f = synth.less(&ty, Term::var("x"), Term::var("y"));
        let checked = crate::typeck::check(
            &schema,
            &[("x".into(), ty.clone()), ("y".into(), ty.clone())],
            &f,
        )
        .unwrap();
        assert!(checked.is_calc_ik(1, 2), "got {:?}", checked.ik());
    }

    #[test]
    fn postulated_orders_count_n_factorial() {
        // {[w:{[U,U]}] | order(w)} — the satisfying assignments are exactly
        // the n! total orders among the 2^(n²) candidate relations
        for n in [2usize, 3] {
            let names: Vec<String> = (0..n).map(|i| format!("a{i}")).collect();
            let u = Universe::with_names(names.iter().map(String::as_str));
            let order = AtomOrder::identity(&u);
            // a dummy instance carrying the atoms
            let schema = Schema::from_relations([RelationSchema::new("N", vec![Type::Atom])]);
            let mut inst = Instance::empty(schema);
            for a in order.iter() {
                inst.insert("N", vec![Value::Atom(a)]);
            }
            let mut synth = OrderSynth::with_prefix(LtBase::Var("w".into()), "_po");
            let axiom = order_axiom(&mut synth);
            let q = crate::eval::Query::new(
                vec![(
                    "w".into(),
                    Type::set(Type::tuple(vec![Type::Atom, Type::Atom])),
                )],
                axiom,
            );
            let ans = crate::eval::eval_pooled(
                &q,
                &inst,
                &Governor::default(),
                &minipool::ThreadPool::sequential(),
            )
            .unwrap();
            let factorial: usize = (1..=n).product();
            assert_eq!(ans.len(), factorial, "n = {n}");
        }
    }

    #[test]
    fn postulate_order_answers_order_invariant_questions() {
        // "some atom is the <_U-minimum" is order-invariantly TRUE on any
        // non-empty domain; with the order postulated the sentence holds
        // without any order input (Theorem 4.1's trick, in miniature)
        let u = Universe::with_names(["a", "b", "c"]);
        let order = AtomOrder::identity(&u);
        let schema = Schema::from_relations([RelationSchema::new("N", vec![Type::Atom])]);
        let mut inst = Instance::empty(schema);
        for a in order.iter() {
            inst.insert("N", vec![Value::Atom(a)]);
        }
        let mut synth = OrderSynth::with_prefix(LtBase::Var("lt".into()), "_q");
        let min_exists = {
            let inner = synth.is_minimum(&Type::Atom, Term::var("m"));
            Formula::exists("m", Type::Atom, inner)
        };
        let sentence = postulate_order("lt", min_exists);
        let mut ev = Evaluator::new(&inst, order, Governor::default());
        assert!(ev.holds(&sentence, &mut crate::eval::Env::new()).unwrap());
    }

    #[test]
    fn printed_order_formula_roundtrips() {
        let mut synth = OrderSynth::new(LtBase::Rel("ltU".into()));
        let f = synth.less(&Type::set(Type::Atom), Term::var("x"), Term::var("y"));
        let printed = crate::print::Printer::new().formula(&f);
        let mut u = Universe::new();
        let back = crate::parser::parse_formula(&printed, &mut u).unwrap();
        assert_eq!(f, back);
    }
}
