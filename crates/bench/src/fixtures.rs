//! Shared query fixtures for experiments and benchmarks.
//!
//! The central comparison of the paper (and of experiment E8) is between
//! two ways of expressing recursion over complex objects:
//!
//! * [`tc_ifp_query`] — transitive closure via the `IFP` operator
//!   (Example 3.1): stays at the input's set height, polynomial;
//! * [`tc_powerset_query`] — transitive closure in plain `CALC_2^2` by
//!   quantifying over **all** transitively-closed edge sets of type
//!   `{[U,U]}`: one set-height above the input, hyperexponential. This is
//!   the "recursion involving types of set height i is expressed using
//!   types of set height i+1" cost the fixpoint operators avoid.
//!
//! Also here: the bipartiteness query of Section 3, the nest queries of
//! Examples 5.1/5.3, and the paper's Figure 1 instance.

use no_core::ast::{FixOp, Fixpoint, Formula, Term};
use no_core::eval::Query;
use no_object::{AtomOrder, Instance, RelationSchema, Schema, Type, Universe, Value};
use std::sync::Arc;

/// The transitive-closure fixpoint of Example 3.1 over node type `node_ty`.
pub fn tc_fixpoint(node_ty: &Type) -> Arc<Fixpoint> {
    Arc::new(Fixpoint {
        op: FixOp::Ifp,
        rel: "S".into(),
        vars: vec![
            ("tx".into(), node_ty.clone()),
            ("ty".into(), node_ty.clone()),
        ],
        body: Box::new(Formula::or([
            Formula::Rel("G".into(), vec![Term::var("tx"), Term::var("ty")]),
            Formula::exists(
                "tz",
                node_ty.clone(),
                Formula::and([
                    Formula::Rel("S".into(), vec![Term::var("tx"), Term::var("tz")]),
                    Formula::Rel("G".into(), vec![Term::var("tz"), Term::var("ty")]),
                ]),
            ),
        ])),
    })
}

/// `{[u,v] | IFP(φ, S)(u, v)}` — transitive closure as a `CALC+IFP` query.
pub fn tc_ifp_query(node_ty: &Type) -> Query {
    Query::new(
        vec![("u".into(), node_ty.clone()), ("v".into(), node_ty.clone())],
        Formula::FixApp(tc_fixpoint(node_ty), vec![Term::var("u"), Term::var("v")]),
    )
}

/// Membership of the pair `(a, b)` in an edge-set variable `s : {[U,U]}`.
fn pair_in(a: &str, b: &str, s: &str, fresh: &str, node_ty: &Type) -> Formula {
    Formula::exists(
        fresh,
        Type::tuple(vec![node_ty.clone(), node_ty.clone()]),
        Formula::and([
            Formula::In(Term::var(fresh), Term::var(s)),
            Formula::Eq(Term::var(fresh).proj(1), Term::var(a)),
            Formula::Eq(Term::var(fresh).proj(2), Term::var(b)),
        ]),
    )
}

/// Transitive closure **without** fixpoints: `(u,v)` is in the closure iff
/// every transitively-closed superset of `G` (as a set `s : {[node,node]}`)
/// contains the pair. A `CALC_{h+1}^2` query for inputs of set height `h` —
/// the hyperexponential baseline of E8.
pub fn tc_powerset_query(node_ty: &Type) -> Query {
    let pair_ty = Type::tuple(vec![node_ty.clone(), node_ty.clone()]);
    let contains_g = Formula::forall(
        "gu",
        node_ty.clone(),
        Formula::forall(
            "gv",
            node_ty.clone(),
            Formula::Rel("G".into(), vec![Term::var("gu"), Term::var("gv")])
                .implies(pair_in("gu", "gv", "s", "p0", node_ty)),
        ),
    );
    let closed = Formula::forall(
        "p",
        pair_ty.clone(),
        Formula::forall(
            "q",
            pair_ty.clone(),
            Formula::and([
                Formula::In(Term::var("p"), Term::var("s")),
                Formula::In(Term::var("q"), Term::var("s")),
                Formula::Eq(Term::var("p").proj(2), Term::var("q").proj(1)),
            ])
            .implies({
                // [p.1, q.2] ∈ s
                Formula::exists(
                    "r",
                    pair_ty.clone(),
                    Formula::and([
                        Formula::In(Term::var("r"), Term::var("s")),
                        Formula::Eq(Term::var("r").proj(1), Term::var("p").proj(1)),
                        Formula::Eq(Term::var("r").proj(2), Term::var("q").proj(2)),
                    ]),
                )
            }),
        ),
    );
    let body = Formula::forall(
        "s",
        Type::set(pair_ty),
        Formula::and([contains_g, closed]).implies(pair_in("u", "v", "s", "p1", node_ty)),
    );
    Query::new(
        vec![("u".into(), node_ty.clone()), ("v".into(), node_ty.clone())],
        body,
    )
}

/// The bipartiteness query of Section 3: the answer is `G` itself when a
/// 2-colouring exists, empty otherwise.
pub fn bipartite_query() -> Query {
    let su = Type::set(Type::Atom);
    let no_overlap = Formula::exists(
        "bn",
        Type::Atom,
        Formula::and([
            Formula::In(Term::var("bn"), Term::var("X")),
            Formula::In(Term::var("bn"), Term::var("Y")),
        ]),
    )
    .not();
    let edges_cross = Formula::forall(
        "bv",
        Type::tuple(vec![Type::Atom, Type::Atom]),
        Formula::Rel(
            "G".into(),
            vec![Term::var("bv").proj(1), Term::var("bv").proj(2)],
        )
        .implies(Formula::or([
            Formula::and([
                Formula::In(Term::var("bv").proj(1), Term::var("X")),
                Formula::In(Term::var("bv").proj(2), Term::var("Y")),
            ]),
            Formula::and([
                Formula::In(Term::var("bv").proj(1), Term::var("Y")),
                Formula::In(Term::var("bv").proj(2), Term::var("X")),
            ]),
        ])),
    );
    Query::new(
        vec![("t1".into(), Type::Atom), ("t2".into(), Type::Atom)],
        Formula::and([
            Formula::Rel("G".into(), vec![Term::var("t1"), Term::var("t2")]),
            Formula::exists(
                "X",
                su.clone(),
                Formula::exists("Y", su, Formula::and([no_overlap, edges_cross])),
            ),
        ]),
    )
}

/// Example 5.1's nest query: `{(x, s) | ∃z P(x,z) ∧ ∀y (P(x,y) ⇔ y ∈ s)}`.
pub fn nest_query() -> Query {
    Query::new(
        vec![
            ("x".into(), Type::Atom),
            ("s".into(), Type::set(Type::Atom)),
        ],
        Formula::and([
            Formula::exists(
                "z",
                Type::Atom,
                Formula::Rel("P".into(), vec![Term::var("x"), Term::var("z")]),
            ),
            Formula::forall(
                "y",
                Type::Atom,
                Formula::Rel("P".into(), vec![Term::var("x"), Term::var("y")])
                    .iff(Formula::In(Term::var("y"), Term::var("s"))),
            ),
        ]),
    )
}

/// The binary-relation schema `P[U, U]` of the nest examples.
pub fn pair_schema() -> Schema {
    Schema::from_relations([RelationSchema::new("P", vec![Type::Atom, Type::Atom])])
}

/// The paper's Figure 1 instance (Example 2.1) with its universe and
/// enumeration `abc`.
pub fn figure1_instance() -> (Universe, AtomOrder, Instance) {
    let mut u = Universe::new();
    let a = Value::Atom(u.intern("a"));
    let b = Value::Atom(u.intern("b"));
    let c = Value::Atom(u.intern("c"));
    let schema = Schema::from_relations([RelationSchema::new(
        "P",
        vec![
            Type::Atom,
            Type::set(Type::Atom),
            Type::tuple(vec![Type::Atom, Type::set(Type::Atom)]),
        ],
    )]);
    let mut i = Instance::empty(schema);
    i.insert(
        "P",
        vec![
            b.clone(),
            Value::set([a.clone(), b.clone()]),
            Value::tuple([c.clone(), Value::set([a.clone(), c.clone()])]),
        ],
    );
    i.insert(
        "P",
        vec![
            c.clone(),
            Value::set([c.clone()]),
            Value::tuple([a, Value::set([b, c])]),
        ],
    );
    let order = AtomOrder::identity(&u);
    (u, order, i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use minipool::ThreadPool;
    use no_core::eval::eval_pooled;
    use no_density::families;
    use no_object::Governor;

    #[test]
    fn powerset_tc_agrees_with_ifp_tc_on_tiny_graphs() {
        let seq = ThreadPool::sequential();
        for n in 2..=3 {
            let g = families::path_graph(n);
            let ifp = eval_pooled(
                &tc_ifp_query(&Type::Atom),
                &g.instance,
                &Governor::default(),
                &seq,
            )
            .unwrap();
            let pow = eval_pooled(
                &tc_powerset_query(&Type::Atom),
                &g.instance,
                &Governor::default(),
                &seq,
            )
            .unwrap();
            assert_eq!(ifp, pow, "n = {n}");
        }
    }

    #[test]
    fn bipartite_query_classifies() {
        let seq = ThreadPool::sequential();
        // even cycle: bipartite → answer = G; odd cycle: empty
        let even = families::cycle_graph(4);
        let ans = eval_pooled(
            &bipartite_query(),
            &even.instance,
            &Governor::default(),
            &seq,
        )
        .unwrap();
        assert_eq!(ans.len(), 4);
        let odd = families::cycle_graph(5);
        let ans = eval_pooled(
            &bipartite_query(),
            &odd.instance,
            &Governor::default(),
            &seq,
        )
        .unwrap();
        assert_eq!(ans.len(), 0);
    }

    #[test]
    fn figure1_roundtrip() {
        let (_u, order, i) = figure1_instance();
        assert_eq!(
            no_object::encoding::encode_instance(&order, &i),
            "P[01#{00#01}#[10#{00#10}]][10#{10}#[00#{01#10}]]"
        );
    }

    #[test]
    fn nest_query_on_small_relation() {
        let mut u = Universe::new();
        let (a, b, c) = (u.intern("a"), u.intern("b"), u.intern("c"));
        let mut i = Instance::empty(pair_schema());
        i.insert("P", vec![Value::Atom(a), Value::Atom(b)]);
        i.insert("P", vec![Value::Atom(a), Value::Atom(c)]);
        let ans = no_core::ranges::safe_eval_pooled(
            &i,
            &nest_query(),
            &Governor::default(),
            &ThreadPool::sequential(),
        )
        .unwrap();
        assert_eq!(ans.len(), 1);
    }
}
