//! Example 4.1's VERSO discipline and Section 5's range restriction: a
//! keyed nested relation `Depts[U, {U}]` (department → set of employees),
//! the nest/unnest queries of Examples 5.1 and 5.3, the range-restriction
//! analyzer's verdicts, and the safe-evaluation payoff.
//!
//! ```text
//! cargo run --example verso_nested
//! ```

use nestdb::core::ast::{FixOp, Fixpoint, Formula, Term};
use nestdb::core::eval::{eval_pooled, Query};
use nestdb::core::ranges::{compute_ranges, safe_eval_pooled};
use nestdb::core::rr;
use nestdb::core::typeck;
use nestdb::object::Governor;
use nestdb::object::{Instance, RelationSchema, Schema, Type, Universe, Value};
use nestdb::ThreadPool;
use std::sync::Arc;

fn main() {
    let seq = ThreadPool::sequential();
    // --- the VERSO-keyed database ---
    let mut u = Universe::new();
    let dept_schema = Schema::from_relations([
        RelationSchema::new("Depts", vec![Type::Atom, Type::set(Type::Atom)]),
        RelationSchema::new("WorksIn", vec![Type::Atom, Type::Atom]),
    ]);
    let mut db = Instance::empty(dept_schema);
    let atom = |u: &mut Universe, s: &str| Value::Atom(u.intern(s));
    let (sales, eng) = (atom(&mut u, "sales"), atom(&mut u, "eng"));
    let (ann, ben, eva, kim) = (
        atom(&mut u, "ann"),
        atom(&mut u, "ben"),
        atom(&mut u, "eva"),
        atom(&mut u, "kim"),
    );
    for (person, dept) in [(&ann, &sales), (&ben, &sales), (&eva, &eng), (&kim, &eng)] {
        db.insert("WorksIn", vec![person.clone(), dept.clone()]);
    }
    db.insert(
        "Depts",
        vec![sales.clone(), Value::set([ann.clone(), ben.clone()])],
    );
    db.insert(
        "Depts",
        vec![eng.clone(), Value::set([eva.clone(), kim.clone()])],
    );
    println!("database:\n{db}");

    // --- unnest: flatten Depts back to (employee, dept) pairs ---
    let unnest = Query::new(
        vec![("e".into(), Type::Atom), ("d".into(), Type::Atom)],
        Formula::exists(
            "s",
            Type::set(Type::Atom),
            Formula::and([
                Formula::Rel("Depts".into(), vec![Term::var("d"), Term::var("s")]),
                Formula::In(Term::var("e"), Term::var("s")),
            ]),
        ),
    );
    let flat = eval_pooled(&unnest, &db, &Governor::default(), &seq).unwrap();
    println!(
        "unnest(Depts) = {} pairs (matches WorksIn: {})",
        flat.len(),
        { flat == db.relation("WorksIn").clone() }
    );

    // --- Example 5.1: nest WorksIn by department, the RR way ---
    let nest = Query::new(
        vec![
            ("d".into(), Type::Atom),
            ("s".into(), Type::set(Type::Atom)),
        ],
        Formula::and([
            Formula::exists(
                "w",
                Type::Atom,
                Formula::Rel("WorksIn".into(), vec![Term::var("w"), Term::var("d")]),
            ),
            Formula::forall(
                "e",
                Type::Atom,
                Formula::Rel("WorksIn".into(), vec![Term::var("e"), Term::var("d")])
                    .iff(Formula::In(Term::var("e"), Term::var("s"))),
            ),
        ]),
    );
    let checked = typeck::check(db.schema(), &nest.head, &nest.body).unwrap();
    let analysis = rr::analyze(db.schema(), &checked.var_types, &nest.body);
    println!("\nExample 5.1 nest query — range-restriction analysis:");
    for v in ["d", "s", "e", "w"] {
        println!(
            "  {v}: {}",
            if analysis.is_restricted(v) {
                "range restricted"
            } else {
                "NOT restricted"
            }
        );
    }
    let ranges = compute_ranges(&db, &checked.var_types, &nest.body, &Governor::default()).unwrap();
    println!("computed ranges (Theorem 5.1):");
    for (path, vals) in ranges.iter() {
        println!("  r({path}) has {} candidate values", vals.len());
    }
    let nested = safe_eval_pooled(&db, &nest, &Governor::default(), &seq).unwrap();
    println!(
        "nest(WorksIn) = {} groups (matches Depts: {})",
        nested.len(),
        { nested == db.relation("Depts").clone() }
    );

    // --- Example 5.3: grouping via an IFP term ---
    // a one-step fixpoint computing the set of all employees of any dept:
    // s = IFP(Q; y | ∃dd WorksIn(y, dd) ∨ Q(y)) — "everyone employed"
    let everyone = Arc::new(Fixpoint {
        op: FixOp::Ifp,
        rel: "Q".into(),
        vars: vec![("y".into(), Type::Atom)],
        body: Box::new(Formula::or([
            Formula::exists(
                "dd",
                Type::Atom,
                Formula::Rel("WorksIn".into(), vec![Term::var("y"), Term::var("dd")]),
            ),
            Formula::Rel("Q".into(), vec![Term::var("y")]),
        ])),
    });
    let q53 = Query::new(
        vec![("s".into(), Type::set(Type::Atom))],
        Formula::Eq(Term::var("s"), Term::Fix(everyone)),
    );
    let ans = safe_eval_pooled(&db, &q53, &Governor::default(), &seq).unwrap();
    let row = ans.sorted_rows()[0].clone();
    println!("\nExample 5.3 IFP-term grouping: everyone = {}", row[0]);
    println!("(\"the fixpoint is reached here in one step\" — the paper, and indeed it is)");
}
