//! Quickstart: build a complex-object database, write CALC queries in the
//! concrete syntax, evaluate them, and ask the classifier what the paper
//! guarantees about their complexity.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use nestdb::core::eval::eval_pooled;
use nestdb::core::parser::parse_query;
use nestdb::core::print::Printer;
use nestdb::core::ranges::safe_eval_pooled;
use nestdb::core::report::{classify, InputAssumption};
use nestdb::object::Governor;
use nestdb::object::{Instance, RelationSchema, Schema, Type, Universe, Value};
use nestdb::ThreadPool;

fn main() {
    let seq = ThreadPool::sequential();
    // --- a database of people and their friend sets: Friends[U, {U}] ---
    let mut universe = Universe::new();
    let schema = Schema::from_relations([RelationSchema::new(
        "Friends",
        vec![Type::Atom, Type::set(Type::Atom)],
    )]);
    let mut db = Instance::empty(schema);
    let person = |u: &mut Universe, name: &str| Value::Atom(u.intern(name));
    let (alice, bob, carol, dave) = (
        person(&mut universe, "alice"),
        person(&mut universe, "bob"),
        person(&mut universe, "carol"),
        person(&mut universe, "dave"),
    );
    db.insert(
        "Friends",
        vec![alice.clone(), Value::set([bob.clone(), carol.clone()])],
    );
    db.insert("Friends", vec![bob.clone(), Value::set([alice.clone()])]);
    db.insert(
        "Friends",
        vec![
            carol.clone(),
            Value::set([alice.clone(), bob.clone(), dave.clone()]),
        ],
    );
    db.insert("Friends", vec![dave, Value::set([])]);
    println!("database:\n{db}");

    // --- query 1: pairs of mutual friends, in concrete syntax ---
    let q1_src = "{[x:U, y:U] | exists fx:{U} exists fy:{U} \
                  (Friends(x, fx) /\\ Friends(y, fy) /\\ y in fx /\\ x in fy)}";
    let q1 = parse_query(q1_src, &mut universe).expect("query 1 parses");
    println!(
        "q1 (mutual friends): {}",
        Printer::with_universe(&universe).query(&q1)
    );
    let answer = eval_pooled(&q1, &db, &Governor::default(), &seq).expect("q1 evaluates");
    for row in answer.sorted_rows() {
        println!(
            "  ({}, {})",
            name_of(&universe, &row[0]),
            name_of(&universe, &row[1])
        );
    }

    // --- query 2: people whose whole friend set is popular (nested ∀) ---
    let q2_src = "{[x:U] | exists fx:{U} (Friends(x, fx) /\\ \
                  forall y:U (y in fx -> exists fy:{U} (Friends(y, fy) /\\ ~(fy = {}))))}";
    let q2 = parse_query(q2_src, &mut universe).expect("query 2 parses");
    let answer2 =
        safe_eval_pooled(&db, &q2, &Governor::default(), &seq).expect("q2 evaluates safely");
    println!("q2 (friends all have friends):");
    for row in answer2.sorted_rows() {
        println!("  {}", name_of(&universe, &row[0]));
    }

    // --- what does the paper say about these queries? ---
    for (name, q) in [("q1", &q1), ("q2", &q2)] {
        let report = classify(db.schema(), q, InputAssumption::Unknown).expect("classifies");
        println!("\n{name} classification:\n{report}");
    }

    // --- transitive closure needs a fixpoint: IFP in concrete syntax ---
    let q3_src = "{[u:U, v:U] | ifp(S; x:U, y:U | \
                    exists fx:{U} (Friends(x, fx) /\\ y in fx) \
                    \\/ exists z:U (S(x, z) /\\ exists fz:{U} (Friends(z, fz) /\\ y in fz)))(u, v)}";
    let q3 = parse_query(q3_src, &mut universe).expect("query 3 parses");
    let reach = eval_pooled(&q3, &db, &Governor::default(), &seq).expect("q3 evaluates");
    println!(
        "q3 (reachability through friend sets): {} pairs",
        reach.len()
    );
    let report = classify(db.schema(), &q3, InputAssumption::Dense).expect("classifies");
    println!("under a density assumption:\n{report}");
}

fn name_of<'a>(u: &'a Universe, v: &Value) -> &'a str {
    match v {
        Value::Atom(a) => u.name(*a),
        _ => "?",
    }
}
