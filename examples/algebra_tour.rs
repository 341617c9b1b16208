//! The nested-relational algebra side of the story: the same queries as
//! operator trees, the nest/unnest pair, and the powerset operator whose
//! cost the paper's fixpoint operators exist to avoid.
//!
//! ```text
//! cargo run --example algebra_tour
//! ```

use nestdb::algebra::{AlgebraError, Expr, Pred};
use nestdb::core::parser::parse_query;
use nestdb::object::{Governor, Instance, Limits, Relation, RelationSchema, Schema, Type};
use nestdb::object::{Universe, Value};
use nestdb::ThreadPool;

fn main() {
    // flights between cities
    let mut u = Universe::new();
    let schema = Schema::from_relations([RelationSchema::new("F", vec![Type::Atom, Type::Atom])]);
    let mut db = Instance::empty(schema);
    let city = |u: &mut Universe, s: &str| Value::Atom(u.intern(s));
    let routes = [
        ("paris", "nice"),
        ("paris", "lyon"),
        ("lyon", "nice"),
        ("nice", "paris"),
    ];
    for (a, b) in routes {
        let (a, b) = (city(&mut u, a), city(&mut u, b));
        db.insert("F", vec![a, b]);
    }
    println!("flights:\n{db}");
    let pool = ThreadPool::sequential();
    // every evaluation below runs under a fresh default budget
    let eval = |e: &Expr| -> Relation {
        nestdb::algebra::eval_pooled(e, &db, &Governor::default(), &pool).unwrap()
    };

    // --- the same query, algebra vs calculus ---
    // destinations reachable in exactly two hops
    let two_hop_alg = Expr::rel("F")
        .product(Expr::rel("F"))
        .select(Pred::EqCols(2, 3))
        .project([1, 4]);
    let by_algebra = eval(&two_hop_alg);
    let two_hop_calc =
        parse_query("{[x:U, y:U] | exists z:U (F(x, z) /\\ F(z, y))}", &mut u).unwrap();
    let by_calculus =
        nestdb::core::eval_pooled(&two_hop_calc, &db, &Governor::default(), &pool).unwrap();
    println!(
        "two-hop pairs: algebra = {}, calculus = {}, equal = {}",
        by_algebra.len(),
        by_calculus.len(),
        by_algebra == by_calculus
    );

    // --- nest: group destinations per origin; unnest inverts it ---
    let grouped = Expr::rel("F").nest(2);
    let out = eval(&grouped);
    println!("\nnest[2](F) — destination sets per origin:");
    for row in out.sorted_rows() {
        println!("  {} -> {}", row[0], row[1]);
    }
    let back = eval(&grouped.clone().unnest(2));
    println!("unnest(nest(F)) == F: {}", &back == db.relation("F"));

    // --- powerset: the operator the paper warns about ---
    let cities = Expr::rel("F")
        .project([1])
        .union(Expr::rel("F").project([2]));
    let n_cities = eval(&cities).len();
    let pow = cities.powerset();
    let subsets = eval(&pow);
    println!(
        "\npowerset of the {} cities: {} subsets (2^{})",
        n_cities,
        subsets.len(),
        n_cities
    );
    // the governor converts hyperexponential blowup into a structured error
    let tight = Governor::new(Limits {
        max_range: 4,
        ..Limits::default()
    });
    match nestdb::algebra::eval_pooled(&Expr::rel("F").project([1]).powerset(), &db, &tight, &pool)
    {
        Err(AlgebraError::Resource(e)) => {
            println!(
                "under a {}-row budget the powerset is refused, not attempted —",
                e.limit
            )
        }
        other => println!("unexpected: {other:?}"),
    }
    println!("the paper's conclusion in one line: fixpoints give tractable recursion,");
    println!("the powerset operation does not (see the tc_fixpoint bench for numbers).");
}
