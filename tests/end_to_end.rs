//! One scenario, every layer: a database written in the text format is
//! loaded, queried through CALC (active and safe), through Datalog (both
//! semantics), through the algebra (direct and compiled to CALC), shipped
//! through the shell, encoded onto a TM tape and back — all answers
//! consistent.

use nestdb::algebra::{self, to_query, Expr};
use nestdb::core::eval::eval_pooled;
use nestdb::core::parser::parse_query;
use nestdb::core::ranges::safe_eval_pooled;
use nestdb::datalog;
use nestdb::object::encoding::{decode_instance, encode_instance};
use nestdb::object::text::{parse_database, render_database};
use nestdb::object::Governor;
use nestdb::object::{AtomOrder, Universe};
use nestdb::shell::Shell;
use nestdb::ThreadPool;

mod common;
use common::ScratchDir;

const DB: &str = "\
schema Enroll(U, U).      % (student, course)
schema Meets(U, {U}).     % course -> set of weekdays
Enroll('mia', 'db').
Enroll('mia', 'logic').
Enroll('sam', 'db').
Enroll('zoe', 'logic').
Meets('db', {'mon', 'wed'}).
Meets('logic', {'wed', 'fri'}).
";

#[test]
fn every_layer_agrees() {
    let seq = ThreadPool::sequential();
    let mut u = Universe::new();
    let (_schema, db) = parse_database(DB, &mut u).expect("database parses");
    assert_eq!(db.cardinality(), 6);

    // --- CALC, active vs safe: classmates (share a course) ---
    let classmates_src = "{[x:U, y:U] | exists c:U (Enroll(x, c) /\\ Enroll(y, c)) /\\ ~(x = y)}";
    let q = parse_query(classmates_src, &mut u).unwrap();
    let active = eval_pooled(&q, &db, &Governor::default(), &seq).unwrap();
    let safe = safe_eval_pooled(&db, &q, &Governor::default(), &seq).unwrap();
    assert_eq!(active, safe);
    assert_eq!(active.len(), 4); // (mia,sam), (sam,mia), (mia,zoe), (zoe,mia)

    // --- the same query in the algebra, direct and compiled ---
    let alg = Expr::rel("Enroll")
        .product(Expr::rel("Enroll"))
        .select(nestdb::algebra::Pred::EqCols(2, 4))
        .select(nestdb::algebra::Pred::EqCols(1, 3).not())
        .project([1, 3]);
    let by_algebra = algebra::eval_pooled(&alg, &db, &Governor::default(), &seq).unwrap();
    assert_eq!(by_algebra, active);
    let compiled = to_query(&alg, db.schema()).unwrap();
    let by_compiled = eval_pooled(&compiled, &db, &Governor::default(), &seq).unwrap();
    assert_eq!(by_compiled, active);

    // --- Datalog: same-day courses, inflationary vs stratified agree on
    // this negation-free program ---
    let program = datalog::parse_program(
        "rel overlap(U, U).\n\
         overlap(c, d) :- Meets(c, S), Meets(d, T), x in S, x in T, c != d.",
        &mut u,
    )
    .unwrap();
    let (inflationary, _) = datalog::eval_pooled(
        &program,
        &db,
        datalog::Strategy::SemiNaive,
        &Governor::default(),
        &seq,
    )
    .unwrap();
    let stratified =
        datalog::eval_stratified_pooled(&program, &db, &Governor::default(), &seq).unwrap();
    assert_eq!(inflationary, stratified);
    assert_eq!(inflationary["overlap"].len(), 2); // db↔logic share wednesday

    // --- the shell sees the same world ---
    let mut shell = Shell::new();
    let scratch = ScratchDir::new("end_to_end");
    let dbfile = scratch.file("db.no");
    std::fs::write(&dbfile, DB).unwrap();
    shell.load(dbfile.to_str().unwrap()).unwrap();
    let out = shell
        .command(classmates_src)
        .unwrap()
        .expect("query output");
    assert!(out.contains("4 rows"), "{out}");

    // --- text round trip and tape round trip ---
    let rendered = render_database(&u, &db);
    let mut u2 = Universe::new();
    let (_s2, again) = parse_database(&rendered, &mut u2).unwrap();
    assert_eq!(again.cardinality(), db.cardinality());

    let order = AtomOrder::new(db.atoms().into_iter().collect());
    let tape = encode_instance(&order, &db);
    let back = decode_instance(&order, db.schema(), &tape).unwrap();
    assert_eq!(back, db);

    // --- and the classifier prices the query correctly ---
    let report = nestdb::core::report::classify(
        db.schema(),
        &q,
        nestdb::core::report::InputAssumption::Unknown,
    )
    .unwrap();
    assert!(report.range_restricted);
    assert_eq!(report.bound.bound, "LOGSPACE");
}
