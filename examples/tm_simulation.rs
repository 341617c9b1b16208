//! Theorem 4.1's machinery, end to end: encode the paper's Figure 1
//! instance onto a Turing-machine tape, run a machine on it directly, run
//! the same machine in the relational `R_M` representation, and finally
//! run a (tiny) machine as a *generated `CALC+IFP` formula* through the
//! generic query evaluator.
//!
//! ```text
//! cargo run --release --example tm_simulation
//! ```

use nestdb::core::print::Printer;
use nestdb::object::encoding::encode_instance;
use nestdb::object::Governor;
use nestdb::object::{AtomOrder, Instance, RelationSchema, Schema, Type, Universe, Value};
use nestdb::tm::formula::CompiledSim;
use nestdb::tm::machine::{Machine, Move};
use nestdb::tm::machines;
use nestdb::tm::sim::RelationalRun;

fn figure1() -> (Universe, AtomOrder, Instance) {
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

fn main() {
    // --- the instance and its standard encoding (Figures 1 & 2) ---
    let (_u, order, db) = figure1();
    println!("instance I:\n{db}");
    let tape = encode_instance(&order, &db);
    println!("enc(I) on the tape:\n  {tape}\n");

    // --- a machine run, direct and relational ---
    let machine = machines::balanced_scanner();
    let direct = machine.run(&tape, 1_000_000).expect("scanner halts");
    println!(
        "balanced_scanner on enc(I): halts in state {:?} after {} steps",
        machine.state_name(direct.state),
        direct.steps
    );

    let identity = machines::identity();
    let mut rel = RelationalRun::new(&identity, &order, 4, &tape).expect("tape fits 3^4 cells");
    rel.run_to_halt().expect("halts within timestamps");
    println!(
        "identity machine, relationally: {} R_M rows over {} timestamps; output equals input: {}",
        rel.row_count(),
        rel.history.len(),
        rel.output() == tape
    );
    println!("\nthe initial configuration as the paper draws it (first 8 rows):");
    for line in rel.render_configuration(0).lines().take(8) {
        println!("  {line}");
    }

    // --- the formula-level simulation on a tiny machine ---
    let mut b = Machine::builder('_');
    b.state("scan")
        .rule("scan", '0', '1', Move::Right, "scan")
        .rule("scan", '1', '0', Move::Right, "scan")
        .rule("scan", '_', '_', Move::Stay, "done")
        .halting("done");
    let flipper = b.build().unwrap();
    let u4 = Universe::with_names(["a0", "a1", "a2", "a3"]);
    let order4 = AtomOrder::identity(&u4);
    let sim = CompiledSim::compile(&flipper, &order4, 1, "011").expect("compiles");
    println!("\nthe generated CALC+IFP formula simulating the bit-flipper (excerpt):");
    let printed = Printer::new().formula(&nestdb::core::ast::Formula::FixApp(
        sim.fixpoint.clone(),
        vec![
            nestdb::core::ast::Term::var("t"),
            nestdb::core::ast::Term::var("i"),
            nestdb::core::ast::Term::var("x"),
            nestdb::core::ast::Term::var("y"),
        ],
    ));
    println!("  {}…", &printed[..printed.len().min(200)]);
    let rel = sim.run(&Governor::default()).expect("fixpoint converges");
    println!(
        "evaluated by the generic engine: {} R_M rows, output {:?} (direct machine says {:?})",
        rel.len(),
        sim.decode_output(&rel).unwrap(),
        flipper.run("011", 100).unwrap().output
    );
}
