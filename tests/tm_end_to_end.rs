//! Theorem 4.1's simulation, validated across all three execution levels
//! on random inputs: the direct machine, the relational `R_M`
//! representation, and the generated `CALC+IFP` formula run by the
//! generic evaluator.

mod common;

use nestdb::object::Governor;
use nestdb::object::{AtomOrder, Universe};
use nestdb::tm::formula::CompiledSim;
use nestdb::tm::machine::{Machine, Move};
use nestdb::tm::machines;
use nestdb::tm::sim::RelationalRun;
use proptest::prelude::*;

fn order_n(n: usize) -> AtomOrder {
    let names: Vec<String> = (0..n).map(|i| format!("a{i}")).collect();
    let u = Universe::with_names(names.iter().map(String::as_str));
    AtomOrder::identity(&u)
}

fn flipper() -> Machine {
    let mut b = Machine::builder('_');
    b.state("scan")
        .rule("scan", '0', '1', Move::Right, "scan")
        .rule("scan", '1', '0', Move::Right, "scan")
        .rule("scan", '_', '_', Move::Stay, "done")
        .halting("done");
    b.build().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Direct run == relational run on random bit strings.
    #[test]
    fn relational_simulation_is_faithful(bits in "[01]{0,12}") {
        let m = machines::complement_bits();
        let order = order_n(4);
        let direct = m.run(&bits, 10_000).unwrap();
        let mut rel = RelationalRun::new(&m, &order, 2, &bits).unwrap();
        rel.run_to_halt().unwrap();
        prop_assert_eq!(rel.output(), direct.output);
    }

    /// Direct run == formula-level run on random short bit strings (the
    /// formula route is hyper-expensive; inputs stay tiny by design).
    #[test]
    fn formula_simulation_is_faithful(bits in "[01]{0,3}") {
        let machine = flipper();
        let order = order_n(5);
        let sim = CompiledSim::compile(&machine, &order, 1, &bits).unwrap();
        let rel = sim.run(&Governor::default()).unwrap();
        let direct = machine.run(&bits, 100).unwrap();
        prop_assert_eq!(sim.decode_output(&rel).unwrap(), direct.output);
        prop_assert!(sim.halted(&rel));
    }

    /// The balanced scanner agrees with a reference bracket matcher.
    #[test]
    fn scanner_matches_reference(body in "[01#{}\\[\\]]{0,14}") {
        let input = format!("P{body}");
        let m = machines::balanced_scanner();
        let halt = m.run(&input, 1_000_000).unwrap();
        let verdict = m.state_name(halt.state) == "accept";
        // reference matcher
        let mut stack = Vec::new();
        let mut ok = true;
        for c in body.chars() {
            match c {
                '{' | '[' => stack.push(c),
                '}' if stack.pop() != Some('{') => {
                    ok = false;
                    break;
                }
                ']' if stack.pop() != Some('[') => {
                    ok = false;
                    break;
                }
                _ => {}
            }
        }
        let expect = ok && stack.is_empty();
        prop_assert_eq!(verdict, expect, "input {}", input);
    }
}

/// The full pipeline on the Figure 1 instance: encode → simulate → decode
/// → re-decode the instance.
#[test]
fn figure1_identity_pipeline() {
    let mut u = Universe::new();
    let a = nestdb::object::Value::Atom(u.intern("a"));
    let b = nestdb::object::Value::Atom(u.intern("b"));
    let c = nestdb::object::Value::Atom(u.intern("c"));
    let schema = nestdb::object::Schema::from_relations([nestdb::object::RelationSchema::new(
        "P",
        vec![
            nestdb::object::Type::Atom,
            nestdb::object::Type::set(nestdb::object::Type::Atom),
            nestdb::object::Type::tuple(vec![
                nestdb::object::Type::Atom,
                nestdb::object::Type::set(nestdb::object::Type::Atom),
            ]),
        ],
    )]);
    let mut i = nestdb::object::Instance::empty(schema);
    i.insert(
        "P",
        vec![
            b.clone(),
            nestdb::object::Value::set([a.clone(), b.clone()]),
            nestdb::object::Value::tuple([
                c.clone(),
                nestdb::object::Value::set([a.clone(), c.clone()]),
            ]),
        ],
    );
    i.insert(
        "P",
        vec![
            c.clone(),
            nestdb::object::Value::set([c.clone()]),
            nestdb::object::Value::tuple([a, nestdb::object::Value::set([b, c])]),
        ],
    );
    let order = AtomOrder::identity(&u);
    let out = nestdb::tm::sim::simulate_on_instance(&machines::identity(), &order, &i, 4).unwrap();
    let back = nestdb::object::encoding::decode_instance(&order, i.schema(), &out).unwrap();
    assert_eq!(back, i, "q = identity: decode(enc(q(I))) must be I");
}
