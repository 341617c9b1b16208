//! E9 — the cost ladder of Theorem 4.1's proof: direct machine execution,
//! the semantic relational simulation (`R_M` maintained by Rust code), and
//! the full formula-level simulation (the generated `CALC+IFP` formula run
//! by the generic evaluator).
//!
//! Expected shape: each rung costs orders of magnitude more than the one
//! below — the construction proves *expressibility*, and this bench
//! quantifies how much that costs at each level of indirection.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use no_object::Governor;
use no_object::{AtomOrder, Universe};
use no_tm::formula::CompiledSim;
use no_tm::machine::{Machine, Move};
use no_tm::sim::RelationalRun;
use std::hint::black_box;

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

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("tm");
    group.sample_size(10);
    let machine = flipper();
    let input = "010";
    let order = order_n(4);

    group.bench_function(BenchmarkId::new("direct", input.len()), |b| {
        b.iter(|| machine.run(black_box(input), 1_000).unwrap())
    });
    group.bench_function(BenchmarkId::new("relational", input.len()), |b| {
        b.iter(|| {
            let mut run = RelationalRun::new(&machine, &order, 1, black_box(input)).unwrap();
            run.run_to_halt().unwrap();
            run.output()
        })
    });
    group.bench_function(BenchmarkId::new("calc_formula", input.len()), |b| {
        let sim = CompiledSim::compile(&machine, &order, 1, input).unwrap();
        b.iter(|| {
            let rel = sim.run(&Governor::default()).unwrap();
            sim.decode_output(black_box(&rel)).unwrap()
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
