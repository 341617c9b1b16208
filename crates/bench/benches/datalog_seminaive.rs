//! Ablation (DESIGN.md §6): naive versus semi-naive inflationary Datalog
//! evaluation, on transitive closure over growing chains.
//!
//! Expected shape: both polynomial; semi-naive wins by a factor that grows
//! with the chain length (it re-joins only the frontier each round).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use minipool::ThreadPool;
use no_datalog::{eval_pooled, DTerm, Literal, Program, Strategy};
use no_density::families;
use no_object::{Governor, Type};
use std::hint::black_box;

fn tc_program() -> Program {
    let mut p = Program::new();
    p.declare("tc", vec![Type::Atom, Type::Atom]);
    p.rule(
        "tc",
        vec![DTerm::var("x"), DTerm::var("y")],
        vec![Literal::Pos(
            "G".into(),
            vec![DTerm::var("x"), DTerm::var("y")],
        )],
    );
    p.rule(
        "tc",
        vec![DTerm::var("x"), DTerm::var("y")],
        vec![
            Literal::Pos("tc".into(), vec![DTerm::var("x"), DTerm::var("z")]),
            Literal::Pos("G".into(), vec![DTerm::var("z"), DTerm::var("y")]),
        ],
    );
    p
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("datalog_tc");
    group.sample_size(10);
    let program = tc_program();
    let pool = ThreadPool::sequential();
    for n in [10usize, 20, 40] {
        let g = families::path_graph(n);
        group.bench_with_input(BenchmarkId::new("naive", n), &n, |b, _| {
            b.iter(|| {
                eval_pooled(
                    &program,
                    black_box(&g.instance),
                    Strategy::Naive,
                    &Governor::default(),
                    &pool,
                )
                .unwrap()
            })
        });
        group.bench_with_input(BenchmarkId::new("seminaive", n), &n, |b, _| {
            b.iter(|| {
                eval_pooled(
                    &program,
                    black_box(&g.instance),
                    Strategy::SemiNaive,
                    &Governor::default(),
                    &pool,
                )
                .unwrap()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
