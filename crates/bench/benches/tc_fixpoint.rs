//! E8 — Theorem 4.1(2)'s shape: recursion via `IFP` is polynomial while
//! the powerset-quantification alternative (`CALC_2^2`, one set-height up)
//! is hyperexponential. Also includes the semi-naive Datalog engine as the
//! deductive baseline of Section 3.
//!
//! Expected shape: `ifp` and `datalog` grow polynomially with the node
//! count; `powerset` explodes around n = 4 (2^(n²) candidate edge sets)
//! and is only benchmarked for n ≤ 3.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use minipool::ThreadPool;
use no_bench::fixtures::{tc_ifp_query, tc_powerset_query};
use no_core::eval::eval_pooled;
use no_datalog::{DTerm, Literal, Program, Strategy};
use no_density::families;
use no_object::Governor;
use no_object::Type;
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
    let mut group = c.benchmark_group("tc");
    group.sample_size(10);
    for n in [4usize, 6, 8, 10] {
        let g = families::cycle_graph(n);
        group.bench_with_input(BenchmarkId::new("ifp", n), &n, |b, _| {
            b.iter(|| {
                eval_pooled(
                    &tc_ifp_query(&Type::Atom),
                    black_box(&g.instance),
                    &Governor::default(),
                    &ThreadPool::sequential(),
                )
                .unwrap()
            })
        });
        group.bench_with_input(BenchmarkId::new("datalog_seminaive", n), &n, |b, _| {
            b.iter(|| {
                no_datalog::eval_pooled(
                    &tc_program(),
                    black_box(&g.instance),
                    Strategy::SemiNaive,
                    &Governor::default(),
                    &ThreadPool::sequential(),
                )
                .unwrap()
            })
        });
    }
    // the hyperexponential baseline only survives tiny n
    for n in [2usize, 3] {
        let g = families::cycle_graph(n);
        group.bench_with_input(BenchmarkId::new("powerset", n), &n, |b, _| {
            b.iter(|| {
                eval_pooled(
                    &tc_powerset_query(&Type::Atom),
                    black_box(&g.instance),
                    &Governor::default(),
                    &ThreadPool::sequential(),
                )
                .unwrap()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
