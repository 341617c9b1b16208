//! E12 — the density dependence of Theorem 4.1: the *same* `CALC_1^1`
//! query is cheap relative to `‖I‖` on dense inputs and expensive relative
//! to `‖I‖` on sparse inputs, because the active domains are the same size
//! but the instances are not.
//!
//! Query: `{X : {U} | R(X) ∧ ∃Y:{U} (R(Y) ∧ X ⊆ Y ∧ ¬(X = Y))}` — sets in
//! the database that have a proper superset in the database. The inner
//! variable ranges over `dom({U}, D)`; on the dense family (all subsets)
//! that equals the database, on the sparse bounded family it dwarfs it.
//!
//! Expected shape: time *per database tuple* is flat on the dense family
//! and grows like `2ⁿ/n` on the sparse one.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use minipool::ThreadPool;
use no_core::ast::{Formula, Term};
use no_core::eval::{eval_pooled, Query};
use no_density::families;
use no_object::Governor;
use no_object::Type;
use std::hint::black_box;

fn dominated_query(rel: &str) -> Query {
    let su = Type::set(Type::Atom);
    let body = Formula::and([
        Formula::Rel(rel.into(), vec![Term::var("X")]),
        Formula::exists(
            "Y",
            su.clone(),
            Formula::and([
                Formula::Rel(rel.into(), vec![Term::var("Y")]),
                Formula::Subset(Term::var("X"), Term::var("Y")),
                Formula::Eq(Term::var("X"), Term::var("Y")).not(),
            ]),
        ),
    ]);
    Query::new(vec![("X".into(), su)], body)
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("density");
    group.sample_size(10);
    for n in [6usize, 8, 10] {
        let dense = families::subset_family(n);
        group.bench_with_input(BenchmarkId::new("dense_subsets", n), &n, |b, _| {
            b.iter(|| {
                eval_pooled(
                    &dominated_query("R"),
                    black_box(&dense.instance),
                    &Governor::default(),
                    &ThreadPool::sequential(),
                )
                .unwrap()
            })
        });
        // sparse family with the same unary shape: every set has size ≤ 1
        let sparse = families::bounded_enrollment_family(n, 1);
        group.bench_with_input(BenchmarkId::new("sparse_bounded", n), &n, |b, _| {
            b.iter(|| {
                eval_pooled(
                    &dominated_query("Takes"),
                    black_box(&sparse.instance),
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
