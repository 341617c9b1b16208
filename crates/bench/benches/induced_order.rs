//! E6 — Definition 4.2 / Lemma 4.3: the native induced-order comparator
//! versus the *definable* order (the synthesized `CALC_1^2` formula
//! `φ_{<T}` evaluated by the generic engine).
//!
//! Expected shape: both are polynomial; the formula route pays a large
//! constant factor (quantifier loops instead of direct comparison) —
//! that factor is the price of doing it inside the logic, which is what
//! Theorem 4.1 spends to avoid an order assumption.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use no_core::ast::Term;
use no_core::eval::{Env, Evaluator};
use no_core::orders::{LtBase, OrderSynth};
use no_object::domain::DomainIter;
use no_object::order::induced_cmp;
use no_object::Governor;
use no_object::{AtomOrder, Instance, RelationSchema, Schema, Type, Universe, Value};
use std::hint::black_box;

fn ordered_instance(n: usize) -> (AtomOrder, Instance) {
    let names: Vec<String> = (0..n).map(|i| format!("a{i}")).collect();
    let u = Universe::with_names(names.iter().map(String::as_str));
    let order = AtomOrder::identity(&u);
    let schema = Schema::from_relations([RelationSchema::new("ltU", vec![Type::Atom, Type::Atom])]);
    let mut i = Instance::empty(schema);
    for (ra, a) in order.iter().enumerate() {
        for (rb, b) in order.iter().enumerate() {
            if ra < rb {
                i.insert("ltU", vec![Value::Atom(a), Value::Atom(b)]);
            }
        }
    }
    (order, i)
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("induced_order");
    group.sample_size(10);
    let ty = Type::set(Type::tuple(vec![Type::Atom, Type::Atom]));
    for n in [2usize, 3] {
        let (order, instance) = ordered_instance(n);
        // subsample large domains: 2^(n²) values, all-pairs through the
        // formula evaluator is quadratic on top of that
        let mut values: Vec<Value> = DomainIter::new(&order, &ty).unwrap().collect();
        if values.len() > 48 {
            values = values.into_iter().step_by(11).collect();
        }
        group.bench_with_input(BenchmarkId::new("native", n), &n, |b, _| {
            b.iter(|| {
                let mut acc = 0usize;
                for a in &values {
                    for bv in &values {
                        if induced_cmp(black_box(&order), a, bv) == std::cmp::Ordering::Less {
                            acc += 1;
                        }
                    }
                }
                acc
            })
        });
        let mut synth = OrderSynth::new(LtBase::Rel("ltU".into()));
        let formula = synth.less(&ty, Term::var("x"), Term::var("y"));
        group.bench_with_input(BenchmarkId::new("formula", n), &n, |b, _| {
            b.iter(|| {
                let mut ev = Evaluator::new(&instance, order.clone(), Governor::default());
                let mut acc = 0usize;
                for a in &values {
                    for bv in &values {
                        let mut env = Env::new();
                        env.push("x", a.clone());
                        env.push("y", bv.clone());
                        if ev.holds(black_box(&formula), &mut env).unwrap() {
                            acc += 1;
                        }
                    }
                }
                acc
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
