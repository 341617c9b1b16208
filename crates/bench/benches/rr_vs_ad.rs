//! E10 — Theorem 5.1's payoff: range-restricted (safe) evaluation computes
//! ranges from the database instead of enumerating active domains.
//!
//! The nest query of Example 5.1 has a head variable of type `{U}`:
//! active-domain evaluation enumerates all `2ⁿ` subsets, safe evaluation
//! only the candidate groups (≤ number of keys). Expected shape: `safe`
//! grows polynomially with the relation size, `active_domain` doubles per
//! added atom.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use minipool::ThreadPool;
use no_bench::fixtures::{nest_query, pair_schema};
use no_core::eval::eval_pooled;
use no_core::ranges::safe_eval_pooled;
use no_object::Governor;
use no_object::{Instance, Universe, Value};
use std::hint::black_box;

fn nest_instance(n: usize) -> Instance {
    let mut u = Universe::new();
    let atoms: Vec<Value> = (0..n)
        .map(|i| Value::Atom(u.intern(&format!("a{i}"))))
        .collect();
    let mut i = Instance::empty(pair_schema());
    for k in 0..n {
        // key a_k maps to {a_k, a_{k+1 mod n}}
        i.insert("P", vec![atoms[k].clone(), atoms[k].clone()]);
        i.insert("P", vec![atoms[k].clone(), atoms[(k + 1) % n].clone()]);
    }
    i
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("nest");
    group.sample_size(10);
    for n in [4usize, 8, 12, 16] {
        let i = nest_instance(n);
        group.bench_with_input(BenchmarkId::new("safe", n), &n, |b, _| {
            b.iter(|| {
                safe_eval_pooled(
                    black_box(&i),
                    &nest_query(),
                    &Governor::default(),
                    &ThreadPool::sequential(),
                )
                .unwrap()
            })
        });
    }
    // active-domain evaluation enumerates 2^n sets for the head variable —
    // only tolerable for small n
    for n in [4usize, 8, 12] {
        let i = nest_instance(n);
        group.bench_with_input(BenchmarkId::new("active_domain", n), &n, |b, _| {
            b.iter(|| {
                eval_pooled(
                    &nest_query(),
                    black_box(&i),
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
