//! # `no-bench` — experiment harness
//!
//! Shared fixtures for the benchmarks and the `experiments` binary that
//! regenerates every figure, table and theorem-shaped claim of the paper
//! (the E1–E15 index of `DESIGN.md`/`EXPERIMENTS.md`), plus the one
//! best-of-N timer the `bench_*` binaries share.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::time::Instant;

pub mod fixtures;

/// Best-of-`reps` wall time in milliseconds for `f`, with the value of its
/// last run (callers return a result cardinality and cross-check it
/// between configurations).
///
/// # Panics
/// Panics if `reps` is zero.
pub fn best_of<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let out = f();
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
        last = Some(out);
    }
    (best, last.expect("best_of needs at least one rep"))
}
