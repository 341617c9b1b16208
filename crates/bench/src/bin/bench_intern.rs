//! Interned-vs-tree benchmark: measures what hash-consing buys the two
//! hot paths named in DESIGN.md §Interning — fixpoint dedup and powerset
//! enumeration — when the values involved are genuinely nested (so tree
//! hashing and tree comparison are O(size), not O(1)).
//!
//! ```text
//! cargo run --release -p no-bench --bin bench_intern
//! ```
//!
//! Emits `BENCH_intern.json` in the current directory:
//!
//! ```json
//! { "benchmarks": [ { "name": "...", "tree_ms": t, "interned_ms": i,
//!                     "speedup": t/i, "results": n }, ... ] }
//! ```
//!
//! Both sides of each comparison compute the identical result set and the
//! harness asserts the cardinalities agree, so the speedup is not bought
//! with a semantic shortcut.

use no_bench::best_of;
use no_object::intern::{Interner, ValueId};
use no_object::{Universe, Value};
use std::collections::{HashMap, HashSet};

/// Node `i`: a set of sets of atoms, wide enough that structural hashing
/// visits dozens of nodes per touch. Distinct per `i`.
fn nested_node(u: &mut Universe, i: usize) -> Value {
    let inner: Vec<Value> = (0..4)
        .map(|j| {
            Value::set(
                (0..4)
                    .map(|k| Value::Atom(u.intern(&format!("a{}_{}_{}", i, j, k))))
                    .collect::<Vec<_>>(),
            )
        })
        .collect();
    Value::set(inner)
}

/// Semi-naive transitive closure over tree values: every dedup probe
/// hashes two full nested values.
fn tc_tree(edges: &[(Value, Value)]) -> usize {
    let mut adj: HashMap<&Value, Vec<&Value>> = HashMap::new();
    for (x, y) in edges {
        adj.entry(x).or_default().push(y);
    }
    let mut tc: HashSet<(Value, Value)> = edges.iter().cloned().collect();
    let mut delta: Vec<(Value, Value)> = edges.to_vec();
    while !delta.is_empty() {
        let mut next = Vec::new();
        for (x, y) in &delta {
            if let Some(succs) = adj.get(y) {
                for z in succs {
                    let pair = (x.clone(), (*z).clone());
                    if !tc.contains(&pair) {
                        tc.insert(pair.clone());
                        next.push(pair);
                    }
                }
            }
        }
        delta = next;
    }
    tc.len()
}

/// The same closure over interned ids: dedup probes hash two `u32`s.
fn tc_interned(edges: &[(ValueId, ValueId)]) -> usize {
    let mut adj: HashMap<ValueId, Vec<ValueId>> = HashMap::new();
    for &(x, y) in edges {
        adj.entry(x).or_default().push(y);
    }
    let mut tc: HashSet<(ValueId, ValueId)> = edges.iter().copied().collect();
    let mut delta: Vec<(ValueId, ValueId)> = edges.to_vec();
    while !delta.is_empty() {
        let mut next = Vec::new();
        for &(x, y) in &delta {
            if let Some(succs) = adj.get(&y) {
                for &z in succs {
                    if tc.insert((x, z)) {
                        next.push((x, z));
                    }
                }
            }
        }
        delta = next;
    }
    tc.len()
}

/// All 2^n subsets as canonical `Value` sets: each mask clones and
/// re-sorts the chosen nested values.
fn powerset_tree(base: &[Value]) -> usize {
    let n = base.len();
    let mut seen: HashSet<Value> = HashSet::new();
    for mask in 0u32..(1 << n) {
        let subset: Vec<Value> = (0..n)
            .filter(|i| mask & (1 << i) != 0)
            .map(|i| base[i].clone())
            .collect();
        seen.insert(Value::set(subset));
    }
    seen.len()
}

/// All 2^n subsets through the interner: ids are sorted once up front,
/// every mask is a presorted slice interned by id hashing alone.
fn powerset_interned(int: &Interner, base: &[ValueId]) -> usize {
    let mut sorted = base.to_vec();
    sorted.sort_by(|a, b| int.cmp(*a, *b));
    let n = sorted.len();
    let mut seen: HashSet<ValueId> = HashSet::new();
    for mask in 0u32..(1 << n) {
        let subset: Vec<ValueId> = (0..n)
            .filter(|i| mask & (1 << i) != 0)
            .map(|i| sorted[i])
            .collect();
        seen.insert(int.intern_set_presorted(subset));
    }
    seen.len()
}

struct Row {
    name: &'static str,
    tree_ms: f64,
    interned_ms: f64,
    results: usize,
}

fn main() {
    let mut u = Universe::new();
    let reps = 5;
    let mut rows = Vec::new();

    // -- transitive closure over a path of 48 nested-set nodes ----------
    let nodes: Vec<Value> = (0..48).map(|i| nested_node(&mut u, i)).collect();
    let edges: Vec<(Value, Value)> = nodes
        .windows(2)
        .map(|w| (w[0].clone(), w[1].clone()))
        .collect();
    let int = Interner::new();
    let id_edges: Vec<(ValueId, ValueId)> = edges
        .iter()
        .map(|(x, y)| (int.intern(x), int.intern(y)))
        .collect();
    let (tree_ms, n_tree) = best_of(reps, || tc_tree(&edges));
    let (int_ms, n_int) = best_of(reps, || tc_interned(&id_edges));
    assert_eq!(n_tree, n_int, "tc variants disagree");
    rows.push(Row {
        name: "tc_fixpoint_dedup",
        tree_ms,
        interned_ms: int_ms,
        results: n_tree,
    });

    // -- powerset of 14 nested-set elements -----------------------------
    let base: Vec<Value> = (100..114).map(|i| nested_node(&mut u, i)).collect();
    let int = Interner::new();
    let base_ids: Vec<ValueId> = base.iter().map(|v| int.intern(v)).collect();
    let (tree_ms, n_tree) = best_of(reps, || powerset_tree(&base));
    let (int_ms, n_int) = best_of(reps, || powerset_interned(&int, &base_ids));
    assert_eq!(n_tree, n_int, "powerset variants disagree");
    rows.push(Row {
        name: "powerset_enumeration",
        tree_ms,
        interned_ms: int_ms,
        results: n_tree,
    });

    let mut json = String::from("{\n  \"benchmarks\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let speedup = r.tree_ms / r.interned_ms;
        println!(
            "{:<22} tree {:>9.3} ms   interned {:>9.3} ms   speedup {:>5.2}x   ({} results)",
            r.name, r.tree_ms, r.interned_ms, speedup, r.results
        );
        json.push_str(&format!(
            "    {{ \"name\": \"{}\", \"tree_ms\": {:.3}, \"interned_ms\": {:.3}, \"speedup\": {:.2}, \"results\": {} }}{}\n",
            r.name,
            r.tree_ms,
            r.interned_ms,
            speedup,
            r.results,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write("BENCH_intern.json", &json).expect("write BENCH_intern.json");
    println!("wrote BENCH_intern.json");
}
