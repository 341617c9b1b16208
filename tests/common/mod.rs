#![allow(dead_code)] // each integration test uses a different subset

//! Shared helpers for the integration tests: random instances, reference
//! algorithms, and a random-formula generator for round-trip properties.

use nestdb::core::ast::{FixOp, Fixpoint, Formula, Term};
use nestdb::core::eval::Query;
use nestdb::object::{Atom, AtomOrder, Instance, RelationSchema, Schema, Type, Universe, Value};
use nestdb::{Session, Store};
use proptest::prelude::*;
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// A unique scratch directory for one test, removed on drop.
///
/// Std-only: uniqueness comes from the process id plus a process-wide
/// counter, so parallel tests within one binary and concurrently running
/// test binaries never collide. A stale directory left by a previous
/// killed run is wiped before use.
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    /// Create `$TMPDIR/nestdb_<tag>_<pid>_<seq>/`.
    pub fn new(tag: &str) -> Self {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!("nestdb_{tag}_{}_{seq}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).unwrap();
        ScratchDir { path }
    }

    /// The directory itself.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// A path for `name` inside the directory (not created).
    pub fn file(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Where golden snapshots live, shared by every snapshot-style test.
pub fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// Compare `actual` against the checked-in snapshot `name`, or rewrite the
/// snapshot when `UPDATE_GOLDEN` is set.
pub fn check_golden(name: &str, actual: &str) {
    let path = golden_dir().join(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(golden_dir()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden snapshot {name} ({e}); create it with UPDATE_GOLDEN=1")
    });
    assert_eq!(
        actual, expected,
        "snapshot {name} drifted; if the change is intentional refresh with UPDATE_GOLDEN=1"
    );
}

/// The flat graph schema `G[U,U]`.
pub fn graph_schema() -> Schema {
    Schema::from_relations([RelationSchema::new("G", vec![Type::Atom, Type::Atom])])
}

/// Build a graph instance over `n` atoms from an edge list.
pub fn graph_instance(n: usize, edges: &[(usize, usize)]) -> (Universe, AtomOrder, Instance) {
    let names: Vec<String> = (0..n).map(|i| format!("a{i}")).collect();
    let u = Universe::with_names(names.iter().map(String::as_str));
    let order = AtomOrder::identity(&u);
    let mut i = Instance::empty(graph_schema());
    for &(a, b) in edges {
        i.insert(
            "G",
            vec![Value::Atom(Atom(a as u32)), Value::Atom(Atom(b as u32))],
        );
    }
    (u, order, i)
}

/// A session with `threads` workers over `instance`, whose atoms are named
/// in `universe`.
pub fn session_over(universe: Universe, instance: Instance, threads: usize) -> Session {
    Session::builder()
        .store(Arc::new(RwLock::new(Store::with_data(universe, instance))))
        .parallelism(threads)
        .build()
}

/// Reference transitive closure by iterated squaring over an adjacency set.
pub fn reference_tc(n: usize, edges: &[(usize, usize)]) -> HashSet<(usize, usize)> {
    let mut closure: HashSet<(usize, usize)> = edges.iter().copied().collect();
    loop {
        let mut added = Vec::new();
        for &(a, b) in &closure {
            for &(c, d) in &closure {
                if b == c && !closure.contains(&(a, d)) {
                    added.push((a, d));
                }
            }
        }
        if added.is_empty() {
            return closure;
        }
        closure.extend(added);
        let _ = n;
    }
}

/// The Example 3.1 TC fixpoint over atom-typed nodes.
pub fn tc_fixpoint() -> Arc<Fixpoint> {
    Arc::new(Fixpoint {
        op: FixOp::Ifp,
        rel: "S".into(),
        vars: vec![("fx".into(), Type::Atom), ("fy".into(), Type::Atom)],
        body: Box::new(Formula::or([
            Formula::Rel("G".into(), vec![Term::var("fx"), Term::var("fy")]),
            Formula::exists(
                "fz",
                Type::Atom,
                Formula::and([
                    Formula::Rel("S".into(), vec![Term::var("fx"), Term::var("fz")]),
                    Formula::Rel("G".into(), vec![Term::var("fz"), Term::var("fy")]),
                ]),
            ),
        ])),
    })
}

/// TC as a query.
pub fn tc_query() -> Query {
    Query::new(
        vec![("qu".into(), Type::Atom), ("qv".into(), Type::Atom)],
        Formula::FixApp(tc_fixpoint(), vec![Term::var("qu"), Term::var("qv")]),
    )
}

/// Strategy: a random edge list over `n` nodes.
pub fn edges_strategy(n: usize, max_edges: usize) -> impl Strategy<Value = Vec<(usize, usize)>> {
    prop::collection::vec((0..n, 0..n), 0..=max_edges)
}

/// Strategy: a random complex-object value of the given type over `n`
/// atoms (set sizes kept small).
pub fn value_strategy(ty: &Type, n: u32) -> BoxedStrategy<Value> {
    match ty {
        Type::Atom => (0..n).prop_map(|i| Value::Atom(Atom(i))).boxed(),
        Type::Tuple(ts) => {
            let comps: Vec<BoxedStrategy<Value>> =
                ts.iter().map(|t| value_strategy(t, n)).collect();
            comps.prop_map(Value::Tuple).boxed()
        }
        Type::Set(t) => prop::collection::vec(value_strategy(t, n), 0..=3)
            .prop_map(Value::set)
            .boxed(),
    }
}

/// Strategy: a random type of bounded depth.
pub fn type_strategy(depth: u32) -> BoxedStrategy<Type> {
    if depth == 0 {
        Just(Type::Atom).boxed()
    } else {
        prop_oneof![
            3 => Just(Type::Atom),
            2 => type_strategy(depth - 1).prop_map(Type::set),
            2 => prop::collection::vec(type_strategy(depth - 1), 1..=2).prop_map(Type::tuple),
        ]
        .boxed()
    }
}
