//! Operator/join-order differential fuzzer for the columnar kernels.
//!
//! The headline property of the exec subsystem: every physical join
//! algorithm — nested loop, hash (building either side), merge — computes
//! the *bit-identical* relation, at every parallelism level, as each
//! other, as a naive reference join written in plain Rust, and as the
//! legacy tree-walk engines. Canonical column tables (rows sorted by raw
//! interner id, deduplicated) make "bit-identical" a plain `==`:
//! algorithm choice and thread count can change only running time, never
//! a single bit of the answer.
//!
//! Inputs are property-generated with deliberately nasty shapes — empty
//! relations, duplicate-heavy small domains, skewed keys — plus a
//! deterministic large fixture that crosses the parallel-probe threshold
//! so multi-threaded hash probing really runs. Governor starvation is
//! fuzzed too: under a given budget every algorithm must trip with the
//! same [`BudgetKind`].
//!
//! Satellite properties ride along: detailed statistics are *exact* on
//! materialized relations, and planner algorithm choices are a pure
//! function of the stats snapshot (re-planning renders the same text).

mod common;

use common::*;
use minipool::ThreadPool;
use nestdb::core::ast::{Formula, Term};
use nestdb::core::eval::{eval_pooled, Query};
use nestdb::core::ranges::safe_eval_pooled;
use nestdb::exec::{execute, ExecOp, ExecPlan, JoinAlgo, RowPred};
use nestdb::object::{
    Atom, BudgetKind, Governor, Instance, Limits, Relation, RelationSchema, Schema, Type, Value,
};
use nestdb::plan::{CalcMode, Pass, PassSet, Physical, Planner, Stats};
use proptest::prelude::*;
use std::collections::HashSet;

/// Every physical join algorithm under test.
const ALGOS: [JoinAlgo; 4] = [
    JoinAlgo::NestedLoop,
    JoinAlgo::Hash { build_left: true },
    JoinAlgo::Hash { build_left: false },
    JoinAlgo::Merge,
];

/// Parallelism levels the equivalence must hold at.
const THREADS: [usize; 3] = [1, 2, 4];

/// An instance with two binary atom relations `L` and `R`.
fn lr_instance(l: &[(u32, u32)], r: &[(u32, u32)]) -> Instance {
    let schema = Schema::from_relations([
        RelationSchema::new("L", vec![Type::Atom, Type::Atom]),
        RelationSchema::new("R", vec![Type::Atom, Type::Atom]),
    ]);
    let mut i = Instance::empty(schema);
    for &(a, b) in l {
        i.insert("L", vec![Value::Atom(Atom(a)), Value::Atom(Atom(b))]);
    }
    for &(a, b) in r {
        i.insert("R", vec![Value::Atom(Atom(a)), Value::Atom(Atom(b))]);
    }
    i
}

/// `L ⋈ R` on `l#2 = r#1` with a fixed algorithm.
fn join_plan(algo: JoinAlgo) -> ExecPlan {
    let mut p = ExecPlan::new();
    let l = p.push(ExecOp::Scan { rel: "L".into() });
    let r = p.push(ExecOp::Scan { rel: "R".into() });
    p.push(ExecOp::Join {
        left: l,
        right: r,
        keys: vec![(1, 0)],
        algo,
    });
    p
}

/// Decode a relation of atom rows to raw u32 tuples for set compares.
fn rel_atoms(rel: &Relation) -> HashSet<Vec<u32>> {
    rel.iter()
        .map(|row| {
            row.iter()
                .map(|v| match v {
                    Value::Atom(a) => a.0,
                    other => panic!("expected an atom, got {other:?}"),
                })
                .collect()
        })
        .collect()
}

/// The naive reference join, written against plain Rust sets.
fn reference_join(l: &[(u32, u32)], r: &[(u32, u32)]) -> HashSet<Vec<u32>> {
    let ls: HashSet<(u32, u32)> = l.iter().copied().collect();
    let rs: HashSet<(u32, u32)> = r.iter().copied().collect();
    let mut out = HashSet::new();
    for &(a, b) in &ls {
        for &(c, d) in &rs {
            if b == c {
                out.insert(vec![a, b, c, d]);
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The headline: hash vs merge vs nested-loop agree bit-for-bit with
    /// each other and with the naive reference at parallelism {1,2,4},
    /// on small-domain (duplicate-heavy, skewed, possibly empty) inputs.
    #[test]
    fn join_algorithms_agree_bitwise(
        l in prop::collection::vec((0u32..6, 0u32..6), 0..40),
        r in prop::collection::vec((0u32..6, 0u32..6), 0..40),
    ) {
        let i = lr_instance(&l, &r);
        let expected = reference_join(&l, &r);
        let mut first: Option<Relation> = None;
        for algo in ALGOS {
            let plan = join_plan(algo);
            for threads in THREADS {
                let pool = ThreadPool::new(threads);
                let rel = execute(&plan, &i, &Governor::unlimited(), &pool)
                    .expect("unlimited execution succeeds");
                prop_assert_eq!(
                    rel_atoms(&rel),
                    expected.clone(),
                    "{} at {} threads diverged from the reference",
                    algo.label(),
                    threads
                );
                match &first {
                    None => first = Some(rel),
                    Some(f) => prop_assert_eq!(
                        f,
                        &rel,
                        "{} at {} threads diverged from the first algorithm",
                        algo.label(),
                        threads
                    ),
                }
            }
        }
    }

    /// Each columnar operator agrees with a plain-Rust set reference.
    #[test]
    fn operator_kernels_agree_with_reference(
        l in prop::collection::vec((0u32..5, 0u32..5), 0..30),
        r in prop::collection::vec((0u32..5, 0u32..5), 0..30),
    ) {
        let i = lr_instance(&l, &r);
        let ls: HashSet<(u32, u32)> = l.iter().copied().collect();
        let rs: HashSet<(u32, u32)> = r.iter().copied().collect();
        let pool = ThreadPool::new(2);
        let gov = Governor::unlimited();
        let run = |p: &ExecPlan| rel_atoms(&execute(p, &i, &gov, &pool).unwrap());
        let scan = |rel: &str| {
            let mut p = ExecPlan::new();
            p.push(ExecOp::Scan { rel: rel.into() });
            p
        };
        let binop = |f: fn(usize, usize) -> ExecOp| {
            let mut p = ExecPlan::new();
            let a = p.push(ExecOp::Scan { rel: "L".into() });
            let b = p.push(ExecOp::Scan { rel: "R".into() });
            p.push(f(a, b));
            p
        };

        prop_assert_eq!(
            run(&scan("L")),
            ls.iter().map(|&(a, b)| vec![a, b]).collect::<HashSet<_>>()
        );
        prop_assert_eq!(
            run(&binop(|a, b| ExecOp::Union { left: a, right: b })),
            ls.union(&rs).map(|&(a, b)| vec![a, b]).collect::<HashSet<_>>()
        );
        prop_assert_eq!(
            run(&binop(|a, b| ExecOp::Difference { left: a, right: b })),
            ls.difference(&rs).map(|&(a, b)| vec![a, b]).collect::<HashSet<_>>()
        );
        prop_assert_eq!(
            run(&binop(|a, b| ExecOp::Intersect { left: a, right: b })),
            ls.intersection(&rs).map(|&(a, b)| vec![a, b]).collect::<HashSet<_>>()
        );
        prop_assert_eq!(
            run(&binop(|a, b| ExecOp::Product { left: a, right: b })),
            ls.iter()
                .flat_map(|&(a, b)| rs.iter().map(move |&(c, d)| vec![a, b, c, d]))
                .collect::<HashSet<_>>()
        );
        let mut select = scan("L");
        select.push(ExecOp::Select { input: 0, pred: RowPred::EqCols(0, 1) });
        prop_assert_eq!(
            run(&select),
            ls.iter().filter(|&&(a, b)| a == b).map(|&(a, b)| vec![a, b]).collect::<HashSet<_>>()
        );
        let mut pinned = scan("L");
        pinned.push(ExecOp::Select {
            input: 0,
            pred: RowPred::EqConst(0, Value::Atom(Atom(2))),
        });
        prop_assert_eq!(
            run(&pinned),
            ls.iter().filter(|&&(a, _)| a == 2).map(|&(a, b)| vec![a, b]).collect::<HashSet<_>>()
        );
        let mut swap = scan("L");
        swap.push(ExecOp::Project { input: 0, cols: vec![1, 0] });
        prop_assert_eq!(
            run(&swap),
            ls.iter().map(|&(a, b)| vec![b, a]).collect::<HashSet<_>>()
        );
        let mut narrow = scan("L");
        narrow.push(ExecOp::Project { input: 0, cols: vec![1] });
        prop_assert_eq!(
            run(&narrow),
            ls.iter().map(|&(_, b)| vec![b]).collect::<HashSet<_>>()
        );
    }

    /// Planned conjunctive CALC through the columnar path agrees with the
    /// tree-walk evaluators (both semantics) and the pass-free planned
    /// baseline, at every parallelism level.
    #[test]
    fn conjunctive_calc_matches_tree_walk(edges in edges_strategy(5, 14)) {
        let seq = ThreadPool::sequential();
        let (_u, _o, i) = graph_instance(5, &edges);
        let two_hop = Query::new(
            vec![("x".to_string(), Type::Atom), ("y".to_string(), Type::Atom)],
            Formula::Exists(
                "z".to_string(),
                Type::Atom,
                Box::new(Formula::and([
                    Formula::Rel("G".to_string(), vec![Term::var("x"), Term::var("z")]),
                    Formula::Rel("G".to_string(), vec![Term::var("z"), Term::var("y")]),
                ])),
            ),
        );
        let pinned = Query::new(
            vec![("x".to_string(), Type::Atom), ("y".to_string(), Type::Atom)],
            Formula::and([
                Formula::Rel("G".to_string(), vec![Term::var("x"), Term::var("y")]),
                Formula::Eq(Term::var("x"), Term::Const(Value::Atom(Atom(1)))),
            ]),
        );
        for q in [&two_hop, &pinned] {
            let ad_walk = eval_pooled(q, &i, &Governor::default(), &seq).unwrap();
            let safe_walk = safe_eval_pooled(&i, q, &Governor::default(), &seq).unwrap();
            prop_assert_eq!(&ad_walk, &safe_walk, "conjunctive fragment: AD ≡ safe");
            for mode in [CalcMode::ActiveDomain, CalcMode::Safe] {
                let planned = Planner::new(i.schema())
                    .with_instance(&i)
                    .plan_calc(q, mode)
                    .unwrap();
                prop_assert!(
                    matches!(planned.physical, Physical::Exec { .. }),
                    "conjunctive query must take the columnar path"
                );
                let baseline = Planner::new(i.schema())
                    .with_passes(PassSet::none())
                    .plan_calc(q, mode)
                    .unwrap();
                for threads in THREADS {
                    let pool = ThreadPool::new(threads);
                    let gov = Governor::unlimited();
                    let rel = planned.execute(&i, &gov, &pool).unwrap().into_relation();
                    prop_assert_eq!(&rel, &ad_walk, "columnar vs tree-walk ({threads} threads)");
                    let base = baseline.execute(&i, &gov, &pool).unwrap().into_relation();
                    prop_assert_eq!(&rel, &base, "columnar vs pass-free planned");
                }
            }
        }
    }

    /// Detailed statistics are exact on materialized relations: the row
    /// count and every per-column distinct count equal brute force.
    #[test]
    fn detailed_stats_are_exact(rows in prop::collection::vec((0u32..8, 0u32..8), 0..50)) {
        let i = lr_instance(&rows, &[]);
        let s = Stats::of_detailed(&i);
        let set: HashSet<(u32, u32)> = rows.iter().copied().collect();
        prop_assert_eq!(s.rows("L"), Some(set.len() as u64));
        prop_assert_eq!(s.rows("R"), Some(0));
        let d0 = set.iter().map(|p| p.0).collect::<HashSet<_>>().len() as u64;
        let d1 = set.iter().map(|p| p.1).collect::<HashSet<_>>().len() as u64;
        prop_assert_eq!(s.distinct("L", 0), Some(d0));
        prop_assert_eq!(s.distinct("L", 1), Some(d1));
        prop_assert_eq!(s.distinct("R", 0), Some(0));
    }

    /// Planner choices are a pure function of the stats snapshot: two
    /// independent planners over the same instance render identical plans
    /// (same join algorithms, same order, same estimates).
    #[test]
    fn planner_choices_are_deterministic(edges in edges_strategy(6, 18)) {
        let (_u, _o, i) = graph_instance(6, &edges);
        let q = Query::new(
            vec![("x".to_string(), Type::Atom), ("y".to_string(), Type::Atom)],
            Formula::Exists(
                "z".to_string(),
                Type::Atom,
                Box::new(Formula::and([
                    Formula::Rel("G".to_string(), vec![Term::var("x"), Term::var("z")]),
                    Formula::Rel("G".to_string(), vec![Term::var("z"), Term::var("y")]),
                ])),
            ),
        );
        let render = || {
            Planner::new(i.schema())
                .with_instance(&i)
                .plan_calc(&q, CalcMode::Safe)
                .unwrap()
                .render_text()
        };
        let a = render();
        prop_assert_eq!(&a, &render(), "re-planning must render identically");
        // Stats snapshots collected twice from the same instance agree,
        // so the decision inputs themselves are deterministic.
        let s1 = Stats::of_detailed(&i);
        let s2 = Stats::of_detailed(&i);
        prop_assert_eq!(s1.rel_rows, s2.rel_rows);
        prop_assert_eq!(s1.rel_distinct, s2.rel_distinct);
    }
}

/// A deterministic fixture large enough to cross the parallel-probe
/// threshold (4096 probe rows), so threaded hash probing actually runs:
/// all algorithms and parallelism levels must still agree bit-for-bit.
#[test]
fn large_join_exercises_parallel_probe() {
    // 5000 distinct left rows over 250 keys (20 rows/key), 1000 right
    // rows over the same keys (4 rows/key): ~80 output rows per key.
    let l: Vec<(u32, u32)> = (0..5000).map(|i| (i, i % 250)).collect();
    let r: Vec<(u32, u32)> = (0..1000).map(|j| (j % 250, 10_000 + j)).collect();
    let i = lr_instance(&l, &r);
    let mut first: Option<Relation> = None;
    for algo in ALGOS {
        let plan = join_plan(algo);
        for threads in THREADS {
            let pool = ThreadPool::new(threads);
            let rel = execute(&plan, &i, &Governor::unlimited(), &pool).unwrap();
            assert_eq!(rel.len(), 5000 * 4, "{} at {threads} threads", algo.label());
            match &first {
                None => first = Some(rel),
                Some(f) => assert_eq!(f, &rel, "{} at {threads} threads diverged", algo.label()),
            }
        }
    }
}

/// Governor starvation: for a fixed budget every algorithm trips with the
/// same [`BudgetKind`], at sequential and threaded parallelism, and the
/// trip site is an exec site.
#[test]
fn starvation_trips_with_matching_budget_kinds() {
    let l: Vec<(u32, u32)> = (0..200).map(|i| (i, i % 10)).collect();
    let r: Vec<(u32, u32)> = (0..200).map(|j| (j % 10, 1000 + j)).collect();
    let i = lr_instance(&l, &r);
    for (limits, expect) in [
        (
            Limits {
                max_steps: 50,
                ..Limits::unlimited()
            },
            BudgetKind::Steps,
        ),
        (
            Limits {
                max_memory_bytes: 512,
                ..Limits::unlimited()
            },
            BudgetKind::Memory,
        ),
    ] {
        for algo in ALGOS {
            let plan = join_plan(algo);
            for threads in [1usize, 4] {
                let pool = ThreadPool::new(threads);
                let gov = Governor::new(limits.clone());
                let err = execute(&plan, &i, &gov, &pool).expect_err("starved execution must trip");
                assert_eq!(
                    err.budget,
                    expect,
                    "{} at {threads} threads tripped the wrong budget",
                    algo.label()
                );
                assert!(
                    err.site.starts_with("exec."),
                    "unexpected trip site {}",
                    err.site
                );
            }
        }
    }
}

/// Cancellation fires before any work (the `exec.start` checkpoint).
#[test]
fn cancellation_stops_execution_immediately() {
    let i = lr_instance(&[(0, 1)], &[(1, 2)]);
    let gov = Governor::unlimited();
    gov.cancel();
    let err = execute(
        &join_plan(JoinAlgo::NestedLoop),
        &i,
        &gov,
        &ThreadPool::sequential(),
    )
    .expect_err("cancelled governor must refuse");
    assert_eq!(err.budget, BudgetKind::Cancelled);
    assert_eq!(err.site, "exec.start");
}

/// The planner's per-join algorithm choice lands in `:explain` output —
/// a big skewed build side yields a merge join, a tiny input a nested
/// loop — and disabling the pass removes the columnar lowering entirely.
#[test]
fn explain_records_algorithm_choices() {
    // Tiny inputs: nested loop.
    let (_u, _o, small) = graph_instance(4, &[(0, 1), (1, 2), (2, 3)]);
    let q = Query::new(
        vec![("x".to_string(), Type::Atom), ("y".to_string(), Type::Atom)],
        Formula::Exists(
            "z".to_string(),
            Type::Atom,
            Box::new(Formula::and([
                Formula::Rel("G".to_string(), vec![Term::var("x"), Term::var("z")]),
                Formula::Rel("G".to_string(), vec![Term::var("z"), Term::var("y")]),
            ])),
        ),
    );
    let planned = Planner::new(small.schema())
        .with_instance(&small)
        .plan_calc(&q, CalcMode::Safe)
        .unwrap();
    let text = planned.render_text();
    assert!(text.contains("NestedLoopJoin"), "{text}");
    assert!(text.contains("join-algorithms"), "{text}");

    // Without the pass: legacy plan, no columnar notes.
    let legacy = Planner::new(small.schema())
        .with_instance(&small)
        .with_passes(PassSet::all().without(Pass::Joins))
        .plan_calc(&q, CalcMode::Safe)
        .unwrap();
    assert!(
        !legacy.render_text().contains("Join"),
        "{}",
        legacy.render_text()
    );

    // A duplicate-heavy build-side key (10 distinct values over 120 rows,
    // well under the 1/8 ratio) steers the planner to a merge join. The
    // build side is the left atom G(x, z), whose key is column 2 — so the
    // duplicates go in the edges' second component.
    let edges: Vec<(usize, usize)> = (0..120).map(|i| (i, i % 10)).collect();
    let (_u, _o, skewed) = graph_instance(120, &edges);
    let planned = Planner::new(skewed.schema())
        .with_instance(&skewed)
        .plan_calc(&q, CalcMode::Safe)
        .unwrap();
    let text = planned.render_text();
    assert!(text.contains("MergeJoin"), "{text}");
}
