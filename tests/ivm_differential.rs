//! Maintenance differential suite: incremental view maintenance must be
//! **bit-identical** to full recomputation, across every engine that can
//! recompute the view, at parallelism 1, 2, and 4, over hundreds of
//! random insert/delete interleavings — and the maintained state must
//! survive a crash at any storage I/O point (restored from its
//! checkpoint plus a write-ahead-log tail replay, or cleanly degraded to
//! re-materialization; never silently wrong).
//!
//! The maintained semantics is the stratified model (PAPER.md §5 /
//! DESIGN.md §17): counting for non-recursive strata, DRed for
//! recursive ones. The oracles here are the stratified evaluator (pooled
//! at each parallelism), the naive and semi-naive engines where the
//! program is negation-free, and the planner's compiled Datalog plans.

mod common;

use common::ScratchDir;
use nestdb::datalog::{eval_pooled, eval_stratified_pooled, parse_program, Idb, Program, Strategy};
use nestdb::ivm::{BaseDelta, ViewRegistry};
use nestdb::object::{Governor, Instance, Relation, RelationSchema, Schema, Type, Universe, Value};
use nestdb::plan::{DatalogMode, Planner};
use nestdb::proto::{LimitsSpec, Op, Request};
use nestdb::storage::{Db, DbOptions, FaultMode, IoFaults, SyncPolicy};
use nestdb::{Session, Store, ThreadPool};
use proptest::prelude::*;
use std::sync::{Arc, RwLock};

const NODES: usize = 6;

const TC_SRC: &str = "rel tc(U, U).\ntc(x, y) :- G(x, y).\ntc(x, y) :- tc(x, z), G(z, y).\n";

const HOP_SRC: &str = "rel hop(U, U).\nhop(x, z) :- G(x, y), G(y, z).\n";

const UNREACH_SRC: &str = "rel tc(U, U).\nrel node(U).\nrel unreach(U, U).\n\
    node(x) :- G(x, y).\nnode(y) :- G(x, y).\n\
    tc(x, y) :- G(x, y).\ntc(x, y) :- tc(x, z), G(z, y).\n\
    unreach(x, y) :- node(x), node(y), !tc(x, y).\n";

/// (source, has_negation) for every maintained view under test.
const VIEWS: [(&str, &str, bool); 3] = [
    ("paths", TC_SRC, false),
    ("hops", HOP_SRC, false),
    ("unreach", UNREACH_SRC, true),
];

fn graph_schema() -> Schema {
    Schema::from_relations([RelationSchema::new("G", vec![Type::Atom, Type::Atom])])
}

fn fresh_universe() -> Universe {
    let names: Vec<String> = (0..NODES).map(|i| format!("n{i}")).collect();
    Universe::with_names(names.iter().map(String::as_str))
}

fn edge(u: &Universe, a: usize, b: usize) -> Vec<Value> {
    let at = |k: usize| {
        Value::Atom(
            u.get(&format!("n{k}"))
                .expect("node atoms are pre-interned"),
        )
    };
    vec![at(a), at(b)]
}

/// xorshift64*: deterministic, seedable, no `rand` dependency needed.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed
            .wrapping_mul(2685821657736338717)
            .wrapping_add(1442695040888963407)
            | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(2685821657736338717)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Full recomputation of `program` through every applicable engine; all
/// engines must agree with each other, so any one result is THE oracle.
fn recompute_all_engines(
    program: &Program,
    instance: &Instance,
    pool: &ThreadPool,
    has_negation: bool,
) -> Idb {
    let gov = Governor::unlimited();
    let strat = eval_stratified_pooled(program, instance, &gov, &ThreadPool::sequential())
        .expect("stratified oracle");

    // compiled plan, stratified mode
    let planned = Planner::new(instance.schema())
        .plan_datalog(program, DatalogMode::Stratified)
        .expect("plannable");
    let out = planned
        .execute(instance, &Governor::unlimited(), pool)
        .expect("planned stratified oracle");
    let nestdb::plan::Output::Idb(planned_idb, _) = out else {
        panic!("datalog plan returned a relation");
    };
    for (name, rel) in &strat {
        assert_eq!(
            Some(rel),
            planned_idb.get(name),
            "planned stratified diverged from tree-walk on {name}"
        );
    }

    if !has_negation {
        for strategy in [Strategy::Naive, Strategy::SemiNaive] {
            let (idb, _) = eval_pooled(
                program,
                instance,
                strategy,
                &Governor::unlimited(),
                &ThreadPool::sequential(),
            )
            .unwrap();
            for (name, rel) in &strat {
                assert_eq!(
                    Some(rel),
                    idb.get(name),
                    "{strategy:?} diverged from stratified on {name}"
                );
            }
        }
        let planned = Planner::new(instance.schema())
            .plan_datalog(program, DatalogMode::SemiNaive)
            .expect("plannable");
        let out = planned
            .execute(instance, &Governor::unlimited(), pool)
            .expect("planned semi-naive oracle");
        let nestdb::plan::Output::Idb(idb, _) = out else {
            panic!("datalog plan returned a relation");
        };
        for (name, rel) in &strat {
            assert_eq!(
                Some(rel),
                idb.get(name),
                "planned semi-naive diverged on {name}"
            );
        }
    }
    strat
}

/// Assert a maintained view equals its recomputation bit-for-bit: same
/// relations, same rows, same canonical row order.
fn assert_view_matches(reg: &ViewRegistry, name: &str, oracle: &Idb, ctx: &str) {
    let view = reg
        .get(name)
        .unwrap_or_else(|| panic!("{ctx}: view {name} missing"));
    for (rel, rows) in view.relations() {
        let expect = &oracle[rel];
        assert_eq!(
            rows.sorted_rows(),
            expect.sorted_rows(),
            "{ctx}: maintained {name}.{rel} diverged from recomputation"
        );
        let _: &Relation = rows;
    }
}

/// One random interleaving: `steps` batches of 1–3 inserts/deletes,
/// maintained incrementally and checked against the stratified oracle
/// after every batch; the full engine matrix runs at the end.
fn run_interleaving(seed: u64, steps: usize, pool: &ThreadPool) {
    let mut rng = Rng::new(seed);
    let u = fresh_universe();
    let mut universe = u.clone();
    let mut instance = Instance::empty(graph_schema());
    let gov = Governor::unlimited();

    // seed the graph with a few random edges
    for _ in 0..rng.below(6) {
        instance.insert("G", edge(&u, rng.below(NODES), rng.below(NODES)));
    }

    let mut reg = ViewRegistry::new();
    let mut programs: Vec<(&str, Program, bool)> = Vec::new();
    for (name, src, neg) in VIEWS {
        reg.materialize(name, src, &mut universe, &instance, &gov)
            .expect("materialize");
        programs.push((name, parse_program(src, &mut universe).unwrap(), neg));
    }

    for step in 0..steps {
        let mut delta = BaseDelta::new();
        for _ in 0..1 + rng.below(3) {
            let present: Vec<&Vec<Value>> = instance.relation("G").sorted_rows();
            // bias towards deletions when the graph is loaded, so both
            // directions of maintenance get real work
            if !present.is_empty() && rng.below(2) == 0 {
                let row = present[rng.below(present.len())].clone();
                delta.delete("G", row);
            } else {
                delta.insert("G", edge(&u, rng.below(NODES), rng.below(NODES)));
            }
        }
        reg.maintain(&instance, &delta, &gov)
            .expect("maintenance under an unlimited governor");
        delta.apply(&mut instance);

        for (name, program, neg) in &programs {
            let oracle = eval_stratified_pooled(
                program,
                &instance,
                &Governor::unlimited(),
                &ThreadPool::sequential(),
            )
            .expect("stratified oracle");
            assert_view_matches(&reg, name, &oracle, &format!("seed {seed} step {step}"));
            let _ = neg;
        }
    }

    // the full engine matrix at the interleaving's final state
    for (name, program, neg) in &programs {
        let oracle = recompute_all_engines(program, &instance, pool, *neg);
        assert_view_matches(&reg, name, &oracle, &format!("seed {seed} final"));
    }
}

/// The headline matrix: three maintained views (recursive DRed,
/// non-recursive counting, stratified negation) × parallelism {1, 2, 4}
/// × 40 random interleavings each (120 total, every batch checked).
#[test]
fn maintained_views_match_recomputation_across_engines_and_parallelism() {
    for (pi, threads) in [1usize, 2, 4].into_iter().enumerate() {
        let pool = ThreadPool::new(threads);
        for k in 0..40u64 {
            run_interleaving(1 + pi as u64 * 1000 + k, 8, &pool);
        }
    }
}

/// Longer interleavings at sequential parallelism: fewer seeds, more
/// steps, so deep insert/delete histories (cycles forming and breaking,
/// support counts rising and draining) are exercised too.
#[test]
fn deep_interleavings_stay_exact() {
    let pool = ThreadPool::sequential();
    for k in 0..10u64 {
        run_interleaving(9000 + k, 25, &pool);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// No resurrection (DESIGN.md §17): after deleting an edge, no fact
    /// whose every derivation used that edge survives in the maintained
    /// view — and nothing the oracle still derives is lost. DRed's
    /// re-derivation phase must rescue exactly the facts with an
    /// alternative derivation, counting must drain shared support
    /// exactly to zero.
    #[test]
    fn deletion_never_resurrects_or_strands_facts(
        edges in prop::collection::vec((0usize..NODES, 0usize..NODES), 1..14),
        victim in 0usize..14,
    ) {
        prop_assume!(victim < edges.len());
        let u = fresh_universe();
        let mut universe = u.clone();
        let mut instance = Instance::empty(graph_schema());
        for &(a, b) in &edges {
            instance.insert("G", edge(&u, a, b));
        }
        let gov = Governor::unlimited();
        let mut reg = ViewRegistry::new();
        for (name, src, _) in VIEWS {
            reg.materialize(name, src, &mut universe, &instance, &gov).unwrap();
        }

        let (va, vb) = edges[victim];
        let mut delta = BaseDelta::new();
        delta.delete("G", edge(&u, va, vb));
        reg.maintain(&instance, &delta, &gov).unwrap();
        delta.apply(&mut instance);

        for (name, src, _) in VIEWS {
            let program = parse_program(src, &mut universe).unwrap();
            let (gov, seq) = (Governor::unlimited(), ThreadPool::sequential());
            let oracle = eval_stratified_pooled(&program, &instance, &gov, &seq).unwrap();
            let view = reg.get(name).unwrap();
            for (rel, rows) in view.relations() {
                for row in rows.iter() {
                    prop_assert!(
                        oracle[rel].contains(row),
                        "{name}.{rel}: resurrected fact {row:?} after deleting ({va},{vb})"
                    );
                }
                for row in oracle[rel].iter() {
                    prop_assert!(
                        rows.contains(row),
                        "{name}.{rel}: lost fact {row:?} after deleting ({va},{vb})"
                    );
                }
            }
        }
    }
}

/// A resource trip mid-maintenance is transactional at the session
/// layer: the mutation is refused, the base instance is untouched, the
/// views still equal recomputation over the unchanged instance, and the
/// same update retried without the starvation budget succeeds.
#[test]
fn governor_trip_mid_maintenance_leaves_views_recoverable() {
    let session = Session::default();
    let run_ok = |req: &Request| {
        let r = session.run(req);
        assert!(r.ok, "{:?}", r.error);
        r
    };
    run_ok(&Request {
        op: Op::Insert,
        text: "schema G(U, U).".into(),
        ..Request::default()
    });
    for cl in ["G('n0', 'n1').", "G('n1', 'n2').", "G('n2', 'n3')."] {
        run_ok(&Request {
            op: Op::Insert,
            text: cl.into(),
            ..Request::default()
        });
    }
    run_ok(&Request {
        op: Op::Materialize,
        view: "paths".into(),
        text: TC_SRC.into(),
        ..Request::default()
    });

    // starve maintenance mid-flight
    let starved = session.run(&Request {
        op: Op::Update,
        text: "G('n3', 'n0').".into(),
        limits: Some(LimitsSpec {
            max_steps: Some(3),
            ..LimitsSpec::default()
        }),
        ..Request::default()
    });
    assert!(!starved.ok);
    let err = starved.error.as_ref().unwrap();
    assert_eq!(err.kind, "resource", "{}", err.message);
    assert!(err.resource_trip);

    // the base table did not mutate and the view still matches a fresh
    // recomputation of the *unchanged* instance
    let r = run_ok(&Request::eval(
        nestdb::proto::Lang::Calc,
        "{[x:U, y:U] | G(x, y)}",
    ));
    assert_eq!(r.relations[0].rows.len(), 3, "trip must not half-apply");
    {
        let store = session.store();
        let store = store.read().unwrap();
        let mut u2 = store.universe().clone();
        let program = parse_program(TC_SRC, &mut u2).unwrap();
        let oracle = eval_stratified_pooled(
            &program,
            store.instance(),
            &Governor::unlimited(),
            &ThreadPool::sequential(),
        )
        .unwrap();
        let view = store.views().get("paths").unwrap();
        assert_eq!(
            view.relation("tc").unwrap().sorted_rows(),
            oracle["tc"].sorted_rows(),
            "view diverged after a mid-maintenance trip"
        );
    }

    // retried with the session budget, the same update lands exactly
    let r = run_ok(&Request {
        op: Op::Update,
        text: "G('n3', 'n0').".into(),
        ..Request::default()
    });
    assert_eq!(r.deltas[0].view, "paths");
    assert_eq!(
        r.deltas[0].added[0].rows.len(),
        10,
        "4-cycle closes: 16 - 6"
    );
}

// ---------------------------------------------------------------------------
// Crash-anywhere recovery
// ---------------------------------------------------------------------------

/// The scripted durable workload the crash sweep replays: schema, edges,
/// a materialized recursive view, a checkpoint (snapshot + view
/// checkpoint), then more mutations that live only in the log tail.
/// Returns `Err` at the step a storage fault surfaced.
fn durable_script(dir: &std::path::Path, faults: IoFaults) -> Result<(), String> {
    let db = Db::open(
        dir,
        DbOptions {
            sync: SyncPolicy::Always,
            faults,
            ..DbOptions::default()
        },
    )
    .map_err(|e| e.to_string())?;
    let mut store = Store::new();
    store.attach(db);
    let session = Session::builder()
        .store(Arc::new(RwLock::new(store)))
        .build();
    let step = |req: &Request| -> Result<(), String> {
        let r = session.run(req);
        if r.ok {
            Ok(())
        } else {
            Err(r.error.map(|e| e.message).unwrap_or_default())
        }
    };
    step(&Request {
        op: Op::Insert,
        text: "schema G(U, U).".into(),
        ..Request::default()
    })?;
    for cl in ["G('n0', 'n1').", "G('n1', 'n2').", "G('n2', 'n3')."] {
        step(&Request {
            op: Op::Insert,
            text: cl.into(),
            ..Request::default()
        })?;
    }
    step(&Request {
        op: Op::Materialize,
        view: "paths".into(),
        text: TC_SRC.into(),
        ..Request::default()
    })?;
    step(&Request {
        op: Op::Save,
        ..Request::default()
    })?;
    // log-tail-only mutations past the checkpoint
    step(&Request {
        op: Op::Update,
        text: "G('n3', 'n0').\ndelete G('n1', 'n2').".into(),
        ..Request::default()
    })?;
    step(&Request {
        op: Op::Insert,
        text: "G('n1', 'n4').".into(),
        ..Request::default()
    })?;
    Ok(())
}

/// After recovery the maintained view must be *correct or absent*: if
/// the open restored it (checkpoint + tail replay), it equals a fresh
/// recomputation over the recovered instance; if restoration was
/// refused, re-materializing from scratch succeeds. Silently-wrong
/// restored state is the only losing outcome.
fn check_recovered_views(dir: &std::path::Path) {
    let session = Session::default();
    let r = session.run(&Request {
        op: Op::Open,
        text: dir.display().to_string(),
        ..Request::default()
    });
    assert!(r.ok, "recovery open failed: {:?}", r.error);
    let store = session.store();
    let mut store = store.write().unwrap();
    if store.instance().schema().get("G").is_none() {
        return; // crashed before the schema landed; nothing to check
    }
    let mut u2 = store.universe().clone();
    let program = parse_program(TC_SRC, &mut u2).unwrap();
    let oracle = eval_stratified_pooled(
        &program,
        store.instance(),
        &Governor::unlimited(),
        &ThreadPool::sequential(),
    )
    .unwrap();
    if store.views().get("paths").is_none() {
        // degraded outcome: the open said so and a fresh materialization works
        store
            .materialize_view("paths", TC_SRC, &Governor::unlimited())
            .expect("re-materialization after degraded recovery");
    }
    let view = store.views().get("paths").unwrap();
    assert_eq!(
        view.relation("tc").unwrap().sorted_rows(),
        oracle["tc"].sorted_rows(),
        "recovered view diverged from recomputation"
    );
}

/// Crash-anywhere sweep: size the script's I/O footprint with a
/// fault-free run, then crash at every single I/O index and verify the
/// recovered maintained view each time.
#[test]
fn crash_anywhere_recovery_of_maintained_views() {
    // sizing run
    let probe = IoFaults::none();
    {
        let scratch = ScratchDir::new("ivm_crash_probe");
        durable_script(scratch.path(), probe.clone()).expect("fault-free run");
    }
    let total_ops = probe.ops();
    assert!(
        total_ops > 10,
        "script did {total_ops} I/Os — too few to sweep"
    );

    for k in 1..=total_ops {
        let scratch = ScratchDir::new("ivm_crash");
        let faults = IoFaults::none();
        faults.arm(None, k, FaultMode::Crash);
        let outcome = durable_script(scratch.path(), faults.clone());
        faults.disarm();
        if k < total_ops {
            assert!(outcome.is_err(), "fault at I/O {k} was swallowed");
        }
        check_recovered_views(scratch.path());
    }
}
