//! The instance's cached interned form (id tables, atoms, distinct
//! counts) must never be observable: not as stale rows after any way the
//! live instance can change, and not in the fuel a planned request
//! spends.
//!
//! Staleness: after every mutation path a session offers, a planned
//! evaluation (which scans the cached id tables) must equal the
//! tree-walk evaluation and the test's own model of the data, and the
//! planner's statistics must equal those of a cache-free rebuild of the
//! instance. Metering: a request on any engine — planned, CALC in every
//! mode, algebra, Datalog semi-naive and stratified — spends the same
//! steps and memory on a cold cache, on a warm one, and after other
//! requests interned constants the instance has never seen.

use nestdb::object::{Instance, Relation, RelationSchema, Schema, Type, Value};
use nestdb::plan::Stats;
use nestdb::proto::{Lang, Mode, Op, Strategy};
use nestdb::{Request, Session, Store};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::{Arc, RwLock};

type Edges = BTreeSet<(String, String)>;

fn edges(pairs: &[(&str, &str)]) -> Edges {
    pairs
        .iter()
        .map(|(x, y)| (x.to_string(), y.to_string()))
        .collect()
}

fn run_ok(s: &Session, req: &Request) -> Vec<String> {
    let r = s.run(req);
    assert!(r.ok, "{}: {:?}", req.text, r.error);
    r.relations.into_iter().flat_map(|rel| rel.rows).collect()
}

fn insert(s: &Session, text: &str) {
    let r = s.run(&Request {
        op: Op::Insert,
        text: text.into(),
        ..Request::default()
    });
    assert!(r.ok, "{text}: {:?}", r.error);
}

fn open(s: &Session, dir: &Path) {
    let r = s.run(&Request {
        op: Op::Open,
        text: dir.display().to_string(),
        ..Request::default()
    });
    assert!(r.ok, "{:?}", r.error);
}

fn calc(text: &str, planned: bool) -> Request {
    Request {
        planned,
        ..Request::eval(Lang::Calc, text)
    }
}

/// The same data, inserted row by row into an instance that never had
/// its cache filled.
fn rebuild(live: &Instance) -> Instance {
    let mut fresh = Instance::empty(live.schema().clone());
    for r in live.schema().relations() {
        for row in live.relation(&r.name).iter() {
            fresh.insert(&r.name, row.clone());
        }
    }
    fresh
}

fn stats_key(s: Stats) -> impl PartialEq + std::fmt::Debug {
    (s.rel_rows, s.atoms, s.rel_distinct)
}

/// Planned ≡ tree-walk ≡ model for full scans, point lookups and a
/// two-hop join; live stats ≡ rebuilt stats. Running it also fills the
/// cache, so the next mutation is checked against a warm cache.
fn check(s: &Session, model: &Edges, path: &str) {
    let all: Vec<String> = model
        .iter()
        .map(|(x, y)| format!("('{x}', '{y}')"))
        .collect();
    let from_a: Vec<String> = model
        .iter()
        .filter(|(x, _)| x == "a")
        .map(|(_, y)| format!("('{y}')"))
        .collect();
    let two_hop: BTreeSet<String> = model
        .iter()
        .flat_map(|(x, y)| {
            model
                .iter()
                .filter(move |(y2, _)| y2 == y)
                .map(move |(_, z)| format!("('{x}', '{z}')"))
        })
        .collect();
    let sorted = |mut rows: Vec<String>| {
        rows.sort();
        rows
    };
    let queries = [
        ("{[x:U, y:U] | G(x, y)}", sorted(all)),
        ("{[y:U] | G('a', y)}", sorted(from_a)),
        (
            "{[x:U, z:U] | exists y:U (G(x, y) /\\ G(y, z))}",
            two_hop.into_iter().collect(),
        ),
    ];
    for (q, expected) in &queries {
        let planned = sorted(run_ok(s, &calc(q, true)));
        let tree_walk = sorted(run_ok(s, &calc(q, false)));
        let safe = sorted(run_ok(
            s,
            &Request {
                mode: Mode::Safe,
                ..calc(q, false)
            },
        ));
        assert_eq!(&planned, expected, "{path}: planned {q}");
        assert_eq!(&tree_walk, expected, "{path}: tree-walk {q}");
        assert_eq!(&safe, expected, "{path}: safe tree-walk {q}");
    }
    let store = s.store();
    let store = store.read().unwrap();
    let live = store.instance();
    let fresh = rebuild(live);
    assert_eq!(
        stats_key(Stats::of_detailed(live)),
        stats_key(Stats::of_detailed(&fresh)),
        "{path}: stats"
    );
    assert_eq!(live.atoms(), fresh.atoms(), "{path}: atoms");
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "nestdb_instance_cache_{tag}_{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn no_mutation_path_serves_stale_cached_data() {
    let s = Session::default();
    insert(&s, "schema G(U, U).");
    let mut model = Edges::new();
    for (x, y) in [("a", "b"), ("b", "c"), ("a", "c")] {
        insert(&s, &format!("G('{x}', '{y}')."));
        model.insert((x.into(), y.into()));
    }
    check(&s, &model, "initial load");

    // op: insert
    insert(&s, "G('c', 'd').");
    model.insert(("c".into(), "d".into()));
    check(&s, &model, "op: insert");
    insert(&s, "delete G('a', 'c').");
    model.remove(&("a".into(), "c".into()));
    check(&s, &model, "op: insert (retraction)");

    // op: update, accepted and rejected batches
    let update = |text: &str| {
        s.run(&Request {
            op: Op::Update,
            text: text.into(),
            ..Request::default()
        })
    };
    let r = update("G('d', 'a').\ndelete G('a', 'b').\nG('a', 'e').");
    assert!(r.ok, "{:?}", r.error);
    model.insert(("d".into(), "a".into()));
    model.remove(&("a".into(), "b".into()));
    model.insert(("a".into(), "e".into()));
    check(&s, &model, "op: update (accepted)");
    let r = update("G('e', 'f').\nH('x').");
    assert!(!r.ok, "a batch naming an unknown relation is refused");
    check(&s, &model, "op: update (rejected)");

    // set_instance
    let replacement = {
        let store = s.store();
        let mut store = store.write().unwrap();
        let schema = Schema::from_relations([RelationSchema::new("G", vec![Type::Atom; 2])]);
        let mut inst = Instance::empty(schema);
        for (x, y) in [("a", "p"), ("p", "q")] {
            let row = vec![
                Value::Atom(store.universe_mut().intern(x)),
                Value::Atom(store.universe_mut().intern(y)),
            ];
            inst.insert("G", row);
        }
        store.set_instance(inst);
        edges(&[("a", "p"), ("p", "q")])
    };
    check(&s, &replacement, "set_instance");

    // op: open attaches a durable database (saved by another session)
    let dir = temp_dir("attach");
    {
        let other = Session::default();
        open(&other, &dir);
        insert(&other, "schema G(U, U).");
        insert(&other, "G('a', 'x').");
        insert(&other, "G('x', 'y').");
        let r = other.run(&Request {
            op: Op::Save,
            ..Request::default()
        });
        assert!(r.ok, "{:?}", r.error);
    }
    open(&s, &dir);
    let mut durable = edges(&[("a", "x"), ("x", "y")]);
    check(&s, &durable, "op: open");
    insert(&s, "G('y', 'a').");
    durable.insert(("y".into(), "a".into()));
    check(&s, &durable, "op: insert (logged)");

    // the shell's `:load` into an attached database
    {
        let store = s.store();
        let mut store = store.write().unwrap();
        let db = store.db_mut().expect("attached above");
        db.import_text("schema G(U, U).\nG('a', 'z').\n")
            .expect("import into the attached database");
    }
    durable.insert(("a".into(), "z".into()));
    check(&s, &durable, ":load into the attached db");

    // detach: the in-memory instance is live again, unchanged
    let db = s.store().write().unwrap().detach().expect("attached above");
    drop(db);
    check(&s, &replacement, "detach");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wal_tail_replay_on_reopen_is_not_served_stale() {
    let dir = temp_dir("replay");
    let mut model = Edges::new();
    {
        let s = Session::default();
        open(&s, &dir);
        insert(&s, "schema G(U, U).");
        for (x, y) in [("a", "b"), ("b", "c")] {
            insert(&s, &format!("G('{x}', '{y}')."));
            model.insert((x.into(), y.into()));
        }
        let r = s.run(&Request {
            op: Op::Save,
            ..Request::default()
        });
        assert!(r.ok, "{:?}", r.error);
        check(&s, &model, "before the tail");
        // the write-ahead-log tail: logged after the snapshot, never saved
        insert(&s, "delete G('a', 'b').");
        insert(&s, "G('a', 'd').");
        model.insert(("a".into(), "d".into()));
        model.remove(&("a".into(), "b".into()));
        check(&s, &model, "tail applied live");
    }
    let s = Session::default();
    open(&s, &dir);
    check(&s, &model, "WAL-tail replay on reopen");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A 50-node graph with out-degree 4, loaded into a fresh sequential
/// session (cold instance cache).
fn graph_session() -> Session {
    let store = Arc::new(RwLock::new(Store::new()));
    let s = Session::builder().store(store).parallelism(1).build();
    insert(&s, "schema G(U, U).");
    for i in 0..50 {
        for k in 1..=4 {
            insert(&s, &format!("G('n{i}', 'n{}').", (i * 7 + k) % 50));
        }
    }
    s
}

/// A request's `(steps, mem_bytes)` spend.
fn spend(s: &Session, req: &Request) -> (u64, u64) {
    let r = s.run(req);
    assert!(r.ok, "{}: {:?}", req.text, r.error);
    let spend = r.spend.expect("every response carries its spend");
    (spend.steps, spend.mem_bytes)
}

fn tree_walk(lang: Lang, mode: Mode, text: &str) -> Request {
    Request {
        mode,
        ..Request::eval(lang, text)
    }
}

fn datalog(strategy: Strategy, text: &str) -> Request {
    Request {
        strategy,
        ..Request::eval(Lang::Datalog, text)
    }
}

const TC: &str = "rel tc(U, U).\ntc(x, y) :- G(x, y).\ntc(x, y) :- tc(x, z), G(z, y).";
const UNREACH: &str = "rel tc(U, U).\nrel node(U).\nrel unreach(U, U).\n\
    tc(x, y) :- G(x, y).\ntc(x, y) :- tc(x, z), G(z, y).\n\
    node(x) :- G(x, y).\nnode(y) :- G(x, y).\n\
    unreach(x, y) :- node(x), node(y), !tc(x, y).";

#[test]
fn planned_steps_do_not_depend_on_the_cache_state() {
    let requests = [
        calc("{[y:U] | G('n3', y)}", true),
        calc("{[x:U] | G(x, 'n10')}", true),
        calc("{[x:U, z:U] | exists y:U (G(x, y) /\\ G(y, z))}", true),
        calc("{[z:U] | exists y:U (G('n1', y) /\\ G(y, z))}", true),
        Request {
            planned: true,
            ..Request::eval(Lang::Algebra, "select[eqc(1, 'n7')](G)")
        },
        // the tree-walk engines, which read the same cached tables
        tree_walk(Lang::Calc, Mode::Checked, "{[y:U] | G('n3', y)}"),
        tree_walk(
            Lang::Calc,
            Mode::Safe,
            "{[z:U] | exists y:U (G('n1', y) /\\ G(y, z))}",
        ),
        tree_walk(Lang::Calc, Mode::Fast, "{[x:U] | G(x, 'n10')}"),
        tree_walk(
            Lang::Algebra,
            Mode::Safe,
            "project[2](select[eqc(1, 'n7')](G))",
        ),
        tree_walk(
            Lang::Algebra,
            Mode::Safe,
            "nest[2](select[eqc(1, 'n7')](G))",
        ),
        datalog(Strategy::SemiNaive, "rel s(U).\ns(y) :- G('n3', y)."),
        datalog(Strategy::SemiNaive, TC),
        datalog(Strategy::Stratified, UNREACH),
    ];
    // constants the instance has never seen, interned by each engine
    let novel = [
        calc("{[y:U] | G('fresh0', y)}", true),
        calc("{[x:U] | G(x, 'fresh1') \\/ G('fresh2', x)}", true),
        tree_walk(Lang::Calc, Mode::Checked, "{[y:U] | G('fresh3', y)}"),
        tree_walk(Lang::Algebra, Mode::Safe, "select[eqc(1, 'fresh4')](G)"),
        datalog(Strategy::SemiNaive, "rel s(U).\ns(y) :- G('fresh5', y)."),
    ];
    for req in &requests {
        let s = graph_session();
        let cold = spend(&s, req);
        assert!(cold.0 > 0, "{}: a request spends fuel", req.text);
        let warm = spend(&s, req);
        for n in &novel {
            spend(&s, n);
        }
        let after_novel = spend(&s, req);
        assert_eq!(
            (warm, after_novel),
            (cold, cold),
            "{}: cold / warm / after novel constants",
            req.text
        );

        // a cache warmed by other requests first
        let s = graph_session();
        for other in requests.iter().chain(&novel) {
            spend(&s, other);
        }
        assert_eq!(spend(&s, req), cold, "{}: cache filled by others", req.text);
    }
}

#[test]
fn clones_and_equality_ignore_the_cache() {
    let s = graph_session();
    run_ok(&s, &calc("{[y:U] | G('n3', y)}", true));
    let store = s.store();
    let store = store.read().unwrap();
    let warm = store.instance();
    let cold = warm.clone();
    assert_eq!(&cold, warm);
    assert_eq!(&rebuild(warm), warm);
    let rows = |i: &Instance| -> Relation { i.relation("G").clone() };
    assert_eq!(rows(&cold), rows(warm));
    assert_eq!(
        stats_key(Stats::of_detailed(&cold)),
        stats_key(Stats::of_detailed(warm))
    );
}

/// Requests intern into overlays that die with them: 500 requests over
/// all four engines, each naming an atom the instance lacks, plus nest
/// and powerset queries that build set values it lacks, leave the
/// instance's base arena exactly as large as before, and every answer
/// equals the one a fresh session gives.
#[test]
fn requests_never_grow_the_instance_arena() {
    let request = |i: usize| -> Request {
        let (k, ghost) = (i % 50, format!("ghost{i}"));
        match i % 6 {
            0 => calc(
                &format!("{{[y:U] | G('{ghost}', y) \\/ G('n{k}', y)}}"),
                true,
            ),
            1 => tree_walk(
                Lang::Calc,
                Mode::Checked,
                &format!("{{[y:U] | G('n{k}', y) \\/ G('{ghost}', y)}}"),
            ),
            2 => tree_walk(
                Lang::Algebra,
                Mode::Safe,
                &format!("select[or(eqc(1, 'n{k}'), eqc(1, '{ghost}'))](G)"),
            ),
            3 => datalog(
                Strategy::SemiNaive,
                &format!("rel s(U).\ns(y) :- G('n{k}', y).\ns('{ghost}') :- G('n{k}', y)."),
            ),
            4 => tree_walk(
                Lang::Algebra,
                Mode::Safe,
                &format!("nest[2](select[or(eqc(1, 'n{k}'), eqc(2, '{ghost}'))](G))"),
            ),
            _ => tree_walk(
                Lang::Algebra,
                Mode::Safe,
                &format!("powerset(project[2](select[or(eqc(1, 'n{k}'), eqc(1, '{ghost}'))](G)))"),
            ),
        }
    };
    let base_len = |s: &Session| s.store().read().unwrap().instance().overlay().base_len();
    let used = graph_session();
    let before = base_len(&used);
    assert!(before > 0, "the base holds the graph");
    let answers: Vec<Vec<String>> = (0..500).map(|i| run_ok(&used, &request(i))).collect();
    assert_eq!(base_len(&used), before, "requests wrote to the base");

    let fresh = graph_session();
    for i in (0..500).rev() {
        let mut got = run_ok(&fresh, &request(i));
        let mut want = answers[i].clone();
        got.sort();
        want.sort();
        assert_eq!(got, want, "{}", request(i).text);
    }
}
