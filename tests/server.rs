//! End-to-end coverage of the TCP query service: the wire protocol over
//! real sockets, concurrent multi-tenant load with observable admission
//! control, resource trips surfacing in `op: Stats`, and fault tolerance —
//! armed storage I/O faults and mid-request disconnects must leave the
//! store prefix-consistent while the server keeps accepting connections.

mod common;

use common::ScratchDir;
use nestdb::object::{Instance, RelationSchema, Schema, Type, Universe, Value};
use nestdb::proto::{Lang, LimitsSpec, Op, Request, Strategy};
use nestdb::server::{Client, Server, ServerConfig};
use nestdb::service::serve;
use nestdb::storage::{Db, DbOptions, FaultMode, IoFaults, SyncPolicy};
use nestdb::{Session, Store};
use std::sync::{Arc, RwLock};

const TC_SRC: &str = "rel tc(U, U).\ntc(x, y) :- G(x, y).\ntc(x, y) :- tc(x, z), G(z, y).";

/// A `G`-chain instance of `n` nodes.
fn chain(n: usize) -> (Universe, Instance) {
    let mut u = Universe::new();
    let schema = Schema::from_relations([RelationSchema::new("G", vec![Type::Atom, Type::Atom])]);
    let mut i = Instance::empty(schema);
    for k in 0..n.saturating_sub(1) {
        let (a, b) = (u.intern(&format!("n{k}")), u.intern(&format!("n{}", k + 1)));
        i.insert("G", vec![Value::Atom(a), Value::Atom(b)]);
    }
    (u, i)
}

fn chain_server(n: usize, config: ServerConfig) -> Server {
    let (u, i) = chain(n);
    let session = Session::builder()
        .store(Arc::new(RwLock::new(Store::with_data(u, i))))
        .build();
    serve("127.0.0.1:0", session, config).unwrap()
}

fn tenant_eval(tenant: &str, text: &str) -> Request {
    Request {
        op: Op::Eval,
        lang: Lang::Datalog,
        strategy: Strategy::SemiNaive,
        tenant: tenant.to_string(),
        text: text.to_string(),
        ..Request::default()
    }
}

fn stats(client: &mut Client) -> nestdb::proto::StatsOut {
    let resp = client
        .roundtrip(&Request {
            op: Op::Stats,
            ..Request::default()
        })
        .unwrap();
    assert!(resp.ok, "{:?}", resp.error);
    resp.stats.expect("stats responses carry counters")
}

#[test]
fn protocol_round_trip_over_real_tcp() {
    let server = chain_server(4, ServerConfig::default());
    let mut client = Client::connect(server.local_addr()).unwrap();

    // evaluate CALC and check the canonical JSON came through intact
    let resp = client
        .roundtrip(&Request::eval(Lang::Calc, "{[x:U, y:U] | G(x, y)}"))
        .unwrap();
    assert!(resp.ok, "{:?}", resp.error);
    assert_eq!(
        resp.relations[0].rows_json,
        r#"[["n0","n1"],["n1","n2"],["n2","n3"]]"#
    );
    assert!(resp.spend.as_ref().unwrap().steps > 0);

    // a mutation through the same connection, then read it back
    let resp = client
        .roundtrip(&Request {
            op: Op::Insert,
            text: "G('n3', 'n0').".to_string(),
            ..Request::default()
        })
        .unwrap();
    assert!(resp.ok, "{:?}", resp.error);
    let resp = client
        .roundtrip(&Request::eval(Lang::Calc, "{[x:U, y:U] | G(x, y)}"))
        .unwrap();
    assert_eq!(resp.relations[0].rows.len(), 4);

    // garbage and unknown fields: structured protocol errors, connection
    // survives both
    client.send_raw("{{{ not json").unwrap();
    let resp = client.recv().unwrap();
    assert_eq!(resp.error.as_ref().unwrap().kind, "protocol");
    client.send_raw(r#"{"op": "frobnicate"}"#).unwrap();
    let resp = client.recv().unwrap();
    assert_eq!(resp.error.as_ref().unwrap().kind, "protocol");
    assert!(resp.error.as_ref().unwrap().message.contains("unknown op"));
    let resp = client
        .roundtrip(&Request::eval(Lang::Calc, "{[x:U, y:U] | G(x, y)}"))
        .unwrap();
    assert!(resp.ok);

    server.shutdown();
}

/// Sixteen concurrent clients across four tenants against deliberately
/// small step buckets: every request gets an orderly answer (rows or a
/// `rejected` with `retry_after_ms`), at least one rejection actually
/// happens, and `op: Stats` accounts for all of it per tenant.
#[test]
fn sixteen_concurrent_clients_hit_tenant_budgets() {
    // measure what one TC evaluation costs, in-process
    let (u, i) = chain(24);
    let probe = Session::builder()
        .store(Arc::new(RwLock::new(Store::with_data(u, i))))
        .build();
    let spend = probe
        .run(&tenant_eval("", TC_SRC))
        .spend
        .expect("eval responses carry spend")
        .steps;
    assert!(spend > 0);

    // room for ~2 requests per tenant, with a negligible refill
    let config = ServerConfig {
        tenant_capacity_steps: spend * 2 + spend / 2,
        tenant_refill_steps_per_sec: 1,
    };
    let server = chain_server(24, config);
    let addr = server.local_addr();

    let workers: Vec<_> = (0..16)
        .map(|c| {
            std::thread::spawn(move || {
                let tenant = format!("tenant{}", c % 4);
                let mut client = Client::connect(addr).unwrap();
                let mut ok = 0u64;
                let mut rejected = 0u64;
                for _ in 0..5 {
                    let resp = client.roundtrip(&tenant_eval(&tenant, TC_SRC)).unwrap();
                    match resp.error {
                        None => {
                            assert!(resp.ok);
                            assert_eq!(resp.relations[0].name, "tc");
                            ok += 1;
                        }
                        Some(err) => {
                            assert_eq!(err.kind, "rejected", "{}", err.message);
                            assert!(err.retry_after_ms.unwrap() >= 1);
                            rejected += 1;
                        }
                    }
                }
                (ok, rejected)
            })
        })
        .collect();
    let mut total_ok = 0;
    let mut total_rejected = 0;
    for w in workers {
        let (ok, rejected) = w.join().unwrap();
        total_ok += ok;
        total_rejected += rejected;
    }
    assert_eq!(total_ok + total_rejected, 80);
    assert!(total_ok >= 4, "every tenant admits at least its burst");
    assert!(total_rejected > 0, "the budgets must actually bite");

    let mut client = Client::connect(addr).unwrap();
    let s = stats(&mut client);
    assert_eq!(s.requests, 80);
    assert_eq!(s.rejected, total_rejected);
    assert_eq!(s.tenants.len(), 4);
    for t in &s.tenants {
        assert!(t.tenant.starts_with("tenant"));
        assert_eq!(t.requests + t.rejected, 20);
        assert!(t.spent_steps >= spend, "admitted work is accounted");
    }
    assert!(s.p99_us >= s.p50_us);
    server.shutdown();
}

/// A per-request budget override that trips mid-evaluation surfaces as a
/// `resource` error on the wire and as a trip in the server counters.
#[test]
fn budget_trips_are_counted_in_stats() {
    let server = chain_server(24, ServerConfig::default());
    let mut client = Client::connect(server.local_addr()).unwrap();
    let mut req = tenant_eval("spender", TC_SRC);
    req.limits = Some(LimitsSpec {
        max_steps: Some(1),
        ..LimitsSpec::default()
    });
    let resp = client.roundtrip(&req).unwrap();
    let err = resp.error.as_ref().unwrap();
    assert_eq!(err.kind, "resource");
    assert!(err.resource_trip);

    let s = stats(&mut client);
    assert_eq!(s.trips, 1);
    let spender = s.tenants.iter().find(|t| t.tenant == "spender").unwrap();
    assert_eq!(spender.trips, 1);
    server.shutdown();
}

/// Armed storage faults plus a mid-request disconnect: acknowledged
/// inserts stay durable, failed inserts come back as structured `storage`
/// errors, the server keeps accepting new connections throughout, and the
/// directory recovers to a prefix of exactly the acknowledged rows.
#[test]
fn io_faults_and_disconnects_leave_the_store_prefix_consistent() {
    let scratch = ScratchDir::new("server_faults");
    let faults = IoFaults::none();
    let db = Db::open(
        scratch.path(),
        DbOptions {
            sync: SyncPolicy::Always,
            faults: faults.clone(),
            ..DbOptions::default()
        },
    )
    .unwrap();
    let mut store = Store::new();
    store.attach(db);
    let store = Arc::new(RwLock::new(store));
    let session = Session::builder().store(Arc::clone(&store)).build();
    let server = serve("127.0.0.1:0", session, ServerConfig::default()).unwrap();
    let addr = server.local_addr();

    let insert = |text: &str| Request {
        op: Op::Insert,
        text: text.to_string(),
        ..Request::default()
    };

    let mut client = Client::connect(addr).unwrap();
    assert!(client.roundtrip(&insert("schema E(U, U).")).unwrap().ok);
    let mut acked = 0u64;
    for k in 0..5 {
        let resp = client
            .roundtrip(&insert(&format!("E('a{k}', 'b{k}').")))
            .unwrap();
        assert!(resp.ok, "{:?}", resp.error);
        acked += 1;
    }

    // arm: every subsequent storage I/O crashes
    faults.arm(None, 1, FaultMode::Crash);
    let resp = client.roundtrip(&insert("E('fault', 'fault').")).unwrap();
    assert!(!resp.ok);
    assert_eq!(resp.error.as_ref().unwrap().kind, "storage");

    // the WAL is now wedged by contract (reopen to recover), but the
    // connection and the server both survive: reads still answer and
    // further inserts fail as structured storage errors, not hangups
    let resp = client
        .roundtrip(&Request::eval(Lang::Calc, "{[x:U, y:U] | E(x, y)}"))
        .unwrap();
    assert!(resp.ok, "{:?}", resp.error);
    let resp = client.roundtrip(&insert("E('wedged', 'wedged').")).unwrap();
    assert_eq!(resp.error.as_ref().unwrap().kind, "storage");

    // a client that fires a request and vanishes mid-flight must not
    // wedge the service or corrupt the store
    faults.disarm();
    let mut rude = Client::connect(addr).unwrap();
    rude.send(&insert("E('rude', 'rude').")).unwrap();
    drop(rude);

    // recovery over the wire: reopen the directory through the protocol,
    // then fresh connections are served writes again
    let mut fresh = Client::connect(addr).unwrap();
    let resp = fresh
        .roundtrip(&Request {
            op: Op::Open,
            text: scratch.path().display().to_string(),
            ..Request::default()
        })
        .unwrap();
    assert!(resp.ok, "{:?}", resp.error);
    let resp = fresh
        .roundtrip(&insert(&format!("E('a{acked}', 'b{acked}').")))
        .unwrap();
    assert!(resp.ok, "{:?}", resp.error);
    acked += 1;

    server.shutdown();
    drop(store);

    // recovery: every acknowledged row is present (SyncPolicy::Always),
    // and nothing but scripted rows appears — the rude client's row may
    // or may not have landed, which is exactly prefix consistency
    let db = Db::open(scratch.path(), DbOptions::default()).unwrap();
    let rel = db.instance().relation("E");
    let mut u = db.universe().clone();
    for k in 0..acked {
        let row = vec![
            Value::Atom(u.intern(&format!("a{k}"))),
            Value::Atom(u.intern(&format!("b{k}"))),
        ];
        assert!(rel.contains(&row), "acknowledged row {k} lost");
    }
    let extras = rel.len() as u64 - acked;
    assert!(
        extras <= 1,
        "at most the in-flight rude row beyond the acks"
    );
    server_dir_verifies(scratch.path());
}

fn server_dir_verifies(dir: &std::path::Path) {
    let report = nestdb::storage::verify(dir).expect("post-recovery verify");
    assert!(report.tuples >= 1);
}

/// Live view maintenance over real sockets: one client materializes a
/// recursive view and subscribes; a second client's mutations arrive at
/// the first as unsolicited `event: "delta"` push lines whose rows match
/// what the maintenance engine computed — and the maintenance work is
/// charged to the mutating tenant's admission bucket like any query.
#[test]
fn live_subscriptions_push_maintained_deltas_across_connections() {
    let server = chain_server(3, ServerConfig::default()); // G: n0→n1→n2
    let addr = server.local_addr();
    let mut watcher = Client::connect(addr).unwrap();
    let mut mutator = Client::connect(addr).unwrap();

    let resp = watcher
        .roundtrip(&Request {
            op: Op::Materialize,
            view: "paths".to_string(),
            text: TC_SRC.to_string(),
            ..Request::default()
        })
        .unwrap();
    assert!(resp.ok, "{:?}", resp.error);
    assert_eq!(resp.relations[0].rows.len(), 3, "tc of a 3-chain");
    assert!(
        watcher
            .roundtrip(&Request {
                op: Op::Subscribe,
                view: "paths".to_string(),
                ..Request::default()
            })
            .unwrap()
            .ok
    );

    // subscribing to a view that does not exist is a structured error
    let resp = watcher
        .roundtrip(&Request {
            op: Op::Subscribe,
            view: "nonesuch".to_string(),
            ..Request::default()
        })
        .unwrap();
    assert_eq!(resp.error.as_ref().unwrap().kind, "protocol");

    // another connection closes the chain into a cycle
    let resp = mutator
        .roundtrip(&Request {
            op: Op::Update,
            tenant: "writer".to_string(),
            text: "G('n2', 'n0').".to_string(),
            ..Request::default()
        })
        .unwrap();
    assert!(resp.ok, "{:?}", resp.error);
    assert_eq!(resp.deltas[0].view, "paths");

    // the push carries the same maintained delta: tc jumps 3 → 9 rows
    let push = watcher.recv().unwrap();
    assert_eq!(push.event.as_deref(), Some("delta"));
    assert_eq!(push.deltas[0].view, "paths");
    let added = &push.deltas[0].added[0];
    assert_eq!(added.name, "tc");
    assert_eq!(added.rows.len(), 6);
    assert!(push.deltas[0].removed.is_empty());

    // a retraction pushes removals the same way
    assert!(
        mutator
            .roundtrip(&Request {
                op: Op::Update,
                tenant: "writer".to_string(),
                text: "delete G('n2', 'n0').".to_string(),
                ..Request::default()
            })
            .unwrap()
            .ok
    );
    let push = watcher.recv().unwrap();
    assert_eq!(push.event.as_deref(), Some("delta"));
    assert_eq!(push.deltas[0].removed[0].rows.len(), 6);
    assert!(push.deltas[0].added.is_empty());

    // maintenance spend landed on the mutating tenant's bucket, and the
    // per-view counters made it into stats
    let s = stats(&mut watcher);
    let writer = s.tenants.iter().find(|t| t.tenant == "writer").unwrap();
    assert!(writer.spent_steps > 0, "maintenance is admission-metered");
    let view = s.views.iter().find(|v| v.view == "paths").unwrap();
    assert_eq!(view.maintain_calls, 2);
    assert!(view.steps_total > 0);
    server.shutdown();
}

/// Disconnecting mid-evaluation cancels the in-flight request's governor;
/// the service stays healthy and the next client is served normally.
#[test]
fn mid_request_disconnect_does_not_wedge_the_server() {
    let server = chain_server(64, ServerConfig::default());
    let addr = server.local_addr();
    for _ in 0..4 {
        let mut c = Client::connect(addr).unwrap();
        c.send(&tenant_eval("ghost", TC_SRC)).unwrap();
        drop(c); // vanish without reading the response
    }
    let mut client = Client::connect(addr).unwrap();
    let resp = client.roundtrip(&tenant_eval("patient", TC_SRC)).unwrap();
    assert!(resp.ok, "{:?}", resp.error);
    assert_eq!(resp.relations[0].name, "tc");
    server.shutdown();
}

/// A client that never sends a newline is cut off at the line cap with a
/// `protocol` error and a closed connection; other clients are served
/// meanwhile.
#[test]
fn an_unterminated_line_is_refused_at_the_cap() {
    use std::io::{BufRead, BufReader, Write};
    let server = chain_server(4, ServerConfig::default());
    let addr = server.local_addr();
    let stream = std::net::TcpStream::connect(addr).unwrap();
    // without the cap the server would wait forever for a newline
    let patience = std::time::Duration::from_secs(30);
    stream.set_read_timeout(Some(patience)).unwrap();
    let mut writer = stream.try_clone().unwrap();
    // twice the cap, no newline; the server stops reading halfway, so the
    // tail of the write may fail once it closes the connection
    let flood = std::thread::spawn(move || {
        let chunk = vec![b'x'; 1 << 16];
        for _ in 0..(2 * nestdb::server::MAX_LINE_BYTES) / chunk.len() {
            if writer.write_all(&chunk).is_err() {
                break;
            }
        }
    });
    // another client is served while the flood is in progress
    let mut other = Client::connect(addr).unwrap();
    let resp = other
        .roundtrip(&Request::eval(Lang::Calc, "{[x:U, y:U] | G(x, y)}"))
        .unwrap();
    assert!(resp.ok, "{:?}", resp.error);

    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let resp = nestdb::Response::from_json(line.trim()).unwrap();
    assert_eq!(resp.error.as_ref().unwrap().kind, "protocol", "{line}");
    // the server closed the connection after the refusal
    line.clear();
    assert_eq!(reader.read_line(&mut line).unwrap_or(0), 0, "{line}");
    flood.join().unwrap();
    server.shutdown();
}
