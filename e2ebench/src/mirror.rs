//! The traced run's request path: the same public layer calls
//! `Session::run` makes, in the same order and under the same locks,
//! with a span around each. The server's framing (request decode,
//! admission, response encode, push fan-out) and the client's decode are
//! replayed in-process around it, so a request's root span covers what
//! the wire path does apart from the socket itself.

use crate::trace::Tracer;
use nestdb::algebra::parse_expr;
use nestdb::analysis::{analyze_calc, Severity};
use nestdb::core::parse_query;
use nestdb::core::print::Printer;
use nestdb::core::ranges::safe_eval_pooled;
use nestdb::datalog::{eval_pooled, parse_program, Idb, Strategy};
use nestdb::ivm::{BaseDelta, ViewDelta};
use nestdb::object::text::{parse_clause, Clause};
use nestdb::object::{Governor, Relation, Universe, Value};
use nestdb::plan::{CalcMode, DatalogMode, Output};
use nestdb::proto::{
    AnalysisOut, DeltaOut, Json, Lang, Mode, Op, RelationOut, Request, Response, Spend,
};
use nestdb::server::admission::TokenBuckets;
use nestdb::{Session, Store, ThreadPool};
use std::collections::BTreeMap;
use std::sync::mpsc::Sender;
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard};
use std::time::Instant;

/// One traced client/server pair over a shared session.
pub struct Mirror<'a> {
    pub session: &'a Session,
    pub store: Arc<RwLock<Store>>,
    pub pool: ThreadPool,
    pub buckets: &'a TokenBuckets,
    pub tracer: &'a Tracer,
    /// Subscribers of the `tc` view: each push line is sent here.
    pub pushes: Option<Sender<String>>,
}

impl<'a> Mirror<'a> {
    pub fn new(session: &'a Session, buckets: &'a TokenBuckets, tracer: &'a Tracer) -> Self {
        Mirror {
            session,
            store: session.store(),
            pool: ThreadPool::new(session.parallelism()),
            buckets,
            tracer,
            pushes: None,
        }
    }

    /// One request, from the client's encode to the client's decode.
    pub fn roundtrip(&self, id: u64, req: &Request) -> Response {
        let t = self.tracer;
        t.request(id, || {
            let line = t.span("proto.encode_request", || req.to_json());
            let req = match t.span("proto.decode_request", || Request::from_json(&line)) {
                Ok(r) => r,
                Err(e) => return Response::error("protocol", format!("bad request: {e}")),
            };
            let resp = match t.span("server.admit", || self.buckets.admit(&req.tenant)) {
                Err(ms) => Response::error("rejected", format!("retry in {ms} ms")),
                Ok(()) => {
                    let resp = t.span("session", || self.run(&req));
                    t.span("server.settle", || {
                        let steps = resp.spend.as_ref().map_or(0, |s| s.steps);
                        self.buckets.settle(&req.tenant, steps, false)
                    });
                    resp
                }
            };
            if resp.ok && !resp.deltas.is_empty() {
                if let Some(tx) = &self.pushes {
                    t.span("server.push", || {
                        for d in resp.deltas.iter().filter(|d| d.view == "tc") {
                            let push = Response {
                                ok: true,
                                event: Some("delta".to_string()),
                                deltas: vec![d.clone()],
                                ..Response::default()
                            };
                            let _ = tx.send(push.to_json());
                        }
                    });
                }
            }
            let wire = t.span("proto.encode_response", || resp.to_json());
            t.count("proto.response_bytes", wire.len() as f64);
            t.span("proto.decode_response", || Response::from_json(&wire))
                .unwrap_or_else(|e| Response::error("protocol", e))
        })
    }

    /// `Session::run_governed` for the ops the workloads send.
    fn run(&self, req: &Request) -> Response {
        let gov = self.session.governor_for(req);
        let start = Instant::now();
        let mut resp = match (req.op, req.lang) {
            (Op::Eval, Lang::Calc) => self.eval_calc(req, &gov),
            (Op::Eval, Lang::Datalog) => self.eval_datalog(req, &gov),
            (Op::Eval, Lang::Algebra) => self.eval_algebra(req, &gov),
            (Op::Update, _) => self.update(req, &gov),
            (Op::Save, _) => self.save(),
            (op, _) => Response::error("unsupported", format!("{op:?} is not traced")),
        };
        resp.spend = Some(Spend {
            steps: gov.steps_spent(),
            mem_bytes: gov.mem_spent(),
            elapsed_us: start.elapsed().as_micros() as u64,
        });
        resp
    }

    /// Take the store's write lock (timing the wait) and run `f` under
    /// it (timing the hold).
    fn with_write<R>(&self, f: impl FnOnce(&mut Store) -> R) -> R {
        let t = self.tracer;
        let mut guard = t.span("store.write_wait", || {
            self.store.write().unwrap_or_else(PoisonError::into_inner)
        });
        t.span("store.write_hold", || {
            let out = f(&mut guard);
            drop(guard);
            out
        })
    }

    fn read(&self) -> RwLockReadGuard<'_, Store> {
        self.tracer.span("store.read_wait", || {
            self.store.read().unwrap_or_else(PoisonError::into_inner)
        })
    }

    fn eval_calc(&self, req: &Request, gov: &Governor) -> Response {
        let t = self.tracer;
        let mut checked = None;
        let safe = match req.mode {
            Mode::Fast => false,
            Mode::Safe => true,
            Mode::Checked => {
                let analysis = self.with_write(|s| {
                    t.span("analysis", || {
                        let schema = s.instance().schema().clone();
                        analyze_calc(&schema, &req.text, s.universe_mut())
                    })
                });
                let out = t.span("session.render", || analysis_out(&analysis, &req.text));
                if analysis.has_errors() {
                    let mut resp = Response::error("diagnostics", "analysis refused the query");
                    resp.analysis = Some(out);
                    return resp;
                }
                checked = Some(out);
                analysis.is_rr_safe()
            }
        };
        let parsed =
            self.with_write(|s| t.span("parse", || parse_query(&req.text, s.universe_mut())));
        let query = match parsed {
            Ok(q) => q,
            Err(e) => return Response::error("parse", e.render(&req.text)),
        };
        let store = self.read();
        let inst = store.instance();
        let result: Result<Relation, String> = if req.planned {
            let mode = if safe {
                CalcMode::Safe
            } else {
                CalcMode::ActiveDomain
            };
            t.span("plan", || self.session.plan_calc(inst, &query, mode))
                .map_err(|e| e.to_string())
                .and_then(|p| {
                    t.span("exec", || p.execute(inst, gov, &self.pool))
                        .map(Output::into_relation)
                        .map_err(|e| e.to_string())
                })
        } else if safe {
            t.span("core", || safe_eval_pooled(inst, &query, gov, &self.pool))
                .map_err(|e| e.to_string())
        } else {
            return Response::error("unsupported", "active-domain CALC is not traced");
        };
        match result {
            Ok(rel) => Response {
                ok: true,
                relations: vec![t.span("session.render", || {
                    relation_out(store.universe(), "result", &rel)
                })],
                analysis: checked,
                ..Response::default()
            },
            Err(e) => Response::error("eval", e),
        }
    }

    fn eval_datalog(&self, req: &Request, gov: &Governor) -> Response {
        let t = self.tracer;
        let parsed =
            self.with_write(|s| t.span("parse", || parse_program(&req.text, s.universe_mut())));
        let program = match parsed {
            Ok(p) => p,
            Err(e) => return Response::error("parse", e.render(&req.text)),
        };
        let store = self.read();
        let inst = store.instance();
        let mut rounds = None;
        let result: Result<Idb, String> = match (req.strategy, req.planned) {
            (nestdb::proto::Strategy::SemiNaive, false) => t
                .span("datalog", || {
                    eval_pooled(&program, inst, Strategy::SemiNaive, gov, &self.pool)
                })
                .map(|(idb, stats)| {
                    t.count("datalog.rounds", stats.rounds as f64);
                    rounds = Some(stats.rounds as u64);
                    idb
                })
                .map_err(|e| e.to_string()),
            (nestdb::proto::Strategy::Stratified, true) => t
                .span("plan", || {
                    self.session
                        .plan_datalog(inst, &program, DatalogMode::Stratified)
                })
                .map_err(|e| e.to_string())
                .and_then(|p| {
                    t.span("exec", || p.execute(inst, gov, &self.pool))
                        .map(Output::into_idb)
                        .map_err(|e| e.to_string())
                }),
            (s, planned) => Err(format!("{s:?} (planned: {planned}) is not traced")),
        };
        match result {
            Ok(idb) => Response {
                ok: true,
                relations: t.span("session.render", || {
                    idb.iter()
                        .map(|(name, rel)| relation_out(store.universe(), name, rel))
                        .collect()
                }),
                rounds,
                ..Response::default()
            },
            Err(e) => Response::error("eval", e),
        }
    }

    fn eval_algebra(&self, req: &Request, gov: &Governor) -> Response {
        let t = self.tracer;
        let parsed =
            self.with_write(|s| t.span("parse", || parse_expr(&req.text, s.universe_mut())));
        let expr = match parsed {
            Ok(e) => e,
            Err(e) => return Response::error("parse", e.to_string()),
        };
        let store = self.read();
        let inst = store.instance();
        let result: Result<Relation, String> = if req.planned {
            t.span("plan", || self.session.plan_algebra(inst, &expr))
                .map_err(|e| e.to_string())
                .and_then(|p| {
                    t.span("exec", || p.execute(inst, gov, &self.pool))
                        .map(Output::into_relation)
                        .map_err(|e| e.to_string())
                })
        } else {
            t.span("algebra", || {
                nestdb::algebra::eval_pooled(&expr, inst, gov, &self.pool)
            })
            .map_err(|e| e.to_string())
        };
        match result {
            Ok(rel) => Response {
                ok: true,
                relations: vec![t.span("session.render", || {
                    relation_out(store.universe(), "result", &rel)
                })],
                ..Response::default()
            },
            Err(e) => Response::error("eval", e),
        }
    }

    /// `op: update`: parse, validate, maintain every view on the
    /// pre-delta instance, then log and apply each clause.
    fn update(&self, req: &Request, gov: &Governor) -> Response {
        let t = self.tracer;
        self.with_write(|s| {
            let mut clauses = Vec::new();
            for line in req.text.lines().map(str::trim).filter(|l| !l.is_empty()) {
                match t.span("parse", || parse_clause(line, s.universe_mut())) {
                    Ok(c) => clauses.push(c),
                    Err(e) => return Response::error("parse", format!("{line:?}: {e}")),
                }
            }
            let mut delta = BaseDelta::new();
            for c in &clauses {
                match c {
                    Clause::Fact(name, row) if valid(s, name, row) => {
                        delta.insert(name, row.clone())
                    }
                    Clause::Retract(name, row) if valid(s, name, row) => {
                        delta.delete(name, row.clone())
                    }
                    _ => return Response::error("protocol", "invalid update clause"),
                }
            }
            let view_deltas = match t.span("ivm.maintain", || s.maintain_views(&delta, gov)) {
                Ok(d) => d,
                Err(e) => return Response::error("eval", e.to_string()),
            };
            let n = clauses.len();
            for c in clauses {
                if let Err(m) = t.span("storage.apply", || s.apply_clause(c)) {
                    return Response::error("storage", m);
                }
            }
            let mut resp = Response::message(format!(
                "applied {n} mutations; {} views maintained",
                s.views().len()
            ));
            resp.deltas = t.span("session.render", || delta_outs(s.universe(), &view_deltas));
            resp
        })
    }

    /// `op: save`: checkpoint the store, then stamp the views.
    fn save(&self) -> Response {
        let t = self.tracer;
        self.with_write(|s| {
            t.span("storage.checkpoint", || {
                let saved = match s.db_mut() {
                    Some(db) => db.save().map_err(|e| e.to_string()),
                    None => Err("no durable database attached".to_string()),
                };
                saved.and_then(|()| s.save_views_checkpoint().map_err(|e| e.to_string()))
            })
            .map_or_else(
                |e| Response::error("storage", e),
                |()| Response::message("checkpointed"),
            )
        })
    }
}

/// The schema check `op: update` makes before maintenance runs.
fn valid(s: &Store, name: &str, row: &[Value]) -> bool {
    s.instance().schema().get(name).is_some_and(|rel| {
        rel.arity() == row.len()
            && row
                .iter()
                .zip(rel.column_types.iter())
                .all(|(v, ty)| v.has_type(ty))
    })
}

fn analysis_out(analysis: &nestdb::analysis::Analysis, src: &str) -> AnalysisOut {
    let errors = analysis
        .diagnostics
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .count() as u64;
    AnalysisOut {
        text: analysis.render(src),
        json: analysis.to_json(),
        errors,
        warnings: analysis.diagnostics.len() as u64 - errors,
        certified: analysis.certificate.is_some(),
    }
}

fn value_json(universe: &Universe, v: &Value) -> Json {
    match v {
        Value::Atom(a) => Json::Str(universe.name(*a).to_string()),
        Value::Tuple(vs) => Json::Arr(vs.iter().map(|v| value_json(universe, v)).collect()),
        Value::Set(s) => Json::Arr(s.iter().map(|v| value_json(universe, v)).collect()),
    }
}

/// A relation rendered for the wire, as the session renders it.
fn relation_out(universe: &Universe, name: &str, rel: &Relation) -> RelationOut {
    let printer = Printer::with_universe(universe);
    let sorted = rel.sorted_rows();
    let rows = sorted
        .iter()
        .map(|row| {
            let cells: Vec<String> = row.iter().map(|v| printer.value(v)).collect();
            format!("({})", cells.join(", "))
        })
        .collect();
    let rows_json = Json::Arr(
        sorted
            .iter()
            .map(|row| Json::Arr(row.iter().map(|v| value_json(universe, v)).collect()))
            .collect(),
    )
    .render();
    RelationOut {
        name: name.to_string(),
        rows,
        rows_json,
    }
}

fn delta_outs(universe: &Universe, deltas: &BTreeMap<String, ViewDelta>) -> Vec<DeltaOut> {
    let side = |rels: &BTreeMap<String, Relation>| -> Vec<RelationOut> {
        rels.iter()
            .filter(|(_, rows)| !rows.is_empty())
            .map(|(rel, rows)| relation_out(universe, rel, rows))
            .collect()
    };
    deltas
        .iter()
        .filter(|(_, d)| !d.is_empty())
        .map(|(view, d)| DeltaOut {
            view: view.clone(),
            added: side(&d.add),
            removed: side(&d.del),
        })
        .collect()
}
