//! The [`Session`] facade: one handle over every evaluation engine, and
//! the single dispatch point behind the wire protocol.
//!
//! A session bundles a [`Governor`] (budgets, cancellation), a
//! [`ThreadPool`] (parallelism), a plan cache, and a shared [`Store`]
//! (universe + instance + optional durable [`Db`]). Every caller surface —
//! the shell, the `nestdb` CLI subcommands, the TCP server, embeddings —
//! reduces its work to one serializable [`Request`] and calls
//! [`Session::run`]:
//!
//! ```
//! use nestdb::Session;
//! use no_proto::{Lang, Request};
//!
//! let session = Session::builder().parallelism(4).build();
//! let r = session.run(&Request {
//!     op: no_proto::Op::Insert,
//!     text: "schema G(U, U).".into(),
//!     ..Request::default()
//! });
//! assert!(r.ok);
//! session.run(&Request {
//!     op: no_proto::Op::Insert,
//!     text: "G('a', 'b').".into(),
//!     ..Request::default()
//! });
//! let r = session.run(&Request::eval(Lang::Calc, "{[x:U, y:U] | G(x, y)}"));
//! assert_eq!(r.relations[0].rows, vec!["('a', 'b')".to_string()]);
//! ```
//!
//! Requests without a [`Request::limits`] override draw from the *same*
//! session governor allowance — the cross-engine analogue of the rule that
//! all strata of a stratified program share one budget. A request carrying
//! an override runs under a fresh per-request allowance (what the shell
//! does per evaluation and the server does per tenant).
//!
//! Every engine is reachable two ways from one request: tree-walk
//! (`planned: false`, the engine's own evaluation function) or planned
//! (`planned: true`, [`Session::plan_calc`] and friends, then
//! [`Planned::execute`]). `tests/api_equivalence.rs` asserts both give the
//! same answer for every engine, mode, and strategy.

use crate::error::Error;
use minipool::ThreadPool;
use no_algebra::Expr;
use no_core::print::Printer;
use no_core::Query;
use no_datalog::{Program, Strategy};
use no_ivm::{decode_registry, encode_registry, BaseDelta, IvmError, ViewDelta, ViewRegistry};
use no_object::text::{parse_clause, render_database, Clause};
use no_object::{Governor, Instance, Limits, Relation, Schema, Type, Universe, Value};
use no_plan::{CacheKey, CalcMode, DatalogMode, PlanCache, Planned, Planner};
use no_proto::{
    AnalysisOut, DeltaOut, ExplainOut, Json, Lang, LimitsSpec, Mode, Op, RelationOut, Request,
    Response, Spend, StatsOut, ViewStatsOut,
};
use no_storage::{Db, DbOptions, SyncPolicy};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::sync::{Arc, Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::{Duration, Instant};

/// How many plans a session keeps in its LRU plan cache.
pub const PLAN_CACHE_CAPACITY: usize = 64;

/// Environment variable consulted for the default worker count when
/// [`SessionBuilder::parallelism`] is not called. Unset, unparsable, or
/// zero values fall back to `1` (sequential).
pub const THREADS_ENV: &str = "NESTDB_THREADS";

fn default_parallelism() -> usize {
    std::env::var(THREADS_ENV)
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(1)
}

// ---------------------------------------------------------------------------
// Store
// ---------------------------------------------------------------------------

/// The mutable database state behind a session: an interning [`Universe`],
/// an in-memory [`Instance`], and — once attached — a durable [`Db`] that
/// takes over both. Shared behind `Arc<RwLock<_>>` so concurrent readers
/// (server requests) evaluate in parallel while mutations take the write
/// lock.
#[derive(Debug)]
pub struct Store {
    universe: Universe,
    instance: Instance,
    db: Option<Db>,
    views: ViewRegistry,
}

impl Default for Store {
    fn default() -> Self {
        Store::new()
    }
}

impl Store {
    /// An empty in-memory store.
    pub fn new() -> Store {
        Store {
            universe: Universe::new(),
            instance: Instance::empty(Schema::new()),
            db: None,
            views: ViewRegistry::new(),
        }
    }

    /// A store over already-built data.
    pub fn with_data(universe: Universe, instance: Instance) -> Store {
        Store {
            universe,
            instance,
            db: None,
            views: ViewRegistry::new(),
        }
    }

    /// The live universe: the durable store's when one is attached.
    pub fn universe(&self) -> &Universe {
        match &self.db {
            Some(db) => db.universe(),
            None => &self.universe,
        }
    }

    /// Mutable universe access (parsing interns atoms). Sound against a
    /// durable store: the universe is append-only and replay re-interns
    /// atom names from the logged clauses themselves.
    pub fn universe_mut(&mut self) -> &mut Universe {
        match &mut self.db {
            Some(db) => db.universe_mut(),
            None => &mut self.universe,
        }
    }

    /// The live instance: the durable store's when one is attached.
    pub fn instance(&self) -> &Instance {
        match &self.db {
            Some(db) => db.instance(),
            None => &self.instance,
        }
    }

    /// Replace the in-memory instance (ignored while a durable store is
    /// attached — mutate through the log instead).
    pub fn set_instance(&mut self, instance: Instance) {
        if self.db.is_none() {
            self.instance = instance;
        }
    }

    /// The attached durable database, if any.
    pub fn db(&self) -> Option<&Db> {
        self.db.as_ref()
    }

    /// Mutable access to the attached durable database.
    pub fn db_mut(&mut self) -> Option<&mut Db> {
        self.db.as_mut()
    }

    /// The materialized views maintained over this store.
    pub fn views(&self) -> &ViewRegistry {
        &self.views
    }

    /// Mutable access to the view registry (e.g. to drop a view or
    /// install a restored registry).
    pub fn views_mut(&mut self) -> &mut ViewRegistry {
        &mut self.views
    }

    /// Define (or replace) the materialized view `name` from Datalog¬
    /// source and evaluate it against the live instance.
    pub fn materialize_view(
        &mut self,
        name: &str,
        source: &str,
        gov: &Governor,
    ) -> Result<(), IvmError> {
        let program = no_datalog::parse_program(source, self.universe_mut())
            .map_err(|e| IvmError::Parse(e.to_string()))?;
        // the registry is taken out so its mutation can overlap the
        // instance borrow (both live behind `self`)
        let mut views = std::mem::take(&mut self.views);
        let result = views
            .materialize_program(name, source.to_string(), program, self.instance(), gov)
            .map(|_| ());
        self.views = views;
        result
    }

    /// Incrementally maintain every view under `delta`, which describes
    /// mutations **not yet applied** to the live instance. Transactional:
    /// an error leaves every view consistent with the pre-delta state.
    pub fn maintain_views(
        &mut self,
        delta: &BaseDelta,
        gov: &Governor,
    ) -> Result<BTreeMap<String, ViewDelta>, IvmError> {
        let mut views = std::mem::take(&mut self.views);
        let result = views.maintain(self.instance(), delta, gov);
        self.views = views;
        result
    }

    /// Re-materialize every view from scratch against the live instance
    /// (the recovery fallback when incremental state is unusable).
    pub fn recompute_views(&mut self, gov: &Governor) -> Result<(), IvmError> {
        let mut views = std::mem::take(&mut self.views);
        let result = views.recompute_all(self.instance(), gov);
        self.views = views;
        result
    }

    /// Persist the view registry into the attached durable database's
    /// views checkpoint (no-op without one).
    pub fn save_views_checkpoint(&mut self) -> Result<(), no_storage::StorageError> {
        if let Some(db) = &mut self.db {
            let body = encode_registry(&self.views, db.universe());
            db.save_views(&body)?;
        }
        Ok(())
    }

    /// Attach a durable database; it owns the live state from here on.
    pub fn attach(&mut self, db: Db) {
        self.db = Some(db);
    }

    /// Detach the durable database (files stay on disk) and return it.
    pub fn detach(&mut self) -> Option<Db> {
        self.db.take()
    }

    /// Apply one parsed clause — a `schema R(U).` declaration or a fact —
    /// logging it first when a durable store is attached. Returns the
    /// one-line outcome message; errors are message strings too (they
    /// never poison the store).
    pub fn apply_clause(&mut self, clause: Clause) -> Result<String, String> {
        if let Some(db) = &mut self.db {
            return match clause {
                Clause::Schema(rel) => {
                    let name = rel.name.clone();
                    db.declare(rel).map_err(|e| e.to_string())?;
                    Ok(format!("declared {name} (logged)"))
                }
                Clause::Fact(name, row) => {
                    let fresh = db.insert(&name, row).map_err(|e| e.to_string())?;
                    Ok(if fresh {
                        format!("inserted into {name} (logged)")
                    } else {
                        format!("already in {name} (nothing logged)")
                    })
                }
                Clause::Retract(name, row) => {
                    let removed = db.delete(&name, &row).map_err(|e| e.to_string())?;
                    Ok(if removed {
                        format!("deleted from {name} (logged)")
                    } else {
                        format!("not in {name} (nothing logged)")
                    })
                }
            };
        }
        match clause {
            Clause::Schema(rel) => {
                if self.instance.schema().get(&rel.name).is_some() {
                    return Err(format!("relation {:?} is already declared", rel.name));
                }
                let name = rel.name.clone();
                let mut schema = Schema::new();
                for r in self.instance.schema().relations() {
                    schema.add(r.clone());
                }
                schema.add(rel);
                let mut next = Instance::empty(schema);
                for r in self.instance.schema().relations() {
                    next.set_relation(&r.name, self.instance.relation(&r.name).clone());
                }
                self.instance = next;
                Ok(format!("declared {name}"))
            }
            Clause::Fact(name, row) => {
                let (arity, col_types) = match self.instance.schema().get(&name) {
                    Some(r) => (r.arity(), r.column_types.clone()),
                    None => return Err(format!("unknown relation {name:?}")),
                };
                if arity != row.len() {
                    return Err(format!(
                        "relation {name:?} has arity {arity} but the tuple has {} values",
                        row.len()
                    ));
                }
                for (v, t) in row.iter().zip(col_types.iter()) {
                    if !v.has_type(t) {
                        return Err(format!("value is not of type {t} in relation {name:?}"));
                    }
                }
                let fresh = self.instance.insert(&name, row);
                Ok(if fresh {
                    format!("inserted into {name}")
                } else {
                    format!("already in {name}")
                })
            }
            Clause::Retract(name, row) => {
                if self.instance.schema().get(&name).is_none() {
                    return Err(format!("unknown relation {name:?}"));
                }
                let removed = self.instance.delete(&name, &row);
                Ok(if removed {
                    format!("deleted from {name}")
                } else {
                    format!("not in {name}")
                })
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------------

/// Configures and builds a [`Session`].
#[derive(Debug, Clone, Default)]
pub struct SessionBuilder {
    limits: Option<Limits>,
    governor: Option<Governor>,
    parallelism: Option<usize>,
    sync_policy: SyncPolicy,
    store: Option<Arc<RwLock<Store>>>,
    plans: Option<Arc<Mutex<PlanCache<Planned>>>>,
}

impl SessionBuilder {
    /// Budget limits for a session-owned governor. Ignored when an
    /// explicit [`SessionBuilder::governor`] is supplied.
    pub fn limits(mut self, limits: Limits) -> Self {
        self.limits = Some(limits);
        self
    }

    /// Share an existing governor — e.g. to run session queries under the
    /// same allowance as surrounding work, or to cancel the session from
    /// another thread via [`Governor::cancel`].
    pub fn governor(mut self, governor: Governor) -> Self {
        self.governor = Some(governor);
        self
    }

    /// Number of worker threads for the enumeration-heavy evaluation
    /// loops. `1` (the default) evaluates exactly as the sequential
    /// engines always have; values above `1` fan hot loops out over a
    /// work-stealing pool. When not set, the [`THREADS_ENV`] environment
    /// variable is consulted.
    pub fn parallelism(mut self, threads: usize) -> Self {
        self.parallelism = Some(threads.max(1));
        self
    }

    /// Durability policy for databases opened through this session:
    /// [`SyncPolicy::Always`] (the default) fsyncs the write-ahead log on
    /// every mutation; [`SyncPolicy::Manual`] defers to explicit
    /// [`Session::sync`] / [`Session::save`] calls.
    pub fn sync_policy(mut self, policy: SyncPolicy) -> Self {
        self.sync_policy = policy;
        self
    }

    /// Share an existing [`Store`] — several sessions (server connections,
    /// a shell plus background work) then see one database.
    pub fn store(mut self, store: Arc<RwLock<Store>>) -> Self {
        self.store = Some(store);
        self
    }

    /// Share an existing plan cache across sessions. Keys carry a schema
    /// fingerprint, so one cache can safely serve many tenants: a plan is
    /// only reused when normalized query text *and* schema both match.
    pub fn plan_cache(mut self, plans: Arc<Mutex<PlanCache<Planned>>>) -> Self {
        self.plans = Some(plans);
        self
    }

    /// Build the session.
    pub fn build(self) -> Session {
        let governor = self
            .governor
            .unwrap_or_else(|| Governor::new(self.limits.unwrap_or_else(Limits::unlimited)));
        let pool = ThreadPool::new(self.parallelism.unwrap_or_else(default_parallelism));
        Session {
            governor,
            pool,
            plans: self
                .plans
                .unwrap_or_else(|| Arc::new(Mutex::new(PlanCache::new(PLAN_CACHE_CAPACITY)))),
            sync_policy: self.sync_policy,
            store: self
                .store
                .unwrap_or_else(|| Arc::new(RwLock::new(Store::new()))),
        }
    }
}

/// A configured handle over all evaluation engines: one [`Governor`]
/// (shared budget, cancellation), one [`ThreadPool`] (parallelism), one
/// plan cache, and one shared [`Store`], applied uniformly to CALC,
/// Datalog¬ (inflationary, stratified, and simultaneous-fixpoint), and
/// the algebra. [`Session::run`] is the protocol entry point.
#[derive(Debug, Clone)]
pub struct Session {
    governor: Governor,
    pool: ThreadPool,
    /// LRU cache of compiled plans, keyed on normalized query text plus a
    /// schema fingerprint. Shared by clones of this session, and across
    /// sessions when built with [`SessionBuilder::plan_cache`].
    plans: Arc<Mutex<PlanCache<Planned>>>,
    /// Durability policy applied to databases opened via [`Session::open`].
    sync_policy: SyncPolicy,
    /// The shared database state [`Session::run`] reads and mutates.
    store: Arc<RwLock<Store>>,
}

impl Default for Session {
    fn default() -> Self {
        Session::builder().build()
    }
}

impl Session {
    /// Start configuring a session.
    pub fn builder() -> SessionBuilder {
        SessionBuilder::default()
    }

    /// The governor every no-override evaluation in this session draws
    /// from.
    pub fn governor(&self) -> &Governor {
        &self.governor
    }

    /// The configured worker count.
    pub fn parallelism(&self) -> usize {
        self.pool.threads()
    }

    /// The shared store handle.
    pub fn store(&self) -> Arc<RwLock<Store>> {
        Arc::clone(&self.store)
    }

    /// The shared plan-cache handle (for wiring several sessions to one
    /// cache; see [`SessionBuilder::plan_cache`]).
    pub fn plan_cache_handle(&self) -> Arc<Mutex<PlanCache<Planned>>> {
        Arc::clone(&self.plans)
    }

    /// This session with a different governor — same pool, plan cache,
    /// store, and sync policy. Construction is a few `Arc` clones.
    pub fn with_governor(&self, governor: Governor) -> Session {
        Session {
            governor,
            pool: self.pool.clone(),
            plans: Arc::clone(&self.plans),
            sync_policy: self.sync_policy,
            store: Arc::clone(&self.store),
        }
    }

    /// This session with a different worker count — same governor, plan
    /// cache, store, and sync policy.
    pub fn with_parallelism(&self, threads: usize) -> Session {
        Session {
            governor: self.governor.clone(),
            pool: ThreadPool::new(threads.max(1)),
            plans: Arc::clone(&self.plans),
            sync_policy: self.sync_policy,
            store: Arc::clone(&self.store),
        }
    }

    fn read_store(&self) -> RwLockReadGuard<'_, Store> {
        // A panicking request must not take the whole service down with a
        // poisoned lock; the store's invariants are per-mutation.
        self.store
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn write_store(&self) -> RwLockWriteGuard<'_, Store> {
        self.store
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    // ----- the protocol entry point -----------------------------------

    /// Execute one [`Request`] against the session's store and return its
    /// [`Response`]. Never panics on bad input and never returns `Err` —
    /// failures are structured [`no_proto::ErrorOut`] payloads. A request
    /// with [`Request::limits`] runs under a fresh governor built from the
    /// session limits overlaid with the override; otherwise it draws from
    /// the shared session allowance.
    pub fn run(&self, req: &Request) -> Response {
        let governor = match &req.limits {
            Some(spec) => Governor::new(overlay(self.governor.limits(), spec)),
            None => self.governor.clone(),
        };
        self.run_governed(req, governor)
    }

    /// A fresh per-request governor for `req`: the session limits
    /// overlaid with the request's [`Request::limits`] override, counters
    /// at zero. The server builds its governors through this so it can
    /// cancel them on client disconnect and charge their spend to the
    /// tenant; in-process callers can just use [`Session::run`].
    pub fn governor_for(&self, req: &Request) -> Governor {
        let limits = match &req.limits {
            Some(spec) => overlay(self.governor.limits(), spec),
            None => self.governor.limits().clone(),
        };
        Governor::new(limits)
    }

    /// [`Session::run`] under an explicit per-request governor — the
    /// server hook: it builds the governor itself so it can cancel it when
    /// the client disconnects, and charges its spend to the tenant.
    pub fn run_governed(&self, req: &Request, governor: Governor) -> Response {
        let session = self.with_governor(governor);
        let start = Instant::now();
        let steps0 = session.governor.steps_spent();
        let mem0 = session.governor.mem_spent();
        let mut resp = session.dispatch(req);
        resp.spend = Some(Spend {
            steps: session.governor.steps_spent().saturating_sub(steps0),
            mem_bytes: session.governor.mem_spent().saturating_sub(mem0),
            elapsed_us: start.elapsed().as_micros().min(u128::from(u64::MAX)) as u64,
        });
        resp
    }

    fn dispatch(&self, req: &Request) -> Response {
        match req.op {
            Op::Eval => match req.lang {
                Lang::Calc => self.op_eval_calc(req),
                Lang::Datalog => self.op_eval_datalog(req),
                Lang::Algebra => self.op_eval_algebra(req),
            },
            Op::Analyze => self.op_analyze(req),
            Op::Explain => self.op_explain(req),
            Op::Insert => self.op_insert(req),
            Op::Save => self.op_save(req),
            Op::Open => self.op_open(req),
            Op::Stats => self.op_stats(),
            Op::Materialize => self.op_materialize(req),
            Op::Update => self.op_update(req),
            Op::Subscribe => self.op_subscribe(req),
            Op::Unsubscribe => self.op_unsubscribe(req),
        }
    }

    fn op_eval_calc(&self, req: &Request) -> Response {
        // Checked: analyze first, refuse with the findings on any error,
        // then run under the strongest applicable semantics. Both the
        // refusal and the successful run carry the analysis — the
        // certificate travels with the rows.
        let mut checked_analysis = None;
        let safe = match req.mode {
            Mode::Fast => false,
            Mode::Safe => true,
            Mode::Checked => {
                let analysis = {
                    let mut store = self.write_store();
                    let schema = store.instance().schema().clone();
                    no_analysis::analyze_calc(&schema, &req.text, store.universe_mut())
                };
                let out = analysis_out(&analysis, &req.text);
                if analysis.has_errors() {
                    let err: Error = no_analysis::DiagnosticsError::new(&analysis).into();
                    let mut resp = error_response(&err);
                    resp.analysis = Some(out);
                    return resp;
                }
                let safe = analysis.is_rr_safe();
                checked_analysis = Some(out);
                safe
            }
        };
        let query = {
            let mut store = self.write_store();
            match no_core::parse_query(&req.text, store.universe_mut()) {
                Ok(q) => q,
                Err(e) => return Response::error("parse", e.render(&req.text)),
            }
        };
        let store = self.read_store();
        let instance = store.instance();
        let (gov, pool) = (&self.governor, &self.pool);
        let result = match (safe, req.planned) {
            (false, false) => {
                no_core::eval_pooled(&query, instance, gov, pool).map_err(Error::from)
            }
            (true, false) => {
                no_core::ranges::safe_eval_pooled(instance, &query, gov, pool).map_err(Error::from)
            }
            (safe, true) => {
                let mode = if safe {
                    CalcMode::Safe
                } else {
                    CalcMode::ActiveDomain
                };
                self.plan_calc(instance, &query, mode)
                    .and_then(|p| Ok(p.execute(instance, gov, pool)?.into_relation()))
            }
        };
        match result {
            Ok(rel) => Response {
                ok: true,
                relations: vec![relation_out(store.universe(), "result", &rel)],
                analysis: checked_analysis,
                ..Response::default()
            },
            Err(e) => error_response(&e),
        }
    }

    fn op_eval_datalog(&self, req: &Request) -> Response {
        if req.mode == Mode::Checked {
            let analysis = {
                let mut store = self.write_store();
                let schema = store.instance().schema().clone();
                no_analysis::analyze_datalog(&schema, &req.text, store.universe_mut())
            };
            if analysis.has_errors() {
                let err: Error = no_analysis::DiagnosticsError::new(&analysis).into();
                let mut resp = error_response(&err);
                resp.analysis = Some(analysis_out(&analysis, &req.text));
                return resp;
            }
        }
        let program = {
            let mut store = self.write_store();
            match no_datalog::parse_program(&req.text, store.universe_mut()) {
                Ok(p) => p,
                Err(e) => return Response::error("parse", e.render(&req.text)),
            }
        };
        let store = self.read_store();
        let instance = store.instance();
        let (gov, pool) = (&self.governor, &self.pool);
        let result = if req.planned {
            let mode = datalog_mode(req.strategy, &program, instance.schema());
            self.plan_datalog(instance, &program, mode).and_then(|p| {
                match p.execute(instance, gov, pool)? {
                    no_plan::Output::Idb(idb, stats) => Ok((idb, stats.map(|s| s.rounds as u64))),
                    no_plan::Output::Relation(_) => unreachable!("datalog plans return an IDB"),
                }
            })
        } else {
            match req.strategy {
                no_proto::Strategy::Naive | no_proto::Strategy::SemiNaive => {
                    let strategy = if req.strategy == no_proto::Strategy::Naive {
                        Strategy::Naive
                    } else {
                        Strategy::SemiNaive
                    };
                    no_datalog::eval_pooled(&program, instance, strategy, gov, pool)
                        .map(|(idb, stats)| (idb, Some(stats.rounds as u64)))
                        .map_err(Error::from)
                }
                no_proto::Strategy::Stratified => {
                    no_datalog::eval_stratified_pooled(&program, instance, gov, pool)
                        .map(|idb| (idb, None))
                        .map_err(Error::from)
                }
                no_proto::Strategy::Simultaneous => {
                    let typed = infer_body_var_types(&program, instance.schema());
                    let borrowed: Vec<(&str, Type)> =
                        typed.iter().map(|(v, t)| (v.as_str(), t.clone())).collect();
                    let order = no_object::AtomOrder::new(instance.atoms().into_iter().collect());
                    no_datalog::eval_simultaneous_pooled(
                        &program, &borrowed, instance, order, gov, pool,
                    )
                    .map(|idb| (idb, None))
                    .map_err(Error::from)
                }
            }
        };
        let (idb, rounds) = match result {
            Ok(out) => out,
            Err(e) => return error_response(&e),
        };
        Response {
            ok: true,
            relations: idb
                .iter()
                .map(|(name, rel)| relation_out(store.universe(), name, rel))
                .collect(),
            rounds,
            ..Response::default()
        }
    }

    fn op_eval_algebra(&self, req: &Request) -> Response {
        let expr = {
            let mut store = self.write_store();
            match no_algebra::parse_expr(&req.text, store.universe_mut()) {
                Ok(e) => e,
                Err(e) => return Response::error("parse", e.to_string()),
            }
        };
        let store = self.read_store();
        let instance = store.instance();
        let (gov, pool) = (&self.governor, &self.pool);
        let result = if req.planned {
            self.plan_algebra(instance, &expr)
                .and_then(|p| Ok(p.execute(instance, gov, pool)?.into_relation()))
        } else {
            no_algebra::eval_pooled(&expr, instance, gov, pool).map_err(Error::from)
        };
        match result {
            Ok(rel) => Response {
                ok: true,
                relations: vec![relation_out(store.universe(), "result", &rel)],
                ..Response::default()
            },
            Err(e) => error_response(&e),
        }
    }

    fn op_analyze(&self, req: &Request) -> Response {
        let analysis = {
            let mut store = self.write_store();
            let schema = store.instance().schema().clone();
            match req.lang {
                Lang::Calc => no_analysis::analyze_calc(&schema, &req.text, store.universe_mut()),
                Lang::Datalog => {
                    no_analysis::analyze_datalog(&schema, &req.text, store.universe_mut())
                }
                Lang::Algebra => {
                    return Response::error(
                        "unsupported",
                        "the algebra has no static analyzer; analyze calc or datalog text",
                    )
                }
            }
        };
        Response {
            ok: true,
            analysis: Some(analysis_out(&analysis, &req.text)),
            ..Response::default()
        }
    }

    fn op_explain(&self, req: &Request) -> Response {
        let planned: Result<Arc<Planned>, Response> = match req.lang {
            Lang::Calc => {
                let query = {
                    let mut store = self.write_store();
                    match no_core::parse_query(&req.text, store.universe_mut()) {
                        Ok(q) => q,
                        Err(e) => return Response::error("parse", e.render(&req.text)),
                    }
                };
                let mode = if req.mode == Mode::Fast {
                    CalcMode::ActiveDomain
                } else {
                    CalcMode::Safe
                };
                let store = self.read_store();
                self.plan_calc(store.instance(), &query, mode)
                    .map_err(|e| error_response(&e))
            }
            Lang::Algebra => {
                let expr = {
                    let mut store = self.write_store();
                    match no_algebra::parse_expr(&req.text, store.universe_mut()) {
                        Ok(e) => e,
                        Err(e) => return Response::error("parse", e.to_string()),
                    }
                };
                let store = self.read_store();
                self.plan_algebra(store.instance(), &expr)
                    .map_err(|e| error_response(&e))
            }
            Lang::Datalog => {
                let program = {
                    let mut store = self.write_store();
                    match no_datalog::parse_program(&req.text, store.universe_mut()) {
                        Ok(p) => p,
                        Err(e) => return Response::error("parse", e.render(&req.text)),
                    }
                };
                let store = self.read_store();
                let mode = datalog_mode(req.strategy, &program, store.instance().schema());
                self.plan_datalog(store.instance(), &program, mode)
                    .map_err(|e| error_response(&e))
            }
        };
        match planned {
            Ok(p) => Response {
                ok: true,
                explain: Some(ExplainOut {
                    text: p.render_text(),
                    json: p.render_json(),
                }),
                ..Response::default()
            },
            Err(resp) => resp,
        }
    }

    fn op_insert(&self, req: &Request) -> Response {
        if req.text.trim().is_empty() {
            return Response::error(
                "protocol",
                "insert needs a clause like schema G(U, U). or G('a', 'b').",
            );
        }
        let mut store = self.write_store();
        let clause = match parse_clause(&req.text, store.universe_mut()) {
            Ok(c) => c,
            Err(e) => return Response::error("parse", e.to_string()),
        };
        // with views live, route the mutation through maintenance first —
        // the engine needs the pre-delta instance
        let mut view_deltas = BTreeMap::new();
        if !store.views().is_empty() {
            let mut delta = BaseDelta::new();
            match &clause {
                Clause::Fact(name, row) => {
                    if let Err(m) = validate_mutation(store.instance(), name, row) {
                        return Response::error("storage", m);
                    }
                    delta.insert(name, row.clone());
                }
                Clause::Retract(name, row) => {
                    if let Err(m) = validate_mutation(store.instance(), name, row) {
                        return Response::error("storage", m);
                    }
                    delta.delete(name, row.clone());
                }
                // a fresh relation is empty: no view can read it yet
                Clause::Schema(_) => {}
            }
            if !delta.is_empty() {
                match store.maintain_views(&delta, &self.governor) {
                    Ok(d) => view_deltas = d,
                    Err(e) => return ivm_error_response(&e),
                }
            }
        }
        match store.apply_clause(clause) {
            Ok(msg) => {
                let mut resp = Response::message(msg);
                resp.deltas = delta_outs(store.universe(), &view_deltas);
                resp
            }
            Err(msg) => {
                if !view_deltas.is_empty() {
                    // views ran ahead of a failed apply; fall back to a
                    // recomputation so they match whatever is live
                    let _ = store.recompute_views(&self.governor);
                }
                Response::error("storage", msg)
            }
        }
    }

    fn op_materialize(&self, req: &Request) -> Response {
        let name = req.view.trim();
        if name.is_empty() {
            return Response::error("protocol", "materialize needs a view name in `view`");
        }
        if req.text.trim().is_empty() {
            return Response::error(
                "protocol",
                "materialize needs the view's datalog source in `text`",
            );
        }
        let mut store = self.write_store();
        if let Err(e) = store.materialize_view(name, &req.text, &self.governor) {
            return ivm_error_response(&e);
        }
        let view = store.views().get(name).expect("just materialized");
        let relations = view
            .relations()
            .map(|(rel, rows)| relation_out(store.universe(), rel, rows))
            .collect();
        let notes = view.strategy_notes().join("; ");
        Response {
            ok: true,
            relations,
            message: Some(format!("materialized view {name} ({notes})")),
            ..Response::default()
        }
    }

    fn op_update(&self, req: &Request) -> Response {
        let mut store = self.write_store();
        let mut clauses = Vec::new();
        {
            let universe = store.universe_mut();
            for line in req.text.lines() {
                let line = line.trim();
                if line.is_empty() {
                    continue;
                }
                match parse_clause(line, universe) {
                    Ok(c) => clauses.push(c),
                    Err(e) => return Response::error("parse", format!("{line:?}: {e}")),
                }
            }
        }
        if clauses.is_empty() {
            return Response::error(
                "protocol",
                "update needs fact or delete clauses, one per line of `text`",
            );
        }
        // validate everything up front so maintenance never runs ahead of
        // a mutation the store would refuse
        let mut delta = BaseDelta::new();
        for c in &clauses {
            match c {
                Clause::Schema(_) => {
                    return Response::error(
                        "protocol",
                        "update takes fact/delete clauses; declare schema through op: insert",
                    )
                }
                Clause::Fact(name, row) => {
                    if let Err(m) = validate_mutation(store.instance(), name, row) {
                        return Response::error("storage", m);
                    }
                    delta.insert(name, row.clone());
                }
                Clause::Retract(name, row) => {
                    if let Err(m) = validate_mutation(store.instance(), name, row) {
                        return Response::error("storage", m);
                    }
                    delta.delete(name, row.clone());
                }
            }
        }
        let view_deltas = match store.maintain_views(&delta, &self.governor) {
            Ok(d) => d,
            Err(e) => return ivm_error_response(&e),
        };
        let mut applied = 0usize;
        for c in clauses {
            match store.apply_clause(c) {
                Ok(_) => applied += 1,
                Err(m) => {
                    // views were maintained for the whole batch; resync
                    // them with what actually landed
                    let _ = store.recompute_views(&self.governor);
                    return Response::error("storage", format!("after {applied} clauses: {m}"));
                }
            }
        }
        let mut resp = Response::message(format!(
            "applied {applied} mutations; {} views maintained",
            store.views().len()
        ));
        resp.deltas = delta_outs(store.universe(), &view_deltas);
        resp
    }

    fn op_subscribe(&self, req: &Request) -> Response {
        let name = req.view.trim();
        if name.is_empty() {
            return Response::error("protocol", "subscribe needs a view name in `view`");
        }
        // the session only validates; the connection-scoped fan-out state
        // lives in the server front
        if self.read_store().views().get(name).is_none() {
            return ivm_error_response(&IvmError::UnknownView(name.to_string()));
        }
        Response::message(format!("subscribed to view {name}"))
    }

    fn op_unsubscribe(&self, req: &Request) -> Response {
        let name = req.view.trim();
        if name.is_empty() {
            return Response::error("protocol", "unsubscribe needs a view name in `view`");
        }
        Response::message(format!("unsubscribed from view {name}"))
    }

    fn op_save(&self, req: &Request) -> Response {
        let path = req.text.trim();
        if path.is_empty() {
            let mut store = self.write_store();
            let saved = match store.db_mut() {
                None => {
                    return Response::error(
                        "storage",
                        "no durable database attached (open a directory first)",
                    )
                }
                Some(db) => db
                    .save()
                    .map(|()| (db.dir().display().to_string(), db.epoch())),
            };
            match saved {
                Ok((dir, epoch)) => {
                    // stamp the maintained views at the fresh epoch so the
                    // next open replays an empty tail over them
                    if let Err(e) = store.save_views_checkpoint() {
                        return error_response(&Error::Storage(e));
                    }
                    let views = store.views().len();
                    Response::message(if views > 0 {
                        format!(
                            "checkpointed {dir} at epoch {epoch} (write-ahead log reset; {views} views checkpointed)"
                        )
                    } else {
                        format!("checkpointed {dir} at epoch {epoch} (write-ahead log reset)")
                    })
                }
                Err(e) => error_response(&Error::Storage(e)),
            }
        } else {
            let store = self.read_store();
            let text = render_database(store.universe(), store.instance());
            match std::fs::write(path, &text) {
                Ok(()) => Response::message(format!(
                    "saved {} tuples to {path}",
                    store.instance().cardinality()
                )),
                Err(e) => Response::error("storage", format!("cannot write {path}: {e}")),
            }
        }
    }

    fn op_open(&self, req: &Request) -> Response {
        let dir = req.text.trim();
        if dir.is_empty() {
            return Response::error("protocol", "open needs a database directory");
        }
        let options = DbOptions {
            sync: self.sync_policy,
            governor: Some(self.governor.clone()),
            faults: no_storage::IoFaults::none(),
        };
        let mut db = match Db::open(Path::new(dir), options) {
            Ok(db) => db,
            Err(e) => return error_response(&Error::Storage(e)),
        };
        let stats = db.open_stats().clone();
        let inst = db.instance();
        let mut msg = if stats.created {
            format!("created durable database at {dir}")
        } else {
            format!(
                "opened {dir}: {} relations, {} tuples, {} atoms (snapshot epoch {}, {} frames replayed)",
                inst.schema().len(),
                inst.cardinality(),
                db.universe().len(),
                stats.snapshot_epoch,
                stats.replayed_frames,
            )
        };
        if stats.truncated_bytes > 0 {
            msg.push_str(&format!(
                "\nrecovered: {} bytes of torn write-ahead-log tail truncated",
                stats.truncated_bytes
            ));
        }
        if stats.stale_wal_discarded {
            msg.push_str("\nrecovered: stale write-ahead log discarded (already in snapshot)");
        }
        let registry = self.restore_views(&mut db, &mut msg);
        let mut store = self.write_store();
        store.attach(db);
        *store.views_mut() = registry;
        Response::message(msg)
    }

    /// Restore maintained views on open: decode the view checkpoint (if
    /// one is current for this epoch) and replay the write-ahead-log tail
    /// it had not yet seen as one maintenance delta. Failures never block
    /// the open — they degrade to "re-materialize by hand" with a note.
    fn restore_views(&self, db: &mut Db, msg: &mut String) -> ViewRegistry {
        let ck = match db.load_views() {
            Ok(Some(ck)) => ck,
            Ok(None) => return ViewRegistry::new(),
            Err(e) => {
                msg.push_str(&format!(
                    "\nview checkpoint corrupt ({e}); views must be re-materialized"
                ));
                return ViewRegistry::new();
            }
        };
        let schema = db.instance().schema().clone();
        let mut reg = match decode_registry(&ck.body, db.universe_mut(), &schema) {
            Ok(reg) => reg,
            Err(e) => {
                msg.push_str(&format!(
                    "\nview checkpoint unreadable ({e}); views must be re-materialized"
                ));
                return ViewRegistry::new();
            }
        };
        // the net change between the checkpoint's WAL position and now
        let mut delta = BaseDelta::new();
        let mut replayed = 0usize;
        for clause in db.epoch_clauses().skip(ck.frames as usize) {
            replayed += 1;
            match clause {
                Clause::Fact(name, row) => delta.insert(name, row.clone()),
                Clause::Retract(name, row) => delta.delete(name, row.clone()),
                // relations declared after the checkpoint are empty then
                // and unreadable by any checkpointed view
                Clause::Schema(_) => {}
            }
        }
        // maintenance needs the pre-delta instance; recovery already
        // replayed the whole log, so un-apply the net tail first
        let mut pre = db.instance().clone();
        for (rel, rows) in &delta.add {
            for row in rows.iter() {
                pre.delete(rel, row);
            }
        }
        for (rel, rows) in &delta.del {
            for row in rows.iter() {
                pre.insert(rel, row.clone());
            }
        }
        match reg.maintain(&pre, &delta, &self.governor) {
            Ok(_) => {
                msg.push_str(&format!(
                    "\nviews restored: {} from checkpoint, {replayed} log clauses replayed",
                    reg.len()
                ));
                reg
            }
            Err(e) => {
                msg.push_str(&format!(
                    "\nview replay failed ({e}); views must be re-materialized"
                ));
                ViewRegistry::new()
            }
        }
    }

    fn op_stats(&self) -> Response {
        let (cache_hits, cache_misses) = self.plan_cache_stats();
        let views = {
            let store = self.read_store();
            let reg = store.views();
            reg.names()
                .filter_map(|name| reg.get(name).map(|v| (name.to_string(), v.stats())))
                .map(|(view, s)| ViewStatsOut {
                    view,
                    maintain_calls: s.maintain_calls,
                    steps_total: s.steps_total,
                    steps_last: s.steps_last,
                })
                .collect()
        };
        Response {
            ok: true,
            stats: Some(StatsOut {
                cache_hits,
                cache_misses,
                views,
                ..StatsOut::default()
            }),
            ..Response::default()
        }
    }

    // ----- durable storage --------------------------------------------

    /// Open (creating if absent) the durable database at `dir`, running
    /// full crash recovery: load the latest valid snapshot, replay the
    /// write-ahead log, truncate a torn tail, refuse on mid-log
    /// corruption. The session's governor is charged for the replayed
    /// arenas, so recovering a huge store trips the same memory budget as
    /// building it any other way; the session's
    /// [`SessionBuilder::sync_policy`] decides mutation durability.
    pub fn open(&self, dir: &Path) -> Result<Db, Error> {
        let options = DbOptions {
            sync: self.sync_policy,
            governor: Some(self.governor.clone()),
            faults: no_storage::IoFaults::none(),
        };
        Db::open(dir, options).map_err(Error::from)
    }

    /// Checkpoint `db`: fold the write-ahead log into a fresh snapshot
    /// (published with an atomic rename) and reset the log.
    pub fn save(&self, db: &mut Db) -> Result<(), Error> {
        db.save().map_err(Error::from)
    }

    /// Make every mutation of `db` so far durable (meaningful under
    /// [`SyncPolicy::Manual`]; a no-op-cost fsync under
    /// [`SyncPolicy::Always`]).
    pub fn sync(&self, db: &mut Db) -> Result<(), Error> {
        db.sync().map_err(Error::from)
    }

    // ----- compile-to-plan entry points -------------------------------

    /// Compile (or fetch from the plan cache) under the session's pass
    /// set: stats come from the instance, limits from the governor.
    fn cached<F>(&self, key: CacheKey, build: F) -> Result<Arc<Planned>, Error>
    where
        F: FnOnce() -> Result<Planned, no_plan::PlanError>,
    {
        if let Some(p) = self.plans.lock().unwrap().get(&key) {
            return Ok(p);
        }
        let planned = Arc::new(build()?);
        self.plans.lock().unwrap().put(key, Arc::clone(&planned));
        Ok(planned)
    }

    fn planner<'s>(&self, instance: &'s Instance) -> Planner<'s> {
        Planner::new(instance.schema())
            .with_instance(instance)
            .with_limits(self.governor.limits().clone())
    }

    /// Plan a CALC query (cached), under either semantics.
    pub fn plan_calc(
        &self,
        instance: &Instance,
        query: &Query,
        mode: CalcMode,
    ) -> Result<Arc<Planned>, Error> {
        let key = no_plan::calc_key(instance.schema(), query, mode);
        self.cached(key, || self.planner(instance).plan_calc(query, mode))
    }

    /// Plan an algebra expression (cached).
    pub fn plan_algebra(&self, instance: &Instance, expr: &Expr) -> Result<Arc<Planned>, Error> {
        let key = no_plan::algebra_key(instance.schema(), expr);
        self.cached(key, || self.planner(instance).plan_algebra(expr))
    }

    /// Plan a Datalog¬ program (cached) under a named strategy.
    pub fn plan_datalog(
        &self,
        instance: &Instance,
        program: &Program,
        mode: DatalogMode,
    ) -> Result<Arc<Planned>, Error> {
        let label = match &mode {
            DatalogMode::Naive => "naive",
            DatalogMode::SemiNaive => "semi-naive",
            DatalogMode::Stratified => "stratified",
            DatalogMode::Simultaneous(_) => "simultaneous-ifp",
        };
        let key = no_plan::datalog_key(instance.schema(), program, label);
        self.cached(key, || self.planner(instance).plan_datalog(program, mode))
    }

    /// `(hits, misses)` of the session's plan cache.
    pub fn plan_cache_stats(&self) -> (u64, u64) {
        self.plans.lock().unwrap().stats()
    }

    /// Drop every cached plan (call after schema or bulk data changes when
    /// stale statistics would mis-order new plans; correctness never
    /// depends on this).
    pub fn clear_plan_cache(&self) {
        self.plans.lock().unwrap().clear()
    }
}

// ---------------------------------------------------------------------------
// Response assembly helpers
// ---------------------------------------------------------------------------

/// Overlay a wire-level [`LimitsSpec`] onto base limits. `deadline_ms: 0`
/// clears the deadline (matches the shell's `:deadline 0`).
fn overlay(base: &Limits, spec: &LimitsSpec) -> Limits {
    Limits {
        max_steps: spec.max_steps.unwrap_or(base.max_steps),
        max_range: spec.max_range.unwrap_or(base.max_range),
        max_fixpoint_iters: spec.max_fixpoint_iters.unwrap_or(base.max_fixpoint_iters),
        max_memory_bytes: spec.max_memory_bytes.unwrap_or(base.max_memory_bytes),
        deadline: match spec.deadline_ms {
            Some(0) => None,
            Some(ms) => Some(Duration::from_millis(ms)),
            None => base.deadline,
        },
    }
}

fn error_response(e: &Error) -> Response {
    let trip = e.is_resource_trip();
    let kind = if trip {
        "resource"
    } else {
        match e {
            Error::Diagnostics(_) => "diagnostics",
            Error::Storage(_) => "storage",
            _ => "eval",
        }
    };
    let mut resp = Response::error(kind, e.to_string());
    if let Some(err) = resp.error.as_mut() {
        err.resource_trip = trip;
    }
    resp
}

fn ivm_error_response(e: &IvmError) -> Response {
    let (kind, trip) = match e {
        IvmError::Parse(_) => ("parse", false),
        IvmError::Plan(_) => ("eval", false),
        IvmError::Resource(_) => ("resource", true),
        IvmError::UnknownView(_) => ("protocol", false),
        IvmError::Checkpoint(_) => ("storage", false),
    };
    let mut resp = Response::error(kind, e.to_string());
    if let Some(err) = resp.error.as_mut() {
        err.resource_trip = trip;
    }
    resp
}

/// Check a fact/delete mutation against the schema without applying it,
/// so a batch can be validated up front and applied all-or-nothing.
fn validate_mutation(instance: &Instance, name: &str, row: &[Value]) -> Result<(), String> {
    let rel = match instance.schema().get(name) {
        Some(r) => r,
        None => return Err(format!("unknown relation {name:?}")),
    };
    if rel.arity() != row.len() {
        return Err(format!(
            "relation {name:?} has arity {} but the tuple has {} values",
            rel.arity(),
            row.len()
        ));
    }
    for (v, t) in row.iter().zip(rel.column_types.iter()) {
        if !v.has_type(t) {
            return Err(format!("value is not of type {t} in relation {name:?}"));
        }
    }
    Ok(())
}

/// Render per-view maintenance deltas for the wire, skipping views the
/// mutation did not touch.
fn delta_outs(universe: &Universe, deltas: &BTreeMap<String, ViewDelta>) -> Vec<DeltaOut> {
    deltas
        .iter()
        .filter(|(_, d)| !d.is_empty())
        .map(|(view, d)| DeltaOut {
            view: view.clone(),
            added: d
                .add
                .iter()
                .filter(|(_, rows)| !rows.is_empty())
                .map(|(rel, rows)| relation_out(universe, rel, rows))
                .collect(),
            removed: d
                .del
                .iter()
                .filter(|(_, rows)| !rows.is_empty())
                .map(|(rel, rows)| relation_out(universe, rel, rows))
                .collect(),
        })
        .collect()
}

fn analysis_out(analysis: &no_analysis::Analysis, src: &str) -> AnalysisOut {
    let errors = analysis
        .diagnostics
        .iter()
        .filter(|d| d.severity == no_analysis::Severity::Error)
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
        // Canonical set order is the element order SetValue maintains.
        Value::Set(s) => Json::Arr(s.iter().map(|v| value_json(universe, v)).collect()),
    }
}

fn relation_out(universe: &Universe, name: &str, rel: &Relation) -> RelationOut {
    let printer = Printer::with_universe(universe);
    let sorted = rel.sorted_rows();
    let rows: Vec<String> = sorted
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

/// The plan mode a wire strategy names; simultaneous IFP infers its
/// body-variable types from the program.
fn datalog_mode(strategy: no_proto::Strategy, program: &Program, schema: &Schema) -> DatalogMode {
    match strategy {
        no_proto::Strategy::Naive => DatalogMode::Naive,
        no_proto::Strategy::SemiNaive => DatalogMode::SemiNaive,
        no_proto::Strategy::Stratified => DatalogMode::Stratified,
        no_proto::Strategy::Simultaneous => {
            DatalogMode::Simultaneous(infer_body_var_types(program, schema))
        }
    }
}

/// Infer the `body_var_types` argument of the simultaneous-IFP translation
/// from the program itself: every variable that occurs in some rule body
/// but not in that rule's head, typed by the column it occurs at (IDB
/// declarations first, then the EDB schema). First occurrence wins on the
/// rare cross-rule name collision.
fn infer_body_var_types(program: &Program, schema: &Schema) -> Vec<(String, Type)> {
    let mut out: BTreeMap<String, Type> = BTreeMap::new();
    for rule in &program.rules {
        let head_vars: BTreeSet<&str> = rule
            .head_args
            .iter()
            .filter_map(|t| match t {
                no_datalog::DTerm::Var(v) => Some(v.as_str()),
                no_datalog::DTerm::Const(_) => None,
            })
            .collect();
        for lit in &rule.body {
            let (rel, terms) = match lit {
                no_datalog::Literal::Pos(rel, terms) | no_datalog::Literal::Neg(rel, terms) => {
                    (rel, terms)
                }
                _ => continue,
            };
            let cols: Option<Vec<Type>> = program
                .idb
                .get(rel)
                .cloned()
                .or_else(|| schema.get(rel).map(|r| r.column_types.clone()));
            let Some(cols) = cols else { continue };
            for (term, ty) in terms.iter().zip(cols) {
                if let no_datalog::DTerm::Var(v) = term {
                    if !head_vars.contains(v.as_str()) {
                        out.entry(v.clone()).or_insert(ty);
                    }
                }
            }
        }
    }
    out.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use no_datalog::{DTerm, Literal};
    use no_object::{RelationSchema, Schema, Universe, Value};

    fn graph(edges: &[(&str, &str)]) -> (Universe, Instance) {
        let mut u = Universe::new();
        let schema =
            Schema::from_relations([RelationSchema::new("G", vec![Type::Atom, Type::Atom])]);
        let mut i = Instance::empty(schema);
        for (a, b) in edges {
            let (a, b) = (u.intern(a), u.intern(b));
            i.insert("G", vec![Value::Atom(a), Value::Atom(b)]);
        }
        (u, i)
    }

    fn graph_session(edges: &[(&str, &str)]) -> Session {
        graph_session_with(edges, Session::builder())
    }

    fn tc_program() -> Program {
        let mut p = Program::new();
        p.declare("tc", vec![Type::Atom, Type::Atom]);
        p.rule(
            "tc",
            vec![DTerm::var("x"), DTerm::var("y")],
            vec![Literal::Pos(
                "G".into(),
                vec![DTerm::var("x"), DTerm::var("y")],
            )],
        );
        p.rule(
            "tc",
            vec![DTerm::var("x"), DTerm::var("y")],
            vec![
                Literal::Pos("tc".into(), vec![DTerm::var("x"), DTerm::var("z")]),
                Literal::Pos("G".into(), vec![DTerm::var("z"), DTerm::var("y")]),
            ],
        );
        p
    }

    const TC_SRC: &str = "rel tc(U, U).\ntc(x, y) :- G(x, y).\ntc(x, y) :- tc(x, z), G(z, y).";

    /// A store over `edges` shared by sessions built from `builder`.
    fn graph_session_with(edges: &[(&str, &str)], builder: SessionBuilder) -> Session {
        let (u, i) = graph(edges);
        builder
            .store(Arc::new(RwLock::new(Store::with_data(u, i))))
            .build()
    }

    fn datalog(strategy: no_proto::Strategy) -> Request {
        Request {
            lang: Lang::Datalog,
            strategy,
            text: TC_SRC.into(),
            ..Request::default()
        }
    }

    fn calc(mode: Mode) -> Request {
        Request {
            mode,
            text: "{[x:U, y:U] | G(x, y)}".into(),
            ..Request::default()
        }
    }

    fn rows_of(r: &Response, name: &str) -> usize {
        assert!(r.ok, "{:?}", r.error);
        r.relations
            .iter()
            .find(|r| r.name == name)
            .unwrap()
            .rows
            .len()
    }

    #[test]
    fn session_runs_every_engine() {
        for threads in [1, 4] {
            let s = graph_session_with(
                &[("a", "b"), ("b", "c")],
                Session::builder().parallelism(threads),
            );
            assert_eq!(s.parallelism(), threads);
            assert_eq!(rows_of(&s.run(&calc(Mode::Fast)), "result"), 2);
            assert_eq!(rows_of(&s.run(&calc(Mode::Safe)), "result"), 2);
            for strategy in [
                no_proto::Strategy::SemiNaive,
                no_proto::Strategy::Stratified,
                no_proto::Strategy::Simultaneous,
            ] {
                assert_eq!(rows_of(&s.run(&datalog(strategy)), "tc"), 3);
            }
            let e = Request::eval(Lang::Algebra, "select[eq(1, 1)](G)");
            assert_eq!(rows_of(&s.run(&e), "result"), 2);
        }
    }

    #[test]
    fn session_shares_one_budget_across_engines() {
        let s = graph_session_with(
            &[("a", "b"), ("b", "c"), ("c", "d")],
            Session::builder().limits(Limits {
                max_steps: 60,
                ..Limits::unlimited()
            }),
        );
        let tc = datalog(no_proto::Strategy::SemiNaive);
        // datalog spends most of the fuel…
        let first = s.run(&tc);
        // …so by some point an evaluation trips, and the trip is
        // recognisable without matching engine-specific variants
        let mut tripped = !first.ok;
        for _ in 0..20 {
            if tripped {
                break;
            }
            tripped = !s.run(&Request::eval(Lang::Algebra, "(G x G)")).ok;
        }
        assert!(tripped, "shared budget never tripped");
        let r = s.run(&tc);
        assert!(r.error.as_ref().unwrap().resource_trip, "{:?}", r.error);
    }

    #[test]
    fn analyze_is_pure_and_spends_no_fuel() {
        // zero fuel: any evaluation attempt would trip immediately
        let s = graph_session_with(
            &[("a", "b")],
            Session::builder()
                .limits(Limits {
                    max_steps: 0,
                    ..Limits::unlimited()
                })
                .parallelism(4),
        );
        for (lang, text) in [
            (Lang::Calc, "{[x:U, y:U] | G(x, y)}"),
            (Lang::Datalog, "rel tc(U, U).\ntc(x, y) :- G(x, y)."),
        ] {
            let r = s.run(&Request {
                op: Op::Analyze,
                lang,
                text: text.into(),
                ..Request::default()
            });
            assert!(r.ok, "{:?}", r.error);
            let a = r.analysis.as_ref().unwrap();
            assert_eq!(a.errors, 0, "{}", a.text);
            assert!(a.json.contains("\"range_restricted\": true"), "{}", a.json);
        }
        assert_eq!(s.governor().steps_spent(), 0, "analysis must not evaluate");
    }

    #[test]
    fn checked_eval_refuses_on_errors_and_runs_when_clean() {
        let s = graph_session(&[("a", "b"), ("b", "c")]);
        assert_eq!(rows_of(&s.run(&calc(Mode::Checked)), "result"), 2);
        let r = s.run(&Request {
            mode: Mode::Checked,
            text: "{[x:U] | H(x)}".into(),
            ..Request::default()
        });
        let e = r.error.as_ref().unwrap();
        assert_eq!(e.kind, "diagnostics");
        assert!(!e.resource_trip);
        let code = no_analysis::codes::TY_UNKNOWN_RELATION;
        assert!(r.analysis.as_ref().unwrap().text.contains(code));
    }

    #[test]
    fn session_opens_and_recovers_durable_databases() {
        let dir = std::env::temp_dir().join(format!("nestdb_session_db_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let s = Session::default();
        let mut db = s.open(&dir).unwrap();
        assert!(db.open_stats().created);
        db.import_text("schema G(U, U).\nG('a', 'b').\nG('b', 'c').\n")
            .unwrap();
        s.save(&mut db).unwrap();
        drop(db);

        // Replay through a session with a tiny memory budget must trip —
        // recovery is charged like any other materialisation.
        let tight = Session::builder()
            .limits(Limits {
                max_memory_bytes: 4,
                ..Limits::unlimited()
            })
            .build();
        let err = tight.open(&dir).unwrap_err();
        assert!(err.is_resource_trip(), "{err}");

        // A roomy session recovers the data and queries it directly.
        let s2 = Session::builder().sync_policy(SyncPolicy::Manual).build();
        let db = s2.open(&dir).unwrap();
        assert_eq!(db.epoch(), 1);
        s2.store().write().unwrap().attach(db);
        assert_eq!(rows_of(&s2.run(&calc(Mode::Fast)), "result"), 2);
        let mut db = s2.store().write().unwrap().detach().unwrap();
        s2.sync(&mut db).unwrap();
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cancellation_reaches_every_engine() {
        let g = Governor::default();
        let s = graph_session_with(&[("a", "b")], Session::builder().governor(g.clone()));
        g.cancel();
        for req in [
            calc(Mode::Fast),
            datalog(no_proto::Strategy::Naive),
            Request::eval(Lang::Algebra, "G"),
        ] {
            let r = s.run(&req);
            assert!(r.error.as_ref().unwrap().resource_trip, "{:?}", r.error);
        }
    }

    // ----- Session::run ------------------------------------------------

    #[test]
    fn run_evaluates_calc_in_every_mode() {
        let s = graph_session(&[("a", "b"), ("b", "c")]);
        for mode in [Mode::Fast, Mode::Safe, Mode::Checked] {
            for planned in [false, true] {
                let r = s.run(&Request {
                    mode,
                    planned,
                    text: "{[x:U, y:U] | G(x, y)}".into(),
                    ..Request::default()
                });
                assert!(r.ok, "{mode:?}/{planned}: {:?}", r.error);
                assert_eq!(r.relations.len(), 1);
                assert_eq!(r.relations[0].name, "result");
                assert_eq!(
                    r.relations[0].rows,
                    vec!["('a', 'b')".to_string(), "('b', 'c')".to_string()]
                );
                assert_eq!(r.relations[0].rows_json, r#"[["a","b"],["b","c"]]"#);
                assert!(r.spend.is_some());
            }
        }
    }

    #[test]
    fn run_evaluates_datalog_under_every_strategy() {
        let s = graph_session(&[("a", "b"), ("b", "c")]);
        for strategy in [
            no_proto::Strategy::Naive,
            no_proto::Strategy::SemiNaive,
            no_proto::Strategy::Stratified,
            no_proto::Strategy::Simultaneous,
        ] {
            for planned in [false, true] {
                let r = s.run(&Request {
                    lang: Lang::Datalog,
                    strategy,
                    planned,
                    text: TC_SRC.into(),
                    ..Request::default()
                });
                assert!(r.ok, "{strategy:?}/{planned}: {:?}", r.error);
                let tc = r.relations.iter().find(|r| r.name == "tc").unwrap();
                assert_eq!(tc.rows.len(), 3, "{strategy:?}");
                if matches!(
                    strategy,
                    no_proto::Strategy::Naive | no_proto::Strategy::SemiNaive
                ) {
                    assert!(r.rounds.is_some(), "{strategy:?} reports rounds");
                }
            }
        }
    }

    #[test]
    fn run_evaluates_algebra_text() {
        let s = graph_session(&[("a", "b"), ("b", "a")]);
        for planned in [false, true] {
            let r = s.run(&Request {
                lang: Lang::Algebra,
                planned,
                text: "select[eq(2, 3)]((G x G))".into(),
                ..Request::default()
            });
            assert!(r.ok, "{:?}", r.error);
            assert_eq!(r.relations[0].rows.len(), 2);
        }
    }

    #[test]
    fn run_checked_refusal_carries_diagnostics() {
        let s = graph_session(&[("a", "b")]);
        let r = s.run(&Request {
            mode: Mode::Checked,
            text: "{[x:U] | H(x)}".into(),
            ..Request::default()
        });
        assert!(!r.ok);
        let e = r.error.as_ref().unwrap();
        assert_eq!(e.kind, "diagnostics");
        assert!(!e.resource_trip);
        let a = r.analysis.as_ref().unwrap();
        assert!(a.errors >= 1);
        assert!(!a.certified);
        assert!(a.text.contains("TY001"), "{}", a.text);
    }

    #[test]
    fn run_parse_errors_are_structured() {
        let s = graph_session(&[("a", "b")]);
        for (lang, text) in [
            (Lang::Calc, "{[x:U] | G(x,, x)}"),
            (Lang::Datalog, "rel tc(U, U).\ntc(x :- G(x, y)."),
            (Lang::Algebra, "project[](G)"),
        ] {
            let r = s.run(&Request::eval(lang, text));
            assert!(!r.ok, "{lang:?}");
            assert_eq!(r.error.as_ref().unwrap().kind, "parse", "{lang:?}");
        }
    }

    #[test]
    fn run_limits_override_gets_a_fresh_allowance_per_request() {
        let s = graph_session(&[("a", "b"), ("b", "c")]);
        let tight = Request {
            text: "{[x:U, y:U] | G(x, y)}".into(),
            limits: Some(LimitsSpec {
                max_steps: Some(0),
                ..LimitsSpec::default()
            }),
            ..Request::default()
        };
        let r = s.run(&tight);
        assert!(!r.ok);
        let e = r.error.as_ref().unwrap();
        assert_eq!(e.kind, "resource");
        assert!(e.resource_trip);
        // The *session* allowance was untouched: the same request without
        // an override still succeeds.
        let r = s.run(&Request::eval(Lang::Calc, "{[x:U, y:U] | G(x, y)}"));
        assert!(r.ok, "{:?}", r.error);
    }

    #[test]
    fn run_analyze_and_explain() {
        let s = graph_session(&[("a", "b")]);
        let r = s.run(&Request {
            op: Op::Analyze,
            text: "{[x:U, y:U] | G(x, y)}".into(),
            ..Request::default()
        });
        assert!(r.ok);
        let a = r.analysis.as_ref().unwrap();
        assert!(a.certified);
        assert_eq!((a.errors, a.warnings), (0, 0));
        assert!(a.json.contains("\"status\": \"ok\""), "{}", a.json);

        let r = s.run(&Request {
            op: Op::Explain,
            text: "{[x:U, y:U] | G(x, y)}".into(),
            ..Request::default()
        });
        assert!(r.ok);
        let e = r.explain.as_ref().unwrap();
        assert!(e.text.contains("plan: calc (safe)"), "{}", e.text);
        assert!(e.json.contains("\"mode\""), "{}", e.json);

        let r = s.run(&Request {
            op: Op::Analyze,
            lang: Lang::Algebra,
            text: "G".into(),
            ..Request::default()
        });
        assert!(!r.ok);
        assert_eq!(r.error.as_ref().unwrap().kind, "unsupported");
    }

    #[test]
    fn run_insert_then_eval_round_trip() {
        let s = Session::default();
        for clause in ["schema G(U, U).", "G('a', 'b').", "G('b', 'c')."] {
            let r = s.run(&Request {
                op: Op::Insert,
                text: clause.into(),
                ..Request::default()
            });
            assert!(r.ok, "{clause}: {:?}", r.error);
        }
        // duplicate insert reports, does not fail
        let r = s.run(&Request {
            op: Op::Insert,
            text: "G('a', 'b').".into(),
            ..Request::default()
        });
        assert!(r.ok);
        assert!(r.message.as_ref().unwrap().contains("already"));
        // bad inserts are structured errors
        for bad in ["H('a').", "G('a').", "schema G(U)."] {
            let r = s.run(&Request {
                op: Op::Insert,
                text: bad.into(),
                ..Request::default()
            });
            assert!(!r.ok, "{bad}");
        }
        let r = s.run(&Request::eval(Lang::Calc, "{[x:U, y:U] | G(x, y)}"));
        assert_eq!(r.relations[0].rows.len(), 2);
    }

    #[test]
    fn run_open_insert_save_against_durable_store() {
        let dir = std::env::temp_dir().join(format!("nestdb_run_db_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let s = Session::default();
        let r = s.run(&Request {
            op: Op::Open,
            text: dir.display().to_string(),
            ..Request::default()
        });
        assert!(r.ok, "{:?}", r.error);
        assert!(r.message.as_ref().unwrap().contains("created"));
        for clause in ["schema G(U, U).", "G('a', 'b')."] {
            let r = s.run(&Request {
                op: Op::Insert,
                text: clause.into(),
                ..Request::default()
            });
            assert!(r.ok, "{clause}: {:?}", r.error);
            assert!(r.message.as_ref().unwrap().contains("logged"));
        }
        let r = s.run(&Request {
            op: Op::Save,
            ..Request::default()
        });
        assert!(r.ok, "{:?}", r.error);
        assert!(r.message.as_ref().unwrap().contains("epoch 1"));
        // reopen in a second session: the data survived
        let s2 = Session::default();
        let r = s2.run(&Request {
            op: Op::Open,
            text: dir.display().to_string(),
            ..Request::default()
        });
        assert!(r.ok, "{:?}", r.error);
        assert!(r
            .message
            .as_ref()
            .unwrap()
            .contains("1 relations, 1 tuples"));
        let r = s2.run(&Request::eval(Lang::Calc, "{[x:U, y:U] | G(x, y)}"));
        assert_eq!(r.relations[0].rows, vec!["('a', 'b')".to_string()]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_save_to_text_file() {
        let s = graph_session(&[("a", "b")]);
        let path = std::env::temp_dir().join(format!("nestdb_run_save_{}.no", std::process::id()));
        let r = s.run(&Request {
            op: Op::Save,
            text: path.display().to_string(),
            ..Request::default()
        });
        assert!(r.ok, "{:?}", r.error);
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("G('a', 'b')."), "{text}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn run_stats_reports_plan_cache_counters() {
        let s = graph_session(&[("a", "b")]);
        let q = Request {
            planned: true,
            text: "{[x:U, y:U] | G(x, y)}".into(),
            ..Request::default()
        };
        s.run(&q);
        s.run(&q);
        let r = s.run(&Request {
            op: Op::Stats,
            ..Request::default()
        });
        let stats = r.stats.as_ref().unwrap();
        assert!(stats.cache_hits >= 1, "second planned run hits the cache");
        assert!(stats.cache_misses >= 1);
    }

    #[test]
    fn run_responses_serialize_to_single_lines() {
        let s = graph_session(&[("a", "b")]);
        for req in [
            Request::eval(Lang::Calc, "{[x:U, y:U] | G(x, y)}"),
            Request {
                op: Op::Analyze,
                text: "{[x:U] | H(x)}".into(),
                ..Request::default()
            },
            Request {
                op: Op::Explain,
                text: "{[x:U, y:U] | G(x, y)}".into(),
                ..Request::default()
            },
            Request::eval(Lang::Calc, "{[x:U] | G(x,, x)}"),
        ] {
            let resp = s.run(&req);
            let line = resp.to_json();
            assert!(!line.contains('\n'), "{line}");
            let back = Response::from_json(&line).unwrap();
            assert_eq!(back.to_json(), line);
        }
    }

    #[test]
    fn infer_body_var_types_finds_body_only_vars() {
        let (_u, i) = graph(&[("a", "b")]);
        let typed = infer_body_var_types(&tc_program(), i.schema());
        assert_eq!(typed, vec![("z".to_string(), Type::Atom)]);
    }

    #[test]
    fn sessions_share_stores_and_plan_caches() {
        let s = graph_session(&[("a", "b")]);
        let peer = Session::builder()
            .store(s.store())
            .plan_cache(s.plan_cache_handle())
            .build();
        let q = Request {
            planned: true,
            text: "{[x:U, y:U] | G(x, y)}".into(),
            ..Request::default()
        };
        assert!(s.run(&q).ok);
        let (_, misses_before) = peer.plan_cache_stats();
        assert!(peer.run(&q).ok);
        let (hits, misses) = peer.plan_cache_stats();
        assert_eq!(misses, misses_before, "peer reused the shared plan");
        assert!(hits >= 1);
    }

    #[test]
    fn run_materialize_update_round_trip() {
        let s = graph_session(&[("a", "b"), ("b", "c")]);
        let r = s.run(&Request {
            op: Op::Materialize,
            view: "paths".into(),
            text: TC_SRC.into(),
            ..Request::default()
        });
        assert!(r.ok, "{:?}", r.error);
        assert!(r.message.as_ref().unwrap().contains("materialized"));
        let tc = r.relations.iter().find(|r| r.name == "tc").unwrap();
        assert_eq!(tc.rows.len(), 3);

        // a batch update maintains the view and reports its delta
        let r = s.run(&Request {
            op: Op::Update,
            text: "G('c', 'd').".into(),
            ..Request::default()
        });
        assert!(r.ok, "{:?}", r.error);
        assert_eq!(r.deltas.len(), 1);
        assert_eq!(r.deltas[0].view, "paths");
        let added = &r.deltas[0].added[0];
        assert_eq!(added.name, "tc");
        assert_eq!(added.rows.len(), 3, "(c,d) (b,d) (a,d)");
        assert!(r.deltas[0].removed.is_empty());

        // a single Op::Insert mutation maintains too
        let r = s.run(&Request {
            op: Op::Insert,
            text: "delete G('c', 'd').".into(),
            ..Request::default()
        });
        assert!(r.ok, "{:?}", r.error);
        assert_eq!(r.deltas[0].removed[0].rows.len(), 3);

        // stats expose per-view maintenance accounting
        let r = s.run(&Request {
            op: Op::Stats,
            ..Request::default()
        });
        let views = &r.stats.as_ref().unwrap().views;
        assert_eq!(views.len(), 1);
        assert_eq!(views[0].view, "paths");
        assert_eq!(views[0].maintain_calls, 2);
        assert!(views[0].steps_total > 0);

        // subscribe validates the view name
        let r = s.run(&Request {
            op: Op::Subscribe,
            view: "paths".into(),
            ..Request::default()
        });
        assert!(r.ok);
        let r = s.run(&Request {
            op: Op::Subscribe,
            view: "nope".into(),
            ..Request::default()
        });
        assert!(!r.ok);
        assert_eq!(r.error.as_ref().unwrap().kind, "protocol");
    }

    #[test]
    fn run_update_rejects_bad_batches_atomically() {
        let s = graph_session(&[("a", "b"), ("b", "c")]);
        assert!(
            s.run(&Request {
                op: Op::Materialize,
                view: "paths".into(),
                text: TC_SRC.into(),
                ..Request::default()
            })
            .ok
        );
        // one bad clause anywhere rejects the whole batch up front
        let r = s.run(&Request {
            op: Op::Update,
            text: "G('c', 'd').\nH('x', 'y').".into(),
            ..Request::default()
        });
        assert!(!r.ok);
        // nothing was applied, nothing was maintained
        let r = s.run(&Request::eval(Lang::Calc, "{[x:U, y:U] | G(x, y)}"));
        assert_eq!(r.relations[0].rows.len(), 2);
        let r = s.run(&Request {
            op: Op::Stats,
            ..Request::default()
        });
        assert_eq!(r.stats.as_ref().unwrap().views[0].maintain_calls, 0);
    }

    #[test]
    fn durable_views_checkpoint_and_replay_from_log_tail() {
        let dir = std::env::temp_dir().join(format!("nestdb_run_ivm_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let s = Session::default();
        assert!(
            s.run(&Request {
                op: Op::Open,
                text: dir.display().to_string(),
                ..Request::default()
            })
            .ok
        );
        for clause in ["schema G(U, U).", "G('a', 'b')."] {
            assert!(
                s.run(&Request {
                    op: Op::Insert,
                    text: clause.into(),
                    ..Request::default()
                })
                .ok
            );
        }
        assert!(
            s.run(&Request {
                op: Op::Materialize,
                view: "paths".into(),
                text: TC_SRC.into(),
                ..Request::default()
            })
            .ok
        );
        let r = s.run(&Request {
            op: Op::Save,
            ..Request::default()
        });
        assert!(r.ok, "{:?}", r.error);
        assert!(
            r.message.as_ref().unwrap().contains("1 views checkpointed"),
            "{:?}",
            r.message
        );
        // mutate past the checkpoint: this lands only in the log tail
        assert!(
            s.run(&Request {
                op: Op::Insert,
                text: "G('b', 'c').".into(),
                ..Request::default()
            })
            .ok
        );

        // a fresh session restores the checkpoint and replays the tail
        let s2 = Session::default();
        let r = s2.run(&Request {
            op: Op::Open,
            text: dir.display().to_string(),
            ..Request::default()
        });
        assert!(r.ok, "{:?}", r.error);
        let msg = r.message.as_ref().unwrap();
        assert!(msg.contains("views restored: 1"), "{msg}");
        assert!(msg.contains("1 log clauses replayed"), "{msg}");
        // deleting the replayed edge retracts exactly the tc facts it
        // supported — proof the restored state includes the tail
        let r = s2.run(&Request {
            op: Op::Update,
            text: "delete G('b', 'c').".into(),
            ..Request::default()
        });
        assert!(r.ok, "{:?}", r.error);
        let removed = &r.deltas[0].removed[0];
        assert_eq!(removed.rows.len(), 2, "(b,c) and (a,c): {:?}", removed.rows);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
