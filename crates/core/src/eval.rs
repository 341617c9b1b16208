//! Evaluation of CALC(+IFP/+PFP) under the active-domain and
//! restricted-domain semantics (Sections 3 and 5).
//!
//! Under the *active-domain* semantics a variable of type `T` ranges over
//! `dom(T, atom(I))` — enumerated lazily in the induced order via
//! [`no_object::domain::DomainIter`]. Under the *restricted-domain*
//! semantics (Definition 5.1) a [`RangeMap`] supplies an explicit finite
//! range for some variables; unlisted variables fall back to the active
//! domain. The equivalence of the two for range-restricted queries is
//! Theorem 5.1, and is tested property-style in the integration suite.
//!
//! Fixpoint relations are computed bottom-up per Definition 3.1 and
//! memoised by `Arc` identity so that a fixpoint applied under a
//! quantifier is not recomputed per binding.

use crate::ast::{FixOp, Fixpoint, Formula, Term, VarName};
use crate::error::EvalError;
use minipool::ThreadPool;
use no_object::domain::{card, DomainIter};
use no_object::governor::Governor;
use no_object::intern::{IdRelation, Interner, ValueId};
use no_object::{AtomOrder, ColumnTable, Instance, Relation, Type, Value};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::Arc;

/// Explicit ranges for the restricted-domain semantics: variable name →
/// the finite set of values it may take.
pub type RangeMap = HashMap<VarName, Vec<Value>>;

/// A top-level query `{[x1,…,xk] : [T1,…,Tk] | φ}` (Section 3).
#[derive(Clone, Debug, PartialEq)]
pub struct Query {
    /// The head variables with their types.
    pub head: Vec<(VarName, Type)>,
    /// The body formula; its free variables must be exactly the head.
    pub body: Formula,
}

impl Query {
    /// Create a query.
    pub fn new(head: Vec<(VarName, Type)>, body: Formula) -> Self {
        Query { head, body }
    }

    /// The output relation's column types.
    pub fn output_types(&self) -> Vec<Type> {
        self.head.iter().map(|(_, t)| t.clone()).collect()
    }
}

/// Collect the atoms of all constants occurring in a formula (needed to
/// extend the active domain beyond `atom(I)` when the query mentions
/// constants).
pub fn formula_atoms(f: &Formula, out: &mut BTreeSet<no_object::Atom>) {
    fn term_atoms(t: &Term, out: &mut BTreeSet<no_object::Atom>) {
        match t {
            Term::Const(v) => v.collect_atoms(out),
            Term::Proj(t, _) => term_atoms(t, out),
            Term::Fix(fix) => formula_atoms(&fix.body, out),
            Term::Var(_) => {}
        }
    }
    match f {
        Formula::Rel(_, ts) => ts.iter().for_each(|t| term_atoms(t, out)),
        Formula::Eq(a, b) | Formula::In(a, b) | Formula::Subset(a, b) => {
            term_atoms(a, out);
            term_atoms(b, out);
        }
        Formula::FixApp(fix, ts) => {
            formula_atoms(&fix.body, out);
            ts.iter().for_each(|t| term_atoms(t, out));
        }
        _ => f.children().into_iter().for_each(|c| formula_atoms(c, out)),
    }
}

/// The active-domain enumeration for evaluating `query` on `instance`:
/// `atom(I)` plus the atoms of the query's constants, in atom-id order.
pub fn active_order(instance: &Instance, query: &Query) -> AtomOrder {
    let mut atoms = instance.atoms();
    formula_atoms(&query.body, &mut atoms);
    AtomOrder::new(atoms.into_iter().collect())
}

/// The variable environment during evaluation (a scope stack).
#[derive(Default, Clone, Debug)]
pub struct Env {
    stack: Vec<(VarName, Value)>,
}

impl Env {
    /// An empty environment.
    pub fn new() -> Self {
        Env::default()
    }

    /// Look up a binding.
    pub fn get(&self, v: &str) -> Option<&Value> {
        self.stack
            .iter()
            .rev()
            .find(|(n, _)| n == v)
            .map(|(_, val)| val)
    }

    /// Push a binding.
    pub fn push(&mut self, v: impl Into<String>, val: Value) {
        self.stack.push((v.into(), val));
    }

    /// Pop the most recent binding.
    pub fn pop(&mut self) {
        self.stack.pop();
    }
}

/// The internal environment: bindings as interned ids, so lookups copy a
/// `u32` instead of cloning a value tree.
type IEnv = Vec<(VarName, ValueId)>;

fn ienv_get(env: &IEnv, v: &str) -> Option<ValueId> {
    env.iter().rev().find(|(n, _)| n == v).map(|(_, id)| *id)
}

/// The CALC evaluator over one instance.
///
/// Internally the evaluator is fully hash-consed: every value it touches
/// is an id of the instance's interned form or of a per-evaluator overlay
/// on it ([`Instance::overlay`]), stored relations are the instance's
/// cached id tables (membership is a binary search), fixpoint relations
/// are [`IdRelation`]s of id rows, and quantifier loops, fixpoint dedup,
/// and membership tests all compare `u32` ids instead of value trees.
/// Only values the instance does not hold are admitted to the overlay,
/// so memory charges count exactly those. The [`Value`]-level API
/// (`query`, `holds`, `eval_term`, `eval_fixpoint`, [`Env`]) is the
/// boundary representation; conversions happen once per call, not per
/// binding.
pub struct Evaluator<'a> {
    instance: &'a Instance,
    order: AtomOrder,
    governor: Governor,
    intern: Interner,
    /// Worker pool for the quantifier-enumeration hot loop. A sequential
    /// pool (the default) reproduces single-threaded evaluation
    /// bit-for-bit; see [`Evaluator::with_pool`].
    pool: ThreadPool,
    /// Explicit (restricted-domain) ranges, interned at installation.
    ranges: HashMap<VarName, Arc<Vec<ValueId>>>,
    /// The instance's cached id tables of the relations used so far.
    tables: HashMap<String, Arc<ColumnTable>>,
    /// Fixpoint relations currently in scope (innermost last).
    aux: Vec<(String, Arc<IdRelation>)>,
    /// Scope-context identifiers: every push of an auxiliary relation gets
    /// a fresh id, and popping restores the *parent's* id — so the
    /// top-level context keeps id 0 forever and fixpoints applied under
    /// different bindings of the same scope share one cache entry, while
    /// distinct iterations of an enclosing fixpoint (different `aux`
    /// contents) never do.
    ctx_stack: Vec<u64>,
    ctx_counter: u64,
    fix_cache: HashMap<(usize, u64), Arc<IdRelation>>,
    /// Resolved counterpart of `fix_cache` for the public
    /// [`Evaluator::eval_fixpoint`] boundary.
    fix_cache_resolved: HashMap<(usize, u64), Arc<Relation>>,
    /// Materialised active domains per type — quantifiers over the same
    /// type share one vector instead of re-enumerating per binding.
    domain_cache: HashMap<Type, Arc<Vec<ValueId>>>,
}

impl<'a> Evaluator<'a> {
    /// Create an evaluator with the given atom enumeration, drawing from
    /// a shared [`Governor`] — nested evaluations (range computation,
    /// stratified sub-queries) share one budget this way instead of each
    /// getting a fresh allowance.
    pub fn new(instance: &'a Instance, order: AtomOrder, governor: Governor) -> Self {
        Evaluator {
            instance,
            order,
            governor,
            intern: instance.overlay(),
            pool: ThreadPool::sequential(),
            ranges: HashMap::new(),
            tables: HashMap::new(),
            aux: Vec::new(),
            ctx_stack: vec![0],
            ctx_counter: 0,
            fix_cache: HashMap::new(),
            fix_cache_resolved: HashMap::new(),
            domain_cache: HashMap::new(),
        }
    }

    /// Install a worker pool. With more than one thread, the outermost
    /// variable of each head/fixpoint-stage enumeration is chunked across
    /// workers; a sequential pool (the default) keeps the classic
    /// single-threaded loop. Results are identical either way — the
    /// answer set is a union over chunks and `IdRelation` is unordered —
    /// but resource-trip *timing* can differ at `threads > 1` (workers
    /// race to the shared budget).
    pub fn with_pool(mut self, pool: ThreadPool) -> Self {
        self.pool = pool;
        self
    }

    /// A worker-private clone for parallel enumeration: shares the
    /// interner arena and governor (both are concurrent handles), copies
    /// the scope state (aux relations, caches, ranges), and downgrades the
    /// pool to sequential so workers never fan out recursively.
    fn fork(&self) -> Evaluator<'a> {
        Evaluator {
            instance: self.instance,
            order: self.order.clone(),
            governor: self.governor.clone(),
            intern: self.intern.clone(),
            pool: ThreadPool::sequential(),
            ranges: self.ranges.clone(),
            tables: self.tables.clone(),
            aux: self.aux.clone(),
            ctx_stack: self.ctx_stack.clone(),
            // Worker-private context ids only key worker-private cache
            // entries; fixpoints shared across workers are prewarmed into
            // `fix_cache` before forking.
            ctx_counter: self.ctx_counter,
            fix_cache: self.fix_cache.clone(),
            fix_cache_resolved: self.fix_cache_resolved.clone(),
            domain_cache: self.domain_cache.clone(),
        }
    }

    /// Install explicit ranges (restricted-domain semantics). Variables not
    /// in the map keep the active-domain range. Range values are interned
    /// here, once, as input data (uncharged — they were supplied by the
    /// caller, not materialised by this evaluation).
    pub fn with_ranges(mut self, ranges: RangeMap) -> Self {
        for (v, vals) in ranges {
            let ids: Vec<ValueId> = vals.iter().map(|val| self.intern.intern(val)).collect();
            self.ranges.insert(v, Arc::new(ids));
        }
        self
    }

    /// The overlay backing this evaluation (for callers that want to
    /// inspect arena growth, e.g. diagnostics).
    pub fn interner(&self) -> &Interner {
        &self.intern
    }

    /// The atom enumeration in use.
    pub fn order(&self) -> &AtomOrder {
        &self.order
    }

    /// Steps consumed so far (work measure used by the benchmarks). When
    /// the governor is shared, this is the *joint* consumption.
    pub fn steps_used(&self) -> u64 {
        self.governor.steps_spent()
    }

    /// The governor enforcing this evaluation's budgets.
    pub fn governor(&self) -> &Governor {
        &self.governor
    }

    fn tick(&mut self) -> Result<(), EvalError> {
        self.governor.tick("calc.eval").map_err(EvalError::from)
    }

    /// Bytes a materialised id row costs: one id per column. The values
    /// behind the ids are charged once, when the arena admits them.
    fn row_bytes(row: &[ValueId]) -> u64 {
        8 * row.len() as u64
    }

    /// Convert a boundary environment to the internal id environment.
    fn intern_env(&mut self, env: &Env) -> IEnv {
        env.stack
            .iter()
            .map(|(n, v)| (n.clone(), self.intern.intern(v)))
            .collect()
    }

    /// Evaluate a query to its answer relation.
    pub fn query(&mut self, q: &Query) -> Result<Relation, EvalError> {
        let out = self.enumerate_relation(&q.head, &q.body, "calc.answer")?;
        Ok(out.to_relation(&self.intern))
    }

    /// Enumerate all assignments of `vars` (over their ranges) satisfying
    /// `body` — the shared driver behind query answering and fixpoint
    /// stages. With a parallel pool, the first variable's range is chunked
    /// across worker forks and the partial relations unioned; the
    /// sequential path is the classic nested loop.
    fn enumerate_relation(
        &mut self,
        vars: &[(VarName, Type)],
        body: &Formula,
        site: &'static str,
    ) -> Result<IdRelation, EvalError> {
        if self.pool.threads() > 1 {
            if let Some(((v0, ty0), rest)) = vars.split_first() {
                let range = self.range_of(v0, ty0)?;
                if range.len() >= 2 {
                    self.prewarm_for_fork(rest, body)?;
                    let tasks: Vec<(Evaluator<'a>, std::ops::Range<usize>)> =
                        minipool::split(range.len(), self.pool.threads())
                            .into_iter()
                            .map(|span| (self.fork(), span))
                            .collect();
                    let pool = self.pool.clone();
                    let parts = pool.try_map(tasks, |(mut worker, span)| {
                        let mut out = IdRelation::new();
                        let mut env = IEnv::new();
                        let mut row = Vec::with_capacity(rest.len() + 1);
                        for &id in &range[span] {
                            env.push((v0.clone(), id));
                            row.push(id);
                            let r = worker
                                .enumerate_columns(rest, body, site, &mut env, &mut row, &mut out);
                            row.pop();
                            env.pop();
                            r?;
                        }
                        Ok::<IdRelation, EvalError>(out)
                    })?;
                    let mut out = IdRelation::new();
                    for part in &parts {
                        out.absorb(part);
                    }
                    return Ok(out);
                }
            }
        }
        let mut out = IdRelation::new();
        let mut env = IEnv::new();
        let mut row = Vec::with_capacity(vars.len());
        self.enumerate_columns(vars, body, site, &mut env, &mut row, &mut out)?;
        Ok(out)
    }

    /// Materialise the state parallel workers will need *before* forking,
    /// so it is computed once and shared instead of once per worker: the
    /// ranges of the remaining enumeration variables and every *closed*
    /// fixpoint of the body (one whose body's free variables are all its
    /// own columns — in this engine fixpoint bodies cannot see enclosing
    /// quantifier bindings, so any fixpoint that would evaluate without an
    /// unbound-variable error is closed). Note this eagerly evaluates
    /// fixpoints that a short-circuiting sequential pass might never
    /// reach; results are unaffected, but resource accounting can differ
    /// (documented in DESIGN.md §10).
    fn prewarm_for_fork(
        &mut self,
        vars: &[(VarName, Type)],
        body: &Formula,
    ) -> Result<(), EvalError> {
        for (v, ty) in vars {
            self.range_of(v, ty)?;
        }
        let mut fixes = Vec::new();
        collect_closed_fixpoints(body, &mut fixes);
        for fix in fixes {
            self.eval_fixpoint_i(&fix)?;
        }
        Ok(())
    }

    fn enumerate_columns(
        &mut self,
        vars: &[(VarName, Type)],
        body: &Formula,
        site: &'static str,
        env: &mut IEnv,
        row: &mut Vec<ValueId>,
        out: &mut IdRelation,
    ) -> Result<(), EvalError> {
        match vars.split_first() {
            None => {
                if self.holds_i(body, env)? {
                    self.governor.charge_mem(site, Self::row_bytes(row))?;
                    out.insert(row.clone().into_boxed_slice());
                }
                Ok(())
            }
            Some(((v, ty), rest)) => {
                let range = self.range_of(v, ty)?;
                for &id in range.iter() {
                    env.push((v.clone(), id));
                    row.push(id);
                    let r = self.enumerate_columns(rest, body, site, env, row, out);
                    row.pop();
                    env.pop();
                    r?;
                }
                Ok(())
            }
        }
    }

    /// The range of values variable `v : ty` iterates over: the explicit
    /// range if one is installed, else the active domain `dom(ty, D)` —
    /// interned and materialised once per type, shared across bindings.
    fn range_of(&mut self, v: &str, ty: &Type) -> Result<Arc<Vec<ValueId>>, EvalError> {
        if let Some(r) = self.ranges.get(v) {
            return Ok(Arc::clone(r));
        }
        if let Some(cached) = self.domain_cache.get(ty) {
            return Ok(Arc::clone(cached));
        }
        let c = card(ty, self.order.len())?;
        if c > no_object::Nat::from(self.governor.max_range()) {
            return Err(EvalError::RangeTooLarge {
                var: v.to_string(),
                ty: ty.clone(),
                card: c,
            });
        }
        // Fault-injection / cancellation checkpoint for the range budget
        // (the Nat comparison above reports the richer var/ty context).
        self.governor.checkpoint("calc.range")?;
        let mut ids = Vec::new();
        let mut grown: u64 = 0;
        for val in DomainIter::new(&self.order, ty)? {
            let (id, g) = self.intern.intern_with_growth(&val);
            grown += g;
            ids.push(id);
        }
        let values = Arc::new(ids);
        // Charge the arena growth (each domain value admitted once, and
        // attributed to the admitting call even when workers intern
        // concurrently) plus the id vector itself.
        let bytes = grown + 8 * values.len() as u64;
        self.governor.charge_mem("calc.domain", bytes)?;
        self.domain_cache.insert(ty.clone(), Arc::clone(&values));
        Ok(values)
    }

    /// Truth of a formula under the environment (boundary API; see
    /// `Evaluator::holds_i` for the id-level loop).
    pub fn holds(&mut self, f: &Formula, env: &mut Env) -> Result<bool, EvalError> {
        let mut ienv = self.intern_env(env);
        self.holds_i(f, &mut ienv)
    }

    fn holds_i(&mut self, f: &Formula, env: &mut IEnv) -> Result<bool, EvalError> {
        self.tick()?;
        match f {
            Formula::Rel(name, args) => {
                let row: Vec<ValueId> = args
                    .iter()
                    .map(|t| self.eval_term_i(t, env))
                    .collect::<Result<_, _>>()?;
                self.rel_contains(name, &row)
            }
            Formula::Eq(a, b) => Ok(self.eval_term_i(a, env)? == self.eval_term_i(b, env)?),
            Formula::In(a, b) => {
                let elem = self.eval_term_i(a, env)?;
                let set = self.eval_term_i(b, env)?;
                match self.intern.set_elems(set) {
                    Some(elems) => Ok(self.intern.set_contains(elems, elem)),
                    None => Err(EvalError::ShapeError(format!(
                        "∈ right-hand side evaluated to non-set {}",
                        self.intern.resolve(set)
                    ))),
                }
            }
            Formula::Subset(a, b) => {
                let x = self.eval_term_i(a, env)?;
                let y = self.eval_term_i(b, env)?;
                match (self.intern.set_elems(x), self.intern.set_elems(y)) {
                    (Some(xs), Some(ys)) => Ok(self.intern.set_is_subset(xs, ys)),
                    _ => Err(EvalError::ShapeError(format!(
                        "⊆ applied to non-sets {} and {}",
                        self.intern.resolve(x),
                        self.intern.resolve(y)
                    ))),
                }
            }
            Formula::Not(g) => Ok(!self.holds_i(g, env)?),
            Formula::And(gs) => {
                for g in gs {
                    if !self.holds_i(g, env)? {
                        return Ok(false);
                    }
                }
                Ok(true)
            }
            Formula::Or(gs) => {
                for g in gs {
                    if self.holds_i(g, env)? {
                        return Ok(true);
                    }
                }
                Ok(false)
            }
            Formula::Implies(a, b) => Ok(!self.holds_i(a, env)? || self.holds_i(b, env)?),
            Formula::Iff(a, b) => Ok(self.holds_i(a, env)? == self.holds_i(b, env)?),
            Formula::Exists(x, ty, g) => {
                let range = self.range_of(x, ty)?;
                for &id in range.iter() {
                    self.tick()?;
                    env.push((x.clone(), id));
                    let r = self.holds_i(g, env);
                    env.pop();
                    if r? {
                        return Ok(true);
                    }
                }
                Ok(false)
            }
            Formula::Forall(x, ty, g) => {
                let range = self.range_of(x, ty)?;
                for &id in range.iter() {
                    self.tick()?;
                    env.push((x.clone(), id));
                    let r = self.holds_i(g, env);
                    env.pop();
                    if !r? {
                        return Ok(false);
                    }
                }
                Ok(true)
            }
            Formula::FixApp(fix, args) => {
                let row: Vec<ValueId> = args
                    .iter()
                    .map(|t| self.eval_term_i(t, env))
                    .collect::<Result<_, _>>()?;
                let rel = self.eval_fixpoint_i(fix)?;
                Ok(rel.contains(&row))
            }
        }
    }

    fn rel_contains(&mut self, name: &str, row: &[ValueId]) -> Result<bool, EvalError> {
        if let Some((_, rel)) = self.aux.iter().rev().find(|(n, _)| n == name) {
            return Ok(rel.contains(row));
        }
        if self.instance.schema().get(name).is_some() {
            if !self.tables.contains_key(name) {
                let table = self.instance.id_table(name);
                self.tables.insert(name.to_string(), table);
            }
            return Ok(self.tables[name].contains_row(row));
        }
        Err(EvalError::UnknownRelation(name.to_string()))
    }

    /// Evaluate a term to a value (boundary API).
    pub fn eval_term(&mut self, t: &Term, env: &mut Env) -> Result<Value, EvalError> {
        let mut ienv = self.intern_env(env);
        let id = self.eval_term_i(t, &mut ienv)?;
        Ok(self.intern.resolve(id))
    }

    fn eval_term_i(&mut self, t: &Term, env: &mut IEnv) -> Result<ValueId, EvalError> {
        self.tick()?;
        match t {
            Term::Const(v) => Ok(self.intern.intern_charged(&self.governor, "calc.eval", v)?),
            Term::Var(v) => ienv_get(env, v).ok_or_else(|| EvalError::UnboundVariable(v.clone())),
            Term::Proj(inner, i) => {
                let id = self.eval_term_i(inner, env)?;
                self.intern.project(id, *i).ok_or_else(|| {
                    EvalError::ShapeError(format!("projection .{i} on {}", self.intern.resolve(id)))
                })
            }
            Term::Fix(fix) => {
                let rel = self.eval_fixpoint_i(fix)?;
                // Unary fixpoints denote plain sets; wider ones, sets of
                // tuples (see `Fixpoint::term_type`).
                let mut grown: u64 = 0;
                let elems: Vec<ValueId> = rel
                    .iter()
                    .map(|row| match row {
                        [single] => *single,
                        _ => {
                            let (id, g) = self.intern.intern_tuple_with_growth(row.to_vec());
                            grown += g;
                            id
                        }
                    })
                    .collect();
                let (set, g) = self.intern.intern_set_with_growth(elems);
                self.governor.charge_mem("calc.eval", grown + g)?;
                Ok(set)
            }
        }
    }

    /// Compute the relation denoted by a fixpoint expression
    /// (Definition 3.1), memoised by `Arc` identity and scope context: the
    /// same fixpoint applied repeatedly in one scope (e.g. under a
    /// quantifier, once per binding) is computed once. Boundary API — the
    /// id-level engine uses `Evaluator::eval_fixpoint_i` and never
    /// resolves.
    pub fn eval_fixpoint(&mut self, fix: &Arc<Fixpoint>) -> Result<Arc<Relation>, EvalError> {
        let key = (
            Arc::as_ptr(fix) as usize,
            *self.ctx_stack.last().expect("context stack never empty"),
        );
        if let Some(cached) = self.fix_cache_resolved.get(&key) {
            return Ok(Arc::clone(cached));
        }
        let rel = self.eval_fixpoint_i(fix)?;
        let resolved = Arc::new(rel.to_relation(&self.intern));
        self.fix_cache_resolved.insert(key, Arc::clone(&resolved));
        Ok(resolved)
    }

    fn eval_fixpoint_i(&mut self, fix: &Arc<Fixpoint>) -> Result<Arc<IdRelation>, EvalError> {
        let key = (
            Arc::as_ptr(fix) as usize,
            *self.ctx_stack.last().expect("context stack never empty"),
        );
        if let Some(cached) = self.fix_cache.get(&key) {
            return Ok(Arc::clone(cached));
        }
        let result = self.compute_fixpoint(fix)?;
        let result = Arc::new(result);
        self.fix_cache.insert(key, Arc::clone(&result));
        Ok(result)
    }

    fn compute_fixpoint(&mut self, fix: &Fixpoint) -> Result<IdRelation, EvalError> {
        let mut current = Arc::new(IdRelation::new());
        let mut seen_states: HashSet<u64> = HashSet::new();
        let mut iters: u64 = 0;
        loop {
            iters += 1;
            self.governor.check_iters("calc.fixpoint", iters)?;
            let next_stage = self.apply_fixpoint_body(fix, &current)?;
            let next = match fix.op {
                FixOp::Ifp => {
                    let mut n = next_stage;
                    n.absorb(&current);
                    n
                }
                FixOp::Pfp => next_stage,
            };
            if next == *current {
                return Ok(next);
            }
            if fix.op == FixOp::Pfp {
                let h = next.digest();
                if !seen_states.insert(h) {
                    // Hash collision is theoretically possible but the
                    // states hashed are full row digests; a repeat means
                    // the PFP sequence cycles without converging.
                    return Err(EvalError::PfpDiverged {
                        rel: fix.rel.clone(),
                        iters,
                    });
                }
            }
            current = Arc::new(next);
        }
    }

    /// One application `φ(J)`: all tuples over the column ranges whose
    /// substitution satisfies the body with `S = J`. Each stage is itself
    /// an enumeration, so it parallelises through the same driver as the
    /// answer loop (`J` is shared with workers by `Arc`, not cloned).
    fn apply_fixpoint_body(
        &mut self,
        fix: &Fixpoint,
        j: &Arc<IdRelation>,
    ) -> Result<IdRelation, EvalError> {
        self.aux.push((fix.rel.clone(), Arc::clone(j)));
        self.ctx_counter += 1;
        self.ctx_stack.push(self.ctx_counter);
        let result = self.enumerate_relation(&fix.vars, &fix.body, "calc.fixpoint.stage");
        self.aux.pop();
        self.ctx_stack.pop();
        result
    }
}

/// Collect the *closed* fixpoints of a formula — those whose body's free
/// variables are all among their own columns, so they can be evaluated
/// eagerly before forking parallel workers (see
/// `Evaluator::prewarm_for_fork`). Does not descend into fixpoint bodies:
/// evaluating an outer fixpoint computes its inner ones as needed.
fn collect_closed_fixpoints(f: &Formula, out: &mut Vec<Arc<Fixpoint>>) {
    fn term_fixes(t: &Term, out: &mut Vec<Arc<Fixpoint>>) {
        match t {
            Term::Fix(fix) => closed_entry(fix, out),
            Term::Proj(inner, _) => term_fixes(inner, out),
            Term::Const(_) | Term::Var(_) => {}
        }
    }
    fn closed_entry(fix: &Arc<Fixpoint>, out: &mut Vec<Arc<Fixpoint>>) {
        let cols: HashSet<&str> = fix.vars.iter().map(|(v, _)| v.as_str()).collect();
        if fix
            .body
            .free_vars()
            .iter()
            .all(|v| cols.contains(v.as_str()))
        {
            out.push(Arc::clone(fix));
        }
    }
    match f {
        Formula::Rel(_, ts) => ts.iter().for_each(|t| term_fixes(t, out)),
        Formula::Eq(a, b) | Formula::In(a, b) | Formula::Subset(a, b) => {
            term_fixes(a, out);
            term_fixes(b, out);
        }
        Formula::FixApp(fix, ts) => {
            closed_entry(fix, out);
            ts.iter().for_each(|t| term_fixes(t, out));
        }
        _ => f
            .children()
            .into_iter()
            .for_each(|c| collect_closed_fixpoints(c, out)),
    }
}

/// Evaluate `query` on `instance` under the active-domain semantics,
/// drawing from `governor` and fanning the quantifier enumeration out over
/// `pool` (see [`Evaluator::with_pool`]).
pub fn eval_pooled(
    query: &Query,
    instance: &Instance,
    governor: &Governor,
    pool: &ThreadPool,
) -> Result<Relation, EvalError> {
    let order = active_order(instance, query);
    Evaluator::new(instance, order, governor.clone())
        .with_pool(pool.clone())
        .query(query)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::FixOp;
    use no_object::{Limits, RelationSchema, Schema, Universe};

    /// A small atom-typed graph instance: edges as pairs of atoms.
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

    /// Active-domain evaluation under a fresh governor.
    fn run(i: &Instance, q: &Query, limits: Limits) -> Result<Relation, EvalError> {
        eval_pooled(q, i, &Governor::new(limits), &ThreadPool::sequential())
    }

    fn tc_fixpoint() -> Arc<Fixpoint> {
        Arc::new(Fixpoint {
            op: FixOp::Ifp,
            rel: "S".into(),
            vars: vec![("x".into(), Type::Atom), ("y".into(), Type::Atom)],
            body: Box::new(Formula::or([
                Formula::Rel("G".into(), vec![Term::var("x"), Term::var("y")]),
                Formula::exists(
                    "z",
                    Type::Atom,
                    Formula::and([
                        Formula::Rel("S".into(), vec![Term::var("x"), Term::var("z")]),
                        Formula::Rel("G".into(), vec![Term::var("z"), Term::var("y")]),
                    ]),
                ),
            ])),
        })
    }

    #[test]
    fn simple_selection() {
        let (_u, i) = graph(&[("a", "b"), ("b", "c")]);
        let q = Query::new(
            vec![("x".into(), Type::Atom), ("y".into(), Type::Atom)],
            Formula::Rel("G".into(), vec![Term::var("x"), Term::var("y")]),
        );
        let ans = run(&i, &q, Limits::default()).unwrap();
        assert_eq!(ans.len(), 2);
    }

    #[test]
    fn transitive_closure_via_ifp() {
        let (u, i) = graph(&[("a", "b"), ("b", "c"), ("c", "d")]);
        let q = Query::new(
            vec![("u".into(), Type::Atom), ("v".into(), Type::Atom)],
            Formula::FixApp(tc_fixpoint(), vec![Term::var("u"), Term::var("v")]),
        );
        let ans = run(&i, &q, Limits::default()).unwrap();
        // closure of a path a→b→c→d: 3+2+1 = 6 pairs
        assert_eq!(ans.len(), 6);
        let a = Value::Atom(u.get("a").unwrap());
        let d = Value::Atom(u.get("d").unwrap());
        assert!(ans.contains(&[a, d]));
    }

    #[test]
    fn fixpoint_as_term() {
        // Example 3.1 second form: {x : {[U,U]} | x = IFP(φ(S),S)}
        let (_u, i) = graph(&[("a", "b"), ("b", "c")]);
        let pair = Type::tuple(vec![Type::Atom, Type::Atom]);
        let q = Query::new(
            vec![("w".into(), Type::set(pair))],
            Formula::Eq(Term::var("w"), Term::Fix(tc_fixpoint())),
        );
        let ans = run(&i, &q, Limits::default()).unwrap();
        assert_eq!(ans.len(), 1);
        let row = ans.sorted_rows()[0].clone();
        match &row[0] {
            Value::Set(s) => assert_eq!(s.len(), 3), // ab, bc, ac
            other => panic!("expected set, got {other}"),
        }
    }

    #[test]
    fn cycle_detection_query() {
        // Example 3.1 third form: nodes on a cycle
        let (u, i) = graph(&[("a", "b"), ("b", "a"), ("b", "c")]);
        let q = Query::new(
            vec![("u".into(), Type::Atom)],
            Formula::exists(
                "v",
                Type::Atom,
                Formula::and([
                    Formula::FixApp(tc_fixpoint(), vec![Term::var("u"), Term::var("v")]),
                    Formula::Eq(Term::var("u"), Term::var("v")),
                ]),
            ),
        );
        let ans = run(&i, &q, Limits::default()).unwrap();
        assert_eq!(ans.len(), 2);
        assert!(ans.contains(&[Value::Atom(u.get("a").unwrap())]));
        assert!(ans.contains(&[Value::Atom(u.get("b").unwrap())]));
        assert!(!ans.contains(&[Value::Atom(u.get("c").unwrap())]));
    }

    #[test]
    fn quantifiers_over_set_domains() {
        // ∃X:{U} ∀x:U (x ∈ X) — the full active-domain set witnesses X
        let (_u, i) = graph(&[("a", "b")]);
        let sentence = Formula::exists(
            "X",
            Type::set(Type::Atom),
            Formula::forall("x", Type::Atom, Formula::In(Term::var("x"), Term::var("X"))),
        );
        let order = AtomOrder::new(i.atoms().into_iter().collect());
        let mut ev = Evaluator::new(&i, order, Governor::default());
        assert!(ev.holds(&sentence, &mut Env::new()).unwrap());
    }

    #[test]
    fn restricted_ranges_override_active_domain() {
        let (u, i) = graph(&[("a", "b"), ("b", "c")]);
        let q = Query::new(
            vec![("x".into(), Type::Atom)],
            Formula::exists(
                "y",
                Type::Atom,
                Formula::Rel("G".into(), vec![Term::var("x"), Term::var("y")]),
            ),
        );
        let mut ranges = RangeMap::new();
        ranges.insert("x".into(), vec![Value::Atom(u.get("a").unwrap())]);
        let order = active_order(&i, &q);
        let mut ev = Evaluator::new(&i, order, Governor::default()).with_ranges(ranges);
        let ans = ev.query(&q).unwrap();
        // only x = a is ever tried
        assert_eq!(ans.len(), 1);
    }

    #[test]
    fn range_budget_enforced() {
        let (_u, i) = graph(&[("a", "b"), ("b", "c"), ("c", "d")]);
        // {X : {{U}} | X = X} over 4 atoms: 2^16 candidates > tight budget 2^12
        let q = Query::new(
            vec![("X".into(), Type::set(Type::set(Type::Atom)))],
            Formula::Eq(Term::var("X"), Term::var("X")),
        );
        match run(&i, &q, Limits::tight()) {
            Err(EvalError::RangeTooLarge { var, .. }) => assert_eq!(var, "X"),
            other => panic!("expected RangeTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn step_budget_enforced() {
        let (_u, i) = graph(&[("a", "b"), ("b", "c"), ("c", "d")]);
        let q = Query::new(
            vec![("x".into(), Type::Atom), ("y".into(), Type::Atom)],
            Formula::FixApp(tc_fixpoint(), vec![Term::var("x"), Term::var("y")]),
        );
        let cfg = Limits {
            max_steps: 50,
            ..Limits::default()
        };
        match run(&i, &q, cfg) {
            Err(EvalError::Resource(e)) => {
                assert_eq!(e.budget, no_object::BudgetKind::Steps);
                assert_eq!(e.limit, 50);
            }
            other => panic!("expected step-fuel Resource error, got {other:?}"),
        }
    }

    #[test]
    fn repeated_materialisation_of_shared_value_charges_once() {
        // Pre-interning, every answer row charged the deep `approx_bytes`
        // of its values, so a large value reappearing in many rows
        // inflated `mem_spent` linearly. With hash-consing the arena
        // admits the value once; rows charge only their id widths.
        let mut u = Universe::new();
        let schema =
            Schema::from_relations([RelationSchema::new("P", vec![Type::set(Type::Atom)])]);
        let mut i = Instance::empty(schema);
        let big = Value::set((0..64).map(|k| Value::Atom(u.intern(&format!("a{k}")))));
        assert!(big.approx_bytes() > 500);
        i.insert("P", vec![big.clone()]);
        let q = Query::new(
            vec![
                ("x".into(), Type::set(Type::Atom)),
                ("y".into(), Type::set(Type::Atom)),
            ],
            Formula::and([
                Formula::Rel("P".into(), vec![Term::var("x")]),
                Formula::Rel("P".into(), vec![Term::var("y")]),
            ]),
        );
        let mut ranges = RangeMap::new();
        ranges.insert("x".into(), vec![big.clone()]);
        ranges.insert("y".into(), vec![big.clone()]);
        let order = active_order(&i, &q);
        let mut ev = Evaluator::new(&i, order, Governor::default()).with_ranges(ranges);
        let ans = ev.query(&q).unwrap();
        assert_eq!(ans.len(), 1);
        let first = ev.governor().mem_spent();
        assert!(
            first < 100,
            "row with shared 500+-byte value should charge id widths only, charged {first}"
        );
        // Re-running the query adds only fresh row charges, never re-admits
        // the value.
        let _ = ev.query(&q).unwrap();
        let second = ev.governor().mem_spent() - first;
        assert!(second <= 16, "second run recharged {second} bytes");
    }

    #[test]
    fn pfp_converges_on_monotone_body() {
        // PFP of the TC body also converges (it is inflationary in effect
        // once S ⊆ φ(S) — for TC, φ is monotone and reaches a fixpoint).
        let (_u, i) = graph(&[("a", "b"), ("b", "c")]);
        let fix = Arc::new(Fixpoint {
            op: FixOp::Pfp,
            ..(*tc_fixpoint()).clone()
        });
        let q = Query::new(
            vec![("x".into(), Type::Atom), ("y".into(), Type::Atom)],
            Formula::FixApp(fix, vec![Term::var("x"), Term::var("y")]),
        );
        let ans = run(&i, &q, Limits::default()).unwrap();
        assert_eq!(ans.len(), 3);
    }

    #[test]
    fn pfp_divergence_detected() {
        // φ(S) = ¬S(x): alternates {} → all → {} → … — a genuine PFP cycle
        let (_u, i) = graph(&[("a", "a")]);
        let fix = Arc::new(Fixpoint {
            op: FixOp::Pfp,
            rel: "S".into(),
            vars: vec![("x".into(), Type::Atom)],
            body: Box::new(Formula::Rel("S".into(), vec![Term::var("x")]).not()),
        });
        let q = Query::new(
            vec![("x".into(), Type::Atom)],
            Formula::FixApp(fix, vec![Term::var("x")]),
        );
        match run(&i, &q, Limits::default()) {
            Err(EvalError::PfpDiverged { rel, .. }) => assert_eq!(rel, "S"),
            other => panic!("expected PfpDiverged, got {other:?}"),
        }
    }

    #[test]
    fn genericity_answers_do_not_depend_on_enumeration() {
        let (_u, i) = graph(&[("a", "b"), ("b", "c"), ("c", "a")]);
        let q = Query::new(
            vec![("x".into(), Type::Atom), ("y".into(), Type::Atom)],
            Formula::FixApp(tc_fixpoint(), vec![Term::var("x"), Term::var("y")]),
        );
        let atoms: Vec<no_object::Atom> = i.atoms().into_iter().collect();
        let o1 = AtomOrder::new(atoms.clone());
        let mut rev = atoms.clone();
        rev.reverse();
        let o2 = AtomOrder::new(rev);
        let a1 = Evaluator::new(&i, o1, Governor::default())
            .query(&q)
            .unwrap();
        let a2 = Evaluator::new(&i, o2, Governor::default())
            .query(&q)
            .unwrap();
        assert_eq!(a1, a2);
    }

    #[test]
    fn subset_and_iff_semantics() {
        let (_u, i) = graph(&[("a", "b")]);
        let order = AtomOrder::new(i.atoms().into_iter().collect());
        let mut ev = Evaluator::new(&i, order, Governor::default());
        // {a0} ⊆ {a0, a1} and not conversely
        let small = Value::set([Value::Atom(no_object::Atom(0))]);
        let big = Value::set([
            Value::Atom(no_object::Atom(0)),
            Value::Atom(no_object::Atom(1)),
        ]);
        let mut env = Env::new();
        env.push("s", small.clone());
        env.push("b", big.clone());
        let f = Formula::Subset(Term::var("s"), Term::var("b"));
        assert!(ev.holds(&f, &mut env).unwrap());
        let g = Formula::Subset(Term::var("b"), Term::var("s"));
        assert!(!ev.holds(&g, &mut env).unwrap());
        // iff
        let h = f.clone().iff(g.clone());
        assert!(!ev.holds(&h, &mut env).unwrap());
        let h2 = f.clone().iff(f);
        assert!(ev.holds(&h2, &mut env).unwrap());
        // subset on non-sets is a shape error
        env.push("x", Value::Atom(no_object::Atom(0)));
        let bad = Formula::Subset(Term::var("x"), Term::var("b"));
        assert!(matches!(
            ev.holds(&bad, &mut env),
            Err(EvalError::ShapeError(_))
        ));
    }

    #[test]
    fn constants_extend_the_active_domain() {
        // a query mentioning an atom that is NOT in the instance still
        // ranges over it (active domain = atom(I) ∪ query constants)
        let mut u = Universe::new();
        let schema =
            Schema::from_relations([RelationSchema::new("G", vec![Type::Atom, Type::Atom])]);
        let mut i = Instance::empty(schema);
        let a = u.intern("a");
        let ghost = u.intern("ghost");
        i.insert("G", vec![Value::Atom(a), Value::Atom(a)]);
        let q = Query::new(
            vec![("x".into(), Type::Atom)],
            Formula::Eq(Term::var("x"), Term::Const(Value::Atom(ghost))),
        );
        let ans = run(&i, &q, Limits::default()).unwrap();
        assert_eq!(ans.len(), 1);
        assert!(ans.contains(&[Value::Atom(ghost)]));
    }

    #[test]
    fn projection_chains_evaluate() {
        let mut u = Universe::new();
        let pair = Type::tuple(vec![Type::Atom, Type::Atom]);
        let nested = Type::tuple(vec![pair.clone(), Type::Atom]);
        let schema = Schema::from_relations([RelationSchema::new("R", vec![nested])]);
        let mut i = Instance::empty(schema);
        let (a, b, c) = (u.intern("a"), u.intern("b"), u.intern("c"));
        i.insert(
            "R",
            vec![Value::tuple([
                Value::tuple([Value::Atom(a), Value::Atom(b)]),
                Value::Atom(c),
            ])],
        );
        // {x : U | ∃t R(t) ∧ t.1.2 = x}
        let q = Query::new(
            vec![("x".into(), Type::Atom)],
            Formula::exists(
                "t",
                Type::tuple(vec![pair, Type::Atom]),
                Formula::and([
                    Formula::Rel("R".into(), vec![Term::var("t")]),
                    Formula::Eq(Term::var("t").proj(1).proj(2), Term::var("x")),
                ]),
            ),
        );
        let ans = run(&i, &q, Limits::default()).unwrap();
        assert_eq!(ans.len(), 1);
        assert!(ans.contains(&[Value::Atom(b)]));
    }

    #[test]
    fn fixpoint_cache_reuses_across_bindings() {
        // applying the same Arc'd fixpoint under a quantifier evaluates it
        // once: steps with the memoised fixpoint stay far below the naive
        // candidate-product cost
        let (_u, i) = graph(&[("a", "b"), ("b", "c"), ("c", "d")]);
        let fix = tc_fixpoint();
        let q = Query::new(
            vec![("u".into(), Type::Atom)],
            Formula::exists(
                "v",
                Type::Atom,
                Formula::FixApp(fix, vec![Term::var("u"), Term::var("v")]),
            ),
        );
        let order = active_order(&i, &q);
        let mut ev = Evaluator::new(&i, order.clone(), Governor::default());
        let ans = ev.query(&q).unwrap();
        assert_eq!(ans.len(), 3); // a, b, c have successors
        let with_cache = ev.steps_used();
        // baseline: one standalone fixpoint computation
        let mut solo = Evaluator::new(&i, order, Governor::default());
        let _ = solo.eval_fixpoint(&tc_fixpoint()).unwrap();
        let one_compute = solo.steps_used();
        // 16 outer bindings share one computation: the full query must cost
        // far less than two computations' worth of steps
        assert!(
            with_cache < 2 * one_compute,
            "cache miss suspected: query {} vs single fixpoint {}",
            with_cache,
            one_compute
        );
    }

    #[test]
    fn parallel_pool_matches_sequential() {
        let (_u, i) = graph(&[("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"), ("b", "d")]);
        let q = Query::new(
            vec![("u".into(), Type::Atom), ("v".into(), Type::Atom)],
            Formula::FixApp(tc_fixpoint(), vec![Term::var("u"), Term::var("v")]),
        );
        let seq = run(&i, &q, Limits::default()).unwrap();
        for threads in [2, 4, 8] {
            let order = active_order(&i, &q);
            let mut ev =
                Evaluator::new(&i, order, Governor::default()).with_pool(ThreadPool::new(threads));
            let par = ev.query(&q).unwrap();
            assert_eq!(par, seq, "parallelism {threads} diverged");
        }
    }

    #[test]
    fn parallel_pool_matches_sequential_on_set_heads() {
        // Set-typed head variable: chunking splits a powerset-shaped range.
        let (_u, i) = graph(&[("a", "b"), ("b", "c")]);
        let q = Query::new(
            vec![("X".into(), Type::set(Type::Atom))],
            Formula::exists(
                "x",
                Type::Atom,
                Formula::and([
                    Formula::In(Term::var("x"), Term::var("X")),
                    Formula::exists(
                        "y",
                        Type::Atom,
                        Formula::Rel("G".into(), vec![Term::var("x"), Term::var("y")]),
                    ),
                ]),
            ),
        );
        let seq = run(&i, &q, Limits::default()).unwrap();
        let order = active_order(&i, &q);
        let mut ev = Evaluator::new(&i, order, Governor::default()).with_pool(ThreadPool::new(4));
        assert_eq!(ev.query(&q).unwrap(), seq);
    }

    #[test]
    fn unknown_relation_reported() {
        let (_u, i) = graph(&[("a", "b")]);
        let q = Query::new(
            vec![("x".into(), Type::Atom)],
            Formula::Rel("H".into(), vec![Term::var("x")]),
        );
        assert!(matches!(
            run(&i, &q, Limits::default()),
            Err(EvalError::UnknownRelation(_))
        ));
    }
}
