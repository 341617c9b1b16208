//! The maintenance engine: materialized views kept consistent under
//! base-table deltas.
//!
//! A [`MaintainedView`] is a stratified Datalog¬ program evaluated to
//! its perfect model and stored relation-by-relation. Maintenance
//! processes a [`BaseDelta`] stratum-by-stratum using the strategy the
//! planner assigned (`no_plan::plan_maintenance`):
//!
//! * **counting** (non-recursive strata): per-fact derivation counts,
//!   updated by the exact telescoping sum `Σ_ℓ new…Δ_ℓ…old` over the
//!   body positions. A fact dies when its count reaches zero; no
//!   re-derivation pass is ever needed.
//! * **DRed** (recursive strata): over-delete every fact with a
//!   derivation touching the deletions, re-derive over-deleted facts
//!   with a surviving alternative proof, then propagate insertions
//!   semi-naively.
//!
//! [`ViewRegistry::maintain`] is transactional per call: every view's
//! new state is computed on a scratch copy and committed only after all
//! views succeed, so a governor trip mid-maintenance leaves every view
//! consistent with the *pre-delta* instance (and therefore recoverable
//! by re-running maintenance or recomputing).

use crate::delta::{BaseDelta, ViewDelta};
use crate::error::IvmError;
use crate::fire::{derives, for_each_firing, IndexCache, Phase, Pin, StateFetch};
use no_datalog::{parse_program, Literal, Program, Rule};
use no_object::{Governor, Instance, Relation, ResourceError, Universe, Value};
use no_plan::{plan_maintenance, MaintenancePlan, MaintenanceStrategy, StratumPlan};
use std::collections::{BTreeMap, BTreeSet};

/// Per-view maintenance accounting.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ViewStats {
    /// Maintenance rounds this view has been through.
    pub maintain_calls: u64,
    /// Governor steps spent on this view across all maintenance calls
    /// (initial materialization included).
    pub steps_total: u64,
    /// Governor steps the most recent materialize/maintain call spent.
    pub steps_last: u64,
}

/// One materialized view: a stratified program, its stored relations,
/// and (for counting strata) per-fact derivation counts.
#[derive(Clone, Debug)]
pub struct MaintainedView {
    pub(crate) name: String,
    pub(crate) source: String,
    pub(crate) program: Program,
    pub(crate) plan: MaintenancePlan,
    pub(crate) state: BTreeMap<String, Relation>,
    pub(crate) counts: BTreeMap<String, BTreeMap<Vec<Value>, u64>>,
    pub(crate) stats: ViewStats,
}

impl MaintainedView {
    /// The view's name (the registry key).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The Datalog¬ source text the view was defined with.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// The parsed program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// One maintained relation, or `None` if the program does not
    /// define it.
    pub fn relation(&self, rel: &str) -> Option<&Relation> {
        self.state.get(rel)
    }

    /// All maintained relations, name-sorted.
    pub fn relations(&self) -> impl Iterator<Item = (&str, &Relation)> {
        self.state.iter().map(|(n, r)| (n.as_str(), r))
    }

    /// Maintenance accounting.
    pub fn stats(&self) -> &ViewStats {
        &self.stats
    }

    /// Per-stratum strategy summary (from the maintenance plan).
    pub fn strategy_notes(&self) -> Vec<String> {
        self.plan.notes()
    }

    fn rules_for_stratum(&self, stratum: &StratumPlan) -> Vec<&Rule> {
        let rels: BTreeSet<&str> = stratum.relations.iter().map(String::as_str).collect();
        self.program
            .rules
            .iter()
            .filter(|r| rels.contains(r.head.as_str()))
            .collect()
    }
}

/// The set of live views, maintained together against one base
/// instance.
#[derive(Clone, Debug, Default)]
pub struct ViewRegistry {
    pub(crate) views: BTreeMap<String, MaintainedView>,
}

// ---------------------------------------------------------------------------
// state resolution
// ---------------------------------------------------------------------------

/// Phase-resolved state for one stratum's maintenance: base relations
/// come from the pre-delta instance plus materialized mid/new variants,
/// lower-stratum view relations from the old/mid/new view states, and
/// same-stratum relations from the frozen old view state plus a small
/// mutation `overlay` (removed, added) the DRed phases grow — never a
/// full working copy. Probes go through a per-call [`IndexCache`];
/// keeping the indexed snapshot frozen and layering the overlay on top
/// is what lets one index serve every round of the call.
struct MaintCtx<'a> {
    base_old: &'a Instance,
    base_mid: &'a BTreeMap<String, Relation>,
    base_new: &'a BTreeMap<String, Relation>,
    view_old: &'a BTreeMap<String, Relation>,
    view_new: &'a BTreeMap<String, Relation>,
    view_mid: BTreeMap<String, Relation>,
    stratum_rels: BTreeSet<String>,
    /// Same-stratum working state as a diff against `view_old`:
    /// `name → (removed, added)`, both disjoint from each other.
    overlay: BTreeMap<String, (Relation, Relation)>,
    cache: IndexCache,
}

impl MaintCtx<'_> {
    /// Is `row` in the working state of same-stratum relation `name`?
    fn stratum_contains(&self, name: &str, row: &[Value]) -> bool {
        let old = self.view_old[name].contains(row);
        match self.overlay.get(name) {
            Some((removed, added)) => {
                if old {
                    !removed.contains(row)
                } else {
                    added.contains(row)
                }
            }
            None => old,
        }
    }

    /// Remove `row` from the working state of `name`.
    fn stratum_remove(&mut self, name: &str, row: &[Value]) {
        let old = &self.view_old[name];
        let (removed, added) = self.overlay.entry(name.to_string()).or_default();
        if !added.remove(row) && old.contains(row) {
            removed.insert(row.to_vec());
        }
    }

    /// Insert `row` into the working state of `name`.
    fn stratum_insert(&mut self, name: &str, row: Vec<Value>) {
        let old = &self.view_old[name];
        let (removed, added) = self.overlay.entry(name.to_string()).or_default();
        if !removed.remove(&row) && !old.contains(&row) {
            added.insert(row);
        }
    }
}

impl StateFetch for MaintCtx<'_> {
    fn rel(&self, name: &str, phase: Phase) -> &Relation {
        if self.stratum_rels.contains(name) {
            // the frozen snapshot; working-state reads go through
            // `probe` / `stratum_contains`, which layer the overlay.
            // Direct `rel` reads of same-stratum relations only occur
            // before any overlay mutation (phase-1 seeds) and for
            // negation, which stratification keeps off this stratum.
            return &self.view_old[name];
        }
        if let Some(old) = self.view_old.get(name) {
            return match phase {
                Phase::Old => old,
                Phase::Mid => self.view_mid.get(name).unwrap_or(old),
                Phase::New => self.view_new.get(name).unwrap_or(old),
            };
        }
        match phase {
            Phase::Old => self.base_old.relation(name),
            Phase::Mid => self
                .base_mid
                .get(name)
                .unwrap_or_else(|| self.base_old.relation(name)),
            Phase::New => self
                .base_new
                .get(name)
                .unwrap_or_else(|| self.base_old.relation(name)),
        }
    }

    fn probe(
        &self,
        name: &str,
        phase: Phase,
        positions: &[usize],
        key: &[Value],
        gov: &Governor,
        each: &mut dyn FnMut(&Vec<Value>) -> Result<bool, ResourceError>,
    ) -> Result<(), ResourceError> {
        if !self.stratum_rels.contains(name) {
            return self.cache.probe(
                self.rel(name, phase),
                name,
                phase,
                positions,
                key,
                gov,
                each,
            );
        }
        // same-stratum: probe the frozen snapshot (indexable once for
        // the whole call, any phase) and layer the overlay on top —
        // skip removed rows, then walk the small added set
        let old = &self.view_old[name];
        let Some((removed, added)) = self.overlay.get(name) else {
            return self
                .cache
                .probe(old, name, Phase::Old, positions, key, gov, each);
        };
        let mut stopped = false;
        self.cache
            .probe(old, name, Phase::Old, positions, key, gov, &mut |row| {
                if removed.contains(row) {
                    return Ok(true);
                }
                let keep = each(row)?;
                if !keep {
                    stopped = true;
                }
                Ok(keep)
            })?;
        if !stopped {
            for row in added.iter() {
                if positions.iter().zip(key).all(|(&p, v)| &row[p] == v) {
                    gov.tick("ivm.fire")?;
                    if !each(row)? {
                        break;
                    }
                }
            }
        }
        Ok(())
    }
}

/// State resolution for initial materialization: a single phase —
/// base relations from the instance, view relations (this stratum's
/// and lower ones') from the growing state map. Rebuilt per round, so
/// its probe cache needs no versioning.
struct InitCtx<'a> {
    instance: &'a Instance,
    state: &'a BTreeMap<String, Relation>,
    cache: IndexCache,
}

impl StateFetch for InitCtx<'_> {
    fn rel(&self, name: &str, _phase: Phase) -> &Relation {
        self.state
            .get(name)
            .unwrap_or_else(|| self.instance.relation(name))
    }

    fn probe(
        &self,
        name: &str,
        phase: Phase,
        positions: &[usize],
        key: &[Value],
        gov: &Governor,
        each: &mut dyn FnMut(&Vec<Value>) -> Result<bool, ResourceError>,
    ) -> Result<(), ResourceError> {
        self.cache.probe(
            self.rel(name, phase),
            name,
            Phase::Old,
            positions,
            key,
            gov,
            each,
        )
    }
}

/// External (non-same-stratum) add/del rows visible to a stratum.
type ExtDeltas = BTreeMap<String, (Relation, Relation)>;

// ---------------------------------------------------------------------------
// registry
// ---------------------------------------------------------------------------

impl ViewRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        ViewRegistry::default()
    }

    /// Number of live views.
    pub fn len(&self) -> usize {
        self.views.len()
    }

    /// True when no view is materialized.
    pub fn is_empty(&self) -> bool {
        self.views.is_empty()
    }

    /// The view names, sorted.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.views.keys().map(String::as_str)
    }

    /// Look up a view.
    pub fn get(&self, name: &str) -> Option<&MaintainedView> {
        self.views.get(name)
    }

    /// Drop a view; returns whether it existed.
    pub fn drop_view(&mut self, name: &str) -> bool {
        self.views.remove(name).is_some()
    }

    /// Define (or replace) a view from Datalog¬ source text and
    /// materialize it against `instance`. Constants in the source are
    /// interned into `universe`. Returns the materialized view.
    pub fn materialize(
        &mut self,
        name: &str,
        source: &str,
        universe: &mut Universe,
        instance: &Instance,
        gov: &Governor,
    ) -> Result<&MaintainedView, IvmError> {
        let program =
            parse_program(source, universe).map_err(|e| IvmError::Parse(e.to_string()))?;
        self.materialize_program(name, source.to_string(), program, instance, gov)
    }

    /// [`ViewRegistry::materialize`] with an already-parsed program.
    /// `source` is kept for checkpointing and must re-parse to the same
    /// program (use the original text, or `program.to_string()` for
    /// constant-free programs).
    pub fn materialize_program(
        &mut self,
        name: &str,
        source: String,
        program: Program,
        instance: &Instance,
        gov: &Governor,
    ) -> Result<&MaintainedView, IvmError> {
        let plan = plan_maintenance(instance.schema(), None, &program).map_err(IvmError::Plan)?;
        let before = gov.steps_spent();
        let (state, counts) = full_eval(&program, &plan, instance, gov)?;
        let spent = gov.steps_spent() - before;
        let view = MaintainedView {
            name: name.to_string(),
            source,
            program,
            plan,
            state,
            counts,
            stats: ViewStats {
                maintain_calls: 0,
                steps_total: spent,
                steps_last: spent,
            },
        };
        self.views.insert(name.to_string(), view);
        Ok(&self.views[name])
    }

    /// Maintain every view against `delta`, where `instance` is the
    /// **pre-delta** base state (apply the delta to the instance after
    /// this call, or before — the engine never reads it post-delta).
    ///
    /// Transactional: on error (e.g. a governor trip) no view has been
    /// modified. On success, returns each view's net change.
    pub fn maintain(
        &mut self,
        instance: &Instance,
        delta: &BaseDelta,
        gov: &Governor,
    ) -> Result<BTreeMap<String, ViewDelta>, IvmError> {
        let delta = delta.clone().normalize(instance);
        let mut out = BTreeMap::new();
        if delta.is_empty() {
            for (name, view) in &mut self.views {
                view.stats.maintain_calls += 1;
                view.stats.steps_last = 0;
                out.insert(name.clone(), ViewDelta::new());
            }
            return Ok(out);
        }
        // materialize the base mid/new phases once, shared by all views
        let mut base_mid = BTreeMap::new();
        let mut base_new = BTreeMap::new();
        for rel in delta.add.keys().chain(delta.del.keys()) {
            if base_new.contains_key(rel) {
                continue;
            }
            let mut mid = instance.relation(rel).clone();
            if let Some(del) = delta.del.get(rel) {
                for row in del.iter() {
                    mid.remove(row);
                }
            }
            let mut new = mid.clone();
            if let Some(add) = delta.add.get(rel) {
                new.absorb(add);
            }
            base_mid.insert(rel.clone(), mid);
            base_new.insert(rel.clone(), new);
        }
        // compute every view's exact change before committing any
        let mut staged: Vec<(String, Staged)> = Vec::new();
        for (name, view) in &self.views {
            let before = gov.steps_spent();
            let mut s = maintain_view(view, instance, &delta, &base_mid, &base_new, gov)
                .map_err(IvmError::Resource)?;
            s.steps = gov.steps_spent() - before;
            staged.push((name.clone(), s));
        }
        for (name, s) in staged {
            let view = self.views.get_mut(&name).expect("staged from this map");
            let mut vdelta = ViewDelta::new();
            for (rel, add, del) in s.changes {
                let state = view.state.get_mut(&rel).expect("declared IDB");
                for row in del.iter() {
                    state.remove(row);
                }
                for row in add.iter() {
                    state.insert(row.clone());
                }
                if !add.is_empty() {
                    vdelta.add.insert(rel.clone(), add);
                }
                if !del.is_empty() {
                    vdelta.del.insert(rel, del);
                }
            }
            for (rel, fact, count) in s.count_updates {
                let counts = view.counts.entry(rel).or_default();
                if count == 0 {
                    counts.remove(&fact);
                } else {
                    counts.insert(fact, count);
                }
            }
            view.stats.maintain_calls += 1;
            view.stats.steps_total += s.steps;
            view.stats.steps_last = s.steps;
            out.insert(name, vdelta);
        }
        Ok(out)
    }

    /// Re-materialize every view from scratch (recovery fallback when a
    /// checkpoint is missing or stale beyond the WAL tail).
    pub fn recompute_all(&mut self, instance: &Instance, gov: &Governor) -> Result<(), IvmError> {
        let names: Vec<String> = self.views.keys().cloned().collect();
        for name in names {
            let view = &self.views[&name];
            let (source, program) = (view.source.clone(), view.program.clone());
            self.materialize_program(&name, source, program, instance, gov)?;
        }
        Ok(())
    }
}

/// A view's fully computed post-delta change, awaiting commit: exact
/// per-relation (add, del) row sets plus counting updates — O(change),
/// never a copy of the whole view.
struct Staged {
    changes: Vec<(String, Relation, Relation)>,
    count_updates: Vec<(String, Vec<Value>, u64)>,
    steps: u64,
}

// ---------------------------------------------------------------------------
// full evaluation (initial materialization)
// ---------------------------------------------------------------------------

/// Evaluate the program to its perfect model, stratum by stratum,
/// producing derivation counts for counting strata.
#[allow(clippy::type_complexity)]
fn full_eval(
    program: &Program,
    plan: &MaintenancePlan,
    instance: &Instance,
    gov: &Governor,
) -> Result<
    (
        BTreeMap<String, Relation>,
        BTreeMap<String, BTreeMap<Vec<Value>, u64>>,
    ),
    IvmError,
> {
    let mut state: BTreeMap<String, Relation> = BTreeMap::new();
    for name in program.idb.keys() {
        state.insert(name.clone(), Relation::new());
    }
    let mut counts: BTreeMap<String, BTreeMap<Vec<Value>, u64>> = BTreeMap::new();
    for stratum in &plan.strata {
        let rels: BTreeSet<&str> = stratum.relations.iter().map(String::as_str).collect();
        let rules: Vec<&Rule> = program
            .rules
            .iter()
            .filter(|r| rels.contains(r.head.as_str()))
            .collect();
        match stratum.strategy {
            MaintenanceStrategy::Counting => {
                let mut local: BTreeMap<String, BTreeMap<Vec<Value>, u64>> = BTreeMap::new();
                {
                    let ctx = InitCtx {
                        instance,
                        state: &state,
                        cache: IndexCache::new(),
                    };
                    for rule in &rules {
                        let head = rule.head.clone();
                        let arity = rule.head_args.len() as u64;
                        let entry = local.entry(head).or_default();
                        for_each_firing(rule, None, &|_| Phase::Old, &ctx, gov, &mut |row| {
                            gov.charge_mem("ivm.derive", 8 * arity)?;
                            *entry.entry(row).or_insert(0) += 1;
                            Ok(true)
                        })
                        .map_err(IvmError::Resource)?;
                    }
                }
                for name in &stratum.relations {
                    let facts = local.remove(name).unwrap_or_default();
                    let rel: Relation = facts.keys().cloned().collect();
                    state.insert(name.clone(), rel);
                    counts.insert(name.clone(), facts);
                }
            }
            MaintenanceStrategy::DRed => {
                // semi-naive to fixpoint; no counts for recursive strata
                let mut round: u64 = 0;
                let mut frontier: BTreeMap<String, Relation> = BTreeMap::new();
                // round 0: all rules, same-stratum relations empty
                {
                    let ctx = InitCtx {
                        instance,
                        state: &state,
                        cache: IndexCache::new(),
                    };
                    for rule in &rules {
                        let head = rule.head.clone();
                        let arity = rule.head_args.len() as u64;
                        let entry = frontier.entry(head).or_default();
                        for_each_firing(rule, None, &|_| Phase::Old, &ctx, gov, &mut |row| {
                            gov.charge_mem("ivm.derive", 8 * arity)?;
                            entry.insert(row);
                            Ok(true)
                        })
                        .map_err(IvmError::Resource)?;
                    }
                }
                loop {
                    round += 1;
                    gov.check_iters("ivm.round", round)
                        .map_err(IvmError::Resource)?;
                    // absorb the frontier
                    let mut grew = false;
                    for (name, rows) in &frontier {
                        let rel = state.get_mut(name).expect("declared IDB");
                        for row in rows.iter() {
                            grew |= rel.insert(row.clone());
                        }
                    }
                    if !grew {
                        break;
                    }
                    let mut next: BTreeMap<String, Relation> = BTreeMap::new();
                    {
                        let ctx = InitCtx {
                            instance,
                            state: &state,
                            cache: IndexCache::new(),
                        };
                        for rule in &rules {
                            for (idx, lit) in rule.body.iter().enumerate() {
                                let Literal::Pos(name, _) = lit else { continue };
                                if !rels.contains(name.as_str()) {
                                    continue;
                                }
                                let Some(delta_rows) = frontier.get(name) else {
                                    continue;
                                };
                                if delta_rows.is_empty() {
                                    continue;
                                }
                                let pin = Pin {
                                    lit: idx,
                                    rows: delta_rows,
                                };
                                let head = rule.head.clone();
                                let arity = rule.head_args.len() as u64;
                                let already = &state[&head];
                                let entry = next.entry(head.clone()).or_default();
                                for_each_firing(
                                    rule,
                                    Some(&pin),
                                    &|_| Phase::Old,
                                    &ctx,
                                    gov,
                                    &mut |row| {
                                        if !already.contains(&row) {
                                            gov.charge_mem("ivm.derive", 8 * arity)?;
                                            entry.insert(row);
                                        }
                                        Ok(true)
                                    },
                                )
                                .map_err(IvmError::Resource)?;
                            }
                        }
                    }
                    // drop rows already absorbed
                    for (name, rows) in &mut next {
                        let have = &state[name];
                        *rows = rows.iter().filter(|r| !have.contains(r)).cloned().collect();
                    }
                    next.retain(|_, r| !r.is_empty());
                    if next.is_empty() {
                        break;
                    }
                    frontier = next;
                }
            }
        }
    }
    Ok((state, counts))
}

// ---------------------------------------------------------------------------
// maintenance
// ---------------------------------------------------------------------------

/// Compute `view`'s exact post-delta change, stratum by stratum. Only
/// the changed rows are materialized (plus, for multi-stratum views,
/// the new state of changed relations that later strata read); the
/// caller commits.
fn maintain_view(
    view: &MaintainedView,
    instance: &Instance,
    delta: &BaseDelta,
    base_mid: &BTreeMap<String, Relation>,
    base_new: &BTreeMap<String, Relation>,
    gov: &Governor,
) -> Result<Staged, ResourceError> {
    let mut changes: Vec<(String, Relation, Relation)> = Vec::new();
    let mut count_updates: Vec<(String, Vec<Value>, u64)> = Vec::new();
    // new states of already-maintained view relations, for upper
    // strata's Phase::New reads; unchanged relations fall back to old
    let mut view_new: BTreeMap<String, Relation> = BTreeMap::new();
    // external deltas visible to upper strata: base mutations plus the
    // view-relation changes computed so far in this call
    let mut ext: ExtDeltas = BTreeMap::new();
    for (rel, rows) in &delta.add {
        ext.entry(rel.clone()).or_default().0 = rows.clone();
    }
    for (rel, rows) in &delta.del {
        ext.entry(rel.clone()).or_default().1 = rows.clone();
    }
    let n_strata = view.plan.strata.len();
    for (si, stratum) in view.plan.strata.iter().enumerate() {
        let rules = view.rules_for_stratum(stratum);
        // does any rule read a changed external relation?
        let touched = rules.iter().any(|r| {
            r.body.iter().any(|l| match l {
                Literal::Pos(name, _) | Literal::Neg(name, _) => ext
                    .get(name)
                    .is_some_and(|(a, d)| !a.is_empty() || !d.is_empty()),
                _ => false,
            })
        });
        if !touched {
            continue;
        }
        let stratum_rels: BTreeSet<String> = stratum.relations.iter().cloned().collect();
        let mut view_mid = BTreeMap::new();
        for (rel, (_, del)) in &ext {
            if view.state.contains_key(rel) && !del.is_empty() {
                let mut mid = view.state[rel].clone();
                for row in del.iter() {
                    mid.remove(row);
                }
                view_mid.insert(rel.clone(), mid);
            }
        }
        let mut ctx = MaintCtx {
            base_old: instance,
            base_mid,
            base_new,
            view_old: &view.state,
            view_new: &view_new,
            view_mid,
            overlay: BTreeMap::new(),
            stratum_rels,
            cache: IndexCache::new(),
        };
        let rel_changes = match stratum.strategy {
            MaintenanceStrategy::Counting => {
                let (rels, counts) = maintain_counting(view, stratum, &rules, &ctx, &ext, gov)?;
                count_updates.extend(counts);
                rels
            }
            MaintenanceStrategy::DRed => maintain_dred(stratum, &rules, &mut ctx, &ext, gov)?,
        };
        drop(ctx);
        for (name, (add, del)) in rel_changes {
            if add.is_empty() && del.is_empty() {
                continue;
            }
            if si + 1 < n_strata {
                // later strata read this relation at Phase::New
                let mut new = view.state[&name].clone();
                for row in del.iter() {
                    new.remove(row);
                }
                for row in add.iter() {
                    new.insert(row.clone());
                }
                view_new.insert(name.clone(), new);
            }
            let slot = ext.entry(name.clone()).or_default();
            slot.0 = add.clone();
            slot.1 = del.clone();
            changes.push((name, add, del));
        }
    }
    Ok(Staged {
        changes,
        count_updates,
        steps: 0,
    })
}

/// Counting maintenance for one non-recursive stratum: the signed
/// telescoping sum over body positions, applied to the derivation
/// counts. Returns the stratum's exact per-relation (add, del) change
/// and the count updates to commit — O(change), never a rebuild.
#[allow(clippy::type_complexity)]
fn maintain_counting(
    view: &MaintainedView,
    stratum: &StratumPlan,
    rules: &[&Rule],
    ctx: &MaintCtx<'_>,
    ext: &ExtDeltas,
    gov: &Governor,
) -> Result<
    (
        BTreeMap<String, (Relation, Relation)>,
        Vec<(String, Vec<Value>, u64)>,
    ),
    ResourceError,
> {
    let signed = counting_changes(rules, ctx, ext, gov)?;
    let mut out: BTreeMap<String, (Relation, Relation)> = BTreeMap::new();
    let mut count_updates: Vec<(String, Vec<Value>, u64)> = Vec::new();
    for name in &stratum.relations {
        let counts = view.counts.get(name);
        let (add, del) = out.entry(name.clone()).or_default();
        if let Some(changes) = signed.get(name) {
            for (fact, d) in changes {
                if *d == 0 {
                    continue;
                }
                let cur = counts.and_then(|c| c.get(fact)).copied().unwrap_or(0) as i64;
                let new = cur + d;
                debug_assert!(new >= 0, "derivation count went negative for {name}");
                let new = new.max(0) as u64;
                if cur == 0 && new > 0 {
                    add.insert(fact.clone());
                } else if cur > 0 && new == 0 {
                    del.insert(fact.clone());
                }
                count_updates.push((name.clone(), fact.clone(), new));
            }
        }
    }
    Ok((out, count_updates))
}

/// The signed per-fact derivation-count changes for a set of
/// non-recursive rules under external deltas.
fn counting_changes(
    rules: &[&Rule],
    ctx: &MaintCtx<'_>,
    ext: &ExtDeltas,
    gov: &Governor,
) -> Result<BTreeMap<String, BTreeMap<Vec<Value>, i64>>, ResourceError> {
    let mut signed: BTreeMap<String, BTreeMap<Vec<Value>, i64>> = BTreeMap::new();
    for rule in rules {
        for (idx, lit) in rule.body.iter().enumerate() {
            // literals before the pin read NEW, after it OLD — the
            // telescoping decomposition of (new firings − old firings)
            let phase_of = move |j: usize| if j < idx { Phase::New } else { Phase::Old };
            let pins: Vec<(&Relation, i64)> = match lit {
                Literal::Pos(name, _) => match ext.get(name) {
                    Some((add, del)) => [(add, 1i64), (del, -1i64)].into_iter().collect(),
                    None => continue,
                },
                Literal::Neg(name, _) => match ext.get(name) {
                    // the negation gains del-rows and loses add-rows
                    Some((add, del)) => [(del, 1i64), (add, -1i64)].into_iter().collect(),
                    None => continue,
                },
                _ => continue,
            };
            for (rows, sign) in pins {
                if rows.is_empty() {
                    continue;
                }
                let pin = Pin { lit: idx, rows };
                let entry = signed.entry(rule.head.clone()).or_default();
                for_each_firing(rule, Some(&pin), &phase_of, ctx, gov, &mut |row| {
                    *entry.entry(row).or_insert(0) += sign;
                    Ok(true)
                })?;
            }
        }
    }
    Ok(signed)
}

/// DRed maintenance for one recursive stratum: over-delete →
/// re-derive → insert. Same-stratum working state lives in the
/// context's removed/added overlay against the frozen old view state
/// (so probe indexes over the snapshot survive every round), and the
/// result is the stratum's exact per-relation (add, del) change —
/// O(affected), never a state copy.
fn maintain_dred(
    stratum: &StratumPlan,
    rules: &[&Rule],
    ctx: &mut MaintCtx<'_>,
    ext: &ExtDeltas,
    gov: &Governor,
) -> Result<BTreeMap<String, (Relation, Relation)>, ResourceError> {
    let view_old = ctx.view_old;

    // -- phase 1: over-delete --------------------------------------------
    // seed: derivations that used a deleted external row (or a
    // newly-violated negation); same-stratum reads resolve to the old
    // state (no working copy exists yet)
    let mut overdeleted: BTreeMap<String, Relation> = stratum
        .relations
        .iter()
        .map(|r| (r.clone(), Relation::new()))
        .collect();
    let mut frontier: BTreeMap<String, Relation> = overdeleted.clone();
    for rule in rules {
        for (idx, lit) in rule.body.iter().enumerate() {
            let rows = match lit {
                Literal::Pos(name, _) if !ctx.stratum_rels.contains(name.as_str()) => {
                    match ext.get(name) {
                        Some((_, del)) if !del.is_empty() => del,
                        _ => continue,
                    }
                }
                Literal::Neg(name, _) => match ext.get(name) {
                    Some((add, _)) if !add.is_empty() => add,
                    _ => continue,
                },
                _ => continue,
            };
            let pin = Pin { lit: idx, rows };
            let head = rule.head.clone();
            let alive = &view_old[&head];
            let entry = frontier.get_mut(&head).expect("stratum head");
            for_each_firing(rule, Some(&pin), &|_| Phase::Old, ctx, gov, &mut |row| {
                if alive.contains(&row) {
                    entry.insert(row);
                }
                Ok(true)
            })?;
        }
    }
    let mut round: u64 = 0;
    loop {
        frontier.retain(|_, r| !r.is_empty());
        // keep only facts not already over-deleted
        for (name, rows) in &mut frontier {
            let d = &overdeleted[name];
            *rows = rows.iter().filter(|r| !d.contains(r)).cloned().collect();
        }
        frontier.retain(|_, r| !r.is_empty());
        if frontier.is_empty() {
            break;
        }
        round += 1;
        gov.check_iters("ivm.round", round)?;
        for (name, rows) in &frontier {
            overdeleted.get_mut(name).expect("stratum rel").absorb(rows);
        }
        let mut next: BTreeMap<String, Relation> = BTreeMap::new();
        for rule in rules {
            for (idx, lit) in rule.body.iter().enumerate() {
                let Literal::Pos(name, _) = lit else { continue };
                if !ctx.stratum_rels.contains(name.as_str()) {
                    continue;
                }
                let Some(delta_rows) = frontier.get(name) else {
                    continue;
                };
                if delta_rows.is_empty() {
                    continue;
                }
                let pin = Pin {
                    lit: idx,
                    rows: delta_rows,
                };
                let head = rule.head.clone();
                let alive = &view_old[&head];
                let already = &overdeleted[&head];
                let entry = next.entry(head.clone()).or_default();
                for_each_firing(rule, Some(&pin), &|_| Phase::Old, ctx, gov, &mut |row| {
                    if alive.contains(&row) && !already.contains(&row) {
                        entry.insert(row);
                    }
                    Ok(true)
                })?;
            }
        }
        frontier = next;
    }

    // -- phase 2: re-derive ----------------------------------------------
    // working state: old minus over-deleted, expressed as overlay
    // removals (the frozen snapshot — and its indexes — stay intact);
    // externals read MID
    let mut rederived: BTreeMap<String, Relation> = stratum
        .relations
        .iter()
        .map(|r| (r.clone(), Relation::new()))
        .collect();
    for name in &stratum.relations {
        for row in overdeleted[name].iter() {
            ctx.stratum_remove(name, row);
        }
    }
    let mut round: u64 = 0;
    loop {
        round += 1;
        gov.check_iters("ivm.round", round)?;
        let mut found: Vec<(String, Vec<Value>)> = Vec::new();
        for name in &stratum.relations {
            let dead = &overdeleted[name];
            let back = &rederived[name];
            for fact in dead.iter() {
                if back.contains(fact) {
                    continue;
                }
                for rule in rules.iter().filter(|r| &r.head == name) {
                    if derives(rule, fact, &|_| Phase::Mid, ctx, gov)? {
                        found.push((name.clone(), fact.clone()));
                        break;
                    }
                }
            }
        }
        if found.is_empty() {
            break;
        }
        for (name, fact) in found {
            ctx.stratum_insert(&name, fact.clone());
            rederived.get_mut(&name).expect("stratum rel").insert(fact);
        }
    }

    // -- phase 3: insert propagation -------------------------------------
    // seed: firings that use an added external row (or a newly-satisfied
    // negation), against NEW externals and the current working state
    let mut added: BTreeMap<String, Relation> = stratum
        .relations
        .iter()
        .map(|r| (r.clone(), Relation::new()))
        .collect();
    let mut frontier: BTreeMap<String, Relation> = BTreeMap::new();
    for rule in rules {
        for (idx, lit) in rule.body.iter().enumerate() {
            let rows = match lit {
                Literal::Pos(name, _) if !ctx.stratum_rels.contains(name.as_str()) => {
                    match ext.get(name) {
                        Some((add, _)) if !add.is_empty() => add,
                        _ => continue,
                    }
                }
                Literal::Neg(name, _) => match ext.get(name) {
                    Some((_, del)) if !del.is_empty() => del,
                    _ => continue,
                },
                _ => continue,
            };
            let pin = Pin { lit: idx, rows };
            let head = rule.head.clone();
            let arity = rule.head_args.len() as u64;
            let ctx_ref: &MaintCtx<'_> = ctx;
            let entry = frontier.entry(head.clone()).or_default();
            for_each_firing(
                rule,
                Some(&pin),
                &|_| Phase::New,
                ctx_ref,
                gov,
                &mut |row| {
                    if !ctx_ref.stratum_contains(&head, &row) {
                        gov.charge_mem("ivm.derive", 8 * arity)?;
                        entry.insert(row);
                    }
                    Ok(true)
                },
            )?;
        }
    }
    let mut round: u64 = 0;
    loop {
        frontier.retain(|_, r| !r.is_empty());
        for (name, rows) in &mut frontier {
            *rows = rows
                .iter()
                .filter(|r| !ctx.stratum_contains(name, r))
                .cloned()
                .collect();
        }
        frontier.retain(|_, r| !r.is_empty());
        if frontier.is_empty() {
            break;
        }
        round += 1;
        gov.check_iters("ivm.round", round)?;
        for (name, rows) in &frontier {
            for row in rows.iter() {
                ctx.stratum_insert(name, row.clone());
            }
            added.get_mut(name).expect("stratum rel").absorb(rows);
        }
        let mut next: BTreeMap<String, Relation> = BTreeMap::new();
        for rule in rules {
            for (idx, lit) in rule.body.iter().enumerate() {
                let Literal::Pos(name, _) = lit else { continue };
                if !ctx.stratum_rels.contains(name.as_str()) {
                    continue;
                }
                let Some(delta_rows) = frontier.get(name) else {
                    continue;
                };
                if delta_rows.is_empty() {
                    continue;
                }
                let pin = Pin {
                    lit: idx,
                    rows: delta_rows,
                };
                let head = rule.head.clone();
                let arity = rule.head_args.len() as u64;
                let ctx_ref: &MaintCtx<'_> = ctx;
                let entry = next.entry(head.clone()).or_default();
                for_each_firing(
                    rule,
                    Some(&pin),
                    &|_| Phase::New,
                    ctx_ref,
                    gov,
                    &mut |row| {
                        if !ctx_ref.stratum_contains(&head, &row) {
                            gov.charge_mem("ivm.derive", 8 * arity)?;
                            entry.insert(row);
                        }
                        Ok(true)
                    },
                )?;
            }
        }
        frontier = next;
    }

    // -- net change -------------------------------------------------------
    // del = over-deleted, not re-derived, not re-added; add = genuinely
    // new rows (an over-deleted row re-added by an insertion nets out)
    let mut out: BTreeMap<String, (Relation, Relation)> = BTreeMap::new();
    for name in &stratum.relations {
        let old = &view_old[name];
        let adds = &added[name];
        let net_add: Relation = adds.iter().filter(|r| !old.contains(r)).cloned().collect();
        let net_del: Relation = overdeleted[name]
            .iter()
            .filter(|r| !rederived[name].contains(r) && !adds.contains(r))
            .cloned()
            .collect();
        out.insert(name.clone(), (net_add, net_del));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use minipool::ThreadPool;
    use no_datalog::eval_stratified_pooled;
    use no_object::{RelationSchema, Schema, Type};

    fn graph(edges: &[(&str, &str)]) -> (Universe, Instance) {
        let mut u = Universe::new();
        let schema =
            Schema::from_relations([RelationSchema::new("G", vec![Type::Atom, Type::Atom])]);
        let mut i = Instance::empty(schema);
        for (a, b) in edges {
            let row = vec![Value::Atom(u.intern(a)), Value::Atom(u.intern(b))];
            i.insert("G", row);
        }
        (u, i)
    }

    fn edge(u: &mut Universe, a: &str, b: &str) -> Vec<Value> {
        vec![Value::Atom(u.intern(a)), Value::Atom(u.intern(b))]
    }

    const TC_SRC: &str = "rel tc(U, U).\n\
        tc(x, y) :- G(x, y).\n\
        tc(x, y) :- tc(x, z), G(z, y).\n";

    const HOP_SRC: &str = "rel hop(U, U).\nhop(x, z) :- G(x, y), G(y, z).\n";

    const UNREACH_SRC: &str = "rel tc(U, U).\nrel node(U).\nrel unreach(U, U).\n\
        node(x) :- G(x, y).\n\
        node(y) :- G(x, y).\n\
        tc(x, y) :- G(x, y).\n\
        tc(x, y) :- tc(x, z), G(z, y).\n\
        unreach(x, y) :- node(x), node(y), !tc(x, y).\n";

    /// The maintained state must equal a from-scratch stratified
    /// evaluation of the same program on the post-delta instance.
    fn assert_matches_recompute(view: &MaintainedView, instance: &Instance) {
        let pool = ThreadPool::sequential();
        let oracle =
            eval_stratified_pooled(&view.program, instance, &Governor::default(), &pool).unwrap();
        for (rel, rows) in &view.state {
            assert_eq!(
                rows, &oracle[rel],
                "maintained {rel} diverged from recomputation"
            );
        }
    }

    #[test]
    fn maintained_tc_tracks_inserts_and_deletes() {
        let (mut u, mut inst) = graph(&[("a", "b"), ("b", "c")]);
        let gov = Governor::unlimited();
        let mut reg = ViewRegistry::new();
        reg.materialize("v", TC_SRC, &mut u, &inst, &gov).unwrap();
        assert_matches_recompute(reg.get("v").unwrap(), &inst);

        // insert c→d: paths extend
        let mut d = BaseDelta::new();
        d.insert("G", edge(&mut u, "c", "d"));
        let deltas = reg.maintain(&inst, &d, &gov).unwrap();
        d.apply(&mut inst);
        assert_matches_recompute(reg.get("v").unwrap(), &inst);
        assert!(deltas["v"].add["tc"].contains(&edge(&mut u, "a", "d")));

        // delete the middle edge: most paths die
        let mut d = BaseDelta::new();
        d.delete("G", edge(&mut u, "b", "c"));
        let deltas = reg.maintain(&inst, &d, &gov).unwrap();
        d.apply(&mut inst);
        assert_matches_recompute(reg.get("v").unwrap(), &inst);
        assert!(deltas["v"].del["tc"].contains(&edge(&mut u, "a", "c")));
    }

    #[test]
    fn dred_keeps_facts_with_alternative_derivations() {
        // two paths a→…→d; deleting one keeps tc(a, d)
        let (mut u, mut inst) = graph(&[("a", "b"), ("b", "d"), ("a", "c"), ("c", "d")]);
        let gov = Governor::unlimited();
        let mut reg = ViewRegistry::new();
        reg.materialize("v", TC_SRC, &mut u, &inst, &gov).unwrap();
        let mut d = BaseDelta::new();
        d.delete("G", edge(&mut u, "b", "d"));
        let deltas = reg.maintain(&inst, &d, &gov).unwrap();
        d.apply(&mut inst);
        let ad = edge(&mut u, "a", "d");
        assert!(reg.get("v").unwrap().relation("tc").unwrap().contains(&ad));
        assert!(!deltas["v"].del.contains_key("tc") || !deltas["v"].del["tc"].contains(&ad));
        assert_matches_recompute(reg.get("v").unwrap(), &inst);
    }

    #[test]
    fn dred_never_resurrects_a_sole_derivation() {
        let (mut u, mut inst) = graph(&[("a", "b"), ("b", "c"), ("c", "a")]);
        let gov = Governor::unlimited();
        let mut reg = ViewRegistry::new();
        reg.materialize("v", TC_SRC, &mut u, &inst, &gov).unwrap();
        // the cycle supports everything; cutting it kills the whole closure
        let mut d = BaseDelta::new();
        d.delete("G", edge(&mut u, "c", "a"));
        reg.maintain(&inst, &d, &gov).unwrap();
        d.apply(&mut inst);
        assert_matches_recompute(reg.get("v").unwrap(), &inst);
        let tc = reg.get("v").unwrap().relation("tc").unwrap();
        assert!(
            !tc.contains(&edge(&mut u, "c", "b")),
            "resurrected via dead cycle"
        );
    }

    #[test]
    fn counting_survives_shared_support() {
        // hop(a, c) has two witnesses (via b1 and b2); deleting one keeps it
        let (mut u, mut inst) = graph(&[("a", "b1"), ("b1", "c"), ("a", "b2"), ("b2", "c")]);
        let gov = Governor::unlimited();
        let mut reg = ViewRegistry::new();
        reg.materialize("v", HOP_SRC, &mut u, &inst, &gov).unwrap();
        let ac = edge(&mut u, "a", "c");
        assert_eq!(reg.get("v").unwrap().counts["hop"][&ac], 2);

        let mut d = BaseDelta::new();
        d.delete("G", edge(&mut u, "a", "b1"));
        let deltas = reg.maintain(&inst, &d, &gov).unwrap();
        d.apply(&mut inst);
        assert!(deltas["v"].is_empty() || !deltas["v"].del.contains_key("hop"));
        assert!(reg.get("v").unwrap().relation("hop").unwrap().contains(&ac));
        assert_eq!(reg.get("v").unwrap().counts["hop"][&ac], 1);
        assert_matches_recompute(reg.get("v").unwrap(), &inst);

        // deleting the second witness kills the fact
        let mut d = BaseDelta::new();
        d.delete("G", edge(&mut u, "a", "b2"));
        let deltas = reg.maintain(&inst, &d, &gov).unwrap();
        d.apply(&mut inst);
        assert!(deltas["v"].del["hop"].contains(&ac));
        assert_matches_recompute(reg.get("v").unwrap(), &inst);
    }

    #[test]
    fn stratified_negation_views_maintain_exactly() {
        let (mut u, mut inst) = graph(&[("a", "b"), ("b", "c")]);
        let gov = Governor::unlimited();
        let mut reg = ViewRegistry::new();
        reg.materialize("v", UNREACH_SRC, &mut u, &inst, &gov)
            .unwrap();
        assert_matches_recompute(reg.get("v").unwrap(), &inst);

        // closing the cycle makes everything reachable
        let mut d = BaseDelta::new();
        d.insert("G", edge(&mut u, "c", "a"));
        reg.maintain(&inst, &d, &gov).unwrap();
        d.apply(&mut inst);
        assert_matches_recompute(reg.get("v").unwrap(), &inst);

        // and cutting it back restores unreachability
        let mut d = BaseDelta::new();
        d.delete("G", edge(&mut u, "b", "c"));
        d.insert("G", edge(&mut u, "c", "c"));
        reg.maintain(&inst, &d, &gov).unwrap();
        d.apply(&mut inst);
        assert_matches_recompute(reg.get("v").unwrap(), &inst);
    }

    #[test]
    fn mixed_batches_with_cancellation_maintain_exactly() {
        let (mut u, mut inst) = graph(&[("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")]);
        let gov = Governor::unlimited();
        let mut reg = ViewRegistry::new();
        reg.materialize("t", TC_SRC, &mut u, &inst, &gov).unwrap();
        reg.materialize("h", HOP_SRC, &mut u, &inst, &gov).unwrap();
        let mut d = BaseDelta::new();
        d.delete("G", edge(&mut u, "b", "c"));
        d.insert("G", edge(&mut u, "b", "d"));
        d.insert("G", edge(&mut u, "e", "a"));
        d.delete("G", edge(&mut u, "e", "a")); // cancels in-batch
        reg.maintain(&inst, &d, &gov).unwrap();
        d.apply(&mut inst);
        assert_matches_recompute(reg.get("t").unwrap(), &inst);
        assert_matches_recompute(reg.get("h").unwrap(), &inst);
    }

    #[test]
    fn governor_trip_rolls_back_cleanly() {
        let (mut u, mut inst) = graph(&[("a", "b"), ("b", "c"), ("c", "d")]);
        let gov = Governor::unlimited();
        let mut reg = ViewRegistry::new();
        reg.materialize("v", TC_SRC, &mut u, &inst, &gov).unwrap();
        let before: BTreeMap<String, Relation> = reg.get("v").unwrap().state.clone();

        let tight = Governor::new(no_object::Limits {
            max_steps: 3,
            ..no_object::Limits::unlimited()
        });
        let mut d = BaseDelta::new();
        d.insert("G", edge(&mut u, "d", "e"));
        let err = reg.maintain(&inst, &d, &tight).unwrap_err();
        assert!(matches!(err, IvmError::Resource(_)));
        // nothing committed: the view still matches the PRE-delta base
        assert_eq!(reg.get("v").unwrap().state, before);

        // and a retry with budget succeeds from the consistent state
        reg.maintain(&inst, &d, &gov).unwrap();
        d.apply(&mut inst);
        assert_matches_recompute(reg.get("v").unwrap(), &inst);
    }

    #[test]
    fn maintenance_steps_are_accounted_per_view() {
        let (mut u, mut inst) = graph(&[("a", "b"), ("b", "c")]);
        let gov = Governor::unlimited();
        let mut reg = ViewRegistry::new();
        reg.materialize("v", TC_SRC, &mut u, &inst, &gov).unwrap();
        let after_mat = reg.get("v").unwrap().stats.clone();
        assert!(after_mat.steps_total > 0, "materialization charges steps");

        let mut d = BaseDelta::new();
        d.insert("G", edge(&mut u, "c", "d"));
        reg.maintain(&inst, &d, &gov).unwrap();
        d.apply(&mut inst);
        let s = reg.get("v").unwrap().stats.clone();
        assert_eq!(s.maintain_calls, 1);
        assert!(s.steps_last > 0);
        assert_eq!(s.steps_total, after_mat.steps_total + s.steps_last);
    }

    #[test]
    fn untouched_views_skip_work() {
        let mut u = Universe::new();
        let schema = Schema::from_relations([
            RelationSchema::new("G", vec![Type::Atom, Type::Atom]),
            RelationSchema::new("H", vec![Type::Atom, Type::Atom]),
        ]);
        let mut inst = Instance::empty(schema);
        inst.insert(
            "G",
            vec![Value::Atom(u.intern("a")), Value::Atom(u.intern("b"))],
        );
        let gov = Governor::unlimited();
        let mut reg = ViewRegistry::new();
        reg.materialize("v", TC_SRC, &mut u, &inst, &gov).unwrap();
        // a delta on H cannot touch a view over G
        let mut d = BaseDelta::new();
        d.insert(
            "H",
            vec![Value::Atom(u.intern("x")), Value::Atom(u.intern("y"))],
        );
        let deltas = reg.maintain(&inst, &d, &gov).unwrap();
        assert!(deltas["v"].is_empty());
        assert_eq!(reg.get("v").unwrap().stats.steps_last, 0);
    }
}
