//! Range functions and safe evaluation (Theorem 5.1).
//!
//! For a range-restricted formula, Theorem 5.1 constructs, per variable, a
//! *range function* computable in LOGSPACE/PTIME/PSPACE such that the
//! restricted-domain interpretation with those ranges coincides with the
//! active-domain interpretation. This module computes the ranges eagerly
//! on a given instance, mirroring the inference rules of
//! [`crate::rr`] case by case:
//!
//! * rule 1 → column projections of database relations;
//! * rule 2/3 → component projection / product of component ranges;
//! * rule 4 → range transfer across `=` and `∈`, singletons for constants;
//! * rule 5/6 → union across conjuncts, all-branches filter for disjuncts;
//! * rule 7/8 → ranges of `¬φ` in NNF / of the body;
//! * rule 9 → grouping: sets `{y | φ'(y)}` per assignment of the other
//!   free variables of `φ'`;
//! * rule 9′/10 → fixpoint column ranges by the accumulate-until-stable
//!   iteration, and the computed fixpoint relation as a singleton range.
//!
//! [`safe_eval`] ties it together: compute ranges, install them as the
//! restricted-domain semantics, evaluate. For range-restricted queries
//! this avoids enumerating any `dom(T, D)` — the engine never touches the
//! hyperexponential domains (benchmark E10).

use crate::ast::{Fixpoint, Formula, RelName, Term, VarName};
use crate::error::{EvalConfig, EvalError};
use crate::eval::{active_order, Env, Evaluator, Query, RangeMap};
use crate::rr::VarPath;
use crate::typeck;
use no_object::governor::Governor;
use no_object::{Instance, Interner, Relation, SetValue, Type, Value};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

/// Computed ranges: every entry over-approximates the set of values the
/// variable can take in a satisfying assignment.
#[derive(Debug, Clone, Default)]
pub struct Ranges {
    map: BTreeMap<VarPath, BTreeSet<Value>>,
}

impl Ranges {
    fn get(&self, p: &VarPath) -> Option<&BTreeSet<Value>> {
        self.map.get(p)
    }

    fn add(&mut self, p: VarPath, values: impl IntoIterator<Item = Value>) {
        self.map.entry(p).or_default().extend(values);
    }

    fn merge(&mut self, other: Ranges) {
        for (p, vs) in other.map {
            self.map.entry(p).or_default().extend(vs);
        }
    }

    fn total_values(&self) -> usize {
        self.map.values().map(BTreeSet::len).sum()
    }

    /// The range of a bare variable, if computed.
    pub fn of_var(&self, name: &str) -> Option<&BTreeSet<Value>> {
        self.map.get(&VarPath::root(name))
    }

    /// Convert to the evaluator's [`RangeMap`] (bare variables only —
    /// projections are consequences of the root ranges).
    pub fn to_range_map(&self) -> RangeMap {
        self.map
            .iter()
            .filter(|(p, _)| p.path.is_empty())
            .map(|(p, vs)| (p.root.clone(), vs.iter().cloned().collect()))
            .collect()
    }

    /// Iterate over all computed (path, range) pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&VarPath, &BTreeSet<Value>)> {
        self.map.iter()
    }
}

/// Per-column ranges of a fixpoint relation; `None` = not restricted.
type FixCols = Vec<Option<BTreeSet<Value>>>;

struct Ctx<'a> {
    instance: &'a Instance,
    /// Reads the ids of the instance's cached tables (rule 1).
    int: Interner,
    var_types: BTreeMap<VarName, Type>,
    /// The shared budget: range analysis, its nested evaluators, and the
    /// final evaluation all draw from this one governor.
    governor: Governor,
    /// Per-column ranges for fixpoint relations in scope; `None` = the
    /// column is not range restricted.
    fix_scope: Vec<(RelName, FixCols)>,
    /// Stable column ranges per fixpoint (`Arc` pointer identity), kept
    /// with the fixpoint so column variable names can be resolved later.
    fix_ranges: HashMap<usize, (Arc<Fixpoint>, FixCols)>,
}

impl Ctx<'_> {
    /// Rule 1's range: the distinct values of column `j` of a stored
    /// relation, read from its cached id table and resolved once each.
    fn column_values(&self, name: &str, j: usize) -> Vec<Value> {
        let table = self.instance.id_table(name);
        table
            .distinct_ids(j)
            .into_iter()
            .map(|id| self.int.resolve(id))
            .collect()
    }

    fn budget_check(&self, r: &Ranges) -> Result<(), EvalError> {
        self.governor
            .check_range("ranges.width", r.total_values() as u64)
            .map_err(EvalError::from)
    }
}

/// Compute ranges for all range-restricted variables of `formula` on
/// `instance`. `var_types` must cover every variable (from
/// [`crate::typeck::check`]).
pub fn compute_ranges(
    instance: &Instance,
    var_types: &BTreeMap<VarName, Type>,
    formula: &Formula,
    config: &EvalConfig,
) -> Result<Ranges, EvalError> {
    compute_ranges_governed(instance, var_types, formula, &config.governor())
}

/// As [`compute_ranges`], but drawing from an existing shared
/// [`Governor`] instead of starting a fresh budget.
pub fn compute_ranges_governed(
    instance: &Instance,
    var_types: &BTreeMap<VarName, Type>,
    formula: &Formula,
    governor: &Governor,
) -> Result<Ranges, EvalError> {
    let mut ctx = Ctx {
        instance,
        int: instance.overlay(),
        var_types: var_types.clone(),
        governor: governor.clone(),
        fix_scope: Vec::new(),
        fix_ranges: HashMap::new(),
    };
    let mut r = ranges(&mut ctx, formula)?;
    // Surface fixpoint column ranges under their column variable names so
    // the evaluator restricts the fixpoint's own iteration too (the paper's
    // variable convention makes column names globally unique).
    for (fix, cols) in ctx.fix_ranges.into_values() {
        for ((v, _), col) in fix.vars.iter().zip(&cols) {
            if let Some(col) = col {
                r.add(VarPath::root(v.clone()), col.iter().cloned());
            }
        }
    }
    Ok(r)
}

/// Compute ranges and evaluate the query under the restricted-domain
/// semantics — the executable content of Theorem 5.1.
///
/// Variables without a computed range fall back to their active domains,
/// so the call is *always* semantically equivalent to [`crate::eval::eval_query_with`]
/// for range-restricted queries, and merely slower (never wrong) otherwise.
pub fn safe_eval(
    instance: &Instance,
    query: &Query,
    config: EvalConfig,
) -> Result<Relation, EvalError> {
    safe_eval_governed(instance, query, &config.governor())
}

/// As [`safe_eval`], but drawing from an existing shared [`Governor`] so
/// the whole pipeline — range analysis (including any nested evaluation it
/// performs) and the final restricted-domain evaluation — shares one
/// budget with the caller.
pub fn safe_eval_governed(
    instance: &Instance,
    query: &Query,
    governor: &Governor,
) -> Result<Relation, EvalError> {
    safe_eval_pooled(
        instance,
        query,
        governor,
        &minipool::ThreadPool::sequential(),
    )
}

/// As [`safe_eval_governed`], with a worker pool for the final enumeration
/// pass. Range *analysis* stays sequential (it is a cheap static pass over
/// the formula plus small auxiliary evaluations); only the satisfaction
/// enumeration over the computed ranges is chunked across workers. A
/// sequential pool reproduces [`safe_eval_governed`] exactly.
pub fn safe_eval_pooled(
    instance: &Instance,
    query: &Query,
    governor: &Governor,
    pool: &minipool::ThreadPool,
) -> Result<Relation, EvalError> {
    let checked = typeck::check(instance.schema(), &query.head, &query.body)
        .map_err(|e| EvalError::ShapeError(e.to_string()))?;
    let governor = governor.clone();
    let ranges = compute_ranges_governed(instance, &checked.var_types, &query.body, &governor)?;
    let order = active_order(instance, query);
    let mut ev = Evaluator::with_governor(instance, order, governor)
        .with_ranges(ranges.to_range_map())
        .with_pool(pool.clone());
    ev.query(query)
}

fn ranges(ctx: &mut Ctx<'_>, f: &Formula) -> Result<Ranges, EvalError> {
    ctx.governor.tick("ranges.analyze")?;
    let mut out = match f {
        Formula::Rel(name, args) => {
            let mut out = Ranges::default();
            let fix_cols = ctx
                .fix_scope
                .iter()
                .rev()
                .find(|(n, _)| n == name)
                .map(|(_, cols)| cols.clone());
            for (j, arg) in args.iter().enumerate() {
                let Some(p) = VarPath::of_term(arg) else {
                    continue;
                };
                match &fix_cols {
                    Some(cols) => {
                        if let Some(Some(vs)) = cols.get(j) {
                            out.add(p, vs.iter().cloned());
                        }
                    }
                    None => {
                        if ctx.instance.schema().get(name).is_some() {
                            out.add(p, ctx.column_values(name, j));
                        }
                    }
                }
            }
            out
        }
        Formula::Eq(a, b) => {
            let mut out = Ranges::default();
            match (a, b) {
                (t, Term::Const(c)) | (Term::Const(c), t) => {
                    if let Some(p) = VarPath::of_term(t) {
                        out.add(p, [c.clone()]);
                    }
                }
                _ => {}
            }
            for (t, other) in [(a, b), (b, a)] {
                if let Term::Fix(fix) = other {
                    let cols = fix_column_ranges(ctx, fix)?;
                    if cols.iter().all(Option::is_some) {
                        if let Some(p) = VarPath::of_term(t) {
                            let rel = eval_fix_with_cols(ctx, fix, &cols)?;
                            let set = fix_relation_to_set(&rel);
                            out.add(p, [set]);
                        }
                    }
                }
            }
            out
        }
        Formula::In(a, b) => {
            let mut out = Ranges::default();
            if let Term::Fix(fix) = b {
                let cols = fix_column_ranges(ctx, fix)?;
                if cols.iter().all(Option::is_some) {
                    if let Some(p) = VarPath::of_term(a) {
                        let rel = eval_fix_with_cols(ctx, fix, &cols)?;
                        if let Value::Set(s) = fix_relation_to_set(&rel) {
                            out.add(p, s.iter().cloned());
                        }
                    }
                }
            }
            out
        }
        Formula::Subset(..) => Ranges::default(),
        Formula::Not(g) => {
            // no ranges through bare negation; still walk for fixpoints
            let _ = ranges(ctx, g)?;
            Ranges::default()
        }
        Formula::And(parts) => {
            let mut out = Ranges::default();
            for p in parts {
                out.merge(ranges(ctx, p)?);
            }
            // rule 4 saturation across conjuncts
            loop {
                let before = out.total_values();
                for part in parts {
                    match part {
                        Formula::Eq(a, b) => {
                            for (x, y) in [(a, b), (b, a)] {
                                if let (Some(px), Some(py)) =
                                    (VarPath::of_term(x), VarPath::of_term(y))
                                {
                                    if let Some(vs) = out.get(&py).cloned() {
                                        out.add(px, vs);
                                    }
                                }
                            }
                        }
                        Formula::In(a, b) => {
                            if let (Some(pa), Some(pb)) = (VarPath::of_term(a), VarPath::of_term(b))
                            {
                                if let Some(vs) = out.get(&pb).cloned() {
                                    let elems: Vec<Value> = vs
                                        .iter()
                                        .filter_map(|v| match v {
                                            Value::Set(s) => Some(s.iter().cloned()),
                                            _ => None,
                                        })
                                        .flatten()
                                        .collect();
                                    out.add(pa, elems);
                                }
                            }
                        }
                        _ => {}
                    }
                }
                saturate_projection_ranges(ctx, &mut out)?;
                ctx.budget_check(&out)?;
                if out.total_values() == before {
                    break;
                }
            }
            out
        }
        Formula::Or(parts) => {
            let part_ranges: Vec<Ranges> = parts
                .iter()
                .map(|p| ranges(ctx, p))
                .collect::<Result<_, _>>()?;
            let part_vars: Vec<BTreeSet<VarName>> = parts.iter().map(crate::rr::all_vars).collect();
            let mut out = Ranges::default();
            let candidates: BTreeSet<VarPath> = part_ranges
                .iter()
                .flat_map(|r| r.map.keys().cloned())
                .collect();
            for p in candidates {
                let ok = parts.iter().enumerate().all(|(i, _)| {
                    !part_vars[i].contains(&p.root) || part_ranges[i].get(&p).is_some()
                });
                if ok {
                    for r in &part_ranges {
                        if let Some(vs) = r.get(&p) {
                            out.add(p.clone(), vs.iter().cloned());
                        }
                    }
                }
            }
            out
        }
        Formula::Implies(..) | Formula::Iff(..) => {
            for c in f.children() {
                let _ = ranges(ctx, c)?;
            }
            Ranges::default()
        }
        Formula::Exists(_, _, g) => ranges(ctx, g)?,
        Formula::Forall(y, _, g) => {
            let mut out = Ranges::default();
            // rule 9: ∀y (y ∈ s ⇔ φ'(y))
            if let Formula::Iff(lhs, rhs) = g.as_ref() {
                for (mem, phi) in [(lhs, rhs), (rhs, lhs)] {
                    if let Formula::In(a, b) = mem.as_ref() {
                        if VarPath::of_term(a) == Some(VarPath::root(y.clone())) {
                            if let Some(set_path) = VarPath::of_term(b) {
                                if let Some(r) = grouping_range(ctx, y, phi)? {
                                    out.add(set_path, r);
                                }
                            }
                        }
                    }
                }
            }
            // rule 7: of the ranges of ¬g, only the bound variable's may
            // be exported — outside range(y in ¬g) the body holds
            // automatically, so the quantifier may be soundly restricted.
            // For a *free* variable x the polarity is inverted: outside
            // ranges(¬g)[x] the formula is certainly TRUE, so propagating
            // its entry upward would wrongly shrink enclosing quantifiers
            // (unsoundness caught by the cross-engine differential suite).
            let pushed = Formula::Not(g.clone()).negation_normal_form();
            let inner = ranges(ctx, &pushed)?;
            for (p, vs) in inner.iter() {
                if p.root == *y {
                    out.add(p.clone(), vs.iter().cloned());
                }
            }
            out
        }
        Formula::FixApp(fix, args) => {
            let cols = fix_column_ranges(ctx, fix)?;
            let mut out = Ranges::default();
            for (j, arg) in args.iter().enumerate() {
                if let Some(Some(vs)) = cols.get(j) {
                    if let Some(p) = VarPath::of_term(arg) {
                        out.add(p, vs.iter().cloned());
                    }
                }
            }
            out
        }
    };
    saturate_projection_ranges(ctx, &mut out)?;
    ctx.budget_check(&out)?;
    Ok(out)
}

/// Rules 2 and 3 over concrete ranges: project tuple ranges onto
/// components, and build tuple ranges as products of complete component
/// ranges.
fn saturate_projection_ranges(ctx: &Ctx<'_>, out: &mut Ranges) -> Result<(), EvalError> {
    loop {
        let before = out.total_values();
        // rule 2: project
        let snapshot: Vec<(VarPath, BTreeSet<Value>)> = out
            .map
            .iter()
            .map(|(p, v)| (p.clone(), v.clone()))
            .collect();
        for (p, vs) in &snapshot {
            if let Some(Type::Tuple(ts)) = p.type_in(&ctx.var_types) {
                for i in 1..=ts.len() {
                    let projected: Vec<Value> =
                        vs.iter().filter_map(|v| v.project(i).cloned()).collect();
                    out.add(p.child(i), projected);
                }
            }
        }
        // rule 3: product of complete component ranges
        let prefixes: BTreeSet<VarPath> = out
            .map
            .keys()
            .filter(|p| !p.path.is_empty())
            .map(|p| VarPath {
                root: p.root.clone(),
                path: p.path[..p.path.len() - 1].to_vec(),
            })
            .collect();
        for p in prefixes {
            if out.get(&p).is_some() {
                continue;
            }
            let Some(Type::Tuple(ts)) = p.type_in(&ctx.var_types) else {
                continue;
            };
            let comps: Option<Vec<&BTreeSet<Value>>> =
                (1..=ts.len()).map(|i| out.get(&p.child(i))).collect();
            if let Some(comps) = comps {
                let size: usize = comps.iter().map(|c| c.len()).product();
                ctx.governor.check_range("ranges.product", size as u64)?;
                let mut tuples: Vec<Value> = vec![];
                build_product(&comps, &mut Vec::new(), &mut tuples);
                out.add(p, tuples);
            }
        }
        if out.total_values() == before {
            return Ok(());
        }
    }
}

fn build_product(comps: &[&BTreeSet<Value>], acc: &mut Vec<Value>, out: &mut Vec<Value>) {
    match comps.split_first() {
        None => out.push(Value::Tuple(acc.clone())),
        Some((first, rest)) => {
            for v in first.iter() {
                acc.push(v.clone());
                build_product(rest, acc, out);
                acc.pop();
            }
        }
    }
}

/// Rule 9's range: the grouping sets `{y | φ'(y, ν)}` for every assignment
/// `ν` of the other free variables of `φ'` over *their* ranges. Returns
/// `None` when some other free variable has no computable range (the
/// conservative fallback — see module docs).
fn grouping_range(
    ctx: &mut Ctx<'_>,
    y: &str,
    phi: &Formula,
) -> Result<Option<Vec<Value>>, EvalError> {
    let inner = ranges(ctx, phi)?;
    let Some(y_range) = inner.of_var(y).cloned() else {
        return Ok(None);
    };
    let others: Vec<VarName> = phi.free_vars().into_iter().filter(|v| v != y).collect();
    let mut other_ranges: Vec<(VarName, Vec<Value>)> = Vec::new();
    for v in &others {
        match inner.of_var(v) {
            Some(r) => other_ranges.push((v.clone(), r.iter().cloned().collect())),
            None => return Ok(None),
        }
    }
    let combos: u64 = other_ranges.iter().map(|(_, r)| r.len() as u64).product();
    ctx.governor.check_range("ranges.grouping", combos)?;
    // evaluate φ' per assignment
    let order = {
        let mut atoms = ctx.instance.atoms();
        crate::eval::formula_atoms(phi, &mut atoms);
        no_object::AtomOrder::new(atoms.into_iter().collect())
    };
    let mut results = Vec::new();
    let mut assignment = Vec::new();
    enumerate_assignments(
        ctx,
        &order,
        phi,
        y,
        &y_range,
        &other_ranges,
        &mut assignment,
        &mut results,
    )?;
    Ok(Some(results))
}

#[allow(clippy::too_many_arguments)]
fn enumerate_assignments(
    ctx: &Ctx<'_>,
    order: &no_object::AtomOrder,
    phi: &Formula,
    y: &str,
    y_range: &BTreeSet<Value>,
    others: &[(VarName, Vec<Value>)],
    assignment: &mut Vec<(VarName, Value)>,
    out: &mut Vec<Value>,
) -> Result<(), EvalError> {
    match others.split_first() {
        Some(((v, range), rest)) => {
            for val in range {
                assignment.push((v.clone(), val.clone()));
                enumerate_assignments(ctx, order, phi, y, y_range, rest, assignment, out)?;
                assignment.pop();
            }
            Ok(())
        }
        None => {
            let mut ev =
                Evaluator::with_governor(ctx.instance, order.clone(), ctx.governor.clone());
            let mut env = Env::new();
            for (v, val) in assignment.iter() {
                env.push(v.clone(), val.clone());
            }
            let mut members = Vec::new();
            for yv in y_range {
                env.push(y.to_string(), yv.clone());
                let sat = ev.holds(phi, &mut env);
                env.pop();
                if sat? {
                    members.push(yv.clone());
                }
            }
            out.push(Value::Set(SetValue::from_values(members)));
            Ok(())
        }
    }
}

/// Rule 10: per-column ranges of a fixpoint relation, by iterating the
/// body's range analysis with the previous column classification until
/// stable. Columns start as `Some(∅)` (the paper's `r^0` treats `S` as
/// empty) and may degrade to `None` when their variable loses its range.
fn fix_column_ranges(ctx: &mut Ctx<'_>, fix: &Arc<Fixpoint>) -> Result<FixCols, EvalError> {
    let key = Arc::as_ptr(fix) as usize;
    if let Some((_, cols)) = ctx.fix_ranges.get(&key) {
        return Ok(cols.clone());
    }
    for (v, t) in &fix.vars {
        ctx.var_types.insert(v.clone(), t.clone());
    }
    let mut cols: FixCols = vec![Some(BTreeSet::new()); fix.vars.len()];
    // The iteration is monotone (column sets only grow, restricted columns
    // only get demoted to None), so it converges; the bound is a defensive
    // cut-off for adversarial nesting depth. A *non*-converged range would
    // under-approximate — unsound — so on cut-off every column falls back
    // to `None` (active domain), which is always sound.
    let max_iters = 16 * fix.vars.len() + 64;
    let mut converged = false;
    for _ in 0..max_iters {
        ctx.fix_scope.push((fix.rel.clone(), cols.clone()));
        let body_ranges = ranges(ctx, &fix.body);
        ctx.fix_scope.pop();
        let body_ranges = body_ranges?;
        let next: FixCols = fix
            .vars
            .iter()
            .zip(&cols)
            .map(|((v, _), old)| match (old, body_ranges.of_var(v)) {
                (Some(_), Some(r)) => Some(r.clone()),
                _ => None,
            })
            .collect();
        if next == cols {
            converged = true;
            break;
        }
        cols = next;
    }
    if !converged {
        cols = vec![None; fix.vars.len()];
    }
    ctx.fix_ranges.insert(key, (Arc::clone(fix), cols.clone()));
    Ok(cols)
}

/// Evaluate a fixpoint relation with its column ranges installed (used by
/// rule 9′ to produce the singleton `{IFP(φ(S), S)}`).
fn eval_fix_with_cols(
    ctx: &Ctx<'_>,
    fix: &Arc<Fixpoint>,
    cols: &[Option<BTreeSet<Value>>],
) -> Result<Relation, EvalError> {
    let mut range_map = RangeMap::new();
    for ((v, _), col) in fix.vars.iter().zip(cols) {
        if let Some(col) = col {
            range_map.insert(v.clone(), col.iter().cloned().collect());
        }
    }
    let mut atoms = ctx.instance.atoms();
    crate::eval::formula_atoms(&fix.body, &mut atoms);
    let order = no_object::AtomOrder::new(atoms.into_iter().collect());
    let mut ev =
        Evaluator::with_governor(ctx.instance, order, ctx.governor.clone()).with_ranges(range_map);
    Ok(ev.eval_fixpoint(fix)?.as_ref().clone())
}

fn fix_relation_to_set(rel: &Relation) -> Value {
    let values = rel.iter().map(|row| match row.as_slice() {
        [single] => single.clone(),
        _ => Value::Tuple(row.clone()),
    });
    Value::Set(SetValue::from_values(values))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::FixOp;
    use crate::eval::eval_query_with;
    use no_object::{RelationSchema, Schema, Universe};

    fn pair_instance(pairs: &[(&str, &str)]) -> (Universe, Instance) {
        let mut u = Universe::new();
        let schema =
            Schema::from_relations([RelationSchema::new("P", vec![Type::Atom, Type::Atom])]);
        let mut i = Instance::empty(schema);
        for (a, b) in pairs {
            let (a, b) = (u.intern(a), u.intern(b));
            i.insert("P", vec![Value::Atom(a), Value::Atom(b)]);
        }
        (u, i)
    }

    fn types_of(i: &Instance, free: &[(&str, Type)], f: &Formula) -> BTreeMap<VarName, Type> {
        let free: Vec<(String, Type)> = free
            .iter()
            .map(|(v, t)| (v.to_string(), t.clone()))
            .collect();
        typeck::check(i.schema(), &free, f).unwrap().var_types
    }

    #[test]
    fn relation_columns_become_ranges() {
        let (_u, i) = pair_instance(&[("a", "b"), ("b", "c")]);
        let f = Formula::Rel("P".into(), vec![Term::var("x"), Term::var("y")]);
        let vt = types_of(&i, &[("x", Type::Atom), ("y", Type::Atom)], &f);
        let r = compute_ranges(&i, &vt, &f, &EvalConfig::default()).unwrap();
        assert_eq!(r.of_var("x").unwrap().len(), 2); // a, b
        assert_eq!(r.of_var("y").unwrap().len(), 2); // b, c
    }

    #[test]
    fn nest_query_rule_9_ranges() {
        // Example 5.1: {(x, s) | ∃z P(x,z) ∧ ∀y (P(x,y) ⇔ y ∈ s)}
        let (u, i) = pair_instance(&[("a", "b"), ("a", "c"), ("b", "c")]);
        let body = Formula::and([
            Formula::exists(
                "z",
                Type::Atom,
                Formula::Rel("P".into(), vec![Term::var("x"), Term::var("z")]),
            ),
            Formula::forall(
                "y",
                Type::Atom,
                Formula::Rel("P".into(), vec![Term::var("x"), Term::var("y")])
                    .iff(Formula::In(Term::var("y"), Term::var("s"))),
            ),
        ]);
        let q = Query::new(
            vec![
                ("x".into(), Type::Atom),
                ("s".into(), Type::set(Type::Atom)),
            ],
            body,
        );
        let vt = types_of(
            &i,
            &[("x", Type::Atom), ("s", Type::set(Type::Atom))],
            &q.body,
        );
        let r = compute_ranges(&i, &vt, &q.body, &EvalConfig::default()).unwrap();
        let s_range = r.of_var("s").expect("s ranged by rule 9");
        // candidate sets: {y | P(x,y)} for x ∈ {a, b} = {b,c} and {c}
        let b = Value::Atom(u.get("b").unwrap());
        let c = Value::Atom(u.get("c").unwrap());
        assert!(s_range.contains(&Value::set([b.clone(), c.clone()])));
        assert!(s_range.contains(&Value::set([c.clone()])));
        // safe evaluation agrees with active-domain evaluation
        let safe = safe_eval(&i, &q, EvalConfig::default()).unwrap();
        let active = eval_query_with(&i, &q, EvalConfig::default()).unwrap();
        assert_eq!(safe, active);
        assert_eq!(safe.len(), 2);
    }

    #[test]
    fn fixpoint_column_ranges_restrict_iteration() {
        let (_u, i) = pair_instance(&[("a", "b"), ("b", "c"), ("c", "d")]);
        let fix = Arc::new(Fixpoint {
            op: FixOp::Ifp,
            rel: "S".into(),
            vars: vec![("x".into(), Type::Atom), ("y".into(), Type::Atom)],
            body: Box::new(Formula::or([
                Formula::Rel("P".into(), vec![Term::var("x"), Term::var("y")]),
                Formula::exists(
                    "z",
                    Type::Atom,
                    Formula::and([
                        Formula::Rel("S".into(), vec![Term::var("x"), Term::var("z")]),
                        Formula::Rel("P".into(), vec![Term::var("z"), Term::var("y")]),
                    ]),
                ),
            ])),
        });
        let q = Query::new(
            vec![("u".into(), Type::Atom), ("v".into(), Type::Atom)],
            Formula::FixApp(fix, vec![Term::var("u"), Term::var("v")]),
        );
        let safe = safe_eval(&i, &q, EvalConfig::default()).unwrap();
        assert_eq!(safe.len(), 6);
        let active = eval_query_with(&i, &q, EvalConfig::default()).unwrap();
        assert_eq!(safe, active);
    }

    #[test]
    fn ifp_term_rule_9_prime() {
        // s = IFP(Q; y | ∃w P(w,y) ∨ Q(y)) — all P-targets as a set term
        let (u, i) = pair_instance(&[("a", "b"), ("b", "c")]);
        let fix = Arc::new(Fixpoint {
            op: FixOp::Ifp,
            rel: "Q".into(),
            vars: vec![("y".into(), Type::Atom)],
            body: Box::new(Formula::or([
                Formula::exists(
                    "w",
                    Type::Atom,
                    Formula::Rel("P".into(), vec![Term::var("w"), Term::var("y")]),
                ),
                Formula::Rel("Q".into(), vec![Term::var("y")]),
            ])),
        });
        let q = Query::new(
            vec![("s".into(), Type::set(Type::Atom))],
            Formula::Eq(Term::var("s"), Term::Fix(fix)),
        );
        let safe = safe_eval(&i, &q, EvalConfig::default()).unwrap();
        assert_eq!(safe.len(), 1);
        let row = safe.sorted_rows()[0].clone();
        let b = Value::Atom(u.get("b").unwrap());
        let c = Value::Atom(u.get("c").unwrap());
        assert_eq!(row[0], Value::set([b, c]));
    }

    #[test]
    fn safe_eval_avoids_domain_blowup() {
        // head var of type {{U}} restricted by equality to a fixpoint term
        // would blow up under active-domain semantics with a tight range
        // budget, but safe evaluation never enumerates dom({{U}}, D).
        let (_u, i) = pair_instance(&[("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")]);
        // {s : {U} | ∀y (y ∈ s ⇔ ∃w P(w,y))} — the set of targets, grouped
        let body = Formula::forall(
            "y",
            Type::Atom,
            Formula::In(Term::var("y"), Term::var("s")).iff(Formula::exists(
                "w",
                Type::Atom,
                Formula::Rel("P".into(), vec![Term::var("w"), Term::var("y")]),
            )),
        );
        let q = Query::new(vec![("s".into(), Type::set(Type::Atom))], body);
        let mut cfg = EvalConfig::tight();
        cfg.max_range = 16; // dom({U}, 5) = 32 > 16: active-domain would fail
        let safe = safe_eval(&i, &q, cfg.clone()).unwrap();
        assert_eq!(safe.len(), 1);
        assert!(matches!(
            eval_query_with(&i, &q, cfg),
            Err(EvalError::RangeTooLarge { .. })
        ));
    }

    #[test]
    fn unranged_vars_fall_back_to_active_domain() {
        // {x : U | ~P(x, x)} is not range restricted; safe_eval still
        // answers correctly by falling back.
        let (_u, i) = pair_instance(&[("a", "a"), ("a", "b")]);
        let q = Query::new(
            vec![("x".into(), Type::Atom)],
            Formula::Rel("P".into(), vec![Term::var("x"), Term::var("x")]).not(),
        );
        let safe = safe_eval(&i, &q, EvalConfig::default()).unwrap();
        let active = eval_query_with(&i, &q, EvalConfig::default()).unwrap();
        assert_eq!(safe, active);
        assert_eq!(safe.len(), 1); // only b
    }

    #[test]
    fn or_branches_merge_ranges() {
        let (_u, i) = pair_instance(&[("a", "b"), ("c", "d")]);
        let f = Formula::or([
            Formula::Rel("P".into(), vec![Term::var("x"), Term::var("y")]),
            Formula::Rel("P".into(), vec![Term::var("y"), Term::var("x")]),
        ]);
        let vt = types_of(&i, &[("x", Type::Atom), ("y", Type::Atom)], &f);
        let r = compute_ranges(&i, &vt, &f, &EvalConfig::default()).unwrap();
        assert_eq!(r.of_var("x").unwrap().len(), 4);
        assert_eq!(r.of_var("y").unwrap().len(), 4);
    }

    #[test]
    fn budget_guards_range_computation() {
        let (_u, i) = pair_instance(&[("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")]);
        let f = Formula::Rel("P".into(), vec![Term::var("x"), Term::var("y")]);
        let vt = types_of(&i, &[("x", Type::Atom), ("y", Type::Atom)], &f);
        let cfg = EvalConfig {
            max_range: 2,
            ..EvalConfig::default()
        };
        match compute_ranges(&i, &vt, &f, &cfg) {
            Err(EvalError::Resource(e)) => {
                assert_eq!(e.budget, no_object::BudgetKind::Range);
                assert_eq!(e.limit, 2);
            }
            other => panic!("expected range Resource error, got {other:?}"),
        }
    }
}
