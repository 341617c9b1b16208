//! Bottom-up evaluation of algebra expressions over instances.
//!
//! Straightforward operator-at-a-time evaluation under the shared
//! [`Governor`]: the powerset operator produces `2^|rows|` output rows and
//! is exactly the construct the paper's conclusion calls intractable — the
//! governor turns that blowup into a structured
//! [`AlgebraError::Resource`] error, mirroring the CALC evaluator's range
//! budgets. Row counts are checked against the range cap, every
//! materialised row costs one unit of step fuel plus its id width (and any
//! arena growth) against the memory budget, and cancellation/deadline are
//! honoured at each operator boundary.
//!
//! Internally every operator works on hash-consed rows of
//! [`no_object::ValueId`]s, so product/difference dedup, nest grouping,
//! and powerset masks compare `u32` ids instead of value trees. A stored
//! relation is the instance's cached id table itself
//! ([`Instance::id_table`], shared, not copied): `select` over it boxes
//! only the rows it keeps, and membership tests against it are binary
//! searches. Operators that build rows produce [`IdRelation`]s, with
//! constants and new values interned into a per-evaluation overlay on
//! the instance's arena ([`Instance::overlay`]); the result resolves back
//! to a [`Relation`] at the boundary.

use crate::expr::{AlgebraError, Expr, Pred};
use minipool::ThreadPool;
use no_object::intern::{IdRelation, Interner, ValueId};
use no_object::{ColumnTable, Governor, Instance, Relation};
use std::collections::HashMap;
use std::sync::Arc;

/// Minimum product cell count before the evaluator bothers fanning a
/// product out over the pool (below this, task setup dominates).
const PARALLEL_PRODUCT_MIN_CELLS: u64 = 1024;

/// Minimum powerset input cardinality before masks are fanned out
/// (2^10 = 1024 output rows).
const PARALLEL_POWERSET_MIN_ELEMS: usize = 10;

/// Evaluate an expression on an instance under `governor` — callers that
/// run several engines inside one query hand the same governor to each so
/// they draw from a single allowance. The enumeration-heavy operators —
/// product and powerset — fan their output loops out over `pool` when the
/// work is large enough to amortise task setup; all other operators run on
/// the calling thread. Results are identical at every parallelism level;
/// under tight budgets the exact row at which a resource trip fires may
/// differ when `threads > 1` because workers charge the governor
/// concurrently.
pub fn eval_pooled(
    expr: &Expr,
    instance: &Instance,
    governor: &Governor,
    pool: &ThreadPool,
) -> Result<Relation, AlgebraError> {
    // typecheck up front so evaluation can assume well-formedness
    expr.output_types(instance.schema())?;
    let interner = instance.overlay();
    let out = eval_i(expr, instance, governor, &interner, pool)?;
    Ok(out.into_derived().to_relation(&interner))
}

/// An operator's result: a stored relation's cached table, or rows the
/// evaluation built.
enum Rows {
    Stored(Arc<ColumnTable>),
    Derived(IdRelation),
}

impl Rows {
    fn len(&self) -> usize {
        match self {
            Rows::Stored(t) => t.len(),
            Rows::Derived(rel) => rel.len(),
        }
    }

    fn contains(&self, row: &[ValueId]) -> bool {
        match self {
            Rows::Stored(t) => t.contains_row(row),
            Rows::Derived(rel) => rel.contains(row),
        }
    }

    /// Call `f` on every row, in unspecified order.
    fn try_for_each(
        &self,
        mut f: impl FnMut(&[ValueId]) -> Result<(), AlgebraError>,
    ) -> Result<(), AlgebraError> {
        match self {
            Rows::Stored(t) => {
                let mut row = Vec::with_capacity(t.arity());
                for i in 0..t.len() {
                    t.read_row(i, &mut row);
                    f(&row)?;
                }
                Ok(())
            }
            Rows::Derived(rel) => rel.iter().try_for_each(f),
        }
    }

    /// The rows as a relation of their own (copies a stored table's rows;
    /// nothing is interned).
    fn into_derived(self) -> IdRelation {
        match self {
            Rows::Stored(t) => (0..t.len()).map(|i| t.row(i).into_boxed_slice()).collect(),
            Rows::Derived(rel) => rel,
        }
    }
}

/// Check an (intermediate) result against the row cap.
fn guard(len: usize, governor: &Governor) -> Result<(), AlgebraError> {
    governor
        .check_range("algebra.rows", len as u64)
        .map_err(AlgebraError::from)
}

/// Charge one materialised id row: a unit of fuel, one id width per
/// column, plus any arena growth its construction caused. Values shared
/// with the input or earlier rows were admitted to the arena already and
/// cost nothing again.
fn charge_row(
    governor: &Governor,
    site: &'static str,
    arity: usize,
    arena_grown: u64,
) -> Result<(), AlgebraError> {
    governor.tick(site)?;
    governor.charge_mem(site, 8 * arity as u64 + arena_grown)?;
    Ok(())
}

fn eval_i(
    expr: &Expr,
    instance: &Instance,
    governor: &Governor,
    int: &Interner,
    pool: &ThreadPool,
) -> Result<Rows, AlgebraError> {
    governor.checkpoint("algebra.eval")?;
    let derived = |e: &Expr| eval_i(e, instance, governor, int, pool);
    let out = match expr {
        Expr::Rel(name) => Rows::Stored(instance.id_table(name)),
        Expr::Const(_, rows) => Rows::Derived(rows.iter().map(|r| int.intern_row(r)).collect()),
        Expr::Select(e, pred) => {
            let input = derived(e)?;
            let pred = IdPred::compile(pred, int);
            let mut out = IdRelation::new();
            input.try_for_each(|row| {
                if pred.holds(row, int) {
                    out.insert(row.to_vec().into_boxed_slice());
                }
                Ok(())
            })?;
            Rows::Derived(out)
        }
        Expr::Project(e, cols) => {
            let input = derived(e)?;
            let mut out = IdRelation::new();
            input.try_for_each(|row| {
                let new: Vec<ValueId> = cols.iter().map(|&i| row[i - 1]).collect();
                charge_row(governor, "algebra.project", new.len(), 0)?;
                out.insert(new.into_boxed_slice());
                Ok(())
            })?;
            Rows::Derived(out)
        }
        Expr::Product(a, b) => {
            let ra = derived(a)?.into_derived();
            let rb = derived(b)?.into_derived();
            // check the product size before materialising anything
            let cells = (ra.len() as u64).saturating_mul(rb.len() as u64);
            governor.check_range("algebra.product", cells)?;
            if pool.threads() > 1 && ra.len() >= 2 && cells >= PARALLEL_PRODUCT_MIN_CELLS {
                // fan the left operand's rows out over the pool; each
                // worker builds a partial product, merged at the end
                let rows_a: Vec<&[ValueId]> = ra.iter().collect();
                let spans = minipool::split(rows_a.len(), pool.threads());
                let parts = pool.try_map(spans, |span| {
                    let mut part = IdRelation::new();
                    for x in &rows_a[span] {
                        for y in rb.iter() {
                            let mut row = x.to_vec();
                            row.extend_from_slice(y);
                            charge_row(governor, "algebra.product", row.len(), 0)?;
                            part.insert(row.into_boxed_slice());
                        }
                    }
                    Ok::<IdRelation, AlgebraError>(part)
                })?;
                let mut out = IdRelation::new();
                for part in &parts {
                    out.absorb(part);
                }
                Rows::Derived(out)
            } else {
                let mut out = IdRelation::new();
                for x in ra.iter() {
                    for y in rb.iter() {
                        let mut row = x.to_vec();
                        row.extend_from_slice(y);
                        charge_row(governor, "algebra.product", row.len(), 0)?;
                        out.insert(row.into_boxed_slice());
                    }
                }
                Rows::Derived(out)
            }
        }
        Expr::Union(a, b) => {
            let mut ra = derived(a)?.into_derived();
            let rb = derived(b)?;
            rb.try_for_each(|row| {
                ra.insert(row.to_vec().into_boxed_slice());
                Ok(())
            })?;
            Rows::Derived(ra)
        }
        Expr::Difference(a, b) | Expr::Intersect(a, b) => {
            let keep_common = matches!(expr, Expr::Intersect(..));
            let ra = derived(a)?;
            let rb = derived(b)?;
            let mut out = IdRelation::new();
            ra.try_for_each(|row| {
                if rb.contains(row) == keep_common {
                    out.insert(row.to_vec().into_boxed_slice());
                }
                Ok(())
            })?;
            Rows::Derived(out)
        }
        Expr::Nest(e, col) => {
            let input = derived(e)?;
            let i = col - 1;
            // group by all other columns; id rows hash in O(arity)
            let mut groups: HashMap<Vec<ValueId>, Vec<ValueId>> = HashMap::new();
            input.try_for_each(|row| {
                governor.tick("algebra.nest")?;
                let mut key = row.to_vec();
                let val = key.remove(i);
                groups.entry(key).or_default().push(val);
                Ok(())
            })?;
            let mut out = IdRelation::new();
            for (mut key, vals) in groups {
                let (set, grown) = int.intern_set_with_growth(vals);
                key.insert(i, set);
                charge_row(governor, "algebra.nest", key.len(), grown)?;
                out.insert(key.into_boxed_slice());
            }
            Rows::Derived(out)
        }
        Expr::Unnest(e, col) => {
            let input = derived(e)?;
            let i = col - 1;
            let mut out = IdRelation::new();
            input.try_for_each(|row| {
                let Some(elems) = int.set_elems(row[i]) else {
                    unreachable!("typechecked: unnest column is a set")
                };
                for &elem in elems {
                    let mut new = row.to_vec();
                    new[i] = elem;
                    charge_row(governor, "algebra.unnest", new.len(), 0)?;
                    out.insert(new.into_boxed_slice());
                }
                guard(out.len(), governor)
            })?;
            Rows::Derived(out)
        }
        Expr::Powerset(e) => {
            let input = derived(e)?;
            let n = input.len();
            // check the 2^n blowup before materialising anything
            if n >= 63 {
                governor.check_range("algebra.powerset", u64::MAX)?;
            }
            governor.check_range("algebra.powerset", 1u64 << n)?;
            // single column (typechecked); canonical element order so every
            // mask yields an already-canonical id slice
            let mut elems: Vec<ValueId> = Vec::with_capacity(n);
            input.try_for_each(|row| {
                elems.push(row[0]);
                Ok(())
            })?;
            elems.sort_unstable_by(|a, b| int.cmp(*a, *b));
            let emit = |mask: u64, out: &mut IdRelation| -> Result<(), AlgebraError> {
                let members: Vec<ValueId> = elems
                    .iter()
                    .enumerate()
                    .filter(|(j, _)| (mask >> j) & 1 == 1)
                    .map(|(_, id)| *id)
                    .collect();
                let (set, grown) = int.intern_set_presorted_with_growth(members);
                charge_row(governor, "algebra.powerset", 1, grown)?;
                out.insert(vec![set].into_boxed_slice());
                Ok(())
            };
            if pool.threads() > 1 && n >= PARALLEL_POWERSET_MIN_ELEMS {
                // fan contiguous mask ranges out over the pool
                let spans = minipool::split_u64(1u64 << n, pool.threads() as u64);
                let parts = pool.try_map(spans, |span| {
                    let mut part = IdRelation::new();
                    for mask in span {
                        emit(mask, &mut part)?;
                    }
                    Ok::<IdRelation, AlgebraError>(part)
                })?;
                let mut out = IdRelation::new();
                for part in &parts {
                    out.absorb(part);
                }
                Rows::Derived(out)
            } else {
                let mut out = IdRelation::new();
                for mask in 0u64..(1u64 << n) {
                    emit(mask, &mut out)?;
                }
                Rows::Derived(out)
            }
        }
    };
    guard(out.len(), governor)?;
    Ok(out)
}

/// A [`Pred`] with its constants interned once per `select`, so testing a
/// row is pure id work.
enum IdPred {
    EqCols(usize, usize),
    EqConst(usize, ValueId),
    InCols(usize, usize),
    SubsetCols(usize, usize),
    Not(Box<IdPred>),
    And(Box<IdPred>, Box<IdPred>),
    Or(Box<IdPred>, Box<IdPred>),
}

impl IdPred {
    fn compile(pred: &Pred, int: &Interner) -> IdPred {
        let sub = |p: &Pred| Box::new(IdPred::compile(p, int));
        match pred {
            Pred::EqCols(a, b) => IdPred::EqCols(*a, *b),
            Pred::EqConst(a, v) => IdPred::EqConst(*a, int.intern(v)),
            Pred::InCols(a, b) => IdPred::InCols(*a, *b),
            Pred::SubsetCols(a, b) => IdPred::SubsetCols(*a, *b),
            Pred::Not(p) => IdPred::Not(sub(p)),
            Pred::And(p, q) => IdPred::And(sub(p), sub(q)),
            Pred::Or(p, q) => IdPred::Or(sub(p), sub(q)),
        }
    }

    fn holds(&self, row: &[ValueId], int: &Interner) -> bool {
        match self {
            IdPred::EqCols(a, b) => row[a - 1] == row[b - 1],
            IdPred::EqConst(a, id) => row[a - 1] == *id,
            IdPred::InCols(a, b) => match int.set_elems(row[b - 1]) {
                Some(elems) => int.set_contains(elems, row[a - 1]),
                None => false,
            },
            IdPred::SubsetCols(a, b) => {
                match (int.set_elems(row[a - 1]), int.set_elems(row[b - 1])) {
                    (Some(xs), Some(ys)) => int.set_is_subset(xs, ys),
                    _ => false,
                }
            }
            IdPred::Not(p) => !p.holds(row, int),
            IdPred::And(p, q) => p.holds(row, int) && q.holds(row, int),
            IdPred::Or(p, q) => p.holds(row, int) || q.holds(row, int),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use no_object::{BudgetKind, Limits, RelationSchema, Schema, Type, Universe, Value};

    fn run(expr: &Expr, i: &Instance, limits: Limits) -> Result<Relation, AlgebraError> {
        eval_pooled(expr, i, &Governor::new(limits), &ThreadPool::sequential())
    }

    fn dept_db() -> (Universe, Instance) {
        let mut u = Universe::new();
        let schema = Schema::from_relations([
            RelationSchema::new("W", vec![Type::Atom, Type::Atom]), // (emp, dept)
        ]);
        let mut i = Instance::empty(schema);
        let atom = |u: &mut Universe, s: &str| Value::Atom(u.intern(s));
        let rows = [("ann", "sales"), ("ben", "sales"), ("eva", "eng")];
        for (e, d) in rows {
            let (e, d) = (atom(&mut u, e), atom(&mut u, d));
            i.insert("W", vec![e, d]);
        }
        (u, i)
    }

    #[test]
    fn select_project() {
        let (u, i) = dept_db();
        let sales = Value::Atom(u.get("sales").unwrap());
        let e = Expr::rel("W").select(Pred::EqConst(2, sales)).project([1]);
        let out = run(&e, &i, Limits::default()).unwrap();
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn nest_groups_by_remaining_columns() {
        let (u, i) = dept_db();
        let e = Expr::rel("W").project([2, 1]).nest(2); // (dept, {emp})
        let out = run(&e, &i, Limits::default()).unwrap();
        assert_eq!(out.len(), 2);
        let sales = Value::Atom(u.get("sales").unwrap());
        let ann = Value::Atom(u.get("ann").unwrap());
        let ben = Value::Atom(u.get("ben").unwrap());
        assert!(out.contains(&[sales, Value::set([ann, ben])]));
    }

    #[test]
    fn unnest_inverts_nest() {
        let (_u, i) = dept_db();
        let nested = Expr::rel("W").nest(1); // ({emp}, dept)
        let round = nested.unnest(1);
        let out = run(&round, &i, Limits::default()).unwrap();
        assert_eq!(&out, i.relation("W"));
    }

    #[test]
    fn nest_does_not_invert_unnest_in_general() {
        // unnest then nest merges rows that differed only in the set column
        let mut u = Universe::new();
        let schema = Schema::from_relations([RelationSchema::new(
            "D",
            vec![Type::Atom, Type::set(Type::Atom)],
        )]);
        let mut i = Instance::empty(schema);
        let (k, a, b) = (u.intern("k"), u.intern("a"), u.intern("b"));
        i.insert("D", vec![Value::Atom(k), Value::set([Value::Atom(a)])]);
        i.insert("D", vec![Value::Atom(k), Value::set([Value::Atom(b)])]);
        let round = Expr::rel("D").unnest(2).nest(2);
        let out = run(&round, &i, Limits::default()).unwrap();
        assert_eq!(out.len(), 1); // {a} and {b} merged into {a,b}
        assert!(out.contains(&[Value::Atom(k), Value::set([Value::Atom(a), Value::Atom(b)])]));
    }

    #[test]
    fn product_and_set_ops() {
        let (_u, i) = dept_db();
        let p = Expr::rel("W").product(Expr::rel("W"));
        let out = run(&p, &i, Limits::default()).unwrap();
        assert_eq!(out.len(), 9);
        let diff = Expr::rel("W").difference(Expr::rel("W"));
        assert!(run(&diff, &i, Limits::default()).unwrap().is_empty());
        let inter = Expr::rel("W").intersect(Expr::rel("W"));
        assert_eq!(run(&inter, &i, Limits::default()).unwrap().len(), 3);
    }

    #[test]
    fn powerset_counts_and_budget() {
        let (_u, i) = dept_db();
        let emps = Expr::rel("W").project([1]);
        let pow = emps.clone().powerset();
        let out = run(&pow, &i, Limits::default()).unwrap();
        assert_eq!(out.len(), 8); // 2^3 subsets of the employee set
        let tight = Limits {
            max_range: 4,
            ..Limits::default()
        };
        match run(&pow, &i, tight) {
            Err(AlgebraError::Resource(e)) => {
                assert_eq!(e.budget, BudgetKind::Range);
                assert_eq!(e.limit, 4);
                assert_eq!(e.site, "algebra.powerset");
            }
            other => panic!("expected a range Resource error, got {other:?}"),
        }
    }

    #[test]
    fn product_budget_checked_before_materialising() {
        let (_u, i) = dept_db();
        let big = Expr::rel("W")
            .product(Expr::rel("W"))
            .product(Expr::rel("W"));
        let tight = Limits {
            max_range: 10,
            ..Limits::default()
        };
        match run(&big, &i, tight) {
            Err(AlgebraError::Resource(e)) => assert_eq!(e.budget, BudgetKind::Range),
            other => panic!("expected a range Resource error, got {other:?}"),
        }
    }

    #[test]
    fn step_fuel_bounds_materialised_rows() {
        let (_u, i) = dept_db();
        let big = Expr::rel("W").product(Expr::rel("W"));
        let tight = Limits {
            max_steps: 5,
            ..Limits::default()
        };
        match run(&big, &i, tight) {
            Err(AlgebraError::Resource(e)) => {
                assert_eq!(e.budget, BudgetKind::Steps);
                assert_eq!(e.limit, 5);
            }
            other => panic!("expected a step Resource error, got {other:?}"),
        }
    }

    #[test]
    fn memory_budget_bounds_materialised_bytes() {
        let (_u, i) = dept_db();
        let big = Expr::rel("W").product(Expr::rel("W"));
        let tight = Limits {
            max_memory_bytes: 64,
            ..Limits::default()
        };
        match run(&big, &i, tight) {
            Err(AlgebraError::Resource(e)) => assert_eq!(e.budget, BudgetKind::Memory),
            other => panic!("expected a memory Resource error, got {other:?}"),
        }
    }

    #[test]
    fn repeated_rows_with_shared_values_charge_arena_once() {
        // Nesting produces the same set value in several output rows (one
        // per group key here); the arena charges the set's bytes once and
        // every further row only its id width.
        let mut u = Universe::new();
        let schema =
            Schema::from_relations([RelationSchema::new("W", vec![Type::Atom, Type::Atom])]);
        let mut i = Instance::empty(schema);
        let v = Value::Atom(u.intern("v"));
        for k in 0..8 {
            let key = Value::Atom(u.intern(&format!("k{k}")));
            i.insert("W", vec![key, v.clone()]);
        }
        // nest col 2: eight rows, every set column is the same value {v}
        let g = Governor::default();
        let out = eval_pooled(&Expr::rel("W").nest(2), &i, &g, &ThreadPool::sequential()).unwrap();
        assert_eq!(out.len(), 8);
        // the {v} node is charged at most once: total spend stays below
        // eight copies' worth of the old per-clone accounting
        let one_set_bytes = Value::set([v]).approx_bytes();
        assert!(
            g.mem_spent() < 8 * one_set_bytes + 8 * 16,
            "shared nested set recharged per row: {} bytes",
            g.mem_spent()
        );
    }

    #[test]
    fn cancellation_stops_evaluation() {
        let (_u, i) = dept_db();
        let g = Governor::default();
        g.cancel();
        match eval_pooled(&Expr::rel("W"), &i, &g, &ThreadPool::sequential()) {
            Err(AlgebraError::Resource(e)) => assert_eq!(e.budget, BudgetKind::Cancelled),
            other => panic!("expected a cancellation error, got {other:?}"),
        }
    }

    #[test]
    fn pooled_matches_sequential() {
        // a 12-element powerset (4096 rows) and a 3-way product both cross
        // the parallel thresholds; the pooled result must be identical
        let mut u = Universe::new();
        let schema = Schema::from_relations([RelationSchema::new("E", vec![Type::Atom])]);
        let mut i = Instance::empty(schema);
        for k in 0..12 {
            i.insert("E", vec![Value::Atom(u.intern(&format!("e{k}")))]);
        }
        let pow = Expr::rel("E").powerset();
        let prod = Expr::rel("E")
            .product(Expr::rel("E"))
            .product(Expr::rel("E"));
        for expr in [pow, prod] {
            let seq =
                eval_pooled(&expr, &i, &Governor::default(), &ThreadPool::sequential()).unwrap();
            for threads in [2, 4] {
                let par = eval_pooled(&expr, &i, &Governor::default(), &ThreadPool::new(threads))
                    .unwrap();
                assert_eq!(seq, par, "threads {threads}");
            }
        }
    }

    #[test]
    fn membership_predicates() {
        let mut u = Universe::new();
        let schema = Schema::from_relations([RelationSchema::new(
            "D",
            vec![Type::Atom, Type::set(Type::Atom)],
        )]);
        let mut i = Instance::empty(schema);
        let (a, b) = (u.intern("a"), u.intern("b"));
        i.insert(
            "D",
            vec![Value::Atom(a), Value::set([Value::Atom(a), Value::Atom(b)])],
        );
        i.insert("D", vec![Value::Atom(b), Value::set([Value::Atom(a)])]);
        // rows whose key is a member of its own set
        let e = Expr::rel("D").select(Pred::InCols(1, 2));
        let out = run(&e, &i, Limits::default()).unwrap();
        assert_eq!(out.len(), 1);
    }
}
