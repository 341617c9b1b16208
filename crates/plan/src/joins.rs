//! The join-algorithms pass: lowering to the columnar kernels.
//!
//! Two front-ends reach `no-exec`'s physical operators through this
//! module:
//!
//! * **Flat conjunctive CALC** (recognized by
//!   `no_core::conjunctive::decompose`): atoms become indexed scans,
//!   intra-atom constants/duplicates and equality pins become selects,
//!   and shared variables across atoms become equi-join keys. Join order
//!   is greedy left-deep by estimated cardinality (connected atoms
//!   preferred, source order breaking ties, so plans are deterministic
//!   for a fixed statistics snapshot).
//! * **Flat algebra expressions** — everything except `Nest`/`Unnest`/
//!   `Powerset`, which keep the tree-walk path. A `Select` directly over
//!   a `Product` whose conjuncts equate columns across the two sides is
//!   recognized as an equi-join (predicate pushdown deliberately leaves
//!   such conjuncts on top of the product for exactly this pattern).
//!
//! Per join the planner *picks an algorithm* from the statistics — the
//! decision table lives in [`choose_join`] and is documented in
//! DESIGN.md §14 — and records the choice as a node annotation, which is
//! how `:explain` shows e.g. `HashJoin(build=right), keys: l#2=r#1`.

use crate::ir::{NodeId, Op, Plan};
use crate::stats::Stats;
use no_algebra::{Expr, Pred};
use no_core::conjunctive::{CArg, ConjunctiveQuery};
use no_exec::{ExecId, ExecOp, ExecPlan, JoinAlgo, RowPred};
use no_object::{Schema, Type};

/// Inputs at or below this estimated cardinality take a nested loop —
/// index build cost would dominate.
const SMALL_INPUT: u64 = 16;

/// Build sides whose key distinct/row ratio is below this are
/// duplicate-heavy: hash buckets degenerate toward O(n·m) chains, so a
/// merge join (sorted runs handle duplicate groups natively) is chosen.
const DUP_RATIO: f64 = 0.125;

/// Result of lowering to the columnar kernels: the executable arena, the
/// matching logical plan for `:explain`, and header notes.
pub struct ExecLowering {
    /// The logical plan mirroring the physical operators.
    pub plan: Plan,
    /// The executable plan.
    pub exec: ExecPlan,
    /// Header lines describing the lowering (join choices summary).
    pub notes: Vec<String>,
}

/// One operand during join-order construction.
struct Side {
    eid: ExecId,
    nid: NodeId,
    /// Canonical variable → 0-based output column (first occurrence).
    vars: Vec<(String, usize)>,
    /// Per column: the base `(relation, column)` it descends from, when
    /// it does so unchanged (for distinct-count lookups).
    meta: Vec<Option<(String, usize)>>,
    arity: usize,
    est: Option<u64>,
}

/// Pick the physical join algorithm from estimated input sizes and
/// build-side key duplication. The decision table (DESIGN.md §14):
///
/// 1. unknown estimates → hash join, build left (safe default);
/// 2. either input ≤ `SMALL_INPUT` rows → nested loop;
/// 3. build side (the smaller input) duplicate-heavy on its key
///    (distinct/rows < `DUP_RATIO`) → merge join;
/// 4. otherwise → hash join, building the smaller side.
///
/// Pure in its inputs: for a fixed stats snapshot the choice is
/// deterministic (property-tested in `tests/exec_differential.rs`).
pub fn choose_join(
    l_est: Option<u64>,
    r_est: Option<u64>,
    l_key: Option<(u64, u64)>,
    r_key: Option<(u64, u64)>,
) -> JoinAlgo {
    let (Some(le), Some(re)) = (l_est, r_est) else {
        return JoinAlgo::Hash { build_left: true };
    };
    if le.min(re) <= SMALL_INPUT {
        return JoinAlgo::NestedLoop;
    }
    let build_left = le <= re;
    let build_key = if build_left { l_key } else { r_key };
    if let Some((rows, distinct)) = build_key {
        if rows > 0 && (distinct as f64) / (rows as f64) < DUP_RATIO {
            return JoinAlgo::Merge;
        }
    }
    JoinAlgo::Hash { build_left }
}

/// Render a join's key list for plan annotations, 1-based.
fn keys_desc(keys: &[(usize, usize)]) -> String {
    keys.iter()
        .map(|&(l, r)| format!("l#{}=r#{}", l + 1, r + 1))
        .collect::<Vec<_>>()
        .join(", ")
}

/// `(base rows, max key-column distinct)` of a side's key columns, when
/// every key column descends from a base relation with detailed stats.
fn key_info(side: &Side, key_cols: &[usize], stats: Option<&Stats>) -> Option<(u64, u64)> {
    let stats = stats?;
    let mut rows = 0u64;
    let mut distinct = 0u64;
    for &c in key_cols {
        let (rel, base_col) = side.meta[c].as_ref()?;
        rows = rows.max(stats.rows(rel)?);
        distinct = distinct.max(stats.distinct(rel, *base_col)?);
    }
    Some((rows, distinct))
}

/// Divide an estimate by a selectivity divisor, staying ≥ 1.
fn shrink(est: Option<u64>, divisor: Option<u64>) -> Option<u64> {
    match (est, divisor) {
        (Some(e), Some(d)) if d > 1 => Some((e / d).max(1)),
        _ => est,
    }
}

/// Convert the pure-equality subset of [`RowPred`] back to a 1-based
/// algebra predicate for the logical `Select` node.
fn logical_pred(p: &RowPred) -> Pred {
    match p {
        RowPred::EqCols(a, b) => Pred::EqCols(a + 1, b + 1),
        RowPred::EqConst(c, v) => Pred::EqConst(c + 1, v.clone()),
        RowPred::InCols(a, b) => Pred::InCols(a + 1, b + 1),
        RowPred::SubsetCols(a, b) => Pred::SubsetCols(a + 1, b + 1),
        RowPred::Not(inner) => Pred::Not(Box::new(logical_pred(inner))),
        RowPred::And(a, b) => Pred::And(Box::new(logical_pred(a)), Box::new(logical_pred(b))),
        RowPred::Or(a, b) => Pred::Or(Box::new(logical_pred(a)), Box::new(logical_pred(b))),
    }
}

/// Convert a 1-based algebra predicate to the kernel's 0-based form.
fn row_pred(p: &Pred) -> RowPred {
    match p {
        Pred::EqCols(a, b) => RowPred::EqCols(a - 1, b - 1),
        Pred::EqConst(c, v) => RowPred::EqConst(c - 1, v.clone()),
        Pred::InCols(a, b) => RowPred::InCols(a - 1, b - 1),
        Pred::SubsetCols(a, b) => RowPred::SubsetCols(a - 1, b - 1),
        Pred::Not(inner) => RowPred::Not(Box::new(row_pred(inner))),
        Pred::And(a, b) => RowPred::And(Box::new(row_pred(a)), Box::new(row_pred(b))),
        Pred::Or(a, b) => RowPred::Or(Box::new(row_pred(a)), Box::new(row_pred(b))),
    }
}

// ---------------------------------------------------------------------------
// conjunctive CALC
// ---------------------------------------------------------------------------

/// Lower a flat conjunctive query to the columnar kernels. Always
/// succeeds: the fragment recognizer already rejected everything the
/// kernels cannot run.
pub fn lower_conjunctive_calc(
    cq: &ConjunctiveQuery,
    head_types: &[Type],
    stats: Option<&Stats>,
) -> ExecLowering {
    let mut exec = ExecPlan::new();
    let mut plan = Plan::new();
    let mut notes = Vec::new();
    let (_, nid, _) =
        lower_conjunctive_into(cq, head_types, stats, &mut exec, &mut plan, &mut notes);
    plan.root = nid;
    ExecLowering { plan, exec, notes }
}

/// Lower a union of flat conjunctive queries (the disjunctive CALC
/// fragment recognized by `no_core::conjunctive::decompose_union`): each
/// disjunct lowers independently — join order and algorithms chosen per
/// disjunct — and the results fold left through the deduplicating union
/// kernel, so disjunctive views stay maintainable by the same delta
/// kernels as conjunctive ones.
pub fn lower_union_calc(
    cqs: &[ConjunctiveQuery],
    head_types: &[Type],
    stats: Option<&Stats>,
) -> ExecLowering {
    let mut exec = ExecPlan::new();
    let mut plan = Plan::new();
    let mut notes = vec![format!(
        "disjunctive query: union of {} conjunctive plans",
        cqs.len()
    )];
    let mut acc: Option<(ExecId, NodeId, Option<u64>)> = None;
    for (i, cq) in cqs.iter().enumerate() {
        let mut local_notes = Vec::new();
        let (eid, nid, est) = lower_conjunctive_into(
            cq,
            head_types,
            stats,
            &mut exec,
            &mut plan,
            &mut local_notes,
        );
        notes.extend(
            local_notes
                .into_iter()
                .map(|n| format!("disjunct {}: {n}", i + 1)),
        );
        acc = Some(match acc {
            None => (eid, nid, est),
            Some((prev_eid, prev_nid, prev_est)) => {
                let u = exec.push(ExecOp::Union {
                    left: prev_eid,
                    right: eid,
                });
                let est = prev_est.zip(est).map(|(a, b)| a.saturating_add(b));
                let un = plan.add_est(Op::Union, vec![prev_nid, nid], est);
                (u, un, est)
            }
        });
    }
    let (_, root, _) = acc.expect("decompose_union yields at least two disjuncts");
    plan.root = root;
    ExecLowering { plan, exec, notes }
}

/// Shared body of the conjunctive lowerings: emit one disjunct's scans,
/// selects, joins, and head projection into `exec`/`plan`, returning the
/// projected result's ids and estimate (the caller sets the root).
fn lower_conjunctive_into(
    cq: &ConjunctiveQuery,
    head_types: &[Type],
    stats: Option<&Stats>,
    exec: &mut ExecPlan,
    plan: &mut Plan,
    notes: &mut Vec<String>,
) -> (ExecId, NodeId, Option<u64>) {
    if cq.unsat {
        let eid = exec.push(ExecOp::Empty {
            arity: cq.head.len(),
        });
        let n = plan.add_est(
            Op::Const {
                types: head_types.to_vec(),
                rows: vec![],
            },
            vec![],
            Some(0),
        );
        plan.nodes[n].note = Some("statically unsatisfiable equalities".to_string());
        notes.push("equality conjuncts contradict: result is empty".to_string());
        return (eid, n, Some(0));
    }

    // Prepare each atom: scan + intra-atom selects (constants, duplicate
    // variables, equality pins).
    let mut pending: Vec<Side> = cq
        .atoms
        .iter()
        .map(|(rel, args)| prepare_atom(rel, args, cq, stats, exec, plan))
        .collect();

    // Greedy left-deep join order: start from the smallest estimate,
    // repeatedly fold in the smallest *connected* atom (source order
    // breaking ties); fall back to a cross product only when no pending
    // atom shares a variable.
    let start = best_index(&pending, |_| true);
    let mut cur = pending.remove(start);
    let mut join_no = 0usize;
    while !pending.is_empty() {
        let connected = |s: &Side| {
            s.vars
                .iter()
                .any(|(v, _)| cur.vars.iter().any(|(cv, _)| cv == v))
        };
        let idx = if pending.iter().any(connected) {
            best_index(&pending, connected)
        } else {
            best_index(&pending, |_| true)
        };
        let nxt = pending.remove(idx);
        join_no += 1;

        let keys: Vec<(usize, usize)> = nxt
            .vars
            .iter()
            .filter_map(|(v, rc)| {
                cur.vars
                    .iter()
                    .find(|(cv, _)| cv == v)
                    .map(|(_, lc)| (*lc, *rc))
            })
            .collect();

        cur = if keys.is_empty() {
            let eid = exec.push(ExecOp::Product {
                left: cur.eid,
                right: nxt.eid,
            });
            let est = cur.est.zip(nxt.est).map(|(a, b)| a.saturating_mul(b));
            let nid = plan.add_est(Op::Join, vec![cur.nid, nxt.nid], est);
            plan.nodes[nid].note = Some("cartesian product (no shared variables)".to_string());
            notes.push(format!("join {join_no}: cartesian product"));
            combine_sides(cur, nxt, eid, nid, est)
        } else {
            let lk: Vec<usize> = keys.iter().map(|&(l, _)| l).collect();
            let rk: Vec<usize> = keys.iter().map(|&(_, r)| r).collect();
            let algo = choose_join(
                cur.est,
                nxt.est,
                key_info(&cur, &lk, stats),
                key_info(&nxt, &rk, stats),
            );
            let eid = exec.push(ExecOp::Join {
                left: cur.eid,
                right: nxt.eid,
                keys: keys.clone(),
                algo,
            });
            // Joined estimate: the larger side caps it for key joins.
            let est = cur.est.zip(nxt.est).map(|(a, b)| a.max(b));
            let nid = plan.add_est(Op::Join, vec![cur.nid, nxt.nid], est);
            let desc = format!("{}, keys: {}", algo.label(), keys_desc(&keys));
            plan.nodes[nid].note = Some(desc.clone());
            notes.push(format!("join {join_no}: {desc}"));
            combine_sides(cur, nxt, eid, nid, est)
        };
    }

    // Project the head columns (possibly none: boolean queries).
    let cols: Vec<usize> = cq
        .head
        .iter()
        .map(|v| {
            cur.vars
                .iter()
                .find(|(cv, _)| cv == v)
                .map(|(_, c)| *c)
                .expect("coverage checked by decompose")
        })
        .collect();
    let eid = exec.push(ExecOp::Project {
        input: cur.eid,
        cols: cols.clone(),
    });
    let nid = plan.add_est(
        Op::Project {
            cols: cols.iter().map(|c| c + 1).collect(),
        },
        vec![cur.nid],
        cur.est,
    );
    (eid, nid, cur.est)
}

/// Index of the smallest-estimate side satisfying `keep` (unknown
/// estimates sort last; position breaks ties).
fn best_index(sides: &[Side], keep: impl Fn(&Side) -> bool) -> usize {
    sides
        .iter()
        .enumerate()
        .filter(|(_, s)| keep(s))
        .min_by_key(|(i, s)| (s.est.unwrap_or(u64::MAX), *i))
        .map(|(i, _)| i)
        .expect("at least one side")
}

fn combine_sides(cur: Side, nxt: Side, eid: ExecId, nid: NodeId, est: Option<u64>) -> Side {
    let mut vars = cur.vars;
    for (v, c) in nxt.vars {
        if !vars.iter().any(|(cv, _)| cv == &v) {
            vars.push((v, cur.arity + c));
        }
    }
    let mut meta = cur.meta;
    meta.extend(nxt.meta);
    Side {
        eid,
        nid,
        vars,
        meta,
        arity: cur.arity + nxt.arity,
        est,
    }
}

fn prepare_atom(
    rel: &str,
    args: &[CArg],
    cq: &ConjunctiveQuery,
    stats: Option<&Stats>,
    exec: &mut ExecPlan,
    plan: &mut Plan,
) -> Side {
    let rows = stats.and_then(|s| s.rows(rel));
    let mut eid = exec.push(ExecOp::Scan {
        rel: rel.to_string(),
    });
    let mut nid = plan.add_est(
        Op::Scan {
            rel: rel.to_string(),
        },
        vec![],
        rows,
    );
    let mut est = rows;
    let mut vars: Vec<(String, usize)> = Vec::new();
    let mut pred: Option<RowPred> = None;
    let push_pred = |p: RowPred, pred: &mut Option<RowPred>| {
        *pred = Some(match pred.take() {
            None => p,
            Some(q) => q.and(p),
        });
    };
    for (c, arg) in args.iter().enumerate() {
        match arg {
            CArg::Const(v) => {
                push_pred(RowPred::EqConst(c, v.clone()), &mut pred);
                est = shrink(est, stats.and_then(|s| s.distinct(rel, c)));
            }
            CArg::Var(v) => {
                if let Some((_, c0)) = vars.iter().find(|(cv, _)| cv == v) {
                    push_pred(RowPred::EqCols(*c0, c), &mut pred);
                } else {
                    if let Some(pin) = cq.pins.get(v) {
                        push_pred(RowPred::EqConst(c, pin.clone()), &mut pred);
                        est = shrink(est, stats.and_then(|s| s.distinct(rel, c)));
                    }
                    vars.push((v.clone(), c));
                }
            }
        }
    }
    if let Some(p) = pred {
        eid = exec.push(ExecOp::Select {
            input: eid,
            pred: p.clone(),
        });
        nid = plan.add_est(
            Op::Select {
                pred: logical_pred(&p),
            },
            vec![nid],
            est,
        );
    }
    Side {
        eid,
        nid,
        vars,
        meta: (0..args.len())
            .map(|c| Some((rel.to_string(), c)))
            .collect(),
        arity: args.len(),
        est,
    }
}

// ---------------------------------------------------------------------------
// flat algebra
// ---------------------------------------------------------------------------

/// Lower a flat algebra expression (no `Nest`/`Unnest`/`Powerset`
/// anywhere) to the columnar kernels, or `None` when the expression
/// leaves the flat fragment. Callers must have validated the expression
/// first (`lower_algebra`), so schema lookups here cannot fail.
pub fn lower_algebra_exec(
    expr: &Expr,
    schema: &Schema,
    stats: Option<&Stats>,
) -> Option<ExecLowering> {
    let mut exec = ExecPlan::new();
    let mut plan = Plan::new();
    let mut notes = Vec::new();
    let root = go(expr, schema, stats, &mut exec, &mut plan, &mut notes)?;
    plan.root = root.nid;
    Some(ExecLowering { plan, exec, notes })
}

fn go(
    expr: &Expr,
    schema: &Schema,
    stats: Option<&Stats>,
    exec: &mut ExecPlan,
    plan: &mut Plan,
    notes: &mut Vec<String>,
) -> Option<Side> {
    match expr {
        Expr::Rel(name) => {
            let arity = schema.get(name)?.arity();
            let est = stats.and_then(|s| s.rows(name));
            let eid = exec.push(ExecOp::Scan { rel: name.clone() });
            let nid = plan.add_est(Op::Scan { rel: name.clone() }, vec![], est);
            Some(Side {
                eid,
                nid,
                vars: Vec::new(),
                meta: (0..arity).map(|c| Some((name.clone(), c))).collect(),
                arity,
                est,
            })
        }
        Expr::Const(types, rows) => {
            let eid = exec.push(ExecOp::Const {
                arity: types.len(),
                rows: rows.clone(),
            });
            let nid = plan.add_est(
                Op::Const {
                    types: types.clone(),
                    rows: rows.clone(),
                },
                vec![],
                Some(rows.len() as u64),
            );
            Some(Side {
                eid,
                nid,
                vars: Vec::new(),
                meta: vec![None; types.len()],
                arity: types.len(),
                est: Some(rows.len() as u64),
            })
        }
        Expr::Select(inner, pred) => {
            // σ over a product with cross-side equality conjuncts is an
            // equi-join: pushdown leaves exactly those conjuncts on top.
            if let Expr::Product(a, b) = inner.as_ref() {
                return lower_join_pattern(a, b, pred, schema, stats, exec, plan, notes);
            }
            let side = go(inner, schema, stats, exec, plan, notes)?;
            let eid = exec.push(ExecOp::Select {
                input: side.eid,
                pred: row_pred(pred),
            });
            let est = shrink(side.est, Some(2));
            let nid = plan.add_est(Op::Select { pred: pred.clone() }, vec![side.nid], est);
            Some(Side {
                eid,
                nid,
                est,
                ..side
            })
        }
        Expr::Project(inner, cols) => {
            let side = go(inner, schema, stats, exec, plan, notes)?;
            let cols0: Vec<usize> = cols.iter().map(|c| c - 1).collect();
            let eid = exec.push(ExecOp::Project {
                input: side.eid,
                cols: cols0.clone(),
            });
            let nid = plan.add_est(Op::Project { cols: cols.clone() }, vec![side.nid], side.est);
            Some(Side {
                eid,
                nid,
                vars: Vec::new(),
                meta: cols0.iter().map(|&c| side.meta[c].clone()).collect(),
                arity: cols0.len(),
                est: side.est,
            })
        }
        Expr::Product(a, b) => {
            let l = go(a, schema, stats, exec, plan, notes)?;
            let r = go(b, schema, stats, exec, plan, notes)?;
            let eid = exec.push(ExecOp::Product {
                left: l.eid,
                right: r.eid,
            });
            let est = l.est.zip(r.est).map(|(x, y)| x.saturating_mul(y));
            let nid = plan.add_est(Op::Join, vec![l.nid, r.nid], est);
            Some(combine_sides(l, r, eid, nid, est))
        }
        Expr::Union(a, b) | Expr::Difference(a, b) | Expr::Intersect(a, b) => {
            let l = go(a, schema, stats, exec, plan, notes)?;
            let r = go(b, schema, stats, exec, plan, notes)?;
            let (op, lop, est): (_, _, Option<u64>) = match expr {
                Expr::Union(..) => (
                    ExecOp::Union {
                        left: l.eid,
                        right: r.eid,
                    },
                    Op::Union,
                    l.est.zip(r.est).map(|(x, y)| x.saturating_add(y)),
                ),
                Expr::Difference(..) => (
                    ExecOp::Difference {
                        left: l.eid,
                        right: r.eid,
                    },
                    Op::Difference,
                    l.est,
                ),
                _ => (
                    ExecOp::Intersect {
                        left: l.eid,
                        right: r.eid,
                    },
                    Op::Intersect,
                    l.est.zip(r.est).map(|(x, y)| x.min(y)),
                ),
            };
            let eid = exec.push(op);
            let nid = plan.add_est(lop, vec![l.nid, r.nid], est);
            Some(Side {
                eid,
                nid,
                vars: Vec::new(),
                meta: l
                    .meta
                    .iter()
                    .zip(&r.meta)
                    .map(|(a, b)| if a == b { a.clone() } else { None })
                    .collect(),
                arity: l.arity,
                est,
            })
        }
        // The nested operators keep the tree-walk path.
        Expr::Nest(..) | Expr::Unnest(..) | Expr::Powerset(..) => None,
    }
}

/// Flatten a predicate's top-level conjunction.
fn conjuncts(p: &Pred) -> Vec<&Pred> {
    match p {
        Pred::And(a, b) => {
            let mut out = conjuncts(a);
            out.extend(conjuncts(b));
            out
        }
        other => vec![other],
    }
}

#[allow(clippy::too_many_arguments)]
fn lower_join_pattern(
    a: &Expr,
    b: &Expr,
    pred: &Pred,
    schema: &Schema,
    stats: Option<&Stats>,
    exec: &mut ExecPlan,
    plan: &mut Plan,
    notes: &mut Vec<String>,
) -> Option<Side> {
    let l = go(a, schema, stats, exec, plan, notes)?;
    let r = go(b, schema, stats, exec, plan, notes)?;
    let mut keys: Vec<(usize, usize)> = Vec::new();
    let mut residual: Vec<&Pred> = Vec::new();
    for c in conjuncts(pred) {
        match c {
            Pred::EqCols(i, j) => {
                let (i0, j0) = (i - 1, j - 1);
                let cross = (i0 < l.arity) != (j0 < l.arity);
                if cross {
                    let (lc, rc) = if i0 < l.arity {
                        (i0, j0 - l.arity)
                    } else {
                        (j0, i0 - l.arity)
                    };
                    keys.push((lc, rc));
                    continue;
                }
                residual.push(c);
            }
            other => residual.push(other),
        }
    }
    if keys.is_empty() {
        // No equi-join keys: plain σ(product).
        let eid = exec.push(ExecOp::Product {
            left: l.eid,
            right: r.eid,
        });
        let est = l.est.zip(r.est).map(|(x, y)| x.saturating_mul(y));
        let nid = plan.add_est(Op::Join, vec![l.nid, r.nid], est);
        let side = combine_sides(l, r, eid, nid, est);
        let eid = exec.push(ExecOp::Select {
            input: side.eid,
            pred: row_pred(pred),
        });
        let est = shrink(side.est, Some(2));
        let nid = plan.add_est(Op::Select { pred: pred.clone() }, vec![side.nid], est);
        return Some(Side {
            eid,
            nid,
            est,
            ..side
        });
    }

    let lk: Vec<usize> = keys.iter().map(|&(x, _)| x).collect();
    let rk: Vec<usize> = keys.iter().map(|&(_, y)| y).collect();
    let algo = choose_join(
        l.est,
        r.est,
        key_info(&l, &lk, stats),
        key_info(&r, &rk, stats),
    );
    let eid = exec.push(ExecOp::Join {
        left: l.eid,
        right: r.eid,
        keys: keys.clone(),
        algo,
    });
    let est = l.est.zip(r.est).map(|(x, y)| x.max(y));
    let nid = plan.add_est(Op::Join, vec![l.nid, r.nid], est);
    let desc = format!("{}, keys: {}", algo.label(), keys_desc(&keys));
    plan.nodes[nid].note = Some(desc.clone());
    notes.push(format!("join: {desc}"));
    let mut side = combine_sides(l, r, eid, nid, est);

    if !residual.is_empty() {
        let combined = residual
            .into_iter()
            .cloned()
            .reduce(|acc, p| acc.and(p))
            .expect("non-empty");
        let eid = exec.push(ExecOp::Select {
            input: side.eid,
            pred: row_pred(&combined),
        });
        let est = shrink(side.est, Some(2));
        let nid = plan.add_est(
            Op::Select {
                pred: combined.clone(),
            },
            vec![side.nid],
            est,
        );
        side = Side {
            eid,
            nid,
            est,
            ..side
        };
    }
    Some(side)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decision_table_is_deterministic_and_tiered() {
        // unknown stats → hash, build left
        assert_eq!(
            choose_join(None, Some(100), None, None),
            JoinAlgo::Hash { build_left: true }
        );
        // tiny side → nested loop
        assert_eq!(
            choose_join(Some(3), Some(1000), None, None),
            JoinAlgo::NestedLoop
        );
        // duplicate-heavy build side → merge
        assert_eq!(
            choose_join(Some(100), Some(1000), Some((100, 2)), None),
            JoinAlgo::Merge
        );
        // otherwise hash, building the smaller side
        assert_eq!(
            choose_join(Some(100), Some(1000), Some((100, 90)), Some((1000, 900))),
            JoinAlgo::Hash { build_left: true }
        );
        assert_eq!(
            choose_join(Some(1000), Some(100), Some((1000, 900)), Some((100, 90))),
            JoinAlgo::Hash { build_left: false }
        );
    }
}
