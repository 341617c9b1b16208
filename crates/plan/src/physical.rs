//! The physical plan: the executable counterpart of a logical [`crate::ir::Plan`].
//!
//! Physical operators bind directly to the existing interned/pooled
//! runtime kernels — the CALC [`Evaluator`], the bottom-up algebra
//! evaluator, and the Datalog¬ round engines. That binding is deliberate:
//! the kernels already thread the [`Governor`] fuel/memory accounting at
//! every site, so a planned evaluation draws from exactly the same meters
//! as the legacy tree-walk path and trips with the same structured
//! [`ResourceError`]s. What the optimizer changes is *which* kernel
//! invocation runs (variable order, pinned ranges, delta rewriting,
//! pushed-down selections), never how work is accounted.

use no_algebra::{AlgebraError, Expr};
use no_core::ast::VarName;
use no_core::error::EvalError;
use no_core::eval::{active_order, Evaluator};
use no_core::ranges::compute_ranges;
use no_core::Query;
use no_datalog::{
    eval_pooled, eval_simultaneous_pooled, eval_stratified_pooled, EvalStats, Idb, Program,
    ProgramError, SimEvalError, Strategy, StratifyError,
};
use no_object::{AtomOrder, Governor, Instance, Relation, ResourceError, Type, Value};
use std::collections::BTreeMap;
use std::fmt;

/// Which CALC semantics the plan executes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CalcMode {
    /// Active-domain enumeration (Definition 5.1).
    ActiveDomain,
    /// Restricted-domain safe evaluation (Theorem 5.1): compute ranges,
    /// enumerate only them.
    Safe,
}

/// Which Datalog¬ engine the plan drives.
#[derive(Clone, PartialEq, Debug)]
pub enum DatalogMode {
    /// Inflationary, full re-derivation each round.
    Naive,
    /// Inflationary with the semi-naive delta rewrite applied.
    SemiNaive,
    /// Stratified semantics (per-stratum fixpoints).
    Stratified,
    /// Translation to one simultaneous `IFP` on the CALC evaluator, with
    /// the extra body variable typings the translation needs.
    Simultaneous(Vec<(String, Type)>),
}

/// An executable plan. Payloads are the optimized front-end forms the
/// runtime kernels accept; the paired logical [`crate::ir::Plan`] documents the
/// same computation operator by operator.
#[derive(Clone, Debug)]
pub enum Physical {
    /// A CALC query (head possibly permuted by quantifier reordering).
    Calc {
        /// The query to run (after optimizer rewrites).
        query: Query,
        /// Variable typings from plan-time typechecking (safe mode needs
        /// them to recompute ranges per instance).
        var_types: BTreeMap<VarName, Type>,
        /// Semantics.
        mode: CalcMode,
        /// `Some(perm)` when the head was reordered: planned column `i`
        /// is original column `perm[i]`, and execution restores the
        /// original order before returning.
        restore: Option<Vec<usize>>,
        /// Constant pins from predicate pushdown: each `(v, c)` came from
        /// a top-level conjunct `v = c`, so `v`'s range collapses to the
        /// singleton `{c}` (intersected with any computed range).
        pins: Vec<(String, Value)>,
    },
    /// An algebra expression (after pushdown rewrites).
    Algebra {
        /// The optimized expression.
        expr: Expr,
    },
    /// A Datalog¬ program under one of the four strategies.
    Datalog {
        /// The program.
        program: Program,
        /// The strategy (semi-naive iff the delta pass ran).
        mode: DatalogMode,
    },
    /// A columnar plan over the `no-exec` kernels, produced by the
    /// join-algorithms pass for flat conjunctive CALC queries and flat
    /// algebra expressions.
    Exec {
        /// The operator arena to run.
        plan: no_exec::ExecPlan,
        /// Which front-end produced it (decides how a resource trip is
        /// wrapped, so `Session` error chains stay per-engine).
        origin: ExecOrigin,
    },
}

/// The front-end a [`Physical::Exec`] plan came from.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ExecOrigin {
    /// Lowered from a CALC query.
    Calc,
    /// Lowered from an algebra expression.
    Algebra,
}

/// What a plan execution produced.
#[derive(Debug)]
pub enum Output {
    /// A single relation (CALC and algebra plans).
    Relation(Relation),
    /// All IDB relations (Datalog plans), with engine stats when the
    /// strategy reports them.
    Idb(Idb, Option<EvalStats>),
}

impl Output {
    /// The relation of a CALC/algebra plan.
    ///
    /// # Panics
    /// Panics on Datalog output — caller mismatch is a bug.
    pub fn into_relation(self) -> Relation {
        match self {
            Output::Relation(r) => r,
            Output::Idb(..) => panic!("expected a relation, got an IDB"),
        }
    }

    /// The IDB of a Datalog plan.
    ///
    /// # Panics
    /// Panics on relation output — caller mismatch is a bug.
    pub fn into_idb(self) -> Idb {
        match self {
            Output::Idb(idb, _) => idb,
            Output::Relation(_) => panic!("expected an IDB, got a relation"),
        }
    }
}

/// Errors from planning or executing a plan, wrapping each engine's
/// structured error unchanged (so governor trips keep their payloads).
#[derive(Debug, Clone, PartialEq)]
pub enum PlanError {
    /// CALC lowering/execution failed.
    Calc(EvalError),
    /// Algebra lowering/execution failed.
    Algebra(AlgebraError),
    /// Datalog execution failed.
    Datalog(ProgramError),
    /// Stratified execution failed.
    Stratify(StratifyError),
    /// Simultaneous-IFP execution failed.
    Simultaneous(SimEvalError),
    /// The plan shape does not fit the requested operation.
    Unsupported(String),
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::Calc(e) => write!(f, "{e}"),
            PlanError::Algebra(e) => write!(f, "{e}"),
            PlanError::Datalog(e) => write!(f, "{e}"),
            PlanError::Stratify(e) => write!(f, "{e}"),
            PlanError::Simultaneous(e) => write!(f, "{e}"),
            PlanError::Unsupported(what) => write!(f, "unplannable: {what}"),
        }
    }
}

impl std::error::Error for PlanError {}

impl PlanError {
    /// The structured resource trip inside, when the failure is one.
    pub fn resource(&self) -> Option<&ResourceError> {
        match self {
            PlanError::Calc(EvalError::Resource(r)) => Some(r),
            PlanError::Algebra(AlgebraError::Resource(r)) => Some(r),
            PlanError::Datalog(ProgramError::Resource(r)) => Some(r),
            PlanError::Stratify(StratifyError::Program(ProgramError::Resource(r))) => Some(r),
            PlanError::Simultaneous(SimEvalError::Eval(EvalError::Resource(r))) => Some(r),
            _ => None,
        }
    }
}

impl From<EvalError> for PlanError {
    fn from(e: EvalError) -> Self {
        PlanError::Calc(e)
    }
}

impl From<AlgebraError> for PlanError {
    fn from(e: AlgebraError) -> Self {
        PlanError::Algebra(e)
    }
}

/// Permute a result relation's columns back to the original head order:
/// planned column `i` holds original column `perm[i]`.
fn restore_columns(rel: Relation, perm: &[usize]) -> Relation {
    rel.iter()
        .map(|row| {
            let mut out = vec![Value::Atom(no_object::Atom(0)); row.len()];
            for (i, v) in row.iter().enumerate() {
                out[perm[i]] = v.clone();
            }
            out
        })
        .collect()
}

impl Physical {
    /// Execute the plan on an instance, drawing from `governor` and
    /// fanning hot loops over `pool` — the same contract as every legacy
    /// engine entry point.
    pub fn execute(
        &self,
        instance: &Instance,
        governor: &Governor,
        pool: &minipool::ThreadPool,
    ) -> Result<Output, PlanError> {
        match self {
            Physical::Calc {
                query,
                var_types,
                mode,
                restore,
                pins,
            } => {
                let order = active_order(instance, query);
                let mut ev =
                    Evaluator::new(instance, order, governor.clone()).with_pool(pool.clone());
                match mode {
                    CalcMode::ActiveDomain => {
                        if !pins.is_empty() {
                            let map = pins
                                .iter()
                                .map(|(v, c)| (v.clone(), vec![c.clone()]))
                                .collect();
                            ev = ev.with_ranges(map);
                        }
                    }
                    CalcMode::Safe => {
                        let ranges = compute_ranges(instance, var_types, &query.body, governor)?;
                        let mut map = ranges.to_range_map();
                        for (v, c) in pins {
                            match map.get_mut(v) {
                                // An empty intersection is sound: the
                                // pinned conjunct is unsatisfiable then.
                                Some(vs) => vs.retain(|x| x == c),
                                None => {
                                    map.insert(v.clone(), vec![c.clone()]);
                                }
                            }
                        }
                        ev = ev.with_ranges(map);
                    }
                }
                let rel = ev.query(query)?;
                Ok(Output::Relation(match restore {
                    Some(perm) => restore_columns(rel, perm),
                    None => rel,
                }))
            }
            Physical::Algebra { expr } => {
                let rel = no_algebra::eval_pooled(expr, instance, governor, pool)?;
                Ok(Output::Relation(rel))
            }
            Physical::Datalog { program, mode } => match mode {
                DatalogMode::Naive | DatalogMode::SemiNaive => {
                    let strategy = if *mode == DatalogMode::SemiNaive {
                        Strategy::SemiNaive
                    } else {
                        Strategy::Naive
                    };
                    let (idb, stats) = eval_pooled(program, instance, strategy, governor, pool)
                        .map_err(PlanError::Datalog)?;
                    Ok(Output::Idb(idb, Some(stats)))
                }
                DatalogMode::Stratified => {
                    let idb = eval_stratified_pooled(program, instance, governor, pool)
                        .map_err(PlanError::Stratify)?;
                    Ok(Output::Idb(idb, None))
                }
                DatalogMode::Simultaneous(body_var_types) => {
                    let typed: Vec<(&str, Type)> = body_var_types
                        .iter()
                        .map(|(v, t)| (v.as_str(), t.clone()))
                        .collect();
                    let order = AtomOrder::new(instance.atoms().into_iter().collect());
                    let idb =
                        eval_simultaneous_pooled(program, &typed, instance, order, governor, pool)
                            .map_err(PlanError::Simultaneous)?;
                    Ok(Output::Idb(idb, None))
                }
            },
            Physical::Exec { plan, origin } => {
                let rel =
                    no_exec::execute(plan, instance, governor, pool).map_err(|r| match origin {
                        ExecOrigin::Calc => PlanError::Calc(EvalError::Resource(r)),
                        ExecOrigin::Algebra => PlanError::Algebra(AlgebraError::Resource(r)),
                    })?;
                Ok(Output::Relation(rel))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use no_object::Atom;

    #[test]
    fn restore_columns_inverts_a_permutation() {
        let rel: Relation = [vec![
            Value::Atom(Atom(0)),
            Value::Atom(Atom(1)),
            Value::Atom(Atom(2)),
        ]]
        .into_iter()
        .collect();
        // planned column 0 is original column 2, etc.
        let out = restore_columns(rel, &[2, 0, 1]);
        let row = out.iter().next().unwrap().clone();
        assert_eq!(
            row,
            vec![
                Value::Atom(Atom(1)),
                Value::Atom(Atom(2)),
                Value::Atom(Atom(0))
            ]
        );
    }
}
