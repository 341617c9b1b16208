//! The executable plan: a flat arena of columnar operators.
//!
//! [`ExecPlan`] is the physical artifact `crates/plan` lowers conjunctive
//! CALC queries and flat algebra expressions to. It is built once per
//! (query, schema) and executed many times: [`execute`] takes the scanned
//! base relations from the instance's cached id tables
//! ([`Instance::id_table`]), interns the plan constants into a
//! per-execution overlay on the instance's arena ([`Instance::overlay`]),
//! evaluates the arena bottom-up with the kernels of
//! [`crate::kernels`], and resolves the root back to a value-level
//! [`Relation`].
//!
//! Join algorithm choice lives in the *plan* (picked by the planner from
//! collected statistics, recorded in `:explain`); this module only runs
//! what it is told.

use crate::kernels;
pub use crate::kernels::JoinAlgo;
use crate::meter::BlockMeter;
use crate::pred::RowPred;
use minipool::ThreadPool;
use no_object::{ColumnTable, Governor, Instance, Relation, ResourceError, Value};
use std::collections::HashMap;
use std::sync::Arc;

/// Index of a node in an [`ExecPlan`] arena.
pub type ExecId = usize;

/// One columnar operator. Children always precede parents in the arena.
#[derive(Clone, Debug)]
pub enum ExecOp {
    /// Scan a base relation by name.
    Scan {
        /// Relation name in the instance schema.
        rel: String,
    },
    /// The empty relation of a given arity (e.g. a statically
    /// unsatisfiable conjunct).
    Empty {
        /// Output arity.
        arity: usize,
    },
    /// A constant relation.
    Const {
        /// Output arity (needed when `rows` is empty).
        arity: usize,
        /// The rows, as values (interned per execution).
        rows: Vec<Vec<Value>>,
    },
    /// σ — filter by a row predicate.
    Select {
        /// Input node.
        input: ExecId,
        /// The predicate (0-based columns).
        pred: RowPred,
    },
    /// π — project to 0-based columns (may repeat or reorder).
    Project {
        /// Input node.
        input: ExecId,
        /// Output columns.
        cols: Vec<usize>,
    },
    /// ∪.
    Union {
        /// Left input.
        left: ExecId,
        /// Right input.
        right: ExecId,
    },
    /// ∖.
    Difference {
        /// Left input.
        left: ExecId,
        /// Right input.
        right: ExecId,
    },
    /// ∩.
    Intersect {
        /// Left input.
        left: ExecId,
        /// Right input.
        right: ExecId,
    },
    /// × — Cartesian product (right columns appended).
    Product {
        /// Left input.
        left: ExecId,
        /// Right input.
        right: ExecId,
    },
    /// ⋈ — equi-join with a planner-chosen algorithm.
    Join {
        /// Left input.
        left: ExecId,
        /// Right input.
        right: ExecId,
        /// Key column pairs (left column, right column), 0-based.
        keys: Vec<(usize, usize)>,
        /// The algorithm to run.
        algo: JoinAlgo,
    },
}

/// A flat-arena physical plan over the columnar kernels.
#[derive(Clone, Debug, Default)]
pub struct ExecPlan {
    nodes: Vec<ExecOp>,
    root: ExecId,
}

impl ExecPlan {
    /// An empty plan.
    pub fn new() -> Self {
        ExecPlan::default()
    }

    /// Append an operator (children must already be in the arena) and
    /// make it the root.
    pub fn push(&mut self, op: ExecOp) -> ExecId {
        debug_assert!(match &op {
            ExecOp::Select { input, .. } | ExecOp::Project { input, .. } =>
                *input < self.nodes.len(),
            ExecOp::Union { left, right }
            | ExecOp::Difference { left, right }
            | ExecOp::Intersect { left, right }
            | ExecOp::Product { left, right }
            | ExecOp::Join { left, right, .. } =>
                *left < self.nodes.len() && *right < self.nodes.len(),
            ExecOp::Scan { .. } | ExecOp::Empty { .. } | ExecOp::Const { .. } => true,
        });
        self.nodes.push(op);
        self.root = self.nodes.len() - 1;
        self.root
    }

    /// The operator arena, children before parents.
    pub fn nodes(&self) -> &[ExecOp] {
        &self.nodes
    }

    /// The root node.
    pub fn root(&self) -> ExecId {
        self.root
    }
}

/// Run a plan against an instance: bottom-up kernel evaluation over the
/// instance's interned form, root resolved to a value-level relation.
///
/// The first governor touch is a checkpoint at `"exec.start"`, so
/// injected faults and cancellations fire before any work. A scan is
/// treated as input admission — metered one step per base row, like the
/// Datalog engine's EDB load, whether or not the instance had its table
/// cached, and not charged as materialized memory; every operator's
/// output is metered through [`BlockMeter`].
pub fn execute(
    plan: &ExecPlan,
    instance: &Instance,
    governor: &Governor,
    pool: &ThreadPool,
) -> Result<Relation, ResourceError> {
    governor.checkpoint("exec.start")?;
    let int = instance.overlay();
    let mut scans: HashMap<&str, Arc<ColumnTable>> = HashMap::new();
    let mut slots: Vec<Arc<ColumnTable>> = Vec::with_capacity(plan.nodes.len());

    for op in plan.nodes() {
        let table = match op {
            ExecOp::Scan { rel } => {
                let t = match scans.get(rel.as_str()) {
                    Some(t) => Arc::clone(t),
                    None => {
                        let mut m = BlockMeter::new(governor, "exec.scan");
                        m.work(instance.relation(rel).len() as u64)?;
                        m.finish()?;
                        let t = instance.id_table(rel);
                        scans.insert(rel.as_str(), Arc::clone(&t));
                        t
                    }
                };
                slots.push(t);
                continue;
            }
            ExecOp::Empty { arity } => ColumnTable::empty(*arity),
            ExecOp::Const { arity, rows } => {
                let mut m = BlockMeter::new(governor, "exec.const");
                m.rows(rows.len() as u64, *arity)?;
                m.finish()?;
                let mut t = ColumnTable::empty(*arity);
                for row in rows {
                    t.push_row(&int.intern_row(row));
                }
                t.canonicalize();
                t
            }
            ExecOp::Select { input, pred } => {
                kernels::select(&slots[*input], pred, &int, governor)?
            }
            ExecOp::Project { input, cols } => kernels::project(&slots[*input], cols, governor)?,
            ExecOp::Union { left, right } => {
                kernels::union(&slots[*left], &slots[*right], governor)?
            }
            ExecOp::Difference { left, right } => {
                kernels::difference(&slots[*left], &slots[*right], governor)?
            }
            ExecOp::Intersect { left, right } => {
                kernels::intersect(&slots[*left], &slots[*right], governor)?
            }
            ExecOp::Product { left, right } => {
                kernels::product(&slots[*left], &slots[*right], governor)?
            }
            ExecOp::Join {
                left,
                right,
                keys,
                algo,
            } => kernels::join(&slots[*left], &slots[*right], keys, *algo, governor, pool)?,
        };
        slots.push(Arc::new(table));
    }

    let out = &slots[plan.root()];
    let mut m = BlockMeter::new(governor, "exec.out");
    m.work(out.len() as u64)?;
    m.finish()?;
    Ok(Relation::from_rows(
        (0..out.len()).map(|i| int.resolve_row(&out.row(i))),
    ))
}
