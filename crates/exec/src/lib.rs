//! # `no-exec` — columnar execution kernels
//!
//! The physical execution layer the planner (`crates/plan`) lowers to
//! when a query falls in the *flat conjunctive* fragment: operators over
//! column-major relations of interned ids ([`no_object::ColumnTable`])
//! with secondary hash and sorted indexes, and real join algorithms —
//! hash join, merge join, nested loop — chosen per join from collected
//! statistics instead of always binding to the tree-walk kernels.
//!
//! Design invariants (see DESIGN.md §14):
//!
//! * **Canonical tables.** Every kernel consumes and produces tables in
//!   raw-id-sorted duplicate-free row order, so all three join
//!   algorithms produce bit-identical outputs and results are
//!   independent of thread count — the property `tests/exec_differential.rs`
//!   fuzzes.
//! * **Intern once per instance.** Scans read the canonical id tables the
//!   [`no_object::Instance`] caches (interned on first use, dropped by
//!   any mutation), and each execution interns its constants into its own
//!   overlay on that arena; workers only read ids. Raw-id order is an
//!   internal device that never escapes into results, and no governor
//!   charge depends on whether a table was cached.
//! * **Block-batched metering.** Governor charges accumulate locally and
//!   flush per [`meter::BLOCK`] steps ([`meter::BlockMeter`]): same
//!   totals as per-row charging, trip granularity coarsened by at most
//!   one block.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod kernels;
pub mod meter;
pub mod plan;
pub mod pred;

pub use kernels::JoinAlgo;
pub use plan::{execute, ExecId, ExecOp, ExecPlan};
pub use pred::RowPred;
