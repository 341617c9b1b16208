//! Golden snapshots of `:explain` output.
//!
//! The differential and per-pass tests prove planned execution computes
//! the right *answers*; these snapshots pin the plan *renderings* — the
//! operator tree, the Definition 5.2/5.3 rule citations on range nodes,
//! the pass header, cardinality estimates, and the semi-naive delta
//! markers — so an accidental optimizer or printer change is visible in
//! review even when the answers stay identical.
//!
//! Inputs are the checked-in `data/` corpus (fixed graph, fixed queries),
//! so estimates are deterministic. Refresh after an intentional change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test explain_golden
//! ```

mod common;

use common::check_golden;
use nestdb::algebra::{Expr, Pred};
use nestdb::datalog::parse_program;
use nestdb::object::text::parse_database;
use nestdb::object::{Instance, Universe};
use nestdb::plan::{CalcMode, DatalogMode};
use nestdb::Session;
use std::fmt::Write as _;
use std::path::Path;

fn data(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("data")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path:?}: {e}"))
}

fn graph_db() -> (Universe, Instance) {
    let mut u = Universe::new();
    let (_schema, instance) = parse_database(&data("graph.no"), &mut u).unwrap();
    (u, instance)
}

/// Every query in `data/queries.calc`, planned under both CALC semantics
/// against `data/graph.no`, in one snapshot — the same corpus CI's deny
/// gate plans, so the golden pins what `nestdb explain` prints.
#[test]
fn calc_corpus_explain_snapshots() {
    let (mut u, instance) = graph_db();
    let session = Session::default();
    let mut snapshot = String::new();
    for (lineno, line) in data("queries.calc").lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('%') {
            continue;
        }
        let q = nestdb::core::parse_query(line, &mut u)
            .unwrap_or_else(|e| panic!("queries.calc:{}: {e:?}", lineno + 1));
        for mode in [CalcMode::ActiveDomain, CalcMode::Safe] {
            let planned = session
                .plan_calc(&instance, &q, mode)
                .unwrap_or_else(|e| panic!("queries.calc:{}: {e}", lineno + 1));
            let _ = writeln!(
                snapshot,
                "== queries.calc:{} ({mode:?}) ==\n{}",
                lineno + 1,
                planned.render_text()
            );
        }
    }
    check_golden("explain.calc.golden", &snapshot);
}

/// A constant-pinned conjunction: the pushdown pass must pin `x` to `'a'`
/// and the reorder pass must enumerate the pinned variable first.
#[test]
fn calc_pinned_explain_snapshot() {
    let (mut u, instance) = graph_db();
    let session = Session::default();
    let q = nestdb::core::parse_query("{[x:U, y:U] | G(x, y) /\\ x = 'a'}", &mut u).unwrap();
    let planned = session.plan_calc(&instance, &q, CalcMode::Safe).unwrap();
    check_golden("explain.calc.pinned.golden", &planned.render_text());
    check_golden("explain.calc.pinned.json.golden", &planned.render_json());
}

/// An algebra pipeline where predicate pushdown fires (σ over ×) and CSE
/// merges the repeated `π₁ G` subexpression, feeding a powerset the trips
/// pass annotates.
#[test]
fn algebra_explain_snapshot() {
    let (_u, instance) = graph_db();
    let session = Session::default();
    let proj = Expr::rel("G").project([1]);
    let expr = proj
        .clone()
        .product(proj)
        .select(Pred::EqCols(1, 2))
        .project([1])
        .powerset();
    let planned = session.plan_algebra(&instance, &expr).unwrap();
    check_golden("explain.algebra.golden", &planned.render_text());
}

/// The transitive-closure program under the semi-naive delta rewrite: the
/// recursive rule splits into a Δ-variant per IDB literal and the
/// non-recursive rule is marked as firing from round 0.
#[test]
fn datalog_explain_snapshot() {
    let (mut u, instance) = graph_db();
    let session = Session::default();
    let program = parse_program(&data("tc.dl"), &mut u).unwrap();
    let planned = session
        .plan_datalog(&instance, &program, DatalogMode::SemiNaive)
        .unwrap();
    check_golden("explain.datalog.golden", &planned.render_text());
}
