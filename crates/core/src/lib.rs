//! # `no-core` — CALC query languages for complex objects
//!
//! The paper's primary contribution: the typed calculus CALC over complex
//! objects, its `CALC_i^k` restrictions, the inflationary and partial
//! fixpoint extensions, range restriction and safety analysis.
//!
//! # Example
//!
//! ```
//! use minipool::ThreadPool;
//! use no_core::{eval_pooled, parse_query};
//! use no_object::{Governor, Instance, RelationSchema, Schema, Type, Universe, Value};
//!
//! // a graph database G[U, U]
//! let mut universe = Universe::new();
//! let schema = Schema::from_relations([
//!     RelationSchema::new("G", vec![Type::Atom, Type::Atom]),
//! ]);
//! let mut db = Instance::empty(schema);
//! let (a, b, c) = (universe.intern("a"), universe.intern("b"), universe.intern("c"));
//! db.insert("G", vec![Value::Atom(a), Value::Atom(b)]);
//! db.insert("G", vec![Value::Atom(b), Value::Atom(c)]);
//!
//! // transitive closure via the IFP operator (Example 3.1)
//! let q = parse_query(
//!     "{[u:U, v:U] | ifp(S; x:U, y:U | G(x, y) \\/ exists z:U (S(x, z) /\\ G(z, y)))(u, v)}",
//!     &mut universe,
//! ).unwrap();
//! let closure = eval_pooled(&q, &db, &Governor::default(), &ThreadPool::sequential()).unwrap();
//! assert_eq!(closure.len(), 3); // ab, bc, ac
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod ast;
pub mod code;
pub mod conjunctive;
pub mod error;
pub mod eval;
pub mod nf;
pub mod orders;
pub mod parser;
pub mod print;
pub mod ranges;
pub mod report;
pub mod rr;
pub mod typeck;

pub use ast::{FixOp, Fixpoint, Formula, RelName, SpanTable, Term, VarName};
pub use error::EvalError;
pub use eval::{eval_pooled, Env, Evaluator, Query, RangeMap};
pub use parser::{
    parse_formula, parse_formula_spanned, parse_query, parse_query_spanned, parse_type, ParseError,
};
pub use print::Printer;
pub use typeck::{check, check_all, Checked, TypeError};
