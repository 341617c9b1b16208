//! # `no-datalog` — inflationary Datalog¬ over complex objects
//!
//! The deductive side of the paper's Section 3 correspondence: rules with
//! negation and membership over complex-object terms ([`program`]),
//! inflationary naive/semi-naive evaluation ([`mod@eval`]), and translation
//! into `CALC + IFP` fixpoints ([`translate`]).
//!
//! # Example
//!
//! ```
//! use minipool::ThreadPool;
//! use no_datalog::{eval_pooled, parse_program, Strategy};
//! use no_object::{Governor, Instance, RelationSchema, Schema, Type, Universe, Value};
//!
//! let mut universe = Universe::new();
//! let program = parse_program(
//!     "rel tc(U, U).\n\
//!      tc(x, y) :- G(x, y).\n\
//!      tc(x, y) :- tc(x, z), G(z, y).",
//!     &mut universe,
//! ).unwrap();
//!
//! let schema = Schema::from_relations([
//!     RelationSchema::new("G", vec![Type::Atom, Type::Atom]),
//! ]);
//! let mut db = Instance::empty(schema);
//! let (a, b, c) = (universe.intern("a"), universe.intern("b"), universe.intern("c"));
//! db.insert("G", vec![Value::Atom(a), Value::Atom(b)]);
//! db.insert("G", vec![Value::Atom(b), Value::Atom(c)]);
//!
//! let (gov, pool) = (Governor::default(), ThreadPool::sequential());
//! let (idb, stats) = eval_pooled(&program, &db, Strategy::SemiNaive, &gov, &pool).unwrap();
//! assert_eq!(idb["tc"].len(), 3);
//! assert!(stats.rounds >= 2);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod eval;
pub mod parser;
pub mod program;
pub mod simultaneous;
pub mod stratified;
pub mod translate;

pub use eval::{eval_pooled, EvalStats, Idb, Strategy};
pub use parser::{parse_program, parse_program_spanned};
pub use program::{DTerm, Literal, Program, ProgramError, Rule};
pub use simultaneous::{eval_simultaneous_pooled, to_simultaneous_ifp, SimEvalError, Simultaneous};
pub use stratified::{eval_stratified_pooled, stratify, StratifyError};
pub use translate::{to_ifp, TranslateError};
