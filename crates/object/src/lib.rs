//! # `no-object` — the complex-object substrate
//!
//! Data model for the reproduction of Grumbach & Vianu, *Tractable Query
//! Languages for Complex Object Databases* (PODS 1991 / JCSS 1995):
//!
//! * [`atom`] — interned atomic constants and enumerations `<_U`;
//! * [`types`] — complex-object types with set height and tuple width;
//! * [`value`] — values with canonical (order-independent) set semantics;
//! * [`order`] — the induced order `<_T` of Definition 4.2;
//! * [`domain`] — ranked, ordered, lazily enumerable type domains
//!   `dom(T, D)` with hyperexponential-safe cardinality arithmetic;
//! * [`nat`] — the arbitrary-precision naturals backing that arithmetic;
//! * [`hyper`] — the `hyper(i,k)` tower bound of Section 2;
//! * [`instance`] — schemas, relations, instances, `|I|` vs `‖I‖`, and
//!   each instance's lazily built interned form;
//! * [`intern`] — the hash-consing arena giving every canonical value a
//!   [`ValueId`] with O(1) equality, shared by all engine hot paths, and
//!   its two layers: a sealed per-instance base and per-request overlays;
//! * [`table`] — column-major canonical relations over interned ids, the
//!   storage of the columnar executor and of the interned form;
//! * [`encoding`] — the standard TM-tape encoding of Figure 2, with a
//!   decoder;
//! * [`text`] — a human-readable database text format for tools and the
//!   CLI.
//!
//! Everything downstream — the CALC evaluator, the fixpoint operators, the
//! Turing-machine simulation, the density analyzers — is built on these
//! modules.
//!
//! # Example
//!
//! ```
//! use no_object::{AtomOrder, Nat, Type, Universe, Value};
//! use no_object::domain::{card, rank, unrank};
//!
//! // three constants a < b < c
//! let universe = Universe::with_names(["a", "b", "c"]);
//! let order = AtomOrder::identity(&universe);
//!
//! // the domain of sets of atoms has 2^3 elements, totally ordered
//! let ty = Type::set(Type::Atom);
//! assert_eq!(card(&ty, 3).unwrap(), Nat::from(8u64));
//!
//! // {a, c} sits at rank 0b101 = 5 in the induced order
//! let ac = Value::set([
//!     Value::Atom(universe.get("a").unwrap()),
//!     Value::Atom(universe.get("c").unwrap()),
//! ]);
//! assert_eq!(rank(&order, &ty, &ac).unwrap(), Nat::from(5u64));
//! assert_eq!(unrank(&order, &ty, &Nat::from(5u64)).unwrap(), ac);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod atom;
pub mod domain;
pub mod encoding;
pub mod governor;
pub mod hyper;
pub mod instance;
pub mod intern;
pub mod nat;
pub mod order;
pub mod span;
pub mod table;
pub mod text;
pub mod types;
pub mod value;

pub use atom::{Atom, AtomOrder, Universe};
pub use domain::{DomainError, DomainIter};
pub use governor::{BudgetKind, Governor, Limits, ResourceError};
pub use instance::{Instance, Relation, RelationSchema, Schema};
pub use intern::{IdRelation, Interner, ValueId};
pub use nat::Nat;
pub use span::{caret_excerpt, Excerpt, Span};
pub use table::ColumnTable;
pub use types::Type;
pub use value::{SetValue, Value};
