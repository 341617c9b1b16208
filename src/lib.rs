//! `nestdb` — umbrella crate re-exporting the full public API of the
//! reproduction of Grumbach & Vianu, *Tractable Query Languages for Complex
//! Object Databases* (PODS 1991).
//!
//! See the individual crates for the substrate layers:
//! - [`object`]: complex-object values, types, ranked domains, encodings
//! - [`algebra`]: nested-relational algebra operators (nest/unnest/powerset)
//! - [`core`]: the CALC query language, IFP/PFP fixpoints, range restriction
//! - [`tm`]: Turing machines and the relational simulation of Theorem 4.1
//! - [`datalog`]: inflationary Datalog over complex objects
//! - [`density`]: instance families and density/sparsity analysis
//! - [`exec`]: columnar execution kernels — hash/merge/nested-loop joins
//!   over per-column id vectors, picked per join by the planner
//! - [`analysis`]: static analyzer — diagnostics and complexity certificates
//! - [`plan`]: the logical/physical query-plan IR, optimizer passes, plan
//!   cache, and `:explain` renderings shared by every engine
//! - [`storage`]: durable databases — checksummed write-ahead log, `enc(I)`
//!   snapshots, and crash-anywhere recovery

pub use no_algebra as algebra;
pub use no_analysis as analysis;
pub use no_core as core;
pub use no_datalog as datalog;
pub use no_density as density;
pub use no_exec as exec;
pub use no_ivm as ivm;
pub use no_object as object;
pub use no_plan as plan;
pub use no_proto as proto;
pub use no_server as server;
pub use no_storage as storage;
pub use no_tm as tm;

pub mod check;
pub mod error;
pub mod service;
pub mod session;
pub mod shell;

pub use error::Error;
pub use minipool::ThreadPool;
pub use proto::{Request, Response};
pub use session::{Session, SessionBuilder, Store};
