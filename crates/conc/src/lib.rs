//! # `no-conc` — the concurrency sanitizer substrate
//!
//! The parallel runtime of this workspace (the vendored work-stealing
//! pool, the lock-sharded interner, the governor's shared counters, the
//! server's token buckets) is load-bearing for every tractability
//! guarantee the engines enforce: a deadlock or a lost update in the
//! substrate silently invalidates results that the analyzers certified.
//! This crate makes that substrate *checkable* without making it slower.
//!
//! ## Layer 1 — instrumented sync shims
//!
//! [`Mutex`], [`RwLock`], [`AtomicBool`], [`AtomicU32`], [`AtomicU64`],
//! [`AtomicUsize`], [`AtomicPtr`], and [`yield_point`] are drop-in
//! replacements for their `std::sync` counterparts. With the `concheck`
//! feature **off** (the default, and the only configuration release
//! builds ever see) each shim is a `#[repr(transparent)]` wrapper whose
//! methods are `#[inline]` delegations — the generated code is identical
//! to using `std::sync` directly. The one deliberate semantic difference:
//! [`Mutex::lock`] / [`RwLock::write`] recover poison instead of
//! panicking, so one panicking thread can never cascade into a
//! process-wide panic storm through `.lock().unwrap()` chains.
//!
//! With `concheck` **on**, every acquire, release, and atomic op
//! additionally:
//!
//! 1. records a *held-while-acquiring* edge into the global
//!    lock-order graph (`lockdep`, lockdep-style, keyed by lock *class* —
//!    the `&'static str` passed to [`Mutex::new_named`]); and
//! 2. if the current thread is registered with an active
//!    schedule exploration (`sched`), becomes a *scheduling point*: the
//!    thread parks until the deterministic scheduler picks it, so every
//!    interleaving of instrumented operations can be driven, replayed,
//!    and exhaustively enumerated.
//!
//! ## Layer 2 — the analyses
//!
//! * `lockdep` accumulates acquisition-order edges across an entire
//!   test-suite run and reports any cycle as a structured `CC001`
//!   diagnostic carrying both witness chains (who held what, acquired
//!   where). A potential deadlock is reported even if no schedule ever
//!   actually deadlocks.
//! * `sched` is a bounded deterministic model checker: it serialises
//!   the threads of a closed scenario, drives every scheduling point from
//!   either a seeded PRNG (PCT-style random schedules, re-runnable from
//!   the printed seed) or an exhaustive small-preemption-bound DFS, and
//!   reports deadlocks (`CC002`), invariant violations (`CC003`), and
//!   step-cap livelocks (`CC004`) with a replayable schedule description.
//!
//! The diagnostic code table and the replay workflow are documented in
//! DESIGN.md §16.
//!
//! ## What the checker does and does not model
//!
//! Execution under the scheduler is *serialised*: exactly one thread runs
//! between scheduling points, so only sequentially-consistent
//! interleavings are explored. Races that exist solely under weak memory
//! orderings are out of scope (every atomic in the migrated crates is
//! either a monotone statistic or already uses acquire/release pairs
//! reviewed by hand); deadlocks, ABBA lock cycles, lost updates,
//! double-fires, and ordering bugs between instrumented operations are
//! all in scope.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

#[cfg(not(feature = "concheck"))]
mod plain;
#[cfg(not(feature = "concheck"))]
pub use plain::{
    AtomicBool, AtomicPtr, AtomicU32, AtomicU64, AtomicUsize, Mutex, MutexGuard, RwLock,
    RwLockReadGuard, RwLockWriteGuard,
};

#[cfg(feature = "concheck")]
mod checked;
#[cfg(feature = "concheck")]
pub use checked::{
    AtomicBool, AtomicPtr, AtomicU32, AtomicU64, AtomicUsize, Mutex, MutexGuard, RwLock,
    RwLockReadGuard, RwLockWriteGuard,
};

#[cfg(feature = "concheck")]
pub mod lockdep;
#[cfg(feature = "concheck")]
pub mod report;
#[cfg(feature = "concheck")]
pub mod sched;

/// A cooperative scheduling point.
///
/// No-op (and fully inlined away) when `concheck` is off. Under an
/// active schedule exploration, the calling thread parks here until the
/// model checker picks it to continue — insert one wherever a loop spins
/// on shared state without touching an instrumented primitive.
#[inline(always)]
pub fn yield_point() {
    #[cfg(feature = "concheck")]
    sched::internal::yield_gate();
}

/// Scoped-thread helpers that make `std::thread::scope` workers visible
/// to the model checker.
pub mod thread {
    /// Like `std::thread::scope`, but safe to use inside a model-checked
    /// scenario: if the scope closure unwinds (an invariant assertion
    /// failed on this schedule), the active exploration is aborted first
    /// so children parked at scheduling points exit before the scope's
    /// implicit join — otherwise that join would hang the harness.
    ///
    /// When `concheck` is off this is exactly `std::thread::scope`.
    pub fn scope<'env, F, T>(f: F) -> T
    where
        F: for<'scope> FnOnce(&'scope std::thread::Scope<'scope, 'env>) -> T,
    {
        #[cfg(feature = "concheck")]
        let out = std::thread::scope(|s| {
            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(s))) {
                Ok(v) => v,
                Err(p) => {
                    crate::sched::internal::abort_on_scope_panic(p.as_ref());
                    std::panic::resume_unwind(p)
                }
            }
        });
        #[cfg(not(feature = "concheck"))]
        let out = std::thread::scope(f);
        out
    }

    /// Spawn `f` inside `scope`, registering the child with the active
    /// schedule exploration (if any) so the model checker controls it.
    ///
    /// When `concheck` is off, or no exploration is active, or the
    /// calling thread is not itself controlled, this is exactly
    /// `scope.spawn(f)`.
    pub fn spawn_scoped<'scope, 'env, F, T>(
        scope: &'scope std::thread::Scope<'scope, 'env>,
        f: F,
    ) -> std::thread::ScopedJoinHandle<'scope, T>
    where
        F: FnOnce() -> T + Send + 'scope,
        T: Send + 'scope,
    {
        #[cfg(feature = "concheck")]
        if let Some(tid) = crate::sched::internal::prepare_child() {
            return scope.spawn(move || crate::sched::internal::run_child(tid, f));
        }
        scope.spawn(f)
    }

    /// Park (via the scheduler) until every controlled thread spawned by
    /// the calling thread has finished.
    ///
    /// Call this *before* the end of a `std::thread::scope` block whose
    /// workers were spawned with [`spawn_scoped`]: the implicit join at
    /// scope exit blocks outside the scheduler's knowledge, so without
    /// this barrier the model checker would see the parent vanish into an
    /// uncontrolled wait and report a spurious deadlock. No-op when
    /// `concheck` is off or no exploration is active.
    pub fn await_children() {
        #[cfg(feature = "concheck")]
        crate::sched::internal::await_children();
    }
}
