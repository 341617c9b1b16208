//! The shared resource governor.
//!
//! Complex-object query evaluation is hyperexponentially explosive unless
//! restricted (Theorem 4.1, the `hyper(i,k)` tower of §2), so every engine
//! in this workspace — the CALC evaluators, IFP/PFP loops, the Datalog
//! strategies, the nested algebra, and the TM simulation — must treat
//! blowups as *first-class errors*. This module is the single enforcement
//! layer they all share: one [`Governor`] handle carrying
//!
//! * **step fuel** — a global count of formula nodes / derived tuples /
//!   machine moves,
//! * a **quantifier-range cap** — the largest domain a single variable may
//!   range over,
//! * a **fixpoint-iteration cap**,
//! * a **wall-clock deadline**,
//! * an approximate **memory budget** (bytes of materialised tuples and
//!   domains), and
//! * a cooperative **cancellation flag**.
//!
//! Every check returns the same structured [`ResourceError`] naming the
//! exhausted budget, the checkpoint site, and the spent/limit amounts, so
//! callers (the shell, the bench harness, a future server) can report a
//! precise diagnostic and keep running.
//!
//! The handle is cheap to clone (an `Arc`) and internally atomic: nested
//! evaluators spawned during range computation or stratified evaluation
//! share one budget instead of each getting a fresh allowance.
//!
//! # Fault injection
//!
//! With the `faultinject` feature (or inside this crate's own tests),
//! `Governor::trip_after` arms a deterministic countdown: the *n*-th
//! subsequent governor check fails with the designated budget, regardless
//! of real consumption. Engine tests use this to prove that every
//! evaluator surfaces a structured error from any checkpoint — no panics,
//! no partial state — without having to construct a genuinely explosive
//! input for each code path.

use conc::{AtomicBool, AtomicU64};
use std::fmt;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which budget a [`ResourceError`] exhausted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BudgetKind {
    /// The global step-fuel budget ([`Limits::max_steps`]).
    Steps,
    /// The per-variable quantifier-range cap ([`Limits::max_range`]).
    Range,
    /// The fixpoint-iteration cap ([`Limits::max_fixpoint_iters`]).
    FixpointIters,
    /// The approximate memory budget ([`Limits::max_memory_bytes`]).
    Memory,
    /// The wall-clock deadline ([`Limits::deadline`]).
    Deadline,
    /// Cooperative cancellation via [`Governor::cancel`].
    Cancelled,
}

impl fmt::Display for BudgetKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BudgetKind::Steps => "step fuel",
            BudgetKind::Range => "quantifier range",
            BudgetKind::FixpointIters => "fixpoint iterations",
            BudgetKind::Memory => "memory",
            BudgetKind::Deadline => "deadline",
            BudgetKind::Cancelled => "cancellation",
        })
    }
}

/// Structured resource-exhaustion report: which budget, where in the
/// engine, and how much was consumed against what limit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResourceError {
    /// The exhausted budget.
    pub budget: BudgetKind,
    /// The checkpoint that observed the exhaustion (e.g. `"calc.eval"`,
    /// `"datalog.derive"`, `"tm.step"`).
    pub site: &'static str,
    /// Amount consumed when the check fired (steps, bytes, iterations, or
    /// elapsed milliseconds, per [`ResourceError::budget`]).
    pub spent: u64,
    /// The configured limit (milliseconds for deadlines; `0` when the
    /// budget has no numeric limit, as for cancellation).
    pub limit: u64,
}

impl fmt::Display for ResourceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.budget {
            BudgetKind::Cancelled => write!(
                f,
                "evaluation cancelled at {} after {} steps",
                self.site, self.spent
            ),
            BudgetKind::Deadline => write!(
                f,
                "deadline budget exhausted at {}: {} ms elapsed of {} ms allowed",
                self.site, self.spent, self.limit
            ),
            BudgetKind::Memory => write!(
                f,
                "memory budget exhausted at {}: {} bytes materialised of {} allowed",
                self.site, self.spent, self.limit
            ),
            kind => write!(
                f,
                "{} budget exhausted at {}: spent {} of {} allowed",
                kind, self.site, self.spent, self.limit
            ),
        }
    }
}

impl std::error::Error for ResourceError {}

/// The budgets a [`Governor`] enforces. `u64::MAX` (or `None` for the
/// deadline) means "unlimited".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Limits {
    /// Total step fuel: each formula-node evaluation, derived tuple,
    /// materialised row, or machine move costs one step.
    pub max_steps: u64,
    /// Maximum cardinality a single quantifier (or head variable, or
    /// fixpoint column product) may range over.
    pub max_range: u64,
    /// Maximum fixpoint iterations before IFP/PFP is declared stuck.
    pub max_fixpoint_iters: u64,
    /// Approximate bytes of materialised tuples/domains allowed.
    pub max_memory_bytes: u64,
    /// Wall-clock allowance for the whole evaluation.
    pub deadline: Option<Duration>,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_steps: 200_000_000,
            max_range: 1 << 22,
            max_fixpoint_iters: 1_000_000,
            max_memory_bytes: u64::MAX,
            deadline: None,
        }
    }
}

impl Limits {
    /// A small-budget configuration for tests that *expect* blowup.
    pub fn tight() -> Self {
        Limits {
            max_steps: 2_000_000,
            max_range: 1 << 12,
            max_fixpoint_iters: 10_000,
            max_memory_bytes: 64 << 20,
            deadline: None,
        }
    }

    /// Unlimited everything — for reference computations in tests.
    pub fn unlimited() -> Self {
        Limits {
            max_steps: u64::MAX,
            max_range: u64::MAX,
            max_fixpoint_iters: u64::MAX,
            max_memory_bytes: u64::MAX,
            deadline: None,
        }
    }
}

/// How often (in ticks) the governor consults the wall clock; checking
/// `Instant::now` on every formula node would dominate evaluation.
const DEADLINE_STRIDE: u64 = 256;

#[derive(Debug)]
struct Inner {
    limits: Limits,
    start: Instant,
    deadline_at: Option<Instant>,
    steps: AtomicU64,
    mem_bytes: AtomicU64,
    cancelled: AtomicBool,
    #[cfg(any(test, feature = "faultinject"))]
    fault: fault::Fault,
}

/// Shared, atomically-updated resource budget. Clones share the same
/// counters — hand one governor to every evaluator participating in a
/// query and they draw from a single allowance.
#[derive(Debug, Clone)]
pub struct Governor {
    inner: Arc<Inner>,
}

impl Default for Governor {
    fn default() -> Self {
        Governor::new(Limits::default())
    }
}

impl Governor {
    /// Start governing with the given limits; the deadline clock starts
    /// now.
    pub fn new(limits: Limits) -> Self {
        let start = Instant::now();
        let deadline_at = limits.deadline.map(|d| start + d);
        Governor {
            inner: Arc::new(Inner {
                limits,
                start,
                deadline_at,
                steps: AtomicU64::new(0),
                mem_bytes: AtomicU64::new(0),
                cancelled: AtomicBool::new(false),
                #[cfg(any(test, feature = "faultinject"))]
                fault: fault::Fault::default(),
            }),
        }
    }

    /// Unlimited governor for internal reference computations.
    pub fn unlimited() -> Self {
        Governor::new(Limits::unlimited())
    }

    /// The configured limits.
    pub fn limits(&self) -> &Limits {
        &self.inner.limits
    }

    /// Steps consumed so far.
    pub fn steps_spent(&self) -> u64 {
        self.inner.steps.load(Ordering::Relaxed)
    }

    /// Approximate bytes charged so far.
    pub fn mem_spent(&self) -> u64 {
        self.inner.mem_bytes.load(Ordering::Relaxed)
    }

    /// Wall-clock time since the governor was created.
    pub fn elapsed(&self) -> Duration {
        self.inner.start.elapsed()
    }

    /// Request cooperative cancellation: the next check on any clone
    /// fails with [`BudgetKind::Cancelled`].
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Relaxed);
    }

    /// Has [`Governor::cancel`] been called?
    pub fn is_cancelled(&self) -> bool {
        self.inner.cancelled.load(Ordering::Relaxed)
    }

    fn err(&self, budget: BudgetKind, site: &'static str) -> ResourceError {
        let (spent, limit) = match budget {
            BudgetKind::Steps => (self.steps_spent(), self.inner.limits.max_steps),
            BudgetKind::Range => (0, self.inner.limits.max_range),
            BudgetKind::FixpointIters => (0, self.inner.limits.max_fixpoint_iters),
            BudgetKind::Memory => (self.mem_spent(), self.inner.limits.max_memory_bytes),
            BudgetKind::Deadline => (
                self.elapsed().as_millis() as u64,
                self.inner
                    .limits
                    .deadline
                    .map_or(0, |d| d.as_millis() as u64),
            ),
            BudgetKind::Cancelled => (self.steps_spent(), 0),
        };
        ResourceError {
            budget,
            site,
            spent,
            limit,
        }
    }

    #[cfg(any(test, feature = "faultinject"))]
    fn fault_check(&self, site: &'static str) -> Result<(), ResourceError> {
        match self.inner.fault.fire() {
            Some(kind) => Err(self.err(kind, site)),
            None => Ok(()),
        }
    }

    #[cfg(not(any(test, feature = "faultinject")))]
    #[inline(always)]
    fn fault_check(&self, _site: &'static str) -> Result<(), ResourceError> {
        Ok(())
    }

    /// Cancellation + deadline check without consuming fuel. Cheap enough
    /// for inner loops: one atomic load, and the wall clock only every
    /// `DEADLINE_STRIDE` accumulated ticks.
    pub fn checkpoint(&self, site: &'static str) -> Result<(), ResourceError> {
        self.fault_check(site)?;
        if self.is_cancelled() {
            return Err(self.err(BudgetKind::Cancelled, site));
        }
        self.check_deadline_now(site)
    }

    /// Unconditional wall-clock check (used at loop boundaries where an
    /// iteration may represent a lot of work).
    pub fn check_deadline_now(&self, site: &'static str) -> Result<(), ResourceError> {
        if let Some(at) = self.inner.deadline_at {
            if Instant::now() >= at {
                return Err(self.err(BudgetKind::Deadline, site));
            }
        }
        Ok(())
    }

    /// Consume `n` units of step fuel.
    pub fn tick_n(&self, site: &'static str, n: u64) -> Result<(), ResourceError> {
        self.fault_check(site)?;
        if self.is_cancelled() {
            return Err(self.err(BudgetKind::Cancelled, site));
        }
        let before = self.inner.steps.fetch_add(n, Ordering::Relaxed);
        let after = before.saturating_add(n);
        if after > self.inner.limits.max_steps {
            return Err(self.err(BudgetKind::Steps, site));
        }
        // Consult the wall clock whenever the fuel counter crosses a
        // stride boundary.
        if self.inner.deadline_at.is_some() && (before / DEADLINE_STRIDE != after / DEADLINE_STRIDE)
        {
            self.check_deadline_now(site)?;
        }
        Ok(())
    }

    /// Consume one unit of step fuel — the per-formula-node / per-tuple /
    /// per-machine-move checkpoint.
    #[inline]
    pub fn tick(&self, site: &'static str) -> Result<(), ResourceError> {
        self.tick_n(site, 1)
    }

    /// Check a prospective quantifier/materialisation range of `card`
    /// elements against the range cap.
    pub fn check_range(&self, site: &'static str, card: u64) -> Result<(), ResourceError> {
        self.fault_check(site)?;
        if self.is_cancelled() {
            return Err(self.err(BudgetKind::Cancelled, site));
        }
        if card > self.inner.limits.max_range {
            let mut e = self.err(BudgetKind::Range, site);
            e.spent = card;
            return Err(e);
        }
        Ok(())
    }

    /// The configured range cap (for callers that compare hyperexponential
    /// cardinalities before they fit in a `u64`).
    pub fn max_range(&self) -> u64 {
        self.inner.limits.max_range
    }

    /// Check a fixpoint iteration count against the iteration cap.
    pub fn check_iters(&self, site: &'static str, iters: u64) -> Result<(), ResourceError> {
        self.fault_check(site)?;
        if self.is_cancelled() {
            return Err(self.err(BudgetKind::Cancelled, site));
        }
        if iters > self.inner.limits.max_fixpoint_iters {
            let mut e = self.err(BudgetKind::FixpointIters, site);
            e.spent = iters;
            return Err(e);
        }
        self.check_deadline_now(site)
    }

    /// Charge `bytes` of materialised data against the memory budget. The
    /// accounting is monotone (freeing is not credited back) — it bounds
    /// the total allocation churn of a query, which is the quantity that
    /// protects a serving process.
    pub fn charge_mem(&self, site: &'static str, bytes: u64) -> Result<(), ResourceError> {
        self.fault_check(site)?;
        let before = self.inner.mem_bytes.fetch_add(bytes, Ordering::Relaxed);
        if before.saturating_add(bytes) > self.inner.limits.max_memory_bytes {
            return Err(self.err(BudgetKind::Memory, site));
        }
        Ok(())
    }

    /// Arm the deterministic fault: the `n`-th subsequent governor check
    /// (1-based) fails with `kind`, regardless of real consumption.
    /// Compiled only under `cfg(test)` or the `faultinject` feature.
    #[cfg(any(test, feature = "faultinject"))]
    pub fn trip_after(&self, n: u64, kind: BudgetKind) {
        self.inner.fault.arm(n, kind);
    }

    /// Disarm a pending [`Governor::trip_after`].
    #[cfg(any(test, feature = "faultinject"))]
    pub fn clear_fault(&self) {
        self.inner.fault.clear();
    }
}

#[cfg(any(test, feature = "faultinject"))]
mod fault {
    use super::BudgetKind;
    use conc::{AtomicU64, Mutex};
    use std::sync::atomic::Ordering;

    #[derive(Debug)]
    pub(super) struct Fault {
        /// Checks remaining until the fault fires; 0 = disarmed.
        countdown: AtomicU64,
        kind: Mutex<Option<BudgetKind>>,
    }

    impl Default for Fault {
        fn default() -> Self {
            Fault {
                countdown: AtomicU64::new(0),
                kind: Mutex::new_named("governor.fault", None),
            }
        }
    }

    impl Fault {
        pub(super) fn arm(&self, n: u64, kind: BudgetKind) {
            *self.kind.lock() = Some(kind);
            self.countdown.store(n.max(1), Ordering::SeqCst);
        }

        pub(super) fn clear(&self) {
            self.countdown.store(0, Ordering::SeqCst);
            *self.kind.lock() = None;
        }

        /// Decrement the countdown; report the armed kind when it hits 0.
        pub(super) fn fire(&self) -> Option<BudgetKind> {
            // Fast path: disarmed.
            if self.countdown.load(Ordering::Relaxed) == 0 {
                return None;
            }
            if self.countdown.fetch_sub(1, Ordering::SeqCst) == 1 {
                return *self.kind.lock();
            }
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_limits_are_more_generous_than_tight() {
        let (d, t) = (Limits::default(), Limits::tight());
        assert!(d.max_range > t.max_range);
        assert!(d.max_steps > t.max_steps);
    }

    #[test]
    fn step_fuel_exhausts_with_structured_error() {
        let g = Governor::new(Limits {
            max_steps: 3,
            ..Limits::unlimited()
        });
        assert!(g.tick("t").is_ok());
        assert!(g.tick("t").is_ok());
        assert!(g.tick("t").is_ok());
        let e = g.tick("t").unwrap_err();
        assert_eq!(e.budget, BudgetKind::Steps);
        assert_eq!(e.site, "t");
        assert_eq!(e.limit, 3);
        assert!(e.spent >= 4);
        assert!(e.to_string().contains("step fuel"), "{e}");
    }

    #[test]
    fn clones_share_one_budget() {
        let g = Governor::new(Limits {
            max_steps: 10,
            ..Limits::unlimited()
        });
        let h = g.clone();
        for _ in 0..5 {
            g.tick("a").unwrap();
            h.tick("b").unwrap();
        }
        assert_eq!(g.steps_spent(), 10);
        assert!(h.tick("b").is_err());
    }

    #[test]
    fn range_and_iters_checks() {
        let g = Governor::new(Limits {
            max_range: 100,
            max_fixpoint_iters: 5,
            ..Limits::unlimited()
        });
        assert!(g.check_range("r", 100).is_ok());
        let e = g.check_range("r", 101).unwrap_err();
        assert_eq!(e.budget, BudgetKind::Range);
        assert_eq!((e.spent, e.limit), (101, 100));
        assert!(g.check_iters("i", 5).is_ok());
        let e = g.check_iters("i", 6).unwrap_err();
        assert_eq!(e.budget, BudgetKind::FixpointIters);
    }

    #[test]
    fn memory_accounting_is_cumulative() {
        let g = Governor::new(Limits {
            max_memory_bytes: 1000,
            ..Limits::unlimited()
        });
        assert!(g.charge_mem("m", 600).is_ok());
        let e = g.charge_mem("m", 600).unwrap_err();
        assert_eq!(e.budget, BudgetKind::Memory);
        assert!(e.spent >= 1000);
        assert_eq!(e.limit, 1000);
    }

    #[test]
    fn cancellation_fails_next_check() {
        let g = Governor::unlimited();
        g.tick("x").unwrap();
        g.cancel();
        let e = g.clone().tick("x").unwrap_err();
        assert_eq!(e.budget, BudgetKind::Cancelled);
        assert!(g.checkpoint("y").is_err());
    }

    #[test]
    fn deadline_enforced_on_stride() {
        let g = Governor::new(Limits {
            deadline: Some(Duration::from_millis(0)),
            ..Limits::unlimited()
        });
        // The stride means a few ticks may pass before the clock is read.
        let mut tripped = None;
        for _ in 0..2 * DEADLINE_STRIDE {
            if let Err(e) = g.tick("d") {
                tripped = Some(e);
                break;
            }
        }
        let e = tripped.expect("deadline never checked");
        assert_eq!(e.budget, BudgetKind::Deadline);
        assert!(g.check_deadline_now("d").is_err());
    }

    #[test]
    fn trip_after_fires_on_nth_check() {
        let g = Governor::unlimited();
        g.trip_after(3, BudgetKind::Memory);
        assert!(g.tick("f").is_ok());
        assert!(g.checkpoint("f").is_ok());
        let e = g.tick("f").unwrap_err();
        assert_eq!(e.budget, BudgetKind::Memory);
        // disarmed after firing
        assert!(g.tick("f").is_ok());
        g.trip_after(1, BudgetKind::Deadline);
        g.clear_fault();
        assert!(g.tick("f").is_ok());
    }
}
