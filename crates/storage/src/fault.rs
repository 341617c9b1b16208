//! Deterministic I/O fault injection — PR 1's governor fault machinery
//! extended to the storage layer.
//!
//! Every I/O operation the storage layer performs (file creation, write,
//! fsync, rename, truncate) consults a shared [`IoFaults`] handle before
//! touching the OS. With the `faultinject` feature (or inside this
//! crate's own tests), `IoFaults::arm` plants a deterministic fault at
//! the *n*-th subsequent matching operation:
//!
//! * [`FaultMode::Crash`] — the operation fails without side effects,
//!   modelling a process kill before the syscall;
//! * [`FaultMode::ShortWrite`] — a write persists only its first `k`
//!   bytes and then fails, modelling a torn write at the kill point;
//! * [`FaultMode::FlipByte`] — a write silently persists with one bit of
//!   the chosen byte inverted, modelling latent media corruption that
//!   only the checksums can catch later.
//!
//! Injected failures surface as ordinary [`StorageError::Io`] values
//! whose message starts with [`INJECTED`], so the crash-point sweep can
//! tell an injected kill from a real environmental failure. Without the
//! feature every hook compiles to an inlined no-op.
//!
//! [`StorageError::Io`]: crate::StorageError::Io

use std::sync::Arc;

/// Marker prefix on the message of injected I/O errors.
pub const INJECTED: &str = "injected fault";

/// Which class of I/O operation a fault is armed for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Appending or writing file bytes.
    Write,
    /// `fsync` of a file or directory.
    Sync,
    /// Atomic rename (snapshot publication).
    Rename,
    /// File creation/truncation (WAL reset, snapshot temp).
    Create,
    /// Truncation of a torn WAL tail during recovery.
    Truncate,
}

/// What happens when the armed operation is reached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultMode {
    /// Fail the operation with no side effects.
    Crash,
    /// For writes: persist only the first `k` bytes, then fail. Other
    /// operations treat this as [`FaultMode::Crash`].
    ShortWrite(usize),
    /// For writes: persist the buffer with bit 0 of byte `i` (modulo the
    /// buffer length) inverted, and report success. Other operations
    /// ignore the fault. The corruption stays latent until a checksum
    /// trips over it.
    FlipByte(usize),
}

/// Shared handle arming deterministic I/O faults. Cheap to clone; clones
/// share one countdown, like [`no_object::Governor`] clones share one
/// budget.
///
/// [`no_object::Governor`]: no_object::Governor
#[derive(Debug, Clone, Default)]
pub struct IoFaults {
    #[cfg(any(test, feature = "faultinject"))]
    inner: Arc<imp::Inner>,
    #[cfg(not(any(test, feature = "faultinject")))]
    _inner: Arc<()>,
}

/// The outcome of consulting the fault handle before a write. Without
/// the `faultinject` feature only [`WriteOutcome::Ok`] is ever built.
#[derive(Debug, Clone, PartialEq, Eq)]
#[cfg_attr(not(any(test, feature = "faultinject")), allow(dead_code))]
pub(crate) enum WriteOutcome {
    /// Proceed normally.
    Ok,
    /// Persist only this many bytes, then fail.
    Short(usize),
    /// Persist this (corrupted) buffer instead and report success.
    Corrupted(Vec<u8>),
    /// Fail without writing.
    Crash,
}

impl IoFaults {
    /// A handle with no fault armed.
    pub fn none() -> Self {
        IoFaults::default()
    }

    /// Arm a fault at the `n`-th (1-based) subsequent operation of `kind`
    /// (`None` counts every operation). Replaces any previously armed
    /// fault. Compiled only under `cfg(test)` or the `faultinject`
    /// feature.
    #[cfg(any(test, feature = "faultinject"))]
    pub fn arm(&self, kind: Option<OpKind>, n: u64, mode: FaultMode) {
        self.inner.arm(kind, n, mode);
    }

    /// Disarm any pending fault.
    #[cfg(any(test, feature = "faultinject"))]
    pub fn disarm(&self) {
        self.inner.disarm();
    }

    /// Total I/O operations observed by this handle (armed or not) — the
    /// sweep uses a fault-free run to size its crash-point loop.
    #[cfg(any(test, feature = "faultinject"))]
    pub fn ops(&self) -> u64 {
        self.inner.ops()
    }

    /// Consult the handle before a non-write operation of `kind`.
    /// `Ok(())` means proceed; `Err(())` means the operation must fail as
    /// an injected crash.
    #[cfg(any(test, feature = "faultinject"))]
    pub(crate) fn before(&self, kind: OpKind) -> Result<(), ()> {
        match self.inner.fire(kind) {
            Some(FaultMode::FlipByte(_)) | None => Ok(()),
            Some(_) => Err(()),
        }
    }

    #[cfg(not(any(test, feature = "faultinject")))]
    #[inline(always)]
    pub(crate) fn before(&self, _kind: OpKind) -> Result<(), ()> {
        Ok(())
    }

    /// Consult the handle before writing `buf`.
    #[cfg(any(test, feature = "faultinject"))]
    pub(crate) fn before_write(&self, buf: &[u8]) -> WriteOutcome {
        match self.inner.fire(OpKind::Write) {
            None => WriteOutcome::Ok,
            Some(FaultMode::Crash) => WriteOutcome::Crash,
            Some(FaultMode::ShortWrite(k)) => WriteOutcome::Short(k.min(buf.len())),
            Some(FaultMode::FlipByte(i)) => {
                if buf.is_empty() {
                    return WriteOutcome::Ok;
                }
                let mut owned = buf.to_vec();
                let idx = i % owned.len();
                owned[idx] ^= 1;
                WriteOutcome::Corrupted(owned)
            }
        }
    }

    #[cfg(not(any(test, feature = "faultinject")))]
    #[inline(always)]
    pub(crate) fn before_write(&self, _buf: &[u8]) -> WriteOutcome {
        WriteOutcome::Ok
    }
}

#[cfg(any(test, feature = "faultinject"))]
mod imp {
    use super::{FaultMode, OpKind};
    use conc::{AtomicU64, Mutex};
    use std::sync::atomic::Ordering;

    #[derive(Debug, Default)]
    pub(super) struct Inner {
        /// Total operations observed, armed or not.
        ops: AtomicU64,
        plan: Mutex<Option<Plan>>,
    }

    #[derive(Debug)]
    struct Plan {
        kind: Option<OpKind>,
        /// Matching operations remaining until the fault fires.
        countdown: u64,
        mode: FaultMode,
    }

    impl Inner {
        pub(super) fn arm(&self, kind: Option<OpKind>, n: u64, mode: FaultMode) {
            *self.plan.lock() = Some(Plan {
                kind,
                countdown: n.max(1),
                mode,
            });
        }

        pub(super) fn disarm(&self) {
            *self.plan.lock() = None;
        }

        pub(super) fn ops(&self) -> u64 {
            self.ops.load(Ordering::Relaxed)
        }

        pub(super) fn fire(&self, kind: OpKind) -> Option<FaultMode> {
            self.ops.fetch_add(1, Ordering::Relaxed);
            let mut guard = self.plan.lock();
            let plan = guard.as_mut()?;
            if plan.kind.is_some_and(|k| k != kind) {
                return None;
            }
            plan.countdown -= 1;
            if plan.countdown == 0 {
                let mode = plan.mode;
                *guard = None;
                Some(mode)
            } else {
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_fires_on_nth_matching_op() {
        let f = IoFaults::none();
        f.arm(Some(OpKind::Sync), 2, FaultMode::Crash);
        assert_eq!(f.before(OpKind::Write), Ok(())); // non-matching
        assert_eq!(f.before(OpKind::Sync), Ok(())); // 1st sync
        assert_eq!(f.before(OpKind::Sync), Err(())); // 2nd sync: crash
        assert_eq!(f.before(OpKind::Sync), Ok(())); // disarmed after firing
        assert_eq!(f.ops(), 4);
    }

    #[test]
    fn short_write_and_flip() {
        let f = IoFaults::none();
        f.arm(Some(OpKind::Write), 1, FaultMode::ShortWrite(3));
        assert_eq!(f.before_write(b"hello"), WriteOutcome::Short(3));
        f.arm(Some(OpKind::Write), 1, FaultMode::ShortWrite(99));
        assert_eq!(f.before_write(b"hi"), WriteOutcome::Short(2));
        f.arm(Some(OpKind::Write), 1, FaultMode::FlipByte(6));
        assert_eq!(
            f.before_write(b"abcd"),
            WriteOutcome::Corrupted(vec![b'a', b'b', b'c' ^ 1, b'd'])
        );
    }

    #[test]
    fn any_kind_filter_counts_everything() {
        let f = IoFaults::none();
        f.arm(None, 3, FaultMode::Crash);
        assert_eq!(f.before(OpKind::Create), Ok(()));
        assert_eq!(f.before_write(b"x"), WriteOutcome::Ok);
        assert_eq!(f.before(OpKind::Rename), Err(()));
    }

    #[test]
    fn clones_share_the_countdown() {
        let f = IoFaults::none();
        let g = f.clone();
        f.arm(None, 2, FaultMode::Crash);
        assert_eq!(g.before(OpKind::Sync), Ok(()));
        assert_eq!(f.before(OpKind::Sync), Err(()));
    }
}
