//! Transactional variables.
//!
//! A [`TVar<T>`] is a word in transactional memory: a value, a version
//! number, and a commit lock. The design follows the word-based, lazy
//! versioning scheme of TL2/SwissTM: readers validate against a global clock
//! snapshot, writers buffer updates and publish them at commit under the
//! per-variable commit lock.

use std::any::Any;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Marker returned when a transactional operation detects a conflict (or the
/// user requests a retry). The transaction machinery catches it and re-runs
/// the atomic block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StmAbort;

/// Result type used inside atomic blocks.
pub type TxResult<T> = Result<T, StmAbort>;

/// Type-erased view of a [`TVar`] used by the transaction read/write sets.
pub(crate) trait TxTarget: Sync {
    /// Stable identity of the variable (its address), used for write-set
    /// deduplication and global lock ordering.
    fn addr(&self) -> usize;
    /// Current version.
    fn version(&self) -> u64;
    /// Whether the commit lock is held.
    fn is_commit_locked(&self) -> bool;
    /// Try to take the commit lock.
    fn try_commit_lock(&self) -> bool;
    /// Release the commit lock.
    fn release_commit_lock(&self);
    /// Store a buffered value (must be of the variable's type) and publish
    /// the new version. Only called while the commit lock is held.
    fn store_boxed(&self, value: Box<dyn Any + Send>, new_version: u64);
}

/// A transactional variable holding a value of type `T`.
pub struct TVar<T> {
    value: Mutex<T>,
    version: AtomicU64,
    commit_lock: AtomicBool,
}

impl<T: std::fmt::Debug> std::fmt::Debug for TVar<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TVar")
            .field("version", &self.version.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl<T> TVar<T> {
    /// Lock the value. A holder that panicked leaves no partial update
    /// behind (every critical section is one clone or one store), so poison
    /// is ignored.
    fn lock(&self) -> MutexGuard<'_, T> {
        self.value.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: Clone + Send + 'static> TVar<T> {
    /// Create a new transactional variable.
    pub fn new(value: T) -> Self {
        TVar {
            value: Mutex::new(value),
            version: AtomicU64::new(0),
            commit_lock: AtomicBool::new(false),
        }
    }

    /// Read the current value outside of any transaction. This is a
    /// consistent snapshot of the single variable (not of the whole memory)
    /// and is intended for post-run inspection and tests.
    pub fn read_atomic(&self) -> T {
        self.lock().clone()
    }

    /// Replace the value outside of any transaction (e.g. during
    /// single-threaded initialisation). Bumps the version so concurrent
    /// transactions notice.
    pub fn write_atomic(&self, value: T) {
        let mut guard = self.lock();
        *guard = value;
        self.version.fetch_add(1, Ordering::Release);
    }

    /// Consistent transactional read: returns the value and the version it
    /// was read at, or [`StmAbort`] if the variable is being committed to or
    /// is newer than the transaction's snapshot `rv`.
    pub(crate) fn read_consistent(&self, rv: u64) -> TxResult<(T, u64)> {
        let v1 = self.version.load(Ordering::Acquire);
        if self.commit_lock.load(Ordering::Acquire) {
            return Err(StmAbort);
        }
        let value = self.lock().clone();
        let v2 = self.version.load(Ordering::Acquire);
        if v1 != v2 || v1 > rv {
            return Err(StmAbort);
        }
        Ok((value, v1))
    }
}

impl<T: Clone + Send + 'static> TxTarget for TVar<T> {
    fn addr(&self) -> usize {
        self as *const _ as *const u8 as usize
    }

    fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    fn is_commit_locked(&self) -> bool {
        self.commit_lock.load(Ordering::Acquire)
    }

    fn try_commit_lock(&self) -> bool {
        self.commit_lock
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
    }

    fn release_commit_lock(&self) {
        self.commit_lock.store(false, Ordering::Release);
    }

    fn store_boxed(&self, value: Box<dyn Any + Send>, new_version: u64) {
        let typed = value
            .downcast::<T>()
            .expect("write-set value has the wrong type for its TVar");
        {
            let mut guard = self.lock();
            *guard = *typed;
        }
        self.version.store(new_version, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atomic_read_write_roundtrip() {
        let var = TVar::new(41);
        assert_eq!(var.read_atomic(), 41);
        var.write_atomic(42);
        assert_eq!(var.read_atomic(), 42);
        assert_eq!(var.version(), 1);
    }

    #[test]
    fn consistent_read_respects_snapshot() {
        let var = TVar::new(7u32);
        // Version 0 <= rv 0: fine.
        assert_eq!(var.read_consistent(0).unwrap(), (7, 0));
        var.write_atomic(8);
        // Version is now 1 > rv 0: the reader's snapshot is stale.
        assert_eq!(var.read_consistent(0), Err(StmAbort));
        assert_eq!(var.read_consistent(1).unwrap(), (8, 1));
    }

    #[test]
    fn consistent_read_aborts_on_locked_variable() {
        let var = TVar::new(1u64);
        assert!(var.try_commit_lock());
        assert_eq!(var.read_consistent(10), Err(StmAbort));
        var.release_commit_lock();
        assert!(var.read_consistent(10).is_ok());
    }

    #[test]
    fn commit_lock_is_exclusive() {
        let var = TVar::new(0u8);
        assert!(var.try_commit_lock());
        assert!(!var.try_commit_lock());
        var.release_commit_lock();
        assert!(var.try_commit_lock());
        var.release_commit_lock();
    }

    #[test]
    fn store_boxed_publishes_value_and_version() {
        let var = TVar::new(String::from("old"));
        assert!(var.try_commit_lock());
        var.store_boxed(Box::new(String::from("new")), 5);
        var.release_commit_lock();
        assert_eq!(var.read_atomic(), "new");
        assert_eq!(var.version(), 5);
    }

    #[test]
    fn addresses_are_distinct_per_variable() {
        let a = TVar::new(0);
        let b = TVar::new(0);
        assert_ne!(TxTarget::addr(&a), TxTarget::addr(&b));
    }

    #[test]
    #[should_panic]
    fn store_boxed_with_wrong_type_panics() {
        let var = TVar::new(1u32);
        var.store_boxed(Box::new("oops"), 1);
    }
}
