//! Transactional variables: a CAS-able pointer to the current locator.
//!
//! A `TVar<T>` is the paper's t-variable. Its entire shared state is one
//! atomic pointer to the currently installed [`Locator`]; acquiring the
//! variable (for reading or writing) is a CAS on this pointer, exactly the
//! "exclusive but revocable ownership" scheme of Section 1. Replaced
//! locators are reclaimed through `crossbeam_epoch`: a transaction pins the
//! epoch for its whole lifetime, so every locator address it recorded in
//! its read-set stays valid (no ABA) until the transaction ends.

use super::descriptor::Descriptor;
use super::locator::Locator;
use crossbeam_epoch::{Atomic, Guard, Owned, Shared};
use oftm_histories::{BaseObjId, TVarId, TxId};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// A shared transactional variable holding values of type `T`.
///
/// Cloning a `TVar` clones a handle to the same variable (like `Arc`).
pub struct TVar<T: Clone + Send + Sync + 'static> {
    pub(crate) inner: Arc<TVarInner<T>>,
}

impl<T: Clone + Send + Sync + 'static> Clone for TVar<T> {
    fn clone(&self) -> Self {
        TVar {
            inner: Arc::clone(&self.inner),
        }
    }
}

pub(crate) struct TVarInner<T: Clone + Send + Sync + 'static> {
    pub id: TVarId,
    /// Base-object identity of the locator-pointer cell.
    pub base: BaseObjId,
    pub ptr: Atomic<Locator<T>>,
}

impl<T: Clone + Send + Sync + 'static> TVar<T> {
    /// Creates a t-variable with an initial value, installed by the
    /// conceptual initializing transaction `T_0` (a pre-committed
    /// descriptor), so the resolution rules need no special "no locator"
    /// case.
    pub fn new(id: TVarId, initial: T) -> Self {
        let init_desc = Arc::new(Descriptor::committed(TxId::new(u32::MAX, id.0 as u32)));
        let locator = Locator::new(init_desc, initial.clone(), initial);
        TVar {
            inner: Arc::new(TVarInner {
                id,
                base: crate::record::fresh_base_id(),
                ptr: Atomic::new(locator),
            }),
        }
    }

    /// The t-variable's identifier.
    pub fn id(&self) -> TVarId {
        self.inner.id
    }

    /// Reads the current committed value outside any transaction.
    ///
    /// This is *not* a TM operation (the paper's model has no
    /// non-transactional accesses, footnote 4); it exists for test oracles
    /// and post-run inspection. Linearizes at the locator load + status
    /// read.
    pub fn read_atomic(&self) -> T {
        let guard = crossbeam_epoch::pin();
        // ord: Acquire pairs with the Release half of the locator-install
        // CAS so the locator's fields are visible.
        let shared = self.inner.ptr.load(Ordering::Acquire, &guard);
        // SAFETY: `shared` was loaded under `guard`; locators are only
        // retired via `defer_destroy` after being unlinked, so the
        // reference is valid for the guard's lifetime.
        let loc = unsafe { shared.deref() };
        match loc.owner.status() {
            super::descriptor::TxState::Committed => {
                // SAFETY: status observed Committed with Acquire.
                unsafe { loc.committed_value().clone() }
            }
            _ => loc.old.clone(),
        }
    }
}

impl<T: Clone + Send + Sync + 'static> Drop for TVarInner<T> {
    fn drop(&mut self) {
        // SAFETY: `&mut self` in drop means no other thread holds a handle;
        // the current locator can be reclaimed immediately.
        unsafe {
            let guard = crossbeam_epoch::unprotected();
            // ord: Relaxed — exclusive access in Drop (&mut self).
            let shared = self.ptr.load(Ordering::Relaxed, guard);
            if !shared.is_null() {
                drop(shared.into_owned());
            }
        }
    }
}

/// Object-safe view of a t-variable used by the type-erased read-set.
pub(crate) trait TVarDyn: Send + Sync {
    fn base(&self) -> BaseObjId;
    /// Address of the currently installed locator. Read-set validation
    /// compares it with the address recorded at read time: a recorded
    /// locator's owner was already `Committed` or `Aborted` (both
    /// terminal), so the logical value can only change by the pointer
    /// changing, and the transaction's pin rules out address reuse.
    fn current(&self, guard: &Guard) -> usize;
}

impl<T: Clone + Send + Sync + 'static> TVarDyn for TVarInner<T> {
    fn base(&self) -> BaseObjId {
        self.base
    }

    fn current(&self, guard: &Guard) -> usize {
        self.load(guard).as_raw() as usize
    }
}

/// Internal helpers for the transaction engine.
impl<T: Clone + Send + Sync + 'static> TVarInner<T> {
    /// Loads the current locator under `guard`.
    pub(crate) fn load<'g>(&self, guard: &'g Guard) -> Shared<'g, Locator<T>> {
        // ord: Acquire pairs with the locator-install CAS's Release half.
        self.ptr.load(Ordering::Acquire, guard)
    }

    /// Attempts to swing the locator pointer from `current` to `new`,
    /// retiring the old locator on success. Returns the address of the new
    /// locator, or the rejected `new` on failure.
    pub(crate) fn cas<'g>(
        &self,
        current: Shared<'g, Locator<T>>,
        new: Owned<Locator<T>>,
        guard: &'g Guard,
    ) -> Result<usize, Owned<Locator<T>>> {
        match self
            .ptr
            // ord: AcqRel — Release publishes the new locator's fields to
            // Acquire loaders; Acquire orders the unlinked `current` before
            // defer_destroy. Failure Acquire pairs with the winner's install.
            .compare_exchange(current, new, Ordering::AcqRel, Ordering::Acquire, guard)
        {
            Ok(installed) => {
                // SAFETY: `current` has just been unlinked by this CAS and
                // can no longer be reached from the t-variable; readers that
                // loaded it earlier are protected by their own pins.
                unsafe { guard.defer_destroy(current) };
                Ok(installed.as_raw() as usize)
            }
            Err(e) => Err(e.new),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_value_readable() {
        let v = TVar::new(TVarId(0), 42u64);
        assert_eq!(v.read_atomic(), 42);
    }

    #[test]
    fn clone_shares_state() {
        let v = TVar::new(TVarId(1), 7u64);
        let w = v.clone();
        assert_eq!(w.read_atomic(), 7);
        assert!(Arc::ptr_eq(&v.inner, &w.inner));
    }

    #[test]
    fn cas_swings_and_retires() {
        let v = TVar::new(TVarId(3), 1u64);
        let me = Arc::new(Descriptor::new(TxId::new(1, 0), 0));
        let guard = crossbeam_epoch::pin();
        let cur = v.inner.load(&guard);
        let newloc = Owned::new(Locator::new(Arc::clone(&me), 1u64, 9u64));
        let addr = v.inner.cas(cur, newloc, &guard).expect("uncontended CAS");
        assert_eq!(v.inner.current(&guard), addr);
        // Owner still live: logical value is old = 1.
        assert_eq!(v.read_atomic(), 1);
        me.try_commit();
        assert_eq!(v.read_atomic(), 9);
    }

    #[test]
    fn cas_failure_returns_locator() {
        let v = TVar::new(TVarId(4), 1u64);
        let me = Arc::new(Descriptor::new(TxId::new(1, 0), 0));
        let guard = crossbeam_epoch::pin();
        let cur = v.inner.load(&guard);
        // First CAS wins.
        let l1 = Owned::new(Locator::new(Arc::clone(&me), 1u64, 2u64));
        v.inner.cas(cur, l1, &guard).unwrap();
        // Second CAS with the stale `cur` must fail and hand the locator back.
        let l2 = Owned::new(Locator::new(Arc::clone(&me), 1u64, 3u64));
        assert!(v.inner.cas(cur, l2, &guard).is_err());
    }

    #[test]
    fn non_u64_payloads_work() {
        let v = TVar::new(TVarId(5), String::from("hello"));
        assert_eq!(v.read_atomic(), "hello");
    }
}
