//! Transactional variables: a CAS-able pointer to the current locator.
//!
//! A t-variable's entire shared state ([`TVarInner`]) is one atomic
//! pointer to the currently installed [`Locator`] beside two ids;
//! acquiring the variable is a CAS on this pointer, exactly the "exclusive
//! but revocable ownership" scheme of Section 1. A fresh variable costs
//! two allocations: the state and `T_0`'s locator ([`Locator::initial`]).
//!
//! Everything is reclaimed through the instance's reclamation domain
//! ([`crate::reclaim::GraceTracker`]) and nothing is counted on a
//! transaction's path: a transaction holds one guard of that domain for
//! its whole lifetime, so every locator address in its read-set stays
//! valid (no ABA) and so does the state the entry borrows. The word-level
//! table owns its `TVarInner`s and evicts them with `defer_destroy`; the
//! typed [`TVar`] is a handle whose clones are counted among themselves
//! only and whose last drop retires the state the same way, into the
//! domain of the instance that created it — dropping it in the middle of
//! a transaction that read through it frees nothing that transaction can
//! still reach.

use super::descriptor::Descriptor;
use super::locator::Locator;
use crate::reclaim::{Atomic, GraceTracker, Guard, Owned, Shared};
use oftm_histories::{BaseObjId, TVarId, TxId};
use std::mem::ManuallyDrop;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// A shared transactional variable holding values of type `T`.
///
/// Cloning a `TVar` clones a handle to the same variable (like `Arc`).
#[derive(Clone)]
pub struct TVar<T: Clone + Send + Sync + 'static> {
    inner: Arc<Handle<T>>,
}

/// What the clones of a [`TVar`] share: the state, owned until the last
/// clone drops, and the domain of the instance it belongs to.
struct Handle<T: Clone + Send + Sync + 'static> {
    state: ManuallyDrop<Owned<TVarInner<T>>>,
    domain: Arc<GraceTracker>,
}

impl<T: Clone + Send + Sync + 'static> Drop for Handle<T> {
    fn drop(&mut self) {
        // SAFETY: the field is not touched again.
        let state = unsafe { ManuallyDrop::take(&mut self.state) };
        // SAFETY: unlinked — this was the last handle, so no new operation
        // can reach the state; a transaction that read through a handle
        // earlier holds a guard of `domain` (`Tx::read` checks) that
        // predates this call.
        unsafe { self.domain.defer_destroy(state.into_shared()) };
    }
}

/// The shared state of one t-variable. `repr(C)`: see [`TVarInner::erased`].
#[repr(C)]
pub(crate) struct TVarInner<T: Clone + Send + Sync + 'static> {
    pub id: TVarId,
    /// Base-object identity of the locator-pointer cell.
    pub base: BaseObjId,
    pub ptr: Atomic<Locator<T>>,
}

impl<T: Clone + Send + Sync + 'static> TVar<T> {
    /// Creates a t-variable of the instance that owns `domain`, with an
    /// initial value written by the conceptual initializing transaction
    /// `T_0` ([`super::Dstm::new_tvar`]).
    pub(crate) fn new(id: TVarId, initial: T, domain: Arc<GraceTracker>) -> Self {
        let state = ManuallyDrop::new(Owned::new(TVarInner::new(id, initial)));
        TVar {
            inner: Arc::new(Handle { state, domain }),
        }
    }

    pub(crate) fn state(&self) -> &TVarInner<T> {
        &self.inner.state
    }

    /// The domain the state retires into: the only one whose guards may
    /// read through this handle.
    pub(crate) fn domain(&self) -> &GraceTracker {
        &self.inner.domain
    }

    /// The t-variable's identifier.
    pub fn id(&self) -> TVarId {
        self.state().id
    }

    /// Reads the current committed value outside any transaction.
    ///
    /// This is *not* a TM operation (the paper's model has no
    /// non-transactional accesses, footnote 4); it exists for test oracles
    /// and post-run inspection. Linearizes at the locator load + status
    /// read.
    pub fn read_atomic(&self) -> T {
        self.state().read_atomic(&self.domain().begin())
    }
}

impl<T: Clone + Send + Sync + 'static> Drop for TVarInner<T> {
    fn drop(&mut self) {
        // SAFETY: the cell owns the current locator, and `&mut self` in
        // drop means no guard can reach the state any more: it can be
        // reclaimed immediately.
        drop(unsafe { self.ptr.take() });
    }
}

/// Internal helpers for the transaction engine.
impl<T: Clone + Send + Sync + 'static> TVarInner<T> {
    pub(crate) fn new(id: TVarId, initial: T) -> Self {
        let base = crate::record::fresh_base_id();
        TVarInner {
            id,
            base,
            ptr: Atomic::new(Locator::initial(base, initial)),
        }
    }

    /// See [`TVar::read_atomic`]; `guard` is of the instance's domain.
    pub(crate) fn read_atomic(&self, guard: &Guard<'_>) -> T {
        // SAFETY: loaded under `guard`; locators are only retired via
        // `defer_destroy` after being unlinked, so the reference is valid
        // for the guard's lifetime.
        let loc = unsafe { self.load(guard).deref() };
        // A live owner's tentative value is not committed yet.
        loc.resolve().unwrap_or(&loc.old).clone()
    }

    /// The view of this state that does not depend on `T`: what a
    /// type-erased read-set entry borrows.
    pub(crate) fn erased(&self) -> &TVarInner<()> {
        debug_assert_eq!(
            std::alloc::Layout::new::<Self>(),
            std::alloc::Layout::new::<TVarInner<()>>()
        );
        // SAFETY: `repr(C)` over two plain ids and one pointer cell gives
        // every instantiation the same layout (`T` sits behind the cell's
        // thin pointer). The view is a borrow — never dropped — through
        // which the engine reads the ids and compares the cell's pointer
        // (`current`); the one thing it reads behind that pointer is the
        // `T`-independent first field (`current_owner`).
        unsafe { &*(self as *const Self).cast() }
    }

    /// The transaction that installed the current locator (`None` is
    /// `T_0`): whom to name when a read of this variable fails validation.
    /// Abort path only; sound on the [`TVarInner::erased`] view.
    #[cold]
    pub(crate) fn current_owner(&self, guard: &Guard<'_>) -> Option<TxId> {
        let loc = self.load(guard).as_raw();
        // SAFETY: never null and loaded under `guard` (locators are only
        // retired via `defer_destroy` after being unlinked). `Locator` is
        // `repr(C)` with `owner` first, so the cast holds whatever `T` the
        // variable really carries, and `owner` is immutable once built.
        let owner = unsafe { &*loc.cast::<Option<Arc<Descriptor>>>() };
        owner.as_ref().map(|d| d.id())
    }

    /// Loads the current locator under `guard`.
    pub(crate) fn load<'g>(&self, guard: &'g Guard<'_>) -> Shared<'g, Locator<T>> {
        // ord: Acquire pairs with the locator-install CAS's Release half.
        self.ptr.load(Ordering::Acquire, guard)
    }

    /// Address of the currently installed locator. Read-set validation
    /// compares it with the address recorded at read time: a recorded
    /// locator's owner was already `Committed` or `Aborted` (both
    /// terminal), so the logical value can only change by the pointer
    /// changing, and the transaction's guard rules out address reuse.
    pub(crate) fn current(&self, guard: &Guard<'_>) -> usize {
        self.load(guard).as_raw() as usize
    }

    /// Attempts to swing the locator pointer from `current` to `new`,
    /// retiring the old locator on success. Returns the address of the new
    /// locator, or the rejected `new` on failure.
    pub(crate) fn cas<'g>(
        &self,
        current: Shared<'g, Locator<T>>,
        new: Owned<Locator<T>>,
        guard: &'g Guard<'_>,
    ) -> Result<usize, Owned<Locator<T>>> {
        let installed = self
            .ptr
            // ord: AcqRel — Release publishes the new locator's fields to
            // Acquire loaders; Acquire orders the unlinked `current` before
            // defer_destroy. Failure Acquire pairs with the winner's install.
            .compare_exchange(current, new, Ordering::AcqRel, Ordering::Acquire)?;
        // SAFETY: `current` has just been unlinked by this CAS and can no
        // longer be reached from the t-variable; readers that loaded it
        // earlier are protected by their own guards.
        unsafe { guard.core().defer_destroy(current) };
        Ok(installed.as_raw() as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dstm::descriptor::Descriptor;
    use oftm_histories::TxId;

    fn tvar<T: Clone + Send + Sync + 'static>(id: u64, initial: T) -> TVar<T> {
        TVar::new(TVarId(id), initial, Arc::default())
    }

    #[test]
    fn initial_value_readable() {
        let v = tvar(0, 42u64);
        assert_eq!(v.read_atomic(), 42);
    }

    #[test]
    fn clone_shares_state() {
        let v = tvar(1, 7u64);
        let w = v.clone();
        assert_eq!(w.read_atomic(), 7);
        assert!(std::ptr::eq(v.state(), w.state()));
    }

    #[test]
    fn cas_swings_and_retires() {
        let v = tvar(3, 1u64);
        let me = Arc::new(Descriptor::new(TxId::new(1, 0), 0));
        let guard = v.domain().begin();
        let cur = v.state().load(&guard);
        let newloc = Owned::new(Locator::new(Arc::clone(&me), 1u64, 9u64));
        let addr = v.state().cas(cur, newloc, &guard).expect("uncontended CAS");
        assert_eq!(v.state().current(&guard), addr);
        assert_eq!(v.state().erased().current(&guard), addr);
        assert_eq!(v.state().erased().id, TVarId(3));
        // Owner still live: logical value is old = 1.
        assert_eq!(v.read_atomic(), 1);
        me.try_commit();
        assert_eq!(v.read_atomic(), 9);
    }

    #[test]
    fn cas_failure_returns_locator() {
        let v = tvar(4, 1u64);
        let me = Arc::new(Descriptor::new(TxId::new(1, 0), 0));
        let guard = v.domain().begin();
        let cur = v.state().load(&guard);
        // First CAS wins.
        let l1 = Owned::new(Locator::new(Arc::clone(&me), 1u64, 2u64));
        v.state().cas(cur, l1, &guard).unwrap();
        // Second CAS with the stale `cur` must fail and hand the locator back.
        let l2 = Owned::new(Locator::new(Arc::clone(&me), 1u64, 3u64));
        assert!(v.state().cas(cur, l2, &guard).is_err());
    }

    #[test]
    fn non_u64_payloads_work() {
        let v = tvar(5, String::from("hello"));
        assert_eq!(v.read_atomic(), "hello");
    }
}
