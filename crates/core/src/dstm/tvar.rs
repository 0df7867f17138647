//! Transactional variables: a CAS-able pointer to the current locator.
//!
//! A t-variable's entire shared state ([`TVarInner`]) is one atomic
//! pointer to the currently installed [`Locator`] beside two ids and the
//! value the paper's initialising transaction `T_0` gave it; acquiring the
//! variable is a CAS on this pointer, exactly the "exclusive but revocable
//! ownership" scheme of Section 1. The pointer stays null until the first
//! acquisition, so a fresh variable costs one allocation and a read of a
//! variable nobody has written stops at the state. The first writer CASes
//! null to a locator whose `old` is `T_0`'s value; a pointer never returns
//! to null, so a read-set entry that recorded address `0` validates
//! exactly.
//!
//! Everything is reclaimed through the instance's reclamation domain
//! ([`crate::reclaim::GraceTracker`]) and nothing is counted on a
//! transaction's path: a transaction holds one guard of that domain for
//! its whole lifetime, so every locator address in its read-set stays
//! valid (no ABA) and so does the state the entry borrows. A locator an
//! acquisition unlinks goes into its process's private bag in that domain
//! ([`super::tx`]). The word-level table owns its `TVarInner`s and evicts
//! them with `defer_destroy`; the typed [`TVar`] is a handle whose clones
//! are counted among themselves only and whose last drop retires the
//! state the same way, into the domain of the instance that created it —
//! dropping it in the middle of a transaction that read through it frees
//! nothing that transaction can still reach.

use super::locator::Locator;
use crate::reclaim::{Atomic, Deferred, GraceTracker, Guard, Owned, Shared};
use oftm_histories::{BaseObjId, TVarId, TxId};
use std::mem::{offset_of, ManuallyDrop};
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

/// What a successful [`TVarInner::cas`] returns: the locator it installed
/// and the one it unlinked (`None` while `T_0`'s value was current).
pub(crate) type Swung<'g, T> = (Shared<'g, Locator<T>>, Option<Deferred>);

/// The shared state of one t-variable. `repr(C)` with `initial` last:
/// see [`TVarInner::erased`].
#[repr(C)]
pub(crate) struct TVarInner<T: Clone + Send + Sync + 'static> {
    pub id: TVarId,
    /// Base-object identity of the locator-pointer cell (and of
    /// `initial`, which is never written).
    pub base: BaseObjId,
    /// Null until the first acquisition, never null again.
    pub ptr: Atomic<Locator<T>>,
    /// `T_0`'s value: the logical value while `ptr` is null.
    initial: T,
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
        // SAFETY: the cell owns the current locator (if any), and `&mut
        // self` in drop means no guard can reach the state any more: it can
        // be reclaimed immediately.
        drop(unsafe { self.ptr.take() });
    }
}

/// Internal helpers for the transaction engine.
impl<T: Clone + Send + Sync + 'static> TVarInner<T> {
    /// The fields [`TVarInner::erased`] reads sit where they sit in every
    /// instantiation (checked when `erased` is instantiated).
    const PREFIX: () = assert!(
        offset_of!(Self, id) == offset_of!(TVarInner<()>, id)
            && offset_of!(Self, base) == offset_of!(TVarInner<()>, base)
            && offset_of!(Self, ptr) == offset_of!(TVarInner<()>, ptr)
    );

    pub(crate) fn new(id: TVarId, initial: T) -> Self {
        TVarInner {
            id,
            base: crate::record::fresh_base_id(),
            ptr: Atomic::null(),
            initial,
        }
    }

    /// `T_0`'s value: what a null `ptr` stands for.
    pub(crate) fn initial(&self) -> &T {
        &self.initial
    }

    /// See [`TVar::read_atomic`]; `guard` is of the instance's domain.
    pub(crate) fn read_atomic(&self, guard: &Guard<'_>) -> T {
        let loc = self.load(guard);
        if loc.is_null() {
            return self.initial.clone();
        }
        // SAFETY: non-null and loaded under `guard`; locators are only
        // retired into the guard's domain after being unlinked, so the
        // reference is valid for the guard's lifetime.
        let loc = unsafe { loc.deref() };
        // A live owner's tentative value is not committed yet.
        loc.resolve().unwrap_or(&loc.old).clone()
    }

    /// The view of this state that does not depend on `T`: what a
    /// type-erased read-set entry borrows.
    pub(crate) fn erased(&self) -> &TVarInner<()> {
        let () = Self::PREFIX;
        // SAFETY: `repr(C)` with `initial` last, and `PREFIX` checks that
        // the ids and the pointer cell have the same offsets in both
        // instantiations (`T` is behind the cell's thin pointer or in
        // `initial`). The view is a borrow — never dropped, and its
        // zero-sized `initial` is never read — through which the engine
        // reads the ids and compares the cell's pointer (`current`); behind
        // that pointer it reads only the locator's `T`-independent prefix
        // (`current_owner`, [`Locator::erased`]).
        unsafe { &*(self as *const Self).cast() }
    }

    /// The transaction that installed the current locator (`None` while
    /// `T_0`'s value is current): whom to name when a read of this
    /// variable fails validation. Abort path only; sound on the
    /// [`TVarInner::erased`] view.
    #[cold]
    pub(crate) fn current_owner(&self, guard: &Guard<'_>) -> Option<TxId> {
        let loc = self.load(guard);
        // SAFETY: loaded under `guard` (locators are only retired into its
        // domain after being unlinked). On the erased view the
        // pointee is a `Locator` of whatever `T` the variable really
        // carries; `owner` is in the prefix `Locator<()>` shares with it
        // ([`Locator::erased`]) and immutable once built.
        (!loc.is_null()).then(|| unsafe { loc.deref() }.owner.id())
    }

    /// Loads the current locator under `guard`.
    pub(crate) fn load<'g>(&self, guard: &'g Guard<'_>) -> Shared<'g, Locator<T>> {
        // ord: Acquire pairs with the locator-install CAS's Release half.
        self.ptr.load(Ordering::Acquire, guard)
    }

    /// Address of the currently installed locator (`0`: none yet).
    /// Read-set validation compares it with the address recorded at read
    /// time: a recorded locator's owner was already `Committed` or
    /// `Aborted` (both terminal), and `T_0`'s value never changes, so the
    /// logical value can only change by the pointer changing; the
    /// transaction's guard rules out address reuse, and the pointer never
    /// returns to null.
    pub(crate) fn current(&self, guard: &Guard<'_>) -> usize {
        self.load(guard).as_raw() as usize
    }

    /// Attempts to swing the locator pointer from `current` (null: `T_0`)
    /// to `new`. Returns the installed locator and the one the CAS
    /// unlinked (`None` for `T_0`), which the caller must retire into the
    /// domain of the guard `current` was loaded under; or the rejected
    /// `new` on failure.
    pub(crate) fn cas<'g>(
        &self,
        current: Shared<'g, Locator<T>>,
        new: Owned<Locator<T>>,
    ) -> Result<Swung<'g, T>, Owned<Locator<T>>> {
        let installed = self
            .ptr
            // ord: AcqRel — Release publishes the new locator's fields to
            // Acquire loaders; Acquire orders the unlinked `current` before
            // its retirement. Failure Acquire pairs with the winner's install.
            .compare_exchange(current, new, Ordering::AcqRel, Ordering::Acquire)?;
        // SAFETY: `current` has just been unlinked by this CAS and can no
        // longer be reached from the t-variable; readers that loaded it
        // earlier are protected by their own guards of the domain the
        // caller retires it into. A `Locator<T>` is a `Box` (`Owned`).
        let unlinked = (!current.is_null()).then(|| unsafe { Deferred::unlinked(current) });
        Ok((installed, unlinked))
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
    fn a_fresh_variable_reads_t0_without_a_locator() {
        let v = tvar(2, 5u64);
        let guard = v.domain().begin();
        assert!(v.state().load(&guard).is_null());
        assert_eq!(*v.state().initial(), 5);
        assert_eq!(v.state().read_atomic(&guard), 5);
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
        // `T_0`'s value is inline: no locator until the first acquisition.
        assert!(cur.is_null());
        assert_eq!(v.state().erased().current(&guard), 0);
        assert_eq!(v.state().erased().current_owner(&guard), None);
        let newloc = Owned::new(Locator::new(Arc::clone(&me), 1u64, 9u64));
        let (installed, unlinked) = v.state().cas(cur, newloc).expect("uncontended CAS");
        assert!(unlinked.is_none(), "T_0's value is no locator");
        let addr = installed.as_raw() as usize;
        assert_eq!(v.state().current(&guard), addr);
        assert_eq!(v.state().erased().current(&guard), addr);
        assert_eq!(v.state().erased().id, TVarId(3));
        assert_eq!(v.state().erased().current_owner(&guard), Some(me.id()));
        // Owner still live: logical value is old = 1.
        assert_eq!(v.read_atomic(), 1);
        me.try_commit();
        assert_eq!(v.read_atomic(), 9);
        // The next acquisition unlinks the first locator and hands it back.
        let next = Owned::new(Locator::new(Arc::clone(&me), 9u64, 10u64));
        let (_, unlinked) = v.state().cas(installed, next).expect("uncontended CAS");
        v.domain().defer(unlinked.expect("a locator was unlinked"));
    }

    #[test]
    fn cas_failure_returns_locator() {
        let v = tvar(4, 1u64);
        let me = Arc::new(Descriptor::new(TxId::new(1, 0), 0));
        let guard = v.domain().begin();
        let cur = v.state().load(&guard);
        // First CAS wins.
        let l1 = Owned::new(Locator::new(Arc::clone(&me), 1u64, 2u64));
        v.state().cas(cur, l1).unwrap();
        // Second CAS with the stale `cur` must fail and hand the locator back.
        let l2 = Owned::new(Locator::new(Arc::clone(&me), 1u64, 3u64));
        assert!(v.state().cas(cur, l2).is_err());
    }

    #[test]
    fn non_u64_payloads_work() {
        let v = tvar(5, String::from("hello"));
        assert_eq!(v.read_atomic(), "hello");
    }
}
