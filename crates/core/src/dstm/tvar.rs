//! Transactional variables: a CAS-able pointer to the current locator.
//!
//! A t-variable's entire shared state (`TVarInner`) is one atomic
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
//! ([`super::tx`]). The word-level table ([`super::word`]) owns every
//! `TVarInner` and evicts it with `defer_destroy` into the same domain, so
//! evicting a variable in the middle of a transaction that read it frees
//! nothing that transaction can still reach.

use super::locator::Locator;
use crate::reclaim::{Atomic, Deferred, Guard, Owned, Shared};
use oftm_histories::{BaseObjId, TVarId, TxId, Value};
use std::sync::atomic::Ordering;

/// What a successful [`TVarInner::cas`] returns: the locator it installed
/// and the one it unlinked (`None` while `T_0`'s value was current).
pub(crate) type Swung<'g> = (Shared<'g, Locator>, Option<Deferred>);

/// The shared state of one t-variable.
pub(crate) struct TVarInner {
    pub id: TVarId,
    /// Base-object identity of the locator-pointer cell (and of
    /// `initial`, which is never written).
    pub base: BaseObjId,
    /// Null until the first acquisition, never null again.
    pub ptr: Atomic<Locator>,
    /// `T_0`'s value: the logical value while `ptr` is null.
    initial: Value,
}

impl Drop for TVarInner {
    fn drop(&mut self) {
        // SAFETY: the cell owns the current locator (if any), and `&mut
        // self` in drop means no guard can reach the state any more: it can
        // be reclaimed immediately.
        drop(unsafe { self.ptr.take() });
    }
}

/// Internal helpers for the transaction engine.
impl TVarInner {
    pub(crate) fn new(id: TVarId, initial: Value) -> Self {
        TVarInner {
            id,
            base: crate::record::fresh_base_id(),
            ptr: Atomic::null(),
            initial,
        }
    }

    /// `T_0`'s value: what a null `ptr` stands for.
    pub(crate) fn initial(&self) -> &Value {
        &self.initial
    }

    /// Reads the current committed value outside any transaction (test
    /// oracles and the hybrid's migration walk; the paper's model has no
    /// non-transactional accesses, footnote 4). `guard` is of the
    /// instance's domain. Linearizes at the locator load + status read.
    pub(crate) fn read_atomic(&self, guard: &Guard<'_>) -> Value {
        let loc = self.load(guard);
        if loc.is_null() {
            return self.initial;
        }
        // SAFETY: non-null and loaded under `guard`; locators are only
        // retired into the guard's domain after being unlinked, so the
        // reference is valid for the guard's lifetime.
        let loc = unsafe { loc.deref() };
        // A live owner's tentative value is not committed yet.
        *loc.resolve().unwrap_or(&loc.old)
    }

    /// The transaction that installed the current locator (`None` while
    /// `T_0`'s value is current): whom to name when a read of this
    /// variable fails validation. Abort path only.
    #[cold]
    pub(crate) fn current_owner(&self, guard: &Guard<'_>) -> Option<TxId> {
        let loc = self.load(guard);
        // SAFETY: loaded under `guard` (locators are only retired into its
        // domain after being unlinked); `owner` is immutable once built.
        (!loc.is_null()).then(|| unsafe { loc.deref() }.owner.id())
    }

    /// Loads the current locator under `guard`.
    pub(crate) fn load<'g>(&self, guard: &'g Guard<'_>) -> Shared<'g, Locator> {
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
        current: Shared<'g, Locator>,
        new: Owned<Locator>,
    ) -> Result<Swung<'g>, Owned<Locator>> {
        let installed = self
            .ptr
            // ord: AcqRel — Release publishes the new locator's fields to
            // Acquire loaders; Acquire orders the unlinked `current` before
            // its retirement. Failure Acquire pairs with the winner's install.
            .compare_exchange(current, new, Ordering::AcqRel, Ordering::Acquire)?;
        // SAFETY: `current` has just been unlinked by this CAS and can no
        // longer be reached from the t-variable; readers that loaded it
        // earlier are protected by their own guards of the domain the
        // caller retires it into. A `Locator` is a `Box` (`Owned`).
        let unlinked = (!current.is_null()).then(|| unsafe { Deferred::unlinked(current) });
        Ok((installed, unlinked))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dstm::descriptor::Descriptor;
    use crate::reclaim::GraceTracker;
    use crate::table::Pinned;
    use oftm_histories::TxId;
    use std::sync::Arc;

    fn tvar(id: u64, initial: Value) -> TVarInner {
        TVarInner::new(TVarId(id), initial)
    }

    #[test]
    fn initial_value_readable() {
        let (v, domain) = (tvar(0, 42), GraceTracker::new());
        assert_eq!(v.read_atomic(&domain.begin()), 42);
    }

    #[test]
    fn a_fresh_variable_reads_t0_without_a_locator() {
        let (v, domain) = (tvar(2, 5), GraceTracker::new());
        let guard = domain.begin();
        assert!(v.load(&guard).is_null());
        assert_eq!(*v.initial(), 5);
        assert_eq!(v.read_atomic(&guard), 5);
    }

    /// A read-set entry is a copy of a pin, not of the state: both see an
    /// acquisition made through the state itself.
    #[test]
    fn clone_shares_state() {
        let (v, domain) = (tvar(1, 7), GraceTracker::new());
        // SAFETY: `v` outlives both pins and is never retired.
        let pin = unsafe { Pinned::new(&v) };
        let copy = pin;
        assert!(std::ptr::eq(&*pin, &*copy));
        let me = Arc::new(Descriptor::new(TxId::new(1, 0)));
        let guard = domain.begin();
        let (installed, _) = v
            .cas(v.load(&guard), Owned::new(Locator::new(me, 7, 8)))
            .expect("uncontended CAS");
        let addr = installed.as_raw() as usize;
        assert_eq!((pin.current(&guard), copy.current(&guard)), (addr, addr));
    }

    #[test]
    fn cas_swings_and_retires() {
        let (v, domain) = (tvar(3, 1), GraceTracker::new());
        let me = Arc::new(Descriptor::new(TxId::new(1, 0)));
        let guard = domain.begin();
        let cur = v.load(&guard);
        // `T_0`'s value is inline: no locator until the first acquisition.
        assert!(cur.is_null());
        assert_eq!(v.current(&guard), 0);
        assert_eq!(v.current_owner(&guard), None);
        let newloc = Owned::new(Locator::new(Arc::clone(&me), 1, 9));
        let (installed, unlinked) = v.cas(cur, newloc).expect("uncontended CAS");
        assert!(unlinked.is_none(), "T_0's value is no locator");
        let addr = installed.as_raw() as usize;
        assert_eq!(v.current(&guard), addr);
        assert_eq!(v.id, TVarId(3));
        assert_eq!(v.current_owner(&guard), Some(me.id()));
        // Owner still live: logical value is old = 1.
        assert_eq!(v.read_atomic(&guard), 1);
        me.try_commit();
        assert_eq!(v.read_atomic(&guard), 9);
        // The next acquisition unlinks the first locator and hands it back.
        let next = Owned::new(Locator::new(Arc::clone(&me), 9, 10));
        let (_, unlinked) = v.cas(installed, next).expect("uncontended CAS");
        domain.defer(unlinked.expect("a locator was unlinked"));
    }

    #[test]
    fn cas_failure_returns_locator() {
        let (v, domain) = (tvar(4, 1), GraceTracker::new());
        let me = Arc::new(Descriptor::new(TxId::new(1, 0)));
        let guard = domain.begin();
        let cur = v.load(&guard);
        // First CAS wins.
        let l1 = Owned::new(Locator::new(Arc::clone(&me), 1, 2));
        v.cas(cur, l1).unwrap();
        // Second CAS with the stale `cur` must fail and hand the locator back.
        let l2 = Owned::new(Locator::new(Arc::clone(&me), 1, 3));
        assert!(v.cas(cur, l2).is_err());
    }

    /// The engine reserves no word: both ends of the range are ordinary
    /// values, inline (`T_0`) and through a committed locator.
    #[test]
    fn every_word_is_a_payload() {
        let domain = GraceTracker::new();
        let guard = domain.begin();
        for (initial, written) in [(Value::MAX, 0), (0, Value::MAX)] {
            let v = tvar(5, initial);
            assert_eq!(v.read_atomic(&guard), initial);
            let me = Arc::new(Descriptor::new(TxId::new(1, 0)));
            let loc = Owned::new(Locator::new(Arc::clone(&me), initial, written));
            v.cas(v.load(&guard), loc).expect("uncontended CAS");
            assert!(me.try_commit());
            assert_eq!(v.read_atomic(&guard), written);
        }
    }
}
