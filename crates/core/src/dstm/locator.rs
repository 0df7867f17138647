//! Locators: the per-acquisition indirection object of DSTM.
//!
//! A locator bundles `(owner, old, new)` (paper, Section 1): the owning
//! transaction's descriptor, the last committed value (`old`) and the
//! owner's tentative value (`new`). The *logical* value of a t-variable is
//! a function of the locator currently installed in it and the owner's
//! status:
//!
//! | owner status | logical value |
//! |--------------|---------------|
//! | `Committed`  | `new`         |
//! | `Aborted`    | `old`         |
//! | `Live`       | `old` is the last committed value; `new` is tentative and owner-private |
//!
//! A t-variable's *first* locator has no owner: it stands for the paper's
//! initialising transaction `T_0`, committed by definition, so its row is
//! `Committed` without a descriptor to allocate, point at or load.
//!
//! ### Aliasing discipline (the `UnsafeCell` part)
//!
//! `new` is mutated by exactly one thread — the owner, strictly before its
//! commit CAS — and read by others only after they observe `Committed` with
//! `Acquire` ordering, which synchronizes-with the owner's `Release` commit
//! CAS. There is therefore never a write concurrent with any other access:
//!
//! * while the owner is `Live`, only the owner touches `new`;
//! * the status word flips to `Committed` exactly once, after which nobody
//!   writes `new` again (`T_0`'s locator is never written at all).
//!
//! This is the publication pattern from *Rust Atomics and Locks* (release/
//! acquire hand-off of non-atomic data); the `unsafe` blocks below each
//! cite which row of the table they rely on.

use super::descriptor::{Descriptor, TxState};
use oftm_histories::BaseObjId;
use std::cell::UnsafeCell;
use std::sync::Arc;

/// A DSTM locator for values of type `T`. `repr(C)` with `owner` first:
/// a pointer to any `Locator<T>` is a pointer to its owner, which is what
/// lets a type-erased read-set entry name who replaced the locator it
/// read ([`super::tvar::TVarInner::current_owner`]).
#[repr(C)]
pub struct Locator<T> {
    /// The transaction that installed this locator; `None` is `T_0`.
    pub owner: Option<Arc<Descriptor>>,
    /// Value of the t-variable before `owner`'s (tentative) update.
    pub old: T,
    /// `owner`'s tentative value; becomes the committed value if `owner`
    /// commits. See the module docs for the aliasing discipline.
    new: UnsafeCell<T>,
    /// Base-object identity for the low-level recorder.
    pub base: BaseObjId,
}

/// SAFETY: `Locator` is shared between threads behind guard-protected
/// pointers. All fields except `new` are immutable after construction
/// (a descriptor is itself `Sync`). Access to `new` follows the single-writer /
/// post-publication-readers protocol documented on the module; the status
/// word provides the release/acquire edge. `T: Send` is required because
/// ownership of the contained values effectively moves between threads via
/// commit; `T: Sync` because committed values are read by reference from
/// many threads.
unsafe impl<T: Send + Sync> Sync for Locator<T> {}
unsafe impl<T: Send> Send for Locator<T> {}

impl<T> Locator<T> {
    /// Creates a locator owned by `owner` with the given last-committed and
    /// tentative values.
    pub fn new(owner: Arc<Descriptor>, old: T, tentative: T) -> Self {
        Locator {
            owner: Some(owner),
            old,
            new: UnsafeCell::new(tentative),
            base: crate::record::fresh_base_id(),
        }
    }

    /// `T_0`'s locator for a fresh t-variable whose pointer cell is base
    /// object `cell`. It shares the cell's identity: whoever reads it
    /// loaded the cell first, and nobody ever modifies it.
    pub fn initial(cell: BaseObjId, value: T) -> Self
    where
        T: Clone,
    {
        Locator {
            owner: None,
            old: value.clone(),
            new: UnsafeCell::new(value),
            base: cell,
        }
    }

    /// Whether `tx` installed this locator.
    pub fn owned_by(&self, tx: &Arc<Descriptor>) -> bool {
        self.owner.as_ref().is_some_and(|o| Arc::ptr_eq(o, tx))
    }

    /// The logical value as a transaction other than the owner resolves it
    /// (the module table), or the live owner standing in the way.
    pub fn resolve(&self) -> Result<&T, &Arc<Descriptor>> {
        match &self.owner {
            Some(owner) => match owner.status() {
                TxState::Live => Err(owner),
                TxState::Aborted => Ok(&self.old),
                // SAFETY: `Committed` observed with Acquire (`status`);
                // nobody writes `new` after the commit CAS.
                TxState::Committed => Ok(unsafe { &*self.new.get() }),
            },
            // SAFETY: `T_0`'s locator is never owned, so never written.
            None => Ok(unsafe { &*self.new.get() }),
        }
    }

    /// Reads the tentative value as the owner.
    ///
    /// # Safety
    /// The caller must be the unique owning transaction (holder of the
    /// `Transaction` that installed this locator) and the owner must still
    /// be `Live` from its own perspective. Single-writer protocol: only the
    /// owner thread accesses `new` while `Live`.
    pub unsafe fn tentative_value(&self) -> &T {
        &*self.new.get()
    }

    /// Overwrites the tentative value as the owner.
    ///
    /// # Safety
    /// Same contract as [`Locator::tentative_value`]; additionally the
    /// caller must not hold any outstanding reference obtained from it.
    pub unsafe fn set_tentative(&self, v: T) {
        *self.new.get() = v;
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for Locator<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Locator")
            .field("owner", &self.owner.as_ref().map(|o| (o.id(), o.status())))
            .field("old", &self.old)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oftm_histories::TxId;

    #[test]
    fn committed_value_visible() {
        let owner = Arc::new(Descriptor::new(TxId::new(1, 0), 0));
        let loc = Locator::new(Arc::clone(&owner), 10u64, 11u64);
        assert_eq!(loc.old, 10);
        assert_eq!(loc.resolve().unwrap_err().id(), owner.id());
        assert!(owner.try_commit());
        assert_eq!(loc.resolve().ok(), Some(&11));
    }

    #[test]
    fn aborted_owner_resolves_to_old() {
        let owner = Arc::new(Descriptor::new(TxId::new(1, 2), 0));
        let loc = Locator::new(Arc::clone(&owner), 10u64, 11u64);
        assert!(owner.try_abort());
        assert_eq!(loc.resolve().ok(), Some(&10));
    }

    #[test]
    fn initial_locator_is_committed_without_a_descriptor() {
        let loc = Locator::initial(BaseObjId(7), 5u64);
        assert!(loc.owner.is_none());
        assert_eq!(loc.resolve().ok(), Some(&5));
        assert_eq!(loc.base, BaseObjId(7));
    }

    #[test]
    fn owner_mutates_tentative() {
        let owner = Arc::new(Descriptor::new(TxId::new(1, 1), 0));
        let loc = Locator::new(Arc::clone(&owner), 0u64, 0u64);
        // SAFETY: single-threaded test, we are the owner, owner is Live.
        unsafe {
            loc.set_tentative(42);
            assert_eq!(*loc.tentative_value(), 42);
        }
        assert!(owner.try_commit());
        assert_eq!(loc.resolve().ok(), Some(&42));
    }

    #[test]
    fn cross_thread_publication() {
        // Owner thread writes tentative then commits; reader observes
        // Committed and must see the written value (release/acquire edge).
        for _ in 0..100 {
            let owner = Arc::new(Descriptor::new(TxId::new(1, 4), 0));
            let loc = Arc::new(Locator::new(Arc::clone(&owner), 0u64, 0u64));
            let (loc2, owner2) = (Arc::clone(&loc), Arc::clone(&owner));
            let writer = std::thread::spawn(move || {
                // SAFETY: we are the owner thread; owner is Live.
                unsafe { loc2.set_tentative(7) };
                assert!(owner2.try_commit());
            });
            loop {
                if let Ok(v) = loc.resolve() {
                    assert_eq!(*v, 7);
                    break;
                }
                std::hint::spin_loop();
            }
            writer.join().unwrap();
        }
    }
}
