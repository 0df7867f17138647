//! Locators: the per-acquisition indirection object of DSTM.
//!
//! A locator bundles `(owner, old, new)` (paper, Section 1): the owning
//! transaction's descriptor, the last committed value (`old`) and the
//! owner's tentative value (`new`). The *logical* value of a t-variable is
//! a function of the locator currently installed in it and the owner's
//! verdict — which a reader takes from the locator's own stamp once the
//! owner has stored it there, and from the owner's status word until then:
//!
//! | owner status | stamp      | logical value |
//! |--------------|------------|---------------|
//! | `Committed`  | `Committed`, or unset for a moment | `new` |
//! | `Aborted`    | `Aborted`, or unset for a moment   | `old` |
//! | `Live`       | unset      | `old` is the last committed value; `new` is tentative and owner-private |
//! | `T_0`        | no locator | the value inline in the t-variable (`TVarInner`) |
//!
//! A t-variable nobody has acquired has no locator at all: its pointer is
//! null and the paper's initialising transaction `T_0`'s value sits in the
//! t-variable itself, so every locator has an owner.
//!
//! ### The stamp
//!
//! The owner stores its verdict into every locator it installed, right
//! after its status CAS is settled and while it still holds its guard (so
//! none of them can have been freed). The stamp only ever repeats what the
//! status word already says — `Committed` is stored after the commit CAS
//! won, `Aborted` once the abort is settled — so a reader may take either;
//! the stamp just saves it the hop to a descriptor that is not its own. A
//! *live* owner is still met at its descriptor, where the contention
//! manager deals with it: obstruction-freedom and Theorem 13's descriptor
//! hot spot are unchanged. The `model_gate` suite in `oftm-verify` checks
//! the stamp against the commit-counter gate and refutes a stamp stored
//! before the status CAS.
//!
//! ### Aliasing discipline (the `UnsafeCell` part)
//!
//! `new` is mutated by exactly one thread — the owner, strictly before its
//! commit CAS — and read by others only after they observe `Committed` with
//! `Acquire` ordering, on the status word or on the stamp, which
//! synchronizes-with the owner's `Release` commit CAS or its `Release`
//! stamp store (sequenced after that CAS). There is therefore never a write
//! concurrent with any other access:
//!
//! * while the owner is `Live`, only the owner touches `new`;
//! * the status word flips to `Committed` exactly once, after which nobody
//!   writes `new` again.
//!
//! This is the publication pattern from *Rust Atomics and Locks* (release/
//! acquire hand-off of non-atomic data); the `unsafe` blocks below each
//! cite which row of the table they rely on.

use super::descriptor::{Descriptor, TxState};
use oftm_histories::{BaseObjId, Value};
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;

/// A DSTM locator of a word t-variable.
pub struct Locator {
    /// The transaction that installed this locator.
    pub owner: Arc<Descriptor>,
    /// The owner's verdict once it is settled ([`Locator::stamp`]);
    /// `Live` (unset) until then.
    settled: AtomicU8,
    /// Base-object identity for the low-level recorder (the stamp word
    /// and both values).
    pub base: BaseObjId,
    /// Value of the t-variable before `owner`'s (tentative) update.
    pub old: Value,
    /// `owner`'s tentative value; becomes the committed value if `owner`
    /// commits. See the module docs for the aliasing discipline.
    new: UnsafeCell<Value>,
}

/// SAFETY: `Locator` is shared between threads behind guard-protected
/// pointers. All fields except `new` are immutable after construction or
/// atomic (a descriptor is itself `Sync`). Access to `new` follows the
/// single-writer / post-publication-readers protocol documented on the
/// module; the status word or the stamp provides the release/acquire edge.
unsafe impl Sync for Locator {}

impl Locator {
    /// Creates a locator owned by `owner` with the given last-committed and
    /// tentative values.
    pub fn new(owner: Arc<Descriptor>, old: Value, tentative: Value) -> Self {
        Locator {
            owner,
            settled: AtomicU8::new(TxState::Live as u8),
            base: crate::record::fresh_base_id(),
            old,
            new: UnsafeCell::new(tentative),
        }
    }

    /// Whether `tx` installed this locator.
    pub fn owned_by(&self, tx: &Arc<Descriptor>) -> bool {
        Arc::ptr_eq(&self.owner, tx)
    }

    /// Stores the owner's settled verdict (`Committed` or `Aborted`) for
    /// readers to take instead of the status word. Owner only, once its
    /// status CAS is settled that way (module docs).
    pub(crate) fn stamp(&self, verdict: TxState) {
        debug_assert_ne!(verdict, TxState::Live);
        debug_assert_eq!(
            self.owner.status(),
            verdict,
            "stamp ahead of the status word"
        );
        // ord: Release pairs with `resolve_via`'s Acquire stamp load: a
        // reader that sees `Committed` sees `new` as the owner left it.
        self.settled.store(verdict as u8, Ordering::Release);
    }

    /// The logical value as a transaction other than the owner resolves it
    /// (the module table), or the live owner standing in the way.
    pub fn resolve(&self) -> Result<&Value, &Arc<Descriptor>> {
        self.resolve_via(|_| ())
    }

    /// [`Locator::resolve`], calling `on_load` after each shared word it
    /// loads with that word's base object — the stamp, then the owner's
    /// status word while the stamp was unset: the steps a recorder logs.
    /// Inlined: it sits on every read through a locator.
    #[inline]
    pub(crate) fn resolve_via(
        &self,
        mut on_load: impl FnMut(BaseObjId),
    ) -> Result<&Value, &Arc<Descriptor>> {
        // ord: Acquire pairs with the owner's Release stamp store.
        let stamp = TxState::from_u8(self.settled.load(Ordering::Acquire));
        on_load(self.base);
        let verdict = match stamp {
            TxState::Live => {
                let status = self.owner.status();
                on_load(self.owner.base());
                status
            }
            stamped => stamped,
        };
        match verdict {
            TxState::Live => Err(&self.owner),
            TxState::Aborted => Ok(&self.old),
            // SAFETY: `Committed` observed with Acquire on the status word
            // (`status`) or on the stamp; nobody writes `new` after the
            // commit CAS.
            TxState::Committed => Ok(unsafe { &*self.new.get() }),
        }
    }

    /// Reads the tentative value as the owner.
    ///
    /// # Safety
    /// The caller must be the unique owning transaction (holder of the
    /// `Transaction` that installed this locator) and the owner must still
    /// be `Live` from its own perspective. Single-writer protocol: only the
    /// owner thread accesses `new` while `Live`.
    pub unsafe fn tentative_value(&self) -> &Value {
        &*self.new.get()
    }

    /// Overwrites the tentative value as the owner.
    ///
    /// # Safety
    /// Same contract as [`Locator::tentative_value`]; additionally the
    /// caller must not hold any outstanding reference obtained from it.
    pub unsafe fn set_tentative(&self, v: Value) {
        *self.new.get() = v;
    }
}

impl std::fmt::Debug for Locator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Locator")
            .field("owner", &(self.owner.id(), self.owner.status()))
            .field("old", &self.old)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oftm_histories::TxId;

    /// Resolves `loc` as a reader and reports whether that loaded the
    /// owner's status word.
    fn resolve_asking(loc: &Locator) -> (Option<&Value>, bool) {
        let mut asked = false;
        let r = loc.resolve_via(|obj| asked |= obj == loc.owner.base()).ok();
        (r, asked)
    }

    #[test]
    fn committed_value_visible() {
        let owner = Arc::new(Descriptor::new(TxId::new(1, 0)));
        let loc = Locator::new(Arc::clone(&owner), 10, 11);
        assert_eq!(loc.old, 10);
        assert_eq!(loc.resolve().unwrap_err().id(), owner.id());
        assert!(owner.try_commit());
        assert_eq!(loc.resolve().ok(), Some(&11));
    }

    #[test]
    fn aborted_owner_resolves_to_old() {
        let owner = Arc::new(Descriptor::new(TxId::new(1, 2)));
        let loc = Locator::new(Arc::clone(&owner), 10, 11);
        assert!(owner.try_abort());
        assert_eq!(loc.resolve().ok(), Some(&10));
    }

    #[test]
    fn a_stamped_locator_resolves_without_its_descriptor() {
        for (settle, verdict, value) in [
            (
                Descriptor::try_commit as fn(&Descriptor) -> bool,
                TxState::Committed,
                11,
            ),
            (Descriptor::try_abort, TxState::Aborted, 10),
        ] {
            let owner = Arc::new(Descriptor::new(TxId::new(1, 3)));
            let loc = Locator::new(Arc::clone(&owner), 10, 11);
            assert!(settle(&owner));
            assert_eq!(resolve_asking(&loc), (Some(&value), true), "unset stamp");
            loc.stamp(verdict);
            assert_eq!(resolve_asking(&loc), (Some(&value), false), "{verdict:?}");
        }
    }

    #[test]
    fn owner_mutates_tentative() {
        let owner = Arc::new(Descriptor::new(TxId::new(1, 1)));
        let loc = Locator::new(Arc::clone(&owner), 0, 0);
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
            let owner = Arc::new(Descriptor::new(TxId::new(1, 4)));
            let loc = Arc::new(Locator::new(Arc::clone(&owner), 0, 0));
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

    #[test]
    fn stamp_publishes_the_committed_value_across_threads() {
        // As above, but the owner also stamps, and the reader waits for a
        // resolution that never looked at the descriptor: the stamp's
        // release/acquire edge alone must carry the tentative value.
        for _ in 0..100 {
            let owner = Arc::new(Descriptor::new(TxId::new(1, 6)));
            let loc = Arc::new(Locator::new(Arc::clone(&owner), 0, 0));
            let (loc2, owner2) = (Arc::clone(&loc), Arc::clone(&owner));
            let writer = std::thread::spawn(move || {
                // SAFETY: we are the owner thread; owner is Live.
                unsafe { loc2.set_tentative(7) };
                assert!(owner2.try_commit());
                loc2.stamp(TxState::Committed);
            });
            loop {
                if let (Some(v), false) = resolve_asking(&loc) {
                    assert_eq!(*v, 7);
                    break;
                }
                std::hint::spin_loop();
            }
            writer.join().unwrap();
        }
    }
}
