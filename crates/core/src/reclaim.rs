//! **Reclamation domains**: one registration per transaction protects both
//! the t-variable *ids* a collection retires and the *memory* an engine
//! unlinks.
//!
//! Collections unlink nodes transactionally, but a transaction that
//! started *before* the unlink committed may already have read the node's
//! base id and may legitimately touch the node again (zombie traversals
//! in lazily validating STMs like TL do exactly this); evicting the table
//! entry under it turns a benign stale read into the "t-variable not
//! registered" panic. The engines have the same problem one level down: a
//! DSTM write CAS unlinks a locator, a table eviction unlinks a slot's
//! state, and a reader that loaded the old pointer is still looking at
//! it. Both kinds of garbage wait out a **grace period**: reclaimed once
//! every transaction in flight at retirement has finished.
//!
//! A [`GraceTracker`] is one such domain — a value, one per STM instance,
//! never process-global: an instance's garbage waits on that instance's
//! transactions only. It is an epoch counter, per-transaction slots and
//! epoch-tagged garbage, and **one rule**: an item tagged `e` is
//! reclaimed once every registered slot publishes an epoch `> e`.
//!
//! * [`GraceTracker::begin`] registers the transaction by storing the
//!   current epoch in a slot and returns the one [`Guard`] it holds until
//!   it completes; pointers loaded from an [`Atomic`] under it stay valid
//!   while it lives.
//!
//! Garbage comes in **two ways**, both tagged by bumping the epoch after
//! the unlink:
//!
//! * **A private bag** ([`crate::kernel::GraceBag`]) per process, for the
//!   garbage made on every commit: the locator each DSTM acquisition
//!   unlinks, and the id blocks a table-backed commit retires
//!   ([`crate::table::VarTable::retire_and_evict`]). When a transaction
//!   is done, its process tags the whole batch with one epoch bump
//!   (`GraceCore::retire`) and takes the ripe front of its bag with one
//!   slot scan (`GraceCore::reclaim`) — no lock, and nothing shared
//!   written but the epoch. Ripe memory is dropped; ripe id blocks come
//!   back to the caller, which tombstones their slots and puts the states
//!   it unlinked into the same bag under the next tag. A bag whose owner
//!   goes away, or the part of a bag past its bound, is handed to the
//!   bins under a fresh tag (`GraceCore::defer_bag`): a later tag only
//!   waits longer.
//! * **The shared bins**, for garbage that is not made on every commit:
//!   the states an aborted attempt's frees unlink, the state behind a
//!   dropped `TVar` handle, a value a re-registration replaces, bags past
//!   [`BAG_BOUND`] or displaced from their pool, and Algorithm 2's
//!   retire-sets. `defer_destroy` tags one item and bins it under the
//!   bins' lock (`GraceCore::defer_all` a batch under one tag).
//!   [`GraceTracker::retire_and_flush`] releases a committing
//!   transaction's guard, bins its retire-set the same way, drops every
//!   binned memory item and returns every binned id block that **no
//!   registered transaction predates** — to the caller, because it owns
//!   the table they index. Every table-backed commit still probes the
//!   bins with one load and flushes them when something waits there. An
//!   aborting transaction simply drops its guard: its retire-set is
//!   discarded with it, so a node unlinked by an attempt that later
//!   aborts stays allocated. A release also drops whatever binned memory
//!   has become reclaimable.
//!
//! ### Why `slot epoch > tag` is safe
//!
//! *Memory.* An item is tagged only after it is unlinked. A transaction
//! that can still hold it therefore registered before the tag's epoch
//! bump, with a published epoch ≤ the tag; the rule waits for every such
//! guard to go. One that registers later publishes a greater epoch and can
//! never load the pointer. The retirer itself needs no registration. A
//! batch tagged at the end of the transaction that unlinked it only waits
//! for more: the tag is later than each unlink.
//!
//! *Ids.* Every STM in the workspace is single-version: a read returns the
//! current committed value (or aborts). A transaction that begins after a
//! node's unlink committed cannot obtain the node's id — no committed cell
//! contains it (each collection node has exactly one incoming link,
//! rewritten by the unlink). The endangered transactions read the link
//! *before* the unlink; they registered (with an epoch ≤ the batch's tag,
//! taken after the unlinking commit) before that read.
//!
//! *Ids, then state.* A ripe block's slots are tombstoned, and the states
//! they held are retired under a tag taken after the tombstones: a reader
//! that registered after the block's tag cannot obtain the id by the
//! contract above, but one that breaks it and loaded a slot before its
//! tombstone registered before the state's tag, so it is waited out as
//! any predating guard is. Dropping the state in the scan that found the
//! block ripe would free it under such a reader.
//!
//! ### Why the bins need a lock and a bag does not
//!
//! Reclaiming is a slot scan (`min_active`) followed by a check of each
//! item's tag against it. The check is only sound for items tagged
//! *before* the scan began: an item tagged after it may be reachable by a
//! reader that registered after the scan, under an epoch the scan never
//! saw. Any thread may enter items into the bins, so between one thread's
//! scan and its check another can add such an item — hence the lock,
//! taken before the scan, which every entry also takes. A bag has no such
//! window: it has one owner at a time (a DSTM bag travels inside a pooled
//! scratch, a table's bag in the table's pool, and a pool hands each to
//! one transaction at a time), its items
//! are added only by that owner, and only before the owner scans, so
//! every item a scan judges was tagged before the scan, exactly like a
//! binned item under the lock.
//!
//! Registration and the epoch bump are `SeqCst`, so a scan that misses an
//! in-flight registration can only involve a transaction that began after
//! the retirement. That race — slot claim and revalidation vs. concurrent
//! retirement and reclamation — is **mechanized**: the kernel
//! ([`crate::kernel::GraceCore`]) also runs under `oftm-verify`'s model
//! checker (`model_grace`), which checks exhaustively, at preemption bound
//! 2, that nothing is reclaimed under a predating guard, from the bins or
//! a bag, that no block in a bag is evicted under a predating reader,
//! that every retired block is handed back and every deferred destructor
//! run exactly once — and refutes five broken variants (inclusive flush
//! epoch, inclusive bag epoch, read-before-register misuse, slots scanned
//! before the bins are locked, an evicted state dropped in the scan that
//! found its block ripe).

use crate::kernel::{GraceBag, GraceCore, GraceGuard, SlotSet, StdSync, IDLE_SLOT};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};

pub use crate::kernel::{Retired, RetiredBlock};

/// Items a process's bag may hold, unripe, after its transaction is done;
/// the rest goes to the shared bins. A DSTM process over the bound pauses
/// before its next transaction instead of piling on
/// (`dstm::tx::Scratch::pause_if_piled`). A solo process never gets
/// there: its bag is all but empty after every transaction.
pub(crate) const BAG_BOUND: usize = 1024;

/// Slots per chunk of the lock-free slot list.
const SLOT_CHUNK: usize = 64;

/// One chunk of registration slots, chained into an unbounded append-only
/// list.
struct SlotChunk {
    slots: [AtomicU64; SLOT_CHUNK],
    next: AtomicPtr<SlotChunk>,
}

impl Default for SlotChunk {
    fn default() -> Self {
        SlotChunk {
            slots: std::array::from_fn(|_| AtomicU64::new(IDLE_SLOT)),
            next: AtomicPtr::default(),
        }
    }
}

/// A lock-free, append-only list of registration slots: chunks are
/// installed on demand with a CAS and never move, so registration
/// (`begin`, on every transaction) scans and claims without any lock, and
/// a guard borrows its slot for as long as the list lives. The list grows
/// without bound, and only ever to the peak concurrency: slots are
/// recycled front-first.
#[derive(Default)]
pub struct SlotArray {
    head: SlotChunk,
}

impl SlotArray {
    /// The chunk after `chunk`, if one is installed.
    fn next(chunk: &SlotChunk, ord: Ordering) -> Option<&SlotChunk> {
        let p = chunk.next.load(ord);
        // SAFETY: chunks are append-only and live as long as the list,
        // which the borrow of `chunk` keeps alive.
        (!p.is_null()).then(|| unsafe { &*p })
    }

    /// Number of installed slots (tests/diagnostics).
    #[cfg(test)]
    fn capacity(&self) -> usize {
        // ord: Acquire pairs with the installing CAS (test diagnostic).
        std::iter::successors(Some(&self.head), |c| Self::next(c, Ordering::Acquire)).count()
            * SLOT_CHUNK
    }
}

impl Drop for SlotArray {
    fn drop(&mut self) {
        // ord: Relaxed — exclusive access in Drop (&mut self).
        let mut p = self.head.next.load(Ordering::Relaxed);
        while !p.is_null() {
            // SAFETY: installed via Box::into_raw; guards borrow the list,
            // so none is left.
            let chunk = unsafe { Box::from_raw(p) };
            // ord: Relaxed — exclusive access in Drop (&mut self).
            p = chunk.next.load(Ordering::Relaxed);
        }
    }
}

impl SlotSet<AtomicU64> for SlotArray {
    /// Scans from the front so slots recycle densely (sequential use stays
    /// at one slot), appending a fresh chunk whenever every existing slot
    /// is taken.
    fn claim(&self, e: u64) -> &AtomicU64 {
        let mut chunk = &self.head;
        loop {
            for slot in chunk.slots.iter() {
                // ord: Relaxed pre-screen — the SeqCst CAS is what claims.
                if slot.load(Ordering::Relaxed) == IDLE_SLOT
                    // ord: SeqCst registration Dekker-pairs with `flush`'s
                    // SeqCst slot scan (via GraceCore::begin's revalidation
                    // loop); failure is Relaxed — a lost race retries.
                    && slot
                        .compare_exchange(IDLE_SLOT, e, Ordering::SeqCst, Ordering::Relaxed)
                        .is_ok()
                {
                    return slot;
                }
            }
            // ord: Acquire pairs with the installing CAS's Release half so
            // the fresh chunk's slots are visible.
            chunk = match Self::next(chunk, Ordering::Acquire) {
                Some(next) => next,
                None => {
                    let raw = Box::into_raw(Box::<SlotChunk>::default());
                    // ord: SeqCst install — `min_active`'s SeqCst scan must
                    // be guaranteed to observe any chunk whose slots a
                    // registered transaction occupies (see the ordering
                    // note there); failure Acquire pairs with the winner's
                    // install.
                    let installed = chunk.next.compare_exchange(
                        std::ptr::null_mut(),
                        raw,
                        Ordering::SeqCst,  // ord: see install note above
                        Ordering::Acquire, // ord: pairs with the winner's install
                    );
                    if installed.is_err() {
                        // SAFETY: `raw` never escaped.
                        drop(unsafe { Box::from_raw(raw) });
                    }
                    continue;
                }
            };
        }
    }

    /// Ordering: chunk installation and this scan's `next` loads are both
    /// `SeqCst` — a transaction that overflowed into a freshly installed
    /// chunk registered its slot (`SeqCst`) after the install, so a scan
    /// that could miss the chunk pointer under weaker ordering would
    /// silently skip a registered transaction and free what it can still
    /// reach.
    fn min_active(&self) -> u64 {
        let mut min = u64::MAX;
        let mut chunk = Some(&self.head);
        while let Some(c) = chunk {
            for slot in c.slots.iter() {
                // ord: SeqCst scan Dekker-pairs with `claim`'s SeqCst
                // registration: either the scan sees the slot, or the
                // registrant's begin-revalidation sees the bumped epoch.
                let e = slot.load(Ordering::SeqCst);
                if e != IDLE_SLOT && e < min {
                    min = e;
                }
            }
            // ord: SeqCst — must not miss a chunk installed (SeqCst) before
            // a registration this scan is obligated to observe.
            chunk = Self::next(c, Ordering::SeqCst);
        }
        min
    }
}

/// A deferred destruction: a type-erased `Box` and its dropper.
pub struct Deferred {
    ptr: *mut (),
    drop_fn: unsafe fn(*mut ()),
}

// SAFETY: the pointee was handed over exclusively via
// `Deferred::unlinked` and is `Send` (bound there); only whoever drops
// the item touches it.
unsafe impl Send for Deferred {}

impl Deferred {
    /// The destruction of `ptr`'s pointee, to be retired into a domain —
    /// into a [`Bag`] or through [`GraceCore::defer`].
    ///
    /// # Safety
    /// As for [`GraceTracker::defer_destroy`], and `ptr` must be non-null.
    /// Dropping the result frees the pointee at once, so it must reach a
    /// domain unless no guard can reach the pointee any more.
    pub(crate) unsafe fn unlinked<T: Send>(ptr: Shared<'_, T>) -> Self {
        unsafe fn drop_boxed<T>(p: *mut ()) {
            drop(Box::from_raw(p.cast::<T>()));
        }
        Deferred {
            ptr: ptr.ptr.cast(),
            drop_fn: drop_boxed::<T>,
        }
    }
}

impl Drop for Deferred {
    fn drop(&mut self) {
        // SAFETY: owned since `Deferred::unlinked`; dropped once the grace
        // rule found no guard that could reach `ptr`, or with the domain,
        // which outlives every guard.
        unsafe { (self.drop_fn)(self.ptr) };
    }
}

/// One reclamation domain (see the module docs): the generic grace kernel
/// instantiated with real atomics, the lock-free chunked [`SlotArray`] and
/// type-erased boxes as memory items. Dropping it runs every destructor
/// still deferred.
pub type GraceTracker = GraceCore<StdSync, SlotArray, Deferred>;

/// A process's private pile of unlinked memory and retired id blocks in a
/// [`GraceTracker`] domain (see the module docs).
pub(crate) type Bag = GraceBag<Deferred>;

/// A registration with a [`GraceTracker`]: what a transaction holds from
/// `begin` to completion (see the module docs). Releasing it — by
/// dropping it or through [`GraceTracker::retire_and_flush`] — may happen
/// on any thread.
pub type Guard<'d> = GraceGuard<'d, StdSync, SlotArray, Deferred>;

impl GraceTracker {
    /// Schedules `ptr`'s pointee for destruction once no guard of this
    /// domain can reach it. The caller need not hold one.
    ///
    /// # Safety
    /// `ptr` must be unlinked: no load after this call returns it, and
    /// whoever loaded it earlier did so under a guard of this domain. The
    /// pointee must have been allocated as [`Owned<T>`]/[`Atomic<T>`] (a
    /// `Box<T>`) and not be retired twice.
    pub unsafe fn defer_destroy<T: Send>(&self, ptr: Shared<'_, T>) {
        if !ptr.is_null() {
            // SAFETY: this function's contract, and non-null.
            self.defer(unsafe { Deferred::unlinked(ptr) });
        }
    }
}

// ---------------------------------------------------------------------------
// Guard-protected pointers.
// ---------------------------------------------------------------------------

/// An owning pointer to heap-allocated `T` (like `Box`).
pub struct Owned<T> {
    ptr: *mut T,
}

// SAFETY: `Owned` is a unique owner (a `Box` by another name); sending
// it transfers the single handle, which is safe exactly when `T: Send`.
unsafe impl<T: Send> Send for Owned<T> {}
// SAFETY: `&Owned<T>` only hands out `&T` (`Deref`), so sharing it is
// sharing `&T` — safe exactly when `T: Sync` (as for `Box`).
unsafe impl<T: Sync> Sync for Owned<T> {}

impl<T> Owned<T> {
    pub fn new(value: T) -> Self {
        Owned {
            ptr: Box::into_raw(Box::new(value)),
        }
    }

    /// Relinquishes ownership: to an [`Atomic`], or to whoever frees it.
    fn into_raw(self) -> *mut T {
        std::mem::ManuallyDrop::new(self).ptr
    }

    /// Converts into a `Shared`, relinquishing ownership to the concurrent
    /// structure (or to `defer_destroy`).
    pub fn into_shared<'g>(self) -> Shared<'g, T> {
        Shared::from_raw(self.into_raw())
    }
}

impl<T> std::fmt::Debug for Owned<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Owned({:p})", self.ptr)
    }
}

impl<T> std::ops::Deref for Owned<T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: `ptr` came from `Box::into_raw` in `new` and is only
        // freed by `Drop` (or handed off whole by `into_raw`, which
        // forgets `self`), so it is live and uniquely ours here.
        unsafe { &*self.ptr }
    }
}

impl<T> Drop for Owned<T> {
    fn drop(&mut self) {
        // SAFETY: same provenance as `deref` — the pointer is the live
        // `Box::into_raw` allocation and this is its unique owner, so
        // reconstituting the box here frees it exactly once.
        unsafe { drop(Box::from_raw(self.ptr)) }
    }
}

/// A pointer loaned out of an [`Atomic`]; `Copy`, valid for `'g`.
pub struct Shared<'g, T> {
    ptr: *mut T,
    _marker: PhantomData<&'g T>,
}

impl<T> Clone for Shared<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for Shared<'_, T> {}

impl<'g, T> Shared<'g, T> {
    fn from_raw(ptr: *mut T) -> Self {
        Shared {
            ptr,
            _marker: PhantomData,
        }
    }

    pub fn null() -> Self {
        Self::from_raw(std::ptr::null_mut())
    }

    pub fn is_null(&self) -> bool {
        self.ptr.is_null()
    }

    pub fn as_raw(&self) -> *const T {
        self.ptr
    }

    /// # Safety
    /// The pointee must be valid for `'g` and non-null: loaded under a
    /// guard that lives for `'g`, from a structure that only retires into
    /// that guard's domain.
    pub unsafe fn deref(&self) -> &'g T {
        &*self.ptr
    }
}

/// An atomic pointer to heap-allocated `T`.
pub struct Atomic<T> {
    ptr: AtomicPtr<T>,
}

// SAFETY: `Atomic` shares `T` across every thread that loads the
// pointer (it is a `&T` factory), so both auto-traits require
// `T: Send + Sync`; with that bound, sharing or sending the pointer
// cell adds nothing beyond what `&T`/`T` already permit.
unsafe impl<T: Send + Sync> Send for Atomic<T> {}
// SAFETY: as above — `&Atomic<T>` only hands out loads/stores of a
// pointer whose pointee is `Send + Sync`.
unsafe impl<T: Send + Sync> Sync for Atomic<T> {}

impl<T> Atomic<T> {
    pub fn new(value: T) -> Self {
        Atomic {
            ptr: AtomicPtr::new(Owned::new(value).into_raw()),
        }
    }

    pub fn null() -> Self {
        Atomic {
            ptr: AtomicPtr::new(std::ptr::null_mut()),
        }
    }

    pub fn load<'g>(&self, ord: Ordering, _guard: &'g Guard<'_>) -> Shared<'g, T> {
        Shared::from_raw(self.ptr.load(ord))
    }

    /// Atomically replaces the pointer (`None` is null) and returns the
    /// previous one, now unlinked: the caller retires it into a domain.
    /// Takes no guard — what comes back is for retiring, not for
    /// dereferencing.
    pub fn swap<'a>(&self, new: Option<Owned<T>>, ord: Ordering) -> Shared<'a, T> {
        let new = new.map_or(std::ptr::null_mut(), Owned::into_raw);
        Shared::from_raw(self.ptr.swap(new, ord))
    }

    /// Installs `new` if the cell holds `current`; hands it back if not.
    /// Like [`Atomic::swap`] it takes no guard.
    pub fn compare_exchange<'a>(
        &self,
        current: Shared<'_, T>,
        new: Owned<T>,
        success: Ordering,
        failure: Ordering,
    ) -> Result<Shared<'a, T>, Owned<T>> {
        match self
            .ptr
            .compare_exchange(current.ptr, new.ptr, success, failure)
        {
            Ok(_) => Ok(new.into_shared()),
            Err(_) => Err(new),
        }
    }

    /// Takes the pointee out of the cell, leaving it null.
    ///
    /// # Safety
    /// The cell must own its pointee and no guard may still reach it: the
    /// caller is the `Drop` of the structure the cell belongs to.
    pub unsafe fn take(&mut self) -> Option<Owned<T>> {
        let ptr = std::mem::replace(self.ptr.get_mut(), std::ptr::null_mut());
        (!ptr.is_null()).then(|| Owned { ptr })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oftm_histories::TVarId;
    use std::sync::atomic::AtomicUsize;

    fn blk(base: u64, len: usize) -> RetiredBlock {
        RetiredBlock {
            base: TVarId(base),
            len,
        }
    }

    #[test]
    fn solo_retirement_frees_immediately() {
        let t = GraceTracker::new();
        let g = t.begin();
        let freed = t.retire_and_flush(g, vec![blk(100, 2)]);
        assert_eq!(freed, vec![blk(100, 2)]);
        assert_eq!(t.pending_blocks(), 0);
    }

    #[test]
    fn predating_transaction_delays_the_free() {
        let t = GraceTracker::new();
        let old = t.begin(); // in flight before the retirement
        let committer = t.begin();
        let freed = t.retire_and_flush(committer, vec![blk(100, 2)]);
        assert!(freed.is_empty(), "old transaction still active");
        assert_eq!(t.pending_blocks(), 1);
        // A transaction that began AFTER the retirement does not hold it up.
        let young = t.begin();
        drop(old);
        let freed = t.retire_and_flush(young, Vec::new());
        assert_eq!(freed, vec![blk(100, 2)]);
        assert_eq!(t.pending_blocks(), 0);
    }

    #[test]
    fn abort_discards_by_dropping_the_handle() {
        let t = GraceTracker::new();
        let g = t.begin();
        drop(g); // abort: the retire-set (held by the backend) dies with the tx
        assert_eq!(t.pending_blocks(), 0);
        // The slot was released: a later committer flushes freely.
        let g2 = t.begin();
        let freed = t.retire_and_flush(g2, vec![blk(7, 1)]);
        assert_eq!(freed, vec![blk(7, 1)]);
    }

    #[test]
    fn slots_are_recycled() {
        let t = GraceTracker::new();
        for _ in 0..100 {
            let g = t.begin();
            drop(g);
        }
        assert_eq!(
            t.slots().capacity(),
            SLOT_CHUNK,
            "sequential use must stay within the first chunk"
        );
        assert_eq!(t.slots().min_active(), u64::MAX, "all slots released");
    }

    #[test]
    fn capacity_grows_past_the_old_spine_limit() {
        // Regression: a fixed 64-chunk spine panicked at the 4097th
        // concurrent registration ("more than 4096 concurrent
        // transactions"); the chained list must keep growing instead.
        let t = GraceTracker::new();
        let held: Vec<Guard<'_>> = (0..4097).map(|_| t.begin()).collect();
        assert!(t.slots().capacity() > 4096);
        // Reclamation still honors every one of them.
        let committer = t.begin();
        let freed = t.retire_and_flush(committer, vec![blk(100, 1)]);
        assert!(freed.is_empty(), "predating registrations must delay it");
        drop(held);
        assert_eq!(t.flush(), vec![blk(100, 1)]);
    }

    #[test]
    fn concurrent_begin_finish_is_consistent() {
        let t = GraceTracker::new();
        let freed = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for i in 0..8u64 {
                let (t, freed) = (&t, &freed);
                s.spawn(move || {
                    for k in 0..50u64 {
                        let g = t.begin();
                        let out = t.retire_and_flush(g, vec![blk(1 << 32 | i << 16 | k, 2)]);
                        freed.fetch_add(out.len(), Ordering::Relaxed);
                    }
                });
            }
        });
        // Everything retired must eventually flush once no one is active,
        // and nothing twice.
        let last = t.flush().len();
        assert_eq!(t.pending_blocks(), 0);
        assert_eq!(freed.into_inner() + last, 8 * 50);
    }
}
