//! Grace-period tracking for **transaction-safe reclamation** of dynamic
//! t-variables.
//!
//! Collections unlink nodes transactionally, but unlinking alone is not
//! enough to reclaim the node's t-variables: a transaction that started
//! *before* the unlink committed may already have read the node's base id
//! from a link cell and may legitimately touch the node again (zombie
//! traversals in lazily validating STMs like TL do exactly this). Evicting
//! the table entry under such a reader turns a benign stale read into the
//! "t-variable not registered" panic. Freeing must therefore wait out a
//! **grace period**: the node may be reclaimed once every transaction that
//! was in flight at retirement time has finished.
//!
//! [`GraceTracker`] implements this with an epoch counter and per-
//! transaction slots:
//!
//! * [`GraceTracker::begin`] registers the transaction by storing the
//!   current epoch in a slot (advanced at every retiring commit, so slot
//!   values order transactions against retirements);
//! * a committing transaction hands its retire-set to
//!   [`GraceTracker::retire_and_flush`], which releases the slot, tags the
//!   batch with the current epoch, advances the epoch, and returns every
//!   previously retired batch that **no active transaction predates**
//!   (`slot epoch > batch epoch` for all active slots) for the caller to
//!   evict from its table;
//! * an aborting transaction simply drops its [`TxGrace`] handle — its
//!   retire-set is discarded with it, so a node unlinked by an attempt
//!   that later aborts stays allocated (the unlink never took effect).
//!
//! ### Why `slot epoch > batch epoch` is safe
//!
//! Every STM in the workspace is single-version: a read returns the
//! current committed value (or aborts), never an earlier one. A
//! transaction that begins after a node's unlink committed therefore
//! cannot obtain the node's id — no committed cell contains it (each
//! collection node has exactly one incoming link, rewritten by the
//! unlink). The only endangered transactions are those that read the link
//! *before* the unlink; they registered their slot (with an epoch ≤ the
//! batch's tag, which was taken after the unlinking commit) before that
//! read, so the batch is held until they finish. Slot registration and
//! the epoch bump use `SeqCst` so a flush that misses an in-flight slot
//! registration can only involve a transaction that began after the
//! retiring commit — one that cannot reach the block anyway.
//!
//! The race-prone core of this argument — slot claim/revalidation vs.
//! concurrent retire-and-flush — is **mechanized**: the generic kernel
//! ([`crate::kernel::GraceCore`], which this module instantiates with
//! real atomics) also runs under `oftm-verify`'s bounded interleaving
//! model checker (`crates/verify/tests/model_grace.rs`), which
//! exhaustively checks, at preemption bound 2, that no block is freed
//! under a predating reader and that every retired block is freed
//! exactly once — and that broken variants (inclusive flush epoch,
//! read-before-register misuse) are caught with a replayable schedule.

use crate::kernel::{GraceCore, GraceHandle, SlotSet, StdSync, IDLE_SLOT};
use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};
use std::sync::Arc;

pub use crate::kernel::RetiredBlock;

/// Slot value meaning "no transaction registered here".
const IDLE: u64 = IDLE_SLOT;

/// Slots per chunk of the lock-free slot list.
const SLOT_CHUNK: usize = 64;

/// One chunk of active-transaction slots, chained into an unbounded
/// append-only list.
struct SlotChunk {
    slots: [Arc<AtomicU64>; SLOT_CHUNK],
    next: AtomicPtr<SlotChunk>,
}

impl SlotChunk {
    fn new() -> SlotChunk {
        SlotChunk {
            slots: std::array::from_fn(|_| Arc::new(AtomicU64::new(IDLE))),
            next: AtomicPtr::default(),
        }
    }
}

/// A lock-free, append-only list of active-transaction slots: chunks are
/// installed on demand with a CAS and never move, so registration
/// (`begin`, on every transaction) scans and claims without any lock —
/// the `RwLock` this replaced sat on the begin path of every backend.
/// The list grows without bound (a fixed spine used to panic past
/// 64 × 64 concurrent registrations), and only ever to the peak
/// concurrency: slots are recycled front-first.
struct SlotArray {
    head: SlotChunk,
}

impl SlotArray {
    fn new() -> Self {
        SlotArray {
            head: SlotChunk::new(),
        }
    }

    /// Claims an idle slot with value `e`; scans from the front so slots
    /// recycle densely (sequential use stays at one slot), appending a
    /// fresh chunk whenever every existing slot is taken.
    fn claim(&self, e: u64) -> Arc<AtomicU64> {
        let mut chunk = &self.head;
        loop {
            for slot in chunk.slots.iter() {
                // ord: Relaxed pre-screen — the SeqCst CAS is what claims.
                if slot.load(Ordering::Relaxed) == IDLE
                    // ord: SeqCst registration Dekker-pairs with `flush`'s
                    // SeqCst slot scan (via GraceCore::begin's revalidation
                    // loop); failure is Relaxed — a lost race retries.
                    && slot
                        .compare_exchange(IDLE, e, Ordering::SeqCst, Ordering::Relaxed)
                        .is_ok()
                {
                    return Arc::clone(slot);
                }
            }
            // ord: Acquire pairs with the installing CAS's Release half so
            // the fresh chunk's slots are visible.
            let mut p = chunk.next.load(Ordering::Acquire);
            if p.is_null() {
                let raw = Box::into_raw(Box::new(SlotChunk::new()));
                // ord: SeqCst install — `min_active`'s SeqCst scan must be
                // guaranteed to observe any chunk whose slots a registered
                // transaction occupies (see the ordering note there);
                // failure Acquire pairs with the winner's install.
                match chunk.next.compare_exchange(
                    std::ptr::null_mut(),
                    raw,
                    Ordering::SeqCst,  // ord: see install note above
                    Ordering::Acquire, // ord: pairs with the winner's install
                ) {
                    Ok(_) => p = raw,
                    Err(winner) => {
                        // SAFETY: `raw` never escaped.
                        drop(unsafe { Box::from_raw(raw) });
                        p = winner;
                    }
                }
            }
            // SAFETY: chunks are append-only and live as long as the list.
            chunk = unsafe { &*p };
        }
    }

    /// Minimum epoch over all registered slots (`u64::MAX` when none).
    ///
    /// Ordering: chunk installation and this scan's `next` loads are both
    /// `SeqCst` — a transaction that overflowed into a freshly installed
    /// chunk registered its slot (`SeqCst`) after the install, so a scan
    /// that could miss the chunk pointer under weaker ordering would
    /// silently skip a registered transaction and free blocks it can
    /// still reach.
    fn min_active(&self) -> u64 {
        let mut min = u64::MAX;
        let mut chunk = Some(&self.head);
        while let Some(c) = chunk {
            for slot in c.slots.iter() {
                // ord: SeqCst scan Dekker-pairs with `claim`'s SeqCst
                // registration: either the scan sees the slot, or the
                // registrant's begin-revalidation sees the bumped epoch.
                let e = slot.load(Ordering::SeqCst);
                if e != IDLE && e < min {
                    min = e;
                }
            }
            // ord: SeqCst — must not miss a chunk installed (SeqCst) before
            // a registration this scan is obligated to observe.
            let p = c.next.load(Ordering::SeqCst);
            // SAFETY: append-only, alive while the list is.
            chunk = (!p.is_null()).then(|| unsafe { &*p });
        }
        min
    }

    /// Number of installed slots (tests/diagnostics).
    #[cfg(test)]
    fn capacity(&self) -> usize {
        let mut n = 0;
        let mut chunk = Some(&self.head);
        while let Some(c) = chunk {
            n += SLOT_CHUNK;
            // ord: Acquire pairs with the installing CAS (test diagnostic).
            let p = c.next.load(Ordering::Acquire);
            // SAFETY: as in `min_active`.
            chunk = (!p.is_null()).then(|| unsafe { &*p });
        }
        n
    }
}

impl Drop for SlotArray {
    fn drop(&mut self) {
        // ord: Relaxed — exclusive access in Drop (&mut self).
        let mut p = self.head.next.load(Ordering::Relaxed);
        while !p.is_null() {
            // SAFETY: installed via Box::into_raw; outstanding `TxGrace`
            // handles hold their own `Arc`s into the slots.
            let chunk = unsafe { Box::from_raw(p) };
            // ord: Relaxed — exclusive access in Drop (&mut self).
            p = chunk.next.load(Ordering::Relaxed);
        }
    }
}

impl SlotSet<AtomicU64> for SlotArray {
    type Handle = Arc<AtomicU64>;

    fn claim(&self, e: u64) -> Arc<AtomicU64> {
        SlotArray::claim(self, e)
    }

    fn min_active(&self) -> u64 {
        SlotArray::min_active(self)
    }
}

/// An active-transaction registration. Dropping it releases the slot —
/// abort paths need nothing beyond dropping the transaction. (The drop
/// behavior lives in [`crate::kernel::GraceHandle`].)
pub type TxGrace = GraceHandle<Arc<AtomicU64>>;

/// The per-STM-instance grace-period tracker (see module docs): the
/// generic grace kernel ([`crate::kernel::GraceCore`]) instantiated with
/// real atomics and the lock-free chunked `SlotArray`.
pub struct GraceTracker {
    core: GraceCore<StdSync, SlotArray>,
}

impl Default for GraceTracker {
    fn default() -> Self {
        Self::new()
    }
}

impl GraceTracker {
    pub fn new() -> Self {
        GraceTracker {
            core: GraceCore::new(SlotArray::new()),
        }
    }

    /// Registers a beginning transaction. Must be called before the
    /// transaction performs its first read (every backend does this in
    /// `begin`). The returned handle is released by dropping it or by
    /// passing it to [`GraceTracker::retire_and_flush`].
    pub fn begin(&self) -> TxGrace {
        self.core.begin()
    }

    /// Commit hook: releases the committing transaction's slot, enters its
    /// retire-set (if any) as a new batch, and returns every batch whose
    /// grace period has elapsed. The caller must evict the returned blocks
    /// from its variable table — the tracker records ids, not state.
    pub fn retire_and_flush(
        &self,
        grace: TxGrace,
        retired: Vec<RetiredBlock>,
    ) -> Vec<RetiredBlock> {
        self.core.retire_and_flush(grace, retired)
    }

    /// Returns every retired batch that no active transaction predates.
    pub fn flush(&self) -> Vec<RetiredBlock> {
        self.core.flush()
    }

    /// Number of retired blocks still awaiting their grace period.
    pub fn pending_blocks(&self) -> usize {
        self.core.pending_blocks()
    }

    /// Total blocks ever retired (diagnostics).
    pub fn retired_total(&self) -> u64 {
        self.core.retired_total()
    }

    /// Total blocks whose grace period has elapsed (diagnostics).
    pub fn freed_total(&self) -> u64 {
        self.core.freed_total()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oftm_histories::TVarId;

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
        assert_eq!(t.retired_total(), 1);
        assert_eq!(t.freed_total(), 1);
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
            t.core.slots().capacity(),
            SLOT_CHUNK,
            "sequential use must stay within the first chunk"
        );
        assert_eq!(t.core.slots().min_active(), u64::MAX, "all slots released");
    }

    #[test]
    fn capacity_grows_past_the_old_spine_limit() {
        // Regression: a fixed 64-chunk spine panicked at the 4097th
        // concurrent registration ("more than 4096 concurrent
        // transactions"); the chained list must keep growing instead.
        let t = GraceTracker::new();
        let held: Vec<TxGrace> = (0..4097).map(|_| t.begin()).collect();
        assert!(t.core.slots().capacity() > 4096);
        // Reclamation still honors every one of them.
        let committer = t.begin();
        let freed = t.retire_and_flush(committer, vec![blk(100, 1)]);
        assert!(freed.is_empty(), "predating registrations must delay it");
        drop(held);
        assert_eq!(t.flush(), vec![blk(100, 1)]);
    }

    #[test]
    fn concurrent_begin_finish_is_consistent() {
        let t = Arc::new(GraceTracker::new());
        std::thread::scope(|s| {
            for i in 0..8u64 {
                let t = Arc::clone(&t);
                s.spawn(move || {
                    for k in 0..50u64 {
                        let g = t.begin();
                        let _ = t.retire_and_flush(g, vec![blk(1 << 32 | i << 16 | k, 2)]);
                    }
                });
            }
        });
        // Everything retired must eventually flush once no one is active.
        let _ = t.flush();
        assert_eq!(t.pending_blocks(), 0);
        assert_eq!(t.retired_total(), 8 * 50);
        assert_eq!(t.freed_total(), 8 * 50);
    }
}
