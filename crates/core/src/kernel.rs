//! **Protocol kernels behind a synchronization facade** — the seam that
//! lets `oftm-verify`'s bounded model checker execute the *production*
//! protocol code under a deterministic scheduler.
//!
//! The most safety-critical lock-free kernels in this crate are the
//! commit-notification snapshot/park-vs-publish protocol ([`crate::notify`]),
//! the grace-period slot-claim/flush protocol ([`crate::reclaim`]), the
//! commit-counter validation gate of [`crate::dstm`] ([`CommitGate`]) and
//! the admission gate of `oftm-hybrid` ([`ModeGate`]).
//! The first two used to hard-code `std::sync::atomic`; their correctness
//! arguments lived entirely in module docs, checked only by stochastic
//! tests. This module makes the argument mechanizable: the protocol logic
//! is written once, generically over a [`SyncFacade`] (an atomic-`u64` +
//! mutex + waker vocabulary; [`CommitGate`] needs only the atomic), and
//! instantiated twice:
//!
//! * [`StdSync`] — `std::sync::atomic::AtomicU64` + `std::sync::Mutex` +
//!   `std::task::Waker`. This is what [`crate::notify::CommitNotifier`] and
//!   [`crate::reclaim::GraceTracker`] ship; every method is `#[inline]`
//!   monomorphized, so the facade costs nothing at runtime.
//! * `ModelSync` (in `oftm-verify`) — every atomic operation is a
//!   scheduling decision point of a bounded-preemption DFS explorer. The
//!   `model_notify`/`model_grace` suites there exhaustively interleave the
//!   *same* [`NotifyProto`]/[`GraceCore`] code that runs in production and
//!   assert that no schedule loses a wakeup or flushes a retire-set a live
//!   reader predates; `model_gate` does the same for [`CommitGate`] (no
//!   torn read pair, no write skew) and `model_mode_gate` for [`ModeGate`]
//!   (one engine hot at a time, no id lost to a migration).
//!
//! The model explores sequentially consistent interleavings (CHESS-style);
//! the `Ordering` arguments threaded through the facade document the
//! weak-memory side of the argument but all collapse to SC under the
//! model. The `// ord:` lint in `oftm-verify` keeps the per-site pairing
//! justifications honest; the prose arguments for the sub-SC orderings
//! remain in the instantiating modules' docs.

use oftm_histories::TVarId;
use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Slot value meaning "no transaction registered here" (grace protocol).
pub const IDLE_SLOT: u64 = u64::MAX;

/// The atomic-`u64` vocabulary a kernel needs. Implemented by
/// `std::sync::atomic::AtomicU64` (production) and by the model checker's
/// instrumented atomic (every call a scheduling decision point).
pub trait AtomicU64Like: Send + Sync {
    fn new(v: u64) -> Self;
    fn load(&self, ord: Ordering) -> u64;
    fn store(&self, v: u64, ord: Ordering);
    fn fetch_add(&self, v: u64, ord: Ordering) -> u64;
    fn fetch_sub(&self, v: u64, ord: Ordering) -> u64;
    fn compare_exchange(
        &self,
        current: u64,
        new: u64,
        success: Ordering,
        failure: Ordering,
    ) -> Result<u64, u64>;
    /// Waits until the value satisfies `done` and returns it. Production
    /// yields between loads; under the model checker the thread is simply
    /// not runnable until `done` holds, so a wait that can never end is
    /// reported as a deadlock instead of exploding the schedule space.
    fn wait_until(&self, done: fn(u64) -> bool, ord: Ordering) -> u64 {
        loop {
            let v = self.load(ord);
            if done(v) {
                return v;
            }
            std::thread::yield_now();
        }
    }
}

impl AtomicU64Like for std::sync::atomic::AtomicU64 {
    #[inline]
    fn new(v: u64) -> Self {
        std::sync::atomic::AtomicU64::new(v)
    }
    #[inline]
    fn load(&self, ord: Ordering) -> u64 {
        std::sync::atomic::AtomicU64::load(self, ord)
    }
    #[inline]
    fn store(&self, v: u64, ord: Ordering) {
        std::sync::atomic::AtomicU64::store(self, v, ord)
    }
    #[inline]
    fn fetch_add(&self, v: u64, ord: Ordering) -> u64 {
        std::sync::atomic::AtomicU64::fetch_add(self, v, ord)
    }
    #[inline]
    fn fetch_sub(&self, v: u64, ord: Ordering) -> u64 {
        std::sync::atomic::AtomicU64::fetch_sub(self, v, ord)
    }
    #[inline]
    fn compare_exchange(
        &self,
        current: u64,
        new: u64,
        success: Ordering,
        failure: Ordering,
    ) -> Result<u64, u64> {
        std::sync::atomic::AtomicU64::compare_exchange(self, current, new, success, failure)
    }
}

/// Closure-scoped mutex: `with` runs `f` under the lock. The closure API
/// (instead of a guard type) keeps the facade free of GAT lifetime
/// plumbing and makes lock scopes explicit at every call site.
pub trait MutexLike<T: Send>: Send + Sync {
    fn new(value: T) -> Self;
    fn with<R>(&self, f: impl FnOnce(&mut T) -> R) -> R;
    /// [`MutexLike::with`] if the lock is free right now, `None` if not.
    fn try_with<R>(&self, f: impl FnOnce(&mut T) -> R) -> Option<R>;
}

/// Poison is recovered, not propagated: the protected lists stay
/// consistent across a panicking waker or destructor (both run outside
/// the lock), and a failed test must not cascade.
impl<T: Send> MutexLike<T> for std::sync::Mutex<T> {
    #[inline]
    fn new(value: T) -> Self {
        std::sync::Mutex::new(value)
    }
    #[inline]
    fn with<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        f(&mut self.lock().unwrap_or_else(|e| e.into_inner()))
    }
    #[inline]
    fn try_with<R>(&self, f: impl FnOnce(&mut T) -> R) -> Option<R> {
        match self.try_lock() {
            Ok(mut guard) => Some(f(&mut guard)),
            Err(std::sync::TryLockError::Poisoned(e)) => Some(f(&mut e.into_inner())),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }
}

/// A cloneable wake handle (the kernel-level view of `std::task::Waker`).
pub trait WakeRef: Clone {
    /// Wakes the task. Waking a completed task must be a harmless no-op.
    fn wake_ref(&self);
    /// True if both handles wake the same task (used to deregister every
    /// clone of a task after a failed park).
    fn will_wake(&self, other: &Self) -> bool;
}

impl WakeRef for std::task::Waker {
    #[inline]
    fn wake_ref(&self) {
        self.wake_by_ref()
    }
    #[inline]
    fn will_wake(&self, other: &Self) -> bool {
        std::task::Waker::will_wake(self, other)
    }
}

/// The synchronization vocabulary a kernel is generic over.
pub trait SyncFacade: 'static {
    type Au64: AtomicU64Like;
    type Mutex<T: Send>: MutexLike<T>;
    /// A memory fence (a decision point and nothing else under the model,
    /// which is sequentially consistent already).
    fn fence(ord: Ordering);
}

/// Production facade: real atomics, `std::sync` mutexes.
pub struct StdSync;

impl SyncFacade for StdSync {
    type Au64 = std::sync::atomic::AtomicU64;
    type Mutex<T: Send> = std::sync::Mutex<T>;
    #[inline]
    fn fence(ord: Ordering) {
        std::sync::atomic::fence(ord)
    }
}

// ---------------------------------------------------------------------------
// Notify kernel: the no-lost-wakeup snapshot/park-vs-publish protocol.
// ---------------------------------------------------------------------------

/// One notification shard (cache-padded: committers of disjoint shards
/// must not bounce a line).
#[repr(align(64))]
struct ProtoShard<F: SyncFacade, W: WakeRef + Send> {
    /// Commits that wrote this shard so far (the validation word of the
    /// no-lost-wakeup protocol).
    seq: F::Au64,
    /// Wakers currently registered (the committer's cheap "anyone
    /// parked?" probe).
    parked: F::Au64,
    waiters: F::Mutex<Vec<W>>,
}

impl<F: SyncFacade, W: WakeRef + Send> ProtoShard<F, W> {
    fn new() -> Self {
        ProtoShard {
            seq: F::Au64::new(0),
            parked: F::Au64::new(0),
            waiters: F::Mutex::new(Vec::new()),
        }
    }
}

/// The commit-notification protocol over abstract shard indices: the
/// numbered steps (1)–(4) of [`crate::notify`]'s Dekker argument, written
/// once and shared by [`crate::notify::CommitNotifier`] (`StdSync` +
/// `std::task::Waker`) and the `oftm-verify` model checker. Mapping
/// t-variables onto shard indices (hashing, bitmask dedup) stays with the
/// caller — the protocol's correctness does not depend on it.
pub struct NotifyProto<F: SyncFacade, W: WakeRef + Send> {
    shards: Arc<[ProtoShard<F, W>]>,
}

/// A clone is another handle on the **same** shards: what lets two
/// engines behind one facade publish where the facade's waiters park.
impl<F: SyncFacade, W: WakeRef + Send> Clone for NotifyProto<F, W> {
    fn clone(&self) -> Self {
        NotifyProto {
            shards: Arc::clone(&self.shards),
        }
    }
}

impl<F: SyncFacade, W: WakeRef + Send> NotifyProto<F, W> {
    pub fn new(shards: usize) -> Self {
        NotifyProto {
            shards: (0..shards).map(|_| ProtoShard::new()).collect(),
        }
    }

    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Committer half: for each listed shard, bump `seq` (1), probe
    /// `parked` (2), and drain the waiter list if anyone is registered.
    /// Wakes run after all shards are drained, outside the shard locks —
    /// a waker may schedule work re-entrantly (executor queues), which
    /// must not run under our lock.
    pub fn publish(&self, shard_indices: impl IntoIterator<Item = usize>) {
        let mut woken: Vec<W> = Vec::new();
        for s in shard_indices {
            let shard = &self.shards[s];
            // ord: (1) SeqCst seq bump; Dekker-pairs with the waiter's
            // SeqCst validation re-read (4) in `park`.
            shard.seq.fetch_add(1, Ordering::SeqCst);
            // ord: (2) SeqCst parked probe; Dekker-pairs with the waiter's
            // SeqCst registration bump (3) in `park`: in the SC total
            // order either (2) sees (3) and we drain, or (1) precedes (4)
            // and the waiter refuses to park.
            if shard.parked.load(Ordering::SeqCst) != 0 {
                shard.waiters.with(|ws| {
                    // ord: SeqCst under the waiter-list lock; keeps the
                    // parked count exactly equal to the list length for
                    // every observer (diagnostics and the probe above).
                    shard.parked.fetch_sub(ws.len() as u64, Ordering::SeqCst);
                    woken.append(ws);
                });
            }
        }
        for w in woken {
            w.wake_ref();
        }
    }

    /// Waiter step 1: sample `seq` of every listed shard into `snap`
    /// (cleared first).
    pub fn snapshot(
        &self,
        shard_indices: impl IntoIterator<Item = usize>,
        snap: &mut Vec<(usize, u64)>,
    ) {
        snap.clear();
        for s in shard_indices {
            // ord: SeqCst sample; the value `park`'s validation (4)
            // compares against — must order with the committer's bump (1).
            snap.push((s, self.shards[s].seq.load(Ordering::SeqCst)));
        }
    }

    /// Waiter step 2: register `waker` on every snapshot shard (3), then
    /// re-read every sampled `seq` (4). Returns `true` if the park
    /// **stands** (a future publish will wake the waker); `false` if a
    /// publish raced the registration — the caller must treat itself as
    /// already woken. A failed park deregisters the wakers it just pushed
    /// (and any earlier stale clone for the same task).
    #[must_use]
    pub fn park(&self, snap: &[(usize, u64)], waker: &W) -> bool {
        debug_assert!(!snap.is_empty(), "parking on an empty footprint");
        for &(s, _) in snap {
            let shard = &self.shards[s];
            shard.waiters.with(|ws| {
                ws.push(waker.clone());
                // ord: (3) SeqCst registration bump; Dekker-pairs with the
                // committer's SeqCst parked probe (2) in `publish`.
                shard.parked.fetch_add(1, Ordering::SeqCst);
            });
        }
        for &(s, seen) in snap {
            // ord: (4) SeqCst validation re-read; Dekker-pairs with the
            // committer's SeqCst seq bump (1): if (2) missed our (3), (1)
            // precedes this load, which then observes the change.
            if self.shards[s].seq.load(Ordering::SeqCst) != seen {
                self.unregister(snap, waker);
                return false;
            }
        }
        true
    }

    /// Removes every registration of `waker`'s task from the shards of
    /// `snap` (identity via [`WakeRef::will_wake`]), keeping the parked
    /// counts exact.
    fn unregister(&self, snap: &[(usize, u64)], waker: &W) {
        for &(s, _) in snap {
            let shard = &self.shards[s];
            shard.waiters.with(|ws| {
                let before = ws.len();
                ws.retain(|w| !w.will_wake(waker));
                let removed = (before - ws.len()) as u64;
                if removed > 0 {
                    // ord: SeqCst under the waiter-list lock, as in
                    // `publish`'s drain: the count stays exact.
                    shard.parked.fetch_sub(removed, Ordering::SeqCst);
                }
            });
        }
    }

    /// True if any shard of `snap` has published since the snapshot was
    /// taken (diagnostics / tests).
    pub fn changed_since(&self, snap: &[(usize, u64)]) -> bool {
        snap.iter()
            // ord: SeqCst diagnostic read of the protocol word.
            .any(|&(s, seen)| self.shards[s].seq.load(Ordering::SeqCst) != seen)
    }

    /// Total wakers currently registered across all shards (diagnostics).
    pub fn parked_wakers(&self) -> usize {
        self.shards
            .iter()
            // ord: SeqCst diagnostic read of the protocol word.
            .map(|s| s.parked.load(Ordering::SeqCst) as usize)
            .sum()
    }

    /// Total publishes across all shards (diagnostics).
    pub fn publish_count(&self) -> u64 {
        self.shards
            .iter()
            // ord: SeqCst diagnostic read of the protocol word.
            .map(|s| s.seq.load(Ordering::SeqCst))
            .sum()
    }
}

// ---------------------------------------------------------------------------
// Grace kernel: epoch + slot claim/flush, the one reclamation rule.
// ---------------------------------------------------------------------------

/// A contiguous block of t-variables scheduled for reclamation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetiredBlock {
    /// First t-variable id of the block.
    pub base: TVarId,
    /// Number of contiguous ids.
    pub len: usize,
}

/// The registration slot store the grace kernel is generic over.
/// Production uses [`crate::reclaim`]'s lock-free chunked `SlotArray`
/// (`AtomicPtr`-chained, unbounded); the model checker uses a fixed array
/// of instrumented atomics. Both claim with the same CAS protocol; the
/// chunk-installation visibility argument is `SlotArray`-specific and
/// stays prose (the model cannot express pointer installation).
pub trait SlotSet<A: AtomicU64Like>: Send + Sync {
    /// Claims an idle slot, storing `e` into it (CAS from [`IDLE_SLOT`]).
    /// Slots never move and live as long as the set: a guard borrows its.
    fn claim(&self, e: u64) -> &A;
    /// Minimum epoch over all registered slots ([`IDLE_SLOT`] when none).
    fn min_active(&self) -> u64;
}

/// A registration with a [`GraceCore`]: nothing tagged at or after the
/// epoch its slot publishes is reclaimed while it lives. Dropping it
/// releases the slot — abort paths need nothing beyond dropping the
/// transaction — and collects whatever memory became reclaimable.
pub struct GraceGuard<'c, F: SyncFacade, S: SlotSet<F::Au64>, M: Send> {
    core: &'c GraceCore<F, S, M>,
    slot: &'c F::Au64,
}

impl<'c, F: SyncFacade, S: SlotSet<F::Au64>, M: Send> GraceGuard<'c, F, S, M> {
    /// The kernel this guard is registered with.
    pub fn core(&self) -> &'c GraceCore<F, S, M> {
        self.core
    }

    fn unregister(&self) {
        // ord: SeqCst release of the slot: a concurrent flush scan either
        // sees the registration (and holds what we might reach) or sees
        // IDLE after we are finished and can no longer touch any of it.
        self.slot.store(IDLE_SLOT, Ordering::SeqCst);
    }

    /// Releases the registration without collecting: for a commit hook
    /// that reclaims right after, and must not wait on itself.
    pub fn release(self) {
        self.unregister();
        std::mem::forget(self);
    }
}

impl<F: SyncFacade, S: SlotSet<F::Au64>, M: Send> Drop for GraceGuard<'_, F, S, M> {
    fn drop(&mut self) {
        self.unregister();
        self.core.collect();
    }
}

/// What awaits its grace period, under one lock.
struct Bins<M> {
    /// Retire-sets, one tag per retiring commit; handed back once ripe.
    blocks: Vec<(u64, Vec<RetiredBlock>)>,
    /// Deferred memory; dropped by whoever finds it ripe.
    memory: Vec<(u64, M)>,
}

/// The grace-period protocol (epoch counter, per-guard slots, epoch-tagged
/// bins), written once and shared by [`crate::reclaim::GraceTracker`]
/// (`StdSync` + chunked `SlotArray`) and the `oftm-verify` model checker
/// (instrumented atomics + fixed slots). One rule for both kinds of
/// garbage — an item tagged `e` is reclaimed once every registered guard
/// has published an epoch `> e`: retired id blocks go back to the caller
/// (which owns the table they index), memory items `M` are dropped. The
/// same rule governs a [`GraceBag`], a private pile of what its owner
/// retires on every operation (memory and id blocks alike), reclaimed
/// without the bins' lock. See [`crate::reclaim`] for why this is safe;
/// `model_grace` checks it exhaustively at preemption bound 2.
pub struct GraceCore<F: SyncFacade, S: SlotSet<F::Au64>, M: Send> {
    /// Monotonic epoch; advanced by every retirement.
    epoch: F::Au64,
    slots: S,
    bins: F::Mutex<Bins<M>>,
    /// Items currently sitting in `bins` (kept in sync under the `bins`
    /// lock). Lets the hot no-reclamation path — every commit of a
    /// workload that never retires anything — skip the lock entirely.
    pending: F::Au64,
}

impl<F: SyncFacade, S: SlotSet<F::Au64> + Default, M: Send> Default for GraceCore<F, S, M> {
    fn default() -> Self {
        Self::with_slots(S::default())
    }
}

impl<F: SyncFacade, S: SlotSet<F::Au64>, M: Send> GraceCore<F, S, M> {
    pub fn new() -> Self
    where
        S: Default,
    {
        Self::default()
    }

    pub fn with_slots(slots: S) -> Self {
        GraceCore {
            epoch: F::Au64::new(1),
            slots,
            bins: F::Mutex::new(Bins {
                blocks: Vec::new(),
                memory: Vec::new(),
            }),
            pending: F::Au64::new(0),
        }
    }

    /// The slot store (tests/diagnostics).
    pub fn slots(&self) -> &S {
        &self.slots
    }

    /// Whether `guard` is registered here: what protects a pointer is a
    /// guard of the domain the pointee is retired into.
    pub fn owns(&self, guard: &GraceGuard<'_, F, S, M>) -> bool {
        std::ptr::eq(guard.core, self)
    }

    /// Registers a beginning transaction. Must be called before the
    /// transaction performs its first read.
    pub fn begin(&self) -> GraceGuard<'_, F, S, M> {
        // ord: SeqCst epoch sample: the claimed slot value must order
        // against retirements' SeqCst epoch bumps.
        let mut e = self.epoch.load(Ordering::SeqCst);
        let slot = self.slots.claim(e);
        // Revalidate (all `SeqCst`): if the epoch did not move, our slot
        // write is SeqCst-ordered before any later retirement's bump, so
        // that retirement's flush must see us. If it moved, republish —
        // reading the bump (a SeqCst RMW) happens-before-orders the
        // retirer's unlink ahead of every read this transaction will do,
        // so what its bin frees is unreachable to us. Without this, a
        // flush racing our registration could miss the slot while our
        // reads still observe pre-unlink state on weakly ordered hardware.
        loop {
            // ord: SeqCst epoch re-read of the revalidation loop (see the
            // block comment above).
            let now = self.epoch.load(Ordering::SeqCst);
            if now == e {
                break;
            }
            // ord: SeqCst slot publication; must be ordered against the
            // retirer's SeqCst epoch bump so a flush scan cannot miss a
            // registered predecessor.
            slot.store(now, Ordering::SeqCst);
            e = now;
        }
        GraceGuard { core: self, slot }
    }

    /// The tag of a retirement: bumps the epoch, so every later
    /// registration publishes a strictly greater one.
    fn tag(&self) -> u64 {
        // ord: SeqCst epoch bump: orders the tag against every beginner's
        // SeqCst slot publication (the flush rule's "slot epoch > tag"
        // comparison depends on it).
        self.epoch.fetch_add(1, Ordering::SeqCst)
    }

    /// Enters `n` tagged items under the bins lock.
    fn enter(&self, n: usize, push: impl FnOnce(&mut Bins<M>)) {
        self.bins.with(|bins| {
            // ord: Release pending bump under the bins lock; pairs with
            // the Acquire fast-path probes of `flush` and `collect`.
            self.pending.fetch_add(n as u64, Ordering::Release);
            push(bins);
        });
    }

    /// Defers dropping `item` until no guard that predates this call is
    /// left. The caller must have made whatever `item` stands for
    /// unreachable to later registrations first (unlink, then defer); it
    /// need not hold a guard itself.
    pub fn defer(&self, item: M) {
        let tag = self.tag();
        self.enter(1, |bins| bins.memory.push((tag, item)));
    }

    /// [`GraceCore::defer`] for a whole batch: one tag, one lock.
    pub fn defer_all(&self, items: impl IntoIterator<Item = M, IntoIter: ExactSizeIterator>) {
        let items = items.into_iter();
        if items.len() != 0 {
            let tag = self.tag();
            self.enter(items.len(), |bins| {
                bins.memory.extend(items.map(|item| (tag, item)))
            });
        }
    }

    /// Commit hook: releases the committing transaction's guard, enters
    /// its retire-set (if any) as a new batch, drops every memory item
    /// and returns every id block whose grace period has elapsed. The
    /// caller must evict the returned blocks from its variable table —
    /// the kernel records ids, not state.
    pub fn retire_and_flush(
        &self,
        guard: GraceGuard<'_, F, S, M>,
        retired: Vec<RetiredBlock>,
    ) -> Vec<RetiredBlock> {
        debug_assert!(self.owns(&guard), "guard of another domain");
        // Release our slot first: the batch we are about to enter must not
        // wait on the very transaction that retired it. (No collection of
        // its own: the flush below does it.)
        guard.release();
        if !retired.is_empty() {
            let tag = self.tag();
            self.enter(retired.len(), |bins| bins.blocks.push((tag, retired)));
        }
        self.flush()
    }

    /// Whether anything awaits its grace period: workloads that never
    /// retire pay this one load per commit instead of a lock.
    fn anything_pending(&self) -> bool {
        // ord: Acquire probe pairing with the Release bumps under the
        // bins lock; a stale zero only skips a pass some other release or
        // commit will perform.
        self.pending.load(Ordering::Acquire) != 0
    }

    /// Splits off, under the bins lock, what no registered guard
    /// predates: memory always, id blocks if `blocks_too`.
    ///
    /// The lock is taken BEFORE the slots are scanned. Reversed, an item
    /// entered between the two steps could be freed against a stale scan
    /// that missed a reader registered after it — with the lock held
    /// first, every item we examine was entered before we locked, so any
    /// reader that can reach it registered (and is visible) before our
    /// scan. (`model_grace` refutes the reversed order.)
    fn ripe(&self, bins: &mut Bins<M>, blocks_too: bool) -> (Vec<RetiredBlock>, Vec<M>) {
        let min_active = self.slots.min_active();
        let mut memory = Vec::new();
        let mut i = 0;
        while i < bins.memory.len() {
            if bins.memory[i].0 < min_active {
                memory.push(bins.memory.swap_remove(i).1);
            } else {
                i += 1;
            }
        }
        let mut blocks = Vec::new();
        if blocks_too {
            bins.blocks.retain_mut(|(epoch, batch)| {
                let ripe = *epoch < min_active;
                if ripe {
                    blocks.append(batch);
                }
                !ripe
            });
        }
        // ord: Release pending decrement under the bins lock; pairs with
        // the Acquire fast-path probe.
        self.pending
            .fetch_sub((blocks.len() + memory.len()) as u64, Ordering::Release);
        (blocks, memory)
    }

    /// Drops every memory item and returns every retired id block that no
    /// registered guard predates.
    pub fn flush(&self) -> Vec<RetiredBlock> {
        if !self.anything_pending() {
            return Vec::new();
        }
        let (blocks, memory) = self.bins.with(|bins| self.ripe(bins, true));
        // Destructors are arbitrary code: run them outside the lock.
        drop(memory);
        blocks
    }

    /// A guard's release: drops the memory that became reclaimable, so
    /// what is deferred outside any commit hook (an aborted attempt's
    /// frees, a replaced registration, a bag past its bound or displaced
    /// from its pool) is freed on paths that never reach one. Id
    /// blocks stay for the next [`GraceCore::flush`] — only its caller
    /// can evict them. Best effort: backs off if the lock is taken (a
    /// hard lock would turn a preempted holder into a convoy for every
    /// releasing thread).
    fn collect(&self) {
        if self.anything_pending() {
            // Dropped — destructors run — once the lock is released.
            drop(self.bins.try_with(|bins| self.ripe(bins, false)));
        }
    }

    /// Number of retired blocks still awaiting their grace period.
    pub fn pending_blocks(&self) -> usize {
        self.bins
            .with(|bins| bins.blocks.iter().map(|(_, b)| b.len()).sum())
    }

    /// Number of memory items still awaiting their grace period.
    pub fn pending_memory(&self) -> usize {
        self.bins.with(|bins| bins.memory.len())
    }

    /// Tags `batch` — what its caller has just unlinked, or the blocks its
    /// commit retired — with one epoch bump and appends it to the caller's
    /// private `bag`. The bag stays in tag order: tags only grow.
    pub fn retire(
        &self,
        bag: &mut GraceBag<M>,
        batch: impl IntoIterator<Item = Retired<M>, IntoIter: ExactSizeIterator>,
    ) {
        let batch = batch.into_iter();
        if batch.len() != 0 {
            let tag = self.tag();
            bag.items.extend(batch.map(|item| (tag, item)));
        }
    }

    /// Takes the front of `bag` that no registered guard predates: one
    /// slot scan, no lock. Drops its memory and returns its id blocks —
    /// to the caller, as [`GraceCore::flush`] does, because it owns the
    /// table they index. Sound because the `&mut` makes the caller the
    /// bag's one owner, the only one that fills it (see
    /// [`crate::reclaim`]).
    pub fn reclaim(&self, bag: &mut GraceBag<M>) -> Vec<RetiredBlock> {
        let mut blocks = Vec::new();
        if bag.items.is_empty() {
            return blocks;
        }
        let min_active = self.slots.min_active();
        while bag.items.front().is_some_and(|(tag, _)| *tag < min_active) {
            if let Some((_, Retired::Block(block))) = bag.items.pop_front() {
                blocks.push(block);
            }
        }
        blocks
    }

    /// Hands all but the oldest `keep` items of `bag` over to the shared
    /// bins under one fresh tag — later than each item's own, which is
    /// always safe — for whoever releases or flushes next to drop, or to
    /// evict.
    pub fn defer_bag(&self, bag: &mut GraceBag<M>, keep: usize) {
        if bag.items.len() > keep {
            let tag = self.tag();
            let n = bag.items.len() - keep;
            self.enter(n, |bins| {
                let mut blocks = Vec::new();
                for (_, item) in bag.items.drain(keep..) {
                    match item {
                        Retired::Memory(m) => bins.memory.push((tag, m)),
                        Retired::Block(b) => blocks.push(b),
                    }
                }
                if !blocks.is_empty() {
                    bins.blocks.push((tag, blocks));
                }
            });
        }
    }
}

/// What a [`GraceBag`] holds: memory its owner unlinked, dropped once
/// ripe, or a block of t-variable ids its owner's commit retired, handed
/// back once ripe for the owner to evict.
pub enum Retired<M> {
    Memory(M),
    Block(RetiredBlock),
}

/// One owner's private pile of retired items, in tag order: what
/// [`GraceCore::retire`] tags and [`GraceCore::reclaim`] takes once ripe,
/// by the rule of the shared bins but without their lock. Generic over the
/// memory item only — it holds no atomics — so the model checker
/// instantiates it with the item it gives [`GraceCore`]. Dropping a bag
/// drops its memory at once and forgets its blocks: hand a bag that may
/// hold unripe items, or any block, to [`GraceCore::defer_bag`] first.
pub struct GraceBag<M> {
    items: VecDeque<(u64, Retired<M>)>,
}

impl<M> Default for GraceBag<M> {
    fn default() -> Self {
        GraceBag {
            items: VecDeque::new(),
        }
    }
}

impl<M> GraceBag<M> {
    /// Items awaiting their grace period.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

// ---------------------------------------------------------------------------
// Gate kernel: the commit counter behind DSTM's read-set validation.
// ---------------------------------------------------------------------------

/// The commit-counter validation gate of [`crate::dstm`]: one word counting
/// the update transactions that reached their commit point, written once
/// and shared by [`crate::dstm::Dstm`] (`AtomicU64`) and the `oftm-verify`
/// model checker (`model_gate`). A transaction keeps the counter value
/// under which its whole read-set was last known valid (`seen`) and pays
/// for a read-set scan only when the counter has moved past it. See
/// `dstm::tx` for why that is enough. On its own cache line: every
/// read loads it, only update commits write it.
#[repr(align(64))]
pub struct CommitGate<A: AtomicU64Like> {
    commits: A,
}

impl<A: AtomicU64Like> Default for CommitGate<A> {
    fn default() -> Self {
        CommitGate { commits: A::new(0) }
    }
}

impl<A: AtomicU64Like> CommitGate<A> {
    /// Begin-time sample; must precede the transaction's first read.
    pub fn sample(&self) -> u64 {
        // ord: Acquire pairs with the AcqRel bump in `commit_point`: every
        // pointer a counted committer swung is visible to the reads and
        // scans that follow this load.
        self.commits.load(Ordering::Acquire)
    }

    /// Gate check after a read or an acquisition, and at a read-only
    /// commit. `Ok` carries the value to keep as `seen`: unchanged when no
    /// update transaction reached its commit point since `seen`, otherwise
    /// the value loaded **before** `scan` validated the read-set (adopting
    /// one loaded after it would cover a commit the scan never saw).
    /// `Err` is `scan`'s first invalid entry.
    pub fn check<X>(&self, seen: u64, scan: impl FnOnce() -> Option<X>) -> Result<u64, X> {
        let now = self.sample();
        if now == seen {
            return Ok(seen);
        }
        scan().map_or(Ok(now), Err)
    }

    /// Commit point of an update transaction: counts it — after its last
    /// acquisition, before its status CAS — and validates its read-set
    /// unless this is the first bump since `seen`. Bump *then* validate:
    /// of two committers that read each other's writes, the later bumper
    /// sees the earlier one's bump and, in the scan, its acquisitions.
    pub fn commit_point<X>(&self, seen: u64, scan: impl FnOnce() -> Option<X>) -> Result<(), X> {
        // ord: AcqRel — Release publishes this committer's pointer swings
        // to every Acquire `sample` that reads this bump or a later one
        // (RMWs continue the release sequence); Acquire makes the earlier
        // bumpers' swings visible to the scan below.
        let before = self.commits.fetch_add(1, Ordering::AcqRel);
        if before == seen {
            return Ok(());
        }
        scan().map_or(Ok(()), Err)
    }
}

// ---------------------------------------------------------------------------
// Mode gate: begin-vs-migrate and allocate-vs-migrate of a two-engine backend.
// ---------------------------------------------------------------------------

/// One admission slot of a [`ModeGate`], on a pair of cache lines of its
/// own: what a begin and a commit write is private to the slot's users.
#[repr(align(128))]
struct GateSlot<A, L> {
    /// Transactions admitted through this slot and still running, per mode.
    active: [A; 2],
    /// Caller state that belongs on the same private line.
    local: L,
}

/// The admission protocol of a backend that runs one of two engines at a
/// time (`oftm-hybrid`: mode 0 is TL2, mode 1 is DSTM), written once and
/// shared with the `oftm-verify` model checker (`model_mode_gate`).
///
/// Two store-buffering (Dekker) handshakes against the one `migrating`
/// flag, both `SeqCst` on either side:
///
/// * **begin vs. migrate** — a beginner publishes itself in its slot's
///   per-mode count and re-reads the flag and the mode; a migrator raises
///   the flag and reads every slot's count. Either the beginner backs out
///   or the migrator waits for it, so `quiescent` runs with no transaction
///   on either engine.
/// * **allocate vs. migrate** — mode 0's engine is the id authority and
///   the only one holding t-variables while mode 0 runs. An allocator
///   inserts there, fences and reads the flag and the mode
///   ([`ModeGate::must_mirror`]); a migrator raises the flag, fences and
///   walks the authority's table. Either the allocator mirrors the id
///   into the other engine itself or the walk finds it.
///
/// The shared words are read-mostly (written by migrations only) and kept
/// off everybody else's lines by the struct's own alignment.
#[repr(align(128))]
pub struct ModeGate<F: SyncFacade, L> {
    mode: F::Au64,
    migrating: F::Au64,
    slots: Box<[GateSlot<F::Au64, L>]>,
}

impl<F: SyncFacade, L> ModeGate<F, L> {
    /// A gate in mode 0 with `slots` admission slots.
    pub fn new(slots: usize, mut local: impl FnMut() -> L) -> Self {
        ModeGate {
            mode: F::Au64::new(0),
            migrating: F::Au64::new(0),
            slots: (0..slots)
                .map(|_| GateSlot {
                    active: [F::Au64::new(0), F::Au64::new(0)],
                    local: local(),
                })
                .collect(),
        }
    }

    /// The current mode (0 or 1).
    pub fn mode(&self) -> usize {
        // ord: SeqCst — one end of both Dekker handshakes.
        self.mode.load(Ordering::SeqCst) as usize
    }

    /// The caller state of `slot`.
    pub fn local(&self, slot: usize) -> &L {
        &self.slots[slot].local
    }

    /// Admits a transaction through `slot` and returns the mode it must
    /// run in; pair with [`ModeGate::leave`] once the engine-side state of
    /// the transaction is gone.
    pub fn admit(&self, slot: usize) -> usize {
        let active = &self.slots[slot].active;
        loop {
            let m = self.mode();
            // ord: SeqCst — the beginner's store of the Dekker pair: our
            // count is ordered before the flag re-read below and against
            // the migrator's flag CAS.
            active[m].fetch_add(1, Ordering::SeqCst);
            // ord: SeqCst — the beginner's load of the pair. The mode is
            // read again because a whole migration fits between the first
            // read and the count.
            if self.migrating.load(Ordering::SeqCst) == 0 && self.mode() == m {
                return m;
            }
            // ord: SeqCst — symmetric retreat; the drain may be waiting
            // on this count.
            active[m].fetch_sub(1, Ordering::SeqCst);
            // ord: SeqCst — wait out the barrier off the slot's line.
            self.migrating.wait_until(|v| v == 0, Ordering::SeqCst);
        }
    }

    /// Retires the admission [`ModeGate::admit`] returned `mode` for.
    pub fn leave(&self, slot: usize, mode: usize) {
        // ord: SeqCst — pairs with the migrator's drain loads.
        self.slots[slot].active[mode].fetch_sub(1, Ordering::SeqCst);
    }

    /// After inserting an id into the authority's table: must the caller
    /// also register it with the other engine? `false` means a later
    /// migration's walk is certain to find it.
    pub fn must_mirror(&self) -> bool {
        // ord: SeqCst fence — orders the caller's table insert before the
        // loads below; pairs with the fence in `migrate` (the table's own
        // accesses are Release/Acquire, which alone would let the insert
        // and the flag load pass each other).
        F::fence(Ordering::SeqCst);
        // ord: SeqCst — the allocator's loads of the Dekker pair. A clear
        // flag with mode 0 means no walk has started that could miss the
        // insert; mode 1 with a clear flag is a finished walk that may
        // have.
        self.migrating.load(Ordering::SeqCst) != 0 || self.mode() != 0
    }

    /// Migrates to `target` unless another migration is running or the
    /// gate is there already; returns whether it did. `quiescent(from)`
    /// runs with the flag raised and no transaction admitted on either
    /// engine, before the new mode is published.
    pub fn migrate(&self, target: usize, quiescent: impl FnOnce(usize)) -> bool {
        // ord: SeqCst CAS — the migrator's store of both Dekker pairs;
        // also serializes migrators (at most one wins).
        if self
            .migrating
            .compare_exchange(0, 1, Ordering::SeqCst, Ordering::SeqCst)
            .is_err()
        {
            return false;
        }
        let from = self.mode();
        if from == target {
            // ord: SeqCst — lowers the flag symmetric with the CAS.
            self.migrating.store(0, Ordering::SeqCst);
            return false;
        }
        // ord: SeqCst fence — orders the flag before the table walk in
        // `quiescent`; pairs with the fence in `must_mirror`.
        F::fence(Ordering::SeqCst);
        // Drain. Slot by slot is enough: a count can only rise past zero
        // again through a beginner that then sees the flag and retreats.
        for slot in self.slots.iter() {
            // ord: SeqCst — the migrator's load of the begin pair: either
            // we see the beginner's count or it sees our flag.
            slot.active[from].wait_until(|n| n == 0, Ordering::SeqCst);
        }
        quiescent(from);
        // ord: SeqCst — publish the new mode before lowering the flag.
        self.mode.store(target as u64, Ordering::SeqCst);
        // ord: SeqCst — beginners may now admit into the new mode.
        self.migrating.store(0, Ordering::SeqCst);
        true
    }
}
