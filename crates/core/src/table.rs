//! Concurrent t-variable tables with **dynamic allocation** — a lock-free
//! two-level **paged slab**.
//!
//! The paper's Algorithm 2 assumes statically indexed t-variables
//! (footnote 6), and the original `WordStm` interface mirrored that: every
//! t-variable had to be registered before transactions ran. Dynamic
//! data-structure workloads — the DSTM list-based IntSet the OFTM
//! literature benchmarks on — need the opposite: transactions allocate
//! fresh t-variables (list nodes) *while running*. [`VarTable`] is the
//! shared substrate every word-level STM backend uses to support both.
//!
//! ## Why a slab and not a map
//!
//! `VarTable::get` sits on the hottest path in the workspace: every
//! transactional read of every backend resolves its t-variable here
//! before touching any STM metadata. An earlier revision used sharded
//! `RwLock<HashMap>`s, which put a lock acquisition, a hash probe and the
//! attendant shared-cacheline traffic in front of *every* read — exactly
//! the kind of common-path synchronization cost the paper's
//! obstruction-free vs. lock-based comparison is about measuring, and
//! therefore exactly what the harness must not add on its own. The slab
//! exploits **id density**: ids are never reused and are handed out
//! contiguously, so the table can be an array, not a map.
//!
//! * Static registrations use caller-chosen ids below
//!   [`DYNAMIC_TVAR_BASE`] (conventionally small integers; the table
//!   supports ids up to [`STATIC_SPAN`]).
//! * Dynamic ids are handed out from a per-instance monotonic counter
//!   starting at [`DYNAMIC_TVAR_BASE`], in **contiguous blocks** so a
//!   multi-word node (e.g. a list node's `[value, next]` pair) is
//!   addressable from a single base id.
//!
//! Both ranges map to slots in lazily materialized, append-only **pages**
//! (`PAGE_SIZE` slots each) reached through atomic page directories:
//! one flat directory for the static range, a two-level one for the
//! (much larger) dynamic range. A lookup is a wait-free double array
//! index — two or three `Acquire` loads and nothing else: no lock, no
//! hashing, no allocation, no write to shared memory. Pages are installed
//! with a single CAS on first touch
//! and never move or shrink, so readers need no synchronization with
//! growth; an insertion is visible to *already running* transactions,
//! which is what allocation inside a transaction requires.
//!
//! ## Tombstones, grace periods, and why eviction is safe
//!
//! Because dynamic ids are **never reused**, an evicted slot simply
//! becomes a permanent tombstone (a null pointer): a later `get` of the
//! freed id can only miss — it panics with the uniform `t-variable <x>
//! not registered` diagnostic, never aliases a newer allocation.
//!
//! Every table belongs to one reclamation domain
//! ([`crate::reclaim::GraceTracker`]; its own unless built with
//! [`VarTable::in_domain`]), and the one [`Guard`] of it a transaction
//! holds from `begin` to completion carries both stages of an eviction.
//! *Ids first:* backends route frees through
//! [`VarTable::retire_and_evict`], which tags the committing process's
//! retired blocks into that process's private bag (the caller's: an
//! engine keeps it with its other per-transaction state) and evicts a
//! block only once **no in-flight transaction predates the retiring
//! commit** — so by the time its slots are tombstoned, no transaction
//! that could legitimately reach the block is still running. *Then
//! memory:* the eviction itself is
//! nonetheless fully race-safe. A slot owns its `V` (one `Box`) behind a
//! guard-protected pointer, lookups hand out `&V` for the lifetime of the
//! caller's guard, and every eviction retires the old pointer into the
//! same domain under a tag taken after the tombstone — into the evicting
//! process's bag, or, for [`VarTable::remove`] and
//! [`VarTable::remove_block`] (the abort path), into the shared bins. A
//! racing reader (a contract-breaking zombie) either sees the value,
//! which its guard then keeps allocated until it is released, or sees the
//! tombstone and panics. Memory safety never depends on the caller
//! honoring the retire contract; only the panic-vs-value outcome does.
//!
//! Only the committing process looks at its bag. The shared bins get
//! what is not made on every commit — a bag past [`crate::reclaim`]'s
//! bound or displaced from its pool slot, the abort path's frees, a
//! replaced re-registration — and every commit probes them with one load.
//! [`VarTable::evict_ripe_parked`] evicts what every parked bag and the
//! bins hold ripe, with no commit to hang it on: what a leak oracle runs
//! before it counts.
//!
//! Nothing is reference-counted: a count would sit in the t-variable's
//! own allocation, and every read that kept a handle would write the line
//! the other cores are reading. A transaction holds its guard from
//! `begin` to completion, so a log entry that outlives the lookup is a
//! [`Pinned`].
//!
//! ## Allocation vs. retirement semantics
//!
//! Allocation is deliberately **not** a transactional effect: a t-variable
//! allocated inside a transaction that later aborts stays allocated (and
//! unreachable — the write that would have published it was discarded).
//! This mirrors DSTM's object allocation semantics and keeps `alloc` safe
//! to call both inside and outside transactions. (The transaction
//! driver compensates: it frees blocks an aborted attempt allocated
//! through its [`crate::driver::TxCtx`] immediately, which is safe
//! precisely because they were never published.) Freeing, by contrast, **is** transactional in effect: a
//! collection node is retired via [`crate::api::WordTx::retire_tvar_block`],
//! which defers the actual [`VarTable::remove_block`] to after the
//! unlinking transaction's commit *plus* the grace period. The
//! `live`/`freed` metrics are maintained with the same exactness as the
//! old sharded table: every slot transition empty→full bumps the live
//! count, every full→empty bumps `freed`, both driven by the atomic swap
//! that performs the transition, so concurrent churn cannot double-count.
//! A block allocation or eviction moves each count once for the block.

use crate::line::Line;
use crate::pool::SlotPool;
use crate::reclaim::{Atomic, Bag, Deferred, GraceTracker, Guard, Owned, Retired, Shared};
use oftm_histories::{TVarId, Value};
use std::ptr::NonNull;
use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};
use std::sync::Arc;

/// First t-variable id handed out by dynamic allocation. Static
/// registrations use small ids, so the two ranges never collide; every
/// STM instance allocates from the same base, which keeps single-threaded
/// (sequential-replay) executions id-identical across implementations.
pub const DYNAMIC_TVAR_BASE: u64 = 1 << 32;

/// Slots per page (2^12). A page is one contiguous allocation; a fresh
/// table owns no pages at all, and a collection workload touching n
/// contiguous dynamic ids materializes ⌈n / PAGE_SIZE⌉ of them.
const PAGE_BITS: usize = 12;
const PAGE_SIZE: usize = 1 << PAGE_BITS;
const PAGE_MASK: usize = PAGE_SIZE - 1;

/// Pages in the (flat) static directory: static ids must lie below
/// `STATIC_PAGES * PAGE_SIZE` = [`STATIC_SPAN`].
const STATIC_PAGES: usize = 256;
/// Exclusive upper bound on static t-variable ids (2^20).
pub const STATIC_SPAN: u64 = (STATIC_PAGES * PAGE_SIZE) as u64;

/// Pages per level-1 directory of the dynamic range (2^9 pages = 2^21
/// ids per L1), and L1 directories in the spine (2^9), for a total
/// dynamic capacity of 2^30 ids per table instance.
const L1_BITS: usize = 9;
const L1_PAGES: usize = 1 << L1_BITS;
const L1_MASK: usize = L1_PAGES - 1;
const DYN_L1S: usize = 1 << L1_BITS;
const DYN_CAPACITY: u64 = (DYN_L1S * L1_PAGES * PAGE_SIZE) as u64;

/// A reference into guard-protected state (a [`VarTable`] value, or
/// anything else retired through `defer_destroy`) held past the call that
/// loaded it: what a transaction's read-set, write-set or undo log keeps
/// per entry.
pub struct Pinned<V>(NonNull<V>);

impl<V> Clone for Pinned<V> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<V> Copy for Pinned<V> {}

// SAFETY: a `&V` with its lifetime erased, so sending one is sound for
// `V: Sync`. (Needed for pooled buffers of them, which change threads
// only once emptied, and for transactions an executor moves.)
unsafe impl<V: Sync> Send for Pinned<V> {}

impl<V> Pinned<V> {
    /// Erases the lifetime of `v`.
    ///
    /// # Safety
    /// `v` must have been loaded under a [`Guard`] from a structure that
    /// retires through `defer_destroy` into that guard's domain, and the
    /// result (and every copy) must be dereferenced only while that guard
    /// is held: a transaction loads it under the guard it owns from
    /// `begin`, alone dereferences it, and does so for the last time
    /// before it releases the guard.
    pub unsafe fn new(v: &V) -> Self {
        Pinned(NonNull::from(v))
    }
}

impl<V> std::ops::Deref for Pinned<V> {
    type Target = V;

    fn deref(&self) -> &V {
        // SAFETY: `new`'s contract — the guard under which the pointee was
        // loaded is still held, and retirement is `defer_destroy`, which
        // frees nothing a guard that predates it can reach.
        unsafe { self.0.as_ref() }
    }
}

/// One page of guard-protected slots. A slot owns its `V` (one `Box`);
/// null = never inserted, or tombstoned by `remove`.
struct Page<V> {
    slots: Box<[Atomic<V>]>,
}

impl<V> Page<V> {
    fn new() -> Self {
        Page {
            slots: (0..PAGE_SIZE).map(|_| Atomic::null()).collect(),
        }
    }
}

impl<V> Drop for Page<V> {
    fn drop(&mut self) {
        for slot in self.slots.iter_mut() {
            // SAFETY: a slot owns what it holds (`Owned::new` in
            // insert/alloc), and lookups borrow the table, so none is left.
            drop(unsafe { slot.take() });
        }
    }
}

/// Level-1 directory of the dynamic range: 2^9 lazily installed pages.
struct L1<V> {
    pages: Box<[AtomicPtr<Page<V>>]>,
}

impl<V> L1<V> {
    fn new() -> Self {
        L1 {
            pages: (0..L1_PAGES).map(|_| AtomicPtr::default()).collect(),
        }
    }
}

/// Installs-or-reuses the pointee of an append-only directory cell.
/// Returns `None` when absent and `create` is false.
fn dir_entry<T>(cell: &AtomicPtr<T>, create: bool, make: impl FnOnce() -> T) -> Option<&T> {
    // ord: Acquire pairs with the Release half of the installing CAS below,
    // so a non-null pointer implies the pointee's construction is visible.
    let mut p = cell.load(Ordering::Acquire);
    if p.is_null() {
        if !create {
            return None;
        }
        let fresh = Box::into_raw(Box::new(make()));
        // ord: AcqRel — Release publishes the freshly built directory entry
        // to the Acquire load above; Acquire (success and failure) pairs
        // with a racing installer's Release so `winner` is safe to deref.
        match cell.compare_exchange(
            std::ptr::null_mut(),
            fresh,
            Ordering::AcqRel,
            Ordering::Acquire, // ord: failure pairs with the winner's Release
        ) {
            Ok(_) => p = fresh,
            Err(winner) => {
                // SAFETY: `fresh` never escaped; reclaim it and defer to
                // the concurrently installed entry.
                drop(unsafe { Box::from_raw(fresh) });
                p = winner;
            }
        }
    }
    // SAFETY: directory entries are append-only and live as long as the
    // table (freed only in `Drop`, which has exclusive access).
    Some(unsafe { &*p })
}

/// The lock-free paged-slab map from [`TVarId`] to shared per-variable
/// state, plus the dynamic-id allocator (see module docs).
pub struct VarTable<V> {
    /// Flat page directory of the static id range `[0, STATIC_SPAN)`.
    static_pages: Box<[AtomicPtr<Page<V>>]>,
    /// Two-level page directory of the dynamic id range.
    dynamic_l1s: Box<[AtomicPtr<L1<V>>]>,
    /// The allocation counters, written by every alloc and free, on a
    /// line of their own: the directories and `domain` beside them are
    /// loaded by every lookup. Boxed, so the table (embedded in every
    /// table-backed engine) is not over-aligned.
    counts: Box<Line<Counts>>,
    /// The domain evicted state is retired into — so the one a lookup's
    /// guard must be registered with.
    domain: Arc<GraceTracker>,
}

/// [`VarTable`]'s allocation counters.
#[derive(Default)]
struct Counts {
    /// The next dynamic id to hand out.
    next_dynamic: AtomicU64,
    /// Slots currently full (exact: maintained by the swaps that fill and
    /// clear slots).
    live: AtomicU64,
    /// Slots tombstoned so far.
    freed: AtomicU64,
}

// SAFETY: the auto-impls would be unconditional (`AtomicPtr<T>` is
// `Send + Sync` for *any* `T`), which must not stand: lookups hand `&V`
// to arbitrary threads (`V: Sync`), and whichever thread evicts or
// collects drops the `V` another one inserted (`V: Send`).
unsafe impl<V: Send + Sync> Send for VarTable<V> {}
unsafe impl<V: Send + Sync> Sync for VarTable<V> {}

impl<V: Send> Default for VarTable<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: Send> VarTable<V> {
    /// A table in a reclamation domain of its own.
    pub fn new() -> Self {
        Self::in_domain(Arc::default())
    }

    /// A table that retires into `domain`, shared with whatever else its
    /// transactions read under the same guard.
    pub fn in_domain(domain: Arc<GraceTracker>) -> Self {
        VarTable {
            static_pages: (0..STATIC_PAGES).map(|_| AtomicPtr::default()).collect(),
            dynamic_l1s: (0..DYN_L1S).map(|_| AtomicPtr::default()).collect(),
            counts: Box::new(Line(Counts {
                next_dynamic: AtomicU64::new(DYNAMIC_TVAR_BASE),
                ..Counts::default()
            })),
            domain,
        }
    }

    /// The table's reclamation domain: where its transactions register,
    /// and what a bag of theirs hands itself to when it goes.
    pub fn domain(&self) -> &Arc<GraceTracker> {
        &self.domain
    }

    /// Resolves `x` to its slot. With `create`, missing pages (and L1
    /// directories) are installed on the way; without it, a missing page
    /// resolves to `None` (the id was certainly never inserted). Ids
    /// outside both ranges panic when `create` is set and miss otherwise.
    fn slot(&self, x: TVarId, create: bool) -> Option<&Atomic<V>> {
        let (dir, idx) = if x.0 < DYNAMIC_TVAR_BASE {
            if x.0 >= STATIC_SPAN {
                assert!(
                    !create,
                    "static t-variable id {x} exceeds the table's static span ({STATIC_SPAN})"
                );
                return None;
            }
            let idx = x.0 as usize;
            (&self.static_pages[idx >> PAGE_BITS], idx)
        } else {
            let d = x.0 - DYNAMIC_TVAR_BASE;
            if d >= DYN_CAPACITY {
                assert!(
                    !create,
                    "dynamic t-variable id {x} exceeds the table's capacity"
                );
                return None;
            }
            let d = d as usize;
            let l1 = dir_entry(
                &self.dynamic_l1s[d >> (PAGE_BITS + L1_BITS)],
                create,
                L1::new,
            )?;
            (&l1.pages[(d >> PAGE_BITS) & L1_MASK], d)
        };
        let page = dir_entry(dir, create, Page::new)?;
        Some(&page.slots[idx & PAGE_MASK])
    }

    /// Swaps `v` into `slot`; `true` if the slot was empty. A replaced
    /// value (re-registration) goes to the shared bins. Like every
    /// mutation of the table it registers nowhere: it dereferences nothing
    /// it unlinks.
    fn swap_in(&self, slot: &Atomic<V>, v: V) -> bool {
        // ord: AcqRel — Release publishes `v`'s construction to
        // `get_ref_in`'s Acquire load; Acquire pairs with the previous
        // occupant's publishing swap before we retire it.
        let old = slot.swap(Some(Owned::new(v)), Ordering::AcqRel);
        if old.is_null() {
            return true;
        }
        // SAFETY: `old` was unlinked by the swap; whoever loaded it did so
        // under a guard of `domain` (`get_ref_in` checks).
        unsafe { self.domain.defer_destroy(old) };
        false
    }

    /// Fills `slot` with `v`, adjusting the live count; `true` if the
    /// slot was empty.
    fn fill(&self, slot: &Atomic<V>, v: V) -> bool {
        let fresh = self.swap_in(slot, v);
        if fresh {
            // ord: Relaxed counter — read only by the `len` diagnostic.
            self.counts.live.fetch_add(1, Ordering::Relaxed);
        }
        fresh
    }

    /// Inserts (or replaces) the state for `x`; `true` if `x` had none —
    /// a replacement is not an allocation.
    pub fn insert(&self, x: TVarId, v: V) -> bool {
        let slot = self.slot(x, true).expect("slot created");
        self.fill(slot, v)
    }

    /// Inserts the state for `x` only if the slot is empty (atomic
    /// keep-first registration); `true` if `v` was installed. Racing
    /// registrations of the same id agree on the winner — no
    /// check-then-act window.
    pub fn insert_if_absent(&self, x: TVarId, v: V) -> bool {
        let slot = self.slot(x, true).expect("slot created");
        // ord: AcqRel — Release publishes the new state to readers'
        // Acquire loads; Acquire on both outcomes pairs with the
        // incumbent's publishing store.
        match slot.compare_exchange(
            Shared::null(),
            Owned::new(v),
            Ordering::AcqRel,
            Ordering::Acquire, // ord: failure pairs with the incumbent's Release
        ) {
            Ok(_) => {
                // ord: Relaxed counter — read only by the `len` diagnostic.
                self.counts.live.fetch_add(1, Ordering::Relaxed);
                true
            }
            Err(_rejected) => false, // the incumbent wins; `v` is dropped
        }
    }

    /// Looks up the state for `x` under a caller-held guard of the table's
    /// domain — the only lookup there is, and the hot path of every
    /// transactional read. **Wait-free**: two (static ids) or three
    /// (dynamic ids) `Acquire` loads. Backends hold one guard for a whole
    /// transaction and thread it through here. The reference is valid for
    /// the guard's lifetime: eviction retires the slot's `V` via
    /// `defer_destroy`, which cannot run before the guard is released.
    ///
    /// # Panics
    /// If `guard` is registered with another domain: it would protect
    /// nothing here.
    pub fn get_ref_in<'g>(&'g self, x: TVarId, guard: &'g Guard<'_>) -> Option<&'g V> {
        assert!(self.domain.owns(guard), "guard of another domain");
        let slot = self.slot(x, false)?;
        // ord: Acquire pairs with the Release swap/CAS that installed the
        // slot's value, making the pointee's construction visible.
        let sh = slot.load(Ordering::Acquire, guard);
        if sh.is_null() {
            None
        } else {
            // SAFETY: loaded under a guard of `domain`, into which `remove`
            // retires slot contents, so the pointee outlives the guard.
            Some(unsafe { sh.deref() })
        }
    }

    /// Looks up `x` by reference under a caller-held guard, panicking with
    /// the uniform diagnostic if absent.
    pub fn get_ref_or_panic_in<'g>(&'g self, x: TVarId, guard: &'g Guard<'_>) -> &'g V {
        self.get_ref_in(x, guard)
            .unwrap_or_else(|| panic!("t-variable {x} not registered"))
    }

    /// A copy of the state for `x`, taken under a guard of its own
    /// (external callers: oracles, registration-time checks).
    pub fn get(&self, x: TVarId) -> Option<V>
    where
        V: Clone,
    {
        self.get_ref_in(x, &self.domain.begin()).cloned()
    }

    /// Allocates `initials.len()` fresh t-variables with **contiguous**
    /// ids, creating each one's state with `make`, and returns the first
    /// id. Safe to call concurrently and from inside running transactions:
    /// the id range is claimed with one `fetch_add`, and each slot store
    /// is independently visible — no lock is ever taken. The live count
    /// moves once for the block.
    pub fn alloc_block(
        &self,
        initials: &[Value],
        mut make: impl FnMut(TVarId, Value) -> V,
    ) -> TVarId {
        assert!(!initials.is_empty(), "alloc_block of zero t-variables");
        // ord: Relaxed — the fetch_add's atomicity alone guarantees
        // disjoint id blocks; slot contents are published by `fill`'s
        // Release swap, not by this counter.
        let base = self
            .counts
            .next_dynamic
            .fetch_add(initials.len() as u64, Ordering::Relaxed);
        let mut filled = 0;
        for (k, &init) in initials.iter().enumerate() {
            let id = TVarId(base + k as u64);
            let slot = self.slot(id, true).expect("slot created");
            // Fresh ids are never concurrently targeted, but `swap_in`
            // keeps the accounting uniform.
            filled += u64::from(self.swap_in(slot, make(id, init)));
        }
        // ord: Relaxed counter — read only by the `len` diagnostic.
        self.counts.live.fetch_add(filled, Ordering::Relaxed);
        TVarId(base)
    }

    /// Tombstones `x`'s slot and hands back the state it held, unlinked:
    /// the caller retires it into `domain`.
    fn unlink(&self, x: TVarId) -> Option<Deferred> {
        let slot = self.slot(x, false)?;
        // ord: AcqRel — Acquire pairs with the publishing swap so the
        // retired value is fully visible before it is dropped; Release
        // orders the tombstone for subsequent Acquire readers.
        let old = slot.swap(None, Ordering::AcqRel);
        // SAFETY: unlinked by the swap; racing readers that loaded it
        // earlier hold a guard of `domain` (`get_ref_in` checks), which
        // the caller's retirement into `domain` waits out.
        (!old.is_null()).then(|| unsafe { Deferred::unlinked(old) })
    }

    /// Counts `n` slots tombstoned.
    fn count_freed(&self, n: u64) {
        if n != 0 {
            // ord: Relaxed counters — read only by the len/freed diagnostics.
            self.counts.freed.fetch_add(n, Ordering::Relaxed);
            self.counts.live.fetch_sub(n, Ordering::Relaxed);
        }
    }

    /// Removes the state for `x`; `true` if it was present. The state is
    /// freed once every guard that could have loaded it (e.g. a zombie
    /// transaction's) is released. The slot becomes a permanent tombstone
    /// — dynamic ids are never reused, so a freed id can only ever miss.
    pub fn remove(&self, x: TVarId) -> bool {
        let Some(state) = self.unlink(x) else {
            return false;
        };
        self.domain.defer(state);
        self.count_freed(1);
        true
    }

    /// Tombstones the `len` slots from `base`, pushing the states they held
    /// onto `states`; absent ids are skipped. One count update for the
    /// block. Returns how many slots it tombstoned.
    fn tombstone(&self, base: TVarId, len: usize, states: &mut Vec<Deferred>) -> u64 {
        let before = states.len();
        states.extend((0..len).filter_map(|k| self.unlink(TVarId(base.0 + k as u64))));
        let n = (states.len() - before) as u64;
        self.count_freed(n);
        n
    }

    /// Removes `len` contiguous t-variables starting at `base`, their
    /// states deferred into the shared bins under one tag. Absent ids are
    /// skipped — removal is idempotent. Returns how many t-variables it
    /// removed: what a t-variable count may count as freed.
    pub fn remove_block(&self, base: TVarId, len: usize) -> u64 {
        let mut states = Vec::new();
        let n = self.tombstone(base, len, &mut states);
        self.domain.defer_all(states);
        n
    }

    /// Commit hook of a table-backed engine: releases the transaction's
    /// `guard`, tags what it `retired` (id blocks; from DSTM, with its
    /// unlinked locators) into its process's private `bag` with one epoch
    /// bump, evicts what has ripened there (one slot scan, no lock) and
    /// whatever ripe block waits in the shared bins (one load when nothing
    /// does). Returns how many t-variables that evicted. The bag's owner
    /// bounds its pile ([`crate::reclaim::BAG_BOUND`]); the hook spills
    /// nothing. A commit that retired nothing into an empty bag writes
    /// nothing here but its slot release.
    pub fn retire_and_evict(
        &self,
        guard: Guard<'_>,
        bag: &mut Bag,
        retired: impl IntoIterator<Item = Retired<Deferred>, IntoIter: ExactSizeIterator>,
    ) -> u64 {
        debug_assert!(self.domain.owns(&guard), "guard of another domain");
        guard.release();
        let retired = retired.into_iter();
        if retired.len() == 0 && bag.is_empty() {
            return self.evict_ripe();
        }
        self.domain.retire(bag, retired);
        self.settle(bag).unwrap_or(0) + self.evict_ripe()
    }

    /// Takes the ripe front of `bag`: drops its memory, tombstones the
    /// slots of its blocks and retires the states that unlinked into the
    /// same bag under the next tag — their second grace period (module
    /// docs). Returns how many t-variables it tombstoned — a slot freed
    /// already is skipped — or `None` when no block was ripe.
    fn settle(&self, bag: &mut Bag) -> Option<u64> {
        let ripe = self.domain.reclaim(bag);
        if ripe.is_empty() {
            return None;
        }
        let mut states = Vec::new();
        let evicted = ripe
            .iter()
            .map(|blk| self.tombstone(blk.base, blk.len, &mut states))
            .sum();
        self.domain
            .retire(bag, states.into_iter().map(Retired::Memory));
        Some(evicted)
    }

    /// Settles a parked `bag` with no commit to hang it on, until a pass
    /// finds no block ripe (the pass after an eviction judges the states
    /// it retired); returns how many t-variables that evicted.
    pub fn settle_parked(&self, bag: &mut Bag) -> u64 {
        std::iter::from_fn(|| self.settle(bag)).sum()
    }

    /// [`VarTable::settle_parked`] on every bag `pool` parks (`bag_of`
    /// finds it in what is pooled), then [`VarTable::evict_ripe`].
    pub fn evict_ripe_parked<S>(
        &self,
        pool: &SlotPool<S>,
        bag_of: impl Fn(&mut S) -> &mut Bag,
    ) -> u64 {
        let mut evicted = 0;
        for key in 0..crate::pool::SLOTS {
            if let Some(mut pooled) = pool.take(key) {
                evicted += self.settle_parked(bag_of(&mut pooled));
                pool.put(key, pooled);
            }
        }
        evicted + self.evict_ripe()
    }

    /// Evicts every block in the shared bins whose grace period has
    /// elapsed and drops what memory has ripened with it; returns how many
    /// t-variables that evicted. Once quiescent, with every parked bag
    /// settled, what [`VarTable::len`] counts is live.
    pub fn evict_ripe(&self) -> u64 {
        let ripe = self.domain.flush();
        ripe.iter()
            .map(|blk| self.remove_block(blk.base, blk.len))
            .sum()
    }

    /// Number of live t-variables (exact; the leak-regression metric).
    pub fn len(&self) -> usize {
        // ord: Relaxed — monotonic diagnostic counter, no payload to order.
        self.counts.live.load(Ordering::Relaxed) as usize
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of dynamic ids handed out so far (diagnostics).
    pub fn dynamic_allocated(&self) -> u64 {
        // ord: Relaxed — monotonic diagnostic counter, no payload to order.
        self.counts.next_dynamic.load(Ordering::Relaxed) - DYNAMIC_TVAR_BASE
    }

    /// Number of t-variables removed so far (diagnostics; counts every
    /// slot actually tombstoned by [`VarTable::remove`]/
    /// [`VarTable::remove_block`]).
    pub fn freed(&self) -> u64 {
        // ord: Relaxed — monotonic diagnostic counter, no payload to order.
        self.counts.freed.load(Ordering::Relaxed)
    }

    /// Visits every live t-variable (materialized pages only, non-null
    /// slots only) under one guard of its own, which the visitor is handed
    /// for whatever else it reads in the domain. The walk is a racy snapshot:
    /// concurrent inserts/removals may or may not be observed — callers
    /// needing an exact live set must quiesce writers first (the hybrid
    /// backend's migration barrier does exactly that). Cost is
    /// O(materialized pages × PAGE_SIZE), not O(ids ever allocated):
    /// never-touched pages are skipped at the directory level.
    pub fn for_each_live(&self, mut f: impl FnMut(TVarId, &V, &Guard<'_>)) {
        let guard = self.domain.begin();
        let mut visit_page = |page: &Page<V>, first_id: u64| {
            for (k, slot) in page.slots.iter().enumerate() {
                // ord: Acquire pairs with the Release swap/CAS that
                // installed the slot's value (same pairing as `get_ref_in`).
                let sh = slot.load(Ordering::Acquire, &guard);
                if !sh.is_null() {
                    // SAFETY: loaded under a guard of `domain`, into which
                    // eviction retires slot contents, so the pointee
                    // outlives the guard.
                    f(TVarId(first_id + k as u64), unsafe { sh.deref() }, &guard);
                }
            }
        };
        for (i, cell) in self.static_pages.iter().enumerate() {
            if let Some(page) = dir_entry(cell, false, Page::new) {
                visit_page(page, (i * PAGE_SIZE) as u64);
            }
        }
        for (a, l1cell) in self.dynamic_l1s.iter().enumerate() {
            let Some(l1) = dir_entry(l1cell, false, L1::new) else {
                continue;
            };
            for (b, cell) in l1.pages.iter().enumerate() {
                if let Some(page) = dir_entry(cell, false, Page::new) {
                    let d = ((a << (PAGE_BITS + L1_BITS)) + (b << PAGE_BITS)) as u64;
                    visit_page(page, DYNAMIC_TVAR_BASE + d);
                }
            }
        }
    }
}

impl<V> Drop for VarTable<V> {
    fn drop(&mut self) {
        for cell in self
            .static_pages
            .iter()
            .chain(self.dynamic_l1s.iter().flat_map(|l1| {
                // ord: Relaxed — exclusive access in Drop (&mut self).
                let p = l1.load(Ordering::Relaxed);
                // SAFETY: exclusive access in Drop; entries are boxed.
                if p.is_null() {
                    [].iter()
                } else {
                    unsafe { (*p).pages.iter() }
                }
            }))
        {
            // ord: Relaxed — exclusive access in Drop (&mut self).
            let p = cell.load(Ordering::Relaxed);
            if !p.is_null() {
                // SAFETY: installed via Box::into_raw; Page::drop frees
                // the slots' contents.
                drop(unsafe { Box::from_raw(p) });
            }
        }
        for l1 in self.dynamic_l1s.iter() {
            // ord: Relaxed — exclusive access in Drop (&mut self).
            let p = l1.load(Ordering::Relaxed);
            if !p.is_null() {
                // SAFETY: installed via Box::into_raw; pages already freed.
                drop(unsafe { Box::from_raw(p) });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reclaim::RetiredBlock;
    use crate::tests::Counted;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn insert_then_get() {
        let t: VarTable<u64> = VarTable::new();
        t.insert(TVarId(3), 30);
        assert_eq!(t.get(TVarId(3)), Some(30));
        assert!(t.get(TVarId(4)).is_none());
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn the_counters_have_a_line_pair_of_their_own() {
        let t: VarTable<u64> = VarTable::new();
        assert!(crate::line::isolated_from(&**t.counts, &t));
    }

    #[test]
    fn table_is_send_sync_for_shareable_state() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<VarTable<u64>>();
        // (A `VarTable<Rc<_>>` must NOT compile as Send/Sync — enforced by
        // the bounded unsafe impls; not expressible as a runtime test.)
    }

    #[test]
    fn insert_if_absent_keeps_first() {
        let t: VarTable<u64> = VarTable::new();
        assert!(t.insert_if_absent(TVarId(3), 30));
        assert!(!t.insert_if_absent(TVarId(3), 99));
        assert_eq!(t.get(TVarId(3)), Some(30));
        assert_eq!(t.len(), 1);
        // Racing registrations agree on one winner and one live entry.
        let t: VarTable<u64> = VarTable::new();
        let t = &t;
        let wins: usize = std::thread::scope(|s| {
            (0..4)
                .map(|k| s.spawn(move || usize::from(t.insert_if_absent(TVarId(7), k))))
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .sum()
        });
        assert_eq!(wins, 1);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn reinsert_replaces_without_inflating_live() {
        let t: VarTable<u64> = VarTable::new();
        t.insert(TVarId(3), 30);
        t.insert(TVarId(3), 31);
        assert_eq!(t.get(TVarId(3)), Some(31));
        assert_eq!(t.len(), 1);
        assert_eq!(t.freed(), 0, "replacement is not a free");
    }

    #[test]
    fn blocks_are_contiguous_and_disjoint() {
        let t: VarTable<u64> = VarTable::new();
        let a = t.alloc_block(&[1, 2], |_, v| v);
        let b = t.alloc_block(&[3, 4, 5], |_, v| v);
        assert_eq!(a.0 + 2, b.0, "blocks must be back-to-back");
        assert!(a.0 >= DYNAMIC_TVAR_BASE);
        for (i, want) in [(a.0, 1), (a.0 + 1, 2), (b.0, 3), (b.0 + 1, 4), (b.0 + 2, 5)] {
            assert_eq!(t.get(TVarId(i)), Some(want));
        }
        assert_eq!(t.dynamic_allocated(), 5);
    }

    #[test]
    fn ids_between_the_ranges_simply_miss() {
        let t: VarTable<u64> = VarTable::new();
        assert!(t.get(TVarId(STATIC_SPAN)).is_none());
        assert!(t.get(TVarId(DYNAMIC_TVAR_BASE - 1)).is_none());
        assert!(!t.remove(TVarId(STATIC_SPAN + 7)));
    }

    #[test]
    #[should_panic(expected = "exceeds the table's static span")]
    fn oversized_static_id_rejected_on_insert() {
        let t: VarTable<u64> = VarTable::new();
        t.insert(TVarId(STATIC_SPAN), 1);
    }

    #[test]
    fn concurrent_allocation_never_overlaps() {
        let t: VarTable<u64> = VarTable::new();
        let ids: Vec<TVarId> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        (0..50)
                            .map(|_| t.alloc_block(&[0, 0], |_, v| v))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        let mut starts: Vec<u64> = ids.iter().map(|x| x.0).collect();
        starts.sort_unstable();
        starts.dedup();
        assert_eq!(starts.len(), 8 * 50, "duplicate block bases");
        for w in starts.windows(2) {
            assert!(w[1] - w[0] >= 2, "blocks overlap");
        }
    }

    #[test]
    #[should_panic(expected = "not registered")]
    fn get_or_panic_diagnostic() {
        let t: VarTable<u64> = VarTable::new();
        let _ = t.get_ref_or_panic_in(TVarId(77), &t.domain().begin());
    }

    #[test]
    #[should_panic(expected = "not registered")]
    fn get_or_panic_diagnostic_on_freed_dynamic_id() {
        let t: VarTable<u64> = VarTable::new();
        let a = t.alloc_block(&[9], |_, v| v);
        t.remove(a);
        let _ = t.get_ref_or_panic_in(a, &t.domain().begin());
    }

    #[test]
    fn remove_block_evicts_exactly_the_block() {
        let t: VarTable<u64> = VarTable::new();
        let a = t.alloc_block(&[1, 2, 3], |_, v| v);
        let b = t.alloc_block(&[4, 5], |_, v| v);
        t.remove_block(a, 3);
        for k in 0..3 {
            assert!(t.get(TVarId(a.0 + k)).is_none(), "freed id still resolves");
        }
        assert_eq!(t.get(b), Some(4));
        assert_eq!(t.get(TVarId(b.0 + 1)), Some(5));
        assert_eq!(t.len(), 2);
        assert_eq!(t.freed(), 3);
        // Idempotent: re-removal is a no-op and does not inflate the metric.
        t.remove_block(a, 3);
        assert_eq!(t.freed(), 3);
        assert!(t.remove(b));
        assert!(!t.remove(b));
        assert_eq!(t.freed(), 4);
    }

    #[test]
    fn for_each_live_visits_exactly_the_live_set() {
        let t: VarTable<u64> = VarTable::new();
        t.insert(TVarId(3), 30);
        t.insert(TVarId(7), 70);
        let a = t.alloc_block(&[1, 2], |_, v| v);
        let b = t.alloc_block(&[5], |_, v| v);
        t.remove(TVarId(7));
        t.remove_block(b, 1);
        let mut seen: Vec<(u64, u64)> = Vec::new();
        t.for_each_live(|id, v, _| seen.push((id.0, *v)));
        seen.sort_unstable();
        assert_eq!(
            seen,
            vec![(3, 30), (a.0, 1), (a.0 + 1, 2)],
            "walk must see live slots only"
        );
    }

    /// The liveness argument every borrowing backend rests on: a value
    /// evicted while a guard that loaded it is held is freed when that
    /// guard is released — not at the tombstone, not twice, not never.
    #[test]
    fn a_pin_keeps_an_evicted_value_allocated() {
        let drops = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let t: VarTable<Counted> = VarTable::new();
        let a = t.alloc_block(&[9], |_, _| Counted(std::sync::Arc::clone(&drops)));
        let pin = t.domain().begin();
        let held = t.get_ref_or_panic_in(a, &pin);
        assert!(t.remove(a));
        assert!(t.get_ref_in(a, &pin).is_none());
        // A collection run by somebody else must pass the value over too.
        std::thread::scope(|s| s.spawn(|| drop(t.domain().begin())).join().unwrap());
        assert_eq!(drops.load(Ordering::SeqCst), 0, "freed under the pin");
        assert_eq!(
            std::sync::Arc::strong_count(&held.0),
            2,
            "zombie-held state stays valid after eviction"
        );
        drop(pin);
        assert_eq!(drops.load(Ordering::SeqCst), 1, "not freed at the release");
        drop(t);
        assert_eq!(drops.load(Ordering::SeqCst), 1, "freed twice");
    }

    fn counted_block(t: &VarTable<Counted>, drops: &Arc<AtomicUsize>, len: usize) -> RetiredBlock {
        let base = t.alloc_block(&vec![0; len], |_, _| Counted(Arc::clone(drops)));
        RetiredBlock { base, len }
    }

    /// A retiring commit under a predating peer tags its blocks into its
    /// process's bag, and the states their eviction unlinks go there too:
    /// nothing a commit retires meets another process in the bins.
    #[test]
    fn table_retirements_leave_the_shared_bins_empty() {
        let drops = Arc::new(AtomicUsize::new(0));
        let t: VarTable<Counted> = VarTable::new();
        let mut bag = Bag::default();
        let commit = |bag: &mut Bag, retired: Vec<RetiredBlock>| {
            let retired = retired.into_iter().map(Retired::Block);
            t.retire_and_evict(t.domain().begin(), bag, retired)
        };
        let blk = counted_block(&t, &drops, 2);
        let peer = t.domain().begin();
        assert_eq!(commit(&mut bag, vec![blk]), 0);
        assert_eq!(t.domain().pending_blocks(), 0);
        assert_eq!(t.domain().pending_memory(), 0);
        assert_eq!((bag.len(), t.len()), (1, 2), "held for the peer");
        drop(peer);
        // The process's next commit, retiring nothing, evicts the block
        // and bags its states under a tag of their own; the one after
        // frees them.
        assert_eq!(commit(&mut bag, Vec::new()), 2);
        assert_eq!((bag.len(), t.len(), t.freed()), (2, 0, 2));
        assert_eq!(t.domain().pending_memory(), 0);
        assert_eq!(drops.load(Ordering::SeqCst), 0, "freed with the block");
        assert_eq!(commit(&mut bag, Vec::new()), 0);
        assert_eq!(drops.load(Ordering::SeqCst), 2);
        assert!(bag.is_empty());
    }

    #[test]
    #[should_panic(expected = "guard of another domain")]
    fn a_lookup_refuses_a_guard_that_protects_nothing_here() {
        let (t, other): (VarTable<u64>, VarTable<u64>) = (VarTable::new(), VarTable::new());
        t.insert(TVarId(0), 1);
        let _ = t.get_ref_in(TVarId(0), &other.domain().begin());
    }

    #[test]
    fn concurrent_alloc_and_remove_keep_count_exact() {
        let t: VarTable<u64> = VarTable::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..50 {
                        let b = t.alloc_block(&[0, 0, 0], |_, v| v);
                        t.remove_block(b, 3);
                    }
                });
            }
        });
        assert_eq!(t.len(), 0);
        assert_eq!(t.dynamic_allocated(), 4 * 50 * 3);
        assert_eq!(t.freed(), 4 * 50 * 3);
    }

    #[test]
    fn blocks_spanning_page_boundaries_stay_contiguous() {
        let t: VarTable<u64> = VarTable::new();
        // Burn almost a page of ids so the next block straddles two pages.
        let filler: Vec<Value> = vec![0; PAGE_SIZE - 2];
        let _ = t.alloc_block(&filler, |_, v| v);
        let b = t.alloc_block(&[10, 11, 12, 13], |_, v| v);
        for k in 0..4 {
            assert_eq!(t.get(TVarId(b.0 + k)), Some(10 + k));
        }
        t.remove_block(b, 4);
        for k in 0..4 {
            assert!(t.get(TVarId(b.0 + k)).is_none());
        }
        assert_eq!(t.len(), PAGE_SIZE - 2);
    }

    /// Readers racing eviction either get the value (kept allocated by
    /// their pin) or a clean miss — never a torn state. This is the
    /// concurrent alloc/get/remove stress the guard protection exists for.
    #[test]
    fn concurrent_get_races_remove_safely() {
        let t: std::sync::Arc<VarTable<u64>> = std::sync::Arc::new(VarTable::new());
        let stop = std::sync::atomic::AtomicBool::new(false);
        let published: std::sync::Mutex<Vec<TVarId>> = std::sync::Mutex::new(Vec::new());
        std::thread::scope(|s| {
            // Churner: allocate, publish, unpublish, remove.
            s.spawn(|| {
                for round in 0..300u64 {
                    let b = t.alloc_block(&[round, round + 1], |_, v| v);
                    published.lock().unwrap().push(b);
                    if round % 2 == 1 {
                        let victim = published.lock().unwrap().remove(0);
                        t.remove_block(victim, 2);
                    }
                }
                stop.store(true, std::sync::atomic::Ordering::Release);
            });
            // Readers: hammer ids that may be mid-eviction.
            for _ in 0..3 {
                s.spawn(|| {
                    while !stop.load(std::sync::atomic::Ordering::Acquire) {
                        let candidates: Vec<TVarId> =
                            published.lock().unwrap().iter().copied().collect();
                        let pin = t.domain().begin();
                        for b in candidates {
                            if let Some(v) = t.get_ref_in(b, &pin) {
                                // The paired word must agree if still live.
                                if let Some(w) = t.get_ref_in(TVarId(b.0 + 1), &pin) {
                                    assert_eq!(*w, *v + 1, "torn block observed");
                                }
                            }
                        }
                    }
                });
            }
        });
        // Exact accounting after the dust settles.
        assert_eq!(
            t.len() as u64 + t.freed(),
            t.dynamic_allocated(),
            "live + freed must equal allocated"
        );
    }
}
