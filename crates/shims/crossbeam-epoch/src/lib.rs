//! Offline shim for `crossbeam-epoch`.
//!
//! Provides the `Atomic` / `Owned` / `Shared` / `Guard` pointer API the
//! DSTM engine uses, backed by plain `AtomicPtr`, with **real epoch-based
//! reclamation**: `defer_destroy` queues the pointee in a global garbage
//! list tagged with the current epoch, and it is dropped once no pinned
//! thread can still reach it. (Earlier revisions of this shim leaked every
//! deferred pointer; long-running DSTM workloads — every write CAS retires
//! a locator — grew without bound.)
//!
//! ## Scheme
//!
//! A monotonic global epoch plus per-thread participants:
//!
//! * [`pin`] registers the calling thread (once) and, on the outermost of
//!   its nested pins, publishes the current global epoch in the thread's
//!   participant record with `SeqCst`;
//! * [`Guard::defer_destroy`] tags the garbage with the current epoch and
//!   then advances it, so every *later* pin publishes a strictly greater
//!   epoch;
//! * when the outermost guard drops, the thread tries to collect: garbage
//!   tagged `e` is dropped iff every currently pinned participant
//!   published an epoch `> e`.
//!
//! Safety argument: `defer_destroy` requires the pointer to be unlinked —
//! no load after the call returns it. A thread that could still hold the
//! pointer must therefore have pinned *before* the retirement, i.e. with
//! a published epoch ≤ the garbage tag; the collection rule waits for
//! every such pin to end. Threads that pin later observe an advanced
//! epoch and, by the unlink contract, can never load the pointer.
//!
//! The API stays call-for-call compatible with the subset of the real
//! crate used here; swapping the real crate in remains a no-source-change
//! operation.

use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Participant epoch value meaning "not currently pinned".
const NOT_PINNED: u64 = u64::MAX;

/// Per-thread registration in the global epoch protocol.
struct Participant {
    /// Published epoch while pinned; [`NOT_PINNED`] otherwise.
    epoch: AtomicU64,
    /// Pin nesting depth (mutated only by the owning thread).
    pins: AtomicUsize,
    /// Set when the owning thread exits; the record is pruned by the next
    /// collection.
    dead: AtomicBool,
}

/// A deferred destruction: a type-erased owned pointer plus its dropper.
struct Garbage {
    ptr: *mut (),
    drop_fn: unsafe fn(*mut ()),
    /// Epoch tag: droppable once every pinned participant is past it.
    epoch: u64,
}

// SAFETY: the pointee was handed over exclusively via `defer_destroy`
// (unlinked, no new loads can reach it); only the collector touches it.
unsafe impl Send for Garbage {}

struct Global {
    epoch: AtomicU64,
    participants: Mutex<Vec<Arc<Participant>>>,
    garbage: Mutex<Vec<Garbage>>,
    /// Items currently in `garbage` (kept in sync under its lock): lets
    /// unpins of garbage-free periods skip collection without locking.
    pending: AtomicUsize,
}

fn global() -> &'static Global {
    static GLOBAL: OnceLock<Global> = OnceLock::new();
    GLOBAL.get_or_init(|| Global {
        epoch: AtomicU64::new(1),
        participants: Mutex::new(Vec::new()),
        garbage: Mutex::new(Vec::new()),
        pending: AtomicUsize::new(0),
    })
}

/// Owning handle to this thread's participant; marks it dead on thread
/// exit so collections can prune it.
struct ParticipantHandle(Arc<Participant>);

impl Drop for ParticipantHandle {
    fn drop(&mut self) {
        // ord: SeqCst joins the protocol's single total order so a
        // collector's retain-scan sees dead+unpinned consistently.
        self.0.dead.store(true, Ordering::SeqCst);
    }
}

thread_local! {
    static PARTICIPANT: ParticipantHandle = {
        let p = Arc::new(Participant {
            epoch: AtomicU64::new(NOT_PINNED),
            pins: AtomicUsize::new(0),
            dead: AtomicBool::new(false),
        });
        global().participants.lock().unwrap().push(Arc::clone(&p));
        ParticipantHandle(p)
    };
}

/// Drops every garbage item no pinned participant can reach. Best-effort:
/// skips when there is nothing to do and backs off if another thread is
/// already collecting. (Still a process-global collector with one lock —
/// far simpler than the real crate's per-thread bags; swapping the real
/// crate in restores those. The fast path below keeps pin/unpin cheap for
/// workloads that never retire.)
fn try_collect() {
    let g = global();
    // ord: Acquire pairs with the enqueuer's Release `pending` bump so a
    // non-zero count implies the garbage push is visible under the lock.
    if g.pending.load(Ordering::Acquire) == 0 {
        return;
    }
    let Ok(mut garbage) = g.garbage.try_lock() else {
        return;
    };
    // `try_lock` here too: collection is best-effort, and a hard lock
    // turns a preempted lock holder into a convoy for every unpinning
    // thread on an oversubscribed machine.
    let Ok(mut participants) = g.participants.try_lock() else {
        return;
    };
    let min_pinned = {
        participants.retain(|p| {
            // ord: SeqCst — prune only records whose death and unpin are
            // both settled in the protocol's total order.
            !(p.dead.load(Ordering::SeqCst) && p.epoch.load(Ordering::SeqCst) == NOT_PINNED)
        });
        let min = participants
            .iter()
            // ord: SeqCst scan Dekker-pairs with `pin`'s SeqCst
            // publish-and-revalidate (see the note there).
            .map(|p| p.epoch.load(Ordering::SeqCst))
            .filter(|&e| e != NOT_PINNED)
            .min()
            .unwrap_or(u64::MAX);
        drop(participants);
        min
    };
    let mut dead = Vec::new();
    garbage.retain_mut(|item| {
        if item.epoch < min_pinned {
            dead.push((item.ptr, item.drop_fn));
            false
        } else {
            true
        }
    });
    // ord: Release keeps the count's decrement ordered after the retain
    // under the lock (pairs with the fast path's Acquire).
    g.pending.fetch_sub(dead.len(), Ordering::Release);
    // Run the (arbitrary) destructors outside the garbage lock.
    drop(garbage);
    for (ptr, drop_fn) in dead {
        // SAFETY: ownership was transferred in via `defer_destroy`; the
        // epoch rule guarantees no pinned thread can still reach `ptr`.
        unsafe { drop_fn(ptr) };
    }
}

/// A pin on the epoch: while any `Guard` of a thread is live, every
/// pointer the thread loaded from an `Atomic` stays valid.
pub struct Guard {
    /// Borrowed participant record; null for [`unprotected`]. A raw
    /// pointer, not an `Arc`: cloning/dropping an `Arc` is two atomic
    /// RMWs per pin, and pins sit on the table's per-read hot path. The
    /// registry's `Arc` keeps the record alive while any guard of the
    /// thread is live (a record is only pruned when dead *and* unpinned,
    /// and `epoch` stays published until the last guard drops).
    part: *const Participant,
    /// Debug-only: thread that created the pin. A `Guard` must be dropped
    /// on the thread that pinned — a cross-thread drop would decrement a
    /// foreign participant's pin count (see the `Send`/`Sync` note below).
    #[cfg(debug_assertions)]
    pinner: Option<std::thread::ThreadId>,
}

// SAFETY: shim simplification, matching the previous `Arc`-holding guard
// (which was auto-`Send`/`Sync`): all fields behind the pointer are
// atomics, and validity is maintained by the registry as described above.
// The real crate's `Guard` is `!Send`; every guard in this workspace is
// used by its owning thread only — enforced in debug builds by the
// cross-thread-drop assertion in `Drop`.
unsafe impl Send for Guard {}
unsafe impl Sync for Guard {}

/// Pins the current thread.
pub fn pin() -> Guard {
    let part = PARTICIPANT.with(|h| Arc::as_ptr(&h.0));
    // SAFETY: see `Guard::part` — the registry keeps the record alive.
    let p = unsafe { &*part };
    // ord: Relaxed — `pins` is mutated only by the owning thread; the
    // epoch publication below carries the cross-thread ordering.
    if p.pins.fetch_add(1, Ordering::Relaxed) == 0 {
        // Publish-and-revalidate, all `SeqCst`: store the observed epoch,
        // then re-read the global. If it did not move, our store is
        // SeqCst-ordered before any later retirement's epoch bump — the
        // collector's scan (after that bump) must see our slot. If it
        // moved, the re-read reads from the bump (a SeqCst RMW), which
        // happens-before-orders the retirer's unlink ahead of all our
        // loads — we cannot observe the retired pointer at all. Either
        // way the one-epoch reclamation rule is safe; a plain
        // load-then-store would leave a window where a concurrent
        // collector misses the slot while our Acquire pointer loads may
        // still return the unlinked value on weakly ordered hardware.
        // ord: SeqCst throughout — the publish-and-revalidate protocol
        // described above needs the store and both loads in the single
        // total order shared with `defer_destroy`'s epoch bump and the
        // collector's scan.
        loop {
            let e = global().epoch.load(Ordering::SeqCst);
            p.epoch.store(e, Ordering::SeqCst);
            // ord: SeqCst revalidation (see the protocol note above).
            if global().epoch.load(Ordering::SeqCst) == e {
                break;
            }
        }
    }
    Guard {
        part,
        #[cfg(debug_assertions)]
        pinner: Some(std::thread::current().id()),
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if self.part.is_null() {
            return;
        }
        // SAFETY: see `Guard::part`.
        let p = unsafe { &*self.part };
        #[cfg(debug_assertions)]
        let cross_thread = self
            .pinner
            .is_some_and(|id| id != std::thread::current().id());
        // ord: Relaxed — owner-thread-only counter, as in `pin`.
        if p.pins.fetch_sub(1, Ordering::Relaxed) == 1 {
            // ord: SeqCst unpin joins the protocol's total order so the
            // collector's scan and this release cannot reorder.
            p.epoch.store(NOT_PINNED, Ordering::SeqCst);
            try_collect();
        }
        // Checked after the release so even a violating (debug) drop
        // leaves the participant consistent for the rest of the process.
        #[cfg(debug_assertions)]
        assert!(
            !cross_thread,
            "epoch Guard dropped on a different thread than the one that pinned it"
        );
    }
}

/// Returns a dummy guard for contexts with no concurrent accessors. It
/// does not pin the epoch.
///
/// # Safety
/// Caller must guarantee no other thread can reach the pointers accessed
/// under this guard (e.g. inside `Drop` of the sole owner).
pub unsafe fn unprotected() -> &'static Guard {
    static GUARD: Guard = Guard {
        part: std::ptr::null(),
        #[cfg(debug_assertions)]
        pinner: None,
    };
    &GUARD
}

impl Guard {
    /// Schedules `ptr`'s pointee for destruction once no pin can reach it.
    ///
    /// # Safety
    /// `ptr` must be unlinked: no new loads may return it. The pointee
    /// must have been allocated as `Owned<T>`/`Atomic<T>` (a `Box<T>`).
    pub unsafe fn defer_destroy<T>(&self, ptr: Shared<'_, T>) {
        unsafe fn drop_boxed<T>(p: *mut ()) {
            drop(Box::from_raw(p as *mut T));
        }
        if ptr.is_null() {
            return;
        }
        let g = global();
        // ord: SeqCst bump — later pins' publish-and-revalidate must
        // observe it (or be observed by the collector); see `pin`.
        let tag = g.epoch.fetch_add(1, Ordering::SeqCst);
        let mut garbage = g.garbage.lock().unwrap();
        // ord: Release pairs with the fast path's Acquire in `try_collect`
        // (done under the garbage lock, before the push is visible).
        g.pending.fetch_add(1, Ordering::Release);
        garbage.push(Garbage {
            ptr: ptr.ptr as *mut (),
            drop_fn: drop_boxed::<T>,
            epoch: tag,
        });
    }
}

/// An owning pointer to heap-allocated `T` (like `Box`).
pub struct Owned<T> {
    ptr: *mut T,
}

// SAFETY: `Owned` is a unique owner (a `Box` by another name); sending
// it transfers the single handle, which is safe exactly when `T: Send`.
unsafe impl<T: Send> Send for Owned<T> {}
// SAFETY: `&Owned<T>` only hands out `&T` (`Deref`), so sharing it is
// sharing `&T` — safe exactly when `T: Sync` (as for `Box`, and as in the
// real crate).
unsafe impl<T: Sync> Sync for Owned<T> {}

impl<T> Owned<T> {
    pub fn new(value: T) -> Self {
        Owned {
            ptr: Box::into_raw(Box::new(value)),
        }
    }

    /// Converts into a `Shared` tied to `guard`, relinquishing ownership
    /// to the concurrent structure.
    pub fn into_shared<'g>(self, _guard: &'g Guard) -> Shared<'g, T> {
        let ptr = self.ptr;
        std::mem::forget(self);
        Shared {
            ptr,
            _marker: PhantomData,
        }
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
        // freed by `Drop` (or handed off whole by `into_shared`, which
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

/// A pointer loaned out under a `Guard`; `Copy`, valid for `'g`.
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
    pub fn null() -> Self {
        Shared {
            ptr: std::ptr::null_mut(),
            _marker: PhantomData,
        }
    }

    pub fn is_null(&self) -> bool {
        self.ptr.is_null()
    }

    pub fn as_raw(&self) -> *const T {
        self.ptr
    }

    /// # Safety
    /// The pointee must be valid for `'g` (loaded under the guard from a
    /// structure that only retires via `defer_destroy`) and non-null.
    pub unsafe fn deref(&self) -> &'g T {
        &*self.ptr
    }

    /// Reclaims ownership of the pointee.
    ///
    /// # Safety
    /// Caller must be the unique accessor (e.g. in `Drop`).
    pub unsafe fn into_owned(self) -> Owned<T> {
        Owned { ptr: self.ptr }
    }
}

/// A pointer that can be handed to [`Atomic::swap`] — either an owning
/// [`Owned`] or a (typically null) [`Shared`]. Mirrors the real crate's
/// `Pointer` trait for the subset used here.
pub trait Pointer<T> {
    /// Relinquishes the pointer value (forgetting any ownership — the
    /// atomic takes it over).
    fn into_raw(self) -> *mut T;
}

impl<T> Pointer<T> for Owned<T> {
    fn into_raw(self) -> *mut T {
        let ptr = self.ptr;
        std::mem::forget(self);
        ptr
    }
}

impl<T> Pointer<T> for Shared<'_, T> {
    fn into_raw(self) -> *mut T {
        self.ptr
    }
}

/// Error type of a failed [`Atomic::compare_exchange`].
pub struct CompareExchangeError<'g, T, P> {
    /// The value the atomic actually held.
    pub current: Shared<'g, T>,
    /// The proposed new pointer, handed back to the caller.
    pub new: P,
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
            ptr: AtomicPtr::new(Box::into_raw(Box::new(value))),
        }
    }

    pub fn null() -> Self {
        Atomic {
            ptr: AtomicPtr::new(std::ptr::null_mut()),
        }
    }

    pub fn load<'g>(&self, ord: Ordering, _guard: &'g Guard) -> Shared<'g, T> {
        Shared {
            ptr: self.ptr.load(ord),
            _marker: PhantomData,
        }
    }

    pub fn store(&self, new: Owned<T>, ord: Ordering) {
        let raw = new.ptr;
        std::mem::forget(new);
        self.ptr.store(raw, ord);
    }

    /// Atomically replaces the pointer, returning the previous one. The
    /// caller is responsible for the old pointee (typically
    /// [`Guard::defer_destroy`]).
    pub fn swap<'g, P: Pointer<T>>(
        &self,
        new: P,
        ord: Ordering,
        _guard: &'g Guard,
    ) -> Shared<'g, T> {
        Shared {
            ptr: self.ptr.swap(new.into_raw(), ord),
            _marker: PhantomData,
        }
    }

    pub fn compare_exchange<'g>(
        &self,
        current: Shared<'_, T>,
        new: Owned<T>,
        success: Ordering,
        failure: Ordering,
        _guard: &'g Guard,
    ) -> Result<Shared<'g, T>, CompareExchangeError<'g, T, Owned<T>>> {
        let new_raw = new.ptr;
        match self
            .ptr
            .compare_exchange(current.ptr, new_raw, success, failure)
        {
            Ok(_) => {
                std::mem::forget(new);
                Ok(Shared {
                    ptr: new_raw,
                    _marker: PhantomData,
                })
            }
            Err(actual) => Err(CompareExchangeError {
                current: Shared {
                    ptr: actual,
                    _marker: PhantomData,
                },
                new,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The epoch state is process-global, and several tests assert exact
    /// drop counts that a concurrently pinned sibling test would
    /// legitimately delay. Serialize every pinning test through this lock
    /// (ignoring poisoning: a failed test must not cascade).
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static SERIAL: Mutex<()> = Mutex::new(());
        SERIAL.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn load_and_deref() {
        let _serial = serial();
        let a = Atomic::new(5u64);
        let g = pin();
        let s = a.load(Ordering::Acquire, &g);
        assert_eq!(unsafe { *s.deref() }, 5);
    }

    #[test]
    fn cas_success_and_failure() {
        let _serial = serial();
        let a = Atomic::new(1u64);
        let g = pin();
        let cur = a.load(Ordering::Acquire, &g);
        let installed = a
            .compare_exchange(cur, Owned::new(2), Ordering::AcqRel, Ordering::Acquire, &g)
            .ok()
            .expect("uncontended CAS succeeds");
        assert_eq!(unsafe { *installed.deref() }, 2);
        // Stale expected pointer: must fail and hand the Owned back.
        let err = a
            .compare_exchange(cur, Owned::new(3), Ordering::AcqRel, Ordering::Acquire, &g)
            .err()
            .expect("stale CAS fails");
        assert_eq!(unsafe { *err.current.deref() }, 2);
        assert_eq!(*err.new, 3);
    }

    #[test]
    fn owned_roundtrip() {
        let _serial = serial();
        let o = Owned::new(String::from("x"));
        let g = pin();
        let s = o.into_shared(&g);
        let back = unsafe { s.into_owned() };
        assert_eq!(*back, "x");
    }

    /// A payload that counts its drops, for observing reclamation.
    struct Counted(Arc<AtomicUsize>);

    impl Drop for Counted {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn defer_destroy_actually_frees() {
        let _serial = serial();
        let drops = Arc::new(AtomicUsize::new(0));
        {
            let g = pin();
            let s = Owned::new(Counted(Arc::clone(&drops))).into_shared(&g);
            // SAFETY: never linked anywhere — trivially unlinked.
            unsafe { g.defer_destroy(s) };
            assert_eq!(drops.load(Ordering::SeqCst), 0, "pinned: must not free");
        }
        // The unpin collected: no pin can reach the pointee anymore.
        assert_eq!(drops.load(Ordering::SeqCst), 1, "unpinned: must free");
    }

    #[test]
    fn concurrent_pin_blocks_reclamation_until_released() {
        let _serial = serial();
        let drops = Arc::new(AtomicUsize::new(0));
        let (tx_retired, rx_retired) = std::sync::mpsc::channel::<()>();
        let (tx_checked, rx_checked) = std::sync::mpsc::channel::<()>();
        let drops2 = Arc::clone(&drops);
        let holder = std::thread::spawn(move || {
            let g = pin(); // pinned before the retirement below
            tx_retired.send(()).unwrap();
            rx_checked.recv().unwrap();
            assert_eq!(
                drops2.load(Ordering::SeqCst),
                0,
                "garbage freed under a pin that predates the retirement"
            );
            drop(g);
        });
        rx_retired.recv().unwrap();
        {
            let g = pin();
            let s = Owned::new(Counted(Arc::clone(&drops))).into_shared(&g);
            unsafe { g.defer_destroy(s) };
        }
        // Our own unpin ran a collection; the holder's pin predates the
        // retirement, so the pointee must still be alive.
        tx_checked.send(()).unwrap();
        holder.join().unwrap();
        // Holder unpinned (collecting on the way out): now reclaimable.
        let _ = pin();
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn nested_pins_keep_the_thread_pinned() {
        let _serial = serial();
        let drops = Arc::new(AtomicUsize::new(0));
        let outer = pin();
        {
            let inner = pin();
            let s = Owned::new(Counted(Arc::clone(&drops))).into_shared(&inner);
            unsafe { inner.defer_destroy(s) };
        }
        // Inner guard dropped, but the outer pin (published epoch ≤ tag)
        // still protects the pointee.
        assert_eq!(drops.load(Ordering::SeqCst), 0);
        drop(outer);
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }

    /// Satellite of the verification pass: a `Guard` migrated to and
    /// dropped on a foreign thread must trip the debug assertion — the
    /// drop would decrement that thread's view of a foreign participant.
    #[test]
    #[cfg(debug_assertions)]
    fn cross_thread_guard_drop_is_caught_in_debug() {
        let _serial = serial();
        let g = pin();
        let r = std::thread::spawn(move || drop(g)).join();
        assert!(r.is_err(), "cross-thread Guard drop must panic in debug");
    }

    #[test]
    fn churn_stays_bounded() {
        // The leak-regression for the shim itself: retire many pointees
        // with periodic quiescence; everything but a bounded tail frees.
        let _serial = serial();
        let drops = Arc::new(AtomicUsize::new(0));
        const N: usize = 1000;
        for _ in 0..N {
            let g = pin();
            let s = Owned::new(Counted(Arc::clone(&drops))).into_shared(&g);
            unsafe { g.defer_destroy(s) };
        }
        let _ = pin();
        // Other tests' threads may be pinned concurrently; tolerate a
        // small unreclaimed tail but require the bulk to be freed.
        assert!(
            drops.load(Ordering::SeqCst) >= N - 10,
            "shim leaked: only {} of {N} freed",
            drops.load(Ordering::SeqCst)
        );
    }
}
