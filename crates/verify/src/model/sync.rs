//! **Instrumented synchronization facade** — implements
//! [`oftm_core::kernel::SyncFacade`] so the production protocol kernels
//! ([`oftm_core::kernel::NotifyProto`], [`oftm_core::kernel::GraceCore`],
//! [`oftm_core::kernel::ModeGate`], and
//! [`oftm_core::kernel::CommitGate`] over [`MAtomicU64`] directly)
//! run under the model scheduler. Every operation calls
//! `super::step`/`super::step_blocked` *before* executing, making it a
//! scheduling decision point; the operation itself then runs atomically
//! while the thread holds the token. All orderings collapse to `SeqCst`:
//! the model explores sequentially consistent interleavings only.
//!
//! Outside a model execution the `step` calls are no-ops, so these types
//! also behave as ordinary (slow) primitives in plain unit tests.

use oftm_core::kernel::{AtomicU64Like, MutexLike, SlotSet, SyncFacade, WakeRef, IDLE_SLOT};
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use super::{step, step_blocked};

/// Model atomic `u64`: each operation is a decision point. (The word
/// sits behind an `Arc` so that a blocked `wait_until` can hand the
/// scheduler a predicate over it.)
pub struct MAtomicU64 {
    v: Arc<AtomicU64>,
}

impl AtomicU64Like for MAtomicU64 {
    fn new(v: u64) -> Self {
        MAtomicU64 {
            v: Arc::new(AtomicU64::new(v)),
        }
    }

    fn load(&self, _ord: Ordering) -> u64 {
        step("atomic.load");
        self.v.load(Ordering::SeqCst)
    }

    fn store(&self, v: u64, _ord: Ordering) {
        step("atomic.store");
        self.v.store(v, Ordering::SeqCst)
    }

    fn fetch_add(&self, v: u64, _ord: Ordering) -> u64 {
        step("atomic.fetch_add");
        self.v.fetch_add(v, Ordering::SeqCst)
    }

    fn fetch_sub(&self, v: u64, _ord: Ordering) -> u64 {
        step("atomic.fetch_sub");
        self.v.fetch_sub(v, Ordering::SeqCst)
    }

    fn compare_exchange(
        &self,
        current: u64,
        new: u64,
        _success: Ordering,
        _failure: Ordering,
    ) -> Result<u64, u64> {
        step("atomic.compare_exchange");
        self.v
            .compare_exchange(current, new, Ordering::SeqCst, Ordering::SeqCst)
    }

    /// A *blocking* decision point: the thread is not runnable until
    /// `done` holds, so a wait nothing will ever end is a model deadlock.
    fn wait_until(&self, done: fn(u64) -> bool, _ord: Ordering) -> u64 {
        let v = Arc::clone(&self.v);
        step_blocked(
            "atomic.wait_until",
            Box::new(move || done(v.load(Ordering::SeqCst))),
        );
        // Granted with `done` true, and nobody runs before our next
        // decision point.
        self.v.load(Ordering::SeqCst)
    }
}

/// Model mutex: acquisition is a *blocking* decision point (the thread is
/// not runnable while another holds the lock), so lock-ordering deadlocks
/// surface as model deadlocks. The critical section itself runs without
/// further decision points of its own — but any instrumented atomic used
/// inside it still yields, which is exactly how the kernels interleave.
pub struct MMutex<T> {
    held: Arc<AtomicBool>,
    value: UnsafeCell<T>,
}

// SAFETY: `MMutex` hands out `&mut T` only inside `with`, which excludes
// other threads via the `held` flag under the model scheduler's
// one-thread-at-a-time token (acquisition only proceeds when `held` is
// false, and no other thread runs between the grant and the flag store).
unsafe impl<T: Send> Send for MMutex<T> {}
// SAFETY: as above — shared access never yields `&T` at all, only the
// exclusive, flag-guarded `&mut T` inside `with`.
unsafe impl<T: Send> Sync for MMutex<T> {}

/// Clears `held` even if the closure panics (a failed `assert!` inside a
/// lock scope must not deadlock the remaining model threads).
struct Unlock(Arc<AtomicBool>);

impl Drop for Unlock {
    fn drop(&mut self) {
        self.0.store(false, Ordering::SeqCst);
    }
}

impl<T: Send> MutexLike<T> for MMutex<T> {
    fn new(value: T) -> Self {
        MMutex {
            held: Arc::new(AtomicBool::new(false)),
            value: UnsafeCell::new(value),
        }
    }

    fn with<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        let held = Arc::clone(&self.held);
        step_blocked("mutex.lock", Box::new(move || !held.load(Ordering::SeqCst)));
        self.hold(f)
    }

    /// A plain decision point; gives up if the lock is taken when granted.
    fn try_with<R>(&self, f: impl FnOnce(&mut T) -> R) -> Option<R> {
        step("mutex.try_lock");
        (!self.held.load(Ordering::SeqCst)).then(|| self.hold(f))
    }
}

impl<T> MMutex<T> {
    /// Runs `f` holding the lock, which the caller found free while it
    /// held the scheduler's token.
    fn hold<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        // No other thread can run until our next decision point, so this
        // store cannot race another acquisition.
        self.held.store(true, Ordering::SeqCst);
        let _unlock = Unlock(Arc::clone(&self.held));
        // SAFETY: `held` was false and is now true; every other locker is
        // blocked in `step_blocked` (or backs out of `try_with`) until
        // `_unlock` drops, so this is the only live reference to the value.
        f(unsafe { &mut *self.value.get() })
    }
}

/// The model facade: plug into [`NotifyProto`]/[`GraceCore`] type
/// parameters in place of [`oftm_core::kernel::StdSync`].
///
/// [`NotifyProto`]: oftm_core::kernel::NotifyProto
/// [`GraceCore`]: oftm_core::kernel::GraceCore
pub struct ModelSync;

impl SyncFacade for ModelSync {
    type Au64 = MAtomicU64;
    type Mutex<T: Send> = MMutex<T>;

    fn fence(_ord: Ordering) {
        step("fence");
    }
}

/// Model waker: the kernel-facing half is [`WakeRef`] (what
/// `NotifyProto::publish` calls); the scenario-facing half is
/// [`MWaker::wait_woken`], which blocks the model thread until some other
/// thread has woken it — the analogue of the async runtime parking a task
/// until its waker fires. A lost wakeup therefore shows up as a model
/// deadlock: the waiter blocked in `wait_woken` forever.
#[derive(Clone)]
pub struct MWaker {
    woken: Arc<AtomicBool>,
}

impl Default for MWaker {
    fn default() -> Self {
        Self::new()
    }
}

impl MWaker {
    pub fn new() -> Self {
        MWaker {
            woken: Arc::new(AtomicBool::new(false)),
        }
    }

    /// True once `wake_ref` has fired since the last `reset`.
    pub fn woken(&self) -> bool {
        self.woken.load(Ordering::SeqCst)
    }

    /// Re-arms the waker for another park round.
    pub fn reset(&self) {
        step("waker.reset");
        self.woken.store(false, Ordering::SeqCst);
    }

    /// Blocks this model thread until the waker fires.
    pub fn wait_woken(&self) {
        let woken = Arc::clone(&self.woken);
        step_blocked(
            "waker.wait_woken",
            Box::new(move || woken.load(Ordering::SeqCst)),
        );
    }
}

impl WakeRef for MWaker {
    fn wake_ref(&self) {
        step("waker.wake");
        self.woken.store(true, Ordering::SeqCst);
    }

    fn will_wake(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.woken, &other.woken)
    }
}

/// Fixed-capacity slot store for [`oftm_core::kernel::GraceCore`]: the
/// model-checkable counterpart of `oftm-core`'s chunked `SlotArray`. Both
/// claim with the same CAS-from-idle protocol; this one never grows
/// (scenarios size it to their thread count), so the chunk-installation
/// argument the production array adds stays out of the model's scope.
pub struct FixedSlots {
    slots: Vec<MAtomicU64>,
}

impl FixedSlots {
    pub fn new(capacity: usize) -> Self {
        FixedSlots {
            slots: (0..capacity).map(|_| MAtomicU64::new(IDLE_SLOT)).collect(),
        }
    }
}

impl SlotSet<MAtomicU64> for FixedSlots {
    fn claim(&self, e: u64) -> &MAtomicU64 {
        for slot in &self.slots {
            if slot.load(Ordering::SeqCst) == IDLE_SLOT
                && slot
                    .compare_exchange(IDLE_SLOT, e, Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok()
            {
                return slot;
            }
        }
        panic!("FixedSlots exhausted: size the model slot store to the scenario's thread count");
    }

    fn min_active(&self) -> u64 {
        self.slots
            .iter()
            .map(|s| s.load(Ordering::SeqCst))
            .min()
            .unwrap_or(IDLE_SLOT)
    }
}
