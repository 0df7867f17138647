//! Crate-level tests of the two primitives that used to be vendored
//! look-alikes of external crates: the guard-protected pointers of
//! [`crate::reclaim`], each on a domain of the test's own (so drop counts
//! are exact), and the poison-recovering lock of [`crate::kernel::StdSync`].
//! [`Counted`] is also the payload of `table`'s and `dstm::tx`'s liveness
//! tests.

use crate::kernel::{MutexLike, StdSync, SyncFacade};
use crate::reclaim::{Atomic, GraceTracker, Owned, Shared};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A payload that counts its drops.
pub(crate) struct Counted(pub(crate) Arc<AtomicUsize>);

impl Drop for Counted {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

/// Retires a fresh drop-counting payload into `t`.
fn retire_counted(t: &GraceTracker, drops: &Arc<AtomicUsize>) {
    let s = Owned::new(Counted(Arc::clone(drops))).into_shared();
    // SAFETY: never linked anywhere — trivially unlinked.
    unsafe { t.defer_destroy(s) };
}

fn dropped(drops: &AtomicUsize) -> usize {
    drops.load(Ordering::SeqCst)
}

#[test]
fn load_and_deref() {
    let t = GraceTracker::new();
    let mut a = Atomic::new(5u64);
    let g = t.begin();
    let s = a.load(Ordering::Acquire, &g);
    // SAFETY: loaded under `g`, never retired.
    assert_eq!(unsafe { *s.deref() }, 5);
    drop(g);
    // SAFETY: sole owner, no guard left.
    assert_eq!(unsafe { a.take() }.as_deref(), Some(&5));
}

#[test]
fn cas_success_and_failure() {
    let t = GraceTracker::new();
    let mut a = Atomic::new(1u64);
    let g = t.begin();
    let (acq_rel, acq) = (Ordering::AcqRel, Ordering::Acquire);
    let cur = a.load(acq, &g);
    let installed = a
        .compare_exchange(cur, Owned::new(2), acq_rel, acq)
        .expect("uncontended CAS succeeds");
    // Stale expected pointer: must fail and hand the Owned back.
    let err = a
        .compare_exchange(cur, Owned::new(3), acq_rel, acq)
        .err()
        .expect("stale CAS fails");
    assert_eq!(*err, 3);
    assert_eq!(a.load(acq, &g).as_raw(), installed.as_raw());
    // SAFETY: `cur` was unlinked by the first CAS; at the end the cell is
    // the sole owner of what it holds.
    unsafe {
        t.defer_destroy(cur);
        assert_eq!(*installed.deref(), 2);
        drop(g);
        assert_eq!(a.take().as_deref(), Some(&2));
    }
}

#[test]
fn owned_roundtrip() {
    let mut a = Atomic::new(String::from("x"));
    let old: Shared<'_, String> = a.swap(Some(Owned::new(String::from("y"))), Ordering::AcqRel);
    // SAFETY: the cell owns "y"; "x" was unlinked by the swap and nobody
    // else ever loaded it.
    unsafe {
        assert_eq!(a.take().as_deref().map(String::as_str), Some("y"));
        assert!(a.take().is_none());
        GraceTracker::new().defer_destroy(old);
    }
}

#[test]
fn defer_destroy_actually_frees() {
    let t = GraceTracker::new();
    let drops = Arc::new(AtomicUsize::new(0));
    {
        let _g = t.begin();
        retire_counted(&t, &drops);
        assert_eq!(dropped(&drops), 0, "registered: must not free");
    }
    // The release collected: no guard can reach the pointee anymore.
    assert_eq!(dropped(&drops), 1, "released: must free");
}

#[test]
fn concurrent_pin_blocks_reclamation_until_released() {
    let t = GraceTracker::new();
    let drops = Arc::new(AtomicUsize::new(0));
    let step = std::sync::Barrier::new(2);
    std::thread::scope(|s| {
        s.spawn(|| {
            let g = t.begin(); // registered before the retirement below
            step.wait();
            step.wait();
            assert_eq!(dropped(&drops), 0, "freed under a guard that predates it");
            drop(g);
        });
        step.wait();
        retire_counted(&t, &drops);
        // A release of our own runs a collection; the holder's guard
        // predates the retirement, so the pointee must still be alive.
        drop(t.begin());
        step.wait();
    });
    // The holder's release collected on its way out.
    assert_eq!(dropped(&drops), 1);
}

#[test]
fn of_two_guards_of_one_thread_the_older_still_protects() {
    let t = GraceTracker::new();
    let drops = Arc::new(AtomicUsize::new(0));
    let outer = t.begin();
    let inner = t.begin();
    retire_counted(&t, &drops);
    drop(inner);
    // The inner guard is gone, but the outer one (published epoch ≤ tag)
    // still protects the pointee.
    assert_eq!(dropped(&drops), 0);
    drop(outer);
    assert_eq!(dropped(&drops), 1);
}

#[test]
fn churn_stays_bounded() {
    // The leak regression: every retirement is collected by the release
    // that follows it — the domain is the test's own, so exactly.
    let t = GraceTracker::new();
    let drops = Arc::new(AtomicUsize::new(0));
    for i in 0..1000 {
        retire_counted(&t, &drops);
        drop(t.begin());
        assert_eq!(dropped(&drops), i + 1);
    }
}

#[test]
fn dropping_a_domain_runs_every_pending_destructor_once() {
    let t = GraceTracker::new();
    let drops = Arc::new(AtomicUsize::new(0));
    // A leaked registration: nothing is ever ripe while the domain lives.
    std::mem::forget(t.begin());
    for _ in 0..10 {
        retire_counted(&t, &drops);
    }
    assert_eq!(t.flush(), Vec::new());
    assert_eq!(dropped(&drops), 0);
    drop(t);
    assert_eq!(dropped(&drops), 10);
}

type Lock<T> = <StdSync as SyncFacade>::Mutex<T>;

#[test]
fn lock_roundtrip() {
    let m = Lock::new(1);
    m.with(|v| *v += 1);
    assert_eq!(m.with(|v| *v), 2);
    assert_eq!(m.try_with(|v| *v), Some(2));
    assert_eq!(m.with(|_| m.try_with(|v| *v)), None, "taken: must back off");
}

#[test]
fn no_poison_after_panic() {
    let m = Arc::new(Lock::new(0));
    let m2 = Arc::clone(&m);
    let _ = std::thread::spawn(move || m2.with(|_| panic!("poison attempt"))).join();
    assert_eq!(m.with(|v| *v), 0);
    assert_eq!(m.try_with(|v| *v), Some(0));
}
