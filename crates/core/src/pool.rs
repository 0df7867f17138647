//! A lock-free keyed object pool for per-transaction scratch buffers.
//!
//! Backends pop a scratch bundle at `begin` and push it back when the
//! transaction completes. A mutexed free-list works, but it puts a lock
//! acquisition on every transaction boundary *and* — worse, on an
//! oversubscribed machine — lets a preempted lock holder convoy every
//! other thread's begin. [`SlotPool`] is a fixed array of atomic slots
//! indexed by a caller key (the process id): `take` and `put` are single
//! `swap`s, so they never block, and keying by process means a thread
//! overwhelmingly reuses the buffers it just warmed — better locality
//! than any shared free-list.
//!
//! A `take` from an empty slot simply reports `None` (the caller
//! allocates fresh); a `put` into an occupied slot drops the incumbent.
//! Both are rare once the pool is warm: the steady state is one bundle
//! per active process ping-ponging through its own slot.

use std::sync::atomic::{AtomicPtr, Ordering};

/// Number of slots; a power of two so keying is a mask.
const SLOTS: usize = 16;

/// Lock-free keyed pool of boxed `T` (see module docs).
pub struct SlotPool<T> {
    slots: Box<[AtomicPtr<T>]>,
}

// SAFETY: the auto-impls would be unconditional (`AtomicPtr<T>` is
// `Send + Sync` for any `T`), but `put`/`take` move owned `T`s between
// whichever threads share the pool, so that is only sound for `T: Send`.
unsafe impl<T: Send> Send for SlotPool<T> {}
unsafe impl<T: Send> Sync for SlotPool<T> {}

impl<T> Default for SlotPool<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> SlotPool<T> {
    pub fn new() -> Self {
        SlotPool {
            slots: (0..SLOTS).map(|_| AtomicPtr::default()).collect(),
        }
    }

    /// Pops the bundle parked under `key`'s slot, if any.
    pub fn take(&self, key: usize) -> Option<Box<T>> {
        // ord: AcqRel — Acquire pairs with `put`'s Release so the parked
        // bundle's contents are visible to the new owner.
        let p = self.slots[key & (SLOTS - 1)].swap(std::ptr::null_mut(), Ordering::AcqRel);
        if p.is_null() {
            None
        } else {
            // SAFETY: every non-null slot value came from `Box::into_raw`
            // in `put`, and the swap took sole ownership.
            Some(unsafe { Box::from_raw(p) })
        }
    }

    /// Parks `t` under `key`'s slot, dropping any incumbent.
    pub fn put(&self, key: usize, t: Box<T>) {
        drop(self.replace(key, t));
    }

    /// Parks `t` under `key`'s slot and hands back the incumbent, if any.
    pub fn replace(&self, key: usize, t: Box<T>) -> Option<Box<T>> {
        // ord: AcqRel — Release publishes the bundle to `take`'s Acquire;
        // Acquire pairs with the incumbent's publishing swap before it is
        // handed back.
        let old = self.slots[key & (SLOTS - 1)].swap(Box::into_raw(t), Ordering::AcqRel);
        // SAFETY: as in `take`.
        (!old.is_null()).then(|| unsafe { Box::from_raw(old) })
    }

    /// Whether a bundle is parked under `key`'s slot right now: a hint
    /// that writes nothing, for a caller that must not `take` in vain.
    pub fn is_parked(&self, key: usize) -> bool {
        // ord: Relaxed — a hint only; the `take` that acts on it is the
        // AcqRel swap.
        !self.slots[key & (SLOTS - 1)]
            .load(Ordering::Relaxed)
            .is_null()
    }

    /// Takes every parked bundle out and hands it to `f` with its key,
    /// which owns it from there (and may park it again).
    pub(crate) fn for_each_parked(&self, mut f: impl FnMut(usize, Box<T>)) {
        for key in 0..SLOTS {
            if let Some(t) = self.take(key) {
                f(key, t);
            }
        }
    }
}

impl<T> Drop for SlotPool<T> {
    fn drop(&mut self) {
        for slot in self.slots.iter() {
            // ord: Relaxed — exclusive access in Drop (&mut self).
            let p = slot.load(Ordering::Relaxed);
            if !p.is_null() {
                // SAFETY: sole owner in Drop.
                drop(unsafe { Box::from_raw(p) });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_put_roundtrip() {
        let p: SlotPool<Vec<u64>> = SlotPool::new();
        assert!(p.take(3).is_none());
        p.put(3, Box::new(vec![1, 2]));
        assert_eq!(*p.take(3).unwrap(), vec![1, 2]);
        assert!(p.take(3).is_none());
    }

    #[test]
    fn keys_wrap_and_do_not_interfere_when_distinct() {
        let p: SlotPool<u64> = SlotPool::new();
        p.put(1, Box::new(10));
        p.put(2, Box::new(20));
        assert_eq!(*p.take(2).unwrap(), 20);
        assert_eq!(*p.take(1).unwrap(), 10);
        // Same slot after masking:
        p.put(0, Box::new(1));
        p.put(SLOTS, Box::new(2)); // displaces; incumbent dropped
        assert_eq!(*p.take(0).unwrap(), 2);
    }

    #[test]
    fn concurrent_take_put_never_duplicates() {
        let p: std::sync::Arc<SlotPool<u64>> = std::sync::Arc::new(SlotPool::new());
        std::thread::scope(|s| {
            for t in 0..4usize {
                let p = std::sync::Arc::clone(&p);
                s.spawn(move || {
                    for i in 0..1000u64 {
                        if let Some(b) = p.take(t) {
                            p.put(t, b);
                        } else {
                            p.put(t, Box::new(i));
                        }
                    }
                });
            }
        });
    }
}
