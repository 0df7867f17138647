//! A lock-free keyed object pool for per-transaction scratch buffers.
//!
//! Backends pop a scratch bundle at `begin` and push it back when the
//! transaction completes. A mutexed free-list works, but it puts a lock
//! acquisition on every transaction boundary *and* — worse, on an
//! oversubscribed machine — lets a preempted lock holder convoy every
//! other thread's begin. [`SlotPool`] is a fixed array of atomic slots
//! indexed by a caller key (the process id): `take` and `put` are single
//! `swap`s, so they never block, and keying by process means a thread
//! overwhelmingly reuses the buffers it just warmed. Each slot sits on a
//! [`Line`] of its own (2 KB per pool), so one process's swap never
//! pulls away the line another process's slot is on.
//!
//! A `take` from an empty slot simply reports `None` (the caller
//! allocates fresh); a `put` into an occupied slot drops the incumbent —
//! for an engine's scratch, one that may carry its process's grace bag,
//! whose `Drop` hands what the bag holds to the domain's shared bins.
//! Both are rare once the pool is warm: the steady state is one bundle
//! per active process ping-ponging through its own slot.

use crate::line::Line;
use std::sync::atomic::{AtomicPtr, Ordering};

/// Number of slots; a power of two so keying is a mask.
pub(crate) const SLOTS: usize = 16;

/// Lock-free keyed pool of boxed `T` (see module docs).
pub struct SlotPool<T> {
    slots: Box<[Line<AtomicPtr<T>>]>,
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
            slots: (0..SLOTS).map(|_| Line::default()).collect(),
        }
    }

    /// Pops the bundle parked under `key`'s slot, if any.
    pub fn take(&self, key: usize) -> Option<Box<T>> {
        // ord: AcqRel — Acquire pairs with `put`'s Release so the parked
        // bundle's contents are visible to the new owner.
        let p = self.slots[key & (SLOTS - 1)].swap(std::ptr::null_mut(), Ordering::AcqRel);
        // SAFETY: every non-null slot value came from `Box::into_raw` in
        // `put`, and the swap took sole ownership.
        (!p.is_null()).then(|| unsafe { Box::from_raw(p) })
    }

    /// Parks `t` under `key`'s slot, dropping any incumbent.
    pub fn put(&self, key: usize, t: Box<T>) {
        // ord: AcqRel — Release publishes the bundle to `take`'s Acquire;
        // Acquire pairs with the incumbent's publishing swap before it is
        // dropped.
        let old = self.slots[key & (SLOTS - 1)].swap(Box::into_raw(t), Ordering::AcqRel);
        if !old.is_null() {
            // SAFETY: as in `take`.
            drop(unsafe { Box::from_raw(old) });
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
        use std::sync::atomic::{AtomicBool, AtomicU32};
        const PER_THREAD: usize = 1000;
        struct Bundle<'a> {
            id: usize,
            drops: &'a [AtomicU32],
        }
        impl Drop for Bundle<'_> {
            fn drop(&mut self) {
                self.drops[self.id].fetch_add(1, Ordering::Relaxed);
            }
        }
        let created: Vec<AtomicBool> = (0..4 * PER_THREAD)
            .map(|_| AtomicBool::new(false))
            .collect();
        let drops: Vec<AtomicU32> = (0..4 * PER_THREAD).map(|_| AtomicU32::new(0)).collect();
        let p = SlotPool::new();
        std::thread::scope(|s| {
            for t in 0..4usize {
                let (p, created, drops) = (&p, &created, &drops);
                s.spawn(move || {
                    for i in 0..PER_THREAD {
                        // Neighbours share keys, so takes race with puts
                        // and puts displace incumbents.
                        let key = t + i % 2;
                        if let Some(b) = p.take(key) {
                            p.put(key, b);
                        } else {
                            let id = t * PER_THREAD + i;
                            created[id].store(true, Ordering::Relaxed);
                            p.put(key, Box::new(Bundle { id, drops }));
                        }
                    }
                });
            }
        });
        drop(p);
        for (id, (c, d)) in created.iter().zip(&drops).enumerate() {
            let expected = u32::from(c.load(Ordering::Relaxed));
            assert_eq!(d.load(Ordering::Relaxed), expected, "bundle {id}");
        }
        assert!(created.iter().any(|c| c.load(Ordering::Relaxed)));
    }

    #[test]
    fn every_slot_has_a_line_pair_of_its_own() {
        let p: SlotPool<u64> = SlotPool::new();
        for slot in p.slots.iter() {
            assert_eq!(&**slot as *const AtomicPtr<u64> as usize % 128, 0);
        }
        let (k0, k1) = (
            &*p.slots[0] as *const _ as usize,
            &*p.slots[1] as *const _ as usize,
        );
        assert!(
            k1.abs_diff(k0) >= 128,
            "keys 0 and 1 are {} bytes apart",
            k1.abs_diff(k0)
        );
    }
}
