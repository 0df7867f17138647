//! Lazily materialized unbounded arrays.
//!
//! Algorithm 2 uses unbounded arrays of fo-consensus objects and registers
//! (`Owner[x, version]`, `State[T_k]`, `TVar[x, T_k]`, `Aborted[T_k]`,
//! `V[x]`) — footnote 6 of the paper acknowledges the unbounded memory. We
//! materialize cells on first touch from a mutex-protected map. The mutex
//! is *allocation-level* machinery below the formal model: the base
//! objects the algorithm's steps act on are the returned cells themselves
//! (each gets a fresh `BaseObjId`); creating a cell is not a step of the
//! algorithm. OS threads do not crash while holding the (tiny) critical
//! section, so the implementation-level lock does not affect the progress
//! properties under study. The workspace has no step-accurate rendition
//! of Algorithm 2: `oftm-sim` models its fo-consensus base objects step by
//! step (`foc_model`), not the algorithm.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Mutex, MutexGuard};

/// Locks `m`, recovering from poison: the critical sections here insert,
/// look up or overwrite one entry and leave nothing half-done behind a panic.
pub(crate) fn locked<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// A concurrent, append-only `K → Arc<V>` table with create-on-first-use.
pub struct Registry<K, V> {
    map: Mutex<HashMap<K, Arc<V>>>,
}

impl<K: Eq + Hash + Clone, V> Registry<K, V> {
    pub fn new() -> Self {
        Registry {
            map: Mutex::new(HashMap::new()),
        }
    }

    /// Returns the cell for `k`, creating it with `init` if absent.
    pub fn get_or_create(&self, k: &K, init: impl FnOnce() -> V) -> Arc<V> {
        let mut m = locked(&self.map);
        if let Some(v) = m.get(k) {
            return Arc::clone(v);
        }
        let v = Arc::new(init());
        m.insert(k.clone(), Arc::clone(&v));
        v
    }

    /// Returns the cell for `k` if it was ever created.
    pub fn get(&self, k: &K) -> Option<Arc<V>> {
        locked(&self.map).get(k).map(Arc::clone)
    }

    /// Removes the cell for `k`; `true` if it was present. Outstanding
    /// `Arc` handles keep the cell alive; only the registry's reference is
    /// dropped. T-variable reclamation uses this per key (the freed
    /// variable's contiguous `Owner` versions and its winners' `TVar`
    /// cells), keeping eviction O(chain) rather than O(registry).
    pub fn remove(&self, k: &K) -> bool {
        locked(&self.map).remove(k).is_some()
    }

    /// Number of materialized cells (diagnostics: the paper's unbounded
    /// space, measured).
    pub fn len(&self) -> usize {
        locked(&self.map).len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<K: Eq + Hash + Clone, V> Default for Registry<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn create_once_then_share() {
        let r: Registry<u32, AtomicU64> = Registry::new();
        let a = r.get_or_create(&1, || AtomicU64::new(7));
        let b = r.get_or_create(&1, || AtomicU64::new(999));
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(b.load(Ordering::Relaxed), 7);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn get_absent_is_none() {
        let r: Registry<u32, u64> = Registry::new();
        assert!(r.get(&5).is_none());
        assert!(r.is_empty());
    }

    #[test]
    fn remove_evicts() {
        let r: Registry<(u32, u32), u64> = Registry::new();
        for k in 0..4 {
            r.get_or_create(&(k, 0), || u64::from(k));
        }
        assert!(r.remove(&(0, 0)));
        assert!(!r.remove(&(0, 0)), "removal is idempotent");
        assert_eq!(r.len(), 3);
        assert!(r.get(&(0, 0)).is_none());
        assert!(r.get(&(1, 0)).is_some());
    }

    #[test]
    fn concurrent_creation_is_consistent() {
        let r: Registry<u32, AtomicU64> = Registry::new();
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let r = &r;
                s.spawn(move || {
                    for k in 0..100u32 {
                        let cell = r.get_or_create(&k, || AtomicU64::new(0));
                        cell.fetch_add(t, Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(r.len(), 100);
        let expect: u64 = (0..8).sum();
        for k in 0..100u32 {
            assert_eq!(r.get(&k).unwrap().load(Ordering::Relaxed), expect);
        }
    }
}
