//! A bucketed hash map (separate chaining) over word t-variables.

use crate::ctx::{atomically, atomically_ro, TxCtx};
use crate::{mix64, NIL};
use oftm_core::api::WordStm;
use oftm_core::TxResult;
use oftm_histories::{TVarId, Value};

/// Node layout: `[key, value, next]` at offsets 0, 1, 2.
const KEY: u64 = 0;
const VAL: u64 = 1;
const NXT: u64 = 2;

/// A `u64 → u64` hash map: a fixed block of bucket-head pointers, each the
/// head of an unsorted chain of three-word nodes.
///
/// The bucket count is fixed at creation; transactions on different
/// buckets touch disjoint t-variables, so the map is disjoint-access
/// parallel on the STMs that are.
#[derive(Clone, Copy, Debug)]
pub struct TxHashMap {
    buckets: TVarId,
    nbuckets: u64,
}

impl TxHashMap {
    /// Allocates an empty map with `nbuckets` chains on `stm`.
    pub fn create(stm: &dyn WordStm, nbuckets: usize) -> Self {
        assert!(nbuckets > 0, "hash map needs at least one bucket");
        TxHashMap {
            buckets: stm.alloc_tvar_block(&vec![NIL; nbuckets]),
            nbuckets: nbuckets as u64,
        }
    }

    /// The bucket-head t-variable for `key`.
    pub fn bucket_of(&self, key: u64) -> TVarId {
        TVarId(self.buckets.0 + mix64(key) % self.nbuckets)
    }

    /// Walks `key`'s chain: returns the link pointing at the node holding
    /// `key` plus the node base, or the terminal link if absent.
    fn locate(&self, ctx: &mut TxCtx<'_, '_>, key: u64) -> TxResult<(TVarId, Value)> {
        let mut prev_link = self.bucket_of(key);
        let mut cur = ctx.read(prev_link)?;
        while cur != NIL {
            if ctx.read(TVarId(cur + KEY))? == key {
                return Ok((prev_link, cur));
            }
            prev_link = TVarId(cur + NXT);
            cur = ctx.read(prev_link)?;
        }
        Ok((prev_link, NIL))
    }

    /// Inserts or updates `key ↦ value` inside the caller's transaction;
    /// returns the previous value if any.
    pub fn put_in(
        &self,
        ctx: &mut TxCtx<'_, '_>,
        key: u64,
        value: Value,
    ) -> TxResult<Option<Value>> {
        let (_, node) = self.locate(ctx, key)?;
        if node != NIL {
            let old = ctx.read(TVarId(node + VAL))?;
            ctx.write(TVarId(node + VAL), value)?;
            return Ok(Some(old));
        }
        let head = self.bucket_of(key);
        let first = ctx.read(head)?;
        let fresh = ctx.alloc_block(&[key, value, first]);
        ctx.write(head, fresh.0)?;
        Ok(None)
    }

    /// Removes `key` inside the caller's transaction; returns its value.
    /// The unlinked node is retired: its three t-variables are reclaimed
    /// after this transaction commits and the grace period passes.
    pub fn remove_in(&self, ctx: &mut TxCtx<'_, '_>, key: u64) -> TxResult<Option<Value>> {
        let (prev_link, node) = self.locate(ctx, key)?;
        if node == NIL {
            return Ok(None);
        }
        let old = ctx.read(TVarId(node + VAL))?;
        let after = ctx.read(TVarId(node + NXT))?;
        ctx.write(prev_link, after)?;
        ctx.retire_block(TVarId(node), 3);
        Ok(Some(old))
    }

    /// Looks `key` up inside the caller's transaction.
    pub fn get_in(&self, ctx: &mut TxCtx<'_, '_>, key: u64) -> TxResult<Option<Value>> {
        let (_, node) = self.locate(ctx, key)?;
        if node == NIL {
            Ok(None)
        } else {
            Ok(Some(ctx.read(TVarId(node + VAL))?))
        }
    }

    /// Consistent snapshot of all entries, sorted by key.
    pub fn snapshot_in(&self, ctx: &mut TxCtx<'_, '_>) -> TxResult<Vec<(u64, Value)>> {
        let mut out = Vec::new();
        for b in 0..self.nbuckets {
            let mut cur = ctx.read(TVarId(self.buckets.0 + b))?;
            while cur != NIL {
                let k = ctx.read(TVarId(cur + KEY))?;
                let v = ctx.read(TVarId(cur + VAL))?;
                out.push((k, v));
                cur = ctx.read(TVarId(cur + NXT))?;
            }
        }
        out.sort_unstable();
        Ok(out)
    }

    /// `put` in its own retry-until-commit transaction.
    pub fn put(&self, stm: &dyn WordStm, proc: u32, key: u64, value: Value) -> Option<Value> {
        atomically(stm, proc, |ctx| self.put_in(ctx, key, value))
    }

    /// `remove` in its own transaction.
    pub fn remove(&self, stm: &dyn WordStm, proc: u32, key: u64) -> Option<Value> {
        atomically(stm, proc, |ctx| self.remove_in(ctx, key))
    }

    /// `get` in its own transaction.
    pub fn get(&self, stm: &dyn WordStm, proc: u32, key: u64) -> Option<Value> {
        atomically_ro(stm, proc, |ctx| self.get_in(ctx, key))
    }

    /// Snapshot in its own transaction.
    pub fn snapshot(&self, stm: &dyn WordStm, proc: u32) -> Vec<(u64, Value)> {
        atomically_ro(stm, proc, |ctx| self.snapshot_in(ctx))
    }

    /// Entry count (walks every chain in one transaction).
    pub fn len(&self, stm: &dyn WordStm, proc: u32) -> usize {
        self.snapshot(stm, proc).len()
    }

    /// True iff the map holds no entries.
    pub fn is_empty(&self, stm: &dyn WordStm, proc: u32) -> bool {
        self.len(stm, proc) == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oftm_core::cm::Courteous;
    use oftm_core::dstm::{Dstm, DstmWord};
    use std::sync::Arc;

    fn stm() -> DstmWord {
        DstmWord::new(Dstm::new(Arc::new(Courteous)))
    }

    #[test]
    fn put_get_remove_roundtrip() {
        let s = stm();
        let m = TxHashMap::create(&s, 4);
        assert_eq!(m.put(&s, 0, 1, 10), None);
        assert_eq!(m.put(&s, 0, 2, 20), None);
        assert_eq!(m.put(&s, 0, 1, 11), Some(10), "update returns old");
        assert_eq!(m.get(&s, 0, 1), Some(11));
        assert_eq!(m.get(&s, 0, 3), None);
        assert_eq!(m.remove(&s, 0, 2), Some(20));
        assert_eq!(m.remove(&s, 0, 2), None);
        assert_eq!(m.snapshot(&s, 0), vec![(1, 11)]);
    }

    #[test]
    fn chains_handle_collisions() {
        // One bucket: everything collides; chain logic must still be exact.
        let s = stm();
        let m = TxHashMap::create(&s, 1);
        for k in 0..20u64 {
            assert_eq!(m.put(&s, 0, k, k * 2), None);
        }
        assert_eq!(m.len(&s, 0), 20);
        for k in (0..20u64).step_by(2) {
            assert_eq!(m.remove(&s, 0, k), Some(k * 2));
        }
        assert_eq!(m.len(&s, 0), 10);
        for k in 0..20u64 {
            assert_eq!(m.get(&s, 0, k), (k % 2 == 1).then_some(k * 2));
        }
    }

    #[test]
    fn concurrent_disjoint_key_ranges_exact() {
        let s = Arc::new(stm());
        let m = TxHashMap::create(&*s, 8);
        std::thread::scope(|sc| {
            for p in 0..4u32 {
                let s = Arc::clone(&s);
                sc.spawn(move || {
                    let base = u64::from(p) * 100;
                    for i in 0..20u64 {
                        m.put(&*s, p, base + i, i);
                    }
                    for i in 0..10u64 {
                        m.remove(&*s, p, base + i * 2);
                    }
                });
            }
        });
        let snap = m.snapshot(&*s, 9);
        assert_eq!(snap.len(), 4 * 10);
        for (k, v) in snap {
            assert_eq!(k % 100 % 2, 1, "only odd offsets survive");
            assert_eq!(v, k % 100);
        }
    }
}
