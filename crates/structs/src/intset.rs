//! The sorted linked-list integer set — DSTM's original benchmark
//! workload, over word t-variables.

use crate::ctx::{atomically, atomically_ro, TxCtx};
use crate::NIL;
use oftm_core::api::WordStm;
use oftm_core::TxResult;
use oftm_histories::{TVarId, Value};

/// Node layout: `[value, next]` at offsets 0 and 1 from the node base id.
const VAL: u64 = 0;
const NXT: u64 = 1;

/// A sorted set of `u64` as a singly linked list of two-word nodes.
///
/// The handle itself is one t-variable id (the head pointer); it is `Copy`
/// and can be shared freely across threads. All operations take the STM
/// explicitly, either as a [`TxCtx`] (to compose with a larger
/// transaction) or as an STM + process id (to run as their own
/// transaction).
#[derive(Clone, Copy, Debug)]
pub struct TxIntSet {
    head: TVarId,
}

/// Result of `locate`: the link t-variable pointing at `cur`, the node
/// base `cur` itself (or [`NIL`]), and `cur`'s value when present.
struct Locate {
    prev_link: TVarId,
    cur: Value,
    cur_val: Option<Value>,
}

impl TxIntSet {
    /// Allocates an empty set on `stm`.
    pub fn create(stm: &dyn WordStm) -> Self {
        TxIntSet {
            head: stm.alloc_tvar(NIL),
        }
    }

    /// Walks the sorted list to the first node with value ≥ `v`.
    fn locate(&self, ctx: &mut TxCtx<'_, '_>, v: u64) -> TxResult<Locate> {
        let mut prev_link = self.head;
        let mut cur = ctx.read(prev_link)?;
        while cur != NIL {
            let cur_val = ctx.read(TVarId(cur + VAL))?;
            if cur_val >= v {
                return Ok(Locate {
                    prev_link,
                    cur,
                    cur_val: Some(cur_val),
                });
            }
            prev_link = TVarId(cur + NXT);
            cur = ctx.read(prev_link)?;
        }
        Ok(Locate {
            prev_link,
            cur,
            cur_val: None,
        })
    }

    /// Inserts `v` inside the caller's transaction; `false` if present.
    pub fn insert_in(&self, ctx: &mut TxCtx<'_, '_>, v: u64) -> TxResult<bool> {
        let loc = self.locate(ctx, v)?;
        if loc.cur_val == Some(v) {
            return Ok(false);
        }
        let node = ctx.alloc_block(&[v, loc.cur]);
        ctx.write(loc.prev_link, node.0)?;
        Ok(true)
    }

    /// Removes `v` inside the caller's transaction; `false` if absent.
    /// The unlinked node is retired: its two t-variables are reclaimed
    /// after this transaction commits and the grace period passes.
    pub fn remove_in(&self, ctx: &mut TxCtx<'_, '_>, v: u64) -> TxResult<bool> {
        let loc = self.locate(ctx, v)?;
        if loc.cur != NIL && loc.cur_val == Some(v) {
            let after = ctx.read(TVarId(loc.cur + NXT))?;
            ctx.write(loc.prev_link, after)?;
            ctx.retire_block(TVarId(loc.cur), 2);
            Ok(true)
        } else {
            Ok(false)
        }
    }

    /// Membership test inside the caller's transaction.
    pub fn contains_in(&self, ctx: &mut TxCtx<'_, '_>, v: u64) -> TxResult<bool> {
        let loc = self.locate(ctx, v)?;
        Ok(loc.cur_val == Some(v))
    }

    /// Number of elements, inside the caller's transaction. Walks the
    /// list counting links only — no values are read and no snapshot
    /// `Vec` is allocated.
    pub fn count_in(&self, ctx: &mut TxCtx<'_, '_>) -> TxResult<usize> {
        let mut n = 0;
        let mut cur = ctx.read(self.head)?;
        while cur != NIL {
            n += 1;
            cur = ctx.read(TVarId(cur + NXT))?;
        }
        Ok(n)
    }

    /// Consistent snapshot of the whole set, in list (= sorted) order.
    pub fn snapshot_in(&self, ctx: &mut TxCtx<'_, '_>) -> TxResult<Vec<u64>> {
        let mut out = Vec::new();
        let mut cur = ctx.read(self.head)?;
        while cur != NIL {
            out.push(ctx.read(TVarId(cur + VAL))?);
            cur = ctx.read(TVarId(cur + NXT))?;
        }
        Ok(out)
    }

    /// Inserts `v` in its own retry-until-commit transaction.
    pub fn insert(&self, stm: &dyn WordStm, proc: u32, v: u64) -> bool {
        atomically(stm, proc, |ctx| self.insert_in(ctx, v))
    }

    /// Removes `v` in its own transaction.
    pub fn remove(&self, stm: &dyn WordStm, proc: u32, v: u64) -> bool {
        atomically(stm, proc, |ctx| self.remove_in(ctx, v))
    }

    /// Membership test in its own **read-only** transaction (the backend's
    /// cheapest consistent read path — see [`atomically_ro`]).
    pub fn contains(&self, stm: &dyn WordStm, proc: u32, v: u64) -> bool {
        atomically_ro(stm, proc, |ctx| self.contains_in(ctx, v))
    }

    /// Snapshot in its own read-only transaction.
    pub fn snapshot(&self, stm: &dyn WordStm, proc: u32) -> Vec<u64> {
        atomically_ro(stm, proc, |ctx| self.snapshot_in(ctx))
    }

    /// Number of elements (walks the list in its own read-only
    /// transaction, via [`TxIntSet::count_in`] — no snapshot allocation).
    pub fn len(&self, stm: &dyn WordStm, proc: u32) -> usize {
        atomically_ro(stm, proc, |ctx| self.count_in(ctx))
    }

    /// True iff the set is empty.
    pub fn is_empty(&self, stm: &dyn WordStm, proc: u32) -> bool {
        atomically_ro(stm, proc, |ctx| Ok(ctx.read(self.head)? == NIL))
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
    fn sorted_unique_semantics() {
        let s = stm();
        let set = TxIntSet::create(&s);
        for v in [5u64, 1, 9, 5, 3, 9] {
            set.insert(&s, 0, v);
        }
        assert_eq!(set.snapshot(&s, 0), vec![1, 3, 5, 9]);
        assert!(set.contains(&s, 0, 3));
        assert!(!set.contains(&s, 0, 4));
        assert!(set.remove(&s, 0, 3));
        assert!(!set.remove(&s, 0, 3));
        assert_eq!(set.snapshot(&s, 0), vec![1, 5, 9]);
        assert_eq!(set.len(&s, 0), 3);
        assert!(!set.is_empty(&s, 0));
    }

    #[test]
    fn boundary_inserts() {
        let s = stm();
        let set = TxIntSet::create(&s);
        assert!(set.insert(&s, 0, 10)); // into empty
        assert!(set.insert(&s, 0, 5)); // new head
        assert!(set.insert(&s, 0, 20)); // new tail
        assert_eq!(set.snapshot(&s, 0), vec![5, 10, 20]);
        assert!(set.remove(&s, 0, 5)); // remove head
        assert!(set.remove(&s, 0, 20)); // remove tail
        assert_eq!(set.snapshot(&s, 0), vec![10]);
    }

    #[test]
    fn multi_op_transaction_composes() {
        // Move an element atomically: remove+insert in ONE transaction.
        let s = stm();
        let set = TxIntSet::create(&s);
        set.insert(&s, 0, 7);
        crate::ctx::atomically(&s, 0, |ctx| {
            let had = set.remove_in(ctx, 7)?;
            assert!(had);
            set.insert_in(ctx, 8)
        });
        assert_eq!(set.snapshot(&s, 0), vec![8]);
    }

    #[test]
    fn concurrent_disjoint_inserts_all_land() {
        let s = Arc::new(stm());
        let set = TxIntSet::create(&*s);
        std::thread::scope(|sc| {
            for p in 0..4u32 {
                let s = Arc::clone(&s);
                sc.spawn(move || {
                    for i in 0..25u64 {
                        set.insert(&*s, p, u64::from(p) * 100 + i);
                    }
                });
            }
        });
        let snap = set.snapshot(&*s, 9);
        assert_eq!(snap.len(), 100);
        assert!(snap.windows(2).all(|w| w[0] < w[1]), "sorted, no dups");
    }
}
