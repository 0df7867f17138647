//! An MPMC FIFO queue over word t-variables.

use crate::ctx::{atomically, atomically_ro, TxCtx};
use crate::NIL;
use oftm_core::api::WordStm;
use oftm_core::TxResult;
use oftm_histories::{TVarId, Value};

/// Node layout: `[value, next]` at offsets 0 and 1.
const VAL: u64 = 0;
const NXT: u64 = 1;

/// A FIFO queue of `u64` values: head and tail pointers plus a singly
/// linked chain of two-word nodes. Multiple producers and consumers
/// compose through whole transactions, so per-operation linearizability
/// (and thus global FIFO order) is inherited from the STM.
#[derive(Clone, Copy, Debug)]
pub struct TxQueue {
    /// Block of two pointer vars: `[head, tail]`.
    ptrs: TVarId,
}

impl TxQueue {
    /// Allocates an empty queue on `stm`.
    pub fn create(stm: &dyn WordStm) -> Self {
        TxQueue {
            ptrs: stm.alloc_tvar_block(&[NIL, NIL]),
        }
    }

    fn head(&self) -> TVarId {
        self.ptrs
    }

    fn tail(&self) -> TVarId {
        TVarId(self.ptrs.0 + 1)
    }

    /// Appends `v` inside the caller's transaction.
    pub fn enqueue_in(&self, ctx: &mut TxCtx<'_, '_>, v: Value) -> TxResult<()> {
        let node = ctx.alloc_block(&[v, NIL]);
        let t = ctx.read(self.tail())?;
        if t == NIL {
            ctx.write(self.head(), node.0)?;
        } else {
            ctx.write(TVarId(t + NXT), node.0)?;
        }
        ctx.write(self.tail(), node.0)
    }

    /// Pops the front element inside the caller's transaction. The
    /// unlinked node is retired: its two t-variables are reclaimed after
    /// this transaction commits and the grace period passes.
    pub fn dequeue_in(&self, ctx: &mut TxCtx<'_, '_>) -> TxResult<Option<Value>> {
        let h = ctx.read(self.head())?;
        if h == NIL {
            return Ok(None);
        }
        let v = ctx.read(TVarId(h + VAL))?;
        let next = ctx.read(TVarId(h + NXT))?;
        ctx.write(self.head(), next)?;
        if next == NIL {
            ctx.write(self.tail(), NIL)?;
        }
        ctx.retire_block(TVarId(h), 2);
        Ok(Some(v))
    }

    /// Front-to-back snapshot inside the caller's transaction.
    pub fn snapshot_in(&self, ctx: &mut TxCtx<'_, '_>) -> TxResult<Vec<Value>> {
        let mut out = Vec::new();
        let mut cur = ctx.read(self.head())?;
        while cur != NIL {
            out.push(ctx.read(TVarId(cur + VAL))?);
            cur = ctx.read(TVarId(cur + NXT))?;
        }
        Ok(out)
    }

    /// Enqueues in its own retry-until-commit transaction.
    pub fn enqueue(&self, stm: &dyn WordStm, proc: u32, v: Value) {
        atomically(stm, proc, |ctx| self.enqueue_in(ctx, v))
    }

    /// Dequeues in its own transaction.
    pub fn dequeue(&self, stm: &dyn WordStm, proc: u32) -> Option<Value> {
        atomically(stm, proc, |ctx| self.dequeue_in(ctx))
    }

    /// Snapshot in its own transaction.
    pub fn snapshot(&self, stm: &dyn WordStm, proc: u32) -> Vec<Value> {
        atomically_ro(stm, proc, |ctx| self.snapshot_in(ctx))
    }

    /// Queue length (walks the chain in one transaction).
    pub fn len(&self, stm: &dyn WordStm, proc: u32) -> usize {
        self.snapshot(stm, proc).len()
    }

    /// True iff the queue is empty.
    pub fn is_empty(&self, stm: &dyn WordStm, proc: u32) -> bool {
        atomically_ro(stm, proc, |ctx| Ok(ctx.read(self.head())? == NIL))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oftm_core::cm::Courteous;
    use oftm_core::dstm::{Dstm, DstmWord};
    use std::collections::HashSet;
    use std::sync::Arc;

    fn stm() -> DstmWord {
        DstmWord::new(Dstm::new(Arc::new(Courteous)))
    }

    #[test]
    fn fifo_order_sequential() {
        let s = stm();
        let q = TxQueue::create(&s);
        assert_eq!(q.dequeue(&s, 0), None);
        for v in 1..=5u64 {
            q.enqueue(&s, 0, v);
        }
        assert_eq!(q.snapshot(&s, 0), vec![1, 2, 3, 4, 5]);
        for v in 1..=5u64 {
            assert_eq!(q.dequeue(&s, 0), Some(v));
        }
        assert_eq!(q.dequeue(&s, 0), None);
        assert!(q.is_empty(&s, 0));
    }

    #[test]
    fn drain_then_refill() {
        let s = stm();
        let q = TxQueue::create(&s);
        q.enqueue(&s, 0, 1);
        assert_eq!(q.dequeue(&s, 0), Some(1));
        // head/tail both reset to NIL; a refill must relink both.
        q.enqueue(&s, 0, 2);
        q.enqueue(&s, 0, 3);
        assert_eq!(q.snapshot(&s, 0), vec![2, 3]);
    }

    #[test]
    fn concurrent_producers_consumers_conserve_elements() {
        let s = Arc::new(stm());
        let q = TxQueue::create(&*s);
        let consumed: std::sync::Mutex<Vec<u64>> = std::sync::Mutex::new(Vec::new());
        std::thread::scope(|sc| {
            for p in 0..2u32 {
                let s = Arc::clone(&s);
                sc.spawn(move || {
                    for i in 0..50u64 {
                        q.enqueue(&*s, p, (u64::from(p) << 32) | i);
                    }
                });
            }
            for p in 2..4u32 {
                let s = Arc::clone(&s);
                let consumed = &consumed;
                sc.spawn(move || {
                    let mut got = Vec::new();
                    for _ in 0..100 {
                        if let Some(v) = q.dequeue(&*s, p) {
                            got.push(v);
                        }
                    }
                    consumed.lock().unwrap().extend(got);
                });
            }
        });
        let mut all: Vec<u64> = consumed.into_inner().unwrap();
        all.extend(q.snapshot(&*s, 9));
        let expect: HashSet<u64> = (0..2u64)
            .flat_map(|p| (0..50u64).map(move |i| (p << 32) | i))
            .collect();
        assert_eq!(all.len(), 100, "no element lost or duplicated");
        assert_eq!(all.into_iter().collect::<HashSet<_>>(), expect);
    }
}
