//! A deliberately **incorrect** linked-list set: the negative oracle.
//!
//! [`BrokenIntSet`] has the same memory layout and sequential behaviour as
//! [`crate::TxIntSet`], but its `insert` splits the operation across *two*
//! transactions: the sorted-position search commits in one transaction,
//! then the link write commits in a second one with **no revalidation** of
//! the snapshot the search produced. Between the two, a concurrent insert
//! can link a node through the very same predecessor; the stale write then
//! unlinks it (a lost update) or stitches the new node in front of a
//! now-bypassed chain (sortedness/duplicate violations).
//!
//! It exists so the differential harness can demonstrate it *catches*
//! structure-level bugs: a harness whose invariants pass on this list is
//! vacuous. Never use outside tests.

use crate::ctx::atomically;
use crate::NIL;
use oftm_core::api::WordStm;
use oftm_histories::TVarId;

/// Node layout shared with [`TxIntSet`]: `[value, next]`.
const VAL: u64 = 0;
const NXT: u64 = 1;

/// The broken list. Same handle shape as [`crate::TxIntSet`].
#[derive(Clone, Copy, Debug)]
pub struct BrokenIntSet {
    head: TVarId,
}

impl BrokenIntSet {
    pub fn create(stm: &dyn WordStm) -> Self {
        BrokenIntSet {
            head: stm.alloc_tvar(NIL),
        }
    }

    /// **Broken** insert: search and link run as separate transactions, so
    /// the link is written against a potentially stale snapshot.
    pub fn insert(&self, stm: &dyn WordStm, proc: u32, v: u64) -> bool {
        // Transaction 1: read-only locate; commits, releasing all reads.
        let (prev_link, cur, cur_val) = atomically(stm, proc, |ctx| {
            let mut prev_link = self.head;
            let mut cur = ctx.read(prev_link)?;
            let mut cur_val = None;
            while cur != NIL {
                let cv = ctx.read(TVarId(cur + VAL))?;
                if cv >= v {
                    cur_val = Some(cv);
                    break;
                }
                prev_link = TVarId(cur + NXT);
                cur = ctx.read(prev_link)?;
            }
            Ok((prev_link, cur, cur_val))
        });
        if cur_val == Some(v) {
            return false;
        }
        // The lost-update window lives between the two transactions; yield
        // so it stays open under any scheduler (on a single hardware
        // thread, back-to-back transactions otherwise complete within one
        // timeslice and the breakage hides from the oracle tests).
        std::thread::yield_now();
        // Transaction 2: blind write through the stale search result — the
        // missing validation that makes this list wrong under concurrency.
        let node = stm.alloc_tvar_block(&[v, cur]);
        atomically(stm, proc, |ctx| ctx.write(prev_link, node.0));
        true
    }

    /// Snapshot via a *correct* transaction (the reader side is honest so
    /// checks observe the damage the writer side does).
    pub fn snapshot(&self, stm: &dyn WordStm, proc: u32) -> Vec<u64> {
        atomically(stm, proc, |ctx| {
            let mut out = Vec::new();
            let mut cur = ctx.read(self.head)?;
            while cur != NIL {
                out.push(ctx.read(TVarId(cur + VAL))?);
                cur = ctx.read(TVarId(cur + NXT))?;
            }
            Ok(out)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oftm_core::dstm::{Dstm, DstmWord};

    #[test]
    fn sequentially_indistinguishable_from_correct_list() {
        // The bug only bites under concurrency: single-threaded, the two
        // transactions back-to-back are equivalent to one.
        let s = DstmWord::new(Dstm::default());
        let b = BrokenIntSet::create(&s);
        for v in [5u64, 1, 9, 5, 3] {
            b.insert(&s, 0, v);
        }
        assert_eq!(b.snapshot(&s, 0), vec![1, 3, 5, 9]);
    }
}
