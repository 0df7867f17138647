//! Coarse-grained global-lock TM: the simplest correct baseline.
//!
//! One mutex serializes every transaction. Trivially serializable and
//! opaque, maximally *not* disjoint-access-parallel (every pair of
//! transactions conflicts on the lock word), and blocking: a preempted
//! lock holder stalls the whole system — the exact failure mode the
//! paper's introduction motivates obstruction-freedom with (E9 measures
//! it).
//!
//! Values live in a shared [`VarTable`] of atomic cells while the mutex is
//! a pure serialization gate. Keeping the two separate lets
//! [`WordStm::alloc_tvar`] insert fresh t-variables without touching the
//! gate — so a *running* transaction (which holds the gate) can allocate
//! list nodes without self-deadlocking.
//!
//! **Read-only transactions.** The strongest cheap path a global lock
//! admits: a declared-RO transaction ([`oftm_core::api::WordStm::begin_ro`])
//! keeps no undo log and no footprint log, its reads are raw cell loads
//! under the gate, and its commit publishes nothing. Progress guarantee:
//! **abort-free but blocking** — a coarse RO transaction can never abort
//! (nothing to validate; the gate serializes it totally), but it waits for
//! the gate like everyone else, so it is not wait-free. Detect-on-commit
//! promotion is implicit: an empty undo log already skips rollback and
//! publish work.

use oftm_core::api::{TxResult, WordStm, WordTx};
use oftm_core::line::Line;
use oftm_core::notify::CommitNotifier;
use oftm_core::reclaim::{Bag, Guard, Retired, RetiredBlock, BAG_BOUND};
use oftm_core::record::{self, fresh_base_id, Recorder};
use oftm_core::table::{Pinned, VarTable};
use oftm_histories::{Access, TVarId, TxId, Value};
use oftm_obs::{pack_tx, AbortCause, Counter, StmStats, VarAttr, TX_UNKNOWN};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Global-mutex TM.
pub struct CoarseStm {
    /// The gate serializes transactions, so at most one is ever registered
    /// with the table's reclamation domain and retired blocks free at the
    /// very next commit; routing them through it anyway keeps the
    /// reclamation semantics identical across backends.
    store: VarTable<AtomicU64>,
    /// The serialization gate; holding it *is* the transaction. It guards
    /// the one bag every commit retires into (one transaction runs at a
    /// time), consistent between operations, so poison is recovered.
    gate: Mutex<Bag>,
    notify: CommitNotifier,
    /// Base-object identity of the lock word.
    lock_base: oftm_histories::BaseObjId,
    /// Written by every begin, so boxed on a [`Line`] of its own.
    tx_seq: Box<Line<AtomicU32>>,
    recorder: Option<Arc<Recorder>>,
    /// Always-on telemetry. Coarse is abort-free (the gate serializes
    /// everything), so the only cause it can ever tag is an explicit
    /// retry.
    stats: StmStats,
}

impl Default for CoarseStm {
    fn default() -> Self {
        Self::new()
    }
}

impl CoarseStm {
    pub fn new() -> Self {
        CoarseStm {
            store: VarTable::new(),
            gate: Mutex::default(),
            notify: CommitNotifier::new(),
            lock_base: fresh_base_id(),
            tx_seq: Box::default(),
            recorder: None,
            stats: StmStats::new(),
        }
    }

    pub fn with_recorder(mut self, rec: Arc<Recorder>) -> Self {
        self.recorder = Some(rec);
        self
    }

    /// Non-transactional oracle read. Takes the gate: transactional writes
    /// land in the cells *before* commit (undo-log based), so an ungated
    /// read could observe dirty, later-rolled-back state.
    pub fn peek(&self, x: TVarId) -> Option<Value> {
        let _serialized = self.enter();
        let pin = self.store.domain().begin();
        let cell = self.store.get_ref_in(x, &pin)?;
        Some(cell.load(Ordering::Acquire))
    }

    /// Takes the gate.
    fn enter(&self) -> MutexGuard<'_, Bag> {
        self.gate.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn begin_inner(&self, proc: u32, ro: bool) -> Box<dyn WordTx + '_> {
        self.stats.incr(Counter::Begins);
        let seq = self.tx_seq.fetch_add(1, Ordering::Relaxed);
        let id = TxId::new(proc, seq);
        // Acquiring the global lock is a modifying step on the lock word.
        let guard = self.enter();
        let rec = self.recorder.as_deref();
        record::step(rec, id, self.lock_base, Access::Modify);
        let tx = Box::new(CoarseTx {
            stm: self,
            id,
            guard: Some(guard),
            undo: Vec::new(),
            touched: Vec::new(),
            retired: Vec::new(),
            ro,
            pin: Some(self.store.domain().begin()),
        });
        record::observe(rec, tx)
    }
}

struct CoarseTx<'s> {
    stm: &'s CoarseStm,
    id: TxId,
    /// The guard is held for the whole transaction: coarse two-phase
    /// locking degenerated to a single lock.
    guard: Option<MutexGuard<'s, Bag>>,
    /// Undo log for tryA: `(id, cell, previous value)`, the cells borrowed
    /// under `pin`. The ids double as the commit-notification publish set.
    undo: Vec<(TVarId, Pinned<AtomicU64>, Value)>,
    /// Footprint log (reads and writes) for the async runtime's parking.
    touched: Vec<TVarId>,
    retired: Vec<RetiredBlock>,
    /// Declared read-only: reads skip the footprint log, writes panic.
    ro: bool,
    /// The transaction's one registration with the store's domain: it
    /// keeps the cells the undo log borrows allocated. Dropped (retire-set
    /// discarded) on abort — declared after `undo`, so after the log;
    /// handed to the commit hook by `try_commit`, done with the log by then.
    pin: Option<Guard<'s>>,
}

impl<'s> CoarseTx<'s> {
    fn pin(&self) -> &Guard<'s> {
        self.pin.as_ref().expect("held until completion")
    }
}

impl WordTx for CoarseTx<'_> {
    fn id(&self) -> TxId {
        self.id
    }

    fn read(&mut self, x: TVarId) -> TxResult<Value> {
        debug_assert!(self.guard.is_some(), "transaction completed");
        if !self.ro {
            self.touched.push(x);
        }
        let cell = self.stm.store.get_ref_or_panic_in(x, self.pin());
        Ok(cell.load(Ordering::Acquire))
    }

    fn write(&mut self, x: TVarId, v: Value) -> TxResult<()> {
        assert!(
            !self.ro,
            "coarse: write on a declared read-only transaction"
        );
        debug_assert!(self.guard.is_some(), "transaction completed");
        self.touched.push(x);
        // SAFETY: loaded under `self.pin`, which is held for as long as
        // `self.undo` is looked at (see the field); only this transaction
        // dereferences the entry.
        let cell = unsafe { Pinned::new(self.stm.store.get_ref_or_panic_in(x, self.pin())) };
        self.undo.push((x, cell, cell.load(Ordering::Acquire)));
        cell.store(v, Ordering::Release);
        Ok(())
    }

    fn try_commit(mut self: Box<Self>) -> TxResult<()> {
        // Releasing the global lock is a modifying step on the lock word.
        let (rec, lock) = (self.stm.recorder.as_deref(), self.stm.lock_base);
        record::step(rec, self.id, lock, Access::Modify);

        // Under the gate, which holds the bag: retire, evict, spill.
        let pin = self.pin.take().expect("held until completion");
        let mut gate = self.guard.take().expect("held until completion");
        let store = &self.stm.store;
        let retired = self.retired.drain(..).map(Retired::Block);
        let evicted = store.retire_and_evict(pin, &mut gate, retired);
        store.domain().defer_bag(&mut gate, BAG_BOUND);
        drop(gate); // release
        self.stm.stats.incr(if self.ro {
            Counter::CommitsRo
        } else if self.undo.is_empty() {
            Counter::CommitsPromoted
        } else {
            Counter::Commits
        });
        // The gate is released and the in-place writes stand: wake parked
        // conflicters.
        self.stm
            .notify
            .publish(self.undo.iter().map(|(x, _, _)| *x));
        self.stm.stats.add(Counter::TvarsFreed, evicted);
        Ok(())
    }

    fn try_abort(mut self: Box<Self>) {
        if self.guard.is_some() {
            for (_, cell, v) in self.undo.drain(..).rev() {
                cell.store(v, Ordering::Release);
            }
        }
        let (rec, lock) = (self.stm.recorder.as_deref(), self.stm.lock_base);
        record::step(rec, self.id, lock, Access::Modify);
        self.guard = None;
        // Coarse transactions never fail: aborting one is always a
        // voluntary abandonment — no conflicting variable, no aggressor.
        self.stm.stats.abort_at(
            AbortCause::ExplicitRetry,
            VarAttr::NoVar,
            pack_tx(self.id.proc, self.id.seq),
            TX_UNKNOWN,
        );
        // Dropping `pin` releases the registration; the retire-set is
        // discarded with the transaction.
    }

    fn retire_tvar_block(&mut self, base: TVarId, len: usize) {
        assert!(
            !self.ro,
            "coarse: retire on a declared read-only transaction"
        );
        self.retired.push(RetiredBlock { base, len });
    }

    fn footprint(&self, out: &mut Vec<TVarId>) {
        out.extend_from_slice(&self.touched);
    }
}

impl Drop for CoarseTx<'_> {
    fn drop(&mut self) {
        // A transaction dropped without tryC/tryA — the driver does
        // this when the body observes an application-level abort — must
        // not leave its in-place writes behind: restore the undo log
        // while the gate is still held. (tryC/tryA both clear the guard
        // first, so this only fires on the abandoned path.)
        if self.guard.is_some() {
            for (_, cell, v) in self.undo.drain(..).rev() {
                cell.store(v, Ordering::Release);
            }
            self.stm.stats.abort_at(
                AbortCause::ExplicitRetry,
                VarAttr::NoVar,
                pack_tx(self.id.proc, self.id.seq),
                TX_UNKNOWN,
            );
        }
    }
}

impl WordStm for CoarseStm {
    fn name(&self) -> &'static str {
        "coarse"
    }

    fn register_tvar(&self, x: TVarId, initial: Value) {
        if self.store.insert(x, AtomicU64::new(initial)) {
            self.stats.incr(Counter::TvarsAllocated);
        }
    }

    fn alloc_tvar_block(&self, initials: &[Value]) -> TVarId {
        // Deliberately does not take the gate: a running transaction holds
        // it, and allocation is not a transactional effect.
        self.stats
            .add(Counter::TvarsAllocated, initials.len() as u64);
        self.store.alloc_block(initials, |_, v| AtomicU64::new(v))
    }

    fn free_tvar_block(&self, base: TVarId, len: usize) {
        // Like allocation, eviction does not take the gate: the committing
        // transaction may still notionally hold it, and a cell an undo log
        // borrows stays allocated under that transaction's pin.
        self.stats.add(Counter::TvarsFreed, len as u64);
        self.store.remove_block(base, len);
    }

    fn live_tvars(&self) -> usize {
        let evicted = self.store.settle_parked(&mut self.enter()) + self.store.evict_ripe();
        self.stats.add(Counter::TvarsFreed, evicted);
        self.store.len()
    }

    fn begin(&self, proc: u32) -> Box<dyn WordTx + '_> {
        self.begin_inner(proc, false)
    }

    fn begin_ro(&self, proc: u32) -> Box<dyn WordTx + '_> {
        self.stats.incr(Counter::BeginsRo);
        self.begin_inner(proc, true)
    }

    fn notifier(&self) -> &CommitNotifier {
        &self.notify
    }

    fn stats(&self) -> &StmStats {
        &self.stats
    }

    fn is_obstruction_free(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oftm_core::api::run_transaction;

    const X: TVarId = TVarId(0);
    const Y: TVarId = TVarId(1);

    fn stm() -> CoarseStm {
        let s = CoarseStm::new();
        s.register_tvar(X, 1);
        s.register_tvar(Y, 2);
        s
    }

    #[test]
    fn the_begin_counter_has_a_line_pair_of_its_own() {
        let s = CoarseStm::new();
        assert!(oftm_core::line::isolated_from(&**s.tx_seq, &s));
    }

    #[test]
    fn read_write_commit() {
        let s = stm();
        let (v, _) = run_transaction(&s, 0, |tx| {
            let v = tx.read(X)?;
            tx.write(Y, v + 10)?;
            Ok(v)
        });
        assert_eq!(v, 1);
        assert_eq!(s.peek(Y), Some(11));
    }

    #[test]
    fn abort_rolls_back() {
        let s = stm();
        let mut tx = s.begin(0);
        tx.write(X, 100).unwrap();
        tx.write(X, 200).unwrap();
        tx.try_abort();
        assert_eq!(s.peek(X), Some(1));
    }

    #[test]
    fn alloc_inside_running_transaction_does_not_deadlock() {
        // The regression the gate/store split exists for: the transaction
        // holds the global lock while allocating.
        let s = stm();
        let (node, _) = run_transaction(&s, 0, |tx| {
            let node = s.alloc_tvar_block(&[5, 0]);
            tx.write(X, node.0)?;
            Ok(node)
        });
        assert_eq!(s.peek(node), Some(5));
        assert_eq!(s.peek(X), Some(node.0));
    }

    #[test]
    fn serial_under_threads() {
        let s = Arc::new(stm());
        std::thread::scope(|sc| {
            for p in 0..4u32 {
                let s = Arc::clone(&s);
                sc.spawn(move || {
                    for _ in 0..100 {
                        run_transaction(&*s, p, |tx| {
                            let v = tx.read(X)?;
                            tx.write(X, v + 1)
                        });
                    }
                });
            }
        });
        assert_eq!(s.peek(X), Some(401));
    }

    #[test]
    fn ro_reads_commit_and_skip_bookkeeping() {
        let s = stm();
        let mut ro = s.begin_ro(0);
        assert_eq!(ro.read(X).unwrap(), 1);
        assert_eq!(ro.read(Y).unwrap(), 2);
        let mut fp = Vec::new();
        ro.footprint(&mut fp);
        assert!(fp.is_empty(), "RO keeps no footprint log");
        assert!(ro.try_commit().is_ok());
    }

    #[test]
    #[should_panic(expected = "read-only")]
    fn ro_write_panics() {
        let s = stm();
        let mut ro = s.begin_ro(0);
        let _ = ro.write(X, 1);
    }

    /// Every process's commits retire into the one bag under the gate: a
    /// block retired under a registered reader waits there, off the shared
    /// bins, and so do the states its eviction unlinks.
    #[test]
    fn coarse_retirements_leave_the_shared_bins_empty() {
        let s = stm();
        let node = s.alloc_tvar_block(&[5, 0]);
        let domain = s.store.domain();
        let reader = domain.begin();
        let mut tx = s.begin(3);
        tx.write(X, 0).unwrap();
        tx.retire_tvar_block(node, 2);
        tx.try_commit().unwrap();
        assert_eq!(s.enter().len(), 1, "the block waits in the bag");
        assert_eq!((domain.pending_blocks(), domain.pending_memory()), (0, 0));
        assert_eq!(s.store.len(), 4, "held for the reader");
        drop(reader);
        // Another process's commit evicts the block and bags its states
        // under a tag of their own; the one after frees them.
        run_transaction(&s, 4, |tx| tx.write(Y, 3));
        assert_eq!((s.enter().len(), s.store.len(), s.store.freed()), (2, 2, 2));
        run_transaction(&s, 5, |tx| tx.read(Y));
        assert_eq!(s.enter().len(), 0);
        assert_eq!((domain.pending_blocks(), domain.pending_memory()), (0, 0));
        assert_eq!(s.live_tvars(), 2);
    }

    #[test]
    fn every_pair_conflicts_on_lock_word() {
        let rec = Arc::new(Recorder::new());
        let s = CoarseStm::new().with_recorder(Arc::clone(&rec));
        s.register_tvar(X, 0);
        s.register_tvar(Y, 0);
        // Two transactions on disjoint t-variables.
        run_transaction(&s, 0, |tx| tx.write(X, 1));
        run_transaction(&s, 1, |tx| tx.write(Y, 1));
        let h = rec.snapshot();
        let violations = oftm_histories::check_strict_dap(&h);
        assert!(
            !violations.is_empty(),
            "coarse lock must violate strict DAP on disjoint transactions"
        );
    }
}
