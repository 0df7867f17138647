//! Word-level adapter: exposes a [`Dstm`] through the uniform [`WordStm`]
//! interface.
//!
//! ## Read-only transactions
//!
//! [`WordStm::begin_ro`] returns a handle whose `write`/`retire` panic and
//! whose commit takes the engine's validate-only completion: no locator
//! allocation, no acquisition, no commit-status CAS, no commit
//! notification. A plain transaction that
//! happens to write nothing is *promoted* to the same completion at
//! `try_commit` (detect-on-commit). Progress is the backend's usual
//! obstruction-freedom — reads may still have to abort a live writer via
//! the contention manager — and consistency still comes from revalidating
//! invisible reads, gated by the instance's commit counter (see
//! `dstm::tx`): a read costs one load of that counter while no update
//! transaction commits and O(|read-set|) once per foreign update commit;
//! cheaper than the write path, but not wait-free.

use super::stm::Dstm;
use super::tvar::TVarInner;
use super::tx::Tx;
use crate::api::{TxResult, WordStm, WordTx};
use crate::notify::CommitNotifier;
use crate::reclaim::RetiredBlock;
use crate::record;
use crate::table::{Pinned, VarTable};
use oftm_histories::{TVarId, TxId, Value};
use oftm_obs::{Counter, StmStats};
use std::sync::Arc;

/// A [`Dstm`] with a word-sized t-variable table, implementing [`WordStm`]:
/// the one front end of the DSTM engine.
///
/// The table is a shared [`VarTable`], so t-variables allocated with
/// [`WordStm::alloc_tvar`] — including mid-transaction — are immediately
/// visible to every running transaction. Retired blocks are evicted after
/// a grace period (see [`crate::reclaim`]). The table owns the state and
/// evicts it into the instance's reclamation domain, so what a zombie
/// transaction's read-set borrowed (the state and its locators) stays
/// allocated until the zombie's guard is released.
pub struct DstmWord {
    stm: Dstm,
    /// Built in `stm`'s domain: a transaction's one guard covers its
    /// table lookups and its locators alike.
    pub(super) vars: VarTable<TVarInner>,
    notify: CommitNotifier,
    /// This table mirrors another engine's allocator of record
    /// ([`DstmWord::as_mirror`]): its t-variables are not counted.
    mirror: bool,
}

impl DstmWord {
    pub fn new(stm: Dstm) -> Self {
        DstmWord {
            vars: VarTable::in_domain(Arc::clone(stm.domain())),
            stm,
            notify: CommitNotifier::new(),
            mirror: false,
        }
    }

    /// Makes this table a mirror of an embedding backend's allocator of
    /// record, which counts every t-variable already: registrations,
    /// evictions and frees here copy that allocator's, and are not counted
    /// in `TvarsAllocated` / `TvarsFreed` a second time.
    pub fn as_mirror(mut self) -> Self {
        self.mirror = true;
        self
    }

    /// Adds `n` to a t-variable count (`TvarsAllocated`, `TvarsFreed`),
    /// unless this table is a mirror.
    fn count_tvars(&self, counter: Counter, n: u64) {
        if !self.mirror {
            self.stm.stats().add(counter, n);
        }
    }

    /// Publishes commits to `notify` instead of an endpoint of its own
    /// (an embedding backend hands every engine a clone of its notifier).
    pub fn with_notifier(mut self, notify: CommitNotifier) -> Self {
        self.notify = notify;
        self
    }

    /// The engine's configuration and shared words.
    pub fn inner(&self) -> &Dstm {
        &self.stm
    }

    /// Reads a t-variable non-transactionally (test oracle).
    pub fn peek(&self, x: TVarId) -> Option<Value> {
        let pin = self.stm.domain().begin();
        self.vars.get_ref_in(x, &pin).map(|v| v.read_atomic(&pin))
    }

    /// Visits every live t-variable with its current committed value.
    /// Exact only while no writer is in flight (racy snapshot otherwise) —
    /// the hybrid's migration barrier provides that quiescence.
    ///
    /// Retired blocks whose grace period has elapsed are evicted first, as
    /// `VersionedLockStm::for_each_live_value` does, and every process's
    /// bag is settled: the caller that quiesced this engine to migrate
    /// away from it will run no further transaction here to do it.
    pub fn for_each_live_value(&self, mut f: impl FnMut(TVarId, Value)) {
        self.live_tvars(); // settles every parked bag and the bins
        self.vars
            .for_each_live(|id, v, pin| f(id, v.read_atomic(pin)));
    }

    /// Registers `x` unless the table already holds it; `true` if it did
    /// not. For an embedding backend that mirrors another engine's ids
    /// here: a walk and an allocator racing to mirror one id agree on a
    /// winner.
    pub fn register_tvar_if_absent(&self, x: TVarId, initial: Value) -> bool {
        let inserted = self.vars.insert_if_absent(x, TVarInner::new(x, initial));
        if inserted {
            self.count_tvars(Counter::TvarsAllocated, 1);
        }
        inserted
    }

    /// Evicts every t-variable and settles every process's bag: the
    /// embedding backend stops mirroring. The caller provides quiescence.
    pub fn evict_all(&self) {
        self.live_tvars();
        let mut evicted = 0;
        self.vars
            .for_each_live(|id, _, _| evicted += u64::from(self.vars.remove(id)));
        self.count_tvars(Counter::TvarsFreed, evicted);
    }

    /// The transaction [`WordStm::begin`] (`ro`: [`WordStm::begin_ro`])
    /// hands out, before the recorder's wrapper.
    #[inline]
    pub(super) fn begin_tx(&self, proc: u32, ro: bool) -> Box<DstmWordTx<'_>> {
        if ro {
            // `Begins` counts every begin (`Dstm::begin` increments it);
            // `BeginsRo` counts the declared read-only subset.
            self.stm.stats().incr(Counter::BeginsRo);
        }
        Box::new(DstmWordTx {
            tx: self.stm.begin(proc),
            word: self,
            retired: Vec::new(),
            ro,
            conflict_hint: None,
        })
    }

    fn begin_inner(&self, proc: u32, ro: bool) -> Box<dyn WordTx + '_> {
        record::observe(self.stm.recorder(), self.begin_tx(proc, ro))
    }
}

/// The engine's transaction plus what the word interface adds. Its
/// footprint is what the engine logs anyway — the read-set and, in its
/// pooled scratch, `written` (recorded at op entry; what a successful
/// commit publishes to the commit notifier) — plus the variable a read
/// aborted on before it reached the read-set, so the async runtime parks
/// on everything the attempt tried to access.
pub(super) struct DstmWordTx<'s> {
    /// Holds the transaction's one registration: dropping it (any abort
    /// path) releases it and discards the retire-set with the transaction.
    pub(super) tx: Tx<'s>,
    word: &'s DstmWord,
    retired: Vec<RetiredBlock>,
    /// Declared read-only: writes and retires panic (caller bug), and the
    /// commit takes the CAS-free read-only completion unconditionally.
    ro: bool,
    /// The variable an operation aborted on: not necessarily in either
    /// log, but part of the footprint a parked re-run must wake on.
    conflict_hint: Option<TVarId>,
}

impl DstmWordTx<'_> {
    /// Looks `x` up for the operation at hand.
    fn var(&self, x: TVarId) -> Pinned<TVarInner> {
        let var = self.word.vars.get_ref_or_panic_in(x, self.tx.guard());
        // SAFETY: loaded under the transaction's guard, of the domain the
        // table retires into, and dereferenced by the calling operation
        // only — which cannot borrow it from `self.tx` and mutate that.
        unsafe { Pinned::new(var) }
    }
}

impl WordTx for DstmWordTx<'_> {
    fn id(&self) -> TxId {
        self.tx.id()
    }

    fn read(&mut self, x: TVarId) -> TxResult<Value> {
        let var = self.var(x);
        let r = self.tx.read_var(&var);
        if r.is_err() {
            self.conflict_hint = Some(x);
        }
        r
    }

    fn write(&mut self, x: TVarId, v: Value) -> TxResult<()> {
        assert!(!self.ro, "dstm: write on a declared read-only transaction");
        let var = self.var(x);
        self.tx.scratch.written.push(x);
        self.tx.write_var(&var, v)
    }

    fn try_commit(mut self: Box<Self>) -> TxResult<()> {
        // Detect-on-commit promotion: a transaction that wrote nothing
        // installed no locators, so its descriptor is unreachable from
        // every t-variable and the status CAS publishes nothing — take
        // the validate-only read-only completion. Declared read-only
        // transactions (`begin_ro`) land here by construction.
        let r = if self.ro {
            self.tx.complete_read_only(Counter::CommitsRo)
        } else if self.tx.scratch.written.is_empty() {
            self.tx.complete_read_only(Counter::CommitsPromoted)
        } else {
            self.tx.complete()
        };
        if r.is_ok() {
            // The commit's status CAS made the new values current: wake
            // transactions parked on what we wrote.
            let written = &self.tx.scratch.written;
            if !written.is_empty() {
                self.word.notify.publish(written.iter().copied());
            }
            // Release the registration, hand over the locators and the
            // retire-set as one batch and evict every block whose grace
            // period has elapsed.
            let DstmWordTx {
                mut tx,
                word,
                retired,
                ..
            } = *self;
            let evicted = tx.retire_into(&word.vars, retired);
            word.count_tvars(Counter::TvarsFreed, evicted);
        }
        r
    }

    fn try_abort(self: Box<Self>) {
        self.tx.rollback();
    }

    fn retire_tvar_block(&mut self, base: TVarId, len: usize) {
        assert!(!self.ro, "dstm: retire on a declared read-only transaction");
        self.retired.push(RetiredBlock { base, len });
    }

    fn footprint(&self, out: &mut Vec<TVarId>) {
        out.extend(self.tx.read_ids());
        out.extend_from_slice(&self.tx.scratch.written);
        out.extend(self.conflict_hint);
    }
}

impl WordStm for DstmWord {
    fn name(&self) -> &'static str {
        "dstm"
    }

    fn register_tvar(&self, x: TVarId, initial: Value) {
        if self.vars.insert(x, TVarInner::new(x, initial)) {
            self.count_tvars(Counter::TvarsAllocated, 1);
        }
    }

    fn alloc_tvar_block(&self, initials: &[Value]) -> TVarId {
        self.count_tvars(Counter::TvarsAllocated, initials.len() as u64);
        self.vars.alloc_block(initials, TVarInner::new)
    }

    fn free_tvar_block(&self, base: TVarId, len: usize) {
        self.count_tvars(Counter::TvarsFreed, len as u64);
        self.vars.remove_block(base, len);
    }

    fn live_tvars(&self) -> usize {
        let evicted = self
            .vars
            .evict_ripe_parked(self.stm.scratch(), |s| &mut s.bag);
        self.count_tvars(Counter::TvarsFreed, evicted);
        self.vars.len()
    }

    fn begin(&self, proc: u32) -> Box<dyn WordTx + '_> {
        self.begin_inner(proc, false)
    }

    fn begin_ro(&self, proc: u32) -> Box<dyn WordTx + '_> {
        self.begin_inner(proc, true)
    }

    fn notifier(&self) -> &CommitNotifier {
        &self.notify
    }

    fn stats(&self) -> &StmStats {
        self.stm.stats()
    }

    fn is_obstruction_free(&self) -> bool {
        matches!(self.stm.progress(), super::stm::Progress::ObstructionFree)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{run_transaction, TxError};
    use crate::cm::Courteous;
    use crate::record::Recorder;

    fn word_stm() -> DstmWord {
        DstmWord::new(Dstm::new(Arc::new(Courteous)))
    }

    #[test]
    fn word_roundtrip() {
        let s = word_stm();
        s.register_tvar(TVarId(0), 10);
        let (v, _) = run_transaction(&s, 1, |tx| {
            let v = tx.read(TVarId(0))?;
            tx.write(TVarId(0), v + 1)?;
            Ok(v)
        });
        assert_eq!(v, 10);
        assert_eq!(s.peek(TVarId(0)), Some(11));
    }

    #[test]
    fn word_abort_path() {
        let s = word_stm();
        s.register_tvar(TVarId(0), 1);
        let mut tx = s.begin(1);
        assert_eq!(tx.read(TVarId(0)).unwrap(), 1);
        tx.try_abort();
        assert_eq!(s.peek(TVarId(0)), Some(1));
    }

    #[test]
    fn recorder_sees_high_level_events() {
        let rec = Arc::new(Recorder::new());
        let s = DstmWord::new(Dstm::default().with_recorder(Arc::clone(&rec)));
        s.register_tvar(TVarId(0), 0);
        let _ = run_transaction(&s, 1, |tx| {
            let v = tx.read(TVarId(0))?;
            tx.write(TVarId(0), v + 1)
        });
        let h = rec.snapshot();
        let views = h.tx_views();
        assert_eq!(views.len(), 1);
        let v = views.values().next().unwrap();
        assert_eq!(v.status, oftm_histories::TxStatus::Committed);
        assert_eq!(v.read_set.len(), 1);
        assert_eq!(v.write_set.len(), 1);
        // Low-level steps were also recorded.
        assert!(h.iter().any(|te| te.event.is_step()));
        // And the run is serializable per Definition 1.
        assert!(oftm_histories::serializable(&h, 8).is_serializable());
    }

    /// Two transactions on disjoint t-variables, back to back under a
    /// recorder: the strict-DAP violations and the commit counter's id.
    fn disjoint_pair(
        run: impl Fn(&DstmWord, u32, TVarId),
    ) -> (Vec<oftm_histories::DapViolation>, oftm_histories::BaseObjId) {
        let rec = Arc::new(Recorder::new());
        let s = DstmWord::new(Dstm::default().with_recorder(Arc::clone(&rec)));
        s.register_tvar(TVarId(0), 0);
        s.register_tvar(TVarId(1), 0);
        run(&s, 0, TVarId(0));
        run(&s, 1, TVarId(1));
        let counter = s.inner().commit_counter_base();
        (oftm_histories::check_strict_dap(&rec.snapshot()), counter)
    }

    #[test]
    fn disjoint_updates_conflict_on_the_commit_counter_only() {
        // The trade the gate makes, reported exactly: both bump one word.
        let (violations, counter) = disjoint_pair(|s, p, x| {
            run_transaction(s, p, |tx| {
                let v = tx.read(x)?;
                tx.write(x, v + 1)
            });
        });
        assert!(
            !violations.is_empty() && violations.iter().all(|v| v.obj == counter),
            "disjoint DSTM updates must meet on the commit counter {counter} \
             and nowhere else, got {violations:?}"
        );
    }

    #[test]
    fn disjoint_read_only_transactions_share_no_written_object() {
        let (violations, _) = disjoint_pair(|s, p, x| {
            let mut tx = s.begin_ro(p);
            tx.read(x).unwrap();
            tx.try_commit().unwrap();
        });
        assert!(
            violations.is_empty(),
            "read-only DSTM transactions must not write shared memory, got {violations:?}"
        );
    }

    #[test]
    fn footprint_names_reads_writes_and_the_variable_an_op_aborted_on() {
        // Aggressive: the peer's write below kills `tx` outright.
        let s = DstmWord::new(Dstm::default());
        for x in 0..4 {
            s.register_tvar(TVarId(x), 0);
        }
        let mut tx = s.begin(1);
        tx.read(TVarId(0)).unwrap();
        tx.read(TVarId(0)).unwrap();
        tx.write(TVarId(1), 1).unwrap();
        run_transaction(&s, 2, |peer| peer.write(TVarId(1), 2));
        // Killed: the read of 2 aborts before it reaches the read-set.
        assert_eq!(tx.read(TVarId(2)), Err(TxError::Aborted));
        let mut footprint = Vec::new();
        tx.footprint(&mut footprint);
        footprint.sort_unstable();
        footprint.dedup();
        assert_eq!(footprint, [TVarId(0), TVarId(1), TVarId(2)]);
    }

    #[test]
    #[should_panic(expected = "not registered")]
    fn unregistered_var_panics() {
        let s = word_stm();
        let mut tx = s.begin(1);
        let _ = tx.read(TVarId(42));
    }

    #[test]
    fn alloc_inside_transaction_is_usable_immediately() {
        let s = word_stm();
        s.register_tvar(TVarId(0), 0);
        let (node, _) = run_transaction(&s, 1, |tx| {
            let node = s.alloc_tvar_block(&[7, 8]);
            let v = tx.read(TVarId(node.0))?;
            tx.write(TVarId(node.0 + 1), v + 100)?;
            tx.write(TVarId(0), node.0)?;
            Ok(node)
        });
        assert!(node.0 >= crate::table::DYNAMIC_TVAR_BASE);
        assert_eq!(s.peek(node), Some(7));
        assert_eq!(s.peek(TVarId(node.0 + 1)), Some(107));
        assert_eq!(s.peek(TVarId(0)), Some(node.0));
    }

    #[test]
    fn alloc_survives_allocating_tx_abort() {
        let s = word_stm();
        s.register_tvar(TVarId(0), 0);
        let mut tx = s.begin(1);
        let node = s.alloc_tvar(42);
        tx.write(TVarId(0), node.0).unwrap();
        tx.try_abort();
        // The publishing write rolled back; the allocation itself stays.
        assert_eq!(s.peek(TVarId(0)), Some(0));
        assert_eq!(s.peek(node), Some(42));
    }

    #[test]
    fn retire_frees_after_commit_but_not_after_abort() {
        let s = word_stm();
        s.register_tvar(TVarId(0), 0);
        let node = s.alloc_tvar_block(&[1, 2]);
        assert_eq!(s.live_tvars(), 3);

        // Abort path: the retire-set dies with the transaction.
        let mut tx = s.begin(1);
        tx.retire_tvar_block(node, 2);
        tx.try_abort();
        assert_eq!(s.live_tvars(), 3, "aborted retire must not free");
        assert_eq!(s.peek(node), Some(1));

        // Commit path, no other transaction in flight: freed immediately.
        let mut tx = s.begin(1);
        tx.write(TVarId(0), 7).unwrap();
        tx.retire_tvar_block(node, 2);
        tx.try_commit().unwrap();
        assert_eq!(s.live_tvars(), 1);
        assert_eq!(s.peek(node), None);
    }

    #[test]
    fn grace_period_protects_in_flight_readers() {
        let s = word_stm();
        s.register_tvar(TVarId(0), 0);
        let node = s.alloc_tvar(5);
        // A reader in flight before the retiring commit…
        let mut reader = s.begin(1);
        assert_eq!(reader.read(node).unwrap(), 5);
        // …delays the free past the committing retirer, whose bag keeps
        // the block; the shared bins see none of it.
        let mut retirer = s.begin(2);
        retirer.retire_tvar_block(node, 1);
        retirer.try_commit().unwrap();
        assert_eq!(piled(&s, 2), 1, "the block waits in the retirer's bag");
        assert_eq!(s.stm.domain().pending_blocks(), 0);
        assert_eq!(s.live_tvars(), 2, "block must survive the reader");
        assert_eq!(s.peek(node), Some(5));
        reader.try_abort();
        // Quiescent: the count settles the bag — the block is evicted and
        // its state, retired after the tombstone, freed.
        assert_eq!(s.live_tvars(), 1);
        assert_eq!(piled(&s, 2), 0);
        assert_eq!(s.stm.domain().pending_blocks(), 0);
        assert_eq!(s.peek(node), None);
    }

    /// Items waiting in process `p`'s bag.
    fn piled(s: &DstmWord, p: u32) -> usize {
        let scratch = s.stm.scratch().take(p as usize).expect("parked scratch");
        let piled = scratch.bag.len();
        s.stm.scratch().put(p as usize, scratch);
        piled
    }

    /// A process has one bag: a commit that unlinks `k` locators and
    /// retires a block under a registered peer piles `k + 1` items there
    /// under one tag, and the shared bins see none of them.
    #[test]
    fn a_word_commit_piles_its_locators_and_its_block_in_one_bag() {
        const K: u64 = 3;
        let s = word_stm();
        for x in 0..K {
            s.register_tvar(TVarId(x), 0);
        }
        let node = s.alloc_tvar_block(&[1, 2]);
        let write_all = |v| {
            run_transaction(&s, 1, |tx| (0..K).try_for_each(|x| tx.write(TVarId(x), v)));
        };
        // The first writes unlink nothing: `T_0`'s value is inline.
        write_all(1);
        assert_eq!(piled(&s, 1), 0);
        let peer = s.begin(2);
        run_transaction(&s, 1, |tx| {
            (0..K).try_for_each(|x| tx.write(TVarId(x), 2))?;
            tx.retire_tvar_block(node, 2);
            Ok(())
        });
        assert_eq!(piled(&s, 1), K as usize + 1, "one bag, every item");
        assert_eq!(s.stm.domain().pending_memory(), 0);
        assert_eq!(s.stm.domain().pending_blocks(), 0);
        drop(peer);
        // Quiescent: the block is evicted, its states and the locators
        // freed, from the one bag.
        assert_eq!(s.live_tvars(), K as usize);
        assert_eq!(piled(&s, 1), 0);
        assert_eq!(s.peek(node), None);
    }

    /// An aborted attempt has no table to evict with: one whose reclaim
    /// finds the process's retired block ripe puts it back in the bag
    /// under a later tag, and the count evicts it — never dropped.
    #[test]
    fn an_abort_that_finds_a_ripe_block_leaves_it_for_the_table() {
        let s = word_stm();
        s.register_tvar(TVarId(0), 0);
        let node = s.alloc_tvar(5);
        let peer = s.begin(2);
        run_transaction(&s, 1, |tx| {
            tx.retire_tvar_block(node, 1);
            Ok(())
        });
        drop(peer);
        let mut tx = s.begin(1);
        tx.write(TVarId(0), 1).unwrap();
        tx.try_abort();
        assert_eq!(piled(&s, 1), 1, "the block is back in the bag");
        assert_eq!(s.live_tvars(), 1);
        assert_eq!(s.peek(node), None);
    }

    /// A retirement parked behind an in-flight peer is still evicted when
    /// the engine is walked at quiescence with no later commit to flush it
    /// — what the hybrid does to the engine it migrates away from.
    #[test]
    fn live_walk_evicts_retired_blocks_past_their_grace() {
        let s = word_stm();
        s.register_tvar(TVarId(0), 0);
        let blk = s.alloc_tvar_block(&[1, 2]);
        let peer = s.begin(1);
        let mut tx = s.begin(2);
        tx.retire_tvar_block(blk, 2);
        tx.try_commit().expect("nothing to conflict with");
        assert_eq!(s.live_tvars(), 3, "the peer may still read the block");
        drop(peer);

        let mut walked = Vec::new();
        s.for_each_live_value(|id, _| walked.push(id));
        assert_eq!(walked, [TVarId(0)]);
        assert_eq!(s.live_tvars(), 1);
        assert_eq!(s.stm.domain().pending_blocks(), 0);
    }

    #[test]
    fn mirror_registration_keeps_the_incumbent_and_eviction_empties() {
        let s = word_stm();
        assert!(s.register_tvar_if_absent(TVarId(3), 5));
        assert!(!s.register_tvar_if_absent(TVarId(3), 6));
        assert_eq!(s.peek(TVarId(3)), Some(5));
        s.alloc_tvar_block(&[1, 2]);
        s.evict_all();
        assert_eq!(s.live_tvars(), 0);
        assert_eq!(s.peek(TVarId(3)), None);
    }

    #[test]
    #[should_panic(expected = "not registered")]
    fn freed_id_read_panics_with_uniform_diagnostic() {
        let s = word_stm();
        let node = s.alloc_tvar(5);
        s.free_tvar_block(node, 1);
        let mut tx = s.begin(1);
        let _ = tx.read(node);
    }

    #[test]
    fn ro_commit_validates_and_succeeds() {
        let s = word_stm();
        s.register_tvar(TVarId(0), 3);
        s.register_tvar(TVarId(1), 4);
        let mut tx = s.begin_ro(1);
        assert_eq!(tx.read(TVarId(0)).unwrap(), 3);
        assert_eq!(tx.read(TVarId(1)).unwrap(), 4);
        tx.try_commit().unwrap();
    }

    #[test]
    fn ro_stale_read_aborts_at_commit() {
        let s = word_stm();
        s.register_tvar(TVarId(0), 0);
        let mut t1 = s.begin_ro(1);
        assert_eq!(t1.read(TVarId(0)).unwrap(), 0);
        let mut t2 = s.begin(2);
        t2.write(TVarId(0), 1).unwrap();
        t2.try_commit().unwrap();
        assert_eq!(t1.try_commit(), Err(TxError::Aborted));
    }

    #[test]
    #[should_panic(expected = "read-only")]
    fn ro_write_panics() {
        let s = word_stm();
        s.register_tvar(TVarId(0), 0);
        let mut tx = s.begin_ro(1);
        let _ = tx.write(TVarId(0), 1);
    }

    #[test]
    fn concurrent_word_counter() {
        let s = Arc::new(word_stm());
        s.register_tvar(TVarId(0), 0);
        std::thread::scope(|sc| {
            for p in 0..4u32 {
                let s = Arc::clone(&s);
                sc.spawn(move || {
                    for _ in 0..100 {
                        run_transaction(&*s, p, |tx| {
                            let v = tx.read(TVarId(0))?;
                            tx.write(TVarId(0), v + 1)
                        });
                    }
                });
            }
        });
        assert_eq!(s.peek(TVarId(0)), Some(400));
    }
}
