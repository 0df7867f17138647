//! The `Dstm` STM instance: configuration and transaction factory.

use super::descriptor::Descriptor;
use super::tx::{Scratch, Tx};
use crate::cm::{Aggressive, ContentionManager};
use crate::kernel::CommitGate;
use crate::line::Line;
use crate::pool::SlotPool;
use crate::reclaim::GraceTracker;
use crate::record::{fresh_base_id, Recorder};
use oftm_histories::{BaseObjId, TxId};
use oftm_obs::{Counter, StmStats};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Progress policy of a [`Dstm`] instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Progress {
    /// Obstruction-free per Definition 2: a live owner can be aborted
    /// immediately (subject only to the contention manager's bounded
    /// courtesy).
    ObstructionFree,
    /// Eventually ic-obstruction-free per Definition 4: a live owner is
    /// protected by a grace period from the first conflict; within it,
    /// conflicting transactions wait (even if the owner's process crashed).
    /// This deliberately weakens the progress guarantee to the one
    /// Theorem 6 starts from.
    EventualGrace(Duration),
}

/// A DSTM-style obstruction-free software transactional memory: the
/// engine's configuration (contention manager, progress policy, recorder,
/// telemetry) and its shared words.
///
/// Build one, configure it with the `with_*` builders and hand it to
/// [`super::DstmWord::new`], which owns its t-variables and runs its
/// transactions through the uniform [`crate::api::WordStm`] interface.
pub struct Dstm {
    cm: Arc<dyn ContentionManager>,
    progress: Progress,
    recorder: Option<Arc<Recorder>>,
    epoch: Instant,
    /// Begin sequence numbers, the `TxId` counter. Every begin writes
    /// it, so it is boxed on a [`Line`] of its own.
    tx_seq: Box<Line<AtomicU32>>,
    /// Commit counter gating read-set validation (see [`super::tx`]): the
    /// one word every transaction of this instance shares. Boxed for the
    /// reason a [`Line`] is: the counter's cache-line alignment is the
    /// heap block's, not `Dstm`'s, which other structs embed.
    gate: Box<CommitGate<AtomicU64>>,
    gate_base: BaseObjId,
    /// Every transaction registers here, once, and everything the
    /// instance unlinks retires here: locators, and the word-level table's
    /// retired blocks and evicted states, into their process's bag (in
    /// `scratch`); the abort path's frees into the shared bins.
    domain: Arc<GraceTracker>,
    /// Pooled per-transaction buffers and each process's one bag (keyed
    /// by process), recycled across transactions so the steady state
    /// allocates nothing per attempt.
    scratch: SlotPool<Scratch>,
    /// Always-on telemetry: begins/commits/aborts-by-cause, attempts and
    /// parks, and the word-level adapter's ([`super::word`]) t-variable
    /// counts. Behind an `Arc` so an embedding backend (the hybrid) can
    /// share one registry across engines.
    stats: Arc<StmStats>,
}

impl Default for Dstm {
    fn default() -> Self {
        Dstm::new(Arc::new(Aggressive))
    }
}

impl Dstm {
    /// Creates an obstruction-free instance with the given contention
    /// manager.
    pub fn new(cm: Arc<dyn ContentionManager>) -> Self {
        Dstm {
            cm,
            progress: Progress::ObstructionFree,
            recorder: None,
            epoch: Instant::now(),
            tx_seq: Box::default(),
            gate: Box::default(),
            gate_base: fresh_base_id(),
            domain: Arc::default(),
            scratch: SlotPool::new(),
            stats: Arc::new(StmStats::new()),
        }
    }

    /// Replaces the telemetry registry with a shared one (the hybrid
    /// backend routes both embedded engines into a single registry).
    pub fn with_stats(mut self, stats: Arc<StmStats>) -> Self {
        self.stats = stats;
        self
    }

    /// Starts transaction sequence numbers at `base`, so two engines
    /// embedded behind one facade (and one recorder) never mint colliding
    /// `TxId`s for the same process.
    pub fn with_tx_base(self, base: u32) -> Self {
        // ord: Relaxed — single-threaded builder; atomicity alone keeps
        // later ids unique.
        self.tx_seq.store(base, Ordering::Relaxed);
        self
    }

    /// The telemetry registry of this instance. Counters use relaxed sharded atomics; reading them is
    /// always safe and never perturbs transactions.
    pub fn stats(&self) -> &StmStats {
        &self.stats
    }

    pub(crate) fn scratch(&self) -> &SlotPool<Scratch> {
        &self.scratch
    }

    /// Switches the instance to the eventually-ic progress policy with the
    /// given grace period (see [`Progress::EventualGrace`]).
    pub fn with_grace(mut self, grace: Duration) -> Self {
        self.progress = Progress::EventualGrace(grace);
        self
    }

    /// Attaches a low-level history recorder (instrumented runs).
    pub fn with_recorder(mut self, rec: Arc<Recorder>) -> Self {
        self.recorder = Some(rec);
        self
    }

    pub fn cm(&self) -> &dyn ContentionManager {
        &*self.cm
    }

    pub fn progress(&self) -> Progress {
        self.progress
    }

    pub(crate) fn recorder(&self) -> Option<&Recorder> {
        self.recorder.as_deref()
    }

    pub(crate) fn gate(&self) -> &CommitGate<AtomicU64> {
        &self.gate
    }

    pub(crate) fn domain(&self) -> &Arc<GraceTracker> {
        &self.domain
    }

    /// Base-object identity of the commit counter: what the strict-DAP
    /// checkers name when t-variable-disjoint transactions meet on it.
    pub fn commit_counter_base(&self) -> BaseObjId {
        self.gate_base
    }

    /// Nanoseconds since this instance was created.
    pub fn now_nanos(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Begins a transaction on behalf of process `proc`.
    ///
    /// Per footnote 3 of the paper, the transaction id combines the process
    /// id with a counter; we use a global counter, which also yields unique
    /// ids.
    pub(crate) fn begin(&self, proc: u32) -> Tx<'_> {
        // ord: Relaxed — atomicity alone keeps transaction ids unique.
        let seq = self.tx_seq.fetch_add(1, Ordering::Relaxed);
        let desc = Arc::new(Descriptor::new(TxId::new(proc, seq)));
        self.stats.incr(Counter::Begins);
        Tx::new(self, desc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{run_transaction, WordStm};
    use crate::cm::Courteous;
    use crate::dstm::DstmWord;
    use oftm_histories::TVarId;

    /// One read-increment-write transaction on `x`.
    fn increment(s: &DstmWord, p: u32, x: TVarId) {
        run_transaction(s, p, |tx| {
            let v = tx.read(x)?;
            tx.write(x, v + 1)
        });
    }

    #[test]
    fn atomically_counter_increment() {
        let stm = DstmWord::new(Dstm::default());
        let x = stm.alloc_tvar(0);
        for i in 0..10 {
            increment(&stm, 0, x);
            assert_eq!(stm.peek(x), Some(i + 1));
        }
    }

    #[test]
    fn the_begin_counter_has_a_line_pair_of_its_own() {
        let stm = Dstm::default();
        assert!(crate::line::isolated_from(&**stm.tx_seq, &stm));
    }

    #[test]
    fn unique_tvar_ids() {
        let stm = DstmWord::new(Dstm::default());
        let a = stm.alloc_tvar(0);
        let b = stm.alloc_tvar(0);
        assert_ne!(a, b);
    }

    #[test]
    fn concurrent_counter_is_linear() {
        let stm = DstmWord::new(Dstm::new(Arc::new(Courteous)));
        let x = stm.alloc_tvar(0);
        const THREADS: u32 = 4;
        const PER: u64 = 250;
        std::thread::scope(|s| {
            for p in 0..THREADS {
                let stm = &stm;
                s.spawn(move || {
                    for _ in 0..PER {
                        increment(stm, p, x);
                    }
                });
            }
        });
        assert_eq!(stm.peek(x), Some(u64::from(THREADS) * PER));
    }

    #[test]
    fn concurrent_disjoint_vars_no_interference() {
        let stm = DstmWord::new(Dstm::default());
        let vars: Vec<_> = (0..4).map(|_| stm.alloc_tvar(0)).collect();
        std::thread::scope(|s| {
            for (p, &v) in vars.iter().enumerate() {
                let stm = &stm;
                s.spawn(move || {
                    for _ in 0..500 {
                        increment(stm, p as u32, v);
                    }
                });
            }
        });
        for &v in &vars {
            assert_eq!(stm.peek(v), Some(500));
        }
    }

    #[test]
    fn multi_var_invariant_preserved() {
        // Transfer between two accounts; total must be conserved at every
        // commit point.
        let stm = DstmWord::new(Dstm::new(Arc::new(Courteous)));
        let (a, b) = (stm.alloc_tvar(500), stm.alloc_tvar(500));
        std::thread::scope(|s| {
            for p in 0..4u32 {
                let stm = &stm;
                s.spawn(move || {
                    for i in 0..200u64 {
                        let amount = i % 7;
                        run_transaction(stm, p, |tx| {
                            let va = tx.read(a)?;
                            let vb = tx.read(b)?;
                            if va >= amount {
                                tx.write(a, va - amount)?;
                                tx.write(b, vb + amount)?;
                            }
                            Ok(())
                        });
                    }
                });
            }
            // Concurrent observers check the invariant transactionally.
            for p in 4..6u32 {
                let stm = &stm;
                s.spawn(move || {
                    for _ in 0..200 {
                        let (total, _) = run_transaction(stm, p, |tx| {
                            let va = tx.read(a)?;
                            let vb = tx.read(b)?;
                            Ok(va + vb)
                        });
                        assert_eq!(total, 1000);
                    }
                });
            }
        });
        assert_eq!(stm.peek(a).unwrap() + stm.peek(b).unwrap(), 1000);
    }

    #[test]
    fn attempts_reported() {
        let stm = DstmWord::new(Dstm::default());
        let x = stm.alloc_tvar(0);
        let (v, attempts) = run_transaction(&stm, 0, |tx| tx.read(x));
        assert_eq!(v, 0);
        assert_eq!(attempts, 1);
    }

    #[test]
    fn grace_policy_configured() {
        let stm = Dstm::default().with_grace(Duration::from_millis(1));
        assert!(matches!(stm.progress(), Progress::EventualGrace(_)));
    }
}
