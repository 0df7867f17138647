//! The `Dstm` STM instance: configuration, transaction factory, and the
//! `atomically` retry loop.

use super::descriptor::Descriptor;
use super::tvar::TVar;
use super::tx::{Scratch, Tx};
use crate::api::{TxError, TxResult};
use crate::cm::{Aggressive, ContentionManager};
use crate::kernel::CommitGate;
use crate::line::Line;
use crate::pool::SlotPool;
use crate::reclaim::GraceTracker;
use crate::record::{fresh_base_id, Recorder};
use oftm_histories::{BaseObjId, TVarId, TxId};
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

/// A DSTM-style obstruction-free software transactional memory.
///
/// Create one instance per logical memory; create t-variables with
/// [`Dstm::new_tvar`] and run transactions with [`Dstm::atomically`] or the
/// explicit [`Dstm::begin`] / [`Tx::commit`] pair.
pub struct Dstm {
    cm: Arc<dyn ContentionManager>,
    progress: Progress,
    recorder: Option<Arc<Recorder>>,
    epoch: Instant,
    /// Begin sequence numbers, the `TxId` counter. Every begin writes
    /// it, so it is boxed on a [`Line`] of its own.
    tx_seq: Box<Line<AtomicU32>>,
    tvar_seq: AtomicU32,
    /// Commit counter gating read-set validation (see [`super::tx`]): the
    /// one word every transaction of this instance shares. Boxed for the
    /// reason a [`Line`] is: the counter's cache-line alignment is the
    /// heap block's, not `Dstm`'s, which other structs embed.
    gate: Box<CommitGate<AtomicU64>>,
    gate_base: BaseObjId,
    /// Every transaction registers here, once, and everything the
    /// instance unlinks retires here: locators, and the word-level table's
    /// retired blocks and evicted states, into their process's bag (in
    /// `scratch`); the state behind a dropped [`TVar`] and the abort
    /// path's frees into the shared bins.
    domain: Arc<GraceTracker>,
    /// Pooled per-transaction buffers and each process's one bag (keyed
    /// by process), recycled across transactions so the steady state
    /// allocates nothing per attempt.
    scratch: SlotPool<Scratch>,
    /// Always-on telemetry: begins/commits/aborts-by-cause, attempts and
    /// parks. Shared with the word-level adapter ([`super::word`]),
    /// so one registry covers both API layers of this instance. Behind an
    /// `Arc` so an embedding backend (the hybrid) can share one registry
    /// across engines.
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
            tvar_seq: AtomicU32::new(0),
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

    /// The telemetry registry of this instance (shared with the word-level
    /// adapter). Counters use relaxed sharded atomics; reading them is
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

    /// Creates a fresh t-variable managed by this instance.
    pub fn new_tvar<T: Clone + Send + Sync + 'static>(&self, initial: T) -> TVar<T> {
        // ord: Relaxed — atomicity alone keeps ids unique; the t-variable
        // itself is published by the registry's Release install.
        let id = TVarId(u64::from(self.tvar_seq.fetch_add(1, Ordering::Relaxed)));
        TVar::new(id, initial, Arc::clone(&self.domain))
    }

    /// Begins a transaction on behalf of process `proc`.
    ///
    /// Per footnote 3 of the paper, the transaction id combines the process
    /// id with a counter; we use a global counter, which also yields unique
    /// ids.
    pub fn begin(&self, proc: u32) -> Tx<'_> {
        // ord: Relaxed — atomicity alone keeps transaction ids unique.
        let seq = self.tx_seq.fetch_add(1, Ordering::Relaxed);
        let desc = Arc::new(Descriptor::new(TxId::new(proc, seq)));
        self.stats.incr(Counter::Begins);
        Tx::new(self, desc)
    }

    /// Runs `body` in a transaction, retrying on abort until it commits
    /// (each retry is a fresh transaction, as the paper prescribes).
    /// Returns the result of the committed attempt.
    pub fn atomically<R>(&self, proc: u32, mut body: impl FnMut(&mut Tx<'_>) -> TxResult<R>) -> R {
        self.atomically_counted(proc, &mut body).0
    }

    /// Like [`Dstm::atomically`] but also reports the number of attempts
    /// (1 = committed first try).
    pub fn atomically_counted<R>(
        &self,
        proc: u32,
        body: &mut dyn FnMut(&mut Tx<'_>) -> TxResult<R>,
    ) -> (R, u32) {
        let mut attempts = 0;
        loop {
            self.stats.incr(Counter::Attempts);
            attempts += 1;
            let mut tx = self.begin(proc);
            let committed = match body(&mut tx) {
                Ok(r) => {
                    if tx.commit().is_ok() {
                        Some(r)
                    } else {
                        None
                    }
                }
                Err(TxError::Aborted) => {
                    // body observed the abort; loop for a fresh attempt
                    None
                }
            };
            if let Some(r) = committed {
                return (r, attempts);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cm::Courteous;

    #[test]
    fn atomically_counter_increment() {
        let stm = Dstm::default();
        let x = stm.new_tvar(0u64);
        for i in 0..10 {
            stm.atomically(0, |tx| {
                let v = tx.read(&x)?;
                tx.write(&x, v + 1)
            });
            assert_eq!(x.read_atomic(), i + 1);
        }
    }

    #[test]
    fn the_begin_counter_has_a_line_pair_of_its_own() {
        let stm = Dstm::default();
        assert!(crate::line::isolated_from(&**stm.tx_seq, &stm));
    }

    #[test]
    fn unique_tvar_ids() {
        let stm = Dstm::default();
        let a = stm.new_tvar(0u64);
        let b = stm.new_tvar(0u64);
        assert_ne!(a.id(), b.id());
    }

    #[test]
    fn concurrent_counter_is_linear() {
        let stm = Arc::new(Dstm::new(Arc::new(Courteous)));
        let x = stm.new_tvar(0u64);
        const THREADS: u32 = 4;
        const PER: u64 = 250;
        std::thread::scope(|s| {
            for p in 0..THREADS {
                let stm = Arc::clone(&stm);
                let x = x.clone();
                s.spawn(move || {
                    for _ in 0..PER {
                        stm.atomically(p, |tx| {
                            let v = tx.read(&x)?;
                            tx.write(&x, v + 1)
                        });
                    }
                });
            }
        });
        assert_eq!(x.read_atomic(), u64::from(THREADS) * PER);
    }

    #[test]
    fn concurrent_disjoint_vars_no_interference() {
        let stm = Arc::new(Dstm::default());
        let vars: Vec<_> = (0..4).map(|_| stm.new_tvar(0u64)).collect();
        std::thread::scope(|s| {
            for (p, v) in vars.iter().enumerate() {
                let stm = Arc::clone(&stm);
                let v = v.clone();
                s.spawn(move || {
                    for _ in 0..500 {
                        stm.atomically(p as u32, |tx| {
                            let cur = tx.read(&v)?;
                            tx.write(&v, cur + 1)
                        });
                    }
                });
            }
        });
        for v in &vars {
            assert_eq!(v.read_atomic(), 500);
        }
    }

    #[test]
    fn multi_var_invariant_preserved() {
        // Transfer between two accounts; total must be conserved at every
        // commit point.
        let stm = Arc::new(Dstm::new(Arc::new(Courteous)));
        let a = stm.new_tvar(500i64 as u64);
        let b = stm.new_tvar(500u64);
        std::thread::scope(|s| {
            for p in 0..4u32 {
                let stm = Arc::clone(&stm);
                let (a, b) = (a.clone(), b.clone());
                s.spawn(move || {
                    for i in 0..200u64 {
                        let amount = i % 7;
                        stm.atomically(p, |tx| {
                            let va = tx.read(&a)?;
                            let vb = tx.read(&b)?;
                            if va >= amount {
                                tx.write(&a, va - amount)?;
                                tx.write(&b, vb + amount)?;
                            }
                            Ok(())
                        });
                    }
                });
            }
            // Concurrent observers check the invariant transactionally.
            for p in 4..6u32 {
                let stm = Arc::clone(&stm);
                let (a, b) = (a.clone(), b.clone());
                s.spawn(move || {
                    for _ in 0..200 {
                        let total = stm.atomically(p, |tx| {
                            let va = tx.read(&a)?;
                            let vb = tx.read(&b)?;
                            Ok(va + vb)
                        });
                        assert_eq!(total, 1000);
                    }
                });
            }
        });
        assert_eq!(a.read_atomic() + b.read_atomic(), 1000);
    }

    #[test]
    fn attempts_reported() {
        let stm = Dstm::default();
        let x = stm.new_tvar(0u64);
        let (v, attempts) = stm.atomically_counted(0, &mut |tx| tx.read(&x));
        assert_eq!(v, 0);
        assert_eq!(attempts, 1);
    }

    #[test]
    fn grace_policy_configured() {
        let stm = Dstm::default().with_grace(Duration::from_millis(1));
        assert!(matches!(stm.progress(), Progress::EventualGrace(_)));
    }
}
