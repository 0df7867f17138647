//! The `Dstm` configuration: what [`super::DstmWord::new`] builds an
//! instance from.

use crate::cm::{Aggressive, ContentionManager};
use crate::record::Recorder;
use oftm_obs::StmStats;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Progress policy of a DSTM instance.
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

/// The configuration of a DSTM-style obstruction-free software
/// transactional memory: contention manager, progress policy, recorder,
/// telemetry and the first transaction sequence number.
///
/// Build one, configure it with the `with_*` builders and hand it to
/// [`super::DstmWord::new`], which owns the instance's shared words and
/// t-variables and runs its transactions through the uniform
/// [`crate::api::WordStm`] interface.
pub struct Dstm {
    pub(super) cm: Arc<dyn ContentionManager>,
    pub(super) progress: Progress,
    pub(super) recorder: Option<Arc<Recorder>>,
    /// What [`Progress::EventualGrace`] measures a grace period from.
    epoch: Instant,
    /// The first begin's sequence number.
    pub(super) tx_base: u32,
    /// Always-on telemetry: begins/commits/aborts-by-cause, attempts and
    /// parks, and the t-variable counts. Behind an `Arc` so an embedding
    /// backend (the hybrid) can share one registry across engines.
    pub(super) stats: Arc<StmStats>,
}

impl Default for Dstm {
    fn default() -> Self {
        Dstm::new(Arc::new(Aggressive))
    }
}

impl Dstm {
    /// An obstruction-free configuration with the given contention
    /// manager.
    pub fn new(cm: Arc<dyn ContentionManager>) -> Self {
        Dstm {
            cm,
            progress: Progress::ObstructionFree,
            recorder: None,
            epoch: Instant::now(),
            tx_base: 0,
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
    pub fn with_tx_base(mut self, base: u32) -> Self {
        self.tx_base = base;
        self
    }

    /// Switches to the eventually-ic progress policy with the given grace
    /// period (see [`Progress::EventualGrace`]).
    pub fn with_grace(mut self, grace: Duration) -> Self {
        self.progress = Progress::EventualGrace(grace);
        self
    }

    /// Attaches a low-level history recorder (instrumented runs).
    pub fn with_recorder(mut self, rec: Arc<Recorder>) -> Self {
        self.recorder = Some(rec);
        self
    }

    pub fn progress(&self) -> Progress {
        self.progress
    }

    /// Nanoseconds since this configuration was created.
    pub(super) fn now_nanos(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
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
        let stm = DstmWord::new(Dstm::default());
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
