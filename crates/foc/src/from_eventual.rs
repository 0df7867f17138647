//! **Algorithm 3** (Appendix A): fo-consensus from an *eventually
//! ic-obstruction-free* TM — the constructive half of Theorem 6 ("every
//! eventual ic-OFTM can implement an OFTM", via fo-consensus and Lemma 8).
//!
//! ```text
//! uses: R[1..n] – array of shared registers, V – t-variable
//! initially: R[1..n] = 0, V = ⊥, k = 0
//! upon propose(vi) do
//!   r[1..n] ← R[1..n]            (not atomic)
//!   while true do
//!     d ← vi; k ← k + 1
//!     R[i] ← R[i] + 1
//!     within transaction T_{i,k} do
//!       if V = ⊥ then V ← vi else d ← V
//!     on event C_k do return d
//!     if ∃ m≠i : r[m] ≠ R[m] then return ⊥
//! ```
//!
//! The inner TM may forcefully abort transactions even without current
//! contention (its grace period lets a crashed/suspended process obstruct
//! for a bounded time). Algorithm 3 keeps retrying; it returns `⊥` only
//! when the register array `R` proves that some *other* process took steps
//! during this `propose` — so fo-obstruction-freedom holds even though the
//! underlying TM is only eventually ic-obstruction-free (Lemma 14).

use crate::from_oftm::{decide_once, with_bottom};
use crate::traits::FoConsensus;
use oftm_core::dstm::{Dstm, DstmWord, Progress};
use oftm_histories::Value;
use std::sync::atomic::{AtomicU64, Ordering};

/// fo-consensus over an eventually-ic OFTM (Definition 4 substrate). `V`
/// and its ⊥ word are [`OftmFoc`]'s.
///
/// [`OftmFoc`]: crate::from_oftm::OftmFoc
pub struct EventualFoc {
    stm: DstmWord,
    /// The register array `R[1..n]`.
    r: Box<[AtomicU64]>,
}

impl EventualFoc {
    /// Builds the object for `n` processes on the given TM instance.
    ///
    /// Panics if the TM is strictly obstruction-free — that would be a
    /// *stronger* substrate than Algorithm 3 assumes; use [`OftmFoc`]
    /// (Algorithm 1) there instead. This guard keeps the experiment honest:
    /// Algorithm 3 is exercised against the weaker progress property it was
    /// designed for.
    ///
    /// [`OftmFoc`]: crate::from_oftm::OftmFoc
    pub fn new(stm: Dstm, n: usize) -> Self {
        assert!(
            matches!(stm.progress(), Progress::EventualGrace(_)),
            "EventualFoc expects an eventually-ic TM (use Dstm::with_grace)"
        );
        EventualFoc {
            stm: with_bottom(stm),
            r: (0..n).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// The underlying STM (its statistics, its t-variable `V`).
    pub fn stm(&self) -> &DstmWord {
        &self.stm
    }
}

impl FoConsensus<Value> for EventualFoc {
    fn propose(&self, proc: u32, vi: Value) -> Option<Value> {
        let i = proc as usize;
        assert!(i < self.r.len(), "process id out of range");

        // r[1..n] ← R[1..n] (not atomic — a plain scan).
        let snapshot: Vec<u64> = self.r.iter().map(|x| x.load(Ordering::Acquire)).collect();

        loop {
            // R[i] ← R[i] + 1: announce that we are (still) trying.
            self.r[i].fetch_add(1, Ordering::AcqRel);

            // within transaction T_{i,k} … on event C_k return d
            if let Some(d) = decide_once(&self.stm, proc, vi) {
                return Some(d);
            }

            // Aborted: give up only with evidence of a concurrent proposer.
            let contended = self
                .r
                .iter()
                .enumerate()
                .any(|(m, x)| m != i && x.load(Ordering::Acquire) != snapshot[m]);
            if contended {
                return None; // ⊥ without violating fo-obstruction-freedom
            }
            // No other proposer moved: the abort was grace-period residue
            // of the eventual-ic TM; retry (the paper's while-true loop).
        }
    }

    fn name(&self) -> &'static str {
        "eventual-foc (Algorithm 3)"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::{propose_until_decided, stress_agreement};
    use oftm_core::cm::Courteous;
    use std::sync::Arc;
    use std::time::Duration;

    fn eventual_stm() -> Dstm {
        Dstm::new(Arc::new(Courteous)).with_grace(Duration::from_micros(200))
    }

    #[test]
    #[should_panic(expected = "eventually-ic")]
    fn rejects_strict_oftm_substrate() {
        let _ = EventualFoc::new(Dstm::default(), 2);
    }

    #[test]
    fn solo_propose_decides() {
        let f = EventualFoc::new(eventual_stm(), 4);
        assert_eq!(f.propose(0, 5), Some(5));
        assert_eq!(f.propose(1, 9), Some(5));
    }

    #[test]
    fn sequential_proposes_never_abort() {
        let f = EventualFoc::new(eventual_stm(), 8);
        for p in 0..8u32 {
            assert!(
                f.propose(p, u64::from(p)).is_some(),
                "step-contention-free propose returned ⊥"
            );
        }
    }

    #[test]
    fn concurrent_agreement_under_grace() {
        for _ in 0..10 {
            let f = EventualFoc::new(eventual_stm(), 6);
            let (_d, _aborts) = stress_agreement(&f, 6);
        }
    }

    #[test]
    fn retries_converge() {
        let f = EventualFoc::new(eventual_stm(), 4);
        use std::collections::BTreeSet;
        use std::sync::Mutex;
        let decisions = Mutex::new(BTreeSet::new());
        std::thread::scope(|s| {
            for p in 0..4u32 {
                let f = &f;
                let decisions = &decisions;
                s.spawn(move || {
                    let (d, _a) = propose_until_decided(f, p, 50 + u64::from(p));
                    decisions.lock().unwrap().insert(d);
                });
            }
        });
        assert_eq!(decisions.into_inner().unwrap().len(), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_process() {
        let f = EventualFoc::new(eventual_stm(), 2);
        let _ = f.propose(5, 1);
    }
}
