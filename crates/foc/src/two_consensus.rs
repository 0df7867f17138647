//! Consensus built over fo-consensus objects — the machinery of
//! Corollary 11.
//!
//! \[6\] (Attiya, Guerraoui & Kouznetsov, DISC 2005) shows fo-consensus plus
//! registers solves consensus for 2 processes, giving the OFTM consensus
//! number its lower bound of 2; Theorem 9 shows 3 processes are impossible,
//! giving the upper bound. This module provides:
//!
//! * [`FocConsensus`] — the natural retry protocol (`propose` until non-⊥)
//!   over any [`FoConsensus`] object. Safety (agreement + validity) holds
//!   unconditionally; termination holds whenever the underlying object
//!   eventually lets some propose through — true of every foc in this
//!   crate, *not* guaranteed against the adversarial foc of Theorem 9's
//!   proof. The adversarial side is model-checked in `oftm-sim`
//!   (`valency`), where the bivalent-cycle certificate is produced.
//! * [`crate::tas::TasConsensus`] — deterministic wait-free 2-process
//!   consensus from a consensus-number-2 object, the baseline the
//!   experiments compare against.

use crate::traits::FoConsensus;

/// Retry-based consensus over a fo-consensus object.
pub struct FocConsensus<'f, T: Clone> {
    foc: &'f dyn FoConsensus<T>,
}

impl<'f, T: Clone> FocConsensus<'f, T> {
    pub fn new(foc: &'f dyn FoConsensus<T>) -> Self {
        FocConsensus { foc }
    }

    /// Proposes until the underlying object returns a decision. Returns the
    /// decision and the number of aborted attempts.
    pub fn propose(&self, proc: u32, v: T) -> (T, u64) {
        let mut aborts = 0;
        loop {
            match self.foc.propose(proc, v.clone()) {
                Some(d) => return (d, aborts),
                None => {
                    aborts += 1;
                    std::hint::spin_loop();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cas_foc::CasFoc;
    use crate::from_oftm::OftmFoc;
    use crate::splitter_foc::SplitterFoc;
    use oftm_core::cm::Courteous;
    use oftm_core::dstm::Dstm;
    use std::collections::BTreeSet;
    use std::sync::{Arc, Mutex};

    fn run_consensus<F: FoConsensus<u64>>(foc: &F, n: u32) -> BTreeSet<u64> {
        let decisions = Mutex::new(BTreeSet::new());
        std::thread::scope(|s| {
            for p in 0..n {
                let foc = &foc;
                let decisions = &decisions;
                s.spawn(move || {
                    let c = FocConsensus::new(*foc as &dyn FoConsensus<u64>);
                    let (d, _aborts) = c.propose(p, 10 + u64::from(p));
                    decisions.lock().unwrap().insert(d);
                });
            }
        });
        decisions.into_inner().unwrap()
    }

    #[test]
    fn two_process_consensus_over_cas_foc() {
        for _ in 0..50 {
            let foc = CasFoc::new();
            let d = run_consensus(&foc, 2);
            assert_eq!(d.len(), 1);
            let v = *d.iter().next().unwrap();
            assert!(v == 10 || v == 11);
        }
    }

    #[test]
    fn two_process_consensus_over_splitter_foc() {
        for _ in 0..50 {
            let foc = SplitterFoc::new();
            let d = run_consensus(&foc, 2);
            assert_eq!(d.len(), 1);
        }
    }

    #[test]
    fn two_process_consensus_over_algorithm1_foc() {
        for _ in 0..10 {
            let foc = OftmFoc::new(Dstm::new(Arc::new(Courteous)));
            let d = run_consensus(&foc, 2);
            assert_eq!(d.len(), 1);
        }
    }

    #[test]
    fn many_process_safety_still_holds() {
        // Theorem 9 limits guaranteed termination, not safety: with our
        // non-adversarial foc objects, even n > 2 runs decide and agree.
        for _ in 0..10 {
            let foc = SplitterFoc::new();
            let d = run_consensus(&foc, 5);
            assert_eq!(d.len(), 1, "agreement must hold for any n");
        }
    }
}
