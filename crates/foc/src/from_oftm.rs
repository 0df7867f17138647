//! **Algorithm 1** of the paper: implementing fo-consensus from an OFTM.
//!
//! ```text
//! uses: V – a t-variable          initially: V = ⊥, k = 0
//! upon propose(vi) do
//!   k ← k + 1
//!   within transaction T_{i,k} do
//!     if V = ⊥ then V ← vi  else vi ← V
//!   on event C_{i,k} do return vi
//!   on event A_{i,k} do return ⊥
//! ```
//!
//! Lemma 7: by serializability only one committed transaction observes
//! `V = ⊥` (agreement, fo-validity), and the transaction can be aborted
//! only under step contention (the OFTM's Definition 2), so an aborting
//! `propose` is not step-contention-free (fo-obstruction-freedom).

use crate::traits::FoConsensus;
use oftm_core::dstm::{Dstm, TVar};
use oftm_core::TxError;

/// fo-consensus built from one t-variable of an obstruction-free STM.
pub struct OftmFoc<T: Clone + Send + Sync + 'static> {
    stm: Dstm,
    /// The t-variable `V`; `None` is the paper's `⊥`.
    v: TVar<Option<T>>,
}

impl<T: Clone + Send + Sync + 'static> OftmFoc<T> {
    /// Builds the object on a fresh OFTM instance.
    pub fn new(stm: Dstm) -> Self {
        let v = stm.new_tvar(None);
        OftmFoc { stm, v }
    }

    /// The underlying STM (for attaching recorders in experiments).
    pub fn stm(&self) -> &Dstm {
        &self.stm
    }
}

impl<T: Clone + Send + Sync + 'static> FoConsensus<T> for OftmFoc<T> {
    fn propose(&self, proc: u32, vi: T) -> Option<T> {
        // One transaction T_{i,k}; a fresh k is implicit in `begin`.
        let mut tx = self.stm.begin(proc);
        let decision = match tx.read(&self.v) {
            Ok(None) => {
                // V = ⊥: claim it with our proposal.
                match tx.write(&self.v, Some(vi.clone())) {
                    Ok(()) => vi,
                    Err(TxError::Aborted) => return None, // A_{i,k}
                }
            }
            Ok(Some(w)) => w,                     // adopt the registered value
            Err(TxError::Aborted) => return None, // A_{i,k}
        };
        match tx.commit() {
            Ok(()) => Some(decision), // C_{i,k}
            Err(TxError::Aborted) => None,
        }
    }

    fn name(&self) -> &'static str {
        "oftm-foc (Algorithm 1)"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::{propose_until_decided, stress_agreement};
    use oftm_core::cm::{Aggressive, Courteous};
    use std::sync::Arc;

    fn foc() -> OftmFoc<u64> {
        OftmFoc::new(Dstm::new(Arc::new(Courteous)))
    }

    #[test]
    fn solo_propose_wins() {
        let f = foc();
        assert_eq!(f.propose(0, 11), Some(11));
    }

    #[test]
    fn fo_obstruction_freedom_sequential() {
        // Step-contention-free proposes never abort (Lemma 7's argument).
        let f = foc();
        assert_eq!(f.propose(0, 1), Some(1));
        for p in 1..32 {
            assert_eq!(
                f.propose(p, u64::from(p) + 100),
                Some(1),
                "sequential propose aborted or disagreed"
            );
        }
    }

    #[test]
    fn concurrent_agreement() {
        for _ in 0..20 {
            let f = foc();
            let (_d, _aborts) = stress_agreement(&f, 6);
        }
    }

    #[test]
    fn aborts_happen_only_under_contention_and_retries_converge() {
        // With the Aggressive manager, concurrent proposes do abort each
        // other; retrying must converge to a single decision.
        let f = OftmFoc::new(Dstm::new(Arc::new(Aggressive)));
        use std::collections::BTreeSet;
        use std::sync::Mutex;
        let decisions = Mutex::new(BTreeSet::new());
        std::thread::scope(|s| {
            for p in 0..6u32 {
                let f = &f;
                let decisions = &decisions;
                s.spawn(move || {
                    let (d, _aborts) = propose_until_decided(f, p, 1000 + u64::from(p));
                    decisions.lock().unwrap().insert(d);
                });
            }
        });
        let d = decisions.into_inner().unwrap();
        assert_eq!(d.len(), 1, "all retries must converge to one decision");
    }

    #[test]
    fn generic_payload() {
        let stm = Dstm::default();
        let f: OftmFoc<(u32, u32)> = OftmFoc::new(stm);
        assert_eq!(f.propose(0, (1, 2)), Some((1, 2)));
        assert_eq!(f.propose(1, (3, 4)), Some((1, 2)));
    }
}
