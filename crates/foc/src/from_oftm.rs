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
//!
//! `V` is one word t-variable of the DSTM engine ([`DstmWord`]), so the
//! paper's `⊥` is one reserved word, [`BOTTOM`]: `V` starts there, and a
//! `propose` of it panics — it could not be told from "undecided".

use crate::traits::FoConsensus;
use oftm_core::dstm::{Dstm, DstmWord};
use oftm_core::{TxResult, WordStm, WordTx};
use oftm_histories::{TVarId, Value};

/// The word standing for the paper's `⊥` in `V`: nothing decided yet.
/// Reserved: proposing it panics.
pub const BOTTOM: Value = Value::MAX;

/// The t-variable `V`.
const V: TVarId = TVarId(0);

/// fo-consensus built from one t-variable of an obstruction-free STM.
pub struct OftmFoc {
    stm: DstmWord,
}

impl OftmFoc {
    /// Builds the object on a fresh OFTM instance.
    pub fn new(stm: Dstm) -> Self {
        OftmFoc {
            stm: with_bottom(stm),
        }
    }

    /// The underlying STM (its statistics, its t-variable `V`).
    pub fn stm(&self) -> &DstmWord {
        &self.stm
    }
}

/// `stm` behind its word front end, with `V = ⊥` registered.
pub(crate) fn with_bottom(stm: Dstm) -> DstmWord {
    let stm = DstmWord::new(stm);
    stm.register_tvar(V, BOTTOM);
    stm
}

/// One transaction `T_{i,k}` — if `V = ⊥` then `V ← vi` else `vi ← V` —
/// as Algorithms 1 and 3 both run it: the decision on `C_{i,k}`, `None`
/// on `A_{i,k}`.
///
/// # Panics
/// If `vi` is [`BOTTOM`].
pub(crate) fn decide_once(stm: &DstmWord, proc: u32, vi: Value) -> Option<Value> {
    assert_ne!(vi, BOTTOM, "propose of the word reserved for ⊥");
    let mut tx = stm.begin(proc);
    let body = |tx: &mut dyn WordTx| -> TxResult<Value> {
        match tx.read(V)? {
            BOTTOM => tx.write(V, vi).map(|()| vi), // V = ⊥: claim it
            w => Ok(w),                             // adopt the registered value
        }
    };
    // An aborted operation has answered `A_{i,k}` already: the handle is
    // dropped, never handed a `tryA`.
    let decision = body(&mut *tx).ok()?;
    tx.try_commit().ok().map(|()| decision)
}

impl FoConsensus<Value> for OftmFoc {
    fn propose(&self, proc: u32, vi: Value) -> Option<Value> {
        // One transaction T_{i,k}; a fresh k is implicit in `begin`.
        decide_once(&self.stm, proc, vi)
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

    fn foc() -> OftmFoc {
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

    /// Every word but ⊥ is a payload, both ends of the range included.
    #[test]
    fn generic_payload() {
        let f = OftmFoc::new(Dstm::default());
        assert_eq!(f.propose(0, 0), Some(0));
        assert_eq!(f.propose(1, BOTTOM - 1), Some(0));
        let f = OftmFoc::new(Dstm::default());
        assert_eq!(f.propose(0, BOTTOM - 1), Some(BOTTOM - 1));
    }

    #[test]
    #[should_panic(expected = "reserved for ⊥")]
    fn proposing_bottom_panics() {
        let _ = foc().propose(0, BOTTOM);
    }

    /// Lemma 7's premise on the history Algorithm 1 itself produced:
    /// concurrent proposes on a recorded instance give a well-formed
    /// history in which every forcefully aborted transaction met step
    /// contention (Definition 2).
    #[test]
    fn recorded_proposes_are_well_formed_and_obstruction_free() {
        use oftm_core::cm::ContentionManager;
        use oftm_core::Recorder;
        use oftm_histories::{check_of, well_formed};
        let managers: [Arc<dyn ContentionManager>; 2] = [Arc::new(Aggressive), Arc::new(Courteous)];
        for cm in managers {
            let rec = Arc::new(Recorder::new());
            let f = OftmFoc::new(Dstm::new(cm).with_recorder(Arc::clone(&rec)));
            let (decision, aborts) = stress_agreement(&f, 4);
            let h = rec.snapshot();
            well_formed(&h).expect("well-formed history");
            assert_eq!(check_of(&h), [], "forceful abort without step contention");
            // Every propose ran a recorded transaction, and every retry.
            let views = h.tx_views();
            assert_eq!(views.len() as u64, 4 + aborts);
            assert_eq!(f.stm().peek(V), Some(decision));
        }
    }
}
