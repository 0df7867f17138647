//! A monitoring decorator for fo-consensus objects: records every
//! `propose` as invocation/response events plus a step on the object's
//! base-object id, so the *fo-obstruction-freedom* property of Section 4.1
//! ("if a propose operation is step contention-free, then the operation
//! does not abort") can be checked on real threaded executions with the
//! `oftm-histories` machinery.

use crate::traits::FoConsensus;
use oftm_core::record::{fresh_base_id, Recorder};
use oftm_histories::{Access, BaseObjId, History, ProcId, TmOp, TmResp, TxId};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// Wraps a fo-consensus object, recording its operations.
///
/// Each `propose` by process `p` is modelled as a pseudo-transaction
/// `T_{p,k}` whose single operation brackets one step on the foc's base
/// object — mirroring how Theorem 9's proof treats foc proposes as
/// two-event operations. An aborted propose (`⊥`) records the abort
/// response `A_{p,k}`; [`oftm_histories::check_of`] then asserts
/// Definition 2 over the recorded history.
pub struct MonitoredFoc<T: Clone, F: FoConsensus<T>> {
    inner: F,
    base: BaseObjId,
    recorder: Arc<Recorder>,
    seq: AtomicU32,
    _marker: std::marker::PhantomData<T>,
}

impl<T: Clone, F: FoConsensus<T>> MonitoredFoc<T, F> {
    pub fn new(inner: F) -> Self {
        MonitoredFoc {
            inner,
            base: fresh_base_id(),
            recorder: Arc::new(Recorder::new()),
            seq: AtomicU32::new(0),
            _marker: std::marker::PhantomData,
        }
    }

    /// The recorded low-level history so far.
    pub fn history(&self) -> History {
        self.recorder.snapshot()
    }

    /// Marks process `p` as crashed in the record.
    pub fn record_crash(&self, p: u32) {
        self.recorder.crash(ProcId(p));
    }
}

impl<T: Clone + Send + Sync, F: FoConsensus<T>> FoConsensus<T> for MonitoredFoc<T, F> {
    fn propose(&self, proc: u32, v: T) -> Option<T> {
        let k = self.seq.fetch_add(1, Ordering::Relaxed);
        let tx = TxId::new(proc, k);
        // The propose models as a read-like operation on pseudo-t-variable
        // 0 (values are opaque to the checkers; only event structure
        // matters for step contention).
        self.recorder
            .invoke(tx, TmOp::Read(oftm_histories::TVarId(0)));
        self.recorder
            .step(ProcId(proc), Some(tx), self.base, Access::Modify);
        let out = self.inner.propose(proc, v);
        match &out {
            Some(_) => self.recorder.respond(tx, TmResp::Committed),
            None => self.recorder.respond(tx, TmResp::Aborted),
        }
        out
    }

    fn name(&self) -> &'static str {
        "monitored-foc"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cas_foc::CasFoc;
    use crate::splitter_foc::SplitterFoc;
    use crate::traits::propose_until_decided;
    use oftm_histories::check_of;

    #[test]
    fn sequential_proposes_record_no_violation() {
        let m = MonitoredFoc::new(SplitterFoc::new());
        for p in 0..8u32 {
            assert!(m.propose(p, u64::from(p)).is_some());
        }
        let h = m.history();
        assert!(check_of(&h).is_empty());
        // 8 proposes = 8 pseudo-transactions, all completed.
        assert_eq!(h.tx_views().len(), 8);
    }

    #[test]
    fn concurrent_aborts_are_contention_justified() {
        for _ in 0..20 {
            let m = MonitoredFoc::new(SplitterFoc::new());
            std::thread::scope(|s| {
                for p in 0..4u32 {
                    let m = &m;
                    s.spawn(move || {
                        let _ = propose_until_decided(m, p, u64::from(p));
                    });
                }
            });
            let h = m.history();
            let violations = check_of(&h);
            assert!(
                violations.is_empty(),
                "aborts without recorded step contention: {violations:?}\n{}",
                h.render()
            );
        }
    }

    #[test]
    fn cas_foc_never_records_aborts() {
        let m = MonitoredFoc::new(CasFoc::new());
        std::thread::scope(|s| {
            for p in 0..4u32 {
                let m = &m;
                s.spawn(move || {
                    assert!(m.propose(p, u64::from(p)).is_some());
                });
            }
        });
        let h = m.history();
        assert!(h.tx_views().values().all(|v| !v.forcefully_aborted()));
    }

    #[test]
    fn crash_markers_pass_through() {
        let m = MonitoredFoc::new(CasFoc::<u64>::new());
        m.record_crash(3);
        assert_eq!(m.history().crash_times().len(), 1);
    }
}
