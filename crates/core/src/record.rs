//! Low-level history recording for real (threaded) executions.
//!
//! The checkers in `oftm-histories` consume [`History`] values. This module
//! turns a live multi-threaded execution into such a history: every
//! instrumented base-object access appends an [`Event::Step`], and the
//! word-level STM front-ends append the high-level invocation/response
//! events. The recorder's internal mutex linearizes concurrent appends; the
//! resulting order is one legal interleaving consistent with each thread's
//! program order, which is exactly what the set-based checkers
//! (strict-DAP, Definition 12) and the per-transaction views need.
//!
//! Recording is optional: production paths pass no recorder and pay only a
//! branch on an `Option` (base-object ids come out of per-thread blocks,
//! so drawing one shares nothing either).

use oftm_histories::{
    Access, BaseObjId, Event, History, ProcId, TVarId, TmOp, TmResp, TxId, Value,
};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Global allocator of base-object identifiers. Every descriptor status
/// word, locator, t-variable pointer cell, lock word or clock cell that an
/// implementation wants visible to the conflict checkers draws a fresh id
/// from [`fresh_base_id`].
static NEXT_BASE_ID: AtomicU64 = AtomicU64::new(1);

/// Ids a thread reserves at once. Every `begin`, acquisition and
/// t-variable allocation draws an id whether or not a recorder is
/// attached, so the shared counter is touched once per block, not per id.
const BASE_ID_BLOCK: u64 = 1024;

thread_local! {
    /// This thread's reserved range: next id to hand out, and its end.
    static BASE_IDS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// Reserves a fresh base-object id: unique across threads, neither dense
/// nor ordered between them.
pub fn fresh_base_id() -> BaseObjId {
    BASE_IDS.with(|ids| {
        let (mut next, mut end) = ids.get();
        if next == end {
            // ord: Relaxed — atomicity alone keeps the blocks disjoint.
            next = NEXT_BASE_ID.fetch_add(BASE_ID_BLOCK, Ordering::Relaxed);
            end = next + BASE_ID_BLOCK;
        }
        ids.set((next + 1, end));
        BaseObjId(next)
    })
}

/// An append-only recorder of low-level events shared by all threads of an
/// instrumented run.
pub struct Recorder {
    start: Instant,
    events: Mutex<History>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            start: Instant::now(),
            events: Mutex::new(History::new()),
        }
    }

    fn nanos(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    fn push(&self, e: Event) {
        let nanos = self.nanos();
        self.events.lock().unwrap().push_at(e, nanos);
    }

    /// Records a step on a base object.
    pub fn step(&self, proc: ProcId, tx: Option<TxId>, obj: BaseObjId, access: Access) {
        self.push(Event::Step {
            proc,
            tx,
            obj,
            access,
        });
    }

    /// Records the invocation of a TM operation.
    pub fn invoke(&self, tx: TxId, op: TmOp) {
        self.push(Event::Invoke {
            proc: tx.process(),
            tx,
            op,
        });
    }

    /// Records a response event.
    pub fn respond(&self, tx: TxId, resp: TmResp) {
        self.push(Event::Respond {
            proc: tx.process(),
            tx,
            resp,
        });
    }

    /// Records that a process crashed (used by preemption experiments to
    /// mark a thread that will never be scheduled again).
    pub fn crash(&self, proc: ProcId) {
        self.push(Event::Crash { proc });
    }

    /// Convenience: records a complete read operation.
    pub fn read_op(&self, tx: TxId, x: TVarId, v: Value) {
        self.invoke(tx, TmOp::Read(x));
        self.respond(tx, TmResp::Value(v));
    }

    /// Convenience: records a complete write operation.
    pub fn write_op(&self, tx: TxId, x: TVarId, v: Value) {
        self.invoke(tx, TmOp::Write(x, v));
        self.respond(tx, TmResp::Ok);
    }

    /// Takes a snapshot of the history recorded so far.
    pub fn snapshot(&self) -> History {
        self.events.lock().unwrap().clone()
    }

    /// Consumes the recorder, returning the final history.
    pub fn into_history(self) -> History {
        self.events.into_inner().unwrap()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oftm_histories::TxStatus;

    #[test]
    fn fresh_ids_unique() {
        let a = fresh_base_id();
        let b = fresh_base_id();
        assert_ne!(a, b);
    }

    #[test]
    fn fresh_ids_unique_across_threads() {
        // More than two blocks per thread, so refills interleave.
        const PER_THREAD: usize = 2 * BASE_ID_BLOCK as usize + 100;
        let mut all: Vec<u64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        (0..PER_THREAD)
                            .map(|_| fresh_base_id().0)
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        all.sort_unstable();
        all.dedup();
        assert_eq!(
            all.len(),
            4 * PER_THREAD,
            "a base-object id was handed out twice"
        );
    }

    #[test]
    fn records_high_and_low_level() {
        let r = Recorder::new();
        let tx = TxId::new(1, 0);
        r.read_op(tx, TVarId(0), 0);
        r.step(ProcId(1), Some(tx), BaseObjId(500), Access::Modify);
        r.invoke(tx, TmOp::TryCommit);
        r.respond(tx, TmResp::Committed);
        let h = r.into_history();
        assert_eq!(h.len(), 5);
        let views = h.tx_views();
        assert_eq!(views[&tx].status, TxStatus::Committed);
    }

    #[test]
    fn concurrent_appends_do_not_lose_events() {
        use std::sync::Arc;
        let r = Arc::new(Recorder::new());
        let handles: Vec<_> = (0..4u32)
            .map(|p| {
                let r = Arc::clone(&r);
                std::thread::spawn(move || {
                    for i in 0..100u32 {
                        r.step(
                            ProcId(p),
                            Some(TxId::new(p, i)),
                            BaseObjId(u64::from(p)),
                            Access::Read,
                        );
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let h = Arc::try_unwrap(r).ok().unwrap().into_history();
        assert_eq!(h.len(), 400);
    }

    #[test]
    fn crash_marker_recorded() {
        let r = Recorder::new();
        r.crash(ProcId(2));
        let h = r.into_history();
        assert_eq!(h.crash_times().len(), 1);
    }
}
