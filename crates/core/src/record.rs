//! Low-level history recording for real (threaded) executions.
//!
//! The checkers in `oftm-histories` consume [`History`] values. This module
//! turns a live multi-threaded execution into such a history: every
//! instrumented base-object access appends an [`Event::Step`], and every
//! TM operation an invocation and a response. The recorder's internal
//! mutex linearizes concurrent appends; the resulting order is one legal
//! interleaving consistent with each thread's program order, which is
//! exactly what the set-based checkers (strict-DAP, Definition 12) and the
//! per-transaction views need.
//!
//! Recording is optional: production paths pass no recorder and pay only a
//! branch on an `Option` per step (base-object ids come out of per-thread
//! blocks, so drawing one shares nothing either).
//!
//! **TM events.** Every backend's `begin`/`begin_ro` hands its transaction
//! to [`observe`], and that is the only place a TM event is recorded:
//! with a recorder attached the transaction comes back wrapped, and the
//! wrapper records each `read`, `write`, `tryC` and `tryA` invocation
//! before it calls the backend and the response once the call returns —
//! Section 2.2's response, named by what the call returned (the value,
//! `ok`, `C_k`, or `A_k` for any `Err` and every `tryA`). So every
//! invocation is paired with exactly one response, and the steps an
//! operation takes fall between the two. Without a recorder the backend's
//! own handle is returned and no operation branches on recording.
//!
//! A recorder is also a **step gate** ([`Recorder::gate`]). Every site
//! records its step with [`step`] *after* the access it names, so a gated
//! process parked at its k-th step has performed exactly what its first k
//! steps name: granting one step at a time replays a step-exact schedule
//! of the real engine (`oftm_sim::fig2`).

use crate::api::{TxResult, WordTx};
use oftm_histories::{
    Access, BaseObjId, Event, History, ProcId, TVarId, TmOp, TmResp, TxId, Value,
};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
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
/// instrumented run, and their step gate (module docs).
pub struct Recorder {
    start: Instant,
    log: Mutex<Log>,
    /// Signalled when a gated process parks, finishes, gets steps or crashes.
    moved: Condvar,
}

type Guard<'a> = MutexGuard<'a, Log>;

#[derive(Default)]
struct Log {
    events: History,
    /// Steps each gated process may take before it parks.
    gated: BTreeMap<ProcId, usize>,
    /// Processes whose events are dropped.
    crashed: Vec<ProcId>,
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
            log: Mutex::default(),
            moved: Condvar::new(),
        }
    }

    fn nanos(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    /// The log, whole even after a panic: every update is one push or edit.
    fn lock(&self) -> Guard<'_> {
        self.log.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn wait<'a>(&self, log: Guard<'a>, cond: impl FnMut(&mut Log) -> bool) -> Guard<'a> {
        self.moved
            .wait_while(log, cond)
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Appends `e` unless its process crashed.
    fn push_to(&self, log: &mut Log, e: Event) {
        if !log.crashed.contains(&e.proc()) {
            log.events.push_at(e, self.nanos());
        }
    }

    fn push(&self, e: Event) {
        self.push_to(&mut self.lock(), e);
    }

    /// Records a step on a base object. A gated `proc` then parks here
    /// once its allowance is spent, until it is granted more or crashes.
    pub fn step(&self, proc: ProcId, tx: Option<TxId>, obj: BaseObjId, access: Access) {
        let held = |l: &mut Log| l.gated.get(&proc) == Some(&0);
        // Holds only a thread that reached its first step before its
        // first grant: every later step finds the allowance it parked for.
        let mut log = self.wait(self.lock(), held);
        let e = Event::Step {
            proc,
            tx,
            obj,
            access,
        };
        self.push_to(&mut log, e);
        if let Some(left) = log.gated.get_mut(&proc) {
            *left -= 1;
            if *left == 0 {
                self.moved.notify_all();
                drop(self.wait(log, held));
            }
        }
    }

    /// Gates `proc`: from now on it parks in [`Recorder::step`] whenever
    /// its allowance is spent, and it starts with none. Start its thread
    /// at its first grant: nothing it does before its first step is held.
    pub fn gate(&self, proc: ProcId) {
        self.lock().gated.insert(proc, 0);
    }

    /// Grants the gated `proc` `steps` more steps and returns once it has
    /// taken them and parked again (`true`) or its thread has finished.
    pub fn allow(&self, proc: ProcId, steps: usize) -> bool {
        let mut log = self.lock();
        *log.gated.get_mut(&proc).expect("a gated, running process") += steps;
        self.moved.notify_all();
        let busy = |l: &mut Log| l.gated.get(&proc).is_some_and(|&n| n > 0);
        self.wait(log, busy).gated.contains_key(&proc)
    }

    /// Tells a pending [`Recorder::allow`] that the gated `proc`'s thread
    /// has run out: call it from that thread, last.
    pub fn finish(&self, proc: ProcId) {
        self.lock().gated.remove(&proc);
        self.moved.notify_all();
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

    /// Records that a process crashed: nothing it records afterwards
    /// enters the history, and a gated `proc` is released, so its thread
    /// can run out unscheduled.
    pub fn crash(&self, proc: ProcId) {
        let mut log = self.lock();
        self.push_to(&mut log, Event::Crash { proc });
        log.crashed.push(proc);
        log.gated.remove(&proc);
        self.moved.notify_all();
    }

    /// Takes a snapshot of the history recorded so far.
    pub fn snapshot(&self) -> History {
        self.lock().events.clone()
    }

    /// Consumes the recorder, returning the final history.
    pub fn into_history(self) -> History {
        self.log
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
            .events
    }
}

/// Records `tx`'s step on `obj` if a recorder is attached: the one call
/// an engine makes, right after the access it names.
#[inline]
pub fn step(rec: Option<&Recorder>, tx: TxId, obj: BaseObjId, access: Access) {
    if let Some(r) = rec {
        r.step(tx.process(), Some(tx), obj, access);
    }
}

/// Returns a backend's freshly begun `tx` as it is when no recorder is
/// attached, and otherwise wrapped so that its TM events are recorded
/// (module docs).
#[inline]
pub fn observe<'a>(rec: Option<&'a Recorder>, tx: Box<dyn WordTx + 'a>) -> Box<dyn WordTx + 'a> {
    match rec {
        Some(rec) => Box::new(Observed { rec, tx }),
        None => tx,
    }
}

/// A transaction whose operations are recorded as invocation/response
/// pairs around the backend's own handle.
struct Observed<'a> {
    rec: &'a Recorder,
    tx: Box<dyn WordTx + 'a>,
}

impl WordTx for Observed<'_> {
    fn id(&self) -> TxId {
        self.tx.id()
    }

    fn read(&mut self, x: TVarId) -> TxResult<Value> {
        let id = self.tx.id();
        self.rec.invoke(id, TmOp::Read(x));
        let r = self.tx.read(x);
        self.rec
            .respond(id, r.map_or(TmResp::Aborted, TmResp::Value));
        r
    }

    fn write(&mut self, x: TVarId, v: Value) -> TxResult<()> {
        let id = self.tx.id();
        self.rec.invoke(id, TmOp::Write(x, v));
        let r = self.tx.write(x, v);
        self.rec
            .respond(id, r.map_or(TmResp::Aborted, |()| TmResp::Ok));
        r
    }

    fn try_commit(self: Box<Self>) -> TxResult<()> {
        let Observed { rec, tx } = *self;
        let id = tx.id();
        rec.invoke(id, TmOp::TryCommit);
        let r = tx.try_commit();
        rec.respond(id, r.map_or(TmResp::Aborted, |()| TmResp::Committed));
        r
    }

    fn try_abort(self: Box<Self>) {
        let Observed { rec, tx } = *self;
        let id = tx.id();
        rec.invoke(id, TmOp::TryAbort);
        tx.try_abort();
        rec.respond(id, TmResp::Aborted);
    }

    fn retire_tvar_block(&mut self, base: TVarId, len: usize) {
        self.tx.retire_tvar_block(base, len);
    }

    fn footprint(&self, out: &mut Vec<TVarId>) {
        self.tx.footprint(out);
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
        r.invoke(tx, TmOp::Read(oftm_histories::TVarId(0)));
        r.respond(tx, TmResp::Value(0));
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

    #[test]
    fn a_gated_process_takes_exactly_the_steps_it_is_allowed() {
        let (r, p) = (std::sync::Arc::new(Recorder::new()), ProcId(1));
        r.gate(p);
        let gated = std::sync::Arc::clone(&r);
        let thread = std::thread::spawn(move || {
            (0..9).for_each(|i| gated.step(p, None, BaseObjId(i), Access::Read));
            gated.finish(p);
        });
        assert!(r.allow(p, 2));
        assert_eq!(r.snapshot().len(), 2);
        r.step(ProcId(2), None, BaseObjId(9), Access::Modify); // never held
        assert!(r.allow(p, 1));
        assert_eq!(r.snapshot().len(), 4);
        // Released: its other six steps run unrecorded.
        r.crash(p);
        thread.join().unwrap();
        assert_eq!(r.snapshot().len(), 5, "{}", r.snapshot().render());
    }
}
