//! Histories: totally ordered sequences of events (Section 2.1–2.2).
//!
//! A [`History`] stores events in execution order together with a logical
//! timestamp per event (the index doubles as the paper's total order on
//! events; an optional wall-clock nanosecond stamp supports the *eventual*
//! ic-obstruction-freedom checker, whose Definition 4 quantifies over real
//! time `d`).

use crate::event::{Access, CompletedOp, Event, TmOp, TmResp};
use crate::ids::{BaseObjId, ProcId, TVarId, TxId, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// An event with its position in the total order and an optional wall-clock
/// time (nanoseconds from an arbitrary epoch).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TimedEvent {
    /// Index in the total order of the history.
    pub time: u64,
    /// Wall-clock nanoseconds; equals `time` when not recorded.
    pub nanos: u64,
    pub event: Event,
}

/// Completion status of a transaction within a history (Section 2.2,
/// "Transactions").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TxStatus {
    /// Committed in `H` (contains `C_k`).
    Committed,
    /// Aborted in `H` (contains `A_k`).
    Aborted,
    /// Has invoked `tryC` but not yet received a response.
    CommitPending,
    /// Neither completed nor commit-pending.
    Live,
}

impl TxStatus {
    /// A transaction that is committed or aborted is *completed*.
    pub fn is_completed(&self) -> bool {
        matches!(self, TxStatus::Committed | TxStatus::Aborted)
    }
}

/// Aggregated per-transaction view of a history: the subsequence `H|T_k`
/// plus derived data the checkers need.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TxView {
    pub id: TxId,
    pub status: TxStatus,
    /// Completed operations of the transaction in program order (reads with
    /// the value returned, writes acknowledged with `ok`, `tryC`/`tryA`).
    pub ops: Vec<CompletedOp>,
    /// Index (time) of the first event of the transaction in the history.
    pub first_event: u64,
    /// Index of the last event of the transaction in the history.
    pub last_event: u64,
    /// Wall-clock time of the first event.
    pub first_nanos: u64,
    /// True iff the transaction invoked `tryA` at some point.
    pub invoked_try_abort: bool,
    /// T-variables read (with an operation that returned a value).
    pub read_set: BTreeSet<TVarId>,
    /// T-variables written (with an acknowledged write).
    pub write_set: BTreeSet<TVarId>,
    /// T-variables on which an operation was *invoked*, regardless of the
    /// response (a read answered by `A_k` still counts as an access of the
    /// t-variable for Definition 12's purposes).
    pub attempted_set: BTreeSet<TVarId>,
}

impl TxView {
    /// All t-variables accessed by the transaction — including operations
    /// that were answered with an abort.
    pub fn access_set(&self) -> BTreeSet<TVarId> {
        let mut s = self.attempted_set.clone();
        s.extend(self.read_set.iter().copied());
        s.extend(self.write_set.iter().copied());
        s
    }

    /// A transaction is *forcefully aborted* if it is aborted but never
    /// issued `tryA` (Section 2.2).
    pub fn forcefully_aborted(&self) -> bool {
        self.status == TxStatus::Aborted && !self.invoked_try_abort
    }
}

/// A (possibly low-level) history of a TM implementation.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct History {
    events: Vec<TimedEvent>,
}

impl History {
    pub fn new() -> Self {
        History { events: Vec::new() }
    }

    pub fn from_events(events: Vec<Event>) -> Self {
        History {
            events: events
                .into_iter()
                .enumerate()
                .map(|(i, event)| TimedEvent {
                    time: i as u64,
                    nanos: i as u64,
                    event,
                })
                .collect(),
        }
    }

    /// Appends an event, assigning it the next logical time.
    pub fn push(&mut self, event: Event) {
        let t = self.events.len() as u64;
        self.events.push(TimedEvent {
            time: t,
            nanos: t,
            event,
        });
    }

    /// Appends an event with an explicit wall-clock stamp (nanoseconds).
    pub fn push_at(&mut self, event: Event, nanos: u64) {
        let t = self.events.len() as u64;
        self.events.push(TimedEvent {
            time: t,
            nanos,
            event,
        });
    }

    pub fn len(&self) -> usize {
        self.events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    pub fn events(&self) -> &[TimedEvent] {
        &self.events
    }

    pub fn iter(&self) -> impl Iterator<Item = &TimedEvent> {
        self.events.iter()
    }

    /// `H|p_i` — the subsequence of events executed by process `p`.
    pub fn restrict_proc(&self, p: ProcId) -> Vec<TimedEvent> {
        self.events
            .iter()
            .filter(|te| te.event.proc() == p)
            .copied()
            .collect()
    }

    /// `H|T_k` — the subsequence of high-level events of transaction `tx`.
    pub fn restrict_tx(&self, tx: TxId) -> Vec<TimedEvent> {
        self.events
            .iter()
            .filter(|te| te.event.is_high_level() && te.event.tx() == Some(tx))
            .copied()
            .collect()
    }

    /// `E|H` — the high-level history: all invocation/response events.
    pub fn high_level(&self) -> History {
        History {
            events: self
                .events
                .iter()
                .filter(|te| te.event.is_high_level() || matches!(te.event, Event::Crash { .. }))
                .copied()
                .collect(),
        }
    }

    /// All transactions appearing in the history, in order of first event.
    pub fn transactions(&self) -> Vec<TxId> {
        let mut seen = BTreeSet::new();
        let mut out = Vec::new();
        for te in &self.events {
            if let Some(tx) = te.event.tx() {
                if seen.insert(tx) {
                    out.push(tx);
                }
            }
        }
        out
    }

    /// Wall-clock crash time of each crashed process.
    pub fn crash_times(&self) -> BTreeMap<ProcId, u64> {
        let mut m = BTreeMap::new();
        for te in &self.events {
            if let Event::Crash { proc } = te.event {
                m.entry(proc).or_insert(te.nanos);
            }
        }
        m
    }

    /// Builds the per-transaction views (see [`TxView`]).
    ///
    /// Views are keyed by transaction id; iteration order of the returned
    /// map is by `TxId`, use [`History::transactions`] for first-event
    /// order.
    pub fn tx_views(&self) -> BTreeMap<TxId, TxView> {
        let mut views: BTreeMap<TxId, TxView> = BTreeMap::new();
        // Pending invocation per transaction (well-formed histories have at
        // most one outstanding operation per process, hence per tx).
        let mut pending: BTreeMap<TxId, TmOp> = BTreeMap::new();

        for te in &self.events {
            match te.event {
                Event::Invoke { tx, op, .. } => {
                    let v = views.entry(tx).or_insert_with(|| TxView {
                        id: tx,
                        status: TxStatus::Live,
                        ops: Vec::new(),
                        first_event: te.time,
                        last_event: te.time,
                        first_nanos: te.nanos,
                        invoked_try_abort: false,
                        read_set: BTreeSet::new(),
                        write_set: BTreeSet::new(),
                        attempted_set: BTreeSet::new(),
                    });
                    v.last_event = te.time;
                    if op == TmOp::TryCommit {
                        v.status = TxStatus::CommitPending;
                    }
                    if op == TmOp::TryAbort {
                        v.invoked_try_abort = true;
                    }
                    if let Some(x) = op.tvar() {
                        v.attempted_set.insert(x);
                    }
                    pending.insert(tx, op);
                }
                Event::Respond { tx, resp, .. } => {
                    let op = pending.remove(&tx);
                    if let Some(v) = views.get_mut(&tx) {
                        v.last_event = te.time;
                        if let Some(op) = op {
                            v.ops.push(CompletedOp { op, resp });
                            match (op, resp) {
                                (TmOp::Read(x), TmResp::Value(_)) => {
                                    v.read_set.insert(x);
                                }
                                (TmOp::Write(x, _), TmResp::Ok) => {
                                    v.write_set.insert(x);
                                }
                                _ => {}
                            }
                        }
                        match resp {
                            TmResp::Committed => v.status = TxStatus::Committed,
                            TmResp::Aborted => v.status = TxStatus::Aborted,
                            _ => {}
                        }
                    }
                }
                Event::Step { tx: Some(tx), .. } => {
                    if let Some(v) = views.get_mut(&tx) {
                        v.last_event = te.time;
                    }
                }
                _ => {}
            }
        }
        views
    }

    /// `T_k` precedes `T_m` iff `T_k` is completed and its last event is
    /// before the first event of `T_m` (Section 2.2).
    pub fn precedes(&self, views: &BTreeMap<TxId, TxView>, a: TxId, b: TxId) -> bool {
        match (views.get(&a), views.get(&b)) {
            (Some(va), Some(vb)) => va.status.is_completed() && va.last_event < vb.first_event,
            _ => false,
        }
    }

    /// Transactions are concurrent iff neither precedes the other.
    pub fn concurrent(&self, views: &BTreeMap<TxId, TxView>, a: TxId, b: TxId) -> bool {
        a != b && !self.precedes(views, a, b) && !self.precedes(views, b, a)
    }

    /// Does transaction `tx` encounter *step contention* (Section 2.3)?
    ///
    /// True iff some step of a process other than `p_E(tx)` occurs after the
    /// first event of `tx` and before its commit/abort event (or the end of
    /// the history if `tx` never completes).
    pub fn step_contention(&self, tx: TxId) -> bool {
        let me = tx.process();
        let mut started = false;
        for te in &self.events {
            match te.event {
                Event::Invoke { tx: t, .. } if t == tx && !started => started = true,
                Event::Respond { tx: t, resp, .. }
                    if t == tx
                        && started
                        && matches!(resp, TmResp::Committed | TmResp::Aborted) =>
                {
                    return false;
                }
                Event::Step { proc, .. } if started && proc != me => return true,
                _ => {}
            }
        }
        false
    }

    /// Pretty-prints the history, one event per line.
    pub fn render(&self) -> String {
        let mut s = String::new();
        for te in &self.events {
            use fmt::Write;
            let _ = writeln!(s, "{:>6}  {}", te.time, te.event);
        }
        s
    }
}

/// Convenience builder producing well-formed high-level histories for tests
/// and generators: it pairs every invocation with its response immediately
/// or at a chosen later point.
#[derive(Default)]
pub struct HistoryBuilder {
    h: History,
}

impl HistoryBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    /// A bare invocation, to be answered by a later [`Self::respond`]
    /// with other transactions' events in between.
    pub fn invoke(&mut self, tx: TxId, op: TmOp) -> &mut Self {
        self.h.push(Event::Invoke {
            proc: tx.process(),
            tx,
            op,
        });
        self
    }

    /// A bare response, answering the transaction's pending invocation.
    pub fn respond(&mut self, tx: TxId, resp: TmResp) -> &mut Self {
        self.h.push(Event::Respond {
            proc: tx.process(),
            tx,
            resp,
        });
        self
    }

    /// Complete read: invocation immediately followed by its response.
    pub fn read(&mut self, tx: TxId, x: TVarId, v: Value) -> &mut Self {
        self.invoke(tx, TmOp::Read(x)).respond(tx, TmResp::Value(v))
    }

    /// Complete write acknowledged with `ok`.
    pub fn write(&mut self, tx: TxId, x: TVarId, v: Value) -> &mut Self {
        self.invoke(tx, TmOp::Write(x, v)).respond(tx, TmResp::Ok)
    }

    /// `tryC` followed by `C_k`.
    pub fn commit(&mut self, tx: TxId) -> &mut Self {
        self.invoke(tx, TmOp::TryCommit)
            .respond(tx, TmResp::Committed)
    }

    /// `tryC` with no response yet (commit-pending).
    pub fn try_commit_pending(&mut self, tx: TxId) -> &mut Self {
        self.invoke(tx, TmOp::TryCommit)
    }

    /// Forceful abort: the abort event `A_k` delivered as the response to
    /// the given operation invocation.
    pub fn aborted_op(&mut self, tx: TxId, op: TmOp) -> &mut Self {
        self.invoke(tx, op).respond(tx, TmResp::Aborted)
    }

    /// Voluntary abort: `tryA` followed by `A_k`.
    pub fn abort(&mut self, tx: TxId) -> &mut Self {
        self.invoke(tx, TmOp::TryAbort).respond(tx, TmResp::Aborted)
    }

    /// A low-level step.
    pub fn step(
        &mut self,
        proc: ProcId,
        tx: Option<TxId>,
        obj: BaseObjId,
        access: Access,
    ) -> &mut Self {
        self.h.push(Event::Step {
            proc,
            tx,
            obj,
            access,
        });
        self
    }

    pub fn crash(&mut self, proc: ProcId) -> &mut Self {
        self.h.push(Event::Crash { proc });
        self
    }

    pub fn build(&mut self) -> History {
        std::mem::take(&mut self.h)
    }
}

/// Checks the well-formedness conditions of Section 2.1 on a history:
/// per process, high-level operations do not overlap, and every response
/// matches the pending invocation; steps only occur between an invocation
/// and its response... (steps outside any TM operation are permitted for
/// generality — Algorithm 3 for instance reads registers outside
/// transactions).
pub fn well_formed(h: &History) -> Result<(), String> {
    let mut pending: BTreeMap<ProcId, (TxId, TmOp)> = BTreeMap::new();
    let mut completed: BTreeSet<TxId> = BTreeSet::new();
    let mut crashed: BTreeSet<ProcId> = BTreeSet::new();

    for te in h.iter() {
        let p = te.event.proc();
        if crashed.contains(&p) {
            return Err(format!("event {} by crashed process {p}", te.event));
        }
        match te.event {
            Event::Invoke { proc, tx, op } => {
                if tx.process() != proc {
                    return Err(format!("{tx} invoked by wrong process {proc}"));
                }
                if completed.contains(&tx) {
                    return Err(format!("operation on completed transaction {tx}"));
                }
                if pending.contains_key(&proc) {
                    return Err(format!("overlapping operations at {proc}"));
                }
                pending.insert(proc, (tx, op));
            }
            Event::Respond { proc, tx, resp } => {
                match pending.remove(&proc) {
                    None => return Err(format!("response without invocation at {proc}")),
                    Some((ptx, pop)) => {
                        if ptx != tx {
                            return Err(format!(
                                "response for {tx} but pending operation is for {ptx}"
                            ));
                        }
                        // Response type must be plausible for the operation.
                        let ok = match (pop, resp) {
                            (TmOp::Read(_), TmResp::Value(_)) => true,
                            (TmOp::Write(..), TmResp::Ok) => true,
                            (TmOp::TryCommit, TmResp::Committed) => true,
                            (TmOp::TryAbort, TmResp::Aborted) => true,
                            // Any operation may be answered by A_k.
                            (_, TmResp::Aborted) => true,
                            _ => false,
                        };
                        if !ok {
                            return Err(format!("mismatched response {resp:?} to {pop:?}"));
                        }
                    }
                }
                if matches!(resp, TmResp::Committed | TmResp::Aborted) {
                    completed.insert(tx);
                }
            }
            Event::Step { .. } => {}
            Event::Crash { proc } => {
                crashed.insert(proc);
                pending.remove(&proc);
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(p: u32, k: u32) -> TxId {
        TxId::new(p, k)
    }

    #[test]
    fn builder_and_views() {
        let x = TVarId(0);
        let y = TVarId(1);
        let mut b = HistoryBuilder::new();
        b.read(t(1, 0), x, 0)
            .write(t(1, 0), y, 5)
            .commit(t(1, 0))
            .aborted_op(t(2, 0), TmOp::Read(y));
        let h = b.build();
        assert!(well_formed(&h).is_ok());

        let views = h.tx_views();
        let v1 = &views[&t(1, 0)];
        assert_eq!(v1.status, TxStatus::Committed);
        assert_eq!(v1.read_set.iter().copied().collect::<Vec<_>>(), vec![x]);
        assert_eq!(v1.write_set.iter().copied().collect::<Vec<_>>(), vec![y]);
        assert!(!v1.forcefully_aborted());

        let v2 = &views[&t(2, 0)];
        assert_eq!(v2.status, TxStatus::Aborted);
        assert!(v2.forcefully_aborted());
    }

    #[test]
    fn precedence_and_concurrency() {
        let x = TVarId(0);
        let mut b = HistoryBuilder::new();
        b.read(t(1, 0), x, 0)
            .commit(t(1, 0))
            .read(t(2, 0), x, 0)
            .commit(t(2, 0));
        let h = b.build();
        let views = h.tx_views();
        assert!(h.precedes(&views, t(1, 0), t(2, 0)));
        assert!(!h.precedes(&views, t(2, 0), t(1, 0)));
        assert!(!h.concurrent(&views, t(1, 0), t(2, 0)));
    }

    #[test]
    fn concurrent_interleaved() {
        let x = TVarId(0);
        let mut h = History::new();
        // T1 reads, then T2 reads, then both commit: concurrent.
        for e in [
            Event::Invoke {
                proc: ProcId(1),
                tx: t(1, 0),
                op: TmOp::Read(x),
            },
            Event::Respond {
                proc: ProcId(1),
                tx: t(1, 0),
                resp: TmResp::Value(0),
            },
            Event::Invoke {
                proc: ProcId(2),
                tx: t(2, 0),
                op: TmOp::Read(x),
            },
            Event::Respond {
                proc: ProcId(2),
                tx: t(2, 0),
                resp: TmResp::Value(0),
            },
            Event::Invoke {
                proc: ProcId(1),
                tx: t(1, 0),
                op: TmOp::TryCommit,
            },
            Event::Respond {
                proc: ProcId(1),
                tx: t(1, 0),
                resp: TmResp::Committed,
            },
        ] {
            h.push(e);
        }
        let views = h.tx_views();
        assert!(h.concurrent(&views, t(1, 0), t(2, 0)));
        assert_eq!(views[&t(2, 0)].status, TxStatus::Live);
    }

    #[test]
    fn step_contention_detected() {
        let x = TVarId(0);
        let mut b = HistoryBuilder::new();
        b.read(t(1, 0), x, 0);
        b.step(ProcId(2), None, BaseObjId(0), Access::Read);
        b.commit(t(1, 0));
        let h = b.build();
        assert!(h.step_contention(t(1, 0)));
        // Own steps do not count.
        let mut b = HistoryBuilder::new();
        b.read(t(1, 0), x, 0);
        b.step(ProcId(1), Some(t(1, 0)), BaseObjId(0), Access::Modify);
        b.commit(t(1, 0));
        let h = b.build();
        assert!(!h.step_contention(t(1, 0)));
    }

    #[test]
    fn step_contention_stops_at_completion() {
        let x = TVarId(0);
        let mut b = HistoryBuilder::new();
        b.read(t(1, 0), x, 0).commit(t(1, 0));
        b.step(ProcId(2), None, BaseObjId(0), Access::Modify);
        let h = b.build();
        // Step occurs after T1 completed: no contention for T1.
        assert!(!h.step_contention(t(1, 0)));
    }

    #[test]
    fn wf_rejects_overlap_at_one_process() {
        let x = TVarId(0);
        let mut h = History::new();
        h.push(Event::Invoke {
            proc: ProcId(1),
            tx: t(1, 0),
            op: TmOp::Read(x),
        });
        h.push(Event::Invoke {
            proc: ProcId(1),
            tx: t(1, 0),
            op: TmOp::Read(x),
        });
        assert!(well_formed(&h).is_err());
    }

    #[test]
    fn wf_rejects_event_after_crash() {
        let mut h = History::new();
        h.push(Event::Crash { proc: ProcId(1) });
        h.push(Event::Invoke {
            proc: ProcId(1),
            tx: t(1, 0),
            op: TmOp::TryCommit,
        });
        assert!(well_formed(&h).is_err());
    }

    #[test]
    fn wf_rejects_op_on_completed_tx() {
        let x = TVarId(0);
        let mut b = HistoryBuilder::new();
        b.commit(t(1, 0));
        b.read(t(1, 0), x, 0);
        let h = b.build();
        assert!(well_formed(&h).is_err());
    }

    #[test]
    fn high_level_projection_drops_steps() {
        let mut b = HistoryBuilder::new();
        b.read(t(1, 0), TVarId(0), 0);
        b.step(ProcId(1), Some(t(1, 0)), BaseObjId(0), Access::Read);
        let h = b.build();
        assert_eq!(h.len(), 3);
        assert_eq!(h.high_level().len(), 2);
    }

    #[test]
    fn restrict_by_proc_and_tx() {
        let mut b = HistoryBuilder::new();
        b.read(t(1, 0), TVarId(0), 0).read(t(2, 0), TVarId(1), 0);
        let h = b.build();
        assert_eq!(h.restrict_proc(ProcId(1)).len(), 2);
        assert_eq!(h.restrict_tx(t(2, 0)).len(), 2);
    }

    #[test]
    fn crash_times_recorded() {
        let mut h = History::new();
        h.push_at(Event::Crash { proc: ProcId(3) }, 42);
        assert_eq!(h.crash_times()[&ProcId(3)], 42);
    }

    #[test]
    fn render_contains_events() {
        let mut b = HistoryBuilder::new();
        b.commit(t(1, 0));
        let h = b.build();
        let s = h.render();
        assert!(s.contains("tryC"));
        assert!(s.contains("C[T1.0]"));
    }
}
