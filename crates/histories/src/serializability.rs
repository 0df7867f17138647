//! Serializability checking (Definition 1 of the paper).
//!
//! A TM history `H` is serializable if there is a *commit-completion* `H'`
//! of `H` (some commit-pending transactions receive their `C_k`) such that
//! `committed(H')` is equivalent to a sequential *legal* history `S`:
//! every read returns the value written by the last preceding write in `S`,
//! or the initial value.
//!
//! Two checkers are provided:
//!
//! * [`serializable`] — exact, by searching over commit-completions and
//!   serialization orders with memoization. Exponential in the number of
//!   committed transactions, usable up to ~14 transactions; this is the
//!   ground-truth oracle used by the simulator and the small-history tests.
//! * [`conflict_serializable`] — the classical precedence-graph test.
//!   Conflict-serializability implies serializability, so an acyclic graph
//!   is a sound *positive* certificate usable on arbitrarily large stress
//!   histories (a cycle is inconclusive for plain serializability). Writes
//!   are ordered where they take effect — at commit — and reads by the
//!   value they returned.

use crate::event::{CompletedOp, TmOp, TmResp};
use crate::history::{History, TxStatus, TxView};
use crate::ids::{TVarId, TxId, Value};
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::hash::{Hash, Hasher};

/// Default initial value of every t-variable (the paper's examples
/// initialize t-variables to 0).
pub const INITIAL_VALUE: Value = 0;

/// Outcome of a serializability check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SerCheck {
    /// Serializable; contains a witness: the commit-completion (transactions
    /// promoted from commit-pending) and the serialization order.
    Serializable {
        promoted: Vec<TxId>,
        order: Vec<TxId>,
    },
    /// Exhaustively shown not serializable.
    NotSerializable,
    /// The exact search was not attempted because the history exceeds
    /// `max_exact` transactions.
    TooLarge,
}

impl SerCheck {
    pub fn is_serializable(&self) -> bool {
        matches!(self, SerCheck::Serializable { .. })
    }
}

/// The read/write program of one transaction, extracted from its view.
#[derive(Clone, Debug)]
pub(crate) struct TxProgram {
    pub id: TxId,
    /// Reads and writes in program order. `tryC`/`tryA` are dropped; a read
    /// that was answered by `A_k` has no value and is dropped as well (the
    /// transaction is aborted and takes no part in `committed(H')`).
    pub ops: Vec<CompletedOp>,
}

impl TxProgram {
    pub(crate) fn from_view(v: &TxView) -> Self {
        TxProgram {
            id: v.id,
            ops: v
                .ops
                .iter()
                .filter(|c| {
                    matches!(
                        (c.op, c.resp),
                        (TmOp::Read(_), TmResp::Value(_)) | (TmOp::Write(..), TmResp::Ok)
                    )
                })
                .copied()
                .collect(),
        }
    }

    /// Replays this transaction against `state`. Returns `true` and applies
    /// its writes if every read matches, `false` (leaving `state` untouched)
    /// otherwise.
    pub(crate) fn replay(&self, state: &mut BTreeMap<TVarId, Value>) -> bool {
        let mut local: BTreeMap<TVarId, Value> = BTreeMap::new();
        for c in &self.ops {
            match (c.op, c.resp) {
                (TmOp::Read(x), TmResp::Value(v)) => {
                    let cur = local
                        .get(&x)
                        .or_else(|| state.get(&x))
                        .copied()
                        .unwrap_or(INITIAL_VALUE);
                    if cur != v {
                        return false;
                    }
                }
                (TmOp::Write(x, v), TmResp::Ok) => {
                    local.insert(x, v);
                }
                _ => {}
            }
        }
        for (x, v) in local {
            state.insert(x, v);
        }
        true
    }
}

fn state_fingerprint(state: &BTreeMap<TVarId, Value>) -> u64 {
    let mut h = DefaultHasher::new();
    for (k, v) in state {
        k.hash(&mut h);
        v.hash(&mut h);
    }
    h.finish()
}

/// Depth-first search for a legal serialization order of `programs`,
/// memoized on (placed-set, state fingerprint). Returns the order if found.
fn find_order(programs: &[TxProgram]) -> Option<Vec<TxId>> {
    let n = programs.len();
    if n == 0 {
        return Some(Vec::new());
    }
    debug_assert!(n <= 64, "exact search limited to 64 transactions");
    let full: u64 = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
    let mut visited: HashSet<(u64, u64)> = HashSet::new();
    let mut order: Vec<usize> = Vec::with_capacity(n);
    let mut state: BTreeMap<TVarId, Value> = BTreeMap::new();

    fn dfs(
        programs: &[TxProgram],
        mask: u64,
        full: u64,
        state: &mut BTreeMap<TVarId, Value>,
        order: &mut Vec<usize>,
        visited: &mut HashSet<(u64, u64)>,
    ) -> bool {
        if mask == full {
            return true;
        }
        let fp = state_fingerprint(state);
        if !visited.insert((mask, fp)) {
            return false;
        }
        for (i, p) in programs.iter().enumerate() {
            if mask & (1 << i) != 0 {
                continue;
            }
            let snapshot = state.clone();
            if p.replay(state) {
                order.push(i);
                if dfs(programs, mask | (1 << i), full, state, order, visited) {
                    return true;
                }
                order.pop();
            }
            *state = snapshot;
        }
        false
    }

    if dfs(programs, 0, full, &mut state, &mut order, &mut visited) {
        Some(order.into_iter().map(|i| programs[i].id).collect())
    } else {
        None
    }
}

/// Exact serializability check per Definition 1.
///
/// `max_exact` bounds the number of transactions the exponential search will
/// consider; histories with more committed+pending transactions yield
/// [`SerCheck::TooLarge`] (use [`conflict_serializable`] then).
pub fn serializable(h: &History, max_exact: usize) -> SerCheck {
    let views = h.tx_views();
    let committed: Vec<&TxView> = views
        .values()
        .filter(|v| v.status == TxStatus::Committed)
        .collect();
    let pending: Vec<&TxView> = views
        .values()
        .filter(|v| v.status == TxStatus::CommitPending)
        .collect();

    if committed.len() + pending.len() > max_exact || committed.len() + pending.len() > 60 {
        return SerCheck::TooLarge;
    }

    // Enumerate commit-completions: any subset of commit-pending
    // transactions may be promoted to committed (H' = H · C).
    let p = pending.len();
    for subset in 0..(1u64 << p) {
        let mut programs: Vec<TxProgram> =
            committed.iter().map(|v| TxProgram::from_view(v)).collect();
        let mut promoted = Vec::new();
        for (i, v) in pending.iter().enumerate() {
            if subset & (1 << i) != 0 {
                programs.push(TxProgram::from_view(v));
                promoted.push(v.id);
            }
        }
        if let Some(order) = find_order(&programs) {
            return SerCheck::Serializable { promoted, order };
        }
    }
    SerCheck::NotSerializable
}

/// The conflict (precedence) graph over committed transactions: an edge
/// `T_i → T_k` whenever an operation of `T_i` conflicts with, and takes
/// effect before, an operation of `T_k` on the same t-variable
/// (write-write, write-read or read-write). The graph holds a generating
/// set of those edges; the rest follow by transitivity.
///
/// Every TM in this workspace buffers or hides a transaction's writes until
/// it commits, so a write takes effect *at commit*, not when `write`
/// answered `ok` — ordering a buffered write by its `ok` manufactures
/// cycles out of serializable histories (a reader that sees the old value
/// on both sides of a peer's `ok` and commits first). Recorded response
/// times are no better a guide: a thread can be descheduled between an
/// effect and the recording of its response, for longer than several peer
/// transactions take. So the graph asks recorded times only what they can
/// answer, and the values read for the rest:
///
/// * **write-write** — each variable's writers are ordered by their `tryC`
///   *invocation*. A writer that read the variable first (every
///   read-modify-write), or that acquires it eagerly, cannot invoke `tryC`
///   before its predecessor's commit took effect.
/// * **write-read** — a read is fed by the writer whose value it returned:
///   the latest one, in that order, whose `tryC` was invoked before the
///   read responded. A value nobody wrote is the initial one.
/// * **read-write** — the read precedes the writer next after its feeder.
///
/// Whatever the writer order, an acyclic graph certifies a legal serial
/// order: each read's feeder is then the last writer of the variable
/// placed before it. A poorly guessed order costs only completeness.
///
/// A read of a t-variable the transaction has itself written returns its
/// own buffered value and conflicts with nobody.
pub fn conflict_graph(h: &History) -> BTreeMap<TxId, HashSet<TxId>> {
    struct Read {
        tx: TxId,
        responded: u64,
        value: Value,
    }
    struct Writer {
        tx: TxId,
        value: Value,
        try_c: u64,
    }

    let mut g: BTreeMap<TxId, HashSet<TxId>> = h
        .tx_views()
        .values()
        .filter(|v| v.status == TxStatus::Committed)
        .map(|v| (v.id, HashSet::new()))
        .collect();

    let mut pending: BTreeMap<TxId, TmOp> = BTreeMap::new();
    let mut reads: BTreeMap<TVarId, Vec<Read>> = BTreeMap::new();
    // Last acknowledged value per variable, per transaction still running;
    // moved to `writers` — which `tryC` order therefore sorts — at `tryC`.
    let mut written: BTreeMap<TxId, BTreeMap<TVarId, Value>> = BTreeMap::new();
    let mut writers: BTreeMap<TVarId, Vec<Writer>> = BTreeMap::new();
    for te in h.iter() {
        match te.event {
            crate::event::Event::Invoke { tx, op, .. } if g.contains_key(&tx) => {
                if op == TmOp::TryCommit {
                    for (x, value) in written.remove(&tx).unwrap_or_default() {
                        writers.entry(x).or_default().push(Writer {
                            tx,
                            value,
                            try_c: te.time,
                        });
                    }
                }
                pending.insert(tx, op);
            }
            crate::event::Event::Respond { tx, resp, .. } => match (pending.remove(&tx), resp) {
                (Some(TmOp::Read(x)), TmResp::Value(value))
                    if !written.get(&tx).is_some_and(|w| w.contains_key(&x)) =>
                {
                    reads.entry(x).or_default().push(Read {
                        tx,
                        responded: te.time,
                        value,
                    });
                }
                (Some(TmOp::Write(x, v)), TmResp::Ok) => {
                    written.entry(tx).or_default().insert(x, v);
                }
                _ => {}
            },
            _ => {}
        }
    }

    let mut edge = |from: TxId, to: TxId| {
        if from != to {
            g.entry(from).or_default().insert(to);
        }
    };
    for (x, ws) in &writers {
        for pair in ws.windows(2) {
            edge(pair[0].tx, pair[1].tx);
        }
        for r in reads.get(x).into_iter().flatten() {
            let feeder = ws
                .iter()
                .rposition(|w| w.value == r.value && w.try_c < r.responded);
            if let Some(i) = feeder {
                edge(ws[i].tx, r.tx);
            }
            if let Some(next) = ws.get(feeder.map_or(0, |i| i + 1)) {
                edge(r.tx, next.tx);
            }
        }
    }
    g
}

/// Returns `true` if the conflict graph of `h` is acyclic — a sound
/// certificate that `h` is serializable (ignoring commit-pending
/// transactions, which is safe: `H` is a commit-completion of itself).
pub fn conflict_serializable(h: &History) -> bool {
    let g = conflict_graph(h);
    // Kahn's algorithm.
    let mut indeg: HashMap<TxId, usize> = g.keys().map(|&k| (k, 0)).collect();
    for succs in g.values() {
        for s in succs {
            *indeg.entry(*s).or_insert(0) += 1;
        }
    }
    let mut queue: Vec<TxId> = indeg
        .iter()
        .filter(|(_, &d)| d == 0)
        .map(|(&k, _)| k)
        .collect();
    let mut seen = 0usize;
    while let Some(t) = queue.pop() {
        seen += 1;
        if let Some(succs) = g.get(&t) {
            for s in succs {
                let d = indeg.get_mut(s).unwrap();
                *d -= 1;
                if *d == 0 {
                    queue.push(*s);
                }
            }
        }
    }
    seen == g.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::{well_formed, HistoryBuilder};

    fn t(p: u32, k: u32) -> TxId {
        TxId::new(p, k)
    }
    const X: TVarId = TVarId(0);
    const Y: TVarId = TVarId(1);
    const W: TVarId = TVarId(2);
    const Z: TVarId = TVarId(3);

    #[test]
    fn empty_history_serializable() {
        let h = History::new();
        assert!(serializable(&h, 16).is_serializable());
        assert!(conflict_serializable(&h));
    }

    #[test]
    fn single_committed_tx() {
        let mut b = HistoryBuilder::new();
        b.read(t(1, 0), X, 0).write(t(1, 0), X, 1).commit(t(1, 0));
        let h = b.build();
        assert!(serializable(&h, 16).is_serializable());
    }

    #[test]
    fn read_your_own_write() {
        let mut b = HistoryBuilder::new();
        b.write(t(1, 0), X, 7).read(t(1, 0), X, 7).commit(t(1, 0));
        let h = b.build();
        assert!(serializable(&h, 16).is_serializable());
    }

    #[test]
    fn read_your_own_write_wrong_value_rejected() {
        let mut b = HistoryBuilder::new();
        b.write(t(1, 0), X, 7).read(t(1, 0), X, 8).commit(t(1, 0));
        let h = b.build();
        assert_eq!(serializable(&h, 16), SerCheck::NotSerializable);
    }

    #[test]
    fn two_txs_need_reordering() {
        // T1 reads x=5; T2 writes x=5. Serial order must be T2, T1 even
        // though T1 completes first in H (basic serializability does not
        // preserve real-time order).
        let mut b = HistoryBuilder::new();
        b.read(t(1, 0), X, 5).commit(t(1, 0));
        b.write(t(2, 0), X, 5).commit(t(2, 0));
        let h = b.build();
        match serializable(&h, 16) {
            SerCheck::Serializable { order, .. } => {
                assert_eq!(order, vec![t(2, 0), t(1, 0)]);
            }
            other => panic!("expected serializable, got {other:?}"),
        }
    }

    #[test]
    fn classic_lost_update_not_serializable() {
        // Both transactions read x=0 and write x=1, then both also read the
        // other's non-written variable to force a cycle:
        // T1: R(x)=0 W(y,1); T2: R(y)=0 W(x,1). Both commit.
        let mut b = HistoryBuilder::new();
        b.read(t(1, 0), X, 0).write(t(1, 0), Y, 1);
        b.read(t(2, 0), Y, 0).write(t(2, 0), X, 1);
        b.commit(t(1, 0)).commit(t(2, 0));
        let h = b.build();
        // Serial T1,T2: T2 reads y=1 ≠ 0. Serial T2,T1: T1 reads x=1 ≠ 0.
        assert_eq!(serializable(&h, 16), SerCheck::NotSerializable);
    }

    #[test]
    fn figure2_history_not_serializable() {
        // The paper's Figure 2 final history E_{p·2·s·3}:
        //   T1: R(w)=0, R(z)=0, W(x,1), W(y,1), tryC (commit-pending)
        //   T2: R(x)=0, W(w,1), committed
        //   T3: R(y)=1, W(z,1), committed
        // T3 reading y=1 forces T1 committed; then T1 must precede T3 and
        // T2; but T2 read x=0 so T2 must precede T1; and T1 read w=0 so T1
        // must precede T2 — contradiction.
        let mut b = HistoryBuilder::new();
        b.read(t(1, 0), W, 0).read(t(1, 0), Z, 0);
        b.write(t(1, 0), X, 1).write(t(1, 0), Y, 1);
        b.try_commit_pending(t(1, 0));
        b.read(t(2, 0), X, 0).write(t(2, 0), W, 1).commit(t(2, 0));
        b.read(t(3, 0), Y, 1).write(t(3, 0), Z, 1).commit(t(3, 0));
        let h = b.build();
        assert_eq!(serializable(&h, 16), SerCheck::NotSerializable);
    }

    #[test]
    fn figure2_history_with_t3_reading_zero_is_serializable() {
        // Same as above but T3 reads y=0 (T1 not yet visible): serializable
        // by NOT promoting commit-pending T1 — exactly the paper's point
        // that before the critical step s, T2/T3 must read 0.
        let mut b = HistoryBuilder::new();
        b.read(t(1, 0), W, 0).read(t(1, 0), Z, 0);
        b.write(t(1, 0), X, 1).write(t(1, 0), Y, 1);
        b.try_commit_pending(t(1, 0));
        b.read(t(2, 0), X, 0).write(t(2, 0), W, 1).commit(t(2, 0));
        b.read(t(3, 0), Y, 0).write(t(3, 0), Z, 1).commit(t(3, 0));
        let h = b.build();
        match serializable(&h, 16) {
            SerCheck::Serializable { promoted, .. } => assert!(promoted.is_empty()),
            other => panic!("expected serializable, got {other:?}"),
        }
    }

    #[test]
    fn commit_pending_promotion_used_when_needed() {
        // T1 writes x=1 and is commit-pending; T2 reads x=1 and commits.
        // Only promoting T1 makes the history serializable.
        let mut b = HistoryBuilder::new();
        b.write(t(1, 0), X, 1).try_commit_pending(t(1, 0));
        b.read(t(2, 0), X, 1).commit(t(2, 0));
        let h = b.build();
        match serializable(&h, 16) {
            SerCheck::Serializable { promoted, order } => {
                assert_eq!(promoted, vec![t(1, 0)]);
                assert_eq!(order, vec![t(1, 0), t(2, 0)]);
            }
            other => panic!("expected serializable, got {other:?}"),
        }
    }

    #[test]
    fn aborted_tx_writes_invisible() {
        // T1 writes x=1 then deliberately aborts; T2 must read 0.
        let mut b = HistoryBuilder::new();
        b.write(t(1, 0), X, 1).abort(t(1, 0));
        b.read(t(2, 0), X, 0).commit(t(2, 0));
        let h = b.build();
        assert!(serializable(&h, 16).is_serializable());

        // If T2 had read 1, the history would NOT be serializable.
        let mut b = HistoryBuilder::new();
        b.write(t(1, 0), X, 1).abort(t(1, 0));
        b.read(t(2, 0), X, 1).commit(t(2, 0));
        let h = b.build();
        assert_eq!(serializable(&h, 16), SerCheck::NotSerializable);
    }

    #[test]
    fn conflict_serializable_agrees_on_simple_cases() {
        let mut b = HistoryBuilder::new();
        b.write(t(1, 0), X, 1).commit(t(1, 0));
        b.read(t(2, 0), X, 1).commit(t(2, 0));
        let h = b.build();
        assert!(conflict_serializable(&h));
        assert!(serializable(&h, 16).is_serializable());
    }

    #[test]
    fn conflict_cycle_detected() {
        // Interleaved conflicting ops: T1 R(x) … T2 W(x) … T1 W(y) after
        // T2 R(y): cycle T1→T2 (x) and T2→T1 (y).
        let mut b = HistoryBuilder::new();
        b.read(t(1, 0), X, 0); // T1 R(x) at time 0..1
        b.read(t(2, 0), Y, 0); // T2 R(y)
        b.write(t(2, 0), X, 1); // T2 W(x): T1 →x T2
        b.write(t(1, 0), Y, 1); // T1 W(y): T2 →y T1
        b.commit(t(1, 0)).commit(t(2, 0));
        let h = b.build();
        assert!(!conflict_serializable(&h));
        // And indeed not serializable at all here:
        assert_eq!(serializable(&h, 16), SerCheck::NotSerializable);
    }

    #[test]
    fn buffered_write_between_two_reads_of_the_old_value_accepted() {
        // The differential-harness flake: a reader sees x = 0 on both
        // sides of a peer's *buffered* write(x) and commits before the
        // writer does. Serial order: reader, writer.
        let mut b = HistoryBuilder::new();
        b.read(t(1, 0), X, 0);
        b.write(t(2, 0), X, 3);
        b.read(t(1, 0), X, 0);
        b.commit(t(1, 0)).commit(t(2, 0));
        let h = b.build();
        assert!(serializable(&h, 16).is_serializable());
        assert!(conflict_serializable(&h));
        assert!(conflict_graph(&h)[&t(1, 0)].contains(&t(2, 0)));
        assert!(conflict_graph(&h)[&t(2, 0)].is_empty());
    }

    #[test]
    fn non_repeatable_read_rejected() {
        let mut b = HistoryBuilder::new();
        b.read(t(1, 0), X, 0);
        b.write(t(2, 0), X, 3).commit(t(2, 0));
        b.read(t(1, 0), X, 3);
        b.commit(t(1, 0));
        let h = b.build();
        assert_eq!(serializable(&h, 16), SerCheck::NotSerializable);
        assert!(!conflict_serializable(&h));
    }

    #[test]
    fn write_skew_with_early_buffered_writes_rejected() {
        // Both writes are acknowledged before either peer reads, so every
        // edge flips between `ok`-time and commit-time ordering; by commit
        // it is the classic r→w / r→w cycle and must stay one.
        let mut b = HistoryBuilder::new();
        b.write(t(1, 0), Y, 7).write(t(2, 0), X, 9);
        b.read(t(1, 0), X, 0).read(t(2, 0), Y, 0);
        b.commit(t(1, 0)).commit(t(2, 0));
        let h = b.build();
        assert_eq!(serializable(&h, 16), SerCheck::NotSerializable);
        assert!(!conflict_serializable(&h));
    }

    #[test]
    fn read_is_ordered_by_the_value_it_returned_not_by_when() {
        // The read sits inside T2's commit interval: either side of the
        // commit point is possible, and the value says which.
        for (seen, writer_first) in [(0, false), (5, true)] {
            let mut b = HistoryBuilder::new();
            b.write(t(2, 0), X, 5).try_commit_pending(t(2, 0));
            b.read(t(1, 0), X, seen);
            b.respond(t(2, 0), TmResp::Committed).commit(t(1, 0));
            let h = b.build();
            let g = conflict_graph(&h);
            assert_eq!(g[&t(2, 0)].contains(&t(1, 0)), writer_first, "{seen}");
            assert_eq!(g[&t(1, 0)].contains(&t(2, 0)), !writer_first, "{seen}");
            assert!(serializable(&h, 16).is_serializable());
        }
    }

    #[test]
    fn read_recorded_across_several_commits_accepted() {
        // Dumped from the harness: T4's thread loses the CPU between
        // recording `read(x)` and performing it; two increments commit
        // meanwhile and T4 builds on the second.
        let mut b = HistoryBuilder::new();
        b.invoke(t(4, 0), TmOp::Read(X));
        b.read(t(1, 0), X, 0).write(t(1, 0), X, 2).commit(t(1, 0));
        b.read(t(2, 0), X, 2).write(t(2, 0), X, 5).commit(t(2, 0));
        b.respond(t(4, 0), TmResp::Value(5));
        b.write(t(4, 0), X, 9).commit(t(4, 0));
        let h = b.build();
        assert!(well_formed(&h).is_ok());
        assert!(serializable(&h, 16).is_serializable());
        assert!(conflict_serializable(&h));
    }

    #[test]
    fn commit_response_recorded_late_accepted() {
        // T1's writes are out, but its thread stalls before `C_k` is
        // recorded; T2 reads them, overwrites and finishes first.
        let mut b = HistoryBuilder::new();
        b.read(t(1, 0), X, 0).write(t(1, 0), X, 1);
        b.try_commit_pending(t(1, 0));
        b.read(t(2, 0), X, 1).write(t(2, 0), X, 2).commit(t(2, 0));
        b.respond(t(1, 0), TmResp::Committed);
        b.read(t(3, 0), X, 2).commit(t(3, 0));
        let h = b.build();
        assert!(serializable(&h, 16).is_serializable());
        assert!(conflict_serializable(&h));
    }

    #[test]
    fn repeated_value_is_fed_by_its_latest_writer() {
        // x: 0 → 1 → 0. The final reader's 0 is T2's, not the initial one.
        let mut b = HistoryBuilder::new();
        b.write(t(1, 0), X, 1).commit(t(1, 0));
        b.write(t(2, 0), X, 0).commit(t(2, 0));
        b.read(t(3, 0), X, 0).commit(t(3, 0));
        let h = b.build();
        assert!(conflict_serializable(&h));
        assert!(conflict_graph(&h)[&t(2, 0)].contains(&t(3, 0)));
    }

    #[test]
    fn reading_back_an_own_write_conflicts_with_nobody() {
        // T1 reads its own buffered x while T2 commits x underneath it:
        // only the write-write order (T2, then T1) remains.
        let mut b = HistoryBuilder::new();
        b.write(t(1, 0), X, 1);
        b.read(t(1, 0), X, 1);
        b.write(t(2, 0), X, 2).commit(t(2, 0));
        b.commit(t(1, 0));
        let h = b.build();
        assert!(conflict_serializable(&h));
    }

    #[test]
    fn too_large_falls_back() {
        let mut b = HistoryBuilder::new();
        for i in 0..20 {
            let tx = t(i, 0);
            b.write(tx, TVarId(u64::from(i)), 1).commit(tx);
        }
        let h = b.build();
        assert_eq!(serializable(&h, 10), SerCheck::TooLarge);
        assert!(conflict_serializable(&h));
    }

    #[test]
    fn blind_write_overwrite_order_found() {
        // T1 writes x=1, T2 writes x=2, T3 reads x=1: order must be
        // T2, T1, T3.
        let mut b = HistoryBuilder::new();
        b.write(t(1, 0), X, 1).commit(t(1, 0));
        b.write(t(2, 0), X, 2).commit(t(2, 0));
        b.read(t(3, 0), X, 1).commit(t(3, 0));
        let h = b.build();
        match serializable(&h, 16) {
            SerCheck::Serializable { order, .. } => {
                let pos = |id: TxId| order.iter().position(|&o| o == id).unwrap();
                // T3 must read T1's write: T1 before T3, and T2's overwrite
                // must not land between them.
                assert!(pos(t(1, 0)) < pos(t(3, 0)));
                assert!(pos(t(2, 0)) < pos(t(1, 0)) || pos(t(2, 0)) > pos(t(3, 0)));
            }
            other => panic!("expected serializable, got {other:?}"),
        }
    }
}
