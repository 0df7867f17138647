//! The Figure 2 scenario: executable reconstruction of Theorem 13's proof
//! (no OFTM is strictly disjoint-access-parallel), on the DSTM that ships.
//!
//! The proof builds the low-level history `E_{p·2·s·3}`:
//!
//! 1. `E_1`: transaction `T1` (`R(w) R(z) W(x,1) W(y,1) tryC`) runs alone
//!    and would commit.
//! 2. `E_p`: the longest prefix of `E_1` after which neither `T2` reading
//!    `x = 1` nor `T3` reading `y = 1` can be extended-and-committed; the
//!    next step `s` of `T1` is the **critical step**.
//! 3. `E_{p·2}`: suspend `p1` at the end of `E_p`; run `T2`
//!    (`R(x) W(w,1) tryC`) to completion — it must commit on its own
//!    (obstruction-freedom) and reads `x = 0`.
//! 4. `E_{p·2·s}`: let `p1` execute the single critical step `s`.
//! 5. `E_{p·2·s·3}`: run `T3` (`R(y) W(z,1) tryC`) to completion.
//!
//! For a *strictly DAP* OFTM, `T3` could not observe anything `T2` did
//! (disjoint t-variables ⇒ disjoint base objects), so it would read `y = 1`
//! as it does in `E_{p·s·3}` — and the resulting history is not
//! serializable. A real OFTM escapes the contradiction precisely by
//! violating strict DAP. [`fig2_scan`] runs the construction on the
//! shipping DSTM for every suspension point, `T1` held by the recorder's
//! step gate (`oftm_core::record`). The engine commits with a counter
//! bump, the status CAS, then a verdict stamp per locator, so `T1` is
//! committed exactly when its prefix includes that CAS, and then `T2`
//! reads `x = 1` and `T3` `y = 1`; `T2` and `T3` meet on the commit
//! counter in every row, and on `T1`'s status word where `T2` revoked `T1`
//! and `T3` found `y` still `T1`'s, unstamped.

use oftm_core::api::WordStm;
use oftm_core::cm::{Aggressive, ContentionManager, Resolution};
use oftm_core::dstm::Descriptor;
use oftm_core::record::Recorder;
use oftm_core::{Dstm, DstmWord};
use oftm_histories::{
    check_strict_dap, serializable, BaseObjId, DapViolation, History, ProcId, TVarId, TmOp, TmResp,
    TxId, Value,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// One scripted operation of a transaction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScriptOp {
    Read(usize),
    Write(usize, Value),
    TryCommit,
}

const W: usize = 0;
const X: usize = 1;
const Y: usize = 2;
const Z: usize = 3;

/// The three Figure 2 transactions; `T{k}` runs on process `k`.
pub fn fig2_scripts() -> Vec<Vec<ScriptOp>> {
    use ScriptOp::*;
    vec![
        vec![Read(W), Read(Z), Write(X, 1), Write(Y, 1), TryCommit],
        vec![Read(X), Write(W, 1), TryCommit],
        vec![Read(Y), Write(Z, 1), TryCommit],
    ]
}

/// [`Aggressive`]'s decisions, noting by process the status word of every
/// descriptor it sees commit, abort or revoked: known once a transaction
/// is over, though the engine records it only in the steps on it.
#[derive(Default)]
struct NamingAggressive([AtomicU64; 4]);

impl NamingAggressive {
    fn note(&self, d: &Descriptor) {
        self.0[d.id().proc as usize].store(d.base().0, Ordering::Relaxed);
    }
}

impl ContentionManager for NamingAggressive {
    fn resolve(&self, me: &Descriptor, other: &Descriptor, attempt: u32) -> Resolution {
        self.note(other);
        Aggressive.resolve(me, other, attempt)
    }

    fn on_commit(&self, me: &Descriptor) {
        self.note(me);
    }

    fn on_abort(&self, me: &Descriptor) {
        self.note(me);
    }
}

/// One execution on a fresh instance: `w = x = y = z = 0`, all recorded.
struct Run {
    rec: Arc<Recorder>,
    names: Arc<NamingAggressive>,
    word: DstmWord,
}

impl Run {
    fn new() -> Arc<Run> {
        let (rec, names) = (Arc::new(Recorder::new()), Arc::default());
        let stm = Dstm::new(Arc::clone(&names) as _).with_recorder(Arc::clone(&rec));
        let word = DstmWord::new(stm);
        (0..4).for_each(|v| word.register_tvar(TVarId(v), 0));
        Arc::new(Run { rec, names, word })
    }

    /// Runs `T{proc}` here as one attempt: it ends at the first aborted
    /// operation or at its script's `tryC`.
    fn exec(&self, proc: u32) -> TxId {
        let mut tx = self.word.begin(proc);
        let id = tx.id();
        let script = &fig2_scripts()[proc as usize - 1];
        let live = script.iter().all(|op| match *op {
            ScriptOp::Read(v) => tx.read(TVarId(v as u64)).is_ok(),
            ScriptOp::Write(v, val) => tx.write(TVarId(v as u64), val).is_ok(),
            ScriptOp::TryCommit => true,
        });
        if live {
            let _ = tx.try_commit();
        }
        id
    }

    /// Whether `v` holds 1: its one writer committed.
    fn wrote(&self, v: usize) -> bool {
        self.word.peek(TVarId(v as u64)) == Some(1)
    }

    fn status_of(&self, proc: u32) -> BaseObjId {
        BaseObjId(self.names.0[proc as usize].load(Ordering::Relaxed))
    }
}

/// A gated transaction: its script on a thread of its own, spawned at its
/// first grant (what it does before its first step is not held).
struct Gated {
    proc: ProcId,
    thread: Option<JoinHandle<TxId>>,
    running: bool,
}

/// Tells a waiting controller the gated thread ran out, even by a panic.
struct Finish<'a>(&'a Recorder, ProcId);

impl Drop for Finish<'_> {
    fn drop(&mut self) {
        self.0.finish(self.1);
    }
}

impl Gated {
    fn new(run: &Run, proc: u32) -> Self {
        run.rec.gate(ProcId(proc));
        Gated {
            proc: ProcId(proc),
            thread: None,
            running: true,
        }
    }

    /// Grants `steps` more steps; `false` once the transaction is over.
    fn allow(&mut self, run: &Arc<Run>, steps: usize) -> bool {
        let (run2, proc) = (Arc::clone(run), self.proc);
        self.thread.get_or_insert_with(|| {
            std::thread::spawn(move || {
                let _finish = Finish(&run2.rec, proc);
                run2.exec(proc.0)
            })
        });
        self.running = self.running && run.rec.allow(proc, steps);
        self.running
    }

    /// Crashes the process if it is still running (Section 2.1's model of
    /// one suspended for good) and waits for its thread to run out.
    fn join(self, run: &Run) -> TxId {
        if self.running {
            run.rec.crash(self.proc);
        }
        self.thread.expect("granted").join().expect("no panic")
    }
}

/// Outcome of one suspension-point run.
#[derive(Clone, Debug)]
pub struct Fig2Row {
    /// Number of solo steps `T1` executed before being suspended.
    pub prefix_len: usize,
    /// What `T2` read from `x` and `T3` from `y`.
    pub t2_read_x: Option<u64>,
    pub t3_read_y: Option<u64>,
    pub t1_committed: bool,
    pub t2_committed: bool,
    pub t3_committed: bool,
    /// `T2`'s and `T3`'s own step counts (Definition 2 bounds them).
    pub t2_steps: usize,
    pub t3_steps: usize,
    /// Where `T2` and `T3` can meet: `T1`'s status word, as Theorem 13
    /// says, and the commit counter every two update transactions bump.
    pub t1_status: BaseObjId,
    pub counter: BaseObjId,
    /// Is the full history serializable (exact check)?
    pub serializable: bool,
    /// Strict-DAP violations between T2 and T3 (the unrelated pair).
    pub t2_t3_violations: Vec<DapViolation>,
    pub history: History,
}

impl Fig2Row {
    /// Whether `T2` and `T3` conflicted on `obj`.
    pub fn met_on(&self, obj: BaseObjId) -> bool {
        self.t2_t3_violations.iter().any(|v| v.obj == obj)
    }
}

fn read_value(h: &History, tx: TxId, var: usize) -> Option<u64> {
    h.tx_views().get(&tx).and_then(|v| {
        v.ops.iter().find_map(|c| match (c.op, c.resp) {
            (TmOp::Read(x), TmResp::Value(val)) if x.0 == var as u64 => Some(val),
            _ => None,
        })
    })
}

fn steps_of(h: &History, tx: TxId) -> usize {
    h.iter()
        .filter(|e| e.event.is_step() && e.event.tx() == Some(tx))
        .count()
}

/// Runs the paper's construction for every suspension point `t` of `T1`
/// (0 ≤ t ≤ solo length): `T1` runs `t` steps, `T2` runs to completion,
/// `T1` takes one more step (the candidate critical step `s`, when it has
/// one left), then `T3` runs to completion.
pub fn fig2_scan() -> Vec<Fig2Row> {
    let run = Run::new();
    let t1 = run.exec(1);
    let solo = steps_of(&run.rec.snapshot(), t1);
    (0..=solo).map(scan_row).collect()
}

fn scan_row(prefix: usize) -> Fig2Row {
    let run = Run::new();
    let mut p1 = Gated::new(&run, 1);
    if prefix > 0 {
        p1.allow(&run, prefix);
    }
    // p1 suspended; T2 runs alone and must complete (obstruction-freedom).
    let t2 = run.exec(2);
    p1.allow(&run, 1);
    let t3 = run.exec(3);
    // Read before p1 is released: it runs out unrecorded.
    let [t1_committed, t2_committed, t3_committed] = [X, W, Z].map(|v| run.wrote(v));
    p1.join(&run);
    let h = run.rec.snapshot();
    Fig2Row {
        prefix_len: prefix,
        t2_read_x: read_value(&h, t2, X),
        t3_read_y: read_value(&h, t3, Y),
        t1_committed,
        t2_committed,
        t3_committed,
        t2_steps: steps_of(&h, t2),
        t3_steps: steps_of(&h, t3),
        t1_status: run.status_of(1),
        counter: run.word.commit_counter_base(),
        serializable: serializable(&h, 8).is_serializable(),
        t2_t3_violations: check_strict_dap(&h)
            .into_iter()
            .filter(|v| [v.tx_a, v.tx_b] == [t2, t3] || [v.tx_a, v.tx_b] == [t3, t2])
            .collect(),
        history: h,
    }
}

/// A crash-free interleaving of the three transactions, all gated, one
/// step at a time to an unfinished one chosen by `seed`: the same seed
/// gives the same history up to base-object ids.
pub fn interleave(mut seed: u64) -> History {
    let run = Run::new();
    let mut procs: Vec<Gated> = (1..=3).map(|p| Gated::new(&run, p)).collect();
    let mut running: Vec<usize> = vec![0, 1, 2];
    while !running.is_empty() {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        procs[running[(seed >> 33) as usize % running.len()]].allow(&run, 1);
        running.retain(|&i| procs[i].running);
    }
    for p in procs {
        p.join(&run);
    }
    run.rec.snapshot()
}

#[cfg(test)]
mod tests {
    use super::*;
    use oftm_histories::{check_of, Access, Event, TxStatus, TxView};

    /// For each step `tx` took on `at`, in order: whether it modified it.
    fn steps_on(h: &History, tx: TxId, at: BaseObjId) -> Vec<bool> {
        h.iter()
            .filter(
                |e| matches!(e.event, Event::Step { tx: Some(t), obj, .. } if t == tx && obj == at),
            )
            .map(|e| matches!(e.event, Event::Step { access, .. } if access.modifies()))
            .collect()
    }

    /// The one transaction of process `proc`.
    fn tx_of(h: &History, proc: u32) -> TxId {
        h.transactions()
            .into_iter()
            .find(|t| t.proc == proc)
            .unwrap()
    }

    #[test]
    fn t1_solo_commits() {
        let run = Run::new();
        let t1 = run.exec(1);
        assert!(run.wrote(X) && run.wrote(Y));
        let h = run.rec.snapshot();
        assert_eq!(h.tx_views()[&t1].status, TxStatus::Committed);
        assert!(serializable(&h, 8).is_serializable());
    }

    #[test]
    fn serial_t1_t2_t3_all_commit() {
        let run = Run::new();
        let [_, t2, _] = [1, 2, 3].map(|p| run.exec(p));
        assert!([W, X, Y, Z].into_iter().all(|v| run.wrote(v)));
        let h = run.rec.snapshot();
        assert_eq!(read_value(&h, t2, X), Some(1));
        assert!(serializable(&h, 8).is_serializable());
    }

    #[test]
    fn solo_steps_remaining_counts() {
        assert!(fig2_scan().len() > 6, "T1 takes several steps alone");
    }

    #[test]
    fn suspended_t1_is_aborted_by_t2() {
        // Wherever T2 revoked T1 (a CAS on its status word), T2 committed
        // reading x = 0 and T1 did not commit.
        let revoked =
            |r: &Fig2Row| steps_on(&r.history, tx_of(&r.history, 2), r.t1_status).contains(&true);
        let lost = |r: &Fig2Row| r.t2_committed && r.t2_read_x == Some(0) && !r.t1_committed;
        let rows = each_row(|r| !revoked(r) || lost(r));
        assert!(rows.iter().any(revoked));
    }

    #[test]
    fn aborted_t1_notices_at_next_step() {
        // T1 runs until it owns x and y and has invoked tryC; T2 revokes it.
        let run = Run::new();
        let mut p1 = Gated::new(&run, 1);
        let pending = |v: &TxView| v.status == TxStatus::CommitPending;
        while !run.rec.snapshot().tx_views().values().any(pending) {
            assert!(p1.allow(&run, 1), "T1 finished before its tryC");
        }
        run.exec(2);
        // Its next step is the status CAS it loses: a read of the verdict.
        assert!(p1.allow(&run, 1));
        let h = run.rec.snapshot();
        let t1 = tx_of(&h, 1);
        assert_eq!(steps_on(&h, t1, run.status_of(1)), [false], "a read");
        // Its `tryC`, pending while T2 ran, answers A_1: no operation of
        // it succeeded after the revocation.
        assert!(!p1.allow(&run, 1_000));
        p1.join(&run);
        let view = &run.rec.snapshot().tx_views()[&t1];
        let last = view.ops.last().map(|c| (c.op, c.resp));
        assert_eq!(last, Some((TmOp::TryCommit, TmResp::Aborted)));
        assert!(view.forcefully_aborted());
    }

    #[test]
    fn every_random_interleaving_is_serializable() {
        for seed in 0..200 {
            let h = interleave(seed);
            assert!(serializable(&h, 8).is_serializable(), "{}", h.render());
        }
    }

    #[test]
    fn obstruction_freedom_holds_on_random_interleavings() {
        let mut revoked = 0;
        for seed in 0..200 {
            let h = interleave(seed);
            assert_eq!(check_of(&h), [], "seed {seed}");
            let views = h.tx_views();
            revoked += views.values().filter(|v| v.forcefully_aborted()).count();
        }
        assert!(revoked > 0, "no schedule made the engine revoke an owner");
    }

    /// Asserts `holds` of every row of a scan, showing a row that fails.
    fn each_row(holds: impl Fn(&Fig2Row) -> bool) -> Vec<Fig2Row> {
        let rows = fig2_scan();
        for r in &rows {
            assert!(holds(r), "prefix {}:\n{}", r.prefix_len, r.history.render());
        }
        rows
    }

    #[test]
    fn scan_produces_rows_and_all_serializable() {
        let both = |r: &Fig2Row| r.t2_committed && r.t3_committed;
        let rows = each_row(|r| both(r) && r.serializable && check_of(&r.history).is_empty());
        assert!(rows.len() > 5);
    }

    #[test]
    fn t1_commits_only_when_suspended_after_its_commit_step() {
        // Its commit step is the status CAS, and its stamps come after it:
        // committed exactly in the rows whose prefix includes it, and in
        // more rows than the last.
        let rows = each_row(|r| {
            let t1 = tx_of(&r.history, 1);
            let prefix = r
                .history
                .iter()
                .filter(|e| e.event.is_step() && e.event.tx() == Some(t1));
            let cas = prefix.take(r.prefix_len).any(|e| {
                matches!(e.event, Event::Step { obj, access: Access::Modify, .. } if obj == r.t1_status)
            });
            r.t1_committed == cas
        });
        assert!(rows.iter().filter(|r| r.t1_committed).count() > 1);
    }

    #[test]
    fn t2_reads_zero_until_t1_commits() {
        each_row(|r| r.t2_read_x == Some(u64::from(r.t1_committed)));
    }

    #[test]
    fn t3_reads_one_exactly_when_t1_committed() {
        // T2's revocation of T1 reaches T3 through T1's status word, so T3
        // reads y = 0 in every row where T1 was revoked — escaping the
        // contradiction exactly as Section 5 describes.
        each_row(|r| r.t3_read_y == Some(u64::from(r.t1_committed)));
    }

    #[test]
    fn dstm_violates_strict_dap_somewhere() {
        // Theorem 13, concretely: some suspension point makes the
        // t-variable-disjoint pair (T2, T3) meet on T1's descriptor; every
        // one makes them meet on the commit counter, both being updates.
        let rows = each_row(|r| r.met_on(r.counter) && r.serializable);
        assert!(rows.iter().any(|r| r.met_on(r.t1_status)), "no hot spot");
    }

    #[test]
    fn conflict_object_is_t1s_descriptor() {
        // Apart from the counter, T2 and T3 collide on T1's status word.
        let on = |r: &Fig2Row, obj| obj == r.counter || obj == r.t1_status;
        each_row(|r| r.t2_t3_violations.iter().all(|v| on(r, v.obj)));
    }

    /// Definition 2 with a number: `T2` and `T3` each run alone, so each
    /// commits within a bounded number of its own steps whatever `T1` left
    /// behind. Counting the engine's paths under the aggressive manager:
    ///
    /// * `begin` — the commit-counter sample: 1;
    /// * an open (read or acquisition) — a look is the pointer load, the
    ///   locator's stamp and, while that is unset, the owner's status word:
    ///   3; a live foreign owner costs one abort CAS and one more look, and
    ///   nobody else moves while we run alone: ≤ 3 + 1 + 3 = 7;
    /// * a read — its open and the gate check, 1; alone, the counter never
    ///   moves past our sample, so the gate never scans: ≤ 8;
    /// * a write — its open, the install CAS and the gate check: ≤ 9;
    /// * `tryC` of an update — the counter bump (no scan, as above), the
    ///   status CAS and one stamp per installed locator: 2 + 1.
    ///
    /// One read and one write each: 1 + 8 + 9 + 3.
    const SOLO_BOUND: usize = 21;

    #[test]
    fn t2_and_t3_commit_within_a_constant_number_of_their_own_steps() {
        each_row(|r| r.t2_steps.max(r.t3_steps) <= SOLO_BOUND);
    }

    /// A row as two scans must agree on it: what it read, decided and
    /// counted, and where `T2` and `T3` met, by role (ids differ per run).
    fn canonical(r: &Fig2Row) -> String {
        let role = |v: &DapViolation| (v.obj == r.counter, v.obj == r.t1_status);
        let mut met: Vec<_> = r.t2_t3_violations.iter().map(role).collect();
        met.sort();
        let fates = [r.t1_committed, r.t2_committed, r.t3_committed];
        let counts = (r.t2_read_x, r.t3_read_y, r.t2_steps, r.t3_steps);
        format!(
            "{} {fates:?} {counts:?} {} {met:?}",
            r.prefix_len,
            r.history.len()
        )
    }

    #[test]
    fn the_scan_is_deterministic() {
        let first: Vec<String> = fig2_scan().iter().map(canonical).collect();
        for _ in 0..100 {
            assert_eq!(fig2_scan().iter().map(canonical).collect::<Vec<_>>(), first);
        }
    }
}
