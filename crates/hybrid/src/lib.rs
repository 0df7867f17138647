//! # oftm-hybrid — contention-adaptive backend over TL2 + DSTM
//!
//! The paper proves obstruction-free TMs give up throughput that
//! lock-based progressive designs keep; Kuznetsov & Ravi's *"Why
//! Transactional Memory Should Not Be Obstruction-Free"* argues the
//! practical winner is a lock-based TM with contention management bolted
//! on. This crate turns that thesis into a backend: a [`HybridStm`] runs
//! transactions on an embedded **TL2** engine by default (the fast path —
//! invisible reads, commit-time locking) and **migrates the whole
//! instance to an embedded DSTM engine** when measured contention says
//! the optimistic path is losing (eager ownership + contention-manager
//! arbitration degrade far more gracefully when conflict density spikes).
//!
//! ## Why migrate at all
//!
//! On this repo's reference box, a workload that acquires a hot variable
//! early and then runs a long tail with a preemption point collapses TL2
//! to ~2.6k ops/s @8T (every resumed transaction re-runs its full body
//! only to fail commit-time read validation), while DSTM under the
//! [`oftm_core::cm::Courteous`] yield-to-owner manager runs the same
//! shape at ~100k ops/s — and conversely TL2 is ~2× DSTM when conflicts
//! are rare. No fixed choice wins a phase-shifting workload; a measured
//! switch does.
//!
//! ## The migration barrier (correctness argument)
//!
//! Both engines see one coherent t-variable space:
//!
//! * **One allocator, one table while TL2 runs.** All ids are minted by
//!   the TL2 engine's [`oftm_core::table::VarTable`] (static registrations
//!   and dynamic `alloc_tvar_block`); the DSTM table's own allocator is
//!   never used, so the two tables can never disagree on what an id
//!   means. In TL2 mode the DSTM engine holds **nothing**: an allocation
//!   goes to TL2 alone, then fences and looks at the gate
//!   ([`ModeGate::must_mirror`]) and registers the id with DSTM as well
//!   only if a migration is running or the mode is `Dstm`. The mirror is
//!   built by the escalation barrier and evicted by the de-escalation
//!   barrier.
//! * **Only one engine is ever hot.** A transaction is admitted to the
//!   current mode's engine only after publishing itself in its process
//!   slot's per-mode count and re-checking the mode/migration flag (a
//!   store-buffering a.k.a. Dekker handshake — both sides are `SeqCst`,
//!   so either the beginner sees the migration and backs out, or the
//!   migrator sees the beginner's count and waits). The migrator drains
//!   every slot's count for the outgoing engine to **zero** before
//!   touching either table: no TL2 transaction can race a DSTM locator
//!   on the same variable, ever. Both handshakes are
//!   [`oftm_core::kernel::ModeGate`], model-checked by `oftm-verify`'s
//!   `model_mode_gate`.
//! * **Value copy at quiescence.** With both engines quiescent the
//!   migrator walks the outgoing engine's live set. Escalating, it
//!   registers every id the DSTM table lacks with its current value and
//!   compares the ones it holds already — an allocator that raced an
//!   earlier eviction may have left one behind with a stale value.
//!   De-escalating, it compares every id TL2 still has, then empties the
//!   DSTM table. Differing values are written through ordinary (chunked)
//!   transactions, which trivially commit because nothing else is
//!   running. In `Dstm` mode a retiring commit frees its blocks on TL2
//!   at once (no TL2 transaction exists to read them) and the copy skips
//!   ids TL2 no longer has; in TL2 mode there is no mirror to free.
//! * **Parking survives the switch.** The hybrid owns the
//!   [`CommitNotifier`] and hands each engine a clone at construction, so
//!   whichever engine commits publishes where the facade's waiters park:
//!   futures parked before a migration are woken by commits after it.
//!
//! In TL2 mode a transaction pays, over what TL2 charges: a begin count
//! and two `SeqCst` read-modify-writes on its process slot's private
//! line, three loads of the two shared read-mostly gate words, one
//! `Box`, and a second dynamic dispatch per operation.
//!
//! ## The policy
//!
//! One windowed controller, on constants. Every [`WINDOW`] begins
//! (counted in batches of 16 per process) the window closes on a
//! `stats().snapshot()` delta. *Escalate fast*: in TL2 mode, a window
//! whose aborts/begins ratio is at least [`ESCALATE_RATIO`] and whose
//! aborts are at least [`ESCALATE_SHARE`] `lock_busy` + `read_validation`
//! migrates at once; aborts a body gives up on (explicit retries) are not
//! TL2's pathology and do not count. *De-escalate slowly*: in DSTM mode,
//! only after [`CALM_WINDOWS`] consecutive calm windows (abort ratio at
//! most [`CALM_RATIO`]) and never closer than [`DWELL`] begins after the
//! last migration — the de-escalation side is the throttled one, so the
//! controller cannot thrash back into a still-raging storm, while
//! escalation is always immediate. [`HybridStm::migrate`] runs the same
//! barrier with no policy at all.
//!
//! The hybrid is **not** obstruction-free: its default mode is a
//! lock-based TM, which is exactly the trade the motivating papers argue
//! for. [`WordStm::is_obstruction_free`] answers `false`.

use oftm_baselines::Tl2Stm;
use oftm_core::api::{TxResult, WordStm, WordTx};
use oftm_core::cm::Courteous;
use oftm_core::kernel::{ModeGate, StdSync};
use oftm_core::notify::CommitNotifier;
use oftm_core::record::Recorder;
use oftm_core::{Dstm, DstmWord};
use oftm_histories::{TVarId, TxId, Value};
use oftm_obs::{AbortCause, Counter, StatsSnapshot, StmStats};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Which embedded engine currently executes transactions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// TL2 fast path (default): optimistic reads, commit-time locking.
    Tl2 = 0,
    /// DSTM arbitration: eager ownership + courteous contention manager.
    Dstm = 1,
}

impl Mode {
    /// The mode a migration from `self` goes to.
    pub fn other(self) -> Mode {
        match self {
            Mode::Tl2 => Mode::Dstm,
            Mode::Dstm => Mode::Tl2,
        }
    }

    fn from_usize(m: usize) -> Mode {
        if m == Mode::Dstm as usize {
            Mode::Dstm
        } else {
            Mode::Tl2
        }
    }
}

/// Process slots of the admission gate (`proc & 63` picks one).
const PROC_SLOTS: usize = 64;

/// Begins a process slot counts privately before it adds them to the
/// shared `ops` clock and looks at the window boundary.
const BEGIN_BATCH: u64 = 16;

/// Begins per controller window.
pub const WINDOW: u64 = 512;

/// A TL2-mode window escalates at this aborts/begins ratio or above…
pub const ESCALATE_RATIO: f64 = 0.5;

/// …when `lock_busy` + `read_validation` hold at least this share of its
/// aborts (CM-arbitrated or explicit-retry storms are not TL2's
/// pathology and must not trigger the switch).
pub const ESCALATE_SHARE: f64 = 0.5;

/// A window is *calm* at this abort ratio or below.
pub const CALM_RATIO: f64 = 0.1;

/// Consecutive calm windows before a DSTM-mode instance migrates back.
pub const CALM_WINDOWS: u32 = 4;

/// Minimum begins between a migration and a de-escalation: the
/// anti-oscillation dwell. Escalation never waits on it — a storm
/// response must not wait out a throttle while TL2 livelocks.
pub const DWELL: u64 = 4096;

/// Process id the migration copy transactions run under; outside the
/// harness range so per-proc telemetry and clock-shard choice stay
/// distinguishable in traces.
const MIGRATION_PROC: u32 = 63;

/// Writes per migration-copy transaction.
const COPY_CHUNK: usize = 128;

/// Transaction-sequence base of the embedded DSTM engine: keeps its
/// `TxId`s disjoint from the TL2 engine's when both feed one recorder.
const DSTM_TX_BASE: u32 = 1 << 31;

/// The policy has no settings: this fieldless value only keeps
/// `HybridStm::new(HybridConfig::default())`, the constructor the
/// benchmark package builds against, compiling. The thresholds are the
/// crate's constants ([`WINDOW`] and the rest). `#[non_exhaustive]`, so
/// other crates spell it `HybridConfig::default()`, as that call does.
#[derive(Clone, Copy, Debug, Default)]
#[non_exhaustive]
pub struct HybridConfig;

/// Closes one window: `delta` is what the window counted, `calm` the calm
/// windows that closed in a row before it, and `since_migration` the
/// begins since the last migration. Returns the calm count after this
/// window and the mode to migrate to, if any.
fn window_verdict(
    mode: Mode,
    delta: &StatsSnapshot,
    calm: u32,
    since_migration: u64,
) -> (u32, Option<Mode>) {
    let ratio = delta.abort_ratio();
    match mode {
        Mode::Tl2 => {
            let storm = delta.cause_share(AbortCause::LockBusy)
                + delta.cause_share(AbortCause::ReadValidation);
            let escalate = ratio >= ESCALATE_RATIO && storm >= ESCALATE_SHARE;
            (calm, escalate.then_some(Mode::Dstm))
        }
        Mode::Dstm if ratio <= CALM_RATIO => {
            let calm = calm + 1;
            let back = calm >= CALM_WINDOWS && since_migration >= DWELL;
            (calm, back.then_some(Mode::Tl2))
        }
        Mode::Dstm => (0, None),
    }
}

/// The contention-adaptive hybrid backend (see crate docs).
pub struct HybridStm {
    tl2: Tl2Stm,
    dstm: DstmWord,
    /// One registry shared by the facade and both engines.
    stats: Arc<StmStats>,
    /// The one notification endpoint; both engines publish into clones of
    /// it, so parked futures survive migrations.
    notify: CommitNotifier,
    /// Mode, migration flag and the per-process admission slots; each
    /// slot's private line also counts the begins admitted through it.
    gate: ModeGate<StdSync, AtomicU64>,
    /// Begins observed, in batches — the controller's logical clock.
    ops: AtomicU64,
    /// Next window boundary (in begins), claimed by CAS.
    next_window: AtomicU64,
    /// `ops` value at the last migration (the dwell's reference).
    last_migration_op: AtomicU64,
    /// Consecutive calm windows while in DSTM mode.
    calm_windows: AtomicU32,
    /// Snapshot at the last window close; deltas against it drive the
    /// policy. Taken only by the window-closing thread (claims are
    /// unique, so uncontended in practice). Replaced whole, so poison is
    /// recovered (`window_prev`).
    window_prev: Mutex<StatsSnapshot>,
}

impl HybridStm {
    /// A hybrid with no recorder ([`HybridConfig`] carries nothing).
    pub fn new(_: HybridConfig) -> Self {
        Self::build(None)
    }

    /// A hybrid whose embedded engines share one low-level history
    /// recorder (instrumented runs).
    pub fn with_recorder(rec: Arc<Recorder>) -> Self {
        Self::build(Some(rec))
    }

    fn build(rec: Option<Arc<Recorder>>) -> Self {
        let stats = Arc::new(StmStats::new());
        let notify = CommitNotifier::new();
        let mut tl2 = Tl2Stm::new()
            .with_stats(Arc::clone(&stats))
            .with_notifier(notify.clone());
        let mut dstm_inner = Dstm::new(Arc::new(Courteous))
            .with_stats(Arc::clone(&stats))
            .with_tx_base(DSTM_TX_BASE);
        if let Some(rec) = rec {
            tl2 = tl2.with_recorder(Arc::clone(&rec));
            dstm_inner = dstm_inner.with_recorder(rec);
        }
        let prev = stats.snapshot();
        HybridStm {
            tl2,
            dstm: DstmWord::new(dstm_inner)
                .with_notifier(notify.clone())
                .as_mirror(),
            stats,
            notify,
            gate: ModeGate::new(PROC_SLOTS, || AtomicU64::new(0)),
            ops: AtomicU64::new(0),
            next_window: AtomicU64::new(WINDOW),
            last_migration_op: AtomicU64::new(0),
            calm_windows: AtomicU32::new(0),
            window_prev: Mutex::new(prev),
        }
    }

    /// Current execution mode.
    pub fn mode(&self) -> Mode {
        Mode::from_usize(self.gate.mode())
    }

    /// Process-wide migrations performed so far.
    pub fn migrations(&self) -> u64 {
        self.stats.snapshot().get(Counter::ModeMigrations)
    }

    /// Reads a t-variable non-transactionally from the active engine
    /// (test oracle; racy against a concurrent migration).
    pub fn peek(&self, x: TVarId) -> Option<Value> {
        match self.mode() {
            Mode::Tl2 => self.tl2.peek(x),
            Mode::Dstm => self.dstm.peek(x),
        }
    }

    /// The per-begin policy hook: once per [`BEGIN_BATCH`] begins of a
    /// slot, the windowed controller.
    fn note_begin(&self, slot_begins: &AtomicU64) {
        // ord: Relaxed load and store, not an RMW — the line is private
        // unless two threads share a slot, and a begin lost between them
        // only delays a window.
        let begins = slot_begins.load(Ordering::Relaxed) + 1;
        slot_begins.store(begins, Ordering::Relaxed);
        if begins % BEGIN_BATCH != 0 {
            return;
        }
        // ord: Relaxed — the controller's logical clock; atomicity alone
        // keeps window claims disjoint.
        let op = self.ops.fetch_add(BEGIN_BATCH, Ordering::Relaxed) + BEGIN_BATCH;
        // ord: Relaxed CAS — only window-claim uniqueness matters; the
        // snapshot delta inside carries its own ordering.
        let boundary = self.next_window.load(Ordering::Relaxed);
        if op >= boundary
            && self
                .next_window
                // ord: Relaxed on success and failure — see above.
                .compare_exchange(boundary, op + WINDOW, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
        {
            self.close_window(op);
        }
    }

    fn window_prev(&self) -> MutexGuard<'_, StatsSnapshot> {
        self.window_prev.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Closes a controller window at clock value `op` and acts on its
    /// verdict ([`window_verdict`]).
    fn close_window(&self, op: u64) {
        let snap = self.stats.snapshot();
        let delta = {
            let mut prev = self.window_prev();
            let delta = snap.since(&prev);
            *prev = snap;
            delta
        };
        // ord: Relaxed — controller bookkeeping, single window-closer at a
        // time by CAS construction; staleness only delays or repeats a
        // dwell check, never corrupts the barrier.
        let since = op.saturating_sub(self.last_migration_op.load(Ordering::Relaxed));
        let calm = self.calm_windows.load(Ordering::Relaxed);
        let (calm, target) = window_verdict(self.mode(), &delta, calm, since);
        self.calm_windows.store(calm, Ordering::Relaxed);
        if let Some(target) = target {
            self.migrate(target);
        }
    }

    /// Migrates the instance to `target` now, whatever the policy would
    /// say: runs the whole barrier (drain + copy + flip) on the calling
    /// thread and returns whether it migrated — `false` when the instance
    /// already runs `target` or another migration holds the barrier. The
    /// dwell starts again from here.
    ///
    /// The caller must hold no transaction of this instance: the drain
    /// waits until every admitted transaction has ended, the caller's own
    /// included, so a held one blocks it forever (the rule of
    /// [`WordStm::begin`] for blocking backends).
    pub fn migrate(&self, target: Mode) -> bool {
        self.gate.migrate(target as usize, |from| {
            self.copy_values(Mode::from_usize(from));
            self.stats.incr(Counter::ModeMigrations);
            // ord: Relaxed — controller bookkeeping, published to the
            // next window-closer by the gate's SeqCst flag store.
            self.last_migration_op
                .store(self.ops.load(Ordering::Relaxed), Ordering::Relaxed);
            self.calm_windows.store(0, Ordering::Relaxed);
        })
    }

    /// With both engines quiescent, brings the incoming engine up to the
    /// outgoing one's live values. Escalating builds the DSTM mirror: an
    /// id it lacks is registered with its current value, one it holds (an
    /// allocator raced an earlier eviction) is compared. De-escalating
    /// compares every id TL2 still has — the rest were retired-with-commit
    /// and freed there at once — and then empties the DSTM table.
    /// Differing values go through ordinary chunked transactions (they
    /// commit unopposed).
    fn copy_values(&self, from: Mode) {
        let mut pending: Vec<(TVarId, Value)> = Vec::new();
        match from {
            Mode::Tl2 => self.tl2.for_each_live_value(|id, v| {
                if !self.dstm.register_tvar_if_absent(id, v) && self.dstm.peek(id) != Some(v) {
                    pending.push((id, v));
                }
            }),
            Mode::Dstm => self.dstm.for_each_live_value(|id, v| {
                if self.tl2.peek(id).is_some_and(|cur| cur != v) {
                    pending.push((id, v));
                }
            }),
        }
        let engine: &dyn WordStm = match from.other() {
            Mode::Tl2 => &self.tl2,
            Mode::Dstm => &self.dstm,
        };
        for chunk in pending.chunks(COPY_CHUNK) {
            // Quiescent engine: the first attempt commits; loop anyway so
            // a contract violation surfaces as livelock in tests rather
            // than silent value loss.
            loop {
                let mut tx = engine.begin(MIGRATION_PROC);
                let wrote = chunk.iter().try_for_each(|&(id, v)| tx.write(id, v));
                match wrote {
                    Ok(()) => {
                        if tx.try_commit().is_ok() {
                            break;
                        }
                    }
                    Err(_) => tx.try_abort(),
                }
            }
        }
        if from == Mode::Dstm {
            self.dstm.evict_all();
        }
    }

    fn begin_inner(&self, proc: u32, ro: bool) -> Box<dyn WordTx + '_> {
        let slot = proc as usize & (PROC_SLOTS - 1);
        self.note_begin(self.gate.local(slot));
        let mode = Mode::from_usize(self.gate.admit(slot));
        let inner = match (mode, ro) {
            (Mode::Tl2, false) => self.tl2.begin(proc),
            (Mode::Tl2, true) => self.tl2.begin_ro(proc),
            (Mode::Dstm, false) => self.dstm.begin(proc),
            (Mode::Dstm, true) => self.dstm.begin_ro(proc),
        };
        Box::new(HybridTx {
            stm: self,
            inner: Some(inner),
            mode,
            slot,
            retired: Vec::new(),
        })
    }
}

/// A hybrid transaction: delegates to the engine it was admitted to and
/// keeps the facade-level bookkeeping (TL2-side frees in `Dstm` mode, the
/// admission slot). Reads and writes are forwarded untouched — a tail
/// call.
struct HybridTx<'s> {
    stm: &'s HybridStm,
    inner: Option<Box<dyn WordTx + 's>>,
    mode: Mode,
    /// Admission slot (`proc & 63`).
    slot: usize,
    /// Blocks retired in `Dstm` mode; freed on TL2 after commit (DSTM
    /// defers through its own grace tracker). Never filled in TL2 mode,
    /// where DSTM has nothing to free.
    retired: Vec<(TVarId, usize)>,
}

impl HybridTx<'_> {
    fn inner(&mut self) -> &mut (dyn WordTx + '_) {
        self.inner
            .as_mut()
            .expect("transaction still running")
            .as_mut()
    }

    fn take_inner(&mut self) -> Box<dyn WordTx + '_> {
        self.inner.take().expect("transaction still running")
    }
}

impl WordTx for HybridTx<'_> {
    fn id(&self) -> TxId {
        self.inner.as_ref().expect("transaction still running").id()
    }

    fn read(&mut self, x: TVarId) -> TxResult<Value> {
        self.inner().read(x)
    }

    fn write(&mut self, x: TVarId, v: Value) -> TxResult<()> {
        self.inner().write(x, v)
    }

    fn try_commit(mut self: Box<Self>) -> TxResult<()> {
        self.take_inner().try_commit()?;
        // TL2-side frees (the migration drain cannot start until our slot
        // count drops in Drop, so TL2 is still transaction-free here).
        for &(base, len) in &self.retired {
            self.stm.tl2.free_tvar_block(base, len);
        }
        Ok(())
    }

    fn try_abort(mut self: Box<Self>) {
        self.take_inner().try_abort();
    }

    fn retire_tvar_block(&mut self, base: TVarId, len: usize) {
        self.inner().retire_tvar_block(base, len);
        if self.mode == Mode::Dstm {
            self.retired.push((base, len));
        }
    }

    fn footprint(&self, out: &mut Vec<TVarId>) {
        if let Some(inner) = self.inner.as_ref() {
            inner.footprint(out);
        }
    }
}

impl Drop for HybridTx<'_> {
    fn drop(&mut self) {
        // Drop the inner transaction (releasing engine-side state)
        // *before* retiring our admission: the migration drain treats a
        // zero count as "the outgoing engine is quiescent".
        self.inner = None;
        self.stm.gate.leave(self.slot, self.mode as usize);
    }
}

impl WordStm for HybridStm {
    fn name(&self) -> &'static str {
        "hybrid"
    }

    fn register_tvar(&self, x: TVarId, initial: Value) {
        // TL2 is the id authority; DSTM mirrors it only while it runs or
        // is about to.
        self.tl2.register_tvar(x, initial);
        if self.gate.must_mirror() {
            self.dstm.register_tvar(x, initial);
        }
    }

    fn alloc_tvar_block(&self, initials: &[Value]) -> TVarId {
        let base = self.tl2.alloc_tvar_block(initials);
        if self.gate.must_mirror() {
            // The escalation walk may be registering the same ids.
            for (k, &v) in initials.iter().enumerate() {
                self.dstm
                    .register_tvar_if_absent(TVarId(base.0 + k as u64), v);
            }
        }
        base
    }

    fn free_tvar_block(&self, base: TVarId, len: usize) {
        self.tl2.free_tvar_block(base, len);
        self.dstm.free_tvar_block(base, len);
    }

    fn live_tvars(&self) -> usize {
        // The TL2 table is the allocator of record. The DSTM table is
        // empty in TL2 mode — up to ids an allocator racing a
        // de-escalation's eviction left behind, which the next round trip
        // evicts — and a mirror of it in `Dstm` mode.
        self.tl2.live_tvars()
    }

    fn begin(&self, proc: u32) -> Box<dyn WordTx + '_> {
        self.begin_inner(proc, false)
    }

    fn begin_ro(&self, proc: u32) -> Box<dyn WordTx + '_> {
        self.begin_inner(proc, true)
    }

    fn notifier(&self) -> &CommitNotifier {
        &self.notify
    }

    fn stats(&self) -> &StmStats {
        &self.stats
    }

    fn is_obstruction_free(&self) -> bool {
        // The default mode is a lock-based TM; the paper's trade-off is
        // the whole point of this backend.
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oftm_core::api::run_transaction;
    use std::sync::atomic::AtomicBool;

    const X: TVarId = TVarId(0);
    const Y: TVarId = TVarId(1);

    fn stm() -> HybridStm {
        let s = HybridStm::new(HybridConfig);
        s.register_tvar(X, 0);
        s.register_tvar(Y, 0);
        s
    }

    /// A closed window's delta: `begins` begun, `aborts` of each cause.
    fn window(begins: u64, aborts: &[(AbortCause, u64)]) -> StatsSnapshot {
        let stats = StmStats::new();
        stats.add(Counter::Begins, begins);
        for &(cause, n) in aborts {
            stats.add(cause.counter(), n);
        }
        stats.snapshot()
    }

    #[test]
    fn starts_in_tl2_mode_and_commits() {
        let s = stm();
        assert_eq!(s.mode(), Mode::Tl2);
        let (v, _) = run_transaction(&s, 0, |tx| {
            let v = tx.read(X)?;
            tx.write(X, v + 5)?;
            Ok(v)
        });
        assert_eq!(v, 0);
        assert_eq!(s.peek(X), Some(5));
    }

    #[test]
    fn a_storm_window_escalates() {
        let half = WINDOW / 2;
        // Half the window aborted, all of it TL2's pathology: escalate at
        // once, however recent the last migration.
        let storm = window(
            WINDOW,
            &[
                (AbortCause::ReadValidation, half - 8),
                (AbortCause::LockBusy, 8),
            ],
        );
        assert_eq!(
            window_verdict(Mode::Tl2, &storm, 0, 0),
            (0, Some(Mode::Dstm))
        );
        // One abort short of the ratio: stay.
        let short = window(WINDOW, &[(AbortCause::ReadValidation, half - 1)]);
        assert_eq!(window_verdict(Mode::Tl2, &short, 0, 0), (0, None));
        // In DSTM mode a storm only ends the calm streak.
        assert_eq!(window_verdict(Mode::Dstm, &storm, 2, DWELL), (0, None));
    }

    #[test]
    fn an_explicit_retry_window_does_not_escalate() {
        // A token-ring client that finds its source empty gives up, again
        // and again: most of the window is its explicit retries, with a
        // few real conflicts among them.
        let give_ups = window(
            WINDOW,
            &[
                (AbortCause::ExplicitRetry, 400),
                (AbortCause::ReadValidation, 40),
            ],
        );
        assert!(give_ups.abort_ratio() >= ESCALATE_RATIO);
        assert_eq!(window_verdict(Mode::Tl2, &give_ups, 0, DWELL), (0, None));
    }

    #[test]
    fn four_calm_windows_deescalate() {
        // Calm: at most a tenth of the window aborted.
        let calm = window(WINDOW, &[(AbortCause::CmArbitrated, WINDOW / 10)]);
        let mut n = 0;
        for _ in 1..CALM_WINDOWS {
            assert_eq!(window_verdict(Mode::Dstm, &calm, n, DWELL), (n + 1, None));
            n += 1;
        }
        assert_eq!(
            window_verdict(Mode::Dstm, &calm, n, DWELL),
            (CALM_WINDOWS, Some(Mode::Tl2))
        );
        // One abort more and the window is not calm: the streak restarts.
        let busy = window(WINDOW, &[(AbortCause::CmArbitrated, WINDOW / 10 + 1)]);
        assert_eq!(window_verdict(Mode::Dstm, &busy, n, DWELL), (0, None));
        // In TL2 mode calm windows are nothing to count.
        assert_eq!(window_verdict(Mode::Tl2, &calm, 0, DWELL), (0, None));
    }

    #[test]
    fn dwell_blocks_immediate_oscillation() {
        let calm = window(WINDOW, &[]);
        // The fourth calm window closes one begin short of the dwell: the
        // mode holds and the streak runs on…
        assert_eq!(
            window_verdict(Mode::Dstm, &calm, CALM_WINDOWS - 1, DWELL - 1),
            (CALM_WINDOWS, None)
        );
        // …so the first calm window past the dwell migrates.
        assert_eq!(
            window_verdict(Mode::Dstm, &calm, CALM_WINDOWS, DWELL),
            (CALM_WINDOWS + 1, Some(Mode::Tl2))
        );
    }

    #[test]
    fn escalates_under_read_validation_storm_and_deescalates_after() {
        // The controller's wiring. One thread on one slot, so the window
        // clock counts every begin: the storm added here lands in the
        // first window, whose close at its `WINDOW`th begin escalates;
        // calm traffic then de-escalates at the first window close a
        // `DWELL` past that.
        let s = stm();
        s.stats().add(Counter::Begins, 3 * WINDOW);
        s.stats().add(Counter::AbortReadValidation, 3 * WINDOW);
        for i in 1..WINDOW {
            run_transaction(&s, 0, |tx| tx.write(X, i));
        }
        assert_eq!((s.mode(), s.migrations()), (Mode::Tl2, 0), "window open");
        run_transaction(&s, 0, |tx| tx.write(X, WINDOW));
        assert_eq!((s.mode(), s.migrations()), (Mode::Dstm, 1));
        let mut begins = WINDOW;
        while s.mode() == Mode::Dstm {
            assert!(begins < WINDOW + DWELL, "no de-escalation by {begins}");
            begins += 1;
            run_transaction(&s, 0, |tx| tx.write(Y, begins));
        }
        assert_eq!(begins, WINDOW + DWELL);
        assert_eq!(s.migrations(), 2);
        // Both barriers carried the values across.
        assert_eq!(s.peek(X), Some(WINDOW));
        assert_eq!(s.peek(Y), Some(WINDOW + DWELL));
    }

    #[test]
    fn calm_handoff_never_profiles_the_storm() {
        // Two clients hand one token back and forth (the benchmark's
        // token ring in miniature): a client that finds its source empty
        // gives up on its own. Real threads, but each attempt runs alone,
        // from begin to tryC/tryA, so the engine never aborts one: every
        // abort of every window is a give-up, and no number of them looks
        // like a storm.
        let s = stm();
        run_transaction(&s, 9, |tx| tx.write(X, 1));
        let turn = Mutex::new(());
        std::thread::scope(|sc| {
            for (p, from, to) in [(0u32, X, Y), (1u32, Y, X)] {
                let (s, turn) = (&s, &turn);
                sc.spawn(move || {
                    let mut moved = 0;
                    while moved < 2_000 {
                        let alone = turn.lock().unwrap();
                        let mut tx = s.begin(p);
                        let have = tx.read(from).expect("attempts run alone");
                        if have == 0 {
                            tx.try_abort();
                            drop(alone);
                            std::thread::yield_now();
                            continue;
                        }
                        tx.write(from, have - 1)
                            .and_then(|()| tx.read(to))
                            .and_then(|n| tx.write(to, n + 1))
                            .and_then(|()| tx.try_commit())
                            .expect("attempts run alone");
                        moved += 1;
                    }
                });
            }
        });
        assert!(s.stats().snapshot().get(Counter::AbortExplicitRetry) > 0);
        assert_eq!(s.migrations(), 0);
        assert_eq!(s.peek(X).unwrap() + s.peek(Y).unwrap(), 1);
    }

    #[test]
    fn allocation_is_coherent_across_migration() {
        let s = stm();
        let blk = s.alloc_tvar_block(&[7, 8, 9]);
        run_transaction(&s, 1, |tx| tx.write(TVarId(blk.0 + 1), 80));
        assert!(s.migrate(Mode::Dstm));
        assert_eq!(s.dstm.live_tvars(), s.live_tvars(), "the mirror is whole");
        // The block reads back through the DSTM engine with the TL2-era
        // values (one written, two initial).
        let (vals, _) = run_transaction(&s, 2, |tx| {
            Ok((
                tx.read(blk)?,
                tx.read(TVarId(blk.0 + 1))?,
                tx.read(TVarId(blk.0 + 2))?,
            ))
        });
        assert_eq!(vals, (7, 80, 9));
        // Allocate while in DSTM mode, migrate back, read through TL2.
        let blk2 = s.alloc_tvar_block(&[42]);
        run_transaction(&s, 2, |tx| tx.write(blk2, 43));
        assert!(s.migrate(Mode::Tl2));
        assert_eq!(s.migrations(), 2);
        assert_eq!(s.peek(blk2), Some(43));
        assert_eq!(s.peek(TVarId(blk.0 + 1)), Some(80));
        // A full round trip at quiescence: X, Y and the two blocks are
        // live, and the mirror is gone again.
        assert_eq!(s.live_tvars(), 2 + 3 + 1);
        assert_eq!(s.dstm.live_tvars(), 0);
    }

    #[test]
    fn dstm_holds_nothing_while_tl2_runs() {
        let s = stm();
        assert_eq!(s.dstm.live_tvars(), 0, "registrations went to TL2 only");
        // Locators the DSTM engine unlinked behind a peer wait in their
        // process's bag; de-escalating reclaims them, as nothing will run
        // there to do it (`oftm-core`'s
        // `a_live_walk_frees_the_locators_parked_behind_a_peer` counts
        // them).
        assert!(s.migrate(Mode::Dstm));
        let peer = s.dstm.begin(1);
        for i in 0..10 {
            run_transaction(&s.dstm, 0, |tx| tx.write(X, i));
        }
        peer.try_commit().unwrap();
        assert!(s.migrate(Mode::Tl2));
        assert_eq!(s.dstm.live_tvars(), 0, "the mirror is gone");
        assert_eq!(s.peek(X), Some(9));
        let mut node = s.alloc_tvar_block(&[0, 0]);
        for i in 0..1_000u64 {
            // Replace the node X points at, the way a list would.
            let fresh = s.alloc_tvar_block(&[i, 0]);
            run_transaction(&s, 0, |tx| {
                tx.write(X, fresh.0)?;
                tx.retire_tvar_block(node, 2);
                Ok(())
            });
            node = fresh;
        }
        assert_eq!(s.mode(), Mode::Tl2);
        assert_eq!(s.live_tvars(), 2 + 2);
        assert_eq!(s.dstm.live_tvars(), 0);
    }

    #[test]
    fn retire_frees_both_engines_after_commit() {
        let s = stm();
        for mode in [Mode::Tl2, Mode::Dstm] {
            if s.mode() != mode {
                assert!(s.migrate(mode));
            }
            let blk = s.alloc_tvar_block(&[1, 2]);
            let live = s.live_tvars();
            let mut tx = s.begin(1);
            tx.write(X, 1).unwrap();
            tx.retire_tvar_block(blk, 2);
            tx.try_commit().unwrap();
            assert_eq!(s.live_tvars(), live - 2);
            // Neither engine has the block: a fresh transaction in either
            // mode panics on the uniform diagnostic (checked via peek).
            assert_eq!(s.tl2.peek(blk), None, "{mode:?}");
            assert_eq!(s.dstm.peek(blk), None, "{mode:?}");
        }
        assert_eq!(s.dstm.live_tvars(), s.live_tvars());
    }

    /// The TL2 table is the allocator of record: the mirror's
    /// registrations, evictions and frees count nothing, nor does a
    /// re-registration, so allocated − freed is what is live.
    #[test]
    fn a_round_trip_counts_each_tvar_once() {
        let s = HybridStm::new(HybridConfig);
        let counts = |s: &HybridStm| {
            let snap = s.stats().snapshot();
            (
                snap.get(Counter::TvarsAllocated),
                snap.get(Counter::TvarsFreed),
            )
        };
        s.register_tvar(X, 0);
        assert!(s.migrate(Mode::Dstm)); // mirrors X
        let blk = s.alloc_tvar_block(&[0; 4]); // on TL2 and the mirror
        assert_eq!(counts(&s), (5, 0));
        assert_eq!(s.live_tvars(), 5);
        s.free_tvar_block(blk, 4); // on both engines
        assert!(s.migrate(Mode::Tl2)); // evicts the mirror
        assert_eq!(counts(&s), (5, 4));
        assert_eq!(s.live_tvars(), 1);
        s.register_tvar(X, 1); // replaces: not an allocation
        assert_eq!(counts(&s), (5, 4));
    }

    /// Migrations one thread forces between its own transactions: fewer
    /// begins in all than [`DWELL`] and no conflict among the
    /// transactions keep the policy out, so the count is exact.
    const FORCED: u64 = 10;

    #[test]
    fn allocator_outside_transactions_survives_migrations() {
        // One thread allocates, writes and frees with no transaction of
        // its own open across the three, so every step can fall on either
        // side of a barrier the other thread forces.
        let s = stm();
        let done = AtomicBool::new(false);
        let kept: Vec<(TVarId, u64)> = std::thread::scope(|sc| {
            let (s, done) = (&s, &done);
            sc.spawn(move || {
                for i in 0..FORCED {
                    run_transaction(s, 0, |tx| tx.write(Y, i));
                    assert!(s.migrate(s.mode().other()), "uncontended barrier");
                }
                // ord: Relaxed — a stop flag; the scope's join orders
                // everything else.
                done.store(true, Ordering::Relaxed);
            });
            let mut kept = Vec::new();
            for i in 0..2_048u64 {
                let blk = s.alloc_tvar_block(&[i, i]);
                let last = TVarId(blk.0 + 1);
                run_transaction(s, 5, |tx| tx.write(last, i + 1));
                if i % 64 == 0 {
                    kept.push((last, i + 1));
                    s.free_tvar_block(blk, 1);
                } else {
                    s.free_tvar_block(blk, 2);
                }
                // ord: Relaxed — see the store.
                if done.load(Ordering::Relaxed) {
                    break;
                }
            }
            kept
        });
        assert_eq!(s.migrations(), FORCED);
        for round in 0..2 {
            for &(id, want) in &kept {
                let (got, _) = run_transaction(&s, 6, |tx| tx.read(id));
                assert_eq!(got, want, "{id} in {:?} (pass {round})", s.mode());
            }
            assert!(s.migrate(s.mode().other()));
        }
        assert_eq!(s.migrations(), FORCED + 2);
        assert_eq!(s.live_tvars(), 2 + kept.len());
    }

    #[test]
    fn notifier_wakes_across_migration() {
        // A waiter parks on the hybrid notifier before a migration; a
        // commit executed by the *other* engine afterwards must still
        // bump the watched shard version.
        let s = stm();
        let watched = [X];
        let mut snap = oftm_core::notify::WaitSnapshot::default();
        s.notifier().snapshot(watched.iter().copied(), &mut snap);
        assert!(s.migrate(Mode::Dstm));
        run_transaction(&s, 2, |tx| tx.write(X, 999));
        assert!(
            s.notifier().changed_since(&snap),
            "post-migration commit must be visible to pre-migration parkers"
        );
        assert_eq!(s.migrations(), 1);
    }

    #[test]
    fn concurrent_counter_survives_forced_migrations() {
        // Four clients each increment a counter of their own, client 0
        // forcing a migration after every twentieth of its increments, so
        // the others' transactions are in flight at every barrier. A
        // commit the drain let through on the outgoing engine after the
        // copy would be lost from the incoming one: every counter must
        // read exactly its increments.
        const ROUNDS: u64 = 20 * FORCED;
        let s = stm();
        let counters: Vec<TVarId> = (0..4).map(|p| TVarId(10 + p)).collect();
        for &c in &counters {
            s.register_tvar(c, 0);
        }
        std::thread::scope(|sc| {
            for (p, &c) in counters.iter().enumerate() {
                let s = &s;
                sc.spawn(move || {
                    for i in 1..=ROUNDS {
                        run_transaction(s, p as u32, |tx| {
                            let v = tx.read(c)?;
                            tx.write(c, v + 1)
                        });
                        if p == 0 && i % 20 == 0 {
                            assert!(s.migrate(s.mode().other()), "uncontended barrier");
                        }
                    }
                });
            }
        });
        assert_eq!(s.migrations(), FORCED);
        for &c in &counters {
            let (v, _) = run_transaction(&s, 9, |tx| tx.read(c));
            assert_eq!(v, ROUNDS, "{c} in {:?}", s.mode());
        }
    }

    #[test]
    fn ro_transactions_admit_and_commit_in_both_modes() {
        let s = stm();
        run_transaction(&s, 0, |tx| tx.write(X, 3));
        let (v, _) = oftm_core::api::run_transaction_ro(&s, 1, |tx| tx.read(X));
        assert_eq!(v, 3);
        assert!(s.migrate(Mode::Dstm));
        run_transaction(&s, 0, |tx| tx.write(X, 4));
        let (v, _) = oftm_core::api::run_transaction_ro(&s, 1, |tx| tx.read(X));
        assert_eq!(v, 4, "RO read must see the DSTM-era commit");
        assert_eq!(s.migrations(), 1);
    }
}
