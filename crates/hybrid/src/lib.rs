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
//! ## The policy (knobs in [`HybridConfig`])
//!
//! *Escalate fast*: a process whose last `escalation_budget` attempts
//! were all aborted **by the engine** while the window's abort profile is
//! `lock_busy`/`read_validation`-dominated requests escalation at its
//! next begin; an attempt its body gave up on (an explicit retry) neither
//! extends nor breaks the streak. *De-escalate slowly*: only after `deescalate_windows`
//! consecutive calm windows (abort ratio ≤ `deescalate_abort_ratio`),
//! and never closer than `dwell_ops` begins after the last migration —
//! the de-escalation side is the throttled one, so the controller
//! cannot thrash back into a still-raging storm, while escalation is
//! always immediate.
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
use oftm_obs::{AbortCause, Counter, StmStats};
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
    fn other(self) -> Mode {
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
/// shared `ops` clock and looks at the window boundary: below
/// [`HybridConfig::eager`]'s window, so no policy loses a window to it.
const BEGIN_BATCH: u64 = 16;

/// Process id the migration copy transactions run under; outside the
/// harness range so per-proc telemetry and clock-shard choice stay
/// distinguishable in traces.
const MIGRATION_PROC: u32 = 63;

/// Writes per migration-copy transaction.
const COPY_CHUNK: usize = 128;

/// Transaction-sequence base of the embedded DSTM engine: keeps its
/// `TxId`s disjoint from the TL2 engine's when both feed one recorder.
const DSTM_TX_BASE: u32 = 1 << 31;

/// Migration-policy knobs (see crate docs for the policy shape).
#[derive(Clone, Copy, Debug)]
pub struct HybridConfig {
    /// Consecutive attempts of one process aborted by the engine (not
    /// given up by the body) before that process requests escalation at
    /// its next begin.
    pub escalation_budget: u32,
    /// Begins per controller window (counted in batches of 16 per
    /// process); each window closes with a `stats().snapshot()` delta
    /// the policy decides on.
    pub window_ops: u64,
    /// Escalate when a window's aborts/begins ratio reaches this…
    pub escalate_abort_ratio: f64,
    /// …and `lock_busy + read_validation` hold at least this share of
    /// the window's aborts (CM-arbitrated or explicit-retry storms are
    /// not TL2's pathology and must not trigger the switch).
    pub escalate_cause_share: f64,
    /// A window is *calm* when its abort ratio is at or below this.
    pub deescalate_abort_ratio: f64,
    /// Consecutive calm windows before migrating back to TL2.
    pub deescalate_windows: u32,
    /// Minimum begins between a migration and a subsequent
    /// *de-escalation* (DSTM → TL2): the anti-oscillation dwell.
    /// Escalation is never dwell-blocked — a storm response must not
    /// wait out a throttle while TL2 livelocks.
    pub dwell_ops: u64,
}

impl Default for HybridConfig {
    fn default() -> Self {
        HybridConfig {
            escalation_budget: 8,
            window_ops: 512,
            escalate_abort_ratio: 0.5,
            escalate_cause_share: 0.5,
            deescalate_abort_ratio: 0.1,
            deescalate_windows: 4,
            dwell_ops: 4096,
        }
    }
}

impl HybridConfig {
    /// A hair-trigger policy for migration-forcing tests and seeds: tiny
    /// budget, window and dwell, so a short synthetic storm flips the
    /// mode within a few operations.
    pub fn eager() -> Self {
        HybridConfig {
            escalation_budget: 2,
            window_ops: 32,
            escalate_abort_ratio: 0.3,
            escalate_cause_share: 0.3,
            deescalate_abort_ratio: 0.2,
            deescalate_windows: 2,
            dwell_ops: 16,
        }
    }

    /// A deliberately miswired policy that escalates on *any* abort and
    /// never de-escalates — the negative oracle the throughput gate must
    /// catch (it parks the backend in DSTM mode on low-contention phases
    /// where TL2 is ~2× faster).
    pub fn always_escalate() -> Self {
        HybridConfig {
            escalation_budget: 1,
            window_ops: 16,
            escalate_abort_ratio: 0.0,
            escalate_cause_share: 0.0,
            deescalate_abort_ratio: -1.0, // no window is ever calm
            deescalate_windows: u32::MAX,
            dwell_ops: 0,
        }
    }
}

/// What a process slot keeps on its private line beside the gate's counts.
struct ProcLocal {
    /// Begins through this slot; every [`BEGIN_BATCH`]th feeds `ops`.
    begins: AtomicU64,
    /// Consecutive attempts an engine aborted; a commit clears it.
    streak: AtomicU32,
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
    cfg: HybridConfig,
    /// Mode, migration flag and the per-process admission slots.
    gate: ModeGate<StdSync, ProcLocal>,
    /// Begins observed, in batches — the controller's logical clock.
    ops: AtomicU64,
    /// Next window boundary (in begins), claimed by CAS.
    next_window: AtomicU64,
    /// `ops` value at the last migration (dwell reference);
    /// `u64::MAX` until the first migration, which dwell never blocks.
    last_migration_op: AtomicU64,
    /// Consecutive calm windows while in DSTM mode.
    calm_windows: AtomicU32,
    /// Snapshot at the last window close; deltas against it drive the
    /// policy. Taken only by the single window-closing thread and by
    /// escalation-profile checks (uncontended in practice). Replaced
    /// whole, so poison is recovered (`window_prev`).
    window_prev: Mutex<StatsSnapshotBox>,
}

/// Newtype so the `Mutex` field above names a sized default.
struct StatsSnapshotBox(oftm_obs::StatsSnapshot);

impl HybridStm {
    /// A hybrid with the given policy and no recorder.
    pub fn new(cfg: HybridConfig) -> Self {
        Self::build(cfg, None)
    }

    /// A hybrid with the given policy whose embedded engines share one
    /// low-level history recorder (instrumented runs).
    pub fn with_recorder(cfg: HybridConfig, rec: Arc<Recorder>) -> Self {
        Self::build(cfg, Some(rec))
    }

    fn build(cfg: HybridConfig, rec: Option<Arc<Recorder>>) -> Self {
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
            dstm: DstmWord::new(dstm_inner).with_notifier(notify.clone()),
            stats,
            notify,
            cfg,
            gate: ModeGate::new(PROC_SLOTS, || ProcLocal {
                begins: AtomicU64::new(0),
                streak: AtomicU32::new(0),
            }),
            ops: AtomicU64::new(0),
            next_window: AtomicU64::new(cfg.window_ops.max(1)),
            last_migration_op: AtomicU64::new(u64::MAX),
            calm_windows: AtomicU32::new(0),
            window_prev: Mutex::new(StatsSnapshotBox(prev)),
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

    /// The per-begin policy hook: this process's escalation request, then
    /// — once per [`BEGIN_BATCH`] begins — the windowed controller.
    fn note_begin(&self, local: &ProcLocal) {
        // ord: Relaxed — a heuristic trigger on the slot's private line;
        // worst case the request fires one begin late.
        if local.streak.load(Ordering::Relaxed) >= self.cfg.escalation_budget
            && self.mode() == Mode::Tl2
            && self.storm_profile()
        {
            local.streak.store(0, Ordering::Relaxed);
            self.stats.incr(Counter::Escalations);
            // ord: Relaxed — escalation ignores the dwell `op` feeds.
            self.try_migrate(Mode::Dstm, self.ops.load(Ordering::Relaxed));
        }
        // ord: Relaxed load and store, not an RMW — the line is private
        // unless two threads share a slot, and a begin lost between them
        // only delays a window.
        let begins = local.begins.load(Ordering::Relaxed) + 1;
        local.begins.store(begins, Ordering::Relaxed);
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
                .compare_exchange(
                    boundary,
                    op + self.cfg.window_ops.max(1),
                    // ord: Relaxed on success and failure — see above.
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                )
                .is_ok()
        {
            self.close_window(op);
        }
    }

    fn window_prev(&self) -> MutexGuard<'_, StatsSnapshotBox> {
        self.window_prev.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Is the recent abort profile the TL2 pathology (`lock_busy` /
    /// `read_validation` dominated)? Evaluated as a delta since the last
    /// closed window. One process's streak alone is not enough: a thread
    /// repeatedly preempted mid-transaction can string together aborts
    /// in a globally calm run (sub-percent abort ratio), and escalating
    /// then trades a fast TL2 phase for a DSTM round trip — so the
    /// window delta must also show at least half the controller's
    /// escalation abort-ratio. An abort-free delta (window closed
    /// between the streak and this begin) defers to the next request,
    /// by which point the delta has the evidence.
    fn storm_profile(&self) -> bool {
        #[cfg(test)]
        tests::STORM_PROFILES.with(|n| n.set(n.get() + 1));
        let snap = self.stats.snapshot();
        let delta = snap.since(&self.window_prev().0);
        delta.aborts() > 0
            && delta.abort_ratio() >= self.cfg.escalate_abort_ratio * 0.5
            && delta.cause_share(AbortCause::LockBusy)
                + delta.cause_share(AbortCause::ReadValidation)
                >= self.cfg.escalate_cause_share
    }

    /// Closes a controller window: escalate fast, de-escalate slowly.
    fn close_window(&self, op: u64) {
        let snap = self.stats.snapshot();
        let delta = {
            let mut prev = self.window_prev();
            let delta = snap.since(&prev.0);
            prev.0 = snap;
            delta
        };
        let ratio = delta.abort_ratio();
        match self.mode() {
            Mode::Tl2 => {
                let storm = delta.cause_share(AbortCause::LockBusy)
                    + delta.cause_share(AbortCause::ReadValidation);
                if ratio >= self.cfg.escalate_abort_ratio && storm >= self.cfg.escalate_cause_share
                {
                    self.try_migrate(Mode::Dstm, op);
                }
            }
            Mode::Dstm => {
                if ratio <= self.cfg.deescalate_abort_ratio {
                    // ord: Relaxed — monotonic calm streak, single
                    // window-closer at a time by CAS construction.
                    let calm = self.calm_windows.fetch_add(1, Ordering::Relaxed) + 1;
                    if calm >= self.cfg.deescalate_windows {
                        self.try_migrate(Mode::Tl2, op);
                    }
                } else {
                    // ord: Relaxed — same single-closer streak counter.
                    self.calm_windows.store(0, Ordering::Relaxed);
                }
            }
        }
    }

    /// Attempts a migration to `target`; returns whether it happened.
    /// Synchronous: runs the full barrier (drain + copy + flip) on the
    /// calling thread, which holds no transaction at this point.
    fn try_migrate(&self, target: Mode, op: u64) -> bool {
        // Dwell: a de-escalation may not follow the previous migration
        // closer than the configured distance — the anti-oscillation
        // throttle. Escalation is exempt: holding a storm in TL2 costs
        // far more than an extra round trip, and a de-escalation that
        // proves premature must be reversible immediately.
        // ord: Relaxed — heuristic throttle; staleness only delays or
        // duplicates a dwell check, never corrupts the barrier.
        let last = self.last_migration_op.load(Ordering::Relaxed);
        if target == Mode::Tl2 && last != u64::MAX && op.saturating_sub(last) < self.cfg.dwell_ops {
            return false;
        }
        self.gate.migrate(target as usize, |from| {
            self.copy_values(Mode::from_usize(from));
            self.stats.incr(Counter::ModeMigrations);
            // ord: Relaxed — controller bookkeeping, published to the
            // next window-closer by the gate's SeqCst flag store.
            self.last_migration_op
                .store(self.ops.load(Ordering::Relaxed), Ordering::Relaxed);
            self.calm_windows.store(0, Ordering::Relaxed);
            for local in self.gate.locals() {
                // ord: Relaxed — heuristic counters; resets published lazily.
                local.streak.store(0, Ordering::Relaxed);
            }
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
/// escalation streak, the admission slot). Reads and writes are forwarded
/// untouched — a tail call; whether the engine aborted an attempt is asked
/// of it once, when the attempt ends ([`WordTx::doomed`]).
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

    fn streak(&self) -> &AtomicU32 {
        &self.stm.gate.local(self.slot).streak
    }

    /// The engine aborted this attempt: only such an attempt extends the
    /// escalation streak. One its body gives up on by itself (an explicit
    /// retry) is not TL2's pathology.
    fn count_engine_abort(&self) {
        // ord: Relaxed — escalation streak bookkeeping.
        self.streak().fetch_add(1, Ordering::Relaxed);
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
        let inner = self.inner.take().expect("transaction still running");
        let r = inner.try_commit();
        match r {
            Ok(()) => {
                // TL2-side frees (the migration drain cannot start until
                // our slot count drops in Drop, so TL2 is still
                // transaction-free here).
                for &(base, len) in &self.retired {
                    self.stm.tl2.free_tvar_block(base, len);
                }
                // ord: Relaxed — escalation streak bookkeeping; the store
                // is skipped while the private line already reads zero.
                if self.streak().load(Ordering::Relaxed) != 0 {
                    self.streak().store(0, Ordering::Relaxed);
                }
            }
            Err(_) => self.count_engine_abort(),
        }
        r
    }

    fn try_abort(mut self: Box<Self>) {
        let inner = self.inner.take().expect("transaction still running");
        if inner.doomed() {
            self.count_engine_abort();
        }
        inner.try_abort();
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

    fn doomed(&self) -> bool {
        self.inner.as_ref().is_some_and(|tx| tx.doomed())
    }
}

impl Drop for HybridTx<'_> {
    fn drop(&mut self) {
        // Still holding the inner transaction: dropped live by a retry
        // loop, after the engine aborted it or after the body gave up.
        if self.doomed() {
            self.count_engine_abort();
        }
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

    const X: TVarId = TVarId(0);
    const Y: TVarId = TVarId(1);

    thread_local! {
        /// `storm_profile()` calls made by this thread.
        pub(super) static STORM_PROFILES: std::cell::Cell<u64> =
            const { std::cell::Cell::new(0) };
    }

    fn storm_profiles() -> u64 {
        STORM_PROFILES.with(std::cell::Cell::get)
    }

    fn stm(cfg: HybridConfig) -> HybridStm {
        let s = HybridStm::new(cfg);
        s.register_tvar(X, 0);
        s.register_tvar(Y, 0);
        s
    }

    /// Drives one `read_validation` storm round on the facade: a
    /// transaction begun before a foreign commit reads stale. In TL2
    /// mode the read deterministically aborts; once escalation flips
    /// the mode (possibly inside this very begin) a fresh DSTM read
    /// succeeds — callers watch `s.mode()` rather than the abort.
    fn one_stale_abort(s: &HybridStm, round: u64) {
        let mut stale = s.begin(0);
        run_transaction(s, 1, |tx| tx.write(X, round));
        let _ = stale.read(X);
        // Dropped unsettled: the engine tags the cause in its Drop.
        drop(stale);
    }

    #[test]
    fn starts_in_tl2_mode_and_commits() {
        let s = stm(HybridConfig::default());
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
    fn escalates_under_read_validation_storm_and_deescalates_after() {
        let cfg = HybridConfig::eager();
        let s = stm(cfg);
        // Storm: every iteration is one read_validation abort on proc 0
        // plus one commit on proc 1.
        let mut ops_to_escalate = None;
        for round in 0..200u64 {
            one_stale_abort(&s, round);
            if s.mode() == Mode::Dstm {
                ops_to_escalate = Some(round);
                break;
            }
        }
        let escalated_at = ops_to_escalate.expect("storm must escalate to DSTM");
        // Escalate fast: a handful of rounds, not the whole storm.
        assert!(
            escalated_at <= 64,
            "escalated only after {escalated_at} rounds"
        );
        let snap = s.stats().snapshot();
        assert!(snap.get(Counter::ModeMigrations) >= 1);
        assert!(snap.get(Counter::Escalations) >= 1);

        // Values must have survived the migration coherently.
        let (x, _) = run_transaction(&s, 2, |tx| tx.read(X));
        assert_eq!(x, escalated_at, "migrated value space lost a commit");

        // Calm traffic: commits only. Must de-escalate, but only after
        // deescalate_windows × window_ops begins at the earliest (dwell
        // and calm-streak respected).
        let migrations_before = s.migrations();
        let mut begins = 0u64;
        let mut back_at = None;
        for i in 0..(cfg.window_ops * (u64::from(cfg.deescalate_windows) + 4) * 4) {
            run_transaction(&s, 3, |tx| tx.write(Y, i));
            begins += 1;
            if s.mode() == Mode::Tl2 {
                back_at = Some(begins);
                break;
            }
        }
        let back_at = back_at.expect("calm traffic must de-escalate to TL2");
        assert_eq!(s.migrations(), migrations_before + 1);
        // De-escalate slowly: no earlier than the calm-streak length
        // minus the storm residue already in the open window.
        assert!(
            back_at + cfg.window_ops >= cfg.window_ops * u64::from(cfg.deescalate_windows),
            "de-escalated after only {back_at} calm begins"
        );
        // And the world is still coherent on the TL2 side.
        let (x, _) = run_transaction(&s, 2, |tx| tx.read(X));
        assert_eq!(x, escalated_at);
    }

    #[test]
    fn a_body_that_gives_up_builds_no_streak() {
        // What a token-ring client does on an empty queue, a thousand
        // times: the attempt is abandoned by its body (`tryA`, or dropped
        // live by the retry loop), never aborted by the engine. Eager
        // policy: two counted aborts would already request escalation.
        let s = stm(HybridConfig::eager());
        for i in 0..1_000u64 {
            let mut tx = s.begin(0);
            assert_eq!(tx.read(X).unwrap(), i / 10);
            if i % 2 == 0 {
                tx.try_abort();
            } else {
                drop(tx);
            }
            if i % 10 == 9 {
                run_transaction(&s, 1, |tx| tx.write(X, i / 10 + 1));
            }
        }
        let snap = s.stats().snapshot();
        assert_eq!(snap.get(Counter::Escalations), 0);
        assert_eq!(s.migrations(), 0);
        // ord: Relaxed — single-threaded test read of the streak word.
        assert_eq!(s.gate.local(0).streak.load(Ordering::Relaxed), 0);
        assert_eq!(storm_profiles(), 0, "a calm process profiled the storm");
    }

    #[test]
    fn calm_handoff_never_profiles_the_storm() {
        // Two clients hand one token back and forth (the benchmark's
        // token ring in miniature): a client that finds its source empty
        // gives up on its own. Default policy, real threads. Each attempt
        // runs alone, from begin to tryC/tryA, so the engine never aborts
        // one: the only streak a client could build is of its own
        // give-ups, which must not count.
        let s = stm(HybridConfig::default());
        run_transaction(&s, 9, |tx| tx.write(X, 1));
        let turn = Mutex::new(());
        let profiled: u64 = std::thread::scope(|sc| {
            let clients: Vec<_> = [(0u32, X, Y), (1u32, Y, X)]
                .into_iter()
                .map(|(p, from, to)| {
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
                        storm_profiles()
                    })
                })
                .collect();
            clients.into_iter().map(|c| c.join().unwrap()).sum()
        });
        assert_eq!(profiled, 0, "storm_profile() calls in a calm run");
        assert_eq!(s.migrations(), 0);
        assert_eq!(s.peek(X).unwrap() + s.peek(Y).unwrap(), 1);
    }

    #[test]
    fn dwell_blocks_immediate_oscillation() {
        let mut cfg = HybridConfig::eager();
        cfg.dwell_ops = 10_000; // enormous dwell: second migration impossible
        let s = stm(cfg);
        for round in 0..200u64 {
            one_stale_abort(&s, round);
            if s.mode() == Mode::Dstm {
                break;
            }
        }
        assert_eq!(s.mode(), Mode::Dstm);
        // Calm traffic well past the calm-streak threshold, but far
        // below the dwell: the mode must hold.
        for i in 0..500u64 {
            run_transaction(&s, 3, |tx| tx.write(Y, i));
        }
        assert_eq!(s.mode(), Mode::Dstm, "dwell violated");
        assert_eq!(s.migrations(), 1);
    }

    #[test]
    fn always_escalate_policy_parks_in_dstm() {
        // The miswired policy: a single abort escalates, nothing ever
        // de-escalates. The bench-side throughput gate is what catches
        // this; here we pin the behavioral signature it keys on.
        let s = stm(HybridConfig::always_escalate());
        one_stale_abort(&s, 1);
        for i in 0..100u64 {
            run_transaction(&s, 3, |tx| tx.write(Y, i));
        }
        assert_eq!(s.mode(), Mode::Dstm, "always-escalate must park in DSTM");
    }

    #[test]
    fn allocation_is_coherent_across_migration() {
        let s = stm(HybridConfig::eager());
        let blk = s.alloc_tvar_block(&[7, 8, 9]);
        run_transaction(&s, 1, |tx| tx.write(TVarId(blk.0 + 1), 80));
        for round in 0..200u64 {
            one_stale_abort(&s, round);
            if s.mode() == Mode::Dstm {
                break;
            }
        }
        assert_eq!(s.mode(), Mode::Dstm);
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
        for i in 0..10_000u64 {
            run_transaction(&s, 3, |tx| tx.write(Y, i));
            if s.mode() == Mode::Tl2 {
                break;
            }
        }
        assert_eq!(s.mode(), Mode::Tl2, "calm traffic must return to TL2");
        assert_eq!(s.peek(blk2), Some(43));
        assert_eq!(s.peek(TVarId(blk.0 + 1)), Some(80));
        // A full round trip at quiescence: X, Y and the two blocks are
        // live, and the mirror is gone again.
        assert_eq!(s.live_tvars(), 2 + 3 + 1);
        assert_eq!(s.dstm.live_tvars(), 0);
    }

    /// Forces the barrier, policy aside (no dwell applies at `u64::MAX`).
    fn force(s: &HybridStm, target: Mode) {
        assert!(s.try_migrate(target, u64::MAX), "uncontended barrier");
    }

    /// A payload that counts its live copies.
    struct Live(Arc<std::sync::atomic::AtomicUsize>);

    impl Live {
        fn new(live: &Arc<std::sync::atomic::AtomicUsize>) -> Self {
            live.fetch_add(1, Ordering::SeqCst);
            Live(Arc::clone(live))
        }
    }

    impl Clone for Live {
        fn clone(&self) -> Self {
            Live::new(&self.0)
        }
    }

    impl Drop for Live {
        fn drop(&mut self) {
            self.0.fetch_sub(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn dstm_holds_nothing_while_tl2_runs() {
        let s = stm(HybridConfig::default());
        assert_eq!(s.dstm.live_tvars(), 0, "registrations went to TL2 only");
        // Locators the DSTM engine unlinked behind a peer wait in their
        // process's bag; de-escalating reclaims them, as nothing will run
        // there to do it.
        force(&s, Mode::Dstm);
        let live = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let engine = s.dstm.inner();
        let v = engine.new_tvar(Live::new(&live));
        let peer = engine.begin(1);
        for _ in 0..10 {
            engine.atomically(0, |tx| tx.write(&v, Live::new(&live)));
        }
        peer.commit_read_only().unwrap();
        // `T_0`'s copy, the installed locator's two, and the unlinked ones.
        assert!(live.load(Ordering::SeqCst) > 3, "nothing waited");
        force(&s, Mode::Tl2);
        assert_eq!(live.load(Ordering::SeqCst), 3, "locators stranded");
        drop(v);
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
        let s = stm(HybridConfig::default());
        for mode in [Mode::Tl2, Mode::Dstm] {
            if s.mode() != mode {
                force(&s, mode);
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

    #[test]
    fn allocator_outside_transactions_survives_migrations() {
        // One thread allocates, writes and frees with no transaction of
        // its own open across the three, so every step can fall on either
        // side of a barrier; eager traffic keeps the barriers coming.
        let s = stm(HybridConfig::eager());
        let stop = std::sync::atomic::AtomicBool::new(false);
        let kept: Vec<(TVarId, u64)> = std::thread::scope(|sc| {
            for p in 0..2u32 {
                let (s, stop) = (&s, &stop);
                sc.spawn(move || {
                    // ord: Relaxed — a stop flag; the scope's join orders
                    // everything else.
                    while !stop.load(Ordering::Relaxed) {
                        run_transaction(s, p, |tx| {
                            let v = tx.read(X)?;
                            std::thread::yield_now();
                            tx.write(X, v + 1)
                        });
                    }
                });
            }
            let mut kept = Vec::new();
            let mut i = 0u64;
            while s.migrations() < 10 {
                assert!(i < 200_000, "eager traffic stopped migrating");
                let blk = s.alloc_tvar_block(&[i, i]);
                let last = TVarId(blk.0 + 1);
                run_transaction(&s, 5, |tx| tx.write(last, i + 1));
                if i % 64 == 0 {
                    kept.push((last, i + 1));
                    s.free_tvar_block(blk, 1);
                } else {
                    s.free_tvar_block(blk, 2);
                }
                i += 1;
            }
            stop.store(true, Ordering::Relaxed);
            kept
        });
        assert!(!kept.is_empty());
        for round in 0..2 {
            for &(id, want) in &kept {
                let (got, _) = run_transaction(&s, 6, |tx| tx.read(id));
                assert_eq!(got, want, "{id} in {:?} (pass {round})", s.mode());
            }
            force(&s, s.mode().other());
        }
        assert_eq!(s.live_tvars(), 2 + kept.len());
    }

    #[test]
    fn notifier_wakes_across_migration() {
        // A waiter parks on the hybrid notifier before a migration; a
        // commit executed by the *other* engine afterwards must still
        // bump the watched shard version.
        let s = stm(HybridConfig::eager());
        let watched = [X];
        let mut snap = oftm_core::notify::WaitSnapshot::default();
        s.notifier().snapshot(watched.iter().copied(), &mut snap);
        for round in 0..200u64 {
            one_stale_abort(&s, round);
            if s.mode() == Mode::Dstm {
                break;
            }
        }
        assert_eq!(s.mode(), Mode::Dstm);
        run_transaction(&s, 2, |tx| tx.write(X, 999));
        assert!(
            s.notifier().changed_since(&snap),
            "post-migration commit must be visible to pre-migration parkers"
        );
    }

    #[test]
    fn concurrent_counter_survives_forced_migrations() {
        // Mixed traffic on an eager policy: the counter total must be
        // exact no matter how many migrations interleave.
        let s = Arc::new(stm(HybridConfig::eager()));
        std::thread::scope(|sc| {
            for p in 0..4u32 {
                let s = Arc::clone(&s);
                sc.spawn(move || {
                    for i in 0..200u64 {
                        run_transaction(&*s, p, |tx| {
                            let v = tx.read(X)?;
                            if i % 8 == 0 {
                                std::thread::yield_now();
                            }
                            tx.write(X, v + 1)
                        });
                    }
                });
            }
        });
        let (v, _) = run_transaction(&*s, 9, |tx| tx.read(X));
        assert_eq!(v, 800);
    }

    #[test]
    fn ro_transactions_admit_and_commit_in_both_modes() {
        let s = stm(HybridConfig::eager());
        run_transaction(&s, 0, |tx| tx.write(X, 3));
        let (v, _) = oftm_core::api::run_transaction_ro(&s, 1, |tx| tx.read(X));
        assert_eq!(v, 3);
        for round in 0..200u64 {
            one_stale_abort(&s, 100 + round);
            if s.mode() == Mode::Dstm {
                break;
            }
        }
        assert_eq!(s.mode(), Mode::Dstm);
        let (v, _) = oftm_core::api::run_transaction_ro(&s, 1, |tx| tx.read(X));
        assert!(v >= 100, "RO read must see a storm-era commit, got {v}");
    }
}
