//! **Algorithm 2** of the paper: an OFTM from fo-consensus objects and
//! registers (Lemma 8), line-by-line.
//!
//! ```text
//! uses: Owner, State – arrays of fo-consensus; TVar, Aborted, V – registers
//! initially: Aborted[Tk] = false, V[x] = ⊥, wset = ∅
//!
//! upon read of x by Tk:      return acquire(Tk, x)
//! upon write of v to x by Tk: s ← acquire(Tk, x); if s = Ak return Ak;
//!                             TVar[x,Tk] ← v; return ok
//! procedure acquire(Tk, x):
//!   if x ∉ wset:
//!     version ← 1; state ← initial state of x; v ← V[x]
//!     repeat
//!       owner ← Owner[x,version].propose(Tk)
//!       if owner = ⊥ then return Ak
//!       if owner ≠ Tk then
//!         s ← State[owner].propose(aborted)
//!         if s = ⊥ then return Ak
//!         if s = committed then state ← TVar[x,owner]
//!         else Aborted[owner] ← true
//!       if V[x] ≠ v then return Ak
//!       version ← version + 1
//!     until owner = Tk
//!     wset ← wset ∪ {x}; TVar[x,Tk] ← state; V[x] ← Tk
//!   else state ← TVar[x,Tk]
//!   if Aborted[Tk] then return Ak
//!   return state
//! upon tryC: s ← State[Tk].propose(committed);
//!            return (s = committed) ? Ck : Ak
//! upon tryA: return Ak
//! ```
//!
//! Each version of a t-variable is mapped to one owning transaction via the
//! fo-consensus `Owner[x, version]`; committing/aborting `T_k` is proposing
//! `committed`/`aborted` to `State[T_k]` — the losing proposal learns the
//! winner, giving exactly DSTM's revocable-ownership semantics without CAS.
//! The two "important implementation details" the paper calls out — the
//! final `Aborted[T_k]` re-check and the `V[x]` change check inside the
//! scan loop (wait-freedom) — are both present and covered by tests.
//!
//! ## Read-only transactions
//!
//! A declared read-only transaction ([`WordStm::begin_ro`]) is an ordinary
//! [`Algo2Tx`] whose reads acquire, as in the listing: the declaration
//! only forbids writes and retires, and its commit counts `CommitsRo`.

use crate::registry::{locked, Registry};
use oftm_core::api::{TxError, TxResult, WordStm, WordTx};
use oftm_core::notify::CommitNotifier;
use oftm_core::reclaim::{Guard, RetiredBlock};
use oftm_core::record::{self, fresh_base_id, Recorder};
use oftm_core::table::{VarTable, DYNAMIC_TVAR_BASE};
use oftm_foc::{CasFoc, FoConsensus, SplitterFoc};
use oftm_histories::{Access, BaseObjId, TVarId, TxId, Value};
use oftm_obs::{pack_tx, AbortCause, Counter, StmStats, VarAttr, TX_UNKNOWN};
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Transaction fate values proposed to `State[T_k]`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fate {
    Committed,
    Aborted,
}

/// Which fo-consensus implementation backs the `Owner` and `State` arrays.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FocKind {
    /// CAS-backed (never aborts) — the practical configuration.
    Cas,
    /// Registers + one-shot test-and-set — the "consensus number 2
    /// objects only" configuration from the paper's introduction.
    SplitterTas,
}

/// A fo-consensus cell of either kind, with a base-object identity.
pub(crate) struct FocCell<T: Clone + Send + Sync + 'static> {
    foc: AnyFoc<T>,
    base: BaseObjId,
}

enum AnyFoc<T: Clone + Send + Sync + 'static> {
    Cas(CasFoc<T>),
    Splitter(SplitterFoc<T>),
}

impl<T: Clone + Send + Sync + 'static> FocCell<T> {
    fn new(kind: FocKind) -> Self {
        FocCell {
            foc: match kind {
                FocKind::Cas => AnyFoc::Cas(CasFoc::new()),
                FocKind::SplitterTas => AnyFoc::Splitter(SplitterFoc::new()),
            },
            base: fresh_base_id(),
        }
    }

    fn propose(&self, proc: u32, v: T) -> Option<T> {
        match &self.foc {
            AnyFoc::Cas(f) => f.propose(proc, v),
            AnyFoc::Splitter(f) => f.propose(proc, v),
        }
    }

    /// The decided value, if the cell has decided (non-proposing observer).
    fn decided(&self) -> Option<T>
    where
        T: Clone,
    {
        match &self.foc {
            AnyFoc::Cas(f) => f.decided().cloned(),
            AnyFoc::Splitter(f) => f.decided(),
        }
    }
}

/// A register cell with a base-object identity.
pub(crate) struct RegCell {
    val: AtomicU64,
    base: BaseObjId,
}

impl RegCell {
    fn new(v: u64) -> Self {
        RegCell {
            val: AtomicU64::new(v),
            base: fresh_base_id(),
        }
    }
}

/// A boolean register cell.
///
/// `by` is a **forensic stamp, not part of the algorithm**: the peer
/// that sets the flag records its own packed id first, so the victim's
/// `Aborted[Tk]` re-check can name who revoked it (the who-aborted-whom
/// edge). The model-checked protocol reads only `val`; racing setters
/// last-write-win on `by`, and any of them is a correct aggressor.
pub(crate) struct FlagCell {
    val: AtomicBool,
    by: AtomicU64,
    base: BaseObjId,
}

impl FlagCell {
    fn new() -> Self {
        FlagCell {
            val: AtomicBool::new(false),
            by: AtomicU64::new(TX_UNKNOWN),
            base: fresh_base_id(),
        }
    }
}

fn encode_tx(t: TxId) -> u64 {
    (u64::from(t.proc) << 32) | u64::from(t.seq)
}

fn decode_tx(v: u64) -> TxId {
    TxId::new((v >> 32) as u32, (v & 0xffff_ffff) as u32)
}

/// `V[x]` sentinel for ⊥ (no owner yet).
const V_BOTTOM: u64 = u64::MAX;

/// The Algorithm 2 STM instance.
pub struct Algo2Stm {
    kind: FocKind,
    /// `Owner[x, version]`.
    owner: Registry<(TVarId, u64), FocCell<u64>>,
    /// `State[T_k]`.
    state: Registry<TxId, FocCell<u8>>,
    /// `TVar[x, T_k]`.
    tvar: Registry<(TVarId, TxId), RegCell>,
    /// `Aborted[T_k]`.
    aborted: Registry<TxId, FlagCell>,
    /// `V[x]`.
    v: Registry<TVarId, RegCell>,
    /// Initial states of t-variables — also the allocation/liveness
    /// table. This is the one cell consulted on **every** acquire (the
    /// dynamic-id existence check), so it lives in the lock-free paged
    /// slab rather than a mutexed registry: the check is a wait-free
    /// array index, and allocation/free reuse the slab's exact
    /// live-count accounting. Its reclamation domain is the instance's:
    /// transactions register there, and [`WordTx::retire_tvar_block`]
    /// retires there. Freeing a t-variable evicts its `initial`/`V` cells
    /// and every `Owner`/`TVar` cell keyed by it — the per-version residue
    /// footnote 6 of the paper otherwise accumulates forever.
    initial: VarTable<Value>,
    /// Scan memoization: per t-variable, `(version, state)` — every
    /// version `< version` is **decided** (fo-consensus decisions are
    /// immutable) and `state` is the value after the last committed owner
    /// among them, so an acquire may resume its version scan there
    /// instead of at 1. Pure optimization below the formal model (like
    /// [`Registry`]'s materialization lock): any fresh scan of the
    /// memoized prefix would compute exactly this pair. Without it, every
    /// (re)acquire rescans the whole chain, and under symmetric
    /// contention the combined rescan work — and the recorded steps —
    /// grow quadratically in the abort count, which is what used to wedge
    /// the 8-thread collection workloads.
    scan_hint: Registry<TVarId, Mutex<(u64, u64)>>,
    notify: CommitNotifier,
    tx_seq: AtomicU32,
    recorder: Option<Arc<Recorder>>,
    /// Always-on telemetry (begins/commits/aborts-by-cause, attempts,
    /// parks). Algorithm 2 has no contention manager: peers race
    /// fo-consensus proposals instead, so its aborts land in the
    /// `cas_lost` (a propose lost to a peer) and `read_validation`
    /// (`V[x]`/`Aborted[Tk]` checks) buckets.
    stats: StmStats,
    /// Ablation switch: disables the paper's "essential implementation
    /// detail" #1 — the `Aborted[Tk]` re-check at the end of `acquire`.
    /// Test builds only, so tests can demonstrate *why* the paper calls it
    /// essential (a revoked transaction keeps observing state and can see
    /// inconsistent snapshots).
    #[cfg(test)]
    ablate_aborted_check: bool,
}

impl Algo2Stm {
    pub fn new(kind: FocKind) -> Self {
        Algo2Stm {
            kind,
            owner: Registry::new(),
            state: Registry::new(),
            tvar: Registry::new(),
            aborted: Registry::new(),
            v: Registry::new(),
            initial: VarTable::new(),
            scan_hint: Registry::new(),
            notify: CommitNotifier::new(),
            tx_seq: AtomicU32::new(0),
            recorder: None,
            stats: StmStats::new(),
            #[cfg(test)]
            ablate_aborted_check: false,
        }
    }

    /// The recorder steps go to, if one is attached.
    fn recorder(&self) -> Option<&Recorder> {
        self.recorder.as_deref()
    }

    /// The telemetry registry of this instance.
    pub fn stats(&self) -> &StmStats {
        &self.stats
    }

    pub fn with_recorder(mut self, rec: Arc<Recorder>) -> Self {
        self.recorder = Some(rec);
        self
    }

    /// Space diagnostics: materialized (owner-cells, state-cells).
    pub fn cells(&self) -> (usize, usize) {
        (self.owner.len(), self.state.len())
    }

    fn state_cell(&self, t: TxId) -> Arc<FocCell<u8>> {
        self.state.get_or_create(&t, || FocCell::new(self.kind))
    }

    fn owner_cell(&self, x: TVarId, version: u64) -> Arc<FocCell<u64>> {
        self.owner
            .get_or_create(&(x, version), || FocCell::new(self.kind))
    }

    /// Both lookups below run under the calling transaction's own
    /// registration: `initial`'s domain is the one it began in.
    fn initial_of(&self, x: TVarId, grace: &Guard<'_>) -> u64 {
        let initial = self.initial.get_ref_in(x, grace);
        initial.copied().unwrap_or(oftm_histories::INITIAL_VALUE)
    }

    /// Dynamic ids must have been allocated and not yet freed; the lazy
    /// registries would otherwise silently materialize fresh cells for a
    /// reclaimed variable and hand back a default value. Static ids keep
    /// the model's implicit-initial-value semantics.
    fn check_registered(&self, x: TVarId, grace: &Guard<'_>) {
        if x.0 >= DYNAMIC_TVAR_BASE && self.initial.get_ref_in(x, grace).is_none() {
            panic!("t-variable {x} not registered");
        }
    }

    fn reclaim_after_commit(&self, grace: Guard<'_>, retired: Vec<RetiredBlock>) {
        // `free_tvar_block` accounts the freed t-variables.
        let freeable = self.initial.domain().retire_and_flush(grace, retired);
        for blk in &freeable {
            self.free_tvar_block(blk.base, blk.len);
        }
    }

    /// The transaction [`WordStm::begin`] (`ro`: [`WordStm::begin_ro`])
    /// hands out, before the recorder's wrapper.
    fn begin_tx(&self, proc: u32, ro: bool) -> Box<dyn WordTx + '_> {
        self.stats.incr(Counter::Begins);
        if ro {
            self.stats.incr(Counter::BeginsRo);
        }
        // ord: Relaxed — atomicity alone keeps transaction ids unique.
        let seq = self.tx_seq.fetch_add(1, Ordering::Relaxed);
        let tx = Box::new(Algo2Tx {
            stm: self,
            id: TxId::new(proc, seq),
            ro,
            wset: HashSet::new(),
            touched: Vec::new(),
            grace: Some(self.initial.domain().begin()),
            retired: Vec::new(),
            completed: false,
            cause_tagged: false,
        });
        record::observe(self.recorder(), tx)
    }
}

/// A live Algorithm 2 transaction `T_k`.
pub struct Algo2Tx<'s> {
    stm: &'s Algo2Stm,
    id: TxId,
    /// Declared read-only ([`WordStm::begin_ro`]): writes and retires
    /// panic (caller bug), and the commit counts `CommitsRo`.
    ro: bool,
    /// The write set `wset` (t-variables this transaction owns).
    wset: HashSet<TVarId>,
    /// Footprint log: every t-variable an access *attempted* to acquire,
    /// including the one a failing acquire gave up on (which `wset` never
    /// learns about) — what a parked re-run registers on.
    touched: Vec<TVarId>,
    /// Grace-period registration; dropped (slot released, retire-set
    /// discarded) on every path that does not commit.
    grace: Option<Guard<'s>>,
    retired: Vec<RetiredBlock>,
    completed: bool,
    /// Whether an abort cause has been recorded for this attempt (first
    /// tag wins; exactly one cause per aborted attempt).
    cause_tagged: bool,
}

impl<'s> Algo2Tx<'s> {
    fn grace(&self) -> &Guard<'s> {
        self.grace
            .as_ref()
            .expect("grace slot held until completion")
    }

    /// Tags this attempt's abort cause (first tag wins) with its forensic
    /// attribution: the t-variable fought over (or [`VarAttr::NoVar`]) and
    /// the packed id of the aggressor, [`TX_UNKNOWN`] when no peer can be
    /// named.
    fn tag_abort(&mut self, cause: AbortCause, var: VarAttr, aggressor: u64) {
        if !self.cause_tagged {
            self.cause_tagged = true;
            self.stm
                .stats
                .abort_at(cause, var, pack_tx(self.id.proc, self.id.seq), aggressor);
        }
    }

    /// `procedure acquire(Tk, x)` — returns the current state of `x` or
    /// `A_k`.
    fn acquire(&mut self, x: TVarId) -> TxResult<Value> {
        self.stm.check_registered(x, self.grace());
        let state = if !self.wset.contains(&x) {
            // version ← 1; state ← initial state of x; v ← V[x]
            // …resuming from the memoized decided prefix when one exists
            // (see `Algo2Stm::scan_hint`): a fresh scan of versions below
            // the hint would recompute exactly this `(version, state)`.
            let hint = self
                .stm
                .scan_hint
                .get_or_create(&x, || Mutex::new((1, self.stm.initial_of(x, self.grace()))));
            let (mut version, mut state) = *locked(&hint);
            let v_cell = self.stm.v.get_or_create(&x, || RegCell::new(V_BOTTOM));
            // ord: Acquire pairs with owners' Release V[x] stores — the
            // wait-freedom guard re-reads this below.
            let v_snapshot = v_cell.val.load(Ordering::Acquire);
            record::step(self.stm.recorder(), self.id, v_cell.base, Access::Read);

            // repeat … until owner = Tk
            loop {
                let owner_cell = self.stm.owner_cell(x, version);
                let owner = owner_cell.propose(self.id.proc, encode_tx(self.id));
                record::step(
                    self.stm.recorder(),
                    self.id,
                    owner_cell.base,
                    Access::Modify,
                );
                let owner = match owner {
                    None => {
                        // owner = ⊥: our Owner proposal lost outright. The
                        // consensus object names no winner, so no aggressor.
                        self.tag_abort(AbortCause::CasLost, VarAttr::Var(x.0), TX_UNKNOWN);
                        return Err(TxError::Aborted);
                    }
                    Some(o) => decode_tx(o),
                };
                if owner != self.id {
                    // s ← State[owner].propose(aborted)
                    let sc = self.stm.state_cell(owner);
                    let s = sc.propose(self.id.proc, Fate::Aborted as u8);
                    record::step(self.stm.recorder(), self.id, sc.base, Access::Modify);
                    match s {
                        None => {
                            // s = ⊥: the State proposal itself failed. The
                            // owner whose fate we tried to decide is the
                            // peer we lost to — `Owner[x, version]` names it.
                            self.tag_abort(
                                AbortCause::CasLost,
                                VarAttr::Var(x.0),
                                pack_tx(owner.proc, owner.seq),
                            );
                            return Err(TxError::Aborted);
                        }
                        Some(s) if s == Fate::Committed as u8 => {
                            // state ← TVar[x, owner]
                            let cell = self.stm.tvar.get_or_create(&(x, owner), || RegCell::new(0));
                            // ord: Acquire pairs with the owner's Release
                            // TVar store: Committed implies its tentative
                            // value is visible.
                            state = cell.val.load(Ordering::Acquire);
                            record::step(self.stm.recorder(), self.id, cell.base, Access::Read);
                        }
                        Some(_) => {
                            // Aborted[owner] ← true
                            let flag = self.stm.aborted.get_or_create(&owner, FlagCell::new);
                            // ord: Relaxed — forensic stamp, carries no
                            // payload; the Release `val` store below makes
                            // it visible to the victim's Acquire re-check.
                            flag.by.store(encode_tx(self.id), Ordering::Relaxed);
                            // ord: Release pairs with the owner's Acquire
                            // Aborted[Tk] re-check on its own paths.
                            flag.val.store(true, Ordering::Release);
                            record::step(self.stm.recorder(), self.id, flag.base, Access::Modify);
                        }
                    }
                    // `owner`'s fate and hence version `version` are now
                    // decided forever: advance the shared hint (monotonic;
                    // concurrent scanners agree on decided prefixes).
                    let mut h = locked(&hint);
                    if version + 1 > h.0 {
                        *h = (version + 1, state);
                    }
                }
                // if V[x] ≠ v then return Ak  (wait-freedom guard)
                // ord: Acquire pairs with owners' Release V[x] stores.
                let now = v_cell.val.load(Ordering::Acquire);
                record::step(self.stm.recorder(), self.id, v_cell.base, Access::Read);
                if now != v_snapshot {
                    // The V[x] change check: our snapshot of the variable
                    // is stale (the paper's wait-freedom guard). The new
                    // V[x] value encodes the peer that acquired past us.
                    let aggressor = if now == V_BOTTOM { TX_UNKNOWN } else { now };
                    self.tag_abort(AbortCause::ReadValidation, VarAttr::Var(x.0), aggressor);
                    return Err(TxError::Aborted);
                }
                version += 1;
                if owner == self.id {
                    break;
                }
            }

            // wset ← wset ∪ {x}; TVar[x,Tk] ← state; V[x] ← Tk
            self.wset.insert(x);
            let own_cell = self
                .stm
                .tvar
                .get_or_create(&(x, self.id), || RegCell::new(0));
            // ord: Release TVar store before Release V[x] store — a peer
            // that Acquires V[x] = Tk sees our tentative state.
            own_cell.val.store(state, Ordering::Release);
            record::step(self.stm.recorder(), self.id, own_cell.base, Access::Modify);
            v_cell.val.store(encode_tx(self.id), Ordering::Release);
            record::step(self.stm.recorder(), self.id, v_cell.base, Access::Modify);
            state
        } else {
            // state ← TVar[x, Tk]
            let cell = self
                .stm
                .tvar
                .get_or_create(&(x, self.id), || RegCell::new(0));
            // ord: Acquire — own cell; Acquire keeps the read ordered
            // after the ownership steps that created it.
            let s = cell.val.load(Ordering::Acquire);
            record::step(self.stm.recorder(), self.id, cell.base, Access::Read);
            s
        };

        // if Aborted[Tk] then return Ak  ("essential detail" #1)
        #[cfg(test)]
        let ablated = self.stm.ablate_aborted_check;
        #[cfg(not(test))]
        let ablated = false;
        if !ablated {
            let flag = self.stm.aborted.get_or_create(&self.id, FlagCell::new);
            // ord: Acquire pairs with peers' Release Aborted[Tk] stores.
            let dead = flag.val.load(Ordering::Acquire);
            record::step(self.stm.recorder(), self.id, flag.base, Access::Read);
            if dead {
                // Aborted[Tk]: a peer revoked one of our ownerships and
                // the final re-check stops us — a stale-state abort. The
                // setter stamped its id on the flag before the Release
                // store, so the edge names who revoked us; the variable
                // is whichever acquire tripped the re-check.
                // ord: Relaxed — forensic stamp, carries no payload; the
                // Acquire `val` load above ordered it.
                let by = flag.by.load(Ordering::Relaxed);
                self.tag_abort(AbortCause::ReadValidation, VarAttr::Var(x.0), by);
                return Err(TxError::Aborted);
            }
        }
        // Re-check existence on the way out: a free racing this acquire
        // (possible only when the caller broke the retire contract — the
        // grace tracker never frees under a registered transaction) must
        // surface as the uniform panic, not as a default value from cells
        // the lazy registries re-materialized above.
        self.stm.check_registered(x, self.grace());
        Ok(state)
    }
}

impl WordTx for Algo2Tx<'_> {
    fn id(&self) -> TxId {
        self.id
    }

    /// `upon read of t-variable x by Tk do return acquire(Tk, x)`.
    fn read(&mut self, x: TVarId) -> TxResult<Value> {
        self.touched.push(x);
        let r = self.acquire(x);
        if r.is_err() {
            self.completed = true;
        }
        r
    }

    /// `upon write of value v to t-variable x by Tk`.
    fn write(&mut self, x: TVarId, v: Value) -> TxResult<()> {
        assert!(!self.ro, "algo2: write on a declared read-only transaction");
        self.touched.push(x);
        match self.acquire(x) {
            Err(e) => {
                self.completed = true;
                Err(e)
            }
            Ok(_s) => {
                // TVar[x, Tk] ← v
                let cell = self
                    .stm
                    .tvar
                    .get_or_create(&(x, self.id), || RegCell::new(0));
                // ord: Release publishes the tentative value to peers'
                // Acquire TVar reads after our fate is decided.
                cell.val.store(v, Ordering::Release);
                record::step(self.stm.recorder(), self.id, cell.base, Access::Modify);
                Ok(())
            }
        }
    }

    /// `upon tryCk: s ← State[Tk].propose(committed)`.
    fn try_commit(mut self: Box<Self>) -> TxResult<()> {
        self.completed = true;
        // Trivial promotion: a transaction that attempted no operation
        // acquired nothing, so no `Owner` cell names it and no peer can
        // ever propose to its `State` — deciding the cell is pure
        // overhead. (Anything that *read* acquired, and must still settle
        // its fate below for the scanners that will find it.)
        if self.wset.is_empty() && self.touched.is_empty() {
            self.stm.stats.incr(if self.ro {
                Counter::CommitsRo
            } else {
                Counter::CommitsPromoted
            });
            self.stm.reclaim_after_commit(
                self.grace.take().expect("grace slot held until completion"),
                std::mem::take(&mut self.retired),
            );
            return Ok(());
        }
        // Algorithm 2's commit is the single fate proposal to our own
        // State cell.
        let sc = self.stm.state_cell(self.id);
        let s = sc.propose(self.id.proc, Fate::Committed as u8);
        record::step(self.stm.recorder(), self.id, sc.base, Access::Modify);
        match s {
            Some(v) if v == Fate::Committed as u8 => {
                self.stm.stats.incr(if self.ro {
                    Counter::CommitsRo
                } else {
                    Counter::Commits
                });
                // Every acquired variable gained a decided version owned
                // by us (reads acquire too in Algorithm 2): publish the
                // whole wset — any parked peer conflicting on it can now
                // make progress.
                self.stm.notify.publish(self.wset.iter().copied());
                self.stm.reclaim_after_commit(
                    self.grace.take().expect("grace slot held until completion"),
                    std::mem::take(&mut self.retired),
                );
                Ok(())
            }
            _ => {
                // A peer decided our State `aborted` before our own
                // `committed` proposal: the fate race was lost. The State
                // cell records the verdict, not the proposer, and the
                // contested variable is unrecoverable — but the peer also
                // stamps `Aborted[Tk].by` right after deciding us, so a
                // best-effort aggressor is often readable (TX_UNKNOWN
                // when the stamp hasn't landed yet).
                // ord: Relaxed — forensic stamp, carries no payload.
                let by = self
                    .stm
                    .aborted
                    .get_or_create(&self.id, FlagCell::new)
                    .by
                    .load(Ordering::Relaxed);
                self.tag_abort(AbortCause::CasLost, VarAttr::NoVar, by);
                Err(TxError::Aborted)
            }
        }
    }

    /// `upon tryAk: return Ak` — and make the abort durable so peers stop
    /// scanning our versions (propose `aborted` to our own State).
    fn try_abort(mut self: Box<Self>) {
        self.completed = true;
        let sc = self.stm.state_cell(self.id);
        let _ = sc.propose(self.id.proc, Fate::Aborted as u8);
        record::step(self.stm.recorder(), self.id, sc.base, Access::Modify);
        // tryA on a still-viable attempt is an explicit retry; if a cause
        // was already tagged, the attempt was dead anyway.
        self.tag_abort(AbortCause::ExplicitRetry, VarAttr::NoVar, TX_UNKNOWN);
        // Dropping `grace` releases the reclamation slot; the retire-set
        // is discarded with the transaction.
    }

    fn retire_tvar_block(&mut self, base: TVarId, len: usize) {
        assert!(
            !self.ro,
            "algo2: retire on a declared read-only transaction"
        );
        self.retired.push(RetiredBlock { base, len });
    }

    fn footprint(&self, out: &mut Vec<TVarId>) {
        out.extend_from_slice(&self.touched);
    }
}

impl Drop for Algo2Tx<'_> {
    fn drop(&mut self) {
        // A transaction abandoned without tryC/tryA must not stay live
        // forever (its ownerships would still be revocable, but settling
        // the State cell immediately is tidier).
        if !self.completed {
            let sc = self.stm.state_cell(self.id);
            let _ = sc.propose(self.id.proc, Fate::Aborted as u8);
            self.tag_abort(AbortCause::ExplicitRetry, VarAttr::NoVar, TX_UNKNOWN);
        }
    }
}

impl WordStm for Algo2Stm {
    fn name(&self) -> &'static str {
        match self.kind {
            FocKind::Cas => "algo2-cas",
            FocKind::SplitterTas => "algo2-splitter",
        }
    }

    fn register_tvar(&self, x: TVarId, initial: Value) {
        // Atomic keep-first semantics (re-registration must not reset
        // state the version scans already adopted), like the
        // `Registry::get_or_create` this replaced.
        if self.initial.insert_if_absent(x, initial) {
            self.stats.incr(Counter::TvarsAllocated);
        }
    }

    fn alloc_tvar_block(&self, initials: &[Value]) -> TVarId {
        self.stats
            .add(Counter::TvarsAllocated, initials.len() as u64);
        self.initial.alloc_block(initials, |_, v| v)
    }

    fn free_tvar_block(&self, base: TVarId, len: usize) {
        let freed = self.initial.remove_block(base, len);
        self.stats.add(Counter::TvarsFreed, freed);
        for k in 0..len {
            let x = TVarId(base.0 + k as u64);
            self.v.remove(&x);
            self.scan_hint.remove(&x);
            // `Owner[x, ·]` cells are materialized by version scans, which
            // probe versions contiguously from 1 — so walk-and-remove
            // until the first miss covers them all, in O(chain) with
            // per-key removals instead of an O(registry) sweep. Each
            // decided owner names the one transaction that may have a
            // `TVar[x, T]` cell (only winners write it); evict that too.
            let mut version = 1u64;
            while let Some(cell) = self.owner.get(&(x, version)) {
                if let Some(winner) = cell.decided() {
                    self.tvar.remove(&(x, decode_tx(winner)));
                }
                self.owner.remove(&(x, version));
                version += 1;
            }
        }
    }

    fn live_tvars(&self) -> usize {
        self.initial.len()
    }

    fn begin(&self, proc: u32) -> Box<dyn WordTx + '_> {
        self.begin_tx(proc, false)
    }

    fn begin_ro(&self, proc: u32) -> Box<dyn WordTx + '_> {
        self.begin_tx(proc, true)
    }

    fn notifier(&self) -> &CommitNotifier {
        &self.notify
    }

    fn stats(&self) -> &StmStats {
        &self.stats
    }

    fn is_obstruction_free(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oftm_core::api::run_transaction;

    const X: TVarId = TVarId(0);
    const Y: TVarId = TVarId(1);

    fn stm(kind: FocKind) -> Algo2Stm {
        let s = Algo2Stm::new(kind);
        s.register_tvar(X, 10);
        s.register_tvar(Y, 20);
        s
    }

    #[test]
    fn tx_encoding_roundtrip() {
        let t = TxId::new(7, 99);
        assert_eq!(decode_tx(encode_tx(t)), t);
    }

    #[test]
    fn read_initial_values() {
        for kind in [FocKind::Cas, FocKind::SplitterTas] {
            let s = stm(kind);
            let mut tx = s.begin(0);
            assert_eq!(tx.read(X).unwrap(), 10);
            assert_eq!(tx.read(Y).unwrap(), 20);
            tx.try_commit().unwrap();
        }
    }

    #[test]
    fn write_visible_after_commit_only() {
        let s = stm(FocKind::Cas);
        let mut t1 = s.begin(0);
        t1.write(X, 99).unwrap();
        // Concurrent T2 must abort T1 (revocable ownership) and read the
        // old value.
        let mut t2 = s.begin(1);
        assert_eq!(t2.read(X).unwrap(), 10);
        t2.try_commit().unwrap();
        // T1 is now doomed.
        assert!(t1.try_commit().is_err());
        // A fresh reader still sees 10.
        let mut t3 = s.begin(2);
        assert_eq!(t3.read(X).unwrap(), 10);
        t3.try_commit().unwrap();
    }

    #[test]
    fn committed_write_becomes_current_state() {
        let s = stm(FocKind::Cas);
        let mut t1 = s.begin(0);
        t1.write(X, 42).unwrap();
        t1.try_commit().unwrap();
        let mut t2 = s.begin(1);
        assert_eq!(t2.read(X).unwrap(), 42);
        t2.try_commit().unwrap();
    }

    #[test]
    fn read_own_write() {
        let s = stm(FocKind::Cas);
        let mut tx = s.begin(0);
        tx.write(X, 5).unwrap();
        assert_eq!(tx.read(X).unwrap(), 5);
        tx.try_commit().unwrap();
    }

    #[test]
    fn reads_acquire_ownership_too() {
        // In Algorithm 2 a read acquires the variable (acquire is used for
        // both): a later writer aborts the reader.
        let s = stm(FocKind::Cas);
        let mut t1 = s.begin(0);
        assert_eq!(t1.read(X).unwrap(), 10);
        let mut t2 = s.begin(1);
        t2.write(X, 7).unwrap();
        t2.try_commit().unwrap();
        assert!(t1.try_commit().is_err());
    }

    #[test]
    fn try_abort_discards() {
        let s = stm(FocKind::Cas);
        let mut t1 = s.begin(0);
        t1.write(X, 77).unwrap();
        t1.try_abort();
        let mut t2 = s.begin(1);
        assert_eq!(t2.read(X).unwrap(), 10);
        t2.try_commit().unwrap();
    }

    #[test]
    fn forcefully_aborted_tx_sees_abort_on_next_access() {
        // "Essential detail" #1: the Aborted[Tk] re-check.
        let s = stm(FocKind::Cas);
        let mut t1 = s.begin(0);
        t1.write(X, 1).unwrap();
        let mut t2 = s.begin(1);
        t2.write(X, 2).unwrap(); // aborts T1, sets Aborted[T1]? (T1 learns on next access)
                                 // T1 touches a *different* variable — must still observe its abort
                                 // no later than the commit attempt.
        let r = t1.write(Y, 3);
        let doomed = r.is_err() || t1.try_commit().is_err();
        assert!(doomed, "forcefully aborted T1 must not commit");
        t2.try_commit().unwrap();
    }

    #[test]
    fn version_scan_adopts_committed_values() {
        // Multiple committed owners in sequence: a late reader scans
        // versions 1..n and must end with the last committed value.
        let s = stm(FocKind::Cas);
        for (p, v) in [(0u32, 100u64), (1, 200), (2, 300)] {
            let (_, attempts) = run_transaction(&s, p, |tx| tx.write(X, v));
            assert_eq!(attempts, 1);
        }
        let mut t = s.begin(3);
        assert_eq!(t.read(X).unwrap(), 300);
        t.try_commit().unwrap();
        let (owners, _) = s.cells();
        assert!(owners >= 3, "one Owner cell per version, got {owners}");
    }

    #[test]
    fn concurrent_counter_linearizes() {
        for kind in [FocKind::Cas, FocKind::SplitterTas] {
            let s = Arc::new(stm(kind));
            std::thread::scope(|sc| {
                for p in 0..4u32 {
                    let s = Arc::clone(&s);
                    sc.spawn(move || {
                        for _ in 0..50 {
                            run_transaction(&*s, p, |tx| {
                                let v = tx.read(X)?;
                                tx.write(X, v + 1)
                            });
                        }
                    });
                }
            });
            let mut t = s.begin(9);
            assert_eq!(t.read(X).unwrap(), 10 + 4 * 50, "kind {kind:?}");
            t.try_commit().unwrap();
        }
    }

    #[test]
    fn recorded_history_is_serializable_and_of() {
        let rec = Arc::new(Recorder::new());
        let s = Algo2Stm::new(FocKind::Cas).with_recorder(Arc::clone(&rec));
        s.register_tvar(X, 0);
        s.register_tvar(Y, 0);
        std::thread::scope(|sc| {
            for p in 0..3u32 {
                let s = &s;
                sc.spawn(move || {
                    for _ in 0..5 {
                        run_transaction(s, p, |tx| {
                            let v = tx.read(X)?;
                            tx.write(Y, v + 1)?;
                            tx.write(X, v + 1)
                        });
                    }
                });
            }
        });
        let h = rec.snapshot();
        assert!(
            oftm_histories::conflict_serializable(&h),
            "Algorithm 2 run must be (conflict-)serializable"
        );
        // Obstruction-freedom (Definition 2): every forcefully aborted
        // transaction encountered step contention.
        let violations = oftm_histories::check_of(&h);
        assert!(violations.is_empty(), "OF violations: {violations:?}");
    }

    #[test]
    fn ablation_aborted_check_is_essential() {
        // The paper: "this is to ensure that Tk completes as soon as
        // possible after Tk loses an ownership". Without the check, a
        // revoked transaction keeps reading and can observe a snapshot
        // inconsistent with its earlier reads (an opacity violation for
        // the live transaction); with the check it aborts instead.

        // With the check (faithful algorithm): T1's next access aborts.
        let s = stm(FocKind::Cas);
        let mut t1 = s.begin(0);
        assert_eq!(t1.read(X).unwrap(), 10);
        let mut t2 = s.begin(1);
        t2.write(X, 111).unwrap();
        t2.write(Y, 222).unwrap();
        t2.try_commit().unwrap();
        assert!(
            t1.read(Y).is_err(),
            "faithful Algorithm 2 must stop T1 at its next access"
        );

        // Ablated: T1 reads on and sees the torn snapshot {x=10, y=222}.
        let mut s = stm(FocKind::Cas);
        s.ablate_aborted_check = true;
        let mut t1 = s.begin(0);
        assert_eq!(t1.read(X).unwrap(), 10);
        let mut t2 = s.begin(1);
        t2.write(X, 111).unwrap();
        t2.write(Y, 222).unwrap();
        t2.try_commit().unwrap();
        let y = t1.read(Y).expect("ablated T1 keeps going");
        assert_eq!(
            y, 222,
            "ablated T1 observes y after T2 while having read x before T2 — \
             exactly the inconsistency the Aborted[Tk] check prevents"
        );
        // Safety net: T1 still cannot commit (State[T1] is decided).
        assert!(t1.try_commit().is_err());
    }

    #[test]
    fn ro_adopts_committed_chain() {
        let s = stm(FocKind::Cas);
        for (p, v) in [(0u32, 100u64), (1, 200), (2, 300)] {
            let (_, attempts) = run_transaction(&s, p, |tx| tx.write(X, v));
            assert_eq!(attempts, 1);
        }
        let mut t = s.begin_ro(3);
        assert_eq!(t.read(X).unwrap(), 300);
        assert_eq!(t.read(Y).unwrap(), 20);
        t.try_commit().unwrap();
    }

    #[test]
    fn ro_read_is_visible_to_writers() {
        // A declared read-only read is the listing's read: it acquires,
        // and its acquire proposes `aborted` to the live writer's State.
        let s = stm(FocKind::Cas);
        let mut w = s.begin(0);
        w.write(X, 99).unwrap(); // live owner of X's next version
        let mut r = s.begin_ro(1);
        assert_eq!(r.read(X).unwrap(), 10, "tentative value must not be read");
        r.try_commit().unwrap();
        assert_eq!(w.try_commit(), Err(TxError::Aborted));
        let stats = s.stats().snapshot();
        assert_eq!(
            (stats.get(Counter::BeginsRo), stats.get(Counter::CommitsRo)),
            (1, 1)
        );
    }

    #[test]
    fn ro_torn_snapshot_aborts_on_next_access() {
        // Incremental validation: a commit landing between two reads of a
        // multi-variable snapshot aborts the reader at its next access.
        let s = stm(FocKind::Cas);
        let mut r = s.begin_ro(0);
        assert_eq!(r.read(X).unwrap(), 10);
        let mut w = s.begin(1);
        w.write(X, 111).unwrap();
        w.write(Y, 222).unwrap();
        w.try_commit().unwrap();
        assert_eq!(r.read(Y), Err(TxError::Aborted));
    }

    #[test]
    fn ro_stale_read_aborts_at_commit() {
        let s = stm(FocKind::Cas);
        let mut r = s.begin_ro(0);
        assert_eq!(r.read(X).unwrap(), 10);
        let (_, _) = run_transaction(&s, 1, |tx| tx.write(X, 11));
        assert_eq!(r.try_commit(), Err(TxError::Aborted));
    }

    #[test]
    #[should_panic(expected = "read-only")]
    fn ro_write_panics() {
        let s = stm(FocKind::Cas);
        let mut tx = s.begin_ro(0);
        let _ = tx.write(X, 1);
    }

    #[test]
    fn two_var_invariant() {
        let s = Arc::new(stm(FocKind::Cas));
        // X starts 10, Y starts 20; preserve X+Y = 30.
        std::thread::scope(|sc| {
            for p in 0..3u32 {
                let s = Arc::clone(&s);
                sc.spawn(move || {
                    for i in 0..30u64 {
                        let d = i % 5;
                        run_transaction(&*s, p, |tx| {
                            let x = tx.read(X)?;
                            let y = tx.read(Y)?;
                            if x >= d {
                                tx.write(X, x - d)?;
                                tx.write(Y, y + d)?;
                            }
                            Ok(())
                        });
                    }
                });
            }
        });
        let (total, _) = run_transaction(&*s, 7, |tx| Ok(tx.read(X)? + tx.read(Y)?));
        assert_eq!(total, 30);
    }
}
