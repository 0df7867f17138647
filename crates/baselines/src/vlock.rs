//! The versioned-lock engine behind both lock-based foils of the paper's
//! Section 1: **TL** (Dice & Shavit's "Transactional Locking" \[11\]) and
//! **TL2** (Dice, Shalev & Shavit \[10\]).
//!
//! Both buffer writes, take per-variable commit locks in global
//! t-variable order, stamp the written variables with a fresh version and
//! release. They differ in exactly one decision — *when is a read
//! admitted, and what does commit re-check* — and that decision is the
//! `ReadPolicy` parameter of [`VersionedLockStm`]:
//!
//! * [`TlStm`] (`PerObject`): a read logs the version word it observed and
//!   commit re-checks each logged word for **equality**. Nothing is
//!   sampled at `begin`, so the only base objects a transaction touches
//!   are the lock/version/value words of the t-variables it accesses —
//!   the paper's *strictly disjoint-access-parallel* exemplar. A read
//!   that finds the word locked spins up to `lock_patience` (blocking
//!   TM!). One measured deviation: a **writing commit** stamps from the
//!   sharded clock (`clock.rs`), bumping only its own process's
//!   shard — writers whose process ids collide modulo [`CLOCK_SHARDS`]
//!   share one clock cell, while writers on distinct shards, and all plain
//!   transactional reads, remain strictly disjoint (`exp_conflict_density`
//!   sees the difference). This is the deliberate price of giving
//!   read-only transactions a begin-time snapshot.
//! * [`Tl2Stm`] (`Snapshot`): `begin` samples *every* clock shard into a
//!   read-version vector `rv`; a read is admitted only if its word is
//!   unlocked and stamped within `rv`, and commit re-checks the same
//!   predicate. *"Every transaction has to access a common memory location
//!   to determine its timestamp"* — disjoint transactions meet on the
//!   clock, the paper's lock-based exception to strict DAP. Sharding keeps
//!   that faithful while removing the single `fetch_add` hot spot: the
//!   begin-time accesses are all reads, and a committing writer bumps only
//!   its own shard. A version `(s, c)` is valid iff `c ≤ rv[s]`, which is
//!   sound because each shard counter is monotonic — a writer that commits
//!   after the reader sampled shard `s` necessarily obtains a count above
//!   the sample. A locked word is not waited on: its holder will most
//!   likely release it with a stamp beyond `rv`.
//!
//! Both are *blocking*: a preempted transaction that holds commit locks
//! stalls every writer of those variables (E9 measures the stall).
//!
//! **Read-only transactions.** Two tiers, on both policies:
//! * *detect-on-commit promotion* — a transaction that never wrote commits
//!   without locks or a clock bump. TL2's reads were validated against
//!   `rv` when taken, so there is nothing left to do; TL's reads are not
//!   anchored to a snapshot, so its read-set is still re-checked — that is
//!   what makes two reads taken at different times mutually consistent.
//! * *declared* ([`WordStm::begin_ro`], `RoTx`) — keeps **no read-set**.
//!   Each read is a lock-word/value/lock-word sandwich validated against a
//!   begin-time version vector, so it is serializable at begin time the
//!   moment it loads: nothing to revalidate at commit, no locks, no clock
//!   bump. Per-operation work is bounded (one sandwich, at most one
//!   snapshot refresh, at most `lock_patience` spins on a locked word) —
//!   the wait-free bound the read-only oracle asserts. Two rules keep
//!   single-read transactions abort-free:
//!   - **first-read refresh** — until a read succeeds no value has been
//!     exposed, so on a consistent-but-too-new version the transaction
//!     resamples `rv` instead of aborting. The stamp `(s, c)` it saw was
//!     published before the resample, so `rv[s] ≥ c` afterwards: a
//!     transaction whose footprint is one t-variable *never* retries;
//!   - **freeze** — after the first read the snapshot is frozen (a later
//!     refresh could tear a multi-variable invariant), and a too-new
//!     version aborts.
//!
//! Transactions reuse pooled scratch buffers (read-set, write-set, lock
//! log), and both logs carry the variables they resolved (commit takes
//! zero table probes) as *borrows* under the transaction's one guard of
//! the table's reclamation domain: the table owns every t-variable and
//! evicts into that domain, so no entry counts a reference — a count
//! would turn every logged read into a write to the line the other cores
//! are reading. Steady-state
//! transactions allocate nothing and write nothing shared before commit.

use crate::clock::{readable, ShardedClock, LOCK_BIT};
use oftm_core::api::{TxError, TxResult, WordStm, WordTx};
use oftm_core::line::Line;
use oftm_core::notify::CommitNotifier;
use oftm_core::pool::SlotPool;
use oftm_core::reclaim::{Bag, GraceTracker, Guard, Retired, RetiredBlock, BAG_BOUND};
use oftm_core::record::{self, fresh_base_id, Recorder};
use oftm_core::table::{Pinned, VarTable};
use oftm_histories::{Access, BaseObjId, TVarId, TxId, Value};
use oftm_obs::{pack_tx, AbortCause, Counter, StmStats, VarAttr, TX_UNKNOWN};
use std::mem::ManuallyDrop;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

pub use crate::clock::CLOCK_SHARDS;
use policy::{PerObject, ReadPolicy, Snapshot};

/// TL: per-object version equality, strictly disjoint-access-parallel.
pub type TlStm = VersionedLockStm<PerObject>;
/// TL2: begin-time snapshot over the sharded version clock.
pub type Tl2Stm = VersionedLockStm<Snapshot>;

/// A sampled clock: one count per shard.
type Rv = [u64; CLOCK_SHARDS];

/// The one decision the two backends disagree on. The module is private,
/// so the trait cannot be named — let alone implemented — outside this
/// crate: it is a seam, not an extension point.
mod policy {
    use super::{readable, Rv};

    pub trait ReadPolicy: 'static {
        const NAME: &'static str;
        /// What a writable transaction keeps from `begin`.
        type Snapshot: 'static;
        /// What a read-set entry keeps about the word it was admitted on.
        type Seen: Copy + Default + PartialEq + Send + 'static;
        /// Whether a commit that wrote nothing serializes at commit time
        /// (re-check the read-set) or at its begin-time snapshot (don't).
        const REVALIDATES_PROMOTED: bool;

        fn begin(sample: impl FnOnce() -> Rv) -> Self::Snapshot;
        /// How often a writable read observes a locked or torn word
        /// before it gives up, given the configured `lock_patience`.
        fn read_patience(configured: u32) -> u32;
        /// Admits a read that observed the clean version word `word`.
        /// Commit re-validation asks the same question of the word then
        /// current: the read stands iff it would be admitted again with
        /// the payload it logged.
        fn admit(word: u64, snap: &Self::Snapshot) -> Option<Self::Seen>;
    }

    pub struct PerObject;

    impl ReadPolicy for PerObject {
        const NAME: &'static str = "tl";
        type Snapshot = ();
        type Seen = u64;
        const REVALIDATES_PROMOTED: bool = true;

        #[inline]
        fn begin(_sample: impl FnOnce() -> Rv) {}
        #[inline]
        fn read_patience(configured: u32) -> u32 {
            configured
        }
        #[inline]
        fn admit(word: u64, _snap: &()) -> Option<u64> {
            // Each stamp is issued once, so an equal word is an unchanged
            // variable.
            Some(word)
        }
    }

    pub struct Snapshot;

    impl ReadPolicy for Snapshot {
        const NAME: &'static str = "tl2";
        type Snapshot = Rv;
        type Seen = ();
        const REVALIDATES_PROMOTED: bool = false;

        #[inline]
        fn begin(sample: impl FnOnce() -> Rv) -> Rv {
            sample()
        }
        #[inline]
        fn read_patience(_configured: u32) -> u32 {
            1
        }
        #[inline]
        fn admit(word: u64, rv: &Rv) -> Option<()> {
            readable(word, rv).then_some(())
        }
    }
}

/// One t-variable: a versioned lock word and the value cell.
struct VLockVar {
    /// High bit: locked; rest: a packed `(shard, count)` clock stamp (see
    /// [`crate::clock`]).
    lock: AtomicU64,
    value: AtomicU64,
    /// Forensic writer stamp: packed id ([`pack_tx`]) of the last
    /// transaction to take this variable's commit lock — while the lock is
    /// held, the current holder; after a successful commit, the last
    /// committer. A victim aborting on this word reads the stamp to name
    /// its aggressor (who-aborted-whom edges). An aborted commit attempt
    /// leaves its id behind until the next holder, so a racing attribution
    /// can name a contender that never committed — a true contender on the
    /// variable, just not the committed invalidator.
    writer: AtomicU64,
    lock_base: BaseObjId,
    value_base: BaseObjId,
}

impl VLockVar {
    fn new(initial: Value) -> Self {
        VLockVar {
            lock: AtomicU64::new(0),
            value: AtomicU64::new(initial),
            writer: AtomicU64::new(TX_UNKNOWN),
            lock_base: fresh_base_id(),
            value_base: fresh_base_id(),
        }
    }

    /// A consistent (version, value) snapshot, or `None` if locked/racing.
    fn read_consistent(&self) -> Option<(u64, Value)> {
        // ord: Acquire pairs with `unlock`'s Release so a clean version
        // word implies the committed value store is visible.
        let v1 = self.lock.load(Ordering::Acquire);
        if v1 & LOCK_BIT != 0 {
            return None;
        }
        // ord: Acquire pairs with the committer's Release value store.
        let val = self.value.load(Ordering::Acquire);
        // ord: Acquire re-read — an unchanged version word proves no
        // commit overlapped the value load (seqlock validation).
        let v2 = self.lock.load(Ordering::Acquire);
        (v1 == v2).then_some((v1, val))
    }

    /// Tries to take the commit lock for transaction `me`, returning the
    /// unlocked word it replaced and the writer stamp it overwrote.
    fn try_lock(&self, me: u64) -> Option<(u64, u64)> {
        // ord: Acquire pairs with the previous holder's Release unlock.
        let cur = self.lock.load(Ordering::Acquire);
        if cur & LOCK_BIT != 0 {
            return None;
        }
        self.lock
            // ord: AcqRel — Acquire makes the previous commit's writes
            // visible to the new lock holder; Release orders the lock
            // acquisition for validators. Failure Acquire pairs with the
            // racing locker.
            .compare_exchange(cur, cur | LOCK_BIT, Ordering::AcqRel, Ordering::Acquire)
            .ok()?;
        // Holder stamp: any peer that aborts on this word while we hold it
        // (or validates against our commit stamp later) names us. The
        // stamp we replace names whoever made the word we locked over.
        // ord: Relaxed — only the lock holder writes the stamp, and the
        // CAS's Acquire ordered the previous holder's store before this
        // load; the stamp carries no payload.
        let prev = self.writer.load(Ordering::Relaxed);
        self.writer.store(me, Ordering::Relaxed);
        Some((cur, prev))
    }

    /// The forensic writer stamp: the current lock holder, or the last
    /// transaction to have held the lock.
    fn writer(&self) -> u64 {
        // ord: Relaxed — forensic stamp, carries no payload.
        self.writer.load(Ordering::Relaxed)
    }

    /// Releases the lock, restoring (abort) or installing (commit) the
    /// given unlocked version word.
    fn unlock(&self, word: u64) {
        debug_assert_eq!(word & LOCK_BIT, 0);
        // ord: Release publishes the value stores made under the lock to
        // readers' Acquire version loads (seqlock release half).
        self.lock.store(word, Ordering::Release);
    }
}

type ReadEntry<S> = (Pinned<VLockVar>, TVarId, S);
type WriteEntry = (TVarId, Value, Pinned<VLockVar>);

/// Pooled per-transaction buffers: popped at `begin`, cleared and pushed
/// back (the same `Box`) when the transaction completes, so steady-state
/// transactions reuse the same allocations.
struct Scratch<S> {
    reads: Vec<ReadEntry<S>>,
    /// Redo log in program order, carrying resolved variables; sorted and
    /// deduplicated by `try_commit`.
    writes: Vec<WriteEntry>,
    /// Lock log of the commit attempt, parallel to the (deduplicated,
    /// sorted) prefix of `writes`: each word locked over, beside the
    /// writer stamp the lock replaced — what a stale held entry names.
    locked: Vec<(u64, u64)>,
    retired: Vec<RetiredBlock>,
    /// The process's one private bag in the table's domain: the blocks
    /// its commits retired and the states their eviction unlinked.
    bag: Bag,
    domain: Arc<GraceTracker>,
}

impl<S> Scratch<S> {
    fn new(domain: &Arc<GraceTracker>) -> Self {
        Scratch {
            reads: Vec::new(),
            writes: Vec::new(),
            locked: Vec::new(),
            retired: Vec::new(),
            bag: Bag::default(),
            domain: Arc::clone(domain),
        }
    }
}

/// A scratch displaced from the pool, or dropped with it, hands its bag to
/// the domain's shared bins: a later tag is always safe.
impl<S> Drop for Scratch<S> {
    fn drop(&mut self) {
        self.domain.defer_bag(&mut self.bag, 0);
    }
}

/// Commit-time-locking STM over versioned lock words; see the module docs
/// and the [`TlStm`] / [`Tl2Stm`] aliases.
pub struct VersionedLockStm<P: ReadPolicy> {
    vars: VarTable<VLockVar>,
    notify: CommitNotifier,
    /// Commit-stamp source. Every writing commit bumps its own shard and
    /// every declared-RO transaction samples the whole vector; whether a
    /// writable transaction reads it at `begin` is the policy's call.
    clocks: ShardedClock,
    /// Written by every begin, so boxed on a [`Line`] of its own.
    tx_seq: Box<Line<AtomicU32>>,
    recorder: Option<Arc<Recorder>>,
    scratch: SlotPool<Scratch<P::Seen>>,
    /// Always-on telemetry (begins/commits/aborts-by-cause, attempts,
    /// parks). Behind an `Arc` so an embedding backend (the hybrid)
    /// can share one registry across engines.
    stats: Arc<StmStats>,
    /// Bounded spin on a locked variable before giving up and aborting
    /// (keeps writers from deadlocking; readers never block).
    pub lock_patience: u32,
}

impl<P: ReadPolicy> Default for VersionedLockStm<P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<P: ReadPolicy> VersionedLockStm<P> {
    pub fn new() -> Self {
        VersionedLockStm {
            vars: VarTable::new(),
            notify: CommitNotifier::new(),
            clocks: ShardedClock::new(),
            tx_seq: Box::default(),
            recorder: None,
            scratch: SlotPool::new(),
            stats: Arc::new(StmStats::new()),
            lock_patience: 4096,
        }
    }

    pub fn with_recorder(mut self, rec: Arc<Recorder>) -> Self {
        self.recorder = Some(rec);
        self
    }

    /// Replaces the telemetry registry with a shared one (the hybrid
    /// backend routes both embedded engines into a single registry).
    pub fn with_stats(mut self, stats: Arc<StmStats>) -> Self {
        self.stats = stats;
        self
    }

    /// Publishes commits to `notify` instead of an endpoint of its own
    /// (the hybrid backend hands both embedded engines a clone of its
    /// notifier, so waiters parked on the facade survive a migration).
    pub fn with_notifier(mut self, notify: CommitNotifier) -> Self {
        self.notify = notify;
        self
    }

    /// Starts transaction sequence numbers at `base`, so two engines
    /// embedded behind one facade (and one recorder) never mint colliding
    /// `TxId`s for the same process.
    pub fn with_tx_base(self, base: u32) -> Self {
        // ord: Relaxed — single-threaded builder; atomicity alone keeps
        // later ids unique.
        self.tx_seq.store(base, Ordering::Relaxed);
        self
    }

    /// Visits every live t-variable with its current committed value.
    /// Exact only while no writer is in flight (racy snapshot otherwise) —
    /// the hybrid's migration barrier provides that quiescence.
    ///
    /// Retired blocks whose grace period has elapsed are evicted first:
    /// they are dead, not live, and the caller that quiesced this engine
    /// to migrate away from it will run no further commit here to flush
    /// them (they would sit in the table, counted by `live_tvars`, until
    /// it migrated back).
    pub fn for_each_live_value(&self, mut f: impl FnMut(TVarId, Value)) {
        self.live_tvars(); // settles every parked bag and the bins
        self.vars.for_each_live(|id, var, _| {
            // ord: Acquire pairs with the committer's Release value store.
            f(id, var.value.load(Ordering::Acquire));
        });
    }

    pub fn peek(&self, x: TVarId) -> Option<Value> {
        // ord: Acquire pairs with the committer's Release value store
        // (oracle/inspection read; not validated against the lock word).
        let pin = self.vars.domain().begin();
        let var = self.vars.get_ref_in(x, &pin)?;
        Some(var.value.load(Ordering::Acquire))
    }

    /// Total commits stamped so far across all shards (diagnostics; the
    /// lazy-merged "current time").
    pub fn clock_now(&self) -> u64 {
        self.clocks.now()
    }

    /// Samples the read-version vector, recording one Read step per shard
    /// cell — the common clock memory where TL2's disjoint transactions
    /// still meet, and which TL pays only on the declared-RO path.
    fn sample_rv(&self, id: TxId) -> Rv {
        let mut rv = [0u64; CLOCK_SHARDS];
        for (s, shard) in self.clocks.shards().iter().enumerate() {
            // ord: Acquire pairs with `tick`'s AcqRel bump so commits
            // stamped at or below the sampled vector are fully visible.
            rv[s] = shard.count.load(Ordering::Acquire);
            record::step(self.recorder.as_deref(), id, shard.base, Access::Read);
        }
        rv
    }

    fn attempt(&self, proc: u32) -> Attempt<'_, P> {
        self.stats.incr(Counter::Begins);
        // ord: Relaxed — atomicity alone keeps transaction ids unique.
        let seq = self.tx_seq.fetch_add(1, Ordering::Relaxed);
        Attempt {
            stm: self,
            id: TxId::new(proc, seq),
            pin: Some(self.vars.domain().begin()),
            dead: false,
            finished: false,
            conflict_hint: None,
        }
    }
}

/// What every attempt carries, writable or declared read-only.
struct Attempt<'s, P: ReadPolicy> {
    stm: &'s VersionedLockStm<P>,
    id: TxId,
    /// The attempt's one registration with the table's domain: what it
    /// looks up stays allocated until this goes. Dropping it (any abort
    /// path) discards the retire-set with the transaction; `finish` hands
    /// it to the commit hook.
    pin: Option<Guard<'s>>,
    dead: bool,
    /// Completed through `try_commit`/`try_abort`: every abort cause is
    /// already tagged. A live transaction dropped without either settles
    /// as an explicit retry in the abort taxonomy.
    finished: bool,
    /// The variable an abort gave up on: not necessarily in either log,
    /// but part of the conflict footprint a parked re-run must wake on.
    conflict_hint: Option<TVarId>,
}

impl<P: ReadPolicy> Attempt<'_, P> {
    /// Looks `x` up, for the operation at hand or for a log entry to keep.
    fn var(&self, x: TVarId) -> Pinned<VLockVar> {
        let pin = self.pin.as_ref().expect("held until completion");
        // SAFETY: loaded under the attempt's guard, which it holds until
        // `finish` or its drop — after the last look at the logs either
        // way; nobody else dereferences the entry.
        unsafe { Pinned::new(self.stm.vars.get_ref_or_panic_in(x, pin)) }
    }

    /// An attempt that already died answers every operation with `A_k`.
    fn live(&self) -> TxResult<()> {
        if self.dead {
            return Err(TxError::Aborted);
        }
        Ok(())
    }

    /// The recorder its steps go to, if one is attached.
    fn rec(&self) -> Option<&Recorder> {
        self.stm.recorder.as_deref()
    }

    /// This transaction's packed forensic identity ([`pack_tx`]).
    fn packed_id(&self) -> u64 {
        pack_tx(self.id.proc, self.id.seq)
    }

    /// Kills the attempt over `x`, naming `aggressor`: a variable's
    /// writer stamp — the current lock holder, or the committer whose
    /// stamp invalidated the read.
    fn doom<T>(&mut self, cause: AbortCause, x: TVarId, aggressor: u64) -> TxResult<T> {
        self.dead = true;
        self.conflict_hint = Some(x);
        self.stm
            .stats
            .abort_at(cause, VarAttr::Var(x.0), self.packed_id(), aggressor);
        Err(TxError::Aborted)
    }

    /// An attempt given up while still viable is an explicit retry — no
    /// variable and no peer are attributable by construction. One that
    /// died on a conflict is already tagged.
    fn tag_explicit_retry(&self) {
        if !self.dead {
            self.stm.stats.abort_at(
                AbortCause::ExplicitRetry,
                VarAttr::NoVar,
                self.packed_id(),
                TX_UNKNOWN,
            );
        }
    }

    /// `tryA`. Nothing to undo: writes were buffered, and dropping the
    /// attempt releases its registration.
    fn abandon(&mut self) {
        self.finished = true;
        self.tag_explicit_retry();
    }

    /// Releases the registration, tags the retire-set into the process's
    /// `bag` and frees whatever became reclaimable; what the bag still
    /// holds past [`BAG_BOUND`] goes to the shared bins (TL and TL2 never
    /// pause). Nothing the logs borrow is looked at again.
    fn finish(&mut self, bag: &mut Bag, retired: &mut Vec<RetiredBlock>) {
        // Filled at `begin` and emptied only here, and only `try_commit` —
        // which consumes the transaction — gets here, once.
        let pin = self.pin.take().expect("held until completion");
        let vars = &self.stm.vars;
        let evicted = vars.retire_and_evict(pin, bag, retired.drain(..).map(Retired::Block));
        vars.domain().defer_bag(bag, BAG_BOUND);
        self.stm.stats.add(Counter::TvarsFreed, evicted);
    }
}

impl<P: ReadPolicy> Drop for Attempt<'_, P> {
    fn drop(&mut self) {
        if !self.finished {
            // Dropped live without tryC/tryA: the only way an attempt can
            // end with no cause tagged.
            self.tag_explicit_retry();
        }
    }
}

struct RwTx<'s, P: ReadPolicy> {
    at: Attempt<'s, P>,
    snap: P::Snapshot,
    /// The logs. Taken out (and given back to the pool) by `Drop` only.
    log: ManuallyDrop<Box<Scratch<P::Seen>>>,
}

impl<P: ReadPolicy> RwTx<'_, P> {
    fn buffered(&self, x: TVarId) -> Option<Value> {
        self.log
            .writes
            .iter()
            .rev()
            .find(|(w, _, _)| *w == x)
            .map(|(_, v, _)| *v)
    }

    /// Index of the first read-set entry that no longer stands. A variable
    /// this commit holds is judged by the word it locked over; one held by
    /// somebody else is about to change.
    fn first_stale_read(&self) -> Option<usize> {
        self.log.reads.iter().position(|(var, x, seen)| {
            let word = match self.held(*x) {
                Some(h) => self.log.locked[h].0,
                None => {
                    record::step(self.at.rec(), self.at.id, var.lock_base, Access::Read);
                    // ord: Acquire pairs with `unlock`'s Release
                    // (validation read).
                    let cur = var.lock.load(Ordering::Acquire);
                    if cur & LOCK_BIT != 0 {
                        return true;
                    }
                    cur
                }
            };
            P::admit(word, &self.snap) != Some(*seen)
        })
    }

    /// Position of `x` in the lock log, if this commit holds it: once
    /// the write-set is sorted, deduplicated and locked.
    fn held(&self, x: TVarId) -> Option<usize> {
        self.log
            .writes
            .binary_search_by_key(&x, |(w, _, _)| *w)
            .ok()
    }

    /// Fails the commit on the stale read-set entry `i`. A variable this
    /// commit holds carries our own stamp, so it names the stamp our lock
    /// replaced: the writer of the word we locked over.
    fn doom_on_read(&mut self, i: usize) -> TxResult<()> {
        let (var, x, _) = self.log.reads[i];
        let aggressor = match self.held(x) {
            Some(h) => self.log.locked[h].1,
            None => var.writer(),
        };
        self.at.doom(AbortCause::ReadValidation, x, aggressor)
    }

    /// Restores every word this commit attempt locked over.
    fn unlock_held(&self) {
        for ((_, _, var), (prev, _)) in self.log.writes.iter().zip(&self.log.locked).rev() {
            var.unlock(*prev);
        }
    }
}

impl<P: ReadPolicy> WordTx for RwTx<'_, P> {
    fn id(&self) -> TxId {
        self.at.id
    }

    fn read(&mut self, x: TVarId) -> TxResult<Value> {
        self.at.live()?;
        if let Some(v) = self.buffered(x) {
            return Ok(v);
        }
        let var = self.at.var(x);
        let mut patience = P::read_patience(self.at.stm.lock_patience);
        loop {
            record::step(self.at.rec(), self.at.id, var.lock_base, Access::Read);
            if let Some((word, val)) = var.read_consistent() {
                record::step(self.at.rec(), self.at.id, var.value_base, Access::Read);
                let Some(seen) = P::admit(word, &self.snap) else {
                    return self.at.doom(AbortCause::ReadValidation, x, var.writer());
                };
                self.log.reads.push((var, x, seen));
                return Ok(val);
            }
            // Locked by a committing writer, or torn by one.
            patience = patience.saturating_sub(1);
            if patience == 0 {
                return self.at.doom(AbortCause::LockBusy, x, var.writer());
            }
            std::hint::spin_loop();
        }
    }

    fn write(&mut self, x: TVarId, v: Value) -> TxResult<()> {
        self.at.live()?;
        let var = self.at.var(x); // existence check, kept for commit
        self.log.writes.push((x, v, var));
        Ok(())
    }

    fn try_commit(mut self: Box<Self>) -> TxResult<()> {
        self.at.finished = true;
        self.at.live()?;
        let stm = self.at.stm;

        if self.log.writes.is_empty() {
            // Detect-on-commit promotion: no locks, no clock bump.
            if P::REVALIDATES_PROMOTED {
                if let Some(i) = self.first_stale_read() {
                    return self.doom_on_read(i);
                }
            }
            stm.stats.incr(Counter::CommitsPromoted);
            let log = &mut **self.log;
            self.at.finish(&mut log.bag, &mut log.retired);
            return Ok(());
        }

        // Deduplicate the write-set in place (stable sort keeps program
        // order within a key; keep the *last* write) and lock in global
        // t-variable order to avoid deadlock among committers. No table
        // probe and no allocation: the variables ride in the write-set.
        self.log.writes.sort_by_key(|(x, _, _)| *x);
        self.log.writes.dedup_by(|later, earlier| {
            if later.0 == earlier.0 {
                earlier.1 = later.1;
                true
            } else {
                false
            }
        });

        // Commit critical section: from the first lock acquisition to the
        // final stamped release, concurrent accessors of these variables
        // spin or abort.
        let me = self.at.packed_id();
        self.log.locked.clear();
        for i in 0..self.log.writes.len() {
            let (x, _, var) = self.log.writes[i];
            let mut patience = stm.lock_patience;
            loop {
                record::step(self.at.rec(), self.at.id, var.lock_base, Access::Modify);
                if let Some(prev) = var.try_lock(me) {
                    self.log.locked.push(prev);
                    break;
                }
                patience = patience.saturating_sub(1);
                if patience == 0 {
                    self.unlock_held();
                    return self.at.doom(AbortCause::LockBusy, x, var.writer());
                }
                std::hint::spin_loop();
            }
        }

        // The commit stamp: a bump of OUR clock shard only — the sharded
        // replacement for the global hot spot of Section 1, and the one
        // access of a TL writing commit that is not strictly DAP.
        let wv = stm.clocks.tick(self.at.id.proc);
        let shard = self.at.id.proc as usize & (CLOCK_SHARDS - 1);
        record::step(
            self.at.rec(),
            self.at.id,
            stm.clocks.shards()[shard].base,
            Access::Modify,
        );

        if let Some(i) = self.first_stale_read() {
            self.unlock_held();
            return self.doom_on_read(i);
        }

        // Apply and release with the new commit stamp.
        for (_, v, var) in &self.log.writes {
            // ord: Release — together with `unlock`'s Release version
            // store, pairs with readers' Acquire value/version loads: a
            // clean sandwich implies they saw this value.
            var.value.store(*v, Ordering::Release);
            record::step(self.at.rec(), self.at.id, var.value_base, Access::Modify);
            var.unlock(wv);
            record::step(self.at.rec(), self.at.id, var.lock_base, Access::Modify);
        }
        stm.stats.incr(Counter::Commits);
        // Writes are visible and stamped: wake parked conflicters.
        stm.notify
            .publish(self.log.writes.iter().map(|(x, _, _)| *x));
        let log = &mut **self.log;
        self.at.finish(&mut log.bag, &mut log.retired);
        Ok(())
    }

    fn try_abort(mut self: Box<Self>) {
        self.at.abandon();
    }

    fn retire_tvar_block(&mut self, base: TVarId, len: usize) {
        self.log.retired.push(RetiredBlock { base, len });
    }

    fn footprint(&self, out: &mut Vec<TVarId>) {
        out.extend(self.log.reads.iter().map(|(_, x, _)| *x));
        out.extend(self.log.writes.iter().map(|(x, _, _)| *x));
        out.extend(self.at.conflict_hint);
    }
}

impl<P: ReadPolicy> Drop for RwTx<'_, P> {
    fn drop(&mut self) {
        // Return the (cleared) buffers to the pool: the next transaction
        // begins with warm capacity instead of fresh allocations.
        // SAFETY: `drop` runs once and nothing reads the field after it.
        let mut log = unsafe { ManuallyDrop::take(&mut self.log) };
        log.reads.clear();
        log.writes.clear();
        log.locked.clear();
        log.retired.clear();
        self.at.stm.scratch.put(self.at.id.proc as usize, log);
    }
}

/// A **declared read-only** transaction ([`WordStm::begin_ro`]); the
/// module docs state its wait-free bound and the refresh/freeze rules.
struct RoTx<'s, P: ReadPolicy> {
    at: Attempt<'s, P>,
    rv: Rv,
    /// A read has succeeded: the snapshot is frozen from here on.
    read_any: bool,
}

impl<P: ReadPolicy> WordTx for RoTx<'_, P> {
    fn id(&self) -> TxId {
        self.at.id
    }

    fn read(&mut self, x: TVarId) -> TxResult<Value> {
        self.at.live()?;
        let stm = self.at.stm;
        let var = self.at.var(x);
        record::step(self.at.rec(), self.at.id, var.lock_base, Access::Read);
        let (ver, val) = match var.read_consistent() {
            Some(pair) => pair,
            None => {
                // Locked by a committing writer: bounded spin, kept out
                // of line so the unlocked fast path stays straight.
                let mut patience = stm.lock_patience;
                loop {
                    patience = patience.saturating_sub(1);
                    if patience == 0 {
                        return self.at.doom(AbortCause::LockBusy, x, var.writer());
                    }
                    std::hint::spin_loop();
                    record::step(self.at.rec(), self.at.id, var.lock_base, Access::Read);
                    if let Some(pair) = var.read_consistent() {
                        break pair;
                    }
                }
            }
        };
        record::step(self.at.rec(), self.at.id, var.value_base, Access::Read);
        if !readable(ver, &self.rv) {
            if self.read_any {
                // Snapshot frozen; this value postdates it.
                return self.at.doom(AbortCause::ReadValidation, x, var.writer());
            }
            // First read: refresh the snapshot instead of aborting.
            self.rv = stm.sample_rv(self.at.id);
            debug_assert!(readable(ver, &self.rv));
        }
        self.read_any = true;
        Ok(val)
    }

    /// Contract: a declared read-only transaction never writes.
    fn write(&mut self, _x: TVarId, _v: Value) -> TxResult<()> {
        panic!("{}: write on a declared read-only transaction", P::NAME);
    }

    fn try_commit(mut self: Box<Self>) -> TxResult<()> {
        self.at.finished = true;
        self.at.live()?;
        // Every read was serializable at begin time: nothing to validate,
        // nothing to lock, no clock bump. Commit is the guard's release;
        // the process's bag waits for its next writable commit.
        self.at.stm.stats.incr(Counter::CommitsRo);
        self.at.finish(&mut Bag::default(), &mut Vec::new());
        Ok(())
    }

    fn try_abort(mut self: Box<Self>) {
        self.at.abandon();
    }

    /// Contract: a declared read-only transaction retires nothing.
    fn retire_tvar_block(&mut self, _base: TVarId, _len: usize) {
        panic!("{}: retire on a declared read-only transaction", P::NAME);
    }

    fn footprint(&self, out: &mut Vec<TVarId>) {
        // No read-set is kept; only the variable an abort gave up on is
        // known. Read-only futures never park, so this is purely
        // diagnostic.
        out.extend(self.at.conflict_hint);
    }
}

impl<P: ReadPolicy> WordStm for VersionedLockStm<P> {
    fn name(&self) -> &'static str {
        P::NAME
    }

    fn register_tvar(&self, x: TVarId, initial: Value) {
        if self.vars.insert(x, VLockVar::new(initial)) {
            self.stats.incr(Counter::TvarsAllocated);
        }
    }

    fn alloc_tvar_block(&self, initials: &[Value]) -> TVarId {
        self.stats
            .add(Counter::TvarsAllocated, initials.len() as u64);
        self.vars.alloc_block(initials, |_, v| VLockVar::new(v))
    }

    fn free_tvar_block(&self, base: TVarId, len: usize) {
        self.stats.add(Counter::TvarsFreed, len as u64);
        self.vars.remove_block(base, len);
    }

    fn live_tvars(&self) -> usize {
        let evicted = self
            .vars
            .evict_ripe_parked(&self.scratch, |log| &mut log.bag);
        self.stats.add(Counter::TvarsFreed, evicted);
        self.vars.len()
    }

    fn begin(&self, proc: u32) -> Box<dyn WordTx + '_> {
        let at = self.attempt(proc);
        let snap = P::begin(|| self.sample_rv(at.id));
        let log = self.scratch.take(proc as usize);
        let log = log.unwrap_or_else(|| Box::new(Scratch::new(self.vars.domain())));
        let tx = Box::new(RwTx {
            at,
            snap,
            log: ManuallyDrop::new(log),
        });
        record::observe(self.recorder.as_deref(), tx)
    }

    fn begin_ro(&self, proc: u32) -> Box<dyn WordTx + '_> {
        self.stats.incr(Counter::BeginsRo);
        let at = self.attempt(proc);
        let rv = self.sample_rv(at.id);
        let tx = Box::new(RoTx {
            at,
            rv,
            read_any: false,
        });
        record::observe(self.recorder.as_deref(), tx)
    }

    fn notifier(&self) -> &CommitNotifier {
        &self.notify
    }

    fn stats(&self) -> &StmStats {
        &self.stats
    }

    fn is_obstruction_free(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::{pack_version, ver_count, ver_shard};
    use oftm_core::api::run_transaction;
    use oftm_obs::tx_proc;

    const X: TVarId = TVarId(0);
    const Y: TVarId = TVarId(1);

    fn registered<P: ReadPolicy>(s: VersionedLockStm<P>) -> VersionedLockStm<P> {
        s.register_tvar(X, 0);
        s.register_tvar(Y, 0);
        s
    }

    fn stm<P: ReadPolicy>() -> VersionedLockStm<P> {
        registered(VersionedLockStm::new())
    }

    fn recorded<P: ReadPolicy>() -> (Arc<Recorder>, VersionedLockStm<P>) {
        let rec = Arc::new(Recorder::new());
        let s = registered(VersionedLockStm::new().with_recorder(Arc::clone(&rec)));
        (rec, s)
    }

    #[test]
    fn the_begin_counter_has_a_line_pair_of_its_own() {
        let s = Tl2Stm::new();
        assert!(oftm_core::line::isolated_from(&**s.tx_seq, &s));
    }

    // ---- One body, both policies ------------------------------------

    fn read_write_roundtrip<P: ReadPolicy>() {
        let s = stm::<P>();
        run_transaction(&s, 0, |tx| tx.write(X, 5));
        let (v, _) = run_transaction(&s, 0, |tx| tx.read(X));
        assert_eq!(v, 5);
    }

    fn buffered_writes_read_back<P: ReadPolicy>() {
        let s = stm::<P>();
        run_transaction(&s, 0, |tx| {
            tx.write(X, 1)?;
            assert_eq!(tx.read(X)?, 1);
            tx.write(X, 2)?;
            assert_eq!(tx.read(X)?, 2);
            Ok(())
        });
        assert_eq!(s.peek(X), Some(2));
    }

    fn duplicate_writes_last_value_wins<P: ReadPolicy>() {
        let s = stm::<P>();
        run_transaction(&s, 0, |tx| {
            tx.write(X, 1)?;
            tx.write(Y, 7)?;
            tx.write(X, 2)?;
            tx.write(X, 3)
        });
        assert_eq!(s.peek(X), Some(3));
        assert_eq!(s.peek(Y), Some(7));
    }

    fn stale_read_aborts_at_commit<P: ReadPolicy>() {
        let s = stm::<P>();
        let mut t1 = s.begin(0);
        assert_eq!(t1.read(X).unwrap(), 0);
        run_transaction(&s, 1, |tx| tx.write(X, 9));
        t1.write(Y, 1).unwrap();
        assert!(t1.try_commit().is_err());
    }

    fn ro_first_read_refreshes_snapshot<P: ReadPolicy>() {
        let s = stm::<P>();
        let mut ro = s.begin_ro(0); // rv = all-zero vector
        run_transaction(&s, 1, |tx| tx.write(X, 9)); // stamped after begin
        assert_eq!(ro.read(X).unwrap(), 9, "first read slides the snapshot");
        assert!(ro.try_commit().is_ok());
    }

    fn ro_snapshot_frozen_after_first_read<P: ReadPolicy>() {
        let s = stm::<P>();
        run_transaction(&s, 0, |tx| tx.write(Y, 1));
        let mut ro = s.begin_ro(0);
        assert_eq!(ro.read(Y).unwrap(), 1); // snapshot now frozen
        run_transaction(&s, 1, |tx| tx.write(X, 7));
        assert!(
            ro.read(X).is_err(),
            "a post-freeze commit must not leak into the snapshot"
        );
    }

    fn ro_write_panics<P: ReadPolicy>() {
        let s = stm::<P>();
        let mut ro = s.begin_ro(0);
        let _ = ro.write(X, 1);
    }

    fn ro_commit_does_not_advance_clock<P: ReadPolicy>() {
        let s = stm::<P>();
        run_transaction(&s, 0, |tx| tx.write(X, 3));
        let before = s.clock_now();
        assert_eq!(before, 1);
        let mut ro = s.begin_ro(1);
        assert_eq!(ro.read(X).unwrap(), 3);
        assert!(ro.try_commit().is_ok());
        // Neither does a promoted (empty write-set) commit.
        run_transaction(&s, 0, |tx| tx.read(X));
        assert_eq!(s.clock_now(), before);
    }

    fn concurrent_counter<P: ReadPolicy>() {
        let s = stm::<P>();
        std::thread::scope(|sc| {
            for p in 0..4u32 {
                let s = &s;
                sc.spawn(move || {
                    for _ in 0..200 {
                        run_transaction(s, p, |tx| {
                            let v = tx.read(X)?;
                            tx.write(X, v + 1)
                        });
                    }
                });
            }
        });
        assert_eq!(s.peek(X), Some(800));
    }

    fn invariant_across_two_vars<P: ReadPolicy>() {
        let s = stm::<P>();
        run_transaction(&s, 0, |tx| {
            tx.write(X, 500)?;
            tx.write(Y, 500)
        });
        std::thread::scope(|sc| {
            for p in 0..4u32 {
                let s = &s;
                sc.spawn(move || {
                    for i in 0..100u64 {
                        let d = i % 9;
                        run_transaction(s, p, |tx| {
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
        let (sum, _) = run_transaction(&s, 9, |tx| Ok(tx.read(X)? + tx.read(Y)?));
        assert_eq!(sum, 1000);
    }

    fn recorded_histories_serializable<P: ReadPolicy>() {
        let (rec, s) = recorded::<P>();
        std::thread::scope(|sc| {
            for p in 0..3u32 {
                let s = &s;
                sc.spawn(move || {
                    for _ in 0..10 {
                        run_transaction(s, p, |tx| {
                            let x = tx.read(X)?;
                            tx.write(Y, x + 1)?;
                            tx.write(X, x + 1)
                        });
                    }
                });
            }
        });
        assert!(oftm_histories::conflict_serializable(&rec.snapshot()));
    }

    /// A read that meets a held commit lock gives up once its patience is
    /// spent (TL2: at once), tagged `lock_busy`, and the edge names the
    /// holder through the variable's writer stamp.
    fn locked_read_tags_lock_busy_naming_the_holder<P: ReadPolicy>() {
        let mut s = stm::<P>();
        s.lock_patience = 8;
        s.stats().forensics().reset();
        let before = s.stats().snapshot();
        let pin = s.vars.domain().begin();
        let x = s.vars.get_ref_or_panic_in(X, &pin);
        // What a committer does to X on its way in, frozen there.
        let (prev, _) = x.try_lock(pack_tx(7, 3)).expect("uncontended");

        let mut rw = s.begin(0);
        assert!(rw.read(X).is_err());
        assert!(rw.try_commit().is_err(), "dead; must not re-tag");
        let mut ro = s.begin_ro(0);
        assert!(ro.read(X).is_err());
        drop(ro);

        let delta = s.stats().snapshot().since(&before);
        assert_eq!(delta.get(AbortCause::LockBusy.counter()), 2);
        assert_eq!(delta.aborts(), 2, "no other cause moved");
        let edges = s.stats().forensics().top_k(8);
        assert_eq!(edges.len(), 1, "{edges:?}");
        assert_eq!(edges[0].cause, AbortCause::LockBusy);
        assert_eq!(edges[0].var, X.0);
        assert_eq!(edges[0].count, 2);
        assert_eq!(edges[0].aggressor_proc, 7);
        assert_eq!(tx_proc(edges[0].last_aggressor), 7);

        // Released unchanged, the variable reads normally again.
        x.unlock(prev);
        assert_eq!(run_transaction(&s, 0, |tx| tx.read(X)).0, 0);
    }

    /// A retirement parked behind an in-flight peer is still evicted when
    /// the engine is walked at quiescence with no later commit to flush it
    /// — what the hybrid does to the engine it migrates away from.
    fn live_walk_evicts_retired_blocks_past_their_grace<P: ReadPolicy>() {
        let s = stm::<P>();
        let blk = s.alloc_tvar_block(&[1, 2]);
        let peer = s.begin(1);
        let mut tx = s.begin(0);
        tx.retire_tvar_block(blk, 2);
        tx.try_commit().expect("nothing to conflict with");
        assert_eq!(s.live_tvars(), 4, "the peer may still read the block");
        drop(peer);

        let mut walked = Vec::new();
        s.for_each_live_value(|id, _| walked.push(id));
        assert_eq!(walked, [X, Y]);
        assert_eq!(s.live_tvars(), 2);
    }

    /// A reader in flight before a retiring commit keeps the block in the
    /// retirer's bag, off the shared bins; once it is gone, the count
    /// settles the bag.
    fn grace_period_protects_in_flight_readers<P: ReadPolicy>() {
        let s = stm::<P>();
        let node = s.alloc_tvar(5);
        let mut reader = s.begin(1);
        assert_eq!(reader.read(node).unwrap(), 5);
        let mut retirer = s.begin(2);
        retirer.retire_tvar_block(node, 1);
        retirer.try_commit().unwrap();
        assert_eq!(piled(&s, 2), 1, "the block waits in the retirer's bag");
        assert_eq!(s.vars.domain().pending_blocks(), 0);
        assert_eq!(s.live_tvars(), 3, "block must survive the reader");
        assert_eq!(s.peek(node), Some(5));
        reader.try_abort();
        assert_eq!(s.live_tvars(), 2);
        assert_eq!(piled(&s, 2), 0);
        assert_eq!(s.vars.domain().pending_blocks(), 0);
        assert_eq!(s.peek(node), None);
    }

    /// Items waiting in the bag of process `p`'s parked scratch.
    fn piled<P: ReadPolicy>(s: &VersionedLockStm<P>, p: u32) -> usize {
        s.scratch.take(p as usize).map_or(0, |log| {
            let piled = log.bag.len();
            s.scratch.put(p as usize, log);
            piled
        })
    }

    /// A writable transaction of process `p` that retires `blk` and
    /// commits.
    fn retire<P: ReadPolicy>(s: &VersionedLockStm<P>, p: u32, blk: TVarId, len: usize) {
        let mut tx = s.begin(p);
        tx.retire_tvar_block(blk, len);
        tx.try_commit().expect("nothing to conflict with");
    }

    /// Processes 1 and 17 share a scratch slot. Process 17 commits while
    /// process 1's transaction holds the scratch it took, so when process
    /// 1 puts its scratch back it displaces 17's, whose bag goes to the
    /// shared bins. Every block is evicted once, and every state freed
    /// once: each is tombstoned once, and nothing is left pending in a bag
    /// or the bins (a second free would be a double free, which the
    /// sanitizer job catches).
    #[test]
    fn a_displaced_bag_goes_to_the_bins_and_nothing_is_evicted_twice() {
        let s = Tl2Stm::new();
        let (a, b) = (s.alloc_tvar_block(&[0; 2]), s.alloc_tvar_block(&[0; 3]));
        let domain = s.vars.domain();
        let peer = domain.begin();
        let mut t1 = s.begin(1);
        t1.retire_tvar_block(a, 2);
        retire(&s, 17, b, 3);
        assert_eq!(piled(&s, 17), 1, "17 parked a bag of its own");
        t1.try_commit().unwrap();
        assert_eq!(domain.pending_blocks(), 1, "17's bag was displaced");
        assert_eq!(piled(&s, 1), 1, "1's bag is parked");
        assert_eq!(s.vars.len(), 5, "nothing evicted under the peer");
        drop(peer);
        // Any commit flushes the bins; the quiescent count settles the
        // parked bag.
        run_transaction(&s, 2, |tx| tx.read(TVarId(a.0 + 1)).map(drop));
        assert_eq!((s.vars.len(), s.vars.freed()), (2, 3));
        assert_eq!(s.live_tvars(), 0);
        assert_eq!(s.vars.freed(), 5);
        assert_eq!(s.live_tvars(), 0);
        assert_eq!(s.vars.freed(), 5, "evicted twice");
        drop(domain.begin()); // a release collects the bins
        assert_eq!((domain.pending_blocks(), domain.pending_memory()), (0, 0));
        assert_eq!(piled(&s, 1), 0);
    }

    /// Four threads commit as processes 1, 17, 33 and 49, which share one
    /// scratch slot: they take each other's scratches and displace them,
    /// bags and all, into the bins as they race. Once they are done, every
    /// block is evicted once and every state freed once.
    #[test]
    fn racing_processes_on_one_slot_evict_and_free_each_block_once() {
        const ROUNDS: usize = 2000;
        let s = Tl2Stm::new();
        std::thread::scope(|sc| {
            for proc in [1, 17, 33, 49] {
                let s = &s;
                sc.spawn(move || {
                    for _ in 0..ROUNDS {
                        let mut tx = s.begin(proc);
                        let blk = s.alloc_tvar_block(&[0; 2]);
                        tx.retire_tvar_block(blk, 2);
                        tx.try_commit().expect("nothing to conflict with");
                    }
                });
            }
        });
        assert_eq!(s.live_tvars(), 0);
        let domain = s.vars.domain();
        drop(domain.begin()); // a release collects the bins
        let total = 4 * ROUNDS * 2;
        assert_eq!(s.vars.freed(), total as u64);
        assert_eq!((domain.pending_blocks(), domain.pending_memory()), (0, 0));
        assert_eq!(piled(&s, 1), 0);
    }

    macro_rules! both_policies {
        ($($(#[$attr:meta])* $name:ident),* $(,)?) => {
            mod tl {
                $(#[test] $(#[$attr])* fn $name() { super::$name::<super::PerObject>() })*
            }
            mod tl2 {
                $(#[test] $(#[$attr])* fn $name() { super::$name::<super::Snapshot>() })*
            }
        };
    }

    both_policies! {
        read_write_roundtrip,
        buffered_writes_read_back,
        duplicate_writes_last_value_wins,
        stale_read_aborts_at_commit,
        ro_first_read_refreshes_snapshot,
        ro_snapshot_frozen_after_first_read,
        #[should_panic(expected = "read-only")]
        ro_write_panics,
        ro_commit_does_not_advance_clock,
        concurrent_counter,
        invariant_across_two_vars,
        recorded_histories_serializable,
        locked_read_tags_lock_busy_naming_the_holder,
        live_walk_evicts_retired_blocks_past_their_grace,
        grace_period_protects_in_flight_readers,
    }

    // ---- TL pins ----------------------------------------------------

    #[test]
    fn promoted_read_only_commit_still_validates() {
        // Detect-on-commit promotion must not skip read validation: TL
        // reads are not snapshot-anchored, so an empty-write-set commit
        // whose reads went stale has to abort.
        let s = stm::<PerObject>();
        let mut t1 = s.begin(0);
        assert_eq!(t1.read(X).unwrap(), 0);
        run_transaction(&s, 1, |tx| tx.write(X, 9));
        assert!(t1.try_commit().is_err());
    }

    /// Two writers on disjoint variables, on distinct clock shards.
    fn disjoint_writers<P: ReadPolicy>() -> Vec<oftm_histories::DapViolation> {
        let (rec, s) = recorded::<P>();
        run_transaction(&s, 0, |tx| {
            let v = tx.read(X)?;
            tx.write(X, v + 1)
        });
        run_transaction(&s, 1, |tx| {
            let v = tx.read(Y)?;
            tx.write(Y, v + 1)
        });
        oftm_histories::check_strict_dap(&rec.snapshot())
    }

    #[test]
    fn disjoint_transactions_touch_disjoint_base_objects() {
        // The strict-DAP property (the paper's Section 1 claim about TL).
        let violations = disjoint_writers::<PerObject>();
        assert!(
            violations.is_empty(),
            "TL must be strictly DAP, found {violations:?}"
        );
    }

    // ---- TL2 pins ---------------------------------------------------

    #[test]
    fn disjoint_writers_conflict_on_the_clock() {
        // The paper's point about TL2: disjoint transactions still meet at
        // the version clock — NOT strictly disjoint-access-parallel. With
        // the sharded clock the meeting point is the begin-time sample of
        // every shard against the writer's shard bump.
        let violations = disjoint_writers::<Snapshot>();
        assert!(
            violations.iter().any(|v| v.tx_a.proc != v.tx_b.proc),
            "TL2 disjoint writers must conflict on the clock, got {violations:?}"
        );
    }

    #[test]
    fn version_packing_roundtrip() {
        for shard in 0..CLOCK_SHARDS {
            let v = pack_version(shard, 123_456);
            assert_eq!(ver_shard(v), shard);
            assert_eq!(ver_count(v), 123_456);
            assert_eq!(v & LOCK_BIT, 0);
            assert_eq!(ver_shard(v | LOCK_BIT), shard, "lock bit must not leak");
        }
    }

    #[test]
    fn stale_snapshot_aborts_on_read() {
        let s = stm::<Snapshot>();
        let mut t1 = s.begin(0); // rv = all-zero vector
        run_transaction(&s, 1, |tx| tx.write(X, 9)); // version(X) now newer
        assert!(t1.read(X).is_err(), "TL2 must reject too-new versions");
    }

    #[test]
    fn stale_read_rejected_across_every_shard() {
        // The per-shard regression: whichever shard the writer stamps
        // with (drive every process id through one full shard rotation),
        // a reader that began earlier must never validate the new value —
        // per-shard counts must not be confused across shards.
        for writer_proc in 0..(2 * CLOCK_SHARDS as u32) {
            let s = stm::<Snapshot>();
            // Warm several shards so counts are non-trivial and unequal.
            for p in 0..4u32 {
                run_transaction(&s, p, |tx| tx.write(Y, u64::from(p)));
            }
            let mut old = s.begin(100); // samples the rv vector now
            run_transaction(&s, writer_proc, |tx| tx.write(X, 777));
            assert!(
                old.read(X).is_err(),
                "reader began before writer (proc {writer_proc}, shard \
                 {}) committed, yet validated its write",
                writer_proc as usize & (CLOCK_SHARDS - 1)
            );
        }
    }

    #[test]
    fn stale_read_rejected_at_commit_across_every_shard() {
        // Same regression at commit-time validation: the reader's read
        // precedes the foreign commit; its own writing commit must abort.
        for writer_proc in 0..(CLOCK_SHARDS as u32) {
            let s = stm::<Snapshot>();
            let mut old = s.begin(100);
            assert_eq!(old.read(X).unwrap(), 0);
            run_transaction(&s, writer_proc, |tx| tx.write(X, 5));
            old.write(Y, 1).unwrap();
            assert!(
                old.try_commit().is_err(),
                "stale read validated at commit (writer proc {writer_proc})"
            );
        }
    }
}
