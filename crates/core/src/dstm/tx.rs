//! The transaction engine: acquisition, invisible reads, gated
//! validation, commit and abort.
//!
//! This follows the DSTM recipe the paper describes in Section 1:
//!
//! * **writes** acquire exclusive-but-revocable ownership by CAS-ing a new
//!   locator into the t-variable;
//! * **reads** are invisible: they resolve the current committed value and
//!   remember the locator's address in a private, append-only read-set —
//!   and write nothing shared at all: the entry *borrows* the t-variable
//!   under the transaction's guard instead of counting a reference to it.
//!   Resolving stops as early as the variable allows: at the t-variable
//!   while nobody has acquired it (`T_0`'s value is inline, address `0`),
//!   at the locator once its owner has stamped its verdict there, and at
//!   the owner's descriptor only while that stamp is unset;
//! * after every read and acquisition and at commit the transaction must
//!   still observe a consistent state ("the state of `y` is re-read to
//!   ensure that `T_i` still observes a consistent state"), which yields
//!   opacity, not just serializability — checked through the commit
//!   counter below, not by re-reading every time;
//! * encountering a **live owner** invokes the contention manager, which
//!   may back off but must eventually abort the owner (obstruction-
//!   freedom);
//! * **commit** is a single CAS on the own descriptor's status word; the
//!   winner then stamps `Committed` into every locator it installed, and
//!   an aborted owner stamps `Aborted` (see [`super::locator`]).
//!
//! Every acquisition unlinks the locator it replaces, and the unlink is
//! permanent whatever the verdict. The transaction logs each one in its
//! pooled `Scratch`; when it is done, the batch goes into its process's
//! one private bag in the instance's reclamation domain under one epoch
//! bump, and the front of the bag that no running transaction predates is
//! freed — no lock and no shared word beyond the epoch (see
//! [`crate::reclaim`]). A commit hands the batch to its table's commit
//! hook instead, together with the id blocks it retired: still one tag
//! and one scan. A peer that stays registered while its process is
//! off the CPU holds the bag up; a process that finds more than
//! [`BAG_BOUND`] items waiting pauses before its next transaction instead
//! of piling on.
//!
//! Nothing on a read path does bookkeeping nobody reads: the contention
//! manager is consulted only on a conflict with a live owner, and a
//! transaction that has installed nothing skips the check of its own
//! status word — no peer can reach its descriptor to abort it.
//!
//! ## The commit-counter gate
//!
//! A read-set entry's locator had a `Committed` or `Aborted` owner when it
//! was recorded (or there was none yet: `T_0`'s value, address `0`), so
//! its logical value changes only when an update transaction that swung
//! the pointer away *commits*. The instance counts
//! those commit points in one shared word
//! ([`crate::kernel::CommitGate`]). A transaction keeps the counter value
//! under which its read-set was last known valid; a check that finds the
//! counter there returns at once, and only a moved counter costs the scan
//! over the read-set (`ptr == recorded address` per entry), after which
//! the value loaded *before* the scan is kept. A read is therefore O(1)
//! while no update transaction commits and O(|read-set|) once per foreign
//! update commit, and a peer that merely acquires a variable we read (and
//! rolls back, or is still running) no longer aborts us.
//!
//! Why no stale combination gets through: an update transaction bumps the
//! counter after its last acquisition and before its status CAS. A reader
//! that obtains a value some transaction committed — directly, or copied
//! into a later locator's `old` — observed that `Committed` verdict with
//! Acquire, on the status word or on a stamp the committer stored after
//! winning it, so the bump (sequenced before the Release CAS) and every
//! pointer the committer swung are visible to it: the check after that
//! read finds the counter moved and the scan finds any entry the committer
//! overwrote. A reader that meets the writer still `Live` goes through the
//! contention manager as ever. Between update transactions the bumps
//! arbitrate: a committer validates *after* its own bump unless that bump
//! was the first since its last validation, so of two committers that each
//! read what the other acquired, the later bumper scans and aborts. Reads
//! stay invisible; what is given up is strict disjoint-access-parallelism
//! on this one word, which Theorem 13 shows an OFTM never had. The
//! `model_gate` suite in `oftm-verify` checks the argument exhaustively
//! and refutes the orderings that break it.

use super::descriptor::{Descriptor, TxState};
use super::locator::Locator;
use super::stm::Progress;
use super::tvar::TVarInner;
use super::word::DstmWord;
use crate::api::{TxError, TxResult, WordTx};
use crate::cm::Resolution;
use crate::contention::{spin_for, PARK_FLOOR};
use crate::reclaim::{
    Bag, Deferred, GraceTracker, Guard, Owned, Retired, RetiredBlock, Shared, BAG_BOUND,
};
use crate::record;
use crate::table::Pinned;
use oftm_histories::{Access, BaseObjId, TVarId, TxId, Value};
use oftm_obs::{pack_tx, AbortCause, Counter, VarAttr, TX_UNKNOWN};
use std::cell::Cell;
use std::mem::ManuallyDrop;
use std::sync::Arc;
use std::time::Duration;

/// One entry of the invisible read-set: the t-variable (borrowed; its
/// address is its identity) and the address of the locator the read
/// resolved. Validating it is one load of the variable's pointer cell.
struct ReadEntry {
    var: Pinned<TVarInner>,
    addr: usize,
}

impl ReadEntry {
    fn is_of(&self, var: &TVarInner) -> bool {
        std::ptr::eq(&*self.var, var)
    }
}

/// Pooled per-process buffers: popped at `begin` and handed back —
/// cleared, the same `Box` — when the transaction drops. `installed` is
/// every locator this transaction CASed in (borrowed under its guard like
/// the read-set): what it stamps its verdict into. `written` is every
/// t-variable a write named: what a successful commit publishes to the
/// commit notifier. `unlinked` is every locator its acquisitions
/// unlinked, retired when it is done into `bag`, the process's one
/// private pile in the instance's domain (also of the id blocks its
/// commits retire and their states).
pub(super) struct Scratch {
    read_set: Vec<ReadEntry>,
    installed: Vec<Pinned<Locator>>,
    written: Vec<TVarId>,
    unlinked: Vec<Retired<Deferred>>,
    pub(super) bag: Bag,
    domain: Arc<GraceTracker>,
}

impl Scratch {
    fn new(domain: &Arc<GraceTracker>) -> Self {
        Scratch {
            read_set: Vec::new(),
            installed: Vec::new(),
            written: Vec::new(),
            unlinked: Vec::new(),
            bag: Bag::default(),
            domain: Arc::clone(domain),
        }
    }

    /// The pile bound: with more than [`BAG_BOUND`] items unripe — a
    /// peer registered before they were retired is still running, most
    /// likely off the CPU — gives the CPU away for the async park floor
    /// and reclaims again. What is still unripe beyond the bound then goes
    /// to the domain's shared bins: the bag never holds more than the
    /// bound plus one transaction's retirements, and every transaction
    /// pauses until the peer moves on. Runs before the transaction
    /// registers: the pause holds nothing up.
    fn pause_if_piled(&mut self) {
        if self.bag.len() > BAG_BOUND {
            std::thread::sleep(PARK_FLOOR);
            self.retire_and_reclaim();
            self.domain.defer_bag(&mut self.bag, BAG_BOUND);
        }
    }

    /// Retires what the finished transaction unlinked, once its guard is
    /// gone, and frees the front of the bag that no registered transaction
    /// predates. A ripe id block, a commit's, is the table's to evict: it
    /// goes back in under a later tag, for the next commit.
    fn retire_and_reclaim(&mut self) {
        self.domain.retire(&mut self.bag, self.unlinked.drain(..));
        let ripe = self.domain.reclaim(&mut self.bag);
        let ripe = ripe.into_iter().map(Retired::Block);
        self.domain.retire(&mut self.bag, ripe);
    }
}

/// A scratch displaced from the pool, or dropped with it, hands what it
/// still holds to the domain's shared bins: a later tag is always safe.
impl Drop for Scratch {
    fn drop(&mut self) {
        self.domain.retire(&mut self.bag, self.unlinked.drain(..));
        self.domain.defer_bag(&mut self.bag, 0);
    }
}

/// A live transaction of a [`DstmWord`]: the engine's one transaction,
/// and the handle [`crate::api::WordStm::begin`] returns.
///
/// A transaction is executed by a single process, as in the paper's
/// model. Holds one guard of the instance's domain for its whole lifetime
/// so that read-set locator addresses cannot be reclaimed-and-reused (no
/// ABA) and the t-variables the read-set borrows stay allocated. Its
/// footprint is what it logs anyway — the read-set and `written` — plus
/// the variable a read aborted on before it reached the read-set, so the
/// async runtime parks on everything the attempt tried to access.
pub(super) struct Tx<'s> {
    word: &'s DstmWord,
    desc: Arc<Descriptor>,
    /// Emptied only by a successful commit, which hands it to the table's
    /// commit hook; nothing is read after that.
    guard: Option<Guard<'s>>,
    /// Taken out (and given back to the pool) by `Drop` only.
    scratch: ManuallyDrop<Box<Scratch>>,
    /// Commit-counter value under which the whole read-set was last known
    /// valid (module docs).
    seen: u64,
    /// Read-set scans run so far (what the gate exists to avoid).
    full_scans: Cell<u32>,
    finished: bool,
    /// Whether an abort cause has been recorded for this attempt. Each
    /// aborted attempt contributes exactly one cause to the telemetry; the
    /// first site that discovers the attempt dead tags it.
    cause_tagged: Cell<bool>,
    /// Declared read-only: writes and retires panic (caller bug), and the
    /// commit takes the CAS-free read-only completion unconditionally.
    ro: bool,
    /// Id blocks to retire if the commit succeeds; dropped on abort.
    retired: Vec<RetiredBlock>,
    /// The variable an operation aborted on: not necessarily in either
    /// log, but part of the footprint a parked re-run must wake on.
    conflict_hint: Option<TVarId>,
}

/// What [`Tx::open`] found in a t-variable.
enum Opened<'g> {
    /// Our own locator.
    Mine(&'g Locator),
    /// A locator whose owner is settled, and the value it resolves to;
    /// null, and `T_0`'s value, while nobody has acquired the variable.
    Settled(Shared<'g, Locator>, &'g Value),
}

impl<'s> Tx<'s> {
    pub(super) fn new(word: &'s DstmWord, id: TxId, ro: bool) -> Self {
        let desc = Arc::new(Descriptor::new(id));
        // Reuse pooled buffers: steady-state transactions validate tens of
        // entries and must not re-grow a fresh `Vec` every attempt.
        let domain = word.vars.domain();
        let mut scratch = word
            .scratch
            .take(id.proc as usize)
            .unwrap_or_else(|| Box::new(Scratch::new(domain)));
        scratch.pause_if_piled();
        let tx = Tx {
            word,
            desc,
            guard: Some(domain.begin()),
            scratch: ManuallyDrop::new(scratch),
            seen: word.gate.sample(),
            full_scans: Cell::new(0),
            finished: false,
            cause_tagged: Cell::new(false),
            ro,
            retired: Vec::new(),
            conflict_hint: None,
        };
        tx.step(word.commit_counter_base(), Access::Read);
        tx
    }

    /// Records a step of this transaction on `obj` (instrumented runs).
    fn step(&self, obj: BaseObjId, access: Access) {
        record::step(self.word.cfg.recorder.as_deref(), self.id(), obj, access);
    }

    /// This transaction's packed forensic identity ([`pack_tx`]).
    fn packed_id(&self) -> u64 {
        let id = self.desc.id();
        pack_tx(id.proc, id.seq)
    }

    /// The guard its table lookups and locator loads are made under.
    fn guard(&self) -> &Guard<'s> {
        self.guard.as_ref().expect("guard held until release")
    }

    /// Looks `x` up for the operation at hand.
    fn var(&self, x: TVarId) -> Pinned<TVarInner> {
        let var = self.word.vars.get_ref_or_panic_in(x, self.guard());
        // SAFETY: loaded under the transaction's guard, of the domain the
        // table retires into, and dereferenced by the calling operation
        // only — which cannot borrow it from `self` and mutate that.
        unsafe { Pinned::new(var) }
    }

    /// Records the abort cause of this attempt, first tag wins. `var`
    /// attributes the t-variable the conflict was over and `aggressor`
    /// names the peer that won it ([`TX_UNKNOWN`] when no peer is
    /// identifiable), feeding the who-aborted-whom forensics table.
    fn tag_abort(&self, cause: AbortCause, var: VarAttr, aggressor: u64) {
        if !self.cause_tagged.replace(true) {
            self.word
                .cfg
                .stats
                .abort_at(cause, var, self.packed_id(), aggressor);
        }
    }

    /// Checks our own fate: a forcefully aborted transaction must stop.
    /// Discovering the abort here means a peer killed us through the
    /// contention manager — the only writer of a foreign status word.
    fn check_self(&self) -> TxResult<()> {
        if self.desc.status() == TxState::Live {
            Ok(())
        } else {
            let (killer, kvar) = self.desc.killer();
            self.tag_abort(AbortCause::CmArbitrated, VarAttr::opt(kvar), killer);
            Err(TxError::Aborted)
        }
    }

    /// Scans the entire read-set. Returns the first invalidated entry's
    /// t-variable and the transaction whose acquisition replaced the
    /// locator we read (the conflict attribution of a `ReadValidation`
    /// abort), or `None` when consistent. `counter` is the gate's access
    /// (load or bump) that asked for the scan: its step is recorded first.
    fn first_invalid(&self, counter: Access) -> Option<(TVarId, u64)> {
        self.step(self.word.commit_counter_base(), counter);
        self.full_scans.set(self.full_scans.get() + 1);
        self.scratch
            .read_set
            .iter()
            .find(|e| {
                let moved = e.var.current(self.guard()) != e.addr;
                self.step(e.var.base, Access::Read);
                moved
            })
            .map(|e| (e.var.id, self.aggressor_over(&e.var)))
    }

    /// Who holds `var` now, as a forensic aggressor id: the same meaning
    /// TL/TL2's commit-lock writer stamp has. [`TX_UNKNOWN`] while `T_0`'s
    /// value is current and for our own locator. Kept out of line: abort
    /// path only.
    #[cold]
    #[inline(never)]
    fn aggressor_over(&self, var: &TVarInner) -> u64 {
        match var.current_owner(self.guard()) {
            Some(id) if id != self.desc.id() => pack_tx(id.proc, id.seq),
            _ => TX_UNKNOWN,
        }
    }

    /// The gate check (module docs): free while no update transaction
    /// reached its commit point since the read-set was last known valid.
    fn validate_or_abort(&mut self) -> TxResult<()> {
        let gate = &self.word.gate;
        match gate.check(self.seen, || self.first_invalid(Access::Read)) {
            Ok(now) => {
                if now == self.seen {
                    // No scan recorded the counter load's step.
                    self.step(self.word.commit_counter_base(), Access::Read);
                }
                self.seen = now;
                Ok(())
            }
            Err(invalid) => self.fail_validation(invalid),
        }
    }

    fn fail_validation(&mut self, (x, aggressor): (TVarId, u64)) -> TxResult<()> {
        self.abort_self(AbortCause::ReadValidation, VarAttr::Var(x.0), aggressor);
        Err(TxError::Aborted)
    }

    /// Marks ourselves aborted. `cause`, `var` and `aggressor` attribute
    /// the abort when the status CAS is ours to win; losing it means a
    /// peer got there first, which re-attributes the attempt to
    /// contention-manager arbitration by whoever the killer stamp names.
    /// Either way the abort is settled, and stamped.
    fn abort_self(&mut self, cause: AbortCause, var: VarAttr, aggressor: u64) {
        let won = self.desc.try_abort();
        let access = if won { Access::Modify } else { Access::Read };
        self.step(self.desc.base(), access);
        if won {
            self.tag_abort(cause, var, aggressor);
        } else {
            let (killer, kvar) = self.desc.killer();
            self.tag_abort(AbortCause::CmArbitrated, VarAttr::opt(kvar), killer);
        }
        self.stamp_installed(TxState::Aborted);
        self.word.cfg.cm.on_abort(&self.desc);
        self.finished = true;
    }

    /// Stamps our settled `verdict` into every locator we installed
    /// ([`Locator::stamp`]), so that readers stop taking it from our
    /// descriptor. Under our guard: none of them can have been freed.
    fn stamp_installed(&self, verdict: TxState) {
        for loc in &self.scratch.installed {
            loc.stamp(verdict);
            self.step(loc.base, Access::Modify);
        }
    }

    /// Resolves a conflict over t-variable `var` with the live foreign
    /// `owner` per the contention manager and the progress policy. Returns
    /// when the owner is no longer live (aborted by us or completed by
    /// itself) or asks the caller to re-examine the variable.
    fn resolve_conflict(&self, owner: &Arc<Descriptor>, var: TVarId, attempt: &mut u32) {
        match self.word.cfg.cm.resolve(&self.desc, owner, *attempt) {
            Resolution::AbortOther => {
                // The eventual-ic variant (Definition 4) refuses to kill an
                // owner before its grace period elapsed, obstructing the
                // caller for a bounded time instead.
                if let Progress::EventualGrace(grace) = self.word.cfg.progress {
                    let now = self.word.cfg.now_nanos();
                    let first = owner.note_conflict(now);
                    if now.saturating_sub(first) < grace.as_nanos() as u64 {
                        spin_for(Duration::from_micros(5));
                        *attempt = attempt.saturating_add(1);
                        return;
                    }
                }
                // Leave the forensic who-aborted-whom stamp before the
                // abort CAS: a victim that sees itself Aborted can then
                // name us and the variable we fought over exactly.
                owner.stamp_killer(self.packed_id(), var.0);
                let killed = owner.try_abort();
                self.step(
                    owner.base(),
                    if killed { Access::Modify } else { Access::Read },
                );
            }
            Resolution::Wait => *attempt = attempt.saturating_add(1),
        }
    }

    /// Opens `v`: loads its locator, settling any conflict with a live
    /// foreign owner through the contention manager first (paper: "T_i
    /// just needs to make sure that no other transaction T_k is currently
    /// updating y; if not, then T_i may have to eventually abort T_k").
    fn open<'g>(&'g self, v: &'g TVarInner, attempt: &mut u32) -> TxResult<Opened<'g>> {
        loop {
            // Having installed nothing, we are unreachable: no peer can
            // have aborted us.
            if !self.scratch.installed.is_empty() {
                self.check_self()?;
            }
            let shared = v.load(self.guard());
            self.step(v.base, Access::Read);
            if shared.is_null() {
                return Ok(Opened::Settled(shared, v.initial()));
            }
            // SAFETY: non-null and loaded under our guard; locators are
            // retired into its domain only after unlinking.
            let loc = unsafe { shared.deref() };
            if loc.owned_by(&self.desc) {
                return Ok(Opened::Mine(loc));
            }
            match loc.resolve_via(|obj| self.step(obj, Access::Read)) {
                Ok(val) => return Ok(Opened::Settled(shared, val)),
                Err(owner) => self.resolve_conflict(owner, v.id, attempt),
            }
        }
    }

    /// Reads t-variable `v` within the transaction. `v` must not be
    /// retired yet: the caller loaded it from the table after this
    /// transaction began.
    fn read_var(&mut self, v: &TVarInner) -> TxResult<Value> {
        let (addr, val) = match self.open(v, &mut 0)? {
            Opened::Mine(loc) => {
                // SAFETY: we are the owner and live (`open` checked).
                let val = unsafe { *loc.tentative_value() };
                self.step(loc.base, Access::Read);
                return Ok(val);
            }
            Opened::Settled(shared, val) => (shared.as_raw() as usize, *val),
        };
        // Append-only: duplicates are harmless (`write` upgrades every
        // entry of the variable). Only a loop re-reading one variable is
        // kept from growing the set.
        let read_set = &mut self.scratch.read_set;
        if !read_set
            .last()
            .is_some_and(|e| e.is_of(v) && e.addr == addr)
        {
            // SAFETY: `v` is not retired yet (this function's contract) and
            // retirement is `defer_destroy` into our domain, so
            // `self.guard`, registered at `begin`, keeps it allocated until
            // it is released; the read-set is emptied before that
            // (`try_commit`, `Drop`).
            let var = unsafe { Pinned::new(v) };
            read_set.push(ReadEntry { var, addr });
        }
        self.validate_or_abort()?;
        Ok(val)
    }

    /// Writes `value` to t-variable `v` within the transaction, acquiring
    /// ownership if not already held; same contract as [`Tx::read_var`]
    /// (no entry is kept, so only for the call).
    fn write_var(&mut self, v: &TVarInner, value: Value) -> TxResult<()> {
        let mut attempt = 0u32;
        loop {
            let (shared, old_val) = match self.open(v, &mut attempt)? {
                Opened::Mine(loc) => {
                    // Already own it: update the tentative value in place.
                    // SAFETY: we are the live owner; no outstanding references
                    // to the tentative value exist (reads clone it out).
                    unsafe { loc.set_tentative(value) };
                    self.step(loc.base, Access::Modify);
                    return Ok(());
                }
                Opened::Settled(shared, val) => (shared, *val),
            };

            // If we read this variable earlier, the value we saw must still
            // be the one we are about to supersede — otherwise our snapshot
            // is stale. Every entry for the variable must agree.
            let addr = shared.as_raw() as usize;
            let mut entries = self.scratch.read_set.iter();
            if entries.any(|e| e.is_of(v) && e.addr != addr) {
                return self.fail_validation((v.id, self.aggressor_over(v)));
            }

            let new_loc = Owned::new(Locator::new(Arc::clone(&self.desc), old_val, value));
            // Failure: someone interposed; re-examine. (The rejected
            // locator is dropped here, unpublished.)
            let Ok((installed, unlinked)) = v.cas(shared, new_loc) else {
                self.step(v.base, Access::Read);
                continue;
            };
            let new_addr = installed.as_raw() as usize;
            // SAFETY: installed under our guard, and retired — once a later
            // acquisition unlinks it — into our domain, so it stays
            // allocated until the guard goes; the log is emptied before
            // that (`try_commit`, `Drop`).
            let installed = unsafe { Pinned::new(installed.deref()) };
            self.step(v.base, Access::Modify);
            self.scratch.installed.push(installed);
            // Retired when we are done, whatever the verdict: the unlink
            // stands.
            self.scratch.unlinked.extend(unlinked.map(Retired::Memory));
            // Upgrade every read entry of this variable: ownership now
            // protects it.
            let entries = self.scratch.read_set.iter_mut();
            for entry in entries.filter(|e| e.is_of(v)) {
                entry.addr = new_addr;
            }
            return self.validate_or_abort();
        }
    }

    /// `tryC`: validates and attempts the commit CAS, in place: the
    /// commit still needs the write log in `scratch` once the verdict is
    /// in.
    fn complete(&mut self) -> TxResult<()> {
        // Settled on every path below: killed already, failed validation
        // (`abort_self`), or through the status CAS.
        self.finished = true;
        if let Err(killed) = self.check_self() {
            self.stamp_installed(TxState::Aborted);
            return Err(killed);
        }
        if self.scratch.installed.is_empty() {
            // Nothing acquired: no pointer swung, so no bump.
            self.validate_or_abort()?;
        } else {
            let mut scanned = false;
            let point = self.word.gate.commit_point(self.seen, || {
                scanned = true;
                self.first_invalid(Access::Modify)
            });
            if !scanned {
                self.step(self.word.commit_counter_base(), Access::Modify);
            }
            if let Err(invalid) = point {
                return self.fail_validation(invalid);
            }
        }
        let won = self.desc.try_commit();
        self.step(
            self.desc.base(),
            if won { Access::Modify } else { Access::Read },
        );
        // Lost: a peer's abort CAS got there first, so that is settled too.
        self.stamp_installed(if won {
            TxState::Committed
        } else {
            TxState::Aborted
        });
        if won {
            self.word.cfg.stats.incr(Counter::Commits);
            self.word.cfg.cm.on_commit(&self.desc);
            Ok(())
        } else {
            // Lost the commit-point CAS on our own status word: a peer's
            // `try_abort` raced us between validation and the CAS; its
            // killer stamp names it and the fought-over variable.
            let (killer, kvar) = self.desc.killer();
            self.tag_abort(AbortCause::CasLost, VarAttr::opt(kvar), killer);
            self.word.cfg.cm.on_abort(&self.desc);
            Err(TxError::Aborted)
        }
    }

    /// Read-only `tryC`: validates the read-set and completes without the
    /// commit CAS, counted under `commit_counter` — a transaction that
    /// *declared* update intent but wrote nothing lands here as
    /// [`Counter::CommitsPromoted`].
    ///
    /// Sound only for a transaction that acquired nothing: reads are
    /// invisible and install no locators, so no peer ever holds a
    /// reference to this descriptor, never consults its status word, and
    /// never races `try_abort` against us — the status CAS would publish
    /// nothing and can be elided. The final validation is still the
    /// linearization point (everything read was simultaneously current at
    /// that instant).
    fn complete_read_only(&mut self, commit_counter: Counter) -> TxResult<()> {
        assert!(
            self.scratch.installed.is_empty(),
            "commit_read_only on a transaction that acquired variables"
        );
        // Settled on every path below: failed validation (`abort_self`) or
        // committed. Having installed nothing, we cannot have been killed.
        self.finished = true;
        // No critical section to time: nothing is published, and once
        // gated the whole completion is one load.
        self.validate_or_abort()?;
        self.word.cfg.stats.incr(commit_counter);
        self.word.cfg.cm.on_commit(&self.desc);
        Ok(())
    }

    /// Number of read-set scans this transaction has run.
    #[cfg(test)]
    fn full_scans(&self) -> u32 {
        self.full_scans.get()
    }
}

impl WordTx for Tx<'_> {
    fn id(&self) -> TxId {
        self.desc.id()
    }

    fn read(&mut self, x: TVarId) -> TxResult<Value> {
        let var = self.var(x);
        let r = self.read_var(&var);
        if r.is_err() {
            self.conflict_hint = Some(x);
        }
        r
    }

    fn write(&mut self, x: TVarId, v: Value) -> TxResult<()> {
        assert!(!self.ro, "dstm: write on a declared read-only transaction");
        let var = self.var(x);
        self.scratch.written.push(x);
        self.write_var(&var, v)
    }

    fn try_commit(mut self: Box<Self>) -> TxResult<()> {
        // Detect-on-commit promotion: a transaction that wrote nothing
        // installed no locators, so its descriptor is unreachable from
        // every t-variable and the status CAS publishes nothing — take
        // the validate-only read-only completion. Declared read-only
        // transactions (`begin_ro`) land here by construction.
        let r = if self.ro {
            self.complete_read_only(Counter::CommitsRo)
        } else if self.scratch.written.is_empty() {
            self.complete_read_only(Counter::CommitsPromoted)
        } else {
            self.complete()
        };
        if r.is_ok() {
            let word = self.word;
            // The commit's status CAS made the new values current: wake
            // transactions parked on what we wrote.
            let written = &self.scratch.written;
            if !written.is_empty() {
                word.notify.publish(written.iter().copied());
            }
            // Hand the guard to the table's commit hook with what we
            // unlinked and the blocks we retired as one batch — one tag,
            // one slot scan — and evict every block whose grace period has
            // elapsed. The logs' borrows die first; `Drop` has nothing
            // left to retire.
            let guard = self.guard.take().expect("released once");
            let retired = std::mem::take(&mut self.retired);
            let scratch = &mut **self.scratch;
            scratch.read_set.clear();
            scratch.installed.clear();
            let unlinked = &mut scratch.unlinked;
            unlinked.extend(retired.into_iter().map(Retired::Block));
            let evicted = word
                .vars
                .retire_and_evict(guard, &mut scratch.bag, unlinked.drain(..));
            word.count_tvars(Counter::TvarsFreed, evicted);
        }
        r
    }

    /// `tryA`: abandoning a still-viable attempt is an explicit retry in
    /// the abort taxonomy.
    fn try_abort(mut self: Box<Self>) {
        self.abort_self(AbortCause::ExplicitRetry, VarAttr::NoVar, TX_UNKNOWN);
    }

    fn retire_tvar_block(&mut self, base: TVarId, len: usize) {
        assert!(!self.ro, "dstm: retire on a declared read-only transaction");
        self.retired.push(RetiredBlock { base, len });
    }

    fn footprint(&self, out: &mut Vec<TVarId>) {
        out.extend(self.scratch.read_set.iter().map(|e| e.var.id));
        out.extend_from_slice(&self.scratch.written);
        out.extend(self.conflict_hint);
    }
}

impl Drop for Tx<'_> {
    fn drop(&mut self) {
        // A transaction dropped without commit/rollback (e.g. on panic or
        // early return) must not stay live: its ownerships would make peers
        // abort it anyway, but marking it aborted immediately is cleaner.
        if !self.finished {
            self.abort_self(AbortCause::ExplicitRetry, VarAttr::NoVar, TX_UNKNOWN);
        }
        // Hand the buffers back, capacity kept — emptied while our guard
        // still protects what the logs borrowed, then retiring what we
        // unlinked once it is gone (unless the commit hook took the guard,
        // and the retirement with it).
        // SAFETY: `drop` runs once and nothing reads the field after it.
        let mut scratch = unsafe { ManuallyDrop::take(&mut self.scratch) };
        scratch.read_set.clear();
        scratch.installed.clear();
        scratch.written.clear();
        if let Some(guard) = self.guard.take() {
            drop(guard);
            scratch.retire_and_reclaim();
        }
        let proc = self.desc.id().proc;
        self.word.scratch.put(proc as usize, scratch);
    }
}

#[cfg(test)]
mod tests {
    //! The engine's behaviours, driven through the transaction before the
    //! recorder's wrapper, so a test can look at the engine's logs.
    use super::*;
    use crate::api::{run_transaction, WordStm};
    use crate::cm::Aggressive;
    use crate::dstm::Dstm;
    use std::sync::Weak;
    use std::time::Instant;

    fn stm() -> DstmWord {
        DstmWord::new(Dstm::new(Arc::new(Aggressive)))
    }

    /// A transaction of process `p`.
    fn begin(s: &DstmWord, p: u32) -> Box<Tx<'_>> {
        s.begin_tx(p, false)
    }

    /// Read-set entries of `t`.
    fn reads(t: &Tx<'_>) -> usize {
        t.scratch.read_set.len()
    }

    /// Locators `t` installed.
    fn writes(t: &Tx<'_>) -> usize {
        t.scratch.installed.len()
    }

    #[test]
    fn read_initial_value() {
        let s = stm();
        let x = s.alloc_tvar(5);
        let mut tx = begin(&s, 1);
        assert_eq!(tx.read(x).unwrap(), 5);
        tx.try_commit().unwrap();
    }

    #[test]
    fn write_then_read_own() {
        let s = stm();
        let x = s.alloc_tvar(5);
        let mut tx = begin(&s, 1);
        tx.write(x, 9).unwrap();
        assert_eq!(tx.read(x).unwrap(), 9);
        tx.try_commit().unwrap();
        assert_eq!(s.peek(x), Some(9));
    }

    #[test]
    fn rollback_discards_writes() {
        let s = stm();
        let x = s.alloc_tvar(5);
        let tx = {
            let mut tx = begin(&s, 1);
            tx.write(x, 9).unwrap();
            tx
        };
        tx.try_abort();
        assert_eq!(s.peek(x), Some(5));
    }

    #[test]
    fn drop_without_commit_aborts() {
        let s = stm();
        let x = s.alloc_tvar(5);
        {
            let mut tx = begin(&s, 1);
            tx.write(x, 9).unwrap();
            // dropped here
        }
        assert_eq!(s.peek(x), Some(5));
    }

    #[test]
    fn forceful_abort_stops_victim() {
        let s = stm();
        let x = s.alloc_tvar(5);
        let mut t1 = begin(&s, 1);
        t1.write(x, 6).unwrap();
        // T2 (aggressive CM) steals the variable, aborting T1.
        let mut t2 = begin(&s, 2);
        t2.write(x, 7).unwrap();
        t2.try_commit().unwrap();
        // T1 is dead: all further operations observe the abort.
        assert_eq!(t1.read(x), Err(TxError::Aborted));
        assert_eq!(t1.try_commit(), Err(TxError::Aborted));
        assert_eq!(s.peek(x), Some(7));
    }

    #[test]
    fn stale_read_detected_at_commit() {
        let s = stm();
        let x = s.alloc_tvar(0);
        let mut t1 = begin(&s, 1);
        assert_eq!(t1.read(x).unwrap(), 0);
        // T2 commits a change to x behind T1's back.
        let mut t2 = begin(&s, 2);
        t2.write(x, 1).unwrap();
        t2.try_commit().unwrap();
        // T1's commit must fail validation.
        assert_eq!(t1.try_commit(), Err(TxError::Aborted));
    }

    #[test]
    fn stale_read_detected_on_next_access() {
        let s = stm();
        let (x, y) = (s.alloc_tvar(0), s.alloc_tvar(0));
        let mut t1 = begin(&s, 1);
        assert_eq!(t1.read(x).unwrap(), 0);
        let mut t2 = begin(&s, 2);
        t2.write(x, 1).unwrap();
        t2.try_commit().unwrap();
        // Opacity: the very next operation of T1 must abort, it may not see
        // y in a state inconsistent with its earlier read of x.
        assert_eq!(t1.read(y), Err(TxError::Aborted));
    }

    #[test]
    fn double_read_then_write_commits() {
        // Regression: reading a variable twice used to leave a duplicate
        // read-set entry behind; a subsequent write upgraded only one,
        // and the stale duplicate failed every later validation — an
        // unconditional self-abort loop even single-threaded.
        let s = stm();
        let x = s.alloc_tvar(3);
        let mut tx = begin(&s, 1);
        assert_eq!(tx.read(x).unwrap(), 3);
        assert_eq!(tx.read(x).unwrap(), 3);
        tx.write(x, 4).unwrap();
        assert_eq!(tx.read(x).unwrap(), 4);
        tx.try_commit().unwrap();
        assert_eq!(s.peek(x), Some(4));
    }

    #[test]
    fn read_write_upgrade_same_tx() {
        let s = stm();
        let x = s.alloc_tvar(3);
        let mut tx = begin(&s, 1);
        let v = tx.read(x).unwrap();
        tx.write(x, v + 1).unwrap();
        assert_eq!(tx.read(x).unwrap(), 4);
        tx.try_commit().unwrap();
        assert_eq!(s.peek(x), Some(4));
    }

    #[test]
    fn upgrade_fails_if_var_changed_since_read() {
        let s = stm();
        let x = s.alloc_tvar(0);
        let mut t1 = begin(&s, 1);
        let _ = t1.read(x).unwrap();
        let mut t2 = begin(&s, 2);
        t2.write(x, 5).unwrap();
        t2.try_commit().unwrap();
        // T1 now upgrades its read to a write: must abort (snapshot stale).
        assert_eq!(t1.write(x, 1), Err(TxError::Aborted));
    }

    #[test]
    fn aborted_owner_value_resolves_to_old() {
        let s = stm();
        let x = s.alloc_tvar(5);
        let mut t1 = begin(&s, 1);
        t1.write(x, 100).unwrap();
        t1.try_abort();
        let mut t2 = begin(&s, 2);
        assert_eq!(t2.read(x).unwrap(), 5);
        t2.try_commit().unwrap();
    }

    #[test]
    fn read_only_commit_detects_stale_read() {
        let s = stm();
        let x = s.alloc_tvar(0);
        let mut t1 = s.begin_tx(1, true);
        assert_eq!(t1.read(x).unwrap(), 0);
        let mut t2 = begin(&s, 2);
        t2.write(x, 1).unwrap();
        t2.try_commit().unwrap();
        assert_eq!(t1.try_commit(), Err(TxError::Aborted));
    }

    #[test]
    fn read_only_commit_succeeds_without_interference() {
        let s = stm();
        let x = s.alloc_tvar(7);
        let mut t1 = s.begin_tx(1, true);
        assert_eq!(t1.read(x).unwrap(), 7);
        t1.try_commit().unwrap();
    }

    #[test]
    fn peer_acquire_then_rollback_does_not_abort_reader() {
        // Only a commit changes a logical value: a peer that acquires what
        // we read and rolls back moved the pointer, not the counter.
        let s = stm();
        let (x, y) = (s.alloc_tvar(0), s.alloc_tvar(0));
        let mut t1 = begin(&s, 1);
        assert_eq!(t1.read(x).unwrap(), 0);
        let mut t2 = begin(&s, 2);
        t2.write(x, 1).unwrap();
        t2.try_abort();
        assert_eq!(t1.read(y).unwrap(), 0);
        t1.try_commit().unwrap();
    }

    #[test]
    fn full_scans_follow_foreign_update_commits_only() {
        enum Foreign {
            Nothing,
            UpdateCommit,
            ReadOnlyCommit,
        }
        for (foreign, scans) in [
            (Foreign::Nothing, 0),
            (Foreign::UpdateCommit, 1),
            (Foreign::ReadOnlyCommit, 0),
        ] {
            let s = stm();
            let vars: Vec<TVarId> = (0..64).map(|i| s.alloc_tvar(i)).collect();
            let other = s.alloc_tvar(0);
            let mut t1 = s.begin_tx(1, true);
            for (i, &v) in vars.iter().enumerate() {
                if i == 32 {
                    match foreign {
                        Foreign::Nothing => begin(&s, 2).try_abort(),
                        Foreign::UpdateCommit => {
                            let mut t2 = begin(&s, 2);
                            t2.write(other, 1).unwrap();
                            t2.try_commit().unwrap();
                        }
                        Foreign::ReadOnlyCommit => {
                            let mut t2 = s.begin_tx(2, true);
                            t2.read(other).unwrap();
                            t2.try_commit().unwrap();
                        }
                    }
                }
                assert_eq!(t1.read(v).unwrap(), i as u64);
            }
            assert_eq!(reads(&t1), 64);
            let counted = t1.full_scans();
            t1.try_commit().unwrap();
            assert_eq!(counted, scans);
        }
    }

    #[test]
    fn first_acquisition_invalidates_a_t0_read() {
        let s = stm();
        let (x, y, other) = (s.alloc_tvar(0), s.alloc_tvar(0), s.alloc_tvar(0));
        // A read of a never-written variable records address 0, and an
        // unrelated commit leaves it valid: null stays null until acquired.
        let mut t1 = begin(&s, 1);
        assert_eq!(t1.read(x).unwrap(), 0);
        let mut t2 = begin(&s, 2);
        t2.write(other, 1).unwrap();
        t2.try_commit().unwrap();
        assert_eq!(t1.read(y).unwrap(), 0);
        assert_eq!(t1.full_scans(), 1);
        // The first acquisition swings x away from null for good.
        let mut t3 = begin(&s, 3);
        t3.write(x, 1).unwrap();
        t3.try_commit().unwrap();
        assert_eq!(t1.read(y), Err(TxError::Aborted));
        assert_eq!(s.peek(x), Some(1));
    }

    /// Resolves `x`'s current locator as a reader would: the value, and
    /// whether that took a load of the owner's status word.
    fn resolve_current(s: &DstmWord, x: TVarId) -> (Value, bool) {
        let guard = s.vars.domain().begin();
        let var = s.vars.get_ref_in(x, &guard).expect("registered");
        let loc = var.load(&guard);
        assert!(!loc.is_null(), "x was acquired");
        // SAFETY: non-null, loaded under `guard` of x's domain.
        let loc = unsafe { loc.deref() };
        let mut asked = false;
        let v = *loc
            .resolve_via(|obj| asked |= obj == loc.owner.base())
            .expect("settled owner");
        (v, asked)
    }

    #[test]
    fn a_killed_owners_locators_resolve_through_its_descriptor() {
        let s = stm();
        let x = s.alloc_tvar(5);
        let mut victim = begin(&s, 1);
        victim.write(x, 6).unwrap();
        // The aggressor's read kills the live owner through the manager.
        let mut killer = begin(&s, 2);
        assert_eq!(killer.read(x).unwrap(), 5);
        killer.try_commit().unwrap();
        // Killed, but its verdict is stamped only once the victim settles
        // it: until then readers still go to its descriptor.
        assert_eq!(resolve_current(&s, x), (5, true));
        assert_eq!(victim.read(x), Err(TxError::Aborted));
        assert_eq!(resolve_current(&s, x), (5, true));
        assert_eq!(victim.try_commit(), Err(TxError::Aborted));
        assert_eq!(resolve_current(&s, x), (5, false));
    }

    #[test]
    fn a_committed_owner_stamps_every_locator_it_installed() {
        let s = stm();
        let (x, y) = (s.alloc_tvar(1), s.alloc_tvar(2));
        let mut tx = begin(&s, 1);
        tx.write(x, 10).unwrap();
        tx.write(y, 20).unwrap();
        tx.write(x, 11).unwrap(); // same locator, updated in place
        assert_eq!(writes(&tx), 2);
        tx.try_commit().unwrap();
        assert_eq!(resolve_current(&s, x), (11, false));
        assert_eq!(resolve_current(&s, y), (20, false));
    }

    /// Figure 2's `T1` replayed under the recorder's step gate, one step at
    /// a time: parked, it has modified exactly what its recorded steps say
    /// (counter, pointer cells, status word, stamps) — steps follow access.
    #[test]
    fn a_gated_solo_transaction_has_done_exactly_what_it_recorded() {
        use crate::record::Recorder;
        use oftm_histories::{BaseObjId, Event, ProcId};
        let rec = Arc::new(Recorder::new());
        let s = Arc::new(DstmWord::new(
            Dstm::new(Arc::new(Aggressive)).with_recorder(Arc::clone(&rec)),
        ));
        let vars: Vec<TVarId> = (0..4).map(|_| s.alloc_tvar(0)).collect();
        let p = ProcId(1);
        rec.gate(p);
        let (s2, rec2, v) = (Arc::clone(&s), Arc::clone(&rec), vars.clone());
        let thread = std::thread::spawn(move || {
            let mut tx = begin(&s2, p.0);
            tx.read(v[0]).unwrap();
            tx.read(v[1]).unwrap();
            tx.write(v[2], 1).unwrap();
            tx.write(v[3], 1).unwrap();
            tx.try_commit().unwrap();
            rec2.finish(p);
        });
        let mut steps = 0;
        while rec.allow(p, 1) {
            steps += 1;
            let h = rec.snapshot();
            let modify = |e: &Event, at| matches!(*e, Event::Step { obj, access: Access::Modify, .. } if obj == at);
            let modified = |at: BaseObjId| h.iter().any(|e| modify(&e.event, at));
            let bumped = u64::from(modified(s.commit_counter_base()));
            assert_eq!(s.gate.sample(), bumped, "counter after step {steps}");
            let guard = s.vars.domain().begin();
            for (i, &x) in vars.iter().enumerate() {
                let var = s.vars.get_ref_in(x, &guard).expect("registered");
                let loc = var.load(&guard);
                let cell = modified(var.base);
                assert_eq!(!loc.is_null(), cell, "cell {i} after step {steps}");
                // SAFETY: non-null, loaded under `guard` of the domain
                // the locator retires into.
                let Some(loc) = (!loc.is_null()).then(|| unsafe { loc.deref() }) else {
                    continue;
                };
                let mut stamped = true;
                let _ = loc.resolve_via(|obj| stamped &= obj != loc.owner.base());
                let settled = (loc.owner.status() == TxState::Committed, stamped);
                let recorded = (modified(loc.owner.base()), modified(loc.base));
                assert_eq!(settled, recorded, "status, stamp {i} after step {steps}");
            }
        }
        thread.join().unwrap();
        // The begin's counter sample; a pointer load and a gate check per
        // read; a load, the install CAS and a check per write; the bump,
        // the status CAS and two stamps.
        assert_eq!(steps, 1 + 2 * 2 + 2 * 3 + 4);
    }

    #[test]
    fn rereading_one_variable_does_not_grow_the_read_set() {
        let s = stm();
        let x = s.alloc_tvar(3);
        let mut tx = begin(&s, 1);
        for _ in 0..100 {
            assert_eq!(tx.read(x).unwrap(), 3);
        }
        assert_eq!(reads(&tx), 1);
        tx.try_commit().unwrap();
    }

    /// Two writers keep `x + y == 0` (wrapping); a reader checks it
    /// *inside* the transaction body after every read, so a torn pair
    /// fails even in an attempt that would later abort (opacity, not just
    /// serializability).
    fn in_body_opacity(cm: Arc<dyn crate::cm::ContentionManager>) {
        use std::sync::atomic::{AtomicBool, Ordering};
        let s = DstmWord::new(Dstm::new(cm));
        let (x, y) = (s.alloc_tvar(0), s.alloc_tvar(0));
        // Raised on drop, so a failed assertion below stops the writers
        // (the scope joins them) and the test fails instead of hanging.
        struct Stop<'a>(&'a AtomicBool);
        impl Drop for Stop<'_> {
            fn drop(&mut self) {
                self.0.store(true, Ordering::Relaxed);
            }
        }
        let done = AtomicBool::new(false);
        std::thread::scope(|sc| {
            let _stop = Stop(&done);
            for p in 1..=2u32 {
                let (s, done) = (&s, &done);
                sc.spawn(move || {
                    while !done.load(Ordering::Relaxed) {
                        run_transaction(s, p, |tx| {
                            let vx = tx.read(x)?;
                            tx.write(x, vx.wrapping_add(u64::from(p)))?;
                            let vy = tx.read(y)?;
                            tx.write(y, vy.wrapping_sub(u64::from(p)))
                        });
                    }
                });
            }
            for _ in 0..100_000 {
                let mut tx = begin(&s, 0);
                let body = |tx: &mut Tx<'_>| -> TxResult<()> {
                    let vx = tx.read(x)?;
                    let vy = tx.read(y)?;
                    assert_eq!(vx.wrapping_add(vy), 0, "torn pair inside the body");
                    assert_eq!(tx.read(x)?, vx, "x moved under a live reader");
                    Ok(())
                };
                if body(&mut tx).is_ok() {
                    let _ = tx.try_commit();
                }
            }
        });
        let sum = s.peek(x).unwrap().wrapping_add(s.peek(y).unwrap());
        assert_eq!(sum, 0);
    }

    #[test]
    fn in_body_opacity_aggressive() {
        in_body_opacity(Arc::new(Aggressive));
    }

    #[test]
    fn in_body_opacity_courteous() {
        in_body_opacity(Arc::new(crate::cm::Courteous));
    }

    /// Each instance resolves ids in its own table: an id another instance
    /// minted is not registered here, so the read panics before it could
    /// touch a state this transaction's guard does not protect.
    #[test]
    #[should_panic(expected = "not registered")]
    fn reading_another_instances_variable_is_refused() {
        let (s, other) = (stm(), stm());
        let v = other.alloc_tvar(0);
        let _ = begin(&s, 1).read(v);
    }

    // The tests below watch locators being freed through their owners:
    // once its transaction is gone, a descriptor's last strong reference
    // is the locator it installed.

    /// Process `p` acquires `x` and rolls back; returns the descriptor
    /// that only the locator it installed keeps alive from here on — it
    /// dies exactly when that locator, unlinked by the next acquisition,
    /// is freed.
    fn acquire_and_roll_back(s: &DstmWord, p: u32, x: TVarId) -> Weak<Descriptor> {
        let mut tx = begin(s, p);
        tx.write(x, u64::from(p)).unwrap();
        let owner = Arc::downgrade(&tx.desc);
        tx.try_abort();
        owner
    }

    /// Items waiting in process `p`'s bag.
    fn piled(s: &DstmWord, p: u32) -> usize {
        let pool = &s.scratch;
        let scratch = pool.take(p as usize).expect("parked scratch");
        let piled = scratch.bag.len();
        pool.put(p as usize, scratch);
        piled
    }

    /// How many of `owners`' locators were freed.
    fn dropped(owners: &[Weak<Descriptor>]) -> usize {
        owners.iter().filter(|o| o.strong_count() == 0).count()
    }

    #[test]
    fn dstm_writes_leave_the_shared_bins_empty() {
        let s = stm();
        let x = s.alloc_tvar(0);
        // Predates every unlink below, so none of them ripens.
        let peer = begin(&s, 2);
        for i in 1..=10 {
            let mut tx = begin(&s, 1);
            tx.write(x, i).unwrap();
            tx.try_commit().unwrap();
        }
        assert_eq!(s.vars.domain().pending_memory(), 0, "a write used the bins");
        assert_eq!(piled(&s, 1), 9, "the first write unlinked T_0 only");
        peer.try_commit().unwrap();
        drop(begin(&s, 1));
        assert_eq!(piled(&s, 1), 0);
    }

    #[test]
    fn unlinked_locators_wait_for_a_predating_reader() {
        let s = stm();
        let x = s.alloc_tvar(0);
        let mut owners = vec![acquire_and_roll_back(&s, 1, x)];
        let mut reader = begin(&s, 2);
        reader.read(x).unwrap(); // resolves the rolled-back locator
        owners.push(acquire_and_roll_back(&s, 1, x)); // unlinks it
        assert_eq!(dropped(&owners), 0, "freed under the reader");
        reader.try_commit().unwrap();
        assert_eq!(dropped(&owners), 0, "a bag is reclaimed by its process");
        drop(begin(&s, 1));
        assert_eq!(dropped(&owners), 1);
        assert_eq!(s.vars.domain().pending_memory(), 0);
    }

    #[test]
    fn a_displaced_scratch_hands_its_bag_to_the_domain() {
        let s = stm();
        let x = s.alloc_tvar(0);
        let peer = s.vars.domain().begin();
        let mut owners: Vec<_> = (0..5).map(|_| acquire_and_roll_back(&s, 1, x)).collect();
        assert_eq!(piled(&s, 1), 4);
        // Two transactions of one process: the first takes the pooled
        // scratch and its bag, the second a fresh one, which displaces
        // the first from the pool when it is put back last.
        let (first, second) = (begin(&s, 1), begin(&s, 1));
        drop(first);
        drop(second);
        assert_eq!(
            s.vars.domain().pending_memory(),
            4,
            "the bag went to the bins"
        );
        assert_eq!(dropped(&owners), 0, "freed under the peer");
        drop(peer); // a release collects the bins
        assert_eq!(dropped(&owners), 4);
        // A bag left unripe at the end goes to the bins with the pool, and
        // the bins go with the domain, which the table keeps: with the
        // installed locator the table frees, every locator is freed, once.
        let peer = s.vars.domain().begin();
        owners.push(acquire_and_roll_back(&s, 1, x));
        assert_eq!(piled(&s, 1), 1);
        drop(peer);
        drop(s);
        assert_eq!(dropped(&owners), 6);
    }

    #[test]
    fn a_process_pauses_instead_of_piling_past_the_bound() {
        const OVER: usize = 3;
        let s = stm();
        let x = s.alloc_tvar(0);
        let mut owners = vec![acquire_and_roll_back(&s, 1, x)];
        // A peer that stays registered, as a descheduled one would:
        // nothing unlinked from here on may be freed.
        let peer = s.vars.domain().begin();
        let mut pauses = 0;
        for _ in 0..BAG_BOUND + 1 + OVER {
            let before = piled(&s, 1);
            let started = Instant::now();
            owners.push(acquire_and_roll_back(&s, 1, x));
            if before > BAG_BOUND {
                pauses += 1;
                assert!(started.elapsed() >= PARK_FLOOR, "no pause");
                let pending = s.vars.domain().pending_memory();
                assert_eq!(pending, pauses, "the excess moved");
            }
            assert!(piled(&s, 1) <= BAG_BOUND + 1, "piled past the bound");
        }
        assert_eq!(pauses, OVER, "every transaction over the bound pauses");
        assert_eq!(dropped(&owners), 0, "freed under the peer");
        drop(peer); // collects what went to the bins
        drop(begin(&s, 1)); // and the process its bag
        assert_eq!(dropped(&owners), BAG_BOUND + 1 + OVER);
        assert_eq!(piled(&s, 1), 0);
    }

    /// Locators unlinked behind a peer wait in their process's bag; a live
    /// walk frees them — what the hybrid does to the engine it migrates
    /// away from, which runs no further transaction to do it.
    #[test]
    fn a_live_walk_frees_the_locators_parked_behind_a_peer() {
        let s = stm();
        let x = s.alloc_tvar(0);
        let peer = begin(&s, 2);
        let owners: Vec<_> = (0..10).map(|_| acquire_and_roll_back(&s, 1, x)).collect();
        peer.try_commit().unwrap();
        assert_eq!(piled(&s, 1), 9, "nothing waited");
        assert_eq!(dropped(&owners), 0);
        s.for_each_live_value(|_, _| ());
        assert_eq!(dropped(&owners), 9, "locators stranded");
        assert_eq!(piled(&s, 1), 0);
    }

    #[test]
    fn write_counts_tracked() {
        let s = stm();
        let (x, y) = (s.alloc_tvar(0), s.alloc_tvar(0));
        let mut tx = begin(&s, 1);
        tx.write(x, 1).unwrap();
        tx.write(y, 1).unwrap();
        tx.write(x, 2).unwrap(); // same var: still one acquisition
        let _ = tx.read(y).unwrap(); // own var: not a read-set entry
        assert_eq!(writes(&tx), 2);
        assert_eq!(reads(&tx), 0);
        tx.try_commit().unwrap();
    }
}
