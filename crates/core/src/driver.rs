//! **The transaction driver** — the one place a `dyn WordStm` attempt is
//! run, and the sync loop around it.
//!
//! The paper's model of a retry is one sentence (Section 2.2: an aborted
//! transaction is restarted under a fresh identifier; Section 1: back
//! off so that it eventually runs alone). [`Driver::attempt`] is that
//! sentence minus the waiting: begin, run the body, `tryC` or drop,
//! account, release what the attempt allocated. *How to wait* between
//! attempts is the only thing its two callers differ in:
//!
//! * [`drive`] — the sync loop behind every `run_transaction*` and
//!   `atomically*` name: spin for [`crate::contention::spin_backoff`],
//!   attempt again;
//! * `oftm_asyncrt::TxFuture` — the one `Future`: return `Pending`,
//!   parked on the aborted attempt's footprint, attempt again when woken.
//!
//! A word-level body runs as `|ctx| body(ctx.tx())`, so the word and the
//! collection entry points are literally the same code.

use crate::api::{BudgetExceeded, TxError, TxResult, WordStm, WordTx};
use crate::contention::spin_backoff;
use oftm_histories::{TVarId, Value};
use oftm_obs::{pack_tx, ring, AbortCause, Counter, VarAttr, TX_UNKNOWN};
use std::time::Instant;

/// A live transaction paired with its STM — what a transaction body runs
/// against.
///
/// Collection operations need both halves: reads, writes and retirement
/// go through the transaction, while node allocation goes through the STM
/// ([`WordStm::alloc_tvar_block`] is safe mid-transaction). `TxCtx` keeps
/// the pair together so a body cannot mix transactions from different
/// STMs, and logs the attempt's allocations so the driver can free them
/// if the attempt aborts: they were never published (the write that would
/// have linked them rolled back), so no other transaction can hold their
/// ids and the free is immediate and safe. Without this, every aborted
/// insert would leak a node. Only [`Driver::attempt`] constructs one.
pub struct TxCtx<'a, 'b> {
    stm: &'a dyn WordStm,
    tx: &'a mut (dyn WordTx + 'b),
    allocs: &'a mut Vec<(TVarId, usize)>,
}

impl<'a, 'b> TxCtx<'a, 'b> {
    /// The STM this context's transaction runs on.
    pub fn stm(&self) -> &'a dyn WordStm {
        self.stm
    }

    /// The word-level transaction itself (what a `run_transaction*` body
    /// receives).
    pub fn tx(&mut self) -> &mut (dyn WordTx + 'b) {
        self.tx
    }

    pub fn read(&mut self, x: TVarId) -> TxResult<Value> {
        self.tx.read(x)
    }

    pub fn write(&mut self, x: TVarId, v: Value) -> TxResult<()> {
        self.tx.write(x, v)
    }

    /// Allocates one fresh t-variable (see [`WordStm::alloc_tvar`]).
    pub fn alloc(&mut self, initial: Value) -> TVarId {
        self.alloc_block(std::slice::from_ref(&initial))
    }

    /// Allocates a contiguous block of fresh t-variables (a node). The
    /// block is released automatically if this attempt aborts.
    pub fn alloc_block(&mut self, initials: &[Value]) -> TVarId {
        let base = self.stm.alloc_tvar_block(initials);
        self.allocs.push((base, initials.len()));
        base
    }

    /// Schedules an **unlinked** node's block for reclamation when this
    /// transaction commits (discarded if it aborts). The caller must have
    /// rewritten the node's single incoming link in this same transaction.
    pub fn retire_block(&mut self, base: TVarId, len: usize) {
        self.tx.retire_tvar_block(base, len);
    }
}

/// Retry state of one logical transaction: which STM and process, how
/// attempts begin, the budget, and what has been spent of it.
pub struct Driver<'s> {
    pub stm: &'s dyn WordStm,
    pub proc: u32,
    /// Attempts begin via [`WordStm::begin_ro`]; the body must not write.
    pub read_only: bool,
    max_attempts: u32,
    attempts: u32,
    /// Blocks the running attempt allocated; empty between attempts, so
    /// retries reuse one buffer.
    allocs: Vec<(TVarId, usize)>,
}

impl<'s> Driver<'s> {
    pub fn new(stm: &'s dyn WordStm, proc: u32, max_attempts: u32, read_only: bool) -> Self {
        Driver {
            stm,
            proc,
            read_only,
            max_attempts,
            attempts: 0,
            allocs: Vec::new(),
        }
    }

    /// Transactions begun so far, committed and aborted alike.
    pub fn attempts(&self) -> u32 {
        self.attempts
    }

    /// True once the retry budget is spent.
    pub fn exhausted(&self) -> bool {
        self.attempts >= self.max_attempts
    }

    /// Runs one attempt under a fresh transaction: `Some` is the commit
    /// event `C_k` with the body's result, `None` is `A_k`. With
    /// `footprint`, the attempt's raw access log (duplicates included) is
    /// left there, captured before `tryC` consumes the transaction — what
    /// a caller that parks instead of spinning waits on.
    pub fn attempt<R>(
        &mut self,
        body: &mut impl FnMut(&mut TxCtx<'_, '_>) -> TxResult<R>,
        footprint: Option<&mut Vec<TVarId>>,
    ) -> Option<R> {
        let (stm, stats) = (self.stm, self.stm.stats());
        if self.attempts > 0 {
            stats.incr(Counter::Retries);
        }
        self.attempts += 1;
        let started = Instant::now();
        // Chrome-trace "X" slice, only when tracing is on; sampled per
        // attempt so slices nest inside the emitting thread's track.
        let span_started = ring::enabled().then(ring::clock_ns);
        let mut tx = if self.read_only {
            stm.begin_ro(self.proc)
        } else {
            stm.begin(self.proc)
        };
        let out = body(&mut TxCtx {
            stm,
            tx: tx.as_mut(),
            allocs: &mut self.allocs,
        });
        if let Some(fp) = footprint {
            fp.clear();
            tx.footprint(fp);
        }
        let committed = match out {
            Ok(r) => tx.try_commit().ok().map(|()| r),
            // Drop, never tryA: the body already observed the abort
            // event, and a tryA would record a second operation on a
            // completed transaction. Backends settle themselves on drop,
            // which also gives back the grace slot before the frees below.
            Err(TxError::Aborted) => {
                drop(tx);
                None
            }
        };
        stats.record_attempt_ns(started.elapsed().as_nanos() as u64);
        if let Some(t0) = span_started {
            let (proc, n) = (u64::from(self.proc), u64::from(self.attempts));
            ring::emit_span("attempt", stm.name(), proc, n, t0);
        }
        if committed.is_some() {
            self.allocs.clear(); // published by the commit
        } else {
            for (base, len) in self.allocs.drain(..) {
                stm.free_tvar_block(base, len);
            }
        }
        committed
    }

    /// Tags the spent budget on the cause taxonomy and builds the error.
    /// Only the driver can see its budget run dry; each spent attempt
    /// already tagged its own cause, no single t-variable is responsible
    /// and no peer won anything — hence `NoVar` and the unknown aggressor.
    pub fn budget_exceeded(&self) -> BudgetExceeded {
        self.stm.stats().abort_at(
            AbortCause::BudgetExhausted,
            VarAttr::NoVar,
            pack_tx(self.proc, self.max_attempts),
            TX_UNKNOWN,
        );
        BudgetExceeded {
            attempts: self.max_attempts,
        }
    }
}

/// The sync retry loop: attempts separated by randomized bounded
/// exponential backoff, until one commits or `max_attempts` have aborted.
/// Returns the body's result with the number of attempts.
///
/// The backoff is the paper's own progress recipe (Section 1):
/// obstruction-free TMs guarantee nothing under sustained step
/// contention, but contention that is *spread out* makes solo runs — and
/// hence commits — overwhelmingly likely. Without it, symmetric workloads
/// on CM-less implementations (Algorithm 2, where even reads take
/// revocable ownership) mutually abort forever. Sequential executions
/// never abort, so they never pay it.
pub fn drive<R>(
    stm: &dyn WordStm,
    proc: u32,
    max_attempts: u32,
    read_only: bool,
    mut body: impl FnMut(&mut TxCtx<'_, '_>) -> TxResult<R>,
) -> Result<(R, u32), BudgetExceeded> {
    let mut driver = Driver::new(stm, proc, max_attempts, read_only);
    while !driver.exhausted() {
        if driver.attempts > 0 {
            spin_backoff(proc, driver.attempts);
        }
        if let Some(r) = driver.attempt(&mut body, None) {
            return Ok((r, driver.attempts));
        }
    }
    Err(driver.budget_exceeded())
}
