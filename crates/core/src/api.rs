//! The uniform word-level STM interface (`WordStm`) shared by every STM in
//! the workspace.
//!
//! The paper compares classes of STM implementations (OFTMs, lock-based
//! TMs, Algorithm 2). To run identical workloads and the same
//! history-checkers over all of them, each implementation exposes this
//! minimal interface over word-sized t-variables, mirroring the TM
//! operations of Section 2.2: `read`, `write`, `tryC`, `tryA`. The richer
//! typed API (`TVar<T>`) of the DSTM implementation is layered separately.
//!
//! The `run_transaction*` functions are the word-level names of the one
//! transaction driver in [`crate::driver`]: each forwards to
//! [`drive`] with its body adapted as `|ctx| body(ctx.tx())`.

use crate::driver::drive;
use crate::notify::CommitNotifier;
use oftm_histories::{TVarId, TxId, Value};
use oftm_obs::{Forensics, StmStats};
use std::fmt;

/// Why a transactional operation did not produce a result.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TxError {
    /// The transaction received the abort event `A_k`. It must not perform
    /// further operations; the application may retry with a *new*
    /// transaction (paper, Section 2.2: restarts use fresh identifiers).
    Aborted,
}

impl fmt::Display for TxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TxError::Aborted => write!(f, "transaction aborted"),
        }
    }
}

impl std::error::Error for TxError {}

/// Result alias for transactional operations.
pub type TxResult<T> = Result<T, TxError>;

/// A transaction handle bound to one word-level STM instance.
///
/// Handles are single-threaded (the paper's model: each transaction is
/// executed by one process); they are deliberately `!Sync` by containing
/// interior state.
pub trait WordTx {
    /// This transaction's identifier.
    fn id(&self) -> TxId;

    /// Reads t-variable `x` within the transaction.
    fn read(&mut self, x: TVarId) -> TxResult<Value>;

    /// Writes `v` to t-variable `x` within the transaction.
    fn write(&mut self, x: TVarId, v: Value) -> TxResult<()>;

    /// `tryC`: requests commitment. `Ok(())` is the commit event `C_k`;
    /// `Err(Aborted)` is `A_k`.
    fn try_commit(self: Box<Self>) -> TxResult<()>;

    /// `tryA`: requests abortion; always succeeds.
    fn try_abort(self: Box<Self>);

    /// Schedules a contiguous block of dynamically allocated t-variables
    /// for reclamation as a **deferred effect of this transaction's
    /// commit**. If the transaction aborts, the retire-set is discarded —
    /// a node unlinked by an attempt that never committed must survive.
    /// On commit, the block enters the STM's grace-period tracker
    /// ([`crate::reclaim::GraceTracker`]) and is evicted once every
    /// transaction that was in flight at commit time has finished.
    ///
    /// The caller asserts that, once its unlinking writes commit, no
    /// *future* transaction can reach `base..base+len` (single incoming
    /// link, rewritten in the same transaction). A transaction touching a
    /// block after it was evicted aborts or panics with the uniform
    /// `t-variable <x> not registered` diagnostic — it never observes a
    /// stale value.
    fn retire_tvar_block(&mut self, base: TVarId, len: usize);

    /// Retires a single t-variable (see [`WordTx::retire_tvar_block`]).
    fn retire_tvar(&mut self, x: TVarId) {
        self.retire_tvar_block(x, 1);
    }

    /// Appends the t-variables this transaction has accessed so far (its
    /// *footprint*: reads and writes) to `out`. Implementations may emit
    /// duplicates — a consumer that registers per-entry state (e.g. park
    /// registration in the async runtime) must dedup first.
    ///
    /// The async runtime calls this on an aborted transaction before
    /// dropping it: the footprint is exactly the set of t-variables whose
    /// change could make a re-run observe a different world, so it is
    /// what the parked transaction registers with the STM's
    /// [`CommitNotifier`]. An abort cannot shrink what was accessed, so
    /// the footprint stays valid on every abort path.
    fn footprint(&self, out: &mut Vec<TVarId>);
}

/// A word-level software transactional memory.
pub trait WordStm: Send + Sync {
    /// Human-readable implementation name (used in experiment tables).
    fn name(&self) -> &'static str;

    /// Declares a t-variable with an initial value under a caller-chosen
    /// id. Static ids conventionally stay below
    /// [`crate::table::DYNAMIC_TVAR_BASE`] so they never collide with
    /// dynamically allocated ones.
    fn register_tvar(&self, x: TVarId, initial: Value);

    /// Allocates one fresh t-variable with the given initial value and
    /// returns its id. Safe to call both outside transactions and *inside*
    /// a running transaction (dynamic data structures allocate nodes
    /// mid-transaction). Allocation is not a transactional effect: if the
    /// allocating transaction aborts, the t-variable stays allocated but
    /// unreachable (the write publishing it was discarded), mirroring
    /// DSTM's object-allocation semantics.
    fn alloc_tvar(&self, initial: Value) -> TVarId {
        self.alloc_tvar_block(&[initial])
    }

    /// Allocates `initials.len()` fresh t-variables with **contiguous**
    /// ids and returns the first id. Multi-word records (e.g. a list
    /// node's `[value, next]` pair) are addressed as offsets from the
    /// returned base. Same allocation semantics as [`WordStm::alloc_tvar`].
    fn alloc_tvar_block(&self, initials: &[Value]) -> TVarId;

    /// Immediately evicts the per-variable state of `len` contiguous
    /// t-variables starting at `base`. This is the *unguarded* primitive
    /// the grace-period machinery bottoms out in: callers must guarantee
    /// no in-flight transaction can still reach the block — either by
    /// routing the free through [`WordTx::retire_tvar_block`] (which
    /// defers to commit + grace period), or because the block was never
    /// published (allocated by an attempt that aborted). A transaction
    /// that reads a freed id aborts or panics with the uniform
    /// `t-variable <x> not registered` diagnostic, never a stale value.
    fn free_tvar_block(&self, base: TVarId, len: usize);

    /// Number of t-variables currently registered or allocated and not
    /// yet freed — the live-count metric leak regressions assert on. A
    /// table-backed backend first evicts every retired block whose grace
    /// period has elapsed, in every bag it parks and in the shared bins
    /// (`VarTable::evict_ripe_parked`), so the count is exact once the
    /// instance is quiescent. For oracles and tests: it walks every bag.
    fn live_tvars(&self) -> usize;

    /// Begins a transaction on behalf of process `proc`.
    ///
    /// A thread must not begin a transaction while it holds another of
    /// the same instance on a blocking backend: coarse's global gate and
    /// the hybrid's migration barrier (which a begin can start) both wait
    /// for the held transaction to end, which it never does.
    fn begin(&self, proc: u32) -> Box<dyn WordTx + '_>;

    /// Begins a **declared read-only** transaction on behalf of `proc`.
    ///
    /// The returned handle supports `read` and `try_commit` only — calling
    /// `write` (or `retire_tvar_block`) on it is a programming error and
    /// panics. In exchange, backends override this with the cheapest
    /// consistent-read path they admit; on TL/TL2 every read validates
    /// against a begin-time version vector, so the transaction keeps **no
    /// read-set, takes no locks, and commits without revalidation** — a
    /// bounded number of loads per operation, hence wait-free. Other
    /// backends document their guarantee in their module docs.
    ///
    /// The default is the plain [`WordStm::begin`] path: an ordinary
    /// transaction that never writes is already a correct read-only
    /// transaction, and every backend additionally *promotes* such
    /// transactions at commit (detect-on-commit: an empty write-set skips
    /// lock/CAS commit work).
    fn begin_ro(&self, proc: u32) -> Box<dyn WordTx + '_> {
        self.begin(proc)
    }

    /// The commit-notification endpoint of this STM instance. Every
    /// backend publishes its written t-variables here after a successful
    /// commit's effects are visible; the async runtime parks aborted
    /// transactions on it (see [`crate::notify`]).
    fn notifier(&self) -> &CommitNotifier;

    /// The telemetry registry of this STM instance. Backends tag every
    /// aborted attempt with exactly one [`oftm_obs::AbortCause`] and count
    /// begins/commits/reclamation at their own sites; the driver
    /// ([`crate::driver`]) counts attempts and budget exhaustion into the
    /// same registry (see [`oftm_obs`]). Always on — the cost is a handful
    /// of uncontended relaxed increments per transaction, and no clock
    /// read.
    fn stats(&self) -> &StmStats;

    /// The conflict-forensics table of this STM instance: one
    /// who-aborted-whom row per `(aggressor, victim, cause, t-variable)`,
    /// fed by every var-attributed abort ([`StmStats::abort_at`]), with
    /// the per-variable ranking as a view of it. Bundled inside
    /// [`WordStm::stats`], so instances that share a stats registry (the
    /// hybrid's two engines) automatically share one forensic view.
    fn forensics(&self) -> &Forensics {
        self.stats().forensics()
    }

    /// True if this implementation claims obstruction-freedom (Definition
    /// 2). Used by experiments to decide which checkers apply.
    fn is_obstruction_free(&self) -> bool;
}

/// The retry budget of [`run_transaction_with_budget`] ran out before any
/// attempt committed: `attempts` transactions were tried and all aborted.
/// Surfacing this instead of looping forever turns a livelocking workload
/// into a diagnosable failure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BudgetExceeded {
    /// Number of aborted attempts (equals the budget that was given).
    pub attempts: u32,
}

impl fmt::Display for BudgetExceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "transaction retry budget exhausted after {} attempts",
            self.attempts
        )
    }
}

impl std::error::Error for BudgetExceeded {}

/// Runs `body` inside transactions until one commits. Each retry uses a
/// fresh transaction identifier. Returns the committed body result
/// together with the number of attempts.
pub fn run_transaction<R>(
    stm: &dyn WordStm,
    proc: u32,
    body: impl FnMut(&mut dyn WordTx) -> TxResult<R>,
) -> (R, u32) {
    // u32::MAX attempts without a commit is indistinguishable from a hang
    // in practice; keep the unbounded signature but fail loudly.
    run_transaction_with_budget(stm, proc, u32::MAX, body)
        .unwrap_or_else(|e| panic!("run_transaction: {e}"))
}

/// Like [`run_transaction`], but gives up after `max_attempts` aborted
/// attempts instead of retrying forever. Harness workloads use this so a
/// livelocking STM produces a seeded, reportable failure rather than a
/// silent hang. Aborted attempts are separated by randomized bounded
/// exponential backoff (see [`drive`], which this forwards to).
pub fn run_transaction_with_budget<R>(
    stm: &dyn WordStm,
    proc: u32,
    max_attempts: u32,
    mut body: impl FnMut(&mut dyn WordTx) -> TxResult<R>,
) -> Result<(R, u32), BudgetExceeded> {
    drive(stm, proc, max_attempts, false, |ctx| body(ctx.tx()))
}

/// Read-only counterpart of [`run_transaction`]: every attempt begins via
/// [`WordStm::begin_ro`], so the body must not write. On TL/TL2 the first
/// attempt cannot abort (reads are wait-free against the begin-time
/// version vector), so `attempts` is 1 there by construction.
pub fn run_transaction_ro<R>(
    stm: &dyn WordStm,
    proc: u32,
    body: impl FnMut(&mut dyn WordTx) -> TxResult<R>,
) -> (R, u32) {
    run_transaction_ro_with_budget(stm, proc, u32::MAX, body)
        .unwrap_or_else(|e| panic!("run_transaction_ro: {e}"))
}

/// Like [`run_transaction_ro`], but gives up after `max_attempts` aborted
/// attempts (relevant on the backends whose read-only path can still
/// abort: DSTM and both Algorithm 2 configurations).
pub fn run_transaction_ro_with_budget<R>(
    stm: &dyn WordStm,
    proc: u32,
    max_attempts: u32,
    mut body: impl FnMut(&mut dyn WordTx) -> TxResult<R>,
) -> Result<(R, u32), BudgetExceeded> {
    drive(stm, proc, max_attempts, true, |ctx| body(ctx.tx()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tx_error_display() {
        assert_eq!(TxError::Aborted.to_string(), "transaction aborted");
    }
}
