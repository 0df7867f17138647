//! The collection-level names of the transaction driver
//! ([`oftm_core::driver`]): `atomically*` bodies receive the [`TxCtx`]
//! itself — one live transaction plus the STM it runs on (needed for
//! mid-transaction allocation) — where the word-level `run_transaction*`
//! bodies receive only its transaction. What keeps dynamic t-variables
//! from leaking lives behind that one type:
//!
//! * node **retirement** ([`TxCtx::retire_block`]) is forwarded to the
//!   transaction as a deferred commit effect — see
//!   [`WordTx::retire_tvar_block`];
//! * attempt-local **allocations** ([`TxCtx::alloc_block`]) are logged,
//!   and the driver frees them when the attempt aborts.

use oftm_core::api::WordStm;
use oftm_core::driver::drive;
use oftm_core::{BudgetExceeded, TxResult};

pub use oftm_core::driver::TxCtx;

#[allow(unused_imports)] // rustdoc links
use oftm_core::api::WordTx;

/// Runs `body` in a retry-until-commit transaction with a [`TxCtx`] in
/// scope — the collection-level `atomically`.
pub fn atomically<R>(
    stm: &dyn WordStm,
    proc: u32,
    body: impl FnMut(&mut TxCtx<'_, '_>) -> TxResult<R>,
) -> R {
    // u32::MAX attempts without a commit is indistinguishable from a hang
    // in practice; keep the unbounded signature but fail loudly.
    drive(stm, proc, u32::MAX, false, body)
        .unwrap_or_else(|e| panic!("atomically: {e}"))
        .0
}

/// Like [`atomically`] but bounded: gives up after `max_attempts` aborted
/// attempts. Returns the result together with the attempt count. The
/// same loop as [`oftm_core::run_transaction_with_budget`].
pub fn atomically_budgeted<R>(
    stm: &dyn WordStm,
    proc: u32,
    max_attempts: u32,
    body: impl FnMut(&mut TxCtx<'_, '_>) -> TxResult<R>,
) -> Result<(R, u32), BudgetExceeded> {
    drive(stm, proc, max_attempts, false, body)
}

/// Read-only variant of [`atomically`]: attempts run on
/// [`WordStm::begin_ro`], so backends take their cheapest consistent read
/// path (wait-free per-read validation on TL/TL2, Algorithm 2's acquiring
/// reads unchanged — see each backend's module docs). The body must not
/// write or retire (backends panic if it does); allocation is likewise
/// out of place in a read-only body.
pub fn atomically_ro<R>(
    stm: &dyn WordStm,
    proc: u32,
    body: impl FnMut(&mut TxCtx<'_, '_>) -> TxResult<R>,
) -> R {
    drive(stm, proc, u32::MAX, true, body)
        .unwrap_or_else(|e| panic!("atomically_ro: {e}"))
        .0
}

/// Like [`atomically_ro`] but bounded, returning the attempt count (the
/// wait-free oracles assert on it).
pub fn atomically_ro_budgeted<R>(
    stm: &dyn WordStm,
    proc: u32,
    max_attempts: u32,
    body: impl FnMut(&mut TxCtx<'_, '_>) -> TxResult<R>,
) -> Result<(R, u32), BudgetExceeded> {
    drive(stm, proc, max_attempts, true, body)
}
