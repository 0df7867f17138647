//! The driver contract's async rows: the same table as the sync loop's
//! (`crates/core/tests/driver_contract.rs`), each row driven through the
//! one `TxFuture` on `block_on`. The only difference the table allows:
//! a read-write transaction whose first two attempts abort parks once
//! (woken by the watchdog — nobody commits under it); read-only ones
//! never park.

#[path = "../../core/tests/common/driver_contract.rs"]
mod contract;

use contract::{Access, Body, Row, PROC};
use oftm_asyncrt::{
    atomically_async_budgeted, atomically_async_ro_budgeted, run_transaction_async_budgeted,
    run_transaction_async_ro_budgeted,
};
use oftm_core::api::WordStm;
use oftm_core::BudgetExceeded;

fn run_async(
    row: Row,
    stm: &dyn WordStm,
    n: u32,
    body: Body<'_>,
) -> Result<(u64, u32), BudgetExceeded> {
    use async_executor::block_on;
    let done = match (row.ctx, row.ro) {
        (false, false) => block_on(run_transaction_async_budgeted(stm, PROC, n, |tx| {
            body(&mut Access::Word(tx))
        })),
        (false, true) => block_on(run_transaction_async_ro_budgeted(stm, PROC, n, |tx| {
            body(&mut Access::Word(tx))
        })),
        (true, false) => block_on(atomically_async_budgeted(stm, PROC, n, |ctx| {
            body(&mut Access::Ctx(ctx))
        })),
        (true, true) => block_on(atomically_async_ro_budgeted(stm, PROC, n, |ctx| {
            body(&mut Access::Ctx(ctx))
        })),
    }?;
    assert_eq!(done.parks > 0, !row.ro && done.attempts > 2, "{row:?}");
    Ok((done.value, done.attempts))
}

#[test]
fn async_driver_contract() {
    contract::check(&run_async, 1);
}
