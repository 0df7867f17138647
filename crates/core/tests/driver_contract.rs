//! The driver contract's sync rows: every `run_transaction*` name, and
//! [`drive`] itself — which `oftm_structs::atomically*` forward to in one
//! expression each — through the spinning loop.

#[path = "common/driver_contract.rs"]
mod contract;

use contract::{Access, Body, Row, PROC};
use oftm_core::api::{run_transaction_ro_with_budget, run_transaction_with_budget, WordStm};
use oftm_core::driver::drive;
use oftm_core::BudgetExceeded;

fn run_sync(
    row: Row,
    stm: &dyn WordStm,
    budget: u32,
    body: Body<'_>,
) -> Result<(u64, u32), BudgetExceeded> {
    match (row.ctx, row.ro) {
        (true, ro) => drive(stm, PROC, budget, ro, |ctx| body(&mut Access::Ctx(ctx))),
        (false, false) => {
            run_transaction_with_budget(stm, PROC, budget, |tx| body(&mut Access::Word(tx)))
        }
        (false, true) => {
            run_transaction_ro_with_budget(stm, PROC, budget, |tx| body(&mut Access::Word(tx)))
        }
    }
}

#[test]
fn sync_driver_contract() {
    contract::check(&run_sync, 0);
}
