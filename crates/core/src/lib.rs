//! # oftm-core — a DSTM-style obstruction-free software transactional memory
//!
//! This crate is the systems half of the reproduction of Guerraoui &
//! Kapałka, *On Obstruction-Free Transactions* (SPAA 2008): a faithful
//! implementation of the OFTM design the paper analyses (Section 1's
//! description of DSTM \[18\]), built on hardware CAS via `std::sync::atomic`
//! and the crate's own reclamation domains ([`reclaim`]) for locators,
//! table slots and t-variable ids alike.
//!
//! * [`dstm`] — the STM itself, in one layer: [`dstm::DstmWord`] is the
//!   instance (the words its transactions share and its t-variable
//!   table), built from a [`dstm::Dstm`] configuration; its one
//!   transaction type implements [`api::WordTx`] directly — revocable
//!   ownership, invisible reads, commit/abort via a single status-word
//!   CAS.
//! * [`cm`] — the two contention managers the engines run (Aggressive,
//!   Courteous), each honouring the obstruction-freedom contract.
//! * [`api`] — the uniform word-level [`api::WordStm`] interface shared
//!   with the baselines and Algorithm 2, enabling apples-to-apples
//!   experiments.
//! * [`record`] — low-level history recording, bridging real executions to
//!   the formal checkers in `oftm-histories`.
//! * [`notify`] — the commit-notification subsystem: every backend
//!   publishes committed writes so the async runtime (`oftm-asyncrt`) can
//!   park aborted transactions and wake them only when their footprint
//!   actually changes.
//! * [`driver`] — the one transaction driver: a single attempt function
//!   (begin, body, `tryC` or drop, accounting, allocation release) with
//!   the sync spin loop around it; every `run_transaction*` /
//!   `atomically*` name and the async future forward here.
//! * [`contention`] — what the driver's two waiters do between aborted
//!   attempts (backoff schedule, park timeouts).
//! * [`kernel`] — the notify/grace protocol kernels written generically
//!   over a synchronization facade, so `oftm-verify`'s bounded model
//!   checker can interleave the production protocol code exhaustively.
//!
//! ## Quick start
//!
//! ```
//! use oftm_core::dstm::{Dstm, DstmWord};
//! use oftm_core::{run_transaction, WordStm};
//!
//! let stm = DstmWord::new(Dstm::default());
//! let x = stm.alloc_tvar(0);
//! let y = stm.alloc_tvar(0);
//! run_transaction(&stm, 0, |tx| {
//!     let v = tx.read(x)?;
//!     tx.write(y, v + 1)
//! });
//! assert_eq!(stm.peek(y), Some(1));
//! ```

pub mod api;
pub mod cm;
pub mod contention;
pub mod driver;
pub mod dstm;
pub mod kernel;
pub mod line;
pub mod notify;
pub mod pool;
pub mod reclaim;
pub mod record;
pub mod table;

#[cfg(test)]
mod tests;

pub use api::{
    run_transaction, run_transaction_with_budget, BudgetExceeded, TxError, TxResult, WordStm,
    WordTx,
};
pub use dstm::{Dstm, DstmWord, Progress};
pub use notify::{CommitNotifier, WaitSnapshot, NOTIFY_SHARDS};
pub use reclaim::{GraceTracker, Guard, RetiredBlock};
pub use record::{fresh_base_id, Recorder};
pub use table::{VarTable, DYNAMIC_TVAR_BASE};
