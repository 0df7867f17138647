//! # oftm — *On Obstruction-Free Transactions*, reproduced in Rust
//!
//! A full implementation and experimental reproduction of Guerraoui &
//! Kapałka, *On Obstruction-Free Transactions* (SPAA 2008): an
//! obstruction-free software transactional memory (DSTM-style), the
//! fo-consensus abstraction it is computationally equivalent to
//! (Algorithms 1–3), lock-based baselines, executable checkers for every
//! definition in the paper, and a step-level model checker for its two
//! impossibility results.
//!
//! This façade crate re-exports the workspace:
//!
//! * [`core`] — the DSTM OFTM ([`DstmWord`] over word t-variables,
//!   the transaction driver, contention managers, event recording);
//! * [`foc`] — fo-consensus objects and Algorithms 1 & 3;
//! * [`algo2`] — Algorithm 2 (OFTM from foc + registers);
//! * [`baselines`] — coarse / TL / TL2 lock-based TMs;
//! * [`histories`] — the formal model and checkers
//!   (serializability, opacity, OF/ic-OF/eventual-ic-OF, strict DAP);
//! * [`sim`] — deterministic step machines, valency exploration, and
//!   the Figure 2 construction on the shipping DSTM, scheduled one
//!   recorded step at a time;
//! * [`structs`] — transactional collections (sorted-list IntSet,
//!   hash map, MPMC queue, striped counter) over the word-level
//!   interface, running unchanged on every STM via dynamic t-variable
//!   allocation ([`core::api::WordStm::alloc_tvar`]);
//! * [`hybrid`] — the contention-adaptive backend: a TL2 fast path that
//!   migrates the whole instance to DSTM arbitration when measured abort
//!   profiles say optimism is losing, and back once contention subsides
//!   ([`hybrid::HybridStm`]);
//! * [`asyncrt`] — the async transaction runtime: aborted transactions
//!   park as pending futures and are woken by the commit-notification
//!   subsystem ([`core::notify`]) when their footprint actually changes,
//!   so many more logical clients than OS threads can wait without
//!   burning CPU in retry backoff;
//! * [`verify`] — correctness tooling: the `oftm-lint` STM-invariant
//!   static-analysis pass and a bounded-preemption interleaving model
//!   checker that exhaustively interleaves the production notify and
//!   grace-period kernels ([`core::kernel`]).
//!
//! ## Quick start
//!
//! ```
//! use oftm::core::WordStm;
//! use oftm::{run_transaction, Dstm, DstmWord, TxResult};
//!
//! let stm = DstmWord::new(Dstm::default());
//! let account_a = stm.alloc_tvar(100);
//! let account_b = stm.alloc_tvar(0);
//!
//! run_transaction(&stm, 0, |tx| -> TxResult<()> {
//!     let a = tx.read(account_a)?;
//!     let b = tx.read(account_b)?;
//!     tx.write(account_a, a - 30)?;
//!     tx.write(account_b, b + 30)
//! });
//!
//! assert_eq!(stm.peek(account_a), Some(70));
//! assert_eq!(stm.peek(account_b), Some(30));
//! ```
//!
//! See `examples/` for runnable scenarios and the README's "Experiments"
//! section for the paper-to-code map (bin → claim → the line a test
//! checks).

pub use oftm_algo2 as algo2;
pub use oftm_asyncrt as asyncrt;
pub use oftm_baselines as baselines;
pub use oftm_core as core;
pub use oftm_foc as foc;
pub use oftm_histories as histories;
pub use oftm_hybrid as hybrid;
pub use oftm_obs as obs;
pub use oftm_sim as sim;
pub use oftm_structs as structs;
pub use oftm_verify as verify;

pub use oftm_asyncrt::{atomically_async, run_transaction_async};
pub use oftm_core::{
    run_transaction, run_transaction_with_budget, Dstm, DstmWord, Recorder, TxError, TxResult,
};
pub use oftm_foc::{CasFoc, EventualFoc, FoConsensus, OftmFoc, SplitterFoc};
pub use oftm_histories::{History, TVarId, TxId};
pub use oftm_hybrid::{HybridConfig, HybridStm};
pub use oftm_structs::{TxCounter, TxHashMap, TxIntSet, TxQueue};
