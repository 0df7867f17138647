//! The DSTM-style obstruction-free STM (Section 1 of the paper, after
//! Herlihy, Luchangco, Moir & Scherer \[18\]).
//!
//! Module layout:
//! * [`descriptor`] — transaction descriptors and the status-word CAS;
//! * [`locator`] — the `(owner, old, new)` indirection object and the
//!   verdict its owner stamps into it;
//! * [`tvar`] — t-variables (a guard-protected locator pointer, and
//!   `T_0`'s value until the first acquisition);
//! * [`tx`] — the transaction engine (acquire/read/validate/commit);
//! * [`stm`] — the [`Dstm`] instance and `atomically` retry loop;
//! * [`word`] — the [`crate::api::WordStm`] adapter.

pub mod descriptor;
pub mod locator;
pub mod stm;
pub mod tvar;
pub mod tx;
pub mod word;

pub use descriptor::{Descriptor, TxState};
pub use locator::Locator;
pub use stm::{Dstm, Progress};
pub use tvar::TVar;
pub use tx::Tx;
pub use word::DstmWord;
