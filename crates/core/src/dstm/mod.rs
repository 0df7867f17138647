//! The DSTM-style obstruction-free STM (Section 1 of the paper, after
//! Herlihy, Luchangco, Moir & Scherer \[18\]).
//!
//! One engine, one layer:
//! * [`stm`] — [`Dstm`], the configuration an instance is built from
//!   (contention manager, progress policy, recorder, telemetry);
//! * [`word`] — [`DstmWord`], the instance: the words every transaction
//!   shares (begin counter, commit gate, pooled scratch, reclamation
//!   domain), the t-variable table and the commit notifier, behind the
//!   [`crate::api::WordStm`] interface every driver, collection and
//!   benchmark runs on;
//! * `tx` — the transaction, the one [`crate::api::WordTx`] the instance
//!   hands out: acquire, read, validate, commit and abort;
//! * `tvar` — t-variables (a guard-protected locator pointer, and
//!   `T_0`'s value until the first acquisition);
//! * [`locator`] — the `(owner, old, new)` indirection object and the
//!   verdict its owner stamps into it;
//! * [`descriptor`] — transaction descriptors and the status-word CAS.

pub mod descriptor;
pub mod locator;
pub mod stm;
mod tvar;
mod tx;
pub mod word;

pub use descriptor::{Descriptor, TxState};
pub use locator::Locator;
pub use stm::{Dstm, Progress};
pub use word::DstmWord;
