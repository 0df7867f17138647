//! The DSTM-style obstruction-free STM (Section 1 of the paper, after
//! Herlihy, Luchangco, Moir & Scherer \[18\]).
//!
//! Module layout:
//! * [`descriptor`] — transaction descriptors and the status-word CAS;
//! * [`locator`] — the `(owner, old, new)` indirection object and the
//!   verdict its owner stamps into it;
//! * `tvar` — t-variables (a guard-protected locator pointer, and
//!   `T_0`'s value until the first acquisition);
//! * `tx` — the transaction engine (acquire/read/validate/commit);
//! * [`stm`] — the [`Dstm`] instance: configuration and shared words;
//! * [`word`] — [`DstmWord`], the engine's one front end: its t-variable
//!   table and the [`crate::api::WordStm`] interface every driver,
//!   collection and benchmark runs on.

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
