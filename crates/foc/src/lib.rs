//! # oftm-foc — fail-only consensus and the paper's Algorithms 1 & 3
//!
//! Section 4 of *On Obstruction-Free Transactions* proves that an OFTM is
//! computationally equivalent to **fo-consensus** ("fail-only" consensus,
//! after \[6\]): a one-shot agreement object whose `propose` may abort (`⊥`)
//! but only under step contention. This crate provides:
//!
//! * [`FoConsensus`] — the abstraction (fo-validity, agreement,
//!   fo-obstruction-freedom) plus property-test harnesses;
//! * [`CasFoc`] — fo-consensus from one CAS word (never aborts);
//! * [`SplitterFoc`] — fo-consensus from registers and a single one-shot
//!   test-and-set, i.e. from objects of consensus number 2 only;
//! * [`OftmFoc`] — **Algorithm 1**: fo-consensus from an OFTM (Lemma 7);
//! * [`EventualFoc`] — **Algorithm 3**: fo-consensus from an *eventually
//!   ic*-obstruction-free TM (Theorem 6 / Lemma 14);
//! * [`TestAndSet`] / [`TasConsensus`] — the consensus-number-2 primitive
//!   and wait-free 2-process consensus (Corollary 11's lower bound);
//! * [`FocConsensus`] — retry-based consensus over any foc object.

pub mod cas_foc;
pub mod from_eventual;
pub mod from_oftm;
pub mod monitored;
pub mod splitter_foc;
pub mod tas;
pub mod traits;
pub mod two_consensus;

pub use cas_foc::CasFoc;
pub use from_eventual::EventualFoc;
pub use from_oftm::{OftmFoc, BOTTOM};
pub use monitored::{check_fo_obstruction_freedom, MonitoredFoc};
pub use splitter_foc::SplitterFoc;
pub use tas::{TasConsensus, TestAndSet};
pub use traits::{propose_until_decided, stress_agreement, FoConsensus, FocPropertyHarness};
pub use two_consensus::FocConsensus;
