//! # oftm-baselines — the lock-based TMs the paper contrasts OFTMs against
//!
//! Section 1 of *On Obstruction-Free Transactions* positions OFTMs against
//! lock-based STMs on two axes:
//!
//! * **Progress** — lock-based TMs block: a preempted lock holder stalls
//!   peers (the real-time/kernel motivation for obstruction-freedom).
//! * **Disjoint-access-parallelism** — most lock-based TMs (two-phase
//!   locking à la TL \[11\]) are *strictly* disjoint-access-parallel, which
//!   Theorem 13 proves impossible for any OFTM; the global-clock designs
//!   (TL2 \[10\], TinySTM \[13\]) are the lock-based exception.
//!
//! Three baselines, all implementing the shared
//! [`WordStm`](oftm_core::api::WordStm) interface and the low-level
//! recorder, so the checkers and benchmarks treat them uniformly. TL and
//! TL2 are one engine, [`VersionedLockStm`], under its two read policies
//! (see [`vlock`]):
//!
//! | impl | engine | progress | strictly DAP? |
//! |------|--------|----------|----------------|
//! | [`CoarseStm`] | [`coarse`] | blocking (one global lock) | no (the lock) |
//! | [`TlStm`]     | [`vlock`], per-object policy | blocking (commit-time per-object locks) | **yes** |
//! | [`Tl2Stm`]    | [`vlock`], snapshot policy | blocking + sharded version clock read at `begin` | no (the clock) |

mod clock;
pub mod coarse;
pub mod vlock;

pub use coarse::CoarseStm;
pub use vlock::{Tl2Stm, TlStm, VersionedLockStm, CLOCK_SHARDS};
