//! # oftm-sim — deterministic step-level simulation and model checking
//!
//! The theory half of the reproduction: the paper's impossibility results
//! argue about *steps* — single shared-memory accesses under an adversarial
//! scheduler — which free-running threads cannot replay. This crate
//! replays them two ways. The consensus protocols are explicit step
//! machines whose configuration graphs it explores exhaustively; the DSTM
//! constructions run the engine that ships, scheduled one recorded step at
//! a time through the recorder's step gate (`oftm_core::record`):
//!
//! * [`machine`] — the [`machine::Machine`] trait, the exhaustive explorer
//!   with valency computation (0/1-valence, bivalence), the Claim 10
//!   bivalent-extension check, and bivalent-cycle certificates;
//! * [`foc_model`] — step-accurate fo-consensus base objects (propose =
//!   invocation step + response step; abort allowed exactly under step
//!   contention) and retry-consensus over them: Theorem 9's bivalent
//!   infinite execution, found mechanically;
//! * [`tas_model`] — TAS-based 2-process consensus (all schedules decide:
//!   the consensus-number ≥ 2 half of Corollary 11) and the naive
//!   3-process extension whose livelock the explorer exhibits;
//! * [`fig2`] — the `E_{p·2·s·3}` construction of Theorem 13's proof,
//!   scanned over every suspension point of `T1`, and seeded step-level
//!   interleavings of the same transactions (Theorem 5's histories), on
//!   `oftm_core`'s DSTM.

pub mod fig2;
pub mod foc_model;
pub mod machine;
pub mod tas_model;

pub use fig2::{fig2_scan, fig2_scripts, interleave, Fig2Row, ScriptOp};
pub use foc_model::{FocCellModel, FocRetryConsensus, RetryState};
pub use machine::{explore, Exploration, Machine, Move};
pub use tas_model::{TasCell, TasThreeNaive, TasTwoConsensus};
