//! # oftm-verify — correctness tooling for the OFTM workspace
//!
//! Two halves, both aimed at the lock-free kernels whose correctness the
//! rest of the reproduction leans on:
//!
//! * [`lint`] — `oftm-lint`, a workspace-source static-analysis pass
//!   (a lightweight token scanner; no external parser). It enforces the
//!   STM-specific hygiene invariants that `rustc`/`clippy` cannot see:
//!   every `unsafe` block justified by a `// SAFETY:` comment, every
//!   atomic `Ordering` in a protocol-critical module justified by a
//!   `// ord:` comment naming its pairing, no `.await` while a word-STM
//!   attempt is live, abort causes tagged exactly once per attempt, and
//!   no `std::sync` locks outside an explicit allowlist.
//! * [`model`] — a deterministic bounded-preemption interleaving
//!   explorer (a miniature loom/CHESS) plus [`model::sync`], an
//!   instrumented implementation of [`oftm_core::kernel::SyncFacade`].
//!   The `model_notify`/`model_grace`/`model_gate` test suites run the
//!   *production* notify, grace-period and commit-gate kernels under it
//!   and exhaustively check, at preemption bound ≥ 2, that no
//!   interleaving loses a wakeup, flushes a retire-set a live reader
//!   predates, or lets a DSTM reader combine a committed value with a
//!   stale earlier read.
//!
//! Run the lint with `cargo run -p oftm-verify --bin oftm-lint`; run the
//! model suites with `cargo test -p oftm-verify`. Both are CI gates (the
//! `verify` job). Counterexamples print an `OFTM_MODEL_SEED` that
//! replays the failing interleaving deterministically.

pub mod lint;
pub mod model;
