//! Enforced gate: the differential runner over the full scenario matrix —
//! all eleven kinds, every STM, every per-cell oracle. Any violation
//! panics with the scenario's reproduction seed
//! (`HARNESS_SEED=… cargo test -p oftm-bench`).

use oftm_bench::harness::{
    derive_seed, report, run_differential, run_matrix, run_migration_forcing, Scenario,
    ScenarioKind, ALL_SCENARIOS, FORCE_EVERY,
};

/// All eleven scenarios × {1, 2, 4} threads, every STM, one seed per cell.
#[test]
fn differential_matrix_low_concurrency() {
    match run_matrix(&[1, 2, 4], 1) {
        Ok(cells) => assert_eq!(cells, ALL_SCENARIOS.len() * 3),
        Err(report) => panic!("differential harness failures:\n{report}"),
    }
}

/// High-concurrency sweep: 8 threads on every scenario.
#[test]
fn differential_matrix_eight_threads() {
    match run_matrix(&[8], 1) {
        Ok(cells) => assert_eq!(cells, ALL_SCENARIOS.len()),
        Err(report) => panic!("differential harness failures:\n{report}"),
    }
}

/// The bank-transfer invariant holds across several independent seeds at
/// moderate concurrency (the likeliest shape to expose lost updates).
/// `derive_seed` honours a verbatim `HARNESS_SEED` for exact replay.
#[test]
fn bank_transfer_multi_seed() {
    for round in 0..4u64 {
        let seed = derive_seed(0xB4A2_0000 | round);
        let sc = Scenario::new(ScenarioKind::BankTransfer, 4, seed);
        if let Err(failures) = run_differential(&sc) {
            panic!(
                "bank-transfer differential failures:\n{}",
                report(&failures)
            );
        }
    }
}

/// The queue's FIFO/conservation oracles across several independent seeds
/// at moderate concurrency (the likeliest shape to expose lost elements).
#[test]
fn queue_multi_seed() {
    for round in 0..3u64 {
        let seed = derive_seed(0x0_BEEF_0000 | round);
        let sc = Scenario::new(ScenarioKind::QueueProducerConsumer, 4, seed);
        if let Err(failures) = run_differential(&sc) {
            panic!("queue differential failures:\n{}", report(&failures));
        }
    }
}

/// Migration-forcing cells: the hybrid on the two scenarios whose
/// transactions never conflict (each thread its own word, its own
/// counter stripe), with thread 0 forcing a migration after every
/// `FORCE_EVERY`th of its ops. Each cell must pass every oracle and count
/// exactly the forced migrations — covering the barrier among in-flight
/// transactions, words and allocated collections alike.
#[test]
fn hybrid_migration_forced_mid_scenario() {
    for (salt, kind) in [
        (0x316A_0001u64, ScenarioKind::Disjoint),
        (0x316A_0002u64, ScenarioKind::CounterStripes),
    ] {
        let mut sc = Scenario::new(kind, 8, derive_seed(salt));
        sc.ops_per_thread = 8 * FORCE_EVERY as u64;
        let outcome = run_migration_forcing(&sc).unwrap_or_else(|f| panic!("{f}"));
        assert_eq!(outcome.stats.get(oftm_obs::Counter::ModeMigrations), 8);
    }
}

/// Small-history run that is guaranteed to go through the *exact*
/// serializability and opacity checkers (not just conflict-SR).
/// Single-threaded on purpose: retries under contention record extra
/// aborted transactions, which could nondeterministically push the
/// history past the exact-check cap; with one thread the transaction
/// count is exactly `ops_per_thread`.
#[test]
fn exact_checkers_engage_on_small_runs() {
    let mut sc = Scenario::new(ScenarioKind::WriteHeavy, 1, derive_seed(0xE4AC));
    sc.ops_per_thread = 6; // 6 txs ≤ exact-check cap of 10, deterministically
    match run_differential(&sc) {
        Ok(report) => {
            for o in &report.outcomes {
                assert!(
                    o.exact_checked,
                    "{}: expected the exact checkers to engage ({} txs)",
                    o.stm, o.recorded_txs
                );
            }
        }
        Err(failures) => panic!("small-run differential failures:\n{}", report(&failures)),
    }
}

/// Attempt accounting: every outcome reports at least one attempt per
/// committed op, and the budget machinery never fires on these workloads.
#[test]
fn attempts_reported_per_outcome() {
    let sc = Scenario::new(ScenarioKind::IntSetMix, 4, derive_seed(0xA77E));
    match run_differential(&sc) {
        Ok(report) => {
            for o in &report.outcomes {
                assert!(
                    o.attempts >= o.committed_ops,
                    "{}: {} attempts for {} committed ops",
                    o.stm,
                    o.attempts,
                    o.committed_ops
                );
            }
        }
        Err(failures) => panic!("intset differential failures:\n{}", report(&failures)),
    }
}
