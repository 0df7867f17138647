//! Negative oracles for the runner's own gates: each per-cell oracle and
//! the storm's phase-loss floor is a pure function over typed values, and
//! each must *fire* on a broken input — a gate that accepts everything
//! would pass every green run. (The history checkers have their own
//! negative suite in `oftm-histories`.)

use oftm_bench::harness::{
    check_invariants, conservation_failures, expected_live, forensics_failures, generate_tapes,
    phase_loss_failures, sequential_replay, Obs, PhaseCell, Scenario, ScenarioKind, ALL_SCENARIOS,
};
use oftm_obs::{AbortCause, Counter, StatsSnapshot, StmStats};

fn cell(phase: &'static str, stm: &'static str, threads: usize, ops_per_sec: f64) -> PhaseCell {
    PhaseCell {
        phase,
        threads,
        stm,
        ops_per_sec,
    }
}

/// The negative oracle: a hybrid stuck in the wrong mode — here, one
/// that escalated to DSTM and never came back, so it crawls through
/// the calm phase at DSTM speed while TL2 flies — must trip the gate.
#[test]
fn phase_loss_gate_catches_hybrid_losing_to_both() {
    let cells = [
        cell("low1", "tl2", 4, 1_000_000.0),
        cell("low1", "dstm", 4, 200_000.0),
        cell("low1", "hybrid", 4, 90_000.0),
    ];
    let failures = phase_loss_failures(&cells);
    assert_eq!(failures.len(), 1, "{failures:?}");
    assert!(failures[0].contains("loses to BOTH"), "{failures:?}");
}

/// Losing to exactly one pure engine is the expected shape of a
/// phase (TL2 wins calm, DSTM wins storms) and must pass.
#[test]
fn phase_loss_gate_accepts_losing_to_one() {
    let cells = [
        // Storm phase: hybrid beats tl2, trails dstm — fine.
        cell("high", "tl2", 8, 5_000.0),
        cell("high", "dstm", 8, 150_000.0),
        cell("high", "hybrid", 8, 80_000.0),
        // Calm phase: hybrid trails tl2, beats dstm — fine.
        cell("low2", "tl2", 8, 1_000_000.0),
        cell("low2", "dstm", 8, 200_000.0),
        cell("low2", "hybrid", 8, 950_000.0),
    ];
    assert!(phase_loss_failures(&cells).is_empty());
}

/// Within the 0.9 noise floor of min(tl2, dstm) is not a loss.
#[test]
fn phase_loss_gate_allows_noise_floor() {
    let cells = [
        cell("high", "tl2", 2, 100_000.0),
        cell("high", "dstm", 2, 300_000.0),
        cell("high", "hybrid", 2, 91_000.0),
    ];
    assert!(phase_loss_failures(&cells).is_empty());
}

/// A hybrid cell whose pure-engine counterparts ran at another thread
/// count (or not at all) is a malformed table, not a silent pass.
#[test]
fn phase_loss_gate_flags_missing_counterparts() {
    let cells = [
        cell("high", "hybrid", 2, 50_000.0),
        cell("high", "tl2", 4, 50_000.0),
        cell("high", "dstm", 4, 50_000.0),
    ];
    let failures = phase_loss_failures(&cells);
    assert_eq!(failures.len(), 1, "{failures:?}");
    assert!(
        failures[0].contains("no tl2/dstm counterparts"),
        "{failures:?}"
    );
}

/// A snapshot with `begins` begins of which `ro` declared read-only,
/// `commits` writing commits, and `rv` read-validation aborts.
fn stats(begins: u64, ro: u64, commits: u64, rv: u64) -> StatsSnapshot {
    let s = StmStats::new();
    s.add(Counter::Begins, begins);
    s.add(Counter::BeginsRo, ro);
    s.add(Counter::CommitsRo, ro);
    s.add(Counter::Commits, commits);
    for _ in 0..rv {
        s.abort(AbortCause::ReadValidation);
        s.record_attempt_ns(10);
    }
    for _ in 0..ro + commits {
        s.record_attempt_ns(10);
    }
    s.snapshot()
}

/// The violating cell: conflict aborts counted, none attributed.
#[test]
fn forensics_gate_catches_contended_cell_with_empty_heatmap() {
    let failures = forensics_failures("tl2", &stats(50, 0, 38, 12), 0, 0);
    assert_eq!(failures.len(), 1, "{failures:?}");
    assert!(
        failures[0].contains("empty forensics table"),
        "{failures:?}"
    );
}

/// Forensic rows are attributions of real aborts: summing past
/// the exact counter means the table is inventing data.
#[test]
fn forensics_gate_catches_counts_exceeding_aborts() {
    let failures = forensics_failures("tl", &stats(50, 0, 40, 10), 13, 4);
    assert_eq!(failures.len(), 1, "{failures:?}");
    assert!(failures[0].contains("only 10 were counted"), "{failures:?}");
}

/// Named aggressors are a subset of the attributed aborts: more named
/// than attributed means the two totals disagree about one table.
#[test]
fn forensics_gate_catches_named_exceeding_attributed() {
    let failures = forensics_failures("dstm", &stats(50, 0, 40, 10), 6, 9);
    assert_eq!(failures.len(), 1, "{failures:?}");
    assert!(
        failures[0].contains("only 6 were attributed"),
        "{failures:?}"
    );
}

/// The healthy shapes: a quiet cell with an empty table, and a contended
/// cell whose attributions stay within its abort counter — while anything
/// at all in `coarse`'s table is misattribution.
#[test]
fn forensics_gate_accepts_healthy_cells_and_keeps_coarse_empty() {
    assert!(forensics_failures("coarse", &stats(50, 0, 50, 0), 0, 0).is_empty());
    assert!(forensics_failures("tl2", &stats(50, 0, 42, 8), 7, 7).is_empty());
    let failures = forensics_failures("coarse", &stats(50, 0, 49, 1), 1, 0);
    assert!(
        failures.iter().any(|f| f.contains("serializes")),
        "{failures:?}"
    );
}

/// Every begun attempt ends as one commit or one tagged abort: a begin
/// that neither committed nor tagged a cause (or was counted twice, the
/// way `all_begins()` used to count declared-RO begins) fails.
#[test]
fn conservation_gate_catches_an_unfinished_begin() {
    assert!(conservation_failures(&stats(50, 20, 25, 5), 40).is_empty());
    let failures = conservation_failures(&stats(51, 20, 25, 5), 40);
    assert_eq!(failures.len(), 1, "{failures:?}");
    assert!(failures[0].contains("not conserved"), "{failures:?}");
    // Fewer begins than the driver ran attempts, more RO begins than
    // begins, attempts without latency samples: each its own failure.
    let short = conservation_failures(&stats(50, 20, 25, 5), 60);
    assert!(
        short.iter().any(|f| f.contains("driver attempts")),
        "{short:?}"
    );
    let ro_heavy = conservation_failures(&stats(10, 12, 0, 0), 0);
    assert!(
        ro_heavy.iter().any(|f| f.contains("declared-RO")),
        "{ro_heavy:?}"
    );
    let silent = conservation_failures(&StatsSnapshot::default(), 3);
    assert!(
        silent.iter().any(|f| f.contains("attempt_ns")),
        "{silent:?}"
    );
    // Conserved and counted, but one latency sample short: an attempt
    // bypassed `Driver::attempt`, which records one sample per attempt.
    let s = StmStats::new();
    s.add(Counter::Begins, 3);
    s.add(Counter::Commits, 3);
    s.record_attempt_ns(10);
    s.record_attempt_ns(10);
    let bypass = conservation_failures(&s.snapshot(), 3);
    assert_eq!(bypass.len(), 1, "{bypass:?}");
    assert!(bypass[0].contains("2 attempt_ns samples"), "{bypass:?}");
}

/// Scenario invariants and the reclamation count, on every kind: a
/// sequential run's own observations and snapshot pass, and the same
/// snapshot with one element appended (a phantom value, a lost update's
/// wrong total, a leaked node's extra words) does not.
#[test]
fn invariants_and_reclamation_fire_on_a_tampered_snapshot() {
    for &kind in ALL_SCENARIOS {
        let sc = Scenario::new(kind, 2, 0x5EED);
        let tapes = generate_tapes(&sc);
        let (observed, snapshot) = sequential_replay("tl2", &sc, &tapes);
        // Re-split the flat sequential observations per thread.
        let mut rest = observed.as_slice();
        let results: Vec<Vec<Obs>> = tapes
            .iter()
            .map(|tape| {
                let (mine, others) = rest.split_at(tape.len());
                rest = others;
                mine.to_vec()
            })
            .collect();
        let name = kind.name();
        check_invariants(&sc, &tapes, &results, &snapshot)
            .unwrap_or_else(|e| panic!("{name}: a sequential run violates its invariants: {e}"));

        let mut tampered = snapshot.clone();
        tampered.push(7_777_777);
        assert!(
            check_invariants(&sc, &tapes, &results, &tampered).is_err(),
            "{name}: invariants accept a snapshot with an extra element"
        );
        if sc.vars() == 0 && kind != ScenarioKind::CounterStripes {
            // Collections: the predicted live count follows the structure.
            tampered.push(7_777_778);
            assert_ne!(
                expected_live(&sc, &snapshot),
                expected_live(&sc, &tampered),
                "{name}: the reclamation oracle ignores the structure's size"
            );
        }
    }
}
