//! The trace gate: with tracing on, a few matrix cells — each announced by
//! its `"cell"` marker — must drain into a Chrome-trace document that
//! [`validate`] accepts: well-formed envelope, spans disjoint or nested on
//! every track, every abort instant carrying `cause`/`var`/`victim`, and
//! at least one `"attempt"` span in every cell (an attempt path that
//! bypasses the transaction driver leaves none). Its own test binary: the
//! trace gate and the rings are process-global.

use oftm_bench::harness::{derive_seed, report, run_differential, Scenario, ScenarioKind};
use oftm_obs::ring;
use oftm_obs::trace::{chrome_json, validate};

#[test]
fn traced_matrix_cells_export_a_valid_chrome_trace() {
    ring::set_enabled(true);
    // Word ops under contention, a declared-RO collection op mix, and the
    // two-structure transaction.
    let cells = [
        (ScenarioKind::Hotspot, 4),
        (ScenarioKind::IntSetMix, 2),
        (ScenarioKind::QueueTransfer, 2),
    ];
    for (i, (kind, threads)) in cells.into_iter().enumerate() {
        let sc = Scenario::new(kind, threads, derive_seed(0x7ACE_0000 | i as u64));
        if let Err(failures) = run_differential(&sc) {
            panic!("traced cell failed its oracles:\n{}", report(&failures));
        }
    }
    let summary = match validate(&chrome_json(&ring::drain())) {
        Ok(summary) => summary,
        Err(errors) => panic!("exported trace is not valid:\n{}", errors.join("\n")),
    };
    // Seven backends ran every op of three cells through the driver.
    assert!(summary.spans >= 7 * 3, "{summary:?}");
}
