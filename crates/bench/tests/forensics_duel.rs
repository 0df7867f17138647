//! The conflict-forensics duel: the runner's `hotspot` kind — every
//! update is a read-modify-write of one word — with the preemption point
//! inside the read–write window on, four threads, every backend. The
//! per-cell oracles already hold the forensics table to "attributions ≤
//! counted aborts" and `coarse` (the control: a global mutex never takes a
//! contention abort) to an **empty** table; the duel demands the other
//! direction. Every other backend must have attributed the fight to a
//! t-variable *and* named an aggressor — DSTM through the killer stamp or
//! the owner of the locator that replaced the one it read, TL/TL2 through
//! the commit-lock writer stamp, Algorithm 2 through its `Owner`/`V[x]`
//! registers, the hybrid through whichever engine it is running. A
//! backend that stops naming aggressors fails here.

use oftm_bench::harness::{derive_seed, generate_tapes, run_concurrent, Scenario, ScenarioKind};
use oftm_bench::STM_NAMES;

#[test]
fn every_contention_backend_names_its_aggressors() {
    for &stm in STM_NAMES {
        let mut sc = Scenario::new(ScenarioKind::Hotspot, 4, derive_seed(0xD0E1));
        // Algorithm 2's version chains grow with every abort and this
        // workload is all aborts: the gate needs one edge, not a soak.
        sc.ops_per_thread = if stm.starts_with("algo2") { 24 } else { 64 };
        let o =
            run_concurrent(stm, &sc, &generate_tapes(&sc), true).unwrap_or_else(|f| panic!("{f}"));
        if stm != "coarse" {
            assert!(
                o.attributed > 0 && o.named > 0,
                "{stm}: {} aborts, {} attributed, {} named in a hot-word duel\n  {}",
                o.stats.aborts(),
                o.attributed,
                o.named,
                sc.repro()
            );
        }
    }
}
