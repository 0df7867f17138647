//! The conflict-forensics duel, in two halves.
//!
//! * **A forced lost update.** One thread interleaves two transactions on
//!   one word: T1 reads `x`, T2 writes `x` and commits, T1 writes `x` and
//!   tries to commit. T1 must abort, and the backend must record exactly
//!   one row: aggressor T2, victim T1, `ReadValidation`, `x` — DSTM
//!   through the owner of the locator that replaced the one T1 read,
//!   TL/TL2 through the commit-lock writer stamp (the stamp T1's own lock
//!   replaced, when T1 holds the stale word), Algorithm 2 through its
//!   `Owner`/`V[x]` registers, the hybrid through whichever engine it is
//!   running. The interleaving is forced, so the check does not wait for
//!   the scheduler to produce an overlap.
//! * **The `hotspot` run.** The runner's `hotspot` kind — every update a
//!   read-modify-write of one word — with the preemption point inside the
//!   read–write window on, four threads, every backend, under the
//!   runner's per-cell oracles: attributions ≤ counted aborts, named ≤
//!   attributed, and `coarse` (a global mutex never takes a contention
//!   abort) with an empty table.

use oftm_bench::harness::{derive_seed, generate_tapes, run_concurrent, Scenario, ScenarioKind};
use oftm_bench::{make_stm, STM_NAMES};
use oftm_obs::{pack_tx, AbortCause};

#[test]
fn every_contention_backend_names_its_aggressors() {
    // `coarse` is left out: its second `begin` would wait for the first
    // transaction on this same thread forever.
    for &stm in STM_NAMES.iter().filter(|&&s| s != "coarse") {
        let s = make_stm(stm, None);
        let x = s.alloc_tvar(0);
        let mut t1 = s.begin(1);
        let victim = pack_tx(t1.id().proc, t1.id().seq);
        assert_eq!(t1.read(x), Ok(0), "{stm}: T1 reads x");
        let mut t2 = s.begin(2);
        let aggressor = pack_tx(t2.id().proc, t2.id().seq);
        assert_eq!(t2.write(x, 1), Ok(()), "{stm}: T2 writes x");
        assert_eq!(t2.try_commit(), Ok(()), "{stm}: T2 commits");
        let t1_committed = t1.write(x, 2).is_ok() && t1.try_commit().is_ok();
        assert!(!t1_committed, "{stm}: T1 committed a lost update");
        let rows = s.forensics().top_k(8);
        assert_eq!(rows.len(), 1, "{stm}: one conflict, one row: {rows:?}");
        let e = rows[0];
        assert_eq!(
            (e.last_aggressor, e.last_victim, e.cause, e.var, e.count),
            (aggressor, victim, AbortCause::ReadValidation, x.0, 1),
            "{stm}: {e:?}"
        );
        assert_eq!(s.forensics().named(), 1, "{stm}");
    }
}

#[test]
fn the_hotspot_run_keeps_its_forensics_consistent() {
    for &stm in STM_NAMES {
        let mut sc = Scenario::new(ScenarioKind::Hotspot, 4, derive_seed(0xD0E1));
        // Algorithm 2's version chains grow with every abort and this
        // workload is all aborts: the oracles need a run, not a soak.
        sc.ops_per_thread = if stm.starts_with("algo2") { 24 } else { 64 };
        run_concurrent(stm, &sc, &generate_tapes(&sc), true).unwrap_or_else(|f| panic!("{f}"));
    }
}
