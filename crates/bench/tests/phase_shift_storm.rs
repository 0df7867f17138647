//! The contention-phase-shift storm: conflict density goes low → high →
//! low on **one live STM instance**, the shape the adaptive hybrid exists
//! for (escalate into the storm, de-escalate after it). Its own test
//! binary, so nothing else runs beside the timed phases.
//!
//! Checked per instance: no op exhausts its attempt budget, the hot word
//! ends equal to the committed high-phase ops (only they write it, `+1`
//! each), telemetry is conserved and forensics consistent. Checked across
//! instances, per phase and thread count: the phase-loss floor
//! ([`phase_loss_failures`]) — the hybrid may lose to one of the engines
//! it is built from, never to both.

use oftm_bench::harness::{
    conservation_failures, derive_seed, forensics_failures, phase_loss_failures, PhaseCell,
    ATTEMPT_BUDGET,
};
use oftm_bench::{make_stm, SplitMix};
use oftm_core::api::{run_transaction_with_budget, WordStm};
use oftm_histories::TVarId;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

const PHASES: &[&str] = &["low1", "high", "low2"];
const PHASE: Duration = Duration::from_millis(100);

/// Algorithm 2 is excluded: its per-variable version chains grow without
/// bound under a sustained forced-preemption storm (the paper calls the
/// construction "rather impractical"; here it would only measure
/// chain-walking).
const STMS: &[&str] = &["dstm", "tl", "tl2", "coarse", "hybrid"];

/// One hot word plus a cold tail.
const HOT: TVarId = TVarId(0);
const COLD_VARS: u64 = 64;

/// One op. The high-contention shape is the *early-write tail*: acquire
/// the hot word up front, then a long cold tail with a scheduler yield
/// inside the conflict window — the shape that collapses
/// commit-time-validation STMs on few-core hosts (every resumed
/// transaction replays its full body only to fail validation), while
/// eager-ownership arbitration keeps the owner running. The low shape is
/// a handful of cold reads plus one cold write: conflicts are rare and
/// optimistic commit wins. Returns the attempts, `None` on exhaustion.
fn op(stm: &dyn WordStm, proc: u32, rng: &mut SplitMix, high: bool) -> Option<u32> {
    // Cold indices are drawn up front so every retry replays the
    // identical footprint.
    let mut cold = || TVarId(1 + rng.next() % COLD_VARS);
    let reads: Vec<TVarId> = (0..if high { 16 } else { 8 }).map(|_| cold()).collect();
    let wr = cold();
    run_transaction_with_budget(stm, proc, ATTEMPT_BUDGET, |tx| {
        if high {
            let h = tx.read(HOT)?;
            tx.write(HOT, h + 1)?;
            std::thread::yield_now(); // preemption point inside the conflict window
        }
        let mut acc = 0;
        for &x in &reads {
            acc += tx.read(x)?;
        }
        tx.write(wr, acc % 1024)
    })
    .ok()
    .map(|(_, tries)| tries)
}

/// One timed phase on a live instance: `(committed ops, attempts)`. Ops
/// are counted, not fixed, so a collapsing backend degrades to a low
/// count instead of stretching the wall clock.
fn run_phase(
    stm: &dyn WordStm,
    threads: usize,
    high: bool,
    dur: Duration,
    seed: u64,
) -> (u64, u64) {
    let (ops, attempts) = (AtomicU64::new(0), AtomicU64::new(0));
    let start = Instant::now();
    std::thread::scope(|s| {
        for t in 0..threads {
            let (ops, attempts) = (&ops, &attempts);
            s.spawn(move || {
                let mut rng = SplitMix(seed ^ ((t as u64 + 1) << 40));
                while start.elapsed() < dur {
                    let tries = op(stm, t as u32, &mut rng, high).unwrap_or_else(|| {
                        panic!("{}: an op exhausted its attempt budget", stm.name())
                    });
                    ops.fetch_add(1, Ordering::Relaxed);
                    attempts.fetch_add(u64::from(tries), Ordering::Relaxed);
                }
            });
        }
    });
    (ops.into_inner(), attempts.into_inner())
}

/// The three phases back to back on one instance: one cell per phase.
fn storm(stm_name: &'static str, threads: usize, seed: u64) -> Vec<PhaseCell> {
    let stm = make_stm(stm_name, None);
    stm.register_tvar(HOT, 0);
    for i in 1..=COLD_VARS {
        stm.register_tvar(TVarId(i), i);
    }
    // Untimed warmup on the low shape: pages, pools, clock shards.
    let (_, mut attempts) = run_phase(&*stm, threads, false, PHASE / 4, seed ^ 0xDEAD_BEEF);
    let mut storm_ops = 0;
    let cells = PHASES
        .iter()
        .enumerate()
        .map(|(i, &phase)| {
            let high = phase == "high";
            let started = Instant::now();
            let (ops, tries) = run_phase(&*stm, threads, high, PHASE, seed ^ (i as u64) << 56);
            attempts += tries;
            if high {
                storm_ops = ops;
            }
            PhaseCell {
                phase,
                threads,
                stm: stm_name,
                ops_per_sec: ops as f64 / started.elapsed().as_secs_f64(),
            }
        })
        .collect();

    let (hot, _) =
        run_transaction_with_budget(&*stm, u32::MAX - 1, ATTEMPT_BUDGET, |tx| tx.read(HOT))
            .expect("the final read runs alone");
    assert_eq!(
        hot, storm_ops,
        "{stm_name} t={threads}: hot word vs committed high-phase ops"
    );
    let stats = stm.stats().snapshot();
    let forensics = stm.forensics();
    let mut failures = conservation_failures(&stats, attempts);
    failures.extend(forensics_failures(
        stm_name,
        &stats,
        forensics.total() + forensics.overflow(),
        forensics.named(),
    ));
    assert!(failures.is_empty(), "{stm_name} t={threads}: {failures:?}");
    cells
}

#[test]
fn hybrid_never_loses_a_phase_to_both_engines() {
    let seed = derive_seed(0x5702);
    for threads in [1, 2] {
        // A measurement and up to two re-measurements: a phase is 100 ms,
        // and one descheduled cell must not fail the suite.
        let mut failures = Vec::new();
        for round in 0..3 {
            let cells: Vec<PhaseCell> = STMS
                .iter()
                .flat_map(|stm| storm(stm, threads, seed ^ round))
                .collect();
            failures = phase_loss_failures(&cells);
            if failures.is_empty() {
                break;
            }
            eprintln!("phase-loss floor, measurement {round}: {failures:?}\n{cells:#?}");
        }
        assert!(
            failures.is_empty(),
            "hybrid lost a phase to both engines three times running: {failures:?}"
        );
    }
}
