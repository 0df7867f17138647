//! Consensus from transactions: Algorithm 1 live.
//!
//! Section 4 of the paper proves an OFTM equivalent to fail-only
//! consensus. This example runs the equivalence forward: eight threads use
//! one t-variable (Algorithm 1) to elect a leader, retrying on `⊥`.
//! It then runs the consensus-number-2 machinery: wait-free 2-process
//! consensus from a single test-and-set.
//!
//! Run with: `cargo run --example consensus`

use oftm::foc::{propose_until_decided, OftmFoc, TasConsensus};
use oftm::Dstm;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

fn main() {
    // --- Algorithm 1: fo-consensus from the OFTM -------------------------
    let foc = OftmFoc::new(Dstm::new(Arc::new(oftm::core::cm::Courteous)));
    let outcomes: Mutex<BTreeMap<u32, (u64, u64)>> = Mutex::new(BTreeMap::new());

    std::thread::scope(|s| {
        for p in 0..8u32 {
            let foc = &foc;
            let outcomes = &outcomes;
            s.spawn(move || {
                let my_value = 100 + u64::from(p);
                let (decided, aborts) = propose_until_decided(foc, p, my_value);
                outcomes.lock().unwrap().insert(p, (decided, aborts));
            });
        }
    });

    let outcomes = outcomes.into_inner().unwrap();
    let decisions: Vec<u64> = outcomes.values().map(|(d, _)| *d).collect();
    let leader = decisions[0];
    assert!(decisions.iter().all(|&d| d == leader), "agreement violated");
    assert!((100..108).contains(&leader), "validity violated");
    println!("Algorithm 1 (fo-consensus from the OFTM): 8 threads elected {leader}");
    for (p, (d, aborts)) in &outcomes {
        println!("  p{p}: decided {d} after {aborts} ⊥-retries");
    }

    // --- The consensus-number story --------------------------------------
    // 2 processes: wait-free consensus from one TAS (never retries).
    let tas = TasConsensus::new();
    let (d0, d1) = std::thread::scope(|s| {
        let h0 = s.spawn(|| tas.propose(0, 7u64));
        let h1 = s.spawn(|| tas.propose(1, 9u64));
        (h0.join().unwrap(), h1.join().unwrap())
    });
    assert_eq!(d0, d1);
    println!("\nTAS 2-process consensus decided {d0} — wait-free, no retries ever.");
    println!("(For 3+ processes no such wait-free protocol exists over OFTM-strength");
    println!("objects — Theorem 9; run `cargo run -p oftm-bench --bin exp_consensus_number`");
    println!("to watch the model checker exhibit the infinite bivalent execution.)");
}
