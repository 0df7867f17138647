//! **E4 — Lemma 7 / Algorithm 1**: fo-consensus from an OFTM.
//!
//! Stress-checks the three fo-consensus properties over the Algorithm 1
//! object built on the threaded DSTM:
//!
//! * fo-validity + agreement: concurrent proposers with distinct values,
//!   retried to decision — all must converge on one proposed value;
//! * fo-obstruction-freedom: step-contention-free proposes never abort;
//! * under contention, aborts do occur (that's permitted) — we report the
//!   abort rate under the two shipping contention managers (Aggressive,
//!   Courteous) to show the CM's effect.

use oftm_core::cm::{Aggressive, ContentionManager, Courteous};
use oftm_core::Dstm;
use oftm_foc::{propose_until_decided, FoConsensus, OftmFoc};
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

fn run_trial(cm: Arc<dyn ContentionManager>, n: u32) -> (bool, bool, u64) {
    let foc = OftmFoc::new(Dstm::new(cm));
    let decisions = Mutex::new(BTreeSet::new());
    let aborts = std::sync::atomic::AtomicU64::new(0);
    std::thread::scope(|s| {
        for p in 0..n {
            let foc = &foc;
            let decisions = &decisions;
            let aborts = &aborts;
            s.spawn(move || {
                let (d, a) = propose_until_decided(foc, p, 1000 + u64::from(p));
                aborts.fetch_add(a, std::sync::atomic::Ordering::Relaxed);
                decisions.lock().unwrap().insert(d);
            });
        }
    });
    let d = decisions.into_inner().unwrap();
    let agreed = d.len() == 1;
    let valid = d.iter().all(|&v| (1000..1000 + u64::from(n)).contains(&v));
    (
        agreed,
        valid,
        aborts.load(std::sync::atomic::Ordering::Relaxed),
    )
}

fn main() {
    println!("== E4: Algorithm 1 — fo-consensus from the DSTM OFTM ==\n");

    // fo-obstruction-freedom: sequential (step-contention-free) proposes.
    let foc = OftmFoc::new(Dstm::default());
    let mut solo_aborts = 0;
    let first = foc.propose(0, 7).expect("solo propose must decide");
    for p in 1..100u32 {
        match foc.propose(p, u64::from(p)) {
            Some(d) => assert_eq!(d, first, "agreement across sequential proposes"),
            None => solo_aborts += 1,
        }
    }
    println!(
        "100 sequential proposes: decision = {first}, aborts = {solo_aborts} \
         (must be 0: fo-obstruction-freedom)\n"
    );

    oftm_bench::print_header(&[
        "contention manager",
        "threads",
        "trials",
        "agreement",
        "fo-validity",
        "total aborts (⊥ retries)",
    ]);
    let managers: Vec<(&str, Arc<dyn ContentionManager>)> = vec![
        ("aggressive", Arc::new(Aggressive)),
        ("courteous", Arc::new(Courteous)),
    ];
    for (name, cm) in managers {
        for n in [2u32, 4, 8] {
            let trials = 25;
            let mut all_agree = true;
            let mut all_valid = true;
            let mut aborts = 0;
            for _ in 0..trials {
                let (a, v, ab) = run_trial(Arc::clone(&cm), n);
                all_agree &= a;
                all_valid &= v;
                aborts += ab;
            }
            oftm_bench::print_row(&[
                name.to_string(),
                n.to_string(),
                trials.to_string(),
                all_agree.to_string(),
                all_valid.to_string(),
                aborts.to_string(),
            ]);
        }
    }
    println!("\nAborts under contention are legal (fo-obstruction-freedom only protects");
    println!("step-contention-free proposes); retries always converged to one decision.");
}
