//! Obstruction-freedom vs locking when a thread stalls mid-transaction.
//!
//! The paper's opening motivation: *"a process that is preempted, delayed
//! or even crashed cannot inhibit the progress of other processes."* A
//! victim thread acquires the hot t-variable and then sleeps (a preempted
//! or crashed thread, from its peers' point of view). With the OFTM, a
//! contender revokes the ownership and proceeds in microseconds; with a
//! coarse lock it waits out the entire nap.
//!
//! Run with: `cargo run --example preemption`

use oftm::core::api::WordStm;
use oftm::{run_transaction, Dstm, DstmWord};
use oftm_histories::TVarId;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

const NAP: Duration = Duration::from_millis(100);

fn main() {
    // --- OFTM: the victim is revoked ------------------------------------
    let stm = DstmWord::new(Dstm::default());
    let x = stm.alloc_tvar(0);
    let barrier = Arc::new(Barrier::new(2));
    let (latency, victim_fate) = std::thread::scope(|s| {
        let stm = &stm;
        let b2 = Arc::clone(&barrier);
        let victim = s.spawn(move || {
            let mut tx = stm.begin(1);
            tx.write(x, 42).unwrap(); // acquire ownership of x
            b2.wait();
            std::thread::sleep(NAP); // preempted mid-transaction
            tx.try_commit()
        });
        barrier.wait();
        let start = Instant::now();
        let (seen, _) = run_transaction(stm, 2, |tx| {
            let v = tx.read(x)?;
            tx.write(x, v + 1)?;
            Ok(v)
        });
        let latency = start.elapsed();
        assert_eq!(seen, 0, "tentative value of the napping victim leaked!");
        (latency, victim.join().unwrap())
    });
    println!("OFTM   : contender finished in {latency:?} while the victim napped {NAP:?}");
    println!(
        "         victim's commit afterwards: {:?} (forcefully aborted — the price of progress)",
        victim_fate
    );
    assert!(latency < NAP / 2, "obstruction-freedom must beat the nap");

    // --- Coarse lock: the victim blocks everyone -------------------------
    let stm = oftm_baselines::CoarseStm::new();
    stm.register_tvar(TVarId(0), 0);
    let barrier = Arc::new(Barrier::new(2));
    let latency = std::thread::scope(|s| {
        let stm = &stm;
        let b2 = Arc::clone(&barrier);
        s.spawn(move || {
            let mut tx = stm.begin(1);
            tx.write(TVarId(0), 42).unwrap();
            b2.wait();
            std::thread::sleep(NAP); // holds THE lock while napping
            tx.try_abort();
        });
        barrier.wait();
        let start = Instant::now();
        run_transaction(stm, 2, |tx| {
            let v = tx.read(TVarId(0))?;
            tx.write(TVarId(0), v + 1)
        });
        start.elapsed()
    });
    println!("coarse : contender blocked for {latency:?} (≈ the whole nap)");
    assert!(
        latency >= NAP / 2,
        "the lock must have blocked the contender"
    );

    println!("\nThis asymmetry — microseconds vs the victim's entire delay — is why");
    println!("obstruction-freedom matters for real-time and kernel contexts (paper §1),");
    println!("and what it buys in exchange for the strict-DAP impossibility (Theorem 13).");
}
