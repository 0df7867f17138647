//! **E9 — progress under preemption** (the paper's Section 1 motivation:
//! "a process that is preempted, delayed or even crashed cannot inhibit
//! the progress of other processes").
//!
//! One victim thread starts a transaction touching the hot variable and
//! then sleeps mid-transaction (preemption model). A contender thread
//! measures the latency of its own transactions on the same variable
//! during the victim's nap:
//!
//! * **DSTM** (obstruction-free): the contender revokes the victim's
//!   ownership and proceeds in microseconds;
//! * **eventual-ic DSTM**: the contender stalls for the grace period, then
//!   proceeds — bounded obstruction;
//! * **coarse lock**: the contender blocks for the whole nap — unbounded
//!   obstruction (here: the nap length);
//! * **TL**: buffered writes mean a preempted transaction holds no locks
//!   outside its (short) commit window, so the contender proceeds — but a
//!   thread preempted *inside* commit would block writers; TL's bounded
//!   `lock_patience` converts that into livelocked aborts instead.

use oftm_core::cm::Aggressive;
use oftm_core::{run_transaction, Dstm, DstmWord, WordStm};
use oftm_histories::TVarId;
use std::sync::Arc;
use std::time::{Duration, Instant};

const NAP: Duration = Duration::from_millis(50);

fn main() {
    println!("== E9: contender latency while a victim naps mid-transaction ==\n");
    oftm_bench::print_header(&["system", "contender latency", "victim fate"]);

    // DSTM, obstruction-free.
    {
        let stm = DstmWord::new(Dstm::new(Arc::new(Aggressive)));
        let x = stm.alloc_tvar(0);
        let (lat, victim_committed) = std::thread::scope(|s| {
            let stm = &stm;
            let barrier = Arc::new(std::sync::Barrier::new(2));
            let b2 = Arc::clone(&barrier);
            let victim = s.spawn(move || {
                let mut tx = stm.begin(1);
                tx.write(x, 99).unwrap();
                b2.wait(); // acquired, now nap mid-transaction
                std::thread::sleep(NAP);
                tx.try_commit().is_ok()
            });
            barrier.wait();
            let start = Instant::now();
            let (v, _) = run_transaction(stm, 2, |tx| {
                let v = tx.read(x)?;
                tx.write(x, v + 1)?;
                Ok(v)
            });
            let lat = start.elapsed();
            assert_eq!(v, 0, "victim's tentative write must not be visible");
            (lat, victim.join().unwrap())
        });
        oftm_bench::print_row(&[
            "dstm (obstruction-free)".into(),
            format!("{lat:?}"),
            if victim_committed {
                "committed"
            } else {
                "forcefully aborted"
            }
            .into(),
        ]);
    }

    // Eventual-ic DSTM (grace period).
    {
        let grace = Duration::from_millis(10);
        let stm = DstmWord::new(Dstm::new(Arc::new(Aggressive)).with_grace(grace));
        let x = stm.alloc_tvar(0);
        let (lat, victim_committed) = std::thread::scope(|s| {
            let stm = &stm;
            let barrier = Arc::new(std::sync::Barrier::new(2));
            let b2 = Arc::clone(&barrier);
            let victim = s.spawn(move || {
                let mut tx = stm.begin(1);
                tx.write(x, 99).unwrap();
                b2.wait();
                std::thread::sleep(NAP);
                tx.try_commit().is_ok()
            });
            barrier.wait();
            let start = Instant::now();
            run_transaction(stm, 2, |tx| {
                let v = tx.read(x)?;
                tx.write(x, v + 1)
            });
            (start.elapsed(), victim.join().unwrap())
        });
        oftm_bench::print_row(&[
            "dstm + 10ms grace (eventual-ic)".into(),
            format!("{lat:?}"),
            if victim_committed {
                "committed"
            } else {
                "forcefully aborted (after grace)"
            }
            .into(),
        ]);
    }

    // Coarse lock: the victim holds THE lock while napping.
    {
        let stm = oftm_bench::make_stm("coarse", None);
        stm.register_tvar(TVarId(0), 0);
        let lat = std::thread::scope(|s| {
            let stm = &stm;
            let barrier = Arc::new(std::sync::Barrier::new(2));
            let b2 = Arc::clone(&barrier);
            s.spawn(move || {
                let mut tx = stm.begin(1);
                tx.write(TVarId(0), 99).unwrap();
                b2.wait();
                std::thread::sleep(NAP);
                tx.try_abort();
            });
            barrier.wait();
            let start = Instant::now();
            let (_, _) = run_transaction(&**stm, 2, |tx| {
                let v = tx.read(TVarId(0))?;
                tx.write(TVarId(0), v + 1)
            });
            start.elapsed()
        });
        oftm_bench::print_row(&[
            "coarse lock (blocking)".into(),
            format!("{lat:?}"),
            "held the global lock throughout".into(),
        ]);
    }

    // TL: no locks held between operations.
    {
        let stm = oftm_bench::make_stm("tl", None);
        stm.register_tvar(TVarId(0), 0);
        let lat = std::thread::scope(|s| {
            let stm = &stm;
            let barrier = Arc::new(std::sync::Barrier::new(2));
            let b2 = Arc::clone(&barrier);
            s.spawn(move || {
                let mut tx = stm.begin(1);
                tx.write(TVarId(0), 99).unwrap();
                b2.wait();
                std::thread::sleep(NAP);
                let _ = tx.try_commit(); // may fail: contender moved the version
            });
            barrier.wait();
            let start = Instant::now();
            let (_, _) = run_transaction(&**stm, 2, |tx| {
                let v = tx.read(TVarId(0))?;
                tx.write(TVarId(0), v + 1)
            });
            start.elapsed()
        });
        oftm_bench::print_row(&[
            "tl (commit-time locking)".into(),
            format!("{lat:?}"),
            "no locks held while napping; commit validates & may abort".into(),
        ]);
    }

    println!("\nExpected shape: DSTM in microseconds (victim revoked); grace variant ≈ its");
    println!("grace bound; coarse ≈ the full nap ({NAP:?}); TL fast here but its hazard");
    println!("window is the commit section (see module docs).");
}
