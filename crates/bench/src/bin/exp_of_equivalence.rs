//! **E6 — Theorem 5**: OF ⇔ ic-OF, and the Definition 2/3/4 hierarchy.
//!
//! Generates low-level histories from three sources and runs all three
//! obstruction-freedom checkers on each:
//!
//! 1. seeded step-level interleavings of the Figure 2 transactions on the
//!    shipping DSTM (crash-free, [`oftm_sim::interleave`]): Definition 2
//!    and Definition 3 must both hold;
//! 2. the Figure 2 scan, where `p1` is suspended forever (modelled as a
//!    crash after its last step): forceful aborts of *later* transactions
//!    remain step-contention-justified — OF and ic-OF still agree;
//! 3. the threaded *eventual-ic* DSTM (grace period) with a parked victim:
//!    Definition 2/3 can be violated by design while Definition 4 accepts
//!    with a finite `d` — separating the hierarchy exactly as Section 3
//!    describes.

use oftm_core::cm::Aggressive;
use oftm_core::{run_transaction, Dstm, DstmWord, WordStm};
use oftm_histories::{check_eventual_ic_of, check_ic_of, check_of};
use std::sync::Arc;
use std::time::Duration;

fn main() {
    println!("== E6: Theorem 5 — obstruction-freedom definitions compared ==\n");
    oftm_bench::print_header(&[
        "history source",
        "runs",
        "Def.2 (OF) violations",
        "Def.3 (ic-OF) violations",
        "Def.4 (eventual) verdict",
    ]);

    // Source 1: crash-free step-level interleavings of the shipping DSTM.
    let mut of_v = 0;
    let mut ic_v = 0;
    let runs = 100;
    for seed in 0..runs {
        let h = oftm_sim::interleave(seed);
        of_v += check_of(&h).len();
        ic_v += check_ic_of(&h).len();
    }
    oftm_bench::print_row(&[
        "DSTM, crash-free".into(),
        runs.to_string(),
        of_v.to_string(),
        ic_v.to_string(),
        "d = 0".into(),
    ]);

    // Source 2: the Figure 2 scan (p1 crashes mid-run).
    let rows = oftm_sim::fig2_scan();
    let mut of_v = 0;
    let mut ic_v = 0;
    let mut max_d = 0u64;
    for r in &rows {
        of_v += check_of(&r.history).len();
        ic_v += check_ic_of(&r.history).len();
        if let Ok(d) = check_eventual_ic_of(&r.history) {
            max_d = max_d.max(d);
        }
    }
    oftm_bench::print_row(&[
        "DSTM, p1 crashed".into(),
        rows.len().to_string(),
        of_v.to_string(),
        ic_v.to_string(),
        format!("d ≤ {max_d}"),
    ]);

    // Source 3: a synthetic history separating the hierarchy — a process
    // crashes, and long afterwards a transaction is forcefully aborted
    // with no live concurrent transaction: Definitions 2 and 3 reject it,
    // Definition 4 accepts it with d = the crash-to-start gap. (Real
    // threaded runs cannot exhibit this: a victim that *observes* its
    // abort necessarily has the aborter's steps inside its interval —
    // precisely the indistinguishability behind Theorem 5.)
    let h = {
        use oftm_histories::{Event, History, ProcId, TmOp, TmResp, TxId};
        let mut h = History::new();
        h.push_at(
            Event::Invoke {
                proc: ProcId(1),
                tx: TxId::new(1, 0),
                op: TmOp::Write(oftm_histories::TVarId(0), 1),
            },
            0,
        );
        h.push_at(Event::Crash { proc: ProcId(1) }, 100);
        h.push_at(
            Event::Invoke {
                proc: ProcId(2),
                tx: TxId::new(2, 0),
                op: TmOp::Read(oftm_histories::TVarId(0)),
            },
            5_100,
        );
        h.push_at(
            Event::Respond {
                proc: ProcId(2),
                tx: TxId::new(2, 0),
                resp: TmResp::Aborted,
            },
            5_200,
        );
        h
    };
    let ev = match check_eventual_ic_of(&h) {
        Ok(d) => format!("holds, d = {d}"),
        Err(v) => format!("FAILS ({} violations)", v.len()),
    };
    oftm_bench::print_row(&[
        "synthetic: abort 5µs after crash".into(),
        "1".into(),
        check_of(&h).len().to_string(),
        check_ic_of(&h).len().to_string(),
        ev,
    ]);

    // Measured companion: the eventual-ic (grace period) DSTM makes a
    // contender stall for ~grace before it may revoke a silent owner.
    let grace = Duration::from_millis(5);
    let stm = DstmWord::new(Dstm::new(Arc::new(Aggressive)).with_grace(grace));
    let x = stm.alloc_tvar(0);
    let t1 = {
        let mut t1 = stm.begin(1);
        t1.write(x, 1).unwrap();
        t1 // parked owner: takes no further steps
    };
    let start = std::time::Instant::now();
    let (v, _) = run_transaction(&stm, 2, |tx| tx.read(x));
    let stall = start.elapsed();
    drop(t1);
    println!(
        "\nmeasured: under Progress::EventualGrace({:?}), the contender read x = {v} after \
         stalling {:?} (≈ grace) — the bounded obstruction Definition 4 permits.",
        grace, stall
    );
    assert!(
        stall >= grace,
        "grace period must actually delay the revocation"
    );

    println!("\nReading: crash-free OFTM histories satisfy Definitions 2 and 3 together");
    println!("(Theorem 5); the eventual-ic hierarchy (Definition 4) is separated by the");
    println!("synthetic row — a crashed process obstructing for a finite d — and the");
    println!("measured grace-period stall, as Section 3 lays out.");
}
