//! **E2 — Figure 2 / Theorem 13**: no OFTM is strictly
//! disjoint-access-parallel.
//!
//! Two planes:
//!
//! 1. *Simulated, step-exact*: [`oftm_sim::fig2_scan`] replays the proof's
//!    `E_{p·2·s·3}` construction for every suspension point of `T1` and
//!    reports, per prefix, what `T2`/`T3` read and where the
//!    t-variable-disjoint pair `(T2, T3)` collided on a base object.
//! 2. *Threaded, real DSTM*: runs the same three transactions with `p1`
//!    suspended mid-transaction and lets the strict-DAP checker find the
//!    descriptor conflict in the recorded low-level history. The engine's
//!    commit counter — a second, chosen meeting point of every update
//!    transaction — is reported apart from it.

use oftm_core::api::WordStm;
use oftm_core::record::Recorder;
use oftm_histories::{check_strict_dap, conflict_serializable, TVarId};
use std::sync::Arc;

fn main() {
    println!("== E2a: simulated E_{{p·2·s·3}} scan (step-exact) ==\n");
    let rows = oftm_sim::fig2_scan();
    oftm_bench::print_header(&[
        "T1 prefix steps",
        "T2 read x",
        "T3 read y",
        "T1 fate",
        "serializable",
        "T2–T3 base-object conflicts",
    ]);
    for r in &rows {
        oftm_bench::print_row(&[
            r.prefix_len.to_string(),
            format!("{:?}", r.t2_read_x),
            format!("{:?}", r.t3_read_y),
            if r.t1_committed {
                "committed"
            } else {
                "aborted"
            }
            .to_string(),
            r.serializable.to_string(),
            r.t2_t3_violations.len().to_string(),
        ]);
    }
    let s = oftm_sim::summarize(&rows);
    println!(
        "\nSummary: {} suspension points; {} exhibit a strict-DAP violation between the
t-variable-disjoint transactions T2 and T3 (they collide on T1's descriptor);
{} histories were non-serializable (must be 0 — the OFTM stays safe *by*
violating strict DAP, which is Theorem 13's point).\n",
        s.rows, s.runs_with_t2_t3_conflict, s.non_serializable_runs
    );

    println!("== E2b: threaded DSTM, p1 suspended mid-transaction ==\n");
    let rec = Arc::new(Recorder::new());
    let stm = oftm_bench::make_dstm(Some(Arc::clone(&rec)));
    let counter = stm.inner().commit_counter_base();
    let (w, x, y, z) = (TVarId(0), TVarId(1), TVarId(2), TVarId(3));
    for v in [w, x, y, z] {
        stm.register_tvar(v, 0);
    }

    std::thread::scope(|s| {
        let stm = &stm;
        let rec = &rec;
        // p1: T1 reads w, z and acquires x, y — then stalls forever
        // (park): indistinguishable from a crash.
        let barrier = Arc::new(std::sync::Barrier::new(2));
        let b1 = Arc::clone(&barrier);
        s.spawn(move || {
            let mut t1 = stm.begin(1);
            let _ = t1.read(w);
            let _ = t1.read(z);
            let _ = t1.write(x, 1);
            let _ = t1.write(y, 1);
            rec.crash(oftm_histories::ProcId(1));
            b1.wait();
            // Suspended "forever" (until the scope ends): drop without
            // committing after the others are done.
            std::thread::sleep(std::time::Duration::from_millis(200));
            t1.try_abort();
        });
        barrier.wait();
        // p2: T2 reads x, writes w — must commit despite p1's silence.
        let mut t2 = stm.begin(2);
        let x_val = t2.read(x).expect("T2 read");
        t2.write(w, 1).expect("T2 write");
        t2.try_commit().expect("T2 commits (obstruction-freedom)");
        // p3: T3 reads y, writes z.
        let mut t3 = stm.begin(3);
        let y_val = t3.read(y).expect("T3 read");
        t3.write(z, 1).expect("T3 write");
        t3.try_commit().expect("T3 commits");
        println!("T2 read x = {x_val}; T3 read y = {y_val} (both 0: T1 was revoked)");
    });

    let h = rec.snapshot();
    let viols = check_strict_dap(&h);
    println!(
        "low-level history: {} events, conflict-serializable: {}",
        h.len(),
        conflict_serializable(&h)
    );
    println!("strict-DAP violations (disjoint t-var transactions sharing a base object):");
    for v in viols.iter().take(8) {
        let what = if v.obj == counter {
            " (the commit counter)"
        } else {
            ""
        };
        println!("  {} ⇄ {} on base object {}{what}", v.tx_a, v.tx_b, v.obj);
    }
    let (on_descriptors, on_counter) = oftm_bench::dap_pairs_by_object(&viols, counter);
    if on_descriptors == 0 {
        println!("  (none on a descriptor — unexpected for an OFTM; see Theorem 13)");
    }
    println!(
        "\n{on_descriptors} pairs on descriptors — the hot spot predicted by Section 5 — \
         {on_counter} on the commit counter\n(the one shared word DSTM's validation gate \
         adds; every pair of update transactions meets there)."
    );
}
