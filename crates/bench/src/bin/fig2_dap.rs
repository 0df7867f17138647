//! **E2 — Figure 2 / Theorem 13**: no OFTM is strictly
//! disjoint-access-parallel.
//!
//! [`oftm_sim::fig2_scan`] replays the proof's `E_{p·2·s·3}` on the
//! shipping DSTM, step-exact, for every suspension point of `T1`: what
//! `T2`/`T3` read, and where that t-variable-disjoint pair met — on `T1`'s
//! descriptor (Theorem 13's hot spot) and, apart, on the commit counter.

use oftm_histories::conflict_serializable;

fn main() {
    println!("== E2: E_{{p·2·s·3}} on the shipping DSTM (step-exact) ==\n");
    let rows = oftm_sim::fig2_scan();
    oftm_bench::print_header(&[
        "T1 prefix steps",
        "T2 read x",
        "T3 read y",
        "T1 committed",
        "serializable",
        "T2–T3 pairs on descriptors",
        "on the commit counter",
    ]);
    for r in &rows {
        let (on_descriptors, on_counter) =
            oftm_bench::dap_pairs_by_object(&r.t2_t3_violations, r.counter);
        oftm_bench::print_row(&[
            r.prefix_len.to_string(),
            format!("{:?}", r.t2_read_x),
            format!("{:?}", r.t3_read_y),
            r.t1_committed.to_string(),
            r.serializable.to_string(),
            on_descriptors.to_string(),
            on_counter.to_string(),
        ]);
    }

    let all_cs = rows.iter().all(|r| conflict_serializable(&r.history));
    println!("\nEvery row's history conflict-serializable: {all_cs}");
    let revoked = |r: &&oftm_sim::Fig2Row| {
        r.t2_read_x == Some(0) && r.t3_read_y == Some(0) && r.met_on(r.t1_status)
    };
    if let Some(r) = rows.iter().find(revoked) {
        println!(
            "prefix {}: T2 read x = 0; T3 read y = 0 (both 0: T1 was revoked, and T3 met \
             the revocation on T1's status word {})",
            r.prefix_len, r.t1_status
        );
    }
    let count = |on: fn(&oftm_sim::Fig2Row) -> bool| rows.iter().filter(|r| on(r)).count();
    println!(
        "\n{} of {} suspension points show T2–T3 pairs on descriptors — the hot spot \
         predicted by Section 5 — and {} on the commit counter\n(the one shared word \
         DSTM's validation gate adds; every two update transactions meet there). {} \
         histories were non-serializable (must be 0 — the OFTM stays safe *by* violating \
         strict DAP, which is Theorem 13's point).",
        count(|r| r.met_on(r.t1_status)),
        rows.len(),
        count(|r| r.met_on(r.counter)),
        count(|r| !r.serializable)
    );
}
