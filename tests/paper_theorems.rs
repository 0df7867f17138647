//! Integration: each theorem-level claim of the paper as an executable
//! assertion (the test-suite companion of the README's "Experiments"
//! index and of `crates/bench/tests/paper_bins.rs`).

use oftm::sim::{explore, fig2_scan, interleave, FocRetryConsensus, TasTwoConsensus};

/// Corollary 11, lower half: 2-process consensus is solvable with
/// consensus-number-2 machinery — every schedule decides, agrees and is
/// valid (exhaustive).
#[test]
fn corollary11_two_process_consensus_decides_under_every_schedule() {
    let e = explore(TasTwoConsensus::new([10, 20]), 1_000_000);
    let terms = e.terminals();
    assert!(!terms.is_empty());
    for (_, ds) in terms {
        let v: Vec<u64> = ds.iter().filter_map(|d| *d).collect();
        assert_eq!(v.len(), 2);
        assert_eq!(v[0], v[1]);
        assert!(v[0] == 10 || v[0] == 20);
    }
    assert!(
        e.bivalent_cycle().is_none(),
        "2-process protocol is wait-free"
    );
}

/// Theorem 9 / Corollary 11, upper half: over an adversarial-but-legal
/// fo-consensus, a 3-process consensus attempt admits an infinite bivalent
/// execution; the valency structure matches Claim 10.
#[test]
fn theorem9_bivalent_cycle_for_three_processes() {
    let e = explore(FocRetryConsensus::new(vec![0, 1, 1]), 2_000_000);
    assert!(
        e.bivalent(e.initial),
        "initial configuration is bivalent ([14])"
    );
    assert!(
        e.bivalent_extension_property().is_empty(),
        "Claim 10: every bivalent configuration has a bivalent extension"
    );
    let cycle = e
        .bivalent_cycle()
        .expect("an infinite bivalent execution must exist");
    for &(state, _) in &cycle {
        assert!(e.bivalent(state));
    }
}

/// Theorem 9's safety counterpart: aborting never endangers agreement —
/// all terminal configurations agree, for 2 and 3 processes alike.
#[test]
fn foc_retry_agreement_in_every_terminal() {
    for inputs in [vec![0u64, 1], vec![0, 1, 1]] {
        let e = explore(FocRetryConsensus::new(inputs), 2_000_000);
        for (i, ds) in e.terminals() {
            let v: Vec<u64> = ds.iter().filter_map(|d| *d).collect();
            assert!(
                v.windows(2).all(|w| w[0] == w[1]),
                "terminal {i} disagrees: {ds:?}"
            );
        }
    }
}

/// Theorem 13: the Figure 2 construction on the shipping DSTM, step by
/// step — the t-variable-disjoint pair (T2, T3) must conflict on a base
/// object in some execution, while every execution stays serializable.
#[test]
fn theorem13_figure2_scan() {
    let rows = fig2_scan();
    assert!(rows.len() > 5);
    let safe = rows.iter().all(|r| r.serializable);
    assert!(safe, "the OFTM must stay safe in every suspension scenario");
    // Apart from the commit counter every update transaction bumps, the
    // t-variable-disjoint pair conflicts on T1's descriptor — the paper's
    // exact diagnosis ("both go to Tm's transaction descriptor").
    let (row, witness) = (rows.iter())
        .flat_map(|r| r.t2_t3_violations.iter().map(move |v| (r, v.obj)))
        .find(|(r, obj)| *obj != r.counter)
        .expect("strict-DAP violation must appear (Theorem 13)");
    assert_eq!(witness, row.t1_status, "T1's status word");
}

/// Theorem 5 on generated executions: crash-free OFTM histories satisfy
/// Definition 2 and Definition 3 simultaneously.
#[test]
fn theorem5_of_and_ic_of_agree_on_oftm_histories() {
    for seed in 0..50 {
        let h = interleave(seed);
        assert!(oftm_histories::check_of(&h).is_empty());
        assert!(oftm_histories::check_ic_of(&h).is_empty());
        assert!(oftm_histories::of_implies_ic_of(&h));
    }
}

/// Theorem 6 direction exercised end-to-end in threads: Algorithm 3 over a
/// grace-period TM yields a correct fo-consensus (Lemma 14's properties).
#[test]
fn theorem6_algorithm3_gives_foconsensus() {
    use oftm::foc::{propose_until_decided, EventualFoc, FoConsensus};
    use std::time::Duration;
    let stm = oftm::Dstm::new(std::sync::Arc::new(oftm::core::cm::Courteous))
        .with_grace(Duration::from_micros(100));
    let foc = EventualFoc::new(stm, 4);
    // Sequential proposes never abort (fo-obstruction-freedom).
    let d = foc.propose(0, 5).expect("solo propose decides");
    assert_eq!(d, 5);
    for p in 1..4 {
        assert_eq!(foc.propose(p, 100 + u64::from(p)), Some(5));
    }
    // Concurrent retries converge.
    let decisions = std::sync::Mutex::new(std::collections::BTreeSet::new());
    std::thread::scope(|s| {
        for p in 0..4u32 {
            let foc = &foc;
            let decisions = &decisions;
            s.spawn(move || {
                let (d, _) = propose_until_decided(foc, p, u64::from(p));
                decisions.lock().unwrap().insert(d);
            });
        }
    });
    assert_eq!(decisions.into_inner().unwrap().len(), 1);
}
