//! Forced-conflict tests for the two contention managers the engines run:
//! `Aggressive` (`Dstm::default()`) and `Courteous` (the hybrid's DSTM
//! engine).
//!
//! Two levels, per manager:
//! * a **policy-level** simulation of a symmetric two-transaction
//!   collision, asserting the manager hands at least one side
//!   `AbortOther` within a bounded number of rounds (no mutual-backoff
//!   livelock); and
//! * an **engine-level** run where two threads repeatedly collide on one
//!   t-variable through the real DSTM, asserting both threads finish
//!   their quota of committed transactions within a watchdog deadline.

use oftm_core::cm::{Aggressive, ContentionManager, Courteous, Resolution};
use oftm_core::dstm::descriptor::Descriptor;
use oftm_core::dstm::{Dstm, DstmWord};
use oftm_core::{run_transaction, WordStm};
use oftm_histories::TxId;
use oftm_obs::{AbortCause, Counter, StatsSnapshot};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

fn managers() -> Vec<(&'static str, Arc<dyn ContentionManager>)> {
    vec![
        ("aggressive", Arc::new(Aggressive)),
        ("courteous", Arc::new(Courteous)),
    ]
}

/// Policy level: in a symmetric collision (both sides live, both
/// repeatedly consulting the manager about the other), some side must be
/// told to abort the other within a bounded number of rounds. A manager
/// that lets both sides back off forever would livelock the engine.
#[test]
fn symmetric_collision_resolves_without_livelock() {
    for (name, cm) in managers() {
        let a = Arc::new(Descriptor::new(TxId::new(1, 0)));
        let b = Arc::new(Descriptor::new(TxId::new(2, 0)));
        let mut resolved_round = None;
        for round in 0..256u32 {
            let ra = cm.resolve(&a, &b, round);
            let rb = cm.resolve(&b, &a, round);
            if ra == Resolution::AbortOther || rb == Resolution::AbortOther {
                resolved_round = Some(round);
                break;
            }
        }
        let round = resolved_round
            .unwrap_or_else(|| panic!("{name}: 256 symmetric rounds, nobody may abort"));
        // The winner's victim really can be aborted (descriptor-level CAS).
        let winner_aborts_b = cm.resolve(&a, &b, round) == Resolution::AbortOther;
        let victim = if winner_aborts_b { &b } else { &a };
        assert!(
            victim.try_abort(),
            "{name}: resolved victim could not be aborted"
        );
    }
}

/// Asserts that exactly the expected cause moved (by exactly `n`) in the
/// delta between two snapshots — the abort-cause taxonomy is a
/// partition, so a forced conflict may not leak into other buckets.
fn assert_only_cause(delta: &StatsSnapshot, expected: AbortCause, n: u64) {
    for &cause in oftm_obs::ABORT_CAUSES {
        let want = if cause == expected { n } else { 0 };
        assert_eq!(
            delta.get(cause.counter()),
            want,
            "cause {} moved unexpectedly (wanted {expected:?} × {n})",
            cause.name()
        );
    }
    assert_eq!(delta.aborts(), n, "derived abort total");
}

/// Forced CM arbitration: under the Aggressive manager, a writer meeting
/// a live owner kills it on the spot. The victim's next step discovers
/// the kill, and the abort must land in `cm_arbitrated` — once, and in
/// no other bucket.
#[test]
fn forced_peer_kill_tags_cm_arbitrated_exactly_once() {
    let stm = DstmWord::new(Dstm::new(Arc::new(Aggressive)));
    let x = stm.alloc_tvar(0);
    let before = stm.stats().snapshot();

    let mut victim = stm.begin(0);
    victim.write(x, 1).expect("first ownership is uncontended");
    // The killer: Aggressive resolves the ownership conflict by aborting
    // the live owner immediately.
    let mut killer = stm.begin(1);
    killer.write(x, 2).expect("aggressive kills the owner");
    killer.try_commit().expect("killer commits unopposed");
    // The victim discovers its death at its next operation; the engine
    // tags the abort at that first discovery site.
    assert!(
        victim.try_commit().is_err(),
        "killed transaction cannot commit"
    );

    let delta = stm.stats().snapshot().since(&before);
    assert_only_cause(&delta, AbortCause::CmArbitrated, 1);
    assert_eq!(delta.get(Counter::Begins), 2);
    assert_eq!(delta.get(Counter::Commits), 1, "only the killer committed");
}

/// Forced stale read: a reader snapshots a t-variable, a peer commits a
/// new version, and the reader's commit-time validation must fail — in
/// `read_validation`, once, and in no other bucket.
#[test]
fn forced_stale_read_tags_read_validation_exactly_once() {
    let stm = DstmWord::new(Dstm::new(Arc::new(Courteous)));
    let x = stm.alloc_tvar(0);
    let before = stm.stats().snapshot();

    let mut reader = stm.begin(0);
    assert_eq!(reader.read(x).expect("clean first read"), 0);
    let mut writer = stm.begin(1);
    writer.write(x, 7).expect("writer is unopposed");
    writer.try_commit().expect("writer commits");
    assert!(
        reader.try_commit().is_err(),
        "validation must catch the stale read"
    );

    let delta = stm.stats().snapshot().since(&before);
    assert_only_cause(&delta, AbortCause::ReadValidation, 1);
    assert_eq!(delta.get(Counter::Commits), 1, "only the writer committed");
}

/// A voluntary rollback of a live transaction is an `explicit_retry` —
/// exactly one, with every conflict bucket untouched.
#[test]
fn voluntary_rollback_tags_explicit_retry_exactly_once() {
    let stm = DstmWord::new(Dstm::default());
    let x = stm.alloc_tvar(0);
    let before = stm.stats().snapshot();

    let mut tx = stm.begin(0);
    let _ = tx.read(x).expect("clean read");
    tx.try_abort();

    let delta = stm.stats().snapshot().since(&before);
    assert_only_cause(&delta, AbortCause::ExplicitRetry, 1);
    assert_eq!(delta.get(Counter::Begins), 1);
    assert_eq!(delta.all_commits(), 0);
}

/// Engine level: two threads hammer one shared counter through the real
/// DSTM under each manager. Both must complete all their committed
/// increments (watchdog: 30 s — livelock shows up as a timeout, and the
/// final counter value detects lost updates).
#[test]
fn two_thread_collision_completes_under_every_manager() {
    const OPS: u64 = 200;
    for (name, cm) in managers() {
        let stm = Arc::new(DstmWord::new(Dstm::new(cm)));
        let x = stm.alloc_tvar(0);
        let (done_tx, done_rx) = mpsc::channel();
        for p in 0..2u32 {
            let stm = Arc::clone(&stm);
            let done = done_tx.clone();
            std::thread::spawn(move || {
                for _ in 0..OPS {
                    run_transaction(&*stm, p, |tx| {
                        let v = tx.read(x)?;
                        tx.write(x, v + 1)
                    });
                }
                let _ = done.send(p);
            });
        }
        drop(done_tx);
        for _ in 0..2 {
            done_rx
                .recv_timeout(Duration::from_secs(30))
                .unwrap_or_else(|_| panic!("{name}: collision livelocked (watchdog expired)"));
        }
        assert_eq!(stm.peek(x), Some(2 * OPS), "{name}: lost updates");
    }
}
