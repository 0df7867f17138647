//! Abort-cause exactness for the versioned-lock engine, on both read
//! policies: each deterministically forced conflict must increment its one
//! documented cause counter exactly once, with every other cause bucket
//! untouched (the taxonomy is a partition — sibling of the DSTM tests in
//! `oftm-core/tests/cm_forced_conflict.rs`). Read-time `lock_busy` needs a
//! held commit lock and is pinned by the engine's unit tests.

use oftm_baselines::{Tl2Stm, TlStm};
use oftm_core::api::WordStm;
use oftm_histories::TVarId;
use oftm_obs::{AbortCause, Counter, StatsSnapshot};

const X: TVarId = TVarId(0);
const Y: TVarId = TVarId(1);

/// Runs `case` against a fresh TL and a fresh TL2, X = Y = 0.
fn on_both(case: impl Fn(&dyn WordStm)) {
    let stms: [Box<dyn WordStm>; 2] = [Box::new(TlStm::new()), Box::new(Tl2Stm::new())];
    for s in stms {
        s.register_tvar(X, 0);
        s.register_tvar(Y, 0);
        case(&*s);
    }
}

fn assert_only_cause(s: &dyn WordStm, delta: &StatsSnapshot, expected: AbortCause, n: u64) {
    for &cause in oftm_obs::ABORT_CAUSES {
        let want = if cause == expected { n } else { 0 };
        assert_eq!(
            delta.get(cause.counter()),
            want,
            "{}: cause {} moved unexpectedly (wanted {expected:?} × {n})",
            s.name(),
            cause.name()
        );
    }
    assert_eq!(delta.aborts(), n, "{}: derived abort total", s.name());
}

/// Forced too-new read (TL2 only — TL has no snapshot to be newer than): a
/// transaction begun before a peer's commit must reject the newer stamp at
/// read time — TL2's snapshot check proper, tagged `read_validation` once
/// (the doomed commit afterwards may not re-tag).
#[test]
fn too_new_read_tags_read_validation_exactly_once() {
    let s = Tl2Stm::new();
    s.register_tvar(X, 0);
    let before = s.stats().snapshot();

    let mut stale = s.begin(0); // read snapshot taken here, all shards at 0
    let mut writer = s.begin(1);
    writer.write(X, 9).expect("buffered write cannot fail");
    writer.try_commit().expect("unopposed writer commits");
    assert!(stale.read(X).is_err(), "TL2 must reject the too-new stamp");
    // The transaction is dead; its commit fails without a second tag.
    assert!(stale.try_commit().is_err());

    let delta = s.stats().snapshot().since(&before);
    assert_only_cause(&s, &delta, AbortCause::ReadValidation, 1);
    assert_eq!(delta.get(Counter::Begins), 2);
    assert_eq!(delta.get(Counter::Commits), 1, "only the writer committed");
}

/// Forced commit-time validation failure: the read was clean when taken,
/// but a peer commits a newer version before our own commit — the
/// write-back validation pass must abort us, tagged `read_validation`
/// exactly once.
#[test]
fn stale_read_set_at_commit_tags_read_validation_exactly_once() {
    on_both(|s| {
        let before = s.stats().snapshot();

        let mut t1 = s.begin(0);
        assert_eq!(t1.read(X).expect("clean first read"), 0);
        t1.write(Y, 1).expect("buffered write cannot fail");
        let mut t2 = s.begin(1);
        t2.write(X, 7).expect("buffered write cannot fail");
        t2.try_commit().expect("unopposed writer commits");
        assert!(
            t1.try_commit().is_err(),
            "commit validation must catch the invalidated read set"
        );

        let delta = s.stats().snapshot().since(&before);
        assert_only_cause(s, &delta, AbortCause::ReadValidation, 1);
        assert_eq!(delta.get(Counter::Commits), 1, "only t2 committed");
    });
}

/// A voluntary `tryA` on a live transaction is an `explicit_retry` —
/// exactly one, with every conflict bucket untouched.
#[test]
fn voluntary_abort_tags_explicit_retry_exactly_once() {
    on_both(|s| {
        let before = s.stats().snapshot();

        let mut tx = s.begin(0);
        assert_eq!(tx.read(X).expect("clean read"), 0);
        tx.try_abort();

        let delta = s.stats().snapshot().since(&before);
        assert_only_cause(s, &delta, AbortCause::ExplicitRetry, 1);
        assert_eq!(delta.get(Counter::Begins), 1);
        assert_eq!(delta.all_commits(), 0);
    });
}

/// Dropping a live transaction without finishing it counts as an
/// abandonment, not a conflict: `explicit_retry`, once.
#[test]
fn dropped_live_transaction_tags_explicit_retry_exactly_once() {
    on_both(|s| {
        let before = s.stats().snapshot();

        let mut tx = s.begin(0);
        tx.write(X, 1).expect("buffered write cannot fail");
        drop(tx);

        let delta = s.stats().snapshot().since(&before);
        assert_only_cause(s, &delta, AbortCause::ExplicitRetry, 1);
        assert_eq!(delta.all_commits(), 0);
    });
}
