//! Edge-attribution exactness for the versioned-lock engine, on both read
//! policies: deterministically forced conflicts must land in the forensics
//! tables with the right cause, the right t-variable, and the committing
//! peer's process named via the per-variable writer stamp — sibling of
//! `vlock_abort_causes.rs` (cause exactness) and
//! `oftm-core/tests/dstm_conflict_edges.rs` (transaction-exact DSTM edges).

use oftm_baselines::{Tl2Stm, TlStm};
use oftm_core::api::WordStm;
use oftm_histories::TVarId;
use oftm_obs::{tx_proc, AbortCause};

const X: TVarId = TVarId(0);
const Y: TVarId = TVarId(1);

fn prepared<S: WordStm>(s: S) -> S {
    s.register_tvar(X, 0);
    s.register_tvar(Y, 0);
    s.stats().forensics().reset();
    s
}

/// Forced too-new read (TL2 only): the reader's snapshot predates the
/// writer's commit, so the read itself rejects the newer stamp. The edge
/// must carry `read_validation`, the contested variable, and the writer's
/// process (the last committer's stamp on the variable's lock word).
#[test]
fn too_new_read_yields_edge_with_right_cause_var_and_aggressor() {
    let s = prepared(Tl2Stm::new());

    let mut stale = s.begin(0); // snapshot taken here, all shards at 0
    let mut writer = s.begin(1);
    writer.write(X, 9).expect("buffered write cannot fail");
    writer.try_commit().expect("unopposed writer commits");
    assert!(stale.read(X).is_err(), "TL2 must reject the too-new stamp");
    assert!(stale.try_commit().is_err());

    let edges = s.stats().forensics().edges().top_k(8);
    assert_eq!(edges.len(), 1, "exactly one edge: {edges:?}");
    let e = &edges[0];
    assert_eq!(e.cause, AbortCause::ReadValidation);
    assert_eq!(e.var, X.0, "edge names the contested t-variable");
    assert_eq!(e.count, 1);
    assert_eq!(
        e.aggressor_proc, 1,
        "the committing writer is the aggressor"
    );
    assert_eq!(e.victim_proc, 0);
    assert_eq!(tx_proc(e.last_aggressor), 1);

    let hot = s.stats().forensics().heatmap().top_k(4);
    assert_eq!(hot.len(), 1);
    assert_eq!(hot[0].var, X.0);
    assert_eq!(hot[0].dominant_cause(), AbortCause::ReadValidation);
}

/// Forced commit-time validation failure: the read was clean when taken
/// and invalidated by a peer's commit before our own. The write-back
/// validation pass must attribute the invalidated variable and the
/// stamped committer — not the variable we were writing.
#[test]
fn stale_read_set_at_commit_yields_edge_on_the_read_variable() {
    let stms: [Box<dyn WordStm>; 2] = [
        Box::new(prepared(TlStm::new())),
        Box::new(prepared(Tl2Stm::new())),
    ];
    for s in stms {
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

        let edges = s.stats().forensics().edges().top_k(8);
        assert_eq!(edges.len(), 1, "{}: exactly one edge: {edges:?}", s.name());
        let e = &edges[0];
        assert_eq!(e.cause, AbortCause::ReadValidation);
        assert_eq!(e.var, X.0, "the READ variable, not the written one");
        assert_eq!(e.count, 1);
        assert_eq!(e.aggressor_proc, 1);
        assert_eq!(e.victim_proc, 0);
    }
}
