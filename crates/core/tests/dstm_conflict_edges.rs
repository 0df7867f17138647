//! Edge-attribution exactness for DSTM: a deterministically forced
//! conflict must produce exactly one who-aborted-whom edge naming the
//! aggressor **transaction** (not just its process) — via the
//! descriptor's killer stamp for a contention-manager kill, via the
//! owner of the locator that replaced the one we read for a failed
//! validation. Sibling of the cause-exactness tests in
//! `cm_forced_conflict.rs`.

use oftm_core::cm::{Aggressive, Courteous};
use oftm_core::dstm::{Dstm, DstmWord};
use oftm_core::WordStm;
use oftm_obs::{pack_tx, AbortCause};
use std::sync::Arc;

/// Forced CM kill under the Aggressive manager: the writer meeting a
/// live owner stamps the owner's descriptor and kills it. The victim's
/// discovery must yield exactly one edge carrying the killer's exact
/// packed transaction id, the victim's, the arbitration cause, and the
/// contested t-variable.
#[test]
fn forced_cm_kill_records_one_exact_edge() {
    let stm = DstmWord::new(Dstm::new(Arc::new(Aggressive)));
    let x = stm.alloc_tvar(0);
    let forensics = stm.stats().forensics();
    forensics.reset();

    let mut victim = stm.begin(0);
    let victim_id = victim.id();
    victim.write(x, 1).expect("first ownership is uncontended");
    let mut killer = stm.begin(1);
    let killer_id = killer.id();
    killer.write(x, 2).expect("aggressive kills the owner");
    killer.try_commit().expect("killer commits unopposed");
    assert!(
        victim.try_commit().is_err(),
        "killed transaction cannot commit"
    );

    let edges = forensics.top_k(8);
    assert_eq!(edges.len(), 1, "exactly one edge: {edges:?}");
    let e = &edges[0];
    assert_eq!(e.count, 1);
    assert_eq!(e.cause, AbortCause::CmArbitrated);
    assert_eq!(e.var, x.0, "edge names the contested t-variable");
    assert_eq!(e.aggressor_proc, killer_id.proc);
    assert_eq!(e.victim_proc, victim_id.proc);
    // The killer stamp carries the full packed id — transaction-exact
    // attribution, not merely the right process.
    assert_eq!(e.last_aggressor, pack_tx(killer_id.proc, killer_id.seq));
    assert_eq!(e.last_victim, pack_tx(victim_id.proc, victim_id.seq));

    let hot = forensics.top_vars(4);
    assert_eq!(hot.len(), 1, "one hot variable: {hot:?}");
    assert_eq!(hot[0].var, x.0);
    assert_eq!(hot[0].total, 1);
    assert_eq!(hot[0].dominant_cause(), AbortCause::CmArbitrated);
}

/// Forced stale read under Courteous: commit-time validation catches the
/// invalidated read, and the locator now installed in the variable names
/// the transaction whose acquisition replaced the one we read — the same
/// meaning TL/TL2's writer stamp has. Exactly one edge: that writer,
/// `ReadValidation`, over `x`.
#[test]
fn stale_read_names_the_writer_that_replaced_the_locator() {
    let stm = DstmWord::new(Dstm::new(Arc::new(Courteous)));
    let x = stm.alloc_tvar(0);
    let forensics = stm.stats().forensics();
    forensics.reset();

    let mut reader = stm.begin(0);
    let reader_id = reader.id();
    assert_eq!(reader.read(x).expect("clean first read"), 0);
    let mut writer = stm.begin(1);
    let writer_id = writer.id();
    writer.write(x, 7).expect("writer is unopposed");
    writer.try_commit().expect("writer commits");
    assert!(
        reader.try_commit().is_err(),
        "validation catches the stale read"
    );

    let hot = forensics.top_vars(4);
    assert_eq!(hot.len(), 1, "the stale variable is attributed: {hot:?}");
    assert_eq!(hot[0].var, x.0);
    assert_eq!(hot[0].dominant_cause(), AbortCause::ReadValidation);
    let edges = forensics.top_k(8);
    assert_eq!(edges.len(), 1, "exactly one edge: {edges:?}");
    let e = &edges[0];
    assert_eq!((e.count, e.cause), (1, AbortCause::ReadValidation));
    assert_eq!(e.var, x.0);
    assert_eq!(e.last_aggressor, pack_tx(writer_id.proc, writer_id.seq));
    assert_eq!(e.last_victim, pack_tx(reader_id.proc, reader_id.seq));
}
