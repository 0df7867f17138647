//! Reclamation gates: dynamic t-variables must not leak, and a freed id
//! must never resolve to a stale value.
//!
//! Four oracles, each across every STM in the workspace:
//!
//! * **Leak regression** — insert/remove churn at a steady set size keeps
//!   the live t-variable count exactly `1 + 2·|set|` (head plus two words
//!   per node): unlinked nodes are reclaimed once their grace period
//!   passes, aborted attempts release their allocations.
//! * **Use-after-free** — re-reading a freed id from a still-running
//!   transaction aborts or panics with the uniform `t-variable <x> not
//!   registered` diagnostic; it never returns a value. Conversely, a
//!   *retired* (but grace-protected) id still resolves for transactions
//!   that predate the retirement.
//! * **Isolation** — an instance's garbage, ids and memory alike, waits on
//!   that instance's transactions and on nobody else's.
//! * **Free × abort interleavings** — proptests drive random tapes of
//!   committing and deliberately aborted operations against a `BTreeSet`
//!   model, asserting the exact live count after every op.

mod common;

use common::{make_stm, STM_NAMES};
use oftm_core::TxError;
use oftm_structs::{atomically_budgeted, TxIntSet};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Expected live t-variables for a set of `n` elements: one head pointer
/// plus a `[value, next]` block per node.
fn expected_live(n: usize) -> usize {
    1 + 2 * n
}

/// Sequential churn at fixed size: after EVERY op the table must be
/// exactly as large as the structure — the strongest form of "bounded".
#[test]
fn sequential_churn_live_count_is_exact() {
    for name in STM_NAMES {
        let stm = make_stm(name);
        let set = TxIntSet::create(&*stm);
        let mut model = BTreeSet::new();
        let mut op = 0u64;
        for round in 0..30u64 {
            for v in 0..6u64 {
                let insert = (round + v) % 3 != 0;
                if insert {
                    assert_eq!(set.insert(&*stm, 0, v), model.insert(v), "{name}");
                } else {
                    assert_eq!(set.remove(&*stm, 0, v), model.remove(&v), "{name}");
                }
                op += 1;
                assert_eq!(
                    stm.live_tvars(),
                    expected_live(model.len()),
                    "{name}: leak after op {op} (model size {})",
                    model.len()
                );
            }
        }
        assert!(op > 100, "churned enough to expose a leak");
        let want: Vec<u64> = model.iter().copied().collect();
        assert_eq!(set.snapshot(&*stm, 0), want, "{name}");
    }
}

/// Concurrent churn, then quiescence: once the threads join and one more
/// transaction commits (flushing every grace bin), the table is exact.
#[test]
fn concurrent_churn_reclaims_at_quiescence() {
    for name in STM_NAMES {
        let stm = make_stm(name);
        let set = TxIntSet::create(&*stm);
        let threads = 3u64;
        std::thread::scope(|s| {
            for t in 0..threads {
                let stm = &stm;
                let set = &set;
                s.spawn(move || {
                    for i in 0..12u64 {
                        let v = t * 100 + (i % 4);
                        set.insert(&**stm, t as u32, v);
                        set.remove(&**stm, t as u32, v);
                    }
                });
            }
        });
        // The final snapshot transaction commits with nobody in flight,
        // sweeping every pending retirement.
        let snap = set.snapshot(&*stm, 9);
        assert_eq!(
            stm.live_tvars(),
            expected_live(snap.len()),
            "{name}: {} t-variables live for {} elements after quiescence",
            stm.live_tvars(),
            snap.len()
        );
    }
}

/// A transaction held open on one instance delays nothing on another:
/// `live_tvars()` is exact at the other's own quiescence, and state
/// evicted from another table is dropped at that table's next release
/// (under a process-wide epoch it waited for the open transaction).
#[test]
fn an_open_transaction_elsewhere_holds_nothing_back() {
    use oftm_core::table::VarTable;
    use std::sync::Arc;

    for name in STM_NAMES {
        let (a, b) = (make_stm(name), make_stm(name));
        let x = a.alloc_tvar(7);
        let mut open = a.begin(1);
        assert_eq!(open.read(x), Ok(7), "{name}");

        let set = TxIntSet::create(&*b);
        for v in 0..24u64 {
            set.insert(&*b, 0, v % 5);
            set.remove(&*b, 0, (v + 2) % 5);
        }
        let snap = set.snapshot(&*b, 0);
        assert_eq!(b.live_tvars(), expected_live(snap.len()), "{name}");

        // The table's values are clones of `token`, which counts them.
        let token = Arc::new(());
        let table: VarTable<Arc<()>> = VarTable::new();
        let blk = table.alloc_block(&[0], |_, _| Arc::clone(&token));
        table.remove_block(blk, 1);
        // A walk registers with the table's domain and releases: nothing
        // of that domain is in flight, so the release collects.
        table.for_each_live(|_, _, _| {});
        assert_eq!(
            Arc::strong_count(&token),
            1,
            "{name}: evicted state waited on a transaction of another instance"
        );
        assert_eq!(open.read(x), Ok(7), "{name}");
        assert!(open.try_commit().is_ok(), "{name}");
    }
}

/// A freed id must abort or panic with the uniform diagnostic on re-read —
/// never resolve. (Direct `free_tvar_block` stands in for "the grace
/// period elapsed": the tracker only ever frees ids no transaction can
/// legitimately reach, so any reader hitting one is buggy by definition
/// and must fail loudly.)
#[test]
fn freed_id_never_resolves_to_a_stale_value() {
    for name in STM_NAMES {
        let stm = make_stm(name);
        let node = stm.alloc_tvar_block(&[42, 0]);
        stm.free_tvar_block(node, 2);
        assert_eq!(stm.live_tvars(), 0, "{name}");
        let mut tx = stm.begin(1);
        let outcome = catch_unwind(AssertUnwindSafe(|| tx.read(node)));
        match outcome {
            Ok(Ok(v)) => panic!("{name}: freed id resolved to stale value {v}"),
            Ok(Err(TxError::Aborted)) => {}
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_default();
                assert!(
                    msg.contains("not registered"),
                    "{name}: panic lacks the uniform diagnostic: {msg:?}"
                );
            }
        }
    }
}

/// The flip side: a *retired* id is still resolvable by a transaction
/// that was in flight when the retirement committed (grace protection),
/// and only becomes unreachable after that transaction finishes.
#[test]
fn grace_period_keeps_retired_nodes_readable_for_predating_readers() {
    for name in STM_NAMES {
        if *name == "coarse" {
            // The global lock serializes transactions; a predating reader
            // cannot coexist with the removing transaction by design.
            continue;
        }
        let stm = make_stm(name);
        let set = TxIntSet::create(&*stm);
        set.insert(&*stm, 0, 7);
        let snap_before = stm.live_tvars();
        // Locate the node id non-transactionally: it is the only block
        // besides the head, allocated right after it.
        // (head = first alloc, node = second alloc of 2 words.)
        let mut reader = stm.begin(1);
        let head_val = reader.read(oftm_histories::TVarId(oftm_core::table::DYNAMIC_TVAR_BASE));
        let node = oftm_histories::TVarId(head_val.expect("head readable"));
        assert_eq!(reader.read(node).unwrap(), 7, "{name}");
        // A second process removes 7 and commits: the node is retired but
        // must survive `reader`.
        assert!(set.remove(&*stm, 2, 7), "{name}");
        assert_eq!(
            stm.live_tvars(),
            snap_before,
            "{name}: retired node freed under a predating reader"
        );
        // The predating reader still resolves it (or is aborted by the
        // conflict — legal; it must just never panic or read garbage).
        match catch_unwind(AssertUnwindSafe(|| reader.read(node))) {
            Ok(Ok(v)) => assert_eq!(v, 7, "{name}: stale value"),
            Ok(Err(TxError::Aborted)) => {}
            Err(_) => panic!("{name}: grace-protected node unreachable"),
        }
        reader.try_abort();
        // Quiescence: the next committed transaction sweeps the node.
        let _ = set.snapshot(&*stm, 3);
        assert_eq!(
            stm.live_tvars(),
            expected_live(0),
            "{name}: node leaked after the reader finished"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random interleavings of committing and deliberately ABORTED
    /// inserts/removes: aborted attempts must neither leak allocations
    /// (aborted insert) nor free live nodes (aborted remove), and the
    /// exact live count must track the model after every single op.
    #[test]
    fn aborted_ops_neither_leak_nor_free(
        ops in proptest::collection::vec((0u8..4, 0u64..10), 1..40),
    ) {
        for name in STM_NAMES {
            let stm = make_stm(name);
            let set = TxIntSet::create(&*stm);
            let mut model = BTreeSet::new();
            for &(op, v) in &ops {
                match op {
                    0 => {
                        prop_assert_eq!(set.insert(&*stm, 0, v), model.insert(v), "{} insert {}", name, v);
                    }
                    1 => {
                        prop_assert_eq!(set.remove(&*stm, 0, v), model.remove(&v), "{} remove {}", name, v);
                    }
                    2 => {
                        // Insert that aborts at the end of its (only)
                        // attempt: its freshly allocated node must be
                        // released, the set unchanged.
                        let r = atomically_budgeted(&*stm, 0, 1, |ctx| {
                            set.insert_in(ctx, v)?;
                            Err::<(), _>(TxError::Aborted)
                        });
                        prop_assert!(r.is_err(), "{}: aborted insert committed", name);
                    }
                    _ => {
                        // Remove that aborts: the retire-set must be
                        // discarded — the node stays.
                        let r = atomically_budgeted(&*stm, 0, 1, |ctx| {
                            set.remove_in(ctx, v)?;
                            Err::<(), _>(TxError::Aborted)
                        });
                        prop_assert!(r.is_err(), "{}: aborted remove committed", name);
                    }
                }
                prop_assert_eq!(
                    stm.live_tvars(),
                    expected_live(model.len()),
                    "{}: live count diverged after ({}, {})", name, op, v
                );
            }
            let want: Vec<u64> = model.iter().copied().collect();
            prop_assert_eq!(set.snapshot(&*stm, 0), want, "{} final snapshot", name);
            prop_assert_eq!(set.len(&*stm, 0), model.len(), "{} len (count_in)", name);
        }
    }
}
