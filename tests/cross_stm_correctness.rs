//! Integration: every STM implementation in the workspace, driven through
//! the uniform word interface under concurrency, must produce histories
//! that pass the paper's safety checkers — and the obstruction-free ones
//! must additionally pass Definition 2.

use oftm::core::api::{run_transaction, WordStm};
use oftm::Recorder;
use oftm_bench::STM_NAMES as STMS;
use oftm_histories::{check_of, conflict_serializable, serializable, TVarId};
use std::sync::Arc;

fn instrumented(name: &str) -> (Box<dyn WordStm>, Arc<Recorder>) {
    let rec = Arc::new(Recorder::new());
    let stm = oftm_bench::make_stm(name, Some(Arc::clone(&rec)));
    (stm, rec)
}

#[test]
fn concurrent_histories_are_serializable_everywhere() {
    for name in STMS {
        let (stm, rec) = instrumented(name);
        stm.register_tvar(TVarId(0), 0);
        stm.register_tvar(TVarId(1), 0);
        std::thread::scope(|s| {
            for p in 0..3u32 {
                let stm = &stm;
                s.spawn(move || {
                    for i in 0..8u64 {
                        run_transaction(&**stm, p, |tx| {
                            let a = tx.read(TVarId(i % 2))?;
                            tx.write(TVarId((i + 1) % 2), a + 1)
                        });
                    }
                });
            }
        });
        let h = rec.snapshot();
        assert!(
            conflict_serializable(&h),
            "{name}: concurrent history not conflict-serializable"
        );
    }
}

#[test]
fn small_histories_pass_exact_serializability() {
    for name in STMS {
        let (stm, rec) = instrumented(name);
        stm.register_tvar(TVarId(0), 0);
        std::thread::scope(|s| {
            for p in 0..2u32 {
                let stm = &stm;
                s.spawn(move || {
                    for _ in 0..3 {
                        run_transaction(&**stm, p, |tx| {
                            let a = tx.read(TVarId(0))?;
                            tx.write(TVarId(0), a + 1)
                        });
                    }
                });
            }
        });
        let h = rec.snapshot();
        assert!(
            serializable(&h, 20).is_serializable(),
            "{name}: exact serializability failed"
        );
        // The committed counter value is the number of committed increments.
        let (v, _) = run_transaction(&*stm, 9, |tx| tx.read(TVarId(0)));
        assert_eq!(v, 6, "{name}: lost update");
    }
}

#[test]
fn obstruction_free_impls_satisfy_definition_2() {
    for name in STMS {
        let (stm, rec) = instrumented(name);
        if !stm.is_obstruction_free() {
            continue;
        }
        stm.register_tvar(TVarId(0), 0);
        stm.register_tvar(TVarId(1), 0);
        std::thread::scope(|s| {
            for p in 0..4u32 {
                let stm = &stm;
                s.spawn(move || {
                    for _ in 0..10 {
                        run_transaction(&**stm, p, |tx| {
                            let a = tx.read(TVarId(0))?;
                            let b = tx.read(TVarId(1))?;
                            tx.write(TVarId(0), a + 1)?;
                            tx.write(TVarId(1), b + 1)
                        });
                    }
                });
            }
        });
        let h = rec.snapshot();
        let violations = check_of(&h);
        assert!(
            violations.is_empty(),
            "{name}: Definition 2 violations: {violations:?}"
        );
    }
}

/// Dynamic allocation is part of the uniform interface: every STM hands
/// out contiguous blocks, usable immediately from inside a running
/// transaction, with ids disjoint from the static range.
#[test]
fn alloc_tvar_uniform_across_stms() {
    for name in STMS {
        let (stm, _) = instrumented(name);
        stm.register_tvar(TVarId(0), 0);
        let (node, _) = run_transaction(&*stm, 1, |tx| {
            let node = stm.alloc_tvar_block(&[10, 20, 30]);
            let a = tx.read(node)?;
            let b = tx.read(TVarId(node.0 + 1))?;
            let c = tx.read(TVarId(node.0 + 2))?;
            tx.write(TVarId(0), a + b + c)?;
            Ok(node)
        });
        assert!(
            node.0 >= oftm::core::table::DYNAMIC_TVAR_BASE,
            "{name}: dynamic id in static range"
        );
        let (sum, _) = run_transaction(&*stm, 2, |tx| tx.read(TVarId(0)));
        assert_eq!(sum, 60, "{name}: block initial values wrong");
        let other = stm.alloc_tvar(5);
        assert!(other.0 >= node.0 + 3, "{name}: blocks overlap");
    }
}

/// The seventh STM across forced migrations: four threads increment one
/// word with a preemption point inside each increment, and thread 0
/// migrates the hybrid after every fourth of its own, so both embedded
/// engines run conflicting transactions of one recorded history. It must
/// be conflict-serializable and lose no increment. The run begins far
/// fewer transactions than one window of the hybrid's policy, so the
/// three forced migrations are all there are.
#[test]
fn hybrid_history_spanning_forced_migration_is_serializable() {
    let rec = Arc::new(Recorder::new());
    let stm = oftm::HybridStm::with_recorder(Arc::clone(&rec));
    stm.register_tvar(TVarId(0), 0);
    std::thread::scope(|s| {
        for p in 0..4u32 {
            let stm = &stm;
            s.spawn(move || {
                for i in 1..=16u64 {
                    run_transaction(stm, p, |tx| {
                        let v = tx.read(TVarId(0))?;
                        std::thread::yield_now(); // preemption point
                        tx.write(TVarId(0), v + 1)
                    });
                    if p == 0 && i % 4 == 0 && i < 16 {
                        assert!(stm.migrate(stm.mode().other()), "uncontended barrier");
                    }
                }
            });
        }
    });
    assert_eq!(stm.migrations(), 3);
    let h = rec.snapshot();
    assert!(
        conflict_serializable(&h),
        "history spanning a migration is not conflict-serializable"
    );
    let (v, _) = run_transaction(&stm, 9, |tx| tx.read(TVarId(0)));
    assert_eq!(v, 64, "lost update across migration");
}

/// A contract-breaking zombie: its variable is evicted under it with
/// `free_tvar_block` directly — no grace period, so nothing but the
/// zombie's own guard stands between its logs (which *borrow* the
/// variable) and freed memory. Whatever it does next must end in a clean
/// commit or abort, or in the uniform `not registered` panic.
#[test]
fn zombie_over_an_evicted_variable_fails_cleanly() {
    use oftm::core::api::TxResult;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    for name in STMS {
        for reread in [false, true] {
            let stm = oftm_bench::make_stm(name, None);
            stm.register_tvar(TVarId(0), 0);
            let node = stm.alloc_tvar_block(&[7, 8]);
            let outcome = catch_unwind(AssertUnwindSafe(|| -> TxResult<()> {
                let mut zombie = stm.begin(1);
                // Both logs now hold an entry over the block.
                assert_eq!(zombie.read(node)?, 7);
                zombie.write(TVarId(node.0 + 1), 9)?;
                stm.free_tvar_block(node, 2);
                if *name != "coarse" {
                    // A foreign commit: the zombie must re-validate what
                    // it read. (Under the global lock nobody else can run
                    // beside the zombie; its undo log is the borrower.)
                    run_transaction(&*stm, 2, |tx| {
                        let v = tx.read(TVarId(0))?;
                        tx.write(TVarId(0), v + 1)
                    });
                }
                zombie.read(TVarId(0))?;
                if reread {
                    let v = zombie.read(node)?;
                    assert_eq!(v, 7, "{name}: evicted variable read garbage");
                }
                zombie.try_commit()
            }));
            if let Err(payload) = outcome {
                let msg = payload
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_default();
                assert!(
                    msg.contains("not registered"),
                    "{name} (reread: {reread}): zombie died of {msg:?}"
                );
            }
            // The instance is still usable and the eviction stood.
            let (v, _) = run_transaction(&*stm, 3, |tx| tx.read(TVarId(0)));
            assert!(v <= 1, "{name}: {v}");
            assert_eq!(stm.live_tvars(), 1, "{name}");
        }
    }
}

#[test]
fn obstruction_freedom_flags_match_design() {
    let expectations = [
        ("dstm", true),
        ("tl", false),
        ("tl2", false),
        ("coarse", false),
        ("algo2-cas", true),
        ("algo2-splitter", true),
        // The hybrid's default mode is a lock-based TM (TL2): it trades
        // obstruction-freedom for throughput, which is the point.
        ("hybrid", false),
    ];
    for (name, expect) in expectations {
        let (stm, _) = instrumented(name);
        assert_eq!(stm.is_obstruction_free(), expect, "{name}");
    }
}
