//! Oracles for the declared read-only fast path (ISSUE 6):
//!
//! 1. **Wait-free bound** — on TL/TL2 a single-variable read-only
//!    transaction commits on its *first* attempt even while a writer
//!    commits to its footprint as fast as it can. The RO read is a
//!    bounded lock/value/lock sandwich against the begin-time version
//!    vector with a first-read snapshot refresh, so no writer schedule
//!    can force a retry — `attempts == 1` is a hard invariant, not a
//!    statistical one.
//! 2. **Snapshot consistency** — on *every* backend, an RO scan of a
//!    multi-variable conserved quantity (transfer accounts) never
//!    observes a torn total, no matter how the scan interleaves with
//!    committing transfers.
//! 3. **The declaration's contract** — on *every* backend, `write` and
//!    `retire_tvar_block` on a `begin_ro` handle panic with "read-only".

use oftm_baselines::{Tl2Stm, TlStm};
use oftm_bench::{make_stm, STM_NAMES};
use oftm_core::api::{
    run_transaction_ro, run_transaction_ro_with_budget, run_transaction_with_budget, WordStm,
};
use oftm_histories::TVarId;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};

const BUDGET: u32 = 50_000;

/// Sets the flag when dropped — including on unwind, so a failed
/// assertion in the reader cannot strand the writer's spin loop and turn
/// a test failure into a hang.
struct StopOnDrop<'a>(&'a AtomicBool);
impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

/// RO transactions on TL/TL2 are wait-free: a continuously committing
/// writer on the exact footprint cannot force even one retry.
#[test]
fn wait_free_ro_single_attempt_under_writer_on_tl_tl2() {
    const READS: u64 = 4_000;
    let x = TVarId(0);
    let stms: [(&str, Box<dyn WordStm>); 2] = [
        // The one way a single-variable RO read can abort is exhausting
        // its lock patience on a writer that the OS preempted mid-commit.
        // That is scheduler noise, not a progress property of the
        // algorithm — raise the patience (~100 ms of spins) so the oracle
        // measures the retry bound, not the CI box's timeslice.
        ("tl", {
            let mut s = TlStm::new();
            s.lock_patience = 1 << 26;
            Box::new(s)
        }),
        ("tl2", {
            let mut s = Tl2Stm::new();
            s.lock_patience = 1 << 26;
            Box::new(s)
        }),
    ];
    for (name, stm) in stms {
        stm.register_tvar(x, 0);
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                // Writer: commit to the reader's footprint back-to-back.
                while !stop.load(Ordering::Relaxed) {
                    run_transaction_with_budget(&*stm, 0, BUDGET, |tx| {
                        let v = tx.read(x)?;
                        tx.write(x, v + 1)
                    })
                    .expect("writer livelocked");
                }
            });
            let _stop_guard = StopOnDrop(&stop);
            let mut last = 0u64;
            for i in 0..READS {
                let (v, attempts) = run_transaction_ro(&*stm, 1, |tx| tx.read(x));
                assert_eq!(
                    attempts, 1,
                    "{name}: RO read #{i} took {attempts} attempts — the read-only \
                     path must be wait-free under write contention"
                );
                assert!(v >= last, "{name}: RO reads went backwards ({last} -> {v})");
                last = v;
            }
        });
    }
}

/// RO scans are opaque on every backend: a conserved multi-variable
/// invariant (transfer totals) is never observed torn, regardless of how
/// the scan interleaves with committing writers.
#[test]
fn ro_scan_never_observes_torn_invariant_all_stms() {
    const ACCOUNTS: u64 = 4;
    const INIT: u64 = 1_000;
    for name in STM_NAMES {
        // Algorithm 2's reads acquire, as in the paper's listing, so a scan
        // revokes the transfers it overlaps and they revoke it: it
        // livelocks at high op counts; scale like the harness does.
        let (transfers, scans) = if name.starts_with("algo2") {
            (60u64, 60u64)
        } else {
            (600, 600)
        };
        let stm = make_stm(name, None);
        for a in 0..ACCOUNTS {
            stm.register_tvar(TVarId(a), INIT);
        }
        std::thread::scope(|s| {
            for w in 0..2u32 {
                let stm = &stm;
                s.spawn(move || {
                    let mut rng = oftm_bench::SplitMix(0xD00D ^ u64::from(w) << 21);
                    for _ in 0..transfers {
                        let from = TVarId(rng.next() % ACCOUNTS);
                        let to = TVarId(rng.next() % ACCOUNTS);
                        let amount = rng.next() % 7;
                        run_transaction_with_budget(&**stm, w, BUDGET, |tx| {
                            let f = tx.read(from)?;
                            if from != to && f >= amount {
                                let t = tx.read(to)?;
                                tx.write(from, f - amount)?;
                                tx.write(to, t + amount)?;
                            }
                            Ok(())
                        })
                        .expect("transfer livelocked");
                    }
                });
            }
            let stm = &stm;
            s.spawn(move || {
                for i in 0..scans {
                    let (total, _) = run_transaction_ro_with_budget(&**stm, 2, BUDGET, |tx| {
                        let mut sum = 0u64;
                        for a in 0..ACCOUNTS {
                            sum += tx.read(TVarId(a))?;
                        }
                        Ok(sum)
                    })
                    .expect("RO scan livelocked");
                    assert_eq!(
                        total,
                        ACCOUNTS * INIT,
                        "{name}: RO scan #{i} observed a torn transfer"
                    );
                }
            });
        });
    }
}

/// A declared read-only handle refuses writes and retires on every
/// backend, the hybrid's forwarding handle included: the contract of
/// [`WordStm::begin_ro`] is the same everywhere, so the backend is just
/// one more input.
#[test]
fn declared_ro_handles_refuse_writes_and_retires_on_every_stm() {
    let x = TVarId(0);
    for name in STM_NAMES {
        for op in ["write", "retire_tvar_block"] {
            // A fresh instance per call: the unwind drops the handle
            // mid-transaction, which may poison a blocking backend's gate.
            let stm = make_stm(name, None);
            stm.register_tvar(x, 0);
            let payload = catch_unwind(AssertUnwindSafe(|| {
                let mut tx = stm.begin_ro(0);
                if op == "write" {
                    let _ = tx.write(x, 1);
                } else {
                    tx.retire_tvar_block(x, 1);
                }
            }))
            .expect_err(&format!("{name}: {op} on a begin_ro handle must panic"));
            let message = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or_default();
            assert!(
                message.contains("read-only"),
                "{name}: {op} on a begin_ro handle panicked with {message:?}"
            );
        }
    }
}
