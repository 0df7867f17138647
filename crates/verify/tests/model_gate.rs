//! Exhaustive bounded-preemption checks of the commit-counter gate
//! ([`oftm_core::kernel::CommitGate`]) — the *production* code behind
//! DSTM's read-set validation — plus negative oracles.
//!
//! The gate's callers are modelled as a miniature DSTM over instrumented
//! atomics: a t-variable is a pointer word (`0` = no locator yet, so the
//! value is `T_0`'s 0 — literally the engine's null pointer, whose
//! t-variable holds `T_0`'s value inline; `k` = writer `k`'s locator, old
//! 0 / new 1), each writer's locator has a stamp word its owner stores its
//! settled verdict into, a descriptor is a status word, a read resolves
//! the pointer the way `Tx::read` does — the stamp first, the owner's
//! status only while the stamp is unset, revoking a live owner as the
//! `Aggressive` manager would — and records the address it saw, and the
//! read-set scan compares addresses. Every validation decision goes
//! through the kernel.
//!
//! Two properties, each with the orderings that break it:
//!
//! * **no torn pair** (opacity): a writer moves `x` and `y` together; a
//!   reader that gets both reads back sees them equal. Refuted when the
//!   writer bumps *after* publishing, when the reader adopts the counter
//!   value loaded *after* its scan, and when the writer stamps
//!   `Committed` into its locators *before* its status CAS.
//! * **no write skew**: two writers each read what the other writes; they
//!   cannot both commit on the initial values. Refuted when a committer
//!   validates *before* its bump.

use oftm_core::kernel::{AtomicU64Like, CommitGate};
use oftm_verify::model::sync::MAtomicU64;
use oftm_verify::model::{check, Builder, Config, Outcome};
use std::sync::atomic::Ordering::SeqCst;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const LIVE: u64 = 0;
const COMMITTED: u64 = 1;
const ABORTED: u64 = 2;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Variant {
    Sound,
    /// BUG: the status CAS publishes the write-set before the bump.
    BumpAfterPublish,
    /// BUG: a passed scan adopts the counter value loaded after it.
    AdoptAfterScan,
    /// BUG: a committer gate-checks first and bumps afterwards.
    ValidateBeforeBump,
    /// BUG: a committer stamps `Committed` into its locators before its
    /// status CAS (here: before its commit point).
    StampBeforeCommit,
}

struct World {
    /// Locator pointers of the t-variables (`0`: null, `T_0`'s value).
    ptr: [MAtomicU64; 2],
    /// Status words of writers 1 and 2.
    status: [MAtomicU64; 2],
    /// `stamp[k - 1][var]`: the stamp word of writer `k`'s locator in
    /// `var` (`LIVE` = unset).
    stamp: [[MAtomicU64; 2]; 2],
    gate: CommitGate<MAtomicU64>,
    variant: Variant,
}

/// A transaction's validation state: `(variable, address)` read-set, the
/// counter value it was last known valid under, and the variables it
/// installed a locator in.
struct Txn<'w> {
    w: &'w World,
    reads: Vec<(usize, u64)>,
    seen: u64,
    installed: Vec<usize>,
}

impl World {
    fn new(variant: Variant) -> Arc<Self> {
        Arc::new(World {
            ptr: [MAtomicU64::new(0), MAtomicU64::new(0)],
            status: [MAtomicU64::new(LIVE), MAtomicU64::new(LIVE)],
            stamp: std::array::from_fn(|_| [MAtomicU64::new(LIVE), MAtomicU64::new(LIVE)]),
            gate: CommitGate::default(),
            variant,
        })
    }

    fn begin(&self) -> Txn<'_> {
        Txn {
            w: self,
            reads: Vec::new(),
            seen: self.gate.sample(),
            installed: Vec::new(),
        }
    }

    /// A commit that swings nothing we look at: just the bump.
    fn bump(&self) {
        let _ = self.gate.commit_point(u64::MAX, || None::<usize>);
    }
}

impl Txn<'_> {
    fn scan(&self) -> Option<usize> {
        self.reads
            .iter()
            .find(|&&(var, addr)| self.w.ptr[var].load(SeqCst) != addr)
            .map(|&(var, _)| var)
    }

    /// The gate check after a read or an acquisition and at a read-only
    /// commit; `None` aborts the transaction.
    fn validate(&mut self) -> Option<()> {
        let gate = &self.w.gate;
        self.seen = if self.w.variant == Variant::AdoptAfterScan {
            if gate.sample() != self.seen && self.scan().is_some() {
                return None;
            }
            gate.sample()
        } else {
            gate.check(self.seen, || self.scan()).ok()?
        };
        Some(())
    }

    /// One invisible read: resolve, record the address, gate-check.
    fn read(&mut self, var: usize) -> Option<u64> {
        let (addr, val) = loop {
            let p = self.w.ptr[var].load(SeqCst);
            if p == 0 {
                break (0, 0);
            }
            let owner = &self.w.status[p as usize - 1];
            let verdict = match self.w.stamp[p as usize - 1][var].load(SeqCst) {
                LIVE => owner.load(SeqCst),
                stamped => stamped,
            };
            match verdict {
                COMMITTED => break (p, 1),
                ABORTED => break (p, 0),
                _ => {
                    let _ = owner.compare_exchange(LIVE, ABORTED, SeqCst, SeqCst);
                }
            }
        };
        self.reads.push((var, addr));
        self.validate()?;
        Some(val)
    }

    /// Acquires `var` for writer `me`. Each variable has one writer in
    /// these scenarios, so the CAS from null cannot fail.
    fn acquire(&mut self, me: u64, var: usize) -> Option<()> {
        self.w.ptr[var]
            .compare_exchange(0, me, SeqCst, SeqCst)
            .expect("sole writer of the variable");
        self.installed.push(var);
        self.validate()
    }

    /// Writer `me` stores `verdict` into every locator it installed.
    fn stamp(&self, me: u64, verdict: u64) {
        for &var in &self.installed {
            self.w.stamp[me as usize - 1][var].store(verdict, SeqCst);
        }
    }

    /// Writer `me` settles its abort — its own CAS, or a peer's that got
    /// there first — and stamps it.
    fn abort(&self, me: u64) {
        let status = &self.w.status[me as usize - 1];
        let _ = status.compare_exchange(LIVE, ABORTED, SeqCst, SeqCst);
        self.stamp(me, ABORTED);
    }

    /// Update commit of writer `me`; `true` if the status CAS won.
    fn commit(mut self, me: u64) -> bool {
        let status = &self.w.status[me as usize - 1];
        let publish = |t: &Self| {
            let won = status
                .compare_exchange(LIVE, COMMITTED, SeqCst, SeqCst)
                .is_ok();
            t.stamp(me, if won { COMMITTED } else { ABORTED });
            won
        };
        let valid = match self.w.variant {
            Variant::BumpAfterPublish => {
                let won = self.validate().is_some() && publish(&self);
                self.w.bump();
                return won;
            }
            Variant::ValidateBeforeBump => {
                let valid = self.validate().is_some();
                self.w.bump();
                valid
            }
            Variant::StampBeforeCommit => {
                self.stamp(me, COMMITTED);
                self.w.gate.commit_point(self.seen, || self.scan()).is_ok()
            }
            _ => self.w.gate.commit_point(self.seen, || self.scan()).is_ok(),
        };
        if !valid {
            self.abort(me);
            return false;
        }
        publish(&self)
    }
}

/// One writer moves `x` and `y` from (0, 0) to (1, 1); one reader reads
/// both through the gate and commits read-only. With `foreign_first` an
/// unrelated commit precedes the writer's transaction, so the reader can
/// be made to scan while the writer's acquisitions are still to come.
fn torn_pair(name: &'static str, variant: Variant, foreign_first: bool) -> Outcome {
    check(Config::new(name).preemptions(2), move |b: &mut Builder| {
        let w = World::new(variant);
        {
            let w = Arc::clone(&w);
            b.thread("writer", move || {
                if foreign_first {
                    w.bump();
                }
                let mut t = w.begin();
                if t.acquire(1, 0).and_then(|()| t.acquire(1, 1)).is_some() {
                    t.commit(1);
                } else {
                    t.abort(1);
                }
            });
        }
        b.thread("reader", move || {
            let mut t = w.begin();
            let Some(x) = t.read(0) else { return };
            let Some(y) = t.read(1) else { return };
            assert_eq!(x, y, "torn pair: x = {x}, y = {y}");
            let _ = t.validate();
        });
    })
}

/// Writer 1 reads `a` and writes `b`; writer 2 reads `b` and writes `a`.
fn write_skew(name: &'static str, variant: Variant) -> Outcome {
    check(Config::new(name).preemptions(2), move |b: &mut Builder| {
        let w = World::new(variant);
        // Per writer: 0 = did not commit, 1 + the value it read otherwise.
        let outcome = Arc::new([AtomicU64::new(0), AtomicU64::new(0)]);
        for (name, me, reads, writes) in [("writer-1", 1u64, 0, 1), ("writer-2", 2u64, 1, 0)] {
            let (w, outcome) = (Arc::clone(&w), Arc::clone(&outcome));
            b.thread(name, move || {
                let mut t = w.begin();
                let Some(v) = t.read(reads) else { return };
                if t.acquire(me, writes).is_none() {
                    return t.abort(me);
                }
                if t.commit(me) {
                    outcome[me as usize - 1].store(1 + v, Ordering::Relaxed);
                }
            });
        }
        b.after(move || {
            let read = |i: usize| outcome[i].load(Ordering::Relaxed);
            assert!(
                !(read(0) == 1 && read(1) == 1),
                "write skew: both committed on the initial values"
            );
        });
    })
}

#[test]
fn gate_never_lets_a_torn_pair_through() {
    for foreign_first in [false, true] {
        let report = torn_pair("gate-torn-pair", Variant::Sound, foreign_first)
            .unwrap_or_else(|ce| panic!("{ce}"));
        assert!(
            report.executions > 50,
            "only {} schedules",
            report.executions
        );
        eprintln!(
            "gate-torn-pair (foreign commit first: {foreign_first}): {} schedules, no counterexample",
            report.executions
        );
    }
}

#[test]
fn gate_orders_conflicting_committers() {
    let report = write_skew("gate-write-skew", Variant::Sound).unwrap_or_else(|ce| panic!("{ce}"));
    assert!(
        report.executions > 50,
        "only {} schedules",
        report.executions
    );
    eprintln!(
        "gate-write-skew: {} schedules, no counterexample",
        report.executions
    );
}

// ---------------------------------------------------------------------------
// Negative oracles.
// ---------------------------------------------------------------------------

#[test]
fn broken_bump_after_publish_is_caught() {
    // The reader sees `y` committed while the counter still reads what it
    // sampled, so nothing makes it look at `x` again.
    let err = torn_pair(
        "broken-bump-after-publish",
        Variant::BumpAfterPublish,
        false,
    )
    .expect_err("publishing before the bump must tear a pair");
    assert!(err.message.contains("torn pair"), "{err}");
    assert!(!err.seed.is_empty());
}

#[test]
fn broken_adopt_after_scan_is_caught() {
    // The writer acquires and bumps between the reader's scan and its
    // second counter load: the adopted value covers a commit the scan
    // never saw.
    let err = torn_pair("broken-adopt-after-scan", Variant::AdoptAfterScan, true)
        .expect_err("adopting the post-scan counter must tear a pair");
    assert!(err.message.contains("torn pair"), "{err}");
    assert!(!err.seed.is_empty());
}

#[test]
fn broken_stamp_before_commit_is_caught() {
    // The reader reads `x` while it is still null, the writer acquires
    // both and stamps them `Committed` ahead of its bump: the reader takes
    // `y` from the stamp while the counter still reads what it sampled.
    let err = torn_pair(
        "broken-stamp-before-commit",
        Variant::StampBeforeCommit,
        false,
    )
    .expect_err("stamping before the status CAS must tear a pair");
    assert!(err.message.contains("torn pair"), "{err}");
    assert!(!err.seed.is_empty());
}

#[test]
fn broken_validate_before_bump_is_caught() {
    // Both committers pass the gate before either has bumped: acquisitions
    // alone do not move the counter, so neither sees the other.
    let err = write_skew("broken-validate-before-bump", Variant::ValidateBeforeBump)
        .expect_err("validating before the bump must admit write skew");
    assert!(err.message.contains("write skew"), "{err}");
    assert!(!err.seed.is_empty());
}
