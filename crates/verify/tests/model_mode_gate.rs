//! Exhaustive bounded-preemption checks of the mode gate
//! ([`oftm_core::kernel::ModeGate`]) — the *production* admission code of
//! `oftm-hybrid` — plus negative oracles.
//!
//! The gate's callers are modelled as a miniature hybrid over instrumented
//! atomics: two tables of value words ([`ABSENT`] = the id is not in that
//! table), table 0 the id authority (TL2) and table 1 the mirror (DSTM)
//! that holds ids only while mode 1 runs or is about to. An allocator
//! inserts into table 0 and asks the gate whether to mirror; a transaction
//! is admitted, writes one word of the engine it was admitted to and
//! leaves; a migration's quiescent section is the hybrid's `copy_values`:
//! escalating registers every id table 1 lacks with its current value and
//! compares the ones it holds, de-escalating copies differing values back
//! and empties table 1. Every admission, mirroring decision and barrier
//! goes through the kernel.
//!
//! Two properties, at preemption bound 2:
//!
//! * **one engine is hot** — no transaction runs on an engine while a
//!   transaction runs on the other or a barrier's quiescent section is
//!   open.
//! * **no id is lost** — a transaction finds the id it was handed in the
//!   table of the engine it was admitted to, and after every barrier the
//!   table of the current mode holds the id's last written value.
//!
//! The second is refuted for an allocator that decides whether to mirror
//! *before* its insert (no re-check after the fence), for a migrator whose
//! walk reads the authority's table before its flag is up (the reordering
//! the `SeqCst` fence between the flag CAS and the walk forbids — the model
//! is sequentially consistent, so the missing fence is modelled as the
//! reordering it permits), and for an escalation walk that skips ids the
//! mirror already holds without comparing values.

use oftm_core::kernel::{AtomicU64Like, ModeGate};
use oftm_verify::model::sync::{MAtomicU64, ModelSync};
use oftm_verify::model::{check, Builder, Config, Outcome};
use std::sync::atomic::Ordering::SeqCst;
use std::sync::atomic::{AtomicBool, AtomicU64};
use std::sync::Arc;

/// Table word of an id the table does not hold.
const ABSENT: u64 = u64::MAX;
/// The one id the scenarios allocate and write.
const INITIAL: u64 = 7;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Variant {
    Sound,
    /// BUG: the allocator looks at the gate before it inserts, not after.
    AllocatorChecksBeforeInsert,
    /// BUG: the escalation walk's table read is not ordered after the flag.
    WalkBeforeFlag,
    /// BUG: the escalation walk keeps whatever value the mirror has.
    WalkSkipsPresent,
}

struct World {
    gate: ModeGate<ModelSync, ()>,
    /// The id's word in the authority's table and in the mirror.
    tables: [MAtomicU64; 2],
    variant: Variant,
    // Oracle state: plain atomics, touched only between decision points.
    running: [AtomicU64; 2],
    in_barrier: AtomicBool,
    /// The last value a transaction wrote (or the allocation's initial).
    last: AtomicU64,
}

impl World {
    fn new(variant: Variant) -> Arc<Self> {
        Arc::new(World {
            gate: ModeGate::new(2, || ()),
            tables: [MAtomicU64::new(ABSENT), MAtomicU64::new(ABSENT)],
            variant,
            running: [AtomicU64::new(0), AtomicU64::new(0)],
            in_barrier: AtomicBool::new(false),
            last: AtomicU64::new(ABSENT),
        })
    }

    /// `HybridStm::alloc_tvar_block`: authority first, then the gate.
    fn alloc(&self) {
        let early =
            (self.variant == Variant::AllocatorChecksBeforeInsert).then(|| self.gate.must_mirror());
        self.tables[0].store(INITIAL, SeqCst);
        self.last.store(INITIAL, SeqCst);
        if early.unwrap_or_else(|| self.gate.must_mirror()) {
            let _ = self.tables[1].compare_exchange(ABSENT, INITIAL, SeqCst, SeqCst);
        }
    }

    /// One transaction through `slot` writing `v` to the id.
    fn write(&self, slot: usize, v: u64) {
        let m = self.gate.admit(slot);
        self.running[m].fetch_add(1, SeqCst);
        assert!(
            self.running[1 - m].load(SeqCst) == 0 && !self.in_barrier.load(SeqCst),
            "engine {m} runs a transaction while the other engine or a barrier is hot"
        );
        assert_ne!(
            self.tables[m].load(SeqCst),
            ABSENT,
            "t-variable not registered on engine {m}"
        );
        self.tables[m].store(v, SeqCst);
        self.last.store(v, SeqCst);
        self.running[m].fetch_sub(1, SeqCst);
        self.gate.leave(slot, m);
    }

    /// `HybridStm::migrate`.
    fn migrate(&self, target: usize) {
        let early = (self.variant == Variant::WalkBeforeFlag && target == 1)
            .then(|| self.tables[0].load(SeqCst));
        self.gate.migrate(target, |from| {
            self.in_barrier.store(true, SeqCst);
            assert!(
                self.running.iter().all(|r| r.load(SeqCst) == 0),
                "barrier open with a transaction in flight"
            );
            let [authority, mirror] = &self.tables;
            if from == 0 {
                let v = early.unwrap_or_else(|| authority.load(SeqCst));
                if v != ABSENT
                    && mirror.compare_exchange(ABSENT, v, SeqCst, SeqCst).is_err()
                    && self.variant != Variant::WalkSkipsPresent
                    && mirror.load(SeqCst) != v
                {
                    mirror.store(v, SeqCst);
                }
            } else {
                let v = mirror.load(SeqCst);
                if v != ABSENT {
                    let cur = authority.load(SeqCst);
                    if cur != ABSENT && cur != v {
                        authority.store(v, SeqCst);
                    }
                    mirror.store(ABSENT, SeqCst);
                }
            }
            self.in_barrier.store(false, SeqCst);
        });
    }

    /// After the run: the current mode's table holds the last value.
    fn assert_current(&self) {
        let m = self.gate.mode();
        assert_eq!(
            self.tables[m].load(SeqCst),
            self.last.load(SeqCst),
            "engine {m} does not hold the id's current value"
        );
    }
}

/// Two transactions on distinct slots against an escalation and the
/// de-escalation after it; the id is registered up front.
fn begin_vs_migrate(name: &'static str) -> Outcome {
    check(Config::new(name).preemptions(2), |b: &mut Builder| {
        let w = World::new(Variant::Sound);
        w.alloc();
        for (name, slot, v) in [("tx-a", 0, 1), ("tx-b", 1, 2)] {
            let w = Arc::clone(&w);
            b.thread(name, move || w.write(slot, v));
        }
        {
            let w = Arc::clone(&w);
            b.thread("migrator", move || {
                w.migrate(1);
                w.migrate(0);
            });
        }
        b.after(move || w.assert_current());
    })
}

/// An allocation, then a transaction on the fresh id, against one
/// escalation.
fn alloc_vs_escalation(name: &'static str, variant: Variant) -> Outcome {
    check(Config::new(name).preemptions(2), move |b: &mut Builder| {
        let w = World::new(variant);
        {
            let w = Arc::clone(&w);
            b.thread("allocator", move || {
                w.alloc();
                w.write(0, 9);
            });
        }
        {
            let w = Arc::clone(&w);
            b.thread("migrator", move || w.migrate(1));
        }
        b.after(move || w.assert_current());
    })
}

/// Starting in mode 1: an allocation and a transaction on the fresh id
/// against a de-escalation (which empties the mirror, possibly before the
/// allocator puts the id there) and the escalation after it.
fn alloc_vs_round_trip(name: &'static str, variant: Variant) -> Outcome {
    check(Config::new(name).preemptions(2), move |b: &mut Builder| {
        let w = World::new(variant);
        w.migrate(1);
        {
            let w = Arc::clone(&w);
            b.thread("allocator", move || {
                w.alloc();
                w.write(0, 9);
            });
        }
        {
            let w = Arc::clone(&w);
            b.thread("migrator", move || {
                w.migrate(0);
                w.migrate(1);
            });
        }
        b.after(move || w.assert_current());
    })
}

fn passes(name: &str, outcome: Outcome, at_least: usize) {
    let report = outcome.unwrap_or_else(|ce| panic!("{ce}"));
    assert!(
        report.executions > at_least,
        "{name}: only {} schedules",
        report.executions
    );
    eprintln!("{name}: {} schedules, no counterexample", report.executions);
}

#[test]
fn gate_keeps_one_engine_hot() {
    passes(
        "mode-gate-begin",
        begin_vs_migrate("mode-gate-begin"),
        1_000,
    );
}

#[test]
fn gate_loses_no_id_to_an_escalation() {
    passes(
        "mode-gate-alloc",
        alloc_vs_escalation("mode-gate-alloc", Variant::Sound),
        50,
    );
}

#[test]
fn gate_loses_no_id_or_value_over_a_round_trip() {
    passes(
        "mode-gate-round-trip",
        alloc_vs_round_trip("mode-gate-round-trip", Variant::Sound),
        100,
    );
}

// ---------------------------------------------------------------------------
// Negative oracles.
// ---------------------------------------------------------------------------

#[test]
fn broken_allocator_without_recheck_is_caught() {
    // The allocator sees a calm gate, the whole barrier runs and walks a
    // table the id is not in yet, the allocator inserts into table 0 only:
    // its transaction is admitted to engine 1, which never heard of the id.
    let err = alloc_vs_escalation(
        "broken-allocator-no-recheck",
        Variant::AllocatorChecksBeforeInsert,
    )
    .expect_err("deciding before the insert must lose the id");
    assert!(err.message.contains("not registered"), "{err}");
    assert!(!err.seed.is_empty());
}

#[test]
fn broken_walk_before_flag_is_caught() {
    // The walk's read comes before the flag is up, so whatever the
    // allocator and its transaction do until then is lost on engine 1: the
    // insert (the allocator saw no flag and did not mirror either) or the
    // value the transaction committed on engine 0.
    let err = alloc_vs_escalation("broken-walk-before-flag", Variant::WalkBeforeFlag)
        .expect_err("a walk not ordered after the flag must lose the id or its value");
    assert!(
        err.message.contains("not registered") || err.message.contains("current value"),
        "{err}"
    );
    assert!(!err.seed.is_empty());
}

#[test]
fn broken_walk_skipping_present_ids_is_caught() {
    // The allocator mirrors the initial value after the de-escalation
    // emptied the mirror, its transaction then runs on engine 0, and the
    // escalation finds the id present and keeps the stale initial.
    let err = alloc_vs_round_trip("broken-walk-skips-present", Variant::WalkSkipsPresent)
        .expect_err("keeping the mirror's value must lose a committed write");
    assert!(err.message.contains("current value"), "{err}");
    assert!(!err.seed.is_empty());
}
