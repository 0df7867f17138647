//! Exhaustive bounded-preemption checks of the grace-period kernel
//! ([`oftm_core::kernel::GraceCore`]) — the *production* code behind
//! `oftm_core::reclaim::GraceTracker`, for t-variable ids and for memory
//! alike — plus negative oracles.
//!
//! The property is **no premature reclamation**: a retired batch must
//! never be handed back, and a deferred memory item never dropped, while a
//! transaction that began before the retirement (and might therefore
//! still reach what was retired) is still registered. The scenarios model
//! the classic unlink race: a reader loads a "pointer" while a retirer
//! unlinks and retires its target; if the reader observed the pre-unlink
//! pointer, the target must not have been reclaimed by the time the
//! reader dereferences it. And **exactly once**: whatever was retired is
//! either reclaimed or still binned, never both, never neither. Both ways
//! in are covered: the shared bins, and a retirer's private bag
//! ([`oftm_core::kernel::GraceBag`]), which it tags in one bump and
//! reclaims without a lock — memory, and a table eviction's two stages
//! (the id block, then under the next tag the state its slot held).

use oftm_core::kernel::{
    AtomicU64Like, GraceBag, GraceCore, MutexLike, Retired, RetiredBlock, SlotSet, IDLE_SLOT,
};
use oftm_verify::model::sync::{FixedSlots, MAtomicU64, MMutex, ModelSync};
use oftm_verify::model::{check, Builder, Config};
use std::sync::atomic::Ordering::SeqCst;
use std::sync::{Arc, Mutex};

/// The kernel's memory item under the model: reclaimed by dropping it,
/// which counts.
struct Token(Arc<MAtomicU64>);

impl Drop for Token {
    fn drop(&mut self) {
        self.0.fetch_add(1, SeqCst);
    }
}

type Core = GraceCore<ModelSync, FixedSlots, Token>;

const BLOCK: RetiredBlock = RetiredBlock {
    base: oftm_histories::TVarId(7),
    len: 1,
};

/// What the scenarios over the real kernel share. `link` = 1: the target
/// is reachable; a retirer stores 0 to unlink it before retiring. `gone`
/// counts its reclamations.
#[derive(Clone)]
struct World {
    core: Arc<Core>,
    link: Arc<MAtomicU64>,
    gone: Arc<MAtomicU64>,
}

impl World {
    fn new() -> Self {
        World {
            core: Arc::new(GraceCore::with_slots(FixedSlots::new(2))),
            link: Arc::new(MAtomicU64::new(1)),
            gone: Arc::new(MAtomicU64::new(0)),
        }
    }

    /// Dereferences `link` as loaded: sound only if the target is there.
    fn deref(&self, link: u64, broken: &str) {
        if link != 0 {
            assert_eq!(self.gone.load(SeqCst), 0, "{broken}");
        }
    }

    fn reader(&self) -> impl FnOnce() + Send {
        let w = self.clone();
        move || {
            let g = w.core.begin();
            w.deref(w.link.load(SeqCst), "reclaimed under a predating guard");
            drop(g);
        }
    }

    /// Unlinks the block and retires it at commit; a flush may hand it
    /// straight back.
    fn block_retirer(&self) -> impl FnOnce() + Send {
        let w = self.clone();
        move || {
            let g = w.core.begin();
            w.link.store(0, SeqCst);
            w.evict(w.core.retire_and_flush(g, vec![BLOCK]));
        }
    }

    /// What the caller of a flush does with the blocks it is handed.
    fn evict(&self, ripe: Vec<RetiredBlock>) {
        if !ripe.is_empty() {
            assert_eq!(ripe, vec![BLOCK]);
            self.gone.fetch_add(1, SeqCst);
        }
    }
}

fn exhaustive(name: &'static str, at_least: usize, scenario: impl Fn(&mut Builder)) {
    let report =
        check(Config::new(name).preemptions(2), scenario).unwrap_or_else(|ce| panic!("{ce}"));
    assert!(
        report.executions > at_least,
        "only {} schedules",
        report.executions
    );
    eprintln!("{name}: {} schedules, no counterexample", report.executions);
}

fn refuted(name: &'static str, message: &str, scenario: impl Fn(&mut Builder)) {
    let err = check(Config::new(name).preemptions(2), scenario)
        .expect_err("the model must refute the broken variant");
    assert!(err.message.contains(message), "{err}");
    assert!(!err.seed.is_empty());
}

#[test]
fn grace_no_premature_flush() {
    exhaustive("grace-unlink-race", 20, |b| {
        let w = World::new();
        b.thread("reader", w.reader());
        b.thread("retirer", w.block_retirer());
        // Exactly-once accounting: the block is either freed or still
        // parked in a bin, never both, never neither.
        b.after(move || {
            let (pending, freed) = (w.core.pending_blocks(), w.gone.load(SeqCst) as usize);
            assert_eq!(pending + freed, 1, "pending={pending} freed={freed}");
        });
    });
}

#[test]
fn grace_flush_after_reader_exit_frees() {
    // Liveness-ish companion: the reader flushes on its way out, racing
    // the retirement, so the block may be handed to a thread that did not
    // retire it — to one of them, once. What neither was handed, a final
    // flush drains: every predating reader is gone.
    exhaustive("grace-eventual-free", 20, |b| {
        let w = World::new();
        let r = w.clone();
        b.thread("reader", move || {
            r.reader()();
            r.evict(r.core.flush());
        });
        b.thread("retirer", w.block_retirer());
        b.after(move || {
            w.evict(w.core.flush());
            assert_eq!(w.gone.load(SeqCst), 1, "leaked, or freed twice");
            assert_eq!(w.core.pending_blocks(), 0);
        });
    });
}

#[test]
fn grace_memory_is_dropped_once_and_never_under_a_predating_guard() {
    // The memory half of the kernel: the retirer unlinks and defers a
    // token under its own guard; whoever finds it ripe drops it — the
    // retirer's release, the reader's release, or the third thread's
    // flush — and nobody may while a reader that saw the link is
    // registered.
    exhaustive("grace-memory", 100, |b| {
        let w = World::new();
        b.thread("reader", w.reader());
        let r = w.clone();
        b.thread("retirer", move || {
            let g = r.core.begin();
            r.link.store(0, SeqCst);
            r.core.defer(Token(r.gone));
            drop(g);
        });
        let core = Arc::clone(&w.core);
        b.thread("flusher", move || assert!(core.flush().is_empty()));
        b.after(move || {
            let in_run = w.gone.load(SeqCst) as usize;
            assert_eq!(in_run + w.core.pending_memory(), 1, "dropped {in_run}×");
            // A release that finds something pending (and the lock free)
            // collects: nobody is registered any more.
            drop(w.core.begin());
            assert_eq!(w.gone.load(SeqCst), 1, "a release must collect, once");
            assert_eq!(w.core.pending_memory(), 0);
        });
    });
}

#[test]
fn grace_bag_frees_nothing_under_a_predating_reader() {
    // The private half: the retirer unlinks the token under its guard,
    // releases it (as a finished DSTM transaction does), tags the batch
    // into its own bag and reclaims the ripe front at once — racing a
    // reader that may have loaded the link before the unlink. Nobody else
    // touches the bag: its owner is the only thread that fills or scans
    // it.
    exhaustive("grace-bag", 100, |b| {
        let w = World::new();
        let bag = Arc::new(Mutex::new(GraceBag::default()));
        b.thread("reader", w.reader());
        let (r, mine) = (w.clone(), Arc::clone(&bag));
        b.thread("retirer", move || {
            let g = r.core.begin();
            r.link.store(0, SeqCst);
            drop(g);
            let mut bag = mine.lock().unwrap();
            let token = Token(Arc::clone(&r.gone));
            r.core.retire(&mut bag, [Retired::Memory(token)]);
            assert!(r.core.reclaim(&mut bag).is_empty(), "no block retired");
        });
        b.after(move || {
            let mut bag = bag.lock().unwrap();
            let in_run = w.gone.load(SeqCst) as usize;
            assert_eq!(in_run + bag.len(), 1, "dropped {in_run}×");
            assert_eq!(w.core.pending_memory(), 0, "the bag bypasses the bins");
            // With the reader gone, the owner's next reclaim frees it.
            assert!(w.core.reclaim(&mut bag).is_empty());
            assert_eq!(w.gone.load(SeqCst), 1, "a reclaim must free, once");
            assert!(bag.is_empty());
        });
    });
}

/// A table of one retired t-variable, evicted from its retirer's bag the
/// way `VarTable::retire_and_evict` does it. `link` = 1 while the block is
/// reachable from the structure; `slot` = 1 while its id resolves to its
/// state; `freed` counts drops of the state.
#[derive(Clone)]
struct Table {
    core: Arc<Core>,
    link: Arc<MAtomicU64>,
    slot: Arc<MAtomicU64>,
    freed: Arc<MAtomicU64>,
    bag: Arc<Mutex<GraceBag<Token>>>,
}

const EVICTED_UNDER_READER: &str = "evicted under a predating reader";
const STATE_FREED: &str = "state freed under a reader that loaded its slot";

impl Table {
    fn new() -> Self {
        Table {
            core: Arc::new(GraceCore::with_slots(FixedSlots::new(3))),
            link: Arc::new(MAtomicU64::new(1)),
            slot: Arc::new(MAtomicU64::new(1)),
            freed: Arc::new(MAtomicU64::new(0)),
            bag: Arc::new(Mutex::new(GraceBag::default())),
        }
    }

    /// Dereferences the state if the slot still resolves.
    fn load_slot(&self) {
        if self.slot.load(SeqCst) != 0 {
            assert_eq!(self.freed.load(SeqCst), 0, "{STATE_FREED}");
        }
    }

    /// Honours the contract: finds the id through the link, under a
    /// guard taken first.
    fn reader(&self) -> impl FnOnce() + Send {
        let t = self.clone();
        move || {
            let g = t.core.begin();
            if t.link.load(SeqCst) != 0 {
                assert_ne!(t.slot.load(SeqCst), 0, "{EVICTED_UNDER_READER}");
                t.load_slot();
            }
            drop(g);
        }
    }

    /// Breaks the contract: knows the id without the link, so it may
    /// register after the block's tag and still load the slot.
    fn zombie(&self) -> impl FnOnce() + Send {
        let t = self.clone();
        move || {
            let g = t.core.begin();
            t.load_slot();
            drop(g);
        }
    }

    /// Tombstones the slot of every ripe block and retires its state
    /// under the next tag — or, `broken`, drops the state in the scan that
    /// found the block ripe.
    fn settle(&self, bag: &mut GraceBag<Token>, broken: bool) {
        for block in self.core.reclaim(bag) {
            assert_eq!(block, BLOCK);
            self.slot.store(0, SeqCst);
            let state = Token(Arc::clone(&self.freed));
            if broken {
                drop(state);
            } else {
                self.core.retire(bag, [Retired::Memory(state)]);
            }
        }
    }

    /// Unlinks the block, commits (releasing its guard), tags the block
    /// into its bag, evicts what is ripe and, as its next commit would,
    /// reclaims again.
    fn retirer(&self, broken: bool) -> impl FnOnce() + Send {
        let t = self.clone();
        move || {
            let g = t.core.begin();
            t.link.store(0, SeqCst);
            g.release();
            let mut bag = t.bag.lock().unwrap();
            t.core.retire(&mut bag, [Retired::Block(BLOCK)]);
            t.settle(&mut bag, broken);
            t.settle(&mut bag, broken);
        }
    }
}

#[test]
fn grace_bag_evicts_no_block_under_a_predating_reader() {
    // Both stages of a table eviction through one private bag: the id
    // block waits for the reader that may have found it through the link,
    // and the state its slot held waits, under a tag taken after the
    // tombstone, for the zombie that may have loaded the slot before it.
    exhaustive("grace-bag-eviction", 1000, |b| {
        let t = Table::new();
        b.thread("reader", t.reader());
        b.thread("zombie", t.zombie());
        b.thread("retirer", t.retirer(false));
        b.after(move || {
            // Exactly once: the state is still in its slot, waiting in the
            // bag, or dropped. With every reader gone the owner's next
            // reclaims evict and free it.
            let mut bag = t.bag.lock().unwrap();
            let (slot, freed) = (t.slot.load(SeqCst), t.freed.load(SeqCst));
            assert_eq!(bag.len() as u64 + freed, 1, "slot={slot} freed={freed}");
            assert_eq!(t.core.pending_memory() + t.core.pending_blocks(), 0);
            t.settle(&mut bag, false);
            t.settle(&mut bag, false);
            assert_eq!(t.slot.load(SeqCst), 0, "never evicted");
            assert_eq!(t.freed.load(SeqCst), 1, "freed twice, or never");
            assert!(bag.is_empty());
        });
    });
}

// ---------------------------------------------------------------------------
// Negative oracles.
// ---------------------------------------------------------------------------

#[test]
fn broken_read_before_register_is_caught() {
    // Client misuse of the REAL kernel: the reader dereferences the link
    // before `begin()`. The kernel's contract ("must be called before the
    // transaction performs its first read") exists precisely because this
    // interleaving frees the block out from under the unregistered read.
    refuted("broken-read-before-register", "unregistered read", |b| {
        let w = World::new();
        b.thread("retirer", w.block_retirer());
        b.thread("reader", move || {
            // BUG: the read happens before the registration.
            let l = w.link.load(SeqCst);
            let g = w.core.begin();
            w.deref(l, "freed under an unregistered read");
            drop(g);
        });
    });
}

/// A hand-rolled flush: `GraceCore::ripe`'s, or one of two deviations.
#[derive(Clone, Copy, PartialEq)]
enum Flush {
    /// Lock the bins, scan the slots, free `tag < min_active`.
    Kernel,
    /// `tag <= min_active`: a reader that began in the epoch the batch
    /// was tagged with no longer protects it.
    Inclusive,
    /// Slots scanned before the bins lock is taken: a bin entered after
    /// the scan is judged against it, though a reader that registered in
    /// between — before the unlink — can reach its blocks.
    ScanFirst,
}

/// The grace protocol written out by hand over the model's primitives,
/// with a correct reader and retirer, so that a flush can be broken.
#[derive(Clone)]
struct HandRolled {
    epoch: Arc<MAtomicU64>,
    slots: Arc<FixedSlots>,
    bins: Arc<MMutex<Vec<u64>>>,
    link: Arc<MAtomicU64>,
    freed: Arc<MAtomicU64>,
}

impl HandRolled {
    fn new() -> Self {
        HandRolled {
            epoch: Arc::new(MAtomicU64::new(1)),
            slots: Arc::new(FixedSlots::new(2)),
            bins: Arc::new(MMutex::new(Vec::new())),
            link: Arc::new(MAtomicU64::new(1)),
            freed: Arc::new(MAtomicU64::new(0)),
        }
    }

    fn reader(&self) -> impl FnOnce() + Send {
        let h = self.clone();
        move || {
            // `GraceCore::begin`: claim, then republish until the epoch
            // stands still.
            let mut e = h.epoch.load(SeqCst);
            let slot = h.slots.claim(e);
            loop {
                let now = h.epoch.load(SeqCst);
                if now == e {
                    break;
                }
                slot.store(now, SeqCst);
                e = now;
            }
            if h.link.load(SeqCst) != 0 {
                assert_eq!(h.freed.load(SeqCst), 0, "{PREMATURE}");
            }
            slot.store(IDLE_SLOT, SeqCst);
        }
    }

    /// Unlinks the block, tags it and bins the tag.
    fn retire(&self) {
        self.link.store(0, SeqCst);
        let tag = self.epoch.fetch_add(1, SeqCst);
        self.bins.with(|bs| bs.push(tag));
    }

    fn flush(&self, how: Flush) {
        let stale = (how == Flush::ScanFirst).then(|| self.slots.min_active());
        let out = self.bins.with(|bs| {
            let min_active = stale.unwrap_or_else(|| self.slots.min_active());
            let before = bs.len();
            bs.retain(|&tag| tag > min_active || (tag == min_active && how != Flush::Inclusive));
            before - bs.len()
        });
        if out != 0 {
            self.freed.store(1, SeqCst);
        }
    }

    /// Reader, retirer and a third thread's flush.
    fn three_threads(how: Flush) -> impl Fn(&mut Builder) {
        move |b| {
            let h = HandRolled::new();
            b.thread("reader", h.reader());
            let r = h.clone();
            b.thread("retirer", move || r.retire());
            b.thread("flusher", move || h.flush(how));
        }
    }
}

const PREMATURE: &str = "freed under a predating reader";

#[test]
fn broken_inclusive_flush_epoch_is_caught() {
    let scenario = HandRolled::three_threads(Flush::Inclusive);
    refuted("broken-inclusive-flush", PREMATURE, scenario);
}

#[test]
fn broken_slots_scanned_before_the_bins_lock_is_caught() {
    // The order `GraceCore::ripe`'s comment warns against. The twin with
    // the kernel's order passes, so the order is all that is refuted.
    exhaustive(
        "lock-then-scan",
        100,
        HandRolled::three_threads(Flush::Kernel),
    );
    let scenario = HandRolled::three_threads(Flush::ScanFirst);
    refuted("broken-scan-then-lock", PREMATURE, scenario);
}

impl HandRolled {
    /// Unlinks the token, tags it into a private bag and reclaims the bag
    /// at once: `GraceCore::reclaim`'s `tag < min_active`, or with
    /// `inclusive` its `<=` deviation.
    fn bag_retirer(&self, inclusive: bool) -> impl FnOnce() + Send {
        let h = self.clone();
        move || {
            h.link.store(0, SeqCst);
            let tag = h.epoch.fetch_add(1, SeqCst);
            let min_active = h.slots.min_active();
            if tag < min_active || (inclusive && tag == min_active) {
                h.freed.store(1, SeqCst);
            }
        }
    }
}

#[test]
fn broken_inclusive_bag_epoch_is_caught() {
    // A reader registered in the epoch the batch was tagged with can
    // still hold the token. The exclusive twin passes.
    let scenario = |inclusive| {
        move |b: &mut Builder| {
            let h = HandRolled::new();
            b.thread("reader", h.reader());
            b.thread("retirer", h.bag_retirer(inclusive));
        }
    };
    exhaustive("bag-exclusive", 20, scenario(false));
    refuted("broken-inclusive-bag", PREMATURE, scenario(true));
}

#[test]
fn broken_state_dropped_with_its_block_is_caught() {
    // The state is dropped in the same reclaim that tombstoned its slot,
    // judged by a scan taken before the tombstone. A zombie that registered
    // after the block's tag — so the block is rightly ripe — but loaded
    // the slot before the tombstone reads a freed state. The twin that
    // retires the state under the next tag passes, so dropping it early
    // is all that is refuted.
    let scenario = |broken| {
        move |b: &mut Builder| {
            let t = Table::new();
            b.thread("zombie", t.zombie());
            b.thread("retirer", t.retirer(broken));
        }
    };
    exhaustive("state-after-block", 20, scenario(false));
    refuted("broken-state-with-block", STATE_FREED, scenario(true));
}
