//! The conflict-forensics table: *who* aborted *whom*, over *what*.
//!
//! Aggregate cause counts can't distinguish symmetric churn from
//! asymmetric starvation — one writer serially killing every reader looks
//! identical to everyone killing everyone. This table keeps the missing
//! direction and the place: every variable-attributed abort
//! ([`crate::StmStats::abort_at`] with [`crate::VarAttr::Var`]) counts
//! once on the row `(aggressor proc, victim proc, cause, var)`. The
//! aggressor is the conflicting peer wherever the backend can name it (a
//! DSTM locator owner, an Algorithm 2 `Owner[x,k]` winner, a TL/TL2
//! lock-holder stamp); where it cannot, the row's aggressor is
//! `tx_proc(TX_UNKNOWN)` — attribution is reported, never invented.
//!
//! The per-variable view — which t-variables are hot, and why — is a
//! group-by over the rows ([`Forensics::top_vars`]).
//!
//! Rows live in a fixed-capacity open-addressed table. A slot is claimed
//! by one CAS on its state word, its identity written once and published;
//! a probe takes a slot only when the full identity matches; counts are
//! relaxed increments. Recording takes no lock and allocates nothing (a
//! probe that meets a slot claimed a few stores earlier yields until its
//! identity is published). The last full transaction ids seen on each row
//! are kept beside the count — what the forced-conflict exactness tests
//! pin (the *right* aggressor, not just the right process). A full table
//! overflows into a counter, never silently.

use crate::{AbortCause, ABORT_CAUSES};
use std::cmp::Reverse;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Slots in the table; a power of two. 1024 distinct
/// (aggressor, victim, cause, var) combinations is far beyond any
/// workload in the workspace (procs ≤ 64, hot vars ≪ slots).
pub(crate) const TABLE_SLOTS: usize = 1024;
/// Linear-probe limit before an insert gives up into `overflow`.
const MAX_PROBES: usize = 32;

const CAUSES: usize = ABORT_CAUSES.len();

/// Packs a transaction identity `(proc, seq)` into the u64 wire form the
/// forensics layer carries (`proc` in the high half).
pub fn pack_tx(proc: u32, seq: u32) -> u64 {
    (u64::from(proc) << 32) | u64::from(seq)
}

/// The process half of a packed transaction id.
pub fn tx_proc(bits: u64) -> u32 {
    (bits >> 32) as u32
}

/// The sequence half of a packed transaction id.
pub fn tx_seq(bits: u64) -> u32 {
    bits as u32
}

/// Sentinel for "peer unknown": sites that cannot name the aggressor pass
/// this. The abort still lands, on a row whose aggressor is
/// `tx_proc(TX_UNKNOWN)` (so that process id is reserved), and stays out
/// of [`Forensics::named`].
pub const TX_UNKNOWN: u64 = u64::MAX;

/// One row of the table, as returned by [`Forensics::top_k`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Edge {
    /// Process of the transaction that won the conflict
    /// (`tx_proc(TX_UNKNOWN)` when the backend could not name it).
    pub aggressor_proc: u32,
    /// Process of the transaction that aborted.
    pub victim_proc: u32,
    pub cause: AbortCause,
    /// The t-variable fought over.
    pub var: u64,
    /// Aborts attributed to this row.
    pub count: u64,
    /// Packed id ([`pack_tx`]) of the most recent aggressor on this row.
    pub last_aggressor: u64,
    /// Packed id of the most recent victim on this row.
    pub last_victim: u64,
}

impl Edge {
    /// Whether the backend named the aggressor.
    pub fn named(&self) -> bool {
        self.aggressor_proc != tx_proc(TX_UNKNOWN)
    }
}

/// One t-variable's rows summed, as returned by [`Forensics::top_vars`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VarTotal {
    /// The t-variable id (raw word, as passed to `abort_at`).
    pub var: u64,
    /// Total attributed aborts on this variable.
    pub total: u64,
    /// Per-cause breakdown, indexed like [`ABORT_CAUSES`].
    pub by_cause: [u64; CAUSES],
}

impl VarTotal {
    /// The cause with the highest count on this variable.
    pub fn dominant_cause(&self) -> AbortCause {
        let i = (0..CAUSES).max_by_key(|&c| self.by_cause[c]);
        ABORT_CAUSES[i.expect("cause array is non-empty")]
    }
}

/// Slot states: free, claimed with its identity being written, published.
const FREE: u64 = 0;
const CLAIMING: u64 = 1;
const READY: u64 = 2;

/// One table slot. The identity fields (`procs`, `cause`, `var`) are
/// written once by the claiming thread and published by `state`, so a
/// prober or reader never compares a half-written identity.
#[derive(Default)]
struct Slot {
    state: AtomicU64,
    /// `aggressor proc << 32 | victim proc`.
    procs: AtomicU64,
    cause: AtomicU64,
    var: AtomicU64,
    count: AtomicU64,
    last_aggressor: AtomicU64,
    last_victim: AtomicU64,
}

/// SplitMix64 finalizer.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Home slot hash of a row. Each identity field goes through the mixer in
/// turn, so no field's bits can cancel another's before hashing. The hash
/// only places a row: a probe still matches on the full identity.
fn edge_key(procs: u64, cause: AbortCause, var: u64) -> u64 {
    mix(mix(mix(var ^ 0x9e37_79b9_7f4a_7c15) ^ procs) ^ cause.index() as u64)
}

/// The who-aborted-whom table: every variable-attributed abort of one STM
/// instance (see module docs). Reached via
/// [`StmStats::forensics`](crate::StmStats::forensics) (and
/// `WordStm::forensics()` in `oftm-core`).
pub struct Forensics {
    slots: Box<[Slot]>,
    /// Attributed aborts dropped because the table (or a probe window)
    /// was full.
    overflow: AtomicU64,
}

impl Default for Forensics {
    fn default() -> Self {
        Self::new()
    }
}

impl Forensics {
    pub fn new() -> Forensics {
        Forensics {
            slots: (0..TABLE_SLOTS).map(|_| Slot::default()).collect(),
            overflow: AtomicU64::new(0),
        }
    }

    /// Records one conflict `aggressor → victim` over `var`. Both ids are
    /// packed ([`pack_tx`]); a [`TX_UNKNOWN`] aggressor records an
    /// unnamed row.
    pub fn record(&self, aggressor: u64, victim: u64, cause: AbortCause, var: u64) {
        let procs = (u64::from(tx_proc(aggressor)) << 32) | u64::from(tx_proc(victim));
        let key = edge_key(procs, cause, var) as usize;
        for probe in 0..MAX_PROBES {
            let slot = &self.slots[(key + probe) & (TABLE_SLOTS - 1)];
            if slot.state.load(Ordering::Acquire) == FREE
                && slot
                    .state
                    .compare_exchange(FREE, CLAIMING, Ordering::Acquire, Ordering::Acquire)
                    .is_ok()
            {
                slot.procs.store(procs, Ordering::Relaxed);
                slot.cause.store(cause.index() as u64, Ordering::Relaxed);
                slot.var.store(var, Ordering::Relaxed);
                // Publish the identity before anyone compares it: pairs
                // with the Acquire loads of `state` below and in `rows`.
                slot.state.store(READY, Ordering::Release);
            }
            // A peer claimed this slot a few stores ago; wait until its
            // identity is published (first touch of a row only).
            while slot.state.load(Ordering::Acquire) == CLAIMING {
                std::thread::yield_now();
            }
            if slot.procs.load(Ordering::Relaxed) == procs
                && slot.cause.load(Ordering::Relaxed) == cause.index() as u64
                && slot.var.load(Ordering::Relaxed) == var
            {
                slot.last_aggressor.store(aggressor, Ordering::Relaxed);
                slot.last_victim.store(victim, Ordering::Relaxed);
                slot.count.fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
        self.overflow.fetch_add(1, Ordering::Relaxed);
    }

    /// Attributed aborts dropped because the table was full.
    pub fn overflow(&self) -> u64 {
        self.overflow.load(Ordering::Relaxed)
    }

    /// Attributed aborts across every row, named or not (overflow
    /// excluded).
    pub fn total(&self) -> u64 {
        self.rows().map(|e| e.count).sum()
    }

    /// Attributed aborts on rows whose aggressor was named.
    pub fn named(&self) -> u64 {
        self.rows().filter(Edge::named).map(|e| e.count).sum()
    }

    /// Every row with a non-zero count.
    fn rows(&self) -> impl Iterator<Item = Edge> + '_ {
        self.slots.iter().filter_map(|slot| {
            // Pairs with the claimer's Release: the identity is whole
            // once the state reads READY.
            let ready = slot.state.load(Ordering::Acquire) == READY;
            let count = slot.count.load(Ordering::Relaxed);
            let procs = slot.procs.load(Ordering::Relaxed);
            (ready && count > 0).then(|| Edge {
                aggressor_proc: (procs >> 32) as u32,
                victim_proc: procs as u32,
                cause: ABORT_CAUSES[slot.cause.load(Ordering::Relaxed) as usize],
                var: slot.var.load(Ordering::Relaxed),
                count,
                last_aggressor: slot.last_aggressor.load(Ordering::Relaxed),
                last_victim: slot.last_victim.load(Ordering::Relaxed),
            })
        })
    }

    /// The `k` heaviest rows, descending by count (ties broken by var
    /// then aggressor for determinism).
    pub fn top_k(&self, k: usize) -> Vec<Edge> {
        let mut all: Vec<Edge> = self.rows().collect();
        all.sort_by_key(|e| (Reverse(e.count), e.var, e.aggressor_proc));
        all.truncate(k);
        all
    }

    /// The `k` hottest t-variables: the rows summed per variable, with
    /// the per-cause breakdown, descending by total (ties broken by id).
    pub fn top_vars(&self, k: usize) -> Vec<VarTotal> {
        let mut by_var = BTreeMap::new();
        for e in self.rows() {
            let v = by_var.entry(e.var).or_insert(VarTotal {
                var: e.var,
                total: 0,
                by_cause: [0; CAUSES],
            });
            v.total += e.count;
            v.by_cause[e.cause.index()] += e.count;
        }
        let mut all: Vec<VarTotal> = by_var.into_values().collect();
        // Stable: equal totals stay in id order.
        all.sort_by_key(|v| Reverse(v.total));
        all.truncate(k);
        all
    }

    /// Zeroes every count and the overflow (slots keep their identity
    /// claims). Benches call this when a measured cell starts, so a
    /// cell's table is net of warmup.
    pub fn reset(&self) {
        for slot in self.slots.iter() {
            slot.count.store(0, Ordering::Relaxed);
        }
        self.overflow.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_roundtrip() {
        let bits = pack_tx(5, 77);
        assert_eq!(tx_proc(bits), 5);
        assert_eq!(tx_seq(bits), 77);
        assert_ne!(bits, TX_UNKNOWN);
    }

    #[test]
    fn records_aggregate_per_edge_and_keep_last_ids() {
        let t = Forensics::new();
        t.record(pack_tx(1, 10), pack_tx(2, 20), AbortCause::CmArbitrated, 7);
        t.record(pack_tx(1, 11), pack_tx(2, 21), AbortCause::CmArbitrated, 7);
        t.record(pack_tx(3, 1), pack_tx(2, 22), AbortCause::LockBusy, 9);
        let top = t.top_k(4);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].count, 2);
        assert_eq!(top[0].aggressor_proc, 1);
        assert_eq!(top[0].victim_proc, 2);
        assert_eq!(top[0].cause, AbortCause::CmArbitrated);
        assert_eq!(top[0].var, 7);
        assert_eq!(top[0].last_aggressor, pack_tx(1, 11));
        assert_eq!(top[0].last_victim, pack_tx(2, 21));
        assert_eq!(top[1].count, 1);
        assert_eq!(t.total(), 3);
    }

    /// Conflicts that differ in victim or variable are different rows:
    /// where a plain XOR of shifted fields agrees (`1 << 12 ^ 0 ==
    /// 0 << 12 ^ 4096`), and where two hashes pick the same home slot.
    #[test]
    fn distinct_conflicts_keep_their_own_rows() {
        let t = Forensics::new();
        t.record(pack_tx(1, 1), pack_tx(0, 1), AbortCause::CmArbitrated, 4096);
        t.record(pack_tx(1, 2), pack_tx(1, 2), AbortCause::CmArbitrated, 0);
        t.record(pack_tx(1, 3), pack_tx(1, 3), AbortCause::CmArbitrated, 0);
        let top = t.top_k(4);
        assert_eq!(top.len(), 2, "{top:?}");
        assert_eq!((top[0].victim_proc, top[0].var, top[0].count), (1, 0, 2));
        assert_eq!((top[1].victim_proc, top[1].var, top[1].count), (0, 4096, 1));

        let t = Forensics::new();
        let home = |var| edge_key(1 << 32, AbortCause::LockBusy, var) as usize % TABLE_SLOTS;
        let twin = (1..)
            .find(|&v| home(v) == home(0))
            .expect("ids share home slots");
        for var in [0, twin, twin] {
            t.record(pack_tx(1, 4), pack_tx(0, 4), AbortCause::LockBusy, var);
        }
        let top = t.top_k(4);
        assert_eq!(top.len(), 2, "{top:?}");
        assert_eq!((top[0].var, top[0].count), (twin, 2));
        assert_eq!((top[1].var, top[1].count), (0, 1));
    }

    /// An unknown aggressor records no named conflict: the abort still
    /// lands as a row under its variable, and stays out of `named()`.
    #[test]
    fn unknown_aggressor_records_nothing() {
        let t = Forensics::new();
        t.record(TX_UNKNOWN, pack_tx(2, 2), AbortCause::ReadValidation, 3);
        assert_eq!((t.total(), t.named()), (1, 0));
        let e = t.top_k(4)[0];
        assert_eq!((e.aggressor_proc, e.victim_proc, e.var), (u32::MAX, 2, 3));
        assert!(!e.named());
        assert_eq!(t.top_vars(4)[0].var, 3);
    }

    #[test]
    fn reset_clears_counts() {
        let t = Forensics::new();
        t.record(pack_tx(0, 1), pack_tx(1, 1), AbortCause::CasLost, 4);
        t.reset();
        assert_eq!(t.total(), 0);
        t.record(pack_tx(0, 2), pack_tx(1, 2), AbortCause::CasLost, 4);
        assert_eq!(t.top_k(1)[0].count, 1);
    }

    #[test]
    fn concurrent_records_all_land() {
        let t = std::sync::Arc::new(Forensics::new());
        std::thread::scope(|s| {
            for p in 0..8u32 {
                let t = std::sync::Arc::clone(&t);
                s.spawn(move || {
                    for i in 0..500u64 {
                        t.record(
                            pack_tx(p, i as u32),
                            pack_tx(p + 8, i as u32),
                            ABORT_CAUSES[(i % 4) as usize],
                            i % 8,
                        );
                    }
                });
            }
        });
        assert_eq!(t.total() + t.overflow(), 4000);
    }
}
