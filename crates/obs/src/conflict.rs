//! Who-aborted-whom conflict edges: *who* is killing *whom*, over *what*.
//!
//! Aggregate cause counts can't distinguish symmetric churn from
//! asymmetric starvation — one writer serially killing every reader looks
//! identical to everyone killing everyone. This table keeps the missing
//! direction: whenever a backend can name the conflicting peer (a DSTM
//! locator owner, an Algorithm 2 `Owner[x,k]` winner, a TL/TL2
//! lock-holder stamp), the victim's abort records an **edge**
//! `aggressor → victim` tagged with the cause and the t-variable fought
//! over.
//!
//! Edges aggregate by `(aggressor proc, victim proc, cause, var)` in a
//! fixed-capacity open-addressed table: slots are claimed by one CAS on a
//! key hash, counted with relaxed increments, and never deallocated, so
//! recording is lock- and allocation-free. The last full transaction ids
//! seen on each edge are kept alongside the count — that is what the
//! forced-conflict exactness tests pin (the *right* aggressor, not just
//! the right process). A full table overflows into a counter, never
//! silently.

use crate::{AbortCause, ABORT_CAUSES};
use std::sync::atomic::{AtomicU64, Ordering};

/// Slots in the edge table; a power of two. 1024 distinct
/// (aggressor, victim, cause, var) combinations is far beyond any
/// workload in the workspace (procs ≤ 64, hot vars ≪ slots).
const TABLE_SLOTS: usize = 1024;
/// Linear-probe limit before an insert gives up into `overflow`.
const MAX_PROBES: usize = 32;

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

/// Sentinel for "peer unknown": sites that cannot name the aggressor
/// pass this and the edge is not recorded (the heatmap still is).
pub const TX_UNKNOWN: u64 = u64::MAX;

/// One aggregated conflict edge, as returned by [`ConflictTable::top_k`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Edge {
    /// Process of the transaction that won the conflict.
    pub aggressor_proc: u32,
    /// Process of the transaction that aborted.
    pub victim_proc: u32,
    pub cause: AbortCause,
    /// The t-variable fought over.
    pub var: u64,
    /// Aborts attributed to this edge.
    pub count: u64,
    /// Packed id ([`pack_tx`]) of the most recent aggressor on this edge.
    pub last_aggressor: u64,
    /// Packed id of the most recent victim on this edge.
    pub last_victim: u64,
}

/// One table slot. `key` is 0 when free, else the claim hash; the
/// identity fields are written once by the claiming thread and guarded by
/// `init` so a racing reader never sees a half-written slot.
struct Slot {
    key: AtomicU64,
    init: AtomicU64,
    count: AtomicU64,
    aggressor_proc: AtomicU64,
    victim_proc: AtomicU64,
    cause: AtomicU64,
    var: AtomicU64,
    last_aggressor: AtomicU64,
    last_victim: AtomicU64,
}

impl Slot {
    fn new() -> Slot {
        Slot {
            key: AtomicU64::new(0),
            init: AtomicU64::new(0),
            count: AtomicU64::new(0),
            aggressor_proc: AtomicU64::new(0),
            victim_proc: AtomicU64::new(0),
            cause: AtomicU64::new(0),
            var: AtomicU64::new(0),
            last_aggressor: AtomicU64::new(0),
            last_victim: AtomicU64::new(0),
        }
    }
}

/// SplitMix64 finalizer: the slot key for an edge identity. Never 0 for
/// practical inputs; 0 inputs are nudged so the free-slot sentinel stays
/// unambiguous.
fn edge_key(aggressor_proc: u32, victim_proc: u32, cause: AbortCause, var: u64) -> u64 {
    let mut z = (u64::from(aggressor_proc) << 38)
        ^ (u64::from(victim_proc) << 12)
        ^ ((cause.index() as u64) << 58)
        ^ var
        ^ 0x9e37_79b9_7f4a_7c15;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    z.max(1)
}

/// The who-aborted-whom edge table (see module docs).
pub struct ConflictTable {
    slots: Box<[Slot]>,
    /// Edges dropped because the table (or a probe window) was full.
    overflow: AtomicU64,
}

impl Default for ConflictTable {
    fn default() -> Self {
        Self::new()
    }
}

impl ConflictTable {
    pub fn new() -> ConflictTable {
        ConflictTable {
            slots: (0..TABLE_SLOTS).map(|_| Slot::new()).collect(),
            overflow: AtomicU64::new(0),
        }
    }

    /// Records one conflict `aggressor → victim` over `var`. Both ids are
    /// packed ([`pack_tx`]); an [`TX_UNKNOWN`] aggressor is skipped (no
    /// edge without a named peer).
    pub fn record(&self, aggressor: u64, victim: u64, cause: AbortCause, var: u64) {
        if aggressor == TX_UNKNOWN {
            return;
        }
        let (ap, vp) = (tx_proc(aggressor), tx_proc(victim));
        let key = edge_key(ap, vp, cause, var);
        for probe in 0..MAX_PROBES {
            let slot = &self.slots[(key as usize + probe) & (TABLE_SLOTS - 1)];
            let cur = slot.key.load(Ordering::Acquire);
            let claimed = cur == 0
                && match slot
                    .key
                    .compare_exchange(0, key, Ordering::AcqRel, Ordering::Acquire)
                {
                    Ok(_) => true,
                    Err(raced) if raced == key => false,
                    Err(_) => continue, // another edge won this slot
                };
            if !claimed && cur != 0 && cur != key {
                continue;
            }
            if claimed {
                slot.aggressor_proc.store(u64::from(ap), Ordering::Relaxed);
                slot.victim_proc.store(u64::from(vp), Ordering::Relaxed);
                slot.cause.store(cause.index() as u64, Ordering::Relaxed);
                slot.var.store(var, Ordering::Relaxed);
                // Publish the identity fields before the slot becomes
                // visible to `top_k` readers.
                slot.init.store(1, Ordering::Release);
            }
            slot.last_aggressor.store(aggressor, Ordering::Relaxed);
            slot.last_victim.store(victim, Ordering::Relaxed);
            slot.count.fetch_add(1, Ordering::Relaxed);
            return;
        }
        self.overflow.fetch_add(1, Ordering::Relaxed);
    }

    /// Edges dropped because the table was full.
    pub fn overflow(&self) -> u64 {
        self.overflow.load(Ordering::Relaxed)
    }

    /// Total recorded conflicts across every edge.
    pub fn total(&self) -> u64 {
        let mut sum = 0;
        self.for_each(|e| sum += e.count);
        sum
    }

    /// Visits every recorded edge.
    pub fn for_each(&self, mut f: impl FnMut(Edge)) {
        for slot in self.slots.iter() {
            // Pairs with the claiming thread's Release: identity fields
            // are fully written once `init` reads 1.
            if slot.init.load(Ordering::Acquire) == 0 {
                continue;
            }
            let count = slot.count.load(Ordering::Relaxed);
            if count == 0 {
                continue;
            }
            f(Edge {
                aggressor_proc: slot.aggressor_proc.load(Ordering::Relaxed) as u32,
                victim_proc: slot.victim_proc.load(Ordering::Relaxed) as u32,
                cause: ABORT_CAUSES[slot.cause.load(Ordering::Relaxed) as usize],
                var: slot.var.load(Ordering::Relaxed),
                count,
                last_aggressor: slot.last_aggressor.load(Ordering::Relaxed),
                last_victim: slot.last_victim.load(Ordering::Relaxed),
            });
        }
    }

    /// The `k` heaviest edges, descending by count (ties broken by var
    /// then aggressor for determinism).
    pub fn top_k(&self, k: usize) -> Vec<Edge> {
        let mut all = Vec::new();
        self.for_each(|e| all.push(e));
        all.sort_by(|a, b| {
            b.count
                .cmp(&a.count)
                .then(a.var.cmp(&b.var))
                .then(a.aggressor_proc.cmp(&b.aggressor_proc))
        });
        all.truncate(k);
        all
    }

    /// Zeroes every edge count (slots keep their identity claims).
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
        let t = ConflictTable::new();
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

    #[test]
    fn unknown_aggressor_records_nothing() {
        let t = ConflictTable::new();
        t.record(TX_UNKNOWN, pack_tx(2, 2), AbortCause::ReadValidation, 3);
        assert_eq!(t.total(), 0);
        assert!(t.top_k(4).is_empty());
    }

    #[test]
    fn reset_clears_counts() {
        let t = ConflictTable::new();
        t.record(pack_tx(0, 1), pack_tx(1, 1), AbortCause::CasLost, 4);
        t.reset();
        assert_eq!(t.total(), 0);
        t.record(pack_tx(0, 2), pack_tx(1, 2), AbortCause::CasLost, 4);
        assert_eq!(t.top_k(1)[0].count, 1);
    }

    #[test]
    fn concurrent_records_all_land() {
        let t = std::sync::Arc::new(ConflictTable::new());
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
