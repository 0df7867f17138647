//! The sharded commit clock shared by the TL and TL2 backends, together
//! with the packed version-word layout both stamp into per-variable lock
//! words.
//!
//! PR 4 sharded TL2's global version clock into [`CLOCK_SHARDS`]
//! cache-line-isolated counters; this module extracts that machinery so TL
//! can reuse it: the read-only fast path of both backends validates each
//! read against a begin-time **version vector** (one sampled count per
//! shard), which only works if writing commits stamp `(shard, count)`
//! pairs instead of raw per-variable counters.
//!
//! Soundness of the lazy per-shard merge: each shard counter is monotonic,
//! so for a reader holding sample vector `rv`, a packed version `(s, c)`
//! with `c ≤ rv[s]` was stamped by a writer whose clock bump preceded the
//! reader's sample of shard `s` — the stamped value existed at (or before)
//! the sample and belongs to the reader's snapshot.

use oftm_core::record::fresh_base_id;
use oftm_histories::BaseObjId;
use std::sync::atomic::{AtomicU64, Ordering};

/// High bit of a lock word: held by a committing writer.
pub(crate) const LOCK_BIT: u64 = 1 << 63;

/// Number of clock shards; a power of two so the shard of a process is a
/// mask away.
pub const CLOCK_SHARDS: usize = 8;

/// Version-word layout: bit 63 lock, bits 56..63 shard, bits 0..56 count.
pub(crate) const SHARD_SHIFT: u32 = 56;
pub(crate) const COUNT_MASK: u64 = (1 << SHARD_SHIFT) - 1;

pub(crate) fn ver_shard(v: u64) -> usize {
    (((v & !LOCK_BIT) >> SHARD_SHIFT) as usize) & (CLOCK_SHARDS - 1)
}

pub(crate) fn ver_count(v: u64) -> u64 {
    v & COUNT_MASK
}

pub(crate) fn pack_version(shard: usize, count: u64) -> u64 {
    debug_assert!(count <= COUNT_MASK);
    ((shard as u64) << SHARD_SHIFT) | count
}

/// A packed version `v` is within the snapshot described by the sample
/// vector `rv`.
pub(crate) fn readable(v: u64, rv: &[u64; CLOCK_SHARDS]) -> bool {
    ver_count(v) <= rv[ver_shard(v)]
}

/// A clock shard on its own cache line (the whole point of sharding is
/// that disjoint committers do not bounce one line).
#[repr(align(64))]
pub(crate) struct ClockShard {
    pub(crate) count: AtomicU64,
    /// Base object identity of this shard cell in recorded histories.
    pub(crate) base: BaseObjId,
}

/// The sharded commit clock: [`CLOCK_SHARDS`] independent counters.
pub(crate) struct ShardedClock {
    shards: Box<[ClockShard]>,
}

impl ShardedClock {
    pub(crate) fn new() -> Self {
        ShardedClock {
            shards: (0..CLOCK_SHARDS)
                .map(|_| ClockShard {
                    count: AtomicU64::new(0),
                    base: fresh_base_id(),
                })
                .collect(),
        }
    }

    pub(crate) fn shards(&self) -> &[ClockShard] {
        &self.shards
    }

    /// Bumps the committing process's own shard and returns the packed
    /// `(shard, count)` write version to stamp — the sharded replacement
    /// for the global `fetch_add` hot spot.
    pub(crate) fn tick(&self, proc: u32) -> u64 {
        let shard = proc as usize & (CLOCK_SHARDS - 1);
        // ord: AcqRel — Release pairs with the Acquire shard loads of
        // `sample_rv`/`now`: a sampler that sees this count also sees the
        // commit locks taken before the bump, so every variable of a
        // commit stamped within its vector reads as locked or as released
        // with the new value, never as the pre-commit word. Acquire chains
        // the bumps of one shard, keeping that argument transitive.
        let count = self.shards[shard].count.fetch_add(1, Ordering::AcqRel) + 1;
        pack_version(shard, count)
    }

    /// Sum of all shard counts: total writing commits stamped so far (the
    /// lazy-merged "current time"; diagnostics only).
    pub(crate) fn now(&self) -> u64 {
        self.shards
            .iter()
            // ord: Acquire pairs with `tick`'s AcqRel bump, as the
            // engine's `sample_rv` does shard by shard.
            .map(|s| s.count.load(Ordering::Acquire))
            .sum()
    }
}
