//! **Commit notification** — the wake-on-commit substrate of the async
//! transaction runtime (`oftm-asyncrt`).
//!
//! The paper's obstruction-free STMs guarantee progress only when a
//! transaction eventually runs alone; under sustained contention the
//! standard recipe is randomized backoff, which *burns CPU in proportion
//! to the contention* — every parked-in-spirit transaction keeps a core
//! busy re-running attempts that are doomed while the conflicting peer is
//! still in flight. Kuznetsov & Ravi ("Why Transactional Memory Should
//! Not Be Obstruction-Free") identify exactly this wasted work as the
//! practical price of obstruction-freedom. The systems answer is to make
//! the waiting *passive*: an aborted transaction parks until some
//! t-variable in its footprint actually changes, i.e. until a conflicting
//! peer **commits** — the only event after which a re-run can observe a
//! different world.
//!
//! [`CommitNotifier`] is that subsystem. Every STM instance owns one
//! (exposed via [`crate::api::WordStm::notifier`]); every backend's commit
//! path calls [`CommitNotifier::publish`] with its written t-variables
//! *after* the commit's effects are visible. Waiters snapshot per-shard
//! sequence numbers, register a [`Waker`], and re-validate — the protocol
//! below makes a wake impossible to lose.
//!
//! ## Sharding
//!
//! T-variables hash onto [`NOTIFY_SHARDS`] = 64 shards (a `u64` bitmask
//! addresses the whole shard space, so a commit's dedup is a single OR
//! loop). A shard holds a cache-padded sequence counter bumped by every
//! commit that wrote a variable of the shard, a parked-waiter count, and
//! the waiter list. Shard granularity trades spurious wakes (a commit to
//! a *different* variable in the same shard wakes the waiter — it just
//! re-runs and re-parks) for O(1) state per STM instead of per variable;
//! a woken re-run validates through the STM itself, so spurious wakes
//! cost one attempt, never correctness.
//!
//! ## The no-lost-wakeup protocol
//!
//! * **Committer**: for every written shard, `seq.fetch_add(1, SeqCst)`
//!   (1), then `parked.load(SeqCst)` (2); if non-zero, drain the waiter
//!   list and wake each waker.
//! * **Waiter**: sample `seq` of every footprint shard
//!   ([`CommitNotifier::snapshot`]), register the waker and bump `parked`
//!   with `SeqCst` (3), then re-read every sampled `seq` (4)
//!   ([`CommitNotifier::park`]); if any changed, treat the park as an
//!   immediate wake (the caller self-wakes and retries).
//!
//! Both critical pairs are store-then-load on *different* locations — the
//! Dekker pattern — hence `SeqCst` throughout: in the single total order
//! of these operations, either the committer's load (2) observes the
//! waiter's registration (3) and drains it, or (2) precedes (3), in which
//! case the seq bump (1) precedes the waiter's validation (4), which then
//! observes the change and refuses to park. A commit can therefore never
//! fall between a waiter's snapshot and its park without waking it.
//!
//! Registration is one-shot, futex-style: a publish drains the whole
//! shard list, and a future that parks again re-registers. A stale waker
//! (its future was dropped, or it was registered on several shards and
//! one already fired) is woken harmlessly — waking a completed future is
//! a no-op by the `Waker` contract.
//!
//! When no async clients exist, `parked` is zero everywhere and the whole
//! subsystem costs a commit one `fetch_add` + one load per written shard
//! — the same order as TL2's sharded clock stamp.
//!
//! ## Mechanized argument
//!
//! The numbered protocol steps live in [`crate::kernel::NotifyProto`],
//! generic over a synchronization facade; this module instantiates it with
//! real atomics ([`crate::kernel::StdSync`]) and only adds the
//! t-variable → shard mapping. `oftm-verify`'s bounded model checker runs
//! the *same* kernel under a deterministic DFS scheduler
//! (`crates/verify/tests/model_notify.rs`) and exhaustively confirms, at
//! preemption bound ≥ 2, that no interleaving strands a parked waiter
//! whose shard has published — the prose Dekker argument above, checked
//! schedule by schedule.

use crate::kernel::{NotifyProto, StdSync};
use oftm_histories::TVarId;
use std::task::Waker;

/// Number of notification shards. A power of two, and exactly 64 so a
/// footprint's deduplicated shard set is a single `u64` bitmask.
pub const NOTIFY_SHARDS: usize = 64;

/// Iterator over the set bit positions of a shard bitmask.
struct MaskBits(u64);

impl Iterator for MaskBits {
    type Item = usize;
    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            return None;
        }
        let s = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1;
        Some(s)
    }
}

/// A waiter's sampled view of its footprint: the deduplicated shard set
/// with the sequence number each shard had at snapshot time. Reusable —
/// the transaction future keeps one and re-snapshots into it per park.
#[derive(Default)]
pub struct WaitSnapshot {
    /// `(shard index, sampled seq)`, one entry per distinct shard.
    shards: Vec<(usize, u64)>,
}

impl WaitSnapshot {
    pub fn new() -> Self {
        Self::default()
    }

    /// A snapshot of zero shards parks nothing (the caller must fall back
    /// to yielding): an empty footprint gives the notifier nothing to
    /// watch.
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }
}

/// The per-STM commit-notification endpoint (see module docs). A clone is
/// a second handle on the same endpoint, not a fresh one: an STM embedding
/// other engines hands each a clone, so whichever engine commits wakes
/// the embedder's waiters.
#[derive(Clone)]
pub struct CommitNotifier {
    proto: NotifyProto<StdSync, Waker>,
}

impl Default for CommitNotifier {
    fn default() -> Self {
        Self::new()
    }
}

impl CommitNotifier {
    pub fn new() -> Self {
        CommitNotifier {
            proto: NotifyProto::new(NOTIFY_SHARDS),
        }
    }

    /// The shard a t-variable maps to. Public so tests can construct
    /// same-shard / distinct-shard variable pairs deliberately.
    pub fn shard_of(x: TVarId) -> usize {
        // splitmix64 finalizer: dynamic ids are dense (base + k), so a
        // plain mask would put a node's words in adjacent shards *and*
        // alias every 64th node; mixing spreads footprints evenly.
        let mut z = x.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) as usize) & (NOTIFY_SHARDS - 1)
    }

    /// Deduplicates `written` into a shard bitmask.
    fn mask_of(written: impl IntoIterator<Item = TVarId>) -> u64 {
        let mut mask = 0u64;
        for x in written {
            mask |= 1u64 << Self::shard_of(x);
        }
        mask
    }

    /// Commit-path hook: records that the listed t-variables changed and
    /// wakes every waiter parked on their shards. Call **after** the
    /// commit's writes are visible, so a woken re-run observes the new
    /// state. Duplicates in `written` are free (one bit per shard).
    pub fn publish(&self, written: impl IntoIterator<Item = TVarId>) {
        self.proto.publish(MaskBits(Self::mask_of(written)));
    }

    /// Samples the current sequence number of every shard in `footprint`
    /// into `snap` (cleared first; duplicates dedup to one entry). This is
    /// the waiter's step preceding [`CommitNotifier::park`].
    pub fn snapshot(&self, footprint: impl IntoIterator<Item = TVarId>, snap: &mut WaitSnapshot) {
        self.proto
            .snapshot(MaskBits(Self::mask_of(footprint)), &mut snap.shards);
    }

    /// Registers `waker` on every shard of `snap`, then validates the
    /// sampled sequence numbers. Returns `true` if the park **stands** (a
    /// future commit will wake the waker); `false` if a commit raced the
    /// registration — the caller must treat itself as already woken
    /// (retry now, or self-wake before returning `Pending`). A failed
    /// park deregisters the wakers it just pushed (and any earlier stale
    /// clone for the same task), so a task that goes on to complete does
    /// not stay pinned in a shard list that may never publish again.
    #[must_use]
    pub fn park(&self, snap: &WaitSnapshot, waker: &Waker) -> bool {
        self.proto.park(&snap.shards, waker)
    }

    /// True if any shard of `snap` has published since the snapshot was
    /// taken (diagnostics / tests).
    pub fn changed_since(&self, snap: &WaitSnapshot) -> bool {
        self.proto.changed_since(&snap.shards)
    }

    /// Total wakers currently registered across all shards (diagnostics;
    /// a waiter parked on k shards counts k times).
    pub fn parked_wakers(&self) -> usize {
        self.proto.parked_wakers()
    }

    /// Total publishes across all shards (diagnostics; a commit writing k
    /// distinct shards counts k times).
    pub fn publish_count(&self) -> u64 {
        self.proto.publish_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::task::Wake;

    /// A waker that counts its wakes.
    struct CountingWake(AtomicUsize);

    impl Wake for CountingWake {
        fn wake(self: Arc<Self>) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn counting_waker() -> (Arc<CountingWake>, Waker) {
        let w = Arc::new(CountingWake(AtomicUsize::new(0)));
        (Arc::clone(&w), Waker::from(w))
    }

    /// Two ids guaranteed to live in different shards (probe upward from
    /// a base until the shard differs).
    fn distinct_shard_ids() -> (TVarId, TVarId) {
        let a = TVarId(0);
        let mut b = TVarId(1);
        while CommitNotifier::shard_of(b) == CommitNotifier::shard_of(a) {
            b = TVarId(b.0 + 1);
        }
        (a, b)
    }

    #[test]
    fn waiter_woken_by_commit_on_its_footprint() {
        let n = CommitNotifier::new();
        let (counter, waker) = counting_waker();
        let mut snap = WaitSnapshot::new();
        n.snapshot([TVarId(7)], &mut snap);
        assert!(n.park(&snap, &waker), "no commit raced: park must stand");
        assert_eq!(counter.0.load(Ordering::SeqCst), 0);
        n.publish([TVarId(7)]);
        assert_eq!(counter.0.load(Ordering::SeqCst), 1, "commit must wake");
        assert_eq!(n.parked_wakers(), 0, "registration is one-shot");
    }

    #[test]
    fn waiter_not_woken_by_disjoint_commit() {
        let n = CommitNotifier::new();
        let (a, b) = distinct_shard_ids();
        let (counter, waker) = counting_waker();
        let mut snap = WaitSnapshot::new();
        n.snapshot([a], &mut snap);
        assert!(n.park(&snap, &waker));
        n.publish([b]);
        assert_eq!(
            counter.0.load(Ordering::SeqCst),
            0,
            "a commit to a different shard must not wake the waiter"
        );
        // …and the real commit still does.
        n.publish([a]);
        assert_eq!(counter.0.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn racing_commit_fails_the_park() {
        let n = CommitNotifier::new();
        let (_counter, waker) = counting_waker();
        let mut snap = WaitSnapshot::new();
        n.snapshot([TVarId(3)], &mut snap);
        // The commit lands between snapshot and park: the waiter was
        // (briefly) invisible to it, so park must refuse.
        n.publish([TVarId(3)]);
        assert!(
            !n.park(&snap, &waker),
            "a commit between snapshot and park must fail validation"
        );
        assert!(n.changed_since(&snap));
        assert_eq!(
            n.parked_wakers(),
            0,
            "a failed park must deregister the waker it pushed"
        );
    }

    #[test]
    fn multi_shard_footprint_wakes_on_any_shard() {
        let n = CommitNotifier::new();
        let (a, b) = distinct_shard_ids();
        for commit_on in [a, b] {
            let (counter, waker) = counting_waker();
            let mut snap = WaitSnapshot::new();
            n.snapshot([a, b], &mut snap);
            assert_eq!(snap.shards.len(), 2);
            assert!(n.park(&snap, &waker));
            n.publish([commit_on]);
            assert_eq!(counter.0.load(Ordering::SeqCst), 1, "{commit_on:?}");
        }
    }

    #[test]
    fn duplicate_footprint_entries_dedup() {
        let n = CommitNotifier::new();
        let mut snap = WaitSnapshot::new();
        n.snapshot([TVarId(5), TVarId(5), TVarId(5)], &mut snap);
        assert_eq!(snap.shards.len(), 1);
    }

    #[test]
    fn park_registers_each_shard_exactly_once() {
        // Transaction footprints carry duplicates (every traversal
        // re-touches link words); a park must land one registration per
        // distinct shard, never one per touch.
        let n = CommitNotifier::new();
        let (a, b) = distinct_shard_ids();
        let (counter, waker) = counting_waker();
        let mut snap = WaitSnapshot::new();
        n.snapshot([a, b, a, a, b, a], &mut snap);
        assert_eq!(snap.shards.len(), 2);
        assert!(n.park(&snap, &waker));
        assert_eq!(n.parked_wakers(), 2, "one registration per shard");
        n.publish([a]);
        assert_eq!(counter.0.load(Ordering::SeqCst), 1, "woken exactly once");
        assert_eq!(n.parked_wakers(), 1, "only shard a drained");
    }

    #[test]
    fn empty_footprint_snapshot_is_empty() {
        let n = CommitNotifier::new();
        let mut snap = WaitSnapshot::new();
        n.snapshot([], &mut snap);
        assert!(snap.is_empty());
    }

    /// The seeded registration/commit race stress: a committer hammers a
    /// variable while a waiter repeatedly snapshot→park→waits. The
    /// protocol guarantees that whenever the committer publishes after a
    /// standing park, the waiter's wake count advances — no interleaving
    /// may strand a parked waiter whose shard has moved.
    #[test]
    fn no_lost_wakeup_under_registration_race() {
        let n = Arc::new(CommitNotifier::new());
        let x = TVarId(11);
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));

        let committer = {
            let n = Arc::clone(&n);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut published = 0u64;
                while !stop.load(Ordering::SeqCst) {
                    n.publish([x]);
                    published += 1;
                    if published % 7 == 0 {
                        std::thread::yield_now();
                    }
                }
                // Final sweeps so a waiter parked just after the loop's
                // last publish still drains.
                for _ in 0..64 {
                    n.publish([x]);
                    std::thread::yield_now();
                }
            })
        };

        let mut snap = WaitSnapshot::new();
        for round in 0..2000u64 {
            let (counter, waker) = counting_waker();
            n.snapshot([x], &mut snap);
            if (round % 3) == 0 {
                std::thread::yield_now(); // widen the snapshot→park window
            }
            if !n.park(&snap, &waker) {
                continue; // raced: the caller would retry immediately
            }
            // The park stands: a publish MUST eventually wake us. Bounded
            // wait; a lost wakeup shows up as the timeout panic.
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
            while counter.0.load(Ordering::SeqCst) == 0 {
                assert!(
                    std::time::Instant::now() < deadline,
                    "lost wakeup: parked waiter never woken (round {round})"
                );
                std::hint::spin_loop();
            }
        }
        stop.store(true, Ordering::SeqCst);
        committer.join().unwrap();
    }
}
