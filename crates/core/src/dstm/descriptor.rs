//! Transaction descriptors and their status word.
//!
//! The descriptor is the heart of a DSTM-style OFTM (Section 1 of the
//! paper): every object owned by a live transaction `T_i` points to `T_i`'s
//! descriptor, and the transaction's fate is decided by a single CAS on the
//! descriptor's status word — `Live → Committed` by `T_i` itself, or
//! `Live → Aborted` by any transaction that needs to revoke `T_i`'s
//! ownership. This one shared word is also exactly the "artificial hot
//! spot" of Section 5: unrelated transactions touching different
//! t-variables owned by the same `T_m` contend on `T_m`'s descriptor, which
//! is what Theorem 13 proves unavoidable.

use oftm_histories::{BaseObjId, TxId};
use oftm_obs::TX_UNKNOWN;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

/// The three states of a transaction (paper, Section 1: "indicates whether
/// `T_i` is still live, already committed or aborted").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum TxState {
    Live = 0,
    Committed = 1,
    Aborted = 2,
}

impl TxState {
    pub(crate) fn from_u8(v: u8) -> TxState {
        match v {
            0 => TxState::Live,
            1 => TxState::Committed,
            _ => TxState::Aborted,
        }
    }
}

/// A transaction descriptor.
///
/// Shared via `Arc` between the owning transaction and every locator it
/// installs. All fields are either immutable after construction or atomic.
pub struct Descriptor {
    id: TxId,
    status: AtomicU8,
    /// Base-object identity of the status word, for the low-level recorder.
    base: BaseObjId,
    /// Birth order within the STM instance (its begin sequence number;
    /// smaller is older) — Greedy manager.
    birth: u64,
    /// Work-based priority — Karma manager.
    karma: AtomicU64,
    /// First time (nanos since STM epoch) some other transaction wanted to
    /// abort this one; 0 = never. Used by the eventual-ic variant's grace
    /// period (Definition 4).
    first_conflict: AtomicU64,
    /// Forensic killer stamp: packed id ([`oftm_obs::pack_tx`]) of the
    /// transaction that aborted this one, [`TX_UNKNOWN`] while alive.
    /// Write-once, claimed by the aggressor immediately before its
    /// `try_abort` CAS so the victim can attribute its abort exactly.
    killer_tx: AtomicU64,
    /// The t-variable the killer was fighting over (valid once `killer_tx`
    /// is claimed and the claimant's abort CAS has been observed).
    killer_var: AtomicU64,
}

impl Descriptor {
    /// Creates a live descriptor.
    pub fn new(id: TxId, birth: u64) -> Self {
        Descriptor {
            id,
            status: AtomicU8::new(TxState::Live as u8),
            base: crate::record::fresh_base_id(),
            birth,
            karma: AtomicU64::new(0),
            first_conflict: AtomicU64::new(0),
            killer_tx: AtomicU64::new(TX_UNKNOWN),
            // u64::MAX = unset (t-variable id 0 is legal, MAX is not).
            killer_var: AtomicU64::new(u64::MAX),
        }
    }

    pub fn id(&self) -> TxId {
        self.id
    }

    pub fn base(&self) -> BaseObjId {
        self.base
    }

    pub fn birth(&self) -> u64 {
        self.birth
    }

    /// Current status.
    ///
    /// `Acquire`: observing `Committed` must synchronize with the owner's
    /// releasing commit CAS so that the tentative value it published (the
    /// locator's `new` field) is visible to us.
    pub fn status(&self) -> TxState {
        // ord: Acquire pairs with the commit/abort CAS's Release (doc above).
        TxState::from_u8(self.status.load(Ordering::Acquire))
    }

    /// Attempts the commit CAS `Live → Committed`.
    ///
    /// `AcqRel` on success: `Release` publishes every pre-commit write
    /// (tentative values) to readers that subsequently `Acquire` the
    /// status; `Acquire` orders the preceding read-set validation before
    /// the state change. Returns `true` iff this call committed the
    /// transaction.
    pub fn try_commit(&self) -> bool {
        self.status
            // ord: AcqRel per the doc above; failure Acquire pairs with the
            // racing settling CAS so the loser sees why it lost.
            .compare_exchange(
                TxState::Live as u8,
                TxState::Committed as u8,
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_ok()
    }

    /// Attempts the abort CAS `Live → Aborted`. Any transaction may call
    /// this on any descriptor — that revocability is what makes the
    /// ownership scheme obstruction-free. Returns `true` iff this call
    /// aborted the transaction (false: it was already committed/aborted).
    pub fn try_abort(&self) -> bool {
        self.status
            // ord: AcqRel — Release makes the Aborted verdict the settled
            // state readers Acquire; failure Acquire pairs with the racing
            // settling CAS.
            .compare_exchange(
                TxState::Live as u8,
                TxState::Aborted as u8,
                Ordering::AcqRel,
                Ordering::Acquire, // ord: pairs with the settling CAS
            )
            .is_ok()
    }

    pub fn karma(&self) -> u64 {
        // ord: Relaxed — monotonic priority counter; contention-manager
        // heuristics tolerate stale reads.
        self.karma.load(Ordering::Relaxed)
    }

    pub fn add_karma(&self, n: u64) {
        // ord: Relaxed — heuristic counter, no payload to order.
        self.karma.fetch_add(n, Ordering::Relaxed);
    }

    /// Claims the forensic killer stamp of this (victim) descriptor:
    /// `killer` is the aggressor's packed transaction id
    /// ([`oftm_obs::pack_tx`]), `var` the t-variable fought over. First
    /// aggressor wins; later claimants are no-ops. Called immediately
    /// *before* the aggressor's `try_abort`, so a victim that observes
    /// itself `Aborted` (an Acquire on the status word) also observes the
    /// winning claimant's stamp when that claimant is the one whose abort
    /// CAS succeeded — the overwhelmingly common case. A claimant that
    /// stalls between stamp and abort CAS while a second aggressor kills
    /// the victim can leave `killer_var` momentarily unset; the victim
    /// then attributes the abort to the stamped killer with no variable,
    /// which is imprecise but never fabricated.
    pub fn stamp_killer(&self, killer: u64, var: u64) {
        if self
            .killer_tx
            // ord: AcqRel keeps the stamp write-once (mirrors
            // `note_conflict`); failure Acquire pairs with the first
            // claimant's Release.
            .compare_exchange(TX_UNKNOWN, killer, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            // ord: Release so a reader that Acquires `killer_var` (or the
            // claimant's subsequent abort CAS on the status word) sees it.
            self.killer_var.store(var, Ordering::Release);
        }
    }

    /// The killer stamp: packed aggressor id (or [`TX_UNKNOWN`] if nobody
    /// stamped us) and the t-variable fought over (`None` until the
    /// claimant's var store is visible).
    pub fn killer(&self) -> (u64, Option<u64>) {
        // ord: Acquire pairs with the stamping claimant's Release stores.
        let tx = self.killer_tx.load(Ordering::Acquire);
        if tx == TX_UNKNOWN {
            return (TX_UNKNOWN, None);
        }
        // ord: Acquire pairs with `stamp_killer`'s Release store; MAX with
        // a claimed killer_tx means the claimant's store is not yet
        // visible.
        match self.killer_var.load(Ordering::Acquire) {
            u64::MAX => (tx, None),
            v => (tx, Some(v)),
        }
    }

    /// Records the first moment a peer wanted this transaction gone;
    /// returns that (stable) first moment. Used by the grace-period policy.
    pub fn note_conflict(&self, now: u64) -> u64 {
        let now = now.max(1); // 0 is the "unset" sentinel
        match self
            .first_conflict
            // ord: AcqRel keeps the first-conflict timestamp write-once;
            // failure Acquire pairs with the first writer's Release so
            // `prev` is the stable value every caller agrees on.
            .compare_exchange(0, now, Ordering::AcqRel, Ordering::Acquire)
        {
            Ok(_) => now,
            Err(prev) => prev,
        }
    }
}

impl std::fmt::Debug for Descriptor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Descriptor")
            .field("id", &self.id)
            .field("status", &self.status())
            .field("karma", &self.karma())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle_commit() {
        let d = Descriptor::new(TxId::new(1, 0), 5);
        assert_eq!(d.status(), TxState::Live);
        assert!(d.try_commit());
        assert_eq!(d.status(), TxState::Committed);
        // Terminal: neither abort nor a second commit may succeed.
        assert!(!d.try_abort());
        assert!(!d.try_commit());
        assert_eq!(d.status(), TxState::Committed);
    }

    #[test]
    fn lifecycle_abort() {
        let d = Descriptor::new(TxId::new(1, 1), 5);
        assert!(d.try_abort());
        assert_eq!(d.status(), TxState::Aborted);
        assert!(!d.try_commit());
    }

    #[test]
    fn commit_abort_race_has_single_winner() {
        use std::sync::Arc;
        for _ in 0..64 {
            let d = Arc::new(Descriptor::new(TxId::new(1, 2), 0));
            let d2 = Arc::clone(&d);
            let committer = std::thread::spawn(move || d2.try_commit());
            let aborted = d.try_abort();
            let committed = committer.join().unwrap();
            assert!(
                committed ^ aborted,
                "exactly one of commit/abort must win (committed={committed}, aborted={aborted})"
            );
        }
    }

    #[test]
    fn karma_accumulates() {
        let d = Descriptor::new(TxId::new(1, 3), 0);
        d.add_karma(2);
        d.add_karma(3);
        assert_eq!(d.karma(), 5);
    }

    #[test]
    fn first_conflict_is_sticky() {
        let d = Descriptor::new(TxId::new(1, 4), 0);
        assert_eq!(d.note_conflict(100), 100);
        assert_eq!(d.note_conflict(200), 100);
    }

    #[test]
    fn note_conflict_zero_is_clamped() {
        let d = Descriptor::new(TxId::new(1, 5), 0);
        assert_eq!(d.note_conflict(0), 1);
    }

    #[test]
    fn killer_stamp_is_write_once() {
        let d = Descriptor::new(TxId::new(2, 0), 0);
        assert_eq!(d.killer(), (TX_UNKNOWN, None));
        d.stamp_killer(oftm_obs::pack_tx(1, 7), 42);
        d.stamp_killer(oftm_obs::pack_tx(3, 9), 99); // loses the claim
        assert_eq!(d.killer(), (oftm_obs::pack_tx(1, 7), Some(42)));
    }

    #[test]
    fn killer_stamp_admits_tvar_zero() {
        let d = Descriptor::new(TxId::new(2, 1), 0);
        d.stamp_killer(oftm_obs::pack_tx(1, 1), 0);
        assert_eq!(d.killer(), (oftm_obs::pack_tx(1, 1), Some(0)));
    }

    #[test]
    fn unique_base_ids() {
        let a = Descriptor::new(TxId::new(1, 6), 0);
        let b = Descriptor::new(TxId::new(1, 7), 0);
        assert_ne!(a.base(), b.base());
    }
}
