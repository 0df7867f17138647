//! The Karma contention manager: priority by accumulated work.
//!
//! Each transaction earns one unit of karma per t-variable it opens
//! (`on_open`). On conflict, a transaction with at least as much karma as
//! the owner — plus the number of times it has already retried — aborts the
//! owner; otherwise it backs off briefly and retries, effectively spending
//! retries to buy priority. Aborted transactions keep their karma across
//! restarts in the original proposal; here karma lives in the descriptor,
//! and the retry counter serves the same seniority purpose while keeping
//! the manager stateless. The attempt counter guarantees the
//! obstruction-freedom escape hatch.

use super::{expo_backoff, ContentionManager, Resolution};
use crate::dstm::descriptor::Descriptor;
use std::time::Duration;

/// Work-based priority policy.
#[derive(Clone, Copy, Debug)]
pub struct Karma {
    pub base: Duration,
    pub cap: Duration,
    /// Hard bound on backoff rounds (obstruction-freedom).
    pub max_attempts: u32,
}

impl Default for Karma {
    fn default() -> Self {
        Karma {
            base: Duration::from_micros(1),
            cap: Duration::from_micros(256),
            max_attempts: 16,
        }
    }
}

impl ContentionManager for Karma {
    fn name(&self) -> &'static str {
        "karma"
    }

    fn resolve(&self, me: &Descriptor, other: &Descriptor, attempt: u32) -> Resolution {
        if attempt >= self.max_attempts {
            return Resolution::AbortOther;
        }
        let mine = me.karma().saturating_add(u64::from(attempt));
        if mine >= other.karma() {
            Resolution::AbortOther
        } else {
            Resolution::Backoff(expo_backoff(self.base, attempt, self.cap))
        }
    }

    fn on_open(&self, me: &Descriptor) {
        me.add_karma(1);
    }

    fn counts_opens(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oftm_histories::TxId;

    #[test]
    fn richer_transaction_wins_immediately() {
        let cm = Karma::default();
        let me = Descriptor::new(TxId::new(1, 0), 0);
        let other = Descriptor::new(TxId::new(2, 0), 0);
        for _ in 0..5 {
            cm.on_open(&me);
        }
        cm.on_open(&other);
        assert_eq!(cm.resolve(&me, &other, 0), Resolution::AbortOther);
    }

    #[test]
    fn poorer_transaction_buys_priority_with_retries() {
        let cm = Karma::default();
        let me = Descriptor::new(TxId::new(1, 0), 0);
        let other = Descriptor::new(TxId::new(2, 0), 0);
        for _ in 0..3 {
            cm.on_open(&other);
        }
        // attempt 0..2: poorer, backs off; attempt 3: karma 0 + 3 ≥ 3.
        assert!(matches!(cm.resolve(&me, &other, 0), Resolution::Backoff(_)));
        assert_eq!(cm.resolve(&me, &other, 3), Resolution::AbortOther);
    }

    #[test]
    fn hard_cap_preserves_obstruction_freedom() {
        let cm = Karma::default();
        let me = Descriptor::new(TxId::new(1, 0), 0);
        let other = Descriptor::new(TxId::new(2, 0), 0);
        other.add_karma(1_000_000);
        assert_eq!(
            cm.resolve(&me, &other, cm.max_attempts),
            Resolution::AbortOther
        );
    }
}
