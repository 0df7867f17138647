//! The Greedy (timestamp) contention manager: older transactions win.
//!
//! Each transaction carries its birth order (its begin sequence number in
//! the STM instance — an order is all this policy compares, so no clock
//! is read). On conflict, if `me` is older than the owner, the owner is
//! aborted immediately; otherwise `me` backs off, giving the older owner
//! time to finish — but only `max_attempts` times, after which the owner is
//! aborted anyway (the owner might be preempted or crashed, and
//! obstruction-freedom forbids waiting forever — Section 1 of the paper).

use super::{expo_backoff, ContentionManager, Resolution};
use crate::dstm::descriptor::Descriptor;
use std::time::Duration;

/// Oldest-transaction-wins policy with a bounded courtesy period.
#[derive(Clone, Copy, Debug)]
pub struct Greedy {
    pub base: Duration,
    pub cap: Duration,
    pub max_attempts: u32,
}

impl Default for Greedy {
    fn default() -> Self {
        Greedy {
            base: Duration::from_micros(2),
            cap: Duration::from_micros(512),
            max_attempts: 10,
        }
    }
}

impl ContentionManager for Greedy {
    fn name(&self) -> &'static str {
        "greedy"
    }

    fn resolve(&self, me: &Descriptor, other: &Descriptor, attempt: u32) -> Resolution {
        if me.birth() <= other.birth() || attempt >= self.max_attempts {
            Resolution::AbortOther
        } else {
            Resolution::Backoff(expo_backoff(self.base, attempt, self.cap))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oftm_histories::TxId;

    #[test]
    fn older_aborts_younger_owner() {
        let cm = Greedy::default();
        let me = Descriptor::new(TxId::new(1, 0), 10);
        let other = Descriptor::new(TxId::new(2, 0), 20);
        assert_eq!(cm.resolve(&me, &other, 0), Resolution::AbortOther);
    }

    #[test]
    fn younger_defers_then_aborts() {
        let cm = Greedy::default();
        let me = Descriptor::new(TxId::new(1, 0), 20);
        let other = Descriptor::new(TxId::new(2, 0), 10);
        assert!(matches!(cm.resolve(&me, &other, 0), Resolution::Backoff(_)));
        assert_eq!(
            cm.resolve(&me, &other, cm.max_attempts),
            Resolution::AbortOther
        );
    }
}
