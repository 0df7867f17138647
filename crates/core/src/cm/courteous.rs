//! The **Courteous** manager: yield the CPU to the owner instead of
//! spinning at it.
//!
//! The classical managers express courtesy as *bounded busy-waiting*
//! (exponential backoff and friends). On an oversubscribed or
//! single-CPU host that is exactly backwards: the conflicting owner is
//! usually not running *because the attacker holds the CPU*, and a
//! sub-quantum spin never lets it finish. Worse, once every attacker's
//! total patience fits inside one scheduler quantum, patience always
//! expires while the owner is still preempted — each attacker revokes the
//! descheduled owner, acquires, is itself preempted, and is revoked in
//! turn. Nobody commits: a mutual-revocation ring (measured on a 1-CPU
//! box: DSTM under an exponential-backoff manager collapses to ~20 ops/s
//! on an early-acquire workload the courteous manager runs at ~100k
//! ops/s).
//!
//! `Courteous` makes the courtesy a *scheduling* act: each resolution
//! round calls [`std::thread::yield_now`] — handing the processor to the
//! preempted owner, which then finishes in microseconds — and answers
//! [`Resolution::Wait`]. After [`Courteous::PATIENCE`] rounds the owner is
//! presumed crashed or parked and is aborted, preserving the paper's
//! obstruction-freedom contract: *"eventually `T_k` must be able to abort
//! `T_i` … without any interaction with `T_i`"* (finitely many waits,
//! then [`Resolution::AbortOther`]).

use super::{ContentionManager, Resolution};
use crate::dstm::descriptor::Descriptor;

/// Yield-to-owner contention manager (see module docs).
#[derive(Clone, Copy, Debug, Default)]
pub struct Courteous;

impl Courteous {
    /// Resolution rounds (each one scheduler yield) granted to a live
    /// owner before it is presumed stuck and aborted: ≫ the handful of
    /// quanta a live preempted owner needs to finish, yet resolved in
    /// microseconds against a parked or crashed owner (yielding with no
    /// runnable peer is a no-op).
    pub const PATIENCE: u32 = 64;
}

impl ContentionManager for Courteous {
    fn resolve(&self, _me: &Descriptor, _other: &Descriptor, attempt: u32) -> Resolution {
        if attempt < Self::PATIENCE {
            // The wait itself: one scheduler quantum donated to the owner.
            std::thread::yield_now();
            Resolution::Wait
        } else {
            Resolution::AbortOther
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oftm_histories::TxId;

    #[test]
    fn yields_then_aborts_at_patience() {
        let me = Descriptor::new(TxId::new(1, 0));
        let other = Descriptor::new(TxId::new(2, 0));
        for attempt in 0..Courteous::PATIENCE {
            assert_eq!(Courteous.resolve(&me, &other, attempt), Resolution::Wait);
        }
        assert_eq!(
            Courteous.resolve(&me, &other, Courteous::PATIENCE),
            Resolution::AbortOther
        );
    }
}
