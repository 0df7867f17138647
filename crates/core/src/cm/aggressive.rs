//! The Aggressive contention manager: always abort the other transaction.
//!
//! This is the bare minimum that obstruction-freedom allows and the
//! baseline the DSTM paper \[18\] starts from. It guarantees immediate
//! progress for the caller at the cost of potential livelock between two
//! transactions repeatedly stealing an object from each other (the retry
//! loop in `run_transaction` combined with schedulers' natural jitter makes
//! this rare in practice; [`super::Courteous`] trades a bounded wait for
//! fewer such steals).

use super::{ContentionManager, Resolution};
use crate::dstm::descriptor::Descriptor;

/// Always-abort-the-victim policy.
#[derive(Clone, Copy, Debug, Default)]
pub struct Aggressive;

impl ContentionManager for Aggressive {
    fn resolve(&self, _me: &Descriptor, _other: &Descriptor, _attempt: u32) -> Resolution {
        Resolution::AbortOther
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oftm_histories::TxId;

    #[test]
    fn always_aborts() {
        let me = Descriptor::new(TxId::new(1, 0));
        let other = Descriptor::new(TxId::new(2, 0));
        for attempt in 0..4 {
            assert_eq!(
                Aggressive.resolve(&me, &other, attempt),
                Resolution::AbortOther
            );
        }
    }
}
