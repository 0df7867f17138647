//! Contention managers for the DSTM-style OFTM.
//!
//! Section 1 of the paper: *"A contention manager might tell `T_k` to back
//! off for some fixed time (maybe random) to give `T_i` a chance, but
//! eventually `T_k` must be able to abort `T_i` and acquire `x` without any
//! interaction with `T_i`."*
//!
//! That sentence is the obstruction-freedom contract every manager here
//! honours: [`ContentionManager::resolve`] may return
//! [`Resolution::Backoff`] only finitely many times for a given conflict —
//! after a bounded number of attempts every manager returns
//! [`Resolution::AbortOther`]. A manager violating this would make the STM
//! blocking, not obstruction-free (tested in `cm::tests::all_managers_eventually_abort`).
//!
//! The managers implemented are the classical ones studied with DSTM \[18\]:
//! Aggressive, Polite, Karma, Greedy (timestamp) and Randomized.

mod aggressive;
mod courteous;
mod greedy;
mod karma;
mod polite;
mod randomized;

pub use aggressive::Aggressive;
pub use courteous::Courteous;
pub use greedy::Greedy;
pub use karma::Karma;
pub use polite::Polite;
pub use randomized::Randomized;

use crate::dstm::descriptor::Descriptor;
use std::time::Duration;

/// Decision returned by a contention manager when transaction `me` finds a
/// t-variable owned by the live transaction `other`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Resolution {
    /// Forcefully abort the owner and take the object.
    AbortOther,
    /// Give the owner a chance: wait for the given duration, then re-examine
    /// the conflict (the next call passes an incremented attempt counter).
    Backoff(Duration),
}

/// A pluggable conflict-resolution policy.
///
/// Managers observe descriptors only through their public atomic fields, so
/// `resolve` may be called concurrently from many threads.
pub trait ContentionManager: Send + Sync {
    fn name(&self) -> &'static str;

    /// Called when `me` (live) conflicts with `other` (live) for the
    /// `attempt`-th consecutive time on the same acquisition.
    ///
    /// Obstruction-freedom contract: for every fixed conflict there must be
    /// a finite `attempt` after which the result is
    /// [`Resolution::AbortOther`].
    fn resolve(&self, me: &Descriptor, other: &Descriptor, attempt: u32) -> Resolution;

    /// Hook: `me` opened (acquired or read) one more t-variable. Karma-like
    /// managers accumulate priority here.
    fn on_open(&self, _me: &Descriptor) {}

    /// Whether [`ContentionManager::on_open`] does anything. An engine
    /// asks once, and makes the per-open call only for a manager that
    /// answers `true`.
    fn counts_opens(&self) -> bool {
        false
    }

    /// Hook: `me` committed.
    fn on_commit(&self, _me: &Descriptor) {}

    /// Hook: `me` aborted (voluntarily or forcefully).
    fn on_abort(&self, _me: &Descriptor) {}
}

/// Shared helper: truncated exponential backoff, `base * 2^attempt` capped
/// at `cap`. All durations are tiny — backoff here is about letting a
/// *running* peer finish, not about fairness on oversubscribed systems.
pub(crate) fn expo_backoff(base: Duration, attempt: u32, cap: Duration) -> Duration {
    let factor = 1u32 << attempt.min(16);
    base.checked_mul(factor).map_or(cap, |d| d.min(cap))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dstm::descriptor::Descriptor;
    use oftm_histories::TxId;
    use std::sync::Arc;

    fn desc(proc: u32, seq: u32, birth: u64) -> Arc<Descriptor> {
        Arc::new(Descriptor::new(TxId::new(proc, seq), birth))
    }

    /// The obstruction-freedom contract: every manager must emit AbortOther
    /// after finitely many attempts (we allow a generous bound of 128).
    #[test]
    fn all_managers_eventually_abort() {
        let managers: Vec<Box<dyn ContentionManager>> = vec![
            Box::new(Aggressive),
            Box::new(Polite::default()),
            Box::new(Karma::default()),
            Box::new(Greedy::default()),
            Box::new(Randomized::default()),
            Box::new(Courteous::default()),
        ];
        let me = desc(1, 0, 100);
        let other = desc(2, 0, 50); // older than me: worst case for Greedy
        for m in &managers {
            // Karma: make the other strictly richer so it is the worst case.
            for _ in 0..10 {
                m.on_open(&other);
            }
            let mut aborted = false;
            for attempt in 0..128 {
                if m.resolve(&me, &other, attempt) == Resolution::AbortOther {
                    aborted = true;
                    break;
                }
            }
            assert!(aborted, "{} never aborts the other", m.name());
        }
    }

    #[test]
    fn expo_backoff_caps() {
        let d = expo_backoff(Duration::from_micros(1), 40, Duration::from_millis(1));
        assert_eq!(d, Duration::from_millis(1));
        let d0 = expo_backoff(Duration::from_micros(1), 0, Duration::from_millis(1));
        assert_eq!(d0, Duration::from_micros(1));
    }
}
