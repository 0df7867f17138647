//! Contention managers for the DSTM-style OFTM.
//!
//! Section 1 of the paper: *"A contention manager might tell `T_k` to back
//! off for some fixed time (maybe random) to give `T_i` a chance, but
//! eventually `T_k` must be able to abort `T_i` and acquire `x` without any
//! interaction with `T_i`."*
//!
//! That sentence is the obstruction-freedom contract every manager here
//! honours: [`ContentionManager::resolve`] may return [`Resolution::Wait`]
//! only finitely many times for a given conflict — after a bounded number
//! of attempts every manager returns [`Resolution::AbortOther`]. A manager
//! violating this would make the STM blocking, not obstruction-free
//! (tested in `cm::tests::all_managers_eventually_abort`).
//!
//! Two managers ship, the two the engines run: [`Aggressive`]
//! (`Dstm::default()`), which aborts the owner at once, and [`Courteous`]
//! (the hybrid's DSTM engine), which yields the CPU to the owner a
//! bounded number of times first.

mod aggressive;
mod courteous;

pub use aggressive::Aggressive;
pub use courteous::Courteous;

use crate::dstm::descriptor::Descriptor;

/// Decision returned by a contention manager when transaction `me` finds a
/// t-variable owned by the live transaction `other`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Resolution {
    /// Forcefully abort the owner and take the object.
    AbortOther,
    /// The manager gave the owner a chance (it waited inside `resolve`);
    /// re-examine the conflict (the next call passes an incremented
    /// attempt counter).
    Wait,
}

/// A pluggable conflict-resolution policy.
///
/// Managers observe descriptors only through their public atomic fields, so
/// `resolve` may be called concurrently from many threads.
pub trait ContentionManager: Send + Sync {
    /// Called when `me` (live) conflicts with `other` (live) for the
    /// `attempt`-th consecutive time on the same acquisition.
    ///
    /// Obstruction-freedom contract: for every fixed conflict there must be
    /// a finite `attempt` after which the result is
    /// [`Resolution::AbortOther`].
    fn resolve(&self, me: &Descriptor, other: &Descriptor, attempt: u32) -> Resolution;

    /// Hook: `me` committed.
    fn on_commit(&self, _me: &Descriptor) {}

    /// Hook: `me` aborted (voluntarily or forcefully).
    fn on_abort(&self, _me: &Descriptor) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use oftm_histories::TxId;

    /// The obstruction-freedom contract: every manager must emit AbortOther
    /// after finitely many attempts (we allow a generous bound of 128).
    #[test]
    fn all_managers_eventually_abort() {
        let managers: [(&str, &dyn ContentionManager); 2] =
            [("aggressive", &Aggressive), ("courteous", &Courteous)];
        let me = Descriptor::new(TxId::new(1, 0));
        let other = Descriptor::new(TxId::new(2, 0));
        for (name, m) in managers {
            let aborted =
                (0..128).any(|attempt| m.resolve(&me, &other, attempt) == Resolution::AbortOther);
            assert!(aborted, "{name} never aborts the other");
        }
    }
}
