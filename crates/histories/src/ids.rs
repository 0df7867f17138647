//! Identifier newtypes for the formal model of Section 2 of the paper.
//!
//! The paper's model has *processes* `p_1 … p_n` executing *transactions*
//! `T_{i,k}` over *t-variables*, implemented on top of *base objects*.
//! Each of those four notions gets a small copyable id type so that
//! histories are cheap to store, hash and compare.

use std::fmt;

/// A process (thread) identifier `p_i`.
///
/// The paper's system has `n` processes of which `n - 1` may crash
/// (Section 2.1). Process ids are dense small integers assigned by whoever
/// constructs the execution (test harness, recorder or simulator).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProcId(pub u32);

impl fmt::Debug for ProcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl fmt::Display for ProcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// A transaction identifier `T_{i,k}`.
///
/// Following footnote 3 of the paper, identifiers are generated locally by
/// combining the id of the executing process (`proc`) with a process-local
/// counter (`seq`). Uniqueness therefore holds without coordination.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TxId {
    /// Id of the process that executes this transaction (`p_E(T_k)`).
    pub proc: u32,
    /// Process-local sequence number `k`.
    pub seq: u32,
}

impl TxId {
    /// Builds the transaction id `T_{proc,seq}`.
    pub const fn new(proc: u32, seq: u32) -> Self {
        TxId { proc, seq }
    }

    /// The process executing this transaction.
    pub const fn process(&self) -> ProcId {
        ProcId(self.proc)
    }
}

impl fmt::Debug for TxId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}.{}", self.proc, self.seq)
    }
}

impl fmt::Display for TxId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}.{}", self.proc, self.seq)
    }
}

/// A transactional variable (t-variable) identifier.
///
/// The paper restricts attention to read/write t-variables (transactional
/// registers, Section 2.2 footnote 2); values are modelled as `u64` words.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TVarId(pub u64);

impl fmt::Debug for TVarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

impl fmt::Display for TVarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// A base-object identifier.
///
/// Base objects are the low-level shared objects (hardware memory words,
/// CAS cells, fo-consensus instances…) on which *steps* are executed.
/// Implementations map their internal memory (descriptor status words,
/// locator pointers, version clocks, lock words, foc cells) to stable
/// `BaseObjId`s so that the checkers in [`crate::dap`] can reason about
/// conflicts.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BaseObjId(pub u64);

impl fmt::Debug for BaseObjId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{}", self.0)
    }
}

impl fmt::Display for BaseObjId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{}", self.0)
    }
}

/// The value domain of t-variables and registers.
///
/// A single machine word; rich payloads in the threaded library are layered
/// on top (see `oftm-core`'s typed `TVar<T>`).
pub type Value = u64;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn txid_carries_process() {
        let t = TxId::new(3, 7);
        assert_eq!(t.process(), ProcId(3));
        assert_eq!(format!("{t}"), "T3.7");
    }

    #[test]
    fn ids_order_and_hash() {
        use std::collections::HashSet;
        let a = TxId::new(1, 1);
        let b = TxId::new(1, 2);
        let c = TxId::new(2, 1);
        assert!(a < b && b < c);
        let s: HashSet<_> = [a, b, c, a].into_iter().collect();
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn display_forms() {
        assert_eq!(ProcId(0).to_string(), "p0");
        assert_eq!(TVarId(4).to_string(), "x4");
        assert_eq!(BaseObjId(9).to_string(), "b9");
    }
}
