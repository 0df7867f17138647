//! Events of the two-level execution model (Section 2.1, Figure 1).
//!
//! The paper distinguishes *high-level* events — invocations and responses
//! of TM operations (`read`, `write`, `tryC`, `tryA`) — from *low-level*
//! steps on base objects. A [`crate::history::History`] is a totally
//! ordered sequence of such events; a *low-level history* additionally
//! contains [`Event::Step`]s, and histories used by the ic-obstruction
//! checkers may contain [`Event::Crash`] markers.

use crate::ids::{BaseObjId, ProcId, TVarId, TxId, Value};
use std::fmt;

/// A TM operation that a transaction can invoke (Section 2.2, "TM as a
/// shared object").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TmOp {
    /// Read t-variable `x` within the transaction.
    Read(TVarId),
    /// Write value `v` to t-variable `x` within the transaction.
    Write(TVarId, Value),
    /// `tryC(T_k)` — request commitment; returns `C_k` or `A_k`.
    TryCommit,
    /// `tryA(T_k)` — request abortion; always returns `A_k`.
    TryAbort,
}

impl TmOp {
    /// The t-variable accessed by this operation, if any.
    pub fn tvar(&self) -> Option<TVarId> {
        match self {
            TmOp::Read(x) | TmOp::Write(x, _) => Some(*x),
            TmOp::TryCommit | TmOp::TryAbort => None,
        }
    }
}

/// A response from a TM operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TmResp {
    /// Value returned by a successful `read`.
    Value(Value),
    /// `ok` returned by a successful `write`.
    Ok,
    /// The commit event `C_k`.
    Committed,
    /// The abort event `A_k`.
    Aborted,
}

/// How a step accesses a base object — used by the conflict relation of
/// Section 5.1 ("we distinguish base object operations that modify the
/// state of the object, and those that are read-only").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Access {
    /// A read-only operation on the base object.
    Read,
    /// An operation that (potentially) modifies the base object: a plain
    /// write, a successful CAS, a `propose` on a fo-consensus object, …
    Modify,
}

impl Access {
    /// True iff the access modifies the state of the base object.
    pub fn modifies(&self) -> bool {
        matches!(self, Access::Modify)
    }
}

/// One event of a (low-level) history.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Event {
    /// Invocation of a TM operation by transaction `tx` (executed by `proc`).
    Invoke { proc: ProcId, tx: TxId, op: TmOp },
    /// Response of the previously invoked TM operation of `tx`.
    Respond {
        proc: ProcId,
        tx: TxId,
        resp: TmResp,
    },
    /// A step: an operation on a base object, executed by `proc` on behalf
    /// of the TM implementation. `tx` records which transaction the step
    /// serves when known (steps may also be attributable to helping).
    Step {
        proc: ProcId,
        tx: Option<TxId>,
        obj: BaseObjId,
        access: Access,
    },
    /// Process `proc` crashes and takes no further actions (Section 2.1).
    Crash { proc: ProcId },
}

impl Event {
    /// The process executing this event.
    pub fn proc(&self) -> ProcId {
        match self {
            Event::Invoke { proc, .. }
            | Event::Respond { proc, .. }
            | Event::Step { proc, .. }
            | Event::Crash { proc } => *proc,
        }
    }

    /// The transaction this event belongs to, if any.
    pub fn tx(&self) -> Option<TxId> {
        match self {
            Event::Invoke { tx, .. } | Event::Respond { tx, .. } => Some(*tx),
            Event::Step { tx, .. } => *tx,
            Event::Crash { .. } => None,
        }
    }

    /// True iff this is a low-level step on a base object.
    ///
    /// Crash markers are bookkeeping, not steps; invocations/responses of TM
    /// operations are local to the invoking process (Section 2.1: "events of
    /// operations on high-level objects, issued by a process pi, are local
    /// to pi").
    pub fn is_step(&self) -> bool {
        matches!(self, Event::Step { .. })
    }

    /// True for high-level (TM-interface) events.
    pub fn is_high_level(&self) -> bool {
        matches!(self, Event::Invoke { .. } | Event::Respond { .. })
    }

    /// True iff this event is the commit event `C_k` of some transaction.
    pub fn is_commit(&self) -> bool {
        matches!(
            self,
            Event::Respond {
                resp: TmResp::Committed,
                ..
            }
        )
    }

    /// True iff this event is an abort event `A_k` of some transaction.
    pub fn is_abort(&self) -> bool {
        matches!(
            self,
            Event::Respond {
                resp: TmResp::Aborted,
                ..
            }
        )
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Event::Invoke { tx, op, .. } => match op {
                TmOp::Read(x) => write!(f, "{tx}:inv R({x})"),
                TmOp::Write(x, v) => write!(f, "{tx}:inv W({x},{v})"),
                TmOp::TryCommit => write!(f, "{tx}:inv tryC"),
                TmOp::TryAbort => write!(f, "{tx}:inv tryA"),
            },
            Event::Respond { tx, resp, .. } => match resp {
                TmResp::Value(v) => write!(f, "{tx}:ret {v}"),
                TmResp::Ok => write!(f, "{tx}:ret ok"),
                TmResp::Committed => write!(f, "C[{tx}]"),
                TmResp::Aborted => write!(f, "A[{tx}]"),
            },
            Event::Step {
                proc, obj, access, ..
            } => match access {
                Access::Read => write!(f, "{proc}:r({obj})"),
                Access::Modify => write!(f, "{proc}:w({obj})"),
            },
            Event::Crash { proc } => write!(f, "crash({proc})"),
        }
    }
}

/// The operation performed by a transaction, paired with the response it
/// received. This is the unit of per-transaction comparison that the
/// paper's history-equivalence (`H ≡ H'` iff `H|T_i = H'|T_i` for every
/// `T_i`) is defined over.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CompletedOp {
    pub op: TmOp,
    pub resp: TmResp,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u32) -> TxId {
        TxId::new(i, 0)
    }

    #[test]
    fn event_accessors() {
        let e = Event::Invoke {
            proc: ProcId(1),
            tx: t(1),
            op: TmOp::Read(TVarId(0)),
        };
        assert_eq!(e.proc(), ProcId(1));
        assert_eq!(e.tx(), Some(t(1)));
        assert!(e.is_high_level());
        assert!(!e.is_step());

        let s = Event::Step {
            proc: ProcId(2),
            tx: None,
            obj: BaseObjId(5),
            access: Access::Modify,
        };
        assert!(s.is_step());
        assert_eq!(s.tx(), None);

        let c = Event::Crash { proc: ProcId(0) };
        assert!(!c.is_step());
        assert!(!c.is_high_level());
    }

    #[test]
    fn commit_abort_predicates() {
        let c = Event::Respond {
            proc: ProcId(0),
            tx: t(0),
            resp: TmResp::Committed,
        };
        let a = Event::Respond {
            proc: ProcId(0),
            tx: t(0),
            resp: TmResp::Aborted,
        };
        assert!(c.is_commit() && !c.is_abort());
        assert!(a.is_abort() && !a.is_commit());
    }

    #[test]
    fn access_modifies() {
        assert!(Access::Modify.modifies());
        assert!(!Access::Read.modifies());
    }

    #[test]
    fn display_is_compact() {
        let e = Event::Invoke {
            proc: ProcId(1),
            tx: TxId::new(1, 2),
            op: TmOp::Write(TVarId(3), 9),
        };
        assert_eq!(e.to_string(), "T1.2:inv W(x3,9)");
    }

    #[test]
    fn tmop_tvar() {
        assert_eq!(TmOp::Read(TVarId(1)).tvar(), Some(TVarId(1)));
        assert_eq!(TmOp::TryCommit.tvar(), None);
    }
}
