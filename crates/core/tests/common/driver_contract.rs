//! **The driver contract**, one table over the entry-point cube
//! {word, ctx} × {rw, ro}: what `oftm_core::driver::Driver::attempt`
//! promises whichever public name reaches it and whichever way the caller
//! waits. The rows and assertions live here once; a runner decides how a
//! row's transaction is driven — `crates/core/tests/driver_contract.rs`
//! runs them through the sync loop, `crates/asyncrt/tests/
//! driver_contract.rs` (which includes this file by path) through the
//! future.

use oftm_core::api::{BudgetExceeded, TxError, TxResult, WordStm, WordTx};
use oftm_core::driver::TxCtx;
use oftm_core::dstm::{Dstm, DstmWord};
use oftm_core::notify::CommitNotifier;
use oftm_histories::{TVarId, TxId, Value};
use oftm_obs::{Counter, StatsSnapshot, StmStats};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, Ordering::Relaxed};

/// A DSTM behind a probe that counts what the driver asks of it, and
/// refuses a block free while a transaction it handed out is still alive.
pub struct Probe {
    inner: DstmWord,
    begins: AtomicU32,
    begins_ro: AtomicU32,
    live_txs: AtomicU32,
    freed_blocks: AtomicU32,
}

struct ProbeTx<'s> {
    inner: Option<Box<dyn WordTx + 's>>,
    probe: &'s Probe,
}

impl Probe {
    fn new() -> Self {
        Probe {
            inner: DstmWord::new(Dstm::default()),
            begins: AtomicU32::new(0),
            begins_ro: AtomicU32::new(0),
            live_txs: AtomicU32::new(0),
            freed_blocks: AtomicU32::new(0),
        }
    }

    fn wrap<'s>(&'s self, inner: Box<dyn WordTx + 's>) -> Box<dyn WordTx + 's> {
        self.live_txs.fetch_add(1, Relaxed);
        Box::new(ProbeTx {
            inner: Some(inner),
            probe: self,
        })
    }

    /// Commits `x := v` from outside the driver (no attempt accounting).
    fn interfere(&self, x: TVarId, v: Value) {
        let mut peer = self.inner.begin(99);
        peer.write(x, v).expect("the peer runs alone");
        peer.try_commit().expect("the peer runs alone");
    }
}

impl Drop for ProbeTx<'_> {
    fn drop(&mut self) {
        self.inner = None;
        self.probe.live_txs.fetch_sub(1, Relaxed);
    }
}

impl ProbeTx<'_> {
    fn tx(&mut self) -> &mut dyn WordTx {
        self.inner.as_deref_mut().expect("live until tryC/tryA")
    }
}

impl WordTx for ProbeTx<'_> {
    fn id(&self) -> TxId {
        self.inner.as_ref().expect("live").id()
    }
    fn read(&mut self, x: TVarId) -> TxResult<Value> {
        self.tx().read(x)
    }
    fn write(&mut self, x: TVarId, v: Value) -> TxResult<()> {
        self.tx().write(x, v)
    }
    fn try_commit(mut self: Box<Self>) -> TxResult<()> {
        self.inner.take().expect("live").try_commit()
    }
    fn try_abort(mut self: Box<Self>) {
        // The driver drops an aborted attempt; it never requests tryA.
        self.inner.take().expect("live").try_abort();
        panic!("the driver called tryA");
    }
    fn retire_tvar_block(&mut self, base: TVarId, len: usize) {
        self.tx().retire_tvar_block(base, len);
    }
    fn footprint(&self, out: &mut Vec<TVarId>) {
        self.inner.as_ref().expect("live").footprint(out);
    }
}

impl WordStm for Probe {
    fn name(&self) -> &'static str {
        "probe"
    }
    fn register_tvar(&self, x: TVarId, initial: Value) {
        self.inner.register_tvar(x, initial);
    }
    fn alloc_tvar_block(&self, initials: &[Value]) -> TVarId {
        self.inner.alloc_tvar_block(initials)
    }
    fn free_tvar_block(&self, base: TVarId, len: usize) {
        assert_eq!(
            self.live_txs.load(Relaxed),
            0,
            "an attempt's blocks were freed before its transaction was dropped"
        );
        self.freed_blocks.fetch_add(1, Relaxed);
        self.inner.free_tvar_block(base, len);
    }
    fn live_tvars(&self) -> usize {
        self.inner.live_tvars()
    }
    fn begin(&self, proc: u32) -> Box<dyn WordTx + '_> {
        self.begins.fetch_add(1, Relaxed);
        self.wrap(self.inner.begin(proc))
    }
    fn begin_ro(&self, proc: u32) -> Box<dyn WordTx + '_> {
        self.begins_ro.fetch_add(1, Relaxed);
        self.wrap(self.inner.begin_ro(proc))
    }
    fn notifier(&self) -> &CommitNotifier {
        self.inner.notifier()
    }
    fn stats(&self) -> &StmStats {
        self.inner.stats()
    }
    fn is_obstruction_free(&self) -> bool {
        true
    }
}

/// One entry point of the cube.
#[derive(Clone, Copy, Debug)]
pub struct Row {
    /// Collection level (`atomically*`: the body gets the [`TxCtx`]) or
    /// word level (`run_transaction*`: the body gets the transaction).
    pub ctx: bool,
    pub ro: bool,
}

/// What a table body is handed, by level.
pub enum Access<'x, 'a, 'b> {
    Word(&'x mut dyn WordTx),
    Ctx(&'x mut TxCtx<'a, 'b>),
}

impl Access<'_, '_, '_> {
    fn tx(&mut self) -> &mut dyn WordTx {
        match self {
            Access::Word(tx) => *tx,
            Access::Ctx(ctx) => ctx.tx(),
        }
    }

    /// Allocates a two-word node through the attempt's allocation log —
    /// which only the collection level has.
    fn alloc_node(&mut self) -> Option<TVarId> {
        match self {
            Access::Word(_) => None,
            Access::Ctx(ctx) => Some(ctx.alloc_block(&[1, 2])),
        }
    }
}

pub type Body<'f> = &'f mut dyn FnMut(&mut Access<'_, '_, '_>) -> TxResult<u64>;

/// Drives one transaction of `row`'s kind on behalf of [`PROC`] with the
/// given budget; returns the body's value and the attempt count.
pub type Run<'r> =
    &'r dyn Fn(Row, &dyn WordStm, u32, Body<'_>) -> Result<(u64, u32), BudgetExceeded>;

pub const PROC: u32 = 3;
const WATCHED: TVarId = TVarId(0);
const ANCHOR: TVarId = TVarId(1);

/// The probe's counters and the backend's telemetry: read at one point
/// of a test ([`Seen::at`]), or what moved since one ([`Seen::since`]).
struct Seen {
    begins: u32,
    begins_ro: u32,
    freed_blocks: u32,
    live_tvars: isize,
    stats: StatsSnapshot,
}

impl Seen {
    fn at(p: &Probe) -> Seen {
        Seen {
            begins: p.begins.load(Relaxed),
            begins_ro: p.begins_ro.load(Relaxed),
            freed_blocks: p.freed_blocks.load(Relaxed),
            live_tvars: p.live_tvars() as isize,
            stats: p.stats().snapshot(),
        }
    }

    fn since(p: &Probe, mark: &Seen) -> Seen {
        let now = Seen::at(p);
        Seen {
            begins: now.begins - mark.begins,
            begins_ro: now.begins_ro - mark.begins_ro,
            freed_blocks: now.freed_blocks - mark.freed_blocks,
            live_tvars: now.live_tvars - mark.live_tvars,
            stats: now.stats.since(&mark.stats),
        }
    }
}

/// The accounting every run owes, whatever its outcome: one `begin` of
/// the row's kind and one `Attempts` per attempt (the retries are the
/// attempts past the first); parks only where the runner parks, and
/// never read-only.
fn assert_accounting(row: Row, m: &Seen, attempts: u32, parks: u64, exhausted: u64) {
    let (of_kind, other) = if row.ro {
        (m.begins_ro, m.begins)
    } else {
        (m.begins, m.begins_ro)
    };
    assert_eq!((of_kind, other), (attempts, 0), "{row:?}: begins");
    let counted = m.stats.get(Counter::Attempts);
    assert_eq!(counted, u64::from(attempts), "{row:?}: attempts");
    assert_eq!(m.stats.get(Counter::Parks), parks, "{row:?}: parks");
    let tagged = m.stats.get(Counter::AbortBudgetExhausted);
    assert_eq!(tagged, exhausted, "{row:?}: budget tags");
}

/// Runs every row of the table through `run`. `parks_when_contended` is
/// what the runner's way of waiting does to a read-write transaction
/// whose first two attempts abort: 0 for the spinning loop, 1 for the
/// future (immediate retry, then a park).
pub fn check(run: Run<'_>, parks_when_contended: u64) {
    for ctx in [false, true] {
        for ro in [false, true] {
            let parks = if ro { 0 } else { parks_when_contended };
            check_row(run, Row { ctx, ro }, parks);
        }
    }
}

fn check_row(run: Run<'_>, row: Row, parks: u64) {
    let probe = Probe::new();
    probe.register_tvar(WATCHED, 0);
    probe.register_tvar(ANCHOR, 0);

    // Attempt 1 dies in tryC (a peer commits under its read), attempt
    // 2 in the body, attempt 3 commits. Each allocates a node where
    // the level can; only the committed one's survives.
    let mark = Seen::at(&probe);
    let mut n = 0;
    let out = run(row, &probe, 8, &mut |tx| {
        n += 1;
        let node = if row.ro { None } else { tx.alloc_node() };
        let seen = tx.tx().read(WATCHED)?;
        match n {
            1 => probe.interfere(WATCHED, seen + 1),
            2 => return Err(TxError::Aborted),
            _ if !row.ro => tx.tx().write(ANCHOR, node.map_or(7, |b| b.0))?,
            _ => {}
        }
        Ok(seen)
    });
    assert_eq!(out, Ok((1, 3)), "{row:?}");
    let m = Seen::since(&probe, &mark);
    assert_accounting(row, &m, 3, parks, 0);
    let allocating = row.ctx && !row.ro;
    let (freed, kept) = if allocating { (2, 2) } else { (0, 0) };
    assert_eq!((m.freed_blocks, m.live_tvars), (freed, kept), "{row:?}");

    // A budget of n with an always-aborting body: n attempts, one
    // tag, every block freed.
    let mark = Seen::at(&probe);
    let out = run(row, &probe, 3, &mut |tx| {
        if !row.ro {
            tx.alloc_node();
        }
        tx.tx().read(WATCHED)?;
        Err(TxError::Aborted)
    });
    assert_eq!(out, Err(BudgetExceeded { attempts: 3 }), "{row:?}");
    let m = Seen::since(&probe, &mark);
    assert_accounting(row, &m, 3, parks, 1);
    let freed = if allocating { 3 } else { 0 };
    assert_eq!((m.freed_blocks, m.live_tvars), (freed, 0), "{row:?}");

    // A budget of 0 begins nothing.
    let mark = Seen::at(&probe);
    let out = run(row, &probe, 0, &mut |_| panic!("budget 0 ran a body"));
    assert_eq!(out, Err(BudgetExceeded { attempts: 0 }), "{row:?}");
    assert_accounting(row, &Seen::since(&probe, &mark), 0, 0, 1);

    // Read-only rows really are on `begin_ro`: a write panics.
    if row.ro {
        let wrote = catch_unwind(AssertUnwindSafe(|| {
            run(row, &probe, 1, &mut |tx| {
                tx.tx().write(ANCHOR, 1).map(|()| 0)
            })
        }));
        assert!(wrote.is_err(), "{row:?}: a write on a read-only attempt");
    }
}
