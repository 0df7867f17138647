//! Benchmark-side tracing: an interposer around `dyn WordStm` that times
//! the calls a sampled op makes into its backend.
//!
//! Nothing inside the program is instrumented. A client marks every
//! [`SAMPLE_EVERY`]-th op with [`enter`]; while the mark is set,
//! [`TracedStm`] wraps the op's transactions in a [`TracedTx`] and records
//! one child span per `begin`/`read`/`write`/`commit`/`alloc`/`free`
//! call, all carrying the op's id. Unmarked ops pay one thread-local load
//! per `begin`/`alloc`/`free` and get the backend's own handle back, so
//! their reads and writes are not interposed at all.
//!
//! Spans stay in memory: every span folds into per-kind sums, and the
//! first [`RAW_SPANS_PER_CELL`] of a backend's first cells are also kept
//! whole for the Chrome-trace dump written when the run ends.

use crate::json::{obj, Json};
use oftm::core::api::{TxResult, WordStm, WordTx};
use oftm::core::notify::CommitNotifier;
use oftm::histories::{TVarId, TxId, Value};
use oftm::obs::StmStats;
use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One op in this many is traced.
pub const SAMPLE_EVERY: u64 = 64;

/// Whole spans kept per cell for the Chrome trace (sums cover all of
/// them), in the first [`RAW_CELLS_PER_BACKEND`] cells of a backend: a
/// few hundred ops per backend are enough to look at, and the file stays
/// near 5 MB.
pub const RAW_SPANS_PER_CELL: usize = 4096;
pub const RAW_CELLS_PER_BACKEND: u32 = 2;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Op,
    Begin,
    Read,
    Write,
    Commit,
    Alloc,
    Free,
}

pub const KINDS: [Kind; 7] = [
    Kind::Op,
    Kind::Begin,
    Kind::Read,
    Kind::Write,
    Kind::Commit,
    Kind::Alloc,
    Kind::Free,
];

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Op => "op",
            Kind::Begin => "begin",
            Kind::Read => "read",
            Kind::Write => "write",
            Kind::Commit => "commit",
            Kind::Alloc => "alloc",
            Kind::Free => "free",
        }
    }
}

/// Call count and total duration of one span kind.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Agg {
    pub count: u64,
    pub sum_ns: u64,
}

/// One whole span, kept for the Chrome trace. `parent` is the id of the
/// op span that caused it (an op span is its own parent).
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub kind: Kind,
    pub parent: u64,
    pub client: u32,
    pub start: Instant,
    pub dur_ns: u64,
}

/// What one thread has recorded since its last flush.
#[derive(Default)]
struct Local {
    /// Id of the op being traced on this thread; 0 = not tracing.
    op: u64,
    client: u32,
    keep_raw: bool,
    agg: [Agg; KINDS.len()],
    raw: Vec<Span>,
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local::default());
}

/// Where a cell's spans end up. One per traced cell.
pub struct Sink {
    raw_budget: AtomicUsize,
    collected: Mutex<Collected>,
}

#[derive(Default)]
pub struct Collected {
    pub agg: [Agg; KINDS.len()],
    pub raw: Vec<Span>,
}

impl Collected {
    pub fn of(&self, kind: Kind) -> Agg {
        self.agg[kind as usize]
    }

    /// Time the sampled ops spent inside backend calls (every child span).
    pub fn backend_ns(&self) -> u64 {
        KINDS[1..].iter().map(|&k| self.of(k).sum_ns).sum()
    }
}

impl Sink {
    /// A sink that keeps the first `raw_spans` spans whole.
    pub fn new(raw_spans: usize) -> Self {
        Sink {
            raw_budget: AtomicUsize::new(raw_spans),
            collected: Mutex::new(Collected::default()),
        }
    }

    pub fn take(&self) -> Collected {
        std::mem::take(
            &mut *self
                .collected
                .lock()
                .expect("no tracer panicked holding the sink"),
        )
    }
}

/// Marks the calling thread as running traced op `op` (non-zero) of
/// `client` until [`leave`]. An async op calls this on every poll: its
/// attempts may run on different executor threads.
pub fn enter(sink: &Sink, op: u64, client: u32) {
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        l.op = op;
        l.client = client;
        // ord: Relaxed — a budget, not a publication; overshoot by one
        // op's spans is harmless.
        l.keep_raw = sink.raw_budget.load(Ordering::Relaxed) > 0;
    });
}

/// Clears the mark and hands everything recorded since [`enter`] to `sink`.
pub fn leave(sink: &Sink) {
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        l.op = 0;
        let mut c = sink
            .collected
            .lock()
            .expect("no tracer panicked holding the sink");
        for (total, local) in c.agg.iter_mut().zip(l.agg.iter_mut()) {
            total.count += local.count;
            total.sum_ns += local.sum_ns;
            *local = Agg::default();
        }
        if !l.raw.is_empty() {
            let taken = l.raw.len().min(sink.raw_budget.load(Ordering::Relaxed));
            sink.raw_budget.fetch_sub(taken, Ordering::Relaxed);
            c.raw.extend(l.raw.drain(..).take(taken));
        }
    });
}

/// Records a span of the op the thread is marked with; no-op otherwise.
pub fn record(kind: Kind, start: Instant, end: Instant) {
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        if l.op == 0 {
            return;
        }
        let dur_ns = end.duration_since(start).as_nanos() as u64;
        let a = &mut l.agg[kind as usize];
        a.count += 1;
        a.sum_ns += dur_ns;
        if l.keep_raw {
            let (parent, client) = (l.op, l.client);
            l.raw.push(Span {
                kind,
                parent,
                client,
                start,
                dur_ns,
            });
        }
    });
}

fn tracing() -> bool {
    LOCAL.with(|l| l.borrow().op != 0)
}

/// Times `f` as a `kind` span when the thread is marked.
fn timed<R>(kind: Kind, f: impl FnOnce() -> R) -> R {
    if !tracing() {
        return f();
    }
    let start = Instant::now();
    let r = f();
    record(kind, start, Instant::now());
    r
}

/// The interposer (see module docs). Everything not listed there is
/// passed straight through.
pub struct TracedStm {
    inner: Arc<dyn WordStm>,
}

impl TracedStm {
    pub fn new(inner: Arc<dyn WordStm>) -> Self {
        TracedStm { inner }
    }

    fn wrap<'a>(&self, begin: impl FnOnce() -> Box<dyn WordTx + 'a>) -> Box<dyn WordTx + 'a> {
        if !tracing() {
            return begin();
        }
        let start = Instant::now();
        let inner = begin();
        record(Kind::Begin, start, Instant::now());
        Box::new(TracedTx { inner })
    }
}

impl WordStm for TracedStm {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn register_tvar(&self, x: TVarId, initial: Value) {
        self.inner.register_tvar(x, initial);
    }
    fn alloc_tvar_block(&self, initials: &[Value]) -> TVarId {
        timed(Kind::Alloc, || self.inner.alloc_tvar_block(initials))
    }
    fn free_tvar_block(&self, base: TVarId, len: usize) {
        timed(Kind::Free, || self.inner.free_tvar_block(base, len));
    }
    fn live_tvars(&self) -> usize {
        self.inner.live_tvars()
    }
    fn begin(&self, proc: u32) -> Box<dyn WordTx + '_> {
        self.wrap(|| self.inner.begin(proc))
    }
    fn begin_ro(&self, proc: u32) -> Box<dyn WordTx + '_> {
        self.wrap(|| self.inner.begin_ro(proc))
    }
    fn notifier(&self) -> &CommitNotifier {
        self.inner.notifier()
    }
    fn stats(&self) -> &StmStats {
        self.inner.stats()
    }
    fn is_obstruction_free(&self) -> bool {
        self.inner.is_obstruction_free()
    }
}

/// A traced op's transaction: times every call into the backend's handle.
struct TracedTx<'a> {
    inner: Box<dyn WordTx + 'a>,
}

impl WordTx for TracedTx<'_> {
    fn id(&self) -> TxId {
        self.inner.id()
    }
    fn read(&mut self, x: TVarId) -> TxResult<Value> {
        let start = Instant::now();
        let r = self.inner.read(x);
        record(Kind::Read, start, Instant::now());
        r
    }
    fn write(&mut self, x: TVarId, v: Value) -> TxResult<()> {
        let start = Instant::now();
        let r = self.inner.write(x, v);
        record(Kind::Write, start, Instant::now());
        r
    }
    fn try_commit(self: Box<Self>) -> TxResult<()> {
        let start = Instant::now();
        let r = self.inner.try_commit();
        record(Kind::Commit, start, Instant::now());
        r
    }
    fn try_abort(self: Box<Self>) {
        self.inner.try_abort();
    }
    fn retire_tvar_block(&mut self, base: TVarId, len: usize) {
        self.inner.retire_tvar_block(base, len);
    }
    fn footprint(&self, out: &mut Vec<TVarId>) {
        self.inner.footprint(out);
    }
}

/// Chrome-trace (`chrome://tracing`, Perfetto) rendering of kept spans:
/// one process per backend, one thread per client, `args.op` the id the
/// spans of one op share.
pub fn chrome_trace(cells: &[(&str, Vec<Span>)], origin: Instant) -> Json {
    let mut events = Vec::new();
    for (pid, (backend, spans)) in cells.iter().enumerate() {
        events.push(obj([
            ("name", Json::from("process_name")),
            ("ph", Json::from("M")),
            ("pid", Json::from(pid)),
            ("args", obj([("name", Json::from(*backend))])),
        ]));
        for s in spans {
            let ts_ns = s.start.saturating_duration_since(origin).as_nanos() as f64;
            events.push(obj([
                ("name", Json::from(s.kind.name())),
                ("cat", Json::from(*backend)),
                ("ph", Json::from("X")),
                ("ts", Json::from(ts_ns / 1e3)),
                ("dur", Json::from(s.dur_ns as f64 / 1e3)),
                ("pid", Json::from(pid)),
                ("tid", Json::from(u64::from(s.client))),
                ("args", obj([("op", Json::from(s.parent))])),
            ]));
        }
    }
    obj([("traceEvents", Json::Arr(events))])
}

#[cfg(test)]
mod tests {
    use super::*;
    use oftm::baselines::Tl2Stm;

    #[test]
    fn unmarked_ops_record_nothing_and_marked_ops_record_children() {
        let sink = Sink::new(RAW_SPANS_PER_CELL);
        let stm = TracedStm::new(Arc::new(Tl2Stm::new()));
        let x = stm.alloc_tvar(1);

        let run = |stm: &TracedStm| {
            let mut tx = stm.begin(0);
            let v = tx.read(x).unwrap();
            tx.write(x, v + 1).unwrap();
            tx.try_commit().unwrap();
        };
        run(&stm);
        assert_eq!(sink.take().of(Kind::Begin).count, 0);

        let start = Instant::now();
        enter(&sink, 7, 3);
        run(&stm);
        let y = stm.alloc_tvar_block(&[0, 0]);
        stm.free_tvar_block(y, 2);
        record(Kind::Op, start, Instant::now());
        leave(&sink);
        run(&stm); // after leave: unmarked again

        let c = sink.take();
        for kind in [
            Kind::Op,
            Kind::Begin,
            Kind::Read,
            Kind::Write,
            Kind::Commit,
            Kind::Alloc,
            Kind::Free,
        ] {
            assert_eq!(c.of(kind).count, 1, "{}", kind.name());
        }
        assert!(
            c.backend_ns() <= c.of(Kind::Op).sum_ns,
            "children nest in the op span"
        );
        assert_eq!(c.raw.len(), 7);
        assert!(c.raw.iter().all(|s| s.parent == 7 && s.client == 3));
        assert_eq!(stm.inner.stats().snapshot().all_commits(), 3);
    }

    #[test]
    fn raw_spans_are_capped_but_sums_are_not() {
        let sink = Sink::new(RAW_SPANS_PER_CELL);
        let t = Instant::now();
        for op in 1..=(RAW_SPANS_PER_CELL as u64 + 10) {
            enter(&sink, op, 0);
            record(Kind::Read, t, t);
            leave(&sink);
        }
        let c = sink.take();
        assert_eq!(c.of(Kind::Read).count, RAW_SPANS_PER_CELL as u64 + 10);
        assert_eq!(c.raw.len(), RAW_SPANS_PER_CELL);
    }

    #[test]
    fn chrome_trace_children_carry_their_parents_id() {
        let t = Instant::now();
        let span = |kind, parent| Span {
            kind,
            parent,
            client: 1,
            start: t,
            dur_ns: 1500,
        };
        let doc = chrome_trace(&[("tl2", vec![span(Kind::Op, 9), span(Kind::Read, 9)])], t);
        let Some(Json::Arr(events)) = doc.get("traceEvents") else {
            panic!("no events");
        };
        assert_eq!(events.len(), 3);
        for e in &events[1..] {
            assert_eq!(
                e.get("args").unwrap().get("op").unwrap().as_f64(),
                Some(9.0)
            );
            assert_eq!(e.get("dur").unwrap().as_f64(), Some(1.5));
        }
        assert_eq!(events[2].get("name").unwrap().as_str(), Some("read"));
    }
}
