//! The four closed-loop workloads, their oracles, and the cell runner.
//!
//! A *cell* is one backend on one workload: fresh backend, populate
//! (timed as set-up), untimed warm-up, timed interval, oracle. Clients
//! issue their next op only when the previous one returned (closed loop);
//! every op stream is a [`SplitMix`] lane of the run's seed.

use crate::metrics::BACKENDS;
use crate::stats::{LatencyHist, SplitMix};
use crate::trace::{self, Collected, Kind, Sink, TracedStm};
use async_executor::Executor;
use oftm::asyncrt::atomically_async_budgeted;
use oftm::baselines::{CoarseStm, Tl2Stm, TlStm};
use oftm::core::api::{run_transaction_ro_with_budget, WordStm};
use oftm::core::{run_transaction_with_budget, BudgetExceeded, Dstm, DstmWord, TxError};
use oftm::histories::TVarId;
use oftm::obs::{Counter, StatsSnapshot};
use oftm::structs::{atomically_budgeted, atomically_ro_budgeted};
use oftm::{HybridConfig, HybridStm, TxHashMap, TxIntSet, TxQueue};
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll};
use std::time::{Duration, Instant};

/// Attempts an op may spend before it counts as failed.
pub const ATTEMPT_BUDGET: u32 = 50_000;

/// One op in this many per client is timed for the latency percentiles:
/// often enough that the slowest backend (DSTM, ~7 k set ops in the
/// untraced cells of a traced run) keeps ten samples beyond its p99, at
/// ~1 % of a 1.5 µs op.
pub const LATENCY_SAMPLE_EVERY: u64 = 4;

/// A cell sets up again until its set-ups have taken this long together…
const MIN_SETUP_TIME: Duration = Duration::from_millis(5);
/// …or until it has set up this many times.
const MAX_SETUPS: usize = 64;

/// Builds a backend by its **default constructor**, so a later change to
/// a default (contention manager, lock patience, hybrid policy) moves the
/// numbers reported under that backend's name.
pub fn make_backend(name: &str) -> Arc<dyn WordStm> {
    match name {
        "dstm" => Arc::new(DstmWord::new(Dstm::default())),
        "tl" => Arc::new(TlStm::new()),
        "tl2" => Arc::new(Tl2Stm::new()),
        "coarse" => Arc::new(CoarseStm::new()),
        "hybrid" => Arc::new(HybridStm::new(HybridConfig::default())),
        other => panic!("unknown backend {other}"),
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    SetReadMostly,
    MapWriteHeavy,
    BankHot,
    AsyncTokenRing,
}

pub const ALL_WORKLOADS: [Workload; 4] = [
    Workload::SetReadMostly,
    Workload::MapWriteHeavy,
    Workload::BankHot,
    Workload::AsyncTokenRing,
];

impl Workload {
    pub fn name(self) -> &'static str {
        crate::metrics::WORKLOADS[self as usize].0
    }

    pub fn parse(name: &str) -> Option<Workload> {
        ALL_WORKLOADS.into_iter().find(|w| w.name() == name)
    }
}

/// What one cell is asked to do.
#[derive(Clone, Copy, Debug)]
pub struct CellSpec {
    pub workload: Workload,
    pub backend: &'static str,
    /// Which repetition of the run this is.
    pub rep: u32,
    /// Seed of this cell's populate and op streams.
    pub seed: u64,
    pub warmup: Duration,
    pub interval: Duration,
    pub traced: bool,
}

/// What one cell measured.
pub struct CellResult {
    pub backend: &'static str,
    pub traced: bool,
    /// The fastest of the cell's set-ups.
    pub setup_s: f64,
    pub interval_s: f64,
    /// Ops that committed inside the timed interval.
    pub ops: u64,
    /// Ops that exhausted [`ATTEMPT_BUDGET`] inside the timed interval.
    pub failed: u64,
    /// Attempts spent by the committed ops.
    pub attempts: u64,
    /// Latencies of the timed ops.
    pub latencies: LatencyHist,
    /// Backend telemetry over the timed interval.
    pub stats: StatsSnapshot,
    /// Spans of the sampled ops (traced cells only).
    pub spans: Option<Collected>,
    pub oracle: Result<(), String>,
}

impl CellResult {
    pub fn ops_per_s(&self) -> f64 {
        self.ops as f64 / self.interval_s
    }

    pub fn p99_us(&self) -> Option<f64> {
        self.latencies.percentile(0.99).map(|ns| ns / 1e3)
    }

    /// Ops this cell answers for. A cell whose oracle failed cannot vouch
    /// for any of its ops, so all of them count as failed.
    pub fn attempted(&self) -> u64 {
        self.ops + self.failed
    }

    pub fn failed_ops(&self) -> u64 {
        if self.oracle.is_ok() {
            self.failed
        } else {
            self.attempted().max(1)
        }
    }
}

/// Worker threads of the sync workloads and executor workers of the
/// async one.
pub fn worker_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

const WARMUP: u8 = 0;
const TIMED: u8 = 1;
const STOP: u8 = 2;

/// What one client measured inside the timed interval.
#[derive(Default)]
struct Measured {
    ops: u64,
    failed: u64,
    attempts: u64,
    latencies: LatencyHist,
}

impl Measured {
    fn reset(&mut self) {
        self.ops = 0;
        self.failed = 0;
        self.attempts = 0;
        self.latencies.clear();
    }

    fn merge(&mut self, other: Measured) {
        self.ops += other.ops;
        self.failed += other.failed;
        self.attempts += other.attempts;
        self.latencies.merge(&other.latencies);
    }
}

/// Per-op bookkeeping shared by the sync and async client loops: which
/// ops are timed, which are traced, and what happens at a phase change.
struct ClientLoop<'a> {
    client: u32,
    rep: u32,
    phase: &'a AtomicU8,
    sink: Option<&'a Sink>,
    seen: u8,
    n: u64,
    measured: Measured,
}

/// An op in flight: `Some` start time if it is timed, and whether it is
/// traced too.
struct InFlight {
    started: Option<Instant>,
    traced: bool,
}

impl<'a> ClientLoop<'a> {
    fn new(client: u32, rep: u32, phase: &'a AtomicU8, sink: Option<&'a Sink>) -> Self {
        ClientLoop {
            client,
            rep,
            phase,
            sink,
            seen: WARMUP,
            n: 0,
            measured: Measured::default(),
        }
    }

    /// `false` once the run is over. Entering the timed interval drops
    /// what the warm-up counted.
    fn next(&mut self) -> bool {
        // ord: Relaxed — a flag polled once per op; it publishes nothing.
        let phase = self.phase.load(Ordering::Relaxed);
        if phase != self.seen {
            if phase == STOP {
                return false;
            }
            self.measured.reset();
            self.seen = phase;
        }
        self.n += 1;
        true
    }

    /// Id the spans of the coming op share: non-zero, unique among the
    /// cells of one backend in a run, and below 2⁵³ so that JSON keeps it.
    fn op_id(&self) -> u64 {
        u64::from(self.rep) << 40 | (u64::from(self.client) + 1) << 32 | (self.n & 0xFFFF_FFFF)
    }

    fn start_op(&self) -> InFlight {
        let traced = self.sink.is_some() && self.n.is_multiple_of(trace::SAMPLE_EVERY);
        let timed = traced || self.n.is_multiple_of(LATENCY_SAMPLE_EVERY);
        if let (true, Some(sink)) = (traced, self.sink) {
            trace::enter(sink, self.op_id(), self.client);
        }
        InFlight {
            started: timed.then(Instant::now),
            traced,
        }
    }

    /// `outcome`: attempts of a committed op, or the exhausted budget.
    fn finish_op(&mut self, op: InFlight, outcome: Result<u32, BudgetExceeded>) {
        let ended = op.started.map(|t0| (t0, Instant::now()));
        if let (true, Some(sink)) = (op.traced, self.sink) {
            // An async op left the mark at its last poll; re-enter so the
            // op span lands under the same id.
            trace::enter(sink, self.op_id(), self.client);
            let (t0, t1) = ended.expect("traced ops are timed");
            trace::record(Kind::Op, t0, t1);
            trace::leave(sink);
        }
        // A traced op runs slower than its neighbours, and one op in 64
        // is enough to own the top percentile: its latency is not a sample.
        let sample = ended.filter(|_| !op.traced);
        let m = &mut self.measured;
        match outcome {
            Ok(attempts) => {
                m.ops += 1;
                m.attempts += u64::from(attempts);
                if let Some((t0, t1)) = sample {
                    m.latencies.record(t1.duration_since(t0).as_nanos() as u64);
                }
            }
            Err(BudgetExceeded { .. }) => {
                m.failed += 1;
                if sample.is_some() {
                    m.latencies.record_failed();
                }
            }
        }
    }
}

/// A sync workload: `op` is one client request, `oracle` checks the final
/// state against what every client's ops returned.
trait SyncWorkload: Sync {
    type Tally: Default + Send;

    fn op(
        &self,
        stm: &dyn WordStm,
        proc: u32,
        rng: &mut SplitMix,
        tally: &mut Self::Tally,
    ) -> Result<u32, BudgetExceeded>;

    /// Runs after every client has stopped. Its first transaction commits
    /// with nobody in flight, which flushes every pending retirement, so
    /// `live_tvars` is exact afterwards.
    fn oracle(&self, stm: &dyn WordStm, tallies: &[Self::Tally]) -> Result<(), String>;
}

fn check(ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what())
    }
}

/// The leak check: after quiescence exactly the structure's t-variables
/// are live. A backend that migrated between engines during the run
/// cannot be brought to quiescence from outside — blocks retired in the
/// outgoing engine just before the switch wait in that engine's grace
/// tracker until it runs again (README, "Findings") — so the equation is
/// only held against runs without a migration.
fn check_live(stm: &dyn WordStm, want: usize) -> Result<(), String> {
    let live = stm.live_tvars();
    let migrated = stm.stats().snapshot().get(Counter::ModeMigrations) > 0;
    check(live == want || (migrated && live > want), || {
        format!("{live} t-variables live after quiescence, structure accounts for {want}")
    })
}

// ---------------------------------------------------------------- set

pub const SET_UNIVERSE: u64 = 512;

struct SetReadMostly {
    set: TxIntSet,
    initially_present: Vec<bool>,
}

impl SetReadMostly {
    /// Half the universe present, chosen by the seed.
    fn setup(stm: &dyn WordStm, seed: u64) -> Self {
        let mut rng = SplitMix::derive(seed, u64::MAX);
        let mut keys: Vec<u64> = (0..SET_UNIVERSE).collect();
        for i in (1..keys.len()).rev() {
            keys.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let set = TxIntSet::create(stm);
        let mut initially_present = vec![false; SET_UNIVERSE as usize];
        for &k in &keys[..keys.len() / 2] {
            set.insert(stm, 0, k);
            initially_present[k as usize] = true;
        }
        SetReadMostly {
            set,
            initially_present,
        }
    }
}

/// Per key: successful inserts minus successful removes.
struct NetInserts(Vec<i32>);

impl Default for NetInserts {
    fn default() -> Self {
        NetInserts(vec![0; SET_UNIVERSE as usize])
    }
}

/// The set oracle on plain data, so broken inputs can be fed to it.
fn check_set(snapshot: &[u64], initially_present: &[bool], net: &[i32]) -> Result<(), String> {
    check(snapshot.windows(2).all(|w| w[0] < w[1]), || {
        "set snapshot is not sorted and unique".to_string()
    })?;
    check(snapshot.iter().all(|&k| k < SET_UNIVERSE), || {
        "set snapshot holds a key outside the universe".to_string()
    })?;
    for k in 0..SET_UNIVERSE as usize {
        let want = i32::from(initially_present[k]) + net[k];
        let got = i32::from(snapshot.binary_search(&(k as u64)).is_ok());
        check(want == got, || {
            format!(
                "key {k}: clients' inserts and removes leave {want} copies, the set holds {got}"
            )
        })?;
    }
    Ok(())
}

impl SyncWorkload for SetReadMostly {
    type Tally = NetInserts;

    fn op(
        &self,
        stm: &dyn WordStm,
        proc: u32,
        rng: &mut SplitMix,
        tally: &mut NetInserts,
    ) -> Result<u32, BudgetExceeded> {
        let key = rng.below(SET_UNIVERSE);
        let set = self.set;
        match rng.below(100) {
            0..=89 => {
                atomically_ro_budgeted(stm, proc, ATTEMPT_BUDGET, |ctx| set.contains_in(ctx, key))
                    .map(|(_, attempts)| attempts)
            }
            90..=94 => {
                atomically_budgeted(stm, proc, ATTEMPT_BUDGET, |ctx| set.insert_in(ctx, key)).map(
                    |(inserted, attempts)| {
                        tally.0[key as usize] += i32::from(inserted);
                        attempts
                    },
                )
            }
            _ => atomically_budgeted(stm, proc, ATTEMPT_BUDGET, |ctx| set.remove_in(ctx, key)).map(
                |(removed, attempts)| {
                    tally.0[key as usize] -= i32::from(removed);
                    attempts
                },
            ),
        }
    }

    fn oracle(&self, stm: &dyn WordStm, tallies: &[NetInserts]) -> Result<(), String> {
        let snapshot = self.set.snapshot(stm, 0);
        let net: Vec<i32> = (0..SET_UNIVERSE as usize)
            .map(|k| tallies.iter().map(|t| t.0[k]).sum())
            .collect();
        check_set(&snapshot, &self.initially_present, &net)?;
        check_live(stm, 1 + 2 * snapshot.len())
    }
}

// ---------------------------------------------------------------- map

pub const MAP_KEYS: u64 = 4_096;
pub const MAP_BUCKETS: usize = 1_024;

struct MapWriteHeavy {
    map: TxHashMap,
    initial_len: u64,
}

impl MapWriteHeavy {
    /// Each key present with probability ½, decided by the seed.
    fn setup(stm: &dyn WordStm, seed: u64) -> Self {
        let mut rng = SplitMix::derive(seed, u64::MAX);
        let map = TxHashMap::create(stm, MAP_BUCKETS);
        let mut initial_len = 0;
        for key in 0..MAP_KEYS {
            if rng.next_u64() & 1 == 1 {
                map.put(stm, 0, key, key);
                initial_len += 1;
            }
        }
        MapWriteHeavy { map, initial_len }
    }
}

#[derive(Default)]
struct MapTally {
    fresh_puts: u64,
    successful_removes: u64,
}

/// The map oracle on plain data.
fn check_map_len(final_len: u64, initial_len: u64, tallies: &[MapTally]) -> Result<(), String> {
    let puts: u64 = tallies.iter().map(|t| t.fresh_puts).sum();
    let removes: u64 = tallies.iter().map(|t| t.successful_removes).sum();
    check(initial_len + puts == final_len + removes, || {
        format!("map holds {final_len} keys, but {initial_len} initial + {puts} fresh puts − {removes} removes were acknowledged")
    })
}

impl SyncWorkload for MapWriteHeavy {
    type Tally = MapTally;

    fn op(
        &self,
        stm: &dyn WordStm,
        proc: u32,
        rng: &mut SplitMix,
        tally: &mut MapTally,
    ) -> Result<u32, BudgetExceeded> {
        let key = rng.below(MAP_KEYS);
        let map = self.map;
        match rng.below(100) {
            0..=39 => {
                atomically_budgeted(stm, proc, ATTEMPT_BUDGET, |ctx| map.put_in(ctx, key, key)).map(
                    |(old, attempts)| {
                        tally.fresh_puts += u64::from(old.is_none());
                        attempts
                    },
                )
            }
            40..=79 => {
                atomically_budgeted(stm, proc, ATTEMPT_BUDGET, |ctx| map.remove_in(ctx, key)).map(
                    |(old, attempts)| {
                        tally.successful_removes += u64::from(old.is_some());
                        attempts
                    },
                )
            }
            _ => atomically_ro_budgeted(stm, proc, ATTEMPT_BUDGET, |ctx| map.get_in(ctx, key))
                .map(|(_, attempts)| attempts),
        }
    }

    fn oracle(&self, stm: &dyn WordStm, tallies: &[MapTally]) -> Result<(), String> {
        // Counted by point lookups, 256 keys to a transaction: one
        // transaction over all ~115k words would measure the backend's
        // read-set growth, not check the map.
        let map = self.map;
        let mut final_len = 0u64;
        for chunk in 0..MAP_KEYS / 256 {
            let (present, _) = atomically_ro_budgeted(stm, 0, ATTEMPT_BUDGET, |ctx| {
                let mut present = 0u64;
                for key in chunk * 256..(chunk + 1) * 256 {
                    present += u64::from(map.get_in(ctx, key)?.is_some());
                }
                Ok(present)
            })
            .map_err(|e| format!("oracle lookup: {e}"))?;
            final_len += present;
        }
        check_map_len(final_len, self.initial_len, tallies)?;
        check_live(stm, MAP_BUCKETS + 3 * final_len as usize)
    }
}

// --------------------------------------------------------------- bank

pub const BANK_WORDS: u64 = 8;
const BANK_INITIAL: u64 = 1 << 40;

struct BankHot;

impl BankHot {
    fn setup(stm: &dyn WordStm) -> Self {
        for i in 0..BANK_WORDS {
            stm.register_tvar(TVarId(i), BANK_INITIAL);
        }
        BankHot
    }
}

fn check_bank(words: &[u64]) -> Result<(), String> {
    let sum: u64 = words.iter().sum();
    check(sum == BANK_WORDS * BANK_INITIAL, || {
        format!(
            "bank total is {sum}, expected {}",
            BANK_WORDS * BANK_INITIAL
        )
    })
}

impl SyncWorkload for BankHot {
    type Tally = ();

    /// Reads six of the eight words and moves one unit from the first to
    /// the second.
    fn op(
        &self,
        stm: &dyn WordStm,
        proc: u32,
        rng: &mut SplitMix,
        _: &mut (),
    ) -> Result<u32, BudgetExceeded> {
        let mut words: [u64; BANK_WORDS as usize] = std::array::from_fn(|i| i as u64);
        for i in 0..6 {
            words.swap(i, i + rng.below(BANK_WORDS - i as u64) as usize);
        }
        run_transaction_with_budget(stm, proc, ATTEMPT_BUDGET, |tx| {
            let from = tx.read(TVarId(words[0]))?;
            let to = tx.read(TVarId(words[1]))?;
            for &w in &words[2..6] {
                tx.read(TVarId(w))?;
            }
            tx.write(TVarId(words[0]), from - 1)?;
            tx.write(TVarId(words[1]), to + 1)
        })
        .map(|((), attempts)| attempts)
    }

    fn oracle(&self, stm: &dyn WordStm, _: &[()]) -> Result<(), String> {
        let (words, _) = run_transaction_ro_with_budget(stm, 0, ATTEMPT_BUDGET, |tx| {
            (0..BANK_WORDS)
                .map(|i| tx.read(TVarId(i)))
                .collect::<Result<Vec<u64>, _>>()
        })
        .map_err(|e| format!("oracle read: {e}"))?;
        check_bank(&words)?;
        check_live(stm, BANK_WORDS as usize)
    }
}

// --------------------------------------------------------- token ring

pub const RING_CLIENTS: u32 = 32;
pub const RING_TOKENS: u64 = 4;

fn check_ring(mut tokens: Vec<u64>) -> Result<(), String> {
    tokens.sort_unstable();
    check(tokens == (1..=RING_TOKENS).collect::<Vec<_>>(), || {
        format!("token multiset is {tokens:?}, expected 1..={RING_TOKENS}")
    })
}

/// Marks the polling thread with the op's id around every poll of `fut`:
/// an async op's attempts may run on different executor threads.
struct InSpan<'a, F> {
    sink: Option<&'a Sink>,
    op: u64,
    client: u32,
    fut: F,
}

impl<F: Future + Unpin> Future for InSpan<'_, F> {
    type Output = F::Output;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<F::Output> {
        let this = self.get_mut();
        let Some(sink) = this.sink else {
            return Pin::new(&mut this.fut).poll(cx);
        };
        trace::enter(sink, this.op, this.client);
        let out = Pin::new(&mut this.fut).poll(cx);
        trace::leave(sink);
        out
    }
}

/// One ring client: even clients move tokens A→B, odd ones B→A. A
/// client whose source is empty aborts and parks on its footprint until
/// a peer's commit (or the watchdog) wakes it.
async fn ring_client(
    stm: Arc<dyn WordStm>,
    queues: [TxQueue; 2],
    client: u32,
    rep: u32,
    phase: Arc<AtomicU8>,
    sink: Option<Arc<Sink>>,
) -> Measured {
    let (src, dst) = (
        queues[(client % 2) as usize],
        queues[((client + 1) % 2) as usize],
    );
    let mut lp = ClientLoop::new(client, rep, &phase, sink.as_deref());
    while lp.next() {
        let op = lp.start_op();
        let stop = &phase;
        let transfer = atomically_async_budgeted(&*stm, client, ATTEMPT_BUDGET, move |ctx| {
            // A client parked when the run ends would otherwise wait for
            // a token nobody moves any more.
            if stop.load(Ordering::Relaxed) == STOP {
                return Ok(None);
            }
            match src.dequeue_in(ctx)? {
                Some(token) => {
                    dst.enqueue_in(ctx, token)?;
                    Ok(Some(token))
                }
                None => Err(TxError::Aborted),
            }
        });
        let done = InSpan {
            sink: op.traced.then_some(lp.sink).flatten(),
            op: lp.op_id(),
            client,
            fut: transfer,
        }
        .await;
        match done {
            Ok(c) if c.value.is_none() => break, // the run ended mid-op
            Ok(c) => lp.finish_op(op, Ok(c.attempts)),
            Err(e) => lp.finish_op(op, Err(e)),
        }
    }
    lp.measured
}

// -------------------------------------------------------- cell runner

/// Sleeps through warm-up and the timed interval, flipping `phase`, and
/// returns the interval's length and the backend's telemetry over it.
fn conduct(spec: &CellSpec, stm: &dyn WordStm, phase: &AtomicU8) -> (f64, StatsSnapshot) {
    std::thread::sleep(spec.warmup);
    let before = stm.stats().snapshot();
    let t0 = Instant::now();
    phase.store(TIMED, Ordering::Relaxed);
    std::thread::sleep(spec.interval);
    phase.store(STOP, Ordering::Relaxed);
    let interval_s = t0.elapsed().as_secs_f64();
    (interval_s, stm.stats().snapshot().since(&before))
}

struct Ran {
    measured: Measured,
    interval_s: f64,
    stats: StatsSnapshot,
    oracle: Result<(), String>,
}

fn run_sync<W: SyncWorkload>(
    spec: &CellSpec,
    stm: &dyn WordStm,
    sink: Option<&Sink>,
    w: &W,
) -> Ran {
    let phase = AtomicU8::new(WARMUP);
    let (clients, (interval_s, stats)) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..worker_threads() as u32)
            .map(|proc| {
                let phase = &phase;
                s.spawn(move || {
                    let mut rng = SplitMix::derive(spec.seed, u64::from(proc));
                    let mut tally = W::Tally::default();
                    let mut lp = ClientLoop::new(proc, spec.rep, phase, sink);
                    while lp.next() {
                        let op = lp.start_op();
                        let outcome = w.op(stm, proc, &mut rng, &mut tally);
                        lp.finish_op(op, outcome);
                    }
                    (lp.measured, tally)
                })
            })
            .collect();
        let conducted = conduct(spec, stm, &phase);
        let clients: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (clients, conducted)
    });
    let mut measured = Measured::default();
    let mut tallies = Vec::new();
    for (m, t) in clients {
        measured.merge(m);
        tallies.push(t);
    }
    Ran {
        measured,
        interval_s,
        stats,
        oracle: w.oracle(stm, &tallies),
    }
}

fn run_ring(
    spec: &CellSpec,
    stm: &Arc<dyn WordStm>,
    sink: Option<&Arc<Sink>>,
    queues: [TxQueue; 2],
) -> Ran {
    let phase = Arc::new(AtomicU8::new(WARMUP));
    let exec = Executor::new(worker_threads());
    let handles: Vec<_> = (0..RING_CLIENTS)
        .map(|client| {
            exec.spawn(ring_client(
                Arc::clone(stm),
                queues,
                client,
                spec.rep,
                Arc::clone(&phase),
                sink.cloned(),
            ))
        })
        .collect();
    let (interval_s, stats) = conduct(spec, &**stm, &phase);
    let mut measured = Measured::default();
    for h in handles {
        measured.merge(h.join());
    }
    drop(exec);
    let mut tokens = queues[0].snapshot(&**stm, 0);
    tokens.extend(queues[1].snapshot(&**stm, 0));
    // Two head/tail pairs plus one two-word node per token.
    let oracle = check_ring(tokens).and_then(|()| check_live(&**stm, 4 + 2 * RING_TOKENS as usize));
    Ran {
        measured,
        interval_s,
        stats,
        oracle,
    }
}

/// A populated workload, ready for its clients.
enum Ready {
    Set(SetReadMostly),
    Map(MapWriteHeavy),
    Bank(BankHot),
    Ring([TxQueue; 2]),
}

/// Runs one cell (see module docs).
pub fn run_cell(spec: &CellSpec) -> CellResult {
    assert!(BACKENDS.contains(&spec.backend));
    let sink = spec.traced.then(|| {
        let raw_spans = if spec.rep < trace::RAW_CELLS_PER_BACKEND {
            trace::RAW_SPANS_PER_CELL
        } else {
            0
        };
        Arc::new(Sink::new(raw_spans))
    });

    // Populate through the same handle the clients use; nothing is marked
    // for tracing yet, so the interposer passes it through.
    let build = || {
        let base = make_backend(spec.backend);
        let stm: Arc<dyn WordStm> = if spec.traced {
            Arc::new(TracedStm::new(base))
        } else {
            base
        };
        let ready = match spec.workload {
            Workload::SetReadMostly => Ready::Set(SetReadMostly::setup(&*stm, spec.seed)),
            Workload::MapWriteHeavy => Ready::Map(MapWriteHeavy::setup(&*stm, spec.seed)),
            Workload::BankHot => Ready::Bank(BankHot::setup(&*stm)),
            Workload::AsyncTokenRing => {
                let queues = [TxQueue::create(&*stm), TxQueue::create(&*stm)];
                for token in 1..=RING_TOKENS {
                    queues[0].enqueue(&*stm, 0, token);
                }
                Ready::Ring(queues)
            }
        };
        (stm, ready)
    };
    // A set-up of a few microseconds is set up again until the samples
    // add up to something a clock can hold; the cell reports the fastest
    // (set-up is single-threaded and does the same work every time, so
    // whatever else ran only ever added to it) and runs on the last built.
    let mut setups = Vec::new();
    let (stm, ready) = loop {
        let started = Instant::now();
        let built = build();
        setups.push(started.elapsed().as_secs_f64());
        if setups.len() == MAX_SETUPS || setups.iter().sum::<f64>() >= MIN_SETUP_TIME.as_secs_f64()
        {
            break built;
        }
    };
    let setup_s = setups.iter().copied().fold(f64::INFINITY, f64::min);

    let ran = match &ready {
        Ready::Set(w) => run_sync(spec, &*stm, sink.as_deref(), w),
        Ready::Map(w) => run_sync(spec, &*stm, sink.as_deref(), w),
        Ready::Bank(w) => run_sync(spec, &*stm, sink.as_deref(), w),
        Ready::Ring(queues) => run_ring(spec, &stm, sink.as_ref(), *queues),
    };

    let m = ran.measured;
    CellResult {
        backend: spec.backend,
        traced: spec.traced,
        setup_s,
        interval_s: ran.interval_s,
        ops: m.ops,
        failed: m.failed,
        attempts: m.attempts,
        latencies: m.latencies,
        stats: ran.stats,
        spans: sink.map(|s| s.take()),
        oracle: ran.oracle,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn short(workload: Workload, backend: &'static str, traced: bool) -> CellResult {
        run_cell(&CellSpec {
            workload,
            backend,
            rep: 0,
            seed: 42,
            warmup: Duration::from_millis(20),
            interval: Duration::from_millis(200),
            traced,
        })
    }

    /// Every workload on every backend, 0.2 s each, oracle included.
    #[test]
    fn every_workload_passes_its_oracle_on_every_backend() {
        for workload in ALL_WORKLOADS {
            for backend in BACKENDS {
                let cell = short(workload, backend, false);
                let name = format!("{} on {backend}", workload.name());
                assert_eq!(cell.oracle, Ok(()), "{name}");
                assert!(cell.ops > 0, "{name}: no op committed");
                assert_eq!(cell.failed, 0, "{name}");
                assert_eq!(cell.failed_ops(), 0, "{name}");
                assert!(cell.attempts >= cell.ops, "{name}");
                assert!(cell.setup_s > 0.0 && cell.interval_s >= 0.2, "{name}");
                let timed = cell.latencies.len();
                assert!(
                    timed
                        <= cell.ops / LATENCY_SAMPLE_EVERY
                            + worker_threads().max(RING_CLIENTS as usize) as u64,
                    "{name}: {timed} samples of {} ops",
                    cell.ops
                );
            }
        }
    }

    #[test]
    fn traced_cells_collect_nested_spans() {
        for workload in [Workload::SetReadMostly, Workload::AsyncTokenRing] {
            let cell = short(workload, "tl2", true);
            assert_eq!(cell.oracle, Ok(()));
            let spans = cell.spans.expect("traced cell keeps spans");
            let ops = spans.of(Kind::Op);
            assert!(ops.count > 0, "{}", workload.name());
            assert!(spans.of(Kind::Begin).count >= ops.count);
            assert!(spans.of(Kind::Read).count >= ops.count);
            assert!(
                spans.backend_ns() <= ops.sum_ns,
                "children nest in their op"
            );
            assert!(!spans.raw.is_empty());
        }
    }

    #[test]
    fn token_ring_parks_and_bank_aborts() {
        let ring = short(Workload::AsyncTokenRing, "tl2", false);
        assert!(ring.stats.get(Counter::Parks) > 0, "no client ever parked");
        if worker_threads() > 1 {
            let bank = short(Workload::BankHot, "tl2", false);
            assert!(
                bank.stats.aborts() > 0,
                "two threads on 8 hot words never aborted"
            );
        }
    }

    #[test]
    fn same_seed_gives_the_same_inputs() {
        let a = SetReadMostly::setup(&*make_backend("tl2"), 5).initially_present;
        let b = SetReadMostly::setup(&*make_backend("dstm"), 5).initially_present;
        let c = SetReadMostly::setup(&*make_backend("tl2"), 6).initially_present;
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.iter().filter(|&&p| p).count(), 256);
    }

    /// Deliberately broken oracle inputs: each oracle must refuse them,
    /// and a refused cell reports all of its ops as failed.
    #[test]
    fn broken_oracle_inputs_are_refused() {
        let present = vec![false; SET_UNIVERSE as usize];
        let mut net = vec![0; SET_UNIVERSE as usize];
        net[7] = 1;
        assert!(check_set(&[7], &present, &net).is_ok());
        assert!(check_set(&[7, 7], &present, &net).is_err(), "duplicate");
        assert!(check_set(&[9, 7], &present, &net).is_err(), "unsorted");
        assert!(
            check_set(&[7, 600], &present, &net).is_err(),
            "outside the universe"
        );
        assert!(
            check_set(&[], &present, &net).is_err(),
            "acknowledged insert lost"
        );
        assert!(
            check_set(&[7, 8], &present, &net).is_err(),
            "key nobody inserted"
        );

        let tally = |fresh_puts, successful_removes| MapTally {
            fresh_puts,
            successful_removes,
        };
        assert!(check_map_len(12, 10, &[tally(3, 1), tally(1, 1)]).is_ok());
        assert!(check_map_len(11, 10, &[tally(3, 1), tally(1, 1)]).is_err());

        assert!(check_bank(&[BANK_INITIAL; BANK_WORDS as usize]).is_ok());
        let mut words = [BANK_INITIAL; BANK_WORDS as usize];
        words[0] -= 1;
        assert!(check_bank(&words).is_err(), "a unit vanished");

        assert!(check_ring(vec![3, 1, 4, 2]).is_ok());
        assert!(check_ring(vec![1, 2, 3]).is_err(), "token lost");
        assert!(check_ring(vec![1, 2, 3, 3]).is_err(), "token duplicated");

        let stm = make_backend("tl2");
        stm.alloc_tvar(0);
        assert!(check_live(&*stm, 1).is_ok());
        assert!(check_live(&*stm, 0).is_err(), "leaked t-variable");

        let mut cell = short(Workload::BankHot, "coarse", false);
        assert_eq!(cell.failed_ops(), 0);
        cell.oracle = check_bank(&words);
        assert_eq!(cell.failed_ops(), cell.attempted());
        assert!(cell.failed_ops() > 0);
    }
}
