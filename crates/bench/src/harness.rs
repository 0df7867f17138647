//! Deterministic cross-STM differential runner: one matrix of seeded
//! scenario cells, every registered STM ([`crate::STM_NAMES`]) through
//! every cell, every cell under the same oracles.
//!
//! A [`Scenario`] `(kind, threads, ops_per_thread, seed)` determines its
//! per-thread op tapes exactly. Five kinds work on registered words
//! (`read-heavy`, `write-heavy`, `hotspot`, `disjoint`, `bank-transfer`),
//! six on the collections of `oftm-structs` (`intset-mix`,
//! `queue-producer-consumer`, `map-churn`, `churn-steady-state`,
//! `queue-transfer`, `counter-stripes`). Every op is one transaction whose
//! body runs against a [`TxCtx`]; ops the tape itself marks read-only go
//! through the declared-RO entry point, so every backend's RO path runs
//! under concurrent writers with the oracles below watching.
//!
//! What every concurrent cell checks, on typed values at quiescence:
//!
//! 1. **History safety** — the recorded history is well-formed and
//!    conflict-serializable; a small run over all-zero registered words
//!    additionally goes through the exact (exponential) serializability
//!    and final-state-opacity checkers. (Collections allocate t-variables
//!    with non-zero initial values, which those checkers cannot model.)
//! 2. **Scenario invariants** ([`check_invariants`]) — facts that hold
//!    under any correct interleaving: exact commutative sums, conserved
//!    bank totals, sorted duplicate-free sets with per-value conservation,
//!    queue element conservation with distinct tickets and
//!    FIFO-per-producer, disjoint-range map models, conservation across
//!    the two transfer queues, exact striped-counter totals.
//! 3. **Reclamation** ([`expected_live`]) — the live t-variable count
//!    equals exactly what the final structure predicts: aborted attempts'
//!    allocations released, unlinked nodes reclaimed past their grace
//!    period, on every kind.
//! 4. **Telemetry conservation** ([`conservation_failures`]) — every begun
//!    attempt ended as exactly one commit or one tagged abort.
//! 5. **Forensics consistency** ([`forensics_failures`]) — rows in the
//!    who-aborted-whom table never exceed counted aborts, named rows never
//!    exceed attributed ones, a variable-attributed conflict abort leaves
//!    a row, and `coarse` (which serializes) attributes nothing.
//!
//! Across STMs, **sequential agreement**: the same tapes replayed
//! single-threaded must give identical per-op observations *and* final
//! snapshots on every implementation (sequential execution is
//! deterministic, so a divergence is a bug, not a schedule).
//!
//! Every transaction runs under [`ATTEMPT_BUDGET`]: a livelocking STM
//! yields a seeded failure, never a hang. Every failure carries the
//! scenario's seed; `HARNESS_SEED=0x… cargo test -p oftm-bench` reruns
//! that workload. `HARNESS_TRACE=1` prints each cell as it starts — the
//! first thing to reach for when a run wedges.

use crate::{make_stm, SplitMix, STM_NAMES};
use oftm_core::api::{TxResult, WordStm};
use oftm_core::record::Recorder;
use oftm_histories::{
    conflict_serializable, final_state_opaque, serializable, well_formed, OpacityCheck, SerCheck,
    TVarId, Value,
};
use oftm_hybrid::HybridStm;
use oftm_obs::{AbortCause, Counter, StatsSnapshot};
use oftm_structs::{
    atomically_budgeted, atomically_ro, atomically_ro_budgeted, TxCounter, TxCtx, TxHashMap,
    TxIntSet, TxQueue,
};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Transaction-count ceiling for the exact (exponential) checkers; larger
/// histories fall back to conflict-serializability only.
const EXACT_CHECK_CAP: usize = 10;

/// Retry budget per workload transaction: orders of magnitude beyond any
/// legitimate abort streak, so hitting it means the STM livelocked —
/// reported as a seeded harness failure instead of a silent hang. Kept
/// small enough that exhausting it (with the retry loop's ≤256 µs
/// randomized backoff per attempt) reports within seconds, not minutes.
pub const ATTEMPT_BUDGET: u32 = 50_000;

/// Process ids of the runner's own transactions (population, snapshot).
const POPULATE: u32 = u32::MAX - 2;
const PROBE: u32 = u32::MAX - 1;

/// The eleven seeded workload shapes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScenarioKind {
    /// Mostly declared read-only snapshot reads, occasional increments.
    ReadHeavy,
    /// Every transaction is a read-modify-write increment of a random var.
    WriteHeavy,
    /// All writes target one variable; other vars are only read.
    Hotspot,
    /// Thread `t` touches only variable `t`: zero data conflicts.
    Disjoint,
    /// Conditional transfers between random account pairs; the total is
    /// conserved by construction.
    BankTransfer,
    /// Insert/remove/contains over a small shared value universe.
    IntSetMix,
    /// Producers enqueue tagged values, consumers dequeue with a global
    /// ticket stamp.
    QueueProducerConsumer,
    /// Put/del/get churn over per-thread disjoint key ranges.
    MapChurn,
    /// Paired insert/remove churn at a steady structure size: every slot
    /// of the tape allocates or retires a node.
    ChurnSteadyState,
    /// Dequeue from one queue and enqueue to the other **atomically**.
    /// Queue A starts with a fixed population; the combined multiset is
    /// invariant — conservation *across structures*.
    QueueTransfer,
    /// Every thread adds to its own stripe of one `TxCounter`.
    CounterStripes,
}

/// All scenario kinds, in suite order.
pub const ALL_SCENARIOS: &[ScenarioKind] = &[
    ScenarioKind::ReadHeavy,
    ScenarioKind::WriteHeavy,
    ScenarioKind::Hotspot,
    ScenarioKind::Disjoint,
    ScenarioKind::BankTransfer,
    ScenarioKind::IntSetMix,
    ScenarioKind::QueueProducerConsumer,
    ScenarioKind::MapChurn,
    ScenarioKind::ChurnSteadyState,
    ScenarioKind::QueueTransfer,
    ScenarioKind::CounterStripes,
];

impl ScenarioKind {
    pub fn name(&self) -> &'static str {
        match self {
            ScenarioKind::ReadHeavy => "read-heavy",
            ScenarioKind::WriteHeavy => "write-heavy",
            ScenarioKind::Hotspot => "hotspot",
            ScenarioKind::Disjoint => "disjoint",
            ScenarioKind::BankTransfer => "bank-transfer",
            ScenarioKind::IntSetMix => "intset-mix",
            ScenarioKind::QueueProducerConsumer => "queue-producer-consumer",
            ScenarioKind::MapChurn => "map-churn",
            ScenarioKind::ChurnSteadyState => "churn-steady-state",
            ScenarioKind::QueueTransfer => "queue-transfer",
            ScenarioKind::CounterStripes => "counter-stripes",
        }
    }

    /// True for the five kinds that run over registered words `0..vars`.
    fn on_words(&self) -> bool {
        matches!(
            self,
            ScenarioKind::ReadHeavy
                | ScenarioKind::WriteHeavy
                | ScenarioKind::Hotspot
                | ScenarioKind::Disjoint
                | ScenarioKind::BankTransfer
        )
    }

    /// Initial value of every registered word.
    fn initial(&self) -> Value {
        match self {
            ScenarioKind::BankTransfer => 100,
            _ => 0,
        }
    }
}

/// Shared value universe of `intset-mix`.
const SET_UNIVERSE: u64 = 20;
/// Values per thread (`churn-steady-state`); thread `t` churns
/// `[t·16, t·16 + CHURN_RANGE)`. Ranges are disjoint (like `map-churn`) so
/// the contention is structural — neighboring list links — rather than
/// same-value: every thread still allocates and retires a node per pair,
/// which is what the reclamation oracle measures, but no cell degenerates
/// into the all-threads-on-one-value fight that drives Algorithm 2's
/// recorded version rescans quadratic.
const CHURN_RANGE: u64 = 8;
const CHURN_STRIDE: u64 = 16;
/// Keys per thread (`map-churn`); thread `t` owns `[t·32, t·32+KEYS)`.
const KEYS_PER_THREAD: u64 = 12;
const KEY_STRIDE: u64 = 32;
/// Bucket count of the churned map.
const MAP_BUCKETS: usize = 8;
/// Initial population of queue A (`queue-transfer`): the values
/// `[QT_BASE, QT_BASE + QT_POPULATION)`, in order.
const QT_POPULATION: u64 = 12;
const QT_BASE: u64 = 1000;
/// Separator between queue A's and queue B's elements in the flattened
/// transfer snapshot (no tape value collides with it).
const QT_SEP: u64 = u64::MAX;

/// A fully specified, reproducible workload.
#[derive(Clone, Copy, Debug)]
pub struct Scenario {
    pub kind: ScenarioKind,
    pub threads: usize,
    pub ops_per_thread: u64,
    pub seed: u64,
}

impl Scenario {
    pub fn new(kind: ScenarioKind, threads: usize, seed: u64) -> Self {
        Scenario {
            kind,
            threads,
            ops_per_thread: match kind {
                // Twice the ops, so allocation churn dwarfs the
                // steady-state size the reclamation oracle pins.
                ScenarioKind::ChurnSteadyState => 24,
                k if k.on_words() => 16,
                _ => 12,
            },
            seed,
        }
    }

    /// Registered words of a word-level scenario (0 for collections).
    pub fn vars(&self) -> usize {
        match self.kind {
            ScenarioKind::Disjoint => self.threads,
            ScenarioKind::Hotspot => 4,
            k if k.on_words() => 8,
            _ => 0,
        }
    }

    /// One-line reproduction recipe, printed on every failure.
    pub fn repro(&self) -> String {
        format!(
            "reproduce: HARNESS_SEED={:#018x} cargo test -p oftm-bench -- --nocapture  \
             (scenario={} threads={} ops={})",
            self.seed,
            self.kind.name(),
            self.threads,
            self.ops_per_thread
        )
    }
}

/// One transaction's intent, generated deterministically from the seed and
/// interpreted identically against every STM.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Op {
    /// Read the listed words in one declared read-only transaction.
    ReadOnly(Vec<TVarId>),
    /// `x += amount` (commutative: the final value of `x` is independent
    /// of interleaving).
    Increment(TVarId, Value),
    /// Move `amount` from `from` to `to` iff the balance suffices.
    Transfer {
        from: TVarId,
        to: TVarId,
        amount: Value,
    },
    SetInsert(u64),
    SetRemove(u64),
    /// Declared read-only.
    SetContains(u64),
    /// Enqueue `(thread << 32) | seq`; `seq` is the op's position in its
    /// thread's enqueue order.
    Enqueue,
    /// Dequeue, stamped with a global ticket inside the same transaction.
    Dequeue,
    MapPut(u64, u64),
    MapDel(u64),
    /// Declared read-only.
    MapGet(u64),
    /// Atomically move the front of queue A onto the back of queue B.
    TransferAB,
    /// Atomically move the front of queue B onto the back of queue A.
    TransferBA,
    /// Add to the calling thread's stripe.
    CounterAdd(Value),
}

impl Op {
    /// Ops that run through the declared read-only entry point.
    fn read_only(&self) -> bool {
        matches!(self, Op::ReadOnly(_) | Op::SetContains(_) | Op::MapGet(_))
    }
}

/// What one op observed (compared verbatim across sequential replays).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Obs {
    /// The op returns nothing (increments, counter adds).
    Done,
    /// Values a `ReadOnly` op saw, in tape order.
    Read(Vec<Value>),
    Bool(bool),
    /// Enqueued value.
    Enqueued(u64),
    /// Dequeue outcome with its global ticket.
    Ticketed(u64, Option<u64>),
    Maybe(Option<u64>),
}

fn mix(seed: u64, salt: u64) -> u64 {
    let mut s = SplitMix(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    s.next()
}

/// Generates the per-thread op tapes. Pure in `sc`: the concurrent run and
/// the sequential replay share these exact tapes.
pub fn generate_tapes(sc: &Scenario) -> Vec<Vec<Op>> {
    (0..sc.threads)
        .map(|t| {
            let mut rng = SplitMix(mix(sc.seed, t as u64 + 1));
            if sc.kind == ScenarioKind::ChurnSteadyState {
                // Paired insert/remove of the same value: the set size
                // random-walks around a steady state while every slot of
                // the tape churns an allocation.
                return (0..sc.ops_per_thread / 2)
                    .flat_map(|_| {
                        let v = t as u64 * CHURN_STRIDE + rng.next() % CHURN_RANGE;
                        [Op::SetInsert(v), Op::SetRemove(v)]
                    })
                    .collect();
            }
            (0..sc.ops_per_thread)
                .map(|_| generate_one(sc, t as u64, &mut rng))
                .collect()
        })
        .collect()
}

fn generate_one(sc: &Scenario, thread: u64, rng: &mut SplitMix) -> Op {
    let vars = sc.vars();
    let var = |i: usize| TVarId(i as u64);
    match sc.kind {
        ScenarioKind::ReadHeavy => {
            // 3 in 4 transactions are pure snapshot reads.
            if rng.next() % 4 != 0 {
                let k = 2 + rng.below(vars.min(4));
                Op::ReadOnly((0..k).map(|_| var(rng.below(vars))).collect())
            } else {
                Op::Increment(var(rng.below(vars)), 1 + rng.next() % 3)
            }
        }
        ScenarioKind::WriteHeavy => Op::Increment(var(rng.below(vars)), 1 + rng.next() % 5),
        ScenarioKind::Hotspot => {
            if rng.next() % 3 == 0 {
                Op::ReadOnly(vec![var(0), var(1 + rng.below(vars - 1))])
            } else {
                Op::Increment(var(0), 1)
            }
        }
        ScenarioKind::Disjoint => Op::Increment(var(thread as usize), 1),
        ScenarioKind::BankTransfer => {
            let from = rng.below(vars);
            let mut to = rng.below(vars);
            if to == from {
                to = (to + 1) % vars;
            }
            Op::Transfer {
                from: var(from),
                to: var(to),
                amount: 1 + rng.next() % 7,
            }
        }
        ScenarioKind::IntSetMix => {
            let v = rng.next() % SET_UNIVERSE;
            match rng.next() % 10 {
                0..=3 => Op::SetInsert(v),
                4..=6 => Op::SetRemove(v),
                _ => Op::SetContains(v),
            }
        }
        ScenarioKind::QueueProducerConsumer => {
            // Even threads lean producer, odd threads lean consumer; both
            // kinds do some of each so 1-thread cells still exercise both.
            let producer_bias = if thread % 2 == 0 { 7 } else { 3 };
            if rng.next() % 10 < producer_bias {
                Op::Enqueue
            } else {
                Op::Dequeue
            }
        }
        ScenarioKind::MapChurn => {
            let k = thread * KEY_STRIDE + rng.next() % KEYS_PER_THREAD;
            match rng.next() % 10 {
                0..=4 => Op::MapPut(k, rng.next() % 1000),
                5..=6 => Op::MapDel(k),
                _ => Op::MapGet(k),
            }
        }
        ScenarioKind::ChurnSteadyState => unreachable!("churn tapes are pair-generated"),
        ScenarioKind::QueueTransfer => {
            // A→B-leaning mix so elements actually migrate while B→A
            // keeps both directions (and the empty-source path) covered.
            if rng.next() % 10 < 6 {
                Op::TransferAB
            } else {
                Op::TransferBA
            }
        }
        ScenarioKind::CounterStripes => Op::CounterAdd(1 + rng.next() % 4),
    }
}

/// What a scenario runs against: the registered words, or one collection
/// with whatever shared state its ops need.
enum Instance {
    Words,
    Set(TxIntSet),
    /// The queue and the global dequeue-ticket t-variable.
    Queue(TxQueue, TVarId),
    Map(TxHashMap),
    /// Queues A and B of the transfer scenario.
    Transfer(TxQueue, TxQueue),
    Counter(TxCounter),
}

impl Instance {
    fn create(sc: &Scenario, stm: &dyn WordStm) -> Self {
        match sc.kind {
            ScenarioKind::IntSetMix | ScenarioKind::ChurnSteadyState => {
                Instance::Set(TxIntSet::create(stm))
            }
            ScenarioKind::QueueProducerConsumer => {
                Instance::Queue(TxQueue::create(stm), stm.alloc_tvar(0))
            }
            ScenarioKind::MapChurn => Instance::Map(TxHashMap::create(stm, MAP_BUCKETS)),
            ScenarioKind::QueueTransfer => {
                let a = TxQueue::create(stm);
                for v in QT_BASE..QT_BASE + QT_POPULATION {
                    a.enqueue(stm, POPULATE, v);
                }
                Instance::Transfer(a, TxQueue::create(stm))
            }
            ScenarioKind::CounterStripes => {
                Instance::Counter(TxCounter::create(stm, sc.threads.max(1)))
            }
            _ => {
                for i in 0..sc.vars() {
                    stm.register_tvar(TVarId(i as u64), sc.kind.initial());
                }
                Instance::Words
            }
        }
    }

    /// Interprets one op as a single budgeted transaction over a [`TxCtx`]
    /// body. `enq_seq` is the running enqueue counter of this thread.
    /// Returns the observation with the attempt count, or `None` when the
    /// retry budget ran out (livelock).
    ///
    /// `preempt` inserts a scheduler yield between a word op's first read
    /// and its writes. Semantically a no-op, but on few-core hosts it
    /// turns the read–write window into a real preemption point, so update
    /// transactions actually overlap and conflict — the deterministic
    /// contention source of the migration-forcing and forensics cells.
    fn run_op(
        &self,
        stm: &dyn WordStm,
        proc: u32,
        op: &Op,
        enq_seq: &mut u64,
        preempt: bool,
    ) -> Option<(Obs, u32)> {
        let tagged = (u64::from(proc) << 32) | *enq_seq;
        if *op == Op::Enqueue {
            *enq_seq += 1;
        }
        let yield_if_preempting = || {
            if preempt {
                std::thread::yield_now();
            }
        };
        let body = |ctx: &mut TxCtx<'_, '_>| -> TxResult<Obs> {
            Ok(match (self, op) {
                (Instance::Words, Op::ReadOnly(vars)) => {
                    Obs::Read(vars.iter().map(|&x| ctx.read(x)).collect::<TxResult<_>>()?)
                }
                (Instance::Words, Op::Increment(x, amount)) => {
                    let v = ctx.read(*x)?;
                    yield_if_preempting();
                    ctx.write(*x, v + amount)?;
                    Obs::Done
                }
                (Instance::Words, Op::Transfer { from, to, amount }) => {
                    let f = ctx.read(*from)?;
                    yield_if_preempting();
                    if f >= *amount {
                        let t = ctx.read(*to)?;
                        ctx.write(*from, f - amount)?;
                        ctx.write(*to, t + amount)?;
                    }
                    Obs::Bool(f >= *amount)
                }
                (Instance::Set(s), Op::SetInsert(v)) => Obs::Bool(s.insert_in(ctx, *v)?),
                (Instance::Set(s), Op::SetRemove(v)) => Obs::Bool(s.remove_in(ctx, *v)?),
                (Instance::Set(s), Op::SetContains(v)) => Obs::Bool(s.contains_in(ctx, *v)?),
                (Instance::Queue(q, _), Op::Enqueue) => {
                    q.enqueue_in(ctx, tagged)?;
                    Obs::Enqueued(tagged)
                }
                (Instance::Queue(q, ticket), Op::Dequeue) => {
                    let t = ctx.read(*ticket)?;
                    ctx.write(*ticket, t + 1)?;
                    Obs::Ticketed(t, q.dequeue_in(ctx)?)
                }
                (Instance::Map(m), Op::MapPut(k, v)) => Obs::Maybe(m.put_in(ctx, *k, *v)?),
                (Instance::Map(m), Op::MapDel(k)) => Obs::Maybe(m.remove_in(ctx, *k)?),
                (Instance::Map(m), Op::MapGet(k)) => Obs::Maybe(m.get_in(ctx, *k)?),
                (Instance::Transfer(a, b), Op::TransferAB | Op::TransferBA) => {
                    let (src, dst) = if *op == Op::TransferAB {
                        (a, b)
                    } else {
                        (b, a)
                    };
                    // The multi-structure transaction the scenario exists
                    // for: both queues change (or neither) atomically.
                    let v = src.dequeue_in(ctx)?;
                    if let Some(v) = v {
                        dst.enqueue_in(ctx, v)?;
                    }
                    Obs::Maybe(v)
                }
                (Instance::Counter(c), Op::CounterAdd(delta)) => {
                    c.add_in(ctx, proc, *delta)?;
                    Obs::Done
                }
                _ => unreachable!("{op:?} is not an op of this scenario"),
            })
        };
        if op.read_only() {
            atomically_ro_budgeted(stm, proc, ATTEMPT_BUDGET, body).ok()
        } else {
            atomically_budgeted(stm, proc, ATTEMPT_BUDGET, body).ok()
        }
    }

    /// Flattened final state, read in one committed transaction: word
    /// values / set values / queue values / map `k, v` pairs / queue A,
    /// [`QT_SEP`], queue B / the counter total.
    fn snapshot(&self, sc: &Scenario, stm: &dyn WordStm) -> Vec<u64> {
        atomically_ro(stm, PROBE, |ctx| match self {
            Instance::Words => (0..sc.vars() as u64).map(|i| ctx.read(TVarId(i))).collect(),
            Instance::Set(s) => s.snapshot_in(ctx),
            Instance::Queue(q, _) => q.snapshot_in(ctx),
            Instance::Map(m) => {
                let pairs = m.snapshot_in(ctx)?;
                Ok(pairs.into_iter().flat_map(|(k, v)| [k, v]).collect())
            }
            Instance::Transfer(a, b) => {
                let mut out = a.snapshot_in(ctx)?;
                out.push(QT_SEP);
                out.extend(b.snapshot_in(ctx)?);
                Ok(out)
            }
            Instance::Counter(c) => Ok(vec![c.value_in(ctx)?]),
        })
    }
}

/// The reclamation oracle's right-hand side: how many t-variables are
/// live once a run that ended in `snapshot` is quiescent — node churn and
/// aborted attempts leave no residue on any kind.
pub fn expected_live(sc: &Scenario, snapshot: &[u64]) -> usize {
    match sc.kind {
        // Head + [value, next] per node.
        ScenarioKind::IntSetMix | ScenarioKind::ChurnSteadyState => 1 + 2 * snapshot.len(),
        // [head, tail] + the ticket + 2 per node.
        ScenarioKind::QueueProducerConsumer => 3 + 2 * snapshot.len(),
        // Buckets + [key, value, next] per entry (two snapshot words each).
        ScenarioKind::MapChurn => MAP_BUCKETS + 3 * (snapshot.len() / 2),
        // Two [head, tail] pairs + 2 per element (minus the separator).
        ScenarioKind::QueueTransfer => 4 + 2 * snapshot.len().saturating_sub(1),
        ScenarioKind::CounterStripes => sc.threads.max(1),
        _ => sc.vars(),
    }
}

/// Telemetry conservation at quiescence. Every backend counts every begin
/// in `Begins` (`BeginsRo` is the declared-RO subset) and every attempt
/// ends as exactly one of three disjoint commit counters or one tagged
/// abort cause; `attempts` is what the driver counted for the tapes' ops,
/// which the backend's own count can only exceed (population, snapshot).
/// `Driver::attempt` adds one to `Attempts` per attempt, so a count below
/// the driver's attempts means some attempt bypassed the driver.
pub fn conservation_failures(stats: &StatsSnapshot, attempts: u64) -> Vec<String> {
    let begins = stats.get(Counter::Begins);
    let ended = stats.get(Counter::Commits)
        + stats.get(Counter::CommitsRo)
        + stats.get(Counter::CommitsPromoted)
        + stats.aborts();
    let mut failures = Vec::new();
    if begins != ended {
        failures.push(format!(
            "telemetry not conserved: {begins} begins, {ended} commits + tagged aborts"
        ));
    }
    if stats.get(Counter::BeginsRo) > begins {
        failures.push(format!(
            "{} declared-RO begins out of {begins} begins",
            stats.get(Counter::BeginsRo)
        ));
    }
    if begins < attempts {
        failures.push(format!(
            "{begins} begins counted for {attempts} driver attempts"
        ));
    }
    let counted = stats.get(Counter::Attempts);
    if counted < attempts {
        failures.push(format!(
            "{counted} Attempts counted for {attempts} driver attempts"
        ));
    }
    failures
}

/// Forensics consistency of one run, from two totals of the backend's
/// who-aborted-whom table: `attributed`, every variable-attributed abort
/// (overflow included), and `named`, those on rows with a known
/// aggressor. Attributions come from counted aborts, never invented;
/// named ones are a subset of them; an abort whose cause names a variable
/// must have left a row (`CasLost` alone does not — Algorithm 2's fate
/// race cannot name one and declines with `VarAttr::NoVar`); and the
/// global lock takes no contention aborts, so anything in `coarse`'s
/// table is misattribution.
pub fn forensics_failures(
    stm: &str,
    stats: &StatsSnapshot,
    attributed: u64,
    named: u64,
) -> Vec<String> {
    let mut failures = Vec::new();
    let conflicts: u64 = [
        AbortCause::ReadValidation,
        AbortCause::LockBusy,
        AbortCause::CmArbitrated,
    ]
    .iter()
    .map(|c| stats.get(c.counter()))
    .sum();
    if conflicts > 0 && attributed == 0 {
        failures.push(format!(
            "{conflicts} variable-attributed conflict aborts but an empty forensics table"
        ));
    }
    if attributed > stats.aborts() {
        failures.push(format!(
            "forensics table attributes {attributed} aborts, only {} were counted",
            stats.aborts()
        ));
    }
    if named > attributed {
        failures.push(format!(
            "{named} aborts name an aggressor, only {attributed} were attributed"
        ));
    }
    if stm == "coarse" && (attributed, named) != (0, 0) {
        failures.push(format!(
            "coarse attributed {attributed} aborts ({named} named) on a workload it serializes"
        ));
    }
    failures
}

/// One backend's throughput in one phase of the contention-phase-shift
/// storm (`tests/phase_shift_storm.rs`).
#[derive(Clone, Copy, Debug)]
pub struct PhaseCell {
    pub phase: &'static str,
    pub threads: usize,
    pub stm: &'static str,
    pub ops_per_sec: f64,
}

/// The phase-loss gate: in every `(phase, thread-count)` group the
/// hybrid's throughput must be at least `0.9 × min(tl2, dstm)` — it may
/// lose to one of the engines it is built from (TL2 wins calm phases,
/// DSTM wins storms), never meaningfully to both, which would make the
/// adaptive policy worse than either fixed choice. Returns one message
/// per violating group.
pub fn phase_loss_failures(cells: &[PhaseCell]) -> Vec<String> {
    const NOISE_FLOOR: f64 = 0.9;
    let lookup = |of: &PhaseCell, stm: &str| {
        cells
            .iter()
            .find(|c| (c.phase, c.threads, c.stm) == (of.phase, of.threads, stm))
            .map(|c| c.ops_per_sec)
    };
    let mut failures = Vec::new();
    for h in cells.iter().filter(|c| c.stm == "hybrid") {
        let at = format!("{} t={}", h.phase, h.threads);
        let (Some(tl2), Some(dstm)) = (lookup(h, "tl2"), lookup(h, "dstm")) else {
            failures.push(format!("{at}: hybrid cell has no tl2/dstm counterparts"));
            continue;
        };
        let floor = tl2.min(dstm) * NOISE_FLOOR;
        if h.ops_per_sec < floor {
            failures.push(format!(
                "{at}: hybrid {:.0} ops/s loses to BOTH pure engines \
                 (tl2 {tl2:.0}, dstm {dstm:.0}; floor {floor:.0})",
                h.ops_per_sec
            ));
        }
    }
    failures
}

/// A single oracle violation, with everything needed to reproduce it.
#[derive(Debug)]
pub struct HarnessFailure {
    pub stm: &'static str,
    pub scenario: Scenario,
    pub detail: String,
}

impl fmt::Display for HarnessFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{} / {} / {} threads] {}\n  {}",
            self.stm,
            self.scenario.kind.name(),
            self.scenario.threads,
            self.detail,
            self.scenario.repro()
        )
    }
}

/// Joins failure reports into one panic message.
pub fn report(failures: &[HarnessFailure]) -> String {
    let lines: Vec<String> = failures.iter().map(|f| f.to_string()).collect();
    lines.join("\n")
}

/// Outcome of one STM's concurrent run.
#[derive(Debug)]
pub struct Outcome {
    pub stm: &'static str,
    /// Flattened final state (see `Instance::snapshot`).
    pub snapshot: Vec<u64>,
    pub recorded_txs: usize,
    /// True when the history was small enough for the exact checkers.
    pub exact_checked: bool,
    /// Total transaction attempts across the tapes (commits + aborts);
    /// `attempts / committed_ops` is the retry overhead.
    pub attempts: u64,
    /// Committed ops (= tape length; every op commits exactly once).
    pub committed_ops: u64,
    /// Live t-variables at quiescence.
    pub live_tvars: usize,
    /// The STM's telemetry at quiescence.
    pub stats: StatsSnapshot,
    /// Variable-attributed aborts in the who-aborted-whom table
    /// (overflow included), and those of them with a named aggressor.
    pub attributed: u64,
    pub named: u64,
}

/// Runs `sc` concurrently on the named STM and applies every per-cell
/// oracle (module docs). `preempt`: see `Instance::run_op`.
pub fn run_concurrent(
    stm_name: &'static str,
    sc: &Scenario,
    tapes: &[Vec<Op>],
    preempt: bool,
) -> Result<Outcome, HarnessFailure> {
    let recorder = Arc::new(Recorder::new());
    let stm = make_stm(stm_name, Some(Arc::clone(&recorder)));
    run_cell(stm_name, &*stm, &recorder, sc, tapes, preempt, &|_, _| {})
}

/// [`run_concurrent`] on a built `stm` recording into `recorder`;
/// `after_op(thread, done)` runs on each thread after its `done`th op,
/// outside any transaction.
fn run_cell(
    stm_name: &'static str,
    stm: &dyn WordStm,
    recorder: &Recorder,
    sc: &Scenario,
    tapes: &[Vec<Op>],
    preempt: bool,
    after_op: &(dyn Fn(usize, usize) + Sync),
) -> Result<Outcome, HarnessFailure> {
    let fail = |detail: String| HarnessFailure {
        stm: stm_name,
        scenario: *sc,
        detail,
    };

    let inst = Instance::create(sc, stm);

    // Per thread: what its ops observed and its attempts, or `None` once
    // an op exhausted the budget.
    let per_thread: Vec<Option<(Vec<Obs>, u64)>> = std::thread::scope(|s| {
        let handles: Vec<_> = tapes
            .iter()
            .enumerate()
            .map(|(t, tape)| {
                let inst = &inst;
                s.spawn(move || {
                    let (mut seen, mut attempts, mut enq_seq) = (Vec::new(), 0u64, 0u64);
                    for (i, op) in tape.iter().enumerate() {
                        let (obs, tries) = inst.run_op(stm, t as u32, op, &mut enq_seq, preempt)?;
                        attempts += u64::from(tries);
                        seen.push(obs);
                        after_op(t, i + 1);
                    }
                    Some((seen, attempts))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let Some(per_thread) = per_thread.into_iter().collect::<Option<Vec<_>>>() else {
        return Err(fail(format!(
            "livelock: a transaction exhausted its {ATTEMPT_BUDGET}-attempt retry budget"
        )));
    };
    let (results, attempts): (Vec<Vec<Obs>>, Vec<u64>) = per_thread.into_iter().unzip();
    let attempts: u64 = attempts.iter().sum();

    // History first, so it holds exactly the population's and the tapes'
    // transactions. The snapshot transaction then commits with no peer in
    // flight, flushing every pending retirement: the instance is
    // quiescent when the counts below are taken.
    let history = recorder.snapshot();
    let snapshot = inst.snapshot(sc, stm);
    let live_tvars = stm.live_tvars();
    let stats = stm.stats().snapshot();
    let forensics = stm.forensics();
    let (attributed, named) = (forensics.total() + forensics.overflow(), forensics.named());

    if let Err(e) = well_formed(&history) {
        return Err(fail(format!("recorded history is not well-formed: {e:?}")));
    }
    if !conflict_serializable(&history) {
        return Err(fail("recorded history is not conflict-serializable".into()));
    }
    let recorded_txs = history.tx_views().len();
    let exact_checked =
        sc.kind.on_words() && sc.kind.initial() == 0 && recorded_txs <= EXACT_CHECK_CAP;
    if exact_checked {
        if let SerCheck::NotSerializable = serializable(&history, EXACT_CHECK_CAP) {
            return Err(fail("recorded history is not exactly serializable".into()));
        }
        if let OpacityCheck::NotOpaque = final_state_opaque(&history, EXACT_CHECK_CAP) {
            return Err(fail("recorded history is not final-state opaque".into()));
        }
    }

    check_invariants(sc, tapes, &results, &snapshot).map_err(&fail)?;

    let expected = expected_live(sc, &snapshot);
    if live_tvars != expected {
        return Err(fail(format!(
            "t-variable leak: {live_tvars} live at quiescence, the final structure predicts \
             {expected}"
        )));
    }
    let mut telemetry = conservation_failures(&stats, attempts);
    telemetry.extend(forensics_failures(stm_name, &stats, attributed, named));
    if !telemetry.is_empty() {
        return Err(fail(telemetry.join("; ")));
    }

    Ok(Outcome {
        stm: stm_name,
        snapshot,
        recorded_txs,
        exact_checked,
        attempts,
        committed_ops: tapes.iter().map(|t| t.len() as u64).sum(),
        live_tvars,
        stats,
        attributed,
        named,
    })
}

/// Scenario-specific algebraic invariants over a *concurrent* run: what
/// each thread's ops observed (`results`, tape-aligned) against the final
/// `snapshot`.
pub fn check_invariants(
    sc: &Scenario,
    tapes: &[Vec<Op>],
    results: &[Vec<Obs>],
    snapshot: &[u64],
) -> Result<(), String> {
    // Every (op, observation) pair of the run.
    let pairs = || {
        tapes
            .iter()
            .zip(results)
            .flat_map(|(tape, res)| tape.iter().zip(res))
    };
    match sc.kind {
        ScenarioKind::BankTransfer => {
            let (got, total) = (
                snapshot.iter().sum::<Value>(),
                sc.kind.initial() * sc.vars() as Value,
            );
            if got != total {
                return Err(format!(
                    "conserved sum violated: got {got}, expected {total} (state {snapshot:?})"
                ));
            }
            Ok(())
        }
        ScenarioKind::ReadHeavy
        | ScenarioKind::WriteHeavy
        | ScenarioKind::Hotspot
        | ScenarioKind::Disjoint => {
            // Commutative increments: every final value is determined.
            let mut expected = vec![sc.kind.initial(); sc.vars()];
            for op in tapes.iter().flatten() {
                if let Op::Increment(x, amount) = op {
                    expected[x.0 as usize] += amount;
                }
            }
            if snapshot != expected {
                return Err(format!(
                    "final state diverged from the commutative oracle:\n    got      \
                     {snapshot:?}\n    expected {expected:?}"
                ));
            }
            Ok(())
        }
        ScenarioKind::CounterStripes => {
            let expected = tapes.iter().flatten().fold(0u64, |sum, op| match op {
                Op::CounterAdd(delta) => sum + delta,
                _ => sum,
            });
            if snapshot != [expected] {
                return Err(format!(
                    "striped counter total {snapshot:?}, the tapes add up to {expected}"
                ));
            }
            Ok(())
        }
        ScenarioKind::IntSetMix | ScenarioKind::ChurnSteadyState => {
            if !snapshot.windows(2).all(|w| w[0] < w[1]) {
                return Err(format!(
                    "set snapshot not sorted / has duplicates: {snapshot:?}"
                ));
            }
            // Per-value conservation: net successful inserts = membership.
            // Candidate values are exactly those the tapes mention (values
            // never touched trivially balance at zero).
            let mut candidates: Vec<u64> = tapes
                .iter()
                .flatten()
                .filter_map(|op| match op {
                    Op::SetInsert(v) | Op::SetRemove(v) | Op::SetContains(v) => Some(*v),
                    _ => None,
                })
                .collect();
            candidates.sort_unstable();
            candidates.dedup();
            // No phantoms: every element of the final set must be a value
            // some tape actually mentioned.
            if let Some(ghost) = snapshot
                .iter()
                .find(|v| candidates.binary_search(v).is_err())
            {
                return Err(format!(
                    "snapshot contains value {ghost} no tape ever mentioned: {snapshot:?}"
                ));
            }
            for v in candidates {
                let balance: i64 = pairs()
                    .map(|pair| match pair {
                        (Op::SetInsert(x), Obs::Bool(true)) if *x == v => 1,
                        (Op::SetRemove(x), Obs::Bool(true)) if *x == v => -1,
                        _ => 0,
                    })
                    .sum();
                let member = i64::from(snapshot.binary_search(&v).is_ok());
                if balance != member {
                    return Err(format!(
                        "conservation violated for value {v}: net successful inserts {balance}, \
                         final membership {member}"
                    ));
                }
            }
            Ok(())
        }
        ScenarioKind::QueueProducerConsumer => {
            let mut enqueued: Vec<u64> = Vec::new();
            let mut dequeued: Vec<(u64, u64)> = Vec::new(); // (ticket, value)
            let mut tickets: Vec<u64> = Vec::new();
            for (_, obs) in pairs() {
                match obs {
                    Obs::Enqueued(v) => enqueued.push(*v),
                    Obs::Ticketed(t, v) => {
                        tickets.push(*t);
                        dequeued.extend(v.map(|v| (*t, v)));
                    }
                    _ => {}
                }
            }
            // Tickets are distinct (the ticket var is read-inc'd inside
            // each dequeue transaction).
            tickets.sort_unstable();
            if tickets.windows(2).any(|w| w[0] == w[1]) {
                return Err("duplicate dequeue tickets".into());
            }
            // Element conservation.
            let mut seen: Vec<u64> = dequeued.iter().map(|(_, v)| *v).collect();
            seen.extend_from_slice(snapshot);
            seen.sort_unstable();
            enqueued.sort_unstable();
            if seen != enqueued {
                return Err(format!(
                    "element conservation violated: dequeued ⊎ remaining = {seen:?}, \
                     enqueued = {enqueued:?}"
                ));
            }
            // FIFO per producer, in global ticket order.
            dequeued.sort_unstable();
            let mut last_seq: HashMap<u64, u64> = HashMap::new();
            for (_t, v) in &dequeued {
                let (producer, seq) = (v >> 32, v & 0xffff_ffff);
                if let Some(prev) = last_seq.insert(producer, seq) {
                    if prev >= seq {
                        return Err(format!(
                            "FIFO-per-producer violated: producer {producer} seq {seq} dequeued \
                             after seq {prev}"
                        ));
                    }
                }
            }
            Ok(())
        }
        ScenarioKind::QueueTransfer => {
            // Conservation ACROSS structures: the union of both queues
            // must be exactly the initial population — transfers move
            // elements, never create, duplicate, or drop them.
            let population = QT_BASE..QT_BASE + QT_POPULATION;
            let sep = snapshot
                .iter()
                .position(|&v| v == QT_SEP)
                .ok_or_else(|| format!("transfer snapshot lacks separator: {snapshot:?}"))?;
            let (a, b) = (&snapshot[..sep], &snapshot[sep + 1..]);
            let mut all: Vec<u64> = a.iter().chain(b).copied().collect();
            all.sort_unstable();
            if !all.iter().copied().eq(population.clone()) {
                return Err(format!(
                    "element conservation across queues violated:\n    A = {a:?}\n    B = {b:?}\n    \
                     expected multiset {population:?}"
                ));
            }
            // Every successful transfer observed a population value; a
            // `None` result is only legal for an empty source.
            for (_, obs) in pairs() {
                if let Obs::Maybe(Some(v)) = obs {
                    if !population.contains(v) {
                        return Err(format!(
                            "transfer moved phantom value {v} outside the population"
                        ));
                    }
                }
            }
            Ok(())
        }
        ScenarioKind::MapChurn => {
            // Key ranges are disjoint per thread: the final content is the
            // union of per-thread sequential models.
            let mut model: HashMap<u64, u64> = HashMap::new();
            for op in tapes.iter().flatten() {
                match op {
                    Op::MapPut(k, v) => {
                        model.insert(*k, *v);
                    }
                    Op::MapDel(k) => {
                        model.remove(k);
                    }
                    _ => {}
                }
            }
            let mut pairs: Vec<(u64, u64)> = model.into_iter().collect();
            pairs.sort_unstable();
            let want: Vec<u64> = pairs.into_iter().flat_map(|(k, v)| [k, v]).collect();
            if snapshot != want {
                return Err(format!(
                    "disjoint-range model violated:\n    got      {snapshot:?}\n    expected {want:?}"
                ));
            }
            Ok(())
        }
    }
}

/// Replays the tapes strictly sequentially (thread order, then op order)
/// on the named STM; returns every op's observation and the final
/// snapshot. Sequential execution is deterministic, so these must agree
/// across all implementations.
pub fn sequential_replay(
    stm_name: &'static str,
    sc: &Scenario,
    tapes: &[Vec<Op>],
) -> (Vec<Obs>, Vec<u64>) {
    let stm = make_stm(stm_name, None);
    let inst = Instance::create(sc, &*stm);
    let mut observed = Vec::new();
    for (t, tape) in tapes.iter().enumerate() {
        let mut enq_seq = 0u64;
        for op in tape {
            let (obs, _) = inst
                .run_op(&*stm, t as u32, op, &mut enq_seq, false)
                .expect("sequential execution cannot exhaust the retry budget");
            observed.push(obs);
        }
    }
    (observed, inst.snapshot(sc, &*stm))
}

/// Sequential agreement of `stm_name` with the `reference` replay (made on
/// `reference_name`): the failure, if they diverge.
fn disagreement(
    stm_name: &'static str,
    reference_name: &str,
    reference: &(Vec<Obs>, Vec<u64>),
    sc: &Scenario,
    tapes: &[Vec<Op>],
) -> Option<HarnessFailure> {
    let (observed, snapshot) = sequential_replay(stm_name, sc, tapes);
    let detail = if snapshot != reference.1 {
        format!(
            "sequential snapshot diverged from {reference_name}:\n    got      {snapshot:?}\n    \
             expected {:?}",
            reference.1
        )
    } else if observed != reference.0 {
        format!(
            "sequential op observations diverged from {reference_name} ({} ops)",
            observed.len()
        )
    } else {
        return None;
    };
    Some(HarnessFailure {
        stm: stm_name,
        scenario: *sc,
        detail,
    })
}

/// Report of a full differential pass over one scenario.
#[derive(Debug)]
pub struct DifferentialReport {
    pub outcomes: Vec<Outcome>,
    /// The agreed sequential final snapshot.
    pub sequential_snapshot: Vec<u64>,
}

/// One matrix cell: runs `sc` concurrently on **every registered** STM
/// under the per-cell oracles, then cross-checks every implementation's
/// sequential replay against the first one's.
pub fn run_differential(sc: &Scenario) -> Result<DifferentialReport, Vec<HarnessFailure>> {
    let tapes = generate_tapes(sc);
    // `HARNESS_TRACE=1`: progress on stderr.
    let trace = std::env::var_os("HARNESS_TRACE").is_some();
    if trace {
        let (kind, threads, seed) = (sc.kind.name(), sc.threads, sc.seed);
        eprintln!("[matrix] cell {kind} × {threads} threads, seed {seed:#018x}");
    }
    let mut failures = Vec::new();
    let mut outcomes = Vec::new();
    for &name in STM_NAMES {
        if trace {
            eprintln!("[matrix]   concurrent {name}");
        }
        match run_concurrent(name, sc, &tapes, false) {
            Ok(o) => outcomes.push(o),
            Err(f) => failures.push(f),
        }
    }

    let reference = sequential_replay(STM_NAMES[0], sc, &tapes);
    for &name in &STM_NAMES[1..] {
        failures.extend(disagreement(name, STM_NAMES[0], &reference, sc, &tapes));
    }

    if failures.is_empty() {
        Ok(DifferentialReport {
            outcomes,
            sequential_snapshot: reference.1,
        })
    } else {
        Err(failures)
    }
}

/// Ops of thread 0 between two migrations it forces in
/// [`run_migration_forcing`].
pub const FORCE_EVERY: usize = 32;

/// Migration-forcing cell: runs `sc` on the hybrid with the preemption
/// point on, under the full oracle set, while thread 0 forces a migration
/// ([`HybridStm::migrate`]) after every [`FORCE_EVERY`]th of its ops, so
/// barriers fall among the other threads' in-flight transactions. The
/// run must count exactly those migrations, which it does on a scenario
/// whose transactions never conflict and begin fewer times than the
/// hybrid's dwell ([`oftm_hybrid::DWELL`]): nothing aborts, so the policy
/// never escalates, and it never de-escalates inside the dwell.
pub fn run_migration_forcing(sc: &Scenario) -> Result<Outcome, HarnessFailure> {
    let tapes = generate_tapes(sc);
    let recorder = Arc::new(Recorder::new());
    let hybrid = HybridStm::with_recorder(Arc::clone(&recorder));
    let force = |t: usize, done: usize| {
        if t == 0 && done % FORCE_EVERY == 0 {
            hybrid.migrate(hybrid.mode().other());
        }
    };
    let outcome = run_cell("hybrid", &hybrid, &recorder, sc, &tapes, true, &force)?;
    let forced = (tapes[0].len() / FORCE_EVERY) as u64;
    let counted = outcome.stats.get(Counter::ModeMigrations);
    if counted != forced {
        return Err(HarnessFailure {
            stm: "hybrid",
            scenario: *sc,
            detail: format!("{counted} mode migrations, {forced} forced"),
        });
    }
    Ok(outcome)
}

/// Default base seed when `HARNESS_SEED` is not set: CI is reproducible
/// run-to-run.
const DEFAULT_BASE_SEED: u64 = 0x0F7A_57ED_5EED_0001;

/// The explicit replay seed: `HARNESS_SEED` (decimal or 0x-hex) if set.
pub fn replay_seed() -> Option<u64> {
    match std::env::var("HARNESS_SEED") {
        Ok(s) => {
            let s = s.trim();
            let parsed = if let Some(hex) = s.strip_prefix("0x") {
                u64::from_str_radix(hex, 16)
            } else {
                s.parse()
            };
            Some(parsed.unwrap_or_else(|_| panic!("unparseable HARNESS_SEED: {s:?}")))
        }
        Err(_) => None,
    }
}

/// The scenario seed for a test-suite cell: normally a distinct value
/// derived from the default base and the cell's `salt`, but when
/// `HARNESS_SEED` is set, the **verbatim** env value — so the seed printed
/// by a failure report reproduces that failing workload exactly (the
/// failing cell's scenario kind and thread count rerun with its seed).
pub fn derive_seed(salt: u64) -> u64 {
    match replay_seed() {
        Some(s) => s,
        None => mix(DEFAULT_BASE_SEED, salt),
    }
}

/// Runs the full scenario × thread-count matrix; returns the number of
/// cells, or the concatenated failure reports (each with its
/// `HARNESS_SEED`).
pub fn run_matrix(thread_counts: &[usize], seeds_per_cell: u64) -> Result<usize, String> {
    let mut cells = 0;
    let mut failures = Vec::new();
    for &kind in ALL_SCENARIOS {
        for &threads in thread_counts {
            for round in 0..seeds_per_cell {
                let seed = derive_seed((cells as u64) << 16 | round);
                cells += 1;
                if let Err(f) = run_differential(&Scenario::new(kind, threads, seed)) {
                    failures.extend(f);
                }
            }
        }
    }
    if failures.is_empty() {
        Ok(cells)
    } else {
        Err(report(&failures))
    }
}
