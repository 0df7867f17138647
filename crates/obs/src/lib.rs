//! # oftm-obs — always-cheap STM telemetry
//!
//! Every STM instance in the workspace owns one [`StmStats`]: a sharded
//! registry of relaxed-atomic counters (begins, commits, aborts **by
//! cause**, retries, parks, reclamation and clock tallies) and three
//! allocation-free log2-bucket latency histograms (attempt latency,
//! commit-critical-section length, park duration). The always-on cost of
//! a transaction is a handful of uncontended relaxed increments plus two
//! monotonic clock reads — cheap enough that the numbers are *never*
//! compiled out, so every test oracle and every postmortem has them.
//!
//! Why causes and not just counts: the paper's argument is about *where*
//! progress is lost — helping, aborts, version-chain walks. A single
//! `attempts_per_op` scalar says contention happened; the
//! [`AbortCause`] breakdown says whether it was read-validation (TL2's
//! documented failure mode), contention-manager arbitration (DSTM's), a
//! lost ownership CAS (Algorithm 2's), or a retry budget running dry.
//!
//! The [`ring`] module adds a `HARNESS_TRACE`-style env-gated structured
//! event ring: per-thread fixed-size rings of [`ring::TxEvent`] records,
//! drained to JSON for per-transaction timelines. When the gate is off
//! (the default), emitting an event is one relaxed boolean load.
//!
//! This crate is a dependency-free leaf so `oftm-core` can expose
//! [`StmStats`] from the `WordStm` trait itself.

pub mod conflict;
pub mod heatmap;
pub mod ring;
pub mod trace;

pub use conflict::{pack_tx, tx_proc, tx_seq, ConflictTable, Edge, TX_UNKNOWN};
pub use heatmap::{Heatmap, HotVar};

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Why a transaction attempt aborted. Exactly one cause is tagged per
/// aborted attempt (backends tag at the first operation that turns the
/// attempt dead; untagged abandonment is tagged `ExplicitRetry` when the
/// attempt settles).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AbortCause {
    /// A read (or commit-time read-set validation) observed a version
    /// outside the attempt's snapshot: TL/TL2 version-sandwich and
    /// commit validation, DSTM validation and stale upgrade probes,
    /// Algorithm 2 decided-chain validation.
    ReadValidation,
    /// A per-variable commit lock stayed busy past the lock patience
    /// (TL/TL2 read spins and commit-time lock acquisition).
    LockBusy,
    /// An ownership or commit CAS lost a race to a peer (DSTM descriptor
    /// commit CAS, Algorithm 2 ownership/state proposals).
    CasLost,
    /// A contention manager arbitrated the conflict against this
    /// transaction — a peer was told `AbortOther` and killed it (DSTM).
    CmArbitrated,
    /// The caller abandoned a still-viable attempt: an explicit `tryA`,
    /// or a body that returned `Err` without any backend operation
    /// failing (collection bodies do this to rerun a precondition).
    ExplicitRetry,
    /// The transaction driver gave up: `max_attempts` attempts all
    /// aborted. Counted once per exhausted budget, by the driver.
    BudgetExhausted,
}

/// All causes, in the order they appear in snapshots and JSON.
pub const ABORT_CAUSES: &[AbortCause] = &[
    AbortCause::ReadValidation,
    AbortCause::LockBusy,
    AbortCause::CasLost,
    AbortCause::CmArbitrated,
    AbortCause::ExplicitRetry,
    AbortCause::BudgetExhausted,
];

impl AbortCause {
    /// Stable snake_case name (JSON keys, event kinds).
    pub fn name(self) -> &'static str {
        match self {
            AbortCause::ReadValidation => "read_validation",
            AbortCause::LockBusy => "lock_busy",
            AbortCause::CasLost => "cas_lost",
            AbortCause::CmArbitrated => "cm_arbitrated",
            AbortCause::ExplicitRetry => "explicit_retry",
            AbortCause::BudgetExhausted => "budget_exhausted",
        }
    }

    /// This cause's position in [`ABORT_CAUSES`] (heatmap rows and edge
    /// slots index by it).
    pub fn index(self) -> usize {
        self as usize
    }

    /// The dedicated counter slot this cause increments.
    pub fn counter(self) -> Counter {
        match self {
            AbortCause::ReadValidation => Counter::AbortReadValidation,
            AbortCause::LockBusy => Counter::AbortLockBusy,
            AbortCause::CasLost => Counter::AbortCasLost,
            AbortCause::CmArbitrated => Counter::AbortCmArbitrated,
            AbortCause::ExplicitRetry => Counter::AbortExplicitRetry,
            AbortCause::BudgetExhausted => Counter::AbortBudgetExhausted,
        }
    }
}

/// Every scalar counter an [`StmStats`] tracks. The discriminant is the
/// index into each shard's counter array.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Every transaction begun, on either path.
    Begins,
    /// The subset of `Begins` that took the declared read-only path
    /// (`begin_ro`).
    BeginsRo,
    /// Writing commits.
    Commits,
    /// Commits of declared read-only transactions.
    CommitsRo,
    /// Detect-on-commit promotions: transactions begun on the general
    /// path that committed with an empty write-set and took the cheap
    /// read-only commit.
    CommitsPromoted,
    AbortReadValidation,
    AbortLockBusy,
    AbortCasLost,
    AbortCmArbitrated,
    AbortExplicitRetry,
    AbortBudgetExhausted,
    /// Re-runs after an aborted attempt (attempt 2 and later of a retry
    /// loop). `Begins - Retries` approximates distinct logical ops.
    Retries,
    /// Aborted async attempts that parked on the commit notifier.
    Parks,
    /// Parked attempts woken by a relevant commit.
    Wakes,
    /// Wakes whose footprint had not actually changed (watchdog timeouts
    /// and raced parks) — the parking subsystem's false-positive rate.
    StaleWakes,
    /// Grace-period flushes that released at least one retired block.
    GraceFlushes,
    /// T-variables allocated (static registrations + dynamic blocks).
    TvarsAllocated,
    /// T-variables freed (grace-period evictions + aborted-attempt
    /// allocation releases).
    TvarsFreed,
    /// Commit-clock shard bumps (TL/TL2 writing commits).
    ClockShardTicks,
    /// Process-wide default-mode switches of a hybrid backend (each
    /// direction counts once; a full escalate+de-escalate cycle is 2).
    ModeMigrations,
    /// Per-transaction escalation requests of a hybrid backend: a retry
    /// loop exhausted its escalation budget with a contention-dominated
    /// cause profile and asked for the arbitrated mode.
    Escalations,
}

/// Number of counters (length of each shard's array).
pub const COUNTER_KINDS: usize = Counter::Escalations as usize + 1;

/// `(name, counter)` for every scalar counter, in snapshot/JSON order.
pub const COUNTER_NAMES: &[(&str, Counter)] = &[
    ("begins", Counter::Begins),
    ("begins_ro", Counter::BeginsRo),
    ("commits", Counter::Commits),
    ("commits_ro", Counter::CommitsRo),
    ("commits_promoted", Counter::CommitsPromoted),
    ("abort_read_validation", Counter::AbortReadValidation),
    ("abort_lock_busy", Counter::AbortLockBusy),
    ("abort_cas_lost", Counter::AbortCasLost),
    ("abort_cm_arbitrated", Counter::AbortCmArbitrated),
    ("abort_explicit_retry", Counter::AbortExplicitRetry),
    ("abort_budget_exhausted", Counter::AbortBudgetExhausted),
    ("retries", Counter::Retries),
    ("parks", Counter::Parks),
    ("wakes", Counter::Wakes),
    ("stale_wakes", Counter::StaleWakes),
    ("grace_flushes", Counter::GraceFlushes),
    ("tvars_allocated", Counter::TvarsAllocated),
    ("tvars_freed", Counter::TvarsFreed),
    ("clock_shard_ticks", Counter::ClockShardTicks),
    ("mode_migrations", Counter::ModeMigrations),
    ("escalations", Counter::Escalations),
];

/// Execution-mode labels a backend may stamp on its stats (index into
/// this table is the value passed to [`StmStats::set_mode`]). `"none"`
/// is the default for single-engine backends; a hybrid stamps which
/// engine currently runs the default path.
pub const MODE_NAMES: &[&str] = &["none", "tl2", "dstm"];

/// The t-variable attribution every abort-tagging site must pass
/// ([`StmStats::abort_at`]): either the variable the conflict was over,
/// or the explicit [`VarAttr::NoVar`] marker for causes that genuinely
/// have no variable (budget exhaustion, explicit retries). The marker is
/// deliberately spelled at every site — `oftm-lint` rejects tag sites
/// without a `VarAttr`, so "forgot to attribute" cannot compile into
/// "silently unattributed".
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VarAttr {
    /// The conflict was over this t-variable (raw id word).
    Var(u64),
    /// No variable is attributable to this abort by construction.
    NoVar,
}

impl VarAttr {
    /// The attributed id, if any.
    pub fn id(self) -> Option<u64> {
        match self {
            VarAttr::Var(x) => Some(x),
            VarAttr::NoVar => None,
        }
    }

    /// Attribution from an optional id — for sites that relay a stamp a
    /// peer may or may not have left (e.g. the DSTM killer stamp).
    pub fn opt(v: Option<u64>) -> VarAttr {
        match v {
            Some(x) => VarAttr::Var(x),
            None => VarAttr::NoVar,
        }
    }
}

/// Default forensics sampling period: every attributed abort is recorded.
/// The abort path is never the hot path (a recorded abort already cost a
/// failed validation or a lost CAS plus backoff), and recording is two
/// relaxed increments — so exact tables are affordable, and the gates
/// (heatmap counts ≤ counted aborts, forced-conflict edge exactness) stay
/// deterministic. Raise `OFTM_FORENSICS_SAMPLE=N` to thin pathological
/// abort storms to 1-in-N per thread; the first event on each thread is
/// always recorded, so seeded single-conflict tests survive any rate.
pub const DEFAULT_FORENSICS_SAMPLE: u64 = 1;

thread_local! {
    /// Per-thread sampling tick: event `n` is recorded iff
    /// `n % period == 0`, starting at 0 — the first abort a thread takes
    /// is always recorded regardless of the period.
    static SAMPLE_TICK: Cell<u64> = const { Cell::new(0) };
}

/// The conflict-forensics bundle every [`StmStats`] carries: the
/// per-variable [`Heatmap`], the who-aborted-whom [`ConflictTable`], and
/// the sampling gate in front of both. Reached via
/// [`StmStats::forensics`] (and `WordStm::forensics()` in `oftm-core`).
pub struct Forensics {
    heatmap: Heatmap,
    edges: ConflictTable,
    /// 1-in-N per-thread sampling period (≥ 1).
    sample_period: AtomicU64,
}

impl Default for Forensics {
    fn default() -> Self {
        Self::new()
    }
}

impl Forensics {
    pub fn new() -> Forensics {
        let period = std::env::var("OFTM_FORENSICS_SAMPLE")
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or(DEFAULT_FORENSICS_SAMPLE);
        Forensics {
            heatmap: Heatmap::new(),
            edges: ConflictTable::new(),
            sample_period: AtomicU64::new(period),
        }
    }

    /// The per-variable abort-attribution heatmap.
    pub fn heatmap(&self) -> &Heatmap {
        &self.heatmap
    }

    /// The who-aborted-whom conflict-edge table.
    pub fn edges(&self) -> &ConflictTable {
        &self.edges
    }

    /// Current 1-in-N sampling period.
    pub fn sample_period(&self) -> u64 {
        self.sample_period.load(Ordering::Relaxed)
    }

    /// Overrides the sampling period (tests and tools).
    pub fn set_sample_period(&self, n: u64) {
        self.sample_period.store(n.max(1), Ordering::Relaxed);
    }

    /// The sampling gate: ticks this thread's counter and says whether
    /// this event is in the recorded 1-in-N.
    fn sampled(&self) -> bool {
        let period = self.sample_period();
        if period <= 1 {
            return true;
        }
        SAMPLE_TICK.with(|t| {
            let n = t.get();
            t.set(n.wrapping_add(1));
            n % period == 0
        })
    }

    /// Records one attributed abort: heatmap row for the variable (when
    /// one was named) and, when the aggressor is known, a conflict edge.
    /// Subject to the sampling gate; recorded counts are therefore always
    /// ≤ the exact cause counters.
    pub fn record(&self, cause: AbortCause, var: VarAttr, victim: u64, aggressor: u64) {
        if !self.sampled() {
            return;
        }
        if let Some(x) = var.id() {
            self.heatmap.record(x, cause);
            self.edges.record(aggressor, victim, cause, x);
        }
    }

    /// Zeroes both tables (benches call this when a measured cell
    /// starts, so per-cell tables are net of warmup).
    pub fn reset(&self) {
        self.heatmap.reset();
        self.edges.reset();
    }
}

/// Histogram bucket count: bucket 0 holds the value 0, bucket `b ≥ 1`
/// holds values in `[2^(b-1), 2^b)`. 64 log2 buckets cover all of `u64`.
pub const HIST_BUCKETS: usize = 65;

/// The log2 bucket a value falls in.
pub fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Smallest value of bucket `b`.
pub fn bucket_floor(b: usize) -> u64 {
    debug_assert!(b < HIST_BUCKETS);
    if b == 0 {
        0
    } else {
        1u64 << (b - 1)
    }
}

/// Largest value of bucket `b`.
pub fn bucket_ceiling(b: usize) -> u64 {
    debug_assert!(b < HIST_BUCKETS);
    if b == 0 {
        0
    } else if b == 64 {
        u64::MAX
    } else {
        (1u64 << b) - 1
    }
}

/// One allocation-free log2 histogram: 65 relaxed-atomic buckets.
struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl Histogram {
    fn new() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|b| self.buckets[b].load(Ordering::Relaxed)),
        }
    }
}

/// A point-in-time copy of a histogram's buckets. Merging a snapshot per
/// shard yields exactly the global snapshot (bucket-wise sums — the
/// property the proptest in this crate pins down).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub buckets: [u64; HIST_BUCKETS],
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: [0; HIST_BUCKETS],
        }
    }
}

impl HistogramSnapshot {
    /// Total recorded samples.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Bucket-wise accumulate.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
    }

    /// Bucket-wise difference against an earlier snapshot of the same
    /// histogram (buckets are monotonic, so saturation means misuse).
    pub fn since(&self, base: &HistogramSnapshot) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|b| self.buckets[b].saturating_sub(base.buckets[b])),
        }
    }

    /// The bucket containing the `p`-th percentile sample (nearest-rank:
    /// the bucket of the `ceil(p/100 · count)`-th smallest sample).
    /// `None` when empty.
    pub fn percentile_bucket(&self, p: f64) -> Option<usize> {
        let n = self.count();
        if n == 0 {
            return None;
        }
        let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as u64;
        let rank = rank.min(n);
        let mut seen = 0u64;
        for (b, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(b);
            }
        }
        unreachable!("cumulative count reached total before last bucket")
    }

    /// Upper bound of the `p`-th percentile: the nearest-rank sample is
    /// ≤ this and ≥ half of it (log2 bucket resolution). 0 when empty.
    pub fn percentile(&self, p: f64) -> u64 {
        self.percentile_bucket(p).map_or(0, bucket_ceiling)
    }

    /// `{"count": N, "p50": …, "p90": …, "p99": …}` (upper bounds, ns).
    pub fn json(&self) -> String {
        format!(
            "{{\"count\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}}}",
            self.count(),
            self.percentile(50.0),
            self.percentile(90.0),
            self.percentile(99.0)
        )
    }
}

/// Shard count; a power of two. Threads map to shards round-robin on
/// first use, so up to this many threads increment without sharing a
/// cache line.
pub const STAT_SHARDS: usize = 16;

/// One stats shard, line-aligned so concurrent incrementers on distinct
/// shards never bounce a line between them.
#[repr(align(128))]
struct StatShard {
    counters: [AtomicU64; COUNTER_KINDS],
    attempt_ns: Histogram,
    commit_cs_ns: Histogram,
    park_ns: Histogram,
}

impl StatShard {
    fn new() -> Self {
        StatShard {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            attempt_ns: Histogram::new(),
            commit_cs_ns: Histogram::new(),
            park_ns: Histogram::new(),
        }
    }
}

static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's shard index, assigned round-robin on first use.
    static MY_SHARD: usize = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) & (STAT_SHARDS - 1);
}

fn my_shard() -> usize {
    MY_SHARD.with(|s| *s)
}

/// The per-STM-instance telemetry registry (see module docs). All writes
/// are relaxed increments into the calling thread's shard; reads merge
/// every shard into a [`StatsSnapshot`].
pub struct StmStats {
    shards: Box<[StatShard]>,
    /// Index into [`MODE_NAMES`]: which engine currently runs the default
    /// path (hybrid backends only; 0 = "none" everywhere else).
    mode: AtomicUsize,
    /// The conflict-forensics bundle (heatmap + edges). Lives inside the
    /// stats so a hybrid's engines, which share one `Arc<StmStats>`,
    /// automatically share one forensics view too.
    forensics: Forensics,
}

impl Default for StmStats {
    fn default() -> Self {
        Self::new()
    }
}

impl StmStats {
    pub fn new() -> Self {
        StmStats {
            shards: (0..STAT_SHARDS).map(|_| StatShard::new()).collect(),
            mode: AtomicUsize::new(0),
            forensics: Forensics::new(),
        }
    }

    /// The conflict-forensics bundle: per-variable heatmap and
    /// who-aborted-whom edges, fed by [`StmStats::abort_at`].
    pub fn forensics(&self) -> &Forensics {
        &self.forensics
    }

    /// Stamps the current execution mode (index into [`MODE_NAMES`]).
    /// Advisory metadata: snapshots copy it, nothing synchronizes on it.
    #[inline]
    pub fn set_mode(&self, m: usize) {
        debug_assert!(m < MODE_NAMES.len());
        self.mode.store(m, Ordering::Relaxed);
    }

    /// The last stamped mode (index into [`MODE_NAMES`]).
    pub fn mode(&self) -> usize {
        self.mode.load(Ordering::Relaxed)
    }

    /// Adds 1 to `c` in the calling thread's shard.
    #[inline]
    pub fn incr(&self, c: Counter) {
        self.add(c, 1);
    }

    /// Adds `n` to `c` in the calling thread's shard.
    #[inline]
    pub fn add(&self, c: Counter, n: u64) {
        if n > 0 {
            self.shards[my_shard()].counters[c as usize].fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Counts a grace flush that evicted `tvars` t-variables (none: no
    /// flush worth counting).
    pub fn grace_flush(&self, tvars: u64) {
        if tvars > 0 {
            self.incr(Counter::GraceFlushes);
            self.add(Counter::TvarsFreed, tvars);
        }
    }

    /// Tags one aborted attempt with its cause.
    ///
    /// Prefer [`StmStats::abort_at`] at backend tag sites — it carries
    /// the var/peer attribution the forensics layer (and `oftm-lint`)
    /// demand. This bare form remains for pass-through helpers.
    #[inline]
    pub fn abort(&self, cause: AbortCause) {
        self.incr(cause.counter());
    }

    /// Tags one aborted attempt with its cause *and* its forensic
    /// attribution: the t-variable the conflict was over (`var`, or the
    /// explicit [`VarAttr::NoVar`] marker), the aborting transaction
    /// (`victim`, packed via [`pack_tx`]), and — where the backend knows
    /// it — the conflicting peer (`aggressor`; [`TX_UNKNOWN`] otherwise).
    /// Feeds the cause counter exactly like [`StmStats::abort`], plus the
    /// heatmap/edge tables (sampled) and, when tracing is on, an `abort`
    /// instant on the event ring carrying cause + var.
    #[inline]
    pub fn abort_at(&self, cause: AbortCause, var: VarAttr, victim: u64, aggressor: u64) {
        self.incr(cause.counter());
        self.forensics.record(cause, var, victim, aggressor);
        if ring::enabled() {
            ring::emit(
                "abort",
                cause.name(),
                var.id().unwrap_or(trace::NO_VAR),
                victim,
            );
        }
    }

    /// Records one attempt's wall-clock latency (begin → commit/abort).
    #[inline]
    pub fn record_attempt_ns(&self, ns: u64) {
        self.shards[my_shard()].attempt_ns.record(ns);
    }

    /// Records one commit critical section (first lock/CAS → effects
    /// visible; on the coarse backend, the whole gate hold).
    #[inline]
    pub fn record_commit_cs_ns(&self, ns: u64) {
        self.shards[my_shard()].commit_cs_ns.record(ns);
    }

    /// Records one async park (park → wake).
    #[inline]
    pub fn record_park_ns(&self, ns: u64) {
        self.shards[my_shard()].park_ns.record(ns);
    }

    /// Merged point-in-time copy of every shard.
    pub fn snapshot(&self) -> StatsSnapshot {
        let mut out = StatsSnapshot::default();
        for s in self.shard_snapshots() {
            out.merge(&s);
        }
        out.mode = self.mode();
        out
    }

    /// One snapshot per shard, unmerged (tests pin down that merging
    /// these equals [`StmStats::snapshot`]).
    pub fn shard_snapshots(&self) -> Vec<StatsSnapshot> {
        self.shards
            .iter()
            .map(|s| StatsSnapshot {
                counters: std::array::from_fn(|c| s.counters[c].load(Ordering::Relaxed)),
                attempt_ns: s.attempt_ns.snapshot(),
                commit_cs_ns: s.commit_cs_ns.snapshot(),
                park_ns: s.park_ns.snapshot(),
                mode: 0,
            })
            .collect()
    }
}

/// A merged point-in-time copy of an [`StmStats`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    counters: [u64; COUNTER_KINDS],
    pub attempt_ns: HistogramSnapshot,
    pub commit_cs_ns: HistogramSnapshot,
    pub park_ns: HistogramSnapshot,
    /// Mode stamp at snapshot time (index into [`MODE_NAMES`]).
    pub mode: usize,
}

impl StatsSnapshot {
    pub fn get(&self, c: Counter) -> u64 {
        self.counters[c as usize]
    }

    /// Total aborted attempts — by construction the sum of the six cause
    /// counters, so "causes sum to aborts" holds identically.
    pub fn aborts(&self) -> u64 {
        ABORT_CAUSES.iter().map(|&c| self.get(c.counter())).sum()
    }

    /// Writing commits plus declared read-only commits. `CommitsPromoted`
    /// (an update-declared transaction that wrote nothing) is a third
    /// counter, disjoint from both and not included here: every begun
    /// attempt ends as exactly one of the three or as one tagged abort,
    /// `Begins == Commits + CommitsRo + CommitsPromoted + aborts()`.
    pub fn all_commits(&self) -> u64 {
        self.get(Counter::Commits) + self.get(Counter::CommitsRo)
    }

    /// Accumulates `other` into `self` (counter-wise, bucket-wise).
    pub fn merge(&mut self, other: &StatsSnapshot) {
        for (a, b) in self.counters.iter_mut().zip(other.counters.iter()) {
            *a += b;
        }
        self.attempt_ns.merge(&other.attempt_ns);
        self.commit_cs_ns.merge(&other.commit_cs_ns);
        self.park_ns.merge(&other.park_ns);
    }

    /// Difference against an earlier snapshot of the same stats — the
    /// bench harnesses use this to report a timed phase net of warmup.
    pub fn since(&self, base: &StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            counters: std::array::from_fn(|c| self.counters[c].saturating_sub(base.counters[c])),
            attempt_ns: self.attempt_ns.since(&base.attempt_ns),
            commit_cs_ns: self.commit_cs_ns.since(&base.commit_cs_ns),
            park_ns: self.park_ns.since(&base.park_ns),
            mode: self.mode,
        }
    }

    /// Total attempts started on any path: `Begins` counts every begin,
    /// the declared read-only ones (`BeginsRo`) included.
    pub fn all_begins(&self) -> u64 {
        self.get(Counter::Begins)
    }

    /// Aborted attempts as a fraction of started attempts (0 when no
    /// attempts started). On a `since()` delta this is the window's
    /// abort ratio — the mode controller's primary escalation signal.
    pub fn abort_ratio(&self) -> f64 {
        let begins = self.all_begins();
        if begins == 0 {
            0.0
        } else {
            self.aborts() as f64 / begins as f64
        }
    }

    /// `cause`'s fraction of all aborts (0 when nothing aborted). On a
    /// `since()` delta this tells a controller *why* the window aborted.
    pub fn cause_share(&self, cause: AbortCause) -> f64 {
        let aborts = self.aborts();
        if aborts == 0 {
            0.0
        } else {
            self.get(cause.counter()) as f64 / aborts as f64
        }
    }

    /// Per-second rates of this snapshot over `elapsed_secs` — meant for
    /// a `since()` delta, so controllers and adapters don't each
    /// reimplement the same division (non-positive elapsed yields zero
    /// rates rather than infinities).
    pub fn rates(&self, elapsed_secs: f64) -> WindowRates {
        let per_sec = |n: u64| {
            if elapsed_secs > 0.0 {
                n as f64 / elapsed_secs
            } else {
                0.0
            }
        };
        WindowRates {
            elapsed_secs,
            begins_per_sec: per_sec(self.all_begins()),
            commits_per_sec: per_sec(self.all_commits()),
            aborts_per_sec: per_sec(self.aborts()),
            cause_per_sec: std::array::from_fn(|i| per_sec(self.get(ABORT_CAUSES[i].counter()))),
        }
    }

    /// The snapshot as one JSON object: scalar counters, derived `aborts` (= sum of the cause breakdown
    /// in `abort_causes`), and the three latency histograms.
    pub fn json(&self) -> String {
        let mut s = String::from("{");
        s.push_str(&format!("\"mode\": \"{}\", ", MODE_NAMES[self.mode]));
        for (name, c) in COUNTER_NAMES {
            if c.is_cause() {
                continue; // causes go in their own nested object
            }
            s.push_str(&format!("\"{name}\": {}, ", self.get(*c)));
        }
        s.push_str(&format!(
            "\"aborts\": {}, \"abort_causes\": {{",
            self.aborts()
        ));
        for (i, &cause) in ABORT_CAUSES.iter().enumerate() {
            s.push_str(&format!(
                "\"{}\": {}{}",
                cause.name(),
                self.get(cause.counter()),
                if i + 1 == ABORT_CAUSES.len() {
                    ""
                } else {
                    ", "
                }
            ));
        }
        s.push_str(&format!(
            "}}, \"attempt_ns\": {}, \"commit_cs_ns\": {}, \"park_ns\": {}}}",
            self.attempt_ns.json(),
            self.commit_cs_ns.json(),
            self.park_ns.json()
        ));
        s
    }

    /// The cause with the highest count (ties broken by taxonomy order),
    /// or `None` when nothing aborted. Benches use this to label a
    /// cell's dominant failure mode.
    pub fn dominant_cause(&self) -> Option<AbortCause> {
        ABORT_CAUSES
            .iter()
            .copied()
            .max_by_key(|c| self.get(c.counter()))
            .filter(|c| self.get(c.counter()) > 0)
    }
}

/// Per-second rates of one telemetry window (a `since()` delta divided
/// by its wall-clock length) — see [`StatsSnapshot::rates`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WindowRates {
    pub elapsed_secs: f64,
    pub begins_per_sec: f64,
    pub commits_per_sec: f64,
    pub aborts_per_sec: f64,
    /// Per-cause abort rates, indexed like [`ABORT_CAUSES`].
    pub cause_per_sec: [f64; 6],
}

impl WindowRates {
    /// `cause`'s aborts per second in this window.
    pub fn cause_rate(&self, cause: AbortCause) -> f64 {
        let i = ABORT_CAUSES
            .iter()
            .position(|&c| c == cause)
            .expect("every cause is in ABORT_CAUSES");
        self.cause_per_sec[i]
    }
}

impl Counter {
    /// True for the six abort-cause counters.
    pub fn is_cause(self) -> bool {
        matches!(
            self,
            Counter::AbortReadValidation
                | Counter::AbortLockBusy
                | Counter::AbortCasLost
                | Counter::AbortCmArbitrated
                | Counter::AbortExplicitRetry
                | Counter::AbortBudgetExhausted
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_log2() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        for b in 0..HIST_BUCKETS {
            assert_eq!(bucket_of(bucket_floor(b)), b, "floor of bucket {b}");
            assert_eq!(bucket_of(bucket_ceiling(b)), b, "ceiling of bucket {b}");
            if b > 0 {
                assert_eq!(bucket_floor(b), bucket_ceiling(b - 1) + 1);
            }
        }
    }

    #[test]
    fn counter_names_cover_every_counter_exactly_once() {
        assert_eq!(COUNTER_NAMES.len(), COUNTER_KINDS);
        for (i, (_, c)) in COUNTER_NAMES.iter().enumerate() {
            assert_eq!(*c as usize, i, "COUNTER_NAMES out of discriminant order");
        }
    }

    #[test]
    fn aborts_is_sum_of_causes() {
        let stats = StmStats::new();
        stats.abort(AbortCause::ReadValidation);
        stats.abort(AbortCause::ReadValidation);
        stats.abort(AbortCause::CmArbitrated);
        let snap = stats.snapshot();
        assert_eq!(snap.aborts(), 3);
        assert_eq!(snap.get(Counter::AbortReadValidation), 2);
        assert_eq!(snap.dominant_cause(), Some(AbortCause::ReadValidation));
    }

    #[test]
    fn json_shape() {
        let stats = StmStats::new();
        stats.incr(Counter::Begins);
        stats.incr(Counter::Commits);
        stats.abort(AbortCause::LockBusy);
        stats.record_attempt_ns(1500);
        let j = stats.snapshot().json();
        assert!(j.starts_with('{') && j.ends_with('}'), "{j}");
        assert!(j.contains("\"begins\": 1"), "{j}");
        assert!(j.contains("\"aborts\": 1"), "{j}");
        assert!(
            j.contains("\"abort_causes\": {\"read_validation\": 0, \"lock_busy\": 1"),
            "{j}"
        );
        assert!(j.contains("\"attempt_ns\": {\"count\": 1"), "{j}");
        // Balanced braces (the benches splice this into hand-rolled JSON).
        assert_eq!(j.matches('{').count(), j.matches('}').count(), "{j}");
    }

    #[test]
    fn since_subtracts_warmup() {
        let stats = StmStats::new();
        stats.incr(Counter::Begins);
        stats.abort(AbortCause::CasLost);
        stats.record_attempt_ns(100);
        let warm = stats.snapshot();
        stats.incr(Counter::Begins);
        stats.record_attempt_ns(100);
        let net = stats.snapshot().since(&warm);
        assert_eq!(net.get(Counter::Begins), 1);
        assert_eq!(net.aborts(), 0);
        assert_eq!(net.attempt_ns.count(), 1);
    }

    #[test]
    fn window_rates_divide_the_delta() {
        let stats = StmStats::new();
        stats.incr(Counter::Begins);
        stats.abort(AbortCause::LockBusy);
        let warm = stats.snapshot();
        for _ in 0..10 {
            stats.incr(Counter::Begins);
        }
        for _ in 0..4 {
            stats.incr(Counter::Commits);
        }
        for _ in 0..6 {
            stats.abort(AbortCause::LockBusy);
        }
        stats.abort(AbortCause::ReadValidation);
        stats.incr(Counter::BeginsRo); // one of the ten, not an eleventh
        let delta = stats.snapshot().since(&warm);
        let r = delta.rates(2.0);
        assert_eq!(r.begins_per_sec, 5.0);
        assert_eq!(r.commits_per_sec, 2.0);
        assert_eq!(r.aborts_per_sec, 3.5);
        assert_eq!(r.cause_rate(AbortCause::LockBusy), 3.0);
        assert_eq!(r.cause_rate(AbortCause::ReadValidation), 0.5);
        assert_eq!(r.cause_rate(AbortCause::CasLost), 0.0);
    }

    #[test]
    fn window_ratios_and_shares() {
        let stats = StmStats::new();
        for _ in 0..8 {
            stats.incr(Counter::Begins);
        }
        for _ in 0..3 {
            stats.abort(AbortCause::LockBusy);
        }
        stats.abort(AbortCause::CmArbitrated);
        let snap = stats.snapshot();
        assert_eq!(snap.abort_ratio(), 0.5);
        assert_eq!(snap.cause_share(AbortCause::LockBusy), 0.75);
        assert_eq!(snap.cause_share(AbortCause::CmArbitrated), 0.25);
        assert_eq!(snap.cause_share(AbortCause::CasLost), 0.0);
        // Empty snapshots yield zeros, never NaN/inf.
        let empty = StatsSnapshot::default();
        assert_eq!(empty.abort_ratio(), 0.0);
        assert_eq!(empty.cause_share(AbortCause::LockBusy), 0.0);
        assert_eq!(empty.rates(0.0).begins_per_sec, 0.0);
    }

    #[test]
    fn mode_stamp_flows_into_snapshots_and_json() {
        let stats = StmStats::new();
        assert_eq!(stats.snapshot().mode, 0);
        assert!(stats.snapshot().json().contains("\"mode\": \"none\""));
        stats.set_mode(2);
        let warm = stats.snapshot();
        assert_eq!(warm.mode, 2);
        let delta = stats.snapshot().since(&warm);
        assert_eq!(delta.mode, 2);
        assert!(delta.json().contains("\"mode\": \"dstm\""));
    }

    #[test]
    fn abort_at_feeds_cause_counter_heatmap_and_edges() {
        let stats = StmStats::new();
        stats.forensics().set_sample_period(1);
        stats.abort_at(
            AbortCause::CmArbitrated,
            VarAttr::Var(7),
            pack_tx(2, 5),
            pack_tx(1, 3),
        );
        stats.abort_at(
            AbortCause::BudgetExhausted,
            VarAttr::NoVar,
            pack_tx(2, 6),
            TX_UNKNOWN,
        );
        let snap = stats.snapshot();
        assert_eq!(snap.aborts(), 2);
        let hot = stats.forensics().heatmap().top_k(4);
        assert_eq!(hot.len(), 1, "NoVar must not land in the heatmap");
        assert_eq!(hot[0].var, 7);
        let edges = stats.forensics().edges().top_k(4);
        assert_eq!(edges.len(), 1);
        assert_eq!(edges[0].aggressor_proc, 1);
        assert_eq!(edges[0].victim_proc, 2);
        assert_eq!(edges[0].last_aggressor, pack_tx(1, 3));
        assert_eq!(edges[0].cause, AbortCause::CmArbitrated);
    }

    /// The forensics tables are sampled; the cause counters are exact.
    /// Whatever the period, attributed counts can only undershoot.
    #[test]
    fn sampled_attributions_never_exceed_exact_aborts() {
        let stats = StmStats::new();
        stats.forensics().set_sample_period(4);
        for i in 0..100u64 {
            stats.abort_at(
                AbortCause::ReadValidation,
                VarAttr::Var(i % 3),
                pack_tx(0, i as u32),
                TX_UNKNOWN,
            );
        }
        let snap = stats.snapshot();
        assert_eq!(snap.aborts(), 100);
        let attributed = stats.forensics().heatmap().total();
        assert!(attributed >= 1, "first event per thread always records");
        assert!(
            attributed <= 100,
            "sampled attributions exceed exact aborts: {attributed}"
        );
        stats.forensics().set_sample_period(1);
    }

    /// A declared read-only begin increments `Begins` *and* `BeginsRo`
    /// (every backend does), so the abort ratio divides by `Begins` alone:
    /// counting the subset again understated it by up to 2× on a
    /// read-mostly window.
    #[test]
    fn declared_ro_begins_are_not_counted_twice() {
        let stats = StmStats::new();
        for _ in 0..10 {
            stats.incr(Counter::Begins);
        }
        for _ in 0..9 {
            stats.incr(Counter::BeginsRo);
        }
        for _ in 0..5 {
            stats.abort(AbortCause::ReadValidation);
        }
        let snap = stats.snapshot();
        assert_eq!(snap.all_begins(), 10);
        assert_eq!(snap.abort_ratio(), 0.5);
    }

    #[test]
    fn concurrent_increments_all_land() {
        let stats = std::sync::Arc::new(StmStats::new());
        std::thread::scope(|s| {
            for _ in 0..8 {
                let stats = std::sync::Arc::clone(&stats);
                s.spawn(move || {
                    for _ in 0..1000 {
                        stats.incr(Counter::Begins);
                        stats.record_attempt_ns(42);
                    }
                });
            }
        });
        let snap = stats.snapshot();
        assert_eq!(snap.get(Counter::Begins), 8000);
        assert_eq!(snap.attempt_ns.count(), 8000);
    }
}
