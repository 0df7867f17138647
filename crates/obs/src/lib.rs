//! # oftm-obs — always-cheap STM telemetry
//!
//! Every STM instance in the workspace owns one [`StmStats`]: a sharded
//! registry of relaxed-atomic counters (begins, commits, aborts **by
//! cause**, attempts, parks, reclamation tallies) and two allocation-free
//! log2-bucket latency histograms (park duration, and an attempt-latency
//! one no transaction path writes). The always-on cost of a transaction
//! is a handful of uncontended relaxed increments and no clock read —
//! cheap enough that the numbers are *never* compiled out, so every test
//! oracle and every postmortem has them.
//!
//! Why causes and not just counts: the paper's argument is about *where*
//! progress is lost — helping, aborts, version-chain walks. A single
//! `attempts_per_op` scalar says contention happened; the
//! [`AbortCause`] breakdown says whether it was read-validation (TL2's
//! documented failure mode), contention-manager arbitration (DSTM's), a
//! lost ownership CAS (Algorithm 2's), or a retry budget running dry.
//!
//! Forensics says *where* and *who*: each variable-attributed abort counts
//! once in one who-aborted-whom table ([`Forensics`]), keyed by aggressor,
//! victim, cause and t-variable; the per-variable ranking is a view of it.
//!
//! Every signal here has a reader: a test oracle, the benchmark's report
//! or ledger, or the hybrid's mode controller. Timelines are not kept
//! here; the benchmark's `--trace` run writes its own Chrome trace.
//!
//! This crate is a dependency-free leaf so `oftm-core` can expose
//! [`StmStats`] from the `WordStm` trait itself.

pub mod conflict;

pub use conflict::{pack_tx, tx_proc, tx_seq, Edge, Forensics, VarTotal, TX_UNKNOWN};

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
    /// Algorithm 2's `V[x]` change check and `Aborted[Tk]` re-check.
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

/// All causes, in taxonomy order.
pub const ABORT_CAUSES: &[AbortCause] = &[
    AbortCause::ReadValidation,
    AbortCause::LockBusy,
    AbortCause::CasLost,
    AbortCause::CmArbitrated,
    AbortCause::ExplicitRetry,
    AbortCause::BudgetExhausted,
];

impl AbortCause {
    /// Stable snake_case name.
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

    /// This cause's position in [`ABORT_CAUSES`] (forensic rows and the
    /// per-variable breakdown index by it).
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
    /// Attempts run by the retry loop: `Driver::attempt` adds one per
    /// attempt, so an op's attempts past its first are its retries. Counted, not timed: a count is one relaxed add, a
    /// timing two clock reads.
    Attempts,
    /// Aborted async attempts that parked on the commit notifier.
    Parks,
    /// Parked attempts woken by a relevant commit.
    Wakes,
    /// Wakes whose footprint had not actually changed (watchdog timeouts
    /// and raced parks) — the parking subsystem's false-positive rate.
    StaleWakes,
    /// T-variables allocated (static registrations + dynamic blocks).
    TvarsAllocated,
    /// T-variables freed (grace-period evictions + aborted-attempt
    /// allocation releases).
    TvarsFreed,
    /// Process-wide default-mode switches of a hybrid backend (each
    /// direction counts once; a full escalate+de-escalate cycle is 2).
    ModeMigrations,
}

/// Number of counters (length of each shard's array).
pub const COUNTER_KINDS: usize = Counter::ModeMigrations as usize + 1;

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
    /// Attribution from an optional id — for sites that relay a stamp a
    /// peer may or may not have left (e.g. the DSTM killer stamp).
    pub fn opt(v: Option<u64>) -> VarAttr {
        match v {
            Some(x) => VarAttr::Var(x),
            None => VarAttr::NoVar,
        }
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
    park_ns: Histogram,
}

impl StatShard {
    fn new() -> Self {
        StatShard {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            attempt_ns: Histogram::new(),
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
    /// The who-aborted-whom table. Lives inside the stats so a hybrid's
    /// engines, which share one `Arc<StmStats>`, automatically share one
    /// forensics view too. Every attributed abort is recorded: the abort
    /// path is never the hot path (it already cost a failed validation or
    /// a lost CAS plus backoff), and recording is a probe and a few
    /// relaxed stores.
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
            forensics: Forensics::new(),
        }
    }

    /// The who-aborted-whom table, fed by [`StmStats::abort_at`].
    pub fn forensics(&self) -> &Forensics {
        &self.forensics
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
    /// Feeds the cause counter exactly like [`StmStats::abort`], plus one
    /// row of the forensics table when a variable is named.
    #[inline]
    pub fn abort_at(&self, cause: AbortCause, var: VarAttr, victim: u64, aggressor: u64) {
        self.incr(cause.counter());
        if let VarAttr::Var(x) = var {
            self.forensics.record(aggressor, victim, cause, x);
        }
    }

    /// Records one attempt's wall-clock latency (begin → commit/abort).
    /// No transaction path calls it: an attempt reads no clock, and
    /// [`Counter::Attempts`] counts attempts. It and the `attempt_ns`
    /// histogram are kept only for the benchmark ledger's
    /// `obs.record_attempt_ns` row, which times a histogram record.
    #[inline]
    pub fn record_attempt_ns(&self, ns: u64) {
        self.shards[my_shard()].attempt_ns.record(ns);
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
                park_ns: s.park_ns.snapshot(),
            })
            .collect()
    }
}

/// A merged point-in-time copy of an [`StmStats`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    counters: [u64; COUNTER_KINDS],
    /// Written only by [`StmStats::record_attempt_ns`], which no
    /// transaction path calls.
    pub attempt_ns: HistogramSnapshot,
    pub park_ns: HistogramSnapshot,
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
        self.park_ns.merge(&other.park_ns);
    }

    /// Difference against an earlier snapshot of the same stats — the
    /// bench harnesses use this to report a timed phase net of warmup.
    pub fn since(&self, base: &StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            counters: std::array::from_fn(|c| self.counters[c].saturating_sub(base.counters[c])),
            attempt_ns: self.attempt_ns.since(&base.attempt_ns),
            park_ns: self.park_ns.since(&base.park_ns),
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
    fn aborts_is_sum_of_causes() {
        let stats = StmStats::new();
        stats.abort(AbortCause::ReadValidation);
        stats.abort(AbortCause::ReadValidation);
        stats.abort(AbortCause::CmArbitrated);
        let snap = stats.snapshot();
        assert_eq!(snap.aborts(), 3);
        assert_eq!(snap.get(Counter::AbortReadValidation), 2);
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
    }

    #[test]
    fn abort_at_feeds_cause_counter_heatmap_and_edges() {
        let stats = StmStats::new();
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
        let hot = stats.forensics().top_vars(4);
        assert_eq!(hot.len(), 1, "NoVar must not land in the table");
        assert_eq!(hot[0].var, 7);
        let edges = stats.forensics().top_k(4);
        assert_eq!(edges.len(), 1);
        assert_eq!(edges[0].aggressor_proc, 1);
        assert_eq!(edges[0].victim_proc, 2);
        assert_eq!(edges[0].last_aggressor, pack_tx(1, 3));
        assert_eq!(edges[0].cause, AbortCause::CmArbitrated);
        // Exact, not sampled: every `Var`-attributed abort lands in the
        // table; one with an unknown aggressor adds no named row.
        for i in 0..99u64 {
            stats.abort_at(
                AbortCause::ReadValidation,
                VarAttr::Var(i % 3),
                pack_tx(0, i as u32),
                TX_UNKNOWN,
            );
        }
        assert_eq!(stats.forensics().total(), 100);
        assert_eq!(stats.forensics().named(), 1);
        let hot = stats.forensics().top_vars(4);
        assert_eq!(hot.iter().map(|v| v.total).sum::<u64>(), 100);
        assert_eq!((hot[0].var, hot[0].total), (0, 33));
        assert_eq!(hot[0].dominant_cause(), AbortCause::ReadValidation);
        assert_eq!(stats.snapshot().aborts(), 101);
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

/// Tests of the per-variable view of the forensics table
/// ([`Forensics::top_vars`]): the hot set, its exactness and its reset.
#[cfg(test)]
mod heatmap {
    mod tests {
        use crate::conflict::TABLE_SLOTS;
        use crate::{pack_tx, AbortCause, Forensics, TX_UNKNOWN};

        /// The per-variable view sums every row over a variable — across
        /// aggressors, victims and causes — and ranks the hot set.
        #[test]
        fn records_and_ranks_hot_vars() {
            let t = Forensics::new();
            for i in 0..5 {
                t.record(
                    pack_tx(i % 2, i),
                    pack_tx(2, i),
                    AbortCause::ReadValidation,
                    7,
                );
            }
            for i in 0..3 {
                t.record(TX_UNKNOWN, pack_tx(3, i), AbortCause::LockBusy, 7);
            }
            t.record(pack_tx(0, 9), pack_tx(1, 9), AbortCause::CasLost, 9);
            let dynamic = (1 << 32) + 17;
            t.record(
                pack_tx(4, 1),
                pack_tx(5, 1),
                AbortCause::CmArbitrated,
                dynamic,
            );
            t.record(
                pack_tx(5, 1),
                pack_tx(4, 1),
                AbortCause::CmArbitrated,
                dynamic,
            );

            let top = t.top_vars(2);
            assert_eq!(top.len(), 2);
            assert_eq!((top[0].var, top[0].total), (7, 8));
            assert_eq!(top[0].by_cause[AbortCause::LockBusy.index()], 3);
            assert_eq!(top[0].dominant_cause(), AbortCause::ReadValidation);
            assert_eq!((top[1].var, top[1].total), (dynamic, 2));
            assert_eq!((t.total(), t.named(), t.overflow()), (11, 8, 0));
        }

        /// Ids anywhere in `u64` get exact rows; what does not fit in the
        /// table is counted in `overflow`, never dropped silently, and
        /// stays out of the view.
        #[test]
        fn out_of_region_ids_land_in_overflow_not_silence() {
            let t = Forensics::new();
            t.record(
                pack_tx(0, 1),
                pack_tx(1, 1),
                AbortCause::LockBusy,
                u64::MAX - 3,
            );
            assert_eq!(t.top_vars(1)[0].var, u64::MAX - 3);
            let n = TABLE_SLOTS as u64 + 100;
            for var in 0..n {
                t.record(pack_tx(0, 1), pack_tx(1, 1), AbortCause::LockBusy, var);
            }
            assert!(t.overflow() >= 100);
            assert_eq!(t.total() + t.overflow(), n + 1);
            let view: u64 = t.top_vars(usize::MAX).iter().map(|v| v.total).sum();
            assert_eq!(view, t.total());
        }

        #[test]
        fn reset_zeroes_counts() {
            let t = Forensics::new();
            t.record(pack_tx(0, 1), pack_tx(1, 1), AbortCause::ReadValidation, 3);
            for var in 0..TABLE_SLOTS as u64 + 100 {
                t.record(TX_UNKNOWN, pack_tx(1, 1), AbortCause::ReadValidation, var);
            }
            t.reset();
            assert_eq!((t.total(), t.overflow()), (0, 0));
            assert!(t.top_vars(4).is_empty());
            // Still usable after a reset: a row keeps its slot.
            t.record(pack_tx(0, 2), pack_tx(1, 2), AbortCause::ReadValidation, 3);
            assert_eq!(t.top_vars(1)[0].total, 1);
        }

        #[test]
        fn concurrent_records_all_land() {
            let t = std::sync::Arc::new(Forensics::new());
            std::thread::scope(|s| {
                for p in 0..8u32 {
                    let t = std::sync::Arc::clone(&t);
                    s.spawn(move || {
                        for i in 0..1000u32 {
                            let var = u64::from(i % 16 + p * 2048);
                            t.record(
                                pack_tx(p, i),
                                pack_tx(p, i),
                                AbortCause::ReadValidation,
                                var,
                            );
                        }
                    });
                }
            });
            assert_eq!((t.total(), t.overflow()), (8000, 0));
            let hot = t.top_vars(usize::MAX);
            assert_eq!(hot.len(), 128);
            assert_eq!(hot.iter().map(|v| v.total).sum::<u64>(), 8000);
        }
    }
}
