//! The transaction future: the async waiter of the one transaction
//! driver ([`oftm_core::driver`]) — retry-until-commit as a `Future`,
//! with **wake-on-commit parking** where the sync loop
//! ([`oftm_core::driver::drive`]) spins.
//!
//! A poll runs whole attempts synchronously — [`Driver::attempt`]: begin,
//! body, `tryC` — so a transaction never holds STM state across an await
//! point (a `WordTx` is single-threaded and must die with its attempt).
//! What crosses polls is only the retry state: the driver's attempt
//! count, the aborted attempt's *footprint*
//! ([`oftm_core::api::WordTx::footprint`]), and the [`WaitSnapshot`] of
//! the park protocol.
//!
//! The per-abort decision tree (one policy with the sync loop — see
//! [`oftm_core::contention`]):
//!
//! 1. the first consecutive abort
//!    ([`oftm_core::contention::retry_immediately`]) re-runs inline — the
//!    conflicting commit usually *just* happened, so an immediate re-run
//!    sees the new world;
//! 2. otherwise the future parks: snapshot the footprint's notification
//!    shards, register the task's [`Waker`] with the STM's
//!    [`CommitNotifier`], arm the watchdog timeout
//!    ([`crate::timer`]), and return `Pending`. A conflicting commit —
//!    the only event that can change what the re-run observes — wakes the
//!    task; the watchdog covers the mutual-abort corner where no commit
//!    is coming;
//! 3. if a commit raced the registration ([`CommitNotifier::park`]
//!    returned `false`), the world already changed: re-run inline.
//!
//! An abort with an **empty footprint** (the body aborted before touching
//! any t-variable) has nothing to park on; the future yields (self-wake +
//! `Pending`) so a contended executor still interleaves other tasks.
//!
//! The body of an `atomically_async*` future receives one [`TxCtx`] per
//! attempt, so *several collection operations compose into one atomic
//! transaction* — the multi-structure transactions (dequeue here, enqueue
//! there) the differential harness checks conservation over. The driver
//! frees an aborted attempt's allocations before the future parks, so a
//! long park cannot pin them.

use crate::timer;
use oftm_core::api::{TxResult, WordStm, WordTx};
use oftm_core::contention::{park_timeout, retry_immediately};
use oftm_core::driver::{Driver, TxCtx};
use oftm_core::notify::WaitSnapshot;
use oftm_core::BudgetExceeded;
use oftm_histories::TVarId;
use oftm_obs::Counter;
use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll, Waker};

#[allow(unused_imports)] // rustdoc links
use oftm_core::notify::CommitNotifier;

/// A committed async transaction: the body's result plus the retry
/// accounting, reported with the same meaning as the sync loop's
/// `(result, attempts)` pairs (one attempt per `begin`).
#[derive(Clone, Copy, Debug)]
pub struct Committed<R> {
    pub value: R,
    /// Transactions begun, committed and aborted alike (≥ 1).
    pub attempts: u32,
    /// Times this future parked on commit notifications.
    pub parks: u32,
}

/// Cross-poll retry state of a [`TxFuture`]: the driver plus the park
/// protocol's bookkeeping.
struct ParkCore<'s> {
    /// A read-only driver never parks: a read-only abort means a
    /// conflicting commit *just* landed, so the immediate re-run observes
    /// the new snapshot and (on the wait-free backends) cannot abort the
    /// same way again — parking would trade that certain progress for a
    /// wake round-trip. Past the immediate-retry budget the future yields
    /// (self-wake) instead of parking, so a contended executor still
    /// interleaves peers.
    driver: Driver<'s>,
    consecutive_aborts: u32,
    parks: u32,
    /// The last attempt's access log, as [`Driver::attempt`] left it.
    footprint: Vec<TVarId>,
    snap: WaitSnapshot,
    /// `Some` while parked: the armed watchdog deadline. Lets a re-poll
    /// distinguish a *meaningful* wake (footprint changed, or our own
    /// deadline passed) from a stale one — a watchdog entry armed by an
    /// earlier park whose commit-wake won the race. Without this filter
    /// every stale timer fire would trigger a full doomed re-run that
    /// arms yet another timer: the chains self-perpetuate and multiply
    /// with every commit, burying the "fewer wasted re-runs" win.
    parked_until: Option<std::time::Instant>,
    /// When the current park began (set with `parked_until`); feeds the
    /// park-duration histogram on the unparking poll.
    parked_at: Option<std::time::Instant>,
}

/// What the poll loop does after an aborted attempt.
enum AfterAbort {
    /// Re-run the attempt inside this same poll.
    RetryNow,
    /// Return `Pending`; a wake (commit or watchdog) re-polls.
    Pend,
}

impl ParkCore<'_> {
    /// Poll-entry gate. `true`: run attempts. `false`: this wake was
    /// stale — neither the parked footprint changed nor our deadline
    /// passed; stay `Pending`. The notifier registration is necessarily
    /// still standing (a publish on our shards would have changed the
    /// snapshot), and the armed watchdog entry is still pending, so no
    /// re-registration is needed: both route wakes to the task, not to a
    /// specific waker clone.
    fn should_run(&mut self) -> bool {
        match self.parked_until {
            None => true,
            Some(deadline) => {
                let stats = self.driver.stm.stats();
                if self.driver.stm.notifier().changed_since(&self.snap)
                    || std::time::Instant::now() >= deadline
                {
                    self.parked_until = None;
                    stats.incr(Counter::Wakes);
                    if let Some(at) = self.parked_at.take() {
                        stats.record_park_ns(at.elapsed().as_nanos() as u64);
                    }
                    true
                } else {
                    stats.incr(Counter::StaleWakes);
                    false
                }
            }
        }
    }

    /// The park protocol (see module docs). `waker` is the polling task's.
    fn after_abort(&mut self, waker: &Waker) -> AfterAbort {
        self.consecutive_aborts += 1;
        if retry_immediately(self.consecutive_aborts) {
            return AfterAbort::RetryNow;
        }
        if self.driver.read_only || self.footprint.is_empty() {
            // Read-only futures never park (see the `driver` field) and an
            // empty footprint has nothing to watch: yield (stay runnable,
            // let peers in), then re-run.
            waker.wake_by_ref();
            return AfterAbort::Pend;
        }
        // The log may hold duplicates (collection traversals re-touch link
        // words constantly); dedup before anything registers per-entry
        // state on it: parking on an N-op transaction must register each
        // notify shard once, not once per touch.
        self.footprint.sort_unstable();
        self.footprint.dedup();
        let notifier = self.driver.stm.notifier();
        notifier.snapshot(self.footprint.iter().copied(), &mut self.snap);
        if !notifier.park(&self.snap, waker) {
            // A commit raced the registration — the world changed under
            // us, exactly the event we would have waited for.
            return AfterAbort::RetryNow;
        }
        self.parks += 1;
        self.driver.stm.stats().incr(Counter::Parks);
        let timeout = park_timeout(self.driver.proc, self.consecutive_aborts);
        let now = std::time::Instant::now();
        self.parked_until = Some(now + timeout);
        self.parked_at = Some(now);
        timer::wake_after(timeout, waker.clone());
        AfterAbort::Pend
    }
}

/// The future behind every `*_async*` name.
pub struct TxFuture<'s, R, F> {
    core: ParkCore<'s>,
    body: F,
    _r: std::marker::PhantomData<fn() -> R>,
}

impl<'s, R, F> TxFuture<'s, R, F> {
    fn new(stm: &'s dyn WordStm, proc: u32, max_attempts: u32, read_only: bool, body: F) -> Self {
        TxFuture {
            core: ParkCore {
                driver: Driver::new(stm, proc, max_attempts, read_only),
                consecutive_aborts: 0,
                parks: 0,
                footprint: Vec::new(),
                snap: WaitSnapshot::new(),
                parked_until: None,
                parked_at: None,
            },
            body,
            _r: std::marker::PhantomData,
        }
    }
}

impl<R, F> Future for TxFuture<'_, R, F>
where
    F: FnMut(&mut TxCtx<'_, '_>) -> TxResult<R> + Unpin,
{
    type Output = Result<Committed<R>, BudgetExceeded>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let TxFuture { core, body, .. } = self.get_mut();
        if !core.should_run() {
            return Poll::Pending; // stale wake: stay parked
        }
        while !core.driver.exhausted() {
            let footprint = (!core.driver.read_only).then_some(&mut core.footprint);
            if let Some(value) = core.driver.attempt(body, footprint) {
                return Poll::Ready(Ok(Committed {
                    value,
                    attempts: core.driver.attempts(),
                    parks: core.parks,
                }));
            }
            // When the final attempt has just aborted, report at once, as
            // the sync loop does — parking would delay the error by a park
            // timeout and count a park that could never precede another
            // attempt.
            if !core.driver.exhausted() && matches!(core.after_abort(cx.waker()), AfterAbort::Pend)
            {
                return Poll::Pending;
            }
        }
        Poll::Ready(Err(core.driver.budget_exceeded()))
    }
}

/// Like [`oftm_core::run_transaction_with_budget`], asynchronously: runs
/// `body` in transactions until one commits, parking between contended
/// attempts instead of spinning. Resolves to the committed result with
/// its attempt/park accounting, or [`BudgetExceeded`] after
/// `max_attempts` aborted attempts.
pub fn run_transaction_async_budgeted<'s, R, F>(
    stm: &'s dyn WordStm,
    proc: u32,
    max_attempts: u32,
    mut body: F,
) -> TxFuture<'s, R, impl FnMut(&mut TxCtx<'_, '_>) -> TxResult<R> + Unpin>
where
    F: FnMut(&mut dyn WordTx) -> TxResult<R> + Unpin,
{
    atomically_async_budgeted(stm, proc, max_attempts, move |ctx| body(ctx.tx()))
}

/// Like [`oftm_core::run_transaction`], asynchronously: retries until
/// commit (a `u32::MAX` budget — exhausting it is indistinguishable from
/// a hang and fails loudly, matching the sync API).
pub async fn run_transaction_async<R, F>(stm: &dyn WordStm, proc: u32, body: F) -> Committed<R>
where
    F: FnMut(&mut dyn WordTx) -> TxResult<R> + Unpin,
{
    (run_transaction_async_budgeted(stm, proc, u32::MAX, body).await)
        .unwrap_or_else(|e| panic!("run_transaction_async: {e}"))
}

/// Read-only [`run_transaction_async_budgeted`]: attempts run on
/// [`WordStm::begin_ro`] (the backend's cheapest consistent read path)
/// and aborted attempts **never park** — they retry inline or yield.
/// `Committed::parks` is therefore always zero.
pub fn run_transaction_async_ro_budgeted<'s, R, F>(
    stm: &'s dyn WordStm,
    proc: u32,
    max_attempts: u32,
    mut body: F,
) -> TxFuture<'s, R, impl FnMut(&mut TxCtx<'_, '_>) -> TxResult<R> + Unpin>
where
    F: FnMut(&mut dyn WordTx) -> TxResult<R> + Unpin,
{
    atomically_async_ro_budgeted(stm, proc, max_attempts, move |ctx| body(ctx.tx()))
}

/// Asynchronous `oftm_structs::atomically_budgeted`: runs `body` with a
/// [`TxCtx`] until an attempt commits, parking on commit notifications
/// between contended attempts and releasing attempt-local allocations on
/// abort.
pub fn atomically_async_budgeted<'s, R, F>(
    stm: &'s dyn WordStm,
    proc: u32,
    max_attempts: u32,
    body: F,
) -> TxFuture<'s, R, F>
where
    F: FnMut(&mut TxCtx<'_, '_>) -> TxResult<R> + Unpin,
{
    TxFuture::new(stm, proc, max_attempts, false, body)
}

/// Asynchronous `oftm_structs::atomically`: retries until commit
/// (`u32::MAX` budget; exhausting it fails loudly, matching the sync
/// API).
pub async fn atomically_async<R, F>(stm: &dyn WordStm, proc: u32, body: F) -> Committed<R>
where
    F: FnMut(&mut TxCtx<'_, '_>) -> TxResult<R> + Unpin,
{
    (atomically_async_budgeted(stm, proc, u32::MAX, body).await)
        .unwrap_or_else(|e| panic!("atomically_async: {e}"))
}

/// Asynchronous `oftm_structs::atomically_ro_budgeted`: attempts run on
/// [`WordStm::begin_ro`] and aborted attempts never park (they retry
/// inline or yield) — `Committed::parks` is always zero. The body must
/// not write, retire, or allocate.
pub fn atomically_async_ro_budgeted<'s, R, F>(
    stm: &'s dyn WordStm,
    proc: u32,
    max_attempts: u32,
    body: F,
) -> TxFuture<'s, R, F>
where
    F: FnMut(&mut TxCtx<'_, '_>) -> TxResult<R> + Unpin,
{
    TxFuture::new(stm, proc, max_attempts, true, body)
}

/// Asynchronous `oftm_structs::atomically_ro`.
pub async fn atomically_async_ro<R, F>(stm: &dyn WordStm, proc: u32, body: F) -> Committed<R>
where
    F: FnMut(&mut TxCtx<'_, '_>) -> TxResult<R> + Unpin,
{
    (atomically_async_ro_budgeted(stm, proc, u32::MAX, body).await)
        .unwrap_or_else(|e| panic!("atomically_async_ro: {e}"))
}
