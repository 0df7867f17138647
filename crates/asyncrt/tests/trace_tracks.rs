//! Chrome-trace `"X"` slices on one track must be disjoint or nested.
//! The driver's `"attempt"` spans sit on the polling thread's track; a
//! `"park"` span starts on the thread that polled the future into the
//! park and is emitted by the thread that polls the wake — here a thread
//! that was *inside an attempt of its own* when the park began, which is
//! the partial overlap a thread-keyed park track would export. (Own test
//! binary: the trace gate and the rings are process-global.)

use oftm_asyncrt::run_transaction_async_budgeted;
use oftm_core::api::{run_transaction_with_budget, WordStm};
use oftm_core::TxError;
use oftm_histories::TVarId;
use oftm_obs::ring::{self, TxEvent};
use std::future::Future;
use std::sync::mpsc;
use std::sync::Arc;
use std::task::{Context, Wake, Waker};

const FLAG: TVarId = TVarId(0);
const WAITER: u32 = 7;

struct NoopWake;
impl Wake for NoopWake {
    fn wake(self: Arc<Self>) {}
}

/// Spans that cross the end of the span enclosing them, per track — the
/// sweep `check_trace` runs over an exported file.
fn partial_overlaps(spans: &[TxEvent]) -> Vec<(TxEvent, TxEvent)> {
    let mut sorted: Vec<&TxEvent> = spans.iter().collect();
    sorted.sort_by_key(|e| (e.track(), e.nanos, std::cmp::Reverse(e.dur)));
    let mut bad = Vec::new();
    let mut open: Vec<&TxEvent> = Vec::new();
    for e in sorted {
        while open
            .last()
            .is_some_and(|o| o.track() != e.track() || o.nanos + o.dur <= e.nanos)
        {
            open.pop();
        }
        if let Some(outer) = open.last() {
            if e.nanos + e.dur > outer.nanos + outer.dur {
                bad.push((**outer, *e));
            }
        }
        open.push(e);
    }
    bad
}

#[test]
fn parked_transaction_spans_nest_on_every_track() {
    ring::set_enabled(true);
    let stm = oftm_baselines::Tl2Stm::new();
    stm.register_tvar(FLAG, 0);
    let waker = Waker::from(Arc::new(NoopWake));

    // The waiter blocks until FLAG is raised: two aborted attempts (the
    // immediate retry, then the one that parks on FLAG).
    let waiting = Box::pin(run_transaction_async_budgeted(
        &stm,
        WAITER,
        100,
        |tx| match tx.read(FLAG)? {
            0 => Err(TxError::Aborted),
            v => Ok(v),
        },
    ));

    let (go, started) = mpsc::channel::<()>();
    let (parked, handed_over) = mpsc::channel();
    let mut woken = std::thread::scope(|s| {
        let waker = waker.clone();
        s.spawn(move || {
            started.recv().unwrap();
            let mut waiting = waiting;
            let mut cx = Context::from_waker(&waker);
            assert!(waiting.as_mut().poll(&mut cx).is_pending(), "must park");
            parked.send(waiting).unwrap();
        });
        // This thread's attempt is open before the park starts on the
        // other thread and commits (raising FLAG) after it.
        let mut handed = None;
        run_transaction_with_budget(&stm, 1, 100, |tx| {
            if handed.is_none() {
                go.send(()).unwrap();
                handed = Some(handed_over.recv().unwrap());
            }
            tx.write(FLAG, 1)
        })
        .expect("the raiser runs alone");
        handed.unwrap()
    });
    // The wake is polled here, so this thread emits the park span.
    let mut cx = Context::from_waker(&waker);
    let done = match woken.as_mut().poll(&mut cx) {
        std::task::Poll::Ready(done) => done.expect("FLAG is raised"),
        std::task::Poll::Pending => panic!("a changed footprint is a meaningful wake"),
    };
    assert_eq!((done.value, done.attempts, done.parks), (1, 3, 1));

    let spans: Vec<TxEvent> = ring::drain()
        .events
        .into_iter()
        .filter(|e| e.dur > 0)
        .collect();
    // Async attempts export slices too, one per begin, on two threads.
    let of_waiter = |e: &&TxEvent| e.kind == "attempt" && e.a == u64::from(WAITER);
    assert_eq!(spans.iter().filter(of_waiter).count(), 3, "{spans:?}");
    assert_eq!(spans.iter().filter(|e| e.kind == "park").count(), 1);
    let bad = partial_overlaps(&spans);
    assert!(bad.is_empty(), "spans neither disjoint nor nested: {bad:?}");
}
