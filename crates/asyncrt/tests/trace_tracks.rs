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
use oftm_obs::ring::{self, Drained, TxEvent};
use oftm_obs::trace::{chrome_json, validate};
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
    // The exporter's own gate: disjoint or nested on every track.
    let exported = chrome_json(&Drained {
        events: spans,
        ..Drained::default()
    });
    if let Err(errors) = validate(&exported) {
        panic!("spans neither disjoint nor nested: {errors:?}\n{exported}");
    }
}
