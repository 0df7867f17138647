//! Env-gated structured event ring: per-thread fixed-size rings of
//! [`TxEvent`] records, drained to JSON for per-transaction postmortems.
//!
//! The gate follows the harness convention: set `HARNESS_TRACE=1` (or
//! `OFTM_TRACE=1`) and every instrumented site records a timestamped
//! event — abort causes as they are tagged, commits with their attempt
//! counts, parks and wakes, harness cell markers. With the gate off (the
//! default) an emit is a single relaxed load and branch, so the call
//! sites stay in release builds.
//!
//! Rings are fixed-size and overwrite oldest-first: a wedged run keeps
//! the *latest* window of events, which is the window a postmortem needs.
//! [`drain_json`] merges every thread's ring into one time-sorted JSON
//! array and empties the rings.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Events retained per thread; oldest are overwritten (`dropped` counts
/// the overwrites so a drain states what it lost).
pub const RING_CAPACITY: usize = 4096;

/// One structured trace record. Payload words `a`/`b` are event-kind
/// specific (documented at each emitting site); keeping them as plain
/// words keeps emission allocation-free.
#[derive(Clone, Copy, Debug)]
pub struct TxEvent {
    /// Monotonic nanoseconds since the process's first trace-clock read.
    /// For span records ([`emit_span`]) this is the span's *start*.
    pub nanos: u64,
    /// Emitting thread (dense trace-local index, not the OS tid).
    pub thread: u64,
    /// Event kind: an abort-cause name, `"commit"`, `"park"`, `"wake"`,
    /// `"budget_exhausted"`, `"cell"`, …
    pub kind: &'static str,
    /// STM backend name, or a harness label for non-backend events.
    pub stm: &'static str,
    pub a: u64,
    pub b: u64,
    /// Span duration in nanoseconds; 0 marks an instant event. Spans are
    /// what [`crate::trace::chrome_json`] turns into `"X"` slices.
    pub dur: u64,
}

struct RingBuf {
    events: Vec<TxEvent>,
    /// Next slot to write (wraps at `RING_CAPACITY`).
    next: usize,
    /// Total events overwritten after the ring filled.
    dropped: u64,
}

struct Ring {
    /// Dense trace-local thread index of the owning thread.
    thread: u64,
    buf: Mutex<RingBuf>,
}

impl Ring {
    fn push(&self, ev: TxEvent) {
        let mut b = self.buf.lock().unwrap();
        if b.events.len() < RING_CAPACITY {
            b.events.push(ev);
        } else {
            let slot = b.next % RING_CAPACITY;
            b.events[slot] = ev;
            b.dropped += 1;
        }
        b.next = (b.next + 1) % RING_CAPACITY;
    }
}

/// Tri-state gate: 0 unknown (consult env), 1 off, 2 on.
static GATE: AtomicU8 = AtomicU8::new(0);
static THREAD_IDS: AtomicU64 = AtomicU64::new(0);

fn registry() -> &'static Mutex<Vec<Arc<Ring>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Arc<Ring>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Monotonic nanoseconds on the trace clock (0 at first use).
pub fn clock_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// True when tracing is on: `HARNESS_TRACE` or `OFTM_TRACE` set in the
/// environment (checked once), or forced by [`set_enabled`].
#[inline]
pub fn enabled() -> bool {
    match GATE.load(Ordering::Relaxed) {
        2 => true,
        1 => false,
        _ => {
            let on = std::env::var_os("HARNESS_TRACE").is_some()
                || std::env::var_os("OFTM_TRACE").is_some();
            GATE.store(if on { 2 } else { 1 }, Ordering::Relaxed);
            on
        }
    }
}

/// Forces the gate (tests and tools; the env is read-only in-process).
pub fn set_enabled(on: bool) {
    GATE.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

thread_local! {
    static MY_RING: (u64, Arc<Ring>) = {
        let thread = THREAD_IDS.fetch_add(1, Ordering::Relaxed);
        let ring = Arc::new(Ring {
            thread,
            buf: Mutex::new(RingBuf {
                events: Vec::with_capacity(64),
                next: 0,
                dropped: 0,
            }),
        });
        registry().lock().unwrap().push(Arc::clone(&ring));
        (thread, ring)
    };
}

/// Records one event into the calling thread's ring. No-op (one relaxed
/// load) when tracing is off.
#[inline]
pub fn emit(kind: &'static str, stm: &'static str, a: u64, b: u64) {
    if !enabled() {
        return;
    }
    let nanos = clock_ns();
    push_event(nanos, kind, stm, a, b, 0);
}

/// Records a span that started at `start_ns` (a [`clock_ns`] reading) and
/// ends now. No-op when tracing is off — callers typically guard the
/// `start_ns` read with [`enabled`] too, so an untraced attempt pays one
/// relaxed load in total.
#[inline]
pub fn emit_span(kind: &'static str, stm: &'static str, a: u64, b: u64, start_ns: u64) {
    if !enabled() {
        return;
    }
    let dur = clock_ns().saturating_sub(start_ns).max(1);
    push_event(start_ns, kind, stm, a, b, dur);
}

fn push_event(nanos: u64, kind: &'static str, stm: &'static str, a: u64, b: u64, dur: u64) {
    MY_RING.with(|(thread, ring)| {
        ring.push(TxEvent {
            nanos,
            thread: *thread,
            kind,
            stm,
            a,
            b,
            dur,
        });
    });
}

/// Everything one drain pulled out of the rings: the merged time-sorted
/// events plus the truncation accounting — total overwrites and the
/// per-thread breakdown (thread id, events overwritten), so a postmortem
/// can see *whose* window was too small, not just that one was.
#[derive(Clone, Debug, Default)]
pub struct Drained {
    pub events: Vec<TxEvent>,
    pub dropped: u64,
    /// `(thread, dropped_events)` for every thread that overwrote at
    /// least one event.
    pub dropped_by_thread: Vec<(u64, u64)>,
}

/// Drains every thread's ring into one time-sorted batch, emptying the
/// rings. The structured twin of [`drain_json`]; the Chrome-trace
/// exporter ([`crate::trace::chrome_json`]) consumes this.
pub fn drain() -> Drained {
    let rings: Vec<Arc<Ring>> = registry().lock().unwrap().clone();
    let mut out = Drained::default();
    for ring in &rings {
        let mut b = ring.buf.lock().unwrap();
        if b.dropped > 0 {
            out.dropped += b.dropped;
            out.dropped_by_thread.push((ring.thread, b.dropped));
        }
        // Oldest-first: the slice after `next` (if wrapped), then before.
        if b.events.len() == RING_CAPACITY {
            let next = b.next;
            out.events.extend_from_slice(&b.events[next..]);
            out.events.extend_from_slice(&b.events[..next]);
        } else {
            out.events.extend_from_slice(&b.events);
        }
        b.events.clear();
        b.next = 0;
        b.dropped = 0;
    }
    out.events.sort_by_key(|e| e.nanos);
    out.dropped_by_thread.sort_unstable();
    out
}

/// Drains every thread's ring into one time-sorted JSON array
/// (`{"dropped": N, "dropped_by_thread": [...], "events": [...]}`),
/// emptying the rings. Truncation is never silent: the total overwrite
/// count and its per-thread breakdown lead the object. Returns `None`
/// when tracing is off and nothing was ever recorded.
pub fn drain_json() -> Option<String> {
    let d = drain();
    if d.events.is_empty() && d.dropped == 0 {
        return None;
    }
    let mut s = format!("{{\"dropped\": {}, \"dropped_by_thread\": [", d.dropped);
    for (i, (thread, n)) in d.dropped_by_thread.iter().enumerate() {
        s.push_str(&format!(
            "{{\"thread\": {thread}, \"dropped\": {n}}}{}",
            if i + 1 == d.dropped_by_thread.len() {
                ""
            } else {
                ", "
            }
        ));
    }
    s.push_str("], \"events\": [\n");
    for (i, e) in d.events.iter().enumerate() {
        s.push_str(&format!(
            "  {{\"ns\": {}, \"thread\": {}, \"kind\": \"{}\", \"stm\": \"{}\", \
             \"a\": {}, \"b\": {}, \"dur\": {}}}{}\n",
            e.nanos,
            e.thread,
            e.kind,
            e.stm,
            e.a,
            e.b,
            e.dur,
            if i + 1 == d.events.len() { "" } else { "," }
        ));
    }
    s.push_str("]}\n");
    Some(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The gate and registry are process-global; tests that toggle them
    /// must not interleave.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap()
    }

    #[test]
    fn ring_records_and_drains_when_enabled() {
        let _g = serial();
        set_enabled(true);
        emit("commit", "tl2", 3, 0);
        emit("read_validation", "tl2", 7, 1);
        let json = drain_json().expect("events recorded");
        assert!(json.contains("\"kind\": \"commit\""), "{json}");
        assert!(json.contains("\"kind\": \"read_validation\""), "{json}");
        assert!(json.contains("\"dropped\": 0"), "{json}");
        // Drained: a second drain on this thread starts empty (other
        // tests may race their own events in, so only check our kinds).
        let again = drain_json().unwrap_or_default();
        assert!(!again.contains("\"kind\": \"commit\""), "{again}");
        set_enabled(false);
    }

    #[test]
    fn disabled_gate_drops_events() {
        let _g = serial();
        set_enabled(false);
        emit("never", "tl", 0, 0);
        let json = drain_json().unwrap_or_default();
        assert!(!json.contains("never"), "{json}");
    }

    #[test]
    fn overwrite_keeps_latest_window() {
        let _g = serial();
        set_enabled(true);
        std::thread::spawn(|| {
            for i in 0..(RING_CAPACITY as u64 + 10) {
                emit("tick", "test", i, 0);
            }
            let json = drain_json().expect("events recorded");
            assert!(json.contains("\"dropped\": 10"), "{json}");
            // The oldest 10 were overwritten; the newest survive.
            assert!(!json.contains("\"a\": 9,"), "{json}");
            assert!(
                json.contains(&format!("\"a\": {}", RING_CAPACITY as u64 + 9)),
                "{json}"
            );
        })
        .join()
        .unwrap();
        set_enabled(false);
    }

    /// Truncation must be *reported per thread*, not silently folded into
    /// a process-wide total: a drained JSON names each overflowing thread
    /// with its own overwrite count.
    #[test]
    fn truncation_reports_per_thread_dropped_counts() {
        let _g = serial();
        set_enabled(true);
        drain_json(); // start from empty rings
        let overflow = |extra: u64| {
            std::thread::spawn(move || {
                for i in 0..(RING_CAPACITY as u64 + extra) {
                    emit("tick", "test", i, 0);
                }
                MY_RING.with(|(thread, _)| *thread)
            })
            .join()
            .unwrap()
        };
        let t1 = overflow(3);
        let t2 = overflow(7);
        let json = drain_json().expect("events recorded");
        assert!(json.contains("\"dropped\": 10"), "{json}");
        assert!(
            json.contains(&format!("{{\"thread\": {t1}, \"dropped\": 3}}")),
            "thread {t1} truncation swallowed: {json}"
        );
        assert!(
            json.contains(&format!("{{\"thread\": {t2}, \"dropped\": 7}}")),
            "thread {t2} truncation swallowed: {json}"
        );
        // Once drained, the counters reset — no double reporting.
        let again = drain_json().unwrap_or_default();
        assert!(!again.contains("\"dropped\": 10"), "{again}");
        set_enabled(false);
    }

    #[test]
    fn spans_carry_start_and_duration() {
        let _g = serial();
        set_enabled(true);
        drain_json();
        let start = clock_ns();
        emit_span("attempt", "tl2", 1, 2, start);
        let d = drain();
        let span = d
            .events
            .iter()
            .find(|e| e.kind == "attempt")
            .expect("span recorded");
        assert_eq!(span.nanos, start, "span keeps its start timestamp");
        assert!(span.dur >= 1, "span duration is never zero");
        set_enabled(false);
    }
}
