//! Transaction timelines: the event ring rendered as a Chrome-trace /
//! Perfetto JSON file, so a contended run opens directly in
//! `chrome://tracing` (or ui.perfetto.dev).
//!
//! Span-structured records come from [`crate::ring::emit_span`] — attempt
//! spans from the transaction driver, park spans from the async runtime,
//! migration-barrier spans from the hybrid — and instants from
//! [`crate::ring::emit`]: every abort carries its cause and the
//! t-variable it was attributed to ([`crate::StmStats::abort_at`] emits
//! them), commits and budget exhaustions ride along. The mapping:
//!
//! * `dur > 0` → a `"ph": "X"` complete event (one slice on the event's
//!   track — [`TxEvent::track`]: the emitting thread's, or the parked
//!   process's for `"park"` — `ts`/`dur` in microseconds);
//! * `dur == 0` → a `"ph": "i"` thread-scoped instant;
//! * `kind == "abort"` instants additionally carry `"cause"` (the abort
//!   cause name, stashed in the event's `stm` field by `abort_at`) and
//!   `"var"` (`"none"` for [`crate::VarAttr::NoVar`] attributions) in
//!   `args` — the properties the CI trace validator (`check_trace`)
//!   demands of every abort.
//!
//! One event per line, so dependency-free line-oriented tooling (the
//! validator, grep) can parse the file without a JSON library.

use crate::ring::{self, Drained, TxEvent};

/// Sentinel `a`-word of an `"abort"` event whose site passed
/// [`crate::VarAttr::NoVar`] — rendered as `"var": "none"`.
pub const NO_VAR: u64 = u64::MAX;

impl TxEvent {
    /// The Chrome-trace track `(pid, tid)` this event renders on: the
    /// emitting thread's (`pid` 0) — except for `"park"` spans. A parked
    /// transaction is on no thread: its span starts on the thread that
    /// polled it into the park and is emitted by whichever thread polls
    /// the wake, where it would partially overlap that thread's own
    /// attempt slices. It goes on the parked process's track (`pid` 1,
    /// `tid` = the span's `a` word, the proc), where parks are disjoint
    /// because a process runs one transaction at a time.
    pub fn track(&self) -> (u64, u64) {
        if self.kind == "park" {
            (1, self.a)
        } else {
            (0, self.thread)
        }
    }
}

fn event_json(e: &TxEvent) -> String {
    let ts = e.nanos as f64 / 1000.0;
    let (pid, tid) = e.track();
    if e.dur > 0 {
        let dur = e.dur as f64 / 1000.0;
        format!(
            "{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"ts\": {ts:.3}, \
             \"dur\": {dur:.3}, \"pid\": {pid}, \"tid\": {tid}, \
             \"args\": {{\"a\": {}, \"b\": {}}}}}",
            e.kind, e.stm, e.a, e.b
        )
    } else if e.kind == "abort" {
        let var = if e.a == NO_VAR {
            "\"none\"".to_string()
        } else {
            e.a.to_string()
        };
        format!(
            "{{\"name\": \"abort\", \"cat\": \"{}\", \"ph\": \"i\", \"s\": \"t\", \
             \"ts\": {ts:.3}, \"pid\": {pid}, \"tid\": {tid}, \
             \"args\": {{\"cause\": \"{}\", \"var\": {var}, \"victim\": {}}}}}",
            e.stm, e.stm, e.b
        )
    } else {
        format!(
            "{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"i\", \"s\": \"t\", \
             \"ts\": {ts:.3}, \"pid\": {pid}, \"tid\": {tid}, \
             \"args\": {{\"a\": {}, \"b\": {}}}}}",
            e.kind, e.stm, e.a, e.b
        )
    }
}

/// Renders a drained ring batch as a Chrome-trace JSON document.
pub fn chrome_json(d: &Drained) -> String {
    let mut s = String::from("{\"traceEvents\": [\n");
    for (i, e) in d.events.iter().enumerate() {
        s.push_str(&event_json(e));
        s.push_str(if i + 1 == d.events.len() { "\n" } else { ",\n" });
    }
    s.push_str("], \"displayTimeUnit\": \"ms\", \"otherData\": {\"dropped_events\": ");
    s.push_str(&d.dropped.to_string());
    s.push_str("}}\n");
    s
}

/// Drains every thread's event ring and writes the batch to `path` as
/// Chrome-trace JSON. Returns the number of events exported.
pub fn export_chrome(path: &str) -> std::io::Result<usize> {
    let d = ring::drain();
    std::fs::write(path, chrome_json(&d))?;
    Ok(d.events.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(nanos: u64, thread: u64, kind: &'static str, stm: &'static str, dur: u64) -> TxEvent {
        TxEvent {
            nanos,
            thread,
            kind,
            stm,
            a: 42,
            b: 7,
            dur,
        }
    }

    #[test]
    fn spans_render_as_complete_events() {
        let d = Drained {
            events: vec![
                ev(2000, 3, "attempt", "tl2", 1500),
                ev(2500, 3, "park", "async_park_core", 900),
            ],
            dropped: 0,
            dropped_by_thread: vec![],
        };
        let j = chrome_json(&d);
        assert!(j.contains("\"ph\": \"X\""), "{j}");
        assert!(j.contains("\"ts\": 2.000"), "{j}");
        assert!(j.contains("\"dur\": 1.500"), "{j}");
        assert!(j.contains("\"pid\": 0, \"tid\": 3"), "{j}");
        // A park sits on its proc's track (a = 42), not the waker's.
        assert!(j.contains("\"pid\": 1, \"tid\": 42"), "{j}");
        assert!(j.starts_with("{\"traceEvents\": ["), "{j}");
        assert_eq!(j.matches('{').count(), j.matches('}').count(), "{j}");
    }

    #[test]
    fn aborts_render_as_instants_with_cause_and_var() {
        let mut e = ev(500, 1, "abort", "read_validation", 0);
        e.a = 17;
        e.b = crate::conflict::pack_tx(2, 9);
        let d = Drained {
            events: vec![e],
            dropped: 0,
            dropped_by_thread: vec![],
        };
        let j = chrome_json(&d);
        assert!(j.contains("\"ph\": \"i\""), "{j}");
        assert!(j.contains("\"cause\": \"read_validation\""), "{j}");
        assert!(j.contains("\"var\": 17"), "{j}");
    }

    #[test]
    fn novar_aborts_carry_the_explicit_marker() {
        let mut e = ev(500, 1, "abort", "budget_exhausted", 0);
        e.a = NO_VAR;
        let d = Drained {
            events: vec![e],
            dropped: 0,
            dropped_by_thread: vec![],
        };
        let j = chrome_json(&d);
        assert!(j.contains("\"var\": \"none\""), "{j}");
    }

    #[test]
    fn dropped_count_is_surfaced() {
        let d = Drained {
            events: vec![ev(1, 0, "commit", "tl", 0)],
            dropped: 12,
            dropped_by_thread: vec![(0, 12)],
        };
        assert!(chrome_json(&d).contains("\"dropped_events\": 12"));
    }
}
