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
//!   `args` — the properties [`validate`] demands of every abort.
//!
//! One event per line, so dependency-free line-oriented tooling (the
//! validator below, grep) can parse the document without a JSON library.
//!
//! [`validate`] is the gate on the exporter: it proves a rendered document
//! is loadable forensic data, not just bytes —
//!
//! * the envelope is well-formed (`traceEvents` array, `otherData`
//!   carrying `dropped_events`) and every event line parses;
//! * per-track spans are **disjoint or properly nested** — a partial
//!   overlap on one `(pid, tid)` track means a span's start/duration was
//!   computed wrong or a span sits on the wrong track, and the tracing UI
//!   would render garbage;
//! * every **cell** (the window from one `"cell"` marker to the next)
//!   holds at least one `"attempt"` span — the transaction driver emits
//!   one per attempt whatever entry point the cell's workload used, so a
//!   cell without any means an attempt path that bypasses the driver;
//! * every `abort` instant carries its `cause`, `var` attribution and
//!   `victim` — the invariant that makes a timeline cross-referencable
//!   with the heatmap and edge tables.

use crate::ring::{Drained, TxEvent};

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

/// Extracts the raw token after `"key": ` (up to `,` or `}`), if present.
fn raw_after(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\": ");
    let i = line.find(&pat)? + pat.len();
    let rest = &line[i..];
    let end = rest
        .char_indices()
        .find(|&(j, c)| c == ',' || (c == '}' && !rest[..j].contains('{')))
        .map(|(j, _)| j)
        .unwrap_or(rest.len());
    Some(rest[..end].trim().to_string())
}

fn num_after(line: &str, key: &str) -> Option<f64> {
    raw_after(line, key)?.parse().ok()
}

/// One parsed complete-event span on a `(pid, tid)` track.
struct Span {
    start: f64,
    end: f64,
    line_no: usize,
}

/// What a valid document yielded, for the caller to assert on.
#[derive(Debug)]
pub struct Summary {
    pub events: usize,
    pub spans: usize,
    pub aborts: usize,
    pub dropped: u64,
}

/// Validates one Chrome-trace document; returns every violation found.
pub fn validate(doc: &str) -> Result<Summary, Vec<String>> {
    let mut errors: Vec<String> = Vec::new();
    let mut lines = doc.lines().enumerate();

    match lines.next() {
        Some((_, first)) if first.trim_start().starts_with("{\"traceEvents\": [") => {}
        other => {
            errors.push(format!(
                "line 1: document does not open a traceEvents array (got {:?})",
                other.map(|(_, l)| l).unwrap_or("<empty>")
            ));
            return Err(errors);
        }
    }

    let mut summary = Summary {
        events: 0,
        spans: 0,
        aborts: 0,
        dropped: 0,
    };
    let mut by_track: Vec<((u64, u64), Vec<Span>)> = Vec::new();
    // Cell markers (`ts`, scenario, line) and attempt-span starts, for the
    // every-cell-has-attempts rule.
    let mut cells: Vec<(f64, String, usize)> = Vec::new();
    let mut attempt_starts: Vec<f64> = Vec::new();
    let mut saw_tail = false;

    for (idx, line) in lines {
        let n = idx + 1; // 1-based for messages
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if line.starts_with("], ") || line.starts_with("],") {
            // Envelope tail: displayTimeUnit + otherData.dropped_events.
            saw_tail = true;
            match num_after(line, "dropped_events") {
                Some(d) if d >= 0.0 => summary.dropped = d as u64,
                _ => errors.push(format!(
                    "line {n}: envelope tail missing a numeric \"dropped_events\""
                )),
            }
            continue;
        }
        if saw_tail {
            errors.push(format!("line {n}: content after the envelope tail"));
            continue;
        }

        // An event line. Every event needs name/ph/ts/tid and balanced
        // braces (one event per line is the exporter's contract).
        summary.events += 1;
        if line.matches('{').count() != line.matches('}').count() {
            errors.push(format!("line {n}: unbalanced braces"));
            continue;
        }
        let name = raw_after(line, "name");
        let ph = raw_after(line, "ph");
        let ts = num_after(line, "ts");
        let tid = num_after(line, "tid");
        let (Some(name), Some(ph), Some(ts), Some(tid)) = (name, ph, ts, tid) else {
            errors.push(format!("line {n}: event missing name/ph/ts/tid"));
            continue;
        };

        match ph.as_str() {
            "\"X\"" => {
                let Some(dur) = num_after(line, "dur") else {
                    errors.push(format!("line {n}: complete event without \"dur\""));
                    continue;
                };
                if dur <= 0.0 {
                    errors.push(format!("line {n}: complete event with dur {dur} ≤ 0"));
                    continue;
                }
                summary.spans += 1;
                if name == "\"attempt\"" {
                    attempt_starts.push(ts);
                }
                let key = (num_after(line, "pid").unwrap_or(0.0) as u64, tid as u64);
                let track = match by_track.iter_mut().find(|(t, _)| *t == key) {
                    Some((_, v)) => v,
                    None => {
                        by_track.push((key, Vec::new()));
                        &mut by_track.last_mut().unwrap().1
                    }
                };
                track.push(Span {
                    start: ts,
                    end: ts + dur,
                    line_no: n,
                });
            }
            "\"i\"" => {
                if name == "\"cell\"" {
                    cells.push((ts, raw_after(line, "cat").unwrap_or_default(), n));
                }
                if name == "\"abort\"" {
                    summary.aborts += 1;
                    if raw_after(line, "cause")
                        .filter(|c| c.starts_with('"'))
                        .is_none()
                    {
                        errors.push(format!("line {n}: abort instant without a \"cause\""));
                    }
                    // `var` is a number, or the explicit "none" marker —
                    // never absent: every abort names its attribution.
                    match raw_after(line, "var") {
                        Some(v) if v == "\"none\"" || v.parse::<u64>().is_ok() => {}
                        _ => errors.push(format!(
                            "line {n}: abort instant without a \"var\" attribution"
                        )),
                    }
                    if num_after(line, "victim").is_none() {
                        errors.push(format!("line {n}: abort instant without a \"victim\""));
                    }
                }
            }
            other => errors.push(format!("line {n}: unknown phase {other}")),
        }
    }

    if !saw_tail {
        errors.push("document ended without the otherData envelope tail".into());
    }

    // Every cell ran transactions, and every attempt leaves a span.
    cells.sort_by(|a, b| a.0.total_cmp(&b.0));
    for (i, (start, scenario, line_no)) in cells.iter().enumerate() {
        let end = cells.get(i + 1).map_or(f64::INFINITY, |c| c.0);
        if !attempt_starts.iter().any(|t| (*start..end).contains(t)) {
            errors.push(format!(
                "line {line_no}: cell {scenario} has no \"attempt\" span — its attempts \
                 bypass the transaction driver"
            ));
        }
    }

    // Span discipline per track: sorted by (start, longest-first),
    // a sweep with a stack of open ends must nest — an interval crossing
    // the enclosing span's end is a partial overlap, i.e. a broken
    // timeline.
    for ((pid, tid), mut spans) in by_track {
        spans.sort_by(|a, b| a.start.total_cmp(&b.start).then(b.end.total_cmp(&a.end)));
        let mut open: Vec<(f64, usize)> = Vec::new();
        for s in &spans {
            while open.last().is_some_and(|&(end, _)| end <= s.start) {
                open.pop();
            }
            if let Some(&(end, outer_line)) = open.last() {
                if s.end > end {
                    errors.push(format!(
                        "pid {pid} tid {tid}: span at line {} ([{:.3}, {:.3}]) partially overlaps \
                         span at line {outer_line} (ends {end:.3}) — neither disjoint nor nested",
                        s.line_no, s.start, s.end
                    ));
                }
            }
            open.push((s.end, s.line_no));
        }
    }

    if errors.is_empty() {
        Ok(summary)
    } else {
        Err(errors)
    }
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

    fn doc(events: &[&str], dropped: u64) -> String {
        let mut s = String::from("{\"traceEvents\": [\n");
        for (i, e) in events.iter().enumerate() {
            s.push_str(e);
            s.push_str(if i + 1 == events.len() { "\n" } else { ",\n" });
        }
        s.push_str(&format!(
            "], \"displayTimeUnit\": \"ms\", \"otherData\": {{\"dropped_events\": {dropped}}}}}\n"
        ));
        s
    }

    fn span(tid: u64, ts: f64, dur: f64) -> String {
        format!(
            "{{\"name\": \"attempt\", \"cat\": \"tl2\", \"ph\": \"X\", \"ts\": {ts:.3}, \
             \"dur\": {dur:.3}, \"pid\": 0, \"tid\": {tid}, \"args\": {{\"a\": 1, \"b\": 2}}}}"
        )
    }

    fn abort(tid: u64, ts: f64, var: &str) -> String {
        format!(
            "{{\"name\": \"abort\", \"cat\": \"read_validation\", \"ph\": \"i\", \"s\": \"t\", \
             \"ts\": {ts:.3}, \"pid\": 0, \"tid\": {tid}, \
             \"args\": {{\"cause\": \"read_validation\", \"var\": {var}, \"victim\": 7}}}}"
        )
    }

    #[test]
    fn well_formed_document_passes() {
        let d = doc(
            &[
                &span(0, 10.0, 5.0),
                &span(0, 11.0, 2.0), // nested inside the first
                &span(0, 20.0, 3.0), // disjoint after it
                &abort(0, 12.0, "17"),
                &abort(1, 12.5, "\"none\""),
            ],
            4,
        );
        let s = validate(&d).expect("valid doc");
        assert_eq!(s.events, 5);
        assert_eq!(s.spans, 3);
        assert_eq!(s.aborts, 2);
        assert_eq!(s.dropped, 4);
    }

    #[test]
    fn partial_overlap_on_one_track_fails() {
        // [10, 15) and [12, 18) on the same tid: neither disjoint nor
        // nested. The same shape on different tids is fine.
        let bad = doc(&[&span(0, 10.0, 5.0), &span(0, 12.0, 6.0)], 0);
        let errors = validate(&bad).unwrap_err();
        assert!(
            errors.iter().any(|e| e.contains("partially overlaps")),
            "{errors:?}"
        );
        let ok = doc(&[&span(0, 10.0, 5.0), &span(1, 12.0, 6.0)], 0);
        assert!(validate(&ok).is_ok());
        // Same tid under another pid (a parked proc's track) is another track.
        let parked = span(0, 12.0, 6.0).replace("\"pid\": 0", "\"pid\": 1");
        assert!(validate(&doc(&[&span(0, 10.0, 5.0), &parked], 0)).is_ok());
    }

    #[test]
    fn cell_without_an_attempt_span_fails() {
        let cell = |ts: f64, scenario: &str| {
            format!(
                "{{\"name\": \"cell\", \"cat\": \"{scenario}\", \"ph\": \"i\", \"s\": \"t\", \
                 \"ts\": {ts:.3}, \"pid\": 0, \"tid\": 9, \"args\": {{\"a\": 1, \"b\": 2}}}}"
            )
        };
        let first = cell(5.0, "intset-read-mostly");
        let second = cell(50.0, "mixed-map");
        // An attempt in each window passes; the intset cell's attempt
        // missing (what the pre-driver collection loop exported) fails.
        let ok = doc(
            &[&first, &span(0, 10.0, 5.0), &second, &span(1, 60.0, 5.0)],
            0,
        );
        assert!(validate(&ok).is_ok());
        let bad = doc(&[&first, &second, &span(1, 60.0, 5.0)], 0);
        let errors = validate(&bad).unwrap_err();
        assert!(
            errors.len() == 1 && errors[0].contains("cell \"intset-read-mostly\" has no"),
            "{errors:?}"
        );
    }

    #[test]
    fn abort_without_cause_or_var_fails() {
        let no_cause = doc(
            &[
                "{\"name\": \"abort\", \"ph\": \"i\", \"ts\": 1.0, \"pid\": 0, \"tid\": 0, \
                \"args\": {\"var\": 3, \"victim\": 1}}",
            ],
            0,
        );
        let errors = validate(&no_cause).unwrap_err();
        assert!(errors.iter().any(|e| e.contains("\"cause\"")), "{errors:?}");

        let no_var = doc(
            &[
                "{\"name\": \"abort\", \"ph\": \"i\", \"ts\": 1.0, \"pid\": 0, \"tid\": 0, \
                \"args\": {\"cause\": \"lock_busy\", \"victim\": 1}}",
            ],
            0,
        );
        let errors = validate(&no_var).unwrap_err();
        assert!(errors.iter().any(|e| e.contains("\"var\"")), "{errors:?}");
    }

    #[test]
    fn broken_envelope_fails() {
        assert!(validate("not json at all").is_err());
        // Missing tail: the array opens but otherData never arrives.
        let truncated = format!("{{\"traceEvents\": [\n{}\n", span(0, 1.0, 1.0));
        let errors = validate(&truncated).unwrap_err();
        assert!(
            errors.iter().any(|e| e.contains("envelope tail")),
            "{errors:?}"
        );
    }

    #[test]
    fn real_exporter_output_round_trips() {
        // The validator against the actual exporter, not a hand-written
        // imitation of it.
        let mut e = crate::ring::TxEvent {
            nanos: 5_000,
            thread: 2,
            kind: "attempt",
            stm: "tl2",
            a: 1,
            b: 2,
            dur: 1_000,
        };
        let mut events = vec![e];
        e.nanos = 5_200;
        e.dur = 0;
        e.kind = "abort";
        e.stm = "read_validation";
        e.a = NO_VAR;
        events.push(e);
        let d = crate::ring::Drained {
            events,
            dropped: 1,
            dropped_by_thread: vec![(2, 1)],
        };
        let s = validate(&chrome_json(&d)).expect("exporter output is valid");
        assert_eq!(s.events, 2);
        assert_eq!(s.spans, 1);
        assert_eq!(s.aborts, 1);
        assert_eq!(s.dropped, 1);
    }
}
