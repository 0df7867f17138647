//! **`oftm-lint`** — STM-invariant static analysis over the workspace
//! sources.
//!
//! A deliberately lightweight lexical pass (no external parser — the
//! build environment is offline): each file is split line-by-line into
//! *code* and *comment* halves by a small state machine that understands
//! line/block comments, string/raw-string literals, and char literals
//! vs. lifetimes; `#[cfg(test)]` regions are skipped; function bodies
//! are tracked by brace depth. On top of that, eight rules encode hygiene
//! invariants the compiler cannot check:
//!
//! * **unsafe-safety** — every `unsafe` keyword must be justified by a
//!   `// SAFETY:` comment (or `# Safety` doc section) on the same line
//!   or within the 10 lines above.
//! * **ordering-comment** — every atomic `Ordering::{Relaxed, Acquire,
//!   Release, AcqRel, SeqCst}` use in a protocol-critical module must
//!   carry a `// ord:` comment naming the pairing it participates in,
//!   on the same line or within the 6 lines above.
//! * **await-in-attempt** — in the transaction driver
//!   (`crates/core/src/driver.rs`) and the layers that call it
//!   (`oftm-asyncrt`, `oftm-structs`), a function that runs a word-STM
//!   attempt (`.attempt(`, the driver's single entry, or a raw `.begin(`
//!   / `.begin_ro(`) must not contain `.await`: a live `WordTx` crossing
//!   a suspension point would pin an ownership record across arbitrary
//!   executor delays (the PR 5 invariant).
//! * **abort-tag-once** — an `.abort(AbortCause::…)` call site must sit
//!   in a function that manipulates a per-transaction tag-once flag
//!   (`dead` / `finished` / `cause_tagged` / `guard`), so one attempt
//!   can never tag two causes.
//!   `BudgetExhausted` is exempt: it is tagged by the driver, after
//!   the attempt has fully finished.
//! * **abort-var-attribution** — every such tagging call names the
//!   t-variable fought over, or declines with `VarAttr::NoVar`.
//! * **std-sync-lock** — `std::sync::Mutex` / `RwLock` are forbidden
//!   outside an explicit allowlist: the STM hot paths must stay
//!   lock-free, and the blessed blocking sites are enumerated.
//! * **clock-read** — `Instant::now` / `SystemTime::now` are forbidden
//!   outside an explicit allowlist of waits and diagnostics: a clock
//!   read costs more than a transaction's own bookkeeping, so the
//!   attempt path (driver, engines, table, kernels) reads none.
//! * **tm-event** — no engine names `TmOp` / `TmResp`: the TM events of
//!   every backend are recorded in one place, the wrapper
//!   `oftm_core::record::observe` puts around the transaction a `begin`
//!   returns, so each invocation is paired with one response by
//!   construction. Engines record base-object steps only.
//!
//! The library half ([`lint_source`]) is pure (path + source text in,
//! violations out) so the negative-oracle fixtures in
//! `tests/lint_oracles.rs` can drive it directly; the `oftm-lint` binary
//! walks the workspace `src/` trees and exits non-zero on any violation.

use std::fmt;
use std::path::{Path, PathBuf};

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Workspace-relative path, forward slashes.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Stable rule identifier.
    pub rule: &'static str,
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

pub const RULE_SAFETY: &str = "unsafe-safety";
pub const RULE_ORD: &str = "ordering-comment";
pub const RULE_AWAIT: &str = "await-in-attempt";
pub const RULE_ABORT: &str = "abort-tag-once";
pub const RULE_ABORT_VAR: &str = "abort-var-attribution";
pub const RULE_STD_LOCK: &str = "std-sync-lock";
pub const RULE_CLOCK: &str = "clock-read";
pub const RULE_TM_EVENT: &str = "tm-event";

// ---------------------------------------------------------------------------
// Lexical pass: split lines into code / comment, skip cfg(test), find fns.
// ---------------------------------------------------------------------------

#[derive(Clone, Copy)]
enum Mode {
    Code,
    /// Nested block comments, with depth.
    Block(usize),
    Str,
    /// Raw string, with hash count.
    RawStr(usize),
}

struct Line {
    /// Source with comments, string contents, and char literals removed.
    code: String,
    /// Concatenated comment text of the line.
    comment: String,
    /// Inside a `#[cfg(test)]` region.
    skipped: bool,
}

/// A function body: `start..=end` line indices (0-based), `code` is the
/// concatenated code text of the body (for containment queries).
struct FnSpan {
    start: usize,
    end: usize,
    code: String,
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Word-boundary token search in comment-stripped code.
fn has_token(code: &str, tok: &str) -> bool {
    let mut from = 0;
    while let Some(off) = code[from..].find(tok) {
        let at = from + off;
        let before_ok = !code[..at].chars().next_back().is_some_and(is_ident_char);
        let after_ok = !code[at + tok.len()..]
            .chars()
            .next()
            .is_some_and(is_ident_char);
        if before_ok && after_ok {
            return true;
        }
        from = at + tok.len();
    }
    false
}

/// Byte offsets of `(` in `code` whose immediately preceding identifier
/// contains `needle` — the call sites of abort-flavoured functions
/// (`.abort(`, `.abort_at(`, `tag_abort(`, `abort_self(`, …).
fn call_opens_with(code: &str, needle: &str) -> Vec<usize> {
    let mut out = Vec::new();
    for (i, c) in code.char_indices() {
        if c != '(' {
            continue;
        }
        let ident: String = code[..i]
            .chars()
            .rev()
            .take_while(|&ch| is_ident_char(ch))
            .collect();
        if ident.chars().rev().collect::<String>().contains(needle) {
            out.push(i);
        }
    }
    out
}

/// Lines a call-argument window may span before the scan gives up —
/// rustfmt wraps the widest attributed tagging call onto far fewer.
const CALL_WINDOW_CAP: usize = 12;

/// The code of the call expression whose `(` sits at byte `open` of line
/// `idx`: subsequent lines' code is appended until the parentheses
/// balance (or [`CALL_WINDOW_CAP`] lines, for malformed input).
fn call_window(lines: &[Line], idx: usize, open: usize) -> String {
    let mut w = String::new();
    let mut depth = 0usize;
    for (n, line) in lines.iter().enumerate().skip(idx).take(CALL_WINDOW_CAP) {
        let code: &str = if n == idx {
            &line.code[open..]
        } else {
            &line.code
        };
        for c in code.chars() {
            w.push(c);
            match c {
                '(' => depth += 1,
                ')' => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        return w;
                    }
                }
                _ => {}
            }
        }
        w.push(' ');
    }
    w
}

/// Splits one line into (code, comment) given the carried-over mode.
fn split_line(mode: &mut Mode, line: &str) -> (String, String) {
    let chars: Vec<char> = line.chars().collect();
    let n = chars.len();
    let mut code = String::new();
    let mut comment = String::new();
    let mut i = 0;
    while i < n {
        match *mode {
            Mode::Block(d) => {
                if chars[i] == '/' && i + 1 < n && chars[i + 1] == '*' {
                    *mode = Mode::Block(d + 1);
                    comment.push_str("/*");
                    i += 2;
                } else if chars[i] == '*' && i + 1 < n && chars[i + 1] == '/' {
                    *mode = if d == 1 {
                        Mode::Code
                    } else {
                        Mode::Block(d - 1)
                    };
                    i += 2;
                } else {
                    comment.push(chars[i]);
                    i += 1;
                }
            }
            Mode::Str => {
                if chars[i] == '\\' {
                    i += 2;
                } else if chars[i] == '"' {
                    *mode = Mode::Code;
                    code.push('"');
                    i += 1;
                } else {
                    i += 1;
                }
            }
            Mode::RawStr(h) => {
                if chars[i] == '"' && chars[i + 1..].iter().take_while(|&&c| c == '#').count() >= h
                {
                    *mode = Mode::Code;
                    code.push('"');
                    i += 1 + h;
                } else {
                    i += 1;
                }
            }
            Mode::Code => {
                let c = chars[i];
                if c == '/' && i + 1 < n && chars[i + 1] == '/' {
                    comment.push_str(&chars[i..].iter().collect::<String>());
                    i = n;
                } else if c == '/' && i + 1 < n && chars[i + 1] == '*' {
                    *mode = Mode::Block(1);
                    i += 2;
                } else if c == '"' {
                    *mode = Mode::Str;
                    code.push('"');
                    i += 1;
                } else if c == 'r'
                    && !code.chars().next_back().is_some_and(is_ident_char)
                    && i + 1 < n
                    && (chars[i + 1] == '"' || chars[i + 1] == '#')
                {
                    let hashes = chars[i + 1..].iter().take_while(|&&c| c == '#').count();
                    if i + 1 + hashes < n && chars[i + 1 + hashes] == '"' {
                        *mode = Mode::RawStr(hashes);
                        code.push('"');
                        i += 2 + hashes;
                    } else {
                        code.push(c);
                        i += 1;
                    }
                } else if c == '\'' {
                    // Char literal vs lifetime: a literal is '\…' or 'x'
                    // followed by a closing quote; anything else ('a in
                    // generics, '_, 'static) is a lifetime.
                    let is_literal =
                        (i + 1 < n && chars[i + 1] == '\\') || (i + 2 < n && chars[i + 2] == '\'');
                    if is_literal {
                        let mut j = i + 1;
                        while j < n {
                            if chars[j] == '\\' {
                                j += 2;
                            } else if chars[j] == '\'' {
                                j += 1;
                                break;
                            } else {
                                j += 1;
                            }
                        }
                        i = j;
                    } else {
                        code.push('\'');
                        i += 1;
                    }
                } else {
                    code.push(c);
                    i += 1;
                }
            }
        }
    }
    (code, comment)
}

/// Full structural pass: comment-stripped lines, `#[cfg(test)]` region
/// marks, and function-body spans.
fn analyze(src: &str) -> (Vec<Line>, Vec<FnSpan>) {
    let mut mode = Mode::Code;
    let mut lines: Vec<Line> = Vec::new();
    let mut spans: Vec<FnSpan> = Vec::new();

    let mut depth: isize = 0;
    let mut skipping: Option<isize> = None; // resume when depth back at value
    let mut pending_cfg = false;
    let mut pending_fn: Option<usize> = None;
    let mut fn_stack: Vec<(usize, isize)> = Vec::new(); // (start line, open depth)
    let mut open_spans: Vec<usize> = Vec::new(); // indices into `spans`

    for (idx, raw) in src.lines().enumerate() {
        let (code, comment) = split_line(&mut mode, raw);
        let mut line_skipped = skipping.is_some();

        if code.contains("cfg(test") {
            pending_cfg = true;
            line_skipped = true;
        } else if pending_cfg && skipping.is_none() {
            let t = code.trim();
            if !t.is_empty() && !t.starts_with("#[") {
                // First real item line after the attribute stack.
                line_skipped = true;
                if !code.contains('{') {
                    // Braceless item (`use …;`): only this line is skipped.
                    pending_cfg = false;
                }
            }
        }

        if has_token(&code, "fn") && skipping.is_none() {
            pending_fn = Some(idx);
        }

        for c in code.chars() {
            match c {
                '{' => {
                    if pending_cfg && skipping.is_none() {
                        skipping = Some(depth);
                        pending_cfg = false;
                        line_skipped = true;
                    }
                    if let Some(start) = pending_fn.take() {
                        spans.push(FnSpan {
                            start,
                            end: start,
                            code: String::new(),
                        });
                        open_spans.push(spans.len() - 1);
                        fn_stack.push((start, depth));
                    }
                    depth += 1;
                }
                '}' => {
                    depth -= 1;
                    if let Some(&(_, open)) = fn_stack.last() {
                        if open == depth {
                            fn_stack.pop();
                            let si = open_spans.pop().expect("span stack in sync");
                            spans[si].end = idx;
                        }
                    }
                    if skipping == Some(depth) {
                        skipping = None;
                    }
                }
                ';' => {
                    pending_fn = None; // bodyless declaration
                }
                _ => {}
            }
        }
        for &si in &open_spans {
            spans[si].code.push_str(&code);
            spans[si].code.push('\n');
        }

        lines.push(Line {
            code,
            comment,
            skipped: line_skipped,
        });
    }
    (lines, spans)
}

/// Innermost function span containing `line` (0-based index).
fn innermost_span(spans: &[FnSpan], line: usize) -> Option<&FnSpan> {
    spans
        .iter()
        .filter(|s| s.start <= line && line <= s.end)
        .min_by_key(|s| s.end - s.start)
}

// ---------------------------------------------------------------------------
// Rule scopes.
// ---------------------------------------------------------------------------

/// Files whose atomic orderings are protocol-critical: every
/// `Ordering::…` use there needs an `// ord:` pairing comment.
fn is_ordering_critical(rel: &str) -> bool {
    const EXACT: &[&str] = &[
        "crates/core/src/notify.rs",
        "crates/core/src/table.rs",
        "crates/core/src/pool.rs",
        "crates/core/src/reclaim.rs",
        "crates/core/src/contention.rs",
        "crates/core/src/kernel.rs",
        "crates/baselines/src/clock.rs",
        "crates/baselines/src/vlock.rs",
    ];
    const DIRS: &[&str] = &[
        "crates/core/src/dstm/",
        "crates/algo2/src/",
        "crates/hybrid/src/",
    ];
    EXACT.contains(&rel) || DIRS.iter().any(|p| rel.starts_with(p))
}

/// Blessed `std::sync` lock sites, each with the reason it may block.
/// By prefix: experiment-driver bins (result aggregation, not measured
/// code) and this crate's own model scheduler.
fn is_std_lock_allowed(rel: &str) -> bool {
    const DIRS: &[&str] = &["crates/verify/src/", "crates/bench/src/bin/"];
    const EXACT: &[&str] = &[
        // The executor's run queue and its Condvar-parked workers.
        "crates/shims/async-executor/src/lib.rs",
        // The timer wheel: a Condvar sleeper thread by design.
        "crates/asyncrt/src/timer.rs",
        // Trait-object plumbing and diagnostics off the transactional
        // hot path.
        "crates/foc/src/traits.rs",
        "crates/core/src/record.rs",
        // `StdSync`'s `MutexLike`: the reclamation bins and the notifier's
        // waiter lists, behind the facade (model-checked through `MMutex`)
        // and behind a nothing-pending / nobody-parked probe.
        "crates/core/src/kernel.rs",
        // The serialization gate *is* the algorithm.
        "crates/baselines/src/coarse.rs",
        // Cell materialization below the formal model (`registry.rs`'
        // module docs) and the scan-hint memo beside it.
        "crates/algo2/src/registry.rs",
        "crates/algo2/src/stm.rs",
        // The controller's window snapshot: taken by the one thread that
        // closes a window and by escalation requests, never per operation.
        "crates/hybrid/src/lib.rs",
    ];
    EXACT.contains(&rel) || DIRS.iter().any(|p| rel.starts_with(p))
}

/// Blessed clock-read sites: waits between attempts and diagnostics,
/// never the attempt itself. By prefix: experiment-driver bins (they time
/// whole runs).
fn is_clock_read_allowed(rel: &str) -> bool {
    const DIRS: &[&str] = &["crates/bench/src/bin/"];
    const EXACT: &[&str] = &[
        // The sync loop's backoff spin and the eventual-ic spin.
        "crates/core/src/contention.rs",
        // The step recorder's timeline (instrumented runs only).
        "crates/core/src/record.rs",
        // DSTM's eventual-ic grace clock: its epoch, read only when a
        // conflict is resolved under that variant.
        "crates/core/src/dstm/stm.rs",
        // The park watchdog's deadline and the timer wheel.
        "crates/asyncrt/src/future.rs",
        "crates/asyncrt/src/timer.rs",
    ];
    EXACT.contains(&rel) || DIRS.iter().any(|p| rel.starts_with(p))
}

/// Engine sources, where TM events must not be recorded by hand: DSTM's,
/// the baselines', Algorithm 2's and the hybrid's.
fn is_engine(rel: &str) -> bool {
    const DIRS: &[&str] = &[
        "crates/core/src/dstm/",
        "crates/baselines/src/",
        "crates/algo2/src/",
        "crates/hybrid/src/",
    ];
    DIRS.iter().any(|p| rel.starts_with(p))
}

/// Crates whose abort-tagging mentions are not backend tag sites (the
/// stats sink defining `abort`/`abort_at`, and this crate's own scanner).
fn is_abort_rule_exempt(rel: &str) -> bool {
    rel.starts_with("crates/obs/") || rel.starts_with("crates/verify/")
}

const ORDERING_VARIANTS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

// ---------------------------------------------------------------------------
// The rules.
// ---------------------------------------------------------------------------

/// True if `code` uses `unsafe` somewhere that creates a justification
/// obligation — i.e. anywhere except the bare fn-pointer *type*
/// `unsafe fn(…)`, which imposes its obligation on callers, not here.
fn has_unsafe_obligation(code: &str) -> bool {
    let mut from = 0;
    while let Some(off) = code[from..].find("unsafe") {
        let at = from + off;
        from = at + "unsafe".len();
        let before_ok = !code[..at].chars().next_back().is_some_and(is_ident_char);
        let after = &code[at + "unsafe".len()..];
        let after_ok = !after.chars().next().is_some_and(is_ident_char);
        if !(before_ok && after_ok) {
            continue;
        }
        let rest = after.trim_start();
        let is_fn_pointer_type = rest
            .strip_prefix("fn")
            .is_some_and(|r| r.trim_start().starts_with('('));
        if !is_fn_pointer_type {
            return true;
        }
    }
    false
}

/// True if any comment within `lookback` lines at or above `idx` contains
/// `needle`.
fn comment_nearby(lines: &[Line], idx: usize, lookback: usize, needles: &[&str]) -> bool {
    let lo = idx.saturating_sub(lookback);
    lines[lo..=idx]
        .iter()
        .any(|l| needles.iter().any(|n| l.comment.contains(n)))
}

/// Runs every applicable rule over one source file. `rel` is the
/// workspace-relative path (forward slashes) — it selects which rules and
/// allowlists apply.
pub fn lint_source(rel: &str, src: &str) -> Vec<Violation> {
    let (lines, spans) = analyze(src);
    let mut out: Vec<Violation> = Vec::new();
    let mut push = |line: usize, rule: &'static str, message: String| {
        out.push(Violation {
            file: rel.to_string(),
            line: line + 1,
            rule,
            message,
        });
    };

    let in_attempt_scope = rel == "crates/core/src/driver.rs"
        || rel.starts_with("crates/asyncrt/src/")
        || rel.starts_with("crates/structs/src/");

    for (idx, line) in lines.iter().enumerate() {
        if line.skipped {
            continue;
        }
        let code = &line.code;

        // unsafe-safety -----------------------------------------------------
        if has_unsafe_obligation(code) && !comment_nearby(&lines, idx, 10, &["SAFETY", "# Safety"])
        {
            push(
                idx,
                RULE_SAFETY,
                "`unsafe` without a `// SAFETY:` justification on the line or within 10 lines above"
                    .to_string(),
            );
        }

        // ordering-comment --------------------------------------------------
        if is_ordering_critical(rel) {
            let used: Vec<&str> = ORDERING_VARIANTS
                .iter()
                .filter(|v| code.contains(&format!("Ordering::{v}")))
                .copied()
                .collect();
            if !used.is_empty() && !comment_nearby(&lines, idx, 6, &["ord:"]) {
                push(
                    idx,
                    RULE_ORD,
                    format!(
                        "atomic Ordering::{} in a protocol-critical module without an `// ord:` \
                         pairing comment on the line or within 6 lines above",
                        used.join("/")
                    ),
                );
            }
        }

        // await-in-attempt --------------------------------------------------
        if in_attempt_scope && code.contains(".await") {
            if let Some(span) = innermost_span(&spans, idx) {
                if span.code.contains(".attempt(")
                    || span.code.contains(".begin(")
                    || span.code.contains(".begin_ro(")
                {
                    push(
                        idx,
                        RULE_AWAIT,
                        "`.await` inside a function that runs a word-STM attempt: a live \
                         transaction must never cross a suspension point"
                            .to_string(),
                    );
                }
            }
        }

        // abort-tag-once / abort-var-attribution ----------------------------
        // Both rules scan the full (possibly rustfmt-wrapped) argument
        // window of every abort-flavoured call that names a literal
        // `AbortCause::` — relay calls passing a computed cause are the
        // callee's problem, enforced at ITS literal-cause call sites.
        if !is_abort_rule_exempt(rel) {
            for open in call_opens_with(code, "abort") {
                let window = call_window(&lines, idx, open);
                let Some(cpos) = window.find("AbortCause::") else {
                    continue;
                };
                let cause: String = window[cpos + "AbortCause::".len()..]
                    .chars()
                    .take_while(|&c| is_ident_char(c))
                    .collect();
                // abort-var-attribution: every tagging call must attribute
                // the conflicting t-variable, or decline explicitly with
                // `VarAttr::NoVar` — budget/retry causes included (their
                // declining is what keeps the forensics table honest).
                if !window.contains("VarAttr::") {
                    push(
                        idx,
                        RULE_ABORT_VAR,
                        format!(
                            "abort cause {cause} tagged without a `VarAttr` attribution — name \
                             the t-variable fought over or decline with `VarAttr::NoVar`"
                        ),
                    );
                }
                // abort-tag-once: only direct stats-sink calls — helpers
                // like `tag_abort` guard internally.
                let direct =
                    code[..open].ends_with(".abort") || code[..open].ends_with(".abort_at");
                if direct && cause != "BudgetExhausted" {
                    // The tag-once flag vocabulary across the backends:
                    // `dead`/`finished` (tl, tl2, dstm), `cause_tagged`
                    // (algo2), `guard` (coarse — the gate handle doubles
                    // as the "attempt still undecided" flag).
                    let guarded = innermost_span(&spans, idx).is_some_and(|s| {
                        ["dead", "finished", "cause_tagged", "guard"]
                            .iter()
                            .any(|flag| has_token(&s.code, flag))
                    });
                    if !guarded {
                        push(
                            idx,
                            RULE_ABORT,
                            format!(
                                "abort cause {cause} tagged in a function that does not touch a \
                                 per-transaction tag-once flag \
                                 (`dead`/`finished`/`cause_tagged`/`guard`)"
                            ),
                        );
                    }
                }
            }
        }

        // std-sync-lock -----------------------------------------------------
        if !is_std_lock_allowed(rel) {
            let qualified = code.contains("std::sync::Mutex") || code.contains("std::sync::RwLock");
            let imported = code.trim_start().starts_with("use ")
                && code.contains("std::sync")
                && (has_token(code, "Mutex") || has_token(code, "RwLock"));
            if qualified || imported {
                push(
                    idx,
                    RULE_STD_LOCK,
                    "std::sync::Mutex/RwLock outside the blocking-site allowlist — use atomics, \
                     or add the file to the allowlist with a rationale"
                        .to_string(),
                );
            }
        }

        // clock-read --------------------------------------------------------
        if !is_clock_read_allowed(rel)
            && (has_token(code, "Instant::now") || has_token(code, "SystemTime::now"))
        {
            push(
                idx,
                RULE_CLOCK,
                "clock read outside the wait/diagnostic allowlist — count instead of timing, \
                 or add the file to the allowlist with a rationale"
                    .to_string(),
            );
        }

        // tm-event ----------------------------------------------------------
        if is_engine(rel) && (has_token(code, "TmOp") || has_token(code, "TmResp")) {
            push(
                idx,
                RULE_TM_EVENT,
                "TM event named in an engine — return the transaction through \
                 `record::observe`, which records every invocation and response"
                    .to_string(),
            );
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Workspace walk.
// ---------------------------------------------------------------------------

/// Result of linting a workspace tree.
pub struct WorkspaceReport {
    pub files_scanned: usize,
    pub violations: Vec<Violation>,
}

/// Directory components never linted: build output, test/bench/example
/// code (different hygiene regime), and the lint's own negative fixtures.
const SKIP_DIRS: &[&str] = &["target", "tests", "benches", "examples", "fixtures", ".git"];

fn collect_rs(dir: &Path, under_src: bool, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<_> = std::fs::read_dir(dir)?.collect::<Result<_, _>>()?;
    entries.sort_by_key(|e| e.file_name());
    for e in entries {
        let path = e.path();
        let name = e.file_name().to_string_lossy().into_owned();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_str()) {
                continue;
            }
            collect_rs(&path, under_src || name == "src", out)?;
        } else if under_src && path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lints every `.rs` file under the `src/` trees of `root` (the workspace
/// root: `root/src` plus `root/crates/*/…/src`), honouring `SKIP_DIRS`.
pub fn lint_workspace(root: &Path) -> std::io::Result<WorkspaceReport> {
    let mut files = Vec::new();
    for top in ["src", "crates"] {
        let dir = root.join(top);
        if dir.is_dir() {
            collect_rs(&dir, top == "src", &mut files)?;
        }
    }
    let mut violations = Vec::new();
    for path in &files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let src = std::fs::read_to_string(path)?;
        violations.extend(lint_source(&rel, &src));
    }
    Ok(WorkspaceReport {
        files_scanned: files.len(),
        violations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn classify(src: &str) -> Vec<(String, String)> {
        let mut mode = Mode::Code;
        src.lines().map(|l| split_line(&mut mode, l)).collect()
    }

    #[test]
    fn strips_line_and_block_comments() {
        let c = classify("let x = 1; // SAFETY: fine\nlet y = /* ord: no */ 2;");
        assert_eq!(c[0].0.trim(), "let x = 1;");
        assert!(c[0].1.contains("SAFETY"));
        assert_eq!(c[1].0.replace(' ', ""), "lety=2;");
        assert!(c[1].1.contains("ord: no"));
    }

    #[test]
    fn strips_string_contents_and_char_literals() {
        let c =
            classify(r#"let s = "unsafe Ordering::SeqCst"; let c = '{'; let l: &'static str = s;"#);
        assert!(!c[0].0.contains("unsafe"));
        assert!(!c[0].0.contains('{'));
        assert!(c[0].0.contains("'static"));
    }

    #[test]
    fn block_comments_nest_and_span_lines() {
        let c = classify("/* outer /* inner */ still comment */ code_here();");
        assert_eq!(c[0].0.trim(), "code_here();");
    }

    #[test]
    fn raw_strings_are_opaque() {
        let c = classify(r##"let s = r#"unsafe // not a comment"#; tail();"##);
        assert!(!c[0].0.contains("unsafe"));
        assert!(c[0].0.contains("tail();"));
        assert!(c[0].1.is_empty());
    }

    #[test]
    fn cfg_test_regions_are_skipped() {
        let src = "fn a() { unsafe { x() } }\n#[cfg(test)]\nmod tests {\n    fn b() { unsafe { y() } }\n}\n";
        let v = lint_source("crates/demo/src/lib.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 1);
    }

    #[test]
    fn fn_spans_nest() {
        let (_, spans) = analyze("fn outer() {\n    fn inner() {\n        body();\n    }\n}\n");
        assert_eq!(spans.len(), 2);
        let inner = innermost_span(&spans, 2).unwrap();
        assert_eq!(inner.start, 1);
        assert!(inner.code.contains("body"));
    }

    #[test]
    fn abort_call_opens_are_found_by_ident() {
        let code = "self.tag_abort(a); tx.try_abort(); plain(); x.abort_at(b)";
        let opens = call_opens_with(code, "abort");
        assert_eq!(opens.len(), 3, "{opens:?}"); // tag_abort, try_abort, abort_at
        assert!(opens.iter().all(|&i| code.as_bytes()[i] == b'('));
    }

    #[test]
    fn call_window_joins_wrapped_arguments() {
        let (lines, _) = analyze(
            "fn f() {\n    s.abort_at(\n        AbortCause::LockBusy, // cause\n        \
             VarAttr::Var(x.0),\n    );\n    next();\n}\n",
        );
        let open = lines[1].code.find('(').unwrap();
        let w = call_window(&lines, 1, open);
        assert!(w.contains("AbortCause::LockBusy"), "{w}");
        assert!(w.contains("VarAttr::Var"), "{w}");
        assert!(
            !w.contains("next"),
            "window must stop at the balanced close: {w}"
        );
    }

    #[test]
    fn ordering_rule_only_in_critical_files() {
        let src = "fn f(a: &AtomicU64) { a.load(Ordering::SeqCst); }\n";
        assert!(lint_source("crates/core/src/notify.rs", src)
            .iter()
            .any(|v| v.rule == RULE_ORD));
        assert!(lint_source("crates/obs/src/stats.rs", src).is_empty());
    }
}
