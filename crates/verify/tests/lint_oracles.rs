//! Negative oracles for `oftm-lint`: each fixture contains a known
//! violation of one rule (and a corrected twin that must pass), so a
//! regression that silently stops detecting a class of bug fails here —
//! the lint is itself linted.

use oftm_verify::lint::{
    lint_source, lint_workspace, Violation, RULE_ABORT, RULE_ABORT_VAR, RULE_AWAIT, RULE_CLOCK,
    RULE_ORD, RULE_SAFETY, RULE_STD_LOCK,
};

fn rule_lines(violations: &[Violation], rule: &str) -> Vec<usize> {
    violations
        .iter()
        .filter(|v| v.rule == rule)
        .map(|v| v.line)
        .collect()
}

#[test]
fn missing_safety_comment_fails() {
    let src = include_str!("fixtures/missing_safety.rs");
    let v = lint_source("crates/core/src/pool.rs", src);
    let lines = rule_lines(&v, RULE_SAFETY);
    assert_eq!(lines.len(), 1, "exactly the unjustified block: {v:?}");
    assert!(src
        .lines()
        .nth(lines[0] - 1)
        .unwrap()
        .contains("unsafe { *p }"));
}

#[test]
fn unpaired_ordering_fails_in_critical_module() {
    let src = include_str!("fixtures/unpaired_ord.rs");
    let v = lint_source("crates/core/src/notify.rs", src);
    let lines = rule_lines(&v, RULE_ORD);
    assert_eq!(lines.len(), 1, "exactly the unpaired site: {v:?}");
    assert!(src
        .lines()
        .nth(lines[0] - 1)
        .unwrap()
        .contains("Ordering::SeqCst"));
    // The same source outside the protocol-critical set is not checked.
    assert!(rule_lines(&lint_source("crates/obs/src/stats.rs", src), RULE_ORD).is_empty());
}

#[test]
fn await_across_live_attempt_fails() {
    let src = include_str!("fixtures/await_in_attempt.rs");
    let v = lint_source("crates/asyncrt/src/future.rs", src);
    let lines = rule_lines(&v, RULE_AWAIT);
    assert_eq!(lines.len(), 1, "exactly the live-tx await: {v:?}");
    assert!(src
        .lines()
        .nth(lines[0] - 1)
        .unwrap()
        .contains("yield_to_executor().await"));
    // The driver itself is in scope, so an `.await` can never appear
    // around its attempt; elsewhere the rule does not apply.
    assert_eq!(
        rule_lines(&lint_source("crates/core/src/driver.rs", src), RULE_AWAIT),
        lines
    );
    assert!(rule_lines(&lint_source("crates/core/src/api.rs", src), RULE_AWAIT).is_empty());
}

#[test]
fn unguarded_abort_tag_fails() {
    let src = include_str!("fixtures/double_abort_tag.rs");
    let v = lint_source("crates/baselines/src/vlock.rs", src);
    let lines = rule_lines(&v, RULE_ABORT);
    assert_eq!(lines.len(), 1, "exactly the unguarded tag: {v:?}");
    assert_eq!(lines[0], 7, "{v:?}");
}

#[test]
fn missing_var_attribution_fails() {
    let src = include_str!("fixtures/abort_no_var.rs");
    let v = lint_source("crates/baselines/src/vlock.rs", src);
    let lines = rule_lines(&v, RULE_ABORT_VAR);
    assert_eq!(lines.len(), 1, "exactly the unattributed tag: {v:?}");
    assert_eq!(lines[0], 10, "{v:?}");
    assert!(src
        .lines()
        .nth(lines[0] - 1)
        .unwrap()
        .contains("self.packed_id(), holder"));
    // The wrapped GoodTx call and the explicit NoVar decline both pass,
    // and every site sits behind a tag-once flag.
    assert!(rule_lines(&v, RULE_ABORT).is_empty(), "{v:?}");
}

#[test]
fn std_lock_outside_allowlist_fails() {
    let src = include_str!("fixtures/std_lock.rs");
    let v = lint_source("crates/core/src/table.rs", src);
    // The rule flags introduction points (imports and fully qualified
    // paths); the bare `Mutex<u64>` use rides on the flagged import.
    let lines = rule_lines(&v, RULE_STD_LOCK);
    assert_eq!(lines.len(), 2, "import + qualified use: {v:?}");
    // Allowlisted files may keep their blocking sites.
    assert!(rule_lines(
        &lint_source("crates/asyncrt/src/timer.rs", src),
        RULE_STD_LOCK
    )
    .is_empty());
    // The allowlist names files, not spellings or directories: a vendored
    // crate is held to the rule like any other.
    let shim = lint_source("crates/shims/rand/src/lib.rs", src);
    assert_eq!(rule_lines(&shim, RULE_STD_LOCK).len(), 2, "{shim:?}");
}

#[test]
fn clock_read_outside_allowlist_fails() {
    let src = include_str!("fixtures/clock_read.rs");
    // The attempt path: the driver, every engine, the table, the kernels.
    for rel in [
        "crates/core/src/driver.rs",
        "crates/core/src/dstm/tx.rs",
        "crates/baselines/src/vlock.rs",
        "crates/baselines/src/coarse.rs",
        "crates/core/src/table.rs",
        "crates/core/src/kernel.rs",
    ] {
        let v = lint_source(rel, src);
        let lines = rule_lines(&v, RULE_CLOCK);
        // The two reads in `attempt`; not the comment, the string, a
        // look-alike type or the test module.
        assert_eq!(lines.len(), 2, "{rel}: {v:?}");
        assert!(src
            .lines()
            .nth(lines[0] - 1)
            .unwrap()
            .contains("Instant::now()"));
        assert!(src
            .lines()
            .nth(lines[1] - 1)
            .unwrap()
            .contains("SystemTime::now()"));
    }
    // The waits and diagnostics may read the clock.
    for rel in [
        "crates/core/src/contention.rs",
        "crates/core/src/record.rs",
        "crates/core/src/dstm/stm.rs",
        "crates/asyncrt/src/future.rs",
        "crates/asyncrt/src/timer.rs",
        "crates/bench/src/bin/exp_preemption.rs",
    ] {
        assert!(
            rule_lines(&lint_source(rel, src), RULE_CLOCK).is_empty(),
            "{rel}"
        );
    }
}

/// The workspace itself must be clean — this is the same gate CI's
/// `verify` job runs via the `oftm-lint` binary, wired into `cargo test`
/// so a violation fails the tier-1 suite too.
#[test]
fn workspace_sources_pass_the_lint() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf();
    let report = lint_workspace(&root).expect("walk workspace");
    assert!(
        report.files_scanned > 40,
        "suspiciously few files: {}",
        report.files_scanned
    );
    let msgs: Vec<String> = report.violations.iter().map(|v| v.to_string()).collect();
    assert!(
        report.violations.is_empty(),
        "workspace lint violations:\n{}",
        msgs.join("\n")
    );
}
