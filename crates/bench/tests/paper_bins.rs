//! The paper-reproduction bins are the repro, so each one that states a
//! claim is run here and must exit 0 *and* print its claim line (README
//! §Experiments lists bin → claim → line). The three throughput tables
//! (`exp_cm_table`, `exp_conflict_density`, `exp_scaling_table`) state no
//! pass/fail claim and take half a minute unoptimized; CI runs them in its
//! release step.

use std::process::Command;

/// Runs `exe`; every entry of `claims` lists fragments that must appear
/// together on one line of its stdout.
fn check(exe: &str, claims: &[&[&str]]) {
    let out = Command::new(exe).output().expect("the bin starts");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{exe} exited with {}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    for claim in claims {
        assert!(
            stdout
                .lines()
                .any(|line| claim.iter().all(|fragment| line.contains(fragment))),
            "{exe}: no output line carries {claim:?}\n{stdout}"
        );
    }
}

macro_rules! claim {
    ($test:ident, $bin:literal, $($line:expr),+ $(,)?) => {
        #[test]
        fn $test() {
            check(env!(concat!("CARGO_BIN_EXE_", $bin)), &[$(&$line),+]);
        }
    };
}

// Figure 1: the two-level history of one transaction is serializable.
claim!(fig1_two_level, "fig1_two_level", ["Serializable: true"]);
// Theorem 13 / Figure 2: t-variable-disjoint transactions meet on a
// descriptor (at least one pair, so not the "none" line).
claim!(
    fig2_dap,
    "fig2_dap",
    ["conflict-serializable: true"],
    ["pairs on descriptors"],
    ["both 0: T1 was revoked"],
);
// Corollary 11.
claim!(
    exp_consensus_number,
    "exp_consensus_number",
    ["consensus number = 2"]
);
// Algorithm 1: solo proposes never abort, and they agree.
claim!(
    exp_alg1_foc,
    "exp_alg1_foc",
    ["100 sequential proposes", "aborts = 0 "]
);
// Algorithm 2 is opaque: the exact checker finds a witness and the
// Appendix B opacity graph is acyclic.
claim!(
    exp_alg2_opacity,
    "exp_alg2_opacity",
    ["final-state OPAQUE"],
    ["graph acyclic: true"],
    ["consistent with witness order: true"],
);
// Algorithm 3 / Theorem 6: no ⊥ solo, and a stalled owner blocks nobody.
claim!(
    exp_alg3_eventual,
    "exp_alg3_eventual",
    ["⊥ returned 0 times"],
    ["without waiting for p0"],
);
// Theorem 5: crash-free OFTM histories satisfy Definitions 2 and 3
// together; Definition 4 is separated by the synthetic row.
claim!(
    exp_of_equivalence,
    "exp_of_equivalence",
    ["sim DSTM, crash-free", "| 100 | 0 | 0 | d = 0 |"],
    ["synthetic: abort 5µs after crash", "holds, d ="],
);
// Section 1's motivation: a napping owner is revoked, not waited for.
claim!(
    exp_preemption,
    "exp_preemption",
    ["dstm (obstruction-free)", "forcefully aborted"]
);
