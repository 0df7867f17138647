//! # oftm-bench — workload generators and the differential runner
//!
//! Shared machinery for the paper-reproduction binaries (`src/bin/*`, one
//! per figure/claim of the paper — the root README's "Experiments" section
//! is the per-experiment index) and the differential scenario runner
//! ([`harness`]). Everything operates through the uniform [`WordStm`]
//! interface so DSTM, Algorithm 2 and the lock-based baselines run
//! byte-identical workloads. Timing comparisons across commits come from
//! the `benchmark/` package, not from here.

pub mod harness;

use oftm_baselines::{CoarseStm, Tl2Stm, TlStm};
use oftm_core::api::{run_transaction, WordStm};
use oftm_core::cm::{Aggressive, ContentionManager, Courteous, Greedy, Karma, Polite, Randomized};
use oftm_core::dstm::{Dstm, DstmWord};
use oftm_core::record::Recorder;
use oftm_histories::{BaseObjId, DapViolation, TVarId};
use oftm_hybrid::{HybridConfig, HybridStm};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// All STM implementations under test, by name.
pub const STM_NAMES: &[&str] = &[
    "dstm",
    "tl",
    "tl2",
    "coarse",
    "algo2-cas",
    "algo2-splitter",
    "hybrid",
];

/// The `"dstm"` backend of [`make_stm`], concretely typed: the DAP
/// experiments need its commit counter's base-object id.
pub fn make_dstm(recorder: Option<Arc<Recorder>>) -> DstmWord {
    let mut d = Dstm::new(Arc::new(Polite::default()));
    if let Some(r) = recorder {
        d = d.with_recorder(r);
    }
    DstmWord::new(d)
}

/// Splits the strict-DAP violations of a DSTM history into the distinct
/// transaction pairs that met on some descriptor and those that met on
/// the commit counter `counter` (a pair can be in both): Theorem 13's
/// hot spot and the engine's chosen one, reported apart.
pub fn dap_pairs_by_object(violations: &[DapViolation], counter: BaseObjId) -> (usize, usize) {
    let pairs = |on_counter: bool| {
        violations
            .iter()
            .filter(|v| (v.obj == counter) == on_counter)
            .map(|v| (v.tx_a, v.tx_b))
            .collect::<std::collections::BTreeSet<_>>()
            .len()
    };
    (pairs(false), pairs(true))
}

/// Builds an STM implementation by name, optionally instrumented.
pub fn make_stm(name: &str, recorder: Option<Arc<Recorder>>) -> Box<dyn WordStm> {
    match name {
        "dstm" => Box::new(make_dstm(recorder)),
        "tl" => {
            let mut s = TlStm::new();
            if let Some(r) = recorder {
                s = s.with_recorder(r);
            }
            Box::new(s)
        }
        "tl2" => {
            let mut s = Tl2Stm::new();
            if let Some(r) = recorder {
                s = s.with_recorder(r);
            }
            Box::new(s)
        }
        "coarse" => {
            let mut s = CoarseStm::new();
            if let Some(r) = recorder {
                s = s.with_recorder(r);
            }
            Box::new(s)
        }
        "algo2-cas" => {
            let mut s = oftm_algo2::Algo2Stm::new(oftm_algo2::FocKind::Cas);
            if let Some(r) = recorder {
                s = s.with_recorder(r);
            }
            Box::new(s)
        }
        "algo2-splitter" => {
            let mut s = oftm_algo2::Algo2Stm::new(oftm_algo2::FocKind::SplitterTas);
            if let Some(r) = recorder {
                s = s.with_recorder(r);
            }
            Box::new(s)
        }
        "hybrid" => match recorder {
            Some(r) => Box::new(HybridStm::with_recorder(HybridConfig::default(), r)),
            None => Box::new(HybridStm::new(HybridConfig::default())),
        },
        // Hair-trigger policy variant for migration-forcing runs; not in
        // STM_NAMES (it deliberately thrashes on healthy workloads).
        "hybrid-eager" => match recorder {
            Some(r) => Box::new(HybridStm::with_recorder(HybridConfig::eager(), r)),
            None => Box::new(HybridStm::new(HybridConfig::eager())),
        },
        other => panic!("unknown STM {other}"),
    }
}

/// Builds a DSTM with a contention manager chosen by name (E10).
pub fn make_dstm_with_cm(cm: &str) -> Box<dyn WordStm> {
    let manager: Arc<dyn ContentionManager> = match cm {
        "aggressive" => Arc::new(Aggressive),
        "polite" => Arc::new(Polite::default()),
        "karma" => Arc::new(Karma::default()),
        "greedy" => Arc::new(Greedy::default()),
        "randomized" => Arc::new(Randomized::default()),
        "courteous" => Arc::new(Courteous::default()),
        other => panic!("unknown contention manager {other}"),
    };
    Box::new(DstmWord::new(Dstm::new(manager)))
}

pub const CM_NAMES: &[&str] = &[
    "aggressive",
    "polite",
    "karma",
    "greedy",
    "randomized",
    "courteous",
];

/// A workload shape over word t-variables.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Each thread increments its own private counter: perfect disjoint
    /// access (the strict-DAP scaling probe, E8).
    DisjointCounters,
    /// All threads increment one shared counter: maximal conflict.
    SharedCounter,
    /// Read `reads` random variables, then write one random variable.
    ReadMostly { vars: usize, reads: usize },
    /// Transfer between random account pairs, preserving the total.
    Transfer { accounts: usize },
}

impl Workload {
    /// Number of t-variables to register for `threads` workers.
    pub fn var_count(&self, threads: usize) -> usize {
        match self {
            Workload::DisjointCounters => threads,
            Workload::SharedCounter => 1,
            Workload::ReadMostly { vars, .. } => *vars,
            Workload::Transfer { accounts } => *accounts,
        }
    }
}

/// Result of one throughput run.
#[derive(Clone, Copy, Debug)]
pub struct RunStats {
    pub commits: u64,
    pub attempts: u64,
    pub elapsed: Duration,
}

impl RunStats {
    pub fn commits_per_sec(&self) -> f64 {
        self.commits as f64 / self.elapsed.as_secs_f64()
    }

    /// attempts / commits (1.0 = no retries).
    pub fn attempt_ratio(&self) -> f64 {
        self.attempts as f64 / self.commits.max(1) as f64
    }
}

/// Simple deterministic per-thread RNG (splitmix64) — keeps workloads
/// reproducible without coordinating through a shared generator.
pub struct SplitMix(pub u64);

impl SplitMix {
    #[allow(clippy::should_implement_trait)] // not an Iterator: infinite, no Item
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Runs `ops_per_thread` committed transactions per thread of the given
/// workload and reports aggregate statistics.
pub fn run_workload(
    stm: &dyn WordStm,
    workload: Workload,
    threads: usize,
    ops_per_thread: u64,
) -> RunStats {
    let nvars = workload.var_count(threads);
    for v in 0..nvars {
        let init = match workload {
            Workload::Transfer { .. } => 1000,
            _ => 0,
        };
        stm.register_tvar(TVarId(v as u64), init);
    }

    use std::sync::atomic::{AtomicU64, Ordering};
    let attempts = AtomicU64::new(0);
    let start = Instant::now();
    std::thread::scope(|s| {
        for t in 0..threads {
            let attempts = &attempts;
            let stm = &stm;
            s.spawn(move || {
                let mut rng = SplitMix(0xC0FFEE ^ (t as u64) << 17);
                let mut local_attempts = 0u64;
                for _ in 0..ops_per_thread {
                    let (_, tries) = match workload {
                        Workload::DisjointCounters => {
                            let x = TVarId(t as u64);
                            run_transaction(*stm, t as u32, |tx| {
                                let v = tx.read(x)?;
                                tx.write(x, v + 1)
                            })
                        }
                        Workload::SharedCounter => {
                            let x = TVarId(0);
                            run_transaction(*stm, t as u32, |tx| {
                                let v = tx.read(x)?;
                                tx.write(x, v + 1)
                            })
                        }
                        Workload::ReadMostly { vars, reads } => {
                            let targets: Vec<TVarId> =
                                (0..reads).map(|_| TVarId(rng.below(vars) as u64)).collect();
                            let wvar = TVarId(rng.below(vars) as u64);
                            run_transaction(*stm, t as u32, |tx| {
                                let mut acc = 0u64;
                                for &x in &targets {
                                    acc = acc.wrapping_add(tx.read(x)?);
                                }
                                tx.write(wvar, acc)
                            })
                        }
                        Workload::Transfer { accounts } => {
                            let from = TVarId(rng.below(accounts) as u64);
                            let to = TVarId(rng.below(accounts) as u64);
                            let amount = rng.next() % 5;
                            run_transaction(*stm, t as u32, |tx| {
                                let f = tx.read(from)?;
                                if from != to && f >= amount {
                                    let tv = tx.read(to)?;
                                    tx.write(from, f - amount)?;
                                    tx.write(to, tv + amount)?;
                                }
                                Ok(())
                            })
                        }
                    };
                    local_attempts += u64::from(tries);
                }
                attempts.fetch_add(local_attempts, Ordering::Relaxed);
            });
        }
    });
    let elapsed = start.elapsed();
    RunStats {
        commits: threads as u64 * ops_per_thread,
        attempts: attempts.load(std::sync::atomic::Ordering::Relaxed),
        elapsed,
    }
}

/// Prints a Markdown-style table row (the experiment binaries share one
/// output format).
pub fn print_row(cells: &[String]) {
    println!("| {} |", cells.join(" | "));
}

pub fn print_header(cols: &[&str]) {
    println!("| {} |", cols.join(" | "));
    println!(
        "|{}|",
        cols.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_stms_constructible() {
        for name in STM_NAMES {
            let stm = make_stm(name, None);
            assert_eq!(&stm.name(), name);
        }
    }

    #[test]
    fn all_cms_constructible() {
        for cm in CM_NAMES {
            let _ = make_dstm_with_cm(cm);
        }
    }

    #[test]
    #[should_panic(expected = "unknown STM")]
    fn unknown_stm_rejected() {
        let _ = make_stm("nope", None);
    }

    #[test]
    fn workload_var_counts() {
        assert_eq!(Workload::DisjointCounters.var_count(4), 4);
        assert_eq!(Workload::SharedCounter.var_count(4), 1);
        assert_eq!(Workload::ReadMostly { vars: 32, reads: 4 }.var_count(4), 32);
    }

    #[test]
    fn disjoint_counters_exact() {
        for name in ["dstm", "tl", "tl2", "coarse"] {
            let stm = make_stm(name, None);
            let stats = run_workload(&*stm, Workload::DisjointCounters, 2, 50);
            assert_eq!(stats.commits, 100, "{name}");
            assert!(stats.attempt_ratio() >= 1.0);
        }
    }

    #[test]
    fn shared_counter_all_stms_correct() {
        // Correctness cross-check via workload: total increments must
        // survive contention on every implementation.
        for name in STM_NAMES {
            let stm = make_stm(name, None);
            let _ = run_workload(&*stm, Workload::SharedCounter, 3, 30);
            // Re-register returns same var; read it via a transaction.
            let (v, _) = run_transaction(&*stm, 99, |tx| tx.read(TVarId(0)));
            assert_eq!(v, 90, "{name}: lost updates");
        }
    }

    #[test]
    fn transfer_preserves_total() {
        for name in ["dstm", "tl", "tl2"] {
            let stm = make_stm(name, None);
            let _ = run_workload(&*stm, Workload::Transfer { accounts: 8 }, 3, 50);
            let (total, _) = run_transaction(&*stm, 99, |tx| {
                let mut sum = 0u64;
                for v in 0..8 {
                    sum += tx.read(TVarId(v))?;
                }
                Ok(sum)
            });
            assert_eq!(total, 8 * 1000, "{name}: money not conserved");
        }
    }

    #[test]
    fn splitmix_deterministic() {
        let mut a = SplitMix(1);
        let mut b = SplitMix(1);
        for _ in 0..10 {
            assert_eq!(a.next(), b.next());
        }
    }
}
