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

use oftm_algo2::{Algo2Stm, FocKind};
use oftm_baselines::{CoarseStm, Tl2Stm, TlStm};
use oftm_core::api::WordStm;
use oftm_core::dstm::{Dstm, DstmWord};
use oftm_core::record::Recorder;
use oftm_histories::{BaseObjId, DapViolation};
use oftm_hybrid::{HybridConfig, HybridStm};
use std::sync::Arc;

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
    DstmWord::new(recorded(Dstm::default(), recorder, Dstm::with_recorder))
}

/// `stm`, with `recorder` attached by `attach` when there is one.
fn recorded<S>(stm: S, recorder: Option<Arc<Recorder>>, attach: fn(S, Arc<Recorder>) -> S) -> S {
    match recorder {
        Some(r) => attach(stm, r),
        None => stm,
    }
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
        "tl" => Box::new(recorded(TlStm::new(), recorder, TlStm::with_recorder)),
        "tl2" => Box::new(recorded(Tl2Stm::new(), recorder, Tl2Stm::with_recorder)),
        "coarse" => Box::new(recorded(
            CoarseStm::new(),
            recorder,
            CoarseStm::with_recorder,
        )),
        "algo2-cas" => Box::new(recorded(
            Algo2Stm::new(FocKind::Cas),
            recorder,
            Algo2Stm::with_recorder,
        )),
        "algo2-splitter" => Box::new(recorded(
            Algo2Stm::new(FocKind::SplitterTas),
            recorder,
            Algo2Stm::with_recorder,
        )),
        "hybrid" => match recorder {
            Some(r) => Box::new(HybridStm::with_recorder(r)),
            None => Box::new(HybridStm::new(HybridConfig::default())),
        },
        other => panic!("unknown STM {other}"),
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
    use oftm_histories::TVarId;

    #[test]
    fn all_stms_constructible() {
        for name in STM_NAMES {
            let stm = make_stm(name, None);
            assert_eq!(&stm.name(), name);
        }
    }

    /// A block freed twice, and one freed and then retired by a commit,
    /// are each counted freed once: on every backend `TvarsAllocated −
    /// TvarsFreed` stays what `live_tvars` reports.
    #[test]
    fn a_repeated_free_keeps_the_tvar_counts_exact_on_every_stm() {
        for name in STM_NAMES {
            let stm = make_stm(name, None);
            stm.register_tvar(TVarId(0), 0);
            let (a, b) = (stm.alloc_tvar_block(&[1, 2]), stm.alloc_tvar_block(&[3, 4]));
            stm.free_tvar_block(a, 2);
            stm.free_tvar_block(a, 2);
            stm.free_tvar_block(b, 2);
            oftm_core::run_transaction(&*stm, 1, |tx| {
                tx.write(TVarId(0), 1)?;
                tx.retire_tvar_block(b, 2);
                Ok(())
            });
            let live = stm.live_tvars();
            let failure = harness::tvar_count_failure(&stm.stats().snapshot(), live, 5);
            assert_eq!(failure, None, "{name}");
        }
    }

    #[test]
    #[should_panic(expected = "unknown STM")]
    fn unknown_stm_rejected() {
        let _ = make_stm("nope", None);
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
