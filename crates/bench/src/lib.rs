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
    let mut d = Dstm::default();
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

    #[test]
    fn all_stms_constructible() {
        for name in STM_NAMES {
            let stm = make_stm(name, None);
            assert_eq!(&stm.name(), name);
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
