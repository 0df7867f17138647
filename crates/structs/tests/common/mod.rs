//! Shared STM factory for the collection test suites (a minimal local
//! copy of the `oftm-bench` factory: this crate sits below the bench crate
//! and must not depend on it).

use oftm_core::api::WordStm;
use oftm_core::dstm::{Dstm, DstmWord};

/// Every STM implementation in the workspace, by name.
#[allow(dead_code)] // not every test target iterates all STMs
pub const STM_NAMES: &[&str] = &["dstm", "tl", "tl2", "coarse", "algo2-cas", "algo2-splitter"];

pub fn make_stm(name: &str) -> Box<dyn WordStm> {
    match name {
        "dstm" => Box::new(DstmWord::new(Dstm::default())),
        "tl" => Box::new(oftm_baselines::TlStm::new()),
        "tl2" => Box::new(oftm_baselines::Tl2Stm::new()),
        "coarse" => Box::new(oftm_baselines::CoarseStm::new()),
        "algo2-cas" => Box::new(oftm_algo2::Algo2Stm::new(oftm_algo2::FocKind::Cas)),
        "algo2-splitter" => Box::new(oftm_algo2::Algo2Stm::new(oftm_algo2::FocKind::SplitterTas)),
        other => panic!("unknown STM {other}"),
    }
}
