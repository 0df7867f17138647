//! Property tests for the log2 latency histograms: percentile extraction
//! agrees with a sorted reference at bucket resolution, and merging
//! per-shard snapshots reproduces the global snapshot exactly.
//!
//! A failing case prints `PROPTEST_SEED=…` for exact replay (the shim has
//! no shrinking; seeds replay instead).

use oftm_obs::{bucket_ceiling, bucket_of, StatsSnapshot, StmStats};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Nearest-rank percentile out of the histogram lands in exactly the
    /// bucket of the nearest-rank sample of the sorted reference, and the
    /// reported upper bound actually bounds it.
    #[test]
    fn percentiles_match_sorted_reference(samples in proptest::collection::vec(0u64..2_000_000_000, 1..300)) {
        let stats = StmStats::new();
        for &s in &samples {
            stats.record_attempt_ns(s);
        }
        let hist = stats.snapshot().attempt_ns;
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        for &p in &[50.0, 90.0, 99.0] {
            let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
            let reference = sorted[rank.min(sorted.len()) - 1];
            let bucket = hist.percentile_bucket(p).expect("non-empty");
            prop_assert_eq!(bucket, bucket_of(reference),
                "p{} bucket mismatch: reference {}", p, reference);
            prop_assert_eq!(hist.percentile(p), bucket_ceiling(bucket));
            prop_assert!(hist.percentile(p) >= reference);
        }
        prop_assert_eq!(hist.count(), samples.len() as u64);
    }

    /// merge(shard snapshots) == global snapshot: recording from many
    /// threads (threads map round-robin onto shards) must never lose or
    /// double-count a sample.
    #[test]
    fn shard_merge_equals_global(per_thread in proptest::collection::vec(
        proptest::collection::vec(0u64..1_000_000, 0..40), 1..6)) {
        let stats = StmStats::new();
        std::thread::scope(|s| {
            for chunk in &per_thread {
                let stats = &stats;
                s.spawn(move || {
                    for &v in chunk {
                        stats.record_attempt_ns(v);
                        stats.record_park_ns(v / 2);
                        stats.incr(oftm_obs::Counter::Begins);
                    }
                });
            }
        });
        let global = stats.snapshot();
        let mut merged = StatsSnapshot::default();
        for shard in stats.shard_snapshots() {
            merged.merge(&shard);
        }
        prop_assert_eq!(&merged, &global);
        let total: u64 = per_thread.iter().map(|c| c.len() as u64).sum();
        prop_assert_eq!(global.attempt_ns.count(), total);
        prop_assert_eq!(global.get(oftm_obs::Counter::Begins), total);
    }
}
