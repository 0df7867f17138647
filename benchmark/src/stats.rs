//! Order statistics and the seeded generator every op stream comes from.

/// SplitMix64: each client's op stream is one of these, derived from
/// `--seed`, so the same seed gives the same inputs.
#[derive(Clone, Debug)]
pub struct SplitMix(u64);

impl SplitMix {
    /// An independent stream for `(seed, lane)`: backends, repetitions and
    /// clients each get their own lane.
    pub fn derive(seed: u64, lane: u64) -> Self {
        let mut g = SplitMix(seed ^ lane.wrapping_mul(0xA076_1D64_78BD_642F));
        g.next_u64();
        g
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is below 2⁻⁴⁰ for the
    /// universe sizes used here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Median of `values` (mean of the middle pair for even counts); NaN for
/// an empty slice so a cell that produced nothing shows up as `null`.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Lower quartile of `values` by the nearest-rank rule; NaN for an empty
/// slice. The estimator for single-thread costs: interference from
/// outside only ever adds time, and three batches in four may be
/// disturbed before this moves.
pub fn lower_quartile(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n => v[n.div_ceil(4) - 1],
    }
}

/// Samples a percentile needs beyond it before it is reported.
pub const MIN_TAIL_SAMPLES: u64 = 10;

/// 1-based ranks `(lo, hi)` of the order statistics that bracket the
/// `p`-quantile of `n` independent samples with about 95 % confidence
/// (normal approximation to the binomial, widened by one rank at the top
/// so that it errs on the wide side). Three samples or fewer give the
/// whole range. Samples of one cell are not independent, so for pooled
/// latencies the range is a lower limit on the real uncertainty.
pub fn quantile_ci_ranks(n: u64, p: f64) -> (u64, u64) {
    let centre = n as f64 * p;
    let half = 1.96 * (centre * (1.0 - p)).sqrt();
    let lo = ((centre - half).floor().max(1.0) as u64).min(n.max(1));
    let hi = ((centre + half).ceil() as u64 + 1).clamp(lo, n.max(1));
    (lo, hi)
}

/// Latencies of timed ops in a fixed 4 KB, whatever their number: exact
/// below 64 ns, then 32 buckets to each power of two (3 % wide) up to
/// 2³⁷ ns, where longer ones are counted too. A list of samples would
/// grow to tens of megabytes in a run and be all that `rss_peak_mb`
/// measures. An op that failed never completed: it sorts after every
/// sample.
#[derive(Clone, Debug, PartialEq)]
pub struct LatencyHist {
    counts: Vec<u32>,
    samples: u64,
    failed: u64,
}

const EXACT_BELOW: u64 = 64;
const SUB_BUCKETS: u64 = 32;
const TOP_BIT_MAX: u32 = 36;
const BUCKETS: usize = (EXACT_BELOW + (TOP_BIT_MAX as u64 - 5) * SUB_BUCKETS) as usize;

impl Default for LatencyHist {
    fn default() -> Self {
        LatencyHist {
            counts: vec![0; BUCKETS],
            samples: 0,
            failed: 0,
        }
    }
}

impl LatencyHist {
    fn bucket(ns: u64) -> usize {
        if ns < EXACT_BELOW {
            return ns as usize;
        }
        let ns = ns.min((1 << (TOP_BIT_MAX + 1)) - 1);
        let top = 63 - ns.leading_zeros();
        let sub = (ns >> (top - 5)) & (SUB_BUCKETS - 1);
        (EXACT_BELOW + u64::from(top - 6) * SUB_BUCKETS + sub) as usize
    }

    /// `(lowest value, width)` of bucket `i`.
    fn span(i: usize) -> (u64, u64) {
        let i = i as u64;
        if i < EXACT_BELOW {
            return (i, 1);
        }
        let (top, sub) = (
            (i - EXACT_BELOW) / SUB_BUCKETS + 6,
            (i - EXACT_BELOW) % SUB_BUCKETS,
        );
        ((SUB_BUCKETS + sub) << (top - 5), 1 << (top - 5))
    }

    pub fn record(&mut self, ns: u64) {
        self.counts[Self::bucket(ns)] += 1;
        self.samples += 1;
    }

    pub fn record_failed(&mut self) {
        self.failed += 1;
    }

    pub fn merge(&mut self, other: &LatencyHist) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.samples += other.samples;
        self.failed += other.failed;
    }

    pub fn clear(&mut self) {
        self.counts.fill(0);
        self.samples = 0;
        self.failed = 0;
    }

    /// Timed ops, failed ones included.
    pub fn len(&self) -> u64 {
        self.samples + self.failed
    }

    /// Latency in ns of the op at 1-based `rank`, ascending; its place
    /// inside its bucket is interpolated. `None` if the rank falls among
    /// the failed ops or outside the sample.
    pub fn at_rank(&self, rank: u64) -> Option<f64> {
        if rank == 0 || rank > self.samples {
            return None;
        }
        let mut below = 0u64;
        for (i, &count) in self.counts.iter().enumerate() {
            let count = u64::from(count);
            if rank <= below + count {
                let (lo, width) = Self::span(i);
                let inside = ((rank - below) as f64 - 0.5) / count as f64;
                return Some(lo as f64 + width as f64 * inside);
            }
            below += count;
        }
        unreachable!("counts add up to samples")
    }

    /// The `p`-quantile (`0 < p < 1`) by the nearest-rank rule: the
    /// fastest op with at least `p` of the ops at or below it.
    pub fn quantile(&self, p: f64) -> Option<f64> {
        self.at_rank((p * self.len() as f64).ceil().max(1.0) as u64)
    }

    /// True if `p` has at least [`MIN_TAIL_SAMPLES`] ops beyond it — the
    /// condition under which a percentile is a measurement and not the
    /// luck of a few slow ops.
    pub fn supports(&self, p: f64) -> bool {
        let rank = (p * self.len() as f64).ceil() as u64;
        self.len() >= rank && self.len() - rank >= MIN_TAIL_SAMPLES
    }

    /// [`Self::quantile`] where the sample [`Self::supports`] it.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        self.supports(p).then(|| self.quantile(p)).flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_lanes_differ() {
        let a: Vec<u64> = {
            let mut g = SplitMix::derive(7, 3);
            (0..4).map(|_| g.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut g = SplitMix::derive(7, 3);
            (0..4).map(|_| g.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut g = SplitMix::derive(7, 4);
            (0..4).map(|_| g.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut g = SplitMix::derive(1, 0);
        assert!((0..1000).all(|_| g.below(10) < 10));
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
        assert_eq!(
            lower_quartile(&[8.0, 1.0, 5.0, 3.0, 7.0, 2.0, 6.0, 4.0]),
            2.0
        );
        assert_eq!(lower_quartile(&[9.0]), 9.0);
        assert!(lower_quartile(&[]).is_nan());
    }

    fn hist(values: impl IntoIterator<Item = u64>) -> LatencyHist {
        let mut h = LatencyHist::default();
        for v in values {
            h.record(v);
        }
        h
    }

    #[test]
    fn buckets_tile_the_range_without_gaps() {
        let mut next = 0;
        for i in 0..BUCKETS {
            let (lo, width) = LatencyHist::span(i);
            assert_eq!(lo, next, "bucket {i}");
            assert_eq!(LatencyHist::bucket(lo), i);
            assert_eq!(LatencyHist::bucket(lo + width - 1), i);
            assert!(width == 1 || width as f64 / lo as f64 <= 1.0 / 32.0);
            next = lo + width;
        }
        assert_eq!(next, 1 << 37);
        assert_eq!(
            LatencyHist::bucket(u64::MAX),
            BUCKETS - 1,
            "longer ops are counted in the last bucket"
        );
    }

    #[test]
    fn quantile_is_nearest_rank_within_a_bucket_width() {
        let h = hist(1..=100);
        assert_eq!(
            h.quantile(0.5),
            Some(50.5),
            "exact below 64 ns, half a unit in"
        );
        let q99 = h.quantile(0.99).unwrap();
        assert!((q99 - 99.0).abs() <= 2.0, "{q99}");
        assert_eq!(hist([7]).quantile(0.99), Some(7.5));
        assert_eq!(hist([]).quantile(0.99), None);
        // Microsecond-scale ops: within 3 % of the exact order statistic.
        let h = hist((1..=2000).map(|i| i * 1000));
        for (p, exact) in [(0.5, 1_000_000.0), (0.99, 1_980_000.0)] {
            let q = h.quantile(p).unwrap();
            assert!((q - exact).abs() / exact < 0.03, "p{p}: {q} vs {exact}");
        }
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // p99 of n samples leaves n − ⌈0.99 n⌉ beyond it.
        assert!(!hist(1..=999).supports(0.99));
        assert!(hist(1..=1000).supports(0.99));
        assert!(hist(1..=20).supports(0.5));
        assert!(!hist(1..=19).supports(0.5));
        assert_eq!(hist(1..=999).percentile(0.99), None);
        assert!(hist(1..=1000).percentile(0.99).is_some());
    }

    #[test]
    fn confidence_ranks_bracket_the_quantile() {
        assert_eq!(quantile_ci_ranks(1, 0.5), (1, 1));
        assert_eq!(quantile_ci_ranks(3, 0.5), (1, 3));
        // Exact binomial gives 14..27 for the median of 40; the
        // approximation may only be wider.
        assert_eq!(quantile_ci_ranks(40, 0.5), (13, 28));
        let (lo, hi) = quantile_ci_ranks(3400, 0.99);
        assert!(
            lo < 3366 && 3366 < hi && hi <= 3400 && hi - lo < 30,
            "{lo}..{hi}"
        );
        // Too few samples beyond the percentile: the top is the maximum.
        assert_eq!(quantile_ci_ranks(100, 0.99).1, 100);
    }

    #[test]
    fn failed_ops_sort_after_every_sample() {
        let mut h = hist((1..=2000).map(|i| i * 1000));
        let p99 = |h: &LatencyHist| h.percentile(0.99).map(|ns| (ns / 1e4).round() as u64);
        assert_eq!(p99(&h), Some(198));
        // 10 failures push the rank up by ⌈0.99·10⌉.
        for _ in 0..10 {
            h.record_failed();
        }
        assert_eq!(h.len(), 2010);
        assert_eq!(p99(&h), Some(199));
        // With 1 % or more of the ops failed, p99 itself is a failed op.
        for _ in 0..20 {
            h.record_failed();
        }
        assert_eq!(h.percentile(0.99), None);
    }

    #[test]
    fn merged_histograms_count_as_one_sample() {
        let mut a = hist(1..=600);
        let mut b = hist(601..=1200);
        b.record_failed();
        assert_eq!(a.percentile(0.99), None);
        a.merge(&b);
        assert_eq!(a.len(), 1201);
        assert!(a.percentile(0.99).is_some());
        a.clear();
        assert_eq!((a.len(), a.quantile(0.5)), (0, None));
    }
}
