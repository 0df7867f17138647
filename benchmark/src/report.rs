//! Turns the cells of one workload into named metrics and into the result
//! documents the commands print and `check` reads back.

use crate::json::{obj, Json};
use crate::metrics::{self, MetricDef, BACKENDS, REFERENCE_BACKEND};
use crate::stats::{lower_quartile, median, quantile_ci_ranks, LatencyHist};
use crate::trace::{Kind, KINDS};
use crate::workloads::{CellResult, Workload};
use oftm::obs::Counter;

/// A metric's value in one run and how far the run itself can vouch for it.
#[derive(Clone, Debug)]
pub struct Measured {
    pub def: MetricDef,
    pub value: f64,
    /// About 95 % confidence range of `value`, from the order statistics
    /// of the samples behind it ([`quantile_ci_ranks`]); `check` reads it
    /// as the run's own spread.
    pub lo: f64,
    pub hi: f64,
    /// Extremes over the repetitions; NaN where a repetition has no
    /// value of its own (a pooled percentile).
    pub min: f64,
    pub max: f64,
    /// Samples behind `value`: repetitions for a median, timed ops for a
    /// percentile.
    pub n: usize,
}

impl Measured {
    /// The median over the repetitions.
    fn median_of(def: &MetricDef, reps: &[f64]) -> Measured {
        let mut sorted = reps.to_vec();
        sorted.sort_by(f64::total_cmp);
        let (lo, hi) = quantile_ci_ranks(sorted.len() as u64, 0.5);
        let at = |rank: u64| sorted.get(rank as usize - 1).copied().unwrap_or(f64::NAN);
        Measured {
            def: def.clone(),
            value: median(reps),
            lo: at(lo),
            hi: at(hi),
            min: at(1),
            max: at(sorted.len().max(1) as u64),
            n: reps.len(),
        }
    }

    /// The lowest over the repetitions, for single-threaded work that
    /// interference can only add to; `lo..hi` runs up to the lower quartile.
    fn lowest_of(def: &MetricDef, reps: &[f64]) -> Measured {
        let m = Measured::median_of(def, reps);
        Measured {
            value: m.min,
            lo: m.min,
            hi: lower_quartile(reps),
            ..m
        }
    }

    /// p99 of one backend in one run, taken over the timed ops of all its
    /// cells together: a 0.1 s cell of a slow backend (DSTM makes ~80
    /// timed set ops in one) has no ten samples beyond the percentile, the
    /// run's cells together do. Failed ops sort after every sample.
    fn pooled_p99(def: &MetricDef, cells: &[&CellResult]) -> Measured {
        let mut pooled = LatencyHist::default();
        for c in cells {
            pooled.merge(&c.latencies);
        }
        let (lo, hi) = quantile_ci_ranks(pooled.len(), 0.99);
        let us = |ns: Option<f64>| ns.map_or(f64::NAN, |ns| ns / 1e3);
        Measured {
            def: def.clone(),
            value: us(pooled.percentile(0.99)),
            lo: us(pooled.at_rank(lo)),
            hi: us(pooled.at_rank(hi)),
            min: f64::NAN,
            max: f64::NAN,
            n: pooled.len() as usize,
        }
    }

    fn json(&self) -> Json {
        obj([
            ("value", Json::from(self.value)),
            ("lo", Json::from(self.lo)),
            ("hi", Json::from(self.hi)),
            ("min", Json::from(self.min)),
            ("max", Json::from(self.max)),
            ("n", Json::from(self.n)),
            ("unit", Json::from(self.def.unit)),
            ("better", Json::from(self.def.better.name())),
            ("bound", Json::from(self.def.bound)),
        ])
    }
}

/// Everything one workload produced in one run.
pub struct Report {
    pub workload: Workload,
    pub traced: bool,
    pub cells: Vec<CellResult>,
    pub metrics: Vec<Measured>,
}

/// Per-layer numbers of one traced cell, net of the clock: every span's
/// reading includes about one clock read, and every child span puts
/// about one more into its parent.
struct Layers {
    begin_ns: f64,
    read_ns: f64,
    write_ns: f64,
    commit_ns: f64,
    busy_share: f64,
    structs_self_ns_per_op: f64,
}

/// 0 when nothing was counted: a layer a workload never calls costs it
/// nothing, and the result line needs a number under every name.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn layers(cell: &CellResult, clock_ns: f64) -> Layers {
    let spans = cell.spans.as_ref().expect("traced cell");
    let mean = |kind: Kind| {
        let a = spans.of(kind);
        (ratio(a.sum_ns as f64, a.count as f64) - clock_ns).max(0.0)
    };
    // Begins made for read-only and for updating transactions are both
    // `Kind::Begin`: the interposer sees the call, not the intent.
    let children: u64 = KINDS[1..].iter().map(|&k| spans.of(k).count).sum();
    let ops = spans.of(Kind::Op);
    let backend_ns = (spans.backend_ns() as f64 - children as f64 * clock_ns).max(0.0);
    let op_ns = ops.sum_ns as f64 - ops.count as f64 * clock_ns;
    let self_ns = op_ns - backend_ns - 2.0 * children as f64 * clock_ns;
    Layers {
        begin_ns: mean(Kind::Begin),
        read_ns: mean(Kind::Read),
        write_ns: mean(Kind::Write),
        commit_ns: mean(Kind::Commit),
        busy_share: ratio(backend_ns, op_ns),
        structs_self_ns_per_op: ratio(self_ns.max(0.0), ops.count as f64),
    }
}

fn aborts_per_commit(cell: &CellResult) -> f64 {
    ratio(cell.stats.aborts() as f64, cell.stats.all_commits() as f64)
}

/// The shared-layer metrics of one cell, in [`metrics::TRACED_SHARED_METRICS`]
/// order minus the last (`trace.overhead_share` needs two cells).
fn shared_layers(cell: &CellResult, clock_ns: f64) -> [f64; 7] {
    let s = &cell.stats;
    let ops = cell.ops as f64;
    let wakes = s.get(Counter::Wakes) + s.get(Counter::StaleWakes);
    [
        layers(cell, clock_ns).structs_self_ns_per_op,
        ratio(cell.attempts as f64, ops),
        ratio(s.get(Counter::TvarsAllocated) as f64, ops),
        ratio(s.get(Counter::TvarsFreed) as f64, ops),
        ratio(s.get(Counter::Parks) as f64, ops),
        ratio(s.get(Counter::StaleWakes) as f64, wakes as f64),
        // log2-bucket upper bound: the telemetry keeps no finer grain.
        s.park_ns.percentile(50.0) as f64 / 1e3,
    ]
}

fn cells_of<'a>(
    cells: &'a [CellResult],
    backend: &'a str,
    traced: bool,
) -> impl Iterator<Item = &'a CellResult> {
    cells
        .iter()
        .filter(move |c| c.traced == traced && c.backend == backend)
}

/// `B.ops_per_s`, `B.vs_tl2` or `B.p99_us` as backend `B`'s clients saw it
/// in the traced or the untraced cells.
fn client_side(def: &MetricDef, cells: &[CellResult], traced: bool) -> Measured {
    let (b, m) = def.name.split_once('.').expect("per-backend metric");
    let of_backend: Vec<&CellResult> = cells_of(cells, b, traced).collect();
    match m {
        "ops_per_s" => {
            let reps: Vec<f64> = of_backend.iter().map(|c| c.ops_per_s()).collect();
            Measured::median_of(def, &reps)
        }
        // Repetition by repetition: the two cells ran 0.1 s apart, on the
        // same machine in the same mood.
        "vs_tl2" => {
            let reps: Vec<f64> = of_backend
                .iter()
                .zip(cells_of(cells, REFERENCE_BACKEND, traced))
                .map(|(c, reference)| ratio(c.ops_per_s(), reference.ops_per_s()))
                .collect();
            Measured::median_of(def, &reps)
        }
        "p99_us" => Measured::pooled_p99(def, &of_backend),
        _ => unreachable!("metric {} has no source", def.name),
    }
}

/// Per repetition, the time to build and populate all five backends:
/// the sum of the repetition's five untraced cells.
fn setup_sums(cells: &[CellResult]) -> Vec<f64> {
    let mut sums = Vec::new();
    for b in BACKENDS {
        for (rep, c) in cells_of(cells, b, false).enumerate() {
            if sums.len() == rep {
                sums.push(0.0);
            }
            sums[rep] += c.setup_s;
        }
    }
    sums
}

impl Report {
    /// Metrics of an untraced run: the end-to-end set, then the ones
    /// measured the same way but bounded nowhere. `rss_peak_mb` is read
    /// once, when the workload has finished.
    pub fn end_to_end(workload: Workload, cells: Vec<CellResult>, rss_peak_mb: f64) -> Report {
        let metrics = metrics::end_to_end()
            .iter()
            .chain(&metrics::unbounded_end_to_end())
            .map(|def| match def.name.as_str() {
                // The run reports the fastest, as each cell did (see
                // `run_cell`).
                "setup_s" => Measured::lowest_of(def, &setup_sums(&cells)),
                "rss_peak_mb" => Measured::median_of(def, &[rss_peak_mb]),
                _ => client_side(def, &cells, false),
            })
            .collect();
        Report {
            workload,
            traced: false,
            cells,
            metrics,
        }
    }

    /// Per-layer metrics of a traced run: `cells` holds traced and
    /// untraced cells of every backend, and `ledger` the isolated-call
    /// rows. What the clients see is read off the untraced cells.
    pub fn per_layer(
        workload: Workload,
        cells: Vec<CellResult>,
        ledger: Vec<(String, f64)>,
    ) -> Report {
        let clock_ns = ledger
            .iter()
            .find(|(n, _)| n == "bench.clock_ns")
            .map_or(0.0, |(_, v)| *v);
        let reference = |traced| cells_of(&cells, REFERENCE_BACKEND, traced);
        let metrics = metrics::per_layer()
            .iter()
            .map(|def| {
                let name = def.name.as_str();
                let reps: Vec<f64> = if let Some((_, v)) = ledger.iter().find(|(n, _)| n == name) {
                    vec![*v]
                } else if name == "trace.overhead_share" {
                    let rate = |traced| {
                        median(
                            &reference(traced)
                                .map(CellResult::ops_per_s)
                                .collect::<Vec<_>>(),
                        )
                    };
                    vec![1.0 - ratio(rate(true), rate(false))]
                } else if let Some(i) = metrics::TRACED_SHARED_METRICS
                    .iter()
                    .position(|(n, ..)| *n == name)
                {
                    reference(true)
                        .map(|c| shared_layers(c, clock_ns)[i])
                        .collect()
                } else {
                    let (b, m) = name.split_once('.').expect("per-backend metric");
                    if matches!(m, "ops_per_s" | "vs_tl2" | "p99_us") {
                        return client_side(def, &cells, false);
                    }
                    cells_of(&cells, b, true)
                        .map(|c| {
                            let l = layers(c, clock_ns);
                            match m {
                                "begin_ns" => l.begin_ns,
                                "read_ns" => l.read_ns,
                                "write_ns" => l.write_ns,
                                "commit_ns" => l.commit_ns,
                                "busy_share" => l.busy_share,
                                "aborts_per_commit" => aborts_per_commit(c),
                                _ => unreachable!("per-layer metric {name} has no source"),
                            }
                        })
                        .collect()
                };
                Measured::median_of(def, &reps)
            })
            .collect();
        Report {
            workload,
            traced: true,
            cells,
            metrics,
        }
    }

    pub fn attempted(&self) -> u64 {
        self.cells
            .iter()
            .map(CellResult::attempted)
            .sum::<u64>()
            .max(1)
    }

    pub fn failed(&self) -> u64 {
        self.cells.iter().map(CellResult::failed_ops).sum()
    }

    pub fn correct(&self) -> bool {
        self.cells.iter().all(|c| c.oracle.is_ok())
    }

    /// Non-zero when an oracle refused its cell or an op ran out of
    /// attempts: the workloads are chosen so that neither happens.
    pub fn exit_code(&self) -> i32 {
        i32::from(!self.correct() || self.failed() > 0)
    }

    /// The contract's result line: exactly `correct`, `attempted`,
    /// `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        obj([
            ("correct", Json::from(self.correct())),
            ("attempted", Json::from(self.attempted())),
            ("failed", Json::from(self.failed())),
            (
                "metrics",
                // An untraced run answers for the end-to-end set only.
                obj(self
                    .metrics
                    .iter()
                    .filter(|m| self.traced || m.def.bound.is_some())
                    .map(|m| {
                        (
                            m.def.name.clone(),
                            obj([
                                ("value", Json::from(m.value)),
                                ("unit", Json::from(m.def.unit)),
                            ]),
                        )
                    })),
            ),
        ])
        .render()
    }

    /// The full record of the run: metrics with their ranges, and the
    /// per-backend table behind them, one row per cell.
    pub fn document(&self) -> Json {
        let clock_ns = self
            .metrics
            .iter()
            .find(|m| m.def.name == "bench.clock_ns")
            .map_or(0.0, |m| m.value);
        obj([
            ("workload", Json::from(self.workload.name())),
            (
                "mode",
                Json::from(if self.traced { "trace" } else { "run" }),
            ),
            ("correct", Json::from(self.correct())),
            ("ops_attempted", Json::from(self.attempted())),
            ("ops_failed", Json::from(self.failed())),
            (
                "metrics",
                obj(self.metrics.iter().map(|m| (m.def.name.clone(), m.json()))),
            ),
            (
                "cells",
                Json::Arr(self.cells.iter().map(|c| cell_row(c, clock_ns)).collect()),
            ),
        ])
    }

    /// Every metric by name with its unit, for people.
    pub fn print(&self) {
        println!(
            "{} ({}): {} ops attempted, {} failed, oracles {}",
            self.workload.name(),
            if self.traced { "traced" } else { "untraced" },
            self.attempted(),
            self.failed(),
            if self.correct() { "ok" } else { "FAILED" },
        );
        for c in &self.cells {
            if let Err(why) = &c.oracle {
                println!("  oracle refused {}: {why}", c.backend);
            }
        }
        for m in &self.metrics {
            println!(
                "  {:<32} {:>16.4} {:<6} [{:.4} .. {:.4}] n={}",
                m.def.name, m.value, m.def.unit, m.lo, m.hi, m.n,
            );
        }
    }
}

fn cell_row(c: &CellResult, clock_ns: f64) -> Json {
    let mut row = vec![
        ("backend", Json::from(c.backend)),
        ("traced", Json::from(c.traced)),
        (
            "oracle",
            Json::from(c.oracle.clone().err().unwrap_or_else(|| "ok".to_string())),
        ),
        ("setup_s", Json::from(c.setup_s)),
        ("interval_s", Json::from(c.interval_s)),
        ("ops", Json::from(c.ops)),
        ("ops_failed", Json::from(c.failed)),
        ("ops_per_s", Json::from(c.ops_per_s())),
        ("latency_samples", Json::from(c.latencies.len())),
        (
            "p50_us",
            Json::from(c.latencies.quantile(0.5).map(|ns| ns / 1e3)),
        ),
        ("p99_us", Json::from(c.p99_us())),
        ("aborts_per_commit", Json::from(aborts_per_commit(c))),
    ];
    if c.traced {
        let l = layers(c, clock_ns);
        row.extend([
            ("begin_ns", Json::from(l.begin_ns)),
            ("read_ns", Json::from(l.read_ns)),
            ("write_ns", Json::from(l.write_ns)),
            ("commit_ns", Json::from(l.commit_ns)),
            ("busy_share", Json::from(l.busy_share)),
        ]);
        let spans = c.spans.as_ref().expect("traced cell");
        for kind in KINDS {
            row.push((
                match kind {
                    Kind::Op => "spans_op",
                    Kind::Begin => "spans_begin",
                    Kind::Read => "spans_read",
                    Kind::Write => "spans_write",
                    Kind::Commit => "spans_commit",
                    Kind::Alloc => "spans_alloc",
                    Kind::Free => "spans_free",
                },
                Json::from(spans.of(kind).count),
            ));
        }
        for ((name, ..), v) in metrics::TRACED_SHARED_METRICS
            .iter()
            .zip(shared_layers(c, clock_ns))
        {
            row.push((name, Json::from(v)));
        }
    }
    obj(row)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{Agg, Collected};
    use oftm::obs::StatsSnapshot;

    fn cell(backend: &'static str, ops: u64, setup_s: f64) -> CellResult {
        CellResult {
            backend,
            traced: false,
            setup_s,
            interval_s: 2.0,
            ops,
            failed: 0,
            attempts: ops,
            latencies: timed_ops(1..=2000),
            stats: StatsSnapshot::default(),
            spans: None,
            oracle: Ok(()),
        }
    }

    /// Timed ops of `ms` milliseconds each.
    fn timed_ops(ms: impl IntoIterator<Item = u64>) -> LatencyHist {
        let mut h = LatencyHist::default();
        for ms in ms {
            h.record(ms * 1000);
        }
        h
    }

    fn two_reps() -> Vec<CellResult> {
        let mut cells = Vec::new();
        for (rep, ops) in [(0, 1000), (1, 3000)] {
            for b in BACKENDS {
                cells.push(cell(b, ops, 0.1 * (rep + 1) as f64));
            }
        }
        cells
    }

    #[test]
    fn end_to_end_report_takes_medians_over_repetitions() {
        let r = Report::end_to_end(Workload::BankHot, two_reps(), 12.5);
        assert_eq!(r.metrics.len(), 16, "six with a bound, ten without");
        let get = |name: &str| r.metrics.iter().find(|m| m.def.name == name).unwrap();
        assert_eq!(get("coarse.ops_per_s").value, 1000.0);
        let ops = get("tl2.ops_per_s");
        assert_eq!(
            (ops.value, ops.min, ops.max, ops.n),
            (1000.0, 500.0, 1500.0, 2)
        );
        assert_eq!(
            (ops.lo, ops.hi),
            (500.0, 1500.0),
            "two repetitions vouch for no less than their range"
        );
        // Five backends set up per repetition: 5 × 0.1 s, then 5 × 0.2 s;
        // the faster repetition is the reading.
        let setup = get("setup_s");
        assert!((setup.value - 0.5).abs() < 1e-9 && (setup.max - 1.0).abs() < 1e-9);
        let rss = get("rss_peak_mb");
        assert_eq!((rss.value, rss.lo, rss.hi, rss.n), (12.5, 12.5, 12.5, 1));
        assert_eq!((r.attempted(), r.failed(), r.exit_code()), (20_000, 0, 0));
    }

    #[test]
    fn ratios_pair_the_cells_of_one_repetition() {
        // DSTM at a tenth of TL2 in a slow repetition and in a fast one:
        // the ratio does not see the machine's mood, the throughputs do.
        let mut cells = two_reps();
        for c in cells.iter_mut().filter(|c| c.backend == "dstm") {
            c.ops /= 10;
        }
        let r = Report::end_to_end(Workload::BankHot, cells, 1.0);
        let get = |name: &str| r.metrics.iter().find(|m| m.def.name == name).unwrap();
        let vs = get("dstm.vs_tl2");
        assert_eq!((vs.value, vs.min, vs.max, vs.n), (0.1, 0.1, 0.1, 2));
        assert_eq!(get("hybrid.vs_tl2").value, 1.0);
        assert_eq!(
            (get("dstm.ops_per_s").min, get("dstm.ops_per_s").max),
            (50.0, 150.0)
        );
    }

    #[test]
    fn confidence_range_narrows_with_the_repetitions() {
        let reps: Vec<f64> = (1..=40).map(f64::from).collect();
        let m = Measured::median_of(&metrics::end_to_end()[0], &reps);
        assert_eq!((m.value, m.min, m.max, m.n), (20.5, 1.0, 40.0, 40));
        assert_eq!((m.lo, m.hi), (13.0, 28.0));
    }

    #[test]
    fn p99_pools_the_cells_timed_ops() {
        let p99_of = |cells: Vec<CellResult>| {
            let r = Report::end_to_end(Workload::BankHot, cells, 1.0);
            r.metrics
                .into_iter()
                .find(|m| m.def.name == "dstm.p99_us")
                .unwrap()
        };
        let near = |got: f64, want: f64| (got - want).abs() / want < 0.03;
        // 600 timed ops a cell: no cell supports a p99 of its own, the
        // two of a backend together do.
        let mut cells = two_reps();
        for c in &mut cells {
            c.latencies = timed_ops(1..=600);
        }
        cells[0].latencies = timed_ops(601..=1200);
        assert_eq!(cells[0].p99_us(), None);
        let p99 = p99_of(cells);
        assert!(near(p99.value, 1188.0) && p99.n == 1200, "{p99:?}");
        assert!(p99.lo < p99.value && p99.hi > p99.value && p99.min.is_nan());

        // Ten failed timed ops push the percentile ten ranks up; fifty
        // put it among the failed ops themselves.
        let mut cells = two_reps();
        for _ in 0..10 {
            cells[0].latencies.record_failed();
        }
        let p99 = p99_of(cells);
        assert!(near(p99.value, 1985.0) && p99.n == 4010, "{p99:?}");
        let mut cells = two_reps();
        for _ in 0..50 {
            cells[0].latencies.record_failed();
        }
        assert!(p99_of(cells).value.is_nan());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let r = Report::end_to_end(Workload::BankHot, two_reps(), 12.5);
        let line = Json::parse(&r.result_line()).unwrap();
        let keys: Vec<&str> = line.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = line.get("metrics").unwrap();
        let names: Vec<String> = m.fields().iter().map(|(k, _)| k.clone()).collect();
        let want: Vec<String> = metrics::end_to_end().into_iter().map(|d| d.name).collect();
        assert_eq!(names, want, "the end-to-end set and nothing else");
        let tl2 = m.get("tl2.ops_per_s").unwrap();
        assert_eq!(tl2.fields().len(), 2);
        assert_eq!(tl2.get("value").unwrap().as_f64(), Some(1000.0));
        assert_eq!(tl2.get("unit").unwrap().as_str(), Some("1/s"));
    }

    #[test]
    fn refused_oracle_fails_the_cells_ops_and_the_run() {
        let mut cells = two_reps();
        cells[3].oracle = Err("bank total is 7".to_string());
        let r = Report::end_to_end(Workload::BankHot, cells, 1.0);
        assert!(!r.correct());
        assert_eq!(r.failed(), 1000, "every op of the refused cell");
        assert_ne!(r.exit_code(), 0);
        let doc = r.document();
        assert_eq!(doc.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(doc.get("ops_failed").unwrap().as_f64(), Some(1000.0));

        let mut cells = two_reps();
        cells[0].failed = 2;
        cells[0].latencies.record_failed();
        let r = Report::end_to_end(Workload::BankHot, cells, 1.0);
        assert!(r.correct());
        assert_eq!(
            (r.failed(), r.exit_code()),
            (2, 1),
            "budget-exhausted ops fail the run too"
        );
    }

    #[test]
    fn per_layer_report_nets_out_the_clock() {
        let mut cells = Vec::new();
        for b in BACKENDS {
            let mut c = cell(b, 6400, 0.1);
            c.traced = true;
            let mut spans = Collected::default();
            // 100 traced ops of 10 reads each; clock = 20 ns.
            spans.agg[Kind::Op as usize] = Agg {
                count: 100,
                sum_ns: 100 * 2000,
            };
            spans.agg[Kind::Begin as usize] = Agg {
                count: 100,
                sum_ns: 100 * 70,
            };
            spans.agg[Kind::Read as usize] = Agg {
                count: 1000,
                sum_ns: 1000 * 50,
            };
            spans.agg[Kind::Commit as usize] = Agg {
                count: 100,
                sum_ns: 100 * 120,
            };
            c.spans = Some(spans);
            cells.push(c);
            cells.push(cell(b, 8000, 0.1));
        }
        let ledger: Vec<(String, f64)> = metrics::per_layer()
            .into_iter()
            .filter(|m| {
                m.name.contains(".txn_") || metrics::LEDGER_SHARED_ROWS.contains(&m.name.as_str())
            })
            .map(|m| {
                let v = if m.name == "bench.clock_ns" {
                    20.0
                } else {
                    33.0
                };
                (m.name, v)
            })
            .collect();
        let r = Report::per_layer(Workload::SetReadMostly, cells, ledger);
        assert_eq!(r.metrics.len(), 88);
        let line = Json::parse(&r.result_line()).unwrap();
        assert_eq!(line.get("metrics").unwrap().fields().len(), 88);
        let get = |name: &str| r.metrics.iter().find(|m| m.def.name == name).unwrap().value;
        assert_eq!(get("coarse.ops_per_s"), 4000.0, "from the untraced cells");
        assert_eq!(get("coarse.vs_tl2"), 1.0);
        assert!((get("tl2.p99_us") - 1980.0).abs() < 0.03 * 1980.0);
        assert_eq!(get("tl2.read_ns"), 30.0);
        assert_eq!(get("dstm.begin_ns"), 50.0);
        assert_eq!(get("coarse.commit_ns"), 100.0);
        assert_eq!(get("hybrid.write_ns"), 0.0, "no write spans: costs nothing");
        assert_eq!(get("tl2.txn_empty_ns"), 33.0);
        assert_eq!(get("bench.clock_ns"), 20.0);
        // Backend time 100·50 + 1000·30 + 100·100 = 45 000 of 100·1980.
        assert!((get("tl2.busy_share") - 45_000.0 / 198_000.0).abs() < 1e-9);
        // Op − backend − two clock reads per child outside its span.
        let self_ns = (198_000.0 - 45_000.0 - 2.0 * 1200.0 * 20.0) / 100.0;
        assert!((get("structs.self_ns_per_op") - self_ns).abs() < 1e-9);
        assert!((get("trace.overhead_share") - 0.2).abs() < 1e-9);
        assert_eq!(get("asyncrt.parks_per_op"), 0.0);
    }
}
