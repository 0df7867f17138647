//! The names the benchmark reports under: backends, workloads and the
//! metric tables that `BENCHMARK.json` mirrors (a unit test keeps the two
//! in step).

/// The five backends of the end-to-end set, built by their default
/// constructors (see [`crate::workloads::make_backend`]).
pub const BACKENDS: [&str; 5] = ["dstm", "tl", "tl2", "coarse", "hybrid"];

/// Backend the shared-layer metrics (`structs.*`, `core.*`, `asyncrt.*`,
/// `trace.overhead_share`) are read on.
pub const REFERENCE_BACKEND: &str = "tl2";

/// Ledger-only backend: Algorithm 2 is ~300× DSTM, so a timed cell would
/// only measure chain walking; its four transaction rows are enough.
pub const LEDGER_ONLY_BACKEND: &str = "algo2";

/// `(name, why)` — the `why` is what `BENCHMARK.json` carries.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "set-read-mostly",
        "TxIntSet, 512-key universe, 90% read-only contains: ~280 reads per op, so the backend read path, core.table lookup and RO validation do the work; commit, reclaim and notify do almost none",
    ),
    (
        "map-write-heavy",
        "TxHashMap, 4096 keys in 1024 buckets (inside L2), 40% put 40% remove 20% get: short transactions, so begin, commit, table alloc/free, reclaim and idle notify dominate; the read path does little",
    ),
    (
        "bank-hot",
        "8 registered words, each op reads 6 and moves a unit between 2: the only workload with steady aborts, so the abort path, contention manager and back-off work here and nowhere else",
    ),
    (
        "async-token-ring",
        "2 executor workers, 32 async clients, 4 tokens between two TxQueues: clients park on an empty source, so asyncrt park/wake and notify-with-waiters do the work; spin back-off is bypassed",
    ),
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }

    pub fn parse(s: &str) -> Option<Better> {
        match s {
            "higher" => Some(Better::Higher),
            "lower" => Some(Better::Lower),
            _ => None,
        }
    }
}

#[derive(Clone, Debug, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen;
    /// `None` for per-layer metrics, which carry no bound.
    pub bound: Option<f64>,
}

fn def(
    name: impl Into<String>,
    unit: &'static str,
    better: Better,
    bound: Option<f64>,
) -> MetricDef {
    MetricDef {
        name: name.into(),
        unit,
        better,
        bound,
    }
}

/// The share of the parent's median a metric may lose. One bound serves a
/// metric on all four workloads and has to hold through the slow minutes
/// a shared machine has, so each is sized to the worst spread seen on the
/// 2-CPU sizing box (README, "Sizing").
pub const OPS_BOUND: f64 = 0.25;
pub const VS_BOUND: f64 = 0.25;
pub const SETUP_BOUND: f64 = 0.25;
pub const RSS_BOUND: f64 = 0.25;

/// Backends whose throughput is bounded as a ratio to the reference
/// backend's in the same repetition. Absolute throughput of two threads
/// on the sizing box moves 15–25 % with the state of the host for minutes
/// at a time; the ratio of two cells 0.1 s apart moves 1–8 %, and it is
/// the paper's quantity: what obstruction-freedom (or the hybrid façade)
/// costs next to a lock-based TM.
pub const RATIO_BACKENDS: [&str; 3] = ["dstm", "tl", "hybrid"];

/// Backend that gets no bound at all: two threads handing one global
/// mutex back and forth fall into a fast or a slow rhythm for a whole
/// process, and its run-to-run spread reached 0.28 (README, "Sizing").
pub const UNBOUNDED_BACKEND: &str = "coarse";

/// The end-to-end metrics, reported on every workload by `--trace 0`.
pub fn end_to_end() -> Vec<MetricDef> {
    let mut out = vec![def(
        format!("{REFERENCE_BACKEND}.ops_per_s"),
        "1/s",
        Better::Higher,
        Some(OPS_BOUND),
    )];
    for b in RATIO_BACKENDS {
        out.push(def(
            format!("{b}.vs_{REFERENCE_BACKEND}"),
            "ratio",
            Better::Higher,
            Some(VS_BOUND),
        ));
    }
    out.push(def("setup_s", "s", Better::Lower, Some(SETUP_BOUND)));
    out.push(def("rss_peak_mb", "MB", Better::Lower, Some(RSS_BOUND)));
    out
}

/// What a client sees besides, measured on every run but too unsteady on
/// the sizing box to carry a bound (README, "Sizing"): the per-layer list
/// takes them in, from the untraced cells of a traced run.
pub fn unbounded_end_to_end() -> Vec<MetricDef> {
    let mut out = Vec::new();
    for b in BACKENDS.into_iter().filter(|b| *b != REFERENCE_BACKEND) {
        out.push(def(format!("{b}.ops_per_s"), "1/s", Better::Higher, None));
    }
    out.push(def(
        format!("{UNBOUNDED_BACKEND}.vs_{REFERENCE_BACKEND}"),
        "ratio",
        Better::Higher,
        None,
    ));
    for b in BACKENDS {
        out.push(def(format!("{b}.p99_us"), "us", Better::Lower, None));
    }
    out
}

/// Per-backend metrics read off the traced workload.
pub const TRACED_BACKEND_METRICS: [(&str, &str, Better); 6] = [
    ("begin_ns", "ns", Better::Lower),
    ("read_ns", "ns", Better::Lower),
    ("write_ns", "ns", Better::Lower),
    ("commit_ns", "ns", Better::Lower),
    ("busy_share", "ratio", Better::Higher),
    ("aborts_per_commit", "ratio", Better::Lower),
];

/// Shared-layer metrics read off the traced workload on the reference
/// backend.
pub const TRACED_SHARED_METRICS: [(&str, &str, Better); 8] = [
    ("structs.self_ns_per_op", "ns", Better::Lower),
    ("structs.attempts_per_op", "ratio", Better::Lower),
    ("core.table.allocs_per_op", "ratio", Better::Lower),
    ("core.reclaim.freed_per_op", "ratio", Better::Higher),
    ("asyncrt.parks_per_op", "ratio", Better::Lower),
    ("asyncrt.stale_wake_share", "ratio", Better::Lower),
    ("asyncrt.park_p50_us", "us", Better::Lower),
    ("trace.overhead_share", "ratio", Better::Lower),
];

/// Ledger rows per backend (the five above plus `algo2`).
pub const LEDGER_TXN_ROWS: [&str; 4] = ["txn_empty_ns", "txn_ro1_ns", "txn_rw1_ns", "txn_ro64_ns"];

/// Ledger rows of the shared layers.
pub const LEDGER_SHARED_ROWS: [&str; 16] = [
    "core.api.loop_ns",
    "structs.ctx.loop_ns",
    "core.table.get_ns",
    "core.table.alloc_free_ns",
    "core.pool.take_put_ns",
    "core.reclaim.enter_exit_ns",
    "core.reclaim.retire_flush_ns",
    "core.notify.publish_idle_ns",
    "core.notify.park_wake_ns",
    "obs.counter_incr_ns",
    "obs.record_attempt_ns",
    "obs.abort_at_ns",
    "obs.snapshot_ns",
    "asyncrt.poll_ready_ns",
    "asyncrt.timer.arm_ns",
    "bench.clock_ns",
];

/// The 88 per-layer metrics, reported on every workload by `--trace 1`.
pub fn per_layer() -> Vec<MetricDef> {
    let mut out = unbounded_end_to_end();
    for b in BACKENDS {
        for (m, unit, better) in TRACED_BACKEND_METRICS {
            out.push(def(format!("{b}.{m}"), unit, better, None));
        }
    }
    for (m, unit, better) in TRACED_SHARED_METRICS {
        out.push(def(m, unit, better, None));
    }
    for b in BACKENDS.iter().copied().chain([LEDGER_ONLY_BACKEND]) {
        for row in LEDGER_TXN_ROWS {
            out.push(def(format!("{b}.{row}"), "ns", Better::Lower, None));
        }
    }
    for row in LEDGER_SHARED_ROWS {
        out.push(def(row, "ns", Better::Lower, None));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn metric_counts_match_the_issue() {
        assert_eq!(end_to_end().len(), 6);
        assert_eq!(per_layer().len(), 88);
        let mut names: Vec<String> = end_to_end()
            .into_iter()
            .chain(per_layer())
            .map(|m| m.name)
            .collect();
        names.sort();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "metric names are used once");
    }

    /// `BENCHMARK.json` is hand-written for the driver; this keeps it
    /// equal to the tables the program reports under.
    #[test]
    fn benchmark_json_mirrors_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");

        let Some(Json::Arr(workloads)) = doc.get("workloads") else {
            panic!("workloads missing");
        };
        let got: Vec<(&str, &str)> = workloads
            .iter()
            .map(|w| {
                (
                    w.get("name").and_then(Json::as_str).unwrap(),
                    w.get("why").and_then(Json::as_str).unwrap(),
                )
            })
            .collect();
        assert_eq!(got, WORKLOADS);
        assert!(WORKLOADS.iter().all(|(_, why)| why.len() <= 200));

        for (key, want) in [("end_to_end", end_to_end()), ("per_layer", per_layer())] {
            let Some(Json::Arr(items)) = doc.get(key) else {
                panic!("{key} missing");
            };
            let got: Vec<MetricDef> = items
                .iter()
                .map(|m| MetricDef {
                    name: m.get("name").and_then(Json::as_str).unwrap().to_string(),
                    unit: want
                        .iter()
                        .map(|w| w.unit)
                        .find(|u| Some(*u) == m.get("unit").and_then(Json::as_str))
                        .unwrap_or("?"),
                    better: Better::parse(m.get("better").and_then(Json::as_str).unwrap()).unwrap(),
                    bound: m.get("bound").and_then(Json::as_f64),
                })
                .collect();
            assert_eq!(got, want, "{key}");
        }
    }
}
