//! `check A.json B.json`: is result set B worse than result set A?
//!
//! One row per (workload, metric). A metric with a bound is judged by the
//! spread rule: *worse* only if B's median is worse than A's by more than
//! the bound; *unresolved* — neither worse nor unchanged — when either
//! side's own confidence range (`lo..hi`, see `report::Measured`) is wider
//! than the bound and the two ranges overlap, because then the runs
//! cannot tell a move of that size from noise. Per-layer metrics carry no bound and are listed for reading.

use crate::json::Json;
use crate::metrics::Better;
use std::fmt;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Improved,
    Worse,
    Unresolved,
    /// No bound: listed, not judged.
    Info,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(match self {
            Verdict::Ok => "ok",
            Verdict::Improved => "improved",
            Verdict::Worse => "WORSE",
            Verdict::Unresolved => "unresolved",
            Verdict::Info => "-",
        })
    }
}

/// One metric on one side: its value and the run's confidence range.
#[derive(Clone, Copy, Debug)]
pub struct Side {
    pub value: f64,
    pub lo: f64,
    pub hi: f64,
}

impl Side {
    fn spread(&self) -> f64 {
        (self.hi - self.lo) / self.value.abs()
    }
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
pub fn worsening(a: f64, b: f64, better: Better) -> f64 {
    match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

pub fn judge(a: Side, b: Side, better: Better, bound: Option<f64>) -> Verdict {
    let Some(bound) = bound else {
        return Verdict::Info;
    };
    let noisy = a.spread() > bound || b.spread() > bound;
    let overlap = a.lo <= b.hi && b.lo <= a.hi;
    let moved = worsening(a.value, b.value, better);
    if noisy && overlap {
        Verdict::Unresolved
    } else if moved > bound {
        Verdict::Worse
    } else if moved < -bound {
        Verdict::Improved
    } else {
        Verdict::Ok
    }
}

pub struct Row {
    pub workload: String,
    pub metric: String,
    pub unit: String,
    pub a: f64,
    pub b: f64,
    pub moved: f64,
    pub bound: Option<f64>,
    pub verdict: Verdict,
}

pub struct Comparison {
    pub rows: Vec<Row>,
    /// `(workload, failed share in A, failed share in B)` where B's is larger.
    pub more_failures: Vec<(String, f64, f64)>,
}

impl Comparison {
    /// Non-zero on a regression or a larger share of failed ops.
    pub fn exit_code(&self) -> i32 {
        let worse = self.rows.iter().any(|r| r.verdict == Verdict::Worse);
        i32::from(worse || !self.more_failures.is_empty())
    }

    pub fn print(&self) {
        println!(
            "{:<18} {:<30} {:>14} {:>14} {:>8} {:>6}  verdict",
            "workload", "metric", "A", "B", "worse%", "bound%"
        );
        for r in &self.rows {
            println!(
                "{:<18} {:<30} {:>14.4} {:>14.4} {:>+8.2} {:>6}  {} {}",
                r.workload,
                r.metric,
                r.a,
                r.b,
                r.moved * 100.0,
                r.bound
                    .map_or("-".to_string(), |b| format!("{:.0}", b * 100.0)),
                r.verdict,
                r.unit,
            );
        }
        for (w, a, b) in &self.more_failures {
            println!("{w}: failed share of ops rose from {a:.6} to {b:.6}");
        }
        let count = |v| self.rows.iter().filter(|r| r.verdict == v).count();
        println!(
            "{} worse, {} unresolved, {} improved, {} ok, {} listed without a bound",
            count(Verdict::Worse),
            count(Verdict::Unresolved),
            count(Verdict::Improved),
            count(Verdict::Ok),
            count(Verdict::Info),
        );
    }
}

/// A result file is either one workload's document or a set of them
/// under `results`; both read as `(workload, document)` pairs.
fn workloads(doc: &Json) -> Result<Vec<(&str, &Json)>, String> {
    if let Some(results) = doc.get("results") {
        return Ok(results
            .fields()
            .iter()
            .map(|(k, v)| (k.as_str(), v))
            .collect());
    }
    let name = doc
        .get("workload")
        .and_then(Json::as_str)
        .ok_or("neither `results` nor `workload` in result file")?;
    Ok(vec![(name, doc)])
}

fn side(m: &Json) -> Option<Side> {
    Some(Side {
        value: m.get("value")?.as_f64()?,
        lo: m.get("lo")?.as_f64()?,
        hi: m.get("hi")?.as_f64()?,
    })
}

fn failed_share(doc: &Json) -> Option<f64> {
    Some(doc.get("ops_failed")?.as_f64()? / doc.get("ops_attempted")?.as_f64()?)
}

pub fn compare(a: &Json, b: &Json) -> Result<Comparison, String> {
    let (wa, wb) = (workloads(a)?, workloads(b)?);
    let mut out = Comparison {
        rows: Vec::new(),
        more_failures: Vec::new(),
    };
    for (workload, doc_a) in wa {
        let Some((_, doc_b)) = wb.iter().find(|(w, _)| *w == workload) else {
            return Err(format!(
                "workload {workload} is missing from the second file"
            ));
        };
        let (fa, fb) = (
            failed_share(doc_a).ok_or("no ops_failed/ops_attempted in the first file")?,
            failed_share(doc_b).ok_or("no ops_failed/ops_attempted in the second file")?,
        );
        if fb > fa {
            out.more_failures.push((workload.to_string(), fa, fb));
        }
        let metrics_a = doc_a.get("metrics").ok_or("no metrics in the first file")?;
        for (name, ma) in metrics_a.fields() {
            let Some(mb) = doc_b.get("metrics").and_then(|m| m.get(name)) else {
                return Err(format!(
                    "{workload}: metric {name} is missing from the second file"
                ));
            };
            let better = ma
                .get("better")
                .and_then(Json::as_str)
                .and_then(Better::parse)
                .ok_or_else(|| format!("{workload}: metric {name} has no direction"))?;
            let bound = ma.get("bound").and_then(Json::as_f64);
            // A value the run could not produce (null) reads as NaN and
            // is never within a bound.
            let nan = Side {
                value: f64::NAN,
                lo: f64::NAN,
                hi: f64::NAN,
            };
            let (sa, sb) = (side(ma).unwrap_or(nan), side(mb).unwrap_or(nan));
            let verdict = if bound.is_some() && (sa.value.is_nan() || sb.value.is_nan()) {
                Verdict::Worse
            } else {
                judge(sa, sb, better, bound)
            };
            out.rows.push(Row {
                workload: workload.to_string(),
                metric: name.clone(),
                unit: ma
                    .get("unit")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string(),
                a: sa.value,
                b: sb.value,
                moved: worsening(sa.value, sb.value, better),
                bound,
                verdict,
            });
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::obj;

    fn s(value: f64, lo: f64, hi: f64) -> Side {
        Side { value, lo, hi }
    }

    #[test]
    fn regression_is_a_median_past_the_bound() {
        // Throughput down 20 % with tight ranges: worse.
        let v = judge(
            s(1000.0, 990.0, 1010.0),
            s(800.0, 790.0, 810.0),
            Better::Higher,
            Some(0.1),
        );
        assert_eq!(v, Verdict::Worse);
        // Latency up 20 %: worse; down 20 %: improved; up 5 %: ok.
        assert_eq!(
            judge(
                s(10.0, 9.9, 10.1),
                s(12.0, 11.9, 12.1),
                Better::Lower,
                Some(0.1)
            ),
            Verdict::Worse
        );
        assert_eq!(
            judge(
                s(10.0, 9.9, 10.1),
                s(8.0, 7.9, 8.1),
                Better::Lower,
                Some(0.1)
            ),
            Verdict::Improved
        );
        assert_eq!(
            judge(
                s(10.0, 9.9, 10.1),
                s(10.5, 10.4, 10.6),
                Better::Lower,
                Some(0.1)
            ),
            Verdict::Ok
        );
    }

    #[test]
    fn improvement_in_the_better_direction_is_not_a_regression() {
        let v = judge(
            s(1000.0, 990.0, 1010.0),
            s(1300.0, 1290.0, 1310.0),
            Better::Higher,
            Some(0.1),
        );
        assert_eq!(v, Verdict::Improved);
    }

    #[test]
    fn wide_overlapping_ranges_are_unresolved() {
        // A's own runs range over 30 % and B's median sits inside them.
        let v = judge(
            s(1000.0, 850.0, 1150.0),
            s(880.0, 870.0, 890.0),
            Better::Higher,
            Some(0.1),
        );
        assert_eq!(v, Verdict::Unresolved);
        // The same noise, but every run of B below every run of A: worse.
        let v = judge(
            s(1000.0, 850.0, 1150.0),
            s(700.0, 690.0, 710.0),
            Better::Higher,
            Some(0.1),
        );
        assert_eq!(v, Verdict::Worse);
        // Unchanged medians with wide ranges are unresolved too, not ok.
        let v = judge(
            s(1000.0, 850.0, 1150.0),
            s(1000.0, 990.0, 1010.0),
            Better::Higher,
            Some(0.1),
        );
        assert_eq!(v, Verdict::Unresolved);
    }

    #[test]
    fn metrics_without_a_bound_are_listed_not_judged() {
        assert_eq!(
            judge(
                s(10.0, 10.0, 10.0),
                s(99.0, 99.0, 99.0),
                Better::Lower,
                None
            ),
            Verdict::Info
        );
    }

    fn doc(ops: f64, failed: f64) -> Json {
        let metric = |value: f64, better: &str, bound: Json| {
            obj([
                ("value", Json::from(value)),
                ("lo", Json::from(value * 0.99)),
                ("hi", Json::from(value * 1.01)),
                ("n", Json::from(3u64)),
                ("unit", Json::from("1/s")),
                ("better", Json::from(better)),
                ("bound", bound),
            ])
        };
        obj([
            ("workload", Json::from("bank-hot")),
            ("ops_attempted", Json::from(1000.0)),
            ("ops_failed", Json::from(failed)),
            (
                "metrics",
                obj([
                    ("tl2.ops_per_s", metric(ops, "higher", Json::from(0.1))),
                    ("tl2.read_ns", metric(30.0, "lower", Json::Null)),
                ]),
            ),
        ])
    }

    #[test]
    fn compare_reads_single_documents_and_sets_alike() {
        let a = doc(1000.0, 0.0);
        let b = obj([("results", obj([("bank-hot", doc(1005.0, 0.0))]))]);
        let c = compare(&a, &b).unwrap();
        assert_eq!(c.rows.len(), 2);
        assert_eq!(c.rows[0].verdict, Verdict::Ok);
        assert_eq!(c.rows[1].verdict, Verdict::Info);
        assert_eq!(c.exit_code(), 0);
    }

    #[test]
    fn regression_and_larger_failed_share_exit_non_zero() {
        let regress = compare(&doc(1000.0, 0.0), &doc(700.0, 0.0)).unwrap();
        assert_eq!(regress.rows[0].verdict, Verdict::Worse);
        assert_ne!(regress.exit_code(), 0);

        let failures = compare(&doc(1000.0, 0.0), &doc(1000.0, 3.0)).unwrap();
        assert!(failures.rows.iter().all(|r| r.verdict != Verdict::Worse));
        assert_eq!(failures.more_failures.len(), 1);
        assert_ne!(failures.exit_code(), 0);

        // Fewer failures than before is not a regression.
        assert_eq!(
            compare(&doc(1000.0, 3.0), &doc(1000.0, 0.0))
                .unwrap()
                .exit_code(),
            0
        );
    }

    #[test]
    fn missing_workload_or_metric_is_an_error() {
        let mut other = doc(1000.0, 0.0);
        if let Json::Obj(fields) = &mut other {
            fields[0].1 = Json::from("set-read-mostly");
        }
        assert!(compare(&doc(1000.0, 0.0), &other).is_err());
        assert!(compare(&Json::Null, &doc(1.0, 0.0)).is_err());
    }
}
