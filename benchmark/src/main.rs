//! One repeatable end-to-end and per-layer benchmark of the oftm STM
//! stack. See `README.md` for the commands, the workloads and how the
//! layer metrics are meant to explain the end-to-end ones.

mod check;
mod json;
mod ledger;
mod metrics;
mod report;
mod stats;
mod trace;
mod workloads;

use json::{obj, Json};
use metrics::BACKENDS;
use report::Report;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};
use workloads::{run_cell, CellResult, CellSpec, Workload, ALL_WORKLOADS};

const USAGE: &str = "\
usage: oftm-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
       oftm-benchmark run   [--seed <n>] [--seconds <s>] [--out <file>]
       oftm-benchmark trace [--seed <n>] [--seconds <s>] [--out <file>]
       oftm-benchmark check <A.json> <B.json>
workloads: set-read-mostly map-write-heavy bank-hot async-token-ring";

const DEFAULT_SEED: u64 = 1;
/// Measured seconds of one workload; `BENCHMARK.json` carries the same
/// number as `run_seconds`.
const DEFAULT_SECONDS: u64 = 20;

/// Length of one cell's timed interval. A run is cut into many short
/// cells rather than a few long ones: a cell's throughput depends on how
/// its threads happened to fall into step (coarse on `bank-hot` ranges
/// over ±25 % from cell to cell, whatever the cell's length), so the
/// median steadies with the number of cells, not with their length.
/// Cells are interleaved across backends (rep 1 of all five, then rep
/// 2, …) so that a slow second on the machine lands on every backend alike.
const CELL_INTERVAL: Duration = Duration::from_millis(100);
const CELL_WARMUP: Duration = Duration::from_millis(25);
/// Share of a traced run's seconds spent on the workload; the ledger
/// gets the rest.
const TRACED_WORKLOAD_SHARE: f64 = 0.6;

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// How one workload's seconds are split into cells.
struct Schedule {
    seed: u64,
    seconds: u64,
    repetitions: u32,
    warmup: Duration,
    interval: Duration,
    /// Traced runs only.
    ledger: Duration,
}

impl Schedule {
    fn new(seed: u64, seconds: u64, traced: bool) -> Self {
        let total = Duration::from_secs(seconds);
        // A traced repetition runs every backend twice: traced, for the
        // spans, and untraced, for what the clients see and for
        // `trace.overhead_share`.
        let (kinds, workload_share) = if traced {
            (2 * BACKENDS.len() as u32, TRACED_WORKLOAD_SHARE)
        } else {
            (BACKENDS.len() as u32, 1.0)
        };
        let per_kind = total.mul_f64(workload_share) / kinds;
        let repetitions = (per_kind.as_secs_f64() / CELL_INTERVAL.as_secs_f64())
            .round()
            .max(1.0) as u32;
        Schedule {
            seed,
            seconds,
            repetitions,
            warmup: CELL_WARMUP,
            interval: per_kind / repetitions,
            ledger: total.mul_f64(1.0 - workload_share),
        }
    }

    /// Every backend of a repetition gets the same inputs.
    fn spec(&self, workload: Workload, backend: &'static str, rep: u32, traced: bool) -> CellSpec {
        CellSpec {
            workload,
            backend,
            rep,
            seed: stats::SplitMix::derive(self.seed, u64::from(rep)).next_u64(),
            warmup: self.warmup,
            interval: self.interval,
            traced,
        }
    }
}

/// Output of `program args…`, trimmed; `None` if it cannot be run or fails.
fn tool_output(program: &str, args: &[&str]) -> Option<String> {
    let repo_root = Path::new(env!("CARGO_MANIFEST_DIR")).parent()?;
    let out = Command::new(program)
        .args(args)
        .current_dir(repo_root)
        // A checkout that is not a repository must not be mistaken for
        // part of one further up.
        .env("GIT_CEILING_DIRECTORIES", repo_root.parent()?)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    let line = info.lines().find(|l| l.starts_with("model name"))?;
    Some(line.split_once(':')?.1.trim().to_string())
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// What the numbers depend on besides the code: recorded with every
/// output. A dirty tree is recorded, not refused — the pipeline measures
/// uncommitted trees.
fn meta(s: &Schedule) -> Json {
    let dirty = tool_output("git", &["status", "--porcelain"]).map(|o| !o.is_empty());
    obj([
        (
            "git_rev",
            Json::from(tool_output("git", &["rev-parse", "HEAD"])),
        ),
        ("dirty", Json::from(dirty)),
        (
            "nproc",
            Json::from(std::thread::available_parallelism().map_or(0, |n| n.get())),
        ),
        ("cpu_model", Json::from(cpu_model())),
        ("rustc", Json::from(tool_output("rustc", &["-V"]))),
        (
            "profile",
            Json::from(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("seed", Json::from(s.seed)),
        ("seconds", Json::from(s.seconds)),
        ("repetitions", Json::from(u64::from(s.repetitions))),
        ("warmup_s", Json::from(s.warmup.as_secs_f64())),
        ("interval_s", Json::from(s.interval.as_secs_f64())),
        ("ledger_s", Json::from(s.ledger.as_secs_f64())),
        ("threads", Json::from(workloads::worker_threads())),
        (
            "latency_sample_every",
            Json::from(workloads::LATENCY_SAMPLE_EVERY),
        ),
        ("trace_sample_every", Json::from(trace::SAMPLE_EVERY)),
        (
            "attempt_budget",
            Json::from(u64::from(workloads::ATTEMPT_BUDGET)),
        ),
    ])
}

/// Runs one workload and returns its report.
fn measure(workload: Workload, s: &Schedule, traced: bool) -> Result<Report, String> {
    let ledger = if traced {
        ledger::run(s.ledger)
    } else {
        Vec::new()
    };
    let origin = Instant::now();
    let mut cells: Vec<CellResult> = Vec::new();
    for rep in 0..s.repetitions {
        for backend in BACKENDS {
            cells.push(run_cell(&s.spec(workload, backend, rep, false)));
            if traced {
                cells.push(run_cell(&s.spec(workload, backend, rep, true)));
            }
        }
    }
    if !traced {
        return Ok(Report::end_to_end(workload, cells, rss_peak_mb()));
    }
    let kept: Vec<(&str, Vec<trace::Span>)> = BACKENDS
        .iter()
        .map(|&b| {
            let spans = cells
                .iter_mut()
                .filter(|c| c.backend == b)
                .filter_map(|c| c.spans.as_mut())
                .flat_map(|s| std::mem::take(&mut s.raw))
                .collect();
            (b, spans)
        })
        .collect();
    write_file(
        &out_dir().join(format!("trace-{}.json", workload.name())),
        &trace::chrome_trace(&kept, origin).render(),
    )?;
    Ok(Report::per_layer(workload, cells, ledger))
}

/// Where the full record of one workload's run goes.
fn document_path(workload: Workload, traced: bool) -> PathBuf {
    let mode = if traced { "trace" } else { "run" };
    out_dir().join(format!("{}.{mode}.json", workload.name()))
}

/// The contract's command: one workload, result line last.
fn single(workload: Workload, seed: u64, seconds: u64, traced: bool) -> Result<i32, String> {
    let schedule = Schedule::new(seed, seconds, traced);
    let report = measure(workload, &schedule, traced)?;
    let mut doc = vec![("meta".to_string(), meta(&schedule))];
    doc.extend(report.document().fields().iter().cloned());
    write_file(
        &document_path(workload, traced),
        &Json::Obj(doc).render_pretty(),
    )?;
    report.print();
    println!("{}", report.result_line());
    Ok(report.exit_code())
}

/// `run` / `trace`: every workload, each in a fresh child process so that
/// memory peaks do not accumulate, gathered into one result set (meta
/// block, then per workload the metrics and the op counts).
fn all(seed: u64, seconds: u64, traced: bool, out: Option<PathBuf>) -> Result<i32, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let mut code = 0;
    let mut results = Vec::new();
    let mut meta = Json::Null;
    for workload in ALL_WORKLOADS {
        let status = Command::new(&exe)
            .args(["--workload", workload.name()])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .args(["--trace", if traced { "1" } else { "0" }])
            .status()
            .map_err(|e| format!("{}: {e}", exe.display()))?;
        code = code.max(status.code().unwrap_or(1));
        let path = document_path(workload, traced);
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut fields = match Json::parse(&text)? {
            Json::Obj(fields) => fields,
            _ => return Err(format!("{}: not an object", path.display())),
        };
        // A set carries what `check` reads; the per-cell rows stay in
        // the workload's own document.
        fields.retain(|(k, v)| {
            if k == "meta" {
                meta = v.clone();
            }
            k != "meta" && k != "cells"
        });
        results.push((workload.name(), Json::Obj(fields)));
    }
    let mode = if traced { "trace" } else { "run" };
    let out = out.unwrap_or_else(|| out_dir().join(format!("{mode}-seed{seed}.json")));
    let set = obj([("meta", meta), ("results", obj(results))]);
    write_file(&out, &set.render_pretty())?;
    println!("result set: {}", out.display());
    Ok(code)
}

fn check_files(a: &str, b: &str) -> Result<i32, String> {
    let read = |p: &str| -> Result<Json, String> {
        Json::parse(&std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?)
            .map_err(|e| format!("{p}: {e}"))
    };
    let cmp = check::compare(&read(a)?, &read(b)?)?;
    cmp.print();
    Ok(cmp.exit_code())
}

/// `--flag value` pairs after the subcommand.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut out = Vec::new();
        for pair in args.chunks(2) {
            match pair {
                [flag, value] if flag.starts_with("--") => {
                    out.push((flag[2..].to_string(), value.clone()))
                }
                _ => return Err(format!("expected `--flag value`, got {pair:?}")),
            }
        }
        Ok(Flags(out))
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    fn number(&self, name: &str, default: Option<u64>) -> Result<u64, String> {
        match (self.get(name), default) {
            (Some(v), _) => v
                .parse()
                .map_err(|_| format!("--{name} {v}: not a whole number")),
            (None, Some(d)) => Ok(d),
            (None, None) => Err(format!("--{name} is required")),
        }
    }

    fn seconds(&self, default: Option<u64>) -> Result<u64, String> {
        match self.number("seconds", default)? {
            0 => Err("--seconds must be at least 1".to_string()),
            s => Ok(s),
        }
    }
}

fn dispatch(args: &[String]) -> Result<i32, String> {
    match args.first().map(String::as_str) {
        Some("check") => match &args[1..] {
            [a, b] => check_files(a, b),
            _ => Err("check takes two result files".to_string()),
        },
        Some(mode @ ("run" | "trace")) => {
            let flags = Flags::parse(&args[1..])?;
            all(
                flags.number("seed", Some(DEFAULT_SEED))?,
                flags.seconds(Some(DEFAULT_SECONDS))?,
                mode == "trace",
                flags.get("out").map(PathBuf::from),
            )
        }
        Some(flag) if flag.starts_with("--") => {
            let flags = Flags::parse(args)?;
            let name = flags.get("workload").ok_or("--workload is required")?;
            let workload =
                Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?;
            let traced = match flags.get("trace") {
                Some("0") => false,
                Some("1") => true,
                other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
            };
            single(
                workload,
                flags.number("seed", None)?,
                flags.seconds(None)?,
                traced,
            )
        }
        _ => Err("no command".to_string()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => ExitCode::from(code as u8),
        Err(why) => {
            eprintln!("oftm-benchmark: {why}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn schedules_spend_the_seconds_they_are_given() {
        let s = Schedule::new(1, 20, false);
        assert_eq!(s.repetitions, 40);
        assert_eq!(
            s.interval * BACKENDS.len() as u32 * s.repetitions,
            Duration::from_secs(20)
        );
        let t = Schedule::new(1, 20, true);
        let cells = 2 * BACKENDS.len() as u32 * t.repetitions;
        assert!(
            (t.interval * cells + t.ledger).abs_diff(Duration::from_secs(20))
                < Duration::from_millis(1)
        );
    }

    #[test]
    fn every_backend_of_a_repetition_gets_the_same_seed() {
        let s = Schedule::new(9, 20, false);
        let a = s.spec(Workload::BankHot, "dstm", 1, false).seed;
        assert_eq!(a, s.spec(Workload::BankHot, "tl2", 1, false).seed);
        assert_ne!(a, s.spec(Workload::BankHot, "dstm", 2, false).seed);
        assert_ne!(
            a,
            Schedule::new(10, 20, false)
                .spec(Workload::BankHot, "dstm", 1, false)
                .seed
        );
    }

    #[test]
    fn malformed_command_lines_are_refused() {
        for bad in [
            &[][..],
            &["bogus"],
            &["check", "only-one.json"],
            &["--workload", "bank-hot", "--seed", "1", "--seconds", "1"],
            &[
                "--workload",
                "nope",
                "--seed",
                "1",
                "--seconds",
                "1",
                "--trace",
                "0",
            ],
            &[
                "--workload",
                "bank-hot",
                "--seed",
                "x",
                "--seconds",
                "1",
                "--trace",
                "0",
            ],
            &[
                "--workload",
                "bank-hot",
                "--seed",
                "1",
                "--seconds",
                "0",
                "--trace",
                "0",
            ],
            &[
                "--workload",
                "bank-hot",
                "--seed",
                "1",
                "--seconds",
                "1",
                "--trace",
                "2",
            ],
            &["run", "--seed"],
        ] {
            assert!(dispatch(&strings(bad)).is_err(), "{bad:?} was accepted");
        }
    }

    #[test]
    fn meta_names_the_machine_and_the_schedule() {
        let m = meta(&Schedule::new(3, 20, false));
        for key in [
            "git_rev",
            "dirty",
            "nproc",
            "cpu_model",
            "rustc",
            "profile",
            "seed",
            "interval_s",
            "threads",
        ] {
            assert!(m.get(key).is_some(), "meta lacks {key}");
        }
        assert_eq!(m.get("seed").unwrap().as_f64(), Some(3.0));
        assert!(m.get("nproc").unwrap().as_f64().unwrap() >= 1.0);
    }
}
