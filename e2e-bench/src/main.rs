//! `e2e`: the end-to-end benchmark of the HBM undervolting reproduction.
//!
//! ```text
//! e2e [--workload NAME] [--seed N] [--seconds N] [--trace 0|1] [--trace-dir DIR]
//! ```
//!
//! With `--workload`, runs that workload in a child process and prints,
//! last, one JSON result line: `correct`, `attempted`, `failed` and the
//! metrics — the end-to-end ones, or with `--trace 1` the per-layer ones of
//! a traced run, whose spans go to `DIR/NAME.jsonl`. Without `--workload`,
//! runs all four workloads (and with `--trace 1` each again, traced) and
//! prints one detail line per run. The exit code is 0 only when every
//! check passed. See `README.md` for the workloads and metrics.

#![deny(deprecated)]

mod closed_loop;
mod fleet;
mod harness;
mod layers;
mod paper;
mod requests;
mod serve;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, ExitStatus, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use harness::{Outcome, END_TO_END};
use trace::Tracer;

/// The workloads, in run order.
const WORKLOADS: [&str; 4] = ["paper-sweep", "fleet-onset", "serve-rescan", "serve-model"];

const USAGE: &str =
    "usage: e2e [--workload NAME] [--seed N] [--seconds N] [--trace 0|1] [--trace-dir DIR]";

/// A workload child still running after this is killed, and its run counts
/// as failed.
const CHILD_TIMEOUT: Duration = Duration::from_secs(150);

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    trace_dir: PathBuf,
    /// Set on the child process that runs the workload in-process.
    child: bool,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            workload: None,
            seed: 7,
            seconds: 10,
            trace: false,
            trace_dir: PathBuf::from(".bench_trace"),
            child: false,
        };
        while let Some(flag) = argv.next() {
            if flag == "--child" {
                args.child = true;
                continue;
            }
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number = |what: &str| {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{what} {value}: not a whole number"))
            };
            match flag.as_str() {
                "--workload" if WORKLOADS.contains(&value.as_str()) => args.workload = Some(value),
                "--workload" => {
                    return Err(format!(
                        "unknown workload {value}; one of {}",
                        WORKLOADS.join(", ")
                    ))
                }
                "--seed" => args.seed = number("--seed")?,
                "--seconds" => args.seconds = number("--seconds")?.max(1),
                "--trace" => {
                    args.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace {value}: 0 or 1")),
                    }
                }
                "--trace-dir" => args.trace_dir = PathBuf::from(value),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(args)
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("e2e: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match (args.workload.clone(), args.child) {
        (Some(workload), true) => run_in_process(&args, &workload),
        (Some(workload), false) => run_one(&args, &workload),
        (None, _) => run_all(&args),
    }
}

/// Worker threads for every layer that takes a count: one per CPU.
fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// A JSON number, or `null` for a value that is not finite.
fn num(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_owned()
    }
}

fn metrics_json(metrics: &[(String, f64, &str)]) -> String {
    let members: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                num(*value)
            )
        })
        .collect();
    format!("{{{}}}", members.join(","))
}

/// The child: runs one workload here and prints its detail line and,
/// last, its result line.
fn run_in_process(args: &Args, workload: &str) -> ExitCode {
    let workers = nproc();
    let window_s = args.seconds as f64;
    let tracer = Arc::new(Tracer::new(args.trace));
    let mut outcome = match workload {
        "paper-sweep" => paper::run(args.seed, window_s, workers, &tracer),
        "fleet-onset" => fleet::run_onset(args.seed, window_s, &tracer),
        "serve-rescan" => serve::run(serve::Mix::Rescan, args.seed, window_s, workers, &tracer),
        _ => serve::run(serve::Mix::Model, args.seed, window_s, workers, &tracer),
    };
    let peak_rss_mib = stats::peak_rss_mib().unwrap_or(f64::NAN);
    if !outcome.details.iter().any(|(key, _)| *key == "paper") {
        match paper::headlines(args.seed, workers) {
            Ok(h) => outcome.detail("paper", paper::accuracy_json(&h)),
            Err(err) => outcome.tally(1, 1, || format!("headlines: {err}")),
        }
    }
    for problem in &outcome.problems {
        eprintln!("e2e: {workload}: {problem}");
    }

    let metrics = if args.trace {
        traced_metrics(args, workload, &tracer, &outcome)
    } else {
        let values = outcome.end_to_end(peak_rss_mib);
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| (name.to_owned(), value, unit))
            .collect()
    };
    let correct = outcome.failed == 0
        && outcome.attempted > 0
        && metrics.iter().all(|(_, value, _)| value.is_finite());
    let metrics = metrics_json(&metrics);

    let mut detail = format!(
        "{{\"workload\":\"{workload}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{workers},\
         \"ops_attempted\":{},\"ops_failed\":{},\"failed_frac\":{},\"output_digest\":\"fnv1a64:{}\",\
         \"latency_samples\":{},\"tail_quantile\":{},\"metrics\":{metrics}",
        args.seed,
        args.seconds,
        args.trace,
        outcome.attempted,
        outcome.failed,
        num(outcome.failed as f64 / outcome.attempted.max(1) as f64),
        outcome.digest.hex(),
        outcome.latencies_ms.len(),
        num(stats::tail_rank(outcome.latencies_ms.len()) as f64
            / outcome.latencies_ms.len().max(1) as f64),
    );
    for (key, json) in &outcome.details {
        let _ = write!(detail, ",\"{key}\":{json}");
    }
    detail.push('}');
    println!("{detail}");
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{metrics}}}",
        outcome.attempted, outcome.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Prints the per-layer table, writes the spans, and returns the
/// per-layer metrics of the result line.
fn traced_metrics(
    args: &Args,
    workload: &str,
    tracer: &Tracer,
    outcome: &Outcome,
) -> Vec<(String, f64, &'static str)> {
    let spans = tracer.spans();
    let rows = layers::rows(
        &spans,
        outcome.traced_ns,
        &outcome.layers,
        trace::span_cost_ns(),
    );
    print!(
        "{}",
        layers::table(workload, &rows, &outcome.layers.absent())
    );
    let path = args.trace_dir.join(format!("{workload}.jsonl"));
    if let Err(err) = write_spans(&path, &spans) {
        eprintln!("e2e: could not write {}: {err}", path.display());
    }
    rows.into_iter()
        .filter(layers::Row::in_result)
        .map(|row| (row.name, row.value, row.unit))
        .collect()
}

fn write_spans(path: &Path, spans: &[trace::Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let file = std::fs::File::create(path)?;
    trace::write_jsonl(spans, std::io::BufWriter::new(file))
}

/// A finished (or killed) workload child.
struct ChildRun {
    stdout: String,
    /// `None` when the child could not start or was killed at the timeout.
    status: Option<ExitStatus>,
}

impl ChildRun {
    fn passed(&self) -> bool {
        self.status.is_some_and(|s| s.success())
    }

    /// Whether the child printed its result line.
    fn reported(&self) -> bool {
        self.stdout
            .lines()
            .last()
            .is_some_and(|l| l.starts_with("{\"correct\":"))
    }
}

/// Runs one workload in a child process of this binary, so its peak memory
/// is its own and a crash or hang cannot take the others down. The child
/// is killed at [`CHILD_TIMEOUT`] and always waited for.
fn run_child(args: &Args, workload: &str, trace: bool) -> ChildRun {
    let spawned = std::env::current_exe().and_then(|exe| {
        Command::new(exe)
            .args(["--workload", workload, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }])
            .arg("--trace-dir")
            .arg(&args.trace_dir)
            .arg("--child")
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
    });
    let mut child = match spawned {
        Ok(child) => child,
        Err(err) => {
            eprintln!("e2e: {workload}: could not start: {err}");
            return ChildRun {
                stdout: String::new(),
                status: None,
            };
        }
    };
    let mut pipe = child.stdout.take().expect("child stdout is piped");
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        let _ = pipe.read_to_string(&mut text);
        text
    });
    let deadline = Instant::now() + CHILD_TIMEOUT;
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break Some(status),
            Ok(None) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(20)),
            outcome => {
                eprintln!("e2e: {workload}: killed ({outcome:?}) after {CHILD_TIMEOUT:?}");
                let _ = child.kill();
                let _ = child.wait();
                break None;
            }
        }
    };
    let stdout = reader.join().unwrap_or_default();
    ChildRun { stdout, status }
}

/// The result line of a run that crashed or timed out: one operation
/// attempted, and it failed.
fn crashed_line(seed: u64, workload: &str, trace: bool) -> (String, String) {
    let detail = format!(
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"trace\":{trace},\"ops_attempted\":1,\
         \"ops_failed\":1,\"failed_frac\":1,\"error\":\"crashed or timed out\"}}"
    );
    let result = "{\"correct\":false,\"attempted\":1,\"failed\":1,\"metrics\":{}}".to_owned();
    (detail, result)
}

fn run_one(args: &Args, workload: &str) -> ExitCode {
    let run = run_child(args, workload, args.trace);
    print!("{}", run.stdout);
    if !run.reported() {
        let (detail, result) = crashed_line(args.seed, workload, args.trace);
        println!("{detail}\n{result}");
        return ExitCode::FAILURE;
    }
    if run.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_all(args: &Args) -> ExitCode {
    let mut all_passed = true;
    let passes: &[bool] = if args.trace { &[false, true] } else { &[false] };
    for &trace in passes {
        for workload in WORKLOADS {
            let run = run_child(args, workload, trace);
            for line in run
                .stdout
                .lines()
                .filter(|l| !l.starts_with("{\"correct\":"))
            {
                println!("{line}");
            }
            if !run.reported() {
                println!("{}", crashed_line(args.seed, workload, trace).0);
            }
            all_passed &= run.passed();
        }
    }
    if all_passed {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str]) -> Result<Args, String> {
        Args::parse(argv.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let args = parse(&[
            "--workload",
            "serve-model",
            "--seed",
            "11",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(args.workload.as_deref(), Some("serve-model"));
        assert_eq!(
            (args.seed, args.seconds, args.trace, args.child),
            (11, 3, true, false)
        );
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--trace", "2"]).is_err());
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--frobnicate", "1"]).is_err());
    }

    #[test]
    fn benchmark_json_lists_the_metrics_this_binary_prints() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json: serde::Value = serde_json::from_str(&text).unwrap();
        let list = |key: &str| -> Vec<(String, String, String)> {
            serde::field(&json, key)
                .unwrap()
                .as_array()
                .unwrap()
                .iter()
                .map(|m| {
                    let get = |k: &str| serde::field(m, k).unwrap().as_str().unwrap().to_owned();
                    (get("name"), get("unit"), get("better"))
                })
                .collect()
        };
        let e2e: Vec<(String, String)> = list("end_to_end")
            .into_iter()
            .map(|(n, u, _)| (n, u))
            .collect();
        let want: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
            .collect();
        assert_eq!(e2e, want);

        let rows = layers::rows(&[], 1, &layers::LayerCounts::default(), 0.0);
        let per_layer: Vec<(String, String, String)> = rows
            .into_iter()
            .filter(layers::Row::in_result)
            .map(|r| (r.name, r.unit.to_owned(), r.better.to_owned()))
            .collect();
        assert_eq!(list("per_layer"), per_layer);

        let workloads: Vec<String> = serde::field(&json, "workloads")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|w| {
                serde::field(w, "name")
                    .unwrap()
                    .as_str()
                    .unwrap()
                    .to_owned()
            })
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }
}
