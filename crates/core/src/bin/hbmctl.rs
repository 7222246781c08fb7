//! `hbmctl` — host-side control tool for the simulated HBM undervolting
//! platform, mirroring the custom host interface the study built to drive
//! its experiments.
//!
//! Every measurement command is dispatched through the unified
//! [`Experiment`] trait and rendered through [`Render`], so the tool is a
//! thin shell: build a platform, pick an experiment, pick an output
//! format.
//!
//! ```text
//! hbmctl guardband   [--seed N] [--workers N] [--format text|csv|json]
//! hbmctl power-sweep [--seed N] [--format text|csv|json]
//! hbmctl reliability [--seed N] [--workers N] [--format text|csv|json]
//!                    [--from MV] [--to MV] [--step MV]
//!                    [--batch N] [--words N] [--exec cached|traffic]
//! hbmctl sweep       [reliability flags] [--checkpoint FILE] [--resume]
//!                    [--retries N] [--point-deadline MS] [--v-crash MV]
//!                    [--transient-prob P] [--transient-window MV]
//!                    [--trace-file FILE] [--progress]
//! hbmctl trade-off   [--seed N] [--format text|csv|json]
//! hbmctl governor    [--seed N] [--workers N] [--format text|csv|json]
//!                    [--workload throughput|latency|both]
//!                    [--latency-budget NS] [--bandwidth-target GBPS]
//!                    [--step MV] [--floor MV] [--margin MV] [--canary-words N]
//! hbmctl fault-map   [--seed N] [--out FILE]
//! hbmctl plan        [--seed N] --capacity-gb G --tolerance RATE
//!                    [--workload throughput|latency]
//!                    [--latency-budget NS] [--min-bandwidth GBPS]
//! hbmctl fleet sweep   [--devices N] [--seed N] [--workers N]
//!                      [--from MV] [--to MV] [--step MV] [--words N]
//!                      [--weak-reference MV] [--out FILE] [--export FILE]
//! hbmctl fleet query   --artifact FILE --device ID
//!                      [--target-rate R] [--min-pcs N] [--format text|json]
//! hbmctl fleet export  --artifact FILE [--out FILE]
//! hbmctl fleet summary --artifact FILE [--format text|csv|json]
//! hbmctl fleet compress --artifact FILE --out FILE [--keep-exact]
//! hbmctl fleet fidelity --artifact FILE [--format text|json]
//! hbmctl serve         --artifact FILE [--serve-workers N] [--rescan-cache-mb M]
//! ```
//!
//! Every fleet question — one-shot subcommand or long-lived `serve` loop —
//! routes through the same typed [`FleetRequest`]/[`FleetResponse`] pair
//! from `hbm_fleet::api`, so the two transports cannot drift.
//!
//! Exit codes: `0` success, `1` runtime failure (an experiment, device or
//! I/O error), `2` configuration/usage error (bad values, or a flag the
//! command does not take — printed with the usage text, before any work
//! runs).

use std::process::ExitCode;

use hbm_device::TransientCrashModel;
use hbm_faults::FaultMap;
use hbm_fleet::{
    ApiError, ArtifactMeta, FleetConfig, FleetCostModel, FleetError, FleetExport, FleetRequest,
    FleetResponse, FleetService, FleetStore, PopulationSummary,
};
use hbm_power::HbmPowerModel;
use hbm_traffic::DataPattern;
use hbm_undervolt::report::{to_json, Render};
use hbm_undervolt::{
    summarize, ExecutionMode, Experiment, GovernorConfig, GovernorScenario, GuardbandFinder,
    JsonlSink, PlanRequest, Platform, PowerSweep, ProgressSink, ReliabilityConfig,
    ReliabilityTester, SweepConfig, SystemClock, Telemetry, TestScope, TradeOffAnalysis,
    VoltageSweep, WorkloadMode,
};
use hbm_units::{Millivolts, Ratio};

/// Flags that take no value.
const BOOLEAN_FLAGS: &[&str] = &["resume", "progress", "keep-exact"];

/// The measurement flags `reliability` and `sweep` share.
const RELIABILITY_FLAGS: &str = "seed workers format from to step batch words exec";

/// The flags each command reads, as space-separated lists mirroring
/// [`USAGE`]; any other flag is a usage error. `fleet` subcommands are
/// keyed `"fleet <sub>"`; `None` for an unknown command.
fn accepted_flags(command: &str) -> Option<&'static [&'static str]> {
    Some(match command {
        "guardband" => &["seed workers format"],
        "power-sweep" | "trade-off" => &["seed format"],
        "reliability" => &[RELIABILITY_FLAGS],
        "sweep" => &[
            RELIABILITY_FLAGS,
            "checkpoint resume retries point-deadline v-crash transient-prob \
             transient-window trace-file progress",
        ],
        "governor" => &[
            "seed workers format workload latency-budget bandwidth-target \
             step floor margin canary-words",
        ],
        "fault-map" => &["seed out"],
        "plan" => &["seed capacity-gb tolerance workload latency-budget min-bandwidth"],
        "fleet sweep" => &["devices seed workers from to step words weak-reference out export"],
        "fleet query" => &["artifact device target-rate min-pcs format"],
        "fleet export" => &["artifact out"],
        "fleet summary" | "fleet fidelity" => &["artifact format"],
        "fleet compress" => &["artifact out keep-exact"],
        "serve" => &["artifact serve-workers rescan-cache-mb"],
        _ => return None,
    })
}

/// A CLI failure, split by blame so `main` can pick the exit code:
/// configuration/usage problems exit 2 (with the usage text), runtime
/// failures exit 1.
enum CliError {
    Config(String),
    Runtime(String),
}

impl CliError {
    fn config(message: impl Into<String>) -> Self {
        CliError::Config(message.into())
    }

    fn runtime(message: impl Into<String>) -> Self {
        CliError::Runtime(message.into())
    }
}

struct Args {
    positional: Vec<String>,
    flags: Vec<(String, String)>,
}

impl Args {
    fn parse() -> Result<Self, CliError> {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut iter = std::env::args().skip(1);
        while let Some(arg) = iter.next() {
            if let Some(name) = arg.strip_prefix("--") {
                if BOOLEAN_FLAGS.contains(&name) {
                    flags.push((name.to_owned(), "true".to_owned()));
                    continue;
                }
                let value = iter
                    .next()
                    .ok_or_else(|| CliError::config(format!("flag --{name} needs a value")))?;
                flags.push((name.to_owned(), value));
            } else {
                positional.push(arg);
            }
        }
        Ok(Args { positional, flags })
    }

    /// Rejects the first flag `command` does not take. Unknown commands
    /// pass through, so their dispatch can name them.
    fn check_flags(&self, command: &str) -> Result<(), CliError> {
        let Some(accepted) = accepted_flags(command) else {
            return Ok(());
        };
        let takes = |name: &str| {
            accepted
                .iter()
                .flat_map(|list| list.split_whitespace())
                .any(|flag| flag == name)
        };
        match self.flags.iter().find(|(name, _)| !takes(name)) {
            Some((name, _)) => Err(CliError::config(format!(
                "hbmctl {command} does not take --{name}"
            ))),
            None => Ok(()),
        }
    }

    fn flag<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, CliError> {
        match self.flags.iter().find(|(n, _)| n == name) {
            None => Ok(default),
            Some((_, raw)) => raw
                .parse()
                .map_err(|_| CliError::config(format!("invalid value for --{name}: {raw}"))),
        }
    }

    fn optional<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, CliError> {
        match self.flags.iter().find(|(n, _)| n == name) {
            None => Ok(None),
            Some((_, raw)) => raw
                .parse()
                .map(Some)
                .map_err(|_| CliError::config(format!("invalid value for --{name}: {raw}"))),
        }
    }

    fn required<T: std::str::FromStr>(&self, name: &str) -> Result<T, CliError> {
        let (_, raw) = self
            .flags
            .iter()
            .find(|(n, _)| n == name)
            .ok_or_else(|| CliError::config(format!("missing required flag --{name}")))?;
        raw.parse()
            .map_err(|_| CliError::config(format!("invalid value for --{name}: {raw}")))
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Config(message)) => {
            eprintln!("hbmctl: {message}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
        Err(CliError::Runtime(message)) => {
            eprintln!("hbmctl: {message}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  hbmctl guardband   [--seed N] [--workers N] [--format text|csv|json]
  hbmctl power-sweep [--seed N] [--format text|csv|json]
  hbmctl reliability [--seed N] [--workers N] [--format text|csv|json]
                     [--from MV] [--to MV] [--step MV] [--batch N] [--words N]
                     [--exec cached|traffic]
  hbmctl sweep       [reliability flags] [--checkpoint FILE] [--resume]
                     [--retries N] [--point-deadline MS] [--v-crash MV]
                     [--transient-prob P] [--transient-window MV]
                     [--trace-file FILE] [--progress]
  hbmctl trade-off   [--seed N] [--format text|csv|json]
  hbmctl governor    [--seed N] [--workers N] [--format text|csv|json]
                     [--workload throughput|latency|both]
                     [--latency-budget NS] [--bandwidth-target GBPS]
                     [--step MV] [--floor MV] [--margin MV] [--canary-words N]
  hbmctl fault-map   [--seed N] [--out FILE]
  hbmctl plan        [--seed N] --capacity-gb G --tolerance RATE
                     [--workload throughput|latency]
                     [--latency-budget NS] [--min-bandwidth GBPS]
  hbmctl fleet sweep   [--devices N] [--seed N] [--workers N] [--from MV] [--to MV] [--step MV]
                       [--words N] [--weak-reference MV] [--out FILE] [--export FILE]
  hbmctl fleet query   --artifact FILE --device ID [--target-rate R] [--min-pcs N]
                       [--format text|json]
  hbmctl fleet export  --artifact FILE [--out FILE]
  hbmctl fleet summary --artifact FILE [--format text|csv|json]
  hbmctl fleet compress --artifact FILE --out FILE [--keep-exact]
  hbmctl fleet fidelity --artifact FILE [--format text|json]
  hbmctl serve         --artifact FILE [--serve-workers N] [--rescan-cache-mb M]";

fn run() -> Result<(), CliError> {
    let args = Args::parse()?;
    let command = args
        .positional
        .first()
        .map(String::as_str)
        .ok_or_else(|| CliError::config("no command given"))?;
    match (command, args.positional.get(1)) {
        ("fleet", Some(sub)) => args.check_flags(&format!("fleet {sub}"))?,
        _ => args.check_flags(command)?,
    }
    let seed: u64 = args.flag("seed", 7)?;
    let workers: usize = args.flag("workers", 1)?;

    match command {
        "guardband" => dispatch(&GuardbandFinder::new(), seed, workers, &args),
        "power-sweep" => dispatch(&PowerSweep::date21(), seed, workers, &args),
        "reliability" => {
            let tester = ReliabilityTester::new(reliability_config(&args)?)
                .map_err(|e| CliError::config(e.to_string()))?;
            dispatch(&tester, seed, workers, &args)
        }
        "sweep" => supervised_sweep(seed, workers, &args),
        "trade-off" => dispatch(&trade_off(seed), seed, workers, &args),
        "governor" => governor(seed, workers, &args),
        "fault-map" => fault_map(seed, &args),
        "plan" => plan(seed, &args),
        "fleet" => fleet(seed, &args),
        "serve" => serve_loop(&args),
        other => Err(CliError::config(format!("unknown command: {other}"))),
    }
}

fn platform(seed: u64, workers: usize) -> Platform {
    Platform::builder().seed(seed).workers(workers).build()
}

/// Prints a report in the requested `--format`.
fn render<R: Render + serde::Serialize>(report: &R, format: &str) -> Result<(), CliError> {
    match format {
        "text" => print!("{}", report.to_text()),
        "csv" => print!("{}", report.to_csv()),
        "json" => println!(
            "{}",
            to_json(report).map_err(|e| CliError::runtime(e.to_string()))?
        ),
        other => {
            return Err(CliError::config(format!(
                "unknown format: {other} (use text, csv or json)"
            )))
        }
    }
    Ok(())
}

/// Runs any experiment and prints its report in the requested format —
/// the whole tool funnels through this one generic function.
fn dispatch<E>(experiment: &E, seed: u64, workers: usize, args: &Args) -> Result<(), CliError>
where
    E: Experiment,
    E::Report: Render + serde::Serialize,
{
    let format: String = args.flag("format", "text".to_owned())?;
    let mut p = platform(seed, workers);
    eprintln!(
        "hbmctl: {} (seed {seed}, {} worker{})",
        experiment.name(),
        p.workers(),
        if p.workers() == 1 { "" } else { "s" }
    );
    let report = experiment
        .run(&mut p)
        .map_err(|e| CliError::runtime(e.to_string()))?;
    render(&report, &format)
}

/// The measurement flags shared by `reliability` and `sweep`. Voltages are
/// parsed as typed [`Millivolts`] ("980" or "980mV").
fn reliability_config(args: &Args) -> Result<ReliabilityConfig, CliError> {
    let from: Millivolts = args.flag("from", Millivolts(980))?;
    let to: Millivolts = args.flag("to", Millivolts(850))?;
    let step: Millivolts = args.flag("step", Millivolts(10))?;
    let batch: usize = args.flag("batch", 1)?;
    let words: u64 = args.flag("words", 1024)?;
    let exec: String = args.flag("exec", "cached".to_owned())?;
    let mode = match exec.as_str() {
        "cached" => ExecutionMode::CachedMasks,
        "traffic" => ExecutionMode::Traffic,
        other => {
            return Err(CliError::config(format!(
                "unknown execution mode: {other} (use cached or traffic)"
            )))
        }
    };

    Ok(ReliabilityConfig {
        sweep: VoltageSweep::new(from, to, step).map_err(|e| CliError::config(e.to_string()))?,
        batch_size: batch,
        patterns: vec![DataPattern::AllOnes, DataPattern::AllZeros],
        scope: TestScope::EntireHbm,
        words_per_pc: Some(words),
        mode,
    })
}

/// `hbmctl sweep`: the crash-aware resilient runtime — checkpointed
/// resume, retry with backoff, per-port quarantine — over the reliability
/// measurement, assembled through the unified [`SweepConfig`].
fn supervised_sweep(seed: u64, workers: usize, args: &Args) -> Result<(), CliError> {
    let format: String = args.flag("format", "text".to_owned())?;
    let mut config = SweepConfig::from_reliability(reliability_config(args)?)
        .seed(seed)
        .workers(workers)
        .retries(args.flag("retries", 3u32)?);
    if let Some(deadline) = args.optional::<u64>("point-deadline")? {
        config = config.point_deadline_ms(deadline);
    }
    if let Some(v_crash) = args.optional::<Millivolts>("v-crash")? {
        config = config.v_crash(v_crash);
    }
    if let Some(probability) = args.optional::<f64>("transient-prob")? {
        if !(0.0..=1.0).contains(&probability) {
            return Err(CliError::config(
                "--transient-prob must be a probability in [0, 1]",
            ));
        }
        let window: Millivolts = args.flag("transient-window", Millivolts(50))?;
        config = config.transient_crashes(TransientCrashModel::new(probability, window));
    }
    if let Some(path) = args.optional::<String>("checkpoint")? {
        config = config.checkpoint(path);
    }
    let resume: bool = args.flag("resume", false)?;
    config = config.resume(resume);
    let supervisor = config
        .build_supervisor()
        .map_err(|e| CliError::config(e.to_string()))?;

    // Observation: --trace-file streams the typed event log as JSONL (in
    // diffable mode, so traces for one campaign compare byte-for-byte
    // across runs and worker counts); --progress narrates to stderr.
    let mut telemetry = Telemetry::new();
    if let Some(path) = args.optional::<String>("trace-file")? {
        let file = std::fs::File::create(&path)
            .map_err(|e| CliError::runtime(format!("creating {path}: {e}")))?;
        telemetry.add_observer(Box::new(JsonlSink::diffable(std::io::BufWriter::new(file))));
    }
    if args.flag("progress", false)? {
        telemetry.add_observer(Box::new(ProgressSink::new(std::io::stderr())));
    }

    let mut p = config.build_platform();
    let points = supervisor.tester().config().sweep.len();
    eprintln!(
        "hbmctl: {} (seed {seed}, {} worker{}, {points} point{}{})",
        supervisor.name(),
        p.workers(),
        if p.workers() == 1 { "" } else { "s" },
        if points == 1 { "" } else { "s" },
        if resume { ", resuming" } else { "" }
    );
    let result = supervisor.run_observed(&mut p, &mut SystemClock::new(), &telemetry);
    telemetry.finish();
    let report = result.map_err(|e| CliError::runtime(e.to_string()))?;
    render(&report, &format)?;
    eprintln!("hbmctl: {}", summarize(&report));
    Ok(())
}

fn trade_off(seed: u64) -> TradeOffAnalysis {
    let p = platform(seed, 1);
    let map = FaultMap::from_predictor(
        p.full_scale_predictor(),
        Millivolts(980),
        Millivolts(810),
        Millivolts(10),
    );
    TradeOffAnalysis::new(map, HbmPowerModel::date21())
}

/// The latency budget the two-row `--workload both` scenario descends
/// with when none is given: a little above the nominal random-access
/// latency (≈30 ns), so the latency row trips on timing stretch inside
/// the fault-free guardband while the throughput row descends to flips.
const DEFAULT_LATENCY_BUDGET_NS: f64 = 33.0;

/// `hbmctl governor`: closed-loop descents as an [`Experiment`]. The
/// default `--workload both` runs the canonical latency-vs-throughput
/// scenario; a single mode runs one descent under that workload's
/// pattern and constraints.
fn governor(seed: u64, workers: usize, args: &Args) -> Result<(), CliError> {
    let base = GovernorConfig {
        step: args.flag("step", Millivolts(10))?,
        canary_words: args.flag("canary-words", 512u64)?,
        floor: args.flag("floor", Millivolts(840))?,
        margin: args.flag("margin", Millivolts(10))?,
        latency_budget_ns: args.optional("latency-budget")?,
        bandwidth_target_gbps: args.optional("bandwidth-target")?,
        ..GovernorConfig::default()
    };
    let workload: String = args.flag("workload", "both".to_owned())?;
    let scenario = match workload.as_str() {
        "both" => GovernorScenario::latency_vs_throughput(
            base,
            base.latency_budget_ns.unwrap_or(DEFAULT_LATENCY_BUDGET_NS),
        ),
        token => {
            let mode = WorkloadMode::from_token(token).ok_or_else(|| {
                CliError::config(format!(
                    "unknown workload: {token} (use throughput, latency or both)"
                ))
            })?;
            GovernorScenario::new().with_variant(
                token,
                GovernorConfig {
                    workload: mode,
                    ..base
                },
            )
        }
    };
    dispatch(&scenario, seed, workers, args)
}

fn fault_map(seed: u64, args: &Args) -> Result<(), CliError> {
    let p = platform(seed, 1);
    let map = FaultMap::from_predictor(
        p.full_scale_predictor(),
        Millivolts(980),
        Millivolts(810),
        Millivolts(10),
    );
    let json = to_json(&map).map_err(|e| CliError::runtime(e.to_string()))?;
    match args.flags.iter().find(|(n, _)| n == "out") {
        Some((_, path)) => {
            std::fs::write(path, &json)
                .map_err(|e| CliError::runtime(format!("writing {path}: {e}")))?;
            println!(
                "fault map for seed {seed}: {} PCs x {} voltages -> {path}",
                map.profiles.len(),
                map.voltages.len()
            );
        }
        None => println!("{json}"),
    }
    Ok(())
}

fn plan(seed: u64, args: &Args) -> Result<(), CliError> {
    let capacity_gb: f64 = args.required("capacity-gb")?;
    let tolerance: f64 = args.required("tolerance")?;
    if !(0.0..=1.0).contains(&tolerance) {
        return Err(CliError::config("tolerance must be a fraction in [0, 1]"));
    }

    let workload_token: String = args.flag("workload", "throughput".to_owned())?;
    let mode = WorkloadMode::from_token(&workload_token).ok_or_else(|| {
        CliError::config(format!(
            "unknown workload: {workload_token} (use throughput or latency)"
        ))
    })?;

    let analysis = trade_off(seed);
    let bytes = (capacity_gb * (1u64 << 30) as f64) as u64;
    let mut request = PlanRequest::new(bytes, Ratio(tolerance)).with_pattern(mode.pattern());
    if let Some(budget) = args.optional::<f64>("latency-budget")? {
        request = request.with_latency_budget_ns(budget);
    }
    if let Some(floor) = args.optional::<f64>("min-bandwidth")? {
        request = request.with_min_delivered_gbps(floor);
    }
    match analysis.plan_request(&request) {
        Some(point) => {
            println!("operating point for ≥{capacity_gb} GB at ≤{tolerance} fault rate:");
            println!("  voltage        {}", point.voltage);
            println!(
                "  usable PCs     {} ({} GB)",
                point.usable_pcs.len(),
                point.capacity_bytes >> 30
            );
            println!("  power saving   {:.2}x vs nominal", point.saving_factor);
            println!("  worst PC rate  {:.3e}", point.worst_fault_rate.as_f64());
            println!(
                "  delivered      {:.1} GB/s ({} pattern)",
                point.delivered_gbps, workload_token
            );
            println!("  access latency {:.1} ns", point.access_latency_ns);
            Ok(())
        }
        None => Err(CliError::runtime(format!(
            "no swept voltage provides {capacity_gb} GB within fault rate {tolerance} \
             under the requested timing constraints"
        ))),
    }
}

/// `hbmctl fleet`: population-scale characterization — sweep N simulated
/// devices through the work-stealing engine, persist/load the columnar
/// artifact, and answer per-device voltage queries against it.
fn fleet(seed: u64, args: &Args) -> Result<(), CliError> {
    let sub = args.positional.get(1).map(String::as_str).ok_or_else(|| {
        CliError::config(
            "fleet needs a subcommand: sweep, query, export, summary, compress or fidelity",
        )
    })?;
    match sub {
        "sweep" => fleet_sweep(seed, args),
        "query" => fleet_query(args),
        "export" => fleet_export(args),
        "summary" => fleet_summary(args),
        "compress" => fleet_compress(args),
        "fidelity" => fleet_fidelity(args),
        other => Err(CliError::config(format!(
            "unknown fleet subcommand: {other} \
             (use sweep, query, export, summary, compress or fidelity)"
        ))),
    }
}

/// Splits fleet-layer failures by blame: malformed configuration exits 2,
/// everything else (I/O, a corrupt or future-versioned artifact, an
/// unknown device) is a runtime failure and exits 1.
fn fleet_err(error: FleetError) -> CliError {
    match error {
        FleetError::Config(_) => CliError::config(error.to_string()),
        _ => CliError::runtime(error.to_string()),
    }
}

/// Rejects artifact/output paths that cannot name a file — empty, or an
/// existing directory — as usage mistakes before any work happens.
fn checked_path(path: &str, flag: &str) -> Result<(), CliError> {
    if path.is_empty() {
        return Err(CliError::config(format!("--{flag} path is empty")));
    }
    if std::path::Path::new(path).is_dir() {
        return Err(CliError::config(format!(
            "--{flag} path {path} is a directory"
        )));
    }
    Ok(())
}

fn open_store(args: &Args) -> Result<FleetStore, CliError> {
    let path: String = args.required("artifact")?;
    checked_path(&path, "artifact")?;
    FleetStore::open(&path).map_err(fleet_err)
}

fn fleet_config(seed: u64, args: &Args) -> Result<FleetConfig, CliError> {
    let cfg = FleetConfig {
        devices: args.flag("devices", 64u32)?,
        base_seed: seed,
        workers: args.flag("workers", 0usize)?,
        from: args.flag("from", Millivolts(1000))?,
        down_to: args.flag("to", Millivolts(820))?,
        step: args.flag("step", Millivolts(10))?,
        words_per_pc: args.flag("words", 64u64)?,
        weak_reference: args.flag("weak-reference", Millivolts(900))?,
        ..FleetConfig::default()
    };
    cfg.validate().map_err(fleet_err)?;
    Ok(cfg)
}

fn fleet_sweep(seed: u64, args: &Args) -> Result<(), CliError> {
    let cfg = fleet_config(seed, args)?;
    let out: Option<String> = args.optional("out")?;
    let export: Option<String> = args.optional("export")?;
    if let Some(path) = &out {
        checked_path(path, "out")?;
    }
    if let Some(path) = &export {
        checked_path(path, "export")?;
    }

    eprintln!(
        "hbmctl: fleet sweep ({} devices, seed {seed}, {} knots)",
        cfg.devices,
        cfg.knots().len()
    );
    let report = hbm_fleet::sweep::run(&cfg).map_err(fleet_err)?;

    // Fold the run's accounting into the shared counter registry so fleet
    // sweeps surface through the same metrics vocabulary as supervised
    // sweeps.
    let telemetry = Telemetry::new();
    telemetry
        .metrics()
        .add_devices_swept(report.stats.devices_swept);
    telemetry
        .metrics()
        .add_devices_stolen(report.stats.devices_stolen);

    if let Some(path) = &out {
        let bytes =
            hbm_fleet::artifact::write_to_path(path, &cfg, &report.records).map_err(fleet_err)?;
        telemetry.metrics().add_artifact_bytes_written(bytes);
        println!(
            "fleet artifact: {} devices x {} PCs x {} knots -> {path} ({bytes} bytes)",
            cfg.devices,
            cfg.geometry.total_pcs(),
            cfg.knots().len()
        );
    }
    if let Some(path) = &export {
        let json = FleetExport::from_records(&cfg, &report.records).to_json();
        std::fs::write(path, &json)
            .map_err(|e| CliError::runtime(format!("writing {path}: {e}")))?;
        println!(
            "fleet export: {} devices -> {path} ({} bytes)",
            cfg.devices,
            json.len()
        );
    }
    if out.is_none() && export.is_none() {
        let meta = ArtifactMeta::from_config(&cfg);
        let summary =
            PopulationSummary::from_records(&meta, &report.records, &FleetCostModel::default());
        print!("{}", summary.to_text());
    }

    telemetry.finish();
    let snapshot = telemetry.metrics().snapshot();
    eprintln!(
        "hbmctl: fleet swept {} devices on {} worker{} in {} ms \
         ({} stolen across {} steals, {} artifact bytes)",
        snapshot.devices_swept,
        report.stats.workers,
        if report.stats.workers == 1 { "" } else { "s" },
        report.stats.wall_ms,
        snapshot.devices_stolen,
        report.stats.steals,
        snapshot.artifact_bytes_written
    );
    Ok(())
}

/// Splits typed-API errors by blame like [`fleet_err`]: `kind: "config"`
/// is a usage mistake (exit 2, usage text), every other kind a runtime
/// failure (exit 1).
fn api_err(error: &ApiError) -> CliError {
    if error.kind == "config" {
        CliError::config(error.message.clone())
    } else {
        CliError::runtime(error.message.clone())
    }
}

/// Sends one request through the typed API and unwraps the error variant
/// into the CLI's exit-code discipline — the single funnel every one-shot
/// fleet question goes through, identical to a `serve` session's routing.
fn ask(service: &FleetService, request: FleetRequest) -> Result<FleetResponse, CliError> {
    match service.handle(&request) {
        FleetResponse::Error(err) => Err(api_err(&err)),
        response => Ok(response),
    }
}

/// Folds a service's serving counters into the shared metrics registry so
/// one-shot queries and `serve` sessions surface through the same
/// vocabulary as sweeps.
fn fold_serve_stats(service: &FleetService, telemetry: &Telemetry) {
    let stats = service.stats();
    let metrics = telemetry.metrics();
    metrics.add_queries_served(stats.queries_served);
    metrics.add_compressed_hits(stats.compressed_hits);
    metrics.add_exact_rescans(stats.exact_rescans);
    metrics.set_model_bytes(stats.model_bytes);
    metrics.add_rescan_cache_hits(stats.rescan_cache_hits);
    metrics.add_kernel_rescans(stats.kernel_rescans);
    metrics.add_rescan_cache_evictions(stats.rescan_cache_evictions);
    metrics.add_singleflight_waits(stats.singleflight_waits);
}

/// Folds the concurrent pipeline's scheduling-dependent gauges (worker
/// count, queue-depth high-water mark, per-request latency histogram)
/// into the metrics registry, alongside [`fold_serve_stats`].
fn fold_pipeline_stats(stats: &hbm_fleet::PipelineStats, telemetry: &Telemetry) {
    let metrics = telemetry.metrics();
    metrics.set_serve_workers(stats.workers as u64);
    metrics.set_serve_queue_depth_max(stats.queue_depth_max);
    let latency = &stats.latency;
    metrics.merge_request_wall_us(
        latency.count,
        latency.sum_us,
        latency.min_us,
        latency.max_us,
        &latency.log2_buckets,
    );
}

fn fleet_query(args: &Args) -> Result<(), CliError> {
    let service = FleetService::new(open_store(args)?);
    let device_id: u32 = args.required("device")?;
    let target_rate: f64 = args.flag("target-rate", 1e-4)?;
    let min_pcs: u32 = args.flag("min-pcs", 1u32)?;
    let format: String = args.flag("format", "text".to_owned())?;
    let request = FleetRequest::Recommend {
        device_id,
        target_rate,
        min_pcs,
    };
    let response = ask(&service, request)?;
    let FleetResponse::Recommendation(rec) = &response else {
        return Err(CliError::runtime(
            "recommend answered with a non-recommendation",
        ));
    };
    match format.as_str() {
        "text" => {
            println!("device {device_id} (target rate {target_rate:.1e}, >= {min_pcs} PCs):");
            println!("  voltage        {} mV", rec.voltage_mv);
            println!(
                "  usable PCs     {} of {}",
                rec.usable_pcs.len(),
                service.store().meta().pc_count
            );
            println!("  crash floor    {} mV", rec.crash_mv);
            println!("  power saving   {:.2}x vs nominal", rec.saving_factor);
        }
        "json" => println!("{}", response.to_json().map_err(|e| api_err(&e))?),
        other => {
            return Err(CliError::config(format!(
                "unknown format: {other} (use text or json)"
            )))
        }
    }
    Ok(())
}

fn fleet_export(args: &Args) -> Result<(), CliError> {
    let service = FleetService::new(open_store(args)?);
    let FleetResponse::Export(doc) = ask(&service, FleetRequest::Export)? else {
        return Err(CliError::runtime("export answered with a non-export"));
    };
    let json = doc.to_json();
    match args.optional::<String>("out")? {
        Some(path) => {
            checked_path(&path, "out")?;
            std::fs::write(&path, &json)
                .map_err(|e| CliError::runtime(format!("writing {path}: {e}")))?;
            println!(
                "fleet export: {} devices -> {path} ({} bytes)",
                service.store().len(),
                json.len()
            );
        }
        None => print!("{json}"),
    }
    Ok(())
}

fn fleet_summary(args: &Args) -> Result<(), CliError> {
    let service = FleetService::new(open_store(args)?);
    let format: String = args.flag("format", "text".to_owned())?;
    let response = ask(&service, FleetRequest::Summary)?;
    let FleetResponse::Summary(summary) = &response else {
        return Err(CliError::runtime("summary answered with a non-summary"));
    };
    match format.as_str() {
        "text" => print!("{}", summary.to_text()),
        "csv" => print!("{}", summary.to_csv()),
        "json" => println!("{}", response.to_json().map_err(|e| api_err(&e))?),
        other => {
            return Err(CliError::config(format!(
                "unknown format: {other} (use text, csv or json)"
            )))
        }
    }
    Ok(())
}

/// `hbmctl fleet compress`: re-encode an exact artifact with fitted
/// parametric models (and optionally the exact columns alongside).
fn fleet_compress(args: &Args) -> Result<(), CliError> {
    let store = open_store(args)?;
    let out: String = args.required("out")?;
    checked_path(&out, "out")?;
    let keep_exact: bool = args.flag("keep-exact", false)?;
    let before = store.size_bytes();
    let bytes = hbm_fleet::model::compress_store(&store, keep_exact).map_err(fleet_err)?;
    std::fs::write(&out, &bytes).map_err(|e| CliError::runtime(format!("writing {out}: {e}")))?;
    println!(
        "fleet compress: {} devices, {before} -> {} bytes ({:.1}x){} -> {out}",
        store.len(),
        bytes.len(),
        before as f64 / bytes.len() as f64,
        if keep_exact { ", exact kept" } else { "" }
    );
    Ok(())
}

/// `hbmctl fleet fidelity`: quantify the compressed models against the
/// exact columns of the same artifact.
fn fleet_fidelity(args: &Args) -> Result<(), CliError> {
    let service = FleetService::new(open_store(args)?);
    let format: String = args.flag("format", "text".to_owned())?;
    let response = ask(&service, FleetRequest::Fidelity)?;
    let FleetResponse::Fidelity(report) = &response else {
        return Err(CliError::runtime("fidelity answered with a non-report"));
    };
    match format.as_str() {
        "text" => print!("{}", report.to_text()),
        "json" => println!("{}", response.to_json().map_err(|e| api_err(&e))?),
        other => {
            return Err(CliError::config(format!(
                "unknown format: {other} (use text or json)"
            )))
        }
    }
    Ok(())
}

/// The most pipeline worker threads `--serve-workers` may ask for.
const MAX_SERVE_WORKERS: usize = 256;

/// The largest rescan-cache budget `--rescan-cache-mb` may ask for, in MiB
/// (64 GiB).
const MAX_RESCAN_CACHE_MB: usize = 64 * 1024;

/// `hbmctl serve`: load one artifact and answer typed requests over
/// stdin/stdout as line-delimited JSON until EOF — no per-query artifact
/// load; a recommendation comes from a cached rescan row, else the model
/// envelope, else exact evidence.
///
/// All worker counts route through the serving pipeline
/// ([`hbm_fleet::serve_concurrent`]): one reader hands the workers chunks
/// of whatever request lines stdin has buffered, and the in-order emitter
/// writes each run of ready responses at once, flushing whenever the next
/// one is not ready yet. The output is byte-identical to sequential
/// serving at every `--serve-workers` value, so the flag only changes
/// throughput, never answers; `--serve-workers 1` serves inline on the
/// main thread. A request line over [`hbm_fleet::MAX_LINE_BYTES`] is
/// answered with a `parse` error and the session goes on.
fn serve_loop(args: &Args) -> Result<(), CliError> {
    let workers: usize = args.flag("serve-workers", 1usize)?;
    if !(1..=MAX_SERVE_WORKERS).contains(&workers) {
        return Err(CliError::config(format!(
            "--serve-workers must be between 1 and {MAX_SERVE_WORKERS}"
        )));
    }
    let cache_mb: usize = args.flag("rescan-cache-mb", 64usize)?;
    let cache_bytes = cache_mb
        .checked_mul(1024 * 1024)
        .filter(|_| cache_mb <= MAX_RESCAN_CACHE_MB)
        .ok_or_else(|| {
            CliError::config(format!(
                "--rescan-cache-mb must be at most {MAX_RESCAN_CACHE_MB}"
            ))
        })?;
    let service = FleetService::with_rescan_cache(open_store(args)?, cache_bytes);
    eprintln!(
        "hbmctl: serving {} devices ({}, {} model bytes); \
         one JSON request per line, EOF ends the session",
        service.store().len(),
        if service.store().has_exact_counts() {
            "exact+model"
        } else if service.store().has_model() {
            "model only"
        } else {
            "exact only"
        },
        service.store().model_bytes()
    );
    let stdin = std::io::stdin();
    let options = hbm_fleet::PipelineOptions {
        workers,
        completion_jitter: None,
    };
    // `Stdout` (not the lock guard) crosses into the emitter thread; the
    // emitter is the only writer, so per-call locking costs nothing.
    let pipeline = hbm_fleet::serve_concurrent(&service, stdin.lock(), std::io::stdout(), &options)
        .map_err(|e| CliError::runtime(format!("serve transport: {e}")))?;
    let stats = pipeline.serve;
    let telemetry = Telemetry::new();
    fold_serve_stats(&service, &telemetry);
    fold_pipeline_stats(&pipeline, &telemetry);
    telemetry.finish();
    eprintln!(
        "hbmctl: served {} quer{} ({} compressed hit{}, {} exact rescan{}, \
         {} exact column reads, {} model bytes)",
        stats.queries_served,
        if stats.queries_served == 1 {
            "y"
        } else {
            "ies"
        },
        stats.compressed_hits,
        if stats.compressed_hits == 1 { "" } else { "s" },
        stats.exact_rescans,
        if stats.exact_rescans == 1 { "" } else { "s" },
        service.store().exact_column_reads(),
        stats.model_bytes
    );
    eprintln!(
        "hbmctl: serve runtime: {} worker(s), queue depth high-water {}, \
         {} rescan-cache hit(s), {} kernel rescan(s), {} eviction(s), \
         {} single-flight wait(s)",
        pipeline.workers,
        pipeline.queue_depth_max,
        stats.rescan_cache_hits,
        stats.kernel_rescans,
        stats.rescan_cache_evictions,
        stats.singleflight_waits
    );
    Ok(())
}
