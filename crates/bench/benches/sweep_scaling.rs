//! Scaling bench for the parallel sweep engine: the same reliability sweep
//! at 1 worker vs N workers, verifying bit-identical fault totals and
//! recording wall-clock timings to `BENCH_sweep_scaling.json`.
//!
//! This is a plain `harness = false` binary (not Criterion) because the
//! deliverable is a machine-readable speedup record, not a statistical
//! distribution. Run with: `cargo bench -p hbm-bench --bench sweep_scaling`.

use std::time::Instant;

use hbm_device::TimingStretchModel;
use hbm_undervolt::{
    Experiment, Platform, ReliabilityConfig, ReliabilityReport, ReliabilityTester, VoltageSweep,
};
use hbm_units::Millivolts;
use serde::Serialize;

const SEED: u64 = 7;
const ITERATIONS: u32 = 3;

#[derive(Serialize)]
struct Entry {
    workers: usize,
    seconds: f64,
    speedup: f64,
    mean_faults: f64,
}

/// Wall-clock comparison of the same sweep with the voltage–latency
/// stretch model armed vs disabled. Effective timings are computed on
/// demand from the rail — never inside the sweep loop — so the armed run
/// must not be measurably slower.
#[derive(Serialize)]
struct TimingOverhead {
    stretched_secs: f64,
    stretch_free_secs: f64,
    overhead_ratio: f64,
}

#[derive(Serialize)]
struct Record {
    bench: &'static str,
    seed: u64,
    host_cores: usize,
    iterations: u32,
    note: &'static str,
    results: Vec<Entry>,
    timing_overhead: TimingOverhead,
}

fn workload() -> ReliabilityTester {
    let config = ReliabilityConfig {
        sweep: VoltageSweep::new(Millivolts(960), Millivolts(860), Millivolts(20))
            .expect("static sweep"),
        batch_size: 2,
        words_per_pc: Some(1024),
        ..ReliabilityConfig::date21()
    };
    ReliabilityTester::new(config).expect("config valid")
}

/// Best-of-N wall clock for the sweep at a given worker count, plus the
/// report of the final run (all runs are bit-identical by construction).
fn time_sweep(workers: usize) -> (f64, ReliabilityReport) {
    let tester = workload();
    let mut best = f64::INFINITY;
    let mut report = None;
    for _ in 0..ITERATIONS {
        let mut platform = Platform::builder().seed(SEED).workers(workers).build();
        let start = Instant::now();
        let r = Experiment::run(&tester, &mut platform).expect("sweep");
        best = best.min(start.elapsed().as_secs_f64());
        report = Some(r);
    }
    (best, report.expect("at least one iteration"))
}

fn total_faults(report: &ReliabilityReport) -> f64 {
    report.points.iter().map(|p| p.total_mean_faults()).sum()
}

/// Best-of-N wall clock for the sequential sweep under an explicit
/// timing-stretch model, plus the final report.
fn time_sweep_with_stretch(stretch: TimingStretchModel) -> (f64, ReliabilityReport) {
    let tester = workload();
    let mut best = f64::INFINITY;
    let mut report = None;
    for _ in 0..ITERATIONS {
        let mut platform = Platform::builder()
            .seed(SEED)
            .workers(1)
            .timing_stretch(stretch)
            .build();
        let start = Instant::now();
        let r = Experiment::run(&tester, &mut platform).expect("sweep");
        best = best.min(start.elapsed().as_secs_f64());
        report = Some(r);
    }
    (best, report.expect("at least one iteration"))
}

/// The stretch model must be free at sweep time: effective timings are a
/// pure on-demand function of the rail, so a sweep with the model armed is
/// bit-identical to a stretch-free sweep and not measurably slower. The
/// ratio bound is loose (wall clocks are noisy) but one-sided: a timing
/// computation leaking into the per-word hot path would blow well past it.
fn measure_timing_overhead() -> TimingOverhead {
    let (stretched_secs, stretched) = time_sweep_with_stretch(TimingStretchModel::date21());
    let (stretch_free_secs, stretch_free) = time_sweep_with_stretch(TimingStretchModel::none());
    assert_eq!(
        stretched, stretch_free,
        "the stretch model changed the fault counting of a sweep"
    );
    let overhead_ratio = stretched_secs / stretch_free_secs;
    assert!(
        overhead_ratio < 1.25,
        "stretch model added measurable sweep overhead: {overhead_ratio:.3}x"
    );
    println!(
        "  timing overhead: {stretched_secs:.3}s armed vs {stretch_free_secs:.3}s \
         stretch-free ({overhead_ratio:.2}x, bit-identical)"
    );
    TimingOverhead {
        stretched_secs,
        stretch_free_secs,
        overhead_ratio,
    }
}

fn main() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("sweep_scaling: seed {SEED}, {cores} host core(s), best of {ITERATIONS} runs");

    let (baseline_secs, baseline) = time_sweep(1);
    let baseline_faults = total_faults(&baseline);
    println!("  1 worker : {baseline_secs:.3}s  ({baseline_faults:.0} mean faults)");

    let mut results = vec![Entry {
        workers: 1,
        seconds: baseline_secs,
        speedup: 1.0,
        mean_faults: baseline_faults,
    }];

    for workers in [2usize, 4, 8] {
        let (secs, report) = time_sweep(workers);
        assert_eq!(
            baseline, report,
            "parallel report diverged from sequential at {workers} workers"
        );
        let speedup = baseline_secs / secs;
        println!("  {workers} workers: {secs:.3}s  ({speedup:.2}x vs sequential, bit-identical)");
        results.push(Entry {
            workers,
            seconds: secs,
            speedup,
            mean_faults: total_faults(&report),
        });
    }

    let timing_overhead = measure_timing_overhead();

    let record = Record {
        bench: "sweep_scaling",
        seed: SEED,
        host_cores: cores,
        iterations: ITERATIONS,
        note: if cores == 1 {
            "single-core host: worker threads interleave on one CPU, so speedup \
             reflects scheduling overhead only; determinism is still asserted"
        } else {
            "speedup = sequential wall clock / parallel wall clock, best of N"
        },
        results,
        timing_overhead,
    };

    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_sweep_scaling.json"
    );
    let body = serde_json::to_string_pretty(&record).expect("serialize record");
    std::fs::write(path, body + "\n").expect("write BENCH_sweep_scaling.json");
    println!("wrote {path}");
}
