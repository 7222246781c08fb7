//! Incremental-sweep bench for the coupled fault field: one full
//! descending sweep measured three ways — the legacy per-voltage field,
//! a coupled-field rescan (one `run_point` per voltage, which never
//! carries), and the coupled-field incremental kernel (a full `run`, which
//! carries) — verifying that both coupled paths
//! produce identical per-point reports and recording wall-clock timings
//! to `BENCH_incremental_sweep.json`.
//!
//! This is a plain `harness = false` binary (not Criterion) because the
//! deliverable is a machine-readable speedup record, not a statistical
//! distribution. Run with: `cargo bench -p hbm-bench --bench incremental_sweep`.

use std::time::Instant;

use hbm_traffic::DataPattern;
use hbm_undervolt::{
    ExecutionMode, Experiment, FaultFieldMode, Platform, ReliabilityConfig, ReliabilityTester,
    TestScope, VoltagePoint, VoltageSweep,
};
use hbm_units::Millivolts;
use serde::Serialize;

const SEED: u64 = 7;
const ITERATIONS: u32 = 3;

#[derive(Serialize)]
struct Entry {
    path: &'static str,
    seconds: f64,
    speedup_vs_rescan: f64,
    mean_faults: f64,
    mean_mask_reuse: f64,
}

#[derive(Serialize)]
struct Record {
    bench: &'static str,
    seed: u64,
    iterations: u32,
    points: usize,
    words_per_pc: u64,
    note: &'static str,
    results: Vec<Entry>,
}

fn workload(fault_field: FaultFieldMode) -> ReliabilityTester {
    let config = ReliabilityConfig {
        sweep: VoltageSweep::new(Millivolts(1200), Millivolts(810), Millivolts(5))
            .expect("static sweep"),
        batch_size: 1,
        patterns: vec![DataPattern::AllOnes, DataPattern::AllZeros],
        scope: TestScope::Ports(vec![0, 1, 2, 3]),
        words_per_pc: Some(4096),
        sample_words: None,
        mode: ExecutionMode::CachedMasks,
        fault_field,
    };
    ReliabilityTester::new(config).expect("config valid")
}

/// The whole sweep as one `run`: coupled-field sweeps carry their working
/// set from point to point.
fn full_run(tester: &ReliabilityTester, platform: &mut Platform) -> Vec<VoltagePoint> {
    Experiment::run(tester, platform).expect("sweep").points
}

/// The sweep as one `run_point` per voltage: every point rescans.
fn per_point(tester: &ReliabilityTester, platform: &mut Platform) -> Vec<VoltagePoint> {
    let ports = tester.scoped_ports(platform).expect("scope valid");
    tester
        .config()
        .sweep
        .iter()
        .map(|v| tester.run_point(platform, &ports, v).expect("point"))
        .collect()
}

/// Best-of-N wall clock for the sweep under one fault field and driver,
/// plus the points of the final run (all runs are bit-identical).
fn time_sweep(
    fault_field: FaultFieldMode,
    sweep: fn(&ReliabilityTester, &mut Platform) -> Vec<VoltagePoint>,
) -> (f64, Vec<VoltagePoint>) {
    let tester = workload(fault_field);
    let mut best = f64::INFINITY;
    let mut points = None;
    for _ in 0..ITERATIONS {
        let mut platform = Platform::builder().seed(SEED).workers(1).build();
        let start = Instant::now();
        let p = sweep(&tester, &mut platform);
        best = best.min(start.elapsed().as_secs_f64());
        points = Some(p);
    }
    (best, points.expect("at least one iteration"))
}

fn total_faults(points: &[VoltagePoint]) -> f64 {
    points.iter().map(VoltagePoint::total_mean_faults).sum()
}

fn mean_reuse(points: &[VoltagePoint]) -> f64 {
    let ratios: Vec<f64> = points.iter().filter_map(|p| p.mask_reuse).collect();
    if ratios.is_empty() {
        0.0
    } else {
        ratios.iter().sum::<f64>() / ratios.len() as f64
    }
}

fn main() {
    println!("incremental_sweep: seed {SEED}, best of {ITERATIONS} runs");

    let (legacy_secs, legacy) = time_sweep(FaultFieldMode::PerVoltage, full_run);
    println!("  legacy per-voltage : {legacy_secs:.3}s");

    let (rescan_secs, rescan) = time_sweep(FaultFieldMode::MonotoneCoupled, per_point);
    println!("  coupled rescan     : {rescan_secs:.3}s");

    let (inc_secs, incremental) = time_sweep(FaultFieldMode::MonotoneCoupled, full_run);
    let speedup = rescan_secs / inc_secs;
    println!("  coupled incremental: {inc_secs:.3}s  ({speedup:.2}x vs rescan)");

    // The incremental kernel is a pure performance path: every per-point
    // statistic — fault counts, polarities, per-port splits — must equal
    // the from-scratch coupled rescan exactly.
    assert_eq!(
        incremental, rescan,
        "incremental coupled sweep diverged from the from-scratch rescan"
    );
    assert!(
        speedup > 1.0,
        "carrying the working set must beat rescanning ({speedup:.2}x)"
    );

    let results = vec![
        Entry {
            path: "legacy-per-voltage",
            seconds: legacy_secs,
            speedup_vs_rescan: rescan_secs / legacy_secs,
            mean_faults: total_faults(&legacy),
            mean_mask_reuse: 0.0,
        },
        Entry {
            path: "coupled-rescan",
            seconds: rescan_secs,
            speedup_vs_rescan: 1.0,
            mean_faults: total_faults(&rescan),
            mean_mask_reuse: 0.0,
        },
        Entry {
            path: "coupled-incremental",
            seconds: inc_secs,
            speedup_vs_rescan: speedup,
            mean_faults: total_faults(&incremental),
            mean_mask_reuse: mean_reuse(&incremental),
        },
    ];

    let record = Record {
        bench: "incremental_sweep",
        seed: SEED,
        iterations: ITERATIONS,
        points: incremental.len(),
        words_per_pc: 4096,
        note: "speedup_vs_rescan = coupled-rescan wall clock / this path's wall \
               clock, best of N; the two coupled paths are asserted per-point \
               identical, so the speedup is free of accuracy cost",
        results,
    };

    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_incremental_sweep.json"
    );
    let body = serde_json::to_string_pretty(&record).expect("serialize record");
    std::fs::write(path, body + "\n").expect("write BENCH_incremental_sweep.json");
    println!("wrote {path}");
}
