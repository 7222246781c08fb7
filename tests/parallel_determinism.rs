//! The sweep engine's hard guarantee: a parallel run is bit-identical to
//! the sequential run — same report, same device statistics — for every
//! seed and every worker count.

use hbm_undervolt_suite::traffic::DataPattern;
use hbm_undervolt_suite::undervolt::{
    ExecutionMode, GuardbandFinder, Platform, ReliabilityConfig, ReliabilityReport,
    ReliabilityTester, TestScope,
};
use hbm_units::Millivolts;

fn run_with(seed: u64, workers: usize, config: &ReliabilityConfig) -> ReliabilityReport {
    let mut platform = Platform::builder().seed(seed).workers(workers).build();
    ReliabilityTester::new(config.clone())
        .unwrap()
        .run(&mut platform)
        .unwrap()
}

#[test]
fn parallel_reliability_reports_are_bit_identical() {
    // The subject is the sharded traffic engine, so pin the literal
    // write/read-back path (the cached-mask kernel has its own
    // traffic-equivalence tests in the core crate).
    let mut config = ReliabilityConfig::quick();
    config.mode = ExecutionMode::Traffic;
    for seed in [3u64, 7, 11] {
        let sequential = run_with(seed, 1, &config);
        assert!(
            sequential
                .points
                .iter()
                .any(|p| p.total_mean_faults() > 0.0),
            "seed {seed}: the sweep must observe faults for the comparison to mean anything"
        );
        for workers in [4usize, 8] {
            assert_eq!(
                sequential,
                run_with(seed, workers, &config),
                "seed {seed}, {workers} workers"
            );
        }
    }
}

#[test]
fn descended_reports_are_bit_identical() {
    // Cached sequential sweeps read every point from one descent per port,
    // and the ports' descents are sharded across the workers: the whole
    // port set, and an odd subset whose shards differ in size.
    let full = ReliabilityConfig::quick();
    let mut subset = full.clone();
    subset.scope = TestScope::Ports(vec![0, 4, 5, 18, 31]);
    for config in [full, subset] {
        for seed in [3u64, 7, 11] {
            let sequential = run_with(seed, 1, &config);
            assert!(
                sequential
                    .points
                    .iter()
                    .any(|p| p.total_mean_faults() > 0.0),
                "seed {seed}: the sweep must observe faults for the comparison to mean anything"
            );
            for workers in [2usize, 4, 8] {
                assert_eq!(
                    sequential,
                    run_with(seed, workers, &config),
                    "seed {seed}, {workers} workers, scope {:?}",
                    config.scope
                );
            }
        }
    }
}

#[test]
fn sampled_mode_is_worker_count_invariant() {
    // Sampled offsets come from one ChaCha stream per (seed, voltage, PC),
    // so the workload itself must not depend on how shards are scheduled.
    let mut config = ReliabilityConfig::quick();
    config.sample_words = Some(128);
    config.batch_size = 1;
    config.mode = ExecutionMode::Traffic;
    for seed in [5u64, 13, 21] {
        let sequential = run_with(seed, 1, &config);
        for workers in [4usize, 8] {
            assert_eq!(
                sequential,
                run_with(seed, workers, &config),
                "seed {seed}, {workers} workers"
            );
        }
    }
}

#[test]
fn measured_guardband_is_worker_count_invariant() {
    let vmin_with = |workers: usize| {
        let mut platform = Platform::builder().seed(7).workers(workers).build();
        let mut finder = GuardbandFinder::new();
        finder.probe_words = 256;
        finder.find_vmin_measured(&mut platform).unwrap()
    };
    let sequential = vmin_with(1);
    assert!(sequential <= Millivolts(980));
    for workers in [4usize, 8] {
        assert_eq!(sequential, vmin_with(workers), "{workers} workers");
    }
}

#[test]
fn device_statistics_match_across_worker_counts() {
    let stats_with = |workers: usize| {
        let mut config = ReliabilityConfig::quick();
        config.patterns = vec![DataPattern::Checkerboard];
        config.batch_size = 1;
        // Device statistics only accumulate when the AXI path actually
        // runs, so this comparison needs the traffic kernel.
        config.mode = ExecutionMode::Traffic;
        let mut platform = Platform::builder().seed(11).workers(workers).build();
        ReliabilityTester::new(config)
            .unwrap()
            .run(&mut platform)
            .unwrap();
        platform.device().total_stats()
    };
    let sequential = stats_with(1);
    for workers in [4usize, 8] {
        assert_eq!(sequential, stats_with(workers), "{workers} workers");
    }
}

#[test]
fn workers_knob_clamps_to_at_least_one() {
    let platform = Platform::builder().seed(7).workers(0).build();
    assert_eq!(platform.workers(), 1);
    let platform = Platform::builder().seed(7).workers(6).build();
    assert_eq!(platform.workers(), 6);
}
