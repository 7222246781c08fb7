//! The fleet engine's hard guarantee, pinned at the workspace tier: the
//! work-stealing multi-device sweep produces bit-identical records,
//! artifacts and population statistics for every worker count and
//! scheduling order, and `hbmctl fleet` results therefore depend only on
//! `(config, device_id)`.
//!
//! The fleet runner counts each device's faults with the fault
//! kernel directly — no DRAM arrays, no AXI traffic. The last two tests
//! prove that this is the same measurement as the supervised platform
//! stack: the per-device campaign assembled through `SweepConfig` and run
//! under the sweep supervisor, with the platform's crash latch standing in
//! for the kernel runner's crash-floor cutoff, yields identical records.

use hbm_undervolt_suite::device::HbmGeometry;
use hbm_undervolt_suite::fleet::{
    artifact, characterize_device, sweep, ArtifactMeta, DeviceRecord, DeviceSpec, FleetConfig,
    FleetCostModel, PopulationSummary, CRASHED_KNOT,
};
use hbm_undervolt_suite::traffic::DataPattern;
use hbm_undervolt_suite::undervolt::{
    ExecutionMode, SweepConfig, TestScope, VoltagePoint, VoltageSweep,
};
use hbm_units::Millivolts;

fn fleet_config(workers: usize) -> FleetConfig {
    FleetConfig {
        devices: 24,
        base_seed: 7,
        workers,
        words_per_pc: 8,
        from: Millivolts(960),
        down_to: Millivolts(820),
        step: Millivolts(20),
        weak_reference: Millivolts(900),
        ..FleetConfig::default()
    }
}

#[test]
fn fleet_records_are_identical_across_worker_counts() {
    let baseline = sweep::run(&fleet_config(1)).unwrap();
    for workers in [2, 3, 8] {
        let report = sweep::run(&fleet_config(workers)).unwrap();
        assert_eq!(
            report.records, baseline.records,
            "{workers} workers diverged from the sequential run"
        );
    }
}

#[test]
fn fleet_artifact_and_summary_are_schedule_independent() {
    let cfg = fleet_config(4);
    let forward = sweep::run(&cfg).unwrap();

    // Workers encountering devices in reverse order must merge to the
    // same artifact bytes and the same population roll-up.
    let reversed: Vec<u32> = (0..cfg.devices).rev().collect();
    let backward = sweep::run_scheduled(&cfg, &reversed, characterize_device).unwrap();

    assert_eq!(
        artifact::encode(&cfg, &forward.records),
        artifact::encode(&cfg, &backward.records)
    );
    let meta = ArtifactMeta::from_config(&cfg);
    let cost = FleetCostModel::default();
    assert_eq!(
        PopulationSummary::from_records(&meta, &forward.records, &cost),
        PopulationSummary::from_records(&meta, &backward.records, &cost)
    );
}

#[test]
fn every_device_is_swept_exactly_once() {
    let cfg = fleet_config(0);
    let report = sweep::run(&cfg).unwrap();
    assert_eq!(report.records.len(), cfg.devices as usize);
    assert_eq!(report.stats.devices_swept, u64::from(cfg.devices));
    for (i, record) in report.records.iter().enumerate() {
        assert_eq!(record.device_id, i as u32, "records sorted by device ID");
    }
}

/// Characterizes one fleet device through the supervised platform stack:
/// a cached-mask campaign over the fleet's knot grid.
fn supervised_device_record(cfg: &FleetConfig, spec: DeviceSpec) -> DeviceRecord {
    assert_eq!(cfg.geometry, HbmGeometry::vcu128_reduced());
    let knots = cfg.knots();
    let last = *knots.last().expect("validated knot grid is non-empty");
    let report = SweepConfig::quick()
        .seed(spec.seed)
        .workers(1)
        .v_crash(spec.crash_floor)
        .sweep(VoltageSweep::new(cfg.from, last, cfg.step).unwrap())
        .batch_size(1)
        .patterns(vec![DataPattern::AllOnes, DataPattern::AllZeros])
        .scope(TestScope::EntireHbm)
        .words_per_pc(Some(cfg.words_per_pc))
        .sample_words(None)
        .mode(ExecutionMode::CachedMasks)
        .retries(0)
        .run()
        .unwrap();
    let pcs = usize::from(cfg.geometry.total_pcs());
    let mut faults = vec![CRASHED_KNOT; pcs * knots.len()];
    for point in &report.points {
        let Some(k) = knots.iter().position(|&v| v == point.voltage) else {
            continue;
        };
        let Some(measured) = point.completed().filter(|m| !m.crashed) else {
            continue;
        };
        for pc in 0..pcs {
            faults[pc * knots.len() + k] = u16::try_from(union_flips(measured, pc as u8))
                .expect("counts bounded by words*256 <= 65280");
        }
    }
    DeviceRecord::assemble(cfg, spec, faults)
}

/// Union fault-bit count of one pseudo channel at one completed point:
/// 1→0 flips under all-ones plus 0→1 flips under all-zeros — exactly the
/// popcounts of the two stuck-at mask polarities.
fn union_flips(point: &VoltagePoint, pc: u8) -> u64 {
    point
        .outcomes
        .iter()
        .filter_map(|outcome| {
            let (_, stats) = outcome.per_port.iter().find(|(port, _)| *port == pc)?;
            Some(match outcome.pattern {
                DataPattern::AllOnes => stats.flips_1to0,
                DataPattern::AllZeros => stats.flips_0to1,
                _ => 0,
            })
        })
        .sum()
}

fn bridge_config() -> FleetConfig {
    FleetConfig {
        devices: 3,
        workers: 1,
        words_per_pc: 16,
        from: Millivolts(1000),
        down_to: Millivolts(800),
        step: Millivolts(20),
        weak_reference: Millivolts(900),
        ..FleetConfig::default()
    }
}

#[test]
fn supervised_matches_kernel() {
    let cfg = bridge_config();
    for id in 0..cfg.devices {
        let spec = cfg.device_spec(id);
        assert_eq!(
            supervised_device_record(&cfg, spec),
            characterize_device(&cfg, spec),
            "device {id} diverged across paths"
        );
    }
}

#[test]
fn supervised_fleet_runs_through_the_work_stealer() {
    let cfg = bridge_config();
    let supervised = sweep::run_with(&cfg, supervised_device_record).unwrap();
    let kernel = sweep::run(&cfg).unwrap();
    assert_eq!(supervised.records, kernel.records);
}
