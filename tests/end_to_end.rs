//! End-to-end integration: the full experimental pipeline of the paper run
//! against the simulated platform, asserting the calibration targets of
//! DESIGN.md §3 across crate boundaries.

use hbm_undervolt_suite::faults::FaultMap;
use hbm_undervolt_suite::power::HbmPowerModel;
use hbm_undervolt_suite::traffic::DataPattern;
use hbm_undervolt_suite::undervolt::characterization::{stack_fraction_series, variation_summary};
use hbm_undervolt_suite::undervolt::report::{compute_headlines, headline_metrics};
use hbm_undervolt_suite::undervolt::{
    GuardbandFinder, JsonlSink, Platform, PowerSweep, ReliabilityConfig, ReliabilityTester,
    SharedBuffer, Telemetry, TradeOffAnalysis, VoltageSweep,
};
use hbm_units::{Millivolts, Ratio};

fn platform() -> Platform {
    Platform::builder().seed(7).build()
}

#[test]
fn headline_numbers_reproduce_the_paper() {
    let metrics = compute_headlines(&mut platform()).expect("pipeline");
    // Paper: 19 % guardband (218/1200 = 18.3 % before rounding).
    assert!((18.0..19.5).contains(&metrics.guardband_percent));
    // Paper: 1.5× at the guardband edge.
    assert!((1.45..1.55).contains(&metrics.saving_at_guardband));
    // Paper: 2.3× total at 0.85 V.
    assert!((2.2..2.45).contains(&metrics.saving_at_850mv));
    // Paper: idle is nearly one third of full load.
    assert!((0.30..0.37).contains(&metrics.idle_fraction));
    // Paper: α·C_L·f 14 % below nominal at 0.85 V.
    assert!((0.10..0.18).contains(&metrics.acf_drop_at_850mv));
}

#[test]
fn guardband_landmarks_reproduce_the_paper() {
    let report = GuardbandFinder::new().run(&mut platform()).expect("search");
    assert_eq!(report.v_min, Millivolts(980));
    assert_eq!(report.v_critical, Millivolts(810));
    assert_eq!(report.guardband(), Millivolts(220));
}

#[test]
fn power_saving_is_bandwidth_independent() {
    // §III-A: "the amount of power savings is independent of the bandwidth
    // utilization".
    let mut p = platform();
    let report = PowerSweep::date21().run(&mut p).expect("sweep");
    let savings: Vec<f64> = [0usize, 8, 16, 24, 32]
        .iter()
        .map(|&ports| report.saving(Millivolts(980), ports).expect("swept"))
        .collect();
    let (min, max) = savings
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), &s| (lo.min(s), hi.max(s)));
    assert!(max - min < 0.06, "savings spread too wide: {savings:?}");
}

#[test]
fn undervolting_preserves_bandwidth() {
    // The entire point of undervolting vs frequency scaling: bandwidth is
    // untouched by the supply voltage.
    let mut p = platform();
    let full = p.achieved_bandwidth();
    p.set_voltage(Millivolts(850)).expect("set voltage");
    assert_eq!(p.achieved_bandwidth(), full);
    assert!((full.as_f64() - 310.0).abs() < 1e-9);
}

#[test]
fn reliability_sweep_matches_fault_model_envelope() {
    // Run Algorithm 1 (measured, reduced geometry) and cross-validate the
    // measured rates against the analytic predictor at the same geometry.
    let mut p = platform();
    let mut config = ReliabilityConfig::quick();
    config.batch_size = 1;
    config.words_per_pc = Some(2048);
    let report = ReliabilityTester::new(config)
        .expect("config")
        .run(&mut p)
        .expect("sweep");

    for point in report.points.iter().filter(|pt| !pt.crashed) {
        let measured: f64 = point.total_mean_faults() / report.checked_bits_per_run as f64;
        let predicted = p.predictor().device_rate(point.voltage).as_f64()
            // Both patterns probe complementary polarities: the union is
            // what the two-pattern total approximates.
            ;
        if predicted > 1e-4 {
            let ratio = measured / predicted;
            assert!(
                (0.5..2.0).contains(&ratio),
                "at {}: measured {measured:.3e} vs predicted {predicted:.3e}",
                point.voltage
            );
        }
    }
}

#[test]
fn fig4_fig5_fig6_shapes_hold_together() {
    let p = platform();
    let predictor = p.full_scale_predictor();

    // Fig. 4: zero in guardband, exponential growth, saturation by 0.83 V,
    // HBM1 above HBM0 in the exponential region.
    let sweep = VoltageSweep::new(Millivolts(980), Millivolts(810), Millivolts(10)).unwrap();
    let fig4 = stack_fraction_series(predictor, sweep);
    assert_eq!(fig4[0].hbm0, Ratio::ZERO);
    let at_830 = fig4
        .iter()
        .find(|pt| pt.voltage == Millivolts(830))
        .unwrap();
    assert!(at_830.hbm0.as_f64() > 0.999 && at_830.hbm1.as_f64() > 0.999);
    let at_880 = fig4
        .iter()
        .find(|pt| pt.voltage == Millivolts(880))
        .unwrap();
    assert!(at_880.hbm1 > at_880.hbm0);

    // §III-B: onsets and ratios.
    let summary = variation_summary(predictor);
    assert_eq!(summary.onset_1to0, Some(Millivolts(970)));
    assert_eq!(summary.onset_0to1, Some(Millivolts(960)));
    assert!((1.05..1.45).contains(&summary.polarity_ratio));
    assert!((1.05..1.30).contains(&summary.stack_ratio));

    // Fig. 6: the paper's worked example — a handful of fault-free PCs at
    // 0.95 V offering ≈1.6× savings at reduced capacity.
    let map = FaultMap::from_predictor(predictor, Millivolts(980), Millivolts(810), Millivolts(10));
    let analysis = TradeOffAnalysis::new(map, HbmPowerModel::date21());
    let n_950 = analysis
        .usable_pc_curve(Ratio::ZERO)
        .at(Millivolts(950))
        .unwrap();
    assert!(
        (3..=12).contains(&n_950),
        "fault-free PCs at 0.95 V: {n_950}"
    );
    let point = analysis
        .plan((n_950 as u64) * (256 << 20), Ratio::ZERO)
        .expect("plan");
    assert!(point.voltage <= Millivolts(950));
    assert!(
        (1.5..1.8).contains(&point.saving_factor),
        "{}",
        point.saving_factor
    );
}

#[test]
fn polarity_split_shows_in_measured_data() {
    // Measured (bit-level) check of the §III-B polarity observations on the
    // reduced platform: all-ones exposes only 1→0, all-zeros only 0→1, and
    // at saturation the 0→1 share exceeds the 1→0 share (53 % vs 47 %).
    let mut p = platform();
    let mut config = ReliabilityConfig::quick();
    config.sweep = VoltageSweep::new(Millivolts(830), Millivolts(830), Millivolts(10)).unwrap();
    config.batch_size = 1;
    config.words_per_pc = Some(1024);
    let report = ReliabilityTester::new(config)
        .expect("config")
        .run(&mut p)
        .expect("run");
    let point = report.at(Millivolts(830)).unwrap();
    let ones = point.outcome(DataPattern::AllOnes).unwrap();
    let zeros = point.outcome(DataPattern::AllZeros).unwrap();
    assert_eq!(ones.flips_0to1, 0);
    assert_eq!(zeros.flips_1to0, 0);
    assert!(
        zeros.flips_0to1 > ones.flips_1to0,
        "stuck-at-1 share must dominate at saturation: {} vs {}",
        zeros.flips_0to1,
        ones.flips_1to0
    );
}

#[test]
fn headline_metrics_requires_complete_sweep() {
    // The metrics helper fails loudly on an incomplete sweep instead of
    // fabricating numbers.
    let mut p = platform();
    let narrow = PowerSweep::new(
        VoltageSweep::new(Millivolts(1200), Millivolts(1000), Millivolts(100)).unwrap(),
        vec![32],
    )
    .unwrap()
    .run(&mut p)
    .unwrap();
    let guardband = GuardbandFinder::new().run(&mut p).unwrap();
    assert!(headline_metrics(&narrow, &guardband).is_err());
}

#[test]
fn headline_metrics_are_pinned_bit_for_bit() {
    // The five headline fields, as `f64::to_bits`, at two specimens. The
    // power sweep evaluates its model at the ports' utilization, so no
    // traffic or predictor shortcut may move a single bit of them.
    let pinned: [(u64, [u64; 5]); 2] = [
        (
            7,
            [
                0x4032_5555_5555_5555,
                0x3ff7_fd70_e9b7_489d,
                0x4002_b43b_676c_cb8c,
                0x3fd5_5555_5555_5555,
                0x3fc2_e23e_675d_1fa8,
            ],
        ),
        (
            11,
            [
                0x4032_5555_5555_5555,
                0x3ff7_fd70_e9b7_489d,
                0x4002_8903_2161_3d63,
                0x3fd5_5555_5555_5555,
                0x3fc1_e3cf_5473_2b7c,
            ],
        ),
    ];
    for (seed, bits) in pinned {
        let m = compute_headlines(&mut Platform::builder().seed(seed).build()).expect("pipeline");
        let got = [
            m.guardband_percent,
            m.saving_at_guardband,
            m.saving_at_850mv,
            m.idle_fraction,
            m.acf_drop_at_850mv,
        ]
        .map(f64::to_bits);
        assert_eq!(got, bits, "seed {seed}: {m:?}");
    }
}

#[test]
fn power_sweep_runs_no_traffic() {
    // Power is a model of voltage and utilization: the sweep measures it
    // without driving a single engine batch.
    let trace = SharedBuffer::new();
    let telemetry = Telemetry::new().with_observer(Box::new(JsonlSink::diffable(trace.clone())));
    PowerSweep::date21()
        .run_observed(&mut platform(), &telemetry)
        .expect("sweep");
    telemetry.finish();
    let trace = trace.contents();
    assert_eq!(trace.matches("PowerMeasured").count(), 5 * 36);
    assert!(!trace.contains("WorkerShardDone"), "the sweep ran traffic");
}
