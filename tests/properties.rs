//! Cross-crate property tests at the platform level.

use hbm_undervolt_suite::device::{PortId, Word256, WordOffset};
use hbm_undervolt_suite::traffic::{
    merge_shard_results, DataPattern, MacroProgram, MemoryPort, PortStats, TrafficGenerator,
};
use hbm_undervolt_suite::undervolt::{
    ExecutionMode, Experiment, Platform, ReliabilityConfig, ReliabilityTester, TestScope,
    VoltageSweep,
};
use hbm_units::{Millivolts, Ratio};
use proptest::prelude::*;

fn arb_stats() -> impl Strategy<Value = PortStats> {
    (
        0u64..1_000,
        0u64..1_000,
        0u64..1_000,
        0u64..100_000,
        0u64..100_000,
    )
        .prop_map(
            |(words_written, words_read, faulty_words, flips_1to0, flips_0to1)| PortStats {
                words_written,
                words_read,
                faulty_words,
                flips_1to0,
                flips_0to1,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Whatever the seed and voltage (above the crash floor), the platform
    /// never loses writes in the guardband and never reports 0→1 flips for
    /// an all-ones pattern.
    #[test]
    fn pattern_polarity_invariant(
        seed in any::<u64>(),
        mv in 810u32..1200,
        port_index in 0u8..32,
    ) {
        let mut p = Platform::builder().seed(seed).build();
        p.set_voltage(Millivolts(mv)).unwrap();
        let port = PortId::new(port_index).unwrap();
        let program = MacroProgram::write_then_check(0..128, DataPattern::AllOnes);
        let mut tg = TrafficGenerator::new(port);
        let stats = tg.run(&program, &mut p.port(port)).unwrap();
        prop_assert_eq!(stats.flips_0to1, 0);
        if mv >= 980 {
            prop_assert_eq!(stats.flips_1to0, 0, "guardband fault at {} mV", mv);
        }
    }

    /// Fault counts grow monotonically with depth of undervolting for any
    /// specimen.
    #[test]
    fn measured_faults_monotone(seed in any::<u64>(), port_index in 0u8..32) {
        let mut p = Platform::builder().seed(seed).build();
        let port = PortId::new(port_index).unwrap();
        let program = MacroProgram::write_then_check(0..256, DataPattern::AllZeros);
        let mut last = 0u64;
        for mv in [980u32, 940, 900, 870, 850, 830] {
            p.set_voltage(Millivolts(mv)).unwrap();
            let mut tg = TrafficGenerator::new(port);
            let stats = tg.run(&program, &mut p.port(port)).unwrap();
            prop_assert!(
                stats.flips_0to1 >= last,
                "fault count shrank at {} mV: {} < {}",
                mv, stats.flips_0to1, last
            );
            last = stats.flips_0to1;
        }
    }

    /// Power is strictly decreasing in voltage and non-decreasing in
    /// utilization for any specimen.
    #[test]
    fn power_surface_monotone(seed in any::<u64>()) {
        let mut p = Platform::builder().seed(seed).build();
        let mut last = f64::MAX;
        for mv in (850..=1200).rev().step_by(50) {
            p.set_voltage(Millivolts(mv)).unwrap();
            let power = p.measure_power(Ratio::ONE).unwrap().power.as_f64();
            prop_assert!(power < last * 1.01, "power rose at {} mV", mv);
            last = power;
        }
        p.set_voltage(Millivolts(1000)).unwrap();
        let idle = p.measure_power(Ratio::ZERO).unwrap().power.as_f64();
        let half = p.measure_power(Ratio(0.5)).unwrap().power.as_f64();
        let full = p.measure_power(Ratio::ONE).unwrap().power.as_f64();
        prop_assert!(idle < half && half < full);
    }

    /// Data written in the guardband survives arbitrary voltage excursions
    /// back into the guardband (stuck bits do not corrupt storage, only
    /// reads below V_min).
    #[test]
    fn guardband_storage_integrity(
        seed in any::<u64>(),
        lanes in any::<[u64; 4]>(),
        excursion in 820u32..979,
    ) {
        let mut p = Platform::builder().seed(seed).build();
        let port = PortId::new(3).unwrap();
        let word = Word256(lanes);
        p.port(port).write(WordOffset(9), word).unwrap();

        // Dip below the guardband (reads are faulty there) …
        p.set_voltage(Millivolts(excursion)).unwrap();
        let _ = p.port(port).read(WordOffset(9)).unwrap();

        // … and back up: the stored data is intact.
        p.set_voltage(Millivolts(1000)).unwrap();
        prop_assert_eq!(p.port(port).read(WordOffset(9)).unwrap(), word);
    }

    /// The [`Experiment`] contract: for ANY seed, running the reliability
    /// experiment on a parallel platform is bit-identical to the
    /// sequential run.
    #[test]
    fn experiment_is_deterministic_for_any_seed(
        seed in any::<u64>(),
        workers in 2usize..9,
    ) {
        let config = ReliabilityConfig {
            sweep: VoltageSweep::new(Millivolts(940), Millivolts(880), Millivolts(20)).unwrap(),
            batch_size: 1,
            patterns: vec![DataPattern::AllOnes],
            scope: TestScope::EntireHbm,
            words_per_pc: Some(128),
            // The subject here is the parallel traffic engine itself, so
            // force the literal write/read-back path.
            mode: ExecutionMode::Traffic,
        };
        let tester = ReliabilityTester::new(config).unwrap();
        let mut sequential = Platform::builder().seed(seed).workers(1).build();
        let mut parallel = Platform::builder().seed(seed).workers(workers).build();
        prop_assert_eq!(
            Experiment::run(&tester, &mut sequential).unwrap(),
            Experiment::run(&tester, &mut parallel).unwrap()
        );
    }

    /// Shard-merge arithmetic: merging per-shard statistics is a plain
    /// field-wise sum — order-insensitive, duplicate-collapsing, and
    /// total-preserving.
    #[test]
    fn shard_merge_is_order_insensitive_and_total_preserving(
        stats in proptest::collection::vec(arb_stats(), 1..20),
        rotation in 0usize..20,
    ) {
        let jobs: Vec<(PortId, PortStats)> = stats
            .iter()
            .enumerate()
            .map(|(i, &s)| (PortId::new((i % 32) as u8).unwrap(), s))
            .collect();

        let mut rotated = jobs.clone();
        rotated.rotate_left(rotation % jobs.len());
        let merged = merge_shard_results(jobs.clone());
        prop_assert_eq!(&merged, &merge_shard_results(rotated));

        // Ports come out sorted and unique.
        prop_assert!(merged.windows(2).all(|w| w[0].0.as_u8() < w[1].0.as_u8()));

        // No flip is lost or invented by merging.
        let total = |items: &[(PortId, PortStats)]| {
            items.iter().fold(PortStats::default(), |mut acc, (_, s)| {
                acc.merge(s);
                acc
            })
        };
        prop_assert_eq!(total(&merged), total(&jobs));
    }
}
