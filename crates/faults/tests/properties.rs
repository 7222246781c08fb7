//! Property-based tests of the fault model's core guarantees.

use hbm_device::{HbmGeometry, PcIndex, Word256, WordOffset};
use hbm_faults::hash::mix64;
use hbm_faults::{
    Exposure, FaultInjector, FaultMap, FaultModelParams, FieldKernel, KernelBackend, MaskKernel,
    RatePredictor, Written,
};
use hbm_units::{Celsius, Millivolts, Ratio};
use proptest::prelude::*;

/// The per-word oracle of the range queries: every word of `range` with
/// its `(stuck0, stuck1)` masks at `v`, from [`MaskKernel::masks`].
fn per_word(
    kernel: &FieldKernel<'_>,
    pc: PcIndex,
    range: std::ops::Range<u64>,
    v: Millivolts,
) -> Vec<(u64, Word256, Word256)> {
    range
        .map(|w| {
            let (s0, s1) = kernel.masks(pc, WordOffset(w), v);
            (w, s0, s1)
        })
        .collect()
}

/// The faulty bits of both polarities among `masks`.
fn faulty_bits(masks: &[(u64, Word256, Word256)]) -> u64 {
    masks
        .iter()
        .map(|(_, s0, s1)| u64::from(s0.count_ones() + s1.count_ones()))
        .sum()
}

/// What one pass writing `at` reads back from a range's per-word masks.
fn read_back(masks: &[(u64, Word256, Word256)], at: &dyn Fn(u64) -> Word256) -> Exposure {
    let mut exposure = Exposure::default();
    for &(offset, s0, s1) in masks {
        let written = at(offset);
        let (flips0, flips1) = (s0 & written, s1 & !written);
        exposure.faulty_words += u64::from(!(flips0.is_zero() && flips1.is_zero()));
        exposure.stuck0 += u64::from(flips0.count_ones());
        exposure.stuck1 += u64::from(flips1.count_ones());
    }
    exposure
}

fn injector(seed: u64) -> FaultInjector {
    FaultInjector::new(
        FaultModelParams::date21(),
        HbmGeometry::vcu128_reduced(),
        seed,
    )
}

/// The scalar kernel: the reference every other backend is checked
/// against.
fn scalar(inj: &FaultInjector) -> FieldKernel<'_> {
    inj.kernel(KernelBackend::Scalar)
}

/// The range and descending schedule of one descent case: ranges that
/// start above word 0 and cross a tile boundary, empty ranges and random
/// ranges; schedules from inside the guardband into saturation, single
/// knots and random grids.
fn descent_case(
    range_shape: u8,
    start: u64,
    len: u64,
    schedule_shape: u8,
    first_mv: u32,
    step: u32,
    knots: u32,
) -> (std::ops::Range<u64>, Vec<Millivolts>) {
    let range = match range_shape {
        0 => 20..100, // starts above word 0 and crosses a tile boundary
        1 => start..start,
        _ => start..(start + len).min(8192),
    };
    let schedule = match schedule_shape {
        // From inside the guardband down into saturation.
        0 => (0..9).map(|k| Millivolts(1000 - 25 * k)).collect(),
        1 => vec![Millivolts(first_mv)],
        _ => (0..knots)
            .map(|k| first_mv.saturating_sub(k * step))
            .filter(|&mv| mv >= 800)
            .map(Millivolts)
            .collect(),
    };
    (range, schedule)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// No fault anywhere at or above V_min, for any seed and address.
    #[test]
    fn guardband_inviolable(
        seed in any::<u64>(),
        pc_index in 0u8..32,
        word in 0u64..8192,
        above in 0u32..300,
    ) {
        let inj = injector(seed);
        let pc = PcIndex::new(pc_index).unwrap();
        let v = Millivolts(980 + above);
        let (s0, s1) = inj.stuck_masks(pc, WordOffset(word), v);
        prop_assert!(s0.is_zero() && s1.is_zero());
    }

    /// Stuck-at masks are disjoint and deterministic at any voltage.
    #[test]
    fn masks_disjoint_and_deterministic(
        seed in any::<u64>(),
        pc_index in 0u8..32,
        word in 0u64..8192,
        mv in 810u32..1000,
    ) {
        let inj = injector(seed);
        let pc = PcIndex::new(pc_index).unwrap();
        let v = Millivolts(mv);
        let (s0, s1) = inj.stuck_masks(pc, WordOffset(word), v);
        prop_assert!((s0 & s1).is_zero());
        prop_assert_eq!(inj.stuck_masks(pc, WordOffset(word), v), (s0, s1));
    }

    /// Dropping the voltage can only grow each polarity's fault set.
    #[test]
    fn fault_sets_monotone(
        seed in any::<u64>(),
        pc_index in 0u8..32,
        word in 0u64..8192,
        hi in 830u32..980,
        delta in 1u32..100,
    ) {
        let inj = injector(seed);
        let pc = PcIndex::new(pc_index).unwrap();
        let lo = Millivolts(hi.saturating_sub(delta).max(810));
        let hi = Millivolts(hi);
        let (hi0, hi1) = inj.stuck_masks(pc, WordOffset(word), hi);
        let (lo0, lo1) = inj.stuck_masks(pc, WordOffset(word), lo);
        prop_assert_eq!(lo0 & hi0, hi0, "stuck-at-0 set shrank");
        prop_assert_eq!(lo1 & hi1, hi1, "stuck-at-1 set shrank");
    }

    /// What a read observes is consistent with the masks for any stored
    /// pattern: observed = (stored & !stuck0) | stuck1.
    #[test]
    fn observation_matches_masks(
        seed in any::<u64>(),
        lanes in any::<[u64; 4]>(),
        word in 0u64..4096,
        mv in 810u32..980,
    ) {
        let inj = injector(seed);
        let pc = PcIndex::new(3).unwrap();
        let stored = Word256(lanes);
        let v = Millivolts(mv);
        let (s0, s1) = inj.stuck_masks(pc, WordOffset(word), v);
        let observed = inj.observe(stored, pc, WordOffset(word), v);
        prop_assert_eq!(observed, (stored & !s0) | s1);
        // A second observation is identical (faults are stuck, not noisy).
        prop_assert_eq!(inj.observe(stored, pc, WordOffset(word), v), observed);
    }

    /// Analytic rates are monotone in voltage for every PC.
    #[test]
    fn analytic_rates_monotone(seed in any::<u64>(), pc_index in 0u8..32) {
        let p = RatePredictor::new(
            FaultModelParams::date21(),
            HbmGeometry::vcu128(),
            seed,
        );
        let pc = PcIndex::new(pc_index).unwrap();
        let mut last = -1.0;
        let mut v = Millivolts(990);
        while v >= Millivolts(810) {
            let rate = p.pc_rates(pc, v).union().as_f64();
            prop_assert!(rate >= last, "rate shrank at {} for PC{}", v, pc_index);
            last = rate;
            v = v.saturating_sub(Millivolts(30));
        }
    }

    /// The cached single-word path (tile probability cache + bit-sliced
    /// planes) is bit-identical to the naive per-word reference path for
    /// any seed, voltage, PC and temperature.
    #[test]
    fn kernel_bit_identical_to_per_word_reference(
        seed in any::<u64>(),
        pc_index in 0u8..32,
        word in 0u64..8192,
        mv in 810u32..1050,
        temp_tenths in 250u32..=550,
    ) {
        let mut inj = injector(seed);
        inj.set_temperature(Celsius(f64::from(temp_tenths) / 10.0));
        let pc = PcIndex::new(pc_index).unwrap();
        let v = Millivolts(mv);
        let w = WordOffset(word);
        let kernel = inj.kernel(KernelBackend::Auto);
        prop_assert_eq!(inj.stuck_masks(pc, w, v), kernel.reference_masks(pc, w, v));
    }

    /// The scalar kernel's masks over a range are exactly the masks the
    /// per-word reference path recomputes from scratch.
    #[test]
    fn scalar_masks_match_reference_over_ranges(
        seed in any::<u64>(),
        pc_index in 0u8..32,
        start in 0u64..7000,
        len in 1u64..768,
        mv in 810u32..1000,
    ) {
        let inj = injector(seed);
        let pc = PcIndex::new(pc_index).unwrap();
        let v = Millivolts(mv);
        let reference = scalar(&inj);
        for w in start..(start + len).min(8192) {
            let w = WordOffset(w);
            prop_assert_eq!(reference.masks(pc, w, v), reference.reference_masks(pc, w, v));
        }
    }

    /// Tentpole guarantee of the bit-sliced kernel: the auto backend's
    /// per-word masks are bit-identical to the scalar oracle's over any
    /// range, and to the reference path's, for any seed, voltage and
    /// temperature.
    #[test]
    fn bitsliced_matches_scalar(
        seed in any::<u64>(),
        pc_index in 0u8..32,
        start in 0u64..7000,
        len in 1u64..768,
        mv in 810u32..1000,
        temp_tenths in 250u32..=550,
    ) {
        let mut inj = injector(seed);
        inj.set_temperature(Celsius(f64::from(temp_tenths) / 10.0));
        let pc = PcIndex::new(pc_index).unwrap();
        let v = Millivolts(mv);
        let range = start..(start + len).min(8192);
        let auto = inj.kernel(KernelBackend::Auto);
        prop_assert_eq!(
            per_word(&auto, pc, range.clone(), v),
            per_word(&scalar(&inj), pc, range, v),
            "masks diverged at {}", v
        );
        prop_assert_eq!(
            auto.masks(pc, WordOffset(start), v),
            auto.reference_masks(pc, WordOffset(start), v),
            "single-word masks diverged at {}", v
        );
    }

    /// The one-pass count descent equals the per-knot counts of the auto
    /// backend's per-word masks, under the scalar and auto backends, for
    /// every [`descent_case`].
    #[test]
    fn count_descent_matches_per_word_counts(
        seed in any::<u64>(),
        pc_index in 0u8..32,
        range_shape in 0u8..4,
        start in 0u64..8192,
        len in 0u64..600,
        schedule_shape in 0u8..3,
        first_mv in 800u32..1040,
        step in 1u32..40,
        knots in 1u32..8,
    ) {
        let inj = injector(seed);
        let pc = PcIndex::new(pc_index).unwrap();
        let (range, schedule) =
            descent_case(range_shape, start, len, schedule_shape, first_mv, step, knots);
        let oracle = inj.kernel(KernelBackend::Auto);
        let counts = [KernelBackend::Scalar, KernelBackend::Auto]
            .map(|backend| inj.kernel(backend).count_descent(pc, range.clone(), &schedule));
        for (k, &v) in schedule.iter().enumerate() {
            let expected = faulty_bits(&per_word(&oracle, pc, range.clone(), v));
            for counts in &counts {
                prop_assert_eq!(counts.len(), schedule.len());
                prop_assert_eq!(counts[k], expected, "diverged from the per-word masks at {}", v);
            }
        }
    }

    /// The exposure descent reads back at every knot exactly what a fold of
    /// the auto backend's per-word masks there gives, for all-1s, all-0s
    /// and random written words, under the scalar and auto backends: on random
    /// strictly descending schedules of 1–64 knots between 1200 and 810 mV
    /// over ranges that start at or inside a tile and cross a tile
    /// boundary, and on every [`descent_case`].
    #[test]
    fn exposure_descent_matches_per_word_read_back_at_every_knot(
        seed in any::<u64>(),
        pc_index in 0u8..32,
        knots in proptest::collection::vec(810u32..=1200, 1..=64),
        row in 0u64..240,
        into_tile in 0u64..32,
        len in 1u64..400,
        data in any::<u64>(),
        range_shape in 0u8..4,
        start in 0u64..8192,
        case_len in 0u64..600,
        schedule_shape in 0u8..3,
        first_mv in 800u32..1040,
        step in 1u32..40,
        case_knots in 1u32..8,
    ) {
        let inj = injector(seed);
        let pc = PcIndex::new(pc_index).unwrap();
        let mut knots = knots;
        knots.sort_unstable_by(|a, b| b.cmp(a));
        knots.dedup();
        let schedule: Vec<Millivolts> = knots.into_iter().map(Millivolts).collect();
        let start_in_row = row * 32 + into_tile;
        let mid_tile = start_in_row..(start_in_row + (32 - into_tile) + len).min(8192);
        let case = descent_case(range_shape, start, case_len, schedule_shape, first_mv, step, case_knots);
        let random = move |offset: u64| {
            Word256([0, 1, 2, 3].map(|lane| mix64(data ^ (offset << 2 | lane))))
        };
        let written = [Written::Ones, Written::Zeros, Written::Words(&random)];
        let at: [&dyn Fn(u64) -> Word256; 3] = [&|_| Word256::ONES, &|_| Word256::ZERO, &random];
        let oracle = inj.kernel(KernelBackend::Auto);
        for (range, schedule) in [(mid_tile, schedule), case] {
            let rows = [KernelBackend::Scalar, KernelBackend::Auto].map(|backend| {
                inj.kernel(backend).exposure_descent(pc, range.clone(), &schedule, &written)
            });
            for (k, &v) in schedule.iter().enumerate() {
                let masks = per_word(&oracle, pc, range.clone(), v);
                let expected: Vec<Exposure> = at.iter().map(|at| read_back(&masks, at)).collect();
                for rows in &rows {
                    prop_assert_eq!(rows.len(), schedule.len());
                    prop_assert_eq!(&rows[k], &expected, "diverged at {} over {:?}", v, range);
                }
            }
        }
    }

    /// The count descent equals the per-knot counts of the per-word masks
    /// on random strictly
    /// descending schedules of 1–64 knots between 1200 and 810 mV, over
    /// ranges that start inside a tile and cross at least one tile
    /// boundary (a tile spans one 32-word row of one bank), under both
    /// backends' compiles of the hashing loop.
    #[test]
    fn count_descent_matches_per_word_counts_on_random_schedules(
        seed in any::<u64>(),
        pc_index in 0u8..32,
        knots in proptest::collection::vec(810u32..=1200, 1..=64),
        row in 0u64..240,
        into_tile in 1u64..32,
        len in 1u64..400,
    ) {
        let inj = injector(seed);
        let pc = PcIndex::new(pc_index).unwrap();
        let mut knots = knots;
        knots.sort_unstable_by(|a, b| b.cmp(a));
        knots.dedup();
        let schedule: Vec<Millivolts> = knots.into_iter().map(Millivolts).collect();
        let start = row * 32 + into_tile;
        let range = start..(start + (32 - into_tile) + len).min(8192);
        let oracle = inj.kernel(KernelBackend::Auto);
        let counts = [KernelBackend::Scalar, KernelBackend::Auto]
            .map(|backend| inj.kernel(backend).count_descent(pc, range.clone(), &schedule));
        for (k, &v) in schedule.iter().enumerate() {
            let expected = faulty_bits(&per_word(&oracle, pc, range.clone(), v));
            for counts in &counts {
                prop_assert_eq!(counts.len(), schedule.len());
                prop_assert_eq!(counts[k], expected, "diverged from the per-word masks at {}", v);
            }
        }
    }

    /// Fault-map usable-PC counts are monotone in tolerance and voltage.
    #[test]
    fn fault_map_monotonicity(seed in any::<u64>()) {
        let p = RatePredictor::new(
            FaultModelParams::date21(),
            HbmGeometry::vcu128(),
            seed,
        );
        let map = FaultMap::from_predictor(
            &p,
            Millivolts(980),
            Millivolts(850),
            Millivolts(30),
        );
        let tolerances = [Ratio::ZERO, Ratio(1e-8), Ratio(1e-6), Ratio(1e-3), Ratio(0.1)];
        for &v in &map.voltages {
            let counts: Vec<usize> =
                tolerances.iter().map(|&t| map.usable_pc_count(v, t)).collect();
            prop_assert!(counts.windows(2).all(|w| w[0] <= w[1]), "tolerance monotonicity at {}", v);
        }
        for &t in &tolerances {
            let counts: Vec<usize> =
                map.voltages.iter().map(|&v| map.usable_pc_count(v, t)).collect();
            prop_assert!(counts.windows(2).all(|w| w[0] >= w[1]), "voltage monotonicity");
        }
    }
}
