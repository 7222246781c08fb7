//! Closed-form expected fault rates under the model.
//!
//! Fault *rates* are intensive quantities, so they can be evaluated
//! analytically at the full 8 GB geometry even though exhaustive bit-level
//! simulation at that scale is impractical. The predictor averages the
//! class-conditional curves over the variation structure (banks × row
//! regions) of each pseudo channel — exactly the expectation of what the
//! sampling injector produces.

use hbm_device::{BankId, HbmGeometry, PcIndex, StackId};
use hbm_units::{Celsius, Millivolts, Ratio, Volts};
use serde::{Deserialize, Serialize};

use crate::params::FaultModelParams;
use crate::variation::{ShiftTable, VariationModel};

/// Expected fault rates of one pseudo channel at one voltage.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PcRates {
    /// Expected fraction of bits observed flipped 1→0 under an all-ones
    /// pattern (stuck-at-0 bits).
    pub rate_1to0: Ratio,
    /// Expected fraction of bits observed flipped 0→1 under an all-zeros
    /// pattern (stuck-at-1 bits).
    pub rate_0to1: Ratio,
}

impl PcRates {
    /// The union rate: the fraction of bits faulty under either pattern.
    /// Classes are disjoint, so this is the plain sum (≤ 1 by construction).
    #[must_use]
    pub fn union(self) -> Ratio {
        Ratio(self.rate_1to0.as_f64() + self.rate_0to1.as_f64()).clamp_unit()
    }
}

/// Analytic rate evaluator for a `(params, geometry, seed)` specimen.
///
/// # Examples
///
/// ```
/// use hbm_device::{HbmGeometry, PcIndex};
/// use hbm_faults::{FaultModelParams, RatePredictor};
/// use hbm_units::Millivolts;
///
/// # fn main() -> Result<(), hbm_device::DeviceError> {
/// let predictor = RatePredictor::new(FaultModelParams::date21(), HbmGeometry::vcu128(), 7);
/// let pc = PcIndex::new(0)?;
/// // Guardband: zero expected faults.
/// assert_eq!(predictor.pc_rates(pc, Millivolts(980)).union().as_f64(), 0.0);
/// // Total failure at 0.82 V.
/// assert!(predictor.pc_rates(pc, Millivolts(820)).union().as_f64() > 0.999);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct RatePredictor {
    params: FaultModelParams,
    geometry: HbmGeometry,
    seed: u64,
    temperature: Celsius,
    shift_table: ShiftTable,
}

impl RatePredictor {
    /// Creates a predictor for a specimen.
    ///
    /// # Panics
    ///
    /// Panics if `params` fail validation.
    #[must_use]
    pub fn new(params: FaultModelParams, geometry: HbmGeometry, seed: u64) -> Self {
        params.validate();
        let shift_table = ShiftTable::new(&params.variation, seed, geometry);
        RatePredictor {
            params,
            geometry,
            seed,
            temperature: Celsius::STUDY_AMBIENT,
            shift_table,
        }
    }

    /// The model parameters.
    #[must_use]
    pub fn params(&self) -> &FaultModelParams {
        &self.params
    }

    /// The geometry rates are evaluated at.
    #[must_use]
    pub fn geometry(&self) -> HbmGeometry {
        self.geometry
    }

    /// The device seed of the specimen.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Sets the operating temperature.
    pub fn set_temperature(&mut self, temperature: Celsius) {
        self.temperature = temperature;
    }

    /// Expected per-pattern fault rates of a pseudo channel at a supply
    /// voltage, averaged over the channel's banks and row regions.
    ///
    /// # Performance
    ///
    /// A region's shift is its bank's plus one of two values, weak or
    /// normal, so each bank evaluates the class curves at most twice, on
    /// first use of each. A region then costs one [`mix64`] of its bank's
    /// hash prefix and two additions. [`RatePredictor::device_rate`] over
    /// the full 8 GB geometry (32 PCs, 131,072 regions) takes 0.55 ms at
    /// 0.90 V, against 9 ms with both curves evaluated per region (best of
    /// 20, release build, 2-vCPU AVX-512 host). Each region's
    /// probabilities are still added in bank-major, region-minor order, so
    /// the sums are exactly those of the per-region evaluation. Nothing is
    /// precomputed: a predictor costs no more to construct.
    ///
    /// [`mix64`]: crate::hash::mix64
    #[must_use]
    pub fn pc_rates(&self, pc: PcIndex, supply: Millivolts) -> PcRates {
        if supply >= self.params.landmarks.v_min {
            return PcRates {
                rate_1to0: Ratio::ZERO,
                rate_0to1: Ratio::ZERO,
            };
        }
        let v = supply.to_volts();
        let var = &self.params.variation;
        let banks = u32::from(self.geometry.banks_per_pc());
        let regions_per_bank = (self.geometry.rows_per_bank() / var.region_rows.max(1)).max(1);

        let common =
            self.shift_table.pc_shift_volts(pc) + var.temperature_shift_volts(self.temperature);

        let mut sum0 = 0.0;
        let mut sum1 = 0.0;
        for bank in 0..banks {
            let bank_id = BankId(bank as u16);
            let base = common + var.bank_shift_volts(self.seed, pc, bank_id);
            let prefix = VariationModel::region_prefix(self.seed, pc, bank_id);
            // The bank's class probabilities, indexed by weakness.
            let mut memo: [Option<(f64, f64)>; 2] = [None; 2];
            for region in 0..regions_per_bank {
                let weak = var.region_is_weak(prefix, region);
                let (c0, c1) = *memo[usize::from(weak)].get_or_insert_with(|| {
                    let shift = base + var.region_class_shift_volts(weak);
                    self.params.class_probabilities(v, Volts(shift))
                });
                sum0 += c0;
                sum1 += c1;
            }
        }
        let cells = f64::from(banks * regions_per_bank);
        PcRates {
            rate_1to0: Ratio(self.params.stuck0_share * sum0 / cells),
            rate_0to1: Ratio(self.params.stuck1_share() * sum1 / cells),
        }
    }

    /// Expected number of faulty bits in a pseudo channel (union of both
    /// polarities) at this predictor's geometry.
    #[must_use]
    pub fn expected_faulty_bits(&self, pc: PcIndex, supply: Millivolts) -> f64 {
        self.pc_rates(pc, supply).union().as_f64() * self.geometry.bits_per_pc() as f64
    }

    /// Mean union fault rate of one stack (average over its PCs).
    #[must_use]
    pub fn stack_rate(&self, stack: StackId, supply: Millivolts) -> Ratio {
        let pcs: Vec<PcIndex> = PcIndex::all(self.geometry)
            .filter(|pc| pc.stack(self.geometry) == stack)
            .collect();
        let sum: f64 = pcs
            .iter()
            .map(|&pc| self.pc_rates(pc, supply).union().as_f64())
            .sum();
        Ratio(sum / pcs.len() as f64)
    }

    /// Mean union fault rate of the whole device.
    #[must_use]
    pub fn device_rate(&self, supply: Millivolts) -> Ratio {
        let total = f64::from(self.geometry.total_pcs());
        let sum: f64 = PcIndex::all(self.geometry)
            .map(|pc| self.pc_rates(pc, supply).union().as_f64())
            .sum();
        Ratio(sum / total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbm_device::RowId;
    use proptest::prelude::*;

    fn predictor() -> RatePredictor {
        RatePredictor::new(FaultModelParams::date21(), HbmGeometry::vcu128(), 7)
    }

    fn pc(i: u8) -> PcIndex {
        PcIndex::new(i).unwrap()
    }

    /// The oracle [`RatePredictor::pc_rates`] must reproduce bit for bit:
    /// both class curves evaluated at every region's own shift, addressed
    /// by row, summed in bank-major, region-minor order.
    fn per_region_rates(p: &RatePredictor, pc: PcIndex, supply: Millivolts) -> PcRates {
        if supply >= p.params.landmarks.v_min {
            return PcRates {
                rate_1to0: Ratio::ZERO,
                rate_0to1: Ratio::ZERO,
            };
        }
        let v = supply.to_volts();
        let var = &p.params.variation;
        let banks = u32::from(p.geometry.banks_per_pc());
        let regions_per_bank = (p.geometry.rows_per_bank() / var.region_rows.max(1)).max(1);
        let common = p.shift_table.pc_shift_volts(pc) + var.temperature_shift_volts(p.temperature);
        let mut sum0 = 0.0;
        let mut sum1 = 0.0;
        for bank in 0..banks {
            let bank_id = BankId(bank as u16);
            let bank_shift = var.bank_shift_volts(p.seed, pc, bank_id);
            for region in 0..regions_per_bank {
                let row = RowId(region * var.region_rows.max(1));
                let shift = common + bank_shift + var.region_shift_volts(p.seed, pc, bank_id, row);
                sum0 += p
                    .params
                    .class_probability(&p.params.curve_stuck0, v, Volts(shift));
                sum1 += p
                    .params
                    .class_probability(&p.params.curve_stuck1, v, Volts(shift));
            }
        }
        let cells = f64::from(banks * regions_per_bank);
        PcRates {
            rate_1to0: Ratio(p.params.stuck0_share * sum0 / cells),
            rate_0to1: Ratio(p.params.stuck1_share() * sum1 / cells),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The per-shift evaluation changes no bit of any PC's rates, for
        /// any specimen, voltage, temperature, variation model and
        /// geometry.
        #[test]
        fn pc_rates_match_the_per_region_oracle_bit_for_bit(
            seed in any::<u64>(),
            mv in 800u32..=1000,
            temperature in 0usize..4,
            uniform in any::<bool>(),
            reduced in any::<bool>(),
        ) {
            let mut params = FaultModelParams::date21();
            if uniform {
                params.variation = VariationModel::uniform();
            }
            let geometry = if reduced {
                HbmGeometry::vcu128_reduced()
            } else {
                HbmGeometry::vcu128()
            };
            let mut p = RatePredictor::new(params, geometry, seed);
            p.set_temperature(Celsius([25.0, 35.0, 60.0, 85.0][temperature]));
            for pc in PcIndex::all(geometry) {
                let fast = p.pc_rates(pc, Millivolts(mv));
                let oracle = per_region_rates(&p, pc, Millivolts(mv));
                prop_assert_eq!(
                    fast.rate_1to0.as_f64().to_bits(),
                    oracle.rate_1to0.as_f64().to_bits(),
                    "1->0 at PC{} {} mV", pc.as_u8(), mv
                );
                prop_assert_eq!(
                    fast.rate_0to1.as_f64().to_bits(),
                    oracle.rate_0to1.as_f64().to_bits(),
                    "0->1 at PC{} {} mV", pc.as_u8(), mv
                );
            }
        }
    }

    #[test]
    fn guardband_rates_are_zero() {
        let p = predictor();
        for v in [1200u32, 1000, 980] {
            assert_eq!(p.device_rate(Millivolts(v)), Ratio::ZERO);
        }
    }

    #[test]
    fn rates_grow_monotonically_below_guardband() {
        let p = predictor();
        let mut last = -1.0;
        let mut v = Millivolts(970);
        while v >= Millivolts(820) {
            let rate = p.device_rate(v).as_f64();
            assert!(rate >= last, "rate shrank at {v}");
            last = rate;
            v = v.saturating_sub(Millivolts(10));
        }
    }

    #[test]
    fn total_failure_at_all_faulty_voltage() {
        let p = predictor();
        let rate = p.device_rate(Millivolts(830)).as_f64();
        assert!(rate > 0.99, "rate at 0.83 V = {rate}");
    }

    #[test]
    fn exponential_growth_region() {
        // Rate should grow by orders of magnitude across the unsafe region.
        let p = predictor();
        let high = p.device_rate(Millivolts(960)).as_f64();
        let low = p.device_rate(Millivolts(860)).as_f64();
        assert!(high > 0.0);
        assert!(low / high > 1e4, "growth {high:e} → {low:e}");
    }

    #[test]
    fn hbm1_is_weaker_than_hbm0() {
        let p = predictor();
        // Average the ratio over the mid unsafe region.
        let mut ratios = Vec::new();
        for mv in (850..=950).step_by(10) {
            let r0 = p.stack_rate(StackId(0), Millivolts(mv)).as_f64();
            let r1 = p.stack_rate(StackId(1), Millivolts(mv)).as_f64();
            if r0 > 0.0 {
                ratios.push(r1 / r0);
            }
        }
        let mean: f64 = ratios.iter().sum::<f64>() / ratios.len() as f64;
        assert!(mean > 1.0, "HBM1 must be weaker on average, ratio {mean}");
    }

    #[test]
    fn sensitive_pcs_have_elevated_rates() {
        let p = predictor();
        let v = Millivolts(930);
        let normal: Vec<f64> = (0..32u8)
            .filter(|i| ![4, 5, 18, 19, 20].contains(i))
            .map(|i| p.pc_rates(pc(i), v).union().as_f64())
            .collect();
        let median_normal = {
            let mut s = normal.clone();
            s.sort_by(f64::total_cmp);
            s[s.len() / 2]
        };
        for i in [4u8, 5, 18, 19, 20] {
            let rate = p.pc_rates(pc(i), v).union().as_f64();
            assert!(
                rate > median_normal,
                "PC{i} rate {rate:e} vs median {median_normal:e}"
            );
        }
    }

    #[test]
    fn polarity_average_ratio_near_21_percent() {
        // The study: 0→1 flips on average 21 % more frequent than 1→0.
        let p = predictor();
        let mut sum10 = 0.0;
        let mut sum01 = 0.0;
        let mut v = Millivolts(970);
        while v >= Millivolts(850) {
            let r = p.pc_rates(pc(0), v);
            sum10 += r.rate_1to0.as_f64();
            sum01 += r.rate_0to1.as_f64();
            v = v.saturating_sub(Millivolts(10));
        }
        let ratio = sum01 / sum10;
        assert!(
            (1.05..1.45).contains(&ratio),
            "average 0→1 / 1→0 ratio = {ratio}, expected ≈1.21"
        );
    }

    #[test]
    fn first_flip_voltages_match_paper_at_full_scale() {
        // Expected device-wide faulty bits under each pattern.
        let p = predictor();
        let bits = HbmGeometry::vcu128().total_bits() as f64;
        let expected = |mv: u32, pattern_1to0: bool| -> f64 {
            let mut sum = 0.0;
            for i in 0..32 {
                let r = p.pc_rates(pc(i), Millivolts(mv));
                sum += if pattern_1to0 {
                    r.rate_1to0.as_f64()
                } else {
                    r.rate_0to1.as_f64()
                };
            }
            sum / 32.0 * bits
        };
        // 1→0: first flips at 0.97 V — expected count order of a few.
        let e10_970 = expected(970, true);
        assert!((0.3..60.0).contains(&e10_970), "1→0 at 0.97 V: {e10_970}");
        // 0→1: not yet detectable at 0.97 V relative to 1→0, detectable at 0.96 V.
        let e01_970 = expected(970, false);
        let e01_960 = expected(960, false);
        assert!(
            e01_970 < e10_970,
            "0→1 must onset later: {e01_970} vs {e10_970}"
        );
        assert!(e01_960 > 1.0, "0→1 detectable at 0.96 V: {e01_960}");
    }

    #[test]
    fn expected_faulty_bits_scale_with_geometry() {
        let full = predictor();
        let reduced =
            RatePredictor::new(FaultModelParams::date21(), HbmGeometry::vcu128_reduced(), 7);
        let v = Millivolts(880);
        let f = full.expected_faulty_bits(pc(0), v);
        let r = reduced.expected_faulty_bits(pc(0), v);
        // Same seed, same per-PC/bank structure; 1024× fewer rows. Rates
        // differ slightly (region sampling), counts by roughly the scale.
        let ratio = f / r;
        assert!((200.0..5000.0).contains(&ratio), "count ratio {ratio}");
    }
}
