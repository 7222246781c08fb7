//! Process-variation model: deterministic voltage shifts per stack, pseudo
//! channel, bank and row region.
//!
//! All variation is expressed in the voltage domain: an entity with shift
//! `+s` behaves at supply `v` the way the base model behaves at `v − s`
//! (more sensitive). Shifts compose additively, which in the exponential
//! regime corresponds to multiplicative fault-rate factors — a shift of
//! `log10(r)/D` volts multiplies the rate by `r`.
//!
//! # Per-stack normalization
//!
//! Raw Gaussian per-PC shifts would do two unwanted things: (i) the convex
//! exponential turns zero-mean voltage noise into a large positive rate bias
//! (a log-normal mean), and (ii) with only 16 PCs per stack, sampling noise
//! would swamp the small deliberate inter-stack skew, so whether HBM1 ends
//! up weaker than HBM0 would depend on the seed. The model therefore
//! normalizes each stack's PC shifts so that the stack's *mean rate
//! multiplier* (log-mean-exp at the reference slope) is exactly one before
//! the inter-stack skew and the sensitive-PC boosts are applied. The paper's
//! qualitative observations — HBM1 ≈13 % weaker, specific sensitive PCs —
//! then hold for every seed.

use hbm_device::{BankId, HbmGeometry, PcIndex, RowId, StackId};
use hbm_units::Celsius;
use serde::{Deserialize, Serialize};

use crate::hash::{combine, mix64, unit};
use crate::math::probit;

/// Deterministic process-variation model (the parameters; see
/// [`ShiftTable`] for the precomputed per-PC shifts).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VariationModel {
    /// Half the inter-stack skew in volts: HBM1 gets `+skew`, HBM0 `−skew`.
    /// Calibrated so HBM1's average fault rate is ≈13 % above HBM0's.
    pub stack_skew_volts: f64,
    /// 1-σ of the per-pseudo-channel Gaussian shift, in volts.
    pub pc_sigma_volts: f64,
    /// Extra positive shift applied to the study's sensitive PCs.
    pub sensitive_pc_boost_volts: f64,
    /// Global indices of the sensitive PCs (PC4, PC5 on HBM0 and PC18–PC20
    /// on HBM1 in the study).
    pub sensitive_pcs: Vec<u8>,
    /// 1-σ of the per-bank Gaussian shift, in volts.
    pub bank_sigma_volts: f64,
    /// Number of consecutive rows forming one variation region.
    pub region_rows: u32,
    /// Probability that a region is "weak" (a fault cluster seed).
    pub weak_region_probability: f64,
    /// Positive shift of weak regions, in volts.
    pub weak_region_boost_volts: f64,
    /// Small negative shift of all other regions, in volts.
    pub normal_region_relief_volts: f64,
    /// Sensitivity to operating temperature, volts per °C above the study's
    /// 35 °C ambient.
    pub temperature_volts_per_degree: f64,
    /// Reference slope (decades per volt) used by the per-stack log-mean-exp
    /// normalization; matches the stuck-at-0 tail curve.
    pub normalization_decades_per_volt: f64,
}

impl VariationModel {
    /// The variation model calibrated to the study's observations.
    #[must_use]
    pub fn date21() -> Self {
        VariationModel {
            // Tuned so the deterministic stack fault-rate ratio (skew plus
            // the 2-vs-3 sensitive-PC imbalance) lands at the paper's ≈13 %:
            // boosts alone give ≈1.10×, the skew contributes the rest.
            stack_skew_volts: 7.5e-5,
            pc_sigma_volts: 0.008,
            sensitive_pc_boost_volts: 0.006,
            sensitive_pcs: vec![4, 5, 18, 19, 20],
            bank_sigma_volts: 0.002,
            region_rows: 64,
            weak_region_probability: 0.03,
            weak_region_boost_volts: 0.018,
            normal_region_relief_volts: 0.002,
            temperature_volts_per_degree: 0.001,
            normalization_decades_per_volt: 79.2,
        }
    }

    /// A variation-free model (every shift zero except temperature) for
    /// ablation studies.
    #[must_use]
    pub fn uniform() -> Self {
        VariationModel {
            stack_skew_volts: 0.0,
            pc_sigma_volts: 0.0,
            sensitive_pc_boost_volts: 0.0,
            sensitive_pcs: Vec::new(),
            bank_sigma_volts: 0.0,
            region_rows: 64,
            weak_region_probability: 0.0,
            weak_region_boost_volts: 0.0,
            normal_region_relief_volts: 0.0,
            temperature_volts_per_degree: 0.001,
            normalization_decades_per_volt: 79.2,
        }
    }

    /// Gaussian draw with standard deviation `sigma` from a hash, via the
    /// probit of a uniform.
    fn gaussian(hash: u64, sigma: f64) -> f64 {
        if sigma == 0.0 {
            return 0.0;
        }
        // Keep the uniform strictly inside (0, 1).
        let u = unit(hash).clamp(1e-12, 1.0 - 1e-12);
        probit(u) * sigma
    }

    /// Raw (un-normalized) per-PC Gaussian draw.
    fn raw_pc_shift_volts(&self, seed: u64, pc: PcIndex) -> f64 {
        Self::gaussian(
            combine(&[seed, 0x7063, u64::from(pc.as_u8())]),
            self.pc_sigma_volts,
        )
    }

    /// The per-bank shift.
    #[must_use]
    pub fn bank_shift_volts(&self, seed: u64, pc: PcIndex, bank: BankId) -> f64 {
        Self::gaussian(
            combine(&[seed, 0x626B, u64::from(pc.as_u8()), u64::from(bank.0)]),
            self.bank_sigma_volts,
        )
    }

    /// The region index a row belongs to.
    #[must_use]
    pub fn region_of(&self, row: RowId) -> u32 {
        row.0 / self.region_rows.max(1)
    }

    /// The per-region shift implementing fault clustering: a few regions are
    /// strongly weak, the rest slightly relieved.
    #[must_use]
    pub fn region_shift_volts(&self, seed: u64, pc: PcIndex, bank: BankId, row: RowId) -> f64 {
        self.region_shift_volts_by_index(seed, pc, bank, self.region_of(row))
    }

    /// [`VariationModel::region_shift_volts`] addressed by region index
    /// directly — the form the injector's tile cache iterates with (one call
    /// per region instead of one per row).
    #[must_use]
    pub fn region_shift_volts_by_index(
        &self,
        seed: u64,
        pc: PcIndex,
        bank: BankId,
        region: u32,
    ) -> f64 {
        let weak = self.region_is_weak(Self::region_prefix(seed, pc, bank), region);
        self.region_class_shift_volts(weak)
    }

    /// The hash prefix every region draw of one bank shares. Region `r`'s
    /// draw is `mix64(prefix ^ r)` ([`combine`]'s left-fold identity), so a
    /// loop over a bank's regions hashes the prefix once.
    #[must_use]
    pub(crate) fn region_prefix(seed: u64, pc: PcIndex, bank: BankId) -> u64 {
        combine(&[seed, 0x7267, u64::from(pc.as_u8()), u64::from(bank.0)])
    }

    /// Whether a region is weak (a fault-cluster seed), given its bank's
    /// [`VariationModel::region_prefix`].
    #[must_use]
    pub(crate) fn region_is_weak(&self, prefix: u64, region: u32) -> bool {
        unit(mix64(prefix ^ u64::from(region))) < self.weak_region_probability
    }

    /// The shift of a weak or a normal region: a region takes one of these
    /// two values, and a model without weak regions shifts none.
    #[must_use]
    pub(crate) fn region_class_shift_volts(&self, weak: bool) -> f64 {
        if self.weak_region_probability == 0.0 {
            0.0
        } else if weak {
            self.weak_region_boost_volts
        } else {
            -self.normal_region_relief_volts
        }
    }

    /// The temperature shift relative to the study's 35 °C ambient.
    #[must_use]
    pub fn temperature_shift_volts(&self, temperature: Celsius) -> f64 {
        (temperature.as_f64() - Celsius::STUDY_AMBIENT.as_f64()) * self.temperature_volts_per_degree
    }
}

impl Default for VariationModel {
    fn default() -> Self {
        VariationModel::date21()
    }
}

/// Precomputed per-pseudo-channel shifts for one device specimen: stack skew
/// plus the normalized Gaussian draw plus the sensitive-PC boost.
///
/// # Examples
///
/// ```
/// use hbm_device::{HbmGeometry, PcIndex};
/// use hbm_faults::{ShiftTable, VariationModel};
///
/// # fn main() -> Result<(), hbm_device::DeviceError> {
/// let table = ShiftTable::new(&VariationModel::date21(), 7, HbmGeometry::vcu128());
/// // Sensitive PC18 carries at least the configured boost.
/// assert!(table.pc_shift_volts(PcIndex::new(18)?) >= 0.006);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ShiftTable {
    shifts: Vec<f64>,
}

impl ShiftTable {
    /// Computes the table for a specimen.
    #[must_use]
    pub fn new(var: &VariationModel, seed: u64, geometry: HbmGeometry) -> Self {
        let total = geometry.total_pcs();
        let k = var.normalization_decades_per_volt * std::f64::consts::LN_10;
        let mut shifts = vec![0.0f64; usize::from(total)];

        for stack in 0..geometry.stacks() {
            let stack_id = StackId(stack);
            let skew = if stack == 0 {
                -var.stack_skew_volts
            } else {
                var.stack_skew_volts
            };
            // Normalize over the non-sensitive members only; sensitive PCs
            // are pinned to exactly the boost, so the inter-stack fault-rate
            // ratio is a deterministic function of the parameters (skew plus
            // the 2-vs-3 sensitive-PC imbalance), independent of the seed.
            let normal: Vec<PcIndex> = PcIndex::all(geometry)
                .filter(|pc| {
                    pc.stack(geometry) == stack_id && !var.sensitive_pcs.contains(&pc.as_u8())
                })
                .collect();
            let raw: Vec<f64> = normal
                .iter()
                .map(|&pc| var.raw_pc_shift_volts(seed, pc))
                .collect();
            // Log-mean-exp at the reference slope: the voltage shift whose
            // rate multiplier equals the group's mean multiplier.
            let lme = if var.pc_sigma_volts == 0.0 || raw.is_empty() {
                0.0
            } else {
                let mean: f64 = raw.iter().map(|&g| (k * g).exp()).sum::<f64>() / raw.len() as f64;
                mean.ln() / k
            };
            for (&pc, &g) in normal.iter().zip(&raw) {
                shifts[pc.as_usize()] = g - lme + skew;
            }
            for pc in PcIndex::all(geometry).filter(|pc| {
                pc.stack(geometry) == stack_id && var.sensitive_pcs.contains(&pc.as_u8())
            }) {
                shifts[pc.as_usize()] = var.sensitive_pc_boost_volts + skew;
            }
        }
        ShiftTable { shifts }
    }

    /// The combined stack + normalized-PC + boost shift of a pseudo channel.
    ///
    /// # Panics
    ///
    /// Panics if `pc` exceeds the geometry the table was built for.
    #[must_use]
    pub fn pc_shift_volts(&self, pc: PcIndex) -> f64 {
        self.shifts[pc.as_usize()]
    }

    /// Iterates over `(pc index, shift)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u8, f64)> + '_ {
        self.shifts.iter().enumerate().map(|(i, &s)| (i as u8, s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pc(i: u8) -> PcIndex {
        PcIndex::new(i).unwrap()
    }

    fn table(seed: u64) -> ShiftTable {
        ShiftTable::new(&VariationModel::date21(), seed, HbmGeometry::vcu128())
    }

    #[test]
    fn shifts_are_deterministic() {
        assert_eq!(table(7), table(7));
        assert_ne!(table(7), table(8), "different seeds differ");
    }

    #[test]
    fn normalization_pins_stack_rate_multiplier() {
        let var = VariationModel::date21();
        let k = var.normalization_decades_per_volt * std::f64::consts::LN_10;
        for seed in [1u64, 7, 42, 99] {
            let t = table(seed);
            for stack in 0..2u8 {
                // Remove the skew: non-sensitive PCs of each stack must
                // average to a rate multiplier of exactly one.
                let skew = if stack == 0 {
                    -var.stack_skew_volts
                } else {
                    var.stack_skew_volts
                };
                let multipliers: Vec<f64> = (0..16u8)
                    .map(|i| i + stack * 16)
                    .filter(|i| !var.sensitive_pcs.contains(i))
                    .map(|i| (k * (t.pc_shift_volts(pc(i)) - skew)).exp())
                    .collect();
                let mean: f64 = multipliers.iter().sum::<f64>() / multipliers.len() as f64;
                assert!(
                    (mean - 1.0).abs() < 1e-9,
                    "seed {seed} stack {stack}: mean multiplier {mean}"
                );
            }
        }
    }

    #[test]
    fn sensitive_pcs_carry_exactly_the_boost() {
        let var = VariationModel::date21();
        for seed in 0..20u64 {
            let t = table(seed);
            for &i in &[4u8, 5] {
                assert_eq!(
                    t.pc_shift_volts(pc(i)),
                    var.sensitive_pc_boost_volts - var.stack_skew_volts,
                    "sensitive PC{i} (seed {seed})"
                );
            }
            for &i in &[18u8, 19, 20] {
                assert_eq!(
                    t.pc_shift_volts(pc(i)),
                    var.sensitive_pc_boost_volts + var.stack_skew_volts,
                    "sensitive PC{i} (seed {seed})"
                );
            }
        }
    }

    #[test]
    fn stack_rate_ratio_is_deterministic_13_percent() {
        // With the normalization, the stack mean-rate ratio is a pure
        // function of the parameters: the 2-vs-3 sensitive-PC imbalance plus
        // the skew, tuned to the paper's ≈13 %.
        let var = VariationModel::date21();
        let k = var.normalization_decades_per_volt * std::f64::consts::LN_10;
        for seed in [3u64, 17, 2026] {
            let t = table(seed);
            let mean_multiplier = |stack: u8| {
                let ms: Vec<f64> = (0..16u8)
                    .map(|i| i + stack * 16)
                    .map(|i| (k * t.pc_shift_volts(pc(i))).exp())
                    .collect();
                ms.iter().sum::<f64>() / ms.len() as f64
            };
            let ratio = mean_multiplier(1) / mean_multiplier(0);
            assert!(
                (1.10..1.16).contains(&ratio),
                "seed {seed}: stack rate ratio {ratio}, expected ≈1.13"
            );
        }
    }

    #[test]
    fn weak_regions_occur_at_roughly_the_configured_rate() {
        let var = VariationModel::date21();
        let mut weak = 0;
        let total = 4096;
        for bank in 0..16u16 {
            for region in 0..(total / 16) {
                let row = RowId(region * var.region_rows);
                if var.region_shift_volts(9, pc(0), BankId(bank), row) > 0.0 {
                    weak += 1;
                }
            }
        }
        let rate = f64::from(weak) / f64::from(total);
        assert!((0.015..0.05).contains(&rate), "weak-region rate {rate}");
    }

    #[test]
    fn rows_in_same_region_share_shift() {
        let var = VariationModel::date21();
        let a = var.region_shift_volts(1, pc(2), BankId(3), RowId(0));
        let b = var.region_shift_volts(1, pc(2), BankId(3), RowId(63));
        assert_eq!(a, b);
        assert_eq!(var.region_of(RowId(63)), 0);
        assert_eq!(var.region_of(RowId(64)), 1);
    }

    #[test]
    fn region_shift_by_index_matches_row_addressing() {
        let var = VariationModel::date21();
        for row in [0u32, 1, 63, 64, 640, 4095] {
            assert_eq!(
                var.region_shift_volts(11, pc(7), BankId(2), RowId(row)),
                var.region_shift_volts_by_index(11, pc(7), BankId(2), row / var.region_rows),
                "row {row}"
            );
        }
    }

    #[test]
    fn region_prefix_folds_to_the_full_region_hash() {
        let var = VariationModel::date21();
        for (bank, region) in [(0u16, 0u32), (3, 1), (15, 255), (7, 4095)] {
            let full = combine(&[11, 0x7267, 7, u64::from(bank), u64::from(region)]);
            let prefix = VariationModel::region_prefix(11, pc(7), BankId(bank));
            assert_eq!(mix64(prefix ^ u64::from(region)), full);
            assert_eq!(
                var.region_is_weak(prefix, region),
                unit(full) < var.weak_region_probability
            );
        }
    }

    #[test]
    fn temperature_shift_sign() {
        let var = VariationModel::date21();
        assert_eq!(var.temperature_shift_volts(Celsius::STUDY_AMBIENT), 0.0);
        assert!(var.temperature_shift_volts(Celsius(45.0)) > 0.0);
        assert!(var.temperature_shift_volts(Celsius(25.0)) < 0.0);
    }

    #[test]
    fn uniform_model_has_no_spatial_variation() {
        let var = VariationModel::uniform();
        let t = ShiftTable::new(&var, 3, HbmGeometry::vcu128());
        for i in [0u8, 5, 18, 31] {
            assert_eq!(t.pc_shift_volts(pc(i)), 0.0);
            assert_eq!(var.bank_shift_volts(3, pc(i), BankId(1)), 0.0);
            assert_eq!(var.region_shift_volts(3, pc(i), BankId(1), RowId(7)), 0.0);
        }
    }

    #[test]
    fn table_iteration_covers_all_pcs() {
        let t = table(5);
        let entries: Vec<(u8, f64)> = t.iter().collect();
        assert_eq!(entries.len(), 32);
        assert_eq!(entries[0].0, 0);
        assert_eq!(entries[31].0, 31);
    }
}
