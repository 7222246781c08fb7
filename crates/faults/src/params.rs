//! The complete parameter set of the fault model.

use hbm_units::Volts;
use serde::{Deserialize, Serialize};

use crate::error::FaultModelError;
use crate::landmarks::VoltageLandmarks;
use crate::response::ResponseCurve;
use crate::variation::VariationModel;

/// All parameters of the fault model, with defaults calibrated to the
/// DATE 2021 characterization (see the crate docs and `DESIGN.md` for the
/// calibration derivation).
///
/// # Examples
///
/// ```
/// use hbm_faults::FaultModelParams;
///
/// let params = FaultModelParams::date21();
/// // Bits split into stuck-at-0 / stuck-at-1 classes.
/// assert!((params.stuck0_share + params.stuck1_share() - 1.0).abs() < 1e-12);
/// params.validate();
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultModelParams {
    /// The characteristic voltages.
    pub landmarks: VoltageLandmarks,
    /// Response curve of stuck-at-0 bits (observed as 1→0 flips under an
    /// all-ones pattern).
    pub curve_stuck0: ResponseCurve,
    /// Response curve of stuck-at-1 bits (observed as 0→1 flips under an
    /// all-zeros pattern).
    pub curve_stuck1: ResponseCurve,
    /// Fraction of bits whose failure polarity is stuck-at-0.
    pub stuck0_share: f64,
    /// The process-variation model.
    pub variation: VariationModel,
    /// Slope (decades per volt) of the steep "bulk" component that collapses
    /// the whole bit population near the saturation voltage, reproducing the
    /// study's observation that *both* stacks become entirely faulty by
    /// ≈0.84 V despite their process variation.
    pub bulk_decades_per_volt: f64,
    /// Fraction of the local variation shift that still applies to the bulk
    /// component (the timing cliff varies much less than the weak-bit tail).
    pub bulk_shift_scale: f64,
}

impl FaultModelParams {
    /// Parameters calibrated to the study:
    ///
    /// - stuck-at-0 curve: saturation 0.840 V, 79.2 decades/V — first 1→0
    ///   flips around 0.97 V in 8 GB, total failure at 0.84 V;
    /// - stuck-at-1 curve: saturation 0.841 V, 86 decades/V — first 0→1
    ///   flips around 0.96 V, and averaged over the unsafe region a rate
    ///   ≈21 % above the 1→0 rate (the curves cross near 0.86 V);
    /// - 47 % of bits fail towards 0, 53 % towards 1.
    #[must_use]
    pub fn date21() -> Self {
        FaultModelParams {
            landmarks: VoltageLandmarks::date21(),
            curve_stuck0: ResponseCurve::new(Volts(0.840), 79.2),
            curve_stuck1: ResponseCurve::new(Volts(0.841), 86.0),
            stuck0_share: 0.47,
            variation: VariationModel::date21(),
            bulk_decades_per_volt: 400.0,
            bulk_shift_scale: 0.15,
        }
    }

    /// Fault probability of a bit of the class described by `curve`, at
    /// supply `v` under a local variation `shift`, combining the exponential
    /// weak-bit tail with the steep bulk collapse.
    ///
    /// The guardband gate (zero at or above V_min) is applied by callers on
    /// the *raw* supply voltage so that no variation shift can leak faults
    /// into the guardband.
    ///
    /// A saturated bulk (`bulk_arg <= 0`) returns 1 without evaluating the
    /// tail: `(tail + 1).min(1)` is 1 for every tail in `[0, 1]`, and for
    /// NaN, so the result is the same bits either way.
    #[must_use]
    pub fn class_probability(&self, curve: &ResponseCurve, v: Volts, shift: Volts) -> f64 {
        let bulk_arg =
            v.as_f64() - self.bulk_shift_scale * shift.as_f64() - curve.v_saturation().as_f64();
        if bulk_arg <= 0.0 {
            return 1.0;
        }
        let tail = curve.probability(v - shift);
        let bulk = 10f64.powf(-self.bulk_decades_per_volt * bulk_arg).min(1.0);
        (tail + bulk).min(1.0)
    }

    /// Both class probabilities at once, in the fixed (stuck-at-0,
    /// stuck-at-1) evaluation order.
    ///
    /// This is the single formula both injector kernels go through — the
    /// per-word reference path and the region-tile cache builder — so their
    /// results are bit-identical by construction.
    #[must_use]
    pub fn class_probabilities(&self, v: Volts, shift: Volts) -> (f64, f64) {
        (
            self.class_probability(&self.curve_stuck0, v, shift),
            self.class_probability(&self.curve_stuck1, v, shift),
        )
    }

    /// The stuck-at-1 share (`1 − stuck0_share`).
    #[must_use]
    pub fn stuck1_share(&self) -> f64 {
        1.0 - self.stuck0_share
    }

    /// Replaces the variation model (used by ablation benches).
    #[must_use]
    pub fn with_variation(mut self, variation: VariationModel) -> Self {
        self.variation = variation;
        self
    }

    /// Disables the polarity asymmetry: both classes share the stuck-at-0
    /// curve and split 50/50 (ablation).
    #[must_use]
    pub fn without_polarity_asymmetry(mut self) -> Self {
        self.curve_stuck1 = self.curve_stuck0;
        self.stuck0_share = 0.5;
        self
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a [`FaultModelError`] if the landmarks are mis-ordered, the
    /// share is outside `(0, 1)`, or a curve saturates above V_min (which
    /// would leak faults into the guardband even before gating).
    pub fn try_validate(&self) -> Result<(), FaultModelError> {
        self.landmarks.try_validate()?;
        if !(self.stuck0_share > 0.0 && self.stuck0_share < 1.0) {
            return Err(FaultModelError::InvalidStuck0Share {
                share: self.stuck0_share,
            });
        }
        let v_min = self.landmarks.v_min.to_volts();
        for curve in [&self.curve_stuck0, &self.curve_stuck1] {
            if curve.v_saturation() >= v_min {
                return Err(FaultModelError::CurveSaturatesAboveVmin {
                    v_saturation_volts: curve.v_saturation().as_f64(),
                    v_min_volts: v_min.as_f64(),
                });
            }
        }
        Ok(())
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if [`FaultModelParams::try_validate`] reports an error.
    pub fn validate(&self) {
        if let Err(err) = self.try_validate() {
            panic!("{err}");
        }
    }
}

impl Default for FaultModelParams {
    fn default() -> Self {
        FaultModelParams::date21()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn date21_is_valid() {
        FaultModelParams::date21().validate();
    }

    #[test]
    fn shares_sum_to_one() {
        let p = FaultModelParams::date21();
        assert!((p.stuck0_share + p.stuck1_share() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn polarity_ablation() {
        let p = FaultModelParams::date21().without_polarity_asymmetry();
        assert_eq!(p.curve_stuck0, p.curve_stuck1);
        assert_eq!(p.stuck0_share, 0.5);
        p.validate();
    }

    #[test]
    fn class_probability_combines_tail_and_bulk() {
        let p = FaultModelParams::date21();
        // Deep in the tail regime the bulk is invisible.
        let tail_only = p.curve_stuck0.probability(Volts(0.95));
        let combined = p.class_probability(&p.curve_stuck0, Volts(0.95), Volts(0.0));
        assert!((combined - tail_only) / tail_only < 1e-6);
        // At the saturation voltage everything is faulty, even for a bit
        // population with a strongly negative (robust) shift.
        assert_eq!(
            p.class_probability(&p.curve_stuck0, Volts(0.83), Volts(-0.030)),
            1.0
        );
        // Monotone in voltage for positive and negative shifts.
        for shift in [-0.02, 0.0, 0.02] {
            let mut last = 2.0;
            for step in 0..150 {
                let v = 0.80 + f64::from(step) * 0.001;
                let c = p.class_probability(&p.curve_stuck0, Volts(v), Volts(shift));
                assert!(c <= last, "non-monotone at {v} shift {shift}");
                last = c;
            }
        }
    }

    /// The saturated early return gives the same bits as summing both
    /// terms, for both curves, on a grid of voltages and shifts that
    /// includes `bulk_arg == 0` exactly (at `v_sat`, shift 0).
    #[test]
    fn saturated_bulk_matches_the_two_term_sum() {
        let p = FaultModelParams::date21();
        let two_term = |curve: &ResponseCurve, v: f64, shift: f64| {
            let tail = curve.probability(Volts(v - shift));
            let bulk_arg = v - p.bulk_shift_scale * shift - curve.v_saturation().as_f64();
            let bulk = if bulk_arg <= 0.0 {
                1.0
            } else {
                10f64.powf(-p.bulk_decades_per_volt * bulk_arg).min(1.0)
            };
            ((tail + bulk).min(1.0), bulk_arg)
        };
        let (mut at_zero, mut saturated) = (0, 0);
        for curve in [&p.curve_stuck0, &p.curve_stuck1] {
            let v_sat = curve.v_saturation().as_f64();
            let voltages = (0..=250)
                .map(|mv| 0.78 + f64::from(mv) * 1e-3)
                .chain([v_sat]);
            for v in voltages {
                for shift in (-12..=12).map(|k| f64::from(k) * 5e-3) {
                    let (expected, bulk_arg) = two_term(curve, v, shift);
                    let got = p.class_probability(curve, Volts(v), Volts(shift));
                    assert_eq!(got.to_bits(), expected.to_bits(), "v {v}, shift {shift}");
                    at_zero += usize::from(bulk_arg == 0.0);
                    saturated += usize::from(bulk_arg < 0.0);
                }
            }
        }
        assert!(at_zero >= 2, "no grid point has bulk_arg == 0");
        assert!(saturated > 0);
    }

    #[test]
    fn curves_cross_in_the_unsafe_region() {
        // The stuck-at-1 curve must overtake the stuck-at-0 curve at low
        // voltage (so the 0→1 average ends up higher) while staying below it
        // near the onset (so 1→0 flips appear first).
        let p = FaultModelParams::date21();
        assert!(
            p.curve_stuck1.probability(Volts(0.97)) < p.curve_stuck0.probability(Volts(0.97)),
            "1→0 must onset first"
        );
        assert!(
            p.curve_stuck1.probability(Volts(0.85)) > p.curve_stuck0.probability(Volts(0.85)),
            "0→1 must dominate at low voltage"
        );
    }

    #[test]
    #[should_panic(expected = "stuck0_share")]
    fn bad_share_rejected() {
        let mut p = FaultModelParams::date21();
        p.stuck0_share = 1.5;
        p.validate();
    }

    #[test]
    fn serde_round_trip() {
        let p = FaultModelParams::date21();
        let json = serde_json::to_string(&p).unwrap();
        let back: FaultModelParams = serde_json::from_str(&json).unwrap();
        assert_eq!(p, back);
    }
}
