//! Descending voltage sweeps — the experiments' outer loop.

use hbm_units::Millivolts;
use serde::{Deserialize, Serialize};

use crate::error::ExperimentError;

/// A descending voltage sweep `from → down_to` (inclusive) in fixed steps,
/// the study's outer loop: "from 1.2 V (the nominal voltage level) to
/// 0.81 V (minimum voltage possible for memory operation), with 10 mV step
/// size".
///
/// # Examples
///
/// ```
/// use hbm_undervolt::VoltageSweep;
/// use hbm_units::Millivolts;
///
/// # fn main() -> Result<(), hbm_undervolt::ExperimentError> {
/// let sweep = VoltageSweep::date21();
/// let points: Vec<_> = sweep.iter().collect();
/// assert_eq!(points.len(), 40);
/// assert_eq!(points[0], Millivolts(1200));
/// assert_eq!(points[39], Millivolts(810));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct VoltageSweep {
    from: Millivolts,
    down_to: Millivolts,
    step: Millivolts,
}

impl VoltageSweep {
    /// The study's sweep: 1.20 V down to 0.81 V in 10 mV steps.
    #[must_use]
    pub fn date21() -> Self {
        VoltageSweep {
            from: Millivolts(1200),
            down_to: Millivolts(810),
            step: Millivolts(10),
        }
    }

    /// The below-guardband portion only (0.97 V down to 0.81 V), where the
    /// reliability experiments spend their time.
    #[must_use]
    pub fn unsafe_region() -> Self {
        VoltageSweep {
            from: Millivolts(970),
            down_to: Millivolts(810),
            step: Millivolts(10),
        }
    }

    /// Creates a custom descending sweep.
    ///
    /// # Errors
    ///
    /// Returns a configuration error if `from < down_to`, the step is zero,
    /// or the step does not divide the range (the last point would miss
    /// `down_to`).
    pub fn new(
        from: Millivolts,
        down_to: Millivolts,
        step: Millivolts,
    ) -> Result<Self, ExperimentError> {
        if step == Millivolts::ZERO {
            return Err(ExperimentError::config("sweep step must be non-zero"));
        }
        if from < down_to {
            return Err(ExperimentError::config(format!(
                "sweep must descend: {from} < {down_to}"
            )));
        }
        if !(from.as_u32() - down_to.as_u32()).is_multiple_of(step.as_u32()) {
            return Err(ExperimentError::config(format!(
                "step {step} does not divide the range {from}..{down_to}"
            )));
        }
        Ok(VoltageSweep {
            from,
            down_to,
            step,
        })
    }

    /// The highest (first) voltage.
    #[must_use]
    pub fn from(&self) -> Millivolts {
        self.from
    }

    /// The lowest (last) voltage.
    #[must_use]
    pub fn down_to(&self) -> Millivolts {
        self.down_to
    }

    /// The step size.
    #[must_use]
    pub fn step(&self) -> Millivolts {
        self.step
    }

    /// Number of points in the sweep.
    #[must_use]
    pub fn len(&self) -> usize {
        ((self.from.as_u32() - self.down_to.as_u32()) / self.step.as_u32()) as usize + 1
    }

    /// `false`: a sweep always has at least one point.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Iterates over the voltages, descending.
    pub fn iter(&self) -> impl Iterator<Item = Millivolts> + '_ {
        let (from, down_to, step) = (self.from, self.down_to, self.step);
        std::iter::successors(Some(from), move |&v| {
            (v >= down_to + step).then(|| v - step)
        })
    }
}

impl IntoIterator for VoltageSweep {
    type Item = Millivolts;
    type IntoIter = std::vec::IntoIter<Millivolts>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter().collect::<Vec<_>>().into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn date21_sweep_matches_paper() {
        let sweep = VoltageSweep::date21();
        assert_eq!(sweep.len(), 40);
        let points: Vec<Millivolts> = sweep.iter().collect();
        assert_eq!(points.first(), Some(&Millivolts(1200)));
        assert_eq!(points.last(), Some(&Millivolts(810)));
        assert!(points.windows(2).all(|w| w[0] - w[1] == Millivolts(10)));
        assert!(!sweep.is_empty());
    }

    #[test]
    fn unsafe_region_sweep() {
        let sweep = VoltageSweep::unsafe_region();
        assert_eq!(sweep.iter().count(), 17);
        assert_eq!(sweep.from(), Millivolts(970));
    }

    #[test]
    fn single_point_sweep() {
        let sweep = VoltageSweep::new(Millivolts(900), Millivolts(900), Millivolts(10)).unwrap();
        assert_eq!(sweep.len(), 1);
        assert_eq!(sweep.iter().collect::<Vec<_>>(), vec![Millivolts(900)]);
    }

    #[test]
    fn invalid_sweeps_rejected() {
        assert!(VoltageSweep::new(Millivolts(900), Millivolts(1000), Millivolts(10)).is_err());
        assert!(VoltageSweep::new(Millivolts(900), Millivolts(800), Millivolts::ZERO).is_err());
        assert!(VoltageSweep::new(Millivolts(900), Millivolts(805), Millivolts(10)).is_err());
    }

    #[test]
    fn into_iterator() {
        let sweep = VoltageSweep::new(Millivolts(850), Millivolts(810), Millivolts(20)).unwrap();
        let points: Vec<Millivolts> = sweep.into_iter().collect();
        assert_eq!(
            points,
            vec![Millivolts(850), Millivolts(830), Millivolts(810)]
        );
    }
}
