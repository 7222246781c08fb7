//! The power-measurement experiment (the paper's Fig. 2, and via
//! [`hbm_power::PowerAnalysis`], Fig. 3).
//!
//! The study measures HBM power at bandwidth utilization steps of 25 %
//! (0, 8, 16, 24, 32 enabled AXI ports) while underscaling the supply from
//! 1.20 V, and normalizes every measurement to the power at 1.20 V with
//! maximum utilization (310 GB/s).

use hbm_power::{AcfSample, PowerAnalysis};
use hbm_units::{Millivolts, Ratio, Watts};
use serde::{Deserialize, Serialize};

use crate::error::ExperimentError;
use crate::platform::Platform;
use crate::sweep::VoltageSweep;
use crate::telemetry::{Telemetry, TelemetryEvent};

/// One measured point of the power sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PowerPoint {
    /// Supply voltage.
    pub voltage: Millivolts,
    /// Enabled AXI ports during the measurement.
    pub enabled_ports: usize,
    /// Bandwidth utilization implied by the ports.
    pub utilization: Ratio,
    /// Measured power.
    pub power: Watts,
    /// Power normalized to the 1.20 V / 100 % reference.
    pub normalized: Ratio,
}

/// The power-sweep experiment.
///
/// No traffic runs: the power model takes the bandwidth utilization of the
/// enabled ports as an input (with the analytic stuck-bit fraction at each
/// voltage), so each point is one evaluation of the model at the rail.
///
/// # Examples
///
/// ```
/// use hbm_undervolt::{Platform, PowerSweep};
/// use hbm_units::Millivolts;
///
/// # fn main() -> Result<(), hbm_undervolt::ExperimentError> {
/// let mut platform = Platform::builder().seed(7).build();
/// let report = PowerSweep::date21().run(&mut platform)?;
///
/// // Fig. 2's headline: ≈1.5× at the guardband edge, ≈2.3× at 0.85 V.
/// let s98 = report.saving(Millivolts(980), 32).unwrap();
/// let s85 = report.saving(Millivolts(850), 32).unwrap();
/// assert!((s98 - 1.5).abs() < 0.05, "saving {s98}");
/// assert!((s85 - 2.3).abs() < 0.15, "saving {s85}");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PowerSweep {
    sweep: VoltageSweep,
    port_steps: Vec<usize>,
}

impl PowerSweep {
    /// The study's configuration: 1.20 V down to 0.85 V in 10 mV steps, at
    /// 0 / 25 / 50 / 75 / 100 % utilization.
    #[must_use]
    pub fn date21() -> Self {
        PowerSweep {
            sweep: VoltageSweep::new(Millivolts(1200), Millivolts(850), Millivolts(10))
                .expect("static sweep valid"),
            port_steps: vec![0, 8, 16, 24, 32],
        }
    }

    /// Custom configuration.
    ///
    /// # Errors
    ///
    /// Configuration errors if `port_steps` is empty or exceeds 32 ports.
    pub fn new(sweep: VoltageSweep, port_steps: Vec<usize>) -> Result<Self, ExperimentError> {
        if port_steps.is_empty() {
            return Err(ExperimentError::config("at least one port step required"));
        }
        if port_steps.iter().any(|&p| p > 32) {
            return Err(ExperimentError::config("port steps must be ≤ 32"));
        }
        Ok(PowerSweep { sweep, port_steps })
    }

    /// Runs the experiment. The platform is left at the sweep's lowest
    /// voltage with the last port step enabled.
    ///
    /// # Errors
    ///
    /// PMBus/device errors; the sweep must stay at or above V_critical.
    pub fn run(&self, platform: &mut Platform) -> Result<PowerSweepReport, ExperimentError> {
        self.run_observed(platform, Telemetry::disabled())
    }

    /// [`PowerSweep::run`] with telemetry: emits the sweep lifecycle and one
    /// [`PowerMeasured`](TelemetryEvent::PowerMeasured) event per point.
    ///
    /// # Errors
    ///
    /// See [`PowerSweep::run`].
    pub fn run_observed(
        &self,
        platform: &mut Platform,
        telemetry: &Telemetry,
    ) -> Result<PowerSweepReport, ExperimentError> {
        // Reference: nominal voltage, all ports.
        platform.set_voltage(Millivolts(1200))?;
        platform.enable_ports(32);
        let reference = platform.measure_power(Ratio::ONE)?.power;
        if reference.as_f64() <= 0.0 {
            return Err(ExperimentError::config(
                "reference power measurement is non-positive",
            ));
        }
        telemetry.emit(TelemetryEvent::SweepStarted {
            experiment: "power-sweep".to_owned(),
            seed: platform.seed(),
            points: (self.port_steps.len() * self.sweep.len()) as u64,
            from_mv: self.sweep.from().as_u32(),
            to_mv: self.sweep.down_to().as_u32(),
        });

        let mut points = Vec::with_capacity(self.port_steps.len() * self.sweep.len());
        for &ports in &self.port_steps {
            platform.enable_ports(ports);
            let utilization = platform.utilization();
            for voltage in self.sweep.iter() {
                platform.set_voltage(voltage)?;
                if platform.is_crashed() {
                    return Err(ExperimentError::from(hbm_device::DeviceError::Crashed));
                }
                let sample = platform.measure_power(utilization)?;
                telemetry.emit(TelemetryEvent::PowerMeasured {
                    voltage_mv: voltage.as_u32(),
                    ports: ports as u64,
                    watts: sample.power.as_f64(),
                });
                points.push(PowerPoint {
                    voltage,
                    enabled_ports: ports,
                    utilization,
                    power: sample.power,
                    normalized: Ratio(sample.power / reference),
                });
            }
        }
        telemetry.emit(TelemetryEvent::SweepCompleted {
            completed: points.len() as u64,
            skipped: 0,
            quarantined: 0,
        });
        Ok(PowerSweepReport {
            reference,
            port_steps: self.port_steps.clone(),
            voltages: self.sweep.iter().collect(),
            points,
        })
    }
}

/// The power sweep's results.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PowerSweepReport {
    /// The 1.20 V / 100 % reference power all points normalize to.
    pub reference: Watts,
    /// The swept port steps.
    pub port_steps: Vec<usize>,
    /// The swept voltages, descending.
    pub voltages: Vec<Millivolts>,
    /// Every measured point (port-step major, voltage minor).
    pub points: Vec<PowerPoint>,
}

impl PowerSweepReport {
    /// The point at an exact `(voltage, ports)` pair.
    #[must_use]
    pub fn at(&self, voltage: Millivolts, ports: usize) -> Option<&PowerPoint> {
        self.points
            .iter()
            .find(|p| p.voltage == voltage && p.enabled_ports == ports)
    }

    /// The voltage series of one port step, descending voltage.
    #[must_use]
    pub fn series(&self, ports: usize) -> Vec<&PowerPoint> {
        self.points
            .iter()
            .filter(|p| p.enabled_ports == ports)
            .collect()
    }

    /// Power saving at `(voltage, ports)` relative to the same port count
    /// at 1.20 V.
    #[must_use]
    pub fn saving(&self, voltage: Millivolts, ports: usize) -> Option<f64> {
        let nominal = self.at(Millivolts(1200), ports)?;
        let point = self.at(voltage, ports)?;
        Some(nominal.power / point.power)
    }

    /// Idle power as a fraction of full-load power at a voltage (the paper:
    /// ≈⅓).
    #[must_use]
    pub fn idle_fraction(&self, voltage: Millivolts) -> Option<f64> {
        let idle = self.at(voltage, 0)?;
        let full = self.at(voltage, 32)?;
        Some(idle.power / full.power)
    }

    /// The effective `α·C_L·f` series of one port step (the paper's
    /// Fig. 3), normalized within the series.
    #[must_use]
    pub fn acf_series(&self, ports: usize) -> Vec<AcfSample> {
        let samples: Vec<(Millivolts, Watts)> = self
            .series(ports)
            .into_iter()
            .map(|p| (p.voltage, p.power))
            .collect();
        PowerAnalysis::extract_acf(&samples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_sweep() -> PowerSweep {
        PowerSweep::new(
            VoltageSweep::new(Millivolts(1200), Millivolts(850), Millivolts(50)).unwrap(),
            vec![0, 16, 32],
        )
        .unwrap()
    }

    fn platform() -> Platform {
        Platform::builder().seed(7).build()
    }

    #[test]
    fn invalid_configs_rejected() {
        let sweep = VoltageSweep::date21();
        assert!(PowerSweep::new(sweep, vec![]).is_err());
        assert!(PowerSweep::new(sweep, vec![40]).is_err());
    }

    #[test]
    fn report_is_complete_and_normalized() {
        let report = small_sweep().run(&mut platform()).unwrap();
        assert_eq!(report.points.len(), 3 * 8);
        // The reference point normalizes to ≈1 (measurement noise only).
        let reference = report.at(Millivolts(1200), 32).unwrap();
        assert!((reference.normalized.as_f64() - 1.0).abs() < 0.02);
        // Idle at nominal is ≈⅓ of full load.
        let idle_frac = report.idle_fraction(Millivolts(1200)).unwrap();
        assert!((idle_frac - 1.0 / 3.0).abs() < 0.03, "idle {idle_frac}");
    }

    #[test]
    fn savings_match_paper_headlines() {
        let report = small_sweep().run(&mut platform()).unwrap();
        for &ports in &[0usize, 16, 32] {
            let s = report.saving(Millivolts(1000), ports).unwrap();
            assert!((1.40..1.52).contains(&s), "ports {ports}: 1.0 V saving {s}");
            let s = report.saving(Millivolts(850), ports).unwrap();
            assert!((2.1..2.5).contains(&s), "ports {ports}: 0.85 V saving {s}");
        }
    }

    #[test]
    fn power_ordering_across_utilization() {
        let report = small_sweep().run(&mut platform()).unwrap();
        for &v in &report.voltages {
            let p0 = report.at(v, 0).unwrap().power;
            let p16 = report.at(v, 16).unwrap().power;
            let p32 = report.at(v, 32).unwrap().power;
            assert!(p0 < p16 && p16 < p32, "ordering at {v}");
        }
    }

    #[test]
    fn acf_series_flat_in_guardband_dropping_below() {
        let report = small_sweep().run(&mut platform()).unwrap();
        let series = report.acf_series(32);
        // Within the guardband αC_Lf stays within a few percent of nominal.
        let dev = PowerAnalysis::max_deviation_above(&series, Millivolts(980));
        assert!(dev < 0.03, "guardband deviation {dev}");
        // At 0.85 V the stuck-bit drop shows (paper: ≈14 %).
        let at_850 = PowerAnalysis::normalized_at(&series, Millivolts(850)).unwrap();
        let drop = 1.0 - at_850.as_f64();
        assert!((0.08..0.20).contains(&drop), "drop at 0.85 V: {drop}");
    }

    #[test]
    fn saving_independent_of_utilization_in_guardband() {
        // The paper stresses that the savings factor does not depend on the
        // bandwidth utilization.
        let report = small_sweep().run(&mut platform()).unwrap();
        let s0 = report.saving(Millivolts(1000), 0).unwrap();
        let s32 = report.saving(Millivolts(1000), 32).unwrap();
        assert!((s0 - s32).abs() < 0.05, "{s0} vs {s32}");
    }
}
