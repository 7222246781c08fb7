//! The reliability tester: Algorithm 1 of the paper.
//!
//! > Write data into the undervolted HBM sequentially and then read it back
//! > to check for any faults.
//!
//! For every voltage of a descending sweep, for every data pattern, the
//! tester runs `batchSize` write/read-back passes through the AXI traffic
//! generators and counts bit flips (split by polarity and by port).

use std::time::Instant;

use hbm_device::{DeviceError, PcIndex, PortId};
use hbm_traffic::{DataPattern, MacroProgram, PortStats};
use hbm_units::{Millivolts, Ratio};
use serde::{Deserialize, Serialize};

use crate::engine;
use crate::error::ExperimentError;
use crate::platform::Platform;
use crate::stats::BatchSummary;
use crate::sweep::VoltageSweep;
use crate::telemetry::{Telemetry, TelemetryEvent};

/// Which part of the memory a reliability test covers — the paper's
/// `memSize` selector (entire HBM: 256M words; one PC: 8M words).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum TestScope {
    /// All pseudo channels through all ports.
    EntireHbm,
    /// A single pseudo channel through its port.
    SinglePc(PcIndex),
    /// An explicit port subset (the study's port-disabling methodology).
    Ports(Vec<u8>),
}

impl TestScope {
    fn ports(&self, total: u8) -> Result<Vec<PortId>, ExperimentError> {
        match self {
            TestScope::EntireHbm => Ok((0..total)
                .map(|i| PortId::new(i).expect("index within geometry"))
                .collect()),
            TestScope::SinglePc(pc) => Ok(vec![
                PortId::new(pc.as_u8()).expect("pc index is a port index")
            ]),
            TestScope::Ports(ids) => ids
                .iter()
                .map(|&i| {
                    if i < total {
                        Ok(PortId::new(i).expect("checked against geometry"))
                    } else {
                        Err(ExperimentError::config(format!(
                            "port {i} is out of range: the geometry has ports 0..{total}"
                        )))
                    }
                })
                .collect(),
        }
    }
}

/// Which kernel executes each voltage point of the sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum ExecutionMode {
    /// Batch mask reuse: each port's per-pattern pass statistics are
    /// computed once per voltage by the fault kernel, then replayed across
    /// all `batch_size` passes as pure arithmetic. Bit-identical to
    /// [`ExecutionMode::Traffic`] — the model's faults are deterministic at
    /// a fixed voltage, so each pass observes the same counts — but the
    /// per-word cost is paid once instead of `batch_size × patterns` times.
    /// Fault sets only grow as the voltage descends, so a sweep measures
    /// each port with one hash pass at its first point and reads every
    /// later point from that pass's per-voltage rows.
    #[default]
    CachedMasks,
    /// Full AXI emulation: every batch pass writes and reads back through
    /// the traffic generators (the paper's literal procedure). Exercises
    /// the device arrays and the parallel sharding engine; used by the
    /// tests that check that engine itself.
    Traffic,
}

/// The most write/read-back passes per (voltage, pattern) a configuration
/// may ask for; the paper runs 130.
pub const MAX_BATCH_SIZE: usize = 65_536;

/// Configuration of a reliability test run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReliabilityConfig {
    /// The voltage sweep (outer loop).
    pub sweep: VoltageSweep,
    /// Repetitions per (voltage, pattern) — the paper's `batchSize` of 130.
    pub batch_size: usize,
    /// Data patterns to test (the paper: all-1s and all-0s).
    pub patterns: Vec<DataPattern>,
    /// Memory scope.
    pub scope: TestScope,
    /// Optional cap on words tested per pseudo channel (`None` = the full
    /// array). Lets exhaustive tests bound their runtime.
    pub words_per_pc: Option<u64>,
    /// Which kernel executes each voltage point (default:
    /// [`ExecutionMode::CachedMasks`]).
    ///
    /// How the kernel runs — which compile of its word loop — is decided
    /// by the kernel itself and never changes results, so it is not part
    /// of the configuration.
    pub mode: ExecutionMode,
}

impl ReliabilityConfig {
    /// The paper's configuration: full sweep, 130 runs, both uniform
    /// patterns, entire HBM.
    #[must_use]
    pub fn date21() -> Self {
        ReliabilityConfig {
            sweep: VoltageSweep::date21(),
            batch_size: 130,
            patterns: vec![DataPattern::AllOnes, DataPattern::AllZeros],
            scope: TestScope::EntireHbm,
            words_per_pc: None,
            mode: ExecutionMode::CachedMasks,
        }
    }

    /// A fast configuration for tests and examples: the unsafe region in
    /// 20 mV steps, 3 runs, 512 words per PC.
    #[must_use]
    pub fn quick() -> Self {
        ReliabilityConfig {
            sweep: VoltageSweep::new(Millivolts(970), Millivolts(810), Millivolts(20))
                .expect("static sweep valid"),
            batch_size: 3,
            patterns: vec![DataPattern::AllOnes, DataPattern::AllZeros],
            scope: TestScope::EntireHbm,
            words_per_pc: Some(512),
            mode: ExecutionMode::CachedMasks,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Configuration errors for an empty or oversized batch (more than
    /// [`MAX_BATCH_SIZE`] passes), no patterns, or an empty port scope.
    pub fn validate(&self) -> Result<(), ExperimentError> {
        if self.batch_size == 0 {
            return Err(ExperimentError::config("batch size must be at least 1"));
        }
        if self.batch_size > MAX_BATCH_SIZE {
            return Err(ExperimentError::config(format!(
                "batch size must be at most {MAX_BATCH_SIZE}, got {}",
                self.batch_size
            )));
        }
        if self.patterns.is_empty() {
            return Err(ExperimentError::config(
                "at least one data pattern required",
            ));
        }
        if matches!(&self.scope, TestScope::Ports(p) if p.is_empty()) {
            return Err(ExperimentError::config("port scope must not be empty"));
        }
        Ok(())
    }
}

impl Default for ReliabilityConfig {
    fn default() -> Self {
        ReliabilityConfig::date21()
    }
}

/// The outcome of one (voltage, pattern) cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PatternOutcome {
    /// The pattern tested.
    pub pattern: DataPattern,
    /// Mean fault count per run.
    pub mean_fault_count: f64,
    /// Batch spread (min/max/σ across the runs).
    pub batch_min: u64,
    /// Maximum fault count across the runs.
    pub batch_max: u64,
    /// 1→0 flips in the last run.
    pub flips_1to0: u64,
    /// 0→1 flips in the last run.
    pub flips_0to1: u64,
    /// Per-port statistics of the last run.
    pub per_port: Vec<(u8, PortStats)>,
}

/// Everything measured at one sweep voltage.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct VoltagePoint {
    /// The swept voltage.
    pub voltage: Millivolts,
    /// `true` if the device crashed at this voltage (no data collected).
    pub crashed: bool,
    /// One outcome per pattern.
    pub outcomes: Vec<PatternOutcome>,
    /// Measured throughput: logical word transactions (writes plus
    /// read-checks, across all batch passes and patterns) per wall-clock
    /// second at this point. `None` when no measurement exists — crashed
    /// points never report a throughput (rendering a crash as
    /// "0 words/s" would fabricate a data point), and non-finite rates
    /// are excluded the same way.
    pub words_per_second: Option<f64>,
    /// Measured throughput: stuck-at mask evaluations the fault kernel
    /// performed per wall-clock second at this point. In cached-mask mode
    /// each word's masks are computed once per voltage, so this is far
    /// below `words_per_second`; in traffic mode every read evaluates a
    /// mask. A sequential sweep charges a port's one descent
    /// (every word, once) to the point that ran it and reads later points
    /// from its rows, at a rate of zero. `None` for crashed points, like
    /// `words_per_second`.
    pub masks_per_second: Option<f64>,
}

/// A throughput rate that is a real measurement or nothing: non-finite
/// values (a zero or denormal elapsed time) are excluded rather than
/// surfaced as data.
fn rate(count: u64, elapsed_secs: f64) -> Option<f64> {
    let rate = count as f64 / elapsed_secs;
    rate.is_finite().then_some(rate)
}

impl PartialEq for VoltagePoint {
    /// The throughput rates are measurements of *how* the point was
    /// computed, not model outputs: reports taken at different worker
    /// counts or execution modes, and points read from a descent or
    /// rescanned, must still compare equal, so equality covers only the
    /// deterministic fields.
    fn eq(&self, other: &Self) -> bool {
        self.voltage == other.voltage
            && self.crashed == other.crashed
            && self.outcomes == other.outcomes
    }
}

impl VoltagePoint {
    /// Total mean fault count across patterns.
    #[must_use]
    pub fn total_mean_faults(&self) -> f64 {
        self.outcomes.iter().map(|o| o.mean_fault_count).sum()
    }

    /// The outcome for a specific pattern.
    #[must_use]
    pub fn outcome(&self, pattern: DataPattern) -> Option<&PatternOutcome> {
        self.outcomes.iter().find(|o| o.pattern == pattern)
    }
}

/// The full report of a reliability test.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReliabilityReport {
    /// The configuration that produced the report.
    pub config: ReliabilityConfig,
    /// Bits checked per run per pattern (the fault-rate denominator).
    pub checked_bits_per_run: u64,
    /// One point per swept voltage, in sweep (descending) order.
    pub points: Vec<VoltagePoint>,
}

impl ReliabilityReport {
    /// The point at an exact voltage, if swept.
    #[must_use]
    pub fn at(&self, voltage: Millivolts) -> Option<&VoltagePoint> {
        self.points.iter().find(|p| p.voltage == voltage)
    }

    /// Observed fault rate (mean flips / checked bits) at a voltage for a
    /// pattern.
    #[must_use]
    pub fn fault_rate(&self, voltage: Millivolts, pattern: DataPattern) -> Option<Ratio> {
        let point = self.at(voltage)?;
        let outcome = point.outcome(pattern)?;
        Some(Ratio(
            outcome.mean_fault_count / self.checked_bits_per_run as f64,
        ))
    }

    /// The highest voltage at which the pattern showed any fault — the
    /// paper's "first bit flips occur at …".
    #[must_use]
    pub fn first_fault_voltage(&self, pattern: DataPattern) -> Option<Millivolts> {
        self.points
            .iter()
            .filter(|p| p.outcome(pattern).is_some_and(|o| o.mean_fault_count > 0.0))
            .map(|p| p.voltage)
            .max()
    }

    /// The highest voltage at which the device crashed, if any.
    #[must_use]
    pub fn crash_voltage(&self) -> Option<Millivolts> {
        self.points
            .iter()
            .filter(|p| p.crashed)
            .map(|p| p.voltage)
            .max()
    }
}

/// Algorithm 1: the sequential-access reliability tester.
///
/// # Examples
///
/// ```
/// use hbm_undervolt::{Platform, ReliabilityConfig, ReliabilityTester};
/// use hbm_traffic::DataPattern;
/// use hbm_units::Millivolts;
///
/// # fn main() -> Result<(), hbm_undervolt::ExperimentError> {
/// let mut platform = Platform::builder().seed(7).build();
/// let tester = ReliabilityTester::new(ReliabilityConfig::quick())?;
/// let report = tester.run(&mut platform)?;
///
/// // Deep under the guardband everything is faulty …
/// let deep = report.fault_rate(Millivolts(810), DataPattern::AllOnes).unwrap();
/// assert!(deep.as_f64() > 0.4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ReliabilityTester {
    config: ReliabilityConfig,
}

impl ReliabilityTester {
    /// Creates a tester after validating the configuration.
    ///
    /// # Errors
    ///
    /// Configuration errors from [`ReliabilityConfig::validate`].
    pub fn new(config: ReliabilityConfig) -> Result<Self, ExperimentError> {
        config.validate()?;
        Ok(ReliabilityTester { config })
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &ReliabilityConfig {
        &self.config
    }

    /// Runs the sweep on a platform. The platform is left at the last
    /// swept voltage (or power-cycled to nominal if that voltage crashed
    /// it).
    ///
    /// # Errors
    ///
    /// Propagates PMBus errors and unexpected device errors; a device
    /// *crash* at a swept voltage is expected behaviour and is recorded in
    /// the report rather than returned.
    pub fn run(&self, platform: &mut Platform) -> Result<ReliabilityReport, ExperimentError> {
        self.run_observed(platform, Telemetry::disabled())
    }

    /// [`ReliabilityTester::run`] with telemetry: emits the sweep and point
    /// lifecycle events (stamped `t_ms: 0` — the plain tester has no
    /// [`Clock`](crate::Clock); the [`SweepSupervisor`] does) and updates
    /// the scan counters.
    ///
    /// [`SweepSupervisor`]: crate::SweepSupervisor
    ///
    /// # Errors
    ///
    /// See [`ReliabilityTester::run`].
    pub fn run_observed(
        &self,
        platform: &mut Platform,
        telemetry: &Telemetry,
    ) -> Result<ReliabilityReport, ExperimentError> {
        let ports = self.scoped_ports(platform)?;
        let checked_bits_per_run = self.checked_bits_per_run(platform, &ports);
        let sweep = &self.config.sweep;
        telemetry.emit(TelemetryEvent::SweepStarted {
            experiment: "reliability".to_owned(),
            seed: platform.seed(),
            points: sweep.len() as u64,
            from_mv: sweep.from().as_u32(),
            to_mv: sweep.down_to().as_u32(),
        });

        let mut points = Vec::with_capacity(sweep.len());
        for voltage in self.config.sweep.iter() {
            telemetry.emit(TelemetryEvent::PointStarted {
                voltage_mv: voltage.as_u32(),
                attempt: 1,
            });
            match self.run_point_observed(platform, &ports, voltage, telemetry) {
                Ok(point) => {
                    if point.crashed {
                        telemetry.emit(TelemetryEvent::DeviceCrashed {
                            voltage_mv: voltage.as_u32(),
                            attempt: 1,
                            transient: false,
                        });
                        telemetry.emit(TelemetryEvent::PowerCycled {
                            restart_mv: 1200,
                            cycle: platform.power_cycle_count(),
                        });
                    }
                    telemetry.emit(TelemetryEvent::PointCompleted {
                        voltage_mv: voltage.as_u32(),
                        attempt: 1,
                        crashed: point.crashed,
                        mean_faults: point.total_mean_faults(),
                    });
                    points.push(point);
                }
                // A transient crash above the floor: the plain tester has no
                // retry machinery (that is the SweepSupervisor's job), so it
                // records the point as crashed and recovers, exactly like a
                // genuine cliff crash.
                Err(e) if e.is_crash() => {
                    telemetry.emit(TelemetryEvent::DeviceCrashed {
                        voltage_mv: voltage.as_u32(),
                        attempt: 1,
                        transient: true,
                    });
                    points.push(VoltagePoint {
                        voltage,
                        crashed: true,
                        outcomes: Vec::new(),
                        words_per_second: None,
                        masks_per_second: None,
                    });
                    platform.power_cycle(Millivolts(1200))?;
                    telemetry.emit(TelemetryEvent::PowerCycled {
                        restart_mv: 1200,
                        cycle: platform.power_cycle_count(),
                    });
                    platform.set_voltage(Millivolts(1200))?;
                    telemetry.emit(TelemetryEvent::PointCompleted {
                        voltage_mv: voltage.as_u32(),
                        attempt: 1,
                        crashed: true,
                        mean_faults: 0.0,
                    });
                }
                Err(e) => return Err(e),
            }
        }
        telemetry.emit(TelemetryEvent::SweepCompleted {
            completed: points.len() as u64,
            skipped: 0,
            quarantined: 0,
        });

        Ok(ReliabilityReport {
            config: self.config.clone(),
            checked_bits_per_run,
            points,
        })
    }

    /// The ports the configured scope selects on this platform's geometry.
    ///
    /// # Errors
    ///
    /// Configuration errors for out-of-range or empty port scopes.
    pub fn scoped_ports(&self, platform: &Platform) -> Result<Vec<PortId>, ExperimentError> {
        let ports = self.config.scope.ports(platform.geometry().total_pcs())?;
        if ports.is_empty() {
            return Err(ExperimentError::config(
                "scope selects no ports on this geometry",
            ));
        }
        Ok(ports)
    }

    /// Bits checked per run per pattern over `ports` — the fault-rate
    /// denominator of the reports.
    #[must_use]
    pub fn checked_bits_per_run(&self, platform: &Platform, ports: &[PortId]) -> u64 {
        let geometry = platform.geometry();
        let words = self
            .config
            .words_per_pc
            .map_or(geometry.words_per_pc(), |w| w.min(geometry.words_per_pc()));
        words * 256 * ports.len() as u64
    }

    /// Runs one voltage point of the sweep over `ports` and returns its
    /// measurements. This is the unit of work the [`SweepSupervisor`]
    /// checkpoints, retries and deadlines.
    ///
    /// A crash *below* the platform's crash floor is the expected cliff
    /// behaviour: the point comes back with `crashed: true` and the
    /// platform is recovered (power-cycled to nominal) before returning.
    /// A crash *at or above* the floor can only be a transient failure, so
    /// it is returned as a [`DeviceError::Crashed`] error for the caller to
    /// retry — the platform is left crashed until someone power-cycles it.
    ///
    /// [`SweepSupervisor`]: crate::SweepSupervisor
    ///
    /// # Errors
    ///
    /// PMBus errors, unexpected device errors, and transient crashes as
    /// described above.
    pub fn run_point(
        &self,
        platform: &mut Platform,
        ports: &[PortId],
        voltage: Millivolts,
    ) -> Result<VoltagePoint, ExperimentError> {
        self.run_point_observed(platform, ports, voltage, Telemetry::disabled())
    }

    /// [`ReliabilityTester::run_point`] with telemetry: threads the hub into
    /// the engine (which emits the per-port
    /// [`WorkerShardDone`](TelemetryEvent::WorkerShardDone) events) and adds
    /// the point's scanned words/masks to the counter registry. Point
    /// lifecycle events are the *caller's* to emit — the supervisor knows
    /// the attempt number and the clock; this method does not.
    ///
    /// # Errors
    ///
    /// See [`ReliabilityTester::run_point`].
    pub fn run_point_observed(
        &self,
        platform: &mut Platform,
        ports: &[PortId],
        voltage: Millivolts,
        telemetry: &Telemetry,
    ) -> Result<VoltagePoint, ExperimentError> {
        let geometry = platform.geometry();
        let words = self
            .config
            .words_per_pc
            .map_or(geometry.words_per_pc(), |w| w.min(geometry.words_per_pc()));

        platform.set_voltage(voltage)?;
        if platform.is_crashed() {
            if voltage >= platform.v_crash() {
                return Err(ExperimentError::from(DeviceError::Crashed));
            }
            platform.power_cycle(Millivolts(1200))?;
            platform.set_voltage(Millivolts(1200))?;
            return Ok(VoltagePoint {
                voltage,
                crashed: true,
                outcomes: Vec::new(),
                words_per_second: None,
                masks_per_second: None,
            });
        }

        let started = Instant::now();
        let (outcomes, work) = match self.config.mode {
            ExecutionMode::CachedMasks => {
                self.run_point_cached(platform, ports, words, voltage, telemetry)?
            }
            ExecutionMode::Traffic => self.run_point_traffic(platform, ports, words, telemetry)?,
        };
        let elapsed = started.elapsed().as_secs_f64().max(f64::MIN_POSITIVE);
        telemetry.metrics().add_words_scanned(work.words);
        telemetry.metrics().add_masks_scanned(work.masks);
        Ok(VoltagePoint {
            voltage,
            crashed: false,
            outcomes,
            words_per_second: rate(work.words, elapsed),
            masks_per_second: rate(work.masks, elapsed),
        })
    }

    /// The traffic path: the historical per-pass write/read-back loops.
    fn run_point_traffic(
        &self,
        platform: &mut Platform,
        ports: &[PortId],
        words: u64,
        telemetry: &Telemetry,
    ) -> Result<(Vec<PatternOutcome>, PointWork), ExperimentError> {
        let mut work = PointWork::default();
        let mut outcomes = Vec::with_capacity(self.config.patterns.len());
        for &pattern in &self.config.patterns {
            outcomes.push(self.run_pattern(platform, ports, words, pattern, &mut work, telemetry)?);
        }
        Ok((outcomes, work))
    }

    /// The cached-mask fast path: each port's per-pattern pass statistics
    /// come from its descent rows ([`engine::build_mask_sets_descended`])
    /// and are replayed across all `batch_size` passes. The first point
    /// that needs a port descends it over this voltage and every lower one
    /// of the sweep, and is charged the descent's words. The model's
    /// faults are deterministic at a fixed voltage, so every pass of the
    /// traffic path would observe identical counts — the replay is exact,
    /// not an approximation (asserted by `cached_and_traffic_modes_agree`).
    fn run_point_cached(
        &self,
        platform: &mut Platform,
        ports: &[PortId],
        words: u64,
        voltage: Millivolts,
        telemetry: &Telemetry,
    ) -> Result<(Vec<PatternOutcome>, PointWork), ExperimentError> {
        let schedule: Vec<Millivolts> = std::iter::once(voltage)
            .chain(self.config.sweep.iter().filter(|&v| v < voltage))
            .collect();
        let (mask_sets, masks) = engine::build_mask_sets_descended(
            platform,
            ports,
            words,
            &schedule,
            &self.config.patterns,
            telemetry,
        )?;
        let mut work = PointWork { words: 0, masks };
        let outcomes = self.fold_mask_outcomes(&mask_sets, &mut work);
        Ok((outcomes, work))
    }

    /// Replays a point's per-port sets across every pattern and all
    /// `batch_size` passes as pure arithmetic, accumulating the logical
    /// word transactions into `work`. Equal sets give equal outcomes.
    fn fold_mask_outcomes(
        &self,
        mask_sets: &[engine::PortMasks],
        work: &mut PointWork,
    ) -> Vec<PatternOutcome> {
        let mut outcomes = Vec::with_capacity(self.config.patterns.len());
        for &pattern in &self.config.patterns {
            let mut per_port = Vec::with_capacity(mask_sets.len());
            let mut total = 0u64;
            for set in mask_sets {
                let stats = set.stats_for(pattern);
                work.words +=
                    (stats.words_written + stats.words_read) * self.config.batch_size as u64;
                total += stats.total_flips();
                per_port.push((set.port().as_u8(), stats));
            }
            // Every pass sees the same deterministic count.
            let run_totals = vec![total; self.config.batch_size];
            let summary = BatchSummary::of(&run_totals);
            let (flips_1to0, flips_0to1) = per_port.iter().fold((0, 0), |(a, b), (_, s)| {
                (a + s.flips_1to0, b + s.flips_0to1)
            });
            outcomes.push(PatternOutcome {
                pattern,
                mean_fault_count: summary.mean,
                batch_min: summary.min,
                batch_max: summary.max,
                flips_1to0,
                flips_0to1,
                per_port,
            });
        }
        outcomes
    }

    fn run_pattern(
        &self,
        platform: &mut Platform,
        ports: &[PortId],
        words: u64,
        pattern: DataPattern,
        work: &mut PointWork,
        telemetry: &Telemetry,
    ) -> Result<PatternOutcome, ExperimentError> {
        let jobs: Vec<(PortId, MacroProgram)> = ports
            .iter()
            .map(|&port| (port, MacroProgram::write_then_check(0..words, pattern)))
            .collect();
        let mut run_totals = Vec::with_capacity(self.config.batch_size);
        let mut last_run: Vec<(u8, PortStats)> = Vec::new();

        for _ in 0..self.config.batch_size {
            // The paper's reset_axi_ports().
            platform.device_mut().reset_stats();
            let results = engine::run_jobs(platform, &jobs, telemetry)?;
            let mut per_port = Vec::with_capacity(results.len());
            let mut total = 0u64;
            for (port, stats) in results {
                work.words += stats.words_written + stats.words_read;
                work.masks += stats.words_read;
                total += stats.total_flips();
                per_port.push((port.as_u8(), stats));
            }
            run_totals.push(total);
            last_run = per_port;
        }

        let summary = BatchSummary::of(&run_totals);
        let (flips_1to0, flips_0to1) = last_run.iter().fold((0, 0), |(a, b), (_, s)| {
            (a + s.flips_1to0, b + s.flips_0to1)
        });
        debug_assert!(
            !platform.is_crashed(),
            "tester only runs at operational voltages"
        );
        Ok(PatternOutcome {
            pattern,
            mean_fault_count: summary.mean,
            batch_min: summary.min,
            batch_max: summary.max,
            flips_1to0,
            flips_0to1,
            per_port: last_run,
        })
    }
}

/// Logical work performed at one voltage point, for throughput reporting.
#[derive(Debug, Default, Clone, Copy)]
struct PointWork {
    /// Word transactions exercised: writes plus read-checks, summed over
    /// all batch passes and patterns.
    words: u64,
    /// Stuck-at mask evaluations performed by the fault kernel.
    masks: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbm_device::Word256;

    fn platform() -> Platform {
        Platform::builder().seed(7).build()
    }

    fn quick_tester() -> ReliabilityTester {
        ReliabilityTester::new(ReliabilityConfig::quick()).unwrap()
    }

    #[test]
    fn config_validation() {
        let mut c = ReliabilityConfig::quick();
        c.batch_size = 0;
        assert!(ReliabilityTester::new(c).is_err());

        let mut c = ReliabilityConfig::quick();
        c.batch_size = MAX_BATCH_SIZE;
        assert!(ReliabilityTester::new(c.clone()).is_ok());
        for oversized in [MAX_BATCH_SIZE + 1, 1 << 40, usize::MAX] {
            c.batch_size = oversized;
            let err = ReliabilityTester::new(c.clone()).unwrap_err();
            assert!(matches!(err, ExperimentError::Config { .. }), "{err}");
        }

        let mut c = ReliabilityConfig::quick();
        c.patterns.clear();
        assert!(ReliabilityTester::new(c).is_err());

        let mut c = ReliabilityConfig::quick();
        c.scope = TestScope::Ports(vec![]);
        assert!(ReliabilityTester::new(c).is_err());
    }

    /// The sweep rescanned point by point from every word's masks
    /// ([`engine::build_mask_sets`]), the oracle of the descent rows. The
    /// grids it is used on stay above the crash cliff.
    fn rescan_points(tester: &ReliabilityTester) -> Vec<VoltagePoint> {
        let platform = platform();
        let ports = tester.scoped_ports(&platform).unwrap();
        let config = tester.config();
        let kernel = platform.injector().kernel(hbm_faults::KernelBackend::Auto);
        let words = config.words_per_pc.unwrap();
        config
            .sweep
            .iter()
            .map(|voltage| {
                let sets =
                    engine::build_mask_sets(&ports, words, voltage, kernel, &config.patterns);
                VoltagePoint {
                    voltage,
                    crashed: false,
                    outcomes: tester.fold_mask_outcomes(&sets, &mut PointWork::default()),
                    words_per_second: None,
                    masks_per_second: None,
                }
            })
            .collect()
    }

    #[test]
    fn descent_sweep_matches_from_scratch_rescans() {
        let mut config = ReliabilityConfig::quick();
        config.scope = TestScope::Ports(vec![0, 1, 2, 3]);
        // Offset-dependent patterns exercise the per-pattern descent fold.
        config.patterns = vec![
            DataPattern::AllOnes,
            DataPattern::AllZeros,
            DataPattern::Checkerboard,
            DataPattern::InverseCheckerboard,
            DataPattern::WalkingOnes,
            DataPattern::Prbs { seed: 0x5eed },
            DataPattern::AddressAsData,
            DataPattern::Custom(Word256([
                0x9e37_79b9_7f4a_7c15,
                0xbf58_476d_1ce4_e5b9,
                0x94d0_49bb_1331_11eb,
                0x2545_f491_4f6c_dd1d,
            ])),
            // Written word by word, though it writes what `AllOnes` does.
            DataPattern::Custom(Word256::ONES),
        ];
        let tester = ReliabilityTester::new(config).unwrap();

        let descended = tester.run(&mut platform()).unwrap();
        // Full per-point equality, including per-port statistics: every
        // point read from the descent rows must be bit-identical to
        // folding every word's masks from scratch.
        assert_eq!(descended.points, rescan_points(&tester));
        assert!(descended.points.iter().all(|p| !p.crashed));
        // The first point runs the descents; the others only read rows.
        let masks: Vec<f64> = descended
            .points
            .iter()
            .map(|p| p.masks_per_second.unwrap())
            .collect();
        assert!(masks[0] > 0.0, "the first point descends every port");
        assert!(masks[1..].iter().all(|&m| m == 0.0), "{masks:?}");
    }

    #[test]
    fn out_of_range_port_scope_names_the_bad_id() {
        let mut config = ReliabilityConfig::quick();
        config.scope = TestScope::Ports(vec![0, 40]);
        let err = ReliabilityTester::new(config)
            .unwrap()
            .run(&mut platform())
            .unwrap_err();
        let message = err.to_string();
        assert!(message.contains("40"), "must name the bad id: {message}");
        assert!(
            message.contains("0..32"),
            "must name the valid range: {message}"
        );
    }

    #[test]
    fn cached_and_traffic_modes_agree() {
        let mut config = ReliabilityConfig::quick();
        config.mode = ExecutionMode::Traffic;
        let traffic = ReliabilityTester::new(config.clone())
            .unwrap()
            .run(&mut platform())
            .unwrap();
        config.mode = ExecutionMode::CachedMasks;
        let cached = ReliabilityTester::new(config)
            .unwrap()
            .run(&mut platform())
            .unwrap();
        assert_eq!(traffic.checked_bits_per_run, cached.checked_bits_per_run);
        // The cached run reads every point after the first from its
        // descent rows.
        assert!(cached.points[1..]
            .iter()
            .all(|p| p.masks_per_second == Some(0.0)));
        // Full equality per point, including per-port statistics — the
        // descent rows must be bit-identical to reading every word back
        // through the fault model, pass by pass.
        assert_eq!(traffic.points, cached.points);
    }

    #[test]
    fn throughput_rates_are_reported_and_ignored_by_equality() {
        let report = quick_tester().run(&mut platform()).unwrap();
        for point in &report.points {
            assert!(!point.crashed);
            assert!(
                point.words_per_second.unwrap() > 0.0,
                "at {}",
                point.voltage
            );
            // Only the first point descends; the rest read its rows.
            assert!(point.masks_per_second.is_some(), "at {}", point.voltage);
        }
        assert!(report.points[0].masks_per_second.unwrap() > 0.0);
        let mut scaled = report.points[0].clone();
        let original = scaled.clone();
        scaled.words_per_second = scaled.words_per_second.map(|r| r * 2.0);
        scaled.masks_per_second = None;
        assert_eq!(scaled, original, "throughput must not affect equality");
    }

    #[test]
    fn crashed_points_report_no_throughput() {
        // Regression: crashed points used to report `words_per_second: 0.0`,
        // which every renderer then displayed as a real measurement.
        let mut config = ReliabilityConfig::quick();
        config.sweep = VoltageSweep::new(Millivolts(820), Millivolts(800), Millivolts(10)).unwrap();
        config.batch_size = 1;
        config.words_per_pc = Some(16);
        let report = ReliabilityTester::new(config)
            .unwrap()
            .run(&mut platform())
            .unwrap();
        let crashed = report.at(Millivolts(800)).unwrap();
        assert!(crashed.crashed);
        assert_eq!(crashed.words_per_second, None);
        assert_eq!(crashed.masks_per_second, None);
        let live = report.at(Millivolts(820)).unwrap();
        assert!(live.words_per_second.is_some());
    }

    #[test]
    fn non_finite_rates_are_excluded() {
        assert_eq!(super::rate(10, 0.0), None, "infinite rate is not data");
        assert_eq!(super::rate(0, 0.0), None, "NaN rate is not data");
        assert_eq!(super::rate(10, 2.0), Some(5.0));
    }

    #[test]
    fn guardband_shows_no_faults() {
        let mut config = ReliabilityConfig::quick();
        config.sweep =
            VoltageSweep::new(Millivolts(1200), Millivolts(980), Millivolts(110)).unwrap();
        let report = ReliabilityTester::new(config)
            .unwrap()
            .run(&mut platform())
            .unwrap();
        for point in &report.points {
            assert!(!point.crashed);
            assert_eq!(
                point.total_mean_faults(),
                0.0,
                "faults at {}",
                point.voltage
            );
        }
    }

    #[test]
    fn fault_counts_grow_as_voltage_drops() {
        let report = quick_tester().run(&mut platform()).unwrap();
        let totals: Vec<f64> = report
            .points
            .iter()
            .filter(|p| !p.crashed)
            .map(VoltagePoint::total_mean_faults)
            .collect();
        assert!(
            totals.windows(2).all(|w| w[0] <= w[1]),
            "non-monotone: {totals:?}"
        );
        // Saturation at the bottom: both patterns show mass flips.
        let last = report.points.last().unwrap();
        assert_eq!(last.voltage, Millivolts(810));
        assert!(last.total_mean_faults() > 0.9 * report.checked_bits_per_run as f64);
    }

    #[test]
    fn polarity_separation_by_pattern() {
        let report = quick_tester().run(&mut platform()).unwrap();
        for point in report.points.iter().filter(|p| !p.crashed) {
            if let Some(ones) = point.outcome(DataPattern::AllOnes) {
                assert_eq!(ones.flips_0to1, 0, "all-1s shows only 1→0 flips");
            }
            if let Some(zeros) = point.outcome(DataPattern::AllZeros) {
                assert_eq!(zeros.flips_1to0, 0, "all-0s shows only 0→1 flips");
            }
        }
    }

    #[test]
    fn batches_are_deterministic_in_the_model() {
        // Stuck-at faults are deterministic, so every run in a batch sees
        // the same count: min == max.
        let report = quick_tester().run(&mut platform()).unwrap();
        for point in report.points.iter().filter(|p| !p.crashed) {
            for outcome in &point.outcomes {
                assert_eq!(outcome.batch_min, outcome.batch_max);
            }
        }
    }

    #[test]
    fn single_pc_scope_checks_one_port() {
        let mut config = ReliabilityConfig::quick();
        config.scope = TestScope::SinglePc(PcIndex::new(5).unwrap());
        config.batch_size = 1;
        let report = ReliabilityTester::new(config)
            .unwrap()
            .run(&mut platform())
            .unwrap();
        assert_eq!(report.checked_bits_per_run, 512 * 256);
        let point = report.at(Millivolts(850)).unwrap();
        for outcome in &point.outcomes {
            assert_eq!(outcome.per_port.len(), 1);
            assert_eq!(outcome.per_port[0].0, 5);
        }
    }

    #[test]
    fn sweep_below_critical_records_crash_and_recovers() {
        let mut config = ReliabilityConfig::quick();
        config.sweep = VoltageSweep::new(Millivolts(820), Millivolts(790), Millivolts(10)).unwrap();
        config.batch_size = 1;
        config.words_per_pc = Some(16);
        let mut p = platform();
        let report = ReliabilityTester::new(config).unwrap().run(&mut p).unwrap();
        assert!(!report.at(Millivolts(820)).unwrap().crashed);
        assert!(!report.at(Millivolts(810)).unwrap().crashed);
        assert!(report.at(Millivolts(800)).unwrap().crashed);
        assert!(report.at(Millivolts(790)).unwrap().crashed);
        assert_eq!(report.crash_voltage(), Some(Millivolts(800)));
        // The tester recovered the platform by power cycling.
        assert!(!p.is_crashed());
    }

    #[test]
    fn first_fault_voltage_ordering() {
        // At the reduced geometry the absolute onset sits lower than the
        // paper's 0.97 V (fewer bits), but the 1→0 onset must not trail the
        // 0→1 onset.
        let mut config = ReliabilityConfig::quick();
        config.sweep = VoltageSweep::new(Millivolts(970), Millivolts(850), Millivolts(10)).unwrap();
        config.batch_size = 1;
        config.words_per_pc = Some(2048);
        let report = ReliabilityTester::new(config)
            .unwrap()
            .run(&mut platform())
            .unwrap();
        let v10 = report.first_fault_voltage(DataPattern::AllOnes);
        let v01 = report.first_fault_voltage(DataPattern::AllZeros);
        assert!(v10.is_some(), "1→0 flips must appear in the unsafe region");
        assert!(
            v10 >= v01,
            "1→0 onset {v10:?} must not trail 0→1 onset {v01:?}"
        );
    }

    #[test]
    fn checkerboard_rate_is_the_mean_of_the_uniform_rates() {
        // Under stuck-at faults a checkerboard exposes half of each
        // polarity population, so its rate sits between (≈ the mean of)
        // the two uniform patterns' rates.
        let mut config = ReliabilityConfig::quick();
        config.sweep = VoltageSweep::new(Millivolts(860), Millivolts(860), Millivolts(10)).unwrap();
        config.batch_size = 1;
        config.patterns = vec![
            DataPattern::AllOnes,
            DataPattern::AllZeros,
            DataPattern::Checkerboard,
        ];
        config.words_per_pc = Some(2048);
        let report = ReliabilityTester::new(config)
            .unwrap()
            .run(&mut platform())
            .unwrap();
        let v = Millivolts(860);
        let ones = report.fault_rate(v, DataPattern::AllOnes).unwrap().as_f64();
        let zeros = report
            .fault_rate(v, DataPattern::AllZeros)
            .unwrap()
            .as_f64();
        let cb = report
            .fault_rate(v, DataPattern::Checkerboard)
            .unwrap()
            .as_f64();
        let mean = (ones + zeros) / 2.0;
        assert!(
            (cb / mean - 1.0).abs() < 0.1,
            "checkerboard {cb:e} vs mean {mean:e}"
        );
        assert!(cb >= ones.min(zeros) && cb <= ones.max(zeros));
    }

    #[test]
    fn report_lookup_helpers() {
        let report = quick_tester().run(&mut platform()).unwrap();
        assert!(report.at(Millivolts(970)).is_some());
        assert!(report.at(Millivolts(999)).is_none());
        let rate = report
            .fault_rate(Millivolts(810), DataPattern::AllZeros)
            .unwrap();
        assert!(rate.as_f64() > 0.4, "saturated 0→1 rate {rate:?}");
        assert!(report
            .fault_rate(Millivolts(810), DataPattern::Checkerboard)
            .is_none());
    }
}
