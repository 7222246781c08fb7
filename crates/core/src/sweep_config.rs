//! One builder for every knob of a sweep campaign.
//!
//! Historically a campaign was assembled from three places: the
//! [`PlatformBuilder`](crate::PlatformBuilder) (seed, workers, crash
//! behaviour), the [`ReliabilityConfig`] struct (sweep, batch, patterns,
//! scope) and — since the resilient runtime — the [`SweepSupervisor`]
//! builder (retries, deadline, checkpoint). [`SweepConfig`] consolidates
//! all of them behind one fluent builder, so `hbmctl`, the examples and
//! the tests configure a whole campaign in one expression and the pieces
//! can never drift apart.

use hbm_device::TransientCrashModel;
use hbm_traffic::DataPattern;
use hbm_units::Millivolts;

use crate::error::ExperimentError;
use crate::platform::Platform;
use crate::reliability::{ExecutionMode, ReliabilityConfig, ReliabilityTester, TestScope};
use crate::supervisor::{RetryPolicy, SupervisedReport, SweepSupervisor, SystemClock};
use crate::sweep::VoltageSweep;
use crate::telemetry::Telemetry;

/// Every knob of a sweep campaign — platform, measurement and resilience —
/// in one builder.
///
/// # Examples
///
/// ```
/// use hbm_undervolt::SweepConfig;
///
/// # fn main() -> Result<(), hbm_undervolt::ExperimentError> {
/// let report = SweepConfig::quick()
///     .seed(7)
///     .retries(2)
///     .run()?;
/// assert!(report.skipped_points().next().is_none());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SweepConfig {
    seed: u64,
    workers: usize,
    v_crash: Option<Millivolts>,
    transient: Option<TransientCrashModel>,
    reliability: ReliabilityConfig,
    retry: RetryPolicy,
    point_deadline_ms: Option<u64>,
    checkpoint: Option<String>,
    resume: bool,
}

impl SweepConfig {
    /// The paper's full campaign ([`ReliabilityConfig::date21`]) with the
    /// default platform (seed 7, one worker) and resilience defaults.
    #[must_use]
    pub fn date21() -> Self {
        SweepConfig::from_reliability(ReliabilityConfig::date21())
    }

    /// The fast test campaign ([`ReliabilityConfig::quick`]).
    #[must_use]
    pub fn quick() -> Self {
        SweepConfig::from_reliability(ReliabilityConfig::quick())
    }

    /// Wraps an existing measurement configuration with default platform
    /// and resilience knobs.
    #[must_use]
    pub fn from_reliability(reliability: ReliabilityConfig) -> Self {
        SweepConfig {
            seed: 7,
            workers: 1,
            v_crash: None,
            transient: None,
            reliability,
            retry: RetryPolicy::default(),
            point_deadline_ms: None,
            checkpoint: None,
            resume: false,
        }
    }

    // ---- platform knobs -------------------------------------------------

    /// Device specimen seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Engine worker threads per voltage point.
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// The crash floor: supplies below this crash the platform (default:
    /// the device's [`hbm_device::CRASH_FLOOR`]).
    #[must_use]
    pub fn v_crash(mut self, v_crash: Millivolts) -> Self {
        self.v_crash = Some(v_crash);
        self
    }

    /// Stochastic transient crashes near the cliff (off by default).
    #[must_use]
    pub fn transient_crashes(mut self, model: TransientCrashModel) -> Self {
        self.transient = Some(model);
        self
    }

    // ---- measurement knobs ----------------------------------------------

    /// The voltage sweep.
    #[must_use]
    pub fn sweep(mut self, sweep: VoltageSweep) -> Self {
        self.reliability.sweep = sweep;
        self
    }

    /// Write/read-back passes per (voltage, pattern).
    #[must_use]
    pub fn batch_size(mut self, batch_size: usize) -> Self {
        self.reliability.batch_size = batch_size;
        self
    }

    /// The data patterns to test.
    #[must_use]
    pub fn patterns(mut self, patterns: Vec<DataPattern>) -> Self {
        self.reliability.patterns = patterns;
        self
    }

    /// The memory scope.
    #[must_use]
    pub fn scope(mut self, scope: TestScope) -> Self {
        self.reliability.scope = scope;
        self
    }

    /// Cap on words tested per pseudo channel (`None` = full array).
    #[must_use]
    pub fn words_per_pc(mut self, words: Option<u64>) -> Self {
        self.reliability.words_per_pc = words;
        self
    }

    /// The execution kernel per voltage point.
    #[must_use]
    pub fn mode(mut self, mode: ExecutionMode) -> Self {
        self.reliability.mode = mode;
        self
    }

    // ---- resilience knobs -----------------------------------------------

    /// The full transient-failure retry policy.
    #[must_use]
    pub fn retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Shorthand: `retries` re-attempts with the default backoff window.
    #[must_use]
    pub fn retries(mut self, retries: u32) -> Self {
        self.retry = RetryPolicy {
            max_retries: retries,
            ..self.retry
        };
        self
    }

    /// Per-point deadline in milliseconds (overruns count as transient
    /// failures).
    #[must_use]
    pub fn point_deadline_ms(mut self, deadline_ms: u64) -> Self {
        self.point_deadline_ms = Some(deadline_ms);
        self
    }

    /// Checkpoint file for the supervisor.
    #[must_use]
    pub fn checkpoint(mut self, path: impl Into<String>) -> Self {
        self.checkpoint = Some(path.into());
        self
    }

    /// Resume from the checkpoint file if it exists.
    #[must_use]
    pub fn resume(mut self, resume: bool) -> Self {
        self.resume = resume;
        self
    }

    // ---- assembly --------------------------------------------------------

    /// The measurement part of the configuration.
    #[must_use]
    pub fn reliability(&self) -> &ReliabilityConfig {
        &self.reliability
    }

    /// Builds the platform this configuration describes.
    #[must_use]
    pub fn build_platform(&self) -> Platform {
        let mut builder = Platform::builder().seed(self.seed).workers(self.workers);
        if let Some(v_crash) = self.v_crash {
            builder = builder.v_crash(v_crash);
        }
        if let Some(transient) = self.transient {
            builder = builder.transient_crashes(transient);
        }
        builder.build()
    }

    /// Builds the bare (unsupervised) tester.
    ///
    /// # Errors
    ///
    /// Configuration errors from [`ReliabilityConfig::validate`].
    pub fn build_tester(&self) -> Result<ReliabilityTester, ExperimentError> {
        ReliabilityTester::new(self.reliability.clone())
    }

    /// Builds the supervised sweep with this configuration's resilience
    /// knobs applied.
    ///
    /// # Errors
    ///
    /// Configuration errors from [`ReliabilityConfig::validate`].
    pub fn build_supervisor(&self) -> Result<SweepSupervisor, ExperimentError> {
        let mut supervisor = SweepSupervisor::new(self.build_tester()?).retry_policy(self.retry);
        if let Some(deadline) = self.point_deadline_ms {
            supervisor = supervisor.point_deadline_ms(deadline);
        }
        if let Some(path) = &self.checkpoint {
            supervisor = supervisor.checkpoint(path.clone());
        }
        Ok(supervisor.resume(self.resume))
    }

    /// Builds the platform and runs the supervised sweep on it — the
    /// one-expression campaign.
    ///
    /// # Errors
    ///
    /// See [`SweepSupervisor::run`].
    pub fn run(&self) -> Result<SupervisedReport, ExperimentError> {
        let mut platform = self.build_platform();
        self.build_supervisor()?.run(&mut platform)
    }

    /// Like [`SweepConfig::run`], but publishing lifecycle events and
    /// counters to `telemetry` as the sweep executes (wall-clock
    /// timestamps from [`SystemClock`]).
    ///
    /// # Errors
    ///
    /// See [`SweepSupervisor::run`].
    pub fn run_observed(&self, telemetry: &Telemetry) -> Result<SupervisedReport, ExperimentError> {
        let mut platform = self.build_platform();
        self.build_supervisor()?
            .run_observed(&mut platform, &mut SystemClock::new(), telemetry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consolidated_builder_matches_manual_assembly() {
        let config = SweepConfig::quick().seed(11).retries(1);
        let mut manual_platform = Platform::builder().seed(11).build();
        let manual = SweepSupervisor::from_config(ReliabilityConfig::quick())
            .unwrap()
            .retry_policy(RetryPolicy::new(1))
            .run(&mut manual_platform)
            .unwrap();
        assert_eq!(config.run().unwrap(), manual);
    }

    #[test]
    fn platform_knobs_reach_the_platform() {
        let config = SweepConfig::quick()
            .seed(3)
            .workers(2)
            .v_crash(Millivolts(900))
            .transient_crashes(TransientCrashModel::new(0.5, Millivolts(40)));
        let platform = config.build_platform();
        assert_eq!(platform.seed(), 3);
        assert_eq!(platform.workers(), 2);
        assert_eq!(platform.v_crash(), Millivolts(900));
    }

    #[test]
    fn resilience_knobs_reach_the_supervisor() {
        let config = SweepConfig::quick()
            .retry_policy(RetryPolicy {
                max_retries: 5,
                base_delay_ms: 1,
                max_delay_ms: 4,
            })
            .point_deadline_ms(250)
            .checkpoint("/tmp/unused.json")
            .resume(true);
        // Building must accept all knobs; the run paths are covered by the
        // supervisor tests.
        config.build_supervisor().unwrap();
        assert_eq!(config.reliability().batch_size, 3);
    }

    #[test]
    fn invalid_measurement_knobs_surface_as_config_errors() {
        let err = SweepConfig::quick()
            .batch_size(0)
            .build_tester()
            .unwrap_err();
        assert!(matches!(err, ExperimentError::Config { .. }));
    }
}
