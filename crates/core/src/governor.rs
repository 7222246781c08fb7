//! A closed-loop undervolting governor.
//!
//! The paper's user-level implication (§III-C) is that applications can
//! pick an operating voltage from the fault map. This extension closes the
//! loop at run time instead: the governor steps the supply down while a
//! *canary* probe (a write/read-back pass over a small region of every
//! pseudo channel) stays clean, then backs off one safety margin — the
//! standard canary-based voltage-scaling pattern from the undervolting
//! literature, implemented against this workspace's platform.
//!
//! # Workload-aware descent
//!
//! Bit flips are not the only thing undervolting costs: below the timing
//! knee the stretched tRCD/tCL inflate access latency and shave delivered
//! bandwidth (see [`TimingStretchModel`](hbm_device::TimingStretchModel)),
//! *before* the first flip appears. The governor therefore accepts a
//! [`WorkloadMode`] plus optional timing constraints — a latency budget in
//! nanoseconds and/or a delivered-bandwidth target in GB/s — and treats a
//! constraint violation exactly like a canary trip. A latency-sensitive
//! workload with a tight budget settles at a *higher* voltage than a
//! throughput workload that only cares about flips, which is the
//! voltage–latency–reliability trade-off in closed-loop form.

use hbm_device::{AccessPattern, HbmGeometry};
use hbm_traffic::{DataPattern, MacroProgram, TrafficGenerator};
use hbm_units::{Millivolts, Ratio};
use serde::{Deserialize, Serialize};

use crate::error::ExperimentError;
use crate::platform::Platform;
use crate::telemetry::Telemetry;

/// The workload class a governor descent optimizes for: it selects the
/// access pattern whose latency and delivered bandwidth the timing
/// constraints are evaluated against.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum WorkloadMode {
    /// Streaming workloads: sequential access, row-hit latency, bandwidth
    /// dominated by refresh overhead. The default.
    #[default]
    Throughput,
    /// Latency-sensitive workloads: random single-word access paying the
    /// full activate-plus-CAS path on every request.
    Latency,
}

impl WorkloadMode {
    /// The access pattern this mode's constraints are evaluated under.
    #[must_use]
    pub fn pattern(self) -> AccessPattern {
        match self {
            WorkloadMode::Throughput => AccessPattern::SequentialStream,
            WorkloadMode::Latency => AccessPattern::RandomWord,
        }
    }

    /// The CLI token (`"throughput"` / `"latency"`).
    #[must_use]
    pub fn as_token(self) -> &'static str {
        match self {
            WorkloadMode::Throughput => "throughput",
            WorkloadMode::Latency => "latency",
        }
    }

    /// Parses a CLI token.
    #[must_use]
    pub fn from_token(token: &str) -> Option<Self> {
        match token {
            "throughput" => Some(WorkloadMode::Throughput),
            "latency" => Some(WorkloadMode::Latency),
            _ => None,
        }
    }
}

/// Why a descent stopped before its floor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TripReason {
    /// The canary write/read-back pass observed bit flips.
    BitFlips,
    /// The device crashed (should be prevented by the floor).
    Crash,
    /// Access latency under the workload pattern exceeded
    /// [`GovernorConfig::latency_budget_ns`].
    LatencyBudget,
    /// Delivered bandwidth under the workload pattern fell below
    /// [`GovernorConfig::bandwidth_target_gbps`].
    BandwidthTarget,
}

impl TripReason {
    /// A stable lowercase token for reports and CSV cells.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            TripReason::BitFlips => "bit-flips",
            TripReason::Crash => "crash",
            TripReason::LatencyBudget => "latency-budget",
            TripReason::BandwidthTarget => "bandwidth-target",
        }
    }
}

/// Configuration of the governor.
///
/// The four original knobs shape the descent itself (step, canary size,
/// floor, margin); the workload fields decide *what else* can trip it.
/// With both timing constraints `None` the governor behaves exactly like
/// the flip-only canary governor.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GovernorConfig {
    /// Voltage step per iteration. The last step is shortened so the floor
    /// itself is always probed even when `step` does not divide the span.
    pub step: Millivolts,
    /// Words probed per pseudo channel per canary pass.
    pub canary_words: u64,
    /// Hard floor the governor never crosses (stay above V_critical).
    pub floor: Millivolts,
    /// Safety margin added back on top of the last clean voltage. The
    /// settled point never exceeds the voltage the descent started from.
    pub margin: Millivolts,
    /// The workload whose access pattern the timing constraints below are
    /// evaluated under.
    pub workload: WorkloadMode,
    /// Trip when one access under the workload pattern exceeds this many
    /// nanoseconds (`None` = latency-blind).
    pub latency_budget_ns: Option<f64>,
    /// Trip when delivered bandwidth under the workload pattern falls
    /// below this many GB/s (`None` = bandwidth-blind).
    pub bandwidth_target_gbps: Option<f64>,
}

impl Default for GovernorConfig {
    fn default() -> Self {
        GovernorConfig {
            step: Millivolts(10),
            canary_words: 512,
            floor: Millivolts(840),
            margin: Millivolts(10),
            workload: WorkloadMode::Throughput,
            latency_budget_ns: None,
            bandwidth_target_gbps: None,
        }
    }
}

impl GovernorConfig {
    /// Checks the knobs that shape the descent against the device
    /// `geometry`, before any voltage moves.
    ///
    /// # Errors
    ///
    /// A configuration error when `step` is zero (the descent would never
    /// move), `canary_words` is not in `1..=` the geometry's words per
    /// pseudo channel (an empty canary sees nothing; a longer one runs off
    /// the pseudo channel), a latency budget is not a finite number above
    /// 0 ns, or a bandwidth target is not a finite number at or above
    /// 0 GB/s (a NaN compares false, so it would drop the constraint
    /// without a word).
    pub fn validate(&self, geometry: HbmGeometry) -> Result<(), ExperimentError> {
        if self.step == Millivolts(0) {
            return Err(ExperimentError::config("governor step must be above 0 mV"));
        }
        let words = geometry.words_per_pc();
        if !(1..=words).contains(&self.canary_words) {
            return Err(ExperimentError::config(format!(
                "canary words must be in 1..={words} (the words of a pseudo channel), not {}",
                self.canary_words
            )));
        }
        if let Some(budget) = self
            .latency_budget_ns
            .filter(|b| !(b.is_finite() && *b > 0.0))
        {
            return Err(ExperimentError::config(format!(
                "latency budget must be a finite number of ns above 0, not {budget}"
            )));
        }
        if let Some(target) = self
            .bandwidth_target_gbps
            .filter(|t| !(t.is_finite() && *t >= 0.0))
        {
            return Err(ExperimentError::config(format!(
                "bandwidth target must be a finite number of GB/s at or above 0, not {target}"
            )));
        }
        Ok(())
    }
}

/// The governor's verdict.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GovernorOutcome {
    /// The operating voltage the governor settled on.
    pub settled: Millivolts,
    /// The lowest voltage that satisfied every constraint (clean canary,
    /// latency budget, bandwidth target).
    pub lowest_clean: Millivolts,
    /// The first voltage that violated a constraint, if the descent got
    /// that far.
    pub tripped_at: Option<Millivolts>,
    /// Which constraint stopped the descent (`None` = floor reached).
    pub trip_reason: Option<TripReason>,
    /// Total canary bit flips observed during the descent.
    pub canary_flips: u64,
    /// Delivered bandwidth at the settled voltage under the workload
    /// pattern, in GB/s.
    pub delivered_gbps: f64,
    /// Access latency at the settled voltage under the workload pattern,
    /// in nanoseconds.
    pub access_latency_ns: f64,
}

/// Closed-loop undervolting: descend until the canary trips or a timing
/// constraint is violated, back off by the margin, and leave the platform
/// at the settled voltage.
///
/// # Examples
///
/// ```
/// use hbm_undervolt::{Platform, UndervoltGovernor};
/// use hbm_units::Millivolts;
///
/// # fn main() -> Result<(), hbm_undervolt::ExperimentError> {
/// let mut platform = Platform::builder().seed(7).build();
/// let outcome = UndervoltGovernor::default().run(&mut platform)?;
/// // Settles safely below nominal but above the crash floor.
/// assert!(outcome.settled < Millivolts(1200));
/// assert!(outcome.settled >= Millivolts(840));
/// assert_eq!(platform.voltage(), outcome.settled);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct UndervoltGovernor {
    config: GovernorConfig,
}

impl UndervoltGovernor {
    /// Creates a governor with an explicit configuration.
    #[must_use]
    pub fn new(config: GovernorConfig) -> Self {
        UndervoltGovernor { config }
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> GovernorConfig {
        self.config
    }

    /// Runs the descent from the platform's present voltage. On return the
    /// platform operates at [`GovernorOutcome::settled`].
    ///
    /// # Errors
    ///
    /// A configuration error when [`GovernorConfig::validate`] refuses the
    /// configuration for the platform's geometry; otherwise propagates
    /// PMBus/device errors from the probes. A canary trip is the expected
    /// terminal condition, not an error.
    pub fn run(&self, platform: &mut Platform) -> Result<GovernorOutcome, ExperimentError> {
        self.run_observed(platform, Telemetry::disabled())
    }

    /// [`run`](Self::run) with telemetry: canary passes and trips are
    /// folded into the hub's [`Metrics`](crate::telemetry::Metrics)
    /// registry (`canary_passes`, `governor_flip_trips`,
    /// `governor_timing_trips`).
    ///
    /// # Errors
    ///
    /// Same as [`run`](Self::run).
    pub fn run_observed(
        &self,
        platform: &mut Platform,
        telemetry: &Telemetry,
    ) -> Result<GovernorOutcome, ExperimentError> {
        self.config.validate(platform.geometry())?;
        let start = platform.voltage();
        let pattern = self.config.workload.pattern();
        let mut lowest_clean = start;
        let mut tripped_at = None;
        let mut trip_reason = None;
        let mut canary_flips = 0u64;

        let mut v = start;
        while v > self.config.floor {
            // Shorten the last step so the floor itself is probed even when
            // the step does not divide `start − floor`.
            let next = v.saturating_sub(self.config.step).max(self.config.floor);
            platform.set_voltage(next)?;
            if platform.is_crashed() {
                // Defensive: floor should prevent this, but recover anyway.
                platform.power_cycle(lowest_clean)?;
                tripped_at = Some(next);
                trip_reason = Some(TripReason::Crash);
                break;
            }
            // Timing constraints are pure functions of the rail — check
            // them before paying for a canary pass over every port.
            if let Some(budget) = self.config.latency_budget_ns {
                if platform.access_latency_ns(pattern) > budget {
                    tripped_at = Some(next);
                    trip_reason = Some(TripReason::LatencyBudget);
                    break;
                }
            }
            if let Some(target) = self.config.bandwidth_target_gbps {
                if platform.delivered_bandwidth(pattern).as_f64() < target {
                    tripped_at = Some(next);
                    trip_reason = Some(TripReason::BandwidthTarget);
                    break;
                }
            }
            let flips = self.canary_pass(platform)?;
            telemetry.metrics().add_canary_passes(1);
            if flips > 0 {
                canary_flips += flips;
                tripped_at = Some(next);
                trip_reason = Some(TripReason::BitFlips);
                break;
            }
            lowest_clean = next;
            v = next;
        }
        match trip_reason {
            Some(TripReason::BitFlips) => telemetry.metrics().add_governor_flip_trips(1),
            Some(TripReason::LatencyBudget | TripReason::BandwidthTarget) => {
                telemetry.metrics().add_governor_timing_trips(1);
            }
            Some(TripReason::Crash) | None => {}
        }

        // Back off one margin, but never above the voltage the descent
        // started from — a first-step trip must not "settle" the platform
        // *above* its own starting point.
        let settled = (lowest_clean + self.config.margin).min(start);
        platform.set_voltage(settled)?;
        Ok(GovernorOutcome {
            settled,
            lowest_clean,
            tripped_at,
            trip_reason,
            canary_flips,
            delivered_gbps: platform.delivered_bandwidth(pattern).as_f64(),
            access_latency_ns: platform.access_latency_ns(pattern),
        })
    }

    /// One canary pass: both uniform patterns over the canary region of
    /// every enabled port. Returns total observed flips.
    fn canary_pass(&self, platform: &mut Platform) -> Result<u64, ExperimentError> {
        let ids: Vec<_> = platform.device().ports().enabled_ids().collect();
        let mut flips = 0u64;
        for pattern in [DataPattern::AllOnes, DataPattern::AllZeros] {
            let program = MacroProgram::write_then_check(0..self.config.canary_words, pattern);
            for &port in &ids {
                let mut tg = TrafficGenerator::new(port);
                let stats = tg
                    .run(&program, &mut platform.port(port))
                    .map_err(ExperimentError::from)?;
                flips += stats.total_flips();
            }
        }
        Ok(flips)
    }
}

/// One labelled configuration inside a [`GovernorScenario`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GovernorVariant {
    /// The scenario label ("throughput", "latency", …).
    pub label: String,
    /// The governor configuration this variant descends with.
    pub config: GovernorConfig,
}

/// An experiment that runs several governor configurations from the same
/// starting state and reports where each settles — the closed-loop view
/// of the voltage–latency–reliability trade-off. Each variant starts from
/// a power cycle at the platform's initial voltage, so the rows are
/// mutually independent and deterministic in `(seed, configs)`.
///
/// # Examples
///
/// ```
/// use hbm_undervolt::{Experiment, GovernorConfig, GovernorScenario, Platform};
///
/// # fn main() -> Result<(), hbm_undervolt::ExperimentError> {
/// let mut platform = Platform::builder().seed(7).build();
/// let scenario = GovernorScenario::latency_vs_throughput(GovernorConfig::default(), 33.0);
/// let report = scenario.run(&mut platform)?;
/// // The latency-budgeted descent stops above the throughput one.
/// assert!(report.rows[1].outcome.settled > report.rows[0].outcome.settled);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct GovernorScenario {
    variants: Vec<GovernorVariant>,
}

impl GovernorScenario {
    /// An empty scenario; add variants with
    /// [`with_variant`](Self::with_variant).
    #[must_use]
    pub fn new() -> Self {
        GovernorScenario::default()
    }

    /// Builder-style variant addition.
    #[must_use]
    pub fn with_variant(mut self, label: impl Into<String>, config: GovernorConfig) -> Self {
        self.variants.push(GovernorVariant {
            label: label.into(),
            config,
        });
        self
    }

    /// The canonical two-row scenario: a flip-only throughput descent next
    /// to a latency descent with a budget of `latency_budget_ns`, both
    /// sharing `base`'s step/floor/margin/canary knobs.
    #[must_use]
    pub fn latency_vs_throughput(base: GovernorConfig, latency_budget_ns: f64) -> Self {
        GovernorScenario::new()
            .with_variant(
                "throughput",
                GovernorConfig {
                    workload: WorkloadMode::Throughput,
                    latency_budget_ns: None,
                    ..base
                },
            )
            .with_variant(
                "latency",
                GovernorConfig {
                    workload: WorkloadMode::Latency,
                    latency_budget_ns: Some(latency_budget_ns),
                    ..base
                },
            )
    }

    /// The configured variants.
    #[must_use]
    pub fn variants(&self) -> &[GovernorVariant] {
        &self.variants
    }

    /// Runs every variant, each from a fresh power cycle at the platform's
    /// starting voltage, folding canary/trip counters into `telemetry`.
    /// On return the platform sits at the *last* variant's settled point.
    ///
    /// # Errors
    ///
    /// A configuration error for an empty scenario or, before any
    /// descent, for a variant [`GovernorConfig::validate`] refuses;
    /// otherwise the same errors as [`UndervoltGovernor::run`].
    pub fn run_observed(
        &self,
        platform: &mut Platform,
        telemetry: &Telemetry,
    ) -> Result<GovernorScenarioReport, ExperimentError> {
        if self.variants.is_empty() {
            return Err(ExperimentError::config(
                "governor scenario needs at least one variant",
            ));
        }
        for variant in &self.variants {
            variant.config.validate(platform.geometry())?;
        }
        let start = platform.voltage();
        let mut rows = Vec::with_capacity(self.variants.len());
        for variant in &self.variants {
            platform.power_cycle(start)?;
            let outcome =
                UndervoltGovernor::new(variant.config).run_observed(platform, telemetry)?;
            rows.push(GovernorScenarioRow {
                label: variant.label.clone(),
                workload: variant.config.workload,
                saving_factor: outcome_saving(platform, &outcome),
                outcome,
            });
        }
        Ok(GovernorScenarioReport { rows })
    }

    /// [`run_observed`](Self::run_observed) without telemetry.
    ///
    /// # Errors
    ///
    /// See [`run_observed`](Self::run_observed).
    pub fn run(&self, platform: &mut Platform) -> Result<GovernorScenarioReport, ExperimentError> {
        self.run_observed(platform, Telemetry::disabled())
    }
}

/// One variant's result inside a [`GovernorScenarioReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GovernorScenarioRow {
    /// The variant's label.
    pub label: String,
    /// The workload mode the variant descended under.
    pub workload: WorkloadMode,
    /// Where the descent ended.
    pub outcome: GovernorOutcome,
    /// Estimated full-utilization power saving at the settled point.
    pub saving_factor: f64,
}

/// The report of a [`GovernorScenario`]: one row per variant, in
/// configuration order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GovernorScenarioReport {
    /// Per-variant results.
    pub rows: Vec<GovernorScenarioRow>,
}

/// Estimated power saving of the governor's outcome at full utilization.
#[must_use]
pub fn outcome_saving(platform: &Platform, outcome: &GovernorOutcome) -> f64 {
    platform.power_model().saving_factor(
        outcome.settled,
        Ratio::ONE,
        platform.predictor().device_rate(outcome.settled),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbm_units::Ohms;

    fn platform() -> Platform {
        Platform::builder().seed(7).build()
    }

    #[test]
    fn governor_settles_between_onset_and_floor() {
        let mut p = platform();
        let outcome = UndervoltGovernor::default().run(&mut p).unwrap();
        // It must find real savings (well below nominal) …
        assert!(outcome.settled <= Millivolts(1000), "{:?}", outcome);
        // … while staying above the floor.
        assert!(outcome.settled >= Millivolts(840));
        assert_eq!(p.voltage(), outcome.settled);
        assert!(!p.is_crashed());
        // The settled point sits one margin above the lowest clean voltage.
        assert_eq!(outcome.settled, outcome.lowest_clean + Millivolts(10));
        assert_eq!(outcome.trip_reason, Some(TripReason::BitFlips));
    }

    #[test]
    fn settled_point_is_actually_clean() {
        let mut p = platform();
        let governor = UndervoltGovernor::default();
        let outcome = governor.run(&mut p).unwrap();
        // Re-probing at the settled voltage shows no faults.
        let flips = governor.canary_pass(&mut p).unwrap();
        assert_eq!(flips, 0, "settled at {} but canary trips", outcome.settled);
    }

    #[test]
    fn descent_trips_or_reaches_floor() {
        let mut p = platform();
        let outcome = UndervoltGovernor::default().run(&mut p).unwrap();
        match outcome.tripped_at {
            Some(trip) => {
                assert!(outcome.canary_flips > 0);
                assert_eq!(outcome.lowest_clean, trip + Millivolts(10));
            }
            None => assert!(outcome.lowest_clean < Millivolts(850)),
        }
    }

    #[test]
    fn invalid_configs_are_refused_before_the_descent() {
        let words = platform().geometry().words_per_pc();
        for config in [
            GovernorConfig {
                step: Millivolts(0),
                ..GovernorConfig::default()
            },
            GovernorConfig {
                canary_words: 0,
                ..GovernorConfig::default()
            },
            GovernorConfig {
                canary_words: words + 1,
                ..GovernorConfig::default()
            },
            GovernorConfig {
                canary_words: u64::MAX,
                ..GovernorConfig::default()
            },
            GovernorConfig {
                latency_budget_ns: Some(f64::NAN),
                ..GovernorConfig::default()
            },
            GovernorConfig {
                latency_budget_ns: Some(0.0),
                ..GovernorConfig::default()
            },
            GovernorConfig {
                latency_budget_ns: Some(f64::INFINITY),
                ..GovernorConfig::default()
            },
            GovernorConfig {
                bandwidth_target_gbps: Some(f64::NAN),
                ..GovernorConfig::default()
            },
            GovernorConfig {
                bandwidth_target_gbps: Some(-5.0),
                ..GovernorConfig::default()
            },
        ] {
            let mut p = platform();
            let start = p.voltage();
            let err = UndervoltGovernor::new(config).run(&mut p).unwrap_err();
            assert!(matches!(err, ExperimentError::Config { .. }), "{err:?}");
            assert_eq!(p.voltage(), start, "{config:?} moved the rail");
            // A scenario refuses before its first variant descends.
            let scenario = GovernorScenario::new()
                .with_variant("fine", GovernorConfig::default())
                .with_variant("broken", config);
            let err = scenario.run(&mut p).unwrap_err();
            assert!(matches!(err, ExperimentError::Config { .. }), "{err:?}");
            assert_eq!(p.voltage(), start, "{config:?} moved the rail");
        }
        let whole = GovernorConfig {
            canary_words: words,
            latency_budget_ns: Some(f64::MIN_POSITIVE),
            bandwidth_target_gbps: Some(0.0),
            ..GovernorConfig::default()
        };
        assert_eq!(whole.validate(platform().geometry()), Ok(()));
    }

    #[test]
    fn first_step_trip_settles_at_the_start_not_above_it() {
        // Find the trip voltage, then start a fresh descent one step above
        // it: the very first probe trips, so nothing below the start is
        // clean. The governor used to settle at `start + margin` (clamped
        // only by a hard-coded 1200 mV); it must never exceed the start.
        let trip = UndervoltGovernor::default()
            .run(&mut platform())
            .unwrap()
            .tripped_at
            .expect("seed 7 trips above the floor");
        let mut p = platform();
        let start = trip + GovernorConfig::default().step;
        p.set_voltage(start).unwrap();
        let outcome = UndervoltGovernor::default().run(&mut p).unwrap();
        assert_eq!(outcome.tripped_at, Some(trip), "{outcome:?}");
        assert_eq!(outcome.lowest_clean, start);
        assert_eq!(outcome.settled, start, "settled above the start");
        assert_eq!(p.voltage(), start);
    }

    #[test]
    fn non_dividing_step_still_probes_the_floor() {
        // 1200 → floor 985 with a 40 mV step: 1160, …, 1000, then a final
        // 15 mV partial step must land exactly on the floor (the canary is
        // clean everywhere ≥ 980, so nothing else stops the descent). The
        // old `v >= floor + step` condition stopped at 1000 and reported a
        // lowest_clean pessimistic by step − 1 mV.
        let mut p = platform();
        let governor = UndervoltGovernor::new(GovernorConfig {
            step: Millivolts(40),
            floor: Millivolts(985),
            ..GovernorConfig::default()
        });
        let outcome = governor.run(&mut p).unwrap();
        assert_eq!(outcome.tripped_at, None, "{outcome:?}");
        assert_eq!(outcome.lowest_clean, Millivolts(985));
        assert_eq!(outcome.settled, Millivolts(995));
    }

    #[test]
    fn latency_budget_settles_above_a_throughput_descent() {
        // The acceptance scenario: on the same seed, a latency-sensitive
        // governor with a tight budget must stop (latency trip) well above
        // the flip onset a throughput governor descends to.
        let mut throughput_p = platform();
        let throughput = UndervoltGovernor::default().run(&mut throughput_p).unwrap();

        let mut latency_p = platform();
        let config = GovernorConfig {
            workload: WorkloadMode::Latency,
            latency_budget_ns: Some(33.0),
            ..GovernorConfig::default()
        };
        let latency = UndervoltGovernor::new(config).run(&mut latency_p).unwrap();

        assert!(
            latency.settled > throughput.settled,
            "latency {latency:?} vs throughput {throughput:?}"
        );
        assert_eq!(latency.trip_reason, Some(TripReason::LatencyBudget));
        assert_eq!(latency.canary_flips, 0, "tripped before any flip");
        // The settled point honours the budget (stretch is monotone).
        assert!(latency.access_latency_ns <= 33.0, "{latency:?}");
        // The throughput descent pays for its depth in (random-word)
        // latency, even though its own sequential workload never notices.
        assert!(
            throughput_p.access_latency_ns(AccessPattern::RandomWord)
                > latency_p.access_latency_ns(AccessPattern::RandomWord)
        );
    }

    #[test]
    fn bandwidth_target_trips_before_the_canary() {
        let p = platform();
        let nominal = p
            .delivered_bandwidth(hbm_device::AccessPattern::SequentialStream)
            .as_f64();
        let mut p = p;
        let config = GovernorConfig {
            workload: WorkloadMode::Throughput,
            bandwidth_target_gbps: Some(nominal * 0.995),
            ..GovernorConfig::default()
        };
        let outcome = UndervoltGovernor::new(config).run(&mut p).unwrap();
        assert_eq!(outcome.trip_reason, Some(TripReason::BandwidthTarget));
        assert_eq!(outcome.canary_flips, 0);
        assert!(outcome.delivered_gbps >= nominal * 0.995, "{outcome:?}");

        let baseline = UndervoltGovernor::default().run(&mut platform()).unwrap();
        assert!(outcome.settled > baseline.settled, "{outcome:?}");
    }

    #[test]
    fn observed_run_counts_passes_and_trips() {
        let telemetry = Telemetry::new();
        let mut p = platform();
        UndervoltGovernor::default()
            .run_observed(&mut p, &telemetry)
            .unwrap();
        let snap = telemetry.metrics().snapshot();
        assert!(snap.canary_passes > 10, "{snap:?}");
        assert_eq!(snap.governor_flip_trips, 1);
        assert_eq!(snap.governor_timing_trips, 0);

        let telemetry = Telemetry::new();
        let mut p = platform();
        let config = GovernorConfig {
            workload: WorkloadMode::Latency,
            latency_budget_ns: Some(33.0),
            ..GovernorConfig::default()
        };
        UndervoltGovernor::new(config)
            .run_observed(&mut p, &telemetry)
            .unwrap();
        let snap = telemetry.metrics().snapshot();
        assert_eq!(snap.governor_timing_trips, 1);
        assert_eq!(snap.governor_flip_trips, 0);
    }

    #[test]
    fn droop_makes_the_governor_conservative() {
        // Under load-line droop the canary sees the sagged voltage, so the
        // governor must settle at an equal or higher set-point.
        let mut ideal = platform();
        let ideal_outcome = UndervoltGovernor::default().run(&mut ideal).unwrap();

        let mut droopy = platform();
        droopy.set_load_line(Ohms(0.008));
        // Load the rail so the droop is visible to the device.
        droopy.measure_power(Ratio::ONE).unwrap();
        let droopy_outcome = UndervoltGovernor::default().run(&mut droopy).unwrap();

        assert!(
            droopy_outcome.settled >= ideal_outcome.settled,
            "droop {droopy_outcome:?} vs ideal {ideal_outcome:?}"
        );
    }

    #[test]
    fn saving_estimate_positive() {
        let mut p = platform();
        let outcome = UndervoltGovernor::default().run(&mut p).unwrap();
        let saving = outcome_saving(&p, &outcome);
        assert!(saving > 1.2, "saving {saving}");
    }

    #[test]
    fn workload_tokens_round_trip() {
        for mode in [WorkloadMode::Throughput, WorkloadMode::Latency] {
            assert_eq!(WorkloadMode::from_token(mode.as_token()), Some(mode));
        }
        assert_eq!(WorkloadMode::from_token("balanced"), None);
    }
}
