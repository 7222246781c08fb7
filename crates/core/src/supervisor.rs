//! The crash-aware resilient sweep runtime.
//!
//! Real undervolting campaigns die: the board browns out near the cliff,
//! a transient crash eats an hour-long sweep, a flaky AXI port wedges one
//! pseudo channel. [`SweepSupervisor`] wraps the [`ReliabilityTester`] so a
//! campaign survives all three:
//!
//! - **checkpointing** — every completed [`VoltagePoint`] is written to a
//!   versioned JSON checkpoint (durably: synced temp file + rename + parent
//!   directory sync, with a copy fallback for cross-filesystem targets), so
//!   a killed process resumes exactly where it stopped;
//! - **retry with backoff** — a transient crash (or a blown per-point
//!   deadline) triggers a power cycle and a bounded-exponential wait
//!   ([`RetryPolicy`]) before the point is re-attempted; after the budget
//!   is exhausted the point is recorded as *skipped*, never silently
//!   dropped;
//! - **quarantine** — a port-attributable device error removes that port
//!   from the active set for the rest of the sweep and records why, so one
//!   bad pseudo channel cannot sink the campaign.
//!
//! Resumption is bit-identical: completed points are loaded from the
//! checkpoint and never re-run, and all model randomness is keyed per
//! `(seed, voltage, pseudo channel)` — so a killed-and-resumed sweep
//! produces exactly the report an uninterrupted run would have
//! (enforced by the `resilience` integration tests).

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

use hbm_device::DeviceError;
use hbm_device::PortId;
use hbm_traffic::DataPattern;
use hbm_units::Millivolts;
use serde::{Deserialize, Serialize};

use crate::error::ExperimentError;
use crate::platform::Platform;
use crate::reliability::{ReliabilityConfig, ReliabilityReport, ReliabilityTester, VoltagePoint};
use crate::telemetry::{Telemetry, TelemetryEvent};

/// Version stamp of the checkpoint file format. Bumped on any incompatible
/// change to [`SweepCheckpoint`]; resuming from a different version is
/// refused with a [`ExperimentError::Checkpoint`] error.
///
/// Version history: 1 — the original format; 2 — [`VoltagePoint`]
/// throughput fields became optional (`null` for crashed points instead of
/// a fabricated `0.0`); 3 — [`ReliabilityConfig`] gained the fault field
/// and a carry-forward knob, and [`VoltagePoint`] a mask-reuse ratio; 4 —
/// the checkpoint records the mask-kernel backend so resume can refuse a
/// cross-kernel mix, like the fault field; 5 — the kernel backend and
/// carry-forward knobs are gone from [`ReliabilityConfig`] and the
/// checkpoint (the kernel picks its own path; every path is
/// bit-identical); 6 — the mask-reuse ratio is gone from [`VoltagePoint`]
/// (coupled sweeps read every point from one descent per port); 7 — the
/// fault field is gone from [`ReliabilityConfig`]: the coupled field is the
/// only one, so a version-6 file may hold per-voltage points.
pub const CHECKPOINT_VERSION: u32 = 7;

/// The supply every recovery power cycle restarts at.
const NOMINAL_RESTART: Millivolts = Millivolts(1200);

/// Wall-clock abstraction so retry backoff and per-point deadlines are
/// testable without real sleeps. Production code uses [`SystemClock`];
/// the backoff/deadline tests use [`TestClock`].
pub trait Clock {
    /// Monotonic milliseconds since an arbitrary origin.
    fn now_ms(&mut self) -> u64;

    /// Blocks for `ms` milliseconds.
    fn sleep_ms(&mut self, ms: u64);
}

/// The real wall clock: monotonic [`Instant`] time and thread sleeps.
#[derive(Debug)]
pub struct SystemClock {
    origin: Instant,
}

impl SystemClock {
    /// A clock whose origin is now.
    #[must_use]
    pub fn new() -> Self {
        SystemClock {
            origin: Instant::now(),
        }
    }
}

impl Default for SystemClock {
    fn default() -> Self {
        SystemClock::new()
    }
}

impl Clock for SystemClock {
    fn now_ms(&mut self) -> u64 {
        u64::try_from(self.origin.elapsed().as_millis()).unwrap_or(u64::MAX)
    }

    fn sleep_ms(&mut self, ms: u64) {
        std::thread::sleep(Duration::from_millis(ms));
    }
}

/// A deterministic clock for tests: every `now_ms` reading advances by a
/// configurable tick (so a "slow point" can be simulated), sleeps advance
/// time instantly, and every sleep duration is recorded for assertions on
/// the backoff schedule.
#[derive(Debug, Default)]
pub struct TestClock {
    now: u64,
    tick_ms: u64,
    /// Every `sleep_ms` duration, in call order.
    pub sleeps: Vec<u64>,
}

impl TestClock {
    /// A clock starting at 0 whose readings do not advance by themselves.
    #[must_use]
    pub fn new() -> Self {
        TestClock::default()
    }

    /// A clock that advances `tick_ms` on every `now_ms` reading — each
    /// supervised attempt then appears to take `tick_ms` of wall time,
    /// which is how the deadline tests simulate slow points.
    #[must_use]
    pub fn with_tick(tick_ms: u64) -> Self {
        TestClock {
            tick_ms,
            ..TestClock::default()
        }
    }
}

impl Clock for TestClock {
    fn now_ms(&mut self) -> u64 {
        self.now += self.tick_ms;
        self.now
    }

    fn sleep_ms(&mut self, ms: u64) {
        self.now += ms;
        self.sleeps.push(ms);
    }
}

/// Bounded exponential backoff for transient failures.
///
/// Retry `n` (zero-based) waits `min(base_delay_ms << n, max_delay_ms)`
/// before the next attempt. `max_retries` bounds the number of
/// *re*-attempts: a point is tried at most `1 + max_retries` times.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Re-attempts after the first failure (0 = fail fast).
    pub max_retries: u32,
    /// Wait before the first retry, in milliseconds.
    pub base_delay_ms: u64,
    /// Ceiling on any single wait, in milliseconds.
    pub max_delay_ms: u64,
}

impl RetryPolicy {
    /// A policy with `max_retries` retries and the default 50 ms → 2 s
    /// exponential window.
    #[must_use]
    pub fn new(max_retries: u32) -> Self {
        RetryPolicy {
            max_retries,
            base_delay_ms: 50,
            max_delay_ms: 2_000,
        }
    }

    /// No retries: the first transient failure skips the point.
    #[must_use]
    pub fn none() -> Self {
        RetryPolicy::new(0)
    }

    /// The wait before zero-based retry `retry`:
    /// `min(base_delay_ms * 2^retry, max_delay_ms)`.
    #[must_use]
    pub fn delay_ms(&self, retry: u32) -> u64 {
        let exponent = retry.min(u32::BITS - 1);
        self.base_delay_ms
            .saturating_mul(1u64 << exponent)
            .min(self.max_delay_ms)
    }
}

impl Default for RetryPolicy {
    /// Three retries, 50 ms base, 2 s cap.
    fn default() -> Self {
        RetryPolicy::new(3)
    }
}

/// Why and when a port was removed from the active sweep set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuarantineRecord {
    /// The quarantined AXI port (= pseudo-channel index).
    pub port: u8,
    /// The sweep voltage at which the failure surfaced.
    pub voltage: Millivolts,
    /// The device error that triggered the quarantine.
    pub reason: String,
}

/// What the supervisor ultimately recorded for one sweep voltage.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PointOutcome {
    /// The point completed (possibly as a genuine cliff crash — see
    /// [`VoltagePoint::crashed`]).
    Completed(VoltagePoint),
    /// The point was abandoned after exhausting the retry budget; the
    /// reason names the last failure.
    Skipped {
        /// The last failure before giving up.
        reason: String,
    },
}

/// One supervised sweep voltage: the outcome plus how many attempts it
/// took to get there.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SupervisedPoint {
    /// The swept voltage.
    pub voltage: Millivolts,
    /// `run_point` invocations spent on this voltage (1 = first try).
    pub attempts: u32,
    /// What was recorded.
    pub outcome: PointOutcome,
}

impl SupervisedPoint {
    /// The completed measurement, if the point was not skipped.
    #[must_use]
    pub fn completed(&self) -> Option<&VoltagePoint> {
        match &self.outcome {
            PointOutcome::Completed(p) => Some(p),
            PointOutcome::Skipped { .. } => None,
        }
    }
}

/// The on-disk checkpoint: everything needed to validate that a resume
/// belongs to the same campaign, plus the completed prefix of the sweep.
///
/// Durations and paths are plain integers/strings so the file stays
/// readable and the format stays stable.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepCheckpoint {
    /// File format version ([`CHECKPOINT_VERSION`]).
    pub version: u32,
    /// The experiment that wrote the file.
    pub experiment: String,
    /// The platform seed of the campaign.
    pub seed: u64,
    /// The full [`ReliabilityConfig`] as canonical JSON, compared verbatim
    /// on resume — any config drift invalidates the checkpoint.
    pub config_json: String,
    /// Completed points, in sweep (descending-voltage) order.
    pub points: Vec<SupervisedPoint>,
    /// Ports quarantined so far.
    pub quarantined: Vec<QuarantineRecord>,
}

/// The report of a supervised sweep: the reliability measurements plus the
/// resilience bookkeeping (skips, quarantines, resume/power-cycle counts).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SupervisedReport {
    /// The configuration that produced the report.
    pub config: ReliabilityConfig,
    /// Bits checked per run per pattern over the *original* scope (the
    /// fault-rate denominator; quarantined ports are not subtracted so the
    /// denominator stays comparable across resumed runs).
    pub checked_bits_per_run: u64,
    /// One entry per swept voltage, in sweep order.
    pub points: Vec<SupervisedPoint>,
    /// Ports removed from the sweep, with reasons.
    pub quarantined: Vec<QuarantineRecord>,
    /// Points loaded from the checkpoint instead of being re-run.
    pub resumed_points: usize,
    /// Power cycles spent during this process's portion of the run.
    pub power_cycles: u32,
}

impl PartialEq for SupervisedReport {
    /// `resumed_points` and `power_cycles` describe *how* this process got
    /// the data (one run's history), not the data itself — a resumed run
    /// must compare equal to the uninterrupted run, so equality covers
    /// only the deterministic measurement fields.
    fn eq(&self, other: &Self) -> bool {
        self.config == other.config
            && self.checked_bits_per_run == other.checked_bits_per_run
            && self.points == other.points
            && self.quarantined == other.quarantined
    }
}

impl SupervisedReport {
    /// The completed (non-skipped) voltage points, in sweep order.
    pub fn completed_points(&self) -> impl Iterator<Item = &VoltagePoint> {
        self.points.iter().filter_map(SupervisedPoint::completed)
    }

    /// The skipped voltages with their reasons, in sweep order.
    pub fn skipped_points(&self) -> impl Iterator<Item = (Millivolts, &str)> {
        self.points.iter().filter_map(|p| match &p.outcome {
            PointOutcome::Skipped { reason } => Some((p.voltage, reason.as_str())),
            PointOutcome::Completed(_) => None,
        })
    }

    /// Projects the completed points into a plain [`ReliabilityReport`]
    /// so every existing analysis (fault rates, onset voltages,
    /// characterization) runs unchanged on supervised data.
    #[must_use]
    pub fn to_reliability(&self) -> ReliabilityReport {
        ReliabilityReport {
            config: self.config.clone(),
            checked_bits_per_run: self.checked_bits_per_run,
            points: self.completed_points().cloned().collect(),
        }
    }
}

/// The resilient sweep runtime: wraps a [`ReliabilityTester`] with
/// checkpointed resume, transient-failure retry and per-port quarantine.
///
/// # Failure taxonomy
///
/// [`ReliabilityTester::run_point`] splits crashes for the supervisor: a
/// crash *below* the platform's crash floor is the physical cliff — an
/// expected, deterministic measurement recorded as a crashed
/// [`VoltagePoint`] — while a crash *at or above* the floor is transient
/// and surfaces as an error. The supervisor power-cycles, backs off per
/// its [`RetryPolicy`] and re-attempts; a port-attributable device error
/// instead quarantines that port and re-attempts immediately with the
/// survivors.
///
/// # Examples
///
/// ```
/// use hbm_undervolt::{Platform, ReliabilityConfig, RetryPolicy, SweepSupervisor};
///
/// # fn main() -> Result<(), hbm_undervolt::ExperimentError> {
/// let mut platform = Platform::builder().seed(7).build();
/// let supervisor = SweepSupervisor::from_config(ReliabilityConfig::quick())?
///     .retry_policy(RetryPolicy::new(2));
/// let report = supervisor.run(&mut platform)?;
/// assert_eq!(report.points.len(), ReliabilityConfig::quick().sweep.len());
/// assert!(report.skipped_points().next().is_none());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SweepSupervisor {
    tester: ReliabilityTester,
    retry: RetryPolicy,
    point_deadline_ms: Option<u64>,
    checkpoint_path: Option<String>,
    resume: bool,
    abort_after: Option<usize>,
}

impl SweepSupervisor {
    /// Supervises an existing tester with the default retry policy, no
    /// deadline and no checkpointing.
    #[must_use]
    pub fn new(tester: ReliabilityTester) -> Self {
        SweepSupervisor {
            tester,
            retry: RetryPolicy::default(),
            point_deadline_ms: None,
            checkpoint_path: None,
            resume: false,
            abort_after: None,
        }
    }

    /// Builds the tester from `config` and supervises it.
    ///
    /// # Errors
    ///
    /// Configuration errors from [`ReliabilityConfig::validate`].
    pub fn from_config(config: ReliabilityConfig) -> Result<Self, ExperimentError> {
        Ok(SweepSupervisor::new(ReliabilityTester::new(config)?))
    }

    /// Sets the transient-failure retry policy.
    #[must_use]
    pub fn retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Sets the per-point deadline: an attempt that takes longer counts as
    /// a transient failure (its data is discarded and the point retried).
    #[must_use]
    pub fn point_deadline_ms(mut self, deadline_ms: u64) -> Self {
        self.point_deadline_ms = Some(deadline_ms);
        self
    }

    /// Checkpoints every completed point to `path` (durable replace:
    /// synced temp file + rename + parent-directory sync).
    #[must_use]
    pub fn checkpoint(mut self, path: impl Into<String>) -> Self {
        self.checkpoint_path = Some(path.into());
        self
    }

    /// On run, loads the checkpoint (if the file exists) and skips its
    /// completed points instead of re-running them. Requires a checkpoint
    /// path; a missing file is a fresh start, not an error.
    #[must_use]
    pub fn resume(mut self, resume: bool) -> Self {
        self.resume = resume;
        self
    }

    /// Kill injection for the resume tests: abort with
    /// [`ExperimentError::Interrupted`] once `n` points are checkpointed
    /// (unless the sweep finished first). The abort happens *after* the
    /// checkpoint write — exactly like a process killed between points.
    #[must_use]
    pub fn abort_after(mut self, n: usize) -> Self {
        self.abort_after = Some(n);
        self
    }

    /// The supervised tester.
    #[must_use]
    pub fn tester(&self) -> &ReliabilityTester {
        &self.tester
    }

    /// Runs the supervised sweep on the real wall clock.
    ///
    /// # Errors
    ///
    /// Checkpoint I/O and validation errors, non-transient device/PMBus
    /// errors, and [`ExperimentError::Interrupted`] under
    /// [`SweepSupervisor::abort_after`].
    pub fn run(&self, platform: &mut Platform) -> Result<SupervisedReport, ExperimentError> {
        self.run_with_clock(platform, &mut SystemClock::new())
    }

    /// Runs the supervised sweep on an explicit [`Clock`] (the backoff and
    /// deadline tests inject a [`TestClock`] here).
    ///
    /// # Errors
    ///
    /// See [`SweepSupervisor::run`].
    pub fn run_with_clock(
        &self,
        platform: &mut Platform,
        clock: &mut dyn Clock,
    ) -> Result<SupervisedReport, ExperimentError> {
        self.run_observed(platform, clock, Telemetry::disabled())
    }

    /// [`SweepSupervisor::run_with_clock`] with telemetry: the full sweep
    /// and point lifecycle — attempts, retries, crashes, power cycles,
    /// quarantines, checkpoint writes — is emitted through `telemetry`,
    /// stamped with `clock` readings, and the counter registry tracks
    /// scanned words/masks, retry backoff, power cycles, checkpoint bytes,
    /// per-point wall times and the injector's tile-cache hit ratio.
    ///
    /// Every emission point sits in the supervisor's (single-threaded)
    /// control flow, so for a fixed seed the event stream is identical at
    /// every engine worker count.
    ///
    /// # Errors
    ///
    /// See [`SweepSupervisor::run`].
    pub fn run_observed(
        &self,
        platform: &mut Platform,
        clock: &mut dyn Clock,
        telemetry: &Telemetry,
    ) -> Result<SupervisedReport, ExperimentError> {
        let all_ports = self.tester.scoped_ports(platform)?;
        let checked_bits_per_run = self.tester.checked_bits_per_run(platform, &all_ports);
        let config_json = report_config_json(self.tester.config())?;
        let voltages: Vec<Millivolts> = self.tester.config().sweep.iter().collect();

        let (mut points, mut quarantined) = if self.resume {
            let path = self.checkpoint_path.as_deref().ok_or_else(|| {
                ExperimentError::checkpoint("resume requested without a checkpoint path")
            })?;
            let campaign = Campaign {
                seed: platform.seed(),
                config_json: &config_json,
                voltages: &voltages,
                patterns: &self.tester.config().patterns,
                ports: &all_ports,
            };
            load_checkpoint(path, &campaign)?
        } else {
            (Vec::new(), Vec::new())
        };
        let resumed_points = points.len();
        let cycles_at_start = platform.power_cycle_count();

        let sweep = &self.tester.config().sweep;
        telemetry.emit_at(
            clock.now_ms(),
            TelemetryEvent::SweepStarted {
                experiment: "supervised-sweep".to_owned(),
                seed: platform.seed(),
                points: voltages.len() as u64,
                from_mv: sweep.from().as_u32(),
                to_mv: sweep.down_to().as_u32(),
            },
        );

        let mut active: Vec<PortId> = all_ports
            .iter()
            .copied()
            .filter(|p| quarantined.iter().all(|q| q.port != p.as_u8()))
            .collect();

        for &voltage in voltages.iter().skip(points.len()) {
            let point = self.run_supervised_point(
                platform,
                clock,
                voltage,
                &mut active,
                &mut quarantined,
                telemetry,
            )?;
            points.push(point);
            if let Some(path) = &self.checkpoint_path {
                let checkpoint = SweepCheckpoint {
                    version: CHECKPOINT_VERSION,
                    experiment: "supervised-sweep".to_owned(),
                    seed: platform.seed(),
                    config_json: config_json.clone(),
                    points: points.clone(),
                    quarantined: quarantined.clone(),
                };
                let bytes = write_checkpoint(path, &checkpoint)?;
                telemetry.metrics().add_checkpoint(bytes);
                telemetry.emit_at(
                    clock.now_ms(),
                    TelemetryEvent::CheckpointWritten {
                        path: path.clone(),
                        bytes,
                        points: points.len() as u64,
                    },
                );
            }
            if let Some(limit) = self.abort_after {
                if points.len() - resumed_points >= limit && points.len() < voltages.len() {
                    return Err(ExperimentError::Interrupted {
                        completed_points: points.len(),
                    });
                }
            }
        }

        let (hits, misses) = platform.injector().tile_cache_stats();
        telemetry.metrics().set_tile_cache(hits, misses);
        let (dense, sparse) = platform.injector().kernel_dispatch_stats();
        telemetry.metrics().set_kernel_dispatch(dense, sparse);
        let power_cycles = platform.power_cycle_count() - cycles_at_start;
        telemetry
            .metrics()
            .add_power_cycles(u64::from(power_cycles));
        let completed = points.iter().filter(|p| p.completed().is_some()).count();
        telemetry.emit_at(
            clock.now_ms(),
            TelemetryEvent::SweepCompleted {
                completed: completed as u64,
                skipped: (points.len() - completed) as u64,
                quarantined: quarantined.len() as u64,
            },
        );

        Ok(SupervisedReport {
            config: self.tester.config().clone(),
            checked_bits_per_run,
            points,
            quarantined,
            resumed_points,
            power_cycles,
        })
    }

    /// Attempts one voltage until it completes, its retry budget runs out,
    /// or every port is quarantined.
    ///
    /// Event timestamps reuse the attempt's own `started`/`elapsed` clock
    /// readings (no extra `now_ms` calls inside the attempt loop), so the
    /// deadline arithmetic is exactly what the events report.
    #[allow(clippy::too_many_arguments)]
    fn run_supervised_point(
        &self,
        platform: &mut Platform,
        clock: &mut dyn Clock,
        voltage: Millivolts,
        active: &mut Vec<PortId>,
        quarantined: &mut Vec<QuarantineRecord>,
        telemetry: &Telemetry,
    ) -> Result<SupervisedPoint, ExperimentError> {
        let voltage_mv = voltage.as_u32();
        let mut attempts = 0u32;
        loop {
            if active.is_empty() {
                telemetry.emit(TelemetryEvent::PointSkipped {
                    voltage_mv,
                    attempts,
                    reason: "every port in scope is quarantined".to_owned(),
                });
                return Ok(SupervisedPoint {
                    voltage,
                    attempts,
                    outcome: PointOutcome::Skipped {
                        reason: "every port in scope is quarantined".to_owned(),
                    },
                });
            }
            attempts += 1;
            let started = clock.now_ms();
            telemetry.emit_at(
                started,
                TelemetryEvent::PointStarted {
                    voltage_mv,
                    attempt: attempts,
                },
            );
            let result = self
                .tester
                .run_point_observed(platform, active, voltage, telemetry);
            let elapsed = clock.now_ms().saturating_sub(started);
            let end = started + elapsed;
            telemetry.metrics().record_point_wall_ms(elapsed);

            let failure = match result {
                Ok(point) => match self.point_deadline_ms {
                    Some(deadline) if elapsed > deadline => {
                        format!("point took {elapsed} ms, over the {deadline} ms deadline")
                    }
                    _ => {
                        if point.crashed {
                            telemetry.emit_at(
                                end,
                                TelemetryEvent::DeviceCrashed {
                                    voltage_mv,
                                    attempt: attempts,
                                    transient: false,
                                },
                            );
                            telemetry.emit_at(
                                end,
                                TelemetryEvent::PowerCycled {
                                    restart_mv: NOMINAL_RESTART.as_u32(),
                                    cycle: platform.power_cycle_count(),
                                },
                            );
                        }
                        telemetry.emit_at(
                            end,
                            TelemetryEvent::PointCompleted {
                                voltage_mv,
                                attempt: attempts,
                                crashed: point.crashed,
                                mean_faults: point.total_mean_faults(),
                            },
                        );
                        return Ok(SupervisedPoint {
                            voltage,
                            attempts,
                            outcome: PointOutcome::Completed(point),
                        });
                    }
                },
                Err(e) => {
                    if let Some(port) = quarantinable_port(&e) {
                        // A port-attributable fault: pull the port, record
                        // why, and re-attempt immediately with the
                        // survivors — no backoff, and no charge against
                        // the transient retry budget (the loop terminates
                        // because `active` shrinks).
                        active.retain(|p| p.as_u8() != port);
                        telemetry.emit_at(
                            end,
                            TelemetryEvent::PortQuarantined {
                                port,
                                voltage_mv,
                                reason: e.to_string(),
                            },
                        );
                        quarantined.push(QuarantineRecord {
                            port,
                            voltage,
                            reason: e.to_string(),
                        });
                        attempts -= 1;
                        continue;
                    }
                    if !e.is_crash() {
                        return Err(e);
                    }
                    telemetry.emit_at(
                        end,
                        TelemetryEvent::DeviceCrashed {
                            voltage_mv,
                            attempt: attempts,
                            transient: true,
                        },
                    );
                    e.to_string()
                }
            };

            // Transient failure: recover the platform, then either give up
            // (budget exhausted) or back off and go again.
            if attempts > self.retry.max_retries {
                if platform.is_crashed() {
                    platform.power_cycle(NOMINAL_RESTART)?;
                    telemetry.emit_at(
                        end,
                        TelemetryEvent::PowerCycled {
                            restart_mv: NOMINAL_RESTART.as_u32(),
                            cycle: platform.power_cycle_count(),
                        },
                    );
                }
                telemetry.emit_at(
                    end,
                    TelemetryEvent::PointSkipped {
                        voltage_mv,
                        attempts,
                        reason: format!("gave up after {attempts} attempt(s): {failure}"),
                    },
                );
                return Ok(SupervisedPoint {
                    voltage,
                    attempts,
                    outcome: PointOutcome::Skipped {
                        reason: format!("gave up after {attempts} attempt(s): {failure}"),
                    },
                });
            }
            let delay = self.retry.delay_ms(attempts - 1);
            telemetry.emit_at(
                end,
                TelemetryEvent::RetryScheduled {
                    voltage_mv,
                    attempt: attempts,
                    delay_ms: delay,
                    reason: failure,
                },
            );
            telemetry.metrics().add_retry(delay);
            clock.sleep_ms(delay);
            platform.power_cycle(NOMINAL_RESTART)?;
            telemetry.emit_at(
                end + delay,
                TelemetryEvent::PowerCycled {
                    restart_mv: NOMINAL_RESTART.as_u32(),
                    cycle: platform.power_cycle_count(),
                },
            );
        }
    }
}

/// The port a device error is attributable to, if quarantining that port
/// could let the sweep continue.
fn quarantinable_port(e: &ExperimentError) -> Option<u8> {
    match e {
        ExperimentError::Device(
            DeviceError::PortDisabled { index } | DeviceError::InvalidPort { index },
        ) => Some(*index),
        _ => None,
    }
}

/// The canonical config fingerprint stored in (and compared against) the
/// checkpoint.
fn report_config_json(config: &ReliabilityConfig) -> Result<String, ExperimentError> {
    serde_json::to_string(config)
        .map_err(|e| ExperimentError::checkpoint(format!("serializing the config: {e}")))
}

/// Durably replaces the checkpoint file and reports how many bytes were
/// written. See [`persist_atomic`] for the crash-safety contract.
fn write_checkpoint(path: &str, checkpoint: &SweepCheckpoint) -> Result<u64, ExperimentError> {
    let json = serde_json::to_string_pretty(checkpoint)
        .map_err(|e| ExperimentError::checkpoint(format!("serializing the checkpoint: {e}")))?;
    persist_atomic(path, json.as_bytes())
}

/// Durably and atomically replaces `path` with `contents`: write a sibling
/// temp file, fsync it, then rename it over the target and fsync the parent
/// directory, so neither a kill mid-write nor a power loss right after the
/// rename can corrupt or lose an existing checkpoint.
///
/// When the rename fails with `EXDEV` (`path` and the temp file ended up on
/// different filesystems — e.g. the checkpoint directory is a bind mount),
/// falls back to writing the target directly and syncing it. That loses
/// atomicity but keeps durability; the alternative was failing the sweep.
fn persist_atomic(path: &str, contents: &[u8]) -> Result<u64, ExperimentError> {
    persist_atomic_with(path, contents, |tmp, target| std::fs::rename(tmp, target))
}

/// [`persist_atomic`] with an injectable rename, so tests can force the
/// cross-device fallback without an actual second filesystem.
fn persist_atomic_with<F>(path: &str, contents: &[u8], rename: F) -> Result<u64, ExperimentError>
where
    F: Fn(&Path, &Path) -> std::io::Result<()>,
{
    let target = Path::new(path);
    let tmp = format!("{path}.tmp");
    let tmp_path = Path::new(&tmp);
    let write_synced = |dest: &Path| -> std::io::Result<()> {
        let mut file = std::fs::File::create(dest)?;
        file.write_all(contents)?;
        file.sync_all()
    };
    write_synced(tmp_path)
        .map_err(|e| ExperimentError::checkpoint(format!("writing {tmp}: {e}")))?;
    match rename(tmp_path, target) {
        Ok(()) => {}
        Err(e) if is_cross_device(&e) => {
            // Cross-filesystem rename: write the target in place instead.
            write_synced(target)
                .map_err(|e| ExperimentError::checkpoint(format!("writing {path}: {e}")))?;
            let _ = std::fs::remove_file(tmp_path);
        }
        Err(e) => {
            return Err(ExperimentError::checkpoint(format!(
                "replacing {path}: {e}"
            )));
        }
    }
    // Make the rename itself durable. Directory fsync is best-effort: some
    // filesystems refuse to open directories for syncing.
    let parent = match target.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    if let Ok(dir) = std::fs::File::open(parent) {
        let _ = dir.sync_all();
    }
    Ok(contents.len() as u64)
}

/// Whether an I/O error is `EXDEV` (rename across filesystem boundaries).
fn is_cross_device(e: &std::io::Error) -> bool {
    let exdev = if cfg!(windows) { 17 } else { 18 };
    e.raw_os_error() == Some(exdev)
}

/// What a resumed checkpoint must match: the campaign that is resuming.
struct Campaign<'a> {
    seed: u64,
    config_json: &'a str,
    voltages: &'a [Millivolts],
    patterns: &'a [DataPattern],
    ports: &'a [PortId],
}

/// Loads a checkpoint, or nothing when the file does not exist. The file
/// must belong to `campaign` (version, experiment, seed, config and
/// voltage prefix), and every point in it must be one the campaign could
/// have recorded ([`check_point`]): anything else is a checkpoint error,
/// never a measurement.
fn load_checkpoint(
    path: &str,
    campaign: &Campaign<'_>,
) -> Result<(Vec<SupervisedPoint>, Vec<QuarantineRecord>), ExperimentError> {
    if !Path::new(path).exists() {
        return Ok((Vec::new(), Vec::new()));
    }
    let text = std::fs::read_to_string(path)
        .map_err(|e| ExperimentError::checkpoint(format!("reading {path}: {e}")))?;
    let checkpoint: SweepCheckpoint = serde_json::from_str(&text)
        .map_err(|e| ExperimentError::checkpoint(format!("parsing {path}: {e}")))?;
    if checkpoint.version != CHECKPOINT_VERSION {
        return Err(ExperimentError::checkpoint(format!(
            "{path} is format version {}, this binary writes version {CHECKPOINT_VERSION}",
            checkpoint.version
        )));
    }
    if checkpoint.experiment != "supervised-sweep" {
        return Err(ExperimentError::checkpoint(format!(
            "{path} belongs to experiment {:?}, not a supervised sweep",
            checkpoint.experiment
        )));
    }
    if checkpoint.seed != campaign.seed {
        return Err(ExperimentError::checkpoint(format!(
            "{path} was recorded with seed {}, the platform has seed {}",
            checkpoint.seed, campaign.seed
        )));
    }
    if checkpoint.config_json != campaign.config_json {
        return Err(ExperimentError::checkpoint(format!(
            "{path} was recorded under a different sweep configuration"
        )));
    }
    if checkpoint.points.len() > campaign.voltages.len() {
        return Err(ExperimentError::checkpoint(format!(
            "{path} holds {} points but the sweep has only {}",
            checkpoint.points.len(),
            campaign.voltages.len()
        )));
    }
    for (expected, point) in campaign.voltages.iter().zip(&checkpoint.points) {
        if point.voltage != *expected {
            return Err(ExperimentError::checkpoint(format!(
                "{path} records {} where the sweep expects {expected}",
                point.voltage
            )));
        }
        check_point(point, campaign).map_err(|reason| {
            ExperimentError::checkpoint(format!("{path}, point {}: {reason}", point.voltage))
        })?;
    }
    Ok((checkpoint.points, checkpoint.quarantined))
}

/// Why a checkpointed point could not have been recorded by `campaign`,
/// if it could not: its measurement is at another voltage; a crashed
/// point holds outcomes; a completed one's outcomes are not the
/// configured patterns in order; or an outcome has `batch_min` above
/// `batch_max`, a port twice or outside the campaign's ports, or flip
/// totals that are not the sums over its ports.
fn check_point(point: &SupervisedPoint, campaign: &Campaign<'_>) -> Result<(), String> {
    let PointOutcome::Completed(measured) = &point.outcome else {
        return Ok(());
    };
    if measured.voltage != point.voltage {
        return Err(format!("measured at {}", measured.voltage));
    }
    if measured.crashed {
        return match measured.outcomes.len() {
            0 => Ok(()),
            n => Err(format!("crashed, yet holds {n} outcome(s)")),
        };
    }
    let patterns: Vec<DataPattern> = measured.outcomes.iter().map(|o| o.pattern).collect();
    if patterns != campaign.patterns {
        return Err(format!(
            "outcomes for patterns {patterns:?}, the sweep tests {:?}",
            campaign.patterns
        ));
    }
    for outcome in &measured.outcomes {
        let pattern = outcome.pattern;
        if outcome.batch_min > outcome.batch_max {
            return Err(format!(
                "{pattern:?}: batch_min {} above batch_max {}",
                outcome.batch_min, outcome.batch_max
            ));
        }
        let mut seen = Vec::with_capacity(outcome.per_port.len());
        for &(port, _) in &outcome.per_port {
            if !campaign.ports.iter().any(|p| p.as_u8() == port) {
                return Err(format!("{pattern:?}: port {port} is not enabled"));
            }
            if seen.contains(&port) {
                return Err(format!("{pattern:?}: port {port} appears twice"));
            }
            seen.push(port);
        }
        let sums = outcome
            .per_port
            .iter()
            .try_fold((0u64, 0u64), |(a, b), (_, s)| {
                Some((a.checked_add(s.flips_1to0)?, b.checked_add(s.flips_0to1)?))
            });
        if sums != Some((outcome.flips_1to0, outcome.flips_0to1)) {
            return Err(format!(
                "{pattern:?}: flip totals ({}, {}) are not the sums over its ports",
                outcome.flips_1to0, outcome.flips_0to1
            ));
        }
    }
    Ok(())
}

/// One-paragraph summary of a supervised run for logs and `hbmctl`.
#[must_use]
pub fn summarize(report: &SupervisedReport) -> String {
    let completed = report.completed_points().count();
    let skipped = report.points.len() - completed;
    let mut out = format!(
        "{} point(s): {completed} completed, {skipped} skipped, {} resumed from checkpoint, \
         {} power cycle(s)",
        report.points.len(),
        report.resumed_points,
        report.power_cycles
    );
    for q in &report.quarantined {
        write!(
            out,
            "\nquarantined port {} at {}: {}",
            q.port, q.voltage, q.reason
        )
        .expect("write to string");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reliability::TestScope;
    use crate::sweep::VoltageSweep;
    use hbm_device::TransientCrashModel;
    use hbm_traffic::DataPattern;

    fn tiny_config(from: u32, to: u32) -> ReliabilityConfig {
        let mut config = ReliabilityConfig::quick();
        config.sweep = VoltageSweep::new(Millivolts(from), Millivolts(to), Millivolts(10)).unwrap();
        config.batch_size = 1;
        config.words_per_pc = Some(16);
        config.patterns = vec![DataPattern::AllOnes];
        config
    }

    fn temp_path(stem: &str) -> String {
        std::env::temp_dir()
            .join(format!("hbm-supervisor-{stem}-{}.json", std::process::id()))
            .to_string_lossy()
            .into_owned()
    }

    #[test]
    fn backoff_schedule_is_bounded_exponential() {
        let policy = RetryPolicy {
            max_retries: 6,
            base_delay_ms: 50,
            max_delay_ms: 2_000,
        };
        let delays: Vec<u64> = (0..7).map(|r| policy.delay_ms(r)).collect();
        assert_eq!(delays, [50, 100, 200, 400, 800, 1600, 2000]);
        // Deep retries saturate at the cap instead of overflowing.
        assert_eq!(policy.delay_ms(63), 2_000);
        assert_eq!(policy.delay_ms(200), 2_000);
        assert_eq!(RetryPolicy::none().max_retries, 0);
    }

    #[test]
    fn transient_crashes_retry_with_recorded_backoff_then_skip() {
        // probability 1.0 inside the window: every attempt at 840 mV
        // crashes, so the supervisor must walk the full backoff schedule
        // and then record the point as skipped — never error out.
        let mut platform = Platform::builder()
            .seed(7)
            .transient_crashes(TransientCrashModel::new(1.0, Millivolts(50)))
            .build();
        let supervisor = SweepSupervisor::from_config(tiny_config(840, 840))
            .unwrap()
            .retry_policy(RetryPolicy {
                max_retries: 2,
                base_delay_ms: 50,
                max_delay_ms: 2_000,
            });
        let mut clock = TestClock::new();
        let report = supervisor
            .run_with_clock(&mut platform, &mut clock)
            .unwrap();

        assert_eq!(clock.sleeps, [50, 100], "one sleep per retry");
        assert_eq!(report.points.len(), 1);
        assert_eq!(report.points[0].attempts, 3);
        let (voltage, reason) = report.skipped_points().next().unwrap();
        assert_eq!(voltage, Millivolts(840));
        assert!(reason.contains("crashed"), "reason: {reason}");
        // The supervisor left the platform recovered, not crashed.
        assert!(!platform.is_crashed());
        assert!(report.power_cycles >= 3);
    }

    #[test]
    fn point_deadline_discards_slow_attempts() {
        // Every now_ms reading advances 10 ms, so each attempt appears to
        // take 10 ms against a 5 ms deadline: the data is discarded and
        // the point eventually skipped.
        let mut platform = Platform::builder().seed(7).build();
        let supervisor = SweepSupervisor::from_config(tiny_config(900, 900))
            .unwrap()
            .retry_policy(RetryPolicy::new(1))
            .point_deadline_ms(5);
        let mut clock = TestClock::with_tick(10);
        let report = supervisor
            .run_with_clock(&mut platform, &mut clock)
            .unwrap();

        assert_eq!(clock.sleeps.len(), 1);
        let (_, reason) = report.skipped_points().next().unwrap();
        assert!(reason.contains("deadline"), "reason: {reason}");
        assert_eq!(report.points[0].attempts, 2);
    }

    #[test]
    fn disabled_port_is_quarantined_and_the_sweep_continues() {
        let mut platform = Platform::builder().seed(7).build();
        platform.enable_ports(2);
        let mut config = tiny_config(900, 890);
        config.scope = TestScope::Ports(vec![0, 1, 2]);
        let supervisor = SweepSupervisor::from_config(config).unwrap();
        let report = supervisor.run(&mut platform).unwrap();

        assert_eq!(report.quarantined.len(), 1);
        assert_eq!(report.quarantined[0].port, 2);
        assert_eq!(report.quarantined[0].voltage, Millivolts(900));
        assert!(report.quarantined[0].reason.contains("disabled"));
        // Both points completed over the surviving ports.
        assert_eq!(report.completed_points().count(), 2);
        for point in report.completed_points() {
            assert_eq!(point.outcomes[0].per_port.len(), 2);
        }
        // Quarantine attempts are not charged to the retry budget.
        assert_eq!(report.points[0].attempts, 1);
    }

    #[test]
    fn all_ports_quarantined_yields_skipped_points() {
        let mut platform = Platform::builder().seed(7).build();
        platform.enable_ports(1);
        let mut config = tiny_config(900, 900);
        config.scope = TestScope::Ports(vec![3, 4]);
        let supervisor = SweepSupervisor::from_config(config).unwrap();
        let report = supervisor.run(&mut platform).unwrap();
        assert_eq!(report.quarantined.len(), 2);
        let (_, reason) = report.skipped_points().next().unwrap();
        assert!(reason.contains("quarantined"), "reason: {reason}");
    }

    #[test]
    fn checkpoint_round_trips_through_json() {
        let mut platform = Platform::builder().seed(7).build();
        let supervisor = SweepSupervisor::from_config(tiny_config(900, 880)).unwrap();
        let report = supervisor.run(&mut platform).unwrap();
        let checkpoint = SweepCheckpoint {
            version: CHECKPOINT_VERSION,
            experiment: "supervised-sweep".to_owned(),
            seed: 7,
            config_json: report_config_json(supervisor.tester().config()).unwrap(),
            points: report.points.clone(),
            quarantined: vec![QuarantineRecord {
                port: 3,
                voltage: Millivolts(890),
                reason: "port 3 is disabled".to_owned(),
            }],
        };
        let json = serde_json::to_string_pretty(&checkpoint).unwrap();
        let back: SweepCheckpoint = serde_json::from_str(&json).unwrap();
        assert_eq!(back, checkpoint);
    }

    #[test]
    fn resume_validates_the_checkpoint_belongs_to_the_campaign() {
        let path = temp_path("validate");
        let _ = std::fs::remove_file(&path);

        let config = tiny_config(900, 880);
        let mut platform = Platform::builder().seed(7).build();
        let supervisor = SweepSupervisor::from_config(config.clone())
            .unwrap()
            .checkpoint(&path)
            .abort_after(1);
        let err = supervisor.run(&mut platform).unwrap_err();
        assert_eq!(
            err,
            ExperimentError::Interrupted {
                completed_points: 1
            }
        );

        // Wrong seed.
        let mut other_seed = Platform::builder().seed(8).build();
        let resumer = SweepSupervisor::from_config(config.clone())
            .unwrap()
            .checkpoint(&path)
            .resume(true);
        let err = resumer.run(&mut other_seed).unwrap_err();
        assert!(err.to_string().contains("seed"), "{err}");

        // Drifted config.
        let mut drifted = config.clone();
        drifted.batch_size = 2;
        let err = SweepSupervisor::from_config(drifted)
            .unwrap()
            .checkpoint(&path)
            .resume(true)
            .run(&mut Platform::builder().seed(7).build())
            .unwrap_err();
        assert!(err.to_string().contains("configuration"), "{err}");

        // Foreign versions: a future one, a version-4 file, which still
        // recorded the kernel backend, a version-5 file, whose points still
        // carry the mask-reuse ratio, and a version-6 file, whose
        // configuration names the per-voltage fault field its points were
        // measured in.
        let checkpoint: SweepCheckpoint =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let text = serde_json::to_string(&checkpoint).unwrap();
        let current = format!("\"version\":{CHECKPOINT_VERSION}");
        assert!(text.contains(&current), "{text}");
        let v5 = text.replacen(&current, "\"version\":5", 1).replace(
            "\"masks_per_second\":",
            "\"mask_reuse\":null,\"masks_per_second\":",
        );
        assert!(v5.contains("\"mask_reuse\""), "{v5}");
        let mode = r#"\"mode\":\"CachedMasks\""#;
        let v6 = text.replacen(&current, "\"version\":6", 1).replacen(
            mode,
            &format!(r#"{mode},\"fault_field\":\"PerVoltage\""#),
            1,
        );
        assert!(v6.contains("fault_field"), "{v6}");
        for foreign in [
            text.replacen(&current, "\"version\":99", 1),
            text.replacen(&current, "\"version\":4,\"kernel\":\"auto\"", 1),
            v5,
            v6,
        ] {
            std::fs::write(&path, &foreign).unwrap();
            let err = SweepSupervisor::from_config(config.clone())
                .unwrap()
                .checkpoint(&path)
                .resume(true)
                .run(&mut Platform::builder().seed(7).build())
                .unwrap_err();
            assert!(err.to_string().contains("version"), "{foreign}: {err}");
        }

        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn killed_and_resumed_run_matches_the_uninterrupted_run() {
        let path = temp_path("resume");
        let _ = std::fs::remove_file(&path);
        let config = tiny_config(850, 790); // crosses the crash cliff

        let mut reference_platform = Platform::builder().seed(7).build();
        let reference = SweepSupervisor::from_config(config.clone())
            .unwrap()
            .run(&mut reference_platform)
            .unwrap();

        let supervisor = SweepSupervisor::from_config(config)
            .unwrap()
            .checkpoint(&path)
            .resume(true);
        let mut platform = Platform::builder().seed(7).build();
        let err = supervisor
            .clone()
            .abort_after(2)
            .run(&mut platform)
            .unwrap_err();
        assert!(matches!(err, ExperimentError::Interrupted { .. }));

        // A fresh process resumes from the checkpoint. Descent rows are
        // process-local state that the checkpoint does not persist: the
        // resumed run descends the schedule that remains.
        let mut resumed_platform = Platform::builder().seed(7).build();
        let resumed = supervisor.run(&mut resumed_platform).unwrap();
        assert_eq!(resumed.resumed_points, 2);
        assert_eq!(resumed, reference, "resume must be bit-identical");

        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn summary_names_quarantines() {
        let mut platform = Platform::builder().seed(7).build();
        platform.enable_ports(2);
        let mut config = tiny_config(900, 900);
        config.scope = TestScope::Ports(vec![0, 2]);
        let report = SweepSupervisor::from_config(config)
            .unwrap()
            .run(&mut platform)
            .unwrap();
        let summary = summarize(&report);
        assert!(summary.contains("1 completed"), "{summary}");
        assert!(summary.contains("quarantined port 2"), "{summary}");
    }

    #[test]
    fn persist_atomic_replaces_durably_and_reports_bytes() {
        let path = temp_path("persist");
        std::fs::write(&path, "old contents").unwrap();
        let bytes = persist_atomic(&path, b"new contents").unwrap();
        assert_eq!(bytes, 12);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "new contents");
        assert!(
            !Path::new(&format!("{path}.tmp")).exists(),
            "temp file must be consumed by the rename"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn persist_atomic_falls_back_to_copy_on_cross_device_rename() {
        // Simulate a checkpoint path on another filesystem: the first
        // rename fails with EXDEV, which `persist_atomic` must survive by
        // writing the target directly.
        let path = temp_path("exdev");
        std::fs::write(&path, "old contents").unwrap();
        let exdev = if cfg!(windows) { 17 } else { 18 };
        let bytes = persist_atomic_with(&path, b"fallback contents", |_, _| {
            Err(std::io::Error::from_raw_os_error(exdev))
        })
        .unwrap();
        assert_eq!(bytes, 17);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "fallback contents");
        assert!(
            !Path::new(&format!("{path}.tmp")).exists(),
            "temp file must be cleaned up after the fallback"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn persist_atomic_propagates_non_exdev_rename_errors() {
        let path = temp_path("rename-err");
        let err = persist_atomic_with(&path, b"data", |_, _| {
            Err(std::io::Error::from_raw_os_error(13)) // EACCES
        })
        .unwrap_err();
        assert!(matches!(err, ExperimentError::Checkpoint { .. }));
        let _ = std::fs::remove_file(format!("{path}.tmp"));
        let _ = std::fs::remove_file(&path);
    }
}
