//! The core library of the HBM voltage-underscaling study reproduction:
//! the complete measurement methodology of *"Understanding Power Consumption
//! and Reliability of High-Bandwidth Memory with Voltage Underscaling"*
//! (DATE 2021), runnable against the simulated VCU128 platform assembled
//! from the workspace's substrate crates.
//!
//! # What lives here
//!
//! - [`Platform`]: the testbed — an [`hbm_device::HbmDevice`] behind a
//!   fault-injecting AXI view, powered by an
//!   [`hbm_vreg::PowerRail`] (ISL68301 + INA226), with per-stack
//!   traffic-generator controllers;
//! - [`ReliabilityTester`]: the paper's Algorithm 1 — sequential
//!   write/read-back fault counting across a voltage sweep, batched per the
//!   statistical methodology;
//! - [`PowerSweep`]: the power-measurement experiment behind Fig. 2 and
//!   (via [`hbm_power::PowerAnalysis`]) Fig. 3;
//! - [`characterization`]: per-PC / per-pattern fault tables (Fig. 5),
//!   stack comparison (Fig. 4) and polarity statistics;
//! - [`GuardbandFinder`]: locating V_min and V_critical, by linear sweep as
//!   in the paper or by binary refinement;
//! - [`TradeOffAnalysis`]: the three-factor power / fault-rate / capacity
//!   trade-off and usable-PC curves (Fig. 6), plus an operating-point
//!   planner;
//! - [`stats`]: statistical fault-injection sizing (130 runs → 7 % error at
//!   90 % confidence, after Leveugle et al.);
//! - [`report`]: the [`Render`] trait — plain-text and CSV views of every
//!   figure's report;
//! - [`Experiment`]: the unified interface every study above implements —
//!   one `run(&mut Platform)` entry point, and [`DynExperiment`] when you
//!   want a heterogeneous campaign of boxed experiments;
//! - [`SweepSupervisor`]: the crash-aware resilient runtime — checkpointed
//!   resume, transient-failure retry with bounded exponential backoff, and
//!   per-port quarantine around the reliability sweep — with
//!   [`SweepConfig`] as the one builder for every campaign knob;
//! - [`telemetry`]: structured observation of a running sweep — typed
//!   lifecycle events fanned out to JSONL and human-progress sinks, plus a
//!   counters/histogram registry ([`telemetry::Metrics`]) covering cache
//!   hits, scanned words, checkpoint bytes and per-point wall time.
//!
//! # Quick start
//!
//! Every study is an [`Experiment`]: configure it, run it against a
//! [`Platform`], render the report.
//!
//! ```
//! use hbm_undervolt::report::Render;
//! use hbm_undervolt::{Experiment, Platform, PowerSweep};
//!
//! # fn main() -> Result<(), hbm_undervolt::ExperimentError> {
//! let mut platform = Platform::builder().seed(7).build();
//! let report = Experiment::run(&PowerSweep::date21(), &mut platform)?;
//! assert!(report.to_text().contains("1.20"));
//! assert!(report.to_csv().starts_with("voltage_mv"));
//! # Ok(())
//! # }
//! ```
//!
//! Lower-level platform access works the same way it always has:
//!
//! ```
//! use hbm_undervolt::Platform;
//! use hbm_units::{Millivolts, Ratio};
//!
//! # fn main() -> Result<(), hbm_undervolt::ExperimentError> {
//! let mut platform = Platform::builder().seed(7).build();
//!
//! // Undervolt into the guardband and measure power.
//! platform.set_voltage(Millivolts(980))?;
//! let sample = platform.measure_power(Ratio::ONE)?;
//! assert!(sample.power.as_f64() > 0.0);
//!
//! // 1.5× cheaper than nominal.
//! platform.set_voltage(Millivolts(1200))?;
//! let nominal = platform.measure_power(Ratio::ONE)?;
//! let saving = nominal.power / sample.power;
//! assert!((saving - 1.5).abs() < 0.05, "saving {saving}");
//! # Ok(())
//! # }
//! ```
//!
//! # Parallel sweeps and determinism
//!
//! [`PlatformBuilder::workers`] selects how many threads execute each
//! voltage point's workload; the engine shards the device by pseudo
//! channel and merges per-shard statistics afterwards. The guarantee is
//! strict: **a parallel run is bit-identical to the sequential run** for
//! every seed and every worker count, because all randomness is derived
//! from per-`(seed, voltage, pseudo-channel)` counter-mode streams rather
//! than shared RNG state.
//!
//! ```
//! use hbm_undervolt::{Experiment, Platform, ReliabilityConfig, ReliabilityTester};
//!
//! # fn main() -> Result<(), hbm_undervolt::ExperimentError> {
//! let tester = ReliabilityTester::new(ReliabilityConfig::quick())?;
//! let mut sequential = Platform::builder().seed(7).workers(1).build();
//! let mut parallel = Platform::builder().seed(7).workers(4).build();
//! assert_eq!(tester.run(&mut sequential)?, tester.run(&mut parallel)?);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod characterization;
mod engine;
mod error;
mod experiment;
mod governor;
mod guardband;
mod platform;
mod power_test;
mod reliability;
pub mod report;
pub mod stats;
mod supervisor;
mod sweep;
mod sweep_config;
pub mod telemetry;
mod trade_off;

pub use engine::ShardPort;
pub use error::ExperimentError;
pub use experiment::{DynExperiment, Experiment};
pub use governor::{
    outcome_saving, GovernorConfig, GovernorOutcome, GovernorScenario, GovernorScenarioReport,
    GovernorScenarioRow, GovernorVariant, TripReason, UndervoltGovernor, WorkloadMode,
};
pub use guardband::{GuardbandFinder, GuardbandReport};
pub use platform::{Platform, PlatformBuilder, PowerSample, UndervoltedPort};
pub use power_test::{PowerPoint, PowerSweep, PowerSweepReport};
pub use reliability::{
    ExecutionMode, PatternOutcome, ReliabilityConfig, ReliabilityReport, ReliabilityTester,
    TestScope, VoltagePoint, MAX_BATCH_SIZE,
};
pub use report::{AcfTable, Render};
pub use supervisor::{
    summarize, Clock, PointOutcome, QuarantineRecord, RetryPolicy, SupervisedPoint,
    SupervisedReport, SweepCheckpoint, SweepSupervisor, SystemClock, TestClock, CHECKPOINT_VERSION,
};
pub use sweep::VoltageSweep;
pub use sweep_config::SweepConfig;
pub use telemetry::{
    JsonlSink, MetricsSnapshot, Observer, ProgressSink, SharedBuffer, Telemetry, TelemetryEvent,
    TraceRecord,
};
pub use trade_off::{
    OperatingPoint, PlanRequest, PlannedFraction, SurfacePoint, TradeOffAnalysis, TradeOffReport,
    UsablePcCurve,
};
