//! `paper-sweep`: the paper's own single-device measurement, repeated.
//!
//! One repetition runs `report::compute_headlines` (the guardband and the
//! Fig. 2 power sweep) and then the supervised reliability sweep from
//! 1.20 V down to 0.81 V in 10 mV steps over 8192 words per pseudo channel.

use std::sync::Arc;
use std::time::Instant;

use hbm_undervolt::report::{compute_headlines, HeadlineMetrics};
use hbm_undervolt::telemetry::{Observer, Telemetry, TelemetryEvent, TraceRecord};
use hbm_undervolt::{
    ExperimentError, Platform, ReliabilityConfig, SupervisedReport, SweepConfig, SweepSupervisor,
    SystemClock, VoltageSweep,
};
use hbm_units::Millivolts;

use crate::harness::{another, Outcome, SetupTimes};
use crate::stats::Digest;
use crate::trace::{Span, SpanId, Tracer};

/// Repetitions cycle through the device seeds `seed .. seed + 24`.
const DEVICES: u64 = 24;
/// The digest covers the first repetitions, which every run measures.
const MIN_REPETITIONS: usize = 3;
/// Set-up samples timed before each repetition; the last set-up's inputs
/// are used.
const SETUP_SAMPLES: usize = 4;
/// Set-ups per sample: about a millisecond of back-to-back set-ups.
const SETUP_BATCH: usize = 100;

/// One repetition's inputs: a device specimen for the headlines and one
/// for the sweep, and the supervised campaign.
struct Prepared {
    headline_platform: Platform,
    sweep_platform: Platform,
    supervisor: SweepSupervisor,
}

fn prepare(seed: u64, workers: usize) -> Prepared {
    let config = SweepConfig::from_reliability(ReliabilityConfig {
        sweep: VoltageSweep::new(Millivolts(1200), Millivolts(810), Millivolts(10))
            .expect("1200 -> 810 mV in 10 mV steps is a valid sweep"),
        words_per_pc: Some(8192),
        ..ReliabilityConfig::date21()
    })
    .seed(seed)
    .workers(workers);
    Prepared {
        headline_platform: Platform::builder().seed(seed).workers(workers).build(),
        sweep_platform: config.build_platform(),
        supervisor: config
            .build_supervisor()
            .expect("the paper's campaign configuration is valid"),
    }
}

/// The guardband and power-saving headlines of device `seed`.
///
/// # Errors
///
/// Any experiment error of the guardband or power sweep.
pub fn headlines(seed: u64, workers: usize) -> Result<HeadlineMetrics, ExperimentError> {
    compute_headlines(&mut Platform::builder().seed(seed).workers(workers).build())
}

/// The paper's figures beside the reproduction's, as a JSON object.
#[must_use]
pub fn accuracy_json(h: &HeadlineMetrics) -> String {
    format!(
        "{{\"guardband_pct\":{},\"guardband_paper_pct\":19,\"saving_at_vmin\":{},\
         \"saving_at_vmin_paper\":1.5,\"saving_at_850mv\":{},\"saving_at_850mv_paper\":2.3}}",
        h.guardband_percent, h.saving_at_guardband, h.saving_at_850mv
    )
}

/// Stamps a span per completed sweep point from the supervisor's
/// `PointStarted` / `PointCompleted` events.
struct PointStamper {
    tracer: Arc<Tracer>,
    parent: Option<SpanId>,
    request_id: u64,
    started_ns: Option<u64>,
}

/// The sweep region a point belongs to: fault-free down to 0.98 V, the
/// onset band above 0.87 V, the dense region below.
fn point_span_name(voltage_mv: u32) -> &'static str {
    match voltage_mv {
        980.. => "core.point.safe",
        871..=979 => "core.point.onset",
        _ => "core.point.dense",
    }
}

impl Observer for PointStamper {
    fn on_event(&mut self, record: &TraceRecord) {
        match record.event {
            TelemetryEvent::PointStarted { .. } => self.started_ns = Some(self.tracer.now_ns()),
            TelemetryEvent::PointCompleted { voltage_mv, .. } => {
                if let Some(start_ns) = self.started_ns.take() {
                    self.tracer.record(Span {
                        name: point_span_name(voltage_mv),
                        start_ns,
                        end_ns: self.tracer.now_ns(),
                        parent: self.parent,
                        request_id: self.request_id,
                    });
                }
            }
            _ => {}
        }
    }
}

struct Repetition {
    headlines: HeadlineMetrics,
    report: SupervisedReport,
    core_metrics: Option<serde::Value>,
}

fn repetition(p: Prepared, id: u64, tracer: &Arc<Tracer>) -> Result<Repetition, ExperimentError> {
    let Prepared {
        mut headline_platform,
        mut sweep_platform,
        supervisor,
    } = p;
    let headlines = tracer.span("core.headlines", None, id, |_| {
        compute_headlines(&mut headline_platform)
    })?;
    let (report, core_metrics) = tracer.span("core.sweep", None, id, |sweep| {
        if !tracer.enabled() {
            return supervisor.run(&mut sweep_platform).map(|r| (r, None));
        }
        let telemetry = Telemetry::new().with_observer(Box::new(PointStamper {
            tracer: Arc::clone(tracer),
            parent: sweep,
            request_id: id,
            started_ns: None,
        }));
        let report =
            supervisor.run_observed(&mut sweep_platform, &mut SystemClock::new(), &telemetry)?;
        let snapshot = serde::Serialize::to_value(&telemetry.metrics().snapshot());
        Ok((report, Some(snapshot)))
    })?;
    Ok(Repetition {
        headlines,
        report,
        core_metrics,
    })
}

/// What is wrong with a repetition's output, if anything. The checks hold
/// for every seed: each point completes, no point at or above 0.98 V
/// faults, and 0.85 V does.
fn check(rep: &Repetition) -> Option<String> {
    let h = &rep.headlines;
    let figures = [
        h.guardband_percent,
        h.saving_at_guardband,
        h.saving_at_850mv,
    ];
    if figures.iter().any(|x| !x.is_finite() || *x <= 0.0) {
        return Some(format!("headline figures out of range: {figures:?}"));
    }
    let mut faulted_at_850 = false;
    for point in &rep.report.points {
        let mv = point.voltage.as_u32();
        let Some(done) = point.completed().filter(|p| !p.crashed) else {
            return Some(format!("point {mv} mV did not complete"));
        };
        let faults: f64 = done.outcomes.iter().map(|o| o.mean_fault_count).sum();
        if mv >= 980 && faults != 0.0 {
            return Some(format!("{faults} faults at {mv} mV, inside the guardband"));
        }
        faulted_at_850 |= mv == 850 && faults > 0.0;
    }
    (!faulted_at_850).then(|| "no faults at 850 mV".to_owned())
}

/// Folds the model outputs of a repetition (never its wall-clock rates).
fn digest(d: &mut Digest, rep: &Repetition) {
    let h = &rep.headlines;
    for x in [
        h.guardband_percent,
        h.saving_at_guardband,
        h.saving_at_850mv,
        h.idle_fraction,
        h.acf_drop_at_850mv,
    ] {
        d.f64(x);
    }
    for point in rep.report.completed_points() {
        d.u64(u64::from(point.voltage.as_u32()));
        for o in &point.outcomes {
            d.f64(o.mean_fault_count);
            for n in [o.batch_min, o.batch_max, o.flips_1to0, o.flips_0to1] {
                d.u64(n);
            }
        }
    }
}

/// Runs `paper-sweep` for `window_s` seconds of repetitions.
pub fn run(seed: u64, window_s: f64, workers: usize, tracer: &Arc<Tracer>) -> Outcome {
    let mut out = Outcome::default();
    let mut setup = SetupTimes::default();
    let start_ns = tracer.now_ns();

    // One untimed repetition first: the first sweep in a process pays
    // for page faults and allocator growth the later ones do not.
    let warm_up = setup.sample(SETUP_SAMPLES, SETUP_BATCH, || prepare(seed, workers));
    match repetition(warm_up, u64::MAX, tracer) {
        Ok(warm) => {
            out.detail("paper", accuracy_json(&warm.headlines));
            if let Some(problem) = check(&warm) {
                out.tally(1, 1, || format!("warm-up repetition: {problem}"));
            }
        }
        Err(err) => out.tally(1, 1, || format!("warm-up repetition: {err}")),
    }

    let started = Instant::now();
    let mut times_ms = Vec::new();
    while another(started, window_s, times_ms.len(), MIN_REPETITIONS) {
        let id = times_ms.len() as u64;
        let rep_seed = seed + id % DEVICES;
        let prepared = setup.sample(SETUP_SAMPLES, SETUP_BATCH, || prepare(rep_seed, workers));
        let t0 = Instant::now();
        let result = repetition(prepared, id, tracer);
        times_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        match result {
            Ok(rep) => {
                let problem = check(&rep);
                out.tally(1, u64::from(problem.is_some()), || {
                    format!(
                        "repetition on seed {rep_seed}: {}",
                        problem.unwrap_or_default()
                    )
                });
                if times_ms.len() <= MIN_REPETITIONS {
                    digest(&mut out.digest, &rep);
                }
                if let Some(snapshot) = &rep.core_metrics {
                    out.layers.add_core_snapshot(snapshot);
                }
            }
            Err(err) => out.tally(1, 1, || format!("repetition on seed {rep_seed}: {err}")),
        }
    }
    out.traced_ns = tracer.now_ns() - start_ns;
    out.setup_s = setup.fastest();
    out.ops_per_s = times_ms.len() as f64 * 1e3 / times_ms.iter().sum::<f64>();
    out.detail("repetitions", times_ms.len());
    out.latencies_ms = times_ms;
    out
}
