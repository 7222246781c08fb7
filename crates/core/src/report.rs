//! Rendering experiment results as the tables/series the paper reports,
//! plus CSV export.
//!
//! Every report type implements [`Render`]: `to_text` gives the table the
//! corresponding paper figure shows, `to_csv` a machine-readable export.
//! Heterogeneous campaigns can render through
//! `Box<dyn Render>` (see [`crate::DynExperiment`]).

use std::fmt::Write as _;

use hbm_power::PowerAnalysis;
use hbm_units::Millivolts;
use serde::{Deserialize, Serialize};

use crate::characterization::{PcFaultTable, StackFractionPoint};
use crate::error::ExperimentError;
use crate::governor::GovernorScenarioReport;
use crate::guardband::GuardbandReport;
use crate::platform::Platform;
use crate::power_test::PowerSweepReport;
use crate::reliability::ReliabilityReport;
use crate::supervisor::{PointOutcome, SupervisedReport};
use crate::trade_off::{SurfacePoint, TradeOffReport, UsablePcCurve};

/// A report that can render itself both as the paper's plain-text table
/// and as CSV.
pub trait Render {
    /// The plain-text table (what the `fig*` binaries print).
    fn to_text(&self) -> String;

    /// A machine-readable CSV export of the same data.
    fn to_csv(&self) -> String;
}

/// The paper's headline numbers, in one struct.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HeadlineMetrics {
    /// Guardband width as a percentage of nominal (paper: "19 %").
    pub guardband_percent: f64,
    /// Power saving at the guardband edge, 0.98 V (paper: 1.5×).
    pub saving_at_guardband: f64,
    /// Power saving at 0.85 V including stuck-bit effects (paper: 2.3×).
    pub saving_at_850mv: f64,
    /// Idle power as a fraction of full-load power (paper: ≈⅓).
    pub idle_fraction: f64,
    /// Effective-capacitance drop at 0.85 V (paper: 14 %).
    pub acf_drop_at_850mv: f64,
}

/// Computes the headline metrics from a finished power sweep and guardband
/// report.
///
/// # Errors
///
/// Returns a configuration error if the sweep lacks the needed voltages
/// (1.20 V, 0.98 V, 0.85 V at 0 and 32 ports).
pub fn headline_metrics(
    power: &PowerSweepReport,
    guardband: &GuardbandReport,
) -> Result<HeadlineMetrics, ExperimentError> {
    let need = |v: Millivolts, ports: usize| {
        power
            .at(v, ports)
            .ok_or_else(|| ExperimentError::config(format!("sweep lacks {v} @ {ports} ports")))
    };
    let saving_at_guardband = power
        .saving(guardband.v_min, 32)
        .ok_or_else(|| ExperimentError::config("sweep lacks the guardband voltage"))?;
    let saving_at_850mv = power
        .saving(Millivolts(850), 32)
        .ok_or_else(|| ExperimentError::config("sweep lacks 0.85 V"))?;
    let idle = need(Millivolts(1200), 0)?;
    let full = need(Millivolts(1200), 32)?;
    let acf = power.acf_series(32);
    let at_850 = PowerAnalysis::normalized_at(&acf, Millivolts(850))
        .ok_or_else(|| ExperimentError::config("acf series lacks 0.85 V"))?;
    Ok(HeadlineMetrics {
        guardband_percent: guardband.guardband_fraction().as_percent(),
        saving_at_guardband,
        saving_at_850mv,
        idle_fraction: idle.power / full.power,
        acf_drop_at_850mv: 1.0 - at_850.as_f64(),
    })
}

impl std::fmt::Display for HeadlineMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "guardband:            {:.1}% of nominal",
            self.guardband_percent
        )?;
        writeln!(f, "saving at guardband:  {:.2}x", self.saving_at_guardband)?;
        writeln!(f, "saving at 0.85 V:     {:.2}x", self.saving_at_850mv)?;
        writeln!(f, "idle / full-load:     {:.2}", self.idle_fraction)?;
        write!(
            f,
            "aClf drop at 0.85 V:  {:.1}%",
            self.acf_drop_at_850mv * 100.0
        )
    }
}

/// Renders the Fig. 2 table: normalized power per voltage (rows, 50 mV
/// display steps as in the paper) and per utilization step (columns).
fn render_power_table(report: &PowerSweepReport) -> String {
    let mut out = String::new();
    write!(out, "{:>8}", "V").expect("write to string");
    for &ports in &report.port_steps {
        write!(out, "{:>9}", format!("{}%", ports * 100 / 32)).expect("write to string");
    }
    out.push('\n');
    for &v in &report.voltages {
        if v.as_u32() % 50 != 0 {
            continue; // the paper displays 50 mV steps for visibility
        }
        write!(
            out,
            "{:>8}",
            format!("{:.2}", f64::from(v.as_u32()) / 1000.0)
        )
        .expect("write to string");
        for &ports in &report.port_steps {
            match report.at(v, ports) {
                Some(p) => write!(out, "{:>9.3}", p.normalized.as_f64()),
                None => write!(out, "{:>9}", "-"),
            }
            .expect("write to string");
        }
        out.push('\n');
    }
    out
}

/// Renders the Fig. 3 table: normalized `α·C_L·f` per voltage per
/// utilization step.
fn render_acf_table(report: &PowerSweepReport) -> String {
    let mut out = String::new();
    write!(out, "{:>8}", "V").expect("write to string");
    for &ports in &report.port_steps {
        write!(out, "{:>9}", format!("{}%", ports * 100 / 32)).expect("write to string");
    }
    out.push('\n');
    let series: Vec<_> = report
        .port_steps
        .iter()
        .map(|&p| (p, report.acf_series(p)))
        .collect();
    for &v in &report.voltages {
        if v.as_u32() % 50 != 0 {
            continue;
        }
        write!(
            out,
            "{:>8}",
            format!("{:.2}", f64::from(v.as_u32()) / 1000.0)
        )
        .expect("write to string");
        for (_, acf) in &series {
            match PowerAnalysis::normalized_at(acf, v) {
                Some(r) => write!(out, "{:>9.3}", r.as_f64()),
                None => write!(out, "{:>9}", "-"),
            }
            .expect("write to string");
        }
        out.push('\n');
    }
    out
}

/// Renders the Fig. 4 series: per-stack faulty fraction per voltage.
fn render_stack_fractions(series: &[StackFractionPoint]) -> String {
    let mut out = String::from("       V     HBM0     HBM1\n");
    for point in series {
        writeln!(
            out,
            "{:>8} {:>8.4} {:>8.4}",
            format!("{:.2}", f64::from(point.voltage.as_u32()) / 1000.0),
            point.hbm0.as_f64(),
            point.hbm1.as_f64()
        )
        .expect("write to string");
    }
    out
}

/// Renders the Fig. 5 grid: ports as columns, voltages as rows, cells as
/// the paper formats them ("NF", "0" for <1 %, else whole percent).
fn render_pc_table(table: &PcFaultTable) -> String {
    let mut out = String::new();
    writeln!(out, "pattern: {}", table.pattern).expect("write to string");
    write!(out, "{:>6}", "V").expect("write to string");
    for row in &table.rows {
        write!(out, "{:>5}", format!("P{}", row.port)).expect("write to string");
    }
    out.push('\n');
    for (col, &v) in table.voltages.iter().enumerate() {
        write!(
            out,
            "{:>6}",
            format!("{:.2}", f64::from(v.as_u32()) / 1000.0)
        )
        .expect("write to string");
        for row in &table.rows {
            write!(out, "{:>5}", row.cells[col].display()).expect("write to string");
        }
        out.push('\n');
    }
    out
}

/// Renders the Fig. 6 family: usable PC count per voltage per tolerance.
fn render_usable_pc_curves(curves: &[UsablePcCurve]) -> String {
    let mut out = String::new();
    write!(out, "{:>8}", "V").expect("write to string");
    for curve in curves {
        write!(
            out,
            "{:>12}",
            format!("≤{}", curve.tolerable.display_percent())
        )
        .expect("write to string");
    }
    out.push('\n');
    if let Some(first) = curves.first() {
        for (i, &(v, _)) in first.points.iter().enumerate() {
            write!(
                out,
                "{:>8}",
                format!("{:.2}", f64::from(v.as_u32()) / 1000.0)
            )
            .expect("write to string");
            for curve in curves {
                write!(out, "{:>12}", curve.points[i].1).expect("write to string");
            }
            out.push('\n');
        }
    }
    out
}

/// The Fig. 3 view of a power sweep: the same report rendered as the
/// extracted `α·C_L·f` table instead of the Fig. 2 power table.
#[derive(Debug, Clone, Copy)]
pub struct AcfTable<'a>(pub &'a PowerSweepReport);

impl Render for PowerSweepReport {
    fn to_text(&self) -> String {
        render_power_table(self)
    }

    fn to_csv(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .points
            .iter()
            .map(|p| {
                vec![
                    p.voltage.as_u32().to_string(),
                    p.enabled_ports.to_string(),
                    format!("{:.6}", p.power.as_f64()),
                    format!("{:.6}", p.normalized.as_f64()),
                ]
            })
            .collect();
        to_csv(&["voltage_mv", "ports", "power_w", "normalized"], &rows)
    }
}

impl Render for AcfTable<'_> {
    fn to_text(&self) -> String {
        render_acf_table(self.0)
    }

    fn to_csv(&self) -> String {
        let mut rows = Vec::new();
        for &ports in &self.0.port_steps {
            for sample in self.0.acf_series(ports) {
                rows.push(vec![
                    sample.voltage.as_u32().to_string(),
                    ports.to_string(),
                    format!("{:.6}", sample.normalized.as_f64()),
                ]);
            }
        }
        to_csv(&["voltage_mv", "ports", "normalized_acf"], &rows)
    }
}

impl Render for [StackFractionPoint] {
    fn to_text(&self) -> String {
        render_stack_fractions(self)
    }

    fn to_csv(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .iter()
            .map(|p| {
                vec![
                    p.voltage.as_u32().to_string(),
                    format!("{:.6}", p.hbm0.as_f64()),
                    format!("{:.6}", p.hbm1.as_f64()),
                ]
            })
            .collect();
        to_csv(&["voltage_mv", "hbm0_fraction", "hbm1_fraction"], &rows)
    }
}

impl Render for Vec<StackFractionPoint> {
    fn to_text(&self) -> String {
        self.as_slice().to_text()
    }

    fn to_csv(&self) -> String {
        self.as_slice().to_csv()
    }
}

impl Render for PcFaultTable {
    fn to_text(&self) -> String {
        render_pc_table(self)
    }

    fn to_csv(&self) -> String {
        let mut rows = Vec::new();
        for (col, &v) in self.voltages.iter().enumerate() {
            for row in &self.rows {
                rows.push(vec![
                    self.pattern.to_string(),
                    v.as_u32().to_string(),
                    row.port.to_string(),
                    row.cells[col].display(),
                ]);
            }
        }
        to_csv(&["pattern", "voltage_mv", "port", "cell"], &rows)
    }
}

impl Render for [UsablePcCurve] {
    fn to_text(&self) -> String {
        render_usable_pc_curves(self)
    }

    fn to_csv(&self) -> String {
        let mut rows = Vec::new();
        for curve in self {
            for &(v, n) in &curve.points {
                rows.push(vec![
                    format!("{:e}", curve.tolerable.as_f64()),
                    v.as_u32().to_string(),
                    n.to_string(),
                ]);
            }
        }
        to_csv(&["tolerable", "voltage_mv", "usable_pcs"], &rows)
    }
}

impl Render for Vec<UsablePcCurve> {
    fn to_text(&self) -> String {
        self.as_slice().to_text()
    }

    fn to_csv(&self) -> String {
        self.as_slice().to_csv()
    }
}

impl Render for TradeOffReport {
    fn to_text(&self) -> String {
        let mut out = self.curves.to_text();
        if !self.surface.is_empty() {
            writeln!(
                out,
                "{:>8}{:>6}{:>10}{:>9}{:>10}{:>10}{:>10}{:>9}{:>9}",
                "V",
                "PCs",
                "cap GiB",
                "saving",
                "seq GB/s",
                "strd GB/s",
                "rand GB/s",
                "rand ns",
                "pJ/bit"
            )
            .expect("write to string");
            for p in &self.surface {
                writeln!(
                    out,
                    "{:>8}{:>6}{:>10.2}{:>8.2}x{:>10.1}{:>10.1}{:>10.1}{:>9.1}{:>9.2}",
                    p.voltage.to_string(),
                    p.usable_pcs,
                    p.capacity_bytes as f64 / f64::from(1u32 << 30),
                    p.saving_factor,
                    p.sequential_gbps,
                    p.strided_gbps,
                    p.random_gbps,
                    p.random_latency_ns,
                    p.sequential_pj_per_bit,
                )
                .expect("write to string");
            }
        }
        for plan in &self.plans {
            match &plan.point {
                Some(p) => writeln!(
                    out,
                    "plan {:>5.0}% capacity, tol {:>8}: {} ({} PCs, {:.2}x saving)",
                    plan.fraction * 100.0,
                    plan.tolerable.display_percent(),
                    p.voltage,
                    p.usable_pcs.len(),
                    p.saving_factor
                ),
                None => writeln!(
                    out,
                    "plan {:>5.0}% capacity, tol {:>8}: unreachable",
                    plan.fraction * 100.0,
                    plan.tolerable.display_percent()
                ),
            }
            .expect("write to string");
        }
        out
    }

    fn to_csv(&self) -> String {
        // The curve family augmented with the four-factor surface columns:
        // the timing axis depends only on the voltage, so its values repeat
        // across the tolerance series of the same row voltage.
        let mut rows = Vec::new();
        for curve in &self.curves {
            for &(v, n) in &curve.points {
                let surface = self.surface.iter().find(|p| p.voltage == v);
                let timing_cell = |f: fn(&SurfacePoint) -> f64| {
                    surface.map_or_else(String::new, |p| format!("{:.3}", f(p)))
                };
                rows.push(vec![
                    format!("{:e}", curve.tolerable.as_f64()),
                    v.as_u32().to_string(),
                    n.to_string(),
                    timing_cell(|p| p.saving_factor),
                    timing_cell(|p| p.sequential_gbps),
                    timing_cell(|p| p.strided_gbps),
                    timing_cell(|p| p.random_gbps),
                    timing_cell(|p| p.random_latency_ns),
                    timing_cell(|p| p.sequential_pj_per_bit),
                ]);
            }
        }
        to_csv(
            &[
                "tolerable",
                "voltage_mv",
                "usable_pcs",
                "saving_factor",
                "sequential_gbps",
                "strided_gbps",
                "random_gbps",
                "random_latency_ns",
                "sequential_pj_per_bit",
            ],
            &rows,
        )
    }
}

impl Render for GovernorScenarioReport {
    fn to_text(&self) -> String {
        let mut out = String::from("closed-loop governor scenarios\n");
        for row in &self.rows {
            let trip = match (row.outcome.trip_reason, row.outcome.tripped_at) {
                (Some(reason), Some(v)) => format!("{} at {}", reason.as_str(), v),
                _ => "floor reached".to_owned(),
            };
            writeln!(
                out,
                "{:>12} ({:>10}): settled {}, lowest clean {}, {trip}, \
                 {} flip(s), {:.1} GB/s, {:.1} ns, {:.2}x saving",
                row.label,
                row.workload.as_token(),
                row.outcome.settled,
                row.outcome.lowest_clean,
                row.outcome.canary_flips,
                row.outcome.delivered_gbps,
                row.outcome.access_latency_ns,
                row.saving_factor,
            )
            .expect("write to string");
        }
        out
    }

    fn to_csv(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|row| {
                vec![
                    row.label.clone(),
                    row.workload.as_token().to_owned(),
                    row.outcome.settled.as_u32().to_string(),
                    row.outcome.lowest_clean.as_u32().to_string(),
                    row.outcome
                        .tripped_at
                        .map_or_else(String::new, |v| v.as_u32().to_string()),
                    row.outcome
                        .trip_reason
                        .map_or_else(String::new, |r| r.as_str().to_owned()),
                    row.outcome.canary_flips.to_string(),
                    format!("{:.3}", row.outcome.delivered_gbps),
                    format!("{:.3}", row.outcome.access_latency_ns),
                    format!("{:.4}", row.saving_factor),
                ]
            })
            .collect();
        to_csv(
            &[
                "scenario",
                "workload",
                "settled_mv",
                "lowest_clean_mv",
                "tripped_at_mv",
                "trip_reason",
                "canary_flips",
                "delivered_gbps",
                "access_latency_ns",
                "saving_factor",
            ],
            &rows,
        )
    }
}

impl Render for GuardbandReport {
    fn to_text(&self) -> String {
        format!(
            "v_nom:      {}\nv_min:      {}\nv_critical: {}\nguardband:  {} ({:.1}% of nominal)\n",
            self.v_nom,
            self.v_min,
            self.v_critical,
            self.guardband(),
            self.guardband_fraction().as_percent()
        )
    }

    fn to_csv(&self) -> String {
        to_csv(
            &[
                "v_nom_mv",
                "v_min_mv",
                "v_critical_mv",
                "guardband_mv",
                "guardband_percent",
            ],
            &[vec![
                self.v_nom.as_u32().to_string(),
                self.v_min.as_u32().to_string(),
                self.v_critical.as_u32().to_string(),
                self.guardband().as_u32().to_string(),
                format!("{:.2}", self.guardband_fraction().as_percent()),
            ]],
        )
    }
}

impl Render for ReliabilityReport {
    fn to_text(&self) -> String {
        let mut out = String::new();
        write!(out, "{:>8}", "V").expect("write to string");
        for pattern in &self.config.patterns {
            write!(out, "{:>14}", pattern.to_string()).expect("write to string");
        }
        write!(out, "{:>12}{:>12}", "words/s", "masks/s").expect("write to string");
        out.push('\n');
        for point in &self.points {
            write!(
                out,
                "{:>8}",
                format!("{:.2}", f64::from(point.voltage.as_u32()) / 1000.0)
            )
            .expect("write to string");
            if point.crashed {
                for _ in &self.config.patterns {
                    write!(out, "{:>14}", "crash").expect("write to string");
                }
                write!(out, "{:>12}{:>12}", "-", "-").expect("write to string");
            } else {
                for pattern in &self.config.patterns {
                    match point.outcome(*pattern) {
                        Some(o) => write!(out, "{:>14.1}", o.mean_fault_count),
                        None => write!(out, "{:>14}", "-"),
                    }
                    .expect("write to string");
                }
                write!(
                    out,
                    "{:>12}{:>12}",
                    rate_text(point.words_per_second),
                    rate_text(point.masks_per_second)
                )
                .expect("write to string");
            }
            out.push('\n');
        }
        out
    }

    fn to_csv(&self) -> String {
        let mut rows = Vec::new();
        for point in &self.points {
            if point.crashed {
                rows.push(vec![
                    point.voltage.as_u32().to_string(),
                    "1".to_owned(),
                    String::new(),
                    String::new(),
                    String::new(),
                    String::new(),
                    String::new(),
                    String::new(),
                ]);
                continue;
            }
            for outcome in &point.outcomes {
                rows.push(vec![
                    point.voltage.as_u32().to_string(),
                    "0".to_owned(),
                    outcome.pattern.to_string(),
                    format!("{:.3}", outcome.mean_fault_count),
                    outcome.flips_1to0.to_string(),
                    outcome.flips_0to1.to_string(),
                    rate_csv(point.words_per_second),
                    rate_csv(point.masks_per_second),
                ]);
            }
        }
        to_csv(
            &[
                "voltage_mv",
                "crashed",
                "pattern",
                "mean_faults",
                "flips_1to0",
                "flips_0to1",
                "words_per_sec",
                "masks_per_sec",
            ],
            &rows,
        )
    }
}

impl Render for SupervisedReport {
    /// The reliability table for the completed points, followed by the
    /// resilience bookkeeping (skips and quarantines).
    fn to_text(&self) -> String {
        let mut out = self.to_reliability().to_text();
        for (voltage, reason) in self.skipped_points() {
            writeln!(
                out,
                "{:>8}  skipped: {reason}",
                format!("{:.2}", f64::from(voltage.as_u32()) / 1000.0)
            )
            .expect("write to string");
        }
        for q in &self.quarantined {
            writeln!(
                out,
                "quarantined port {} at {}: {}",
                q.port, q.voltage, q.reason
            )
            .expect("write to string");
        }
        out
    }

    fn to_csv(&self) -> String {
        let mut rows = Vec::new();
        for point in &self.points {
            match &point.outcome {
                PointOutcome::Completed(p) => {
                    let status = if p.crashed { "crashed" } else { "ok" };
                    for outcome in &p.outcomes {
                        rows.push(vec![
                            point.voltage.as_u32().to_string(),
                            status.to_owned(),
                            point.attempts.to_string(),
                            outcome.pattern.to_string(),
                            format!("{:.3}", outcome.mean_fault_count),
                            outcome.flips_1to0.to_string(),
                            outcome.flips_0to1.to_string(),
                            String::new(),
                        ]);
                    }
                    if p.outcomes.is_empty() {
                        rows.push(vec![
                            point.voltage.as_u32().to_string(),
                            status.to_owned(),
                            point.attempts.to_string(),
                            String::new(),
                            String::new(),
                            String::new(),
                            String::new(),
                            String::new(),
                        ]);
                    }
                }
                PointOutcome::Skipped { reason } => {
                    rows.push(vec![
                        point.voltage.as_u32().to_string(),
                        "skipped".to_owned(),
                        point.attempts.to_string(),
                        String::new(),
                        String::new(),
                        String::new(),
                        String::new(),
                        reason.clone(),
                    ]);
                }
            }
        }
        to_csv(
            &[
                "voltage_mv",
                "status",
                "attempts",
                "pattern",
                "mean_faults",
                "flips_1to0",
                "flips_0to1",
                "detail",
            ],
            &rows,
        )
    }
}

impl Render for HeadlineMetrics {
    fn to_text(&self) -> String {
        format!("{self}\n")
    }

    fn to_csv(&self) -> String {
        to_csv(
            &[
                "guardband_percent",
                "saving_at_guardband",
                "saving_at_850mv",
                "idle_fraction",
                "acf_drop_at_850mv",
            ],
            &[vec![
                format!("{:.2}", self.guardband_percent),
                format!("{:.3}", self.saving_at_guardband),
                format!("{:.3}", self.saving_at_850mv),
                format!("{:.3}", self.idle_fraction),
                format!("{:.3}", self.acf_drop_at_850mv),
            ]],
        )
    }
}

/// Serializes any experiment artefact to pretty JSON (for archival next to
/// the rendered tables).
///
/// # Errors
///
/// Returns a configuration error if serialization fails (non-finite floats
/// with a custom serializer, etc. — not expected for the workspace types).
pub fn to_json<T: Serialize>(value: &T) -> Result<String, ExperimentError> {
    serde_json::to_string_pretty(value)
        .map_err(|e| ExperimentError::config(format!("serialization failed: {e}")))
}

/// A measured rate for a plain-text table: `-` when absent.
fn rate_text(rate: Option<f64>) -> String {
    rate.map_or_else(|| "-".to_owned(), |r| format!("{r:.2e}"))
}

/// A measured rate for a CSV cell: blank when absent, so consumers see a
/// missing value rather than a fabricated `0.0`.
fn rate_csv(rate: Option<f64>) -> String {
    rate.map_or_else(String::new, |r| format!("{r:.3}"))
}

/// Appends one field, quoting per RFC 4180 when it contains a comma,
/// quote, or line break (inner quotes are doubled). Every CSV cell the
/// crate emits flows through here, so escaping lives in exactly one place.
fn push_csv_field(out: &mut String, field: &str) {
    if field.contains(['"', ',', '\n', '\r']) {
        out.push('"');
        for c in field.chars() {
            if c == '"' {
                out.push('"');
            }
            out.push(c);
        }
        out.push('"');
    } else {
        out.push_str(field);
    }
}

/// Appends one newline-terminated CSV record.
fn push_csv_row<'a>(out: &mut String, fields: impl IntoIterator<Item = &'a str>) {
    for (i, field) in fields.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_csv_field(out, field);
    }
    out.push('\n');
}

/// Writes a CSV from header + rows, quoting fields per RFC 4180 where
/// needed (commas, quotes and line breaks in a field — e.g. a skip-reason
/// message quoting a device error — no longer corrupt the row structure).
#[must_use]
pub fn to_csv(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    push_csv_row(&mut out, header.iter().copied());
    for row in rows {
        push_csv_row(&mut out, row.iter().map(String::as_str));
    }
    out
}

/// Convenience: runs guardband + power sweep on a fresh platform and
/// returns the headline metrics (what the `headline_metrics` bench binary
/// prints).
///
/// # Errors
///
/// Propagates experiment errors.
pub fn compute_headlines(platform: &mut Platform) -> Result<HeadlineMetrics, ExperimentError> {
    let guardband = crate::guardband::GuardbandFinder::new().run(platform)?;
    let power = crate::power_test::PowerSweep::date21().run(platform)?;
    headline_metrics(&power, &guardband)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::characterization::{stack_fraction_series, PcFaultTable};
    use crate::power_test::PowerSweep;
    use crate::sweep::VoltageSweep;
    use crate::trade_off::TradeOffAnalysis;
    use hbm_faults::FaultMap;
    use hbm_power::HbmPowerModel;
    use hbm_traffic::DataPattern;
    use hbm_units::Ratio;

    fn platform() -> Platform {
        Platform::builder().seed(7).build()
    }

    #[test]
    fn headlines_match_paper() {
        let mut p = platform();
        let metrics = compute_headlines(&mut p).unwrap();
        assert!((18.0..19.5).contains(&metrics.guardband_percent));
        assert!((1.45..1.55).contains(&metrics.saving_at_guardband));
        assert!((2.15..2.45).contains(&metrics.saving_at_850mv));
        assert!((0.30..0.37).contains(&metrics.idle_fraction));
        assert!((0.08..0.20).contains(&metrics.acf_drop_at_850mv));
        let display = metrics.to_string();
        assert!(display.contains("guardband"));
        assert!(display.contains('x'));
    }

    #[test]
    fn power_table_renders_50mv_rows() {
        let mut p = platform();
        let report = PowerSweep::date21().run(&mut p).unwrap();
        let table = render_power_table(&report);
        assert!(table.contains("1.20"));
        assert!(table.contains("0.85"));
        assert!(!table.contains("1.19"), "10 mV rows must be hidden");
        assert!(table.lines().count() > 5);

        let acf = render_acf_table(&report);
        assert!(acf.contains("100%"));
    }

    #[test]
    fn stack_fraction_table() {
        let p = platform();
        let series = stack_fraction_series(p.full_scale_predictor(), VoltageSweep::unsafe_region());
        let table = render_stack_fractions(&series);
        assert!(table.contains("HBM0"));
        assert!(table.lines().count() == series.len() + 1);
    }

    #[test]
    fn pc_table_contains_nf_cells() {
        let p = platform();
        let sweep = VoltageSweep::new(Millivolts(970), Millivolts(840), Millivolts(10)).unwrap();
        let table =
            PcFaultTable::from_predictor(p.full_scale_predictor(), sweep, DataPattern::AllOnes);
        let rendered = render_pc_table(&table);
        assert!(rendered.contains("NF"), "high voltages must show NF cells");
        assert!(rendered.contains("P31"));
        assert!(rendered.contains("all-1s"));
    }

    #[test]
    fn usable_pc_table() {
        let p = platform();
        let map = FaultMap::from_predictor(
            p.full_scale_predictor(),
            Millivolts(980),
            Millivolts(850),
            Millivolts(10),
        );
        let analysis = TradeOffAnalysis::new(map, HbmPowerModel::date21());
        let curves = analysis.usable_pc_curves(&[Ratio::ZERO, Ratio(1e-6), Ratio(0.01)]);
        let table = render_usable_pc_curves(&curves);
        assert!(table.contains("0.98"));
        assert!(table.contains("32"));
    }

    #[test]
    fn reliability_tables_report_throughput() {
        use crate::reliability::{ReliabilityConfig, ReliabilityTester};
        let mut p = platform();
        let mut config = ReliabilityConfig::quick();
        config.words_per_pc = Some(64);
        config.batch_size = 1;
        let report = ReliabilityTester::new(config).unwrap().run(&mut p).unwrap();
        let text = report.to_text();
        assert!(text.contains("words/s"), "{text}");
        assert!(text.contains("masks/s"), "{text}");
        let csv = report.to_csv();
        assert!(
            csv.starts_with(
                "voltage_mv,crashed,pattern,mean_faults,flips_1to0,flips_0to1,\
                 words_per_sec,masks_per_sec\n"
            ),
            "{csv}"
        );
    }

    #[test]
    fn csv_and_json_helpers() {
        let csv = to_csv(
            &["voltage", "power"],
            &[
                vec!["1.2".into(), "9.0".into()],
                vec!["0.98".into(), "6.0".into()],
            ],
        );
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.starts_with("voltage,power\n"));

        let json = to_json(&vec![1, 2, 3]).unwrap();
        assert!(json.contains('1'));
    }

    #[test]
    fn csv_fields_with_commas_quotes_and_newlines_are_escaped() {
        let csv = to_csv(
            &["reason", "count"],
            &[vec!["said \"no, thanks\"\nand left".into(), "2".into()]],
        );
        assert_eq!(
            csv,
            "reason,count\n\"said \"\"no, thanks\"\"\nand left\",2\n"
        );
        // Unremarkable fields stay unquoted.
        let plain = to_csv(&["a"], &[vec!["plain".into()]]);
        assert_eq!(plain, "a\nplain\n");
    }

    #[test]
    fn supervised_csv_escapes_hostile_skip_reasons() {
        use crate::reliability::ReliabilityConfig;
        let report = SupervisedReport {
            config: ReliabilityConfig::quick(),
            checked_bits_per_run: 0,
            points: vec![crate::supervisor::SupervisedPoint {
                voltage: Millivolts(900),
                attempts: 3,
                outcome: PointOutcome::Skipped {
                    reason: "gave up: device said \"no\", then\ncrashed".to_owned(),
                },
            }],
            quarantined: Vec::new(),
            resumed_points: 0,
            power_cycles: 0,
        };
        let csv = report.to_csv();
        let mut lines = csv.lines();
        assert!(lines.next().unwrap().ends_with(",detail"));
        // The reason's comma and newline are contained inside one quoted
        // field: the record still parses as exactly 8 columns.
        assert!(
            csv.contains("\"gave up: device said \"\"no\"\", then\ncrashed\""),
            "{csv}"
        );
    }

    #[test]
    fn crashed_points_render_blank_throughput_not_zero() {
        use crate::reliability::{ReliabilityConfig, VoltagePoint};
        let mut config = ReliabilityConfig::quick();
        config.patterns = vec![DataPattern::AllOnes];
        let report = ReliabilityReport {
            config,
            checked_bits_per_run: 0,
            points: vec![VoltagePoint {
                voltage: Millivolts(820),
                crashed: true,
                outcomes: Vec::new(),
                words_per_second: None,
                masks_per_second: None,
            }],
        };
        let text = report.to_text();
        assert!(text.contains('-'), "{text}");
        assert!(!text.contains("0.0e0"), "{text}");
        let csv = report.to_csv();
        let row = csv.lines().nth(1).unwrap();
        assert!(
            row.ends_with(",,"),
            "crashed rows must leave throughput blank: {row}"
        );
        assert!(!row.contains("0.000"), "{row}");
    }
}
