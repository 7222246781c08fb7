//! The per-layer numbers of a traced run: the spans and counters that feed
//! each, and the end-to-end metric each should move.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use crate::stats;
use crate::trace::{self, Span};

/// The layers, in print order, with the end-to-end metrics and workloads
/// their numbers should move.
const LAYERS: [(&str, &str); 8] = [
    (
        "core (headlines, supervisor, engine)",
        "latency_p50_ms, ops_per_s on paper-sweep",
    ),
    (
        "faults (via core's counters)",
        "latency_p50_ms, ops_per_s on paper-sweep",
    ),
    (
        "fleet::sweep",
        "ops_per_s, latency_p50_ms on fleet-onset; setup_s on serve-*",
    ),
    (
        "fleet::artifact / fleet::model",
        "ops_per_s on fleet-onset; setup_s on serve-*",
    ),
    ("fleet::api", "ops_per_s, latency_p50_ms on serve-model"),
    (
        "fleet::serve",
        "kernel_rescan: latency_tail_ms, ops_per_s on serve-rescan, none on serve-model; \
         model_hit, summary: ops_per_s on serve-model",
    ),
    ("fleet::pipeline", "ops_per_s on serve-*"),
    ("trace", "none: the cost and reach of tracing itself"),
];

/// Serve outcome classes, found per request from the `FleetService::stats()`
/// delta around `handle`. Each is the name of that request's span.
pub const SERVE_CLASSES: [&str; 5] = [
    "serve.model_hit",
    "serve.cache_hit",
    "serve.kernel_rescan",
    "serve.summary",
    "serve.error",
];

/// `core` telemetry counters, read by key from the serialized
/// `MetricsSnapshot` so a renamed or removed counter shows as absent
/// instead of breaking the build.
const CORE_COUNTERS: [&str; 6] = [
    "tile_cache_hits",
    "tile_cache_misses",
    "dense_tiles_bitsliced",
    "sparse_tiles_scalar",
    "words_scanned",
    "masks_scanned",
];

/// Counters a traced run collects beside its spans.
#[derive(Debug, Default)]
pub struct LayerCounts {
    core: BTreeMap<&'static str, u64>,
    absent: BTreeSet<&'static str>,
    /// Fleet sweep workers (one per CPU).
    pub fleet_workers: u64,
    /// Devices that migrated between fleet workers, over all sweeps.
    pub devices_stolen: u64,
    /// Size of the last exact artifact.
    pub artifact_bytes: u64,
    /// Size of the last compressed (model-only) artifact.
    pub model_bytes: u64,
    /// Σ per-request pipeline latency over the batch sessions.
    pub pipeline_busy_us: u64,
    /// Σ session wall × workers over the batch sessions.
    pub pipeline_capacity_us: f64,
    pub queue_depth_max: u64,
    pub singleflight_waits: u64,
}

impl LayerCounts {
    /// Adds one sweep's serialized `core` metrics snapshot.
    pub fn add_core_snapshot(&mut self, snapshot: &serde::Value) {
        for key in CORE_COUNTERS {
            match serde::field(snapshot, key) {
                Ok(serde::Value::U64(n)) => *self.core.entry(key).or_default() += n,
                _ => {
                    self.absent.insert(key);
                }
            }
        }
    }

    fn core(&self, key: &str) -> f64 {
        self.core.get(key).copied().unwrap_or(0) as f64
    }

    /// Counter keys some snapshot lacked; their rows read 0.
    #[must_use]
    pub fn absent(&self) -> Vec<&'static str> {
        self.absent.iter().copied().collect()
    }
}

/// One per-layer number.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub layer: usize,
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub better: &'static str,
}

impl Row {
    /// Whether the row is a per-layer metric of the result line. Absolute
    /// times are not: a layer a workload never calls would read the same
    /// 0 s on every run. Their shares of the traced wall time are.
    #[must_use]
    pub fn in_result(&self) -> bool {
        !matches!(self.unit, "s" | "ms" | "us")
    }
}

#[derive(Debug, Default)]
struct Aggregate {
    busy_ns: u64,
    self_ns: u64,
    durations_ns: Vec<f64>,
}

fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// Every per-layer number of a traced run, grouped by layer.
#[must_use]
pub fn rows(spans: &[Span], traced_ns: u64, counts: &LayerCounts, span_cost_ns: f64) -> Vec<Row> {
    let self_ns = trace::self_times_ns(spans);
    let mut by_name: BTreeMap<&str, Aggregate> = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_ns) {
        let agg = by_name.entry(span.name).or_default();
        agg.busy_ns += span.duration_ns();
        agg.self_ns += own;
        agg.durations_ns.push(span.duration_ns() as f64);
    }
    let wall = traced_ns as f64;
    let none = Aggregate::default();
    let get = |name: &str| by_name.get(name).unwrap_or(&none);
    let busy_s = |name: &str| get(name).busy_ns as f64 / 1e9;
    let busy_frac = |name: &str| ratio(get(name).busy_ns as f64, wall);
    let count = |name: &str| get(name).durations_ns.len() as f64;
    let pct_ns =
        |name: &str, q: f64| stats::percentile(&stats::sorted(get(name).durations_ns.clone()), q);

    let mut rows = Vec::new();
    let mut push = |layer, name: &str, value: f64, unit, better| {
        rows.push(Row {
            layer,
            name: name.to_owned(),
            value,
            unit,
            better,
        });
    };

    // core
    for span in [
        "core.headlines",
        "core.sweep",
        "core.point.safe",
        "core.point.onset",
        "core.point.dense",
    ] {
        push(0, &format!("{span}.busy_s"), busy_s(span), "s", "lower");
        push(
            0,
            &format!("{span}.busy_frac"),
            busy_frac(span),
            "ratio",
            "lower",
        );
    }
    let between_ns = get("core.sweep").self_ns as f64;
    push(0, "core.point.between_s", between_ns / 1e9, "s", "lower");
    push(
        0,
        "core.point.between_frac",
        ratio(between_ns, wall),
        "ratio",
        "lower",
    );

    // faults, through core's counters
    let lookups = counts.core("tile_cache_hits") + counts.core("tile_cache_misses");
    push(
        1,
        "faults.tile_cache_hit_ratio",
        ratio(counts.core("tile_cache_hits"), lookups),
        "ratio",
        "higher",
    );
    push(1, "faults.tile_cache_lookups", lookups, "count", "lower");
    for (key, name) in [
        ("dense_tiles_bitsliced", "faults.dense_tiles_bitsliced"),
        ("sparse_tiles_scalar", "faults.sparse_tiles_scalar"),
        ("words_scanned", "core.words_scanned"),
        ("masks_scanned", "core.masks_scanned"),
    ] {
        push(1, name, counts.core(key), "count", "lower");
    }

    // fleet::sweep
    let device_busy = get("fleet.device").busy_ns as f64;
    let capacity = get("fleet.sweep").busy_ns as f64 * counts.fleet_workers as f64;
    push(
        2,
        "fleet.device.count",
        count("fleet.device"),
        "count",
        "higher",
    );
    push(2, "fleet.device.busy_s", device_busy / 1e9, "s", "lower");
    push(
        2,
        "fleet.device.p50_ms",
        pct_ns("fleet.device", 0.50) / 1e6,
        "ms",
        "lower",
    );
    push(
        2,
        "fleet.device.p95_ms",
        pct_ns("fleet.device", 0.95) / 1e6,
        "ms",
        "lower",
    );
    push(2, "fleet.sweep.busy_s", busy_s("fleet.sweep"), "s", "lower");
    push(
        2,
        "fleet.sweep.busy_frac",
        busy_frac("fleet.sweep"),
        "ratio",
        "lower",
    );
    let idle = if capacity > 0.0 {
        1.0 - device_busy / capacity
    } else {
        0.0
    };
    push(2, "fleet.sweep.idle_frac", idle, "ratio", "lower");
    push(
        2,
        "fleet.sweep.devices_stolen",
        counts.devices_stolen as f64,
        "count",
        "lower",
    );

    // fleet::artifact / fleet::model
    for span in [
        "fleet.artifact.encode",
        "fleet.artifact.decode",
        "fleet.model.fit",
        "fleet.model.compress",
    ] {
        push(3, &format!("{span}_s"), busy_s(span), "s", "lower");
        push(
            3,
            &format!("{span}_frac"),
            busy_frac(span),
            "ratio",
            "lower",
        );
    }
    push(
        3,
        "fleet.artifact.bytes",
        counts.artifact_bytes as f64,
        "bytes",
        "lower",
    );
    push(
        3,
        "fleet.model.bytes",
        counts.model_bytes as f64,
        "bytes",
        "lower",
    );

    // fleet::api
    for span in ["api.parse", "api.encode"] {
        push(4, &format!("{span}.busy_s"), busy_s(span), "s", "lower");
        push(
            4,
            &format!("{span}.busy_frac"),
            busy_frac(span),
            "ratio",
            "lower",
        );
    }

    // fleet::serve
    for class in SERVE_CLASSES {
        // Answers from the model, the cache or a summary are work done;
        // rescans and errors are what an optimization removes.
        let better = match class {
            "serve.kernel_rescan" | "serve.error" => "lower",
            _ => "higher",
        };
        push(5, &format!("{class}.count"), count(class), "count", better);
        push(5, &format!("{class}.busy_s"), busy_s(class), "s", "lower");
        push(
            5,
            &format!("{class}.busy_frac"),
            busy_frac(class),
            "ratio",
            "lower",
        );
        push(
            5,
            &format!("{class}.p50_us"),
            pct_ns(class, 0.50) / 1e3,
            "us",
            "lower",
        );
    }
    let recommends =
        count("serve.model_hit") + count("serve.cache_hit") + count("serve.kernel_rescan");
    push(5, "serve.recommends", recommends, "count", "higher");
    push(
        5,
        "serve.model_hit_ratio",
        ratio(count("serve.model_hit"), recommends),
        "ratio",
        "higher",
    );
    push(
        5,
        "serve.rescan_cache_hit_ratio",
        ratio(
            count("serve.cache_hit"),
            count("serve.cache_hit") + count("serve.kernel_rescan"),
        ),
        "ratio",
        "higher",
    );

    // fleet::pipeline
    push(
        6,
        "pipeline.busy_frac",
        ratio(counts.pipeline_busy_us as f64, counts.pipeline_capacity_us),
        "ratio",
        "higher",
    );
    push(
        6,
        "pipeline.queue_depth_max",
        counts.queue_depth_max as f64,
        "count",
        "lower",
    );
    push(
        6,
        "serve.singleflight_waits",
        counts.singleflight_waits as f64,
        "count",
        "lower",
    );

    // trace
    let roots: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| (s.start_ns, s.end_ns))
        .collect();
    push(7, "trace.spans", spans.len() as f64, "count", "higher");
    push(
        7,
        "trace_overhead_frac",
        ratio(spans.len() as f64 * span_cost_ns, wall),
        "ratio",
        "lower",
    );
    push(
        7,
        "trace_coverage_frac",
        ratio(trace::union_ns(roots) as f64, wall),
        "ratio",
        "higher",
    );
    rows
}

/// The per-layer table a traced run prints.
#[must_use]
pub fn table(workload: &str, rows: &[Row], absent: &[&str]) -> String {
    let mut out = format!("per-layer metrics, traced run of {workload}\n");
    for (layer, (title, moves)) in LAYERS.iter().enumerate() {
        let _ = writeln!(out, "  {title}  (moves: {moves})");
        let layer_rows: Vec<&Row> = rows.iter().filter(|r| r.layer == layer).collect();
        if layer_rows.iter().all(|r| r.value == 0.0) {
            let _ = writeln!(out, "    not called by this workload");
            continue;
        }
        for row in layer_rows {
            let _ = writeln!(out, "    {:<36} {:>16.6} {}", row.name, row.value, row.unit);
        }
    }
    if !absent.is_empty() {
        let _ = writeln!(
            out,
            "  absent core counters (rows read 0): {}",
            absent.join(", ")
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_from_spans_and_counters() {
        let span = |name, start_ns, end_ns, parent| Span {
            name,
            start_ns,
            end_ns,
            parent,
            request_id: 0,
        };
        let spans = vec![
            span("core.sweep", 0, 1000, None),
            span("core.point.safe", 100, 300, Some(0)),
            span("core.point.dense", 300, 900, Some(0)),
            span("serve.kernel_rescan", 1000, 1500, None),
            span("serve.cache_hit", 1500, 1600, None),
            span("serve.cache_hit", 1600, 1700, None),
        ];
        let mut counts = LayerCounts::default();
        let snapshot = serde::Value::Object(vec![
            ("tile_cache_hits".into(), serde::Value::U64(3)),
            ("tile_cache_misses".into(), serde::Value::U64(1)),
        ]);
        counts.add_core_snapshot(&snapshot);
        let rows = rows(&spans, 2000, &counts, 0.0);
        let value = |name: &str| rows.iter().find(|r| r.name == name).unwrap().value;
        assert_eq!(value("core.point.between_s"), 200e-9);
        assert_eq!(value("core.point.between_frac"), 0.1);
        assert_eq!(value("faults.tile_cache_hit_ratio"), 0.75);
        assert_eq!(value("serve.cache_hit.count"), 2.0);
        assert_eq!(value("serve.rescan_cache_hit_ratio"), 2.0 / 3.0);
        assert_eq!(value("trace_coverage_frac"), 0.85);
        assert_eq!(value("fleet.sweep.idle_frac"), 0.0);
        assert!(counts.absent().contains(&"words_scanned"));
        let names: BTreeSet<&str> = rows.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names.len(), rows.len(), "row names are unique");
    }
}
