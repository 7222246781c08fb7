//! Structured telemetry for sweep campaigns: typed events, counters and
//! histograms, and pluggable sinks.
//!
//! Long undervolting campaigns used to be a black box while they ran —
//! retries, power cycles and checkpoint writes happened silently, and the
//! kernel's cache behaviour was invisible. This module gives every runtime
//! layer one structured outlet:
//!
//! - [`TelemetryEvent`]: the typed event vocabulary (sweep/point lifecycle,
//!   retries, crashes, power cycles, checkpoints, quarantines, worker
//!   shards, power measurements);
//! - [`Observer`]: the sink trait — receives every [`TraceRecord`] plus a
//!   final [`MetricsSnapshot`];
//! - [`Telemetry`]: the hub the runtimes emit into — fan-out to observers
//!   plus a [`Metrics`] counter registry;
//! - [`JsonlSink`]: a machine-readable JSON-lines trace writer;
//! - [`ProgressSink`]: a human-readable progress log.
//!
//! # Determinism
//!
//! The event *stream* is deterministic: emission happens in the supervisor
//! and engine control flow, which is invariant under the worker count, and
//! timestamps come from the run's [`Clock`](crate::Clock) — so a fixed
//! seed produces a byte-identical JSONL trace at 1, 2 or 4 workers
//! (enforced by `tests/telemetry_determinism.rs`). Scheduling-dependent
//! measurements (tile-cache hit/miss counts, wall-time histograms) live
//! only in the [`Metrics`] registry, never in the trace.
//!
//! # Examples
//!
//! ```
//! use hbm_undervolt::telemetry::{JsonlSink, SharedBuffer, Telemetry};
//! use hbm_undervolt::SweepConfig;
//!
//! # fn main() -> Result<(), hbm_undervolt::ExperimentError> {
//! let buffer = SharedBuffer::new();
//! let telemetry = Telemetry::new().with_observer(Box::new(JsonlSink::new(buffer.clone())));
//! SweepConfig::quick().run_observed(&telemetry)?;
//! telemetry.finish();
//! assert!(buffer.contents().contains("SweepCompleted"));
//! # Ok(())
//! # }
//! ```

use std::fmt;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use hbm_units::Millivolts;
use serde::{Deserialize, Serialize};

/// Number of log₂ buckets in the wall-time histogram: bucket `i > 0` counts
/// durations whose bit length is `i` (i.e. in `[2^(i−1), 2^i)` ms), bucket
/// 0 counts zero-length durations, and the last bucket absorbs everything
/// longer.
pub const WALL_HISTOGRAM_BUCKETS: usize = 16;

/// One line of a telemetry trace: a monotonically increasing sequence
/// number, a clock stamp, and the typed event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceRecord {
    /// Emission order within the run (0-based, gap-free).
    pub seq: u64,
    /// The run clock's `now_ms` reading when the event was emitted
    /// (zeroed by [`JsonlSink::diffable`] so traces stay comparable
    /// across runs on the real wall clock).
    pub t_ms: u64,
    /// What happened.
    pub event: TelemetryEvent,
}

/// The typed event vocabulary of the sweep runtimes.
///
/// Every variant is scheduling-invariant: for a fixed seed and
/// configuration the same events are emitted in the same order at every
/// engine worker count.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TelemetryEvent {
    /// A sweep campaign began.
    SweepStarted {
        /// The experiment kind (`"supervised-sweep"`, `"reliability"`,
        /// `"power-sweep"`).
        experiment: String,
        /// The platform seed.
        seed: u64,
        /// Points the sweep will measure (voltages, or voltage × port
        /// steps for a power sweep).
        points: u64,
        /// The sweep's first (highest) voltage, in millivolts.
        from_mv: u32,
        /// The sweep's last (lowest) voltage, in millivolts.
        to_mv: u32,
    },
    /// An attempt at one voltage point began.
    PointStarted {
        /// The swept voltage, in millivolts.
        voltage_mv: u32,
        /// 1-based attempt number at this voltage.
        attempt: u32,
    },
    /// A voltage point completed (possibly as a genuine cliff crash).
    PointCompleted {
        /// The swept voltage, in millivolts.
        voltage_mv: u32,
        /// The attempt that completed it (1 = first try).
        attempt: u32,
        /// Whether the device crashed at this voltage (no data collected).
        crashed: bool,
        /// Total mean fault count across patterns (0 for crashed points).
        mean_faults: f64,
    },
    /// A voltage point was abandoned after exhausting its retry budget (or
    /// because every port in scope is quarantined).
    PointSkipped {
        /// The swept voltage, in millivolts.
        voltage_mv: u32,
        /// Attempts spent before giving up.
        attempts: u32,
        /// The last failure before giving up.
        reason: String,
    },
    /// A transient failure scheduled a backoff wait and re-attempt.
    RetryScheduled {
        /// The swept voltage, in millivolts.
        voltage_mv: u32,
        /// The attempt that failed (1-based).
        attempt: u32,
        /// The backoff wait before the next attempt, in milliseconds.
        delay_ms: u64,
        /// Why the attempt failed.
        reason: String,
    },
    /// The device crashed.
    DeviceCrashed {
        /// The swept voltage, in millivolts.
        voltage_mv: u32,
        /// The attempt during which the crash happened (1-based).
        attempt: u32,
        /// `true` for a transient crash at or above the crash floor (the
        /// supervisor retries it), `false` for the physical cliff below
        /// the floor (an expected measurement).
        transient: bool,
    },
    /// The platform was power-cycled to recover from a crash.
    PowerCycled {
        /// The supply the device restarted at, in millivolts.
        restart_mv: u32,
        /// The platform's cumulative power-cycle count after this cycle.
        cycle: u32,
    },
    /// A checkpoint file was durably replaced.
    CheckpointWritten {
        /// The checkpoint path.
        path: String,
        /// Bytes written.
        bytes: u64,
        /// Completed points recorded in the file.
        points: u64,
    },
    /// A port was removed from the active sweep set.
    PortQuarantined {
        /// The quarantined AXI port (= pseudo-channel index).
        port: u8,
        /// The sweep voltage at which the failure surfaced, in millivolts.
        voltage_mv: u32,
        /// The device error that triggered the quarantine.
        reason: String,
    },
    /// One port's shard of an engine batch finished. Emitted per logical
    /// pseudo-channel shard in port order after the batch joins, so the
    /// stream is identical at every worker count.
    WorkerShardDone {
        /// The AXI port the shard covered.
        port: u8,
        /// Logical words the shard processed (writes plus read-checks for
        /// traffic batches, words checked for mask builds).
        words: u64,
    },
    /// One point of a power sweep was measured.
    PowerMeasured {
        /// The supply voltage, in millivolts.
        voltage_mv: u32,
        /// Enabled AXI ports during the measurement.
        ports: u64,
        /// The measured power, in watts.
        watts: f64,
    },
    /// A sweep campaign finished.
    SweepCompleted {
        /// Points that completed with data.
        completed: u64,
        /// Points recorded as skipped.
        skipped: u64,
        /// Ports quarantined over the campaign.
        quarantined: u64,
    },
}

/// A telemetry sink: receives every emitted [`TraceRecord`] and, once per
/// run via [`Telemetry::finish`], the final [`MetricsSnapshot`].
pub trait Observer: Send {
    /// Called for every emitted event, in emission order.
    fn on_event(&mut self, record: &TraceRecord);

    /// Called with the counter registry's final snapshot.
    fn on_metrics(&mut self, _snapshot: &MetricsSnapshot) {}
}

/// The telemetry hub: fans emitted events out to its observers and owns
/// the [`Metrics`] counter registry.
///
/// A `Telemetry` with no observers is free to thread everywhere: events
/// are dropped without being constructed into records, and
/// [`Telemetry::disabled`] provides a shared inert instance for the
/// unobserved entry points.
pub struct Telemetry {
    observers: Mutex<Vec<Box<dyn Observer>>>,
    metrics: Metrics,
    seq: AtomicU64,
}

impl Telemetry {
    /// A hub with no observers and zeroed counters.
    #[must_use]
    pub const fn new() -> Self {
        Telemetry {
            observers: Mutex::new(Vec::new()),
            metrics: Metrics::new(),
            seq: AtomicU64::new(0),
        }
    }

    /// A shared inert hub for the unobserved code paths: no observers can
    /// ever be attached, so every emit is a cheap no-op.
    #[must_use]
    pub fn disabled() -> &'static Telemetry {
        static DISABLED: Telemetry = Telemetry::new();
        &DISABLED
    }

    /// Builder-style observer attachment.
    #[must_use]
    pub fn with_observer(mut self, observer: Box<dyn Observer>) -> Self {
        self.add_observer(observer);
        self
    }

    /// Attaches an observer.
    pub fn add_observer(&mut self, observer: Box<dyn Observer>) {
        self.observers
            .get_mut()
            .expect("observer list poisoned")
            .push(observer);
    }

    /// `true` if at least one observer is attached.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        !self
            .observers
            .lock()
            .expect("observer list poisoned")
            .is_empty()
    }

    /// The counter registry.
    #[must_use]
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Emits an event with a zero clock stamp (for contexts without a
    /// [`Clock`](crate::Clock)).
    pub fn emit(&self, event: TelemetryEvent) {
        self.emit_at(0, event);
    }

    /// Emits an event stamped with a clock reading. The sequence number is
    /// assigned under the observer lock, so concurrent emitters still
    /// produce a gap-free, order-consistent stream.
    pub fn emit_at(&self, t_ms: u64, event: TelemetryEvent) {
        let mut observers = self.observers.lock().expect("observer list poisoned");
        if observers.is_empty() {
            return;
        }
        let record = TraceRecord {
            seq: self.seq.fetch_add(1, Ordering::SeqCst),
            t_ms,
            event,
        };
        for observer in observers.iter_mut() {
            observer.on_event(&record);
        }
    }

    /// Delivers the final [`MetricsSnapshot`] to every observer (and lets
    /// buffered sinks flush). Call once, after the observed run finishes.
    pub fn finish(&self) {
        let snapshot = self.metrics.snapshot();
        for observer in self
            .observers
            .lock()
            .expect("observer list poisoned")
            .iter_mut()
        {
            observer.on_metrics(&snapshot);
        }
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::new()
    }
}

impl fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Telemetry")
            .field(
                "observers",
                &self.observers.lock().map(|o| o.len()).unwrap_or(0),
            )
            .field("metrics", &self.metrics)
            .field("seq", &self.seq.load(Ordering::SeqCst))
            .finish()
    }
}

/// The counter/histogram registry: cheap atomic counters the runtimes
/// update in place, snapshotted once at the end of a run.
///
/// Unlike the event stream, these aggregates may be scheduling-dependent
/// (the devices a fleet worker steals depend on which worker finished
/// first), which is exactly why they live here and not in the trace.
#[derive(Debug)]
pub struct Metrics {
    words_scanned: AtomicU64,
    masks_scanned: AtomicU64,
    checkpoints_written: AtomicU64,
    checkpoint_bytes: AtomicU64,
    retries: AtomicU64,
    retry_backoff_ms: AtomicU64,
    power_cycles: AtomicU64,
    devices_swept: AtomicU64,
    devices_stolen: AtomicU64,
    canary_passes: AtomicU64,
    governor_flip_trips: AtomicU64,
    governor_timing_trips: AtomicU64,
    artifact_bytes_written: AtomicU64,
    queries_served: AtomicU64,
    compressed_hits: AtomicU64,
    exact_rescans: AtomicU64,
    model_bytes: AtomicU64,
    serve_workers: AtomicU64,
    serve_queue_depth_max: AtomicU64,
    rescan_cache_hits: AtomicU64,
    kernel_rescans: AtomicU64,
    rescan_cache_evictions: AtomicU64,
    singleflight_waits: AtomicU64,
    point_wall_ms: Mutex<Histogram>,
    request_wall_us: Mutex<Histogram>,
}

impl Metrics {
    /// A zeroed registry.
    #[must_use]
    pub const fn new() -> Self {
        Metrics {
            words_scanned: AtomicU64::new(0),
            masks_scanned: AtomicU64::new(0),
            checkpoints_written: AtomicU64::new(0),
            checkpoint_bytes: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            retry_backoff_ms: AtomicU64::new(0),
            power_cycles: AtomicU64::new(0),
            devices_swept: AtomicU64::new(0),
            devices_stolen: AtomicU64::new(0),
            canary_passes: AtomicU64::new(0),
            governor_flip_trips: AtomicU64::new(0),
            governor_timing_trips: AtomicU64::new(0),
            artifact_bytes_written: AtomicU64::new(0),
            queries_served: AtomicU64::new(0),
            compressed_hits: AtomicU64::new(0),
            exact_rescans: AtomicU64::new(0),
            model_bytes: AtomicU64::new(0),
            serve_workers: AtomicU64::new(0),
            serve_queue_depth_max: AtomicU64::new(0),
            rescan_cache_hits: AtomicU64::new(0),
            kernel_rescans: AtomicU64::new(0),
            rescan_cache_evictions: AtomicU64::new(0),
            singleflight_waits: AtomicU64::new(0),
            point_wall_ms: Mutex::new(Histogram::new()),
            request_wall_us: Mutex::new(Histogram::new()),
        }
    }

    /// Records `n` word transactions (writes plus read-checks) scanned.
    pub fn add_words_scanned(&self, n: u64) {
        self.words_scanned.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` stuck-at mask evaluations performed.
    pub fn add_masks_scanned(&self, n: u64) {
        self.masks_scanned.fetch_add(n, Ordering::Relaxed);
    }

    /// Records one durably written checkpoint of `bytes` bytes.
    pub fn add_checkpoint(&self, bytes: u64) {
        self.checkpoints_written.fetch_add(1, Ordering::Relaxed);
        self.checkpoint_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Records one scheduled retry and its backoff wait.
    pub fn add_retry(&self, backoff_ms: u64) {
        self.retries.fetch_add(1, Ordering::Relaxed);
        self.retry_backoff_ms
            .fetch_add(backoff_ms, Ordering::Relaxed);
    }

    /// Records `n` power cycles.
    pub fn add_power_cycles(&self, n: u64) {
        self.power_cycles.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` fleet devices characterized.
    pub fn add_devices_swept(&self, n: u64) {
        self.devices_swept.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` fleet devices that migrated to another worker through
    /// a work steal. Scheduling-dependent by nature, hence a metric and
    /// never a trace event.
    pub fn add_devices_stolen(&self, n: u64) {
        self.devices_stolen.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` governor canary passes (one write/read-back sweep of
    /// every enabled port's canary region).
    pub fn add_canary_passes(&self, n: u64) {
        self.canary_passes.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` governor descents stopped by canary bit flips.
    pub fn add_governor_flip_trips(&self, n: u64) {
        self.governor_flip_trips.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` governor descents stopped by a timing constraint (a
    /// latency budget or a delivered-bandwidth target).
    pub fn add_governor_timing_trips(&self, n: u64) {
        self.governor_timing_trips.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` fleet-artifact bytes durably written.
    pub fn add_artifact_bytes_written(&self, n: u64) {
        self.artifact_bytes_written.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` fleet requests answered through the typed API.
    pub fn add_queries_served(&self, n: u64) {
        self.queries_served.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` recommendations answered purely from the compressed
    /// parametric models, with zero exact-column reads.
    pub fn add_compressed_hits(&self, n: u64) {
        self.compressed_hits.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` recommendations that needed exact evidence — a stored
    /// FAULTS column read or an on-demand kernel rescan.
    pub fn add_exact_rescans(&self, n: u64) {
        self.exact_rescans.fetch_add(n, Ordering::Relaxed);
    }

    /// Overwrites the loaded-MODEL-column size gauge: bytes of compressed
    /// model resident in the serving store.
    pub fn set_model_bytes(&self, n: u64) {
        self.model_bytes.store(n, Ordering::Relaxed);
    }

    /// Overwrites the serve-worker-count gauge: pipeline workers the
    /// serving session ran with.
    pub fn set_serve_workers(&self, n: u64) {
        self.serve_workers.store(n, Ordering::Relaxed);
    }

    /// Raises the serve queue-depth high-water mark (monotonic max).
    pub fn set_serve_queue_depth_max(&self, n: u64) {
        self.serve_queue_depth_max.fetch_max(n, Ordering::Relaxed);
    }

    /// Records `n` rescan-cache hits: recommend misses answered from a
    /// previously cached whole-row kernel rescan.
    pub fn add_rescan_cache_hits(&self, n: u64) {
        self.rescan_cache_hits.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` on-demand kernel rescans actually executed by the
    /// serving runtime (cache misses that led the single-flight group).
    pub fn add_kernel_rescans(&self, n: u64) {
        self.kernel_rescans.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` rescan-cache entries evicted to stay within the byte
    /// budget.
    pub fn add_rescan_cache_evictions(&self, n: u64) {
        self.rescan_cache_evictions.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` single-flight waits: requests that blocked on another
    /// worker's in-flight rescan instead of duplicating it.
    pub fn add_singleflight_waits(&self, n: u64) {
        self.singleflight_waits.fetch_add(n, Ordering::Relaxed);
    }

    /// Folds an externally accumulated per-request latency histogram
    /// (microsecond log₂ buckets, same shape as [`WallTimeStats`]) into
    /// the registry — the serving pipeline measures latencies itself and
    /// merges its totals here once per session.
    pub fn merge_request_wall_us(&self, count: u64, sum: u64, min: u64, max: u64, buckets: &[u64]) {
        self.request_wall_us
            .lock()
            .expect("histogram poisoned")
            .merge(count, sum, min, max, buckets);
    }

    /// Records one completed point attempt's wall time.
    pub fn record_point_wall_ms(&self, ms: u64) {
        self.point_wall_ms
            .lock()
            .expect("histogram poisoned")
            .record(ms);
    }

    /// A consistent copy of every counter and the wall-time histogram.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let wall = self.point_wall_ms.lock().expect("histogram poisoned");
        let request = self.request_wall_us.lock().expect("histogram poisoned");
        MetricsSnapshot {
            words_scanned: self.words_scanned.load(Ordering::Relaxed),
            masks_scanned: self.masks_scanned.load(Ordering::Relaxed),
            checkpoints_written: self.checkpoints_written.load(Ordering::Relaxed),
            checkpoint_bytes: self.checkpoint_bytes.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            retry_backoff_ms: self.retry_backoff_ms.load(Ordering::Relaxed),
            power_cycles: self.power_cycles.load(Ordering::Relaxed),
            devices_swept: self.devices_swept.load(Ordering::Relaxed),
            devices_stolen: self.devices_stolen.load(Ordering::Relaxed),
            canary_passes: self.canary_passes.load(Ordering::Relaxed),
            governor_flip_trips: self.governor_flip_trips.load(Ordering::Relaxed),
            governor_timing_trips: self.governor_timing_trips.load(Ordering::Relaxed),
            artifact_bytes_written: self.artifact_bytes_written.load(Ordering::Relaxed),
            queries_served: self.queries_served.load(Ordering::Relaxed),
            compressed_hits: self.compressed_hits.load(Ordering::Relaxed),
            exact_rescans: self.exact_rescans.load(Ordering::Relaxed),
            model_bytes: self.model_bytes.load(Ordering::Relaxed),
            serve_workers: self.serve_workers.load(Ordering::Relaxed),
            serve_queue_depth_max: self.serve_queue_depth_max.load(Ordering::Relaxed),
            rescan_cache_hits: self.rescan_cache_hits.load(Ordering::Relaxed),
            kernel_rescans: self.kernel_rescans.load(Ordering::Relaxed),
            rescan_cache_evictions: self.rescan_cache_evictions.load(Ordering::Relaxed),
            singleflight_waits: self.singleflight_waits.load(Ordering::Relaxed),
            point_wall_ms: wall.stats(),
            request_wall_us: request.stats(),
        }
    }
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics::new()
    }
}

/// A point-in-time copy of the [`Metrics`] registry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Word transactions (writes plus read-checks) scanned.
    pub words_scanned: u64,
    /// Stuck-at mask evaluations performed by the fault kernel.
    pub masks_scanned: u64,
    /// Checkpoints durably written.
    pub checkpoints_written: u64,
    /// Total checkpoint bytes written.
    pub checkpoint_bytes: u64,
    /// Retries scheduled after transient failures.
    pub retries: u64,
    /// Total backoff wait scheduled, in milliseconds.
    pub retry_backoff_ms: u64,
    /// Power cycles spent recovering the platform.
    pub power_cycles: u64,
    /// Fleet devices characterized.
    pub devices_swept: u64,
    /// Fleet devices that migrated to another worker through a work steal.
    pub devices_stolen: u64,
    /// Governor canary passes executed (all ports, both patterns).
    pub canary_passes: u64,
    /// Governor descents stopped by canary bit flips.
    pub governor_flip_trips: u64,
    /// Governor descents stopped by a latency budget or bandwidth target.
    pub governor_timing_trips: u64,
    /// Fleet-artifact bytes durably written.
    pub artifact_bytes_written: u64,
    /// Fleet requests answered through the typed API.
    pub queries_served: u64,
    /// Recommendations answered purely from compressed models.
    pub compressed_hits: u64,
    /// Recommendations that needed exact evidence (stored column or
    /// kernel rescan).
    pub exact_rescans: u64,
    /// Bytes of compressed MODEL column resident in the serving store.
    pub model_bytes: u64,
    /// Pipeline workers the serving session ran with (0 when no serve ran).
    pub serve_workers: u64,
    /// Highest number of requests simultaneously queued for the worker
    /// pool (serve pipeline back-pressure high-water mark).
    pub serve_queue_depth_max: u64,
    /// Recommend misses answered from a cached whole-row kernel rescan.
    pub rescan_cache_hits: u64,
    /// On-demand kernel rescans actually executed while serving.
    pub kernel_rescans: u64,
    /// Rescan-cache entries evicted to stay within the byte budget.
    pub rescan_cache_evictions: u64,
    /// Requests that blocked on another worker's in-flight rescan instead
    /// of duplicating it.
    pub singleflight_waits: u64,
    /// Per-point wall-time distribution.
    pub point_wall_ms: WallTimeStats,
    /// Per-request serve latency distribution. Unlike the other
    /// `WallTimeStats`, the unit is **microseconds** (sum/min/max and
    /// bucket boundaries alike) — serve requests are far shorter than
    /// sweep points.
    pub request_wall_us: WallTimeStats,
}

/// Summary statistics plus a log₂ histogram of per-point wall times.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WallTimeStats {
    /// Recorded attempts.
    pub count: u64,
    /// Sum of all recorded durations, in milliseconds.
    pub sum_ms: u64,
    /// Shortest recorded duration (0 when nothing was recorded).
    pub min_ms: u64,
    /// Longest recorded duration.
    pub max_ms: u64,
    /// [`WALL_HISTOGRAM_BUCKETS`] log₂ buckets: bucket `i > 0` counts
    /// durations in `[2^(i−1), 2^i)` ms, bucket 0 counts 0 ms attempts,
    /// the last bucket absorbs longer durations.
    pub log2_buckets: Vec<u64>,
}

/// The internal, lock-guarded histogram behind [`WallTimeStats`].
#[derive(Debug)]
struct Histogram {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: [u64; WALL_HISTOGRAM_BUCKETS],
}

impl Histogram {
    const fn new() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; WALL_HISTOGRAM_BUCKETS],
        }
    }

    fn record(&mut self, value: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        let bucket = (u64::BITS - value.leading_zeros()) as usize;
        self.buckets[bucket.min(WALL_HISTOGRAM_BUCKETS - 1)] += 1;
    }

    fn merge(&mut self, count: u64, sum: u64, min: u64, max: u64, buckets: &[u64]) {
        if count == 0 {
            return;
        }
        self.count += count;
        self.sum = self.sum.saturating_add(sum);
        self.min = self.min.min(min);
        self.max = self.max.max(max);
        for (slot, n) in self.buckets.iter_mut().zip(buckets) {
            *slot += n;
        }
    }

    fn stats(&self) -> WallTimeStats {
        WallTimeStats {
            count: self.count,
            sum_ms: self.sum,
            min_ms: if self.count == 0 { 0 } else { self.min },
            max_ms: self.max,
            log2_buckets: self.buckets.to_vec(),
        }
    }
}

/// A machine-readable trace sink: one compact JSON object per line, in
/// emission order.
///
/// Write failures are reported once to stderr and the sink goes inert —
/// telemetry must never abort a campaign that is otherwise healthy.
#[derive(Debug)]
pub struct JsonlSink<W> {
    writer: W,
    zero_timestamps: bool,
    failed: bool,
}

impl<W: Write + Send> JsonlSink<W> {
    /// A sink that writes records verbatim, clock stamps included.
    pub fn new(writer: W) -> Self {
        JsonlSink {
            writer,
            zero_timestamps: false,
            failed: false,
        }
    }

    /// A sink that zeroes the `t_ms` stamp of every record, so two runs of
    /// the same campaign on the real wall clock produce byte-identical
    /// traces (`hbmctl sweep --trace-file` uses this mode).
    pub fn diffable(writer: W) -> Self {
        JsonlSink {
            writer,
            zero_timestamps: true,
            failed: false,
        }
    }

    fn fail(&mut self, what: &str) {
        if !self.failed {
            eprintln!("telemetry: trace sink disabled: {what}");
        }
        self.failed = true;
    }
}

impl<W: Write + Send> Observer for JsonlSink<W> {
    fn on_event(&mut self, record: &TraceRecord) {
        if self.failed {
            return;
        }
        let record = if self.zero_timestamps {
            TraceRecord {
                t_ms: 0,
                ..record.clone()
            }
        } else {
            record.clone()
        };
        match serde_json::to_string(&record) {
            Ok(line) => {
                if let Err(e) = writeln!(self.writer, "{line}") {
                    self.fail(&e.to_string());
                }
            }
            Err(e) => self.fail(&e.to_string()),
        }
    }

    fn on_metrics(&mut self, _snapshot: &MetricsSnapshot) {
        // Counters are scheduling-dependent, so they stay out of the trace;
        // the snapshot is just the flush point for buffered writers.
        if self.writer.flush().is_err() && !self.failed {
            self.fail("flush failed");
        }
    }
}

/// A human-readable progress sink: one short line per lifecycle event,
/// plus a counter glossary from the final metrics snapshot.
#[derive(Debug)]
pub struct ProgressSink<W> {
    writer: W,
    points: u64,
    done: u64,
}

impl<W: Write + Send> ProgressSink<W> {
    /// A progress sink writing to `writer` (typically stderr).
    pub fn new(writer: W) -> Self {
        ProgressSink {
            writer,
            points: 0,
            done: 0,
        }
    }
}

impl<W: Write + Send> Observer for ProgressSink<W> {
    fn on_event(&mut self, record: &TraceRecord) {
        let out = &mut self.writer;
        let _ = match &record.event {
            TelemetryEvent::SweepStarted {
                experiment,
                seed,
                points,
                from_mv,
                to_mv,
            } => {
                self.points = *points;
                writeln!(
                    out,
                    "{experiment} (seed {seed}): {points} point(s), {} -> {}",
                    Millivolts(*from_mv),
                    Millivolts(*to_mv)
                )
            }
            TelemetryEvent::PointCompleted {
                voltage_mv,
                attempt,
                crashed,
                mean_faults,
            } => {
                self.done += 1;
                if *crashed {
                    writeln!(
                        out,
                        "[{}/{}] {}: crashed",
                        self.done,
                        self.points,
                        Millivolts(*voltage_mv)
                    )
                } else {
                    writeln!(
                        out,
                        "[{}/{}] {}: {mean_faults:.1} mean fault(s){}",
                        self.done,
                        self.points,
                        Millivolts(*voltage_mv),
                        if *attempt > 1 {
                            format!(" after {attempt} attempts")
                        } else {
                            String::new()
                        }
                    )
                }
            }
            TelemetryEvent::PointSkipped {
                voltage_mv,
                attempts,
                reason,
            } => {
                self.done += 1;
                writeln!(
                    out,
                    "[{}/{}] {}: skipped after {attempts} attempt(s): {reason}",
                    self.done,
                    self.points,
                    Millivolts(*voltage_mv)
                )
            }
            TelemetryEvent::RetryScheduled {
                voltage_mv,
                attempt,
                delay_ms,
                reason,
            } => writeln!(
                out,
                "{}: attempt {attempt} failed ({reason}); retrying in {delay_ms} ms",
                Millivolts(*voltage_mv)
            ),
            TelemetryEvent::PortQuarantined {
                port,
                voltage_mv,
                reason,
            } => writeln!(
                out,
                "quarantined port {port} at {}: {reason}",
                Millivolts(*voltage_mv)
            ),
            TelemetryEvent::CheckpointWritten {
                path,
                bytes,
                points,
            } => {
                writeln!(out, "checkpoint {path}: {points} point(s), {bytes} B")
            }
            TelemetryEvent::SweepCompleted {
                completed,
                skipped,
                quarantined,
            } => writeln!(
                out,
                "done: {completed} completed, {skipped} skipped, {quarantined} port(s) quarantined"
            ),
            // Per-attempt, per-shard and per-measurement events are too
            // chatty for a progress log; the JSONL trace has them all.
            TelemetryEvent::PointStarted { .. }
            | TelemetryEvent::DeviceCrashed { .. }
            | TelemetryEvent::PowerCycled { .. }
            | TelemetryEvent::WorkerShardDone { .. }
            | TelemetryEvent::PowerMeasured { .. } => Ok(()),
        };
    }

    fn on_metrics(&mut self, snapshot: &MetricsSnapshot) {
        let out = &mut self.writer;
        let _ = writeln!(
            out,
            "counters: {} words scanned, {} masks scanned, \
             {} retry(s) ({} ms backoff), {} power cycle(s), {} checkpoint(s) ({} B)",
            snapshot.words_scanned,
            snapshot.masks_scanned,
            snapshot.retries,
            snapshot.retry_backoff_ms,
            snapshot.power_cycles,
            snapshot.checkpoints_written,
            snapshot.checkpoint_bytes,
        );
        if snapshot.canary_passes > 0 {
            let _ = writeln!(
                out,
                "governor: {} canary pass(es), {} flip trip(s), {} timing trip(s)",
                snapshot.canary_passes,
                snapshot.governor_flip_trips,
                snapshot.governor_timing_trips,
            );
        }
        if snapshot.point_wall_ms.count > 0 {
            let wall = &snapshot.point_wall_ms;
            let _ = writeln!(
                out,
                "point wall time: {} attempt(s), min {} ms, max {} ms, total {} ms",
                wall.count, wall.min_ms, wall.max_ms, wall.sum_ms
            );
        }
        if snapshot.queries_served > 0 {
            let _ = writeln!(
                out,
                "serving: {} query(s) at {} worker(s), queue depth max {}, \
                 rescan cache {}/{} hit/rescan, {} eviction(s), {} single-flight wait(s)",
                snapshot.queries_served,
                snapshot.serve_workers,
                snapshot.serve_queue_depth_max,
                snapshot.rescan_cache_hits,
                snapshot.kernel_rescans,
                snapshot.rescan_cache_evictions,
                snapshot.singleflight_waits,
            );
            if snapshot.request_wall_us.count > 0 {
                let wall = &snapshot.request_wall_us;
                let _ = writeln!(
                    out,
                    "request wall time: {} request(s), min {} us, max {} us, total {} us",
                    wall.count, wall.min_ms, wall.max_ms, wall.sum_ms
                );
            }
        }
        let _ = out.flush();
    }
}

/// A cloneable in-memory `Write` target for tests and examples: every
/// clone appends to the same shared buffer.
#[derive(Debug, Clone, Default)]
pub struct SharedBuffer(Arc<Mutex<Vec<u8>>>);

impl SharedBuffer {
    /// An empty buffer.
    #[must_use]
    pub fn new() -> Self {
        SharedBuffer::default()
    }

    /// Everything written so far, as UTF-8.
    ///
    /// # Panics
    ///
    /// Panics if non-UTF-8 bytes were written (the telemetry sinks only
    /// write UTF-8).
    #[must_use]
    pub fn contents(&self) -> String {
        String::from_utf8(self.0.lock().expect("buffer poisoned").clone())
            .expect("telemetry sinks write UTF-8")
    }
}

impl Write for SharedBuffer {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0
            .lock()
            .expect("buffer poisoned")
            .extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_round_trip_through_json() {
        let record = TraceRecord {
            seq: 3,
            t_ms: 120,
            event: TelemetryEvent::RetryScheduled {
                voltage_mv: 840,
                attempt: 2,
                delay_ms: 100,
                reason: "device crashed".to_owned(),
            },
        };
        let json = serde_json::to_string(&record).unwrap();
        assert!(json.contains("RetryScheduled"), "{json}");
        let back: TraceRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(back, record);
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_event_in_seq_order() {
        let buffer = SharedBuffer::new();
        let telemetry = Telemetry::new().with_observer(Box::new(JsonlSink::new(buffer.clone())));
        telemetry.emit_at(
            5,
            TelemetryEvent::PowerCycled {
                restart_mv: 1200,
                cycle: 1,
            },
        );
        telemetry.emit(TelemetryEvent::SweepCompleted {
            completed: 2,
            skipped: 0,
            quarantined: 0,
        });
        telemetry.finish();
        let contents = buffer.contents();
        let lines: Vec<&str> = contents.lines().collect();
        assert_eq!(lines.len(), 2, "{contents}");
        assert!(lines[0].contains("\"seq\": 0") || lines[0].contains("\"seq\":0"));
        assert!(lines[0].contains("PowerCycled"));
        assert!(lines[1].contains("SweepCompleted"));
    }

    #[test]
    fn diffable_sink_zeroes_timestamps() {
        let buffer = SharedBuffer::new();
        let telemetry =
            Telemetry::new().with_observer(Box::new(JsonlSink::diffable(buffer.clone())));
        telemetry.emit_at(
            987,
            TelemetryEvent::PointStarted {
                voltage_mv: 900,
                attempt: 1,
            },
        );
        assert!(!buffer.contents().contains("987"), "{}", buffer.contents());
    }

    #[test]
    fn disabled_hub_drops_events_and_stays_shared() {
        let telemetry = Telemetry::disabled();
        assert!(!telemetry.is_enabled());
        telemetry.emit(TelemetryEvent::SweepCompleted {
            completed: 0,
            skipped: 0,
            quarantined: 0,
        });
        // Counters still work (they are just never read for disabled runs).
        telemetry.metrics().add_words_scanned(1);
    }

    #[test]
    fn metrics_snapshot_aggregates_counters_and_histogram() {
        let metrics = Metrics::new();
        metrics.add_words_scanned(100);
        metrics.add_masks_scanned(40);
        metrics.add_checkpoint(512);
        metrics.add_checkpoint(256);
        metrics.add_retry(50);
        metrics.add_retry(100);
        metrics.add_power_cycles(3);
        metrics.record_point_wall_ms(0);
        metrics.record_point_wall_ms(3);
        metrics.record_point_wall_ms(1_000_000);
        let snap = metrics.snapshot();
        assert_eq!(snap.words_scanned, 100);
        assert_eq!(snap.masks_scanned, 40);
        assert_eq!(snap.checkpoints_written, 2);
        assert_eq!(snap.checkpoint_bytes, 768);
        assert_eq!(snap.retries, 2);
        assert_eq!(snap.retry_backoff_ms, 150);
        assert_eq!(snap.power_cycles, 3);
        let wall = &snap.point_wall_ms;
        assert_eq!(wall.count, 3);
        assert_eq!(wall.min_ms, 0);
        assert_eq!(wall.max_ms, 1_000_000);
        assert_eq!(wall.log2_buckets.len(), WALL_HISTOGRAM_BUCKETS);
        assert_eq!(wall.log2_buckets[0], 1, "0 ms lands in bucket 0");
        assert_eq!(wall.log2_buckets[2], 1, "3 ms lands in bucket 2");
        assert_eq!(
            wall.log2_buckets[WALL_HISTOGRAM_BUCKETS - 1],
            1,
            "overlong durations land in the last bucket"
        );
        // An empty histogram normalizes min to 0.
        assert_eq!(Metrics::new().snapshot().point_wall_ms.min_ms, 0);
    }

    #[test]
    fn progress_sink_renders_lifecycle_lines() {
        let buffer = SharedBuffer::new();
        let telemetry = Telemetry::new().with_observer(Box::new(ProgressSink::new(buffer.clone())));
        telemetry.emit(TelemetryEvent::SweepStarted {
            experiment: "supervised-sweep".to_owned(),
            seed: 7,
            points: 2,
            from_mv: 900,
            to_mv: 890,
        });
        telemetry.emit(TelemetryEvent::PointCompleted {
            voltage_mv: 900,
            attempt: 1,
            crashed: false,
            mean_faults: 12.0,
        });
        telemetry.emit(TelemetryEvent::PointSkipped {
            voltage_mv: 890,
            attempts: 4,
            reason: "gave up".to_owned(),
        });
        telemetry.finish();
        let contents = buffer.contents();
        assert!(
            contents.contains("supervised-sweep (seed 7): 2 point(s)"),
            "{contents}"
        );
        assert!(contents.contains("[1/2] 0.900 V: 12.0"), "{contents}");
        assert!(contents.contains("[2/2] 0.890 V: skipped"), "{contents}");
        assert!(contents.contains("counters:"), "{contents}");
    }
}
