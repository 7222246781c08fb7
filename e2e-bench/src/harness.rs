//! What every workload shares: the set-up timer, the measuring window and
//! the outcome a workload hands back.

use std::time::Instant;

use crate::layers::LayerCounts;
use crate::stats::{self, Digest};

/// The end-to-end metrics, by name and unit, in the order they print.
/// `BENCHMARK.json` lists the same names and units.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: repetitions, devices or request lines.
    pub attempted: u64,
    /// Operations whose output failed a check.
    pub failed: u64,
    /// Why operations failed (first few), for the log.
    pub problems: Vec<String>,
    /// FNV-1a over the checked outputs of the run's first units of work.
    pub digest: Digest,
    /// Set-up time: [`SetupTimes::fastest`].
    pub setup_s: f64,
    /// Work completed per second of measuring.
    pub ops_per_s: f64,
    /// Per-operation latencies in ms (unsorted).
    pub latencies_ms: Vec<f64>,
    /// Extra members of the detail line: `(key, raw JSON value)`.
    pub details: Vec<(&'static str, String)>,
    /// Host time the traced phases (set-up and measuring) took.
    pub traced_ns: u64,
    /// Counters the traced run collected beside its spans.
    pub layers: LayerCounts,
}

impl Outcome {
    /// Counts `ops` attempted operations of which `failed` failed.
    pub fn tally(&mut self, ops: u64, failed: u64, why: impl FnOnce() -> String) {
        self.attempted += ops;
        self.failed += failed;
        if failed > 0 && self.problems.len() < 8 {
            self.problems.push(why());
        }
    }

    pub fn detail(&mut self, key: &'static str, json: impl ToString) {
        self.details.push((key, json.to_string()));
    }

    /// The end-to-end metric values, in [`END_TO_END`] order.
    #[must_use]
    pub fn end_to_end(&self, peak_rss_mib: f64) -> [f64; 5] {
        let latencies = stats::sorted(self.latencies_ms.clone());
        [
            self.setup_s,
            self.ops_per_s,
            stats::percentile(&latencies, 0.50),
            stats::tail(&latencies),
            peak_rss_mib,
        ]
    }
}

/// Set-up times sampled through a run; `setup_s` is the
/// [`SetupTimes::fastest`]. Samples taken between units of work spread
/// over the whole run.
#[derive(Debug, Default)]
pub struct SetupTimes(Vec<f64>);

impl SetupTimes {
    /// Takes `samples` samples (at least one) of the mean time of `batch`
    /// back-to-back set-ups, and returns the last set-up's result. A batch
    /// times a set-up of microseconds over about a millisecond.
    pub fn sample<T>(&mut self, samples: usize, batch: usize, mut setup: impl FnMut() -> T) -> T {
        let batch = batch.max(1);
        let mut last = None;
        for _ in 0..samples.max(1) {
            let start = Instant::now();
            for _ in 1..batch {
                std::hint::black_box(setup());
            }
            let result = setup();
            self.0.push(start.elapsed().as_secs_f64() / batch as f64);
            last = Some(result);
        }
        last.expect("the set-up ran at least once")
    }

    /// The fastest sample. A set-up is a fixed amount of work, and on a
    /// shared host other tenants' load comes in phases of seconds to
    /// minutes that stretch it by up to about 1.8×. The median moves with
    /// the share of a run those phases cover; the fastest sample reads the
    /// set-up whenever any sample falls in a calm moment.
    #[must_use]
    pub fn fastest(&self) -> f64 {
        self.0.iter().copied().fold(f64::INFINITY, f64::min)
    }
}

/// Whether another unit of work fits the measuring window: always until
/// `min` units ran, then while a unit of the mean length so far still ends
/// inside the window.
#[must_use]
pub fn another(started: Instant, window_s: f64, done: usize, min: usize) -> bool {
    if done < min {
        return true;
    }
    let elapsed = started.elapsed().as_secs_f64();
    elapsed + elapsed / done as f64 <= window_s
}
