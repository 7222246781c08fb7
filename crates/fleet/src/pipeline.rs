//! The concurrent serving runtime: a bounded multi-worker request
//! pipeline whose output byte stream is **identical to sequential
//! serving for every worker count**, plus the single-flight rescan cache
//! that keeps concurrent envelope misses from stampeding the kernel.
//!
//! # Pipeline shape
//!
//! ```text
//!            bounded queue                reorder buffer
//! reader ──▶ (seq, line) ──▶ worker ×N ──▶ (seq, json) ──▶ emitter ──▶ output
//!  tags           │             │                │            orders by seq,
//!  lines      blocks when   handle_line      BTreeMap,       writes + flushes
//!  with seq   full (back-   in parallel      workers may     one line at a
//!             pressure)                      finish out      time
//!                                            of order
//! ```
//!
//! The reader runs on the caller's thread: it tags every non-blank input
//! line with a sequence number and pushes it into a bounded queue
//! (capacity `4 × workers`, so a slow worker back-pressures the reader
//! instead of buffering the whole input). A [`std::thread::scope`] worker
//! pool pops lines, answers them through the same
//! `FleetService::handle_line` funnel the sequential loop uses, and
//! inserts the serialized responses into a reorder buffer. A dedicated
//! emitter thread drains that buffer strictly in sequence order, flushing
//! after **every** line so request/reply clients over a pipe never block
//! behind a buffered writer.
//!
//! # Why the bytes cannot drift
//!
//! Every response is a pure function of its request line and the loaded
//! store: the caches below are *deterministic* (they memoize pure
//! computations, never approximate them), counters do not feed back into
//! answers, and the emitter re-serializes strictly by sequence number.
//! Scheduling can only change *when* a response is computed, never *what*
//! it says or *where* it lands in the stream — the property the
//! `serve_pipeline` proptest pins across worker counts and shuffled
//! completion orders.
//!
//! # The single-flight rescan cache
//!
//! A model-only store answers an envelope-abstaining `Recommend` by
//! re-deriving the device's exact fault-count row with the kernel's count
//! descent — by far the most expensive operation the service performs.
//! [`RescanCache`] memoizes those rows per device (one kernel pass
//! derives the counts for **all** knots at once, so the device row is the
//! natural cache unit rather than a single `(device, knot)` cell) under
//! an LRU byte budget, and deduplicates concurrent misses: the first
//! requester becomes the flight leader and runs the kernel, every
//! concurrent requester for the same device blocks on the in-flight
//! result instead of rescanning — N identical concurrent misses perform
//! exactly one kernel rescan.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{BufRead, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use serde::{Deserialize, Serialize};

use crate::api::ApiError;
use crate::config::FleetError;
use crate::serve::{FleetService, ServeStats};

/// Log₂ buckets in a [`LatencyStats`] histogram.
pub const LATENCY_BUCKETS: usize = 16;

/// Options for [`serve_concurrent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineOptions {
    /// Worker threads answering requests in parallel. Clamped to ≥ 1.
    pub workers: usize,
    /// Deterministic completion-order jitter for tests: when set, each
    /// worker sleeps a pseudo-random (seed, sequence)-hashed 0–2 ms before
    /// handing its response to the emitter, shuffling completion order
    /// without touching response bytes. Production callers leave this
    /// `None`.
    pub completion_jitter: Option<u64>,
}

impl Default for PipelineOptions {
    fn default() -> Self {
        PipelineOptions {
            workers: 1,
            completion_jitter: None,
        }
    }
}

/// Per-request wall-time distribution in microseconds, measured from a
/// worker popping the line to its response being serialized.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LatencyStats {
    /// Requests measured.
    pub count: u64,
    /// Sum of all request latencies, in microseconds.
    pub sum_us: u64,
    /// Fastest request (0 when nothing was measured).
    pub min_us: u64,
    /// Slowest request.
    pub max_us: u64,
    /// [`LATENCY_BUCKETS`] log₂ buckets: bucket `i > 0` counts latencies
    /// in `[2^(i−1), 2^i)` µs, bucket 0 counts sub-microsecond requests,
    /// the last bucket absorbs longer ones.
    pub log2_buckets: Vec<u64>,
}

/// Session stats returned by [`serve_concurrent`]: the service counters
/// plus the pipeline's own runtime accounting.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct PipelineStats {
    /// The service counters, identical in meaning to sequential serving.
    pub serve: ServeStats,
    /// Worker threads the session ran with.
    pub workers: usize,
    /// High-water mark of the bounded request queue — how far the reader
    /// ran ahead of the slowest worker before back-pressure engaged.
    pub queue_depth_max: u64,
    /// Per-request latency distribution.
    pub latency: LatencyStats,
}

/// The internal latency histogram behind [`LatencyStats`].
#[derive(Debug)]
struct LatencyHist {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: [u64; LATENCY_BUCKETS],
}

impl LatencyHist {
    const fn new() -> Self {
        LatencyHist {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; LATENCY_BUCKETS],
        }
    }

    fn record(&mut self, us: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(us);
        self.min = self.min.min(us);
        self.max = self.max.max(us);
        let bucket = (u64::BITS - us.leading_zeros()) as usize;
        self.buckets[bucket.min(LATENCY_BUCKETS - 1)] += 1;
    }

    fn stats(&self) -> LatencyStats {
        LatencyStats {
            count: self.count,
            sum_us: self.sum,
            min_us: if self.count == 0 { 0 } else { self.min },
            max_us: self.max,
            log2_buckets: self.buckets.to_vec(),
        }
    }
}

/// The bounded reader→worker queue.
#[derive(Debug)]
struct RequestQueue {
    state: Mutex<QueueState>,
    not_full: Condvar,
    not_empty: Condvar,
    capacity: usize,
}

#[derive(Debug)]
struct QueueState {
    items: VecDeque<(u64, String)>,
    closed: bool,
    high_water: u64,
}

impl RequestQueue {
    fn new(capacity: usize) -> Self {
        RequestQueue {
            state: Mutex::new(QueueState {
                items: VecDeque::new(),
                closed: false,
                high_water: 0,
            }),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Blocks while the queue is full (back-pressure on the reader).
    fn push(&self, seq: u64, line: String) {
        let mut state = self.state.lock().expect("request queue poisoned");
        while state.items.len() >= self.capacity {
            state = self.not_full.wait(state).expect("request queue poisoned");
        }
        state.items.push_back((seq, line));
        state.high_water = state.high_water.max(state.items.len() as u64);
        self.not_empty.notify_one();
    }

    fn close(&self) {
        self.state.lock().expect("request queue poisoned").closed = true;
        self.not_empty.notify_all();
    }

    /// `None` once the queue is both drained and closed.
    fn pop(&self) -> Option<(u64, String)> {
        let mut state = self.state.lock().expect("request queue poisoned");
        loop {
            if let Some(item) = state.items.pop_front() {
                self.not_full.notify_one();
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self.not_empty.wait(state).expect("request queue poisoned");
        }
    }

    fn high_water(&self) -> u64 {
        self.state
            .lock()
            .expect("request queue poisoned")
            .high_water
    }
}

/// The worker→emitter reorder buffer: responses keyed by sequence number,
/// drained strictly in order.
#[derive(Debug)]
struct Reorder {
    state: Mutex<ReorderState>,
    ready: Condvar,
}

#[derive(Debug)]
struct ReorderState {
    next: u64,
    pending: BTreeMap<u64, Result<String, ApiError>>,
    /// Total sequence numbers assigned, set by the reader at EOF; the
    /// emitter is done when `next` reaches it.
    total: Option<u64>,
}

impl Reorder {
    fn new() -> Self {
        Reorder {
            state: Mutex::new(ReorderState {
                next: 0,
                pending: BTreeMap::new(),
                total: None,
            }),
            ready: Condvar::new(),
        }
    }

    fn push(&self, seq: u64, response: Result<String, ApiError>) {
        self.state
            .lock()
            .expect("reorder buffer poisoned")
            .pending
            .insert(seq, response);
        self.ready.notify_all();
    }

    fn set_total(&self, total: u64) {
        self.state.lock().expect("reorder buffer poisoned").total = Some(total);
        self.ready.notify_all();
    }

    /// The next in-order response; `None` once every assigned sequence
    /// number has been emitted.
    fn next_in_order(&self) -> Option<Result<String, ApiError>> {
        let mut state = self.state.lock().expect("reorder buffer poisoned");
        loop {
            let next = state.next;
            if let Some(response) = state.pending.remove(&next) {
                state.next += 1;
                return Some(response);
            }
            if state.total == Some(next) {
                return None;
            }
            state = self.ready.wait(state).expect("reorder buffer poisoned");
        }
    }
}

/// SplitMix64 finalizer — the jitter hash for shuffled completion orders.
fn jitter_ns(seed: u64, seq: u64) -> u64 {
    let mut z = seed ^ seq.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (z ^ (z >> 31)) % 2_000_000
}

/// Runs the LDJSON request loop concurrently until EOF and returns the
/// session stats. The output byte stream is identical to
/// [`crate::serve::serve`] on the same input for every worker count: the
/// reader tags each line with a sequence number, workers answer in
/// parallel through the same per-line funnel, and the emitter
/// re-serializes responses strictly in sequence order, flushing after
/// every line.
///
/// # Errors
///
/// Only transport I/O errors (reading the input, writing or flushing the
/// output) abort the loop; request-level problems are answered in-band as
/// `Error` response lines, exactly as in sequential serving.
pub fn serve_concurrent(
    service: &FleetService,
    input: impl BufRead,
    mut output: impl Write + Send,
    options: &PipelineOptions,
) -> std::io::Result<PipelineStats> {
    let workers = options.workers.max(1);
    let queue = RequestQueue::new(workers * 4);
    let reorder = Reorder::new();
    let latency = Mutex::new(LatencyHist::new());

    let io_result: std::io::Result<()> = std::thread::scope(|scope| {
        let emitter = scope.spawn(|| -> std::io::Result<()> {
            while let Some(response) = reorder.next_in_order() {
                let json = response.map_err(|err| {
                    std::io::Error::new(std::io::ErrorKind::InvalidData, err.message)
                })?;
                writeln!(output, "{json}")?;
                output.flush()?;
            }
            Ok(())
        });
        for _ in 0..workers {
            scope.spawn(|| {
                while let Some((seq, line)) = queue.pop() {
                    let start = Instant::now();
                    let response = service.handle_line(&line);
                    let elapsed_us = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
                    latency
                        .lock()
                        .expect("latency histogram poisoned")
                        .record(elapsed_us);
                    if let Some(seed) = options.completion_jitter {
                        std::thread::sleep(std::time::Duration::from_nanos(jitter_ns(seed, seq)));
                    }
                    reorder.push(seq, response);
                }
            });
        }

        // The reader runs on the caller's thread.
        let mut seq = 0u64;
        let mut read_error = None;
        for line in input.lines() {
            match line {
                Ok(line) => {
                    if line.trim().is_empty() {
                        continue;
                    }
                    queue.push(seq, line);
                    seq += 1;
                }
                Err(err) => {
                    read_error = Some(err);
                    break;
                }
            }
        }
        queue.close();
        reorder.set_total(seq);
        let emit_result = emitter.join().expect("emitter thread panicked");
        match read_error {
            Some(err) => Err(err),
            None => emit_result,
        }
    });
    io_result?;

    let latency_stats = latency.lock().expect("latency histogram poisoned").stats();
    Ok(PipelineStats {
        serve: service.stats(),
        workers,
        queue_depth_max: queue.high_water(),
        latency: latency_stats,
    })
}

/// Heap overhead charged per cache entry on top of the raw count bytes
/// (map slot, `Arc` header, bookkeeping) — keeps the byte budget honest
/// for small rows.
const ENTRY_OVERHEAD_BYTES: usize = 64;

/// Counter snapshot of a [`RescanCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct RescanCacheCounters {
    pub hits: u64,
    pub kernel_rescans: u64,
    pub evictions: u64,
    pub singleflight_waits: u64,
}

/// The single-flight, LRU-byte-bounded rescan cache.
///
/// Keys are device IDs: one kernel pass re-derives a device's exact
/// fault-count row for every knot at once, so the row is the cache unit.
/// A byte budget of 0 disables caching *and* single-flight entirely —
/// every call runs the kernel (the uncached baseline the serve-throughput
/// bench compares against).
///
/// Determinism: the cache memoizes a pure function of `(store, device)`,
/// so a hit returns byte-identical counts to a fresh rescan; hit/wait
/// *counters* are scheduling-dependent (like every other metric), but
/// answers never are.
#[derive(Debug)]
pub(crate) struct RescanCache {
    budget_bytes: usize,
    inner: Mutex<CacheInner>,
    hits: AtomicU64,
    kernel_rescans: AtomicU64,
    evictions: AtomicU64,
    singleflight_waits: AtomicU64,
}

#[derive(Debug)]
struct CacheInner {
    ready: HashMap<u32, CacheEntry>,
    inflight: HashMap<u32, Arc<Flight>>,
    bytes: usize,
    tick: u64,
}

#[derive(Debug)]
struct CacheEntry {
    counts: Arc<Vec<u16>>,
    bytes: usize,
    last_used: u64,
}

/// One in-flight rescan: the leader publishes the result, waiters block
/// on the condvar.
#[derive(Debug)]
struct Flight {
    done: Mutex<Option<Result<Arc<Vec<u16>>, FleetError>>>,
    finished: Condvar,
}

impl RescanCache {
    pub(crate) fn new(budget_bytes: usize) -> Self {
        RescanCache {
            budget_bytes,
            inner: Mutex::new(CacheInner {
                ready: HashMap::new(),
                inflight: HashMap::new(),
                bytes: 0,
                tick: 0,
            }),
            hits: AtomicU64::new(0),
            kernel_rescans: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            singleflight_waits: AtomicU64::new(0),
        }
    }

    pub(crate) fn budget_bytes(&self) -> usize {
        self.budget_bytes
    }

    pub(crate) fn counters(&self) -> RescanCacheCounters {
        RescanCacheCounters {
            hits: self.hits.load(Ordering::Relaxed),
            kernel_rescans: self.kernel_rescans.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            singleflight_waits: self.singleflight_waits.load(Ordering::Relaxed),
        }
    }

    /// The memoized count row for `key`, computing it at most once across
    /// concurrent callers. `compute` must be a pure function of `key` (it
    /// is for kernel rescans: counts derive from `(config, device_id)`
    /// alone).
    pub(crate) fn get_or_rescan(
        &self,
        key: u32,
        compute: impl FnOnce() -> Result<Vec<u16>, FleetError>,
    ) -> Result<Arc<Vec<u16>>, FleetError> {
        if self.budget_bytes == 0 {
            self.kernel_rescans.fetch_add(1, Ordering::Relaxed);
            return compute().map(Arc::new);
        }

        let flight = {
            let mut inner = self.inner.lock().expect("rescan cache poisoned");
            inner.tick += 1;
            let tick = inner.tick;
            if let Some(entry) = inner.ready.get_mut(&key) {
                entry.last_used = tick;
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(entry.counts.clone());
            }
            if let Some(flight) = inner.inflight.get(&key) {
                // Someone else is already rescanning this device: wait for
                // their result instead of stampeding the kernel.
                let flight = flight.clone();
                drop(inner);
                self.singleflight_waits.fetch_add(1, Ordering::Relaxed);
                let mut done = flight.done.lock().expect("flight poisoned");
                while done.is_none() {
                    done = flight.finished.wait(done).expect("flight poisoned");
                }
                return done.clone().expect("flight resolved");
            }
            let flight = Arc::new(Flight {
                done: Mutex::new(None),
                finished: Condvar::new(),
            });
            inner.inflight.insert(key, flight.clone());
            flight
        };

        // This caller is the flight leader: run the kernel outside the
        // cache lock, publish to waiters, then install the entry.
        self.kernel_rescans.fetch_add(1, Ordering::Relaxed);
        let result = compute().map(Arc::new);
        *flight.done.lock().expect("flight poisoned") = Some(result.clone());
        flight.finished.notify_all();

        let mut inner = self.inner.lock().expect("rescan cache poisoned");
        inner.inflight.remove(&key);
        if let Ok(counts) = &result {
            let bytes = counts.len() * std::mem::size_of::<u16>() + ENTRY_OVERHEAD_BYTES;
            inner.tick += 1;
            let tick = inner.tick;
            if let Some(old) = inner.ready.insert(
                key,
                CacheEntry {
                    counts: counts.clone(),
                    bytes,
                    last_used: tick,
                },
            ) {
                inner.bytes -= old.bytes;
            }
            inner.bytes += bytes;
            while inner.bytes > self.budget_bytes {
                let victim = inner
                    .ready
                    .iter()
                    .min_by_key(|(_, entry)| entry.last_used)
                    .map(|(&key, _)| key);
                let Some(victim) = victim else { break };
                let evicted = inner.ready.remove(&victim).expect("victim present");
                inner.bytes -= evicted.bytes;
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    fn row(fill: u16) -> Vec<u16> {
        vec![fill; 8]
    }

    #[test]
    fn single_flight_runs_compute_exactly_once_across_concurrent_misses() {
        let cache = RescanCache::new(1 << 20);
        let computed = AtomicU64::new(0);
        let threads = 8;
        let barrier = Barrier::new(threads);
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    barrier.wait();
                    let counts = cache
                        .get_or_rescan(42, || {
                            // Hold the flight open long enough that the other
                            // threads arrive while it is still in flight.
                            std::thread::sleep(std::time::Duration::from_millis(25));
                            computed.fetch_add(1, Ordering::SeqCst);
                            Ok(row(7))
                        })
                        .unwrap();
                    assert_eq!(*counts, row(7));
                });
            }
        });
        assert_eq!(computed.load(Ordering::SeqCst), 1, "one kernel rescan");
        let counters = cache.counters();
        assert_eq!(counters.kernel_rescans, 1);
        assert_eq!(
            counters.hits + counters.singleflight_waits,
            threads as u64 - 1,
            "every non-leader either waited on the flight or hit the cache: {counters:?}"
        );
    }

    #[test]
    fn lru_eviction_respects_the_byte_budget() {
        // Budget fits exactly one 8-count row (16 B + overhead).
        let cache = RescanCache::new(row(0).len() * 2 + ENTRY_OVERHEAD_BYTES);
        cache.get_or_rescan(1, || Ok(row(1))).unwrap();
        cache.get_or_rescan(2, || Ok(row(2))).unwrap(); // evicts 1
        cache.get_or_rescan(1, || Ok(row(1))).unwrap(); // miss again
        let counters = cache.counters();
        assert_eq!(counters.kernel_rescans, 3);
        assert_eq!(counters.hits, 0);
        assert!(counters.evictions >= 2, "{counters:?}");
    }

    #[test]
    fn zero_budget_disables_caching_and_single_flight() {
        let cache = RescanCache::new(0);
        cache.get_or_rescan(1, || Ok(row(1))).unwrap();
        cache.get_or_rescan(1, || Ok(row(1))).unwrap();
        let counters = cache.counters();
        assert_eq!(counters.kernel_rescans, 2);
        assert_eq!(counters.hits, 0);
    }

    #[test]
    fn errors_propagate_to_leader_and_waiters_and_are_not_cached() {
        let cache = RescanCache::new(1 << 20);
        let err = cache.get_or_rescan(9, || Err(FleetError::Artifact("boom".into())));
        assert!(matches!(err, Err(FleetError::Artifact(_))));
        // The failure was not installed: the next call recomputes.
        let ok = cache.get_or_rescan(9, || Ok(row(3))).unwrap();
        assert_eq!(*ok, row(3));
        assert_eq!(cache.counters().kernel_rescans, 2);
    }
}
