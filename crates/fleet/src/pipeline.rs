//! The concurrent serving runtime: a bounded multi-worker request
//! pipeline whose output byte stream is **identical to sequential
//! serving for every worker count**, plus the single-flight rescan cache
//! that keeps concurrent envelope misses from stampeding the kernel.
//!
//! # Pipeline shape
//!
//! ```text
//!                 queue                       reorder buffer
//! reader ──▶ chunks of lines ──▶ worker ×N ──▶ answered chunks ──▶ emitter ──▶ output
//!  splits     ≤ 64 lines each     answer each   keyed by first     writes every ready
//!  what is                        line, timed   sequence number;   chunk as one buffer,
//!  buffered                       in a local    workers may        flushes when the
//!                                 histogram     finish out of      next one is not
//!                                               order              ready
//!    └──────────── at most 4 × N chunks in flight, reader to emitter ─────────┘
//! ```
//!
//! The reader runs on the caller's thread. It splits every complete line
//! already in the input's buffer into one chunk (at most
//! [`CHUNK_LINES`] lines), numbers the lines, and queues the chunk for
//! the workers. One window bounds the whole pipeline: the reader hands
//! over a chunk only while fewer than `4 × workers` chunks are handed over
//! and not yet taken by the emitter — queued, being answered, or parked in
//! the reorder buffer behind a slower one. A line stuck in one worker, a
//! rescan or a whole-store fidelity fit, so stops the reader after a
//! fixed number of chunks instead of letting the other workers park
//! answers for the whole input. The reader blocks in a read only after
//! everything already read has been handed over, so a client with
//! requests in flight never waits behind a line the reader holds back. A
//! [`std::thread::scope`] worker pool pops whole chunks, answers each
//! line through the same `FleetService::handle_line` funnel, and inserts
//! the chunk's serialized responses into the reorder buffer. A dedicated
//! emitter thread drains that buffer strictly in sequence order and
//! writes every chunk that is ready as one buffer. It flushes whenever the
//! next chunk is not ready yet: a request/reply client over a pipe sends
//! nothing until it has read its last response, so the emitter always
//! reaches "not ready" and flushes before the client can block on it. When
//! a write fails, the emitter stops the reader and the workers.
//!
//! Locks, wake-ups and flushes are paid per chunk, not per line. With one
//! worker the same reader, funnel and write path run inline on the
//! caller's thread, with no threads and no queue; that path is the
//! sequential [`crate::serve::serve`].
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
//! exactly one kernel rescan. A leader that panics wakes its waiters to
//! fail the same way, and the next request starts a new flight. Once a
//! row is cached, the service reads it ([`RescanCache::peek`]) before it
//! consults the device's envelope at all.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{self, BufRead, Write};
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use serde::{Deserialize, Serialize};

use crate::api::ApiError;
use crate::config::FleetError;
use crate::serve::{FleetService, ServeStats};

/// Log₂ buckets in a [`LatencyStats`] histogram.
pub const LATENCY_BUCKETS: usize = 16;

/// The longest request line served, in bytes before its newline. The
/// reader drops a longer line's bytes as they stream in, so one line
/// cannot grow the session's memory without bound, and answers it in-band
/// with a `parse` error; the session goes on.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// The most lines the reader hands to a worker at once.
pub const CHUNK_LINES: usize = 64;

/// Chunks in flight per worker — handed over by the reader and not yet
/// taken by the emitter, whether queued, being answered or parked out of
/// order. The reader waits while the window is full.
const WINDOW_CHUNKS_PER_WORKER: usize = 4;

/// Options for [`serve_concurrent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineOptions {
    /// Worker threads answering requests in parallel. Clamped to ≥ 1.
    pub workers: usize,
    /// Deterministic completion-order jitter for tests: when set, each
    /// request is followed by a pseudo-random (seed, sequence)-hashed
    /// 0–2 ms sleep, shuffling the order in which chunks complete
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

/// Per-request wall-time distribution in microseconds, measured around
/// each request's parse, handling and serialization.
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
    /// High-water mark of request *lines* handed over but not yet picked
    /// up by a worker — how far the reader ran ahead of the slowest
    /// worker before back-pressure engaged. With one worker, the largest
    /// chunk answered inline.
    pub queue_depth_max: u64,
    /// Per-request latency distribution.
    pub latency: LatencyStats,
}

/// The internal latency histogram behind [`LatencyStats`]. Each worker
/// keeps its own; they are merged when the session ends.
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

    fn merge(&mut self, other: &LatencyHist) {
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
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

/// One request line of a [`Chunk`].
#[derive(Debug)]
enum Line {
    /// The line's text, as a byte range of [`Chunk::text`].
    Text(Range<usize>),
    /// A line longer than [`MAX_LINE_BYTES`]; its bytes were dropped.
    TooLong,
}

/// Consecutive non-blank request lines, numbered from `first_seq`, with
/// their text in one buffer.
#[derive(Debug)]
struct Chunk {
    first_seq: u64,
    text: String,
    lines: Vec<Line>,
}

impl Chunk {
    fn len(&self) -> u64 {
        self.lines.len() as u64
    }

    /// Adds one line given without its `\n`, the way `BufRead::lines`
    /// yields it: a `\r` before the newline is stripped and a line that is
    /// blank after `trim` is skipped. Invalid UTF-8 is `lines`' error.
    fn push(&mut self, line: &[u8], newline: bool) -> io::Result<()> {
        if line.len() > MAX_LINE_BYTES {
            self.lines.push(Line::TooLong);
            return Ok(());
        }
        let line = match line.strip_suffix(b"\r") {
            Some(stripped) if newline => stripped,
            _ => line,
        };
        let text = std::str::from_utf8(line).map_err(|_| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                "stream did not contain valid UTF-8",
            )
        })?;
        if !text.trim().is_empty() {
            let start = self.text.len();
            self.text.push_str(text);
            self.lines.push(Line::Text(start..self.text.len()));
        }
        Ok(())
    }
}

/// A line that began in an earlier buffer fill.
#[derive(Debug, Default)]
struct Partial {
    bytes: Vec<u8>,
    /// The line already exceeds [`MAX_LINE_BYTES`]; the rest of it is
    /// dropped up to its newline.
    overlong: bool,
}

impl Partial {
    /// Holds the unterminated tail of a buffer fill.
    fn carry(&mut self, tail: &[u8]) {
        if self.overlong {
            return;
        }
        if self.bytes.len() + tail.len() > MAX_LINE_BYTES {
            self.bytes = Vec::new();
            self.overlong = true;
        } else {
            self.bytes.extend_from_slice(tail);
        }
    }

    /// Ends the line with its last bytes `head` and adds it to `chunk`.
    fn finish(&mut self, head: &[u8], newline: bool, chunk: &mut Chunk) -> io::Result<()> {
        if std::mem::take(&mut self.overlong) {
            chunk.lines.push(Line::TooLong);
            return Ok(());
        }
        if self.bytes.is_empty() {
            return chunk.push(head, newline);
        }
        // At most one buffer fill past the cap; `push` drops it if over.
        self.bytes.extend_from_slice(head);
        let result = chunk.push(&self.bytes, newline);
        self.bytes.clear();
        result
    }
}

/// The one request reader: splits a [`BufRead`] into chunks of lines
/// exactly as `BufRead::lines` splits it into lines, minus blank ones.
#[derive(Debug)]
struct Splitter<R> {
    input: R,
    next_seq: u64,
    partial: Partial,
    /// An error found after the lines of the chunk that carried them.
    error: Option<io::Error>,
    eof: bool,
}

impl<R: BufRead> Splitter<R> {
    fn new(input: R) -> Self {
        Splitter {
            input,
            next_seq: 0,
            partial: Partial::default(),
            error: None,
            eof: false,
        }
    }

    /// The next chunk: every complete line already in the input's buffer,
    /// up to [`CHUNK_LINES`]. Reads (and so may block) only while it has
    /// no line to hand over. `None` at EOF; after an input error, the
    /// lines before it come first and the error next.
    fn next_chunk(&mut self) -> io::Result<Option<Chunk>> {
        if let Some(err) = self.error.take() {
            return Err(err);
        }
        let mut chunk = Chunk {
            first_seq: self.next_seq,
            text: String::new(),
            lines: Vec::new(),
        };
        while chunk.lines.is_empty() && self.error.is_none() && !self.eof {
            let buf = match self.input.fill_buf() {
                Ok(buf) => buf,
                Err(err) if err.kind() == io::ErrorKind::Interrupted => continue,
                Err(err) => return Err(err),
            };
            if buf.is_empty() {
                // EOF: a final line without a newline still counts.
                self.eof = true;
                self.error = self.partial.finish(&[], false, &mut chunk).err();
                break;
            }
            let mut used = 0;
            while chunk.lines.len() < CHUNK_LINES && self.error.is_none() {
                let rest = &buf[used..];
                let Some(end) = rest.iter().position(|&b| b == b'\n') else {
                    self.partial.carry(rest);
                    used = buf.len();
                    break;
                };
                used += end + 1;
                self.error = self.partial.finish(&rest[..end], true, &mut chunk).err();
            }
            self.input.consume(used);
        }
        if chunk.lines.is_empty() {
            return self.error.take().map_or(Ok(None), Err);
        }
        self.next_seq += chunk.len();
        Ok(Some(chunk))
    }
}

/// A chunk's serialized responses, one line each, in sequence order.
#[derive(Debug)]
struct Answered {
    first_seq: u64,
    lines: u64,
    bytes: Vec<u8>,
    /// A response that failed to serialize. `bytes` stops before it, and
    /// the session ends with it as an `InvalidData` error.
    error: Option<ApiError>,
}

/// Answers a chunk's lines in order through the service's per-line
/// funnel, timing each request into `latency`.
fn answer(
    service: &FleetService,
    chunk: &Chunk,
    jitter: Option<u64>,
    latency: &mut LatencyHist,
) -> Answered {
    let mut answered = Answered {
        first_seq: chunk.first_seq,
        lines: chunk.len(),
        bytes: Vec::new(),
        error: None,
    };
    for (seq, line) in (chunk.first_seq..).zip(&chunk.lines) {
        let start = Instant::now();
        let response = match line {
            Line::Text(range) => service.handle_line(&chunk.text[range.clone()]),
            Line::TooLong => service.reject_line(ApiError::parse(format!(
                "request line exceeds {MAX_LINE_BYTES} bytes"
            ))),
        };
        latency.record(u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX));
        if let Some(seed) = jitter {
            std::thread::sleep(std::time::Duration::from_nanos(jitter_ns(seed, seq)));
        }
        match response {
            Ok(json) => {
                answered.bytes.extend_from_slice(json.as_bytes());
                answered.bytes.push(b'\n');
            }
            Err(err) => {
                answered.error = Some(err);
                break;
            }
        }
    }
    answered
}

/// Writes answered lines; a serialization failure among them is flushed
/// up to and then returned as the transport error.
fn write_answered(output: &mut impl Write, answered: Answered) -> io::Result<()> {
    output.write_all(&answered.bytes)?;
    match answered.error {
        None => Ok(()),
        Some(err) => {
            output.flush()?;
            Err(io::Error::new(io::ErrorKind::InvalidData, err.message))
        }
    }
}

/// The reader→worker queue of chunks. It needs no bound of its own: the
/// reader hands over a chunk only inside the in-flight window
/// ([`Reorder::wait_for_room`]), which bounds the queue too.
#[derive(Debug)]
struct ChunkQueue {
    state: Mutex<QueueState>,
    not_empty: Condvar,
}

#[derive(Debug)]
struct QueueState {
    chunks: VecDeque<Chunk>,
    /// Lines in `chunks`.
    lines: u64,
    high_water: u64,
    closed: bool,
}

impl ChunkQueue {
    fn new() -> Self {
        ChunkQueue {
            state: Mutex::new(QueueState {
                chunks: VecDeque::new(),
                lines: 0,
                high_water: 0,
                closed: false,
            }),
            not_empty: Condvar::new(),
        }
    }

    /// Queues a chunk for the workers. `false` once the queue is closed:
    /// the chunk was not queued.
    fn push(&self, chunk: Chunk) -> bool {
        let mut state = self.state.lock().expect("request queue poisoned");
        if state.closed {
            return false;
        }
        state.lines += chunk.len();
        state.high_water = state.high_water.max(state.lines);
        state.chunks.push_back(chunk);
        drop(state);
        self.not_empty.notify_one();
        true
    }

    fn close(&self) {
        self.state.lock().expect("request queue poisoned").closed = true;
        self.not_empty.notify_all();
    }

    /// `None` once the queue is both drained and closed.
    fn pop(&self) -> Option<Chunk> {
        let mut state = self.state.lock().expect("request queue poisoned");
        loop {
            if let Some(chunk) = state.chunks.pop_front() {
                state.lines -= chunk.len();
                return Some(chunk);
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

/// The worker→emitter reorder buffer: answered chunks keyed by their
/// first sequence number, drained strictly in order. It also keeps the
/// pipeline's one in-flight bound ([`Reorder::wait_for_room`]).
#[derive(Debug)]
struct Reorder {
    state: Mutex<ReorderState>,
    ready: Condvar,
    room: Condvar,
    window: u64,
}

#[derive(Debug)]
struct ReorderState {
    /// The first sequence number not yet taken by the emitter.
    next: u64,
    /// Chunks taken by the emitter.
    taken: u64,
    pending: BTreeMap<u64, Answered>,
    /// Total sequence numbers assigned, set by the reader at EOF; the
    /// emitter is done when `next` reaches it.
    total: Option<u64>,
    /// The emitter has stopped: nothing more will be taken.
    closed: bool,
}

impl Reorder {
    fn new(window: usize) -> Self {
        Reorder {
            state: Mutex::new(ReorderState {
                next: 0,
                taken: 0,
                pending: BTreeMap::new(),
                total: None,
                closed: false,
            }),
            ready: Condvar::new(),
            room: Condvar::new(),
            window: window.max(1) as u64,
        }
    }

    /// Blocks the reader, which has handed over `handed` chunks, until one
    /// more fits the in-flight window. `false` once the emitter stopped.
    fn wait_for_room(&self, handed: u64) -> bool {
        let mut state = self.state.lock().expect("reorder buffer poisoned");
        while handed - state.taken >= self.window && !state.closed {
            state = self.room.wait(state).expect("reorder buffer poisoned");
        }
        !state.closed
    }

    /// Stops the reader: the emitter writes nothing more.
    fn close(&self) {
        self.state.lock().expect("reorder buffer poisoned").closed = true;
        self.room.notify_one();
    }

    /// Wakes the emitter only when the chunk is the one it waits for.
    fn push(&self, answered: Answered) {
        let mut state = self.state.lock().expect("reorder buffer poisoned");
        let awaited = answered.first_seq == state.next;
        state.pending.insert(answered.first_seq, answered);
        drop(state);
        if awaited {
            self.ready.notify_one();
        }
    }

    fn set_total(&self, total: u64) {
        self.state.lock().expect("reorder buffer poisoned").total = Some(total);
        self.ready.notify_one();
    }

    /// The run of chunks ready in sequence order, as one. With `wait`,
    /// blocks until there is one, so `None` then means every line has
    /// been taken.
    fn take_ready(&self, wait: bool) -> Option<Answered> {
        let mut state = self.state.lock().expect("reorder buffer poisoned");
        loop {
            let next = state.next;
            if let Some(mut run) = state.pending.remove(&next) {
                state.next += run.lines;
                state.taken += 1;
                while run.error.is_none() {
                    let next = state.next;
                    let Some(more) = state.pending.remove(&next) else {
                        break;
                    };
                    state.next += more.lines;
                    state.taken += 1;
                    run.bytes.extend_from_slice(&more.bytes);
                    run.error = more.error;
                }
                drop(state);
                self.room.notify_one();
                return Some(run);
            }
            if !wait || state.total == Some(next) {
                return None;
            }
            state = self.ready.wait(state).expect("reorder buffer poisoned");
        }
    }
}

/// The emitter: writes every run of ready chunks as one buffer and
/// flushes only when the next chunk is not ready yet.
fn emit(reorder: &Reorder, output: &mut impl Write) -> io::Result<()> {
    let mut flushed = true;
    loop {
        match reorder.take_ready(flushed) {
            Some(run) => {
                write_answered(output, run)?;
                flushed = false;
            }
            None if flushed => return Ok(()),
            None => {
                output.flush()?;
                flushed = true;
            }
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

/// Serves on the caller's thread: the one reader, the per-line funnel and
/// the write path of [`serve_concurrent`], with no threads. Each chunk is
/// flushed before the next read, which may block.
pub(crate) fn serve_inline(
    service: &FleetService,
    input: impl BufRead,
    mut output: impl Write,
    jitter: Option<u64>,
) -> io::Result<PipelineStats> {
    let mut splitter = Splitter::new(input);
    let mut latency = LatencyHist::new();
    let mut queue_depth_max = 0;
    while let Some(chunk) = splitter.next_chunk()? {
        queue_depth_max = queue_depth_max.max(chunk.len());
        write_answered(&mut output, answer(service, &chunk, jitter, &mut latency))?;
        output.flush()?;
    }
    Ok(PipelineStats {
        serve: service.stats(),
        workers: 1,
        queue_depth_max,
        latency: latency.stats(),
    })
}

/// Runs the LDJSON request loop concurrently until EOF and returns the
/// session stats. The output byte stream is identical to
/// [`crate::serve::serve`] on the same input for every worker count: the
/// reader hands over chunks of whatever complete lines are buffered,
/// workers answer them in parallel through the same per-line funnel, and
/// the emitter re-serializes the chunks strictly in sequence order. It
/// flushes whenever the next chunk is not ready yet, so a request/reply
/// client over a pipe always receives its answer before it must send
/// again. With one worker everything runs inline on the caller's thread.
///
/// Lines are split as `BufRead::lines` splits them (`\n` or `\r\n`, a
/// final line without a newline included); blank lines are skipped. A
/// line longer than [`MAX_LINE_BYTES`] is answered with a `parse` error.
///
/// # Errors
///
/// Only transport I/O errors (reading the input, invalid UTF-8 in it,
/// writing or flushing the output) abort the loop, after every response
/// before the failure has been written; request-level problems are
/// answered in-band as `Error` response lines, exactly as in sequential
/// serving.
pub fn serve_concurrent(
    service: &FleetService,
    input: impl BufRead,
    mut output: impl Write + Send,
    options: &PipelineOptions,
) -> io::Result<PipelineStats> {
    let workers = options.workers.max(1);
    let jitter = options.completion_jitter;
    if workers == 1 {
        return serve_inline(service, input, output, jitter);
    }
    let mut splitter = Splitter::new(input);
    let queue = ChunkQueue::new();
    let reorder = Reorder::new(WINDOW_CHUNKS_PER_WORKER * workers);

    let (read_result, emit_result, latency) = std::thread::scope(|scope| {
        let emitter = scope.spawn(|| {
            let result = emit(&reorder, &mut output);
            if result.is_err() {
                // Nothing more can be written: stop the reader and the
                // workers.
                reorder.close();
                queue.close();
            }
            result
        });
        let pool: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut latency = LatencyHist::new();
                    while let Some(chunk) = queue.pop() {
                        reorder.push(answer(service, &chunk, jitter, &mut latency));
                    }
                    latency
                })
            })
            .collect();

        // The reader runs on the caller's thread, until EOF, an input
        // error, or a stopped emitter.
        let read_result = (|| {
            let mut handed = 0;
            while let Some(chunk) = splitter.next_chunk()? {
                if !reorder.wait_for_room(handed) || !queue.push(chunk) {
                    break;
                }
                handed += 1;
            }
            Ok(())
        })();
        queue.close();
        reorder.set_total(splitter.next_seq);
        let emit_result = emitter.join().expect("emitter thread panicked");
        let mut latency = LatencyHist::new();
        for worker in pool {
            latency.merge(&worker.join().expect("serve worker panicked"));
        }
        (read_result, emit_result, latency)
    });
    read_result.and(emit_result)?;

    Ok(PipelineStats {
        serve: service.stats(),
        workers,
        queue_depth_max: queue.high_water(),
        latency: latency.stats(),
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
    state: Mutex<FlightState>,
    finished: Condvar,
}

#[derive(Debug)]
enum FlightState {
    Running,
    Done(Result<Arc<Vec<u16>>, FleetError>),
    /// The leader panicked; its waiters panic too, each answered in-band
    /// by the per-line panic guard.
    Abandoned,
}

impl Flight {
    fn land(&self, state: FlightState) {
        *self.state.lock().expect("flight poisoned") = state;
        self.finished.notify_all();
    }
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

    /// The cached count row for `key`, if one is ready: a cache hit, with
    /// no rescan and no wait on one in flight.
    pub(crate) fn peek(&self, key: u32) -> Option<Arc<Vec<u16>>> {
        if self.budget_bytes == 0 {
            return None;
        }
        let mut inner = self.inner.lock().expect("rescan cache poisoned");
        self.hit(&mut inner, key)
    }

    /// Takes a ready row as a hit, refreshing its LRU position.
    fn hit(&self, inner: &mut CacheInner, key: u32) -> Option<Arc<Vec<u16>>> {
        inner.tick += 1;
        let tick = inner.tick;
        let entry = inner.ready.get_mut(&key)?;
        entry.last_used = tick;
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(entry.counts.clone())
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
            if let Some(counts) = self.hit(&mut inner, key) {
                return Ok(counts);
            }
            if let Some(flight) = inner.inflight.get(&key) {
                // Someone else is already rescanning this device: wait for
                // their result instead of stampeding the kernel.
                let flight = flight.clone();
                drop(inner);
                self.singleflight_waits.fetch_add(1, Ordering::Relaxed);
                let mut state = flight.state.lock().expect("flight poisoned");
                while matches!(*state, FlightState::Running) {
                    state = flight.finished.wait(state).expect("flight poisoned");
                }
                if let FlightState::Done(result) = &*state {
                    return result.clone();
                }
                drop(state);
                panic!("the rescan of device {key} this request waited for panicked");
            }
            let flight = Arc::new(Flight {
                state: Mutex::new(FlightState::Running),
                finished: Condvar::new(),
            });
            inner.inflight.insert(key, flight.clone());
            flight
        };

        // This caller is the flight leader: run the kernel outside the
        // cache lock, publish to waiters, then install the entry.
        self.kernel_rescans.fetch_add(1, Ordering::Relaxed);
        let result = match panic::catch_unwind(AssertUnwindSafe(compute)) {
            Ok(result) => result.map(Arc::new),
            Err(payload) => {
                // Waiters would block forever on a leader that unwinds; the
                // next request for the device starts a new flight.
                flight.land(FlightState::Abandoned);
                self.inner
                    .lock()
                    .expect("rescan cache poisoned")
                    .inflight
                    .remove(&key);
                panic::resume_unwind(payload);
            }
        };
        flight.land(FlightState::Done(result.clone()));

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
    use crate::api::FleetResponse;
    use std::sync::Barrier;

    /// Every line the splitter hands over (`None` for an over-long one)
    /// and the error that ended the input, checking the chunk numbering.
    fn split(input: impl BufRead) -> (Vec<Option<String>>, Option<io::Error>) {
        let mut splitter = Splitter::new(input);
        let mut lines = Vec::new();
        loop {
            match splitter.next_chunk() {
                Ok(Some(chunk)) => {
                    assert_eq!(chunk.first_seq, lines.len() as u64);
                    assert!(chunk.lines.len() <= CHUNK_LINES);
                    lines.extend(chunk.lines.iter().map(|line| match line {
                        Line::Text(range) => Some(chunk.text[range.clone()].to_owned()),
                        Line::TooLong => None,
                    }));
                }
                Ok(None) => return (lines, None),
                Err(err) => return (lines, Some(err)),
            }
        }
    }

    #[test]
    fn splitter_hands_over_the_non_blank_lines_of_buf_read_lines() {
        // CRLF, blank and whitespace-only lines (a no-break space too), a
        // `\r` that ends no line, chunks' worth of lines and a final line
        // without a newline.
        let mut input = b"a\r\nb\n\n  \t\n\r\nc\r\r\n\rd\r\n \xc2\xa0 \n".to_vec();
        for i in 0..150 {
            input.extend_from_slice(format!("line {i}\n").as_bytes());
        }
        input.extend_from_slice(b"last\r");
        let expected: Vec<Option<String>> = input
            .lines()
            .map(Result::unwrap)
            .filter(|line| !line.trim().is_empty())
            .map(Some)
            .collect();
        assert_eq!(expected.len(), 5 + 150);
        assert_eq!(split(&input[..]).0, expected);
        for capacity in [1, 2, 3, 64] {
            let (lines, error) = split(io::BufReader::with_capacity(capacity, &input[..]));
            assert_eq!(lines, expected, "{capacity}-byte reads");
            assert!(error.is_none());
        }
    }

    #[test]
    fn splitter_drops_over_long_lines_and_reports_invalid_utf8_after_the_lines_before_it() {
        let mut input = vec![b'x'; MAX_LINE_BYTES];
        input.push(b'\n');
        input.resize(input.len() + MAX_LINE_BYTES + 1, b'y');
        input.extend_from_slice(b"\nok\n\xff\nnever\n");
        for capacity in [4096, input.len()] {
            let (lines, error) = split(io::BufReader::with_capacity(capacity, &input[..]));
            let longest = "x".repeat(MAX_LINE_BYTES);
            assert_eq!(lines, [Some(longest), None, Some("ok".to_owned())]);
            let error = error.expect("invalid UTF-8 ends the input");
            let reference = input.lines().find_map(Result::err).unwrap();
            assert_eq!(error.kind(), reference.kind());
            assert_eq!(error.to_string(), reference.to_string());
        }
    }

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

    #[test]
    fn a_panicking_rescan_fails_its_waiters_instead_of_hanging() {
        let cache = RescanCache::new(1 << 20);
        let threads = 4;
        let barrier = Barrier::new(threads);
        let outcomes: Vec<bool> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        panic::catch_unwind(AssertUnwindSafe(|| {
                            cache.get_or_rescan(5, || -> Result<Vec<u16>, FleetError> {
                                std::thread::sleep(std::time::Duration::from_millis(25));
                                panic!("rescan defect");
                            })
                        }))
                        .is_err()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(outcomes, vec![true; threads], "leader and waiters fail");
        // The abandoned flight is gone: the next request rescans anew.
        assert_eq!(*cache.get_or_rescan(5, || Ok(row(4))).unwrap(), row(4));
    }

    /// A three-device fleet over a clean grid: cheap to sweep and serve.
    fn service() -> FleetService {
        let cfg = crate::FleetConfig {
            devices: 3,
            workers: 1,
            words_per_pc: 8,
            from: hbm_units::Millivolts(1000),
            down_to: hbm_units::Millivolts(960),
            step: hbm_units::Millivolts(20),
            weak_reference: hbm_units::Millivolts(980),
            ..crate::FleetConfig::default()
        };
        let records = crate::sweep::run(&cfg).unwrap().records;
        let bytes = crate::artifact::encode(&cfg, &records);
        FleetService::new(crate::FleetStore::from_bytes(bytes).unwrap())
    }

    /// Serves `input` on a thread of its own; `None` when the session has
    /// not ended within a minute.
    fn serve_with_deadline(
        service: FleetService,
        input: impl BufRead + Send + 'static,
        output: impl Write + Send + 'static,
        workers: usize,
    ) -> Option<(io::Result<PipelineStats>, FleetService)> {
        let (done, finished) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let options = PipelineOptions {
                workers,
                completion_jitter: None,
            };
            let result = serve_concurrent(&service, input, output, &options);
            let _ = done.send((result, service));
        });
        finished
            .recv_timeout(std::time::Duration::from_secs(60))
            .ok()
    }

    /// A `Vec` output that the test can read after the session.
    #[derive(Clone, Default)]
    struct Shared(Arc<Mutex<Vec<u8>>>);

    impl Write for Shared {
        fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(bytes);
            Ok(bytes.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_panicking_request_is_answered_in_band_at_every_worker_count() {
        fn panic_on_summary(line: &str) {
            assert_ne!(line, "\"Summary\"", "injected defect");
        }
        let mut input = String::new();
        for i in 0..200 {
            input.push_str(match i % 4 {
                0 => "\"Summary\"\n",
                1 => "{\"Recommend\":{\"device_id\":1,\"target_rate\":0.01,\"min_pcs\":16}}\n",
                2 => "not json\n",
                _ => "{\"Recommend\":{\"device_id\":9,\"target_rate\":0.01,\"min_pcs\":16}}\n",
            });
        }
        let mut healthy = Vec::new();
        serve_inline(&service(), input.as_bytes(), &mut healthy, None).unwrap();
        let healthy = String::from_utf8(healthy).unwrap();

        for workers in [1, 2, 4] {
            let output = Shared::default();
            let (result, service) = serve_with_deadline(
                service().with_line_hook(panic_on_summary),
                io::Cursor::new(input.clone().into_bytes()),
                output.clone(),
                workers,
            )
            .unwrap_or_else(|| panic!("a panicking request hung {workers} workers"));
            let stats = result.unwrap();
            assert_eq!(stats.serve.queries_served, 200);
            assert_eq!(stats.latency.count, 200);
            assert_eq!(service.stats().queries_served, 200);
            let served = String::from_utf8(output.0.lock().unwrap().clone()).unwrap();
            assert_eq!(served.lines().count(), 200, "{workers} workers");
            for (i, (got, want)) in served.lines().zip(healthy.lines()).enumerate() {
                if i % 4 == 0 {
                    let FleetResponse::Error(err) = serde_json::from_str(got).unwrap() else {
                        panic!("line {i}: {got}");
                    };
                    assert_eq!(err.kind, "internal", "line {i}");
                    assert!(err.message.contains("injected defect"), "{}", err.message);
                } else {
                    assert_eq!(got, want, "line {i} at {workers} workers");
                }
            }
        }
    }

    /// Input bytes the reader has consumed, and how many it had consumed
    /// when the slow line was answered.
    static CONSUMED: AtomicU64 = AtomicU64::new(0);
    static CONSUMED_AT_SLOW: AtomicU64 = AtomicU64::new(u64::MAX);
    const SLOW: &str = "\"slow\"";

    /// Request bytes that count what the reader consumes.
    struct Counted(io::Cursor<Vec<u8>>);

    impl io::Read for Counted {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            let n = self.0.read(out)?;
            CONSUMED.fetch_add(n as u64, Ordering::SeqCst);
            Ok(n)
        }
    }

    impl BufRead for Counted {
        fn fill_buf(&mut self) -> io::Result<&[u8]> {
            self.0.fill_buf()
        }

        fn consume(&mut self, amt: usize) {
            CONSUMED.fetch_add(amt as u64, Ordering::SeqCst);
            self.0.consume(amt);
        }
    }

    #[test]
    fn a_slow_line_holds_the_reader_within_the_in_flight_window() {
        fn slow(line: &str) {
            if line == SLOW {
                // Long enough for the other worker to answer every other
                // line, were the reader free to hand them over.
                std::thread::sleep(std::time::Duration::from_millis(300));
                CONSUMED_AT_SLOW.store(CONSUMED.load(Ordering::SeqCst), Ordering::SeqCst);
            }
        }
        // Every line is 9 bytes: `"slow"` or `not json`, and its newline.
        let lines = 50 * CHUNK_LINES;
        let mut input = format!("{SLOW}\n").into_bytes();
        for _ in 1..lines {
            input.extend_from_slice(b"not json\n");
        }
        let workers = 2;
        let output = Shared::default();
        let (result, _) = serve_with_deadline(
            service().with_line_hook(slow),
            Counted(io::Cursor::new(input)),
            output.clone(),
            workers,
        )
        .expect("the session ends");
        result.unwrap();
        assert_eq!(
            output
                .0
                .lock()
                .unwrap()
                .iter()
                .filter(|&&b| b == b'\n')
                .count(),
            lines
        );
        // The chunks in the window, plus the one the reader holds.
        let window_lines = (WINDOW_CHUNKS_PER_WORKER * workers + 1) * CHUNK_LINES;
        let read_lines = CONSUMED_AT_SLOW.load(Ordering::SeqCst) / 9;
        assert!(
            read_lines as usize <= window_lines,
            "the reader ran {read_lines} lines ahead of a stuck line"
        );
    }

    /// Endless request lines.
    struct Endless;

    impl io::Read for Endless {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            let n = self.fill_buf()?.len().min(out.len());
            out[..n].copy_from_slice(&self.fill_buf()?[..n]);
            Ok(n)
        }
    }

    impl BufRead for Endless {
        fn fill_buf(&mut self) -> io::Result<&[u8]> {
            Ok(b"not json\nnot json\nnot json\nnot json\n")
        }

        fn consume(&mut self, _: usize) {}
    }

    /// An output that fails every write, slowly enough that the reader
    /// has filled the in-flight window and waits for room.
    struct Broken;

    impl Write for Broken {
        fn write(&mut self, _: &[u8]) -> io::Result<usize> {
            std::thread::sleep(std::time::Duration::from_millis(100));
            Err(io::Error::new(io::ErrorKind::BrokenPipe, "closed"))
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn an_emitter_error_stops_the_reader() {
        for workers in [2, 4] {
            let (result, _) = serve_with_deadline(service(), Endless, Broken, workers)
                .unwrap_or_else(|| panic!("the reader outlived the emitter at {workers} workers"));
            assert_eq!(result.unwrap_err().kind(), io::ErrorKind::BrokenPipe);
        }
    }
}
