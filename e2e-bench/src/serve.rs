//! `serve-rescan` and `serve-model`: `hbmctl serve` sessions over a
//! model-only artifact, each with a fresh `FleetService` so its rescan
//! cache starts cold.
//!
//! Each round replays the whole stream once in a batch session through
//! `serve_concurrent` and once as a single interactive client (see
//! [`crate::closed_loop`]). The traced run replaces the interactive
//! sessions with one sequential replay that times parse, handle and encode
//! separately and classifies each request.

use std::collections::HashMap;
use std::io;
use std::time::{Duration, Instant};

use hbm_fleet::{
    serve, serve_concurrent, FleetError, FleetRequest, FleetResponse, FleetService, FleetStore,
    PipelineOptions, PipelineStats, ServeStats,
};

use crate::closed_loop::Exchange;
use crate::fleet::{self, Grid};
use crate::harness::{another, Outcome, SetupTimes};
use crate::layers::LayerCounts;
use crate::requests::{self, LineKind, Stream};
use crate::stats;
use crate::trace::{Span, Tracer};

/// Devices in a serve workload's fleet: small enough that five set-ups
/// and the cold-cache sessions fit one run.
const DEVICES: u32 = 64;
/// Rounds of sessions per run, at least.
const MIN_ROUNDS: usize = 3;
/// Set-ups per run, each a fleet sweep and compression.
const SETUPS: usize = 5;

/// The two traffic mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Onset-band fleet: every query abstains from the envelope, so kernel
    /// rescans and the single-flight cache answer it.
    Rescan,
    /// Fault-free fleet: the envelope decides every query; no kernel work.
    Model,
}

impl Mix {
    fn grid(self) -> Grid {
        match self {
            Mix::Rescan => fleet::ONSET,
            Mix::Model => fleet::CLEAN,
        }
    }

    /// Batch sessions per round, so the median throughput has more samples
    /// than one per round: a `Model` batch session takes about half a
    /// second against about two for its interactive session, and a
    /// `Rescan` one about half as long as its interactive session.
    fn batches_per_round(self) -> usize {
        match self {
            Mix::Rescan => 2,
            Mix::Model => 3,
        }
    }

    fn stream(self, seed: u64) -> Stream {
        match self {
            Mix::Rescan => requests::rescan_stream(seed, DEVICES, 4_000),
            Mix::Model => requests::model_stream(seed, DEVICES, 50_000),
        }
    }
}

/// A serve workload's inputs.
struct Inputs {
    exact: FleetStore,
    compressed: FleetStore,
    stream: Stream,
    input: Vec<u8>,
}

fn setup(
    mix: Mix,
    seed: u64,
    tracer: &Tracer,
    layers: &mut LayerCounts,
) -> Result<Inputs, FleetError> {
    let pass = fleet::pass(&fleet::config(DEVICES, seed, mix.grid()), tracer, 0)?;
    pass.add_counts(layers);
    let stream = mix.stream(seed);
    Ok(Inputs {
        exact: pass.exact,
        compressed: pass.compressed,
        input: stream.to_input(),
        stream,
    })
}

/// The expected response to every request line, as indices into the
/// distinct responses.
struct Expected {
    responses: Vec<String>,
    index: Vec<usize>,
}

impl Expected {
    /// `Recommend` lines are answered by a service over the *exact* store;
    /// every other line by the sequential `serve::serve` reference over
    /// the served store.
    fn build(inputs: &Inputs) -> Result<Expected, String> {
        let exact = FleetService::new(inputs.exact.clone());
        let mut slot: HashMap<&str, usize> = HashMap::new();
        let mut responses = Vec::new();
        let mut others = Vec::new();
        for (line, kind) in inputs.stream.lines.iter().zip(&inputs.stream.kinds) {
            if slot.contains_key(line.as_str()) {
                continue;
            }
            slot.insert(line.as_str(), responses.len());
            if *kind == LineKind::Recommend {
                let request: FleetRequest =
                    serde_json::from_str(line).map_err(|e| format!("{line}: {e}"))?;
                responses.push(exact.handle(&request).to_json().map_err(|e| e.message)?);
            } else {
                others.push(line.as_str());
                responses.push(String::new());
            }
        }
        let service = FleetService::new(inputs.compressed.clone());
        let mut out = Vec::new();
        serve::serve(&service, others.join("\n").as_bytes(), &mut out)
            .map_err(|e| format!("reference serve: {e}"))?;
        let text = String::from_utf8(out).map_err(|e| e.to_string())?;
        if text.lines().count() != others.len() {
            return Err("reference serve skipped a line".into());
        }
        for (line, response) in others.iter().zip(text.lines()) {
            responses[slot[line]] = response.to_owned();
        }
        let index = inputs
            .stream
            .lines
            .iter()
            .map(|l| slot[l.as_str()])
            .collect();
        Ok(Expected { responses, index })
    }

    /// Bytes of the whole expected output, so sessions allocate it once.
    fn output_len(&self) -> usize {
        self.index
            .iter()
            .map(|&i| self.responses[i].len() + 1)
            .sum()
    }

    /// Tallies one session over the whole stream: each wrong, missing or
    /// extra response line is a failed operation, and a transport error
    /// fails every line.
    fn tally(&self, out: &mut Outcome, session: &str, output: io::Result<Vec<u8>>) {
        let lines = self.index.len() as u64;
        let (wrong, why) = match output.map(|o| self.mismatches(&o)) {
            Ok(wrong) => (wrong, format!("{session}: {wrong} wrong responses")),
            Err(err) => (lines, format!("{session}: {err}")),
        };
        out.tally(lines, wrong, || why);
    }

    fn mismatches(&self, output: &[u8]) -> u64 {
        let Ok(text) = std::str::from_utf8(output) else {
            return self.index.len() as u64;
        };
        let mut answered = 0;
        let mut wrong = 0;
        for (i, line) in text.lines().enumerate() {
            answered += 1;
            if self
                .index
                .get(i)
                .map_or(true, |&r| line != self.responses[r])
            {
                wrong += 1;
            }
        }
        wrong + (self.index.len() as u64).saturating_sub(answered)
    }
}

fn options(workers: usize) -> PipelineOptions {
    PipelineOptions {
        workers,
        ..PipelineOptions::default()
    }
}

/// One batch session: the whole stream through `serve_concurrent`.
fn batch(
    inputs: &Inputs,
    expected: &Expected,
    workers: usize,
    tracer: &Tracer,
    id: u64,
) -> io::Result<(Duration, Vec<u8>, PipelineStats)> {
    let service = FleetService::new(inputs.compressed.clone());
    let mut output = Vec::with_capacity(expected.output_len());
    let start = Instant::now();
    let stats = tracer.span("pipeline.session", None, id, |_| {
        serve_concurrent(
            &service,
            inputs.input.as_slice(),
            &mut output,
            &options(workers),
        )
    })?;
    Ok((start.elapsed(), output, stats))
}

/// Which outcome class a handled request fell in, from the service's
/// counters before and after.
fn classify(
    request: &FleetRequest,
    response: &FleetResponse,
    before: ServeStats,
    after: ServeStats,
) -> &'static str {
    if matches!(response, FleetResponse::Error(_)) {
        "serve.error"
    } else if matches!(request, FleetRequest::Summary) {
        "serve.summary"
    } else if after.compressed_hits > before.compressed_hits {
        "serve.model_hit"
    } else if after.kernel_rescans > before.kernel_rescans {
        "serve.kernel_rescan"
    } else if after.rescan_cache_hits > before.rescan_cache_hits {
        "serve.cache_hit"
    } else {
        "serve.other"
    }
}

/// One sequential, traced replay: parse, handle and encode in spans of
/// their own, each request's handle span named by its outcome class. A
/// malformed line goes through the `serve::serve` transport, which answers
/// it in-band. Returns the response lines.
fn replay(inputs: &Inputs, tracer: &Tracer) -> io::Result<Vec<u8>> {
    let service = FleetService::new(inputs.compressed.clone());
    let mut output = Vec::new();
    for (i, line) in inputs.stream.lines.iter().enumerate() {
        let id = i as u64;
        let parsed = tracer.span("api.parse", None, id, |_| {
            serde_json::from_str::<FleetRequest>(line)
        });
        let Ok(request) = parsed else {
            tracer.span("serve.error", None, id, |_| {
                serve::serve(&service, line.as_bytes(), &mut output)
            })?;
            continue;
        };
        let before = service.stats();
        let start_ns = tracer.now_ns();
        let response = service.handle(&request);
        let end_ns = tracer.now_ns();
        tracer.record(Span {
            name: classify(&request, &response, before, service.stats()),
            start_ns,
            end_ns,
            parent: None,
            request_id: id,
        });
        let json = tracer
            .span("api.encode", None, id, |_| response.to_json())
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.message))?;
        output.extend_from_slice(json.as_bytes());
        output.push(b'\n');
    }
    Ok(output)
}

/// Runs one serve workload for `window_s` seconds.
pub fn run(mix: Mix, seed: u64, window_s: f64, workers: usize, tracer: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let mut setup_times = SetupTimes::default();
    let setup_start = tracer.now_ns();
    let mut layers = LayerCounts::default();
    let inputs = setup_times.sample(SETUPS, 1, || setup(mix, seed, tracer, &mut layers));
    out.setup_s = setup_times.fastest();
    out.layers = layers;
    let setup_ns = tracer.now_ns() - setup_start;
    let expected = inputs
        .map_err(|e| e.to_string())
        .and_then(|inputs| Expected::build(&inputs).map(|expected| (inputs, expected)));
    let (inputs, expected) = match expected {
        Ok(both) => both,
        Err(err) => {
            out.tally(1, 1, || format!("set-up: {err}"));
            return out;
        }
    };
    let lines = inputs.stream.lines.len();

    let measure_start = tracer.now_ns();
    let started = Instant::now();
    let mut qps = Vec::new();
    let mut rounds = 0;
    let mut first_stats = None;
    // Untraced, a round is a few batch sessions and one interactive
    // session, so both sample the whole window. Traced, batch sessions fill
    // half the window and one whole replay follows, so the per-class
    // counts repeat exactly.
    let batch_window_s = if tracer.enabled() {
        window_s / 2.0
    } else {
        window_s
    };
    while another(started, batch_window_s, rounds, MIN_ROUNDS) {
        for _ in 0..mix.batches_per_round() {
            let id = qps.len() as u64;
            let session = format!("batch session {id}");
            match batch(&inputs, &expected, workers, tracer, id) {
                Ok((wall, output, stats)) => {
                    qps.push(lines as f64 / wall.as_secs_f64());
                    if id == 0 {
                        out.digest.bytes(&output);
                    }
                    expected.tally(&mut out, &session, Ok(output));
                    out.layers.pipeline_busy_us += stats.latency.sum_us;
                    out.layers.pipeline_capacity_us +=
                        wall.as_secs_f64() * 1e6 * stats.workers as f64;
                    out.layers.queue_depth_max =
                        out.layers.queue_depth_max.max(stats.queue_depth_max);
                    out.layers.singleflight_waits += stats.serve.singleflight_waits;
                    first_stats.get_or_insert(stats.serve);
                }
                Err(err) => {
                    qps.push(0.0);
                    expected.tally(&mut out, &session, Err(err));
                }
            }
        }
        if !tracer.enabled() {
            let output = interactive(&inputs, &expected, workers, &mut out.latencies_ms);
            expected.tally(&mut out, &format!("interactive session {rounds}"), output);
        }
        rounds += 1;
    }
    if tracer.enabled() {
        expected.tally(&mut out, "replay", replay(&inputs, tracer));
    }
    out.traced_ns = setup_ns + (tracer.now_ns() - measure_start);
    out.ops_per_s = stats::median(&qps);
    out.detail("rounds", rounds);
    out.detail("batch_sessions", qps.len());
    out.detail("lines_per_session", lines);
    if let Some(s) = first_stats {
        out.detail(
            "first_session",
            format!(
                "{{\"compressed_hits\":{},\"exact_rescans\":{},\"kernel_rescans\":{},\"rescan_cache_hits\":{}}}",
                s.compressed_hits, s.exact_rescans, s.kernel_rescans, s.rescan_cache_hits
            ),
        );
    }
    out
}

/// One interactive session over the whole stream, appending each
/// request's latency in ms.
fn interactive(
    inputs: &Inputs,
    expected: &Expected,
    workers: usize,
    latencies_ms: &mut Vec<f64>,
) -> io::Result<Vec<u8>> {
    let service = FleetService::new(inputs.compressed.clone());
    let exchange = Exchange::new(inputs.stream.lines.len(), expected.output_len());
    serve_concurrent(
        &service,
        exchange.requests(&inputs.stream.lines),
        exchange.responses(),
        &options(workers),
    )?;
    let transcript = exchange.finish();
    latencies_ms.extend(transcript.latencies_us().iter().map(|us| us / 1e3));
    Ok(transcript.output)
}
