//! Property and concurrency tests for the serving pipeline: the
//! concurrent runtime's output byte stream is identical to a per-line
//! oracle at every worker count (even under adversarial completion
//! jitter and reads that split lines anywhere), the one line reader
//! reproduces `BufRead::lines` on its edge cases, a pipelined client never
//! deadlocks, over-long lines are answered in-band, and the single-flight
//! rescan cache collapses K concurrent identical model-envelope misses
//! into exactly one kernel rescan.

use std::io::{self, BufRead, Read, Write};
use std::sync::{mpsc, Arc, Barrier, Condvar, Mutex};
use std::time::Duration;

use hbm_fleet::pipeline::CHUNK_LINES;
use hbm_fleet::{
    artifact, model, serve_concurrent, sweep, ApiError, FleetConfig, FleetRequest, FleetResponse,
    FleetService, FleetStore, PipelineOptions, MAX_LINE_BYTES,
};
use hbm_units::Millivolts;
use proptest::prelude::*;

/// A small fleet whose knot grid straddles the crash-floor band
/// (810 ± 15 mV), so queries cover crashed and clean knots alike.
fn small_config(devices: u32, base_seed: u64) -> FleetConfig {
    FleetConfig {
        devices,
        base_seed,
        workers: 1,
        words_per_pc: 4,
        from: Millivolts(960),
        down_to: Millivolts(820),
        step: Millivolts(20),
        weak_reference: Millivolts(900),
        ..FleetConfig::default()
    }
}

/// A compressed (model-only) store: recommends route model-first and fall
/// back to on-demand kernel rescans, exercising the rescan cache.
fn model_only_store(devices: u32, base_seed: u64) -> FleetStore {
    let cfg = small_config(devices, base_seed);
    let records = sweep::run(&cfg).unwrap().records;
    let exact = FleetStore::from_bytes(artifact::encode(&cfg, &records)).unwrap();
    FleetStore::from_bytes(model::compress_store(&exact, false).unwrap()).unwrap()
}

/// A deterministic mixed request workload: valid recommends across the
/// device range and target-rate spectrum, summaries, fidelity probes,
/// config errors (zero rate, unknown device), parse errors, and blank
/// lines — every response class the wire format can produce.
fn mixed_request_lines(devices: u32, salt: u64) -> Vec<String> {
    let mut lines = Vec::new();
    let rates = [1e-1, 1e-2, 1e-3, 1e-4];
    for i in 0..devices {
        let rate = rates[((u64::from(i) + salt) % rates.len() as u64) as usize];
        lines.push(format!(
            "{{\"Recommend\":{{\"device_id\":{i},\"target_rate\":{rate},\"min_pcs\":16}}}}"
        ));
        if i % 2 == 0 {
            lines.push("\"Summary\"".to_owned());
        }
        if i % 3 == 0 {
            lines.push(String::new());
            lines.push(format!(
                "{{\"Recommend\":{{\"device_id\":{},\"target_rate\":0.01,\"min_pcs\":16}}}}",
                devices + 5
            ));
        }
    }
    lines.push("{\"Recommend\":{\"device_id\":0,\"target_rate\":0.0,\"min_pcs\":16}}".to_owned());
    lines.push("not json".to_owned());
    lines.push("\"Summary\"".to_owned());
    lines
}

/// What serving an input gave: the bytes written, and the transport error
/// that ended the session, if any.
#[derive(Debug, PartialEq)]
struct Served {
    output: String,
    error: Option<(io::ErrorKind, String)>,
    queries: u64,
}

/// The reference transcript, independent of the pipeline's line reader:
/// `BufRead::lines` splits the input, and every non-blank line is served
/// on its own by a one-line `serve::serve` session.
fn per_line_oracle(store: &FleetStore, input: &[u8]) -> Served {
    let service = FleetService::new(store.clone());
    let mut output = Vec::new();
    let mut error = None;
    for line in input.lines() {
        match line {
            Ok(line) if line.trim().is_empty() => {}
            Ok(line) => {
                hbm_fleet::serve::serve(&service, line.as_bytes(), &mut output).unwrap();
            }
            Err(err) => {
                error = Some((err.kind(), err.to_string()));
                break;
            }
        }
    }
    Served {
        output: String::from_utf8(output).unwrap(),
        error,
        queries: service.stats().queries_served,
    }
}

/// Serves `input` through the pipeline at `workers` workers.
fn pipelined(
    store: &FleetStore,
    input: impl BufRead,
    workers: usize,
    completion_jitter: Option<u64>,
) -> Served {
    let service = FleetService::new(store.clone());
    let mut output = Vec::new();
    let options = PipelineOptions {
        workers,
        completion_jitter,
    };
    let result = serve_concurrent(&service, input, &mut output, &options);
    if let Ok(stats) = &result {
        assert_eq!(stats.workers, workers);
        assert_eq!(
            stats.latency.count, stats.serve.queries_served,
            "every request must be timed"
        );
    }
    Served {
        output: String::from_utf8(output).unwrap(),
        error: result.err().map(|err| (err.kind(), err.to_string())),
        queries: service.stats().queries_served,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The tentpole invariant: for every worker count, with adversarial
    /// per-request completion jitter shuffling the order chunks finish
    /// in and reads that split the input anywhere, the pipeline's output
    /// bytes and request count equal the per-line oracle's.
    #[test]
    fn concurrent_serving_is_byte_identical_to_sequential(
        devices in 3u32..8,
        base_seed in 0u64..100_000,
        jitter_seed in any::<u64>(),
        step in 1usize..64,
        whole_input in any::<bool>(),
    ) {

        let store = model_only_store(devices, base_seed);
        let input = mixed_request_lines(devices, base_seed).join("\n") + "\n";
        let oracle = per_line_oracle(&store, input.as_bytes());
        prop_assert_eq!(oracle.error.as_ref(), None);

        for workers in [1usize, 2, 4, 8] {
            let served = if whole_input {
                pipelined(&store, input.as_bytes(), workers, Some(jitter_seed))
            } else {
                let input = io::BufReader::with_capacity(step, input.as_bytes());
                pipelined(&store, input, workers, Some(jitter_seed))
            };
            prop_assert_eq!(&served, &oracle, "diverged at {} workers", workers);
        }
    }
}

/// A request stream over several chunks that exercises every case the
/// line reader must treat as `BufRead::lines` does: CRLF endings, blank
/// and whitespace-only lines (skipped), a `\r` that does not end a line,
/// and a final line without a newline.
fn edge_case_input(devices: u32) -> Vec<u8> {
    let mut input = String::new();
    for round in 0..16u32 {
        for (i, line) in mixed_request_lines(devices, u64::from(round))
            .iter()
            .enumerate()
        {
            let ending = match (i + round as usize) % 5 {
                0 => "\r\n",
                1 => "\n \t \n",
                2 => "\n\r\n",
                _ => "\n",
            };
            input.push_str(line);
            input.push_str(ending);
        }
    }
    input.push_str("   \n\"Summary\"\r\r\n");
    input.push_str("{\"Recommend\":{\"device_id\":1,\"target_rate\":0.01,\"min_pcs\":16}}");
    input.into_bytes()
}

#[test]
fn line_reader_edge_cases_match_the_per_line_oracle() {
    let store = model_only_store(4, 11);
    let input = edge_case_input(4);
    let oracle = per_line_oracle(&store, &input);
    assert_eq!(oracle.error, None);
    let answered = oracle.output.lines().count();
    assert!(
        answered > 2 * CHUNK_LINES,
        "the input must span several chunks: {answered} lines"
    );
    assert!(oracle.output.ends_with('\n'));
    for workers in [1usize, 2, 4] {
        assert_eq!(pipelined(&store, &input[..], workers, None), oracle);
        for step in [1, 7, 4096] {
            let served = pipelined(
                &store,
                io::BufReader::with_capacity(step, &input[..]),
                workers,
                None,
            );
            assert_eq!(served, oracle, "{workers} workers, {step}-byte reads");
        }
    }
}

#[test]
fn invalid_utf8_ends_the_session_after_the_lines_before_it() {
    let store = model_only_store(4, 11);
    let mut input = edge_case_input(4);
    input.extend_from_slice(b"\n\"Summary\"\n{\"Recommend\":\xff\xfe}\n\"Summary\"\n");
    let oracle = per_line_oracle(&store, &input);
    let (kind, _) = oracle.error.clone().expect("lines() rejects the line");
    assert_eq!(kind, io::ErrorKind::InvalidData);
    assert!(oracle.output.lines().count() > CHUNK_LINES);
    for workers in [1usize, 2, 4] {
        assert_eq!(pipelined(&store, &input[..], workers, None), oracle);
        let served = pipelined(
            &store,
            io::BufReader::with_capacity(1, &input[..]),
            workers,
            None,
        );
        assert_eq!(served, oracle, "{workers} workers, 1-byte reads");
    }
}

#[test]
fn over_long_lines_are_answered_in_band_and_the_session_goes_on() {
    let store = model_only_store(4, 11);
    let first = "{\"Recommend\":{\"device_id\":1,\"target_rate\":0.01,\"min_pcs\":16}}";
    let last = "\"Summary\"";
    let longest = "z".repeat(MAX_LINE_BYTES);
    let mut input = format!("{first}\n").into_bytes();
    input.resize(input.len() + 2 * MAX_LINE_BYTES, b'x');
    // The longest line served is answered as the malformed request it is.
    input.extend_from_slice(format!("\n{last}\n{longest}\n").as_bytes());
    // An over-long final line without a newline.
    input.resize(input.len() + MAX_LINE_BYTES + 1, b'y');

    let too_long = FleetResponse::Error(ApiError::parse(format!(
        "request line exceeds {MAX_LINE_BYTES} bytes"
    )))
    .to_json()
    .unwrap();
    let good = per_line_oracle(&store, format!("{first}\n{last}\n{longest}\n").as_bytes());
    let good: Vec<&str> = good.output.lines().collect();
    assert!(good[2].contains("bad request line"), "{}", good[2]);
    let expected = Served {
        output: format!(
            "{}\n{too_long}\n{}\n{}\n{too_long}\n",
            good[0], good[1], good[2]
        ),
        error: None,
        queries: 5,
    };
    for workers in [1usize, 4] {
        assert_eq!(pipelined(&store, &input[..], workers, None), expected);
        let served = pipelined(
            &store,
            io::BufReader::with_capacity(4096, &input[..]),
            workers,
            None,
        );
        assert_eq!(served, expected, "{workers} workers, 4 KiB reads");
    }
}

#[test]
fn a_deeply_nested_line_is_answered_in_band_and_the_session_goes_on() {
    let store = model_only_store(4, 11);
    let first = "{\"Recommend\":{\"device_id\":1,\"target_rate\":0.01,\"min_pcs\":16}}";
    let last = "\"Summary\"";
    // 1 MiB of `[`: the longest line served, nested far past the parser's
    // depth bound.
    let nested = "[".repeat(MAX_LINE_BYTES);
    let input = format!("{first}\n{nested}\n{last}\n");
    let expected = per_line_oracle(&store, input.as_bytes());
    let responses: Vec<&str> = expected.output.lines().collect();
    assert_eq!(responses.len(), 3, "{responses:?}");
    let rejected: FleetResponse = serde_json::from_str(responses[1]).unwrap();
    let FleetResponse::Error(err) = rejected else {
        panic!(
            "a nested line must be answered with an error: {}",
            responses[1]
        );
    };
    assert_eq!(err.kind, "parse");
    assert!(err.message.contains("recursion limit"), "{}", err.message);
    assert!(responses[2].contains("Summary"), "{}", responses[2]);
    for workers in [1usize, 4] {
        assert_eq!(
            pipelined(&store, input.as_bytes(), workers, None),
            expected,
            "{workers} workers"
        );
    }
}

/// A client that keeps `DEPTH` requests in flight: the server's input
/// hands over request `i + DEPTH` only after response `i` has been
/// flushed to the server's output.
struct InFlight {
    lines: Vec<String>,
    state: Mutex<FlightState>,
    flushed: Condvar,
}

#[derive(Default)]
struct FlightState {
    handed: usize,
    answered: usize,
    unflushed: Vec<u8>,
    output: Vec<u8>,
}

impl InFlight {
    const DEPTH: usize = 2;
}

struct ClientRequests {
    client: Arc<InFlight>,
    buf: Vec<u8>,
    pos: usize,
}

impl Read for ClientRequests {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        let available = self.fill_buf()?;
        let n = available.len().min(out.len());
        out[..n].copy_from_slice(&available[..n]);
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for ClientRequests {
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        if self.pos == self.buf.len() {
            let client = &*self.client;
            let total = client.lines.len();
            let mut state = client.state.lock().unwrap();
            while state.handed < total && state.handed >= state.answered + InFlight::DEPTH {
                state = client.flushed.wait(state).unwrap();
            }
            self.buf.clear();
            self.pos = 0;
            while state.handed < total && state.handed < state.answered + InFlight::DEPTH {
                self.buf
                    .extend_from_slice(client.lines[state.handed].as_bytes());
                self.buf.push(b'\n');
                state.handed += 1;
            }
        }
        Ok(&self.buf[self.pos..])
    }

    fn consume(&mut self, amt: usize) {
        self.pos = (self.pos + amt).min(self.buf.len());
    }
}

struct ClientResponses(Arc<InFlight>);

impl Write for ClientResponses {
    fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
        self.0
            .state
            .lock()
            .unwrap()
            .unflushed
            .extend_from_slice(bytes);
        Ok(bytes.len())
    }

    /// Only flushed bytes reach the client, as over a pipe.
    fn flush(&mut self) -> io::Result<()> {
        let mut state = self.0.state.lock().unwrap();
        let bytes = std::mem::take(&mut state.unflushed);
        state.answered += bytes.iter().filter(|&&b| b == b'\n').count();
        state.output.extend_from_slice(&bytes);
        self.0.flushed.notify_all();
        Ok(())
    }
}

#[test]
fn a_client_with_two_requests_in_flight_never_deadlocks() {
    let store = model_only_store(4, 11);
    let lines: Vec<String> = (0..8u64)
        .flat_map(|salt| mixed_request_lines(4, salt))
        .filter(|line| !line.trim().is_empty())
        .collect();
    assert!(lines.len() > CHUNK_LINES);
    let oracle = per_line_oracle(&store, (lines.join("\n") + "\n").as_bytes());

    for workers in [1usize, 2] {
        let client = Arc::new(InFlight {
            lines: lines.clone(),
            state: Mutex::new(FlightState::default()),
            flushed: Condvar::new(),
        });
        let requests = ClientRequests {
            client: client.clone(),
            buf: Vec::new(),
            pos: 0,
        };
        let responses = ClientResponses(client.clone());
        let service = FleetService::new(store.clone());
        let (done, finished) = mpsc::channel();
        std::thread::spawn(move || {
            let options = PipelineOptions {
                workers,
                completion_jitter: None,
            };
            let result = serve_concurrent(&service, requests, responses, &options);
            let _ = done.send(result.map(|stats| stats.serve.queries_served));
        });
        let served = finished
            .recv_timeout(Duration::from_secs(60))
            .unwrap_or_else(|_| {
                panic!("deadlock at {workers} workers: the server held a line back")
            })
            .unwrap();
        assert_eq!(served, lines.len() as u64);
        let state = client.state.lock().unwrap();
        assert!(state.unflushed.is_empty(), "every response must be flushed");
        assert_eq!(
            String::from_utf8(state.output.clone()).unwrap(),
            oracle.output
        );
    }
}

/// Finds a `(device, rate)` whose recommend misses the model envelope on
/// a model-only store and falls back to a kernel rescan (the expensive
/// path the single-flight cache exists for).
fn find_rescanning_request(store: &FleetStore) -> Option<FleetRequest> {
    for device_id in 0..store.len() as u32 {
        for rate in [1e-1, 1e-2, 1e-3, 1e-4, 1e-5] {
            let service = FleetService::new(store.clone());
            let request = FleetRequest::Recommend {
                device_id,
                target_rate: rate,
                min_pcs: 16,
            };
            if let FleetResponse::Error(err) = service.handle(&request) {
                panic!("probe request failed: {}", err.message);
            }
            if service.stats().kernel_rescans > 0 {
                return Some(request);
            }
        }
    }
    None
}

#[test]
fn concurrent_identical_misses_share_one_kernel_rescan() {
    let store = model_only_store(6, 41);
    let request = find_rescanning_request(&store)
        .expect("some query on a model-only store must miss the envelope");

    const CLIENTS: usize = 8;
    let service = FleetService::new(store);
    let barrier = Barrier::new(CLIENTS);
    let responses: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(|| {
                    barrier.wait();
                    match service.handle(&request) {
                        FleetResponse::Recommendation(rec) => format!("{rec:?}"),
                        other => panic!("unexpected response: {other:?}"),
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for response in &responses[1..] {
        assert_eq!(
            response, &responses[0],
            "waiters must see the leader's result"
        );
    }
    let stats = service.stats();
    assert_eq!(
        stats.kernel_rescans, 1,
        "K concurrent identical misses must run exactly one rescan: {stats:?}"
    );
    assert_eq!(
        stats.rescan_cache_hits + stats.singleflight_waits,
        (CLIENTS - 1) as u64,
        "the other clients are cache hits or single-flight waits: {stats:?}"
    );
}

#[test]
fn repeated_misses_hit_the_cache_instead_of_rescanning() {
    let store = model_only_store(6, 41);
    let request = find_rescanning_request(&store)
        .expect("some query on a model-only store must miss the envelope");

    let service = FleetService::new(store);
    let first = service.handle(&request);
    for _ in 0..4 {
        assert_eq!(service.handle(&request), first);
    }
    let stats = service.stats();
    assert_eq!(stats.kernel_rescans, 1, "{stats:?}");
    assert_eq!(stats.rescan_cache_hits, 4, "{stats:?}");
}

#[test]
fn zero_cache_budget_rescans_every_miss() {
    let store = model_only_store(6, 41);
    let request = find_rescanning_request(&store)
        .expect("some query on a model-only store must miss the envelope");

    let service = FleetService::with_rescan_cache(store, 0);
    let first = service.handle(&request);
    for _ in 0..2 {
        assert_eq!(service.handle(&request), first);
    }
    let stats = service.stats();
    assert_eq!(stats.kernel_rescans, 3, "{stats:?}");
    assert_eq!(stats.rescan_cache_hits, 0, "{stats:?}");
}
