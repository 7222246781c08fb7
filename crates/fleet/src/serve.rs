//! The long-lived fleet serving loop: one loaded artifact, many queries.
//!
//! [`FleetService`] wraps a [`FleetStore`] and answers [`FleetRequest`]s
//! without re-opening the artifact per query — the whole point of the
//! compressed format. A `Recommend` takes the cheapest evidence that
//! decides it, in this order:
//!
//! 1. **cached row** — on a model-only store, a device whose exact counts
//!    a kernel rescan already derived this session is answered from the
//!    rescan cache (a cache hit), without consulting the model;
//! 2. **envelope** — the device's integer envelope bounds, built once per
//!    session from its [`crate::model::DeviceModel`], decide every cell
//!    they can; the answer stands unless a cell it depends on is
//!    undecidable;
//! 3. **exact evidence** — the stored FAULTS column when the artifact kept
//!    it, else an on-demand kernel rescan reconstructed from the header,
//!    through the single-flight rescan cache.
//!
//! Every route gives the answer the exact counts give; the order only
//! changes *where* it comes from, never the response bytes.
//!
//! [`serve`] runs the LDJSON transport: one request JSON per input line,
//! one response JSON per output line, same order. A malformed or
//! over-long line produces an `Error` response (kind `parse`), a request
//! whose handling panics one of kind `internal`, and the loop continues;
//! EOF ends the session and returns the counters.

use std::io::{BufRead, Write};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use serde::{Deserialize, Serialize};

use crate::api::{ApiError, FleetRequest, FleetResponse};
use crate::artifact::FleetStore;
use crate::config::FleetError;
use crate::model::{fit_store, DeviceModel, FidelityReport};
use crate::pipeline::{serve_inline, RescanCache};
use crate::population::{FleetCostModel, PopulationSummary};
use crate::query::{self, CountBounds};

/// Default rescan-cache byte budget (`hbmctl serve --rescan-cache-mb 64`).
pub const DEFAULT_RESCAN_CACHE_BYTES: usize = 64 * 1024 * 1024;

/// Serving counters, reported once per session at EOF.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServeStats {
    /// Requests answered (including error replies).
    pub queries_served: u64,
    /// Recommendations answered purely from the compressed model.
    pub compressed_hits: u64,
    /// Recommendations answered from exact evidence: a cached rescanned
    /// row, the stored column or a kernel rescan.
    pub exact_rescans: u64,
    /// Size of the loaded MODEL column in bytes (0 when absent).
    pub model_bytes: u64,
    /// Rescanned count rows served from the cache instead of the kernel.
    pub rescan_cache_hits: u64,
    /// On-demand kernel rescans actually executed (each one derives a
    /// whole device row; concurrent identical misses share one).
    pub kernel_rescans: u64,
    /// Cached rescan rows evicted to stay within the byte budget.
    pub rescan_cache_evictions: u64,
    /// Requests that blocked on another request's in-flight rescan
    /// instead of duplicating it.
    pub singleflight_waits: u64,
}

/// A loaded artifact plus the counters of everything served from it.
#[derive(Debug)]
pub struct FleetService {
    store: FleetStore,
    queries_served: AtomicU64,
    compressed_hits: AtomicU64,
    exact_rescans: AtomicU64,
    /// Single-flight LRU cache over kernel-rescanned count rows.
    rescan_cache: RescanCache,
    /// Per-device integer envelope bounds ([`query::envelope_bounds`]),
    /// built from the decoded model at most once per session; `None`
    /// when the store has no MODEL column.
    envelopes: Vec<OnceLock<Option<Box<[CountBounds]>>>>,
    /// The fidelity path's full model table (stored-column decode or a
    /// whole-store fit), built at most once per session.
    fitted: OnceLock<Result<Arc<Vec<DeviceModel>>, ApiError>>,
    /// The population summary, a pure function of the store, built at
    /// most once per session.
    summary: OnceLock<PopulationSummary>,
    /// Runs first on every request line, inside the panic guard: lets
    /// unit tests make a line slow or panic.
    #[cfg(test)]
    line_hook: Option<fn(&str)>,
}

impl FleetService {
    /// Wraps a loaded store for serving, with the default rescan-cache
    /// budget ([`DEFAULT_RESCAN_CACHE_BYTES`]).
    #[must_use]
    pub fn new(store: FleetStore) -> FleetService {
        FleetService::with_rescan_cache(store, DEFAULT_RESCAN_CACHE_BYTES)
    }

    /// Wraps a loaded store with an explicit rescan-cache byte budget.
    /// A budget of 0 disables the cache (and its single-flight dedup)
    /// entirely: every envelope miss runs the kernel.
    #[must_use]
    pub fn with_rescan_cache(store: FleetStore, budget_bytes: usize) -> FleetService {
        let devices = store.len();
        FleetService {
            store,
            queries_served: AtomicU64::new(0),
            compressed_hits: AtomicU64::new(0),
            exact_rescans: AtomicU64::new(0),
            rescan_cache: RescanCache::new(budget_bytes),
            envelopes: (0..devices).map(|_| OnceLock::new()).collect(),
            fitted: OnceLock::new(),
            summary: OnceLock::new(),
            #[cfg(test)]
            line_hook: None,
        }
    }

    /// Runs `hook` first on every request line.
    #[cfg(test)]
    pub(crate) fn with_line_hook(mut self, hook: fn(&str)) -> FleetService {
        self.line_hook = Some(hook);
        self
    }

    /// The wrapped store.
    #[must_use]
    pub fn store(&self) -> &FleetStore {
        &self.store
    }

    /// The configured rescan-cache byte budget (0 = disabled).
    #[must_use]
    pub fn rescan_cache_budget(&self) -> usize {
        self.rescan_cache.budget_bytes()
    }

    /// Current counter values.
    #[must_use]
    pub fn stats(&self) -> ServeStats {
        let cache = self.rescan_cache.counters();
        ServeStats {
            queries_served: self.queries_served.load(Ordering::Relaxed),
            compressed_hits: self.compressed_hits.load(Ordering::Relaxed),
            exact_rescans: self.exact_rescans.load(Ordering::Relaxed),
            model_bytes: self.store.model_bytes(),
            rescan_cache_hits: cache.hits,
            kernel_rescans: cache.kernel_rescans,
            rescan_cache_evictions: cache.evictions,
            singleflight_waits: cache.singleflight_waits,
        }
    }

    /// Answers one request. Never panics on caller input: invalid
    /// parameters come back as [`FleetResponse::Error`].
    pub fn handle(&self, request: &FleetRequest) -> FleetResponse {
        self.queries_served.fetch_add(1, Ordering::Relaxed);
        self.respond(request)
    }

    /// [`FleetService::handle`] without counting the request.
    fn respond(&self, request: &FleetRequest) -> FleetResponse {
        if let Err(err) = request.validate(self.store.meta().pc_count) {
            return FleetResponse::Error(err);
        }
        match *request {
            FleetRequest::Recommend {
                device_id,
                target_rate,
                min_pcs,
            } => self.recommend(device_id, target_rate, min_pcs as usize),
            FleetRequest::Summary => FleetResponse::Summary(
                self.summary
                    .get_or_init(|| {
                        PopulationSummary::from_store(&self.store, &FleetCostModel::default())
                    })
                    .clone(),
            ),
            FleetRequest::Fidelity => self.fidelity(),
            FleetRequest::Export => {
                if self.store.has_exact_counts() {
                    FleetResponse::Export(self.store.export())
                } else {
                    FleetResponse::Error(ApiError::runtime(
                        "export needs the exact FAULTS column; this artifact was \
                         compressed without --keep-exact",
                    ))
                }
            }
        }
    }

    fn recommend(&self, device_id: u32, target_rate: f64, min_pcs: usize) -> FleetResponse {
        let row = match self.store.find(device_id) {
            Ok(row) => row,
            Err(err) => return FleetResponse::Error(ApiError::from(&err)),
        };
        let exact_stored = self.store.has_exact_counts();
        // A row already rescanned is exact evidence in hand: cheaper than
        // the envelope, and never ambiguous.
        let cached = (!exact_stored)
            .then(|| self.rescan_cache.peek(device_id))
            .flatten();
        if cached.is_none() {
            if let Some(envelope) = self.envelope(row) {
                if let Some(rec) =
                    query::recommend_envelope(&self.store, row, envelope, target_rate, min_pcs)
                {
                    self.compressed_hits.fetch_add(1, Ordering::Relaxed);
                    return FleetResponse::Recommendation(rec);
                }
            }
        }
        // A cached row, no model column, or the envelope abstained: exact
        // evidence.
        self.exact_rescans.fetch_add(1, Ordering::Relaxed);
        if exact_stored {
            return FleetResponse::Recommendation(query::recommend_exact(
                &self.store,
                row,
                target_rate,
                min_pcs,
            ));
        }
        match cached.map_or_else(|| self.rescan_row(row), Ok) {
            Ok(counts) => FleetResponse::Recommendation(query::recommend_from_counts(
                &self.store,
                row,
                &counts,
                target_rate,
                min_pcs,
            )),
            Err(err) => FleetResponse::Error(ApiError::from(&err)),
        }
    }

    /// The device's integer envelope bounds, built at most once per
    /// session.
    fn envelope(&self, row: usize) -> Option<&[CountBounds]> {
        self.envelopes[row]
            .get_or_init(|| {
                self.store
                    .model(row)
                    .map(|model| query::envelope_bounds(&self.store, &model).into_boxed_slice())
            })
            .as_deref()
    }

    /// The device's exact count row via the single-flight rescan cache:
    /// N concurrent misses on the same device run exactly one kernel
    /// rescan, and repeats hit the LRU-bounded cache.
    fn rescan_row(&self, row: usize) -> Result<Arc<Vec<u16>>, FleetError> {
        self.rescan_cache
            .get_or_rescan(self.store.device_id(row), || {
                query::rescan_counts(&self.store, row)
            })
    }

    fn fidelity(&self) -> FleetResponse {
        let models = match self.stored_or_fresh_models() {
            Ok(models) => models,
            Err(err) => return FleetResponse::Error(err),
        };
        match FidelityReport::compute(&self.store, &models) {
            Ok(report) => FleetResponse::Fidelity(report),
            Err(err) => FleetResponse::Error(ApiError::from(&err)),
        }
    }

    /// The fidelity path's model table — stored-column decode when the
    /// artifact carries MODEL, else a whole-store fit — built at most
    /// once per session and shared by every subsequent fidelity call.
    fn stored_or_fresh_models(&self) -> Result<Arc<Vec<DeviceModel>>, ApiError> {
        self.fitted
            .get_or_init(|| {
                if self.store.has_model() {
                    Ok(Arc::new(
                        (0..self.store.len())
                            .map(|i| self.store.model(i).expect("MODEL column present"))
                            .collect(),
                    ))
                } else {
                    fit_store(&self.store)
                        .map(Arc::new)
                        .map_err(|err| ApiError::from(&err))
                }
            })
            .clone()
    }

    /// Answers one raw LDJSON request line: parse, handle, serialize —
    /// the single per-line funnel of every serving path, so all worker
    /// counts produce byte-identical response lines by construction.
    ///
    /// A panic while answering is caught here and answered in-band with
    /// an `internal` error, so one defective request costs its own answer
    /// and not the session.
    ///
    /// # Errors
    ///
    /// Only response *serialization* failures surface as `Err` (they
    /// abort the transport); a malformed request is answered in-band as
    /// an `Error` response line.
    pub(crate) fn handle_line(&self, line: &str) -> Result<String, ApiError> {
        self.queries_served.fetch_add(1, Ordering::Relaxed);
        panic::catch_unwind(AssertUnwindSafe(|| {
            #[cfg(test)]
            if let Some(hook) = self.line_hook {
                hook(line);
            }
            match serde_json::from_str::<FleetRequest>(line) {
                Ok(request) => self.respond(&request),
                Err(err) => {
                    FleetResponse::Error(ApiError::parse(format!("bad request line: {err}")))
                }
            }
            .to_json()
        }))
        .unwrap_or_else(|payload| {
            let cause = payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                .unwrap_or("no message");
            FleetResponse::Error(ApiError::internal(format!(
                "answering the request panicked: {cause}"
            )))
            .to_json()
        })
    }

    /// Answers a request line the transport could not parse with `err`,
    /// counting it as served.
    pub(crate) fn reject_line(&self, err: ApiError) -> Result<String, ApiError> {
        self.queries_served.fetch_add(1, Ordering::Relaxed);
        FleetResponse::Error(err).to_json()
    }
}

/// Runs the LDJSON request loop on the caller's thread until EOF and
/// returns the session stats. This is the one-worker case of
/// [`crate::pipeline::serve_concurrent`]: the same line reader, per-line
/// funnel and write path, with no threads.
///
/// Responses are flushed after every chunk of lines the reader hands
/// over, so before any read that may block: a request/reply client over
/// a pipe sends its next request only after reading the previous answer,
/// and would deadlock behind a writer that held responses back.
///
/// # Errors
///
/// Only transport I/O errors abort the loop; request-level problems are
/// answered in-band as [`FleetResponse::Error`] lines.
pub fn serve(
    service: &FleetService,
    input: impl BufRead,
    output: impl Write,
) -> std::io::Result<ServeStats> {
    serve_inline(service, input, output, None).map(|stats| stats.serve)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::encode;
    use crate::config::FleetConfig;
    use crate::model::compress_store;
    use crate::sweep;
    use hbm_units::Millivolts;

    fn exact_store(devices: u32) -> FleetStore {
        let cfg = FleetConfig {
            devices,
            workers: 1,
            words_per_pc: 16,
            from: Millivolts(1000),
            down_to: Millivolts(860),
            step: Millivolts(20),
            weak_reference: Millivolts(900),
            ..FleetConfig::default()
        };
        let records = sweep::run(&cfg).unwrap().records;
        FleetStore::from_bytes(encode(&cfg, &records)).unwrap()
    }

    /// An all-clean grid: the sweep stops far above every onset voltage,
    /// so every cell is certainly fault-free and the model envelope
    /// decides every query without exact evidence.
    fn clean_store() -> FleetStore {
        let cfg = FleetConfig {
            devices: 3,
            workers: 1,
            words_per_pc: 8,
            from: Millivolts(1000),
            down_to: Millivolts(960),
            step: Millivolts(20),
            weak_reference: Millivolts(980),
            ..FleetConfig::default()
        };
        let records = sweep::run(&cfg).unwrap().records;
        FleetStore::from_bytes(encode(&cfg, &records)).unwrap()
    }

    #[test]
    fn repeated_summaries_equal_the_store_summary() {
        let store = clean_store();
        let expected = FleetResponse::Summary(PopulationSummary::from_store(
            &store,
            &FleetCostModel::default(),
        ))
        .to_json()
        .unwrap();
        let service = FleetService::new(store);
        for _ in 0..3 {
            assert_eq!(service.handle_line("\"Summary\"").unwrap(), expected);
        }
        assert_eq!(service.stats().queries_served, 3);
    }

    #[test]
    fn happy_path_serves_without_exact_column_reads() {
        let exact = clean_store();
        let compressed = FleetStore::from_bytes(compress_store(&exact, true).unwrap()).unwrap();
        assert!(compressed.has_exact_counts() && compressed.has_model());
        let service = FleetService::new(compressed);
        let response = service.handle(&FleetRequest::Recommend {
            device_id: 1,
            target_rate: 1e-2,
            min_pcs: 16,
        });
        assert!(
            matches!(response, FleetResponse::Recommendation(_)),
            "{response:?}"
        );
        let summary = service.handle(&FleetRequest::Summary);
        assert!(matches!(summary, FleetResponse::Summary(_)), "{summary:?}");
        let stats = service.stats();
        assert_eq!(stats.queries_served, 2);
        assert_eq!(stats.compressed_hits, 1);
        assert_eq!(stats.exact_rescans, 0);
        assert!(stats.model_bytes > 0);
        // The artifact kept its exact columns, yet neither query read them.
        assert_eq!(service.store().exact_column_reads(), 0);
    }

    fn recommend(
        service: &FleetService,
        device_id: u32,
        target_rate: f64,
        min_pcs: u32,
    ) -> FleetResponse {
        service.handle(&FleetRequest::Recommend {
            device_id,
            target_rate,
            min_pcs,
        })
    }

    fn recommendation(response: FleetResponse) -> crate::Recommendation {
        match response {
            FleetResponse::Recommendation(rec) => rec,
            other => panic!("expected a recommendation, got {other:?}"),
        }
    }

    #[test]
    fn strict_queries_recommend_higher_voltages() {
        let service = FleetService::new(exact_store(4));
        let loose = recommendation(recommend(&service, 1, 1e-2, 24));
        let strict = recommendation(recommend(&service, 1, 1e-12, 32));
        assert!(strict.voltage_mv >= loose.voltage_mv);
        assert!(strict.usable_pcs.len() >= 32);
        assert!(loose.voltage_mv >= strict.crash_mv);
        assert!(loose.saving_factor >= strict.saving_factor);
    }

    #[test]
    fn zero_tolerance_full_width_matches_v_min() {
        // 16 words per PC: one faulty bit is a rate of 1/4096, so a target
        // of 1e-12 admits only fault-free pseudo channels.
        let store = exact_store(4);
        let service = FleetService::new(store.clone());
        let pcs = store.meta().pc_count;
        for row in 0..store.len() {
            let rec = recommendation(recommend(&service, store.device_id(row), 1e-12, pcs));
            let v_min = store.v_min_mv(row);
            if v_min != 0 {
                assert_eq!(rec.voltage_mv, v_min, "device row {row}");
            }
        }
    }

    #[test]
    fn malformed_recommends_are_typed_errors() {
        let service = FleetService::new(exact_store(2));
        for (target, min_pcs) in [(-0.5, 1), (1.5, 1), (0.1, 33)] {
            match recommend(&service, 0, target, min_pcs) {
                FleetResponse::Error(err) => {
                    assert_eq!(err.kind, "config", "target {target} min-pcs {min_pcs}");
                }
                other => panic!("unexpected: {other:?}"),
            }
        }
        match recommend(&service, 99, 0.1, 1) {
            FleetResponse::Error(err) => assert_eq!(err.kind, "unknown-device"),
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn model_answers_match_exact_answers() {
        let exact = exact_store(4);
        let compressed = FleetStore::from_bytes(compress_store(&exact, false).unwrap()).unwrap();
        let service = FleetService::new(compressed);
        for device_id in 0..4u32 {
            for (target, min_pcs) in [(1e-3, 32u32), (1e-2, 16), (0.5, 1)] {
                let row = exact.find(device_id).unwrap();
                let want = query::recommend_exact(&exact, row, target, min_pcs as usize);
                let got = service.handle(&FleetRequest::Recommend {
                    device_id,
                    target_rate: target,
                    min_pcs,
                });
                assert_eq!(
                    got,
                    FleetResponse::Recommendation(want),
                    "device {device_id} target {target}"
                );
            }
        }
        let stats = service.stats();
        assert_eq!(stats.queries_served, 12);
        assert_eq!(stats.compressed_hits + stats.exact_rescans, 12);
    }

    #[test]
    fn ldjson_loop_answers_in_order_and_survives_garbage() {
        let service = FleetService::new(exact_store(2));
        let input = concat!(
            "{\"Recommend\":{\"device_id\":0,\"target_rate\":0.01,\"min_pcs\":16}}\n",
            "not json\n",
            "\"Summary\"\n",
            "{\"Recommend\":{\"device_id\":0,\"target_rate\":0.0,\"min_pcs\":16}}\n",
        );
        let mut output = Vec::new();
        let stats = serve(&service, input.as_bytes(), &mut output).unwrap();
        let lines: Vec<&str> = std::str::from_utf8(&output).unwrap().lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("{\"Recommendation\":"), "{}", lines[0]);
        assert!(lines[1].contains("\"parse\""), "{}", lines[1]);
        assert!(lines[2].starts_with("{\"Summary\":"), "{}", lines[2]);
        assert!(lines[3].contains("\"config\""), "{}", lines[3]);
        assert_eq!(stats.queries_served, 4);
    }

    #[test]
    fn fidelity_route_works_on_exact_stores_and_fails_cleanly_without_exact() {
        let exact = exact_store(3);
        let service = FleetService::new(exact.clone());
        assert!(matches!(
            service.handle(&FleetRequest::Fidelity),
            FleetResponse::Fidelity(_)
        ));
        let compressed = FleetStore::from_bytes(compress_store(&exact, false).unwrap()).unwrap();
        let service = FleetService::new(compressed);
        match service.handle(&FleetRequest::Fidelity) {
            FleetResponse::Error(err) => assert_eq!(err.kind, "artifact"),
            other => panic!("unexpected: {other:?}"),
        }
        match service.handle(&FleetRequest::Export) {
            FleetResponse::Error(err) => assert_eq!(err.kind, "runtime"),
            other => panic!("unexpected: {other:?}"),
        }
    }
}
