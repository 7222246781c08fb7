//! Serve-throughput bench: replays a mixed LDJSON workload (recommends
//! across the rate spectrum, summaries, parse errors, and a rescan-heavy
//! repeated-miss segment) through the concurrent serving pipeline at 1
//! worker and at the host's full parallelism, recording queries/sec to
//! `BENCH_serve_throughput.json`.
//!
//! Two acceptance properties are asserted, not just recorded: the
//! response byte stream at every measured worker count is identical to
//! sequential serving (the pipeline's in-order emitter is
//! throughput-only), and the single-flight rescan cache performs at
//! least 2× fewer kernel rescans than an uncached (zero-budget) service
//! on the repeated-miss segment. Throughput at >1 workers is recorded as
//! measured: the workload is dominated by a handful of kernel rescans,
//! so the speedup is bounded by how they spread over the workers, and a
//! 1-core host records ≈1×.
//!
//! This is a plain `harness = false` binary (not Criterion) because the
//! deliverable is a machine-readable throughput/correctness record, not
//! a statistical distribution. Run with:
//! `cargo bench -p hbm-bench --bench serve_throughput`.

use std::time::Instant;

use hbm_fleet::{
    artifact, model, sweep, FleetConfig, FleetRequest, FleetResponse, FleetService, FleetStore,
    PipelineOptions,
};
use serde::Serialize;

const SEED: u64 = 7;
const DEVICES: u32 = 24;
const REPEATS: u32 = 4;
const ITERATIONS: u32 = 3;

#[derive(Serialize)]
struct Record {
    bench: &'static str,
    seed: u64,
    iterations: u32,
    devices: u32,
    host_parallelism: usize,
    note: &'static str,
    requests_total: usize,
    rescan_requests: usize,
    abstaining_devices: usize,
    qps_sequential: f64,
    qps_workers_1: f64,
    qps_workers_max: f64,
    speedup_max_vs_1: f64,
    byte_identical_across_workers: bool,
    kernel_rescans_cached: u64,
    kernel_rescans_uncached: u64,
    rescan_reduction: f64,
    rescan_cache_hits: u64,
    queue_depth_max_at_max_workers: u64,
    latency_p_max_us: u64,
}

/// The fault-onset grid of the `fleet_compress` bench: every device
/// faults mid-grid, which is exactly where a sound fidelity envelope
/// abstains and recommends fall back to the kernel-rescan path the
/// single-flight cache exists for.
fn config() -> FleetConfig {
    FleetConfig {
        devices: DEVICES,
        base_seed: SEED,
        workers: 0,
        from: hbm_units::Millivolts(900),
        down_to: hbm_units::Millivolts(820),
        step: hbm_units::Millivolts(5),
        weak_reference: hbm_units::Millivolts(900),
        ..FleetConfig::default()
    }
}

fn main() {
    println!("serve_throughput: {DEVICES} devices, seed {SEED}, best of {ITERATIONS} runs");

    let cfg = config();
    let records = sweep::run(&cfg).expect("fleet sweep").records;
    let exact = FleetStore::from_bytes(artifact::encode(&cfg, &records)).expect("exact store");
    let store = FleetStore::from_bytes(model::compress_store(&exact, false).expect("compress"))
        .expect("model-only store");
    let min_pcs = u32::from(cfg.geometry.total_pcs()).div_ceil(2);

    // Find the devices whose operating-point query misses the model
    // envelope: each probe uses a fresh service so its counters isolate
    // one request.
    let mut abstaining = Vec::new();
    for device_id in 0..DEVICES {
        let service = FleetService::new(store.clone());
        let request = FleetRequest::Recommend {
            device_id,
            target_rate: model::OPERATING_TARGET_RATE,
            min_pcs,
        };
        if let FleetResponse::Error(err) = service.handle(&request) {
            panic!("probe request failed: {}", err.message);
        }
        if service.stats().kernel_rescans > 0 {
            abstaining.push(device_id);
        }
    }
    assert!(
        !abstaining.is_empty(),
        "the mid-grid onset workload must produce envelope misses"
    );
    println!(
        "  workload : {}/{DEVICES} devices abstain to the rescan path",
        abstaining.len()
    );

    // Mixed segment: model-decided recommends, summaries, and in-band
    // errors. Rescan-heavy segment: the abstaining queries repeated
    // REPEATS times each — the cache answers every repeat after the first.
    let mut lines: Vec<String> = Vec::new();
    for device_id in 0..DEVICES {
        lines.push(format!(
            "{{\"Recommend\":{{\"device_id\":{device_id},\"target_rate\":0.01,\"min_pcs\":16}}}}"
        ));
        if device_id % 4 == 0 {
            lines.push("\"Summary\"".to_owned());
        }
        if device_id % 8 == 0 {
            lines.push("not json".to_owned());
        }
    }
    let mut rescan_lines: Vec<String> = Vec::new();
    for _ in 0..REPEATS {
        for &device_id in &abstaining {
            rescan_lines.push(format!(
                "{{\"Recommend\":{{\"device_id\":{device_id},\"target_rate\":{},\"min_pcs\":{min_pcs}}}}}",
                model::OPERATING_TARGET_RATE
            ));
        }
    }
    lines.extend(rescan_lines.iter().cloned());
    let input = lines.join("\n") + "\n";
    let requests_total = lines.len();

    // Sequential reference: the byte stream every pipeline run must equal.
    let sequential_service = FleetService::new(store.clone());
    let mut reference = Vec::new();
    let seq_start = Instant::now();
    hbm_fleet::serve::serve(&sequential_service, input.as_bytes(), &mut reference)
        .expect("sequential serve");
    let seq_secs = seq_start.elapsed().as_secs_f64();
    let qps_sequential = requests_total as f64 / seq_secs;
    println!("  sequential: {qps_sequential:.0} qps ({seq_secs:.3}s)");

    let host_parallelism = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let qps_at = |workers: usize| -> (f64, u64, u64) {
        let mut best = f64::INFINITY;
        let mut queue_depth = 0;
        let mut latency_max = 0;
        for _ in 0..ITERATIONS {
            let service = FleetService::new(store.clone());
            let mut out = Vec::new();
            let options = PipelineOptions {
                workers,
                completion_jitter: None,
            };
            let start = Instant::now();
            let stats = hbm_fleet::serve_concurrent(&service, input.as_bytes(), &mut out, &options)
                .expect("concurrent serve");
            best = best.min(start.elapsed().as_secs_f64());
            assert_eq!(
                out, reference,
                "serve output diverged from sequential at {workers} workers"
            );
            queue_depth = stats.queue_depth_max;
            latency_max = stats.latency.max_us;
        }
        (requests_total as f64 / best, queue_depth, latency_max)
    };
    let (qps_workers_1, _, _) = qps_at(1);
    println!("  1 worker  : {qps_workers_1:.0} qps");
    let (qps_workers_max, queue_depth_max, latency_p_max_us) = qps_at(host_parallelism);
    println!(
        "  {host_parallelism} worker(s): {qps_workers_max:.0} qps \
         (queue depth max {queue_depth_max})"
    );

    // Cache effectiveness on the repeated-miss segment alone: a default
    // cache rescans each abstaining device once; a zero-budget service
    // rescans every repeat.
    let rescan_input = rescan_lines.join("\n") + "\n";
    let cached = FleetService::new(store.clone());
    hbm_fleet::serve::serve(&cached, rescan_input.as_bytes(), &mut Vec::new())
        .expect("cached serve");
    let cached_stats = cached.stats();
    let uncached = FleetService::with_rescan_cache(store, 0);
    hbm_fleet::serve::serve(&uncached, rescan_input.as_bytes(), &mut Vec::new())
        .expect("uncached serve");
    let uncached_stats = uncached.stats();
    let reduction = uncached_stats.kernel_rescans as f64 / cached_stats.kernel_rescans as f64;
    println!(
        "  rescans   : {} cached vs {} uncached ({reduction:.1}x fewer)",
        cached_stats.kernel_rescans, uncached_stats.kernel_rescans
    );
    assert!(
        uncached_stats.kernel_rescans >= 2 * cached_stats.kernel_rescans,
        "the rescan cache must cut kernel rescans >= 2x on the repeated-miss \
         segment ({} cached vs {} uncached)",
        cached_stats.kernel_rescans,
        uncached_stats.kernel_rescans
    );

    let record = Record {
        bench: "serve_throughput",
        seed: SEED,
        iterations: ITERATIONS,
        devices: DEVICES,
        host_parallelism,
        note: "response byte stream asserted identical to sequential serving \
               at 1 and max workers; single-flight rescan cache asserted to \
               perform >= 2x fewer kernel rescans than a zero-budget service \
               on the repeated-miss segment; worker speedup is recorded \
               as measured (~1x on a 1-core host)",
        requests_total,
        rescan_requests: rescan_lines.len(),
        abstaining_devices: abstaining.len(),
        qps_sequential,
        qps_workers_1,
        qps_workers_max,
        speedup_max_vs_1: qps_workers_max / qps_workers_1,
        byte_identical_across_workers: true,
        kernel_rescans_cached: cached_stats.kernel_rescans,
        kernel_rescans_uncached: uncached_stats.kernel_rescans,
        rescan_reduction: reduction,
        rescan_cache_hits: cached_stats.rescan_cache_hits,
        queue_depth_max_at_max_workers: queue_depth_max,
        latency_p_max_us,
    };

    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_serve_throughput.json"
    );
    let body = serde_json::to_string_pretty(&record).expect("serialize record");
    std::fs::write(path, body + "\n").expect("write BENCH_serve_throughput.json");
    println!("wrote {path}");
}
