//! Kernel bench for the region-tiled fault injector: per-word masks of the
//! auto (bit-sliced) backend against the forced-scalar walk in the dense
//! regime (≤ 860 mV); count descents over fleet devices at 1, 17 and 391
//! knots; the paper sweep's all-1s/all-0s descent rows; and a
//! `quick()`-shaped reliability sweep in both execution modes. Every
//! comparison asserts bit-identical results before recording timings to
//! `BENCH_injector_kernel.json`; the descents are checked against the
//! summed per-word masks at every knot.
//!
//! This is a plain `harness = false` binary (not Criterion) because the
//! deliverable is a machine-readable speedup record. Run with:
//! `cargo bench -p hbm-bench --bench injector_kernel`.

use std::ops::Range;
use std::time::Instant;

use hbm_device::{HbmGeometry, PcIndex, WordOffset};
use hbm_faults::{Exposure, FaultInjector, FaultModelParams, KernelBackend, MaskKernel, Written};
use hbm_fleet::FleetConfig;
use hbm_undervolt::{ExecutionMode, Platform, ReliabilityConfig, ReliabilityTester};
use hbm_units::Millivolts;
use serde::Serialize;

const SEED: u64 = 7;
const ITERATIONS: u32 = 5;
/// One reduced-geometry pseudo channel, the unit the sweep engine shards by.
const WORDS: u64 = 8192;
/// Each timing sample repeats the kernel until this much wall clock has
/// accumulated, so per-call times stay resolvable even when the cached
/// path finishes in nanoseconds.
const MIN_SAMPLE_SECS: f64 = 2e-3;
/// The fleet sweep's device shape: every pseudo channel, 64 words each.
/// The descent section times this many fleet devices per call.
const FLEET_DEVICES: u32 = 8;
/// Alternating timing rounds of the descent section.
const DESCENT_ROUNDS: u32 = 20;
const FLEET_PCS: u8 = 32;
const FLEET_WORDS: u64 = 64;

#[derive(Serialize)]
struct DenseEntry {
    voltage_mv: u32,
    scalar_secs: f64,
    auto_secs: f64,
    speedup: f64,
    faulty_bits: u64,
}

#[derive(Serialize)]
struct DescentEntry {
    knots: usize,
    from_mv: u32,
    to_mv: u32,
    device_secs: f64,
    ns_per_bit: f64,
    faulty_bits_at_last_knot: u64,
}

#[derive(Serialize)]
struct PaperDescentEntry {
    pcs: u8,
    words_per_pc: u64,
    knots: usize,
    from_mv: u32,
    to_mv: u32,
    rows_secs: f64,
    rows_ns_per_bit: f64,
    count_secs: f64,
    count_ns_per_bit: f64,
}

#[derive(Serialize)]
struct SweepEntry {
    traffic_secs: f64,
    cached_secs: f64,
    speedup: f64,
    mean_faults: f64,
}

#[derive(Serialize)]
struct Record {
    bench: &'static str,
    seed: u64,
    iterations: u32,
    words_per_pc: u64,
    dense: Vec<DenseEntry>,
    dense_region_min_speedup: f64,
    descent_devices: u32,
    descent_pcs: u8,
    descent_words_per_pc: u64,
    descent: Vec<DescentEntry>,
    paper_descent: PaperDescentEntry,
    sweep: SweepEntry,
}

/// Best-of-N per-call wall clock, with enough repetitions per sample to
/// outlast timer resolution. Returns the kernel's (checked) output too.
fn time_per_call<F: FnMut() -> u64>(mut f: F) -> (f64, u64) {
    let mut out = f(); // warm caches outside the timed region
    let mut best = f64::INFINITY;
    for _ in 0..ITERATIONS {
        let mut calls = 0u32;
        let start = Instant::now();
        let elapsed = loop {
            out = f();
            calls += 1;
            let elapsed = start.elapsed().as_secs_f64();
            if elapsed >= MIN_SAMPLE_SECS {
                break elapsed;
            }
        };
        best = best.min(elapsed / f64::from(calls));
    }
    (best, out)
}

/// The summed `(stuck0, stuck1)` popcounts of `kernel`'s per-word masks
/// over `words` at `v`: the oracle every descent is checked against.
fn fold_masks(
    kernel: &impl MaskKernel,
    pc: PcIndex,
    words: Range<u64>,
    v: Millivolts,
) -> (u64, u64) {
    words.fold((0, 0), |(n0, n1), w| {
        let (s0, s1) = kernel.masks(pc, WordOffset(w), v);
        (
            n0 + u64::from(s0.count_ones()),
            n1 + u64::from(s1.count_ones()),
        )
    })
}

/// Best-of-N wall clock of a full `quick()` sweep in one execution mode,
/// plus its total mean fault count (for the cross-mode identity check).
fn time_sweep(mode: ExecutionMode) -> (f64, f64) {
    let mut config = ReliabilityConfig::quick();
    config.mode = mode;
    let tester = ReliabilityTester::new(config).expect("config valid");
    let mut best = f64::INFINITY;
    let mut faults = 0.0;
    for _ in 0..ITERATIONS {
        // A fresh platform per run: the sweep pays its own cache warm-up,
        // as a real experiment would.
        let mut platform = Platform::builder().seed(SEED).build();
        let start = Instant::now();
        let report = tester.run(&mut platform).expect("sweep");
        best = best.min(start.elapsed().as_secs_f64());
        faults = report.points.iter().map(|p| p.total_mean_faults()).sum();
    }
    (best, faults)
}

fn main() {
    let injector = FaultInjector::new(
        FaultModelParams::date21(),
        HbmGeometry::vcu128_reduced(),
        SEED,
    );
    let pc = PcIndex::new(0).expect("pc0");
    let auto = injector.kernel(KernelBackend::Auto);
    let scalar = injector.kernel(KernelBackend::Scalar);
    println!("injector_kernel: seed {SEED}, {WORDS} words per PC, best of {ITERATIONS}");

    // Dense regime: at and below 860 mV nearly every word carries faults,
    // so the auto backend's bit-sliced per-word masks are compared against
    // the forced scalar walk over the same words.
    let mut dense = Vec::new();
    for mv in [860u32, 820] {
        let v = Millivolts(mv);
        let (scalar_secs, scalar_bits) = time_per_call(|| {
            let (c0, c1) = fold_masks(&scalar, pc, 0..WORDS, v);
            c0 + c1
        });
        let (auto_secs, auto_bits) = time_per_call(|| {
            let (c0, c1) = fold_masks(&auto, pc, 0..WORDS, v);
            c0 + c1
        });
        assert_eq!(
            auto_bits, scalar_bits,
            "dense-region kernels disagree at {v}"
        );
        let speedup = scalar_secs / auto_secs.max(f64::MIN_POSITIVE);
        println!(
            "  {mv} mV dense: scalar {:>10.3} us, auto {:>10.3} us  ({speedup:>8.1}x, {scalar_bits} faulty bits)",
            scalar_secs * 1e6,
            auto_secs * 1e6,
        );
        dense.push(DenseEntry {
            voltage_mv: mv,
            scalar_secs,
            auto_secs,
            speedup,
            faulty_bits: scalar_bits,
        });
    }
    let dense_region_min_speedup = dense
        .iter()
        .map(|e| e.speedup)
        .fold(f64::INFINITY, f64::min);
    assert!(
        dense_region_min_speedup >= 8.0,
        "dense-region auto-vs-scalar speedup regressed below 8x: {dense_region_min_speedup:.1}x"
    );

    // Count descents in the fleet sweep's shape: every pseudo
    // channel's first 64 words of fleet devices (their own seeds), along
    // a descending grid. Each call pays its own per-tile knot searches, as
    // `fleet sweep` does. Every knot's count is checked against a
    // fold of the per-word masks there. The grids are timed in alternating
    // rounds, best call kept, so a slow phase of a shared host does not
    // land on one grid alone.
    let fleet = FleetConfig::default();
    let devices: Vec<FaultInjector> = (0..FLEET_DEVICES)
        .map(|d| {
            let seed = fleet.device_spec(d).seed;
            FaultInjector::new(FaultModelParams::date21(), fleet.geometry, seed)
        })
        .collect();
    let pcs: Vec<PcIndex> = (0..FLEET_PCS)
        .map(|i| PcIndex::new(i).expect("pc"))
        .collect();
    let grids = [(820u32, 820u32, 1usize), (900, 820, 5), (1200, 810, 1)];
    let schedules: Vec<Vec<Millivolts>> = grids
        .iter()
        .map(|&(from, to, step)| (to..=from).rev().step_by(step).map(Millivolts).collect())
        .collect();
    // Per-knot totals over every device and pseudo channel.
    let descend = |schedule: &[Millivolts]| {
        let mut per_knot = vec![0u64; schedule.len()];
        for injector in &devices {
            let kernel = injector.kernel(KernelBackend::Auto);
            for &pc in &pcs {
                let counts = kernel.count_descent(pc, 0..FLEET_WORDS, schedule);
                for (total, count) in per_knot.iter_mut().zip(counts) {
                    *total += count;
                }
            }
        }
        per_knot
    };
    let mut best = vec![f64::INFINITY; schedules.len()];
    for _ in 0..DESCENT_ROUNDS {
        for (schedule, best) in schedules.iter().zip(&mut best) {
            let start = Instant::now();
            std::hint::black_box(descend(schedule));
            *best = best.min(start.elapsed().as_secs_f64());
        }
    }
    let mut descent = Vec::new();
    for ((&(from_mv, to_mv, _), schedule), call_secs) in grids.iter().zip(&schedules).zip(best) {
        let per_knot = descend(schedule);
        for (&v, &count) in schedule.iter().zip(&per_knot) {
            let mut scanned = 0;
            for injector in &devices {
                let kernel = injector.kernel(KernelBackend::Auto);
                for &pc in &pcs {
                    let (c0, c1) = fold_masks(&kernel, pc, 0..FLEET_WORDS, v);
                    scanned += c0 + c1;
                }
            }
            assert_eq!(
                count, scanned,
                "count descent disagrees with the per-word masks at {v}"
            );
        }
        let last = per_knot[schedule.len() - 1];
        let device_secs = call_secs / f64::from(FLEET_DEVICES);
        let ns_per_bit = device_secs / (f64::from(FLEET_PCS) * FLEET_WORDS as f64 * 256.0) * 1e9;
        println!(
            "  descent {from_mv}->{to_mv} mV ({} knots): {:>8.3} ms/device, {ns_per_bit:.2} ns/bit ({last} faulty bits at {to_mv} mV)",
            schedule.len(),
            device_secs * 1e3,
        );
        descent.push(DescentEntry {
            knots: schedule.len(),
            from_mv,
            to_mv,
            device_secs,
            ns_per_bit,
            faulty_bits_at_last_knot: last,
        });
    }

    // The paper sweep's descent rows: every pseudo channel of one device,
    // 8192 words each, read back under all-1s and all-0s writes at each of
    // the 40 knots from 1.20 V to 0.81 V. Every knot's rows are checked
    // against the per-word masks per class there; the count descent over the
    // same shape is timed beside them, in alternating rounds.
    let paper: Vec<Millivolts> = (810..=1200).rev().step_by(10).map(Millivolts).collect();
    let written = [Written::Ones, Written::Zeros];
    let rows_of = || -> Vec<Vec<Vec<Exposure>>> {
        pcs.iter()
            .map(|&pc| auto.exposure_descent(pc, 0..WORDS, &paper, &written))
            .collect()
    };
    let counts_of = || -> Vec<Vec<u64>> {
        pcs.iter()
            .map(|&pc| auto.count_descent(pc, 0..WORDS, &paper))
            .collect()
    };
    let (mut rows_secs, mut count_secs) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..ITERATIONS {
        let start = Instant::now();
        std::hint::black_box(rows_of());
        rows_secs = rows_secs.min(start.elapsed().as_secs_f64());
        let start = Instant::now();
        std::hint::black_box(counts_of());
        count_secs = count_secs.min(start.elapsed().as_secs_f64());
    }
    for (&pc, (rows, counts)) in pcs.iter().zip(rows_of().iter().zip(counts_of())) {
        for (k, &v) in paper.iter().enumerate() {
            let (n0, n1) = fold_masks(&auto, pc, 0..WORDS, v);
            let [ones, zeros] = [&rows[k][0], &rows[k][1]];
            assert_eq!(
                (ones.stuck0, ones.stuck1, zeros.stuck0, zeros.stuck1),
                (n0, 0, 0, n1),
                "descent rows disagree with the per-word masks at {v} on {pc:?}"
            );
            assert_eq!(counts[k], n0 + n1, "count descent at {v} on {pc:?}");
        }
    }
    let paper_bits = f64::from(FLEET_PCS) * WORDS as f64 * 256.0;
    let paper_descent = PaperDescentEntry {
        pcs: FLEET_PCS,
        words_per_pc: WORDS,
        knots: paper.len(),
        from_mv: 1200,
        to_mv: 810,
        rows_secs,
        rows_ns_per_bit: rows_secs / paper_bits * 1e9,
        count_secs,
        count_ns_per_bit: count_secs / paper_bits * 1e9,
    };
    println!(
        "  paper rows 1200->810 mV ({} knots, {FLEET_PCS} PCs x {WORDS} words): rows {:.3} s ({:.2} ns/bit), count {:.3} s ({:.2} ns/bit)",
        paper.len(),
        rows_secs,
        paper_descent.rows_ns_per_bit,
        count_secs,
        paper_descent.count_ns_per_bit,
    );

    let (traffic_secs, traffic_faults) = time_sweep(ExecutionMode::Traffic);
    let (cached_secs, cached_faults) = time_sweep(ExecutionMode::CachedMasks);
    assert_eq!(
        traffic_faults, cached_faults,
        "execution modes disagree on the quick() sweep"
    );
    let sweep_speedup = traffic_secs / cached_secs.max(f64::MIN_POSITIVE);
    assert!(
        sweep_speedup >= 2.0,
        "quick() sweep speedup regressed below 2x: {sweep_speedup:.2}x"
    );
    println!(
        "  quick() sweep: traffic {traffic_secs:.3}s, cached {cached_secs:.3}s ({sweep_speedup:.1}x, {traffic_faults:.0} mean faults)"
    );

    let record = Record {
        bench: "injector_kernel",
        seed: SEED,
        iterations: ITERATIONS,
        words_per_pc: WORDS,
        dense,
        dense_region_min_speedup,
        descent_devices: FLEET_DEVICES,
        descent_pcs: FLEET_PCS,
        descent_words_per_pc: FLEET_WORDS,
        descent,
        paper_descent,
        sweep: SweepEntry {
            traffic_secs,
            cached_secs,
            speedup: sweep_speedup,
            mean_faults: traffic_faults,
        },
    };

    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_injector_kernel.json"
    );
    let body = serde_json::to_string_pretty(&record).expect("serialize record");
    std::fs::write(path, body + "\n").expect("write BENCH_injector_kernel.json");
    println!("wrote {path}");
}
