//! `fleet-onset` and the fleet set-up of the serve workloads: `hbmctl
//! fleet sweep` followed by `hbmctl fleet compress` (model only).

use std::time::Instant;

use hbm_fleet::{
    artifact, characterize_device, model, sweep, Column, DeviceRecord, DeviceSpec, FleetConfig,
    FleetError, FleetRunStats, FleetStore,
};
use hbm_units::Millivolts;

use crate::harness::{another, Outcome, SetupTimes};
use crate::layers::LayerCounts;
use crate::stats::Digest;
use crate::trace::Tracer;

/// A descending knot grid: from, down to, step and the weak-PC reference
/// knot, in mV.
#[derive(Debug, Clone, Copy)]
pub struct Grid {
    pub from: u32,
    pub down_to: u32,
    pub step: u32,
    pub weak_reference: u32,
}

/// The fault-onset band: envelopes abstain here, so serving rescans.
pub const ONSET: Grid = Grid {
    from: 900,
    down_to: 820,
    step: 5,
    weak_reference: 900,
};

/// A fault-free grid: envelopes decide every query.
pub const CLEAN: Grid = Grid {
    from: 1000,
    down_to: 960,
    step: 20,
    weak_reference: 980,
};

/// Devices per `fleet-onset` pass.
const ONSET_DEVICES: u32 = 256;
/// The digest covers the first passes, which every run measures.
const MIN_PASSES: usize = 2;
/// Set-up samples timed before each pass.
const SETUP_SAMPLES: usize = 20;
/// Set-ups per sample: about a millisecond of a set-up that takes a few
/// microseconds.
const SETUP_BATCH: usize = 400;

/// A fleet of `devices` on `grid`, 64 words per pseudo channel, one sweep
/// worker per CPU.
#[must_use]
pub fn config(devices: u32, seed: u64, grid: Grid) -> FleetConfig {
    FleetConfig {
        devices,
        base_seed: seed,
        workers: 0,
        words_per_pc: 64,
        from: Millivolts(grid.from),
        down_to: Millivolts(grid.down_to),
        step: Millivolts(grid.step),
        weak_reference: Millivolts(grid.weak_reference),
        ..FleetConfig::default()
    }
}

/// One sweep-and-compress pass.
#[derive(Debug)]
pub struct Pass {
    pub records: Vec<DeviceRecord>,
    pub exact: FleetStore,
    pub compressed: FleetStore,
    pub stats: FleetRunStats,
    pub exact_bytes: usize,
    pub compressed_bytes: usize,
}

impl Pass {
    /// Adds this pass's scheduler and artifact counters.
    pub fn add_counts(&self, layers: &mut LayerCounts) {
        layers.fleet_workers = self.stats.workers as u64;
        layers.devices_stolen += self.stats.devices_stolen;
        layers.artifact_bytes = self.exact_bytes as u64;
        layers.model_bytes = self.compressed_bytes as u64;
    }
}

/// Sweeps the fleet, encodes the exact artifact, decodes it, compresses it
/// to a model-only artifact and decodes that. The traced run also calls
/// `fit_store` once on its own, to split compression into fitting and
/// column writing.
///
/// # Errors
///
/// Any fleet error: an invalid configuration or an artifact that does not
/// decode.
pub fn pass(cfg: &FleetConfig, tracer: &Tracer, id: u64) -> Result<Pass, FleetError> {
    let report = tracer.span("fleet.sweep", None, id, |sweep| {
        sweep::run_with(cfg, |cfg, spec| {
            tracer.span("fleet.device", sweep, u64::from(spec.device_id), |_| {
                characterize_device(cfg, spec)
            })
        })
    })?;
    let bytes = tracer.span("fleet.artifact.encode", None, id, |_| {
        artifact::encode(cfg, &report.records)
    });
    let exact_bytes = bytes.len();
    let exact = tracer.span("fleet.artifact.decode", None, id, |_| {
        FleetStore::from_bytes(bytes)
    })?;
    let packed = tracer.span("fleet.model.compress", None, id, |_| {
        model::compress_store(&exact, false)
    })?;
    if tracer.enabled() {
        tracer.span("fleet.model.fit", None, id, |_| model::fit_store(&exact))?;
    }
    let compressed_bytes = packed.len();
    let compressed = tracer.span("fleet.artifact.decode", None, id, |_| {
        FleetStore::from_bytes(packed)
    })?;
    Ok(Pass {
        records: report.records,
        exact,
        compressed,
        stats: report.stats,
        exact_bytes,
        compressed_bytes,
    })
}

/// The `fleet-onset` set-up: the validated configuration and every
/// device's identity, which each swept record must carry.
fn onset_inputs(seed: u64) -> Result<(FleetConfig, Vec<DeviceSpec>), FleetError> {
    let cfg = config(ONSET_DEVICES, seed, ONSET);
    cfg.validate()?;
    let specs = (0..cfg.devices).map(|d| cfg.device_spec(d)).collect();
    Ok((cfg, specs))
}

/// Devices whose swept record does not carry its identity or whose stored
/// record differs from the swept one, plus every device when the
/// compressed store is not the model-only image of the exact one.
fn failed_devices(pass: &Pass, specs: &[DeviceSpec]) -> u64 {
    let n = specs.len();
    let compressed_ok = pass.compressed.len() == n
        && pass.compressed.has_model()
        && !pass.compressed.has_exact_counts();
    if pass.records.len() != n || pass.exact.len() != n || !compressed_ok {
        return n as u64;
    }
    let identity = |r: &DeviceRecord, s: &DeviceSpec| {
        r.device_id == s.device_id
            && r.seed == s.seed
            && u32::from(r.crash_mv) == s.crash_floor.as_u32()
    };
    (0..n)
        .filter(|&i| {
            !identity(&pass.records[i], &specs[i]) || pass.exact.record(i) != pass.records[i]
        })
        .count() as u64
}

/// Folds both artifacts, column by column.
fn digest(d: &mut Digest, pass: &Pass) {
    for store in [&pass.exact, &pass.compressed] {
        for column in [
            Column::DeviceId,
            Column::Seed,
            Column::VMin,
            Column::Crash,
            Column::WeakPcs,
            Column::Faults,
            Column::Model,
        ] {
            if store.has_column(column) {
                d.bytes(store.column_bytes(column));
            }
        }
    }
}

/// Runs `fleet-onset`: passes of 256 devices over the onset grid for
/// `window_s` seconds. Every pass sweeps the same fleet, so every pass
/// must produce the same artifacts.
///
/// Latency is per pass, the wait of one `fleet sweep` plus `compress`.
/// Per-device times are bimodal on a shared host: at one moment one
/// worker's CPU characterizes devices in about 30 ms and the other's in
/// about 45 ms, and which is which changes within seconds. Their median
/// jumps between the two modes; a pass averages over them. The traced run
/// keeps the per-device distribution.
pub fn run_onset(seed: u64, window_s: f64, tracer: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let mut setup = SetupTimes::default();
    let start_ns = tracer.now_ns();
    let started = Instant::now();
    let mut passes = 0usize;
    let mut pass_s = 0.0;
    let mut first = None;
    while another(started, window_s, passes, MIN_PASSES) {
        let inputs = setup.sample(SETUP_SAMPLES, SETUP_BATCH, || onset_inputs(seed));
        let (cfg, specs) = match inputs {
            Ok(inputs) => inputs,
            Err(err) => {
                out.tally(1, 1, || format!("fleet config: {err}"));
                break;
            }
        };
        let t0 = Instant::now();
        let result = pass(&cfg, tracer, passes as u64);
        let elapsed_s = t0.elapsed().as_secs_f64();
        pass_s += elapsed_s;
        out.latencies_ms.push(elapsed_s * 1e3);
        passes += 1;
        let devices = u64::from(cfg.devices);
        let pass = match result {
            Ok(pass) => pass,
            Err(err) => {
                out.tally(devices, devices, || format!("pass {passes}: {err}"));
                continue;
            }
        };
        let mut fingerprint = Digest::default();
        digest(&mut fingerprint, &pass);
        let first = *first.get_or_insert(fingerprint);
        let failed = if fingerprint == first {
            failed_devices(&pass, &specs)
        } else {
            devices
        };
        out.tally(devices, failed, || {
            format!("pass {passes}: {failed} devices stored wrongly or differ from pass 1")
        });
        if passes <= MIN_PASSES {
            digest(&mut out.digest, &pass);
        }
        pass.add_counts(&mut out.layers);
    }
    out.traced_ns = tracer.now_ns() - start_ns;
    out.setup_s = setup.fastest();
    out.ops_per_s = (passes as f64 * f64::from(ONSET_DEVICES)) / pass_s;
    out.detail("passes", passes);
    out.detail("devices_per_pass", ONSET_DEVICES);
    out
}
