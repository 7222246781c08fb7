//! The work-stealing multi-device sweep engine.
//!
//! Device IDs are split into one contiguous range per worker; each worker
//! drains its own range front-to-back and, when empty, steals the upper
//! half of the fattest remaining victim range. Ranges live in packed
//! `AtomicU64` cells (`hi << 32 | lo`), so owner pops and thief splits are
//! single CAS operations — no locks, no channels.
//!
//! Determinism: a [`DeviceRecord`] is a pure function of
//! `(FleetConfig, device_id)`, workers only ever *partition* the ID space,
//! and the merge sorts by device ID. The result is bit-identical for any
//! worker count and any steal interleaving; only the run *stats* (steal
//! counts, wall time) are scheduling-dependent.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use hbm_faults::{FaultInjector, KernelBackend, MaskKernel};

use crate::config::{DeviceSpec, FleetConfig, FleetError};
use crate::record::{DeviceRecord, CRASHED_KNOT};

/// A work range `[lo, hi)` of schedule slots, packed into one atomic so
/// owner pops and thief splits are single compare-exchanges.
struct RangeCell(AtomicU64);

impl RangeCell {
    fn new(lo: u32, hi: u32) -> Self {
        RangeCell(AtomicU64::new(Self::pack(lo, hi)))
    }

    fn pack(lo: u32, hi: u32) -> u64 {
        (u64::from(hi) << 32) | u64::from(lo)
    }

    fn unpack(v: u64) -> (u32, u32) {
        ((v & 0xffff_ffff) as u32, (v >> 32) as u32)
    }

    /// Owner side: claims the next slot from the front.
    fn pop(&self) -> Option<u32> {
        let mut cur = self.0.load(Ordering::Acquire);
        loop {
            let (lo, hi) = Self::unpack(cur);
            if lo >= hi {
                return None;
            }
            match self.0.compare_exchange_weak(
                cur,
                Self::pack(lo + 1, hi),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some(lo),
                Err(now) => cur = now,
            }
        }
    }

    /// Thief side: splits off the upper half of the remaining range.
    /// Leaves single-slot ranges to their owner to avoid duelling over
    /// the last item.
    fn steal_half(&self) -> Option<(u32, u32)> {
        let mut cur = self.0.load(Ordering::Acquire);
        loop {
            let (lo, hi) = Self::unpack(cur);
            let len = hi.saturating_sub(lo);
            if len < 2 {
                return None;
            }
            let mid = hi - len / 2;
            match self.0.compare_exchange_weak(
                cur,
                Self::pack(lo, mid),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some((mid, hi)),
                Err(now) => cur = now,
            }
        }
    }

    /// Owner side: replaces an empty range with freshly stolen work.
    fn refill(&self, lo: u32, hi: u32) {
        self.0.store(Self::pack(lo, hi), Ordering::Release);
    }

    fn remaining(&self) -> u32 {
        let (lo, hi) = Self::unpack(self.0.load(Ordering::Acquire));
        hi.saturating_sub(lo)
    }
}

/// Scheduling-dependent accounting of one fleet run. Never part of the
/// deterministic result; surfaced through telemetry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetRunStats {
    /// Workers the run actually used.
    pub workers: usize,
    /// Devices characterized (always the full fleet on success).
    pub devices_swept: u64,
    /// Devices that migrated to another worker via a successful steal
    /// (a device re-stolen later counts once per migration).
    pub devices_stolen: u64,
    /// Successful steal operations.
    pub steals: u64,
    /// Wall time of the sweep in milliseconds.
    pub wall_ms: u64,
}

/// A finished fleet sweep: records sorted by device ID plus run stats.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// One record per device, ascending by `device_id`.
    pub records: Vec<DeviceRecord>,
    /// Scheduling-dependent accounting.
    pub stats: FleetRunStats,
}

/// Characterizes one device with the kernel's count descent.
///
/// Per pseudo channel, [`MaskKernel::count_descent`] counts the faulty bits
/// at every live knot in one hash pass over the sampled words, without
/// building masks. Knots below the device's crash floor are
/// marked [`CRASHED_KNOT`] — the same cliff the supervised platform sweep
/// reports as crashed points.
#[must_use]
pub fn characterize_device(cfg: &FleetConfig, spec: DeviceSpec) -> DeviceRecord {
    let injector = FaultInjector::new(cfg.params.clone(), cfg.geometry, spec.seed);
    let kernel = injector.kernel(KernelBackend::Auto);
    let knots = cfg.knots();
    let words = 0..cfg.words_per_pc;
    let pcs = cfg.geometry.total_pcs();

    // Knots only descend: everything below the crash floor stays crashed.
    let live: Vec<_> = knots
        .iter()
        .copied()
        .take_while(|&v| v >= spec.crash_floor)
        .collect();
    let mut faults = vec![CRASHED_KNOT; usize::from(pcs) * knots.len()];
    for pc in 0..pcs {
        let pc_index = hbm_device::PcIndex::new(pc).expect("geometry PC in range");
        let row = usize::from(pc) * knots.len();
        for (k, count) in kernel
            .count_descent(pc_index, words.clone(), &live)
            .into_iter()
            .enumerate()
        {
            faults[row + k] = u16::try_from(count).expect("counts bounded by words*256 <= 65280");
        }
    }
    DeviceRecord::assemble(cfg, spec, faults)
}

/// Runs a fleet sweep with the built-in kernel runner.
///
/// # Errors
///
/// Returns [`FleetError::Config`] when the configuration is invalid.
pub fn run(cfg: &FleetConfig) -> Result<FleetReport, FleetError> {
    run_with(cfg, characterize_device)
}

/// Runs a fleet sweep with a caller-supplied per-device runner (core's
/// supervised platform path plugs in here).
///
/// # Errors
///
/// Returns [`FleetError::Config`] when the configuration is invalid.
pub fn run_with<F>(cfg: &FleetConfig, runner: F) -> Result<FleetReport, FleetError>
where
    F: Fn(&FleetConfig, DeviceSpec) -> DeviceRecord + Sync,
{
    let schedule: Vec<u32> = (0..cfg.devices).collect();
    run_scheduled(cfg, &schedule, runner)
}

/// Runs a fleet sweep over an explicit schedule order — a permutation of
/// `0..devices` — so tests can prove the merged result is independent of
/// the order workers encounter devices in.
///
/// # Errors
///
/// Returns [`FleetError::Config`] for an invalid config or a schedule
/// that is not a permutation of the fleet's device IDs.
pub fn run_scheduled<F>(
    cfg: &FleetConfig,
    schedule: &[u32],
    runner: F,
) -> Result<FleetReport, FleetError>
where
    F: Fn(&FleetConfig, DeviceSpec) -> DeviceRecord + Sync,
{
    cfg.validate()?;
    if schedule.len() != cfg.devices as usize {
        return Err(FleetError::Config(format!(
            "schedule lists {} devices, fleet has {}",
            schedule.len(),
            cfg.devices
        )));
    }
    let mut seen = vec![false; cfg.devices as usize];
    for &id in schedule {
        if id >= cfg.devices || std::mem::replace(&mut seen[id as usize], true) {
            return Err(FleetError::Config(format!(
                "schedule is not a permutation of 0..{} (device {id})",
                cfg.devices
            )));
        }
    }

    let workers = cfg.effective_workers();
    let n = schedule.len() as u32;
    let start = Instant::now();

    // One contiguous slot range per worker, balanced to within one slot.
    let cells: Vec<RangeCell> = (0..workers as u32)
        .map(|w| {
            let lo = w * n / workers as u32;
            let hi = (w + 1) * n / workers as u32;
            RangeCell::new(lo, hi)
        })
        .collect();
    let stolen = AtomicU64::new(0);
    let steals = AtomicU64::new(0);

    let mut per_worker: Vec<Vec<DeviceRecord>> = Vec::with_capacity(workers);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|me| {
                let cells = &cells;
                let stolen = &stolen;
                let steals = &steals;
                let runner = &runner;
                scope.spawn(move || {
                    let mut records = Vec::new();
                    loop {
                        if let Some(slot) = cells[me].pop() {
                            let spec = cfg.device_spec(schedule[slot as usize]);
                            records.push(runner(cfg, spec));
                            continue;
                        }
                        // Own range drained: steal the upper half of the
                        // fattest victim so stolen batches stay chunky.
                        let victim = (0..workers)
                            .filter(|&w| w != me)
                            .max_by_key(|&w| cells[w].remaining())
                            .filter(|&w| cells[w].remaining() >= 2);
                        let Some(victim) = victim else { break };
                        if let Some((lo, hi)) = cells[victim].steal_half() {
                            steals.fetch_add(1, Ordering::Relaxed);
                            stolen.fetch_add(u64::from(hi - lo), Ordering::Relaxed);
                            cells[me].refill(lo, hi);
                        }
                    }
                    records
                })
            })
            .collect();
        for handle in handles {
            per_worker.push(handle.join().expect("fleet worker panicked"));
        }
    });

    let mut records: Vec<DeviceRecord> = per_worker.into_iter().flatten().collect();
    records.sort_by_key(|r| r.device_id);
    debug_assert_eq!(records.len(), cfg.devices as usize);

    let stats = FleetRunStats {
        workers,
        devices_swept: u64::from(cfg.devices),
        devices_stolen: stolen.load(Ordering::Relaxed),
        steals: steals.load(Ordering::Relaxed),
        wall_ms: u64::try_from(start.elapsed().as_millis()).unwrap_or(u64::MAX),
    };
    Ok(FleetReport { records, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbm_units::Millivolts;

    fn small_cfg(devices: u32, workers: usize) -> FleetConfig {
        FleetConfig {
            devices,
            workers,
            words_per_pc: 8,
            from: Millivolts(980),
            down_to: Millivolts(900),
            step: Millivolts(20),
            weak_reference: Millivolts(900),
            ..FleetConfig::default()
        }
    }

    #[test]
    fn range_cell_pop_and_steal() {
        let cell = RangeCell::new(0, 10);
        assert_eq!(cell.pop(), Some(0));
        let (lo, hi) = cell.steal_half().unwrap();
        assert_eq!((lo, hi), (6, 10)); // 9 remaining, upper 4 stolen
        assert_eq!(cell.remaining(), 5);
        let single = RangeCell::new(3, 4);
        assert_eq!(single.steal_half(), None, "last slot stays with owner");
        assert_eq!(single.pop(), Some(3));
        assert_eq!(single.pop(), None);
    }

    #[test]
    fn worker_counts_agree_bit_for_bit() {
        let base = run(&small_cfg(9, 1)).unwrap();
        for workers in [2, 4, 8] {
            let multi = run(&small_cfg(9, workers)).unwrap();
            assert_eq!(base.records, multi.records, "{workers} workers diverged");
        }
    }

    #[test]
    fn schedule_order_does_not_matter() {
        let cfg = small_cfg(7, 3);
        let forward = run(&cfg).unwrap();
        let reversed: Vec<u32> = (0..7).rev().collect();
        let shuffled = run_scheduled(&cfg, &reversed, characterize_device).unwrap();
        assert_eq!(forward.records, shuffled.records);
    }

    #[test]
    fn bad_schedules_are_rejected() {
        let cfg = small_cfg(3, 1);
        assert!(run_scheduled(&cfg, &[0, 1], characterize_device).is_err());
        assert!(run_scheduled(&cfg, &[0, 1, 1], characterize_device).is_err());
        assert!(run_scheduled(&cfg, &[0, 1, 3], characterize_device).is_err());
    }

    #[test]
    fn crash_floor_marks_low_knots_crashed() {
        let mut cfg = small_cfg(2, 1);
        cfg.down_to = Millivolts(780);
        cfg.weak_reference = Millivolts(980);
        let report = run(&cfg).unwrap();
        let knots = cfg.knots();
        for rec in &report.records {
            let crashed: Vec<bool> = knots
                .iter()
                .map(|&v| v < Millivolts(u32::from(rec.crash_mv)))
                .collect();
            for (k, &is_crashed) in crashed.iter().enumerate() {
                for pc in 0..usize::from(cfg.geometry.total_pcs()) {
                    let count = rec.faults[pc * knots.len() + k];
                    assert_eq!(count == CRASHED_KNOT, is_crashed, "pc {pc} knot {k}");
                }
            }
        }
    }
}
