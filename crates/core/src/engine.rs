//! The parallel sweep execution engine.
//!
//! Every measurement loop in this crate boils down to "run one macro program
//! per AXI port and collect per-port statistics". The engine executes that
//! shape either sequentially (the historical per-port loop) or sharded
//! across `std::thread::scope` workers, one disjoint pseudo-channel shard
//! per job. The two modes are bit-identical:
//!
//! - the fault injector is a pure function of `(seed, pc, offset, supply)` —
//!   it holds no RNG state a schedule could perturb;
//! - each shard owns its pseudo channel's array and counters outright, so no
//!   write of one worker is visible to another;
//! - results are reassembled in job order regardless of completion order.
//!
//! `workers` comes from the platform ([`crate::PlatformBuilder::workers`]);
//! the default of 1 keeps the exact sequential code path.

use std::collections::BTreeMap;

use hbm_device::{DeviceError, PcIndex, PcShard, PortId, Word256, WordOffset};
use hbm_faults::{FaultInjector, FieldKernel, KernelBackend, MaskKernel, Written};
use hbm_traffic::{DataPattern, MacroProgram, MemoryPort, PortStats, TrafficGenerator};
use hbm_units::Millivolts;

use crate::error::ExperimentError;
use crate::platform::Platform;
use crate::telemetry::{Telemetry, TelemetryEvent};

/// Fault-injecting access to one pseudo-channel shard: the parallel
/// counterpart of [`crate::UndervoltedPort`]. Writes go straight to the
/// shard's array; reads pass through the undervolting fault model at the
/// supply voltage snapshotted when the shard set was created.
#[derive(Debug)]
pub struct ShardPort<'a> {
    shard: PcShard<'a>,
    injector: &'a FaultInjector,
}

impl<'a> ShardPort<'a> {
    pub(crate) fn new(shard: PcShard<'a>, injector: &'a FaultInjector) -> Self {
        ShardPort { shard, injector }
    }

    /// The AXI port this shard models.
    #[must_use]
    pub fn port(&self) -> PortId {
        self.shard.port()
    }
}

impl MemoryPort for ShardPort<'_> {
    fn write(&mut self, offset: WordOffset, word: Word256) -> Result<(), DeviceError> {
        self.shard.write(offset, word)
    }

    fn read(&mut self, offset: WordOffset) -> Result<Word256, DeviceError> {
        let stored = self.shard.read(offset)?;
        Ok(self.injector.observe(
            stored,
            self.shard.port().direct_pc(),
            offset,
            self.shard.supply(),
        ))
    }
}

/// Runs one macro program per port and returns per-port statistics in job
/// order, using the platform's configured worker count.
///
/// With one worker this is exactly the sequential per-port loop over
/// [`Platform::port`]; with more workers the device is split into
/// per-pseudo-channel shards and the jobs run on scoped threads.
///
/// After every job joins, one [`TelemetryEvent::WorkerShardDone`] is emitted
/// per job in job order — never from inside a worker — so the trace is
/// identical at every worker count.
///
/// # Errors
///
/// The first device error in job order; a configuration error if a port
/// appears twice in a sharded batch (a port's shard can only be handed to
/// one job).
pub(crate) fn run_jobs(
    platform: &mut Platform,
    jobs: &[(PortId, MacroProgram)],
    telemetry: &Telemetry,
) -> Result<Vec<(PortId, PortStats)>, ExperimentError> {
    let results = run_jobs_inner(platform, jobs)?;
    for (port, stats) in &results {
        telemetry.emit(TelemetryEvent::WorkerShardDone {
            port: port.as_u8(),
            words: stats.words_written + stats.words_read,
        });
    }
    Ok(results)
}

fn run_jobs_inner(
    platform: &mut Platform,
    jobs: &[(PortId, MacroProgram)],
) -> Result<Vec<(PortId, PortStats)>, ExperimentError> {
    let workers = platform.workers();
    if workers <= 1 {
        let mut results = Vec::with_capacity(jobs.len());
        for (port, program) in jobs {
            let mut tg = TrafficGenerator::new(*port);
            let stats = tg
                .run(program, &mut platform.port(*port))
                .map_err(ExperimentError::from)?;
            results.push((*port, stats));
        }
        return Ok(results);
    }

    let shards = platform.shard_ports()?;
    let mut slots: Vec<Option<ShardPort<'_>>> = shards.into_iter().map(Some).collect();
    let mut sharded = Vec::with_capacity(jobs.len());
    for (port, program) in jobs {
        let access = slots
            .get_mut(usize::from(port.as_u8()))
            .and_then(Option::take)
            .ok_or_else(|| {
                ExperimentError::config(format!(
                    "port {} appears more than once in a sharded batch",
                    port.as_u8()
                ))
            })?;
        sharded.push((*port, program, access));
    }
    hbm_traffic::run_sharded(sharded, workers).map_err(ExperimentError::from)
}

/// One port's per-pattern pass statistics at one voltage — the
/// batch/pattern reuse working set of the reliability tester's cached-mask
/// mode. Read from the port's descent row by [`build_mask_sets_descended`],
/// then replayed across every batch pass via [`PortMasks::stats_for`].
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct PortMasks {
    port: PortId,
    stats: Vec<(DataPattern, PortStats)>,
}

impl PortMasks {
    /// The AXI port this working set covers.
    pub(crate) fn port(&self) -> PortId {
        self.port
    }

    /// The port statistics one full write/read-back pass would produce
    /// under `pattern` — bit-identical to running the traffic generator,
    /// by the determinism of the stuck-at model.
    pub(crate) fn stats_for(&self, pattern: DataPattern) -> PortStats {
        self.stats
            .iter()
            .find(|(p, _)| *p == pattern)
            .map(|(_, s)| *s)
            .expect("pattern folded at build time")
    }
}

/// Test oracle of [`build_mask_sets_descended`]: each port's per-pattern
/// pass statistics at `voltage`, folded from `kernel`'s per-word masks
/// over `0..words` exactly the way the traffic generator's read-check
/// counts them.
#[cfg(test)]
pub(crate) fn build_mask_sets(
    ports: &[PortId],
    words: u64,
    voltage: Millivolts,
    kernel: FieldKernel<'_>,
    patterns: &[DataPattern],
) -> Vec<PortMasks> {
    let pass = PortStats {
        words_written: words,
        words_read: words,
        ..PortStats::default()
    };
    let build = |&port: &PortId| {
        let mut stats: Vec<_> = patterns.iter().map(|&pattern| (pattern, pass)).collect();
        for w in 0..words {
            let (s0, s1) = kernel.masks(port.direct_pc(), WordOffset(w), voltage);
            for (pattern, stats) in &mut stats {
                let expected = pattern.word_at(w);
                let observed = expected.with_stuck_bits(s0, s1);
                if observed != expected {
                    stats.faulty_words += 1;
                    let (f10, f01) = observed.flips_from(expected);
                    stats.flips_1to0 += u64::from(f10);
                    stats.flips_0to1 += u64::from(f01);
                }
            }
        }
        PortMasks { port, stats }
    };
    ports.iter().map(build).collect()
}

/// Runs `build` on every port of `ports` across up to `workers` scoped
/// threads, one contiguous chunk of ports per thread, and returns the
/// results in `ports` order regardless of scheduling. The shard loop of
/// the ports' descents; with one worker it is a plain loop.
fn shard_map<R: Send>(
    ports: &[PortId],
    workers: usize,
    build: impl Fn(&PortId) -> R + Sync,
) -> Vec<R> {
    let workers = workers.min(ports.len()).max(1);
    if workers <= 1 {
        return ports.iter().map(build).collect();
    }
    let chunk = ports.len().div_ceil(workers);
    std::thread::scope(|scope| {
        let handles: Vec<_> = ports
            .chunks(chunk)
            .map(|slice| {
                let build = &build;
                scope.spawn(move || slice.iter().map(build).collect::<Vec<_>>())
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("mask builder thread panicked"))
            .collect()
    })
}

/// [`DeviceError::PortDisabled`] for the first disabled port of `ports` —
/// what the traffic path's first AXI access would report.
fn check_enabled(platform: &Platform, ports: &[PortId]) -> Result<(), ExperimentError> {
    match ports
        .iter()
        .find(|&&port| !platform.device().ports().is_enabled(port))
    {
        Some(port) => Err(DeviceError::PortDisabled {
            index: port.as_u8(),
        }
        .into()),
        None => Ok(()),
    }
}

/// The descent rows a platform has computed: for each `(port, words,
/// voltage)`, the per-pattern statistics one write/read-back pass over
/// `0..words` of the port measures at that voltage. A row is a
/// pure function of the fault realization, so it stays valid across power
/// cycles, retries and sweeps until the temperature changes.
pub(crate) type DescentRows = BTreeMap<(u8, u64, Millivolts), Vec<(DataPattern, PortStats)>>;

/// Builds the cached-mask working sets for one voltage point, one per
/// port: every port's set is its descent row at `schedule[0]`. The ports
/// without a row there first run one [`MaskKernel::exposure_descent`] each
/// over the whole `schedule` (this voltage and every lower one the sweep
/// will visit), sharded across the platform's workers; a row per knot is
/// kept once they join, so the following points read rows instead of
/// hashing words.
///
/// The rows are bit-identical to folding every word's masks at each knot
/// (for every backend). A row is a pure function of its port, so the
/// worker count changes nothing. One [`TelemetryEvent::WorkerShardDone`]
/// is emitted per port in `ports` order after the descents join, so the
/// trace is identical at every worker count.
///
/// Returns the sets in `ports` order plus the words the point's descents
/// hashed (zero when every row was already known).
///
/// # Errors
///
/// [`DeviceError::PortDisabled`] if a scoped port is disabled — matching
/// what the traffic path's first AXI access would report.
pub(crate) fn build_mask_sets_descended(
    platform: &mut Platform,
    ports: &[PortId],
    words: u64,
    schedule: &[Millivolts],
    patterns: &[DataPattern],
    telemetry: &Telemetry,
) -> Result<(Vec<PortMasks>, u64), ExperimentError> {
    check_enabled(platform, ports)?;
    let voltage = schedule[0];
    let known = platform.descent_rows();
    let mut missing: Vec<PortId> = Vec::new();
    for &port in ports {
        let row = known.get(&(port.as_u8(), words, voltage));
        if !row.is_some_and(|row| row.iter().map(|(p, _)| p).eq(patterns))
            && !missing.contains(&port)
        {
            missing.push(port);
        }
    }
    let kernel = platform.injector().kernel(KernelBackend::Auto);
    let descents = shard_map(&missing, platform.workers(), |port| {
        descent_rows(kernel, port.direct_pc(), words, schedule, patterns)
    });
    let rows = platform.descent_rows();
    for (port, port_rows) in missing.iter().zip(descents) {
        for (&v, row) in schedule.iter().zip(port_rows) {
            rows.insert((port.as_u8(), words, v), row);
        }
    }
    let sets: Vec<PortMasks> = ports
        .iter()
        .map(|&port| PortMasks {
            port,
            stats: rows[&(port.as_u8(), words, voltage)].clone(),
        })
        .collect();
    for &port in ports {
        telemetry.emit(TelemetryEvent::WorkerShardDone {
            port: port.as_u8(),
            words,
        });
    }
    Ok((sets, words * missing.len() as u64))
}

/// One port's descent rows: for every knot of `schedule`, the per-pattern
/// statistics one pass over `0..words` measures there, read from one
/// [`MaskKernel::exposure_descent`]. An all-1s or all-0s pattern is passed
/// as such, so its flips cost the descent nothing per bit.
fn descent_rows(
    kernel: FieldKernel<'_>,
    pc: PcIndex,
    words: u64,
    schedule: &[Millivolts],
    patterns: &[DataPattern],
) -> Vec<Vec<(DataPattern, PortStats)>> {
    let word_at: Vec<_> = patterns
        .iter()
        .map(|&pattern| move |offset| pattern.word_at(offset))
        .collect();
    let written: Vec<Written<'_>> = patterns
        .iter()
        .zip(&word_at)
        .map(|(pattern, at)| match pattern {
            DataPattern::AllOnes => Written::Ones,
            DataPattern::AllZeros => Written::Zeros,
            _ => Written::Words(at),
        })
        .collect();
    kernel
        .exposure_descent(pc, 0..words, schedule, &written)
        .into_iter()
        .map(|row| {
            patterns
                .iter()
                .zip(row)
                .map(|(&pattern, exposure)| {
                    let stats = PortStats {
                        words_written: words,
                        words_read: words,
                        faulty_words: exposure.faulty_words,
                        flips_1to0: exposure.stuck0,
                        flips_0to1: exposure.stuck1,
                    };
                    (pattern, stats)
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn jobs_for(
        platform: &Platform,
        words: u64,
        pattern: DataPattern,
    ) -> Vec<(PortId, MacroProgram)> {
        (0..platform.geometry().total_pcs())
            .map(|i| {
                (
                    PortId::new(i).unwrap(),
                    MacroProgram::write_then_check(0..words, pattern),
                )
            })
            .collect()
    }

    fn run_at(workers: usize, voltage: Millivolts) -> Vec<(PortId, PortStats)> {
        let mut platform = Platform::builder().seed(7).workers(workers).build();
        platform.set_voltage(voltage).unwrap();
        let jobs = jobs_for(&platform, 128, DataPattern::AllOnes);
        run_jobs(&mut platform, &jobs, Telemetry::disabled()).unwrap()
    }

    #[test]
    fn sequential_and_parallel_agree_with_faults() {
        let sequential = run_at(1, Millivolts(860));
        assert_eq!(sequential.len(), 32);
        assert!(
            sequential.iter().any(|(_, s)| s.total_flips() > 0),
            "860 mV must show faults"
        );
        for workers in [2, 4, 8] {
            assert_eq!(
                sequential,
                run_at(workers, Millivolts(860)),
                "{workers} workers"
            );
        }
    }

    #[test]
    fn duplicate_port_rejected_in_sharded_mode() {
        let mut platform = Platform::builder().seed(7).workers(4).build();
        let port = PortId::new(3).unwrap();
        let program = MacroProgram::write_then_check(0..4, DataPattern::AllOnes);
        let jobs = vec![(port, program.clone()), (port, program)];
        let err = run_jobs(&mut platform, &jobs, Telemetry::disabled()).unwrap_err();
        assert!(matches!(err, ExperimentError::Config { .. }));
    }

    /// The descended sets of `ports` at the first knot of `schedule`.
    fn descend(
        platform: &mut Platform,
        ports: &[PortId],
        words: u64,
        schedule: &[Millivolts],
        patterns: &[DataPattern],
    ) -> (Vec<PortMasks>, u64) {
        build_mask_sets_descended(
            platform,
            ports,
            words,
            schedule,
            patterns,
            Telemetry::disabled(),
        )
        .unwrap()
    }

    #[test]
    fn mask_sets_match_traffic_generator_stats() {
        let mut platform = Platform::builder().seed(7).build();
        platform.set_voltage(Millivolts(860)).unwrap();
        let ports: Vec<PortId> = (0..4).map(|i| PortId::new(i).unwrap()).collect();
        let patterns = [DataPattern::AllOnes, DataPattern::Checkerboard];
        let (sets, _) = descend(&mut platform, &ports, 128, &[Millivolts(860)], &patterns);
        for (set, &port) in sets.iter().zip(&ports) {
            assert_eq!(set.port(), port);
            for pattern in patterns {
                let program = MacroProgram::write_then_check(0..128, pattern);
                let mut tg = TrafficGenerator::new(port);
                let stats = tg.run(&program, &mut platform.port(port)).unwrap();
                assert_eq!(set.stats_for(pattern), stats, "port {port:?} {pattern}");
            }
        }
    }

    #[test]
    fn mask_sets_are_worker_count_invariant() {
        let sets_with = |workers: usize| {
            let mut platform = Platform::builder().seed(7).workers(workers).build();
            let ports: Vec<PortId> = (0..platform.geometry().total_pcs())
                .map(|i| PortId::new(i).unwrap())
                .collect();
            let schedule = [880, 860].map(Millivolts);
            descend(
                &mut platform,
                &ports,
                256,
                &schedule,
                &[DataPattern::AllOnes],
            )
            .0
        };
        let sequential = sets_with(1);
        assert_eq!(sequential.len(), 32);
        for workers in [3usize, 8] {
            assert_eq!(sequential, sets_with(workers), "{workers} workers");
        }
    }

    #[test]
    fn mask_sets_reject_disabled_ports() {
        let mut platform = Platform::builder().seed(7).build();
        platform.enable_ports(4);
        platform.set_voltage(Millivolts(900)).unwrap();
        let ports = [PortId::new(6).unwrap()];
        let err = build_mask_sets_descended(
            &mut platform,
            &ports,
            64,
            &[Millivolts(900)],
            &[DataPattern::AllOnes],
            Telemetry::disabled(),
        )
        .unwrap_err();
        assert!(err.to_string().contains('6'), "{err}");
    }

    /// Every pattern's statistics of one built set, in `patterns` order —
    /// the shape of a descent row.
    fn row_of(set: &PortMasks, patterns: &[DataPattern]) -> Vec<(DataPattern, PortStats)> {
        patterns.iter().map(|&p| (p, set.stats_for(p))).collect()
    }

    #[test]
    fn auto_kernel_never_changes_results_vs_forced_scalar() {
        // The backend only changes speed: at every point of the quick grid
        // and deep in the dense region, the bit-sliced kernel's per-word
        // masks fold to the same sets as the scalar reference's, and so
        // does every descent row.
        let platform = Platform::builder().seed(7).build();
        let ports: Vec<PortId> = (0..platform.geometry().total_pcs())
            .map(|i| PortId::new(i).unwrap())
            .collect();
        let patterns = [DataPattern::AllOnes, DataPattern::AllZeros];
        let mut voltages: Vec<Millivolts> =
            crate::ReliabilityConfig::quick().sweep.iter().collect();
        voltages.extend([860, 850, 840].map(Millivolts));
        voltages.sort_unstable_by(|a, b| b.cmp(a));
        voltages.dedup();
        let words = 512;
        let scalar = platform.injector().kernel(KernelBackend::Scalar);
        let auto = platform.injector().kernel(KernelBackend::Auto);
        // Per port, each backend's descent rows over the whole grid.
        let rows: Vec<_> = ports
            .iter()
            .map(|port| {
                [scalar, auto].map(|kernel| {
                    descent_rows(kernel, port.direct_pc(), words, &voltages, &patterns)
                })
            })
            .collect();
        for (k, &v) in voltages.iter().enumerate() {
            let reference = build_mask_sets(&ports, words, v, scalar, &patterns);
            assert_eq!(
                build_mask_sets(&ports, words, v, auto, &patterns),
                reference,
                "at {v}"
            );
            for (port_rows, set) in rows.iter().zip(&reference) {
                for backend_rows in port_rows {
                    assert_eq!(
                        backend_rows[k],
                        row_of(set, &patterns),
                        "descent row at {v}"
                    );
                }
            }
        }
    }

    #[test]
    fn descended_sets_reuse_their_rows_until_the_temperature_changes() {
        let mut platform = Platform::builder().seed(7).build();
        let ports: Vec<PortId> = (0..4).map(|i| PortId::new(i).unwrap()).collect();
        let patterns = [DataPattern::Checkerboard, DataPattern::AddressAsData];
        let schedule = [900, 870, 840].map(Millivolts);
        let rescan = |platform: &Platform, v| {
            let kernel = platform.injector().kernel(KernelBackend::Auto);
            build_mask_sets(&ports, 256, v, kernel, &patterns)
        };
        let (first, descended) = descend(&mut platform, &ports, 256, &schedule, &patterns);
        assert_eq!(descended, 4 * 256, "the first point descends every port");
        for (from, &v) in schedule.iter().enumerate() {
            let (sets, descended) =
                descend(&mut platform, &ports, 256, &schedule[from..], &patterns);
            assert_eq!(descended, 0, "rows at {v} are already known");
            for (set, scanned) in sets.iter().zip(rescan(&platform, v)) {
                assert_eq!(set.port(), scanned.port());
                assert_eq!(
                    row_of(set, &patterns),
                    row_of(&scanned, &patterns),
                    "at {v}"
                );
            }
        }
        assert_eq!(
            first,
            descend(&mut platform, &ports, 256, &schedule, &patterns).0
        );
        // A new temperature is a new fault realization: the rows go.
        platform.set_temperature(hbm_units::Celsius(55.0));
        let (hot, descended) = descend(&mut platform, &ports, 256, &schedule[1..], &patterns);
        assert_eq!(descended, 4 * 256);
        for (set, scanned) in hot.iter().zip(rescan(&platform, schedule[1])) {
            assert_eq!(row_of(set, &patterns), row_of(&scanned, &patterns));
        }
    }

    #[test]
    fn parallel_mode_updates_device_stats_like_sequential() {
        let total_stats = |workers: usize| {
            let mut platform = Platform::builder().seed(7).workers(workers).build();
            platform.set_voltage(Millivolts(900)).unwrap();
            let jobs = jobs_for(&platform, 64, DataPattern::Checkerboard);
            run_jobs(&mut platform, &jobs, Telemetry::disabled()).unwrap();
            platform.device().total_stats()
        };
        assert_eq!(total_stats(1), total_stats(8));
    }
}
