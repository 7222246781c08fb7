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
//! - any sampled randomness is keyed per work item via
//!   [`hbm_faults::pc_stream`], never drawn from shared state;
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

/// Every checked word's stuck-at masks for one port at one voltage — the
/// batch/pattern reuse working set of the reliability tester's cached-mask
/// mode. Built once per voltage point by [`build_mask_sets`], then replayed
/// across every batch pass and data pattern via [`PortMasks::stats_for`].
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct PortMasks {
    port: PortId,
    set: MaskSet,
}

#[derive(Debug, Clone, PartialEq)]
enum MaskSet {
    /// Sequential walk over `0..words`: only the faulty words are stored —
    /// the injector's skip-sampling enumeration never visits the rest.
    Sequential {
        words: u64,
        faulty: Vec<(WordOffset, Word256, Word256)>,
    },
    /// Sampled mode: every drawn offset in draw order, duplicates kept —
    /// the traffic path checks duplicates per occurrence, so must the
    /// replay.
    Sampled {
        samples: Vec<(u64, Word256, Word256)>,
    },
    /// Per-pattern pass statistics with no masks stored at all: folded
    /// *during* a dense-regime enumeration, or read from a descent row.
    /// The working set stays O(patterns) even when nearly every word of
    /// the range is faulty. Mask sums commute, so the fold
    /// is identical to replaying a collected vector.
    Streamed {
        words: u64,
        stats: Vec<(DataPattern, PortStats)>,
    },
}

impl PortMasks {
    /// The AXI port this working set covers.
    pub(crate) fn port(&self) -> PortId {
        self.port
    }

    /// Number of word checks one batch pass performs against this set.
    pub(crate) fn words_checked(&self) -> u64 {
        match &self.set {
            MaskSet::Sequential { words, .. } | MaskSet::Streamed { words, .. } => *words,
            MaskSet::Sampled { samples } => samples.len() as u64,
        }
    }

    /// The port statistics one full write/read-back pass would produce
    /// under `pattern` — bit-identical to running the traffic generator,
    /// by the determinism of the stuck-at model.
    pub(crate) fn stats_for(&self, pattern: DataPattern) -> PortStats {
        if let MaskSet::Streamed { stats, .. } = &self.set {
            return stats
                .iter()
                .find(|(p, _)| *p == pattern)
                .map(|(_, s)| *s)
                .expect("pattern folded at build time");
        }
        let mut stats = PortStats {
            words_written: self.words_checked(),
            words_read: self.words_checked(),
            ..PortStats::default()
        };
        match &self.set {
            MaskSet::Sequential { faulty, .. } => {
                for &(offset, s0, s1) in faulty {
                    tally(&mut stats, pattern.word_at(offset.0), s0, s1);
                }
            }
            MaskSet::Sampled { samples } => {
                for &(offset, s0, s1) in samples {
                    tally(&mut stats, pattern.word_at(offset), s0, s1);
                }
            }
            MaskSet::Streamed { .. } => unreachable!("handled above"),
        }
        stats
    }
}

/// Folds one word's masks into the pass statistics exactly the way the
/// traffic generator's read-check does.
fn tally(stats: &mut PortStats, expected: Word256, stuck0: Word256, stuck1: Word256) {
    let observed = expected.with_stuck_bits(stuck0, stuck1);
    if observed != expected {
        stats.faulty_words += 1;
        let (f10, f01) = observed.flips_from(expected);
        stats.flips_1to0 += u64::from(f10);
        stats.flips_0to1 += u64::from(f01);
    }
}

/// Above this predicted fraction of faulty words, a sequential build folds
/// its per-pattern statistics during enumeration ([`MaskSet::Streamed`])
/// instead of collecting a mask vector that would rival the size of the
/// scanned range itself. The prediction comes from the injector's tile
/// cache ([`FaultInjector::expected_active_fraction`]), so the choice is
/// made before enumerating anything.
const STREAM_DENSITY_THRESHOLD: f64 = 0.5;

/// Folds a stream of faulty-word masks into one [`PortStats`] per pattern
/// without storing any mask: the streamed counterpart of replaying a
/// collected vector through [`PortMasks::stats_for`]. The fold is a sum of
/// per-word contributions, so it is independent of enumeration order.
fn streamed_stats<F>(words: u64, patterns: &[DataPattern], for_each: F) -> MaskSet
where
    F: FnOnce(&mut dyn FnMut(WordOffset, Word256, Word256)),
{
    let mut stats: Vec<(DataPattern, PortStats)> = patterns
        .iter()
        .map(|&pattern| {
            (
                pattern,
                PortStats {
                    words_written: words,
                    words_read: words,
                    ..PortStats::default()
                },
            )
        })
        .collect();
    for_each(&mut |offset, s0, s1| {
        for (pattern, port_stats) in &mut stats {
            tally(port_stats, pattern.word_at(offset.0), s0, s1);
        }
    });
    MaskSet::Streamed { words, stats }
}

/// Builds one sequential-walk working set, picking between the sparse
/// collected representation and the dense streaming fold by predicted
/// fault density.
fn build_sequential(
    kernel: FieldKernel<'_>,
    pc: PcIndex,
    words: u64,
    voltage: Millivolts,
    patterns: &[DataPattern],
) -> MaskSet {
    if kernel.expected_active_fraction(pc, voltage) > STREAM_DENSITY_THRESHOLD {
        return streamed_stats(words, patterns, |fold| {
            kernel.for_each_faulty_word(pc, 0..words, voltage, fold);
        });
    }
    MaskSet::Sequential {
        words,
        faulty: kernel.faulty_words(pc, 0..words, voltage),
    }
}

/// Builds the cached-mask working sets for one voltage point, one per port,
/// fanning the per-port kernel invocations across the platform's worker
/// threads (the injector is `Sync`; its tile cache is shared). Results come
/// back in `ports` order regardless of scheduling, and one
/// [`TelemetryEvent::WorkerShardDone`] is emitted per port in that order
/// after all builders join — so the trace is identical at every worker
/// count.
///
/// `kernel` supplies the masks: its backend decides only how fast the
/// faults are found, never which (the sweeps pass
/// [`hbm_faults::KernelBackend::Auto`]; tests pass the scalar reference). `patterns` is needed up front because dense-regime
/// sequential builds fold their per-pattern statistics during enumeration
/// (streaming mode) instead of collecting masks.
///
/// # Errors
///
/// [`DeviceError::PortDisabled`] if a scoped port is disabled — matching
/// what the traffic path's first AXI access would report.
#[allow(clippy::too_many_arguments)]
pub(crate) fn build_mask_sets(
    platform: &Platform,
    ports: &[PortId],
    words: u64,
    sample_words: Option<u64>,
    voltage: Millivolts,
    kernel: FieldKernel<'_>,
    patterns: &[DataPattern],
    telemetry: &Telemetry,
) -> Result<Vec<PortMasks>, ExperimentError> {
    check_enabled(platform, ports)?;
    let seed = platform.seed();
    let build = move |&port: &PortId| -> PortMasks {
        let pc = port.direct_pc();
        let set = match sample_words {
            None => build_sequential(kernel, pc, words, voltage, patterns),
            Some(samples) => MaskSet::Sampled {
                samples: hbm_faults::stream::sample_offsets(seed, voltage, pc, samples, words)
                    .into_iter()
                    .map(|w| {
                        let (s0, s1) = kernel.masks(pc, WordOffset(w), voltage);
                        (w, s0, s1)
                    })
                    .collect(),
            },
        };
        PortMasks { port, set }
    };
    let sets = shard_map(ports, platform.workers(), build);
    emit_shards_done(&sets, telemetry);
    Ok(sets)
}

/// Runs `build` on every port of `ports` across up to `workers` scoped
/// threads, one contiguous chunk of ports per thread, and returns the
/// results in `ports` order regardless of scheduling. The shard loop of
/// both mask-set builders; with one worker it is a plain loop.
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

/// One [`TelemetryEvent::WorkerShardDone`] per built set, in `ports` order.
fn emit_shards_done(sets: &[PortMasks], telemetry: &Telemetry) {
    for set in sets {
        telemetry.emit(TelemetryEvent::WorkerShardDone {
            port: set.port().as_u8(),
            words: set.words_checked(),
        });
    }
}

/// The descent rows a platform has computed: for each `(port, words,
/// voltage)`, the per-pattern statistics one write/read-back pass over
/// `0..words` of the port measures at that voltage. A row is a
/// pure function of the fault realization, so it stays valid across power
/// cycles, retries and sweeps until the temperature changes.
pub(crate) type DescentRows = BTreeMap<(u8, u64, Millivolts), Vec<(DataPattern, PortStats)>>;

/// The descending counterpart of [`build_mask_sets`] for sequential walks:
/// every port's set is its descent row at `schedule[0]`, handed out as a
/// [`MaskSet::Streamed`] set. The ports without a row there first run one
/// [`MaskKernel::exposure_descent`] each over the whole `schedule` (this
/// voltage and every lower one the sweep will visit), sharded across the
/// platform's workers like [`build_mask_sets`]; a row per knot is kept
/// once they join, so the following points read rows instead of
/// enumerating masks.
///
/// The rows are bit-identical to a from-scratch [`build_mask_sets`] at each
/// knot: the descent's counts at a knot are exactly a fold of the
/// enumeration's masks there (for every backend). A row is a
/// pure function of its port, so the worker count changes nothing; the
/// events match [`build_mask_sets`].
///
/// Returns the sets in `ports` order plus the words the point's descents
/// hashed (zero when every row was already known).
///
/// # Errors
///
/// [`DeviceError::PortDisabled`] if a scoped port is disabled, exactly
/// like [`build_mask_sets`].
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
            set: MaskSet::Streamed {
                words,
                stats: rows[&(port.as_u8(), words, voltage)].clone(),
            },
        })
        .collect();
    emit_shards_done(&sets, telemetry);
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

    #[test]
    fn mask_sets_match_traffic_generator_stats() {
        let mut platform = Platform::builder().seed(7).build();
        platform.set_voltage(Millivolts(860)).unwrap();
        let ports: Vec<PortId> = (0..4).map(|i| PortId::new(i).unwrap()).collect();
        for sample_words in [None, Some(96)] {
            let sets = build_mask_sets(
                &platform,
                &ports,
                128,
                sample_words,
                Millivolts(860),
                platform.injector().kernel(KernelBackend::Auto),
                &[DataPattern::AllOnes, DataPattern::Checkerboard],
                Telemetry::disabled(),
            )
            .unwrap();
            for (set, &port) in sets.iter().zip(&ports) {
                assert_eq!(set.port(), port);
                for pattern in [DataPattern::AllOnes, DataPattern::Checkerboard] {
                    let program = match sample_words {
                        None => MacroProgram::write_then_check(0..128, pattern),
                        Some(n) => {
                            let offsets = hbm_faults::stream::sample_offsets(
                                platform.seed(),
                                Millivolts(860),
                                port.direct_pc(),
                                n,
                                128,
                            );
                            MacroProgram::write_then_check_at(&offsets, pattern)
                        }
                    };
                    let mut tg = TrafficGenerator::new(port);
                    let stats = tg.run(&program, &mut platform.port(port)).unwrap();
                    assert_eq!(set.stats_for(pattern), stats, "port {port:?} {pattern}");
                }
            }
        }
    }

    #[test]
    fn mask_sets_are_worker_count_invariant() {
        let sets_with = |workers: usize| {
            let mut platform = Platform::builder().seed(7).workers(workers).build();
            platform.set_voltage(Millivolts(880)).unwrap();
            let ports: Vec<PortId> = (0..platform.geometry().total_pcs())
                .map(|i| PortId::new(i).unwrap())
                .collect();
            build_mask_sets(
                &platform,
                &ports,
                256,
                None,
                Millivolts(880),
                platform.injector().kernel(KernelBackend::Auto),
                &[DataPattern::AllOnes],
                Telemetry::disabled(),
            )
            .unwrap()
        };
        let sequential = sets_with(1);
        assert!(sequential.iter().any(|s| s.words_checked() == 256));
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
        let err = build_mask_sets(
            &platform,
            &ports,
            64,
            None,
            Millivolts(900),
            platform.injector().kernel(KernelBackend::Auto),
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
        // and deep in the dense region, the density-adaptive kernel builds
        // the same mask sets as the scalar reference — sequential, sampled
        // and every descent row.
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
            let build = |kernel, sample_words| {
                build_mask_sets(
                    &platform,
                    &ports,
                    words,
                    sample_words,
                    v,
                    kernel,
                    &patterns,
                    Telemetry::disabled(),
                )
                .unwrap()
            };
            let reference = build(scalar, None);
            assert_eq!(build(auto, None), reference, "at {v}");
            assert_eq!(
                build(auto, Some(96)),
                build(scalar, Some(96)),
                "sampled at {v}"
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
        let descend = |platform: &mut Platform, from: usize| {
            build_mask_sets_descended(
                platform,
                &ports,
                256,
                &schedule[from..],
                &patterns,
                Telemetry::disabled(),
            )
            .unwrap()
        };
        let rescan = |platform: &Platform, v| {
            let kernel = platform.injector().kernel(KernelBackend::Auto);
            build_mask_sets(
                platform,
                &ports,
                256,
                None,
                v,
                kernel,
                &patterns,
                Telemetry::disabled(),
            )
            .unwrap()
        };
        let (first, descended) = descend(&mut platform, 0);
        assert_eq!(descended, 4 * 256, "the first point descends every port");
        for (from, &v) in schedule.iter().enumerate() {
            let (sets, descended) = descend(&mut platform, from);
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
        assert_eq!(first, descend(&mut platform, 0).0);
        // A new temperature is a new fault realization: the rows go.
        platform.set_temperature(hbm_units::Celsius(55.0));
        let (hot, descended) = descend(&mut platform, 1);
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
