//! Fleet sweep configuration and per-device identity derivation.
//!
//! A fleet run is fully determined by one [`FleetConfig`]: every device's
//! fault universe derives from `(base_seed, device_id)` through the same
//! counter-based hash discipline the injector uses for its bits, so the
//! fleet is reproducible from the config alone — no per-device state is
//! ever carried between runs.

use std::fmt;

use hbm_device::HbmGeometry;
use hbm_faults::{hash, FaultModelParams};
use hbm_units::Millivolts;

/// Domain tag folded into every per-device seed derivation so fleet seeds
/// can never collide with other consumers of the shared hash (`b"flee"`).
const SEED_DOMAIN: u64 = 0x666c_6565;

/// Domain tag for the per-device crash-floor jitter draw (`b"vcrs"`).
const CRASH_DOMAIN: u64 = 0x7663_7273;

/// The study's crash floor: below 810 mV the board no longer responds
/// (paper §V). Fleet devices jitter around this landmark to model the
/// chip-to-chip spread Chang et al. report for reduced-voltage DRAM.
const CRASH_FLOOR_MV: u32 = 810;

/// The most worker threads a fleet sweep may ask for, as `hbmctl serve`
/// allows its pipeline.
pub const MAX_WORKERS: usize = 256;

/// The most devices one fleet configuration may characterize: 256 times
/// the largest fleet any workload, bench or test sweeps, and small enough
/// that a sweep's per-device buffers stay far from exhausting memory.
pub const MAX_DEVICES: u32 = 65_536;

/// Errors raised by fleet configuration, sweeps and artifact handling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetError {
    /// The configuration is internally inconsistent.
    Config(String),
    /// An artifact could not be decoded (truncated, bad magic, bad bounds).
    Artifact(String),
    /// The artifact's format version is not the one this build writes.
    Version {
        /// Version found in the header.
        found: u32,
        /// Version this build understands.
        expected: u32,
    },
    /// A device ID was not present in the artifact.
    UnknownDevice(u32),
    /// Artifact I/O failed.
    Io(String),
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::Config(msg) => write!(f, "fleet config: {msg}"),
            FleetError::Artifact(msg) => write!(f, "fleet artifact: {msg}"),
            FleetError::Version { found, expected } => write!(
                f,
                "fleet artifact version {found} is not supported (expected {expected})"
            ),
            FleetError::UnknownDevice(id) => write!(f, "device {id} not present in artifact"),
            FleetError::Io(msg) => write!(f, "fleet artifact I/O: {msg}"),
        }
    }
}

impl std::error::Error for FleetError {}

/// One device's derived identity: everything a worker needs to
/// characterize it, computed from the fleet config and the device ID alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceSpec {
    /// Position in the fleet, `0..devices`.
    pub device_id: u32,
    /// Seed of this device's fault universe (drives `variation.rs`).
    pub seed: u64,
    /// This device's crash floor: supplies strictly below it crash the
    /// device instead of returning data.
    pub crash_floor: Millivolts,
}

/// Configuration of one fleet characterization run.
///
/// The defaults sweep the guardband region the paper maps (1.00 V down to
/// 0.82 V in 10 mV steps) over a word sample per pseudo channel that keeps
/// a multi-thousand-device fleet tractable.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// Number of devices to characterize, at most [`MAX_DEVICES`].
    pub devices: u32,
    /// Base seed all per-device seeds derive from.
    pub base_seed: u64,
    /// Worker threads, at most [`MAX_WORKERS`]; `0` means one worker per
    /// available CPU.
    pub workers: usize,
    /// Per-device geometry (the study's reduced VCU128 footprint).
    pub geometry: HbmGeometry,
    /// Fault-model calibration shared by every device.
    pub params: FaultModelParams,
    /// Highest sweep voltage (inclusive).
    pub from: Millivolts,
    /// Lowest sweep voltage (inclusive if on the step grid).
    pub down_to: Millivolts,
    /// Step between knots.
    pub step: Millivolts,
    /// Words sampled per pseudo channel (1..=255 so per-knot fault-bit
    /// counts fit the artifact's `u16` column next to its crash sentinel).
    pub words_per_pc: u64,
    /// Nominal supply the guardband is measured against.
    pub nominal: Millivolts,
    /// Knot at which a pseudo channel's fault rate is compared against
    /// [`FleetConfig::weak_rate_threshold`] for the weak-PC bitmap. Must be
    /// on the knot grid and above every possible crash floor.
    pub weak_reference: Millivolts,
    /// Union fault-rate threshold at the reference knot above which a
    /// pseudo channel is counted weak.
    pub weak_rate_threshold: f64,
    /// Half-width of the crash-floor jitter: device floors are drawn
    /// uniformly from `810 ± crash_jitter` mV.
    pub crash_jitter: Millivolts,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            devices: 64,
            base_seed: 7,
            workers: 0,
            geometry: HbmGeometry::vcu128_reduced(),
            params: FaultModelParams::date21(),
            from: Millivolts(1000),
            down_to: Millivolts(820),
            step: Millivolts(10),
            words_per_pc: 64,
            nominal: Millivolts(1200),
            weak_reference: Millivolts(900),
            weak_rate_threshold: 1e-4,
            crash_jitter: Millivolts(15),
        }
    }
}

impl FleetConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::Config`] when any field is out of range or
    /// the weak reference knot is not reachable by every device.
    pub fn validate(&self) -> Result<(), FleetError> {
        if self.devices == 0 || self.devices > MAX_DEVICES {
            return Err(FleetError::Config(format!(
                "devices must be in 1..={MAX_DEVICES}, got {}",
                self.devices
            )));
        }
        if self.step == Millivolts::ZERO {
            return Err(FleetError::Config("step must be positive".into()));
        }
        if self.from < self.down_to {
            return Err(FleetError::Config(format!(
                "sweep must descend: from {} is below down-to {}",
                self.from, self.down_to
            )));
        }
        if self.workers > MAX_WORKERS {
            return Err(FleetError::Config(format!(
                "workers must be at most {MAX_WORKERS} (0 takes the available parallelism), got {}",
                self.workers
            )));
        }
        if self.words_per_pc == 0 || self.words_per_pc > 255 {
            return Err(FleetError::Config(format!(
                "words-per-pc must be in 1..=255, got {}",
                self.words_per_pc
            )));
        }
        if self.words_per_pc > self.geometry.words_per_pc() {
            return Err(FleetError::Config(format!(
                "words-per-pc {} exceeds the geometry's {}",
                self.words_per_pc,
                self.geometry.words_per_pc()
            )));
        }
        if !(0.0..=1.0).contains(&self.weak_rate_threshold) {
            return Err(FleetError::Config(format!(
                "weak-rate threshold must be in [0, 1], got {}",
                self.weak_rate_threshold
            )));
        }
        let knots = self.knots();
        if !knots.contains(&self.weak_reference) {
            return Err(FleetError::Config(format!(
                "weak reference {} is not on the {}..{} step {} knot grid",
                self.weak_reference, self.from, self.down_to, self.step
            )));
        }
        let crash_ceiling = Millivolts(CRASH_FLOOR_MV) + self.crash_jitter;
        if self.weak_reference <= crash_ceiling {
            return Err(FleetError::Config(format!(
                "weak reference {} must sit above the highest possible crash floor {}",
                self.weak_reference, crash_ceiling
            )));
        }
        Ok(())
    }

    /// The descending knot grid `from, from−step, …` down to `down_to`.
    #[must_use]
    pub fn knots(&self) -> Vec<Millivolts> {
        let mut knots = Vec::new();
        let mut v = self.from;
        while v >= self.down_to {
            knots.push(v);
            if v < self.step {
                break;
            }
            v = v.saturating_sub(self.step);
        }
        knots
    }

    /// Index of the weak-reference knot in [`FleetConfig::knots`].
    #[must_use]
    pub fn weak_knot_index(&self) -> usize {
        self.knots()
            .iter()
            .position(|&v| v == self.weak_reference)
            .expect("validated weak reference is on the knot grid")
    }

    /// Bits checked per pseudo channel per knot.
    #[must_use]
    pub fn bits_per_pc(&self) -> u64 {
        self.words_per_pc * 256
    }

    /// Derives device `device_id`'s identity.
    ///
    /// Seeds come from the shared counter-based hash under a fleet domain
    /// tag, so distinct devices get statistically independent fault
    /// universes and the mapping never changes across releases.
    #[must_use]
    pub fn device_spec(&self, device_id: u32) -> DeviceSpec {
        let seed = hash::combine(&[SEED_DOMAIN, self.base_seed, u64::from(device_id)]);
        let jitter_span = 2 * self.crash_jitter.as_u32() + 1;
        let draw = hash::combine(&[CRASH_DOMAIN, self.base_seed, u64::from(device_id)]);
        let offset = (draw % u64::from(jitter_span)) as u32;
        let crash_floor = Millivolts(CRASH_FLOOR_MV - self.crash_jitter.as_u32() + offset);
        DeviceSpec {
            device_id,
            seed,
            crash_floor,
        }
    }

    /// Reconstructs the run configuration an artifact was swept under,
    /// from its header and knot table alone.
    ///
    /// This is what lets a compressed (model-only) store fall back to an
    /// on-demand exact rescan: every per-device seed and crash floor is a
    /// pure function of the config, and the config is a pure function of
    /// the header. The geometry and calibration are not stamped into the
    /// header — artifacts are always swept under the study's reduced
    /// VCU128 footprint with the DATE'21 calibration.
    ///
    /// # Errors
    ///
    /// [`FleetError::Artifact`] when the knot table is not a uniform
    /// descending grid or the header's PC count does not match the study
    /// geometry.
    pub fn from_meta(
        meta: &crate::artifact::ArtifactMeta,
        knots: &[Millivolts],
    ) -> Result<FleetConfig, FleetError> {
        let geometry = HbmGeometry::vcu128_reduced();
        if meta.pc_count != u32::from(geometry.total_pcs()) {
            return Err(FleetError::Artifact(format!(
                "artifact PC count {} does not match the study geometry's {}",
                meta.pc_count,
                geometry.total_pcs()
            )));
        }
        let (first, last) = match (knots.first(), knots.last()) {
            (Some(&first), Some(&last)) => (first, last),
            _ => return Err(FleetError::Artifact("artifact has no knots".into())),
        };
        let step = if knots.len() >= 2 {
            let step = knots[0].saturating_sub(knots[1]);
            if step == Millivolts::ZERO
                || knots.windows(2).any(|w| w[0].saturating_sub(w[1]) != step)
            {
                return Err(FleetError::Artifact(
                    "artifact knots are not a uniform descending grid".into(),
                ));
            }
            step
        } else {
            // A single-knot grid regenerates from any positive step.
            Millivolts(10)
        };
        let cfg = FleetConfig {
            devices: meta.device_count,
            base_seed: meta.base_seed,
            workers: 1,
            geometry,
            params: FaultModelParams::date21(),
            from: first,
            down_to: last,
            step,
            words_per_pc: meta.words_per_pc,
            nominal: Millivolts(u32::from(meta.nominal_mv)),
            weak_reference: Millivolts(u32::from(meta.weak_reference_mv)),
            weak_rate_threshold: meta.weak_rate_threshold,
            crash_jitter: Millivolts(u32::from(meta.crash_jitter_mv)),
        };
        cfg.validate()?;
        Ok(cfg)
    }

    /// Effective worker count: `workers`, or available parallelism when 0,
    /// never more than one worker per device.
    #[must_use]
    pub fn effective_workers(&self) -> usize {
        let requested = if self.workers == 0 {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        } else {
            self.workers
        };
        requested.clamp(1, self.devices as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_validates() {
        FleetConfig::default().validate().unwrap();
    }

    #[test]
    fn knot_grid_is_descending_and_inclusive() {
        let cfg = FleetConfig::default();
        let knots = cfg.knots();
        assert_eq!(knots.first(), Some(&Millivolts(1000)));
        assert_eq!(knots.last(), Some(&Millivolts(820)));
        assert_eq!(knots.len(), 19);
        assert!(knots.windows(2).all(|w| w[0] > w[1]));
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let base = FleetConfig::default();
        for (label, cfg) in [
            (
                "zero devices",
                FleetConfig {
                    devices: 0,
                    ..base.clone()
                },
            ),
            (
                "zero step",
                FleetConfig {
                    step: Millivolts::ZERO,
                    ..base.clone()
                },
            ),
            (
                "ascending sweep",
                FleetConfig {
                    from: Millivolts(800),
                    ..base.clone()
                },
            ),
            (
                "oversized words",
                FleetConfig {
                    words_per_pc: 256,
                    ..base.clone()
                },
            ),
            (
                "off-grid weak reference",
                FleetConfig {
                    weak_reference: Millivolts(905),
                    ..base.clone()
                },
            ),
            (
                "weak reference below crash ceiling",
                FleetConfig {
                    weak_reference: Millivolts(820),
                    ..base.clone()
                },
            ),
            (
                "too many devices",
                FleetConfig {
                    devices: MAX_DEVICES + 1,
                    ..base.clone()
                },
            ),
            (
                "too many workers",
                FleetConfig {
                    workers: MAX_WORKERS + 1,
                    ..base.clone()
                },
            ),
        ] {
            assert!(cfg.validate().is_err(), "{label} must be rejected");
        }
    }

    #[test]
    fn from_meta_rejects_knots_off_a_uniform_descending_grid() {
        let cfg = FleetConfig::default();
        let meta = crate::artifact::ArtifactMeta::from_config(&cfg);
        let back = FleetConfig::from_meta(&meta, &cfg.knots()).unwrap();
        assert_eq!(back.knots(), cfg.knots());
        for knots in [
            vec![900, 900, 880],
            vec![880, 900, 920],
            vec![900, 880, 870],
            vec![900, 880, 890],
        ] {
            let knots: Vec<Millivolts> = knots.into_iter().map(Millivolts).collect();
            assert!(
                matches!(
                    FleetConfig::from_meta(&meta, &knots),
                    Err(FleetError::Artifact(_))
                ),
                "{knots:?} must be rejected"
            );
        }
    }

    #[test]
    fn device_specs_are_distinct_and_stable() {
        let cfg = FleetConfig::default();
        let a = cfg.device_spec(0);
        let b = cfg.device_spec(1);
        assert_ne!(a.seed, b.seed);
        assert_eq!(a, cfg.device_spec(0), "derivation must be pure");
        let lo = Millivolts(CRASH_FLOOR_MV).saturating_sub(cfg.crash_jitter);
        let hi = Millivolts(CRASH_FLOOR_MV) + cfg.crash_jitter;
        for id in 0..64 {
            let spec = cfg.device_spec(id);
            assert!(spec.crash_floor >= lo && spec.crash_floor <= hi);
        }
    }

    #[test]
    fn crash_floors_spread_across_the_jitter_band() {
        let cfg = FleetConfig::default();
        let floors: std::collections::BTreeSet<u32> = (0..256)
            .map(|id| cfg.device_spec(id).crash_floor.as_u32())
            .collect();
        assert!(floors.len() > 10, "jitter draw collapsed: {floors:?}");
    }
}
