//! The per-device characterization record and the shared assembly logic
//! that turns a raw per-knot fault-count matrix into one.
//!
//! Keeping the V_min / weak-PC / guardband derivations in one place is
//! what lets two independent measurement paths — the fleet's kernel count
//! descent and core's supervised traffic sweep — produce
//! bit-identical records: both hand the same count matrix to
//! [`DeviceRecord::assemble`].

use hbm_units::Millivolts;
use serde::{Deserialize, Serialize};

use crate::config::{DeviceSpec, FleetConfig};

/// Sentinel fault count for a knot the device could not measure because
/// the supply sat below its crash floor.
pub const CRASHED_KNOT: u16 = u16::MAX;

/// V_min sentinel for a device that showed faults even at the highest
/// swept knot (no fault-free voltage was observed).
pub const NO_VMIN: u16 = 0;

/// One device's characterization: fixed-width scalars plus the per-PC
/// fault-count curve, exactly the columns the binary artifact stores.
///
/// Counts are exact fault-bit counts over `words_per_pc × 256` bits, knot
/// denominators shared fleet-wide, so records survive a binary→JSON→binary
/// round trip without any floating-point re-quantization.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeviceRecord {
    /// Fleet position, `0..devices`.
    pub device_id: u32,
    /// Seed of this device's fault universe.
    pub seed: u64,
    /// Lowest fault-free knot in millivolts ([`NO_VMIN`] when even the
    /// highest knot faulted).
    pub v_min_mv: u16,
    /// This device's crash floor in millivolts.
    pub crash_mv: u16,
    /// Bit `p` set when pseudo channel `p`'s union fault rate at the weak
    /// reference knot reached the configured threshold.
    pub weak_pcs: u32,
    /// Fault-bit counts, pseudo-channel-major: entry `pc × knots + k` is
    /// the union count (both polarities) at knot `k`, or [`CRASHED_KNOT`].
    pub faults: Vec<u16>,
}

impl DeviceRecord {
    /// Builds a record from a raw count matrix.
    ///
    /// `faults` must be pseudo-channel-major with one entry per
    /// `(pc, knot)`; crashed knots carry [`CRASHED_KNOT`]. V_min is the
    /// lowest knot at which every pseudo channel measured zero faults —
    /// well defined because the fault field is inclusion-monotone in
    /// descending voltage.
    ///
    /// # Panics
    ///
    /// Panics when the matrix shape disagrees with the config.
    #[must_use]
    pub fn assemble(cfg: &FleetConfig, spec: DeviceSpec, faults: Vec<u16>) -> DeviceRecord {
        let knots = cfg.knots();
        let pcs = usize::from(cfg.geometry.total_pcs());
        assert_eq!(faults.len(), pcs * knots.len(), "count matrix shape");

        let mut v_min_mv = NO_VMIN;
        for (k, &knot) in knots.iter().enumerate() {
            let clean = (0..pcs).all(|pc| faults[pc * knots.len() + k] == 0);
            if clean {
                v_min_mv = knot.as_u32() as u16;
            } else {
                break;
            }
        }

        let weak_k = cfg.weak_knot_index();
        let bits = cfg.bits_per_pc() as f64;
        let mut weak_pcs = 0u32;
        for pc in 0..pcs {
            let count = faults[pc * knots.len() + weak_k];
            if count != CRASHED_KNOT && f64::from(count) / bits >= cfg.weak_rate_threshold {
                weak_pcs |= 1 << pc;
            }
        }

        DeviceRecord {
            device_id: spec.device_id,
            seed: spec.seed,
            v_min_mv,
            crash_mv: spec.crash_floor.as_u32() as u16,
            weak_pcs,
            faults,
        }
    }

    /// Union fault rate of `(pc, knot)`, `None` when the knot crashed.
    ///
    /// `bits_per_pc` is the fleet-wide denominator
    /// ([`FleetConfig::bits_per_pc`]).
    #[must_use]
    pub fn rate(&self, pc: usize, knot: usize, knot_count: usize, bits_per_pc: u64) -> Option<f64> {
        let count = self.faults[pc * knot_count + knot];
        if count == CRASHED_KNOT {
            None
        } else {
            Some(f64::from(count) / bits_per_pc as f64)
        }
    }

    /// Guardband this device proves against `nominal`, `None` when no
    /// fault-free knot was observed.
    #[must_use]
    pub fn guardband(&self, nominal: Millivolts) -> Option<Millivolts> {
        if self.v_min_mv == NO_VMIN {
            None
        } else {
            Some(nominal.saturating_sub(Millivolts(u32::from(self.v_min_mv))))
        }
    }

    /// `true` when bit `pc` of the weak-PC bitmap is set.
    #[must_use]
    pub fn is_weak(&self, pc: u8) -> bool {
        self.weak_pcs & (1u32 << pc) != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> FleetConfig {
        FleetConfig {
            from: Millivolts(980),
            down_to: Millivolts(900),
            step: Millivolts(40),
            weak_reference: Millivolts(900),
            words_per_pc: 4,
            ..FleetConfig::default()
        }
    }

    #[test]
    fn assemble_derives_v_min_and_weak_bitmap() {
        let cfg = tiny_cfg();
        let knots = cfg.knots();
        assert_eq!(knots.len(), 3);
        let pcs = usize::from(cfg.geometry.total_pcs());
        // Clean at 980 and 940 everywhere; at 900, PC 2 shows a dense
        // fault cluster and PC 5 a single bit.
        let mut faults = vec![0u16; pcs * 3];
        faults[2 * 3 + 2] = 300;
        faults[5 * 3 + 2] = 1;
        let spec = cfg.device_spec(0);
        let rec = DeviceRecord::assemble(&cfg, spec, faults);
        assert_eq!(rec.v_min_mv, 940);
        // bits = 1024: 300/1024 clears the 1e-4 threshold, 1/1024 too.
        assert!(rec.is_weak(2));
        assert!(rec.is_weak(5));
        assert!(!rec.is_weak(0));
        assert_eq!(rec.guardband(Millivolts(1200)), Some(Millivolts(260)));
    }

    #[test]
    fn faulty_top_knot_yields_no_vmin() {
        let cfg = tiny_cfg();
        let pcs = usize::from(cfg.geometry.total_pcs());
        let mut faults = vec![0u16; pcs * 3];
        faults[0] = 7; // PC 0 faulty at the very top knot
        let rec = DeviceRecord::assemble(&cfg, cfg.device_spec(1), faults);
        assert_eq!(rec.v_min_mv, NO_VMIN);
        assert_eq!(rec.guardband(Millivolts(1200)), None);
    }

    #[test]
    fn crashed_knots_do_not_extend_v_min() {
        let cfg = tiny_cfg();
        let pcs = usize::from(cfg.geometry.total_pcs());
        let mut faults = vec![0u16; pcs * 3];
        for pc in 0..pcs {
            faults[pc * 3 + 2] = CRASHED_KNOT;
        }
        let rec = DeviceRecord::assemble(&cfg, cfg.device_spec(2), faults);
        assert_eq!(rec.v_min_mv, 940, "crashed knot is not fault-free");
        assert_eq!(rec.rate(0, 2, 3, cfg.bits_per_pc()), None);
        assert_eq!(rec.rate(0, 0, 3, cfg.bits_per_pc()), Some(0.0));
    }
}
