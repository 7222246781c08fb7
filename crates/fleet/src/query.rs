//! The fleet query API: per-device voltage recommendations straight off a
//! columnar artifact.
//!
//! Semantics: for device `X` and target fault rate `Z`, walk the knot grid
//! downward and keep the lowest knot that (a) sits on or above the
//! device's crash floor and (b) still leaves at least `min_pcs` pseudo
//! channels whose union fault rate is ≤ `Z`. The usable-PC list at that
//! knot is the answer — the fleet-scale analogue of the single-device
//! `FaultMap::usable_pcs` contract.
//!
//! The walk itself is shared by three evidence sources:
//!
//! * **exact** — the artifact's FAULTS column, every cell decidable;
//! * **model** — the compressed [`crate::model::DeviceModel`], each cell
//!   judged through its fidelity envelope and allowed to abstain
//!   ([`CellVerdict::Ambiguous`]) when the envelope straddles the target;
//! * **rescan** — the kernel's count descent re-deriving the exact counts on
//!   demand from the header's reconstructed [`FleetConfig`], for stores
//!   whose exact columns were dropped at compression time.
//!
//! A model-path answer is returned only when every knot the walk depends
//! on is decidable, so it is always identical to the exact answer.

use hbm_power::HbmPowerModel;
use hbm_units::{Millivolts, Ratio};
use serde::{Deserialize, Serialize};

use crate::artifact::FleetStore;
use crate::config::{FleetConfig, FleetError};
use crate::model::DeviceModel;
use crate::record::CRASHED_KNOT;
use crate::sweep;

/// A voltage recommendation for one device.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Recommendation {
    /// Device the recommendation is for.
    pub device_id: u32,
    /// Recommended supply in millivolts.
    pub voltage_mv: u16,
    /// Pseudo channels usable at the recommendation (rate ≤ target).
    pub usable_pcs: Vec<u8>,
    /// The device's crash floor, for operator context.
    pub crash_mv: u16,
    /// Power-saving factor versus 1.20 V nominal under the paper's fitted
    /// quadratic model (fault-free, same utilization).
    pub saving_factor: f64,
}

/// What one evidence source can say about a single `(pc, knot)` cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CellVerdict {
    /// The cell's union fault rate is provably ≤ the target.
    Usable,
    /// The cell's union fault rate is provably > the target (or the knot
    /// sits below the device's crash floor).
    Unusable,
    /// The evidence cannot decide — only the model path emits this, when
    /// its error envelope straddles the target.
    Ambiguous,
}

/// The shared recommendation walk over one device's knot grid.
///
/// Returns the chosen knot index and its usable-PC list, or `None` when
/// an [`CellVerdict::Ambiguous`] cell makes the answer undecidable: either
/// a knot below the best provably-qualifying one *might* qualify, or the
/// chosen knot's own usable list is uncertain. Exact evidence never
/// abstains, so the exact walk always returns `Some`.
fn recommend_walk(
    knots: &[Millivolts],
    crash: Millivolts,
    pcs: usize,
    min_pcs: usize,
    mut verdict: impl FnMut(usize, usize) -> CellVerdict,
) -> Option<(usize, Vec<u8>)> {
    let mut best: Option<usize> = None;
    let mut possible: Option<usize> = None;
    for (k, &v) in knots.iter().enumerate() {
        if v < crash {
            break;
        }
        let (mut usable, mut ambiguous) = (0usize, 0usize);
        for pc in 0..pcs {
            match verdict(pc, k) {
                CellVerdict::Usable => usable += 1,
                CellVerdict::Ambiguous => ambiguous += 1,
                CellVerdict::Unusable => {}
            }
        }
        if usable >= min_pcs {
            best = Some(k);
        }
        if usable + ambiguous >= min_pcs {
            possible = Some(k);
        }
    }
    // A knot below `best` might still qualify under the unproven side of
    // the envelope: the lowest-qualifying-knot answer is undecidable.
    if possible != best {
        return None;
    }
    // No knot satisfies the query: recommend the top knot — the sweep
    // proves nothing above it, so that is the safest stored answer.
    let k = best.unwrap_or(0);
    let mut usable = Vec::new();
    if knots[k] >= crash {
        for pc in 0..pcs {
            match verdict(pc, k) {
                CellVerdict::Usable => usable.push(pc as u8),
                CellVerdict::Ambiguous => return None,
                CellVerdict::Unusable => {}
            }
        }
    }
    Some((k, usable))
}

/// Assembles the public recommendation from a finished walk.
fn finish(store: &FleetStore, row: usize, k: usize, usable: Vec<u8>) -> Recommendation {
    let voltage = store.knots()[k];
    let power = HbmPowerModel::date21();
    Recommendation {
        device_id: store.device_id(row),
        voltage_mv: voltage.as_u32() as u16,
        usable_pcs: usable,
        crash_mv: store.crash_mv(row),
        saving_factor: power.saving_factor(voltage, Ratio::ONE, Ratio::ZERO),
    }
}

/// Answers a validated query from the exact FAULTS column.
///
/// # Panics
///
/// Panics when the store has no exact columns.
pub(crate) fn recommend_exact(
    store: &FleetStore,
    row: usize,
    target_rate: f64,
    min_pcs: usize,
) -> Recommendation {
    let pcs = store.meta().pc_count as usize;
    let bits = store.meta().bits_per_pc() as f64;
    let crash = Millivolts(u32::from(store.crash_mv(row)));
    let (k, usable) = recommend_walk(store.knots(), crash, pcs, min_pcs, |pc, k| {
        let count = store.fault(row, pc, k);
        if count != CRASHED_KNOT && f64::from(count) / bits <= target_rate {
            CellVerdict::Usable
        } else {
            CellVerdict::Unusable
        }
    })
    .expect("exact evidence never abstains");
    finish(store, row, k, usable)
}

/// Answers a validated query from the compressed model alone, through its
/// fidelity envelope. `None` means the envelope cannot decide and the
/// caller must fall back to exact evidence.
///
/// Comparisons happen in rate space (`count / bits ≤ target`), the same
/// expression the exact path evaluates; division by the shared positive
/// denominator is monotone, so an envelope-decided cell always agrees
/// with the exact verdict.
pub(crate) fn recommend_model(
    store: &FleetStore,
    row: usize,
    model: &DeviceModel,
    target_rate: f64,
    min_pcs: usize,
) -> Option<Recommendation> {
    let meta = *store.meta();
    let knots = store.knots().to_vec();
    let pcs = meta.pc_count as usize;
    let bits = meta.bits_per_pc() as f64;
    let crash = Millivolts(u32::from(store.crash_mv(row)));
    let (k, usable) = recommend_walk(&knots, crash, pcs, min_pcs, |pc, k| {
        let m = model.predicted_count(&meta, &knots, pc, k);
        let (lo, hi) = model.count_bounds(m, bits);
        if hi / bits <= target_rate {
            CellVerdict::Usable
        } else if lo / bits > target_rate {
            CellVerdict::Unusable
        } else {
            CellVerdict::Ambiguous
        }
    })?;
    Some(finish(store, row, k, usable))
}

/// Answers a validated query from the model's point estimate, with no
/// envelope and no abstention — the fidelity report uses this to score
/// how often the raw curve alone reproduces the exact recommendation.
pub(crate) fn recommend_model_raw(
    store: &FleetStore,
    row: usize,
    model: &DeviceModel,
    target_rate: f64,
    min_pcs: usize,
) -> Recommendation {
    let meta = *store.meta();
    let knots = store.knots().to_vec();
    let pcs = meta.pc_count as usize;
    let bits = meta.bits_per_pc() as f64;
    let crash = Millivolts(u32::from(store.crash_mv(row)));
    let (k, usable) = recommend_walk(&knots, crash, pcs, min_pcs, |pc, k| {
        let m = model.predicted_count(&meta, &knots, pc, k);
        if m / bits <= target_rate {
            CellVerdict::Usable
        } else {
            CellVerdict::Unusable
        }
    })
    .expect("point estimates never abstain");
    finish(store, row, k, usable)
}

/// Re-derives one device's exact fault-count row (pseudo-channel-major,
/// every knot) with the kernel's count descent, from the artifact header
/// alone. This is the expensive half of a rescan — a pure function of
/// `(store header, device_id)`, which is what makes it safe to memoize in
/// the serving layer's single-flight rescan cache.
///
/// # Errors
///
/// [`FleetError::Artifact`] when the store's header cannot be turned back
/// into a sweep configuration.
pub(crate) fn rescan_counts(store: &FleetStore, row: usize) -> Result<Vec<u16>, FleetError> {
    let cfg = FleetConfig::from_meta(store.meta(), store.knots())?;
    let spec = cfg.device_spec(store.device_id(row));
    Ok(sweep::characterize_device(&cfg, spec).faults)
}

/// Answers a validated query from an already-derived exact count row
/// (the cheap half of a rescan — the walk over memoized counts).
///
/// # Panics
///
/// Panics when `counts` is not a full `pcs × knots` row for this store.
pub(crate) fn recommend_from_counts(
    store: &FleetStore,
    row: usize,
    counts: &[u16],
    target_rate: f64,
    min_pcs: usize,
) -> Recommendation {
    let pcs = store.meta().pc_count as usize;
    let kn = store.knots().len();
    assert_eq!(counts.len(), pcs * kn, "count row shape");
    let bits = store.meta().bits_per_pc() as f64;
    let crash = Millivolts(u32::from(store.crash_mv(row)));
    let (k, usable) = recommend_walk(store.knots(), crash, pcs, min_pcs, |pc, k| {
        let count = counts[pc * kn + k];
        if count != CRASHED_KNOT && f64::from(count) / bits <= target_rate {
            CellVerdict::Usable
        } else {
            CellVerdict::Unusable
        }
    })
    .expect("exact evidence never abstains");
    finish(store, row, k, usable)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::encode;
    use crate::config::FleetConfig;
    use crate::model::compress_store;
    use crate::sweep;

    fn store() -> (FleetConfig, FleetStore) {
        let cfg = FleetConfig {
            devices: 4,
            workers: 1,
            words_per_pc: 16,
            from: Millivolts(1000),
            down_to: Millivolts(860),
            step: Millivolts(20),
            weak_reference: Millivolts(900),
            ..FleetConfig::default()
        };
        let records = sweep::run(&cfg).unwrap().records;
        let bytes = encode(&cfg, &records);
        (cfg, FleetStore::from_bytes(bytes).unwrap())
    }

    #[test]
    fn model_path_agrees_with_exact_when_decided() {
        let (_, exact) = store();
        let compressed = FleetStore::from_bytes(compress_store(&exact, false).unwrap()).unwrap();
        for row in 0..exact.len() {
            let model = compressed.model(row).unwrap();
            for (target, min_pcs) in [(1e-3, 32usize), (1e-2, 16), (0.5, 1)] {
                if let Some(rec) = recommend_model(&compressed, row, &model, target, min_pcs) {
                    let want = recommend_exact(&exact, row, target, min_pcs);
                    assert_eq!(rec, want, "row {row} target {target} min_pcs {min_pcs}");
                }
            }
        }
    }

    #[test]
    fn rescan_reproduces_exact_recommendations() {
        let (_, exact) = store();
        let compressed = FleetStore::from_bytes(compress_store(&exact, false).unwrap()).unwrap();
        assert!(!compressed.has_exact_counts());
        for row in 0..exact.len() {
            let counts = rescan_counts(&compressed, row).unwrap();
            for (target, min_pcs) in [(1e-3, 32usize), (1e-2, 16)] {
                let rescanned = recommend_from_counts(&compressed, row, &counts, target, min_pcs);
                let want = recommend_exact(&exact, row, target, min_pcs);
                assert_eq!(rescanned, want, "row {row} target {target}");
            }
        }
    }
}
