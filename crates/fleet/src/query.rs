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
//! The walk itself is shared by three evidence sources, each seen as
//! integer bounds `lo..=hi` on every cell's exact count:
//!
//! * **exact** — the artifact's FAULTS column, `lo = hi = count`, every
//!   cell decidable;
//! * **model** — the integer hull of the compressed
//!   [`crate::model::DeviceModel`]'s fidelity envelope, each cell allowed
//!   to abstain ([`CellVerdict::Ambiguous`]) when its bounds straddle the
//!   target;
//! * **rescan** — the kernel's count descent re-deriving the exact counts on
//!   demand from the header's reconstructed [`FleetConfig`], for stores
//!   whose exact columns were dropped at compression time.
//!
//! One verdict judges every cell: the target becomes the largest count
//! that meets it, once per query, and a cell is usable when `hi` is at
//! most that count, unusable when `lo` is above it. A model-path answer is
//! returned only when every knot the walk depends on is decidable, so it
//! is always identical to the exact answer.

use hbm_power::HbmPowerModel;
use hbm_units::{Millivolts, Ratio};
use serde::{Deserialize, Serialize};

use crate::artifact::FleetStore;
use crate::config::{FleetConfig, FleetError};
use crate::model::DeviceModel;
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

/// Integer bounds on one cell's exact fault count: the count lies in
/// `lo..=hi`. Exact evidence is `lo == hi == count`, and a crashed cell
/// is [`crate::record::CRASHED_KNOT`] on both sides — more than a pseudo
/// channel has bits, so no target in `(0, 1]` admits it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CountBounds {
    lo: u16,
    hi: u16,
}

impl CountBounds {
    /// Exact evidence: one stored or rescanned count.
    pub(crate) fn exact(count: u16) -> CountBounds {
        CountBounds {
            lo: count,
            hi: count,
        }
    }

    /// The cell against `admitted`, the largest count that meets the
    /// target (see [`admitted_count`]).
    fn verdict(self, admitted: u16) -> CellVerdict {
        if self.hi <= admitted {
            CellVerdict::Usable
        } else if self.lo > admitted {
            CellVerdict::Unusable
        } else {
            CellVerdict::Ambiguous
        }
    }
}

/// The largest fault count `c` whose rate `c / bits` is ≤ `target_rate`,
/// evaluated with the same `f64` expression a per-cell rate comparison
/// uses. Division by the positive `bits` is monotone, so the counts that
/// meet the target are exactly `0..=admitted_count(..)`, and one integer
/// comparison per cell replaces the division.
fn admitted_count(target_rate: f64, bits: f64) -> u16 {
    let meets = |count: u16| f64::from(count) / bits <= target_rate;
    // The float product is off by at most one step either way.
    let mut count = (target_rate * bits).clamp(0.0, f64::from(u16::MAX)) as u16;
    while count > 0 && !meets(count) {
        count -= 1;
    }
    while count < u16::MAX && meets(count + 1) {
        count += 1;
    }
    count
}

/// The integer hull of one device's fidelity envelope: for every cell,
/// pseudo-channel-major like a FAULTS row, `(ceil(lo), floor(hi))` of
/// the model's `f64` interval. Exact counts are integers, so the hull
/// bounds them exactly as soundly, and it decides every cell the `f64`
/// interval decides. Built once per device and session by the serving
/// layer.
pub(crate) fn envelope_bounds(store: &FleetStore, model: &DeviceModel) -> Vec<CountBounds> {
    let meta = store.meta();
    let knots = store.knots();
    let kn = knots.len();
    let bits = meta.bits_per_pc() as f64;
    (0..meta.pc_count as usize * kn)
        .map(|cell| {
            let (pc, k) = (cell / kn, cell % kn);
            let (lo, hi) = model.count_bounds(model.predicted_count(meta, knots, pc, k), bits);
            // Both sides lie in [0, bits], and bits fits a u16.
            CountBounds {
                lo: lo.ceil() as u16,
                hi: hi.floor() as u16,
            }
        })
        .collect()
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

/// Answers a validated query from per-cell count bounds — the one walk
/// behind every evidence source. `None` when a cell the answer depends on
/// is undecidable, which exact bounds never are.
///
/// `target_rate` must be ≤ 1, which keeps crashed cells unusable: a
/// validated store has at most 255 words, 65,280 bits, per pseudo channel.
fn recommend_bounded(
    store: &FleetStore,
    row: usize,
    target_rate: f64,
    min_pcs: usize,
    bounds: impl Fn(usize, usize) -> CountBounds,
) -> Option<Recommendation> {
    let pcs = store.meta().pc_count as usize;
    let admitted = admitted_count(target_rate, store.meta().bits_per_pc() as f64);
    let crash = Millivolts(u32::from(store.crash_mv(row)));
    let (k, usable) = recommend_walk(store.knots(), crash, pcs, min_pcs, |pc, k| {
        bounds(pc, k).verdict(admitted)
    })?;
    Some(finish(store, row, k, usable))
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
    recommend_bounded(store, row, target_rate, min_pcs, |pc, k| {
        CountBounds::exact(store.fault(row, pc, k))
    })
    .expect("exact evidence never abstains")
}

/// Answers a validated query from a device's [`envelope_bounds`]. `None`
/// means the envelope cannot decide and the caller must fall back to
/// exact evidence; an answer is always identical to the exact one.
///
/// # Panics
///
/// Panics when `envelope` is not a full `pcs × knots` table for this
/// store.
pub(crate) fn recommend_envelope(
    store: &FleetStore,
    row: usize,
    envelope: &[CountBounds],
    target_rate: f64,
    min_pcs: usize,
) -> Option<Recommendation> {
    recommend_bounded(store, row, target_rate, min_pcs, by_cell(store, envelope))
}

/// A pseudo-channel-major `pcs × knots` row as a `(pc, knot)` lookup.
///
/// # Panics
///
/// Panics when `cells` is not a full row for this store.
fn by_cell<'a, T: Copy>(store: &FleetStore, cells: &'a [T]) -> impl Fn(usize, usize) -> T + 'a {
    let kn = store.knots().len();
    assert_eq!(
        cells.len(),
        store.meta().pc_count as usize * kn,
        "row shape"
    );
    move |pc, k| cells[pc * kn + k]
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
    let meta = store.meta();
    let knots = store.knots();
    let pcs = meta.pc_count as usize;
    let bits = meta.bits_per_pc() as f64;
    let crash = Millivolts(u32::from(store.crash_mv(row)));
    let (k, usable) = recommend_walk(knots, crash, pcs, min_pcs, |pc, k| {
        let m = model.predicted_count(meta, knots, pc, k);
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
    let count = by_cell(store, counts);
    recommend_bounded(store, row, target_rate, min_pcs, |pc, k| {
        CountBounds::exact(count(pc, k))
    })
    .expect("exact evidence never abstains")
}

#[cfg(test)]
mod tests {
    use std::sync::OnceLock;

    use proptest::prelude::*;

    use super::*;
    use crate::artifact::encode;
    use crate::config::FleetConfig;
    use crate::model::compress_store;
    use crate::record::CRASHED_KNOT;
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

    /// The `f64` envelope verdict of one cell, as the model path judged
    /// cells before the integer hull: the oracle the hull must cover.
    fn f64_verdict(
        store: &FleetStore,
        model: &DeviceModel,
        pc: usize,
        k: usize,
        target_rate: f64,
    ) -> CellVerdict {
        let bits = store.meta().bits_per_pc() as f64;
        let m = model.predicted_count(store.meta(), store.knots(), pc, k);
        let (lo, hi) = model.count_bounds(m, bits);
        if hi / bits <= target_rate {
            CellVerdict::Usable
        } else if lo / bits > target_rate {
            CellVerdict::Unusable
        } else {
            CellVerdict::Ambiguous
        }
    }

    /// The model-path answer through the `f64` envelope.
    fn recommend_model_f64(
        store: &FleetStore,
        row: usize,
        model: &DeviceModel,
        target_rate: f64,
        min_pcs: usize,
    ) -> Option<Recommendation> {
        let pcs = store.meta().pc_count as usize;
        let crash = Millivolts(u32::from(store.crash_mv(row)));
        let (k, usable) = recommend_walk(store.knots(), crash, pcs, min_pcs, |pc, k| {
            f64_verdict(store, model, pc, k, target_rate)
        })?;
        Some(finish(store, row, k, usable))
    }

    #[test]
    fn model_path_agrees_with_exact_when_decided() {
        let (_, exact) = store();
        let compressed = FleetStore::from_bytes(compress_store(&exact, false).unwrap()).unwrap();
        for row in 0..exact.len() {
            let envelope = envelope_bounds(&compressed, &compressed.model(row).unwrap());
            for (target, min_pcs) in [(1e-3, 32usize), (1e-2, 16), (0.5, 1)] {
                if let Some(rec) = recommend_envelope(&compressed, row, &envelope, target, min_pcs)
                {
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

    #[test]
    fn admitted_count_is_the_last_count_that_meets_the_target() {
        for bits in [1024.0, 16_384.0, 65_280.0] {
            for target in [1e-9, 1e-5, 1e-3, 0.01, 1.0 / 3.0, 0.5, 0.999, 1.0] {
                let admitted = admitted_count(target, bits);
                assert!(f64::from(admitted) / bits <= target, "{bits} {target}");
                assert!(f64::from(admitted + 1) / bits > target, "{bits} {target}");
            }
            // A crashed cell meets no target up to 1.
            assert!(admitted_count(1.0, bits) < CRASHED_KNOT);
        }
    }

    /// A six-device fleet stored both ways: exact counts with models
    /// beside them, and the same models alone. The onset band (900 →
    /// 820 mV) has the envelope abstain from every answer, so it tests
    /// cells; the shallow grid (1000 → 900 mV) has it decide most answers.
    fn fleet_stores(onset: bool) -> &'static (FleetStore, FleetStore) {
        static STORES: [OnceLock<(FleetStore, FleetStore)>; 2] = [OnceLock::new(), OnceLock::new()];
        STORES[usize::from(onset)].get_or_init(|| {
            let (from, step) = if onset { (900, 5) } else { (1000, 20) };
            let cfg = FleetConfig {
                devices: 6,
                base_seed: 7,
                workers: 1,
                words_per_pc: 16,
                from: Millivolts(from),
                down_to: Millivolts(if onset { 820 } else { 900 }),
                step: Millivolts(step),
                weak_reference: Millivolts(900),
                ..FleetConfig::default()
            };
            let records = sweep::run(&cfg).unwrap().records;
            let exact = FleetStore::from_bytes(encode(&cfg, &records)).unwrap();
            let keep_exact = FleetStore::from_bytes(compress_store(&exact, true).unwrap()).unwrap();
            let model_only =
                FleetStore::from_bytes(compress_store(&exact, false).unwrap()).unwrap();
            (keep_exact, model_only)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The integer hull decides every cell the `f64` envelope decides,
        /// the same way, and every answer it gives is the exact answer.
        #[test]
        fn integer_envelope_decides_a_superset_and_agrees_with_exact(
            onset in any::<bool>(),
            row in 0usize..6,
            target_log in -5.0f64..0.5f64.log10(),
            min_pcs in 1usize..=32,
        ) {
            let (keep_exact, model_only) = fleet_stores(onset);
            let target = 10f64.powf(target_log);
            let model = model_only.model(row).unwrap();
            let envelope = envelope_bounds(model_only, &model);
            let kn = model_only.knots().len();
            let admitted = admitted_count(target, model_only.meta().bits_per_pc() as f64);
            for pc in 0..model_only.meta().pc_count as usize {
                for k in 0..kn {
                    let old = f64_verdict(model_only, &model, pc, k, target);
                    if old != CellVerdict::Ambiguous {
                        prop_assert_eq!(
                            envelope[pc * kn + k].verdict(admitted), old,
                            "pc {} knot {}", pc, k
                        );
                    }
                }
            }
            let got = recommend_envelope(model_only, row, &envelope, target, min_pcs);
            if recommend_model_f64(model_only, row, &model, target, min_pcs).is_some() {
                prop_assert!(got.is_some(), "the f64 envelope decided this query");
            }
            if let Some(got) = got {
                prop_assert_eq!(got, recommend_exact(keep_exact, row, target, min_pcs));
            }
        }
    }
}
