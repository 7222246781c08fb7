//! Compressed parametric fault models: the MoRS-style approximation that
//! lets a fleet store answer queries without its exact per-knot columns.
//!
//! # Model parameterization
//!
//! The injector's underlying response curve follows a Gaussian weak-cell
//! tail: log₁₀ of the fault rate is locally linear in the voltage drop
//! but curves upward approaching saturation (the log of a Gaussian tail
//! is quadratic). One device's whole `pc × knot` count matrix therefore
//! compresses to a shared log-quadratic rate curve plus a per-PC onset
//! shift:
//!
//! ```text
//! rate(pc, v) = min(1, 10^(A + B·t + C·t²))      t = drop(v) + δ_pc
//!                                                drop(v) = v₀ − v
//! ```
//!
//! with `v₀` the top knot, `A` the quantized log₁₀-rate intercept
//! (1/256 decade), `B` the slope in decades per millivolt (1/4096),
//! `C ≥ 0` the curvature in decades per millivolt² (1/2²⁰) capturing the
//! pre-saturation cliff, and `δ_pc` a per-PC voltage shift in whole
//! millivolts (i8) capturing the process-variation knee. Alongside the
//! curve the model stores a two-sided *fidelity envelope*: the smallest
//! quantized coefficients such that every non-crashed cell of the exact
//! matrix satisfies
//!
//! ```text
//! exact ≤ model + a⁺ + r⁺·model     when model ≤ m_cap   (upper)
//! exact ≥ model − a⁻ − r⁻·model     when model ≤ m_cap   (lower)
//! exact ≥ model·(1 − r_w)           when model > m_cap   (lower, wall)
//! ```
//!
//! in counts, computed against the *quantized* curve so quantization
//! error is part of the bound. Both sides split at the stored prediction
//! cap `m_cap`: past it sits the per-PC saturation wall, where exact
//! counts jump to full saturation faster than any smooth curve. The
//! upper side claims nothing there (no realistic target could be proven
//! usable on the wall anyway), and the lower side switches to its own
//! wall coefficient `r_w` — without the split, one wall cell would
//! inflate `r⁻` for the whole device and erase every unusable proof in
//! the decision region. A query served from the model alone first
//! proves, through this envelope, that the exact answer could not differ
//! — otherwise the serving layer falls back to exact evidence.
//!
//! Everything here is deterministic `f64` arithmetic: the same artifact
//! always fits bit-identical models, which is what lets `compress` results
//! be golden-tested.

use serde::{Deserialize, Serialize};

use crate::artifact::{
    write_artifact, ArtifactMeta, Column, FleetStore, RawColumn, ARTIFACT_VERSION,
};
use crate::config::FleetError;
use crate::query;
use crate::record::CRASHED_KNOT;
use hbm_units::Millivolts;

/// Quantization step of the intercept: 1/256 decade.
const Q_INTERCEPT: f64 = 256.0;
/// Quantization step of the slope: 1/4096 decade per millivolt.
const Q_SLOPE: f64 = 4096.0;
/// Quantization step of the curvature: 1/2²⁰ decade per millivolt².
const Q_CURVE: f64 = 1_048_576.0;
/// Quantization step of the relative envelope coefficients: 1/256.
const Q_REL: f64 = 256.0;
/// Absolute/relative split of the envelope fit: cells predicted below
/// this many counts feed the absolute terms, cells at or above it the
/// relative terms.
const ENV_SPLIT: f64 = 4.0;
/// Fixed per-device header of the model blob: A, B, C, a⁺, r⁺, a⁻, r⁻,
/// r_w, m_cap (2 bytes each).
const MODEL_SCALAR_BYTES: usize = 18;

/// The canonical operating-point query fidelity reports score
/// recommendation agreement at: a 1% tolerable union fault rate, the
/// regime the paper's Fig. 4 power/reliability trade-off targets.
pub const OPERATING_TARGET_RATE: f64 = 1e-2;

/// One device's compressed parametric fault model.
///
/// Fixed-width blob of `18 + pc_count` bytes (see
/// [`DeviceModel::encode`]), stored one per device in the artifact's
/// MODEL column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceModel {
    /// Quantized log₁₀-rate intercept at zero drop, in 1/256 decades.
    pub intercept_q: i16,
    /// Quantized rate slope, in 1/4096 decades per millivolt (≥ 0).
    pub slope_q: u16,
    /// Quantized rate curvature, in 1/2²⁰ decades per millivolt² (≥ 0).
    pub curve_q: u16,
    /// Absolute upper-envelope term `a⁺`, in whole fault-bit counts.
    pub up_abs_q: u16,
    /// Relative upper-envelope coefficient `r⁺`, in 1/256 per count.
    pub up_rel_q: u16,
    /// Absolute lower-envelope term `a⁻`, in whole fault-bit counts.
    pub lo_abs_q: u16,
    /// Relative lower-envelope coefficient `r⁻`, in 1/256 per count.
    pub lo_rel_q: u16,
    /// Wall-band lower-envelope coefficient `r_w`, in 1/256 per count,
    /// applied to predictions above `m_cap`.
    pub lo_wall_q: u16,
    /// Envelope prediction cap, in counts: cells the model predicts above
    /// this sit on the saturation wall — no upper claim, wall-band lower
    /// claim.
    pub m_cap: u16,
    /// Per-PC onset shift `δ_pc` in millivolts.
    pub pc_shift_mv: Vec<i8>,
}

/// Per-PC weighted least-squares accumulator for the log-quadratic fit,
/// over the regressors `u = drop` and `v = drop²`.
#[derive(Default, Clone, Copy)]
struct PcAccum {
    w: f64,
    su: f64,
    sv: f64,
    sy: f64,
    suu: f64,
    suv: f64,
    svv: f64,
    suy: f64,
    svy: f64,
}

impl DeviceModel {
    /// Byte width of one device's model blob.
    #[must_use]
    pub fn elem_bytes(pc_count: usize) -> usize {
        MODEL_SCALAR_BYTES + pc_count
    }

    /// Fits a model to one device's exact count row (`pc`-major,
    /// [`CRASHED_KNOT`] for crashed knots) — deterministic in the inputs.
    ///
    /// The fit is a pooled within-PC log-quadratic regression,
    /// count-weighted (inverse variance for Poisson counts on a log
    /// scale) and restricted to the region below half saturation: one
    /// shared slope and curvature from the pooled within-PC covariances,
    /// per-PC intercepts folded into the voltage shifts along each PC's
    /// local slope, then the envelope measured against the quantized
    /// curve so the stored bound is sound by construction.
    ///
    /// # Panics
    ///
    /// Panics when `faults` is not a `pc_count × knot_count` matrix.
    #[must_use]
    pub fn fit(meta: &ArtifactMeta, knots: &[Millivolts], faults: &[u16]) -> DeviceModel {
        let pcs = meta.pc_count as usize;
        let kn = knots.len();
        assert_eq!(faults.len(), pcs * kn, "count matrix shape");
        let bits = meta.bits_per_pc() as f64;
        let drop_of = |k: usize| f64::from(knots[0].as_u32() - knots[k].as_u32());

        let mut acc = vec![PcAccum::default(); pcs];
        for (pc, a) in acc.iter_mut().enumerate() {
            for k in 0..kn {
                let count = faults[pc * kn + k];
                if count == CRASHED_KNOT || count == 0 {
                    continue;
                }
                // Cells at or past half saturation sit on the rate-1
                // plateau's shoulder where clamping takes over; they carry
                // no usable curve information — the model clamps up there
                // anyway — and would only flatten the pooled fit.
                if f64::from(count) >= bits / 2.0 {
                    continue;
                }
                // Inverse-variance weighting for Poisson counts on a log
                // scale: var(log rate) ∝ 1/count, so weight by the count.
                // Single-bit cells then stop whipsawing the intercept while
                // the dense decision-region cells dominate the fit.
                let w = f64::from(count);
                let u = drop_of(k);
                let v = u * u;
                let y = (f64::from(count) / bits).log10();
                a.w += w;
                a.su += w * u;
                a.sv += w * v;
                a.sy += w * y;
                a.suu += w * u * u;
                a.suv += w * u * v;
                a.svv += w * v * v;
                a.suy += w * u * y;
                a.svy += w * v * y;
            }
        }

        // Shared slope and curvature from the pooled within-PC (weighted,
        // centered) covariances: solve the 2×2 normal equations
        // [Suu Suv; Suv Svv]·[B C]ᵀ = [Suy Svy].
        let (mut suu, mut suv, mut svv, mut suy, mut svy) = (0.0f64, 0.0, 0.0, 0.0, 0.0);
        for a in &acc {
            if a.w > 0.0 {
                suu += a.suu - a.su * a.su / a.w;
                suv += a.suv - a.su * a.sv / a.w;
                svv += a.svv - a.sv * a.sv / a.w;
                suy += a.suy - a.su * a.sy / a.w;
                svy += a.svy - a.sv * a.sy / a.w;
            }
        }
        let det = suu * svv - suv * suv;
        let (slope, curve) = if det > 1e-9 * suu.max(1.0) * svv.max(1.0) {
            let b = (suy * svv - svy * suv) / det;
            let c = (svy * suu - suy * suv) / det;
            if c >= 0.0 && b >= 0.0 {
                (b, c)
            } else {
                // A degenerate quadrant (downward curvature or negative
                // slope) is outside the physical model: fall back to the
                // pure log-linear fit.
                (if suu > 0.0 { (suy / suu).max(0.0) } else { 0.0 }, 0.0)
            }
        } else {
            (if suu > 0.0 { (suy / suu).max(0.0) } else { 0.0 }, 0.0)
        };

        // Per-PC intercepts of the residual after the shared curve,
        // averaged into the device intercept; the residual per-PC offset
        // becomes a voltage shift along the PC's local slope B + 2C·s̄.
        let offsets: Vec<Option<f64>> = acc
            .iter()
            .map(|a| (a.w > 0.0).then(|| (a.sy - slope * a.su - curve * a.sv) / a.w))
            .collect();
        let observed: Vec<f64> = offsets.iter().filter_map(|&o| o).collect();
        let (intercept_q, slope_q, curve_q, pc_shift_mv) = if observed.is_empty() {
            // Fully clean (or fully crashed) device: pin the curve to a
            // vanishing rate everywhere.
            (i16::MIN, 0u16, 0u16, vec![0i8; pcs])
        } else {
            let intercept = observed.iter().sum::<f64>() / observed.len() as f64;
            let shifts: Vec<i8> = offsets
                .iter()
                .zip(&acc)
                .map(|(o, a)| match o {
                    Some(c_pc) => {
                        let local = slope + 2.0 * curve * (a.su / a.w.max(1.0));
                        if local > 0.0 {
                            (((c_pc - intercept) / local).round()).clamp(-127.0, 127.0) as i8
                        } else {
                            0
                        }
                    }
                    // A PC that never faulted in the swept window: push its
                    // onset far below the grid.
                    None => -127,
                })
                .collect();
            let iq = (intercept * Q_INTERCEPT)
                .round()
                .clamp(f64::from(i16::MIN), f64::from(i16::MAX)) as i16;
            let sq = (slope * Q_SLOPE).round().clamp(0.0, f64::from(u16::MAX)) as u16;
            let cq = (curve * Q_CURVE).round().clamp(0.0, f64::from(u16::MAX)) as u16;
            (iq, sq, cq, shifts)
        };

        // The upper envelope is only claimed where the prediction stays
        // below 1/32 of saturation: comfortably above any realistic
        // target's count threshold, comfortably below the saturation wall.
        let m_cap = (bits / 32.0).min(f64::from(u16::MAX)) as u16;
        let mut model = DeviceModel {
            intercept_q,
            slope_q,
            curve_q,
            up_abs_q: 0,
            up_rel_q: 0,
            lo_abs_q: 0,
            lo_rel_q: 0,
            lo_wall_q: 0,
            m_cap,
            pc_shift_mv,
        };

        // Two-sided envelope against the quantized curve: absolute terms
        // from near-clean predictions, relative terms from the rest, each
        // ceil-quantized so the stored bound is sound by construction.
        let m_cap_f = f64::from(m_cap);
        let (mut up_abs, mut lo_abs) = (0.0f64, 0.0f64);
        for pc in 0..pcs {
            for k in 0..kn {
                let count = faults[pc * kn + k];
                if count == CRASHED_KNOT {
                    continue;
                }
                let m = model.predicted_count(meta, knots, pc, k);
                if m < ENV_SPLIT {
                    up_abs = up_abs.max(f64::from(count) - m);
                    lo_abs = lo_abs.max(m - f64::from(count));
                }
            }
        }
        model.up_abs_q = up_abs.max(0.0).ceil().clamp(0.0, f64::from(u16::MAX)) as u16;
        model.lo_abs_q = lo_abs.max(0.0).ceil().clamp(0.0, f64::from(u16::MAX)) as u16;
        let (mut up_rel, mut lo_rel, mut lo_wall) = (0.0f64, 0.0f64, 0.0f64);
        for pc in 0..pcs {
            for k in 0..kn {
                let count = faults[pc * kn + k];
                if count == CRASHED_KNOT {
                    continue;
                }
                let m = model.predicted_count(meta, knots, pc, k);
                if m < ENV_SPLIT {
                    continue;
                }
                if m > m_cap_f {
                    lo_wall = lo_wall.max((m - f64::from(count)) / m);
                } else {
                    up_rel = up_rel.max((f64::from(count) - m - model.up_abs()) / m);
                    lo_rel = lo_rel.max((m - f64::from(count) - model.lo_abs()) / m);
                }
            }
        }
        model.up_rel_q = (up_rel.max(0.0) * Q_REL)
            .ceil()
            .clamp(0.0, f64::from(u16::MAX)) as u16;
        model.lo_rel_q = (lo_rel.max(0.0) * Q_REL)
            .ceil()
            .clamp(0.0, f64::from(u16::MAX)) as u16;
        model.lo_wall_q = (lo_wall.max(0.0) * Q_REL)
            .ceil()
            .clamp(0.0, f64::from(u16::MAX)) as u16;
        model
    }

    /// The dequantized intercept in decades.
    #[must_use]
    pub fn intercept(&self) -> f64 {
        f64::from(self.intercept_q) / Q_INTERCEPT
    }

    /// The dequantized slope in decades per millivolt.
    #[must_use]
    pub fn slope(&self) -> f64 {
        f64::from(self.slope_q) / Q_SLOPE
    }

    /// The dequantized curvature in decades per millivolt².
    #[must_use]
    pub fn curve(&self) -> f64 {
        f64::from(self.curve_q) / Q_CURVE
    }

    /// The absolute upper-envelope term `a⁺` in counts.
    #[must_use]
    pub fn up_abs(&self) -> f64 {
        f64::from(self.up_abs_q)
    }

    /// The relative upper-envelope coefficient `r⁺`.
    #[must_use]
    pub fn up_rel(&self) -> f64 {
        f64::from(self.up_rel_q) / Q_REL
    }

    /// The absolute lower-envelope term `a⁻` in counts.
    #[must_use]
    pub fn lo_abs(&self) -> f64 {
        f64::from(self.lo_abs_q)
    }

    /// The relative lower-envelope coefficient `r⁻`.
    #[must_use]
    pub fn lo_rel(&self) -> f64 {
        f64::from(self.lo_rel_q) / Q_REL
    }

    /// The wall-band lower-envelope coefficient `r_w`.
    #[must_use]
    pub fn lo_wall(&self) -> f64 {
        f64::from(self.lo_wall_q) / Q_REL
    }

    /// Model-predicted fault-bit count of `(pc, knot)`, clamped to
    /// `[0, bits_per_pc]`.
    #[must_use]
    pub fn predicted_count(
        &self,
        meta: &ArtifactMeta,
        knots: &[Millivolts],
        pc: usize,
        k: usize,
    ) -> f64 {
        let bits = meta.bits_per_pc() as f64;
        let drop = f64::from(knots[0].as_u32() - knots[k].as_u32());
        let shifted = drop + f64::from(self.pc_shift_mv[pc]);
        // The parabola's left branch would turn back up at shallow drops;
        // clamp at the vertex so the curve stays monotone in the drop.
        let t = if self.curve_q > 0 {
            shifted.max(-self.slope() / (2.0 * self.curve()))
        } else {
            shifted
        };
        let y = self.intercept() + self.slope() * t + self.curve() * t * t;
        if y >= 0.0 {
            return bits;
        }
        let count = (10.0f64.powf(y) * bits).min(bits);
        // A vanishing prediction is exactly zero, so clean devices carry a
        // zero envelope instead of a ceil-ed 10⁻¹²⁸ residual. The envelope
        // is measured through this same function, so the floor is
        // self-consistent.
        if count < 1e-9 {
            0.0
        } else {
            count
        }
    }

    /// The envelope interval `[lo, hi]` the exact count of a cell with
    /// model prediction `m` is guaranteed to lie in. Past the prediction
    /// cap the upper side claims nothing (`hi = bits`) and the lower side
    /// switches to the wall-band coefficient: those cells sit on the
    /// saturation wall, where only a coarse lower bound is meaningful.
    #[must_use]
    pub fn count_bounds(&self, m: f64, bits: f64) -> (f64, f64) {
        if m > f64::from(self.m_cap) {
            ((m * (1.0 - self.lo_wall())).max(0.0), bits)
        } else {
            let lo = (m - self.lo_abs() - self.lo_rel() * m).max(0.0);
            let hi = (m + self.up_abs() + self.up_rel() * m).min(bits);
            (lo, hi)
        }
    }

    /// Serializes the model into its fixed-width little-endian blob.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(Self::elem_bytes(self.pc_shift_mv.len()));
        out.extend_from_slice(&self.intercept_q.to_le_bytes());
        out.extend_from_slice(&self.slope_q.to_le_bytes());
        out.extend_from_slice(&self.curve_q.to_le_bytes());
        out.extend_from_slice(&self.up_abs_q.to_le_bytes());
        out.extend_from_slice(&self.up_rel_q.to_le_bytes());
        out.extend_from_slice(&self.lo_abs_q.to_le_bytes());
        out.extend_from_slice(&self.lo_rel_q.to_le_bytes());
        out.extend_from_slice(&self.lo_wall_q.to_le_bytes());
        out.extend_from_slice(&self.m_cap.to_le_bytes());
        out.extend(self.pc_shift_mv.iter().map(|&d| d as u8));
        out
    }

    /// Decodes a blob produced by [`DeviceModel::encode`].
    ///
    /// # Panics
    ///
    /// Panics when `bytes` is not `18 + pc_count` long.
    #[must_use]
    pub fn decode(bytes: &[u8], pc_count: usize) -> DeviceModel {
        assert_eq!(bytes.len(), Self::elem_bytes(pc_count), "model blob size");
        let (scalars, pc_shift) = bytes.split_at(MODEL_SCALAR_BYTES);
        let (fields, _) = scalars.as_chunks::<2>();
        let field = |k: usize| u16::from_le_bytes(fields[k]);
        DeviceModel {
            intercept_q: i16::from_le_bytes(fields[0]),
            slope_q: field(1),
            curve_q: field(2),
            up_abs_q: field(3),
            up_rel_q: field(4),
            lo_abs_q: field(5),
            lo_rel_q: field(6),
            lo_wall_q: field(7),
            m_cap: field(8),
            pc_shift_mv: pc_shift.iter().map(|&b| b as i8).collect(),
        }
    }
}

/// Fits a model for every device row of an exact-column store.
///
/// # Errors
///
/// [`FleetError::Artifact`] when the store has no exact columns to fit
/// from.
pub fn fit_store(store: &FleetStore) -> Result<Vec<DeviceModel>, FleetError> {
    if !store.has_exact_counts() {
        return Err(FleetError::Artifact(
            "model fitting requires the exact FAULTS column".into(),
        ));
    }
    let meta = *store.meta();
    let knots = store.knots().to_vec();
    let kn = knots.len();
    let pcs = meta.pc_count as usize;
    Ok((0..store.len())
        .map(|i| {
            let row: Vec<u16> = (0..pcs * kn)
                .map(|j| store.fault(i, j / kn, j % kn))
                .collect();
            DeviceModel::fit(&meta, &knots, &row)
        })
        .collect())
}

/// Re-encodes an exact-column store as a v2 compressed artifact: the five
/// scalar columns (byte-identical), a MODEL column fitted from the exact
/// counts, and — when `keep_exact` — the FAULTS column too.
///
/// # Errors
///
/// [`FleetError::Artifact`] when the store has no exact columns.
pub fn compress_store(store: &FleetStore, keep_exact: bool) -> Result<Vec<u8>, FleetError> {
    let models = fit_store(store)?;
    let pcs = store.meta().pc_count as usize;
    let mut model_data = Vec::with_capacity(models.len() * DeviceModel::elem_bytes(pcs));
    for model in &models {
        model_data.extend_from_slice(&model.encode());
    }
    let mut columns: Vec<RawColumn> = [
        Column::DeviceId,
        Column::Seed,
        Column::VMin,
        Column::Crash,
        Column::WeakPcs,
    ]
    .into_iter()
    .map(|tag| {
        let data = store.column_bytes(tag).to_vec();
        let elem = data.len() / store.len().max(1);
        RawColumn { tag, elem, data }
    })
    .collect();
    if keep_exact {
        columns.push(RawColumn {
            tag: Column::Faults,
            elem: 2,
            data: store.column_bytes(Column::Faults).to_vec(),
        });
    }
    columns.push(RawColumn {
        tag: Column::Model,
        elem: DeviceModel::elem_bytes(pcs),
        data: model_data,
    });
    Ok(write_artifact(
        store.meta(),
        store.knots(),
        ARTIFACT_VERSION,
        &columns,
    ))
}

/// First-class fidelity quantification of the compressed models against
/// the exact map they were fitted from.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FidelityReport {
    /// Devices compared.
    pub devices: u32,
    /// Pseudo channels per device.
    pub pc_count: u32,
    /// Knots per curve.
    pub knot_count: u32,
    /// Non-crashed cells compared.
    pub cells_compared: u64,
    /// Largest absolute fault-rate error over all cells.
    pub max_abs_rate_error: f64,
    /// Mean absolute fault-rate error over all cells.
    pub mean_abs_rate_error: f64,
    /// Largest relative fault-rate error over cells with a non-zero exact
    /// rate (denominator floored at one count to keep it finite).
    pub max_rel_rate_error: f64,
    /// Fraction of exact weak-PC flags the model reproduces (1.0 when the
    /// fleet has none).
    pub weak_recall: f64,
    /// Fraction of model weak-PC flags that are exact flags (1.0 when the
    /// model raises none).
    pub weak_precision: f64,
    /// Fraction of devices whose model-only recommendation at the
    /// V_min-style query (target = weak-rate threshold, full PC width)
    /// matches the exact recommendation.
    pub v_min_agreement: f64,
    /// Largest voltage disagreement of the V_min-style query, in mV.
    pub v_min_max_delta_mv: u16,
    /// Fraction of devices whose model-only recommendation at the
    /// operating-point query ([`OPERATING_TARGET_RATE`], half PC width)
    /// matches the exact recommendation.
    pub operating_agreement: f64,
    /// Exact FAULTS column size in bytes.
    pub exact_bytes: u64,
    /// MODEL column size in bytes.
    pub model_bytes: u64,
    /// `exact_bytes / model_bytes`.
    pub compression_ratio: f64,
}

impl FidelityReport {
    /// Compares `models` (one per device row) against the exact columns of
    /// `store`.
    ///
    /// # Errors
    ///
    /// [`FleetError::Artifact`] when the store has no exact columns.
    ///
    /// # Panics
    ///
    /// Panics when `models` does not hold one model per device row.
    pub fn compute(
        store: &FleetStore,
        models: &[DeviceModel],
    ) -> Result<FidelityReport, FleetError> {
        if !store.has_exact_counts() {
            return Err(FleetError::Artifact(
                "fidelity requires the exact FAULTS column".into(),
            ));
        }
        assert_eq!(models.len(), store.len(), "one model per device");
        let meta = *store.meta();
        let knots = store.knots().to_vec();
        let kn = knots.len();
        let pcs = meta.pc_count as usize;
        let bits = meta.bits_per_pc() as f64;
        let weak_k = knots
            .iter()
            .position(|&v| v.as_u32() as u16 == meta.weak_reference_mv);

        let mut cells = 0u64;
        let mut abs_sum = 0.0f64;
        let mut abs_max = 0.0f64;
        let mut rel_max = 0.0f64;
        let (mut weak_tp, mut weak_fn, mut weak_fp) = (0u64, 0u64, 0u64);
        let mut v_min_agree = 0u32;
        let mut v_min_delta_max = 0u16;
        let mut operating_agree = 0u32;

        for (i, model) in models.iter().enumerate() {
            for pc in 0..pcs {
                for k in 0..kn {
                    let count = store.fault(i, pc, k);
                    if count == CRASHED_KNOT {
                        continue;
                    }
                    let exact = f64::from(count) / bits;
                    let m = model.predicted_count(&meta, &knots, pc, k) / bits;
                    let err = (m - exact).abs();
                    cells += 1;
                    abs_sum += err;
                    abs_max = abs_max.max(err);
                    if count > 0 {
                        rel_max = rel_max.max(err / exact.max(1.0 / bits));
                    }
                }
                if let Some(weak_k) = weak_k {
                    let exact_weak = store.weak_pcs(i) & (1u32 << pc) != 0;
                    let rate = model.predicted_count(&meta, &knots, pc, weak_k) / bits;
                    let model_weak = rate >= meta.weak_rate_threshold
                        && store.fault(i, pc, weak_k) != CRASHED_KNOT;
                    match (exact_weak, model_weak) {
                        (true, true) => weak_tp += 1,
                        (true, false) => weak_fn += 1,
                        (false, true) => weak_fp += 1,
                        (false, false) => {}
                    }
                }
            }

            let v_min_query = (meta.weak_rate_threshold, pcs);
            let operating_query = (OPERATING_TARGET_RATE, pcs.div_ceil(2));
            for (slot, &(target, min_pcs)) in [v_min_query, operating_query].iter().enumerate() {
                let exact = query::recommend_exact(store, i, target, min_pcs);
                let approx = query::recommend_model_raw(store, i, model, target, min_pcs);
                if exact == approx {
                    if slot == 0 {
                        v_min_agree += 1;
                    } else {
                        operating_agree += 1;
                    }
                } else if slot == 0 {
                    v_min_delta_max =
                        v_min_delta_max.max(exact.voltage_mv.abs_diff(approx.voltage_mv));
                }
            }
        }

        let n = store.len() as f64;
        let ratio = |num: u64, den: u64| {
            if den == 0 {
                1.0
            } else {
                num as f64 / den as f64
            }
        };
        let exact_bytes = (store.len() * pcs * kn * 2) as u64;
        let model_bytes = (store.len() * DeviceModel::elem_bytes(pcs)) as u64;
        Ok(FidelityReport {
            devices: meta.device_count,
            pc_count: meta.pc_count,
            knot_count: meta.knot_count,
            cells_compared: cells,
            max_abs_rate_error: abs_max,
            mean_abs_rate_error: if cells == 0 {
                0.0
            } else {
                abs_sum / cells as f64
            },
            max_rel_rate_error: rel_max,
            weak_recall: ratio(weak_tp, weak_tp + weak_fn),
            weak_precision: ratio(weak_tp, weak_tp + weak_fp),
            v_min_agreement: f64::from(v_min_agree) / n,
            v_min_max_delta_mv: v_min_delta_max,
            operating_agreement: f64::from(operating_agree) / n,
            exact_bytes,
            model_bytes,
            compression_ratio: exact_bytes as f64 / model_bytes as f64,
        })
    }

    /// Renders the report as aligned human-readable text.
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "fidelity             {} devices x {} PCs x {} knots ({} cells)\n",
            self.devices, self.pc_count, self.knot_count, self.cells_compared
        ));
        out.push_str(&format!(
            "rate error           max {:.3e} abs / {:.3e} mean / {:.2} rel\n",
            self.max_abs_rate_error, self.mean_abs_rate_error, self.max_rel_rate_error
        ));
        out.push_str(&format!(
            "weak-PC bitmap       recall {:.3} precision {:.3}\n",
            self.weak_recall, self.weak_precision
        ));
        out.push_str(&format!(
            "recommendation agree v_min {:.3} (max delta {} mV) / operating {:.3}\n",
            self.v_min_agreement, self.v_min_max_delta_mv, self.operating_agreement
        ));
        out.push_str(&format!(
            "compression          {} -> {} bytes ({:.1}x)\n",
            self.exact_bytes, self.model_bytes, self.compression_ratio
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::encode;
    use crate::config::FleetConfig;
    use crate::sweep;

    fn exact_store() -> FleetStore {
        let cfg = FleetConfig {
            devices: 6,
            workers: 1,
            words_per_pc: 16,
            from: Millivolts(1000),
            down_to: Millivolts(860),
            step: Millivolts(20),
            weak_reference: Millivolts(900),
            ..FleetConfig::default()
        };
        let records = sweep::run(&cfg).unwrap().records;
        FleetStore::from_bytes(encode(&cfg, &records)).unwrap()
    }

    #[test]
    fn model_blob_round_trips() {
        let store = exact_store();
        for model in fit_store(&store).unwrap() {
            let blob = model.encode();
            assert_eq!(blob.len(), DeviceModel::elem_bytes(model.pc_shift_mv.len()));
            assert_eq!(DeviceModel::decode(&blob, model.pc_shift_mv.len()), model);
        }
    }

    #[test]
    fn envelope_covers_every_cell() {
        let store = exact_store();
        let meta = *store.meta();
        let knots = store.knots().to_vec();
        let bits = meta.bits_per_pc() as f64;
        for (i, model) in fit_store(&store).unwrap().iter().enumerate() {
            for pc in 0..meta.pc_count as usize {
                for k in 0..knots.len() {
                    let count = store.fault(i, pc, k);
                    if count == CRASHED_KNOT {
                        continue;
                    }
                    let m = model.predicted_count(&meta, &knots, pc, k);
                    let (lo, hi) = model.count_bounds(m, bits);
                    let e = f64::from(count);
                    assert!(
                        lo <= e && e <= hi,
                        "device {i} pc {pc} knot {k}: {e} outside [{lo}, {hi}]"
                    );
                }
            }
        }
    }

    #[test]
    fn fitting_is_deterministic() {
        let store = exact_store();
        assert_eq!(fit_store(&store).unwrap(), fit_store(&store).unwrap());
        let a = compress_store(&store, false).unwrap();
        let b = compress_store(&store, false).unwrap();
        assert_eq!(a, b, "compression must be byte-deterministic");
    }

    #[test]
    fn clean_device_model_predicts_zero() {
        let cfg = FleetConfig {
            devices: 1,
            workers: 1,
            words_per_pc: 8,
            from: Millivolts(1040),
            down_to: Millivolts(1000),
            step: Millivolts(20),
            weak_reference: Millivolts(1000),
            ..FleetConfig::default()
        };
        let records = sweep::run(&cfg).unwrap().records;
        let store = FleetStore::from_bytes(encode(&cfg, &records)).unwrap();
        let model = &fit_store(&store).unwrap()[0];
        assert_eq!(model.intercept_q, i16::MIN);
        assert_eq!(model.up_abs_q, 0);
        assert_eq!(model.lo_abs_q, 0);
        assert_eq!(model.up_rel_q, 0);
        assert_eq!(model.lo_rel_q, 0);
        assert_eq!(model.lo_wall_q, 0);
        let meta = *store.meta();
        let knots = store.knots().to_vec();
        for k in 0..knots.len() {
            assert_eq!(model.predicted_count(&meta, &knots, 0, k), 0.0);
        }
    }

    #[test]
    fn fidelity_report_is_sane() {
        let store = exact_store();
        let models = fit_store(&store).unwrap();
        let report = FidelityReport::compute(&store, &models).unwrap();
        assert_eq!(report.devices, 6);
        assert!(report.cells_compared > 0);
        // ~10.2× on this 8-knot toy grid; the production 17-knot grid's
        // ≥20× claim is pinned by `benches/fleet_compress.rs`.
        assert!(
            report.compression_ratio > 10.0,
            "{}",
            report.compression_ratio
        );
        assert!((0.0..=1.0).contains(&report.weak_recall));
        assert!((0.0..=1.0).contains(&report.weak_precision));
        assert!((0.0..=1.0).contains(&report.v_min_agreement));
        assert!((0.0..=1.0).contains(&report.operating_agreement));
        let text = report.to_text();
        assert!(text.contains("compression"), "{text}");
    }
}
