//! The columnar fleet artifact: a little-endian binary replacing JSON as
//! the at-scale result store, with JSON kept as an export path.
//!
//! # Layout (all integers little-endian)
//!
//! ```text
//! offset  field
//!      0  magic            [u8; 4]  = "HBFA"
//!      4  version          u32      = 1 or 2
//!      8  device_count     u32
//!     12  pc_count         u32
//!     16  knot_count       u32
//!     20  nominal_mv       u16
//!     22  weak_reference_mv u16
//!     24  base_seed        u64
//!     32  words_per_pc     u64
//!     40  crash_jitter_mv  u16
//!     42  reserved         u16      = 0
//!     44  column_count     u32      (v1: always 6; v2: varies)
//!     48  weak_rate_threshold f64   (IEEE-754 bits)
//!     56  index_offset     u64      (byte offset of the column index)
//!     64  knot table       u16 × knot_count   (mV, descending)
//!      …  column index     column_count × { tag u32, elem_bytes u32,
//!                                           offset u64, byte_len u64 }
//!      …  columns, each 8-byte aligned
//! ```
//!
//! Columns (fixed element widths, one element per device unless noted):
//!
//! | tag | name      | element | notes                                   |
//! |-----|-----------|---------|-----------------------------------------|
//! | 1   | DEVICE_ID | u32     | ascending                               |
//! | 2   | SEED      | u64     | per-device fault-universe seed          |
//! | 3   | V_MIN_MV  | u16     | 0 = no fault-free knot observed         |
//! | 4   | CRASH_MV  | u16     | per-device crash floor                  |
//! | 5   | WEAK_PCS  | u32     | weak-PC bitmap                          |
//! | 6   | FAULTS    | u16     | device × pc × knot counts, 0xFFFF = crashed |
//! | 7   | MODEL     | 8 + pc  | per-device compressed parametric model (v2) |
//!
//! # v2 layout delta
//!
//! Version 2 keeps the v1 header, knot table and index machinery
//! byte-for-byte and relaxes only the column-set rule: the scalar columns
//! (tags 1–5) stay mandatory, while FAULTS becomes *optional* and the new
//! MODEL column (tag 7, [`crate::model::DeviceModel`] blobs) may take its
//! place. At least one of FAULTS/MODEL must be present. A v2 artifact that
//! carries the exact columns is bit-identical to its v1 counterpart except
//! for the version word, which the roundtrip proptests pin.
//!
//! The column index lets a reader seek straight to any column without
//! parsing records, and [`FleetStore::column_bytes`] exposes each column
//! as a zero-copy `&[u8]` view over the loaded (or mmapped) buffer. Reads
//! of the FAULTS column are counted ([`FleetStore::exact_column_reads`])
//! so serving layers can prove compressed queries never touched the exact
//! map.

use std::ops::Range;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use hbm_units::Millivolts;
use serde::{Deserialize, Serialize};

use crate::config::{FleetConfig, FleetError};
use crate::model::DeviceModel;
use crate::record::{DeviceRecord, CRASHED_KNOT};

/// Artifact magic bytes.
pub const ARTIFACT_MAGIC: [u8; 4] = *b"HBFA";

/// Format version this build writes: v2, the compressed-model revision.
pub const ARTIFACT_VERSION: u32 = 2;

/// The pre-compression format this build still reads: exactly the six
/// fixed columns, exact counts mandatory.
pub const ARTIFACT_VERSION_V1: u32 = 1;

const HEADER_LEN: usize = 64;
const INDEX_ENTRY_LEN: usize = 24;
/// Number of known column tags (the maximum a v2 artifact may carry).
const TAG_COUNT: usize = 7;
/// The fixed v1 column set: the five scalars plus exact counts.
const V1_COLUMN_COUNT: usize = 6;

/// Column tags, in index order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u32)]
pub enum Column {
    /// Device IDs, ascending.
    DeviceId = 1,
    /// Per-device seeds.
    Seed = 2,
    /// Per-device V_min in millivolts.
    VMin = 3,
    /// Per-device crash floors in millivolts.
    Crash = 4,
    /// Per-device weak-PC bitmaps.
    WeakPcs = 5,
    /// Fault-count matrix, device-major then PC-major.
    Faults = 6,
    /// Compressed per-device parametric models (v2 only).
    Model = 7,
}

impl Column {
    fn from_tag(tag: u32) -> Option<Column> {
        match tag {
            1 => Some(Column::DeviceId),
            2 => Some(Column::Seed),
            3 => Some(Column::VMin),
            4 => Some(Column::Crash),
            5 => Some(Column::WeakPcs),
            6 => Some(Column::Faults),
            7 => Some(Column::Model),
            _ => None,
        }
    }
}

/// The five mandatory scalar columns and their element widths.
const SCALAR_COLUMNS: [(Column, usize); 5] = [
    (Column::DeviceId, 4),
    (Column::Seed, 8),
    (Column::VMin, 2),
    (Column::Crash, 2),
    (Column::WeakPcs, 4),
];

/// One column headed for the generic writer: tag, element width, payload.
pub(crate) struct RawColumn {
    pub(crate) tag: Column,
    pub(crate) elem: usize,
    pub(crate) data: Vec<u8>,
}

/// Everything the header records about a fleet run — enough to interpret
/// and re-derive the fleet without the originating [`FleetConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ArtifactMeta {
    /// Format version.
    pub version: u32,
    /// Devices in the artifact.
    pub device_count: u32,
    /// Pseudo channels per device.
    pub pc_count: u32,
    /// Knots per fault-rate curve.
    pub knot_count: u32,
    /// Nominal supply the guardband is measured against.
    pub nominal_mv: u16,
    /// Weak-PC reference knot.
    pub weak_reference_mv: u16,
    /// Base seed of the fleet.
    pub base_seed: u64,
    /// Words sampled per pseudo channel (the rate denominator is
    /// `words_per_pc × 256`).
    pub words_per_pc: u64,
    /// Crash-floor jitter half-width.
    pub crash_jitter_mv: u16,
    /// Weak-PC rate threshold.
    pub weak_rate_threshold: f64,
}

impl ArtifactMeta {
    /// Meta block for a run of `cfg`.
    #[must_use]
    pub fn from_config(cfg: &FleetConfig) -> ArtifactMeta {
        ArtifactMeta {
            version: ARTIFACT_VERSION,
            device_count: cfg.devices,
            pc_count: u32::from(cfg.geometry.total_pcs()),
            knot_count: cfg.knots().len() as u32,
            nominal_mv: cfg.nominal.as_u32() as u16,
            weak_reference_mv: cfg.weak_reference.as_u32() as u16,
            base_seed: cfg.base_seed,
            words_per_pc: cfg.words_per_pc,
            crash_jitter_mv: cfg.crash_jitter.as_u32() as u16,
            weak_rate_threshold: cfg.weak_rate_threshold,
        }
    }

    /// Bits checked per pseudo channel per knot.
    #[must_use]
    pub fn bits_per_pc(&self) -> u64 {
        self.words_per_pc * 256
    }
}

/// The `N` bytes of an artifact at `at`, or the typed truncation error
/// when they run past its end.
fn read_le<const N: usize>(bytes: &[u8], at: usize) -> Result<[u8; N], FleetError> {
    bytes
        .get(at..)
        .and_then(<[u8]>::first_chunk)
        .copied()
        .ok_or_else(|| {
            FleetError::Artifact(format!(
                "truncated: {N} bytes at offset {at} of {}",
                bytes.len()
            ))
        })
}

fn align8(n: usize) -> usize {
    (n + 7) & !7
}

/// The generic column writer both format versions share: header, knot
/// table, index, then each column 8-byte aligned, in the order given.
pub(crate) fn write_artifact(
    meta: &ArtifactMeta,
    knots: &[Millivolts],
    version: u32,
    columns: &[RawColumn],
) -> Vec<u8> {
    assert_eq!(knots.len(), meta.knot_count as usize, "knot table shape");
    let knot_table_len = knots.len() * 2;
    let index_offset = align8(HEADER_LEN + knot_table_len);
    let mut column_offsets = Vec::with_capacity(columns.len());
    let mut cursor = align8(index_offset + columns.len() * INDEX_ENTRY_LEN);
    for col in columns {
        assert_eq!(col.data.len() % col.elem.max(1), 0, "ragged column");
        column_offsets.push(cursor);
        cursor = align8(cursor + col.data.len());
    }

    let mut out = vec![0u8; cursor];
    out[0..4].copy_from_slice(&ARTIFACT_MAGIC);
    out[4..8].copy_from_slice(&version.to_le_bytes());
    out[8..12].copy_from_slice(&meta.device_count.to_le_bytes());
    out[12..16].copy_from_slice(&meta.pc_count.to_le_bytes());
    out[16..20].copy_from_slice(&meta.knot_count.to_le_bytes());
    out[20..22].copy_from_slice(&meta.nominal_mv.to_le_bytes());
    out[22..24].copy_from_slice(&meta.weak_reference_mv.to_le_bytes());
    out[24..32].copy_from_slice(&meta.base_seed.to_le_bytes());
    out[32..40].copy_from_slice(&meta.words_per_pc.to_le_bytes());
    out[40..42].copy_from_slice(&meta.crash_jitter_mv.to_le_bytes());
    out[44..48].copy_from_slice(&(columns.len() as u32).to_le_bytes());
    out[48..56].copy_from_slice(&meta.weak_rate_threshold.to_bits().to_le_bytes());
    out[56..64].copy_from_slice(&(index_offset as u64).to_le_bytes());

    for (k, knot) in knots.iter().enumerate() {
        let at = HEADER_LEN + k * 2;
        out[at..at + 2].copy_from_slice(&(knot.as_u32() as u16).to_le_bytes());
    }

    for (slot, col) in columns.iter().enumerate() {
        let at = index_offset + slot * INDEX_ENTRY_LEN;
        out[at..at + 4].copy_from_slice(&(col.tag as u32).to_le_bytes());
        out[at + 4..at + 8].copy_from_slice(&(col.elem as u32).to_le_bytes());
        out[at + 8..at + 16].copy_from_slice(&(column_offsets[slot] as u64).to_le_bytes());
        out[at + 16..at + 24].copy_from_slice(&(col.data.len() as u64).to_le_bytes());
        out[column_offsets[slot]..column_offsets[slot] + col.data.len()].copy_from_slice(&col.data);
    }
    out
}

/// Builds the six exact columns (five scalars + FAULTS) from records.
fn exact_columns(meta: &ArtifactMeta, records: &[DeviceRecord]) -> Vec<RawColumn> {
    let n = records.len();
    let stride = meta.pc_count as usize * meta.knot_count as usize;
    let mut columns: Vec<RawColumn> = SCALAR_COLUMNS
        .iter()
        .map(|&(tag, elem)| RawColumn {
            tag,
            elem,
            data: Vec::with_capacity(n * elem),
        })
        .collect();
    let mut faults = Vec::with_capacity(n * stride * 2);
    for rec in records {
        assert_eq!(rec.faults.len(), stride, "record matrix shape");
        columns[0]
            .data
            .extend_from_slice(&rec.device_id.to_le_bytes());
        columns[1].data.extend_from_slice(&rec.seed.to_le_bytes());
        columns[2]
            .data
            .extend_from_slice(&rec.v_min_mv.to_le_bytes());
        columns[3]
            .data
            .extend_from_slice(&rec.crash_mv.to_le_bytes());
        columns[4]
            .data
            .extend_from_slice(&rec.weak_pcs.to_le_bytes());
        for count in &rec.faults {
            faults.extend_from_slice(&count.to_le_bytes());
        }
    }
    columns.push(RawColumn {
        tag: Column::Faults,
        elem: 2,
        data: faults,
    });
    columns
}

/// Encodes a finished fleet into the columnar binary format (v2, exact
/// columns only — [`crate::model::compress_store`] derives the compressed
/// form).
///
/// # Panics
///
/// Panics when a record's matrix shape disagrees with the config — encode
/// only ever sees records the sweep engine produced.
#[must_use]
pub fn encode(cfg: &FleetConfig, records: &[DeviceRecord]) -> Vec<u8> {
    let meta = ArtifactMeta::from_config(cfg);
    assert_eq!(records.len(), meta.device_count as usize, "fleet size");
    write_artifact(
        &meta,
        &cfg.knots(),
        ARTIFACT_VERSION,
        &exact_columns(&meta, records),
    )
}

/// Encodes the fleet in the legacy v1 layout. Kept so the format-evolution
/// gate can prove a v2 artifact with exact columns is bit-identical to
/// what v1 readers decoded — and so archived v1 fixtures can be
/// regenerated.
#[must_use]
pub fn encode_legacy_v1(cfg: &FleetConfig, records: &[DeviceRecord]) -> Vec<u8> {
    let meta = ArtifactMeta::from_config(cfg);
    assert_eq!(records.len(), meta.device_count as usize, "fleet size");
    write_artifact(
        &meta,
        &cfg.knots(),
        ARTIFACT_VERSION_V1,
        &exact_columns(&meta, records),
    )
}

/// Encodes and durably writes an artifact, returning the byte count.
///
/// # Errors
///
/// Returns [`FleetError::Io`] when the write fails.
pub fn write_to_path(
    path: impl AsRef<Path>,
    cfg: &FleetConfig,
    records: &[DeviceRecord],
) -> Result<u64, FleetError> {
    let bytes = encode(cfg, records);
    std::fs::write(path.as_ref(), &bytes)
        .map_err(|e| FleetError::Io(format!("{}: {e}", path.as_ref().display())))?;
    Ok(bytes.len() as u64)
}

/// A loaded artifact: owns the raw buffer and serves zero-copy column
/// views plus typed per-device accessors that decode on read.
///
/// Reads of the exact FAULTS column are counted so serving layers can
/// verify compressed queries never touched the exact map; the counter is
/// observational only and never part of equality or persisted state.
#[derive(Debug)]
pub struct FleetStore {
    bytes: Vec<u8>,
    meta: ArtifactMeta,
    knots: Vec<Millivolts>,
    /// Column byte ranges, indexed by `tag - 1`; `None` when absent.
    columns: [Option<Range<usize>>; TAG_COUNT],
    exact_reads: AtomicU64,
}

impl Clone for FleetStore {
    fn clone(&self) -> FleetStore {
        FleetStore {
            bytes: self.bytes.clone(),
            meta: self.meta,
            knots: self.knots.clone(),
            columns: self.columns.clone(),
            exact_reads: AtomicU64::new(self.exact_reads.load(Ordering::Relaxed)),
        }
    }
}

impl FleetStore {
    /// Parses an artifact buffer (typically `fs::read` or an mmap copy).
    ///
    /// Accepts both format versions: v1 requires exactly the six fixed
    /// columns; v2 requires the five scalars and at least one of
    /// FAULTS/MODEL.
    ///
    /// # Errors
    ///
    /// [`FleetError::Artifact`] for truncation, bad magic or inconsistent
    /// bounds; [`FleetError::Version`] for an unsupported format version.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<FleetStore, FleetError> {
        if bytes.len() < HEADER_LEN {
            return Err(FleetError::Artifact(format!(
                "truncated header: {} bytes",
                bytes.len()
            )));
        }
        if bytes[0..4] != ARTIFACT_MAGIC {
            return Err(FleetError::Artifact("bad magic (not an HBFA file)".into()));
        }
        let read_u32 = |at: usize| read_le(&bytes, at).map(u32::from_le_bytes);
        let read_u16 = |at: usize| read_le(&bytes, at).map(u16::from_le_bytes);
        let read_u64 = |at: usize| read_le(&bytes, at).map(u64::from_le_bytes);
        let version = read_u32(4)?;
        if version != ARTIFACT_VERSION && version != ARTIFACT_VERSION_V1 {
            return Err(FleetError::Version {
                found: version,
                expected: ARTIFACT_VERSION,
            });
        }
        let meta = ArtifactMeta {
            version,
            device_count: read_u32(8)?,
            pc_count: read_u32(12)?,
            knot_count: read_u32(16)?,
            nominal_mv: read_u16(20)?,
            weak_reference_mv: read_u16(22)?,
            base_seed: read_u64(24)?,
            words_per_pc: read_u64(32)?,
            crash_jitter_mv: read_u16(40)?,
            weak_rate_threshold: f64::from_bits(read_u64(48)?),
        };
        // FleetConfig::validate's bounds. At most 65,280 bits per pseudo
        // channel keep every count a u16 below CRASHED_KNOT, and a rate
        // threshold of at most 1 admits no crashed cell.
        if !(1..=255).contains(&meta.words_per_pc) {
            return Err(FleetError::Artifact(format!(
                "words per pseudo channel {} outside 1..=255",
                meta.words_per_pc
            )));
        }
        if !(0.0..=1.0).contains(&meta.weak_rate_threshold) {
            return Err(FleetError::Artifact(format!(
                "weak-rate threshold {} outside [0, 1]",
                meta.weak_rate_threshold
            )));
        }
        // The WEAK_PCS bitmap is a u32 with one bit per pseudo channel.
        if !(1..=32).contains(&meta.pc_count) {
            return Err(FleetError::Artifact(format!(
                "pseudo-channel count {} outside 1..=32",
                meta.pc_count
            )));
        }
        let column_count = read_u32(44)? as usize;
        if version == ARTIFACT_VERSION_V1 && column_count != V1_COLUMN_COUNT {
            return Err(FleetError::Artifact(format!(
                "v1 requires {V1_COLUMN_COUNT} columns, header lists {column_count}"
            )));
        }
        if column_count == 0 || column_count > TAG_COUNT {
            return Err(FleetError::Artifact(format!(
                "column count {column_count} outside 1..={TAG_COUNT}"
            )));
        }
        let knot_table_end = HEADER_LEN + meta.knot_count as usize * 2;
        let index_offset = read_u64(56)? as usize;
        let index_end = index_offset
            .checked_add(column_count * INDEX_ENTRY_LEN)
            .filter(|&end| knot_table_end <= index_offset && end <= bytes.len());
        let Some(index_end) = index_end else {
            return Err(FleetError::Artifact("column index out of bounds".into()));
        };
        let knots = (0..meta.knot_count as usize)
            .map(|k| read_u16(HEADER_LEN + k * 2).map(|mv| Millivolts(u32::from(mv))))
            .collect::<Result<Vec<_>, _>>()?;
        // The model and query readers measure each knot's depth below the
        // first one, `knots[0] - knots[k]`.
        if knots.is_empty() || knots.windows(2).any(|pair| pair[0] <= pair[1]) {
            return Err(FleetError::Artifact(format!(
                "knot table {knots:?} is not a non-empty, strictly descending grid"
            )));
        }

        let n = meta.device_count as usize;
        let Some(cells) = n
            .checked_mul(meta.pc_count as usize)
            .and_then(|c| c.checked_mul(meta.knot_count as usize))
        else {
            return Err(FleetError::Artifact(
                "device, PC and knot counts overflow the cell count".into(),
            ));
        };
        let mut columns: [Option<Range<usize>>; TAG_COUNT] = std::array::from_fn(|_| None);
        for slot in 0..column_count {
            let at = index_offset + slot * INDEX_ENTRY_LEN;
            let found_tag = read_u32(at)?;
            let found_elem = read_u32(at + 4)? as usize;
            let offset = read_u64(at + 8)? as usize;
            let len = read_u64(at + 16)? as usize;
            let Some(tag) = Column::from_tag(found_tag) else {
                return Err(FleetError::Artifact(format!(
                    "column {slot}: unknown tag {found_tag}"
                )));
            };
            let (elem, elems) = match tag {
                Column::Faults => (2, cells),
                Column::Model => (DeviceModel::elem_bytes(meta.pc_count as usize), n),
                _ => {
                    let Some(&(_, elem)) = SCALAR_COLUMNS.iter().find(|(t, _)| *t == tag) else {
                        return Err(FleetError::Artifact(format!(
                            "column {slot}: tag {found_tag} has no element width"
                        )));
                    };
                    (elem, n)
                }
            };
            if found_elem != elem || elems.checked_mul(elem) != Some(len) {
                return Err(FleetError::Artifact(format!(
                    "column {slot}: tag {found_tag} elem {found_elem} len {len} \
                     does not match the declared fleet shape"
                )));
            }
            let end = offset.checked_add(len).filter(|&e| e <= bytes.len());
            let Some(end) = end else {
                return Err(FleetError::Artifact(format!(
                    "column {slot} extends past the buffer"
                )));
            };
            let slot_index = found_tag as usize - 1;
            if columns[slot_index].is_some() {
                return Err(FleetError::Artifact(format!(
                    "column tag {found_tag} listed twice"
                )));
            }
            columns[slot_index] = Some(offset..end);
        }
        // The writer pads only the last column, up to 8-byte alignment: a
        // buffer of any other length is truncated or carries trailing junk.
        let layout_end = columns
            .iter()
            .flatten()
            .map(|c| c.end)
            .fold(index_end, usize::max);
        if align8(layout_end) != bytes.len() {
            return Err(FleetError::Artifact(format!(
                "artifact is {} bytes but its layout ends at {}",
                bytes.len(),
                align8(layout_end)
            )));
        }
        for (tag, _) in SCALAR_COLUMNS {
            if columns[tag as usize - 1].is_none() {
                return Err(FleetError::Artifact(format!(
                    "mandatory scalar column {} missing",
                    tag as u32
                )));
            }
        }
        if version == ARTIFACT_VERSION_V1 && columns[Column::Faults as usize - 1].is_none() {
            return Err(FleetError::Artifact("v1 requires the FAULTS column".into()));
        }
        if columns[Column::Faults as usize - 1].is_none()
            && columns[Column::Model as usize - 1].is_none()
        {
            return Err(FleetError::Artifact(
                "artifact carries neither exact counts nor compressed models".into(),
            ));
        }
        Ok(FleetStore {
            bytes,
            meta,
            knots,
            columns,
            exact_reads: AtomicU64::new(0),
        })
    }

    /// Loads an artifact file.
    ///
    /// # Errors
    ///
    /// [`FleetError::Io`] when the file cannot be read, otherwise as
    /// [`FleetStore::from_bytes`].
    pub fn open(path: impl AsRef<Path>) -> Result<FleetStore, FleetError> {
        let bytes = std::fs::read(path.as_ref())
            .map_err(|e| FleetError::Io(format!("{}: {e}", path.as_ref().display())))?;
        FleetStore::from_bytes(bytes)
    }

    /// The header meta block.
    #[must_use]
    pub fn meta(&self) -> &ArtifactMeta {
        &self.meta
    }

    /// The knot grid, descending.
    #[must_use]
    pub fn knots(&self) -> &[Millivolts] {
        &self.knots
    }

    /// Devices stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.meta.device_count as usize
    }

    /// `true` when the artifact holds no devices.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total size of the loaded artifact in bytes.
    #[must_use]
    pub fn size_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// `true` when the artifact carries `column`.
    #[must_use]
    pub fn has_column(&self, column: Column) -> bool {
        self.columns[column as usize - 1].is_some()
    }

    /// `true` when the exact FAULTS column is present.
    #[must_use]
    pub fn has_exact_counts(&self) -> bool {
        self.has_column(Column::Faults)
    }

    /// `true` when the compressed MODEL column is present.
    #[must_use]
    pub fn has_model(&self) -> bool {
        self.has_column(Column::Model)
    }

    /// Number of reads served from the exact FAULTS column since this
    /// store was loaded (observational; a clone starts from the current
    /// value). The compressed-serving happy path keeps this at zero.
    #[must_use]
    pub fn exact_column_reads(&self) -> u64 {
        self.exact_reads.load(Ordering::Relaxed)
    }

    /// Zero-copy view of one column's raw little-endian bytes.
    ///
    /// Requesting the FAULTS column counts as an exact-column read.
    ///
    /// # Panics
    ///
    /// Panics when the column is absent (possible only for FAULTS/MODEL on
    /// v2 artifacts) — gate on [`FleetStore::has_column`] first.
    #[must_use]
    pub fn column_bytes(&self, column: Column) -> &[u8] {
        if column == Column::Faults {
            self.exact_reads.fetch_add(1, Ordering::Relaxed);
        }
        let range = self.columns[column as usize - 1]
            .clone()
            .unwrap_or_else(|| panic!("column tag {} absent from artifact", column as u32));
        &self.bytes[range]
    }

    fn scalar<const W: usize>(&self, column: Column, i: usize) -> [u8; W] {
        self.column_bytes(column).as_chunks::<W>().0[i]
    }

    /// Device ID at row `i`.
    #[must_use]
    pub fn device_id(&self, i: usize) -> u32 {
        u32::from_le_bytes(self.scalar::<4>(Column::DeviceId, i))
    }

    /// Seed at row `i`.
    #[must_use]
    pub fn seed(&self, i: usize) -> u64 {
        u64::from_le_bytes(self.scalar::<8>(Column::Seed, i))
    }

    /// V_min at row `i` in millivolts (0 = none observed).
    #[must_use]
    pub fn v_min_mv(&self, i: usize) -> u16 {
        u16::from_le_bytes(self.scalar::<2>(Column::VMin, i))
    }

    /// Crash floor at row `i` in millivolts.
    #[must_use]
    pub fn crash_mv(&self, i: usize) -> u16 {
        u16::from_le_bytes(self.scalar::<2>(Column::Crash, i))
    }

    /// Weak-PC bitmap at row `i`.
    #[must_use]
    pub fn weak_pcs(&self, i: usize) -> u32 {
        u32::from_le_bytes(self.scalar::<4>(Column::WeakPcs, i))
    }

    /// Decodes row `i`'s compressed parametric model, `None` when the
    /// artifact carries no MODEL column.
    #[must_use]
    pub fn model(&self, i: usize) -> Option<DeviceModel> {
        let range = self.columns[Column::Model as usize - 1].clone()?;
        let elem = DeviceModel::elem_bytes(self.meta.pc_count as usize);
        let col = &self.bytes[range];
        Some(DeviceModel::decode(
            &col[i * elem..(i + 1) * elem],
            self.meta.pc_count as usize,
        ))
    }

    /// Size of the MODEL column in bytes (0 when absent) — the
    /// `model_bytes` telemetry gauge.
    #[must_use]
    pub fn model_bytes(&self) -> u64 {
        self.columns[Column::Model as usize - 1]
            .clone()
            .map_or(0, |r| r.len() as u64)
    }

    /// Fault count of `(row, pc, knot)`; [`CRASHED_KNOT`] marks a crashed
    /// knot. Counts as an exact-column read.
    ///
    /// # Panics
    ///
    /// Panics when the FAULTS column is absent.
    #[must_use]
    pub fn fault(&self, i: usize, pc: usize, knot: usize) -> u16 {
        let stride = self.meta.pc_count as usize * self.meta.knot_count as usize;
        let at = i * stride + pc * self.meta.knot_count as usize + knot;
        u16::from_le_bytes(self.column_bytes(Column::Faults).as_chunks::<2>().0[at])
    }

    /// Row index of `device_id` (rows are sorted by device ID).
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownDevice`] when absent.
    pub fn find(&self, device_id: u32) -> Result<usize, FleetError> {
        let n = self.len();
        let (mut lo, mut hi) = (0usize, n);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.device_id(mid) < device_id {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        if lo < n && self.device_id(lo) == device_id {
            Ok(lo)
        } else {
            Err(FleetError::UnknownDevice(device_id))
        }
    }

    /// Decodes row `i` back into a [`DeviceRecord`]. Counts as an
    /// exact-column read.
    ///
    /// # Panics
    ///
    /// Panics when the FAULTS column is absent.
    #[must_use]
    pub fn record(&self, i: usize) -> DeviceRecord {
        let stride = self.meta.pc_count as usize * self.meta.knot_count as usize;
        let (cells, _) = self.column_bytes(Column::Faults).as_chunks::<2>();
        let faults = cells[i * stride..(i + 1) * stride]
            .iter()
            .map(|&cell| u16::from_le_bytes(cell))
            .collect();
        DeviceRecord {
            device_id: self.device_id(i),
            seed: self.seed(i),
            v_min_mv: self.v_min_mv(i),
            crash_mv: self.crash_mv(i),
            weak_pcs: self.weak_pcs(i),
            faults,
        }
    }

    /// Decodes every row.
    ///
    /// # Panics
    ///
    /// Panics when the FAULTS column is absent.
    #[must_use]
    pub fn records(&self) -> Vec<DeviceRecord> {
        (0..self.len()).map(|i| self.record(i)).collect()
    }

    /// The JSON export view of this artifact.
    ///
    /// # Panics
    ///
    /// Panics when the FAULTS column is absent — the export documents
    /// exact rates.
    #[must_use]
    pub fn export(&self) -> FleetExport {
        FleetExport::build(&self.meta, &self.knots, &self.records())
    }
}

/// The JSON export: the artifact's full content as rates (exact dyadic
/// `count / (words_per_pc × 256)` quotients), with `null` marking crashed
/// knots. Kept as the interchange path; the binary is the at-scale store.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetExport {
    /// Header fields, echoed.
    pub meta: ArtifactMeta,
    /// Knot grid in millivolts, descending.
    pub knots_mv: Vec<u16>,
    /// Per-device export rows, ascending by device ID.
    pub fleet: Vec<DeviceExport>,
}

/// One device's JSON export row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceExport {
    /// Fleet position.
    pub device_id: u32,
    /// Fault-universe seed.
    pub seed: u64,
    /// Lowest fault-free knot (0 = none).
    pub v_min_mv: u16,
    /// Crash floor.
    pub crash_mv: u16,
    /// Weak-PC bitmap.
    pub weak_pcs: u32,
    /// Union fault-rate curve per pseudo channel; `null` = crashed knot.
    pub rates: Vec<Vec<Option<f64>>>,
}

impl FleetExport {
    /// Builds the export view of `records` under `cfg`.
    #[must_use]
    pub fn from_records(cfg: &FleetConfig, records: &[DeviceRecord]) -> FleetExport {
        let knots = cfg.knots();
        FleetExport::build(&ArtifactMeta::from_config(cfg), &knots, records)
    }

    fn build(meta: &ArtifactMeta, knots: &[Millivolts], records: &[DeviceRecord]) -> FleetExport {
        let bits = meta.bits_per_pc() as f64;
        let fleet = records
            .iter()
            .map(|rec| {
                let rates = (0..meta.pc_count as usize)
                    .map(|pc| {
                        (0..knots.len())
                            .map(|k| {
                                let count = rec.faults[pc * knots.len() + k];
                                if count == CRASHED_KNOT {
                                    None
                                } else {
                                    Some(f64::from(count) / bits)
                                }
                            })
                            .collect()
                    })
                    .collect();
                DeviceExport {
                    device_id: rec.device_id,
                    seed: rec.seed,
                    v_min_mv: rec.v_min_mv,
                    crash_mv: rec.crash_mv,
                    weak_pcs: rec.weak_pcs,
                    rates,
                }
            })
            .collect();
        FleetExport {
            meta: *meta,
            knots_mv: knots.iter().map(|k| k.as_u32() as u16).collect(),
            fleet,
        }
    }

    /// Serializes the export as one JSON document plus trailing newline.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut json = serde_json::to_string(self).expect("export serializes");
        json.push('\n');
        json
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep;

    fn artifact_fixture() -> (FleetConfig, Vec<DeviceRecord>) {
        let cfg = FleetConfig {
            devices: 3,
            workers: 1,
            words_per_pc: 8,
            from: Millivolts(980),
            down_to: Millivolts(900),
            step: Millivolts(40),
            weak_reference: Millivolts(900),
            ..FleetConfig::default()
        };
        let records = sweep::run(&cfg).unwrap().records;
        (cfg, records)
    }

    #[test]
    fn encode_decode_round_trips() {
        let (cfg, records) = artifact_fixture();
        let bytes = encode(&cfg, &records);
        let store = FleetStore::from_bytes(bytes).unwrap();
        assert_eq!(store.records(), records);
        assert_eq!(store.knots(), cfg.knots());
        assert_eq!(store.meta().base_seed, cfg.base_seed);
        assert_eq!(store.export(), FleetExport::from_records(&cfg, &records));
    }

    #[test]
    fn columns_are_fixed_width_views() {
        let (cfg, records) = artifact_fixture();
        let store = FleetStore::from_bytes(encode(&cfg, &records)).unwrap();
        assert_eq!(store.column_bytes(Column::DeviceId).len(), 3 * 4);
        assert_eq!(store.column_bytes(Column::Seed).len(), 3 * 8);
        let cells = 3 * usize::from(cfg.geometry.total_pcs()) * cfg.knots().len();
        assert_eq!(store.column_bytes(Column::Faults).len(), cells * 2);
        assert_eq!(store.find(2).unwrap(), 2);
        assert!(matches!(store.find(9), Err(FleetError::UnknownDevice(9))));
    }

    #[test]
    fn bad_magic_and_truncation_are_artifact_errors() {
        let (cfg, records) = artifact_fixture();
        let bytes = encode(&cfg, &records);
        let mut wrong = bytes.clone();
        wrong[0] = b'X';
        assert!(matches!(
            FleetStore::from_bytes(wrong),
            Err(FleetError::Artifact(_))
        ));
        assert!(matches!(
            FleetStore::from_bytes(bytes[..32].to_vec()),
            Err(FleetError::Artifact(_))
        ));
    }

    /// Every truncation of a small artifact — with and without its exact
    /// columns beside the models — is an error, and no single header or
    /// column-index byte set to 0x00 or 0xFF makes the decoder panic
    /// (overflow checks are on in test builds).
    #[test]
    fn truncated_and_corrupted_artifacts_never_panic() {
        let (cfg, records) = artifact_fixture();
        let exact = FleetStore::from_bytes(encode(&cfg, &records)).unwrap();
        for keep_exact in [true, false] {
            let bytes = crate::model::compress_store(&exact, keep_exact).unwrap();
            let store = FleetStore::from_bytes(bytes.clone()).unwrap();
            assert_eq!(store.has_exact_counts(), keep_exact);
            for len in 0..bytes.len() {
                assert!(
                    FleetStore::from_bytes(bytes[..len].to_vec()).is_err(),
                    "keep_exact {keep_exact}: truncation to {len} bytes decoded"
                );
            }
            let index_offset = u64::from_le_bytes(bytes[56..64].try_into().unwrap()) as usize;
            let column_count = u32::from_le_bytes(bytes[44..48].try_into().unwrap()) as usize;
            let index = index_offset..index_offset + column_count * INDEX_ENTRY_LEN;
            for at in (0..HEADER_LEN).chain(index) {
                for value in [0x00, 0xFF] {
                    let mut corrupt = bytes.clone();
                    corrupt[at] = value;
                    let _ = FleetStore::from_bytes(corrupt);
                }
            }
            // Whole size fields at their maximum — device, PC and knot
            // counts and the index offset, in every combination — must
            // fail the size arithmetic cleanly instead of overflowing.
            let fields = [8..12, 12..16, 16..20, 56..64];
            for mask in 1..16 {
                let mut crafted = bytes.clone();
                for (i, field) in fields.iter().enumerate() {
                    if mask & (1 << i) != 0 {
                        crafted[field.clone()].fill(0xFF);
                    }
                }
                assert!(FleetStore::from_bytes(crafted).is_err(), "fields {mask:#b}");
            }
            // Maximal device and PC counts over a one-knot grid: the cell
            // count fits a u64, the FAULTS column's byte length does not.
            let mut crafted = bytes.clone();
            crafted[8..16].fill(0xFF);
            crafted[16..20].copy_from_slice(&1u32.to_le_bytes());
            assert!(FleetStore::from_bytes(crafted).is_err());
            if !keep_exact {
                assert_corrupted_models_serve(&bytes, &store);
            }
        }
    }

    /// A model-only artifact whose MODEL column holds arbitrary bytes still
    /// loads, and every request on it gets an answer instead of a panic:
    /// the column filled with each of a few values, and each of its bytes
    /// set to 0x00 and 0xFF on its own.
    fn assert_corrupted_models_serve(bytes: &[u8], store: &FleetStore) {
        use crate::api::FleetRequest;
        let model = store.columns[Column::Model as usize - 1].clone().unwrap();
        let fills = [0x00u8, 0x7F, 0x80, 0xFF].map(|value| {
            let mut corrupt = bytes.to_vec();
            corrupt[model.clone()].fill(value);
            corrupt
        });
        let singles = model.clone().flat_map(|at| {
            [0x00u8, 0xFF].map(|value| {
                let mut corrupt = bytes.to_vec();
                corrupt[at] = value;
                corrupt
            })
        });
        for corrupt in fills.into_iter().chain(singles) {
            let service = crate::serve::FleetService::new(FleetStore::from_bytes(corrupt).unwrap());
            for i in 0..store.len() {
                for target_rate in [1e-9, 1e-3, 0.5] {
                    let _ = service.handle(&FleetRequest::Recommend {
                        device_id: store.device_id(i),
                        target_rate,
                        min_pcs: 1,
                    });
                }
            }
            let _ = service.handle(&FleetRequest::Summary);
            let _ = service.handle(&FleetRequest::Fidelity);
        }
    }

    #[test]
    fn header_fields_outside_the_config_bounds_are_artifact_errors() {
        let (cfg, records) = artifact_fixture();
        let bytes = encode(&cfg, &records);
        let field = |at: std::ops::Range<usize>, value: &[u8]| {
            let mut crafted = bytes.clone();
            crafted[at].copy_from_slice(value);
            FleetStore::from_bytes(crafted)
        };
        for words in [0u64, 256, u64::MAX] {
            match field(32..40, &words.to_le_bytes()) {
                Err(FleetError::Artifact(msg)) => assert!(msg.contains("words"), "{msg}"),
                other => panic!("{words} words per PC: {other:?}"),
            }
        }
        for threshold in [-0.5f64, 1.5, f64::NAN, f64::INFINITY] {
            match field(48..56, &threshold.to_bits().to_le_bytes()) {
                Err(FleetError::Artifact(msg)) => assert!(msg.contains("threshold"), "{msg}"),
                other => panic!("threshold {threshold}: {other:?}"),
            }
        }
        // The WEAK_PCS bitmap has 32 bits.
        for pcs in [0u32, 33, u32::MAX] {
            match field(12..16, &pcs.to_le_bytes()) {
                Err(FleetError::Artifact(msg)) => assert!(msg.contains("pseudo-channel"), "{msg}"),
                other => panic!("{pcs} pseudo channels: {other:?}"),
            }
        }
        // The fixture's knots are 980, 940 and 900 mV, after the 64-byte
        // header: no knots at all, an ascending pair and a repeated knot.
        let knot = |mv: u16| mv.to_le_bytes();
        for (at, value) in [
            (16..20, 0u32.to_le_bytes().to_vec()),
            (64..68, [knot(940), knot(980)].concat()),
            (66..68, knot(980).to_vec()),
            (68..70, knot(940).to_vec()),
        ] {
            match field(at.clone(), &value) {
                Err(FleetError::Artifact(msg)) => assert!(msg.contains("knot table"), "{msg}"),
                other => panic!("bytes {at:?} = {value:?}: {other:?}"),
            }
        }
        for words in [1u64, 255] {
            let store = field(32..40, &words.to_le_bytes()).unwrap();
            assert_eq!(store.meta().words_per_pc, words);
        }
        for threshold in [0.0f64, 1.0] {
            let store = field(48..56, &threshold.to_bits().to_le_bytes()).unwrap();
            assert_eq!(store.meta().weak_rate_threshold, threshold);
        }
        let store = field(12..16, &32u32.to_le_bytes());
        assert!(
            !matches!(&store, Err(FleetError::Artifact(msg)) if msg.contains("pseudo-channel")),
            "32 pseudo channels are in bounds: {store:?}"
        );
    }

    #[test]
    fn version_bump_is_rejected() {
        let (cfg, records) = artifact_fixture();
        let mut bytes = encode(&cfg, &records);
        bytes[4..8].copy_from_slice(&(ARTIFACT_VERSION + 1).to_le_bytes());
        assert_eq!(
            FleetStore::from_bytes(bytes).unwrap_err(),
            FleetError::Version {
                found: ARTIFACT_VERSION + 1,
                expected: ARTIFACT_VERSION,
            }
        );
    }
}
