//! The fault injector: turns the statistical model into concrete stuck-bit
//! masks for every word of the device, deterministically.

use std::ops::Range;
use std::sync::{Arc, RwLock};

use hbm_device::{BankId, HbmGeometry, PcIndex, Word256, WordOffset};
use hbm_units::{Celsius, Millivolts, Volts};

use crate::hash::{combine, mix64, unit_cutoff, unit_pair};
use crate::kernel::{bitsliced, Exposure, InstructionSet, Written};
use crate::params::FaultModelParams;
use crate::variation::ShiftTable;

/// Deterministic fault injector.
///
/// Every `(pseudo channel, word offset, bit)` owns one polarity class and
/// one persistent threshold in `[0, 1)`, both drawn once from a
/// counter-based hash of the device seed and the bit's address. The bit is
/// stuck at supply `v` exactly when its class's fault probability `c(v)` at
/// the bit's location exceeds the threshold, so each bit has one failure
/// voltage. Key properties (all property-tested):
///
/// - **guardband**: no faults at or above V_min;
/// - **determinism**: identical masks for identical inputs;
/// - **monotonicity**: each polarity's faulty-bit set only grows as voltage
///   drops, by construction;
/// - **exact rates**: the expected per-bit fault probability equals
///   `share_π × c_π(v_eff)` per polarity class.
///
/// # Performance
///
/// Two paths, each removing work the naive per-word walk would repeat:
///
/// 1. **One word's masks** ([`FaultInjector::stuck_masks`],
///    [`FaultInjector::observe`], [`crate::MaskKernel::masks`]). The local
///    variation shift — and therefore the class probabilities `(c0, c1)` —
///    is constant within a (PC, bank, row-region) tile, so it is computed
///    once per `(PC, voltage, temperature)` into a tile table and
///    invalidated when the temperature changes; a word's query is then a
///    shift-and-mask tile lookup. The masks come from one of two
///    bit-identical arms, picked by the backend ([`crate::KernelBackend`]):
///    - **scalar**: each of the 256 bits hashes and tests its threshold
///      against `c` as an `f64` comparison;
///    - **bit-sliced**: the word's hash prefix is combined once, the
///      tile's `f64` probabilities are converted to their exact integer
///      images by [`crate::hash::unit_cutoff`], and the 256 bits are
///      produced a 64-bit lane at a time as `u64` bitplanes — one integer
///      mix and two integer compares per bit, in one loop that is also
///      compiled for AVX2 and AVX-512 behind the runtime feature probe
///      ([`crate::InstructionSet`]). The cutoffs are exact, so equality
///      with the scalar arm is a theorem, enforced end to end by the
///      `bitsliced_matches_scalar` proptests.
/// 2. **Descents** ([`crate::MaskKernel::count_descent`],
///    [`crate::MaskKernel::exposure_descent`]). A sweep down a voltage grid
///    rescans nothing: a range is hashed once and every bit is placed at
///    the first knot where it fails.
///
/// All of it sits behind the [`crate::MaskKernel`] trait
/// ([`FaultInjector::kernel`] constructs one);
/// [`crate::MaskKernel::reference_masks`] recomputes a word from scratch
/// (per-word shift, scalar bit walk) as the oracle the property tests hold
/// every path to.
///
/// # Examples
///
/// ```
/// use hbm_device::{HbmGeometry, PcIndex, Word256, WordOffset};
/// use hbm_faults::{FaultInjector, FaultModelParams};
/// use hbm_units::Millivolts;
///
/// # fn main() -> Result<(), hbm_device::DeviceError> {
/// let injector = FaultInjector::new(
///     FaultModelParams::date21(),
///     HbmGeometry::vcu128_reduced(),
///     99,
/// );
/// let pc = PcIndex::new(0)?;
/// let (stuck0, stuck1) = injector.stuck_masks(pc, WordOffset(0), Millivolts(850));
/// // Masks never overlap: a bit fails towards exactly one value.
/// assert!((stuck0 & stuck1).is_zero());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct FaultInjector {
    params: FaultModelParams,
    geometry: HbmGeometry,
    seed: u64,
    temperature: Celsius,
    shift_table: ShiftTable,
    grid: TileGrid,
    /// Per-PC tile probability tables for the most recent
    /// `(voltage, temperature)`; rebuilt lazily on any mismatch.
    tile_cache: RwLock<Vec<Option<Arc<TileTable>>>>,
}

/// Domain-separation tag of the per-bit hash stream ("cbit"): each bit's
/// polarity class and persistent threshold.
const TAG_CBIT: u64 = 0x6362_6974;

/// One tile's knot lookup in a descent: the exact integer fault cutoffs of
/// both polarity classes at every knot, plus a table over a keyed
/// threshold's bucket ([`bitsliced::keyed_thresholds`]) so that most bits
/// find their first failing knot with one load, and the rest with a scan
/// of the few cutoffs inside their bucket. Most tiles also carry a
/// [`Cover`], which counts the bits at its top cutoffs with vector
/// compares instead.
#[derive(Debug, Clone)]
struct KnotSearch {
    /// Per class (stuck-at-0, then stuck-at-1), the cutoffs along the
    /// descent, non-decreasing.
    cuts: [Vec<u64>; 2],
    /// `buckets[bucket(key)]`: the number of the class's cutoffs at or
    /// below the bucket's first threshold — the slot every keyed threshold
    /// of the bucket shares — with [`SPLIT_BUCKET`] set when a cutoff
    /// splits the bucket.
    buckets: [u32; KEY_BUCKETS],
    /// The tile's compare cover ([`Cover::pick`]); `None` when the tile's
    /// cutoffs are too dense near the top for compares to pay, and every
    /// bit goes through the bucket histogram.
    cover: Option<Cover>,
}

/// Raw thresholds are 32-bit; their top byte picks a [`KnotSearch`] bucket.
const KNOT_BUCKET_SHIFT: u32 = 24;

/// Buckets of a keyed threshold: its bits 24 and up, `class × 256 + top
/// byte`.
const KEY_BUCKETS: usize = 2 << (32 - KNOT_BUCKET_SHIFT);

/// The flag of a [`KnotSearch`] bucket whose thresholds do not share a
/// slot. Slots stay below it: a descent has at most `u16::MAX` knots.
const SPLIT_BUCKET: u32 = 1 << 31;

/// A tile's compare cover: a threshold `low`, and every distinct interior
/// cutoff (`0 < cut < 2³²`) of either class above it, at most
/// [`COVER_CAP`] per class. A knot's cumulative count of a class is the
/// bucket histogram's prefix at a cutoff up to `low`, and above it the
/// count of keys below the cutoff that one vector compare per key and
/// value gives ([`bitsliced::cover_counts`]); 0 at cutoff 0 and the class
/// total at `2³²`. Only the bits whose raw threshold is below `low` go
/// through the bucket histogram.
#[derive(Debug, Clone, Copy)]
struct Cover {
    /// The whole-key compare values, ascending: class 0's covered cutoffs,
    /// `2³²` (below which lie exactly the class-0 keys), then class 1's
    /// covered cutoffs offset by `2³²`.
    values: [u64; COVER_VALUES],
    /// How many of `values` are in use.
    len: usize,
    /// The raw threshold below which a bit goes through the bucket
    /// histogram.
    low: u64,
}

/// The most cutoffs of one class a [`Cover`] compares against.
const COVER_CAP: usize = 4;

/// A [`Cover`]'s compare values: [`COVER_CAP`] per class and `2³²`.
const COVER_VALUES: usize = 2 * COVER_CAP + 1;

/// [`Cover::pick`]'s cost rule, per bit of a word, in units of one compare
/// of every key against one value (about 0.1 ns a bit with the AVX-512
/// compile): a bit below the cover's threshold costs
/// [`COVER_RESIDUAL_COST`] (its walk out of the residual mask into the
/// bucket histogram, most often through a bucket a cutoff splits), and the
/// class totals and the residual mask cost [`COVER_BASE_COST`]. A tile
/// whose best cover costs [`HISTOGRAM_COST`] or more (every bit through
/// the branch-free bucket histogram, about 1.4 ns) keeps the histogram.
const COVER_RESIDUAL_COST: u64 = 30;
/// See [`COVER_RESIDUAL_COST`].
const COVER_BASE_COST: u64 = 2;
/// See [`COVER_RESIDUAL_COST`].
const HISTOGRAM_COST: u64 = 14;

impl Cover {
    /// The cover the cost rule ([`COVER_RESIDUAL_COST`]) rates cheapest
    /// among those whose threshold is 0 or one of the tile's top cutoffs:
    /// each compare value costs 1, and the bits below the threshold,
    /// about `low / 2³²` of them, cost [`COVER_RESIDUAL_COST`] each.
    /// `None` when even the cheapest costs [`HISTOGRAM_COST`] or more.
    fn pick(cuts: &[Vec<u64>; 2]) -> Option<Self> {
        let tops = cuts.each_ref().map(|cuts| top_cutoffs(cuts));
        // Costs per bit, scaled by 2³²; `len` counts the value `2³²`,
        // which the base cost already holds.
        let cost = |cover: &Cover| {
            ((cover.len as u64 - 1 + COVER_BASE_COST) << 32) + cover.low * COVER_RESIDUAL_COST
        };
        let candidates = tops.iter().flat_map(|(tops, m)| &tops[..*m]);
        std::iter::once(&0)
            .chain(candidates)
            .filter_map(|&low| Cover::at(&tops, low))
            .min_by_key(cost)
            .filter(|cover| cost(cover) < HISTOGRAM_COST << 32)
    }

    /// The cover with threshold `low` of a tile whose classes have the top
    /// cutoffs `tops` ([`top_cutoffs`]), or `None` when a class has more
    /// than [`COVER_CAP`] distinct interior cutoffs above `low`.
    fn at(tops: &[TopCutoffs; 2], low: u64) -> Option<Self> {
        let mut cover = Cover {
            values: [0; COVER_VALUES],
            len: 0,
            low,
        };
        for (class, (tops, m)) in (0u64..).zip(tops) {
            let above = tops[..*m].iter().take_while(|&&cut| cut > low).count();
            if above > COVER_CAP {
                return None;
            }
            for &cut in tops[..above].iter().rev() {
                cover.values[cover.len] = (class << 32) + cut;
                cover.len += 1;
            }
            if class == 0 {
                cover.values[cover.len] = 1 << 32;
                cover.len += 1;
            }
        }
        Some(cover)
    }
}

/// Up to `COVER_CAP + 1` of a class's highest distinct interior cutoffs,
/// descending and zero-padded, and how many there are.
type TopCutoffs = ([u64; COVER_CAP + 1], usize);

/// The [`TopCutoffs`] of one class's cutoffs: its highest distinct
/// interior ones (`0 < cut < 2³²`).
fn top_cutoffs(cuts: &[u64]) -> TopCutoffs {
    let mut tops = [0u64; COVER_CAP + 1];
    let mut m = 0;
    for &cut in cuts.iter().rev().filter(|&&cut| cut > 0 && cut < 1 << 32) {
        if m == tops.len() {
            break;
        }
        if m == 0 || tops[m - 1] != cut {
            tops[m] = cut;
            m += 1;
        }
    }
    (tops, m)
}

/// What one descent counts of one tile's bits, word by word
/// ([`KnotSearch::count_word`]), for [`KnotSearch::fold`].
#[derive(Debug, Clone)]
struct TileTally {
    /// Per bucket of the keyed threshold, the bits that went through the
    /// bucket histogram: every bit without a [`Cover`], the bits below its
    /// threshold with one.
    buckets: [u64; KEY_BUCKETS],
    /// With a cover, the bits below each of its compare values, and the
    /// words counted.
    below: [u64; COVER_VALUES],
    words: u64,
}

impl Default for TileTally {
    fn default() -> Self {
        TileTally {
            buckets: [0; KEY_BUCKETS],
            below: [0; COVER_VALUES],
            words: 0,
        }
    }
}

impl KnotSearch {
    /// The lookup of one tile's cutoffs along a descent, stuck-at-0 class
    /// first.
    ///
    /// # Panics
    ///
    /// Panics if the cutoffs fall anywhere along the descent — the
    /// field's monotonicity rules that out.
    fn new(cuts: [Vec<u64>; 2]) -> Self {
        let width = 1u64 << KNOT_BUCKET_SHIFT;
        let mut buckets = [0u32; KEY_BUCKETS];
        for (class, table) in cuts.iter().zip(buckets.chunks_exact_mut(KEY_BUCKETS / 2)) {
            assert!(
                class.windows(2).all(|c| c[0] <= c[1]),
                "fault cutoffs fall along a descending schedule: {class:?}"
            );
            let mut below = 0; // cutoffs at or below the bucket's first threshold
            for (first, entry) in (0..).step_by(width as usize).zip(table) {
                while below < class.len() && class[below] <= first {
                    below += 1;
                }
                let split = class.get(below).is_some_and(|&cut| cut < first + width);
                *entry = below as u32 | if split { SPLIT_BUCKET } else { 0 };
            }
        }
        let cover = Cover::pick(&cuts);
        KnotSearch {
            cuts,
            buckets,
            cover,
        }
    }

    /// Whether no bit of the tile fails at any knot.
    fn clean(&self) -> bool {
        self.cuts
            .iter()
            .all(|class| class.last().is_none_or(|&cut| cut == 0))
    }

    /// The number of knots whose cutoff is at or below the raw threshold of
    /// keyed threshold `key` — the index of the first knot at which the bit
    /// fails, or the number of knots when it is clean at every knot.
    fn slot(&self, key: u64) -> usize {
        match self.buckets[bucket(key)] {
            entry if entry & SPLIT_BUCKET != 0 => self.exact(key),
            entry => entry as usize,
        }
    }

    /// [`KnotSearch::slot`] for the bits of split buckets: the cutoffs
    /// below the bucket plus those inside it that the threshold reaches.
    fn exact(&self, key: u64) -> usize {
        let below = (self.buckets[bucket(key)] & !SPLIT_BUCKET) as usize;
        let hi = key & 0xFFFF_FFFF;
        let end = ((hi >> KNOT_BUCKET_SHIFT) + 1) << KNOT_BUCKET_SHIFT;
        let inside = self.cuts[(key >> 32) as usize & 1][below..]
            .iter()
            .take_while(|&&cut| cut < end);
        below + inside.filter(|&&cut| cut <= hi).count()
    }

    /// Counts one word's keyed thresholds into the tile's `tally`. With a
    /// [`Cover`], its compares ([`bitsliced::cover_counts`], compiled for
    /// `isa`) count the bits below each covered cutoff and mark the bits
    /// below `low`; only those go through the bucket histogram
    /// ([`KnotSearch::count_buckets`]). Without one, every bit does.
    /// [`KnotSearch::fold`] turns the tally into first knots.
    fn count_word(
        &self,
        keys: &[u64; 256],
        tally: &mut TileTally,
        split: &mut [u64; 256],
        hist: &mut [[u64; 2]],
        isa: InstructionSet,
    ) {
        let Some(cover) = &self.cover else {
            return self.count_buckets(keys.iter().copied(), tally, split, hist);
        };
        let (values, below) = (&cover.values[..cover.len], &mut tally.below[..cover.len]);
        let residual = bitsliced::cover_counts(keys, values, cover.low, below, isa);
        tally.words += 1;
        if residual.is_zero() {
            return;
        }
        let marked = (0..)
            .step_by(64)
            .zip(residual.0)
            .flat_map(|(lane, mut rest)| {
                std::iter::from_fn(move || {
                    let bit = (rest != 0).then(|| lane + rest.trailing_zeros() as usize)?;
                    rest &= rest - 1;
                    Some(bit)
                })
            });
        self.count_buckets(marked.map(|bit| keys[bit]), tally, split, hist);
    }

    /// The bucket histogram: each keyed threshold adds one to its bucket's
    /// entry of the tally, without a branch. The bits of buckets a cutoff
    /// splits are also gathered in `split` by a branch-free append, and go
    /// straight to their exact first knot and class in `hist` (whose last
    /// slot collects bits clean at every knot); [`KnotSearch::fold`] skips
    /// their buckets.
    ///
    /// Adding each bit to `hist[self.slot(key)]` instead is simpler but
    /// slower: most bits of a tile land in one or a few slots (all of them
    /// in one at a single knot), so those read-modify-writes form long
    /// dependency chains, while the bucket counts spread over 512 entries.
    #[inline(always)]
    fn count_buckets(
        &self,
        keys: impl Iterator<Item = u64>,
        tally: &mut TileTally,
        split: &mut [u64; 256],
        hist: &mut [[u64; 2]],
    ) {
        let mut n = 0;
        for key in keys {
            let b = bucket(key);
            tally.buckets[b] += 1;
            // `n` never passes the number of keys, at most 256, so the
            // mask only drops the bounds check.
            split[n & 255] = key;
            n += usize::from(self.buckets[b] >= SPLIT_BUCKET);
        }
        for &key in &split[..n] {
            hist[self.exact(key)][(key >> 32) as usize & 1] += 1;
        }
    }

    /// Folds a tile's tally into `hist`, indexed by first knot and class,
    /// once per tile. The bucket counts go through the bucket table; split
    /// buckets are skipped, their bits are already in `hist`. With a
    /// [`Cover`], each knot whose cutoff is above its threshold adds the
    /// growth of its cumulative count over the knot before, the first of
    /// them over every bit of the class below the threshold. The last slot
    /// of `hist`, the bits clean at every knot, is then left short by the
    /// bits the compares counted.
    fn fold(&self, tally: &TileTally, hist: &mut [[u64; 2]]) {
        let per_class = tally
            .buckets
            .chunks_exact(256)
            .zip(self.buckets.chunks_exact(256));
        for (class, (counts, entries)) in per_class.enumerate() {
            for (&count, &entry) in counts.iter().zip(entries) {
                if entry < SPLIT_BUCKET {
                    hist[entry as usize][class] += count;
                }
            }
        }
        let Some(cover) = &self.cover else {
            return;
        };
        // The keys below a whole-key value; every key is below `2³³`.
        let values = &cover.values[..cover.len];
        let below = |value: u64| match values.iter().position(|&v| v == value) {
            Some(j) => tally.below[j],
            None if value == 2 << 32 => 256 * tally.words,
            None => unreachable!("every interior cutoff above the threshold is covered"),
        };
        let zeros = below(1 << 32);
        for (class, cuts) in (0u64..).zip(&self.cuts) {
            // Every bit of the class below the threshold.
            let mut last: u64 = tally.buckets[(class as usize) << 8..][..256].iter().sum();
            for (k, &cut) in cuts.iter().enumerate().filter(|&(_, &cut)| cut > cover.low) {
                let now = below((class << 32) + cut) - class * zeros;
                hist[k][class as usize] += now - last;
                last = now;
            }
        }
    }

    /// The first knot at which a word's exposed bits fail, from the
    /// smallest raw threshold of its exposed bits of each class, `m0` and
    /// `m1` (`1 << 32` or more for a class with none); the number of knots
    /// when none fails. One lookup per failing class is exact:
    /// [`KnotSearch::slot`] is monotone in the raw threshold within a
    /// class. A class whose smallest threshold reaches the last cutoff
    /// fails nowhere and takes no lookup.
    fn first_exposed(&self, m0: u64, m1: u64) -> usize {
        let first = |class: u64, m: u64| {
            let cuts = &self.cuts[class as usize];
            match cuts.last() {
                Some(&last) if m < last => self.slot(class << 32 | m),
                _ => cuts.len(),
            }
        };
        first(0, m0).min(first(1, m1))
    }

    /// One word's bits that fail at some knot, and its stuck-at-1 bits
    /// ([`bitsliced::failing_planes`], compiled for `isa`), from its keyed
    /// thresholds and the smallest raw threshold of each class. A written
    /// word `w` exposes the failing bits where the stuck-at-1 plane
    /// differs from `w`: the stuck-at-0 bits written 1 and the stuck-at-1
    /// bits written 0. A word whose class minima reach the last cutoffs
    /// has no failing bit and is not scanned.
    fn failing(
        &self,
        keys: &[u64; 256],
        (m0, m1): (u64, u64),
        isa: InstructionSet,
    ) -> (Word256, Word256) {
        let last = self
            .cuts
            .each_ref()
            .map(|cuts| cuts.last().copied().unwrap_or(0));
        if m0 >= last[0] && m1 >= last[1] {
            return (Word256::ZERO, Word256::ZERO);
        }
        bitsliced::failing_planes(keys, last, isa)
    }
}

/// The bucket of a keyed threshold: `class × 256 + top byte`.
fn bucket(key: u64) -> usize {
    (key >> KNOT_BUCKET_SHIFT) as usize & (KEY_BUCKETS - 1)
}

/// The (bank, row-region) tiling of a pseudo channel: the granularity at
/// which the variation shift — and so every derived probability — is
/// constant. Mirrors the bit layout of [`WordOffset::decode`].
#[derive(Debug, Clone, Copy)]
struct TileGrid {
    col_bits: u32,
    bank_bits: u32,
    region_rows: u32,
    regions_per_bank: u32,
    words_per_pc: u64,
    tile_count: usize,
}

impl TileGrid {
    fn new(geometry: HbmGeometry, region_rows: u32) -> Self {
        let region_rows = region_rows.max(1);
        let regions_per_bank = (geometry.rows_per_bank() - 1) / region_rows + 1;
        let banks = 1u32 << geometry.bank_bits();
        TileGrid {
            col_bits: geometry.col_bits(),
            bank_bits: geometry.bank_bits(),
            region_rows,
            regions_per_bank,
            words_per_pc: geometry.words_per_pc(),
            tile_count: (banks * regions_per_bank) as usize,
        }
    }

    /// Tile index of a word offset (same decode as [`WordOffset::decode`]).
    fn tile_of(&self, offset: u64) -> usize {
        assert!(
            offset < self.words_per_pc,
            "word offset {} out of range for geometry ({} words/pc)",
            offset,
            self.words_per_pc
        );
        let bank = ((offset >> self.col_bits) & ((1 << self.bank_bits) - 1)) as u32;
        let row = (offset >> (self.col_bits + self.bank_bits)) as u32;
        (bank * self.regions_per_bank + row / self.region_rows) as usize
    }

    /// Inverse of [`TileGrid::tile_of`]'s tile numbering.
    fn bank_and_region(&self, tile: usize) -> (BankId, u32) {
        let tile = tile as u32;
        (
            BankId((tile / self.regions_per_bank) as u16),
            tile % self.regions_per_bank,
        )
    }
}

/// One pseudo channel's tile probabilities at a fixed voltage and
/// temperature.
#[derive(Debug)]
struct TileTable {
    voltage: Millivolts,
    temperature: Celsius,
    /// Per tile, the class-conditional fault probabilities `(c0, c1)`.
    tiles: Vec<(f64, f64)>,
}

impl Clone for FaultInjector {
    fn clone(&self) -> Self {
        FaultInjector {
            params: self.params.clone(),
            geometry: self.geometry,
            seed: self.seed,
            temperature: self.temperature,
            shift_table: self.shift_table.clone(),
            grid: self.grid,
            // Cached tables are immutable snapshots behind `Arc`s, so clones
            // share them cheaply; each clone invalidates independently (its
            // own locks), so diverging temperatures cannot cross-pollute.
            tile_cache: RwLock::new(self.tile_cache.read().expect("tile cache poisoned").clone()),
        }
    }
}

impl FaultInjector {
    /// Creates an injector for a device geometry with a device seed (the
    /// seed identifies the simulated silicon specimen).
    ///
    /// # Panics
    ///
    /// Panics if `params` fail validation.
    #[must_use]
    pub fn new(params: FaultModelParams, geometry: HbmGeometry, seed: u64) -> Self {
        params.validate();
        let shift_table = ShiftTable::new(&params.variation, seed, geometry);
        let grid = TileGrid::new(geometry, params.variation.region_rows);
        let pcs = usize::from(geometry.total_pcs());
        FaultInjector {
            params,
            geometry,
            seed,
            temperature: Celsius::STUDY_AMBIENT,
            shift_table,
            grid,
            tile_cache: RwLock::new(vec![None; pcs]),
        }
    }

    /// The model parameters.
    #[must_use]
    pub fn params(&self) -> &FaultModelParams {
        &self.params
    }

    /// The device geometry.
    #[must_use]
    pub fn geometry(&self) -> HbmGeometry {
        self.geometry
    }

    /// The device seed.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The modelled operating temperature.
    #[must_use]
    pub fn temperature(&self) -> Celsius {
        self.temperature
    }

    /// Sets the operating temperature (the study keeps it at 35 ± 1 °C).
    ///
    /// Invalidates the region-tile probability cache: local shifts depend on
    /// temperature.
    pub fn set_temperature(&mut self, temperature: Celsius) {
        self.temperature = temperature;
        for slot in self
            .tile_cache
            .write()
            .expect("tile cache poisoned")
            .iter_mut()
        {
            *slot = None;
        }
    }

    /// Total local variation shift of a word's location, in volts.
    fn local_shift_volts(&self, pc: PcIndex, offset: WordOffset) -> f64 {
        let decoded = offset.decode(self.geometry);
        let var = &self.params.variation;
        self.shift_table.pc_shift_volts(pc)
            + var.bank_shift_volts(self.seed, pc, decoded.bank)
            + var.region_shift_volts(self.seed, pc, decoded.bank, decoded.row)
            + var.temperature_shift_volts(self.temperature)
    }

    /// The tile probability table of `pc` at `supply` (below the guardband
    /// only), from the cache or built on demand.
    fn tile_table(&self, pc: PcIndex, supply: Millivolts) -> Arc<TileTable> {
        debug_assert!(supply < self.params.landmarks.v_min);
        {
            let cache = self.tile_cache.read().expect("tile cache poisoned");
            if let Some(table) = &cache[pc.as_usize()] {
                if table.voltage == supply && table.temperature == self.temperature {
                    return Arc::clone(table);
                }
            }
        }
        let table = Arc::new(self.build_tile_table(pc, supply));
        self.tile_cache.write().expect("tile cache poisoned")[pc.as_usize()] =
            Some(Arc::clone(&table));
        table
    }

    fn build_tile_table(&self, pc: PcIndex, supply: Millivolts) -> TileTable {
        let v = supply.to_volts();
        let tiles = (0..self.grid.tile_count)
            .map(|tile| {
                self.params
                    .class_probabilities(v, self.tile_shift(pc, tile))
            })
            .collect();
        TileTable {
            voltage: supply,
            temperature: self.temperature,
            tiles,
        }
    }

    /// The variation shift of one tile, constant across voltages.
    fn tile_shift(&self, pc: PcIndex, tile: usize) -> Volts {
        let var = &self.params.variation;
        let (bank, region) = self.grid.bank_and_region(tile);
        // Exactly the per-word path's shift composition — the term order
        // matters, f64 addition is not associative.
        Volts(
            self.shift_table.pc_shift_volts(pc)
                + var.bank_shift_volts(self.seed, pc, bank)
                + var.region_shift_volts_by_index(self.seed, pc, bank, region)
                + var.temperature_shift_volts(self.temperature),
        )
    }

    /// Class-conditional fault probabilities `(c_stuck0, c_stuck1)` at a
    /// location for a supply voltage, after guardband gating.
    #[must_use]
    pub fn class_probabilities(
        &self,
        pc: PcIndex,
        offset: WordOffset,
        supply: Millivolts,
    ) -> (f64, f64) {
        if supply >= self.params.landmarks.v_min {
            return (0.0, 0.0);
        }
        let table = self.tile_table(pc, supply);
        table.tiles[self.grid.tile_of(offset.0)]
    }

    /// Reference implementation of [`FaultInjector::class_probabilities`]
    /// that recomputes the variation shift and response curves per word
    /// instead of consulting the tile cache. Internal validation oracle for
    /// the cached kernel, reachable through
    /// [`crate::MaskKernel::reference_masks`].
    #[must_use]
    pub(crate) fn class_probabilities_per_word(
        &self,
        pc: PcIndex,
        offset: WordOffset,
        supply: Millivolts,
    ) -> (f64, f64) {
        if supply >= self.params.landmarks.v_min {
            return (0.0, 0.0);
        }
        let v = supply.to_volts();
        let shift = self.local_shift_volts(pc, offset);
        self.params.class_probabilities(v, Volts(shift))
    }

    /// Computes the stuck-at masks of one word at a supply voltage:
    /// `(stuck-at-0 mask, stuck-at-1 mask)`. The masks are disjoint.
    #[must_use]
    pub fn stuck_masks(
        &self,
        pc: PcIndex,
        offset: WordOffset,
        supply: Millivolts,
    ) -> (Word256, Word256) {
        self.masks_sel(pc, offset, supply, Some(InstructionSet::detect()))
    }

    /// The per-word reference oracle behind
    /// [`crate::MaskKernel::reference_masks`]: the word's local shift and
    /// class probabilities recomputed from scratch, then the scalar bit
    /// walk. No tile cache, no bit-sliced arm.
    pub(crate) fn reference_masks(
        &self,
        pc: PcIndex,
        offset: WordOffset,
        supply: Millivolts,
    ) -> (Word256, Word256) {
        let (c0, c1) = self.class_probabilities_per_word(pc, offset, supply);
        self.word_masks(pc, offset.0, c0, c1)
    }

    /// One word's stuck masks against the class probabilities: the scalar
    /// arm, one hash and one `f64` comparison per bit.
    fn word_masks(&self, pc: PcIndex, w: u64, c0: f64, c1: f64) -> (Word256, Word256) {
        if c0 == 0.0 && c1 == 0.0 {
            return (Word256::ZERO, Word256::ZERO);
        }
        let s0_share = self.params.stuck0_share;
        let prefix = combine(&[self.seed, u64::from(pc.as_u8()), w, TAG_CBIT]);
        let mut stuck0 = Word256::ZERO;
        let mut stuck1 = Word256::ZERO;
        for bit in 0u32..Word256::BITS {
            let h = mix64(prefix ^ u64::from(bit));
            let (class_u, t) = unit_pair(h);
            if class_u < s0_share {
                if t < c0 {
                    stuck0 = stuck0.with_bit_set(bit);
                }
            } else if t < c1 {
                stuck1 = stuck1.with_bit_set(bit);
            }
        }
        (stuck0, stuck1)
    }

    /// The masks of one word at `supply` from the tile table: the
    /// bit-sliced planes of the word's counter hashes against the tile's
    /// integer cutoffs, compiled for `sliced`, or the scalar walk when
    /// `sliced` is `None` — the entry point of [`crate::MaskKernel::masks`].
    pub(crate) fn masks_sel(
        &self,
        pc: PcIndex,
        offset: WordOffset,
        supply: Millivolts,
        sliced: Option<InstructionSet>,
    ) -> (Word256, Word256) {
        if supply >= self.params.landmarks.v_min {
            return (Word256::ZERO, Word256::ZERO);
        }
        let table = self.tile_table(pc, supply);
        let (c0, c1) = table.tiles[self.grid.tile_of(offset.0)];
        match sliced {
            _ if c0 == 0.0 && c1 == 0.0 => (Word256::ZERO, Word256::ZERO),
            None => self.word_masks(pc, offset.0, c0, c1),
            Some(isa) => {
                let prefix = combine(&[self.seed, u64::from(pc.as_u8()), offset.0, TAG_CBIT]);
                let class_cut = unit_cutoff(self.params.stuck0_share);
                bitsliced::bit_planes(prefix, class_cut, unit_cutoff(c0), unit_cutoff(c1), isa)
            }
        }
    }

    /// Applies the fault model to a stored word: what a read at `supply`
    /// observes.
    #[must_use]
    pub fn observe(
        &self,
        stored: Word256,
        pc: PcIndex,
        offset: WordOffset,
        supply: Millivolts,
    ) -> Word256 {
        let (stuck0, stuck1) = self.stuck_masks(pc, offset, supply);
        stored.with_stuck_bits(stuck0, stuck1)
    }

    /// The one hashing pass of every descent: calls
    /// `on_word(word, touched, knots, keys)` for each word of `words` in
    /// ascending order whose tile fails at some knot of the strictly
    /// descending `schedule`, with the tile's [`KnotSearch`] and every
    /// bit's keyed threshold ([`bitsliced::keyed_thresholds`], compiled
    /// for `isa`). `touched` numbers the tiles in the order the range
    /// first touches them; the returned searches are in that order.
    ///
    /// No masks and no per-bit call: each tile the range touches gets the
    /// exact integer cutoffs ([`unit_cutoff`]) of both classes at every
    /// knot (zero at or above the guardband), non-decreasing along the
    /// descent because the field is monotone. A bit fails first at
    /// the first knot whose cutoff exceeds its raw threshold. Words of
    /// tiles that stay clean at every knot are not hashed.
    ///
    /// # Panics
    ///
    /// Panics when `schedule` is not strictly descending or has more than
    /// `u16::MAX` knots, or when `words` runs past the pseudo channel.
    fn descent_words(
        &self,
        pc: PcIndex,
        words: Range<u64>,
        schedule: &[Millivolts],
        isa: InstructionSet,
        mut on_word: impl FnMut(u64, usize, &KnotSearch, &[u64; 256]),
    ) -> Vec<KnotSearch> {
        assert!(
            schedule.windows(2).all(|w| w[0] > w[1]),
            "descent schedule must be strictly descending: {schedule:?}"
        );
        assert!(
            schedule.len() <= usize::from(u16::MAX),
            "a descent has at most {} knots, not {}",
            u16::MAX,
            schedule.len()
        );
        let mut searches = Vec::new();
        if schedule.is_empty() || words.is_empty() {
            return searches;
        }
        assert!(
            words.end <= self.grid.words_per_pc,
            "word range end {} out of range for geometry ({} words/pc)",
            words.end,
            self.grid.words_per_pc
        );
        let class_cut = unit_cutoff(self.params.stuck0_share);
        let pcu = u64::from(pc.as_u8());
        // Per tile, its place among the touched tiles.
        let mut place = vec![usize::MAX; self.grid.tile_count];
        let mut keys = [0u64; 256];
        for w in words {
            let tile = self.grid.tile_of(w);
            if place[tile] == usize::MAX {
                place[tile] = searches.len();
                searches.push(self.tile_knot_search(pc, tile, schedule));
            }
            let knots = &searches[place[tile]];
            if knots.clean() {
                continue; // no bit of this word fails at any knot
            }
            let prefix = combine(&[self.seed, pcu, w, TAG_CBIT]);
            bitsliced::keyed_thresholds(prefix, class_cut, isa, &mut keys);
            on_word(w, place[tile], knots, &keys);
        }
        searches
    }

    /// The fold of every descent ([`crate::MaskKernel::count_descent`],
    /// [`crate::MaskKernel::exposure_descent`]). Per knot of the strictly
    /// descending `schedule`, returns the faulty bits of each class over
    /// `words` (stuck-at-0, stuck-at-1) and one [`Exposure`] per `written`
    /// pattern (knot-major: knot `k`'s row is `k * written.len()..`), each
    /// equal to a fold of [`crate::MaskKernel::masks`] at that knot.
    /// With no pattern, the fold does no per-word work beyond the counts.
    ///
    /// Each touched tile tallies its bits ([`KnotSearch::count_word`]):
    /// with vector compares against its [`Cover`]'s top cutoffs, and per
    /// bucket of the keyed threshold for the bits below the cover (all of
    /// them on a tile without one). The tallies fold into the
    /// first-failing knots once, at the end ([`KnotSearch::fold`]). Both
    /// keep the class, so an all-1s write's flips are the class-0 counts
    /// and an all-0s write's the class-1 counts, and such a word counts as
    /// faulty from the first knot of its smallest threshold of the exposed
    /// class ([`bitsliced::class_minima`], [`KnotSearch::first_exposed`]).
    /// An offset-dependent pattern walks only the exposed bits that fail
    /// at some knot ([`KnotSearch::failing`]), placing each at its first
    /// knot. Prefix sums of the first-knot histograms are the counts.
    ///
    /// Always inlined, so that each caller's pattern list is known where
    /// it is compiled: the count descent's empty one drops the per-word
    /// pattern code, without which a fleet device's descents ran 4–12 %
    /// slower.
    #[inline(always)]
    pub(crate) fn descent_fold(
        &self,
        pc: PcIndex,
        words: Range<u64>,
        schedule: &[Millivolts],
        isa: InstructionSet,
        written: &[Written<'_>],
    ) -> (Vec<[u64; 2]>, Vec<Exposure>) {
        let len = schedule.len();
        // Per touched tile, the tally of its bits.
        let mut tallies: Vec<TileTally> = Vec::new();
        // Per first knot and class, the faulty bits; the extra last knot
        // collects the bits clean at every knot.
        let mut bits = vec![[0u64; 2]; len + 1];
        // Per pattern and first knot, the words it exposes a faulty bit of
        // and (offset-dependent patterns only) its exposed bits per class.
        let mut faulty: Vec<_> = written.iter().map(|_| vec![0u64; len + 1]).collect();
        let mut exposed: Vec<_> = written.iter().map(|_| vec![[0u64; 2]; len + 1]).collect();
        let mut split = [0u64; 256];
        let searches = self.descent_words(pc, words, schedule, isa, |w, touched, knots, keys| {
            if touched >= tallies.len() {
                tallies.resize_with(touched + 1, TileTally::default);
            }
            knots.count_word(keys, &mut tallies[touched], &mut split, &mut bits, isa);
            if written.is_empty() {
                return;
            }
            let (m0, m1) = bitsliced::class_minima(keys, isa);
            let mut failing = None;
            let per_pattern = written.iter().zip(&mut faulty).zip(&mut exposed);
            for ((pattern, faulty), exposed) in per_pattern {
                let first = match pattern {
                    Written::Ones => knots.first_exposed(m0, u64::MAX),
                    Written::Zeros => knots.first_exposed(u64::MAX, m1),
                    Written::Words(at) => {
                        let (fails, stuck1) =
                            *failing.get_or_insert_with(|| knots.failing(keys, (m0, m1), isa));
                        let mut first = len;
                        let lanes = (fails & (stuck1 ^ at(w))).0;
                        for (lane, mut rest) in (0..).step_by(64).zip(lanes) {
                            while rest != 0 {
                                let key = keys[lane + rest.trailing_zeros() as usize];
                                let slot = knots.slot(key);
                                exposed[slot][(key >> 32) as usize & 1] += 1;
                                first = first.min(slot);
                                rest &= rest - 1;
                            }
                        }
                        first
                    }
                };
                faulty[first] += 1;
            }
        });
        for (knots, tally) in searches.iter().zip(&tallies) {
            knots.fold(tally, &mut bits);
        }
        for hist in std::iter::once(&mut bits).chain(&mut exposed) {
            hist.pop();
            for k in 1..len {
                hist[k] = [hist[k][0] + hist[k - 1][0], hist[k][1] + hist[k - 1][1]];
            }
        }
        for faulty in &mut faulty {
            faulty.pop();
            for k in 1..len {
                faulty[k] += faulty[k - 1];
            }
        }
        let mut rows = Vec::with_capacity(len * written.len());
        for k in 0..len {
            for ((pattern, faulty), exposed) in written.iter().zip(&faulty).zip(&exposed) {
                let [stuck0, stuck1] = match pattern {
                    Written::Ones => [bits[k][0], 0],
                    Written::Zeros => [0, bits[k][1]],
                    Written::Words(_) => exposed[k],
                };
                rows.push(Exposure {
                    faulty_words: faulty[k],
                    stuck0,
                    stuck1,
                });
            }
        }
        (bits, rows)
    }

    /// One tile's knot search over the exact integer fault cutoffs of both
    /// classes at every knot of `schedule`, zero at or above the
    /// guardband. The tile's variation shift is computed once for all
    /// knots.
    fn tile_knot_search(&self, pc: PcIndex, tile: usize, schedule: &[Millivolts]) -> KnotSearch {
        let shift = self.tile_shift(pc, tile);
        let probs: Vec<(f64, f64)> = schedule
            .iter()
            .map(|&v| {
                if v >= self.params.landmarks.v_min {
                    (0.0, 0.0)
                } else {
                    self.params.class_probabilities(v.to_volts(), shift)
                }
            })
            .collect();
        KnotSearch::new([
            probs.iter().map(|p| unit_cutoff(p.0)).collect(),
            probs.iter().map(|p| unit_cutoff(p.1)).collect(),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::fold_masks;
    use crate::{FieldKernel, KernelBackend, MaskKernel};

    /// The scalar kernel: the reference the other backends are compared
    /// against.
    fn scalar(inj: &FaultInjector) -> FieldKernel<'_> {
        inj.kernel(KernelBackend::Scalar)
    }

    fn injector() -> FaultInjector {
        FaultInjector::new(
            FaultModelParams::date21(),
            HbmGeometry::vcu128_reduced(),
            1234,
        )
    }

    fn pc(i: u8) -> PcIndex {
        PcIndex::new(i).unwrap()
    }

    #[test]
    fn knot_search_slots_match_a_binary_search() {
        let width = 1u64 << KNOT_BUCKET_SHIFT;
        let end = 1u64 << 32;
        for cuts in [
            vec![0],
            vec![0, 0, 5],
            vec![width - 1, width, width + 1, 3 * width],
            vec![end],
            vec![7, 200 * width + 3, end - 1, end],
        ] {
            // The same cutoffs for both classes of a tile.
            let knots = KnotSearch::new([cuts.clone(), cuts.clone()]);
            let probes = cuts
                .iter()
                .flat_map(|&cut| [cut.saturating_sub(1), cut, cut + 1])
                .chain((0..256).flat_map(|b| [b * width, b * width + width - 1]))
                .filter(|&hi| hi < end);
            for hi in probes {
                let expected = cuts.partition_point(|&cut| cut <= hi);
                for class in 0..2 {
                    let key = class << 32 | hi;
                    assert_eq!(knots.slot(key), expected, "cuts {cuts:?}, key {key:#x}");
                }
            }
        }
    }

    /// Folds keyed thresholds into one tile's first-knot histogram, a word
    /// of 256 keys at a time, under the bucket histogram alone, the picked
    /// cover and covers of several sizes, in the portable compile and the
    /// host's widest, and checks every knot against a binary search per
    /// key. (The last slot, the bits clean at every knot, is read by no
    /// descent and is not kept exact under a cover.)
    /// Returns the sizes of the covers it folded.
    fn assert_fold_is_exact(cuts: [Vec<u64>; 2], thresholds: &[u64]) -> Vec<usize> {
        let len = cuts[0].len();
        let mut keys: Vec<u64> = thresholds.iter().flat_map(|&t| [t, 1 << 32 | t]).collect();
        let pad = keys.len().next_multiple_of(256) - keys.len();
        keys.extend_from_within(..pad);
        let mut expected = vec![[0u64; 2]; len + 1];
        for &key in &keys {
            let class = (key >> 32) as usize;
            expected[cuts[class].partition_point(|&cut| cut <= key & 0xFFFF_FFFF)][class] += 1;
        }
        // Covers at every threshold that fits one: 0, each cutoff and its
        // neighbours, and 2³² − 1, where the cover compares nothing.
        let picked = KnotSearch::new(cuts.clone());
        let mut searches = vec![KnotSearch {
            cover: None,
            ..picked.clone()
        }];
        let lows = cuts
            .iter()
            .flatten()
            .flat_map(|&cut| [cut.saturating_sub(1), cut, cut + 1]);
        for low in lows
            .chain([0, u64::from(u32::MAX)])
            .filter(|&low| low < 1 << 32)
        {
            if let Some(cover) = Cover::at(&cuts.each_ref().map(|cuts| top_cutoffs(cuts)), low) {
                searches.push(KnotSearch {
                    cover: Some(cover),
                    ..picked.clone()
                });
            }
        }
        searches.push(picked);
        for knots in &searches {
            for isa in [InstructionSet::Portable, InstructionSet::detect()] {
                let mut hist = vec![[0u64; 2]; len + 1];
                let mut tally = TileTally::default();
                let mut split = [0u64; 256];
                for word in keys.chunks_exact(256) {
                    let word: &[u64; 256] = word.try_into().unwrap();
                    knots.count_word(word, &mut tally, &mut split, &mut hist, isa);
                }
                knots.fold(&tally, &mut hist);
                assert_eq!(
                    hist[..len],
                    expected[..len],
                    "cuts {cuts:?}, cover {:?}, {isa:?}",
                    knots.cover
                );
                if knots.cover.is_none() {
                    assert_eq!(hist[len], expected[len], "cuts {cuts:?}");
                }
            }
        }
        searches
            .iter()
            .filter_map(|knots| Some(knots.cover?.len))
            .collect()
    }

    #[test]
    fn histogram_fold_is_exact_at_the_bucket_edges() {
        let width = 1u64 << KNOT_BUCKET_SHIFT;
        let end = 1u64 << 32;
        // Cutoffs at 0, at exact bucket multiples, one either side of
        // them, several inside one bucket, at 2³² − 1 and at 2³².
        let edges = vec![
            0,
            0,
            width,
            3 * width - 1,
            3 * width,
            3 * width + 1,
            17 * width + 5,
            17 * width + 9,
            255 * width,
            end - 1,
            end,
        ];
        let never = vec![0; edges.len()];
        let thresholds: Vec<u64> = (0..256)
            .flat_map(|b| [b * width, b * width + 1, b * width + width - 1])
            .chain(edges.iter().flat_map(|&c| [c.saturating_sub(1), c, c + 1]))
            .filter(|&t| t < end)
            .collect();
        // One class never fails; then the other; then both share the edges.
        assert_fold_is_exact([edges.clone(), never.clone()], &thresholds);
        assert_fold_is_exact([never.clone(), edges.clone()], &thresholds);
        assert_fold_is_exact([edges.clone(), edges], &thresholds);
        // A single knot: nothing fails, or everything does.
        assert_fold_is_exact([vec![0], vec![0]], &thresholds);
        assert_fold_is_exact([vec![end], vec![end]], &thresholds);
        assert!(KnotSearch::new([never.clone(), never]).clean());
    }

    #[test]
    fn cover_fold_matches_a_partition_point_oracle() {
        let width = 1u64 << KNOT_BUCKET_SHIFT;
        let end = 1u64 << 32;
        // Interior cutoffs at 2²⁴ multiples and one either side of them,
        // repeated along the descent, up to 2³² − 1 and then 2³².
        let mut repeated = vec![0, 0];
        for m in [1, 2, 3, 40, 200, 255] {
            repeated.extend([m * width - 1, m * width, m * width, m * width + 1]);
        }
        repeated.extend([end - 1, end - 1, end, end]);
        // More distinct interior cutoffs than a cover holds, all in the
        // first bucket; a paper-shaped tile, a few far apart near the top.
        let dense: Vec<u64> = (0..repeated.len() as u64).map(|k| 3 * k).collect();
        let paper: Vec<u64> = [0.0, 1e-6, 1e-5, 1e-4, 7e-4, 4.2e-3, 0.09, 0.4, 0.95, 1.0]
            .iter()
            .map(|&f| unit_cutoff(f))
            .chain(std::iter::repeat_n(end, repeated.len() - 10))
            .collect();
        // A class with no interior cutoff: clean, then saturated.
        let never = vec![0; repeated.len()];
        let saturated: Vec<u64> = (0..repeated.len())
            .map(|k| if k < 3 { 0 } else { end })
            .collect();
        let mut thresholds: Vec<u64> = repeated
            .iter()
            .chain(&dense)
            .chain(&paper)
            .flat_map(|&c| [c.saturating_sub(1), c, c + 1])
            .filter(|&t| t < end)
            .collect();
        thresholds.extend((0..4096u64).map(|i| mix64(i) >> 32));
        let mut sizes = Vec::new();
        for cuts in [&repeated, &dense, &paper, &never, &saturated] {
            for other in [&repeated, &dense, &paper, &never, &saturated] {
                sizes.extend(assert_fold_is_exact(
                    [cuts.clone(), other.clone()],
                    &thresholds,
                ));
            }
        }
        // Covers of no cutoff below 2³², of one, and of the most.
        for size in [1, 2, 2 * COVER_CAP + 1] {
            assert!(sizes.contains(&size), "no cover of {size} values folded");
        }
        // The cost rule: saturated or clean tiles need no compare below 2³²
        // and no histogram; the paper shape covers its top cutoffs; cutoffs
        // crowded near 2³² keep the bucket histogram.
        let pick = |cuts: &Vec<u64>| Cover::pick(&[cuts.clone(), cuts.clone()]);
        let bare = pick(&saturated).expect("a saturated tile is covered");
        assert_eq!((bare.len, bare.low), (1, 0));
        let top = pick(&paper).expect("a paper-shaped tile is covered");
        assert_eq!((top.len, top.low), (7, unit_cutoff(4.2e-3)), "{top:?}");
        let crowded: Vec<u64> = (0..40).map(|k| end - 40 + k).collect();
        assert!(pick(&crowded).is_none());
    }

    #[test]
    #[should_panic(expected = "fall along a descending schedule")]
    fn knot_search_refuses_falling_cutoffs() {
        let _ = KnotSearch::new([vec![0, 0], vec![5, 3]]);
    }

    #[test]
    fn guardband_is_fault_free() {
        let inj = injector();
        for v in [1200u32, 1100, 1000, 990, 980] {
            for w in 0..256 {
                let v = Millivolts(v);
                let (s0, s1) = inj.stuck_masks(pc(5), WordOffset(w), v);
                assert!(s0.is_zero() && s1.is_zero(), "fault at {v}");
                let (s0, s1) = scalar(&inj).masks(pc(5), WordOffset(w), v);
                assert!(s0.is_zero() && s1.is_zero(), "scalar fault at {v}");
            }
        }
    }

    #[test]
    fn saturation_makes_everything_faulty() {
        let inj = injector();
        let v = Millivolts(820);
        for w in 0..64 {
            let (s0, s1) = inj.stuck_masks(pc(0), WordOffset(w), v);
            assert_eq!((s0 | s1).count_ones(), 256, "word {w} not fully faulty");
            assert!((s0 & s1).is_zero());
            assert_eq!(scalar(&inj).masks(pc(0), WordOffset(w), v), (s0, s1));
        }
    }

    #[test]
    fn polarity_split_near_configured_share() {
        let inj = injector();
        let (n0, n1) = fold_masks(&scalar(&inj), pc(0), 0..2048, Millivolts(820));
        let total = (n0 + n1) as f64;
        let share0 = n0 as f64 / total;
        assert!((share0 - 0.47).abs() < 0.02, "share0 = {share0}");
    }

    #[test]
    fn masks_are_deterministic() {
        let a = injector();
        let b = injector();
        for w in [0u64, 17, 4091] {
            assert_eq!(
                a.stuck_masks(pc(9), WordOffset(w), Millivolts(880)),
                b.stuck_masks(pc(9), WordOffset(w), Millivolts(880))
            );
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = injector();
        let b = FaultInjector::new(
            FaultModelParams::date21(),
            HbmGeometry::vcu128_reduced(),
            4321,
        );
        let mut differs = false;
        for w in 0..512 {
            if a.stuck_masks(pc(0), WordOffset(w), Millivolts(850))
                != b.stuck_masks(pc(0), WordOffset(w), Millivolts(850))
            {
                differs = true;
                break;
            }
        }
        assert!(differs, "distinct specimens must have distinct fault maps");
    }

    #[test]
    fn fault_set_monotone_in_voltage() {
        let inj = injector();
        // Sweep down in 10 mV steps; each polarity's set may only grow.
        for w in 0..128u64 {
            let mut prev0 = Word256::ZERO;
            let mut prev1 = Word256::ZERO;
            let mut v = Millivolts(980);
            while v >= Millivolts(820) {
                let (s0, s1) = inj.stuck_masks(pc(2), WordOffset(w), v);
                assert_eq!(s0 & prev0, prev0, "stuck-0 set shrank at {v} word {w}");
                assert_eq!(s1 & prev1, prev1, "stuck-1 set shrank at {v} word {w}");
                prev0 = s0;
                prev1 = s1;
                v = v.saturating_sub(Millivolts(10));
            }
        }
    }

    #[test]
    fn observe_applies_polarities() {
        let inj = injector();
        let v = Millivolts(830);
        let w = WordOffset(3);
        let (s0, s1) = inj.stuck_masks(pc(1), w, v);
        // All-ones written: stuck-at-0 bits flip to 0.
        let ones = inj.observe(Word256::ONES, pc(1), w, v);
        let (f10, f01) = ones.flips_from(Word256::ONES);
        assert_eq!(f10, s0.count_ones());
        assert_eq!(f01, 0);
        // All-zeros written: stuck-at-1 bits flip to 1.
        let zeros = inj.observe(Word256::ZERO, pc(1), w, v);
        let (f10, f01) = zeros.flips_from(Word256::ZERO);
        assert_eq!(f01, s1.count_ones());
        assert_eq!(f10, 0);
    }

    #[test]
    fn measured_rate_tracks_model_rate() {
        // At a mid-range voltage, the empirical rate over a decent sample
        // should approximate s0·c0 + s1·c1 averaged over variation.
        let inj = injector();
        let v = Millivolts(860);
        let words = 8192u64;
        let (n0, n1) = fold_masks(&scalar(&inj), pc(7), 0..words, v);
        let measured = (n0 + n1) as f64 / (words as f64 * 256.0);

        // Average the analytic rate over the same words.
        let mut expected = 0.0;
        for w in 0..words {
            let (c0, c1) = inj.class_probabilities(pc(7), WordOffset(w), v);
            expected += 0.47 * c0 + 0.53 * c1;
        }
        expected /= words as f64;

        let ratio = measured / expected;
        assert!(
            (0.8..1.25).contains(&ratio),
            "measured {measured:.3e} vs expected {expected:.3e}"
        );
    }

    #[test]
    fn hotter_device_is_weaker() {
        let mut hot = injector();
        hot.set_temperature(Celsius(55.0));
        let cold = injector();
        let v = Millivolts(900);
        let (h0, h1) = fold_masks(&scalar(&hot), pc(0), 0..4096, v);
        let (c0, c1) = fold_masks(&scalar(&cold), pc(0), 0..4096, v);
        assert!(h0 + h1 >= c0 + c1, "hot {h0}+{h1} vs cold {c0}+{c1}");
    }

    #[test]
    fn cached_kernel_matches_reference_path() {
        let inj = injector();
        for v in [1000u32, 990, 979, 960, 930, 900, 870, 840, 820] {
            for w in [0u64, 1, 31, 32, 511, 512, 4095, 8191] {
                let v = Millivolts(v);
                let w = WordOffset(w);
                assert_eq!(
                    inj.stuck_masks(pc(6), w, v),
                    inj.reference_masks(pc(6), w, v),
                    "masks diverge at {v} {w}"
                );
                assert_eq!(
                    inj.class_probabilities(pc(6), w, v),
                    inj.class_probabilities_per_word(pc(6), w, v),
                    "probabilities diverge at {v} {w}"
                );
            }
        }
    }

    #[test]
    fn temperature_change_invalidates_region_cache() {
        let mut inj = injector();
        let v = Millivolts(900);
        // Populate the tile cache at ambient …
        let cold = fold_masks(&scalar(&inj), pc(0), 0..4096, v);
        // … then heat the device: cached tile probabilities must be rebuilt,
        // matching an injector that never cached at ambient.
        inj.set_temperature(Celsius(55.0));
        let mut fresh = injector();
        fresh.set_temperature(Celsius(55.0));
        assert_eq!(
            fold_masks(&scalar(&inj), pc(0), 0..4096, v),
            fold_masks(&scalar(&fresh), pc(0), 0..4096, v)
        );
        assert_ne!(
            fold_masks(&scalar(&inj), pc(0), 0..4096, v),
            cold,
            "a 20 °C rise must change the fault count at 900 mV"
        );
        for w in 0..64 {
            assert_eq!(
                inj.stuck_masks(pc(0), WordOffset(w), v),
                inj.reference_masks(pc(0), WordOffset(w), v),
                "stale tile cache leaked after temperature change"
            );
        }
    }

    #[test]
    fn clones_invalidate_independently() {
        let mut original = injector();
        let v = Millivolts(900);
        let at_ambient = fold_masks(&scalar(&original), pc(0), 0..512, v); // warm cache
        let clone = original.clone();
        original.set_temperature(Celsius(55.0));
        assert_eq!(
            fold_masks(&scalar(&clone), pc(0), 0..512, v),
            at_ambient,
            "heating the original must not touch the clone's cache"
        );
    }
}
