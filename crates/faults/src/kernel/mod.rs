//! The unified mask-generation kernel API.
//!
//! Historically the injector accreted one entry point per enumeration
//! strategy (the per-word reference path, the tiled scan, the descents).
//! This module collapses them behind one [`MaskKernel`] trait: callers
//! obtain a kernel with [`FaultInjector::kernel`] and ask it for one word's
//! masks or for a descent of the one fault field. Production code always
//! asks for [`KernelBackend::Auto`]; the forced scalar backend exists so
//! tests and benches can compare against a fixed reference.
//!
//! # Backends
//!
//! | Backend                   | One word's masks                | Descents           |
//! |---------------------------|---------------------------------|--------------------|
//! | [`KernelBackend::Scalar`] | per-bit scalar walk             | baseline compile   |
//! | [`KernelBackend::Auto`]   | bit-sliced (widest probed SIMD) | widest probed SIMD |
//!
//! The bit-sliced path hashes whole 256-bit words a 64-bit lane at a time
//! and turns the per-bit polarity/threshold comparisons into integer
//! compares against precomputed per-tile cutoffs
//! ([`crate::hash::unit_cutoff`]), packing the results into `u64`
//! bitplanes. It is bit-identical to the scalar path by construction — the
//! cutoffs are the exact integer images of the scalar `f64` comparisons —
//! which the `bitsliced_matches_scalar` proptests enforce. The descents
//! run one loop for every backend, in the compile the backend names.

use std::ops::Range;

use hbm_device::{PcIndex, Word256, WordOffset};
use hbm_units::Millivolts;

use crate::injector::FaultInjector;

pub(crate) mod bitsliced;

/// Which implementation generates stuck-at masks.
///
/// Every backend is bit-identical to every other, so the choice only
/// changes speed. Everything outside this crate's tests and the benches
/// runs [`KernelBackend::Auto`]; the scalar backend is the reference those
/// tests and benches compare it against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelBackend {
    /// The per-bit scalar walk for a word's masks and the baseline compile
    /// of the descents' word loop — the historical path, kept as the
    /// proptest oracle and the benches' baseline.
    Scalar,
    /// The default: whole-word bit-sliced masks, and every word loop in
    /// the widest compile [`InstructionSet::detect`] finds.
    #[default]
    Auto,
}

/// The compile of the word loops the bit-sliced kernel and the
/// descents run, probed at runtime so one binary adapts to its host. Every
/// compile is the same source loop and agrees bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstructionSet {
    /// The loops compiled for the baseline target — correct everywhere.
    Portable,
    /// The loops compiled with AVX2 enabled: four 64-bit lanes per vector.
    /// Only ever constructed by [`InstructionSet::detect`], after it
    /// confirms every feature that compile uses.
    Avx2,
    /// The loops compiled with AVX-512 enabled, which LLVM vectorizes with
    /// native 64-bit multiplies and mask-register compares. Only ever
    /// constructed by [`InstructionSet::detect`], after it confirms every
    /// feature that compile uses.
    Avx512,
}

impl InstructionSet {
    /// Probes the running CPU for the widest compile it can run:
    /// [`InstructionSet::Avx512`], then [`InstructionSet::Avx2`], otherwise
    /// [`InstructionSet::Portable`].
    #[must_use]
    pub fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        {
            if bitsliced::avx512_detected() {
                return InstructionSet::Avx512;
            }
            if bitsliced::avx2_detected() {
                return InstructionSet::Avx2;
            }
        }
        InstructionSet::Portable
    }
}

/// One unified interface to every mask-generation strategy.
///
/// A `MaskKernel` binds a [`FaultInjector`] and a [`KernelBackend`]:
/// callers ask for one word's masks or for a descent, and the kernel
/// routes the query to the backend. All backends are bit-identical, so
/// swapping backends never changes results — only speed.
///
/// A sweep down a voltage grid needs no per-point rescan:
/// [`MaskKernel::count_descent`] and [`MaskKernel::exposure_descent`] hash
/// the range once and place every failing bit at the first knot where it
/// fails, through one fold over one per-word hashing loop.
///
/// The concrete implementation is [`FieldKernel`], obtained from
/// [`FaultInjector::kernel`]. The trait is dyn-compatible so runtimes can
/// hold `Box<dyn MaskKernel>` when the backend is decided at runtime.
pub trait MaskKernel {
    /// The backend policy this kernel was built with.
    fn backend(&self) -> KernelBackend;

    /// The `(stuck0, stuck1)` masks of one word at `supply`.
    fn masks(&self, pc: PcIndex, offset: WordOffset, supply: Millivolts) -> (Word256, Word256);

    /// The per-word reference oracle: recomputes the word's local shift and
    /// class probabilities without any cached tile state, then walks its
    /// bits one by one. Slow; exists for the bit-identity tests and
    /// benches.
    fn reference_masks(
        &self,
        pc: PcIndex,
        offset: WordOffset,
        supply: Millivolts,
    ) -> (Word256, Word256);

    /// Union fault-bit counts of one pseudo channel along a descending
    /// voltage schedule: entry `k` is the total stuck-at count (both
    /// polarities) over `words` at `schedule[k]`, equal to the summed
    /// popcounts of [`MaskKernel::masks`] over `words` at that knot.
    ///
    /// This is the exact-rescan entry point the fleet layer uses to
    /// re-derive a device's per-knot curve when a compressed model cannot
    /// answer a query within its fidelity bound.
    ///
    /// # Performance
    ///
    /// One hash pass over the range, with no per-bit call: the word loop
    /// (the widest compile [`InstructionSet::detect`] finds)
    /// hashes all 256 bits of a word at once and writes each bit's raw
    /// threshold tagged with its polarity class. Most tiles count the bits
    /// at their few highest cutoffs with vector compares; the other bits
    /// go to a per-tile histogram over class and threshold bucket, one
    /// increment each and no branch. The buckets span only the thresholds
    /// the histogram sees: below the compares' threshold on such a tile,
    /// all of `[0, 2³²)` on the others.
    /// Each touched tile's histogram is folded into the knots once, through
    /// a table that maps a bucket to the knot where its thresholds first
    /// fail. Only bits of a bucket a knot's cutoff splits are placed one
    /// by one, against the few cutoffs inside that bucket. The fixed
    /// cost is that table, built per tile the range touches from the
    /// knots' integer cutoffs, so extra knots cost only their cutoffs.
    /// Words of tiles that stay clean at every knot are not hashed. The
    /// count is [`MaskKernel::exposure_descent`]'s fold with no pattern,
    /// so it does no per-word work beyond the histogram. Every backend
    /// gets the same counts from the same pass.
    ///
    /// # Panics
    ///
    /// Panics when `schedule` is not strictly descending or has more than
    /// `u16::MAX` knots.
    fn count_descent(&self, pc: PcIndex, words: Range<u64>, schedule: &[Millivolts]) -> Vec<u64>;

    /// The read-back of write/read-back passes along a descending voltage
    /// schedule: entry `[k][p]` is what one pass writing `written[p]` to
    /// every word of `words` reads back at `schedule[k]`, equal to a fold
    /// of [`MaskKernel::masks`] over `words` there — the words with an
    /// exposed faulty bit, the stuck-at-0 bits written 1 and the stuck-at-1
    /// bits written 0.
    ///
    /// # Performance
    ///
    /// The fold [`MaskKernel::count_descent`] describes, over the same
    /// hashing pass. Each histogram bucket carries its bit's polarity
    /// class, so the flips of an all-1s or all-0s write are the class-0 or
    /// class-1 counts at no extra per-bit cost, and a word's first faulty
    /// knot comes from the smallest threshold of the exposed class (a
    /// vector reduction per word): one lookup per word, none for a word
    /// clean at every knot. An offset-dependent pattern marks, in the word
    /// loop's compile, a failing word's bits that fail at some knot, and
    /// places only those it exposes at their first knot, one by one: its
    /// cost follows the faults, not the range. A 1 mV grid from 1.20 V to
    /// 0.81 V is 391 knots.
    ///
    /// # Panics
    ///
    /// As [`MaskKernel::count_descent`].
    fn exposure_descent(
        &self,
        pc: PcIndex,
        words: Range<u64>,
        schedule: &[Millivolts],
        written: &[Written<'_>],
    ) -> Vec<Vec<Exposure>>;
}

/// What one write of a [`MaskKernel::exposure_descent`] pass stores in the
/// words of its range.
#[derive(Clone, Copy)]
pub enum Written<'a> {
    /// Every bit one: exposes the stuck-at-0 bits.
    Ones,
    /// Every bit zero: exposes the stuck-at-1 bits.
    Zeros,
    /// The word written at each offset: its one bits expose stuck-at-0
    /// bits, its zero bits stuck-at-1 bits.
    Words(&'a dyn Fn(u64) -> Word256),
}

/// One pass's read-back at one knot of a [`MaskKernel::exposure_descent`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Exposure {
    /// Words with at least one exposed faulty bit.
    pub faulty_words: u64,
    /// Stuck-at-0 bits written as 1: the pass's 1→0 flips.
    pub stuck0: u64,
    /// Stuck-at-1 bits written as 0: the pass's 0→1 flips.
    pub stuck1: u64,
}

/// The concrete [`MaskKernel`]: a borrowed [`FaultInjector`] plus the
/// backend, cheap to construct and `Copy` so parallel engine workers can
/// share one per-point kernel by value.
#[derive(Debug, Clone, Copy)]
pub struct FieldKernel<'a> {
    injector: &'a FaultInjector,
    backend: KernelBackend,
    /// The compile the word loops run: the baseline one for the scalar
    /// backend, the widest probed one for `Auto`.
    isa: InstructionSet,
}

impl FaultInjector {
    /// A [`MaskKernel`] over this injector, generating masks with
    /// `backend`. Construction probes the instruction set once; the kernel
    /// borrows the injector, so all cached tile state is shared.
    #[must_use]
    pub fn kernel(&self, backend: KernelBackend) -> FieldKernel<'_> {
        let isa = match backend {
            KernelBackend::Scalar => InstructionSet::Portable,
            KernelBackend::Auto => InstructionSet::detect(),
        };
        FieldKernel {
            injector: self,
            backend,
            isa,
        }
    }
}

impl MaskKernel for FieldKernel<'_> {
    fn backend(&self) -> KernelBackend {
        self.backend
    }

    fn masks(&self, pc: PcIndex, offset: WordOffset, supply: Millivolts) -> (Word256, Word256) {
        let sliced = (self.backend == KernelBackend::Auto).then_some(self.isa);
        self.injector.masks_sel(pc, offset, supply, sliced)
    }

    fn reference_masks(
        &self,
        pc: PcIndex,
        offset: WordOffset,
        supply: Millivolts,
    ) -> (Word256, Word256) {
        self.injector.reference_masks(pc, offset, supply)
    }

    fn count_descent(&self, pc: PcIndex, words: Range<u64>, schedule: &[Millivolts]) -> Vec<u64> {
        let (bits, _) = (self.injector).descent_fold(pc, words, schedule, self.isa, &[]);
        bits.iter().map(|&[n0, n1]| n0 + n1).collect()
    }

    fn exposure_descent(
        &self,
        pc: PcIndex,
        words: Range<u64>,
        schedule: &[Millivolts],
        written: &[Written<'_>],
    ) -> Vec<Vec<Exposure>> {
        let (_, rows) = (self.injector).descent_fold(pc, words, schedule, self.isa, written);
        let n = written.len();
        (0..schedule.len())
            .map(|k| rows[k * n..][..n].to_vec())
            .collect()
    }
}

/// Test oracle of the range queries: the summed `(stuck0, stuck1)`
/// popcounts of [`MaskKernel::masks`] over every word of `words`.
#[cfg(test)]
pub(crate) fn fold_masks(
    kernel: &impl MaskKernel,
    pc: PcIndex,
    words: Range<u64>,
    supply: Millivolts,
) -> (u64, u64) {
    words.fold((0, 0), |(n0, n1), w| {
        let (s0, s1) = kernel.masks(pc, WordOffset(w), supply);
        (
            n0 + u64::from(s0.count_ones()),
            n1 + u64::from(s1.count_ones()),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FaultModelParams;
    use hbm_device::HbmGeometry;

    #[test]
    fn kernel_reports_its_configuration() {
        let injector =
            FaultInjector::new(FaultModelParams::date21(), HbmGeometry::vcu128_reduced(), 1);
        assert_eq!(KernelBackend::default(), KernelBackend::Auto);
        for backend in [KernelBackend::Scalar, KernelBackend::Auto] {
            assert_eq!(injector.kernel(backend).backend(), backend);
        }
    }

    #[test]
    fn count_descent_matches_per_knot_counts() {
        let injector =
            FaultInjector::new(FaultModelParams::date21(), HbmGeometry::vcu128_reduced(), 9);
        let kernel = injector.kernel(KernelBackend::Auto);
        let pc = PcIndex::new(3).unwrap();
        let schedule: Vec<Millivolts> = [980u32, 940, 900, 860].map(Millivolts).to_vec();
        let counts = kernel.count_descent(pc, 0..64, &schedule);
        assert_eq!(counts.len(), schedule.len());
        for (k, &v) in schedule.iter().enumerate() {
            let (n0, n1) = fold_masks(&kernel, pc, 0..64, v);
            assert_eq!(counts[k], n0 + n1, "knot {v}");
        }
    }

    #[test]
    #[should_panic(expected = "strictly descending")]
    fn count_descent_refuses_a_repeated_knot() {
        let injector =
            FaultInjector::new(FaultModelParams::date21(), HbmGeometry::vcu128_reduced(), 9);
        let kernel = injector.kernel(KernelBackend::Auto);
        let pc = PcIndex::new(0).unwrap();
        let _ = kernel.count_descent(pc, 0..64, &[Millivolts(900), Millivolts(900)]);
    }

    #[test]
    #[should_panic(expected = "strictly descending")]
    fn count_descent_refuses_an_ascent() {
        let injector =
            FaultInjector::new(FaultModelParams::date21(), HbmGeometry::vcu128_reduced(), 9);
        let kernel = injector.kernel(KernelBackend::Scalar);
        let pc = PcIndex::new(0).unwrap();
        let _ = kernel.count_descent(pc, 0..64, &[Millivolts(880), Millivolts(900)]);
    }

    #[test]
    fn a_391_knot_fold_matches_per_knot_counts() {
        // The CLI's finest grid: 1200 → 810 mV in 1 mV steps.
        let injector =
            FaultInjector::new(FaultModelParams::date21(), HbmGeometry::vcu128_reduced(), 7);
        let kernel = injector.kernel(KernelBackend::Auto);
        let pc = PcIndex::new(5).unwrap();
        let words = 100..228;
        let schedule: Vec<Millivolts> = (810..=1200).rev().map(Millivolts).collect();
        assert_eq!(schedule.len(), 391);
        let rows = kernel.exposure_descent(
            pc,
            words.clone(),
            &schedule,
            &[Written::Ones, Written::Zeros],
        );
        let totals = kernel.count_descent(pc, words.clone(), &schedule);
        for (k, &v) in schedule.iter().enumerate() {
            let masks: Vec<_> = words
                .clone()
                .map(|w| kernel.masks(pc, WordOffset(w), v))
                .collect();
            let read_back = |stuck: fn(&(Word256, Word256)) -> Word256| {
                let flips = masks.iter().map(|m| u64::from(stuck(m).count_ones()));
                (
                    masks.iter().filter(|m| !stuck(m).is_zero()).count() as u64,
                    flips.sum(),
                )
            };
            let ((faulty0, n0), (faulty1, n1)) = (read_back(|m| m.0), read_back(|m| m.1));
            let ones = Exposure {
                faulty_words: faulty0,
                stuck0: n0,
                stuck1: 0,
            };
            let zeros = Exposure {
                faulty_words: faulty1,
                stuck0: 0,
                stuck1: n1,
            };
            assert_eq!(rows[k], [ones, zeros], "exposure_descent at {v}");
            assert_eq!(totals[k], n0 + n1, "count_descent at {v}");
        }
        assert!(totals[390] > 0, "810 mV must show faults");
    }
}
