//! Portable bit-sliced mask generation: whole 256-bit words hashed a
//! 64-bit lane at a time, with the per-bit polarity/threshold comparisons
//! turned into integer compares against per-tile cutoffs and packed into
//! `u64` bitplanes.
//!
//! The scalar kernel draws each bit as `h = mix64(prefix ^ bit)` (the
//! [`crate::hash::combine`] chain over `(seed, pc, word, tag)` folded into
//! `prefix` once per word) and then compares the two 32-bit halves of `h`
//! against `f64` probabilities through [`crate::hash::unit_pair`]. Here the
//! probabilities arrive pre-converted to their exact integer images by
//! [`crate::hash::unit_cutoff`], so each bit costs one mix and two integer
//! compares. Bit-for-bit equality with the scalar path is a theorem (the
//! cutoffs are exact), enforced end to end by the `bitsliced_matches_scalar`
//! proptests.
//!
//! There is one loop, [`bit_planes_portable`], compiled twice: once for the
//! baseline target, and once inside [`bit_planes_avx512`], whose
//! `#[target_feature]` list lets LLVM vectorize the same loop with native
//! 64-bit multiplies (`vpmullq`) and mask-register compares. Both compiles
//! run the same integer arithmetic, so they agree bit for bit.

use hbm_device::Word256;

use super::InstructionSet;
use crate::hash::mix64;

/// Generates one word's `(stuck0, stuck1)` bitplanes for the per-voltage
/// field: bit `b` is stuck-at-0 iff its class half is below `class_cut` and
/// its threshold half is below `cut0`; stuck-at-1 iff the class half is at
/// or above `class_cut` and the threshold half is below `cut1`.
pub(crate) fn bit_planes(
    prefix: u64,
    class_cut: u64,
    cut0: u64,
    cut1: u64,
    isa: InstructionSet,
) -> (Word256, Word256) {
    match isa {
        #[cfg(target_arch = "x86_64")]
        #[allow(unsafe_code)]
        InstructionSet::Avx512 => {
            debug_assert!(avx512_detected(), "AVX-512 planes without hardware support");
            // SAFETY: only `InstructionSet::detect` constructs `Avx512`, and
            // only after `avx512_detected` confirmed that the running CPU
            // has every feature `bit_planes_avx512` is compiled for.
            unsafe { bit_planes_avx512(prefix, class_cut, cut0, cut1) }
        }
        _ => bit_planes_portable(prefix, class_cut, cut0, cut1),
    }
}

/// The bit-plane loop, inlined into both compiles of [`bit_planes`].
#[inline(always)]
fn bit_planes_portable(prefix: u64, class_cut: u64, cut0: u64, cut1: u64) -> (Word256, Word256) {
    let mut plane0 = [0u64; 4];
    let mut plane1 = [0u64; 4];
    for (lane, (p0, p1)) in plane0.iter_mut().zip(plane1.iter_mut()).enumerate() {
        let base = lane as u64 * 64;
        let (mut m0, mut m1) = (0u64, 0u64);
        for b in 0..64u64 {
            let h = mix64(prefix ^ (base + b));
            let lo = h & 0xFFFF_FFFF;
            let hi = h >> 32;
            let is0 = lo < class_cut;
            m0 |= u64::from(is0 & (hi < cut0)) << b;
            m1 |= u64::from(!is0 & (hi < cut1)) << b;
        }
        *p0 = m0;
        *p1 = m1;
    }
    (Word256(plane0), Word256(plane1))
}

/// [`bit_planes_portable`] compiled for AVX-512: `avx512dq` brings the
/// native 64-bit multiply. Its feature list and the probe in
/// [`avx512_detected`] must name the same features. (Adding `avx512vl`,
/// `avx512bw`, `bmi2` and the like emits the same instructions.)
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq")]
fn bit_planes_avx512(prefix: u64, class_cut: u64, cut0: u64, cut1: u64) -> (Word256, Word256) {
    bit_planes_portable(prefix, class_cut, cut0, cut1)
}

/// Whether the running CPU has every feature [`bit_planes_avx512`] is
/// compiled for. Must list exactly the wrapper's `#[target_feature]` list,
/// which `avx512_probe_checks_exactly_the_wrapper_features` compares. The
/// older features `avx512f` implies (AVX2, FMA) come with every AVX-512 CPU.
#[cfg(target_arch = "x86_64")]
pub(crate) fn avx512_detected() -> bool {
    use std::arch::is_x86_feature_detected as has;
    has!("avx512f") && has!("avx512dq")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::combine;

    #[test]
    fn planes_agree_with_direct_per_bit_hashing() {
        for seed in 0..8u64 {
            let prefix = combine(&[seed, 3, 77, 0x6269_7400]);
            let class_cut = 1u64 << 31; // ~half the bits in class 0
            let (cut0, cut1) = (1u64 << 30, 1u64 << 29);
            let (s0, s1) = bit_planes_portable(prefix, class_cut, cut0, cut1);
            for bit in 0..256u32 {
                let h = mix64(prefix ^ u64::from(bit));
                let is0 = (h & 0xFFFF_FFFF) < class_cut;
                let expect0 = is0 && (h >> 32) < cut0;
                let expect1 = !is0 && (h >> 32) < cut1;
                assert_eq!(s0.bit(bit), expect0, "seed {seed} bit {bit}");
                assert_eq!(s1.bit(bit), expect1, "seed {seed} bit {bit}");
            }
            assert!((s0 & s1).is_zero(), "polarity planes overlap");
        }
    }

    /// Asserts that the probed tier and the portable tier agree on one word.
    fn assert_tiers_agree(prefix: u64, class_cut: u64, cut0: u64, cut1: u64) {
        let probed = InstructionSet::detect();
        assert_eq!(
            bit_planes(prefix, class_cut, cut0, cut1, probed),
            bit_planes(prefix, class_cut, cut0, cut1, InstructionSet::Portable),
            "{probed:?} diverged at prefix {prefix:#x}, cuts ({class_cut}, {cut0}, {cut1})"
        );
    }

    #[test]
    fn probed_tier_matches_portable_tier_at_the_cut_edges() {
        for seed in 0..64u64 {
            let prefix = combine(&[seed, seed % 7, seed * 31, 0x6269_7400]);
            for (class_cut, cut0, cut1) in [
                (0, 0, 0),
                (1 << 32, 1 << 32, 1 << 32),
                (1 << 32, 0, 1 << 32),
                (0, 1 << 32, 0),
                (1 << 31, 1 << 20, 1 << 28),
                (u64::from(u32::MAX), 1, 1 << 31),
                (1, u64::from(u32::MAX), u64::from(u32::MAX)),
                (
                    seed.wrapping_mul(0x9E37_79B9) & 0xFFFF_FFFF,
                    seed << 20,
                    seed << 24,
                ),
            ] {
                assert_tiers_agree(prefix, class_cut, cut0, cut1);
            }
        }
    }

    #[test]
    fn probed_tier_matches_portable_tier_on_hashed_prefixes() {
        // Cutoffs live in `0..=2³²` (`unit_cutoff`'s range).
        let cut = |h: u64| h % ((1 << 32) + 1);
        for i in 0..10_000u64 {
            let prefix = combine(&[i, 0x7072_6566]);
            assert_tiers_agree(
                prefix,
                cut(mix64(prefix ^ 1)),
                cut(mix64(prefix ^ 2)),
                cut(mix64(prefix ^ 3)),
            );
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx512_probe_checks_exactly_the_wrapper_features() {
        use std::collections::BTreeSet;
        let source = include_str!("bitsliced.rs");
        let wrapper: BTreeSet<&str> = source
            .split("#[target_feature(enable = \"")
            .nth(1)
            .and_then(|rest| rest.split('"').next())
            .expect("the wrapper's feature list")
            .split(',')
            .collect();
        let probe = source
            .split("fn avx512_detected() -> bool {")
            .nth(1)
            .and_then(|rest| rest.split("\n}\n").next())
            .expect("the probe's body");
        let probed: BTreeSet<&str> = probe
            .split("has!(\"")
            .skip(1)
            .filter_map(|rest| rest.split('"').next())
            .collect();
        assert!(wrapper.contains("avx512dq"), "{wrapper:?}");
        assert_eq!(wrapper, probed, "wrapper and probe feature lists differ");
        // With the lists equal, `Avx512` implies every wrapper feature.
        assert_eq!(
            InstructionSet::detect() == InstructionSet::Avx512,
            avx512_detected()
        );
    }
}
