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
//! compares — and the AVX2 tier ([`super::simd`]) does four bits per
//! instruction. Bit-for-bit equality with the scalar path is a theorem
//! (the cutoffs are exact), enforced end to end by the
//! `bitsliced_matches_scalar` proptests.

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
        InstructionSet::Avx2 => super::simd::bit_planes_avx2(prefix, class_cut, cut0, cut1),
        _ => bit_planes_portable(prefix, class_cut, cut0, cut1),
    }
}

/// The portable `u64`-bitplane tier of [`bit_planes`].
pub(crate) fn bit_planes_portable(
    prefix: u64,
    class_cut: u64,
    cut0: u64,
    cut1: u64,
) -> (Word256, Word256) {
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
}
