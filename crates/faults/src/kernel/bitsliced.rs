//! Portable bit-sliced word loops: whole 256-bit words hashed a 64-bit lane
//! at a time, with no per-bit branch and no per-bit call.
//!
//! The scalar kernel draws each bit as `h = mix64(prefix ^ bit)` (the
//! [`crate::hash::combine`] chain over `(seed, pc, word, tag)` folded into
//! `prefix` once per word) and then compares the two 32-bit halves of `h`
//! against `f64` probabilities through [`crate::hash::unit_pair`]. Here the
//! probabilities arrive pre-converted to their exact integer images by
//! [`crate::hash::unit_cutoff`], so each bit costs one mix and integer
//! compares. Bit-for-bit equality with the scalar path is a theorem (the
//! cutoffs are exact), enforced end to end by the `bitsliced_matches_scalar`
//! proptests. There are two hashing loops:
//!
//! - [`bit_planes`] packs one voltage's compares into a word's `(stuck0,
//!   stuck1)` bitplanes;
//! - [`keyed_thresholds`] writes every bit's raw threshold, tagged with its
//!   polarity class, into a word-sized array for the descents. The class
//!   and a tile-specific number of the threshold's high bits index the
//!   tile's bucket table: the descent fold can count them in a per-tile
//!   histogram without a branch and map each bucket onto its first
//!   failing knot once per tile. Only the bits of the few buckets a
//!   knot's cutoff splits take a scan of the cutoffs inside their bucket.
//!
//! Three reductions over a word's keyed thresholds serve the descents:
//!
//! - [`cover_counts`] counts the keys below each of a tile's few highest
//!   cutoffs with one compare per key and cutoff, and marks the keys below
//!   the cover's threshold, whatever their class: only those go through
//!   the bucket histogram, so a tile whose cutoffs are sparse near the top
//!   counts most of its bits with vector compares alone;
//! - [`class_minima`], the smallest threshold of each class, gives the
//!   word's first faulty knot under an all-1s or all-0s write with one
//!   lookup;
//! - [`failing_planes`] marks the bits that fail at some knot of a descent
//!   and the stuck-at-1 bits, so that an offset-dependent write pattern
//!   walks only the bits it exposes.
//!
//! Each loop and reduction is compiled three times from the same source:
//! for the baseline target, inside [`run_avx2`], and inside
//! [`run_avx512`], whose `#[target_feature]` lists let LLVM vectorize the
//! mixes (AVX-512 brings native 64-bit multiplies, `vpmullq`, and
//! mask-register compares). Every compile runs the same integer
//! arithmetic, so they agree bit for bit.

use hbm_device::Word256;

use super::InstructionSet;
use crate::hash::mix64;

/// Generates one word's `(stuck0, stuck1)` bitplanes: bit `b` is
/// stuck-at-0 iff its class half is below `class_cut` and its threshold
/// half is below `cut0`; stuck-at-1 iff the class half is at or above
/// `class_cut` and the threshold half is below `cut1`.
pub(crate) fn bit_planes(
    prefix: u64,
    class_cut: u64,
    cut0: u64,
    cut1: u64,
    isa: InstructionSet,
) -> (Word256, Word256) {
    let mut out = (Word256::ZERO, Word256::ZERO);
    run(
        isa,
        WordLoop::Planes {
            prefix,
            class_cut,
            cut0,
            cut1,
            out: &mut out,
        },
    );
    out
}

/// Writes each bit's *keyed threshold* into `out`: the raw threshold half
/// `h >> 32` of its hash, with its polarity class in bit 32 (0 when the
/// class half is below `class_cut`, i.e. stuck-at-0; 1 for stuck-at-1).
/// A descent buckets it by its class and its raw threshold's high bits,
/// as many as the tile's cutoffs call for.
pub(crate) fn keyed_thresholds(
    prefix: u64,
    class_cut: u64,
    isa: InstructionSet,
    out: &mut [u64; 256],
) {
    run(
        isa,
        WordLoop::Keys {
            prefix,
            class_cut,
            out,
        },
    );
}

/// The smallest raw threshold of each class among one word's keyed
/// thresholds ([`keyed_thresholds`]), `1 << 32` or more for a class with
/// none.
pub(crate) fn class_minima(keys: &[u64; 256], isa: InstructionSet) -> (u64, u64) {
    let mut out = (u64::MAX, u64::MAX);
    run(
        isa,
        WordLoop::Minima {
            keys,
            out: &mut out,
        },
    );
    out
}

/// Marks one word's failing bits from its keyed thresholds
/// ([`keyed_thresholds`]) and the last, largest cutoff of each class along
/// a descent: returns `(fails, stuck1)`, where bit `b` of `fails` is set
/// iff its raw threshold is below its class's last cutoff (it fails at
/// some knot) and bit `b` of `stuck1` iff it is of class 1.
pub(crate) fn failing_planes(
    keys: &[u64; 256],
    last: [u64; 2],
    isa: InstructionSet,
) -> (Word256, Word256) {
    let mut out = (Word256::ZERO, Word256::ZERO);
    run(
        isa,
        WordLoop::Failing {
            keys,
            last,
            out: &mut out,
        },
    );
    out
}

/// Counts one word's keyed thresholds ([`keyed_thresholds`]) against a
/// tile's compare cover: adds to `below[j]` the number of keys below
/// `values[j]`, compared as whole keys (so a count at `1 << 32 | cut` takes
/// in every class-0 key), and returns the bits whose raw threshold is
/// below `low`, whatever their class.
pub(crate) fn cover_counts(
    keys: &[u64; 256],
    values: &[u64],
    low: u64,
    below: &mut [u64],
    isa: InstructionSet,
) -> Word256 {
    let mut out = Word256::ZERO;
    run(
        isa,
        WordLoop::Cover {
            keys,
            values,
            low,
            below,
            out: &mut out,
        },
    );
    out
}

/// One word's work for the vector loops.
enum WordLoop<'a> {
    /// [`bit_planes`].
    Planes {
        prefix: u64,
        class_cut: u64,
        cut0: u64,
        cut1: u64,
        out: &'a mut (Word256, Word256),
    },
    /// [`keyed_thresholds`].
    Keys {
        prefix: u64,
        class_cut: u64,
        out: &'a mut [u64; 256],
    },
    /// [`class_minima`].
    Minima {
        keys: &'a [u64; 256],
        out: &'a mut (u64, u64),
    },
    /// [`failing_planes`].
    Failing {
        keys: &'a [u64; 256],
        last: [u64; 2],
        out: &'a mut (Word256, Word256),
    },
    /// [`cover_counts`].
    Cover {
        keys: &'a [u64; 256],
        values: &'a [u64],
        low: u64,
        below: &'a mut [u64],
        out: &'a mut Word256,
    },
}

/// Runs one word's loop in the compile `isa` names.
fn run(isa: InstructionSet, job: WordLoop<'_>) {
    match isa {
        #[cfg(target_arch = "x86_64")]
        #[allow(unsafe_code)]
        InstructionSet::Avx512 => {
            debug_assert!(avx512_detected(), "AVX-512 loops without hardware support");
            // SAFETY: only `InstructionSet::detect` constructs `Avx512`, and
            // only after `avx512_detected` confirmed that the running CPU
            // has every feature `run_avx512` is compiled for.
            unsafe { run_avx512(job) }
        }
        #[cfg(target_arch = "x86_64")]
        #[allow(unsafe_code)]
        InstructionSet::Avx2 => {
            debug_assert!(avx2_detected(), "AVX2 loops without hardware support");
            // SAFETY: only `InstructionSet::detect` constructs `Avx2`, and
            // only after `avx2_detected` confirmed that the running CPU has
            // every feature `run_avx2` is compiled for.
            unsafe { run_avx2(job) }
        }
        _ => run_portable(job),
    }
}

/// Every loop, inlined into every compile of [`run`].
#[inline(always)]
fn run_portable(job: WordLoop<'_>) {
    match job {
        WordLoop::Planes {
            prefix,
            class_cut,
            cut0,
            cut1,
            out,
        } => *out = planes_loop(prefix, class_cut, cut0, cut1),
        WordLoop::Keys {
            prefix,
            class_cut,
            out,
        } => keys_loop(prefix, class_cut, out),
        WordLoop::Minima { keys, out } => *out = minima_loop(keys),
        WordLoop::Failing { keys, last, out } => *out = failing_loop(keys, last),
        WordLoop::Cover {
            keys,
            values,
            low,
            below,
            out,
        } => *out = cover_loop(keys, values, low, below),
    }
}

/// The bit-plane loop.
#[inline(always)]
fn planes_loop(prefix: u64, class_cut: u64, cut0: u64, cut1: u64) -> (Word256, Word256) {
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

/// The keyed-threshold loop.
#[inline(always)]
fn keys_loop(prefix: u64, class_cut: u64, out: &mut [u64; 256]) {
    for (b, key) in (0u64..).zip(out.iter_mut()) {
        let h = mix64(prefix ^ b);
        *key = (u64::from(h & 0xFFFF_FFFF >= class_cut) << 32) | (h >> 32);
    }
}

/// The class-minima reductions. Class-1 keys are `1 << 32` and up, so the
/// smallest key is a class-0 one when the word has any; subtracting
/// `1 << 32` wraps the class-0 keys past every class-1 one.
#[inline(always)]
fn minima_loop(keys: &[u64; 256]) -> (u64, u64) {
    let m0 = keys.iter().fold(u64::MAX, |m, &key| m.min(key));
    let m1 = keys
        .iter()
        .fold(u64::MAX, |m, &key| m.min(key.wrapping_sub(1 << 32)));
    (m0, m1)
}

/// The failing-bits loop.
#[inline(always)]
fn failing_loop(keys: &[u64; 256], last: [u64; 2]) -> (Word256, Word256) {
    let mut fails = [0u64; 4];
    let mut stuck1 = [0u64; 4];
    let lanes = fails.iter_mut().zip(stuck1.iter_mut());
    for ((f, c), keys) in lanes.zip(keys.chunks_exact(64)) {
        let (mut m, mut s) = (0u64, 0u64);
        for (b, &key) in (0u64..).zip(keys) {
            let class = key >> 32 & 1;
            let cut = if class == 0 { last[0] } else { last[1] };
            m |= u64::from(key & 0xFFFF_FFFF < cut) << b;
            s |= class << b;
        }
        *f = m;
        *c = s;
    }
    (Word256(fails), Word256(stuck1))
}

/// The compare-cover loop: one pass over the word's keys per cover value,
/// then one for the bits below `low`. Keys and values are below `2³³`, so
/// the counting compares are signed ones, which AVX2 has natively.
#[inline(always)]
fn cover_loop(keys: &[u64; 256], values: &[u64], low: u64, below: &mut [u64]) -> Word256 {
    for (below, &value) in below.iter_mut().zip(values) {
        let value = value as i64;
        *below += keys
            .iter()
            .map(|&key| u64::from((key as i64) < value))
            .sum::<u64>();
    }
    let mut residual = [0u64; 4];
    for (r, keys) in residual.iter_mut().zip(keys.chunks_exact(64)) {
        for (b, &key) in (0u64..).zip(keys) {
            *r |= u64::from(key & 0xFFFF_FFFF < low) << b;
        }
    }
    Word256(residual)
}

/// [`run_portable`] compiled for AVX-512: `avx512dq` brings the native
/// 64-bit multiply. Its feature list and the probe in [`avx512_detected`]
/// must name the same features. (Adding `avx512vl`, `avx512bw`, `bmi2` and
/// the like emits the same instructions.)
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq")]
fn run_avx512(job: WordLoop<'_>) {
    run_portable(job);
}

/// [`run_portable`] compiled for AVX2: four 64-bit lanes per vector, the
/// multiplies built from 32-bit halves. Its feature list and the probe in
/// [`avx2_detected`] must name the same features.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn run_avx2(job: WordLoop<'_>) {
    run_portable(job);
}

/// Whether the running CPU has every feature [`run_avx512`] is compiled
/// for. Must list exactly the wrapper's `#[target_feature]` list, which
/// `every_probe_checks_exactly_its_wrapper_features` compares. The older
/// features `avx512f` implies (AVX2, FMA) come with every AVX-512 CPU.
#[cfg(target_arch = "x86_64")]
pub(crate) fn avx512_detected() -> bool {
    use std::arch::is_x86_feature_detected as has;
    has!("avx512f") && has!("avx512dq")
}

/// Whether the running CPU has every feature [`run_avx2`] is compiled for;
/// the same contract as [`avx512_detected`].
#[cfg(target_arch = "x86_64")]
pub(crate) fn avx2_detected() -> bool {
    use std::arch::is_x86_feature_detected as has;
    has!("avx2")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::combine;

    /// Every compile of the loops this host can run, portable first.
    fn runnable_arms() -> Vec<InstructionSet> {
        let mut arms = vec![InstructionSet::Portable];
        #[cfg(target_arch = "x86_64")]
        {
            if avx2_detected() {
                arms.push(InstructionSet::Avx2);
            }
            if avx512_detected() {
                arms.push(InstructionSet::Avx512);
            }
        }
        arms
    }

    #[test]
    fn planes_agree_with_direct_per_bit_hashing() {
        for seed in 0..8u64 {
            let prefix = combine(&[seed, 3, 77, 0x6269_7400]);
            let class_cut = 1u64 << 31; // ~half the bits in class 0
            let (cut0, cut1) = (1u64 << 30, 1u64 << 29);
            let (s0, s1) = planes_loop(prefix, class_cut, cut0, cut1);
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

    #[test]
    fn keys_agree_with_direct_per_bit_hashing() {
        for seed in 0..8u64 {
            let prefix = combine(&[seed, 3, 77, 0x6362_6974]);
            let class_cut = 1u64 << 31;
            let mut keys = [0u64; 256];
            keys_loop(prefix, class_cut, &mut keys);
            let (m0, m1) = minima_loop(&keys);
            // The smallest raw threshold of a class, `1 << 32` for none.
            let class_min = |class: u64| {
                let raw = keys.iter().filter(|&&key| key >> 32 == class);
                raw.map(|&key| key & 0xFFFF_FFFF).min().unwrap_or(1 << 32)
            };
            assert_eq!(
                (m0.min(1 << 32), m1.min(1 << 32)),
                (class_min(0), class_min(1))
            );
            // Each class's last cutoff just above its median threshold.
            let last = [0, 1].map(|class: u64| class_min(class) + (1 << 31));
            let (fails, stuck1) = failing_loop(&keys, last);
            for (bit, &key) in keys.iter().enumerate() {
                let class = key >> 32;
                assert_eq!(stuck1.bit(bit as u32), class == 1, "seed {seed} bit {bit}");
                let below = key & 0xFFFF_FFFF < last[class as usize];
                assert_eq!(fails.bit(bit as u32), below, "seed {seed} bit {bit}");
            }
            // The cover loop: keys below each whole-key value, and the bits
            // below a raw threshold whatever their class.
            let values = [class_min(0) + 1, 1 << 32, (1 << 32) + (1 << 31), 2 << 32];
            let mut below = [0u64; 4];
            let residual = cover_loop(&keys, &values, 1 << 30, &mut below);
            for (&value, &count) in values.iter().zip(&below) {
                let direct = keys.iter().filter(|&&key| key < value).count() as u64;
                assert_eq!(count, direct, "seed {seed} value {value:#x}");
            }
            assert_eq!(below[3], 256, "every key is below 2³³");
            for (bit, &key) in keys.iter().enumerate() {
                let low = key & 0xFFFF_FFFF < 1 << 30;
                assert_eq!(residual.bit(bit as u32), low, "seed {seed} bit {bit}");
            }
            for (bit, &key) in keys.iter().enumerate() {
                let h = mix64(prefix ^ bit as u64);
                let stuck_at_one = (h & 0xFFFF_FFFF) >= class_cut;
                assert_eq!(key >> 32, u64::from(stuck_at_one), "seed {seed} bit {bit}");
                assert_eq!(key & 0xFFFF_FFFF, h >> 32, "seed {seed} bit {bit}");
                assert_eq!(key >> 24, u64::from(stuck_at_one) * 256 + (h >> 56));
            }
        }
    }

    /// Asserts that every runnable compile agrees with the portable one on
    /// every loop and reduction for one word.
    fn assert_arms_agree(prefix: u64, class_cut: u64, cut0: u64, cut1: u64) {
        let portable = InstructionSet::Portable;
        let planes = bit_planes(prefix, class_cut, cut0, cut1, portable);
        let mut keys = [0u64; 256];
        keyed_thresholds(prefix, class_cut, portable, &mut keys);
        let minima = class_minima(&keys, portable);
        for arm in runnable_arms() {
            assert_eq!(
                bit_planes(prefix, class_cut, cut0, cut1, arm),
                planes,
                "{arm:?} planes diverged at prefix {prefix:#x}, cuts ({class_cut}, {cut0}, {cut1})"
            );
            let mut arm_keys = [0u64; 256];
            keyed_thresholds(prefix, class_cut, arm, &mut arm_keys);
            let arm_minima = class_minima(&arm_keys, arm);
            assert_eq!(
                arm_keys, keys,
                "{arm:?} keys diverged at prefix {prefix:#x}, class cut {class_cut}"
            );
            assert_eq!(
                arm_minima, minima,
                "{arm:?} minima diverged at prefix {prefix:#x}"
            );
            assert_eq!(
                failing_planes(&keys, [cut0, cut1], arm),
                failing_planes(&keys, [cut0, cut1], portable),
                "{arm:?} failing planes diverged at prefix {prefix:#x}, cuts ({cut0}, {cut1})"
            );
            // A cover of no value, and one of a cutoff of each class and
            // 2³², counted twice so the counts accumulate.
            let values = [cut0, 1 << 32, (1 << 32) + cut1];
            for values in [&values[..0], &values[..]] {
                let cover = |isa| {
                    let mut below = [0u64; 3];
                    let residual = cover_counts(&keys, values, class_cut, &mut below, isa);
                    let again = cover_counts(&keys, values, class_cut, &mut below, isa);
                    assert_eq!(residual, again);
                    (below, residual)
                };
                assert_eq!(
                    cover(arm),
                    cover(portable),
                    "{arm:?} cover counts diverged at prefix {prefix:#x}, values {values:?}, low {class_cut}"
                );
            }
        }
    }

    #[test]
    fn every_arm_matches_the_portable_arm_at_the_cut_edges() {
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
                assert_arms_agree(prefix, class_cut, cut0, cut1);
            }
        }
    }

    #[test]
    fn every_arm_matches_the_portable_arm_on_hashed_prefixes() {
        // Cutoffs live in `0..=2³²` (`unit_cutoff`'s range).
        let cut = |h: u64| h % ((1 << 32) + 1);
        for i in 0..10_000u64 {
            let prefix = combine(&[i, 0x7072_6566]);
            assert_arms_agree(
                prefix,
                cut(mix64(prefix ^ 1)),
                cut(mix64(prefix ^ 2)),
                cut(mix64(prefix ^ 3)),
            );
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn every_probe_checks_exactly_its_wrapper_features() {
        use std::collections::BTreeSet;
        let source = include_str!("bitsliced.rs");
        // Each wrapper: its `#[target_feature]` list, then `fn run_<arm>(`.
        let wrappers: Vec<(&str, BTreeSet<&str>)> = source
            .split("#[target_feature(enable = \"")
            .skip(1)
            .map(|rest| {
                let (list, body) = rest.split_once('"').expect("a closed feature list");
                let arm = body
                    .split_once("fn run_")
                    .and_then(|(_, name)| name.split_once('('))
                    .expect("the wrapper's name")
                    .0;
                (arm, list.split(',').collect())
            })
            .collect();
        let arms: BTreeSet<&str> = wrappers.iter().map(|(arm, _)| *arm).collect();
        assert_eq!(arms, BTreeSet::from(["avx2", "avx512"]), "{wrappers:?}");
        for (arm, features) in &wrappers {
            let probe = source
                .split(&format!("fn {arm}_detected() -> bool {{"))
                .nth(1)
                .and_then(|rest| rest.split("\n}\n").next())
                .unwrap_or_else(|| panic!("no probe for the {arm} wrapper"));
            let probed: BTreeSet<&str> = probe
                .split("has!(\"")
                .skip(1)
                .filter_map(|rest| rest.split('"').next())
                .collect();
            assert_eq!(
                *features, probed,
                "{arm}: wrapper and probe feature lists differ"
            );
            // The feature each tier exists for: the AVX-512 compile's
            // native 64-bit multiply (`vpmullq`) needs `avx512dq`.
            let required = match *arm {
                "avx512" => ["avx512f", "avx512dq"].as_slice(),
                _ => ["avx2"].as_slice(),
            };
            for feature in required {
                assert!(features.contains(feature), "{arm}: {features:?}");
            }
        }
        // With the lists equal, each tier implies every feature of its
        // wrapper; detection prefers the wider one.
        let detected = InstructionSet::detect();
        assert_eq!(detected == InstructionSet::Avx512, avx512_detected());
        assert_eq!(
            detected == InstructionSet::Avx2,
            avx2_detected() && !avx512_detected()
        );
    }
}
