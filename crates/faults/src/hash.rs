//! Deterministic hashing used to derive per-bit uniform draws.
//!
//! Every random-looking quantity in the fault model (a bit's failure
//! threshold, its polarity class, a region's weakness) is a pure function of
//! the device seed and the entity's address, computed with a SplitMix64-style
//! mixer. That makes fault maps reproducible across runs and platforms and
//! gives the monotone-in-voltage fault sets the trade-off analysis relies
//! on.

/// SplitMix64 finalizer: a fast, high-quality 64-bit mixing function.
///
/// # Examples
///
/// ```
/// use hbm_faults::hash::mix64;
///
/// // Deterministic and sensitive to every input bit.
/// assert_eq!(mix64(42), mix64(42));
/// assert_ne!(mix64(42), mix64(43));
/// ```
#[must_use]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Combines several 64-bit parts into one hash by iterated mixing.
///
/// The mixing is a left fold, so `combine(&[a, b, x]) ==
/// mix64(combine(&[a, b]) ^ x)`: a loop over many suffixes hashes the
/// shared prefix once and folds each suffix with one [`mix64`].
///
/// # Examples
///
/// ```
/// use hbm_faults::hash::combine;
///
/// assert_ne!(combine(&[1, 2]), combine(&[2, 1])); // order matters
/// ```
#[must_use]
pub fn combine(parts: &[u64]) -> u64 {
    let mut acc = 0x243F_6A88_85A3_08D3; // π digits; arbitrary non-zero seed
    for &part in parts {
        acc = mix64(acc ^ part);
    }
    acc
}

/// Maps a hash to a uniform `f64` in `[0, 1)` with full 53-bit precision.
///
/// # Examples
///
/// ```
/// use hbm_faults::hash::{mix64, unit};
///
/// let u = unit(mix64(123));
/// assert!((0.0..1.0).contains(&u));
/// ```
#[must_use]
pub fn unit(hash: u64) -> f64 {
    // Take the top 53 bits as the mantissa of a uniform in [0, 1).
    (hash >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Splits a 64-bit hash into two independent 32-bit uniforms in `[0, 1)`.
#[must_use]
pub fn unit_pair(hash: u64) -> (f64, f64) {
    let lo = (hash & 0xFFFF_FFFF) as f64 / f64::from(u32::MAX) / (1.0 + f64::EPSILON);
    let hi = (hash >> 32) as f64 / f64::from(u32::MAX) / (1.0 + f64::EPSILON);
    (lo, hi)
}

/// The exact integer cutoff of a [`unit_pair`] comparison: the number of raw
/// 32-bit values `x` whose uniform `u(x)` is strictly below `t`, so that for
/// any hash half `r` (a raw `u32` widened to `u64`)
///
/// `u(r) < t  ⟺  r < unit_cutoff(t)`.
///
/// This is what lets the bit-sliced kernel replace the per-bit
/// float-division-and-compare with one integer compare per bit while staying
/// bit-identical to the scalar path: the cutoff is computed once per tile by
/// inverting the monotone map `u(x) = x / (2³² − 1) / (1 + ε)` and then
/// stepping to the exact boundary (the inverse lands within a few values of
/// it), and every representable `t` (including `0.0`, `1.0`, values below
/// `u(1)`, and `NaN`, which cuts nothing) resolves to the exact comparison
/// boundary.
#[must_use]
pub fn unit_cutoff(t: f64) -> u64 {
    if t.is_nan() || t <= 0.0 {
        return 0; // zero, negative, or NaN: nothing passes `u < t`
    }
    let uniform = |x: u64| x as f64 / f64::from(u32::MAX) / (1.0 + f64::EPSILON);
    let end = 1u64 << 32;
    let mut x = (t * f64::from(u32::MAX) * (1.0 + f64::EPSILON))
        .ceil()
        .min(end as f64) as u64;
    // Invariant after the first loop: `x == 0 || u(x − 1) < t`; the second
    // keeps it and stops at the first `x` with `u(x) >= t`.
    while x > 0 && uniform(x - 1) >= t {
        x -= 1;
    }
    while x < end && uniform(x) < t {
        x += 1;
    }
    x
}

/// [`unit_cutoff`] of every threshold of `ts`, in lockstep: one pass
/// takes each threshold's initial guess, the inverse of the map `u`, and
/// checks it with `u(x − 1) < t ≤ u(x)`, which makes `x` the exact
/// boundary. The divisions of different thresholds do not wait on each
/// other, so they overlap, where [`unit_cutoff`]'s stepping loops run two
/// dependent divisions per probe. A threshold whose guess fails the check
/// (none of the fault model's, in practice) takes [`unit_cutoff`], so every
/// result is bit-identical to it.
#[must_use]
pub fn unit_cutoffs(ts: &[f64]) -> Vec<u64> {
    let uniform = |x: f64| x / f64::from(u32::MAX) / (1.0 + f64::EPSILON);
    let end = (1u64 << 32) as f64;
    ts.iter()
        .map(|&t| {
            // An integer in `[0, 2³²]` (NaN for a NaN threshold), exact in
            // `f64`, so `u(x)` and `u(x − 1)` are [`unit_cutoff`]'s.
            let x = (t * f64::from(u32::MAX) * (1.0 + f64::EPSILON))
                .ceil()
                .clamp(0.0, end);
            if uniform(x - 1.0) < t && uniform(x) >= t {
                x as u64
            } else {
                unit_cutoff(t)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix64_known_good_dispersion() {
        // Consecutive inputs should produce wildly different outputs.
        let a = mix64(0);
        let b = mix64(1);
        assert_ne!(a, b);
        assert!((a ^ b).count_ones() > 10, "poor avalanche: {a:x} vs {b:x}");
    }

    #[test]
    fn combine_is_order_sensitive_and_deterministic() {
        assert_eq!(combine(&[7, 8, 9]), combine(&[7, 8, 9]));
        assert_ne!(combine(&[7, 8, 9]), combine(&[9, 8, 7]));
        assert_ne!(combine(&[]), combine(&[0]));
    }

    #[test]
    fn combine_is_a_left_fold_so_prefixes_hash_once() {
        // The per-bit loops hash a word's prefix once and then fold each
        // bit with one `mix64`; this identity makes that bit-identical.
        for i in 0..1000u64 {
            let (seed, pc, w, tag) = (mix64(i), i % 32, i * 7, 0x6362_6974);
            let prefix = combine(&[seed, pc, w, tag]);
            for bit in [0u64, 1, 63, 64, 255] {
                assert_eq!(combine(&[seed, pc, w, tag, bit]), mix64(prefix ^ bit));
            }
        }
    }

    #[test]
    fn unit_in_range_and_uniform_ish() {
        let mut sum = 0.0;
        let n = 10_000;
        for i in 0..n {
            let u = unit(mix64(i));
            assert!((0.0..1.0).contains(&u));
            sum += u;
        }
        let mean = sum / f64::from(n as u32);
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn unit_pair_in_range() {
        for i in 0..1000 {
            let (lo, hi) = unit_pair(mix64(i));
            assert!((0.0..1.0).contains(&lo));
            assert!((0.0..1.0).contains(&hi));
        }
    }

    #[test]
    fn unit_cutoff_is_the_exact_comparison_boundary() {
        let uniform = |x: u64| x as f64 / f64::from(u32::MAX) / (1.0 + f64::EPSILON);
        // Degenerate thresholds.
        assert_eq!(unit_cutoff(0.0), 0);
        assert_eq!(unit_cutoff(-1.0), 0);
        assert_eq!(unit_cutoff(f64::NAN), 0);
        // Every uniform is strictly below 1.0 (the `1 + ε` divisor), so the
        // full threshold admits the entire raw range.
        assert_eq!(unit_cutoff(1.0), 1 << 32);
        // Exact agreement with the float comparison on random hash halves
        // and adversarial thresholds: exact raw images, their neighbours,
        // and random uniforms.
        for i in 0..2000u64 {
            let h = mix64(i);
            let (lo, hi) = unit_pair(h);
            let raw_lo = h & 0xFFFF_FFFF;
            let raw_hi = h >> 32;
            for t in [
                lo,
                hi,
                uniform(raw_lo.saturating_sub(1)),
                uniform((raw_hi + 1).min(u64::from(u32::MAX))),
                unit(mix64(i ^ 0xABCD)),
                1e-13,
                0.5,
            ] {
                let cut = unit_cutoff(t);
                // The cutoff is the partition point of `u(x) < t` over the
                // whole raw range.
                assert!(cut == 0 || uniform(cut - 1) < t, "t = {t:e}, cut {cut}");
                assert!(cut == 1 << 32 || uniform(cut) >= t, "t = {t:e}, cut {cut}");
                assert_eq!(raw_lo < cut, lo < t, "lo half, t = {t:e}, h = {h:#x}");
                assert_eq!(raw_hi < cut, hi < t, "hi half, t = {t:e}, h = {h:#x}");
            }
        }
    }

    #[test]
    fn unit_cutoffs_match_unit_cutoff() {
        let uniform = |x: u64| x as f64 / f64::from(u32::MAX) / (1.0 + f64::EPSILON);
        let end = 1u64 << 32;
        // Degenerate and out-of-range thresholds, the exact images of raw
        // values at both ends of the range and their neighbours.
        let mut ts = vec![
            0.0,
            -0.0,
            -1.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            5e-324,
            1e-300,
            1e-13,
            0.5,
            1.0,
            1.0 + f64::EPSILON,
            2.0,
        ];
        for x in [0, 1, 2, 3, end / 2, end - 3, end - 2, end - 1, end] {
            let u = uniform(x);
            ts.extend([u, u.next_down(), u.next_up()]);
        }
        // Random uniforms, and the fault model's class probabilities along
        // the descents' voltages at a spread of variation shifts.
        ts.extend((0..2000u64).flat_map(|i| {
            let (lo, hi) = unit_pair(mix64(i));
            [lo, hi, unit(mix64(i ^ 0xABCD))]
        }));
        let params = crate::FaultModelParams::date21();
        for shift in -40..=40 {
            for mv in (800..=1000).step_by(5) {
                let v = hbm_units::Volts(f64::from(mv) / 1000.0);
                let (c0, c1) =
                    params.class_probabilities(v, hbm_units::Volts(f64::from(shift) * 1e-3));
                ts.extend([c0, c1]);
            }
        }
        let cuts = unit_cutoffs(&ts);
        assert_eq!(cuts.len(), ts.len());
        for (&t, &cut) in ts.iter().zip(&cuts) {
            assert_eq!(cut, unit_cutoff(t), "t = {t:e}");
        }
        assert!(unit_cutoffs(&[]).is_empty());
    }

    #[test]
    fn unit_preserves_full_precision() {
        // Probabilities as small as 1e-13 must be resolvable.
        let tiny = 1e-13;
        let below = (tiny * (1u64 << 53) as f64) as u64;
        assert!(below > 0, "53-bit uniforms resolve 1e-13");
        assert!(unit(below << 11) > 0.0);
        assert!(unit(0) < tiny);
    }
}
