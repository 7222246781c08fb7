//! Order statistics, the output digest and the process's peak memory.

/// Nearest-rank percentile of ascending `sorted` samples: the smallest
/// sample with at least a `q` share of all samples at or below it.
/// `q` is a fraction in `[0, 1]`; an empty sample gives 0.
#[must_use]
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// The 1-based rank of the tail a sample of `n` supports: the highest
/// nearest-rank percentile, at most p99, that leaves at least ten samples
/// beyond it (the median for fewer than twenty samples).
#[must_use]
pub fn tail_rank(n: usize) -> usize {
    match n {
        0 => 0,
        1..=19 => n.div_ceil(2),
        20..=999 => n - 10,
        _ => (99 * n).div_ceil(100),
    }
}

/// The sample at [`tail_rank`] of ascending `sorted` samples (0 if empty).
#[must_use]
pub fn tail(sorted: &[f64]) -> f64 {
    match tail_rank(sorted.len()) {
        0 => 0.0,
        rank => sorted[rank - 1],
    }
}

/// Sorts `samples` ascending and returns them, for [`percentile`].
#[must_use]
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

/// Nearest-rank median of unsorted samples.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    percentile(&sorted(samples.to_vec()), 0.5)
}

/// FNV-1a over every output a workload checks, so two runs of one seed can
/// be compared by a single number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, value: u64) {
        self.bytes(&value.to_le_bytes());
    }

    pub fn f64(&mut self, value: f64) {
        self.u64(value.to_bits());
    }

    #[must_use]
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Peak resident set (`VmHWM`) of this process in MiB, from
/// `/proc/self/status`; `None` where the kernel does not report it.
#[must_use]
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.5), 50.0);
        assert_eq!(percentile(&hundred, 0.99), 99.0);
        assert_eq!(percentile(&hundred, 1.0), 100.0);
        assert_eq!(percentile(&hundred, 0.0), 1.0);
        // Nearest rank never interpolates: 3 samples give the middle one.
        assert_eq!(percentile(&[1.0, 2.0, 10.0], 0.5), 2.0);
        // p99 of fewer than 100 samples is the maximum.
        assert_eq!(percentile(&[1.0, 2.0, 10.0], 0.99), 10.0);
        assert_eq!(percentile(&[4.0], 0.99), 4.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(median(&[9.0, 1.0, 5.0, 7.0]), 5.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond_it() {
        let ascending = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        // p99 once a sample holds 1000: the same rank as `percentile`.
        for n in [1000, 1001, 50_000] {
            assert_eq!(tail(&ascending(n)), percentile(&ascending(n), 0.99));
        }
        assert_eq!(tail(&ascending(40)), 30.0);
        assert_eq!(tail(&ascending(999)), 989.0);
        assert_eq!(tail(&ascending(10)), 5.0);
        assert_eq!(tail(&[]), 0.0);
        for n in 20..1000 {
            assert!(n - tail_rank(n) >= 10, "{n} samples");
        }
    }

    #[test]
    fn digest_is_order_sensitive() {
        let mut a = Digest::default();
        a.u64(1);
        a.u64(2);
        let mut b = Digest::default();
        b.u64(2);
        b.u64(1);
        assert_ne!(a, b);
        let mut c = Digest::default();
        c.u64(1);
        c.u64(2);
        assert_eq!(a, c);
    }
}
