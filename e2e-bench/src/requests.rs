//! Seeded LDJSON request streams for the two serve workloads.
//!
//! Every input the program sees is generated here from `--seed`, so one
//! seed always yields byte-identical streams.

/// SplitMix64, the benchmark's only random source.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    #[must_use]
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

/// What a request line asks for; the checks pick their reference by it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineKind {
    Recommend,
    Summary,
    Malformed,
}

/// A request stream: one LDJSON line per request.
#[derive(Debug, Clone, PartialEq)]
pub struct Stream {
    pub lines: Vec<String>,
    pub kinds: Vec<LineKind>,
}

impl Stream {
    fn push(&mut self, kind: LineKind, line: String) {
        self.kinds.push(kind);
        self.lines.push(line);
    }

    /// The whole stream as one newline-terminated LDJSON document.
    #[must_use]
    pub fn to_input(&self) -> Vec<u8> {
        let mut input = Vec::with_capacity(self.lines.iter().map(|l| l.len() + 1).sum());
        for line in &self.lines {
            input.extend_from_slice(line.as_bytes());
            input.push(b'\n');
        }
        input
    }
}

fn recommend(device: u64, target: &str, min_pcs: u32) -> String {
    format!("{{\"Recommend\":{{\"device_id\":{device},\"target_rate\":{target},\"min_pcs\":{min_pcs}}}}}")
}

/// `serve-rescan`: `len` `Recommend` requests (target 1e-2, 16 PCs) whose
/// device popularity is log-uniform, `device = ⌊devices^u⌋ − 1`: a few
/// hot devices and a long tail, so a session mixes rescan-cache hits with
/// cold misses.
#[must_use]
pub fn rescan_stream(seed: u64, devices: u32, len: usize) -> Stream {
    let mut rng = SplitMix64::new(seed);
    let mut stream = Stream {
        lines: Vec::with_capacity(len),
        kinds: Vec::with_capacity(len),
    };
    for _ in 0..len {
        let device = (f64::from(devices).powf(rng.unit()).floor() as u64).saturating_sub(1);
        stream.push(LineKind::Recommend, recommend(device, "0.01", 16));
    }
    stream
}

/// Malformed lines the service must answer with a parse error. None is
/// blank: the transports skip blank lines without answering them.
const MALFORMED: [&str; 4] = [
    "{\"Recommend\":{\"device_id\":3,",
    "not json",
    "{\"Recommend\":{\"device_id\":\"three\",\"target_rate\":0.01,\"min_pcs\":16}}",
    "{\"Frobnicate\":{}}",
];

/// `serve-model`: uniform devices; `Recommend` at targets {1e-3, 1e-2, 0.1}
/// × min PCs {8, 16, 24, 32}; every 16th line a `Summary`; every 64th
/// line malformed.
#[must_use]
pub fn model_stream(seed: u64, devices: u32, len: usize) -> Stream {
    const TARGETS: [&str; 3] = ["0.001", "0.01", "0.1"];
    const MIN_PCS: [u32; 4] = [8, 16, 24, 32];
    let mut rng = SplitMix64::new(seed);
    let mut stream = Stream {
        lines: Vec::with_capacity(len),
        kinds: Vec::with_capacity(len),
    };
    for i in 1..=len {
        if i % 64 == 0 {
            let line = MALFORMED[rng.below(MALFORMED.len() as u64) as usize];
            stream.push(LineKind::Malformed, line.to_owned());
        } else if i % 16 == 0 {
            stream.push(LineKind::Summary, "\"Summary\"".to_owned());
        } else {
            let device = rng.below(u64::from(devices));
            let target = TARGETS[rng.below(TARGETS.len() as u64) as usize];
            let min_pcs = MIN_PCS[rng.below(MIN_PCS.len() as u64) as usize];
            stream.push(LineKind::Recommend, recommend(device, target, min_pcs));
        }
    }
    stream
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        for generate in [rescan_stream, model_stream] {
            let a = generate(7, 64, 2000);
            assert_eq!(a.to_input(), generate(7, 64, 2000).to_input());
            assert_ne!(a.to_input(), generate(11, 64, 2000).to_input());
            assert_eq!(a.lines.len(), 2000);
            assert_eq!(a.kinds.len(), 2000);
        }
    }

    #[test]
    fn streams_parse_as_the_serve_api_expects() {
        let stream = model_stream(7, 64, 256);
        for (line, kind) in stream.lines.iter().zip(&stream.kinds) {
            let parsed = serde_json::from_str::<hbm_fleet::FleetRequest>(line);
            assert_eq!(parsed.is_ok(), *kind != LineKind::Malformed, "{line}");
            assert!(!line.trim().is_empty());
        }
        assert_eq!(
            stream
                .kinds
                .iter()
                .filter(|k| **k == LineKind::Malformed)
                .count(),
            4
        );
        assert_eq!(
            stream
                .kinds
                .iter()
                .filter(|k| **k == LineKind::Summary)
                .count(),
            12
        );
    }

    #[test]
    fn log_uniform_popularity_favours_low_ids_and_stays_in_range() {
        let stream = rescan_stream(7, 64, 4000);
        let ids: Vec<u64> = stream
            .lines
            .iter()
            .map(|l| match serde_json::from_str(l).unwrap() {
                hbm_fleet::FleetRequest::Recommend { device_id, .. } => u64::from(device_id),
                other => panic!("{other:?}"),
            })
            .collect();
        assert!(ids.iter().all(|&d| d < 64));
        let low = ids.iter().filter(|&&d| d < 8).count();
        let high = ids.iter().filter(|&&d| d >= 56).count();
        assert!(low > 4 * high, "low {low} high {high}");
    }
}
