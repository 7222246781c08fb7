//! Criterion bench for Algorithm 1's kernel: one write/read-back batch over
//! one pseudo channel at representative voltages.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hbm_device::PcIndex;
use hbm_traffic::DataPattern;
use hbm_undervolt::{Platform, ReliabilityConfig, ReliabilityTester, TestScope, VoltageSweep};
use hbm_units::Millivolts;

fn bench_reliability(c: &mut Criterion) {
    let words = 2048u64;
    let mut group = c.benchmark_group("reliability_kernel");
    group.throughput(Throughput::Elements(words * 2)); // write + read-check
    for mv in [990u32, 950, 900, 850, 820] {
        group.bench_with_input(BenchmarkId::from_parameter(mv), &mv, |b, &mv| {
            let config = ReliabilityConfig {
                sweep: VoltageSweep::new(Millivolts(mv), Millivolts(mv), Millivolts(10))
                    .expect("single point"),
                batch_size: 1,
                patterns: vec![DataPattern::AllOnes],
                scope: TestScope::SinglePc(PcIndex::new(0).expect("valid pc")),
                words_per_pc: Some(words),
                ..ReliabilityConfig::date21()
            };
            let tester = ReliabilityTester::new(config).expect("config valid");
            let mut platform = Platform::builder().seed(7).build();
            b.iter(|| tester.run(&mut platform).expect("reliability run"));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_reliability);
criterion_main!(benches);
