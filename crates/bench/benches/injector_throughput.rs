//! Criterion bench for the fault injector: per-word mask throughput across
//! the fault-density regimes (guardband, onset, exponential, saturation),
//! driven through the unified [`MaskKernel`] backend API.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hbm_device::{HbmGeometry, PcIndex, WordOffset};
use hbm_faults::{FaultInjector, FaultModelParams, KernelBackend, MaskKernel};
use hbm_units::Millivolts;

fn bench_injector(c: &mut Criterion) {
    let injector = FaultInjector::new(FaultModelParams::date21(), HbmGeometry::vcu128_reduced(), 7);
    let pc = PcIndex::new(0).expect("valid pc");
    let words = 4096u64;

    for backend in [KernelBackend::Scalar, KernelBackend::Auto] {
        let kernel = injector.kernel(backend);
        let name = format!("{backend:?}").to_lowercase();
        let mut group = c.benchmark_group(format!("injector_masks/{name}"));
        group.throughput(Throughput::Elements(words));
        for mv in [1000u32, 950, 900, 860, 830] {
            group.bench_with_input(BenchmarkId::from_parameter(mv), &mv, |b, &mv| {
                let v = Millivolts(mv);
                b.iter(|| {
                    let mut acc = 0u64;
                    for w in 0..words {
                        let (s0, s1) = kernel.masks(pc, WordOffset(w), v);
                        acc += u64::from(s0.count_ones() + s1.count_ones());
                    }
                    acc
                });
            });
        }
        group.finish();
    }
}

criterion_group!(benches, bench_injector);
criterion_main!(benches);
