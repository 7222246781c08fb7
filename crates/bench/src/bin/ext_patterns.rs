//! Extension experiment: data-pattern sensitivity.
//!
//! The study tests all-ones and all-zeros (isolating the two stuck-at
//! polarities). This extension adds checkerboard, walking-ones and PRBS
//! backgrounds: under the stuck-at fault mechanism, every pattern's
//! observed rate is predicted by how many of its bits oppose each stuck
//! polarity — e.g. a checkerboard sees half of each population.

use hbm_device::PcIndex;
use hbm_traffic::DataPattern;
use hbm_undervolt::{Platform, ReliabilityConfig, ReliabilityTester, TestScope, VoltageSweep};
use hbm_units::Millivolts;

fn main() {
    let seed = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(hbm_bench::DEFAULT_SEED);

    let patterns = vec![
        DataPattern::AllOnes,
        DataPattern::AllZeros,
        DataPattern::Checkerboard,
        DataPattern::WalkingOnes,
        DataPattern::Prbs { seed: 99 },
    ];
    let config = ReliabilityConfig {
        sweep: VoltageSweep::new(Millivolts(900), Millivolts(850), Millivolts(10))
            .expect("static sweep"),
        batch_size: 1,
        patterns: patterns.clone(),
        scope: TestScope::SinglePc(PcIndex::new(4).expect("pc4")),
        words_per_pc: Some(4096),
        ..ReliabilityConfig::date21()
    };
    let tester = ReliabilityTester::new(config).expect("config valid");
    let mut platform = Platform::builder().seed(seed).build();
    let report = tester.run(&mut platform).expect("sweep");

    println!(
        "Pattern sensitivity on PC4, {} bits per run (seed {seed})\n",
        report.checked_bits_per_run
    );
    print!("{:>8}", "V");
    for p in &patterns {
        print!("{:>22}", p.to_string());
    }
    println!();
    for point in &report.points {
        print!(
            "{:>8}",
            format!("{:.2}", f64::from(point.voltage.as_u32()) / 1000.0)
        );
        for p in &patterns {
            let rate = report.fault_rate(point.voltage, *p).unwrap();
            print!("{:>22.3e}", rate.as_f64());
        }
        println!();
    }
    println!("\nall-1s tracks the stuck-at-0 population, all-0s the stuck-at-1 one;");
    println!("a checkerboard sees half of each, PRBS about the same; walking-1s is");
    println!("nearly all zeros and so tracks the all-0s rate closely.");
}
