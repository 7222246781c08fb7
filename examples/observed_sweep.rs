//! Observed sweep: the same crash-heavy supervised campaign as
//! `resilient_sweep`, but watched through the telemetry layer. A JSONL
//! trace sink and a human progress sink are attached to the run; the
//! example prints the progress narration as it happens, then dissects the
//! recorded trace — event counts by type, retries, power cycles and the
//! final counter snapshot.
//!
//! Run with: `cargo run --release --example observed_sweep [seed]`

use std::collections::BTreeMap;

use hbm_undervolt_suite::device::TransientCrashModel;
use hbm_undervolt_suite::traffic::DataPattern;
use hbm_undervolt_suite::undervolt::telemetry::{
    JsonlSink, ProgressSink, SharedBuffer, Telemetry, TraceRecord,
};
use hbm_undervolt_suite::undervolt::{
    summarize, ReliabilityConfig, RetryPolicy, SweepConfig, VoltageSweep,
};
use hbm_units::Millivolts;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let seed = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(11);

    // A campaign across the crash cliff on a specimen with flaky
    // transients, so the trace has a recovery story to tell.
    let mut measurement = ReliabilityConfig::quick();
    measurement.sweep = VoltageSweep::new(Millivolts(860), Millivolts(790), Millivolts(10))?;
    measurement.batch_size = 1;
    measurement.words_per_pc = Some(64);
    measurement.patterns = vec![DataPattern::AllOnes, DataPattern::AllZeros];

    let campaign = SweepConfig::from_reliability(measurement)
        .seed(seed)
        .transient_crashes(TransientCrashModel::new(0.4, Millivolts(40)))
        .retry_policy(RetryPolicy::new(3));

    // Two observers on one hub: the machine-readable trace accumulates in
    // a buffer (hbmctl writes it to --trace-file instead), the progress
    // narration goes straight to stderr.
    let trace = SharedBuffer::new();
    let mut telemetry = Telemetry::new();
    telemetry.add_observer(Box::new(JsonlSink::new(trace.clone())));
    telemetry.add_observer(Box::new(ProgressSink::new(std::io::stderr())));

    let report = campaign.run_observed(&telemetry)?;
    telemetry.finish();
    println!("{}", summarize(&report));

    // The trace is one JSON record per line; tally the event types.
    let mut counts: BTreeMap<String, usize> = BTreeMap::new();
    for line in trace.contents().lines() {
        let record: TraceRecord = serde_json::from_str(line)?;
        let name = serde_json::to_string(&record.event)?;
        let name = name
            .trim_start_matches(['{', '"'])
            .split('"')
            .next()
            .unwrap_or("?")
            .to_owned();
        *counts.entry(name).or_default() += 1;
    }
    println!("\nevent counts:");
    for (event, n) in &counts {
        println!("  {event:<20} {n}");
    }

    let snapshot = telemetry.metrics().snapshot();
    println!("\ncounters:");
    println!("  words scanned        {}", snapshot.words_scanned);
    println!("  masks scanned        {}", snapshot.masks_scanned);
    println!(
        "  retries (backoff ms) {} ({})",
        snapshot.retries, snapshot.retry_backoff_ms
    );
    println!("  power cycles         {}", snapshot.power_cycles);
    Ok(())
}
