#!/usr/bin/env bash
# Repo gate: lint, formatting, the tier-1 build, every workspace test, and
# the hbmctl smokes pinned against committed goldens.
# Run from anywhere; operates on the workspace containing this script.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> tier-1: cargo build --release"
cargo build --release
# The root-package build above does not cover member binaries; the smoke
# runs below need a current hbmctl.
cargo build --release --workspace

# Every test of every workspace member, once: unit, integration, property
# and doc tests. The property tests fix their case counts in-file
# (with_cases), so this run is reproducible.
echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> cargo bench --workspace --no-run"
cargo bench --workspace --no-run

# The end-to-end benchmark is a package of its own, outside the workspace:
# its unit tests, among them the check that BENCHMARK.json declares
# exactly the metrics its binary prints.
echo "==> cargo test --offline --manifest-path e2e-bench/Cargo.toml -q"
cargo test --offline --manifest-path e2e-bench/Cargo.toml -q

# Smoke: a checkpointed supervised sweep resumes from its own file.
echo "==> hbmctl sweep --checkpoint/--resume smoke"
ckpt="$(mktemp -u /tmp/hbmctl-check-XXXXXX.json)"
./target/release/hbmctl sweep --from 900 --to 880 --step 10 --words 8 \
    --checkpoint "$ckpt" >/dev/null
./target/release/hbmctl sweep --from 900 --to 880 --step 10 --words 8 \
    --checkpoint "$ckpt" --resume >/dev/null
rm -f "$ckpt"

# Smoke: the JSONL trace of a fixed-seed sweep is byte-identical across
# worker counts and records the sweep lifecycle.
echo "==> hbmctl sweep --trace-file smoke"
trace1="$(mktemp -u /tmp/hbmctl-trace-w1-XXXXXX.jsonl)"
trace4="$(mktemp -u /tmp/hbmctl-trace-w4-XXXXXX.jsonl)"
./target/release/hbmctl sweep --from 900 --to 880 --step 10 --words 8 \
    --workers 1 --trace-file "$trace1" >/dev/null
./target/release/hbmctl sweep --from 900 --to 880 --step 10 --words 8 \
    --workers 4 --trace-file "$trace4" >/dev/null
cmp "$trace1" "$trace4"
grep -q SweepCompleted "$trace1"
rm -f "$trace1" "$trace4"

# Smoke: fixed-seed sweeps are byte-identical to committed goldens at 1
# and 4 workers — a 5 mV grid over 512 words that ends in two crashed
# points, and a 10 mV grid over 5000 words.
echo "==> hbmctl sweep golden smoke"
for workers in 1 4; do
    ./target/release/hbmctl sweep --seed 7 --from 950 --to 800 --step 5 \
        --words 512 --format csv --workers "$workers" \
        2>/dev/null | cmp - scripts/golden/sweep_coupled_bit.csv
    ./target/release/hbmctl sweep --seed 7 --from 950 --to 800 --step 10 \
        --words 5000 --format csv --workers "$workers" \
        2>/dev/null | cmp - scripts/golden/sweep_coupled_word.csv
done

# Smoke: the paper's own sweep, 1.20 -> 0.81 V over 8192 words, is
# byte-identical to a committed golden at 1, 2 and 4 workers. Its ports'
# descents are sharded across the workers.
echo "==> hbmctl sweep paper golden smoke"
for workers in 1 2 4; do
    ./target/release/hbmctl sweep --seed 7 --from 1200 --to 810 --step 10 \
        --words 8192 --format csv --workers "$workers" \
        2>/dev/null | cmp - scripts/golden/sweep_paper.csv
done

# Smoke: every paper figure table (Figs. 2-6, the guardband, the
# calibration and the capacity/bandwidth plan), byte-identical to a
# committed golden.
echo "==> all_figures golden smoke"
./target/release/all_figures | cmp - scripts/golden/all_figures.txt

# Smoke: a small fleet sweep persists a columnar artifact the query and
# summary paths can read, and its JSON export is byte-identical to the
# committed golden — any drift in the engine, the artifact codec or the
# export serialization fails the gate.
echo "==> hbmctl fleet sweep/query/export smoke"
hbfa="$(mktemp -u /tmp/hbmctl-fleet-XXXXXX.hbfa)"
fjson="$(mktemp -u /tmp/hbmctl-fleet-XXXXXX.json)"
./target/release/hbmctl fleet sweep --devices 4 --words 8 \
    --from 960 --to 820 --step 20 --weak-reference 900 \
    --out "$hbfa" >/dev/null
./target/release/hbmctl fleet query --artifact "$hbfa" --device 2 >/dev/null
./target/release/hbmctl fleet summary --artifact "$hbfa" >/dev/null
./target/release/hbmctl fleet export --artifact "$hbfa" >"$fjson"
cmp "$fjson" scripts/golden/fleet_smoke.json
rm -f "$hbfa" "$fjson"

# Smoke: sweep -> compress -> fidelity -> serve. The LDJSON answers a
# serve session gives from the compressed (model-only) artifact must be
# byte-identical to the committed golden — recommendation routing, the
# typed error surface and the wire format are all pinned at once.
echo "==> hbmctl fleet compress/fidelity/serve smoke"
hbfa="$(mktemp -u /tmp/hbmctl-fleet-exact-XXXXXX.hbfa)"
chbfa="$(mktemp -u /tmp/hbmctl-fleet-model-XXXXXX.hbfa)"
sjson="$(mktemp -u /tmp/hbmctl-serve-XXXXXX.jsonl)"
./target/release/hbmctl fleet sweep --devices 3 --words 8 \
    --from 960 --to 820 --step 20 --weak-reference 900 \
    --out "$hbfa" >/dev/null
khbfa="$(mktemp -u /tmp/hbmctl-fleet-keep-XXXXXX.hbfa)"
./target/release/hbmctl fleet compress --artifact "$hbfa" \
    --out "$chbfa" >/dev/null
./target/release/hbmctl fleet compress --artifact "$hbfa" \
    --out "$khbfa" --keep-exact >/dev/null
./target/release/hbmctl fleet fidelity --artifact "$hbfa" >/dev/null
printf '%s\n' \
    '{"Recommend":{"device_id":1,"target_rate":0.01,"min_pcs":16}}' \
    '"Summary"' \
    '{"Recommend":{"device_id":1,"target_rate":0.0,"min_pcs":16}}' \
    'not json' \
    | ./target/release/hbmctl serve --artifact "$chbfa" 2>/dev/null >"$sjson"
cmp "$sjson" scripts/golden/serve_smoke.jsonl

# Serve-concurrency smoke: the pipeline's in-order emitter makes the
# worker count throughput-only — the same request file must produce
# byte-identical output at 1 and 4 workers.
echo "==> serve-concurrency smoke"
s1json="$(mktemp -u /tmp/hbmctl-serve-w1-XXXXXX.jsonl)"
s4json="$(mktemp -u /tmp/hbmctl-serve-w4-XXXXXX.jsonl)"
printf '%s\n' \
    '{"Recommend":{"device_id":1,"target_rate":0.01,"min_pcs":16}}' \
    '"Summary"' \
    '{"Recommend":{"device_id":0,"target_rate":0.001,"min_pcs":16}}' \
    '{"Recommend":{"device_id":2,"target_rate":0.0001,"min_pcs":16}}' \
    'not json' \
    '{"Recommend":{"device_id":9,"target_rate":0.01,"min_pcs":16}}' \
    | ./target/release/hbmctl serve --artifact "$chbfa" \
        --serve-workers 1 2>/dev/null >"$s1json"
printf '%s\n' \
    '{"Recommend":{"device_id":1,"target_rate":0.01,"min_pcs":16}}' \
    '"Summary"' \
    '{"Recommend":{"device_id":0,"target_rate":0.001,"min_pcs":16}}' \
    '{"Recommend":{"device_id":2,"target_rate":0.0001,"min_pcs":16}}' \
    'not json' \
    '{"Recommend":{"device_id":9,"target_rate":0.01,"min_pcs":16}}' \
    | ./target/release/hbmctl serve --artifact "$chbfa" \
        --serve-workers 4 2>/dev/null >"$s4json"
cmp "$s1json" "$s4json"
# The same at scale: 2,400 request lines, far more than stdin's 8 KiB
# buffer, so chunks and lines straddle buffer refills. Every non-blank
# line gets exactly one response.
sreq="$(mktemp -u /tmp/hbmctl-serve-requests-XXXXXX.jsonl)"
awk 'BEGIN {
    for (i = 0; i < 2400; i++) {
        kind = i % 8
        if (kind == 5) print "\"Summary\""
        else if (kind == 6) print "not json"
        else if (kind == 7) print (i % 16 == 7 ? "" : "   ")
        else printf "{\"Recommend\":{\"device_id\":%d,\"target_rate\":%g,\"min_pcs\":16}}\n", i % 4, 10 ^ -(1 + i % 4)
    }
}' >"$sreq"
./target/release/hbmctl serve --artifact "$chbfa" --serve-workers 1 \
    <"$sreq" 2>/dev/null >"$s1json"
./target/release/hbmctl serve --artifact "$chbfa" --serve-workers 4 \
    <"$sreq" 2>/dev/null >"$s4json"
cmp "$s1json" "$s4json"
test "$(wc -l <"$s4json")" -eq "$(grep -c '[^[:space:]]' "$sreq")"
# Evidence routing never changes bytes: the artifact that kept its exact
# FAULTS column answers from the stored counts where the model-only one
# rescans or reads its rescan cache, and the output is the same.
./target/release/hbmctl serve --artifact "$khbfa" --serve-workers 4 \
    <"$sreq" 2>/dev/null >"$s1json"
cmp "$s1json" "$s4json"
rm -f "$hbfa" "$chbfa" "$khbfa" "$sjson" "$s1json" "$s4json" "$sreq"

# Smoke: a flip-only throughput descent and a latency-budgeted descent on
# the same seed, pinned byte-for-byte against committed goldens — and the
# headline result re-derived from them: the latency-aware governor settles
# strictly higher than the throughput one.
echo "==> hbmctl governor latency-vs-throughput smoke"
gthr="$(mktemp -u /tmp/hbmctl-governor-thr-XXXXXX.csv)"
glat="$(mktemp -u /tmp/hbmctl-governor-lat-XXXXXX.csv)"
./target/release/hbmctl governor --workload throughput --canary-words 64 \
    --format csv >"$gthr"
./target/release/hbmctl governor --workload latency --latency-budget 33 \
    --canary-words 64 --format csv >"$glat"
cmp "$gthr" scripts/golden/governor_throughput.csv
cmp "$glat" scripts/golden/governor_latency.csv
thr_mv="$(awk -F, 'NR==2{print $3}' "$gthr")"
lat_mv="$(awk -F, 'NR==2{print $3}' "$glat")"
test "$lat_mv" -gt "$thr_mv"
rm -f "$gthr" "$glat"

# Forced-crash trace: the recovery story must appear as typed events.
tracec="$(mktemp -u /tmp/hbmctl-trace-crash-XXXXXX.jsonl)"
ckptc="$(mktemp -u /tmp/hbmctl-check-crash-XXXXXX.json)"
./target/release/hbmctl sweep --from 850 --to 790 --step 10 --words 8 \
    --transient-prob 1 --retries 2 --checkpoint "$ckptc" \
    --trace-file "$tracec" >/dev/null
for event in RetryScheduled PowerCycled CheckpointWritten SweepCompleted; do
    grep -q "$event" "$tracec"
done
rm -f "$tracec" "$ckptc"

echo "All checks passed."
