#!/usr/bin/env bash
# Regenerates the machine-readable benchmark snapshots (BENCH_*.json)
# at the repo root. Runs a reduced frame count so the cycle-accurate
# simulation stays affordable; pass a frame count to override.
#
#   scripts/bench_snapshot.sh [frames]
#
# exp_all writes one BENCH_<experiment>.json per experiment plus
# BENCH_summary.json; fault_sweep adds BENCH_fault_sweep.json.
# RESULTS.txt is the canonical exp_all report at its default frame
# count (the run EXPERIMENTS.md describes).
set -euo pipefail
cd "$(dirname "$0")/.."

FRAMES="${1:-30}"

cargo run --release -p pimvo-bench --bin exp_all -- "$FRAMES" --out .
# (its own BENCH_*.json go to a scratch dir: the committed ones are the
# reduced-frame snapshots above)
results_bench="$(mktemp -d)"
cargo run --release -p pimvo-bench --bin exp_all -- --out "$results_bench" > RESULTS.txt
rm -rf "$results_bench"
cargo run --release -p pimvo-bench --bin fault_sweep -- 10
# fleet-soak sweep: {1,4,16} sessions x {2,4,8} arrays through the
# pimvo-serve scheduler -> BENCH_fleet.json
cargo run --release -p pimvo-bench --bin fleet_soak -- --out .
# self-healing fleet soak: defect storm -> scrub/remap recovery ->
# kill + manifest replay -> BENCH_fleet_chaos.json
cargo run --release -p pimvo-bench --bin fleet_chaos -- --out .
# op-trace critical-path profile: refreshes the committed golden
# out/profile_fig9a.txt plus out/BENCH_profile.json
cargo run --release -p pimvo-bench --bin trace_profile -- --out out >/dev/null

echo
echo "bench snapshot written:"
ls -1 BENCH_*.json out/BENCH_profile.json
