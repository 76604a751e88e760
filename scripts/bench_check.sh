#!/usr/bin/env bash
# Bench regression gate: regenerates every snapshot exp_all writes into
# a temp directory and compares it exactly against the committed
# BENCH_*.json at the repo root.
#
#   scripts/bench_check.sh [frames]
#
# `frames` must match what scripts/bench_snapshot.sh used for the
# committed snapshots (default 30). The simulation is deterministic, so
# every metric except wall_seconds must match byte for byte, and no
# metric may appear or vanish; regenerate with scripts/bench_snapshot.sh
# when a change moves a number on purpose.
set -euo pipefail
cd "$(dirname "$0")/.."

FRAMES="${1:-30}"
# every BENCH file exp_all writes
SNAPSHOTS="table1 fig9a fig9b lowering fig10a fig10b energy instr_mix scaling summary"

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

echo "bench_check: regenerating snapshots (${FRAMES} frames) ..."
cargo run -q --release -p pimvo-bench --bin exp_all -- "$FRAMES" --out "$tmp" \
    >/dev/null 2>&1

# the "key": value lines of a snapshot's metrics, wall_seconds left out
metrics() {
    awk '/"metrics": \{/ { on = 1; next } on && /^  \}/ { on = 0 } on' "$1" |
        sed 's/,$//' | grep -v '"wall_seconds":'
}

fail=0
for name in $SNAPSHOTS; do
    snap="BENCH_$name.json"
    if [ ! -f "$snap" ] || [ ! -f "$tmp/$snap" ]; then
        echo "bench_check: $snap missing (committed or fresh)" >&2
        fail=1
    elif diff <(metrics "$snap") <(metrics "$tmp/$snap") >"$tmp/$name.diff"; then
        echo "bench_check: $snap matches"
    else
        echo "bench_check: $snap drifted (< committed, > fresh):" >&2
        cat "$tmp/$name.diff" >&2
        fail=1
    fi
done
for fresh in "$tmp"/BENCH_*.json; do
    name="$(basename "$fresh" .json)"
    case " $SNAPSHOTS " in
    *" ${name#BENCH_} "*) ;;
    *)
        echo "bench_check: exp_all wrote $name.json, which this gate does not list" >&2
        fail=1
        ;;
    esac
done

if [ "$fail" -ne 0 ]; then
    echo "bench_check: FAILED (regenerate with scripts/bench_snapshot.sh if the change is intentional)" >&2
    exit 1
fi
echo "bench_check: OK"
