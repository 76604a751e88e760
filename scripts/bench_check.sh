#!/usr/bin/env bash
# Bench regression gate: regenerates the headline benchmark snapshots
# into a temp directory and compares their cycle-count metrics against
# the committed BENCH_*.json at the repo root.
#
#   scripts/bench_check.sh [frames] [tolerance]
#
# `frames` must match what scripts/bench_snapshot.sh used for the
# committed snapshots (default 30). Cycle counts are fully
# deterministic, so the relative tolerance (default 1 %) exists only to
# absorb intentional small cost-model adjustments; wall-clock seconds
# and derived float ratios are not compared.
set -euo pipefail
cd "$(dirname "$0")/.."

FRAMES="${1:-30}"
TOL="${2:-0.01}"

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

echo "bench_check: regenerating snapshots (${FRAMES} frames) ..."
cargo run -q --release -p pimvo-bench --bin exp_all -- "$FRAMES" --out "$tmp" \
    >/dev/null 2>&1

fail=0
check_file() { # $1 = committed snapshot, $2 = fresh snapshot
    local committed="$1" fresh="$2"
    if [ ! -f "$committed" ]; then
        echo "bench_check: missing committed snapshot $committed" >&2
        return 1
    fi
    if [ ! -f "$fresh" ]; then
        echo "bench_check: $(basename "$fresh") was not regenerated" >&2
        return 1
    fi
    awk -v tol="$TOL" -v name="$(basename "$committed")" '
        FNR == 1 { file++ }
        # pretty-printed "key": number lines inside "metrics"
        $1 ~ /^"[a-z0-9_]+":$/ && $2 ~ /^-?[0-9.eE+-]+,?$/ {
            key = $1; gsub(/[":]/, "", key)
            v = $2; gsub(/,/, "", v)
            if (file == 1) a[key] = v; else b[key] = v
        }
        END {
            bad = 0
            for (k in a) {
                # gate deterministic counts only: cycle totals plus the
                # structural counters of the summary report
                if (!(k ~ /_cycles$/ || k == "experiments" || k == "frames" \
                      || k == "features"))
                    continue
                if (!(k in b)) {
                    printf "%s: metric %s missing from fresh run\n", name, k
                    bad = 1; continue
                }
                d = b[k] - a[k]
                if (d < 0) d = -d
                ref = a[k] < 0 ? -a[k] : a[k]
                rel = ref > 0 ? d / ref : d
                if (rel > tol) {
                    printf "%s: %s drifted: committed %s, fresh %s (rel %.4f > %.4f)\n", \
                        name, k, a[k], b[k], rel, tol
                    bad = 1
                }
            }
            exit bad
        }' "$committed" "$fresh"
}

for snap in BENCH_fig9a.json BENCH_fig9b.json BENCH_lowering.json BENCH_scaling.json \
    BENCH_summary.json; do
    if check_file "$snap" "$tmp/$snap"; then
        echo "bench_check: $snap within tolerance"
    else
        fail=1
    fi
done

if [ "$fail" -ne 0 ]; then
    echo "bench_check: FAILED (regenerate with scripts/bench_snapshot.sh if the drift is intentional)" >&2
    exit 1
fi
echo "bench_check: OK"
