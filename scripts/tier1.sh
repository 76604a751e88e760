#!/usr/bin/env bash
# Tier-1 verification: what every PR must keep green.
#
#   fmt check -> one-codec check -> one-front-end check ->
#   one-execution-surface check -> one-DMA-schedule check ->
#   one-wave-path check -> one-lowering-pipeline check -> one-build
#   check -> one-session-path check -> one-pool-state check ->
#   one-experiment-table check -> one-dependency-graph check -> build
#   (release) -> workspace tests -> clippy (-D warnings)
#   -> rustdoc (-D warnings) -> IR golden snapshots -> smokes ->
#   RESULTS.txt freshness -> bench gates
#
# Every step is mandatory. The formatter and clippy gates run the
# pinned workspace toolchain, so lint results are reproducible.
set -uo pipefail
cd "$(dirname "$0")/.."

# scratch directories of the determinism check and the smokes, removed
# on exit however the run ends
det_a="$(mktemp -d)"; det_b="$(mktemp -d)"; chaos_out="$(mktemp -d)"
trap 'rm -rf "$det_a" "$det_b" "$chaos_out"' EXIT

fail=0
step() {
    echo
    echo "==> $*"
    if ! "$@"; then
        echo "FAILED: $*" >&2
        fail=1
    fi
}

step cargo fmt --check
# one durable-container codec: the CRC, the fsync and the atomic rename
# are defined only in pimvo_telemetry::container, never re-implemented
one_codec() {
    ! git grep -n -e 'fn crc32' -e 'sync_all(' -e 'fs::rename(' -- \
        'crates/**/*.rs' ':!crates/telemetry/src/container.rs'
}
step one_codec
# one kernel front end: edge kernels run only through EdgeKernels and
# pose batches only through BatchRunner, on a pool (one machine is a
# pool of one). ir.rs builds programs and never touches a machine, no
# bare-machine runner or per-call pass-list twin comes back, a pose
# batch executes only inside pim_exec.rs (submit, and batch_cost on its
# scratch array), and no isolation door for a probe on a live array
# returns
one_front_end() {
    ! git grep -n -w 'PimMachine' -- crates/kernels/src/ir.rs &&
        ! git grep -n -E -e 'fn run_batch' -e 'fn .*_with_passes' -- 'crates/**/*.rs' &&
        ! git grep -n -F 'exec_batch(' -- '*.rs' ':!crates/core/src/pim_exec.rs' &&
        ! git grep -n -w 'with_probe_isolation' -- '*.rs'
}
step one_front_end
# one execution surface: the machine computes only lowered instructions
# (run_program, execute), so no crate outside pimvo-pim builds a
# MachineInstr, and machine.rs exports none of the removed per-op methods
one_execution_surface() {
    ! git grep -n -w 'MachineInstr' -- '*.rs' ':!crates/pim/' &&
        ! git grep -n -E 'pub fn (alu|shift_pix|shr_bits|shl_bits|mul|mul_signed|div|rem|div_frac|div_frac_signed|neg|sat_narrow|writeback|reduce_sum|save_tmp)\b' \
            -- crates/pim/src/machine.rs
}
step one_execution_surface
# one DMA transfer schedule: host writes are StripIn, host reads
# StripOut, run_program waits for inbound strips and dma_settle drains
# everything; the next-frame prefetch path does not come back
one_dma_schedule() {
    ! git grep -n -w -e PyramidPrefetch -e edge_detect_pipelined -e prefetch_image_rows \
        -e set_transfer_kind -- '*.rs'
}
step one_dma_schedule
# one wave path: a pool runs every wave's shards inline, in member
# order, on the calling thread; no per-wave thread fan-out comes back
one_wave_path() {
    ! git grep -n -e 'thread::scope' -e 'thread::spawn' -- crates/pim/src
}
step one_wave_path
# one lowering pipeline: Opt is shift fusion plus list scheduling, and
# the clobber rescue is the one path for a row overwritten while its
# value is live; the deleted rewrite, dead-store and layout passes and
# the IR copy op they produced do not come back
one_lowering_pipeline() {
    ! git grep -n -e Peephole -e EliminateDeadStores -e layout_plan -e planned_spills \
        -e 'MacroOp::Load' -- crates/
}
step one_lowering_pipeline
# one build: fault injection compiles and runs in the default build (no
# cargo feature gates it), the frame budget counts simulated cycles
# only, and the pool's retry, quarantine and probation settings are
# constants; none of the deleted switches comes back (the bracketed
# patterns keep this step from matching its own text)
one_build() {
    ! git grep -n -e 'feature = "fault["]' -e 'features[ ]fault' -e 'wall_ns_per_fram[e]' \
        -e 'RetryPolic[y]' -e 'interval_phase[s]' -e 'set_scru[b]' -- crates/ examples/ scripts/ src/ tests/
}
step one_build
# one session path: a tracker is built one way (Tracker::new or
# with_backend), its budget lives only in the supervisor, every frame
# takes one path, and a fleet session's rung has one controller; the
# deleted builder, flags, constructors, knobs and duplicate enum do not
# come back (the bracketed patterns keep this step from matching its
# own text)
one_session_path() {
    ! git grep -n -e 'TrackerBuilde[r]' -e 'supervised: boo[l]' -e 'fn with_inter[p]' \
        -e 'fn with_poo[l]' -e 'spec\.priorit[y]' -e 'OpClas[s]' -e 'half_exten[t]' \
        -e 'base_ro[w]' -e 'pub frame_budget_cycle[s]' -e 'frame_budget_cycle[s]:' \
        -- crates/ examples/ src/ tests/
}
step one_session_path
# one pool state and one pool snapshot: each array's membership is one
# ArrayState, and pool health persists through one PoolSnapshot codec
# and one PimArrayPool::restore; the parallel per-array membership
# vectors and the extra restore entry points do not come back (the
# bracketed patterns keep this step from matching its own text)
one_pool_state() {
    ! git grep -n -e 'import_healt[h]' -e 'restore_probatio[n]' -e 'rehabilitated: Ve[c]' \
        -e 'probation: Ve[c]' -- crates/
}
step one_pool_state
# one experiment table: every paper target of the experiments exp_all
# runs is quoted once, in crates/bench/src/experiments.rs, and exp_all
# is their one entry point; no cited quote or paper note outside the
# table and no per-experiment wrapper binary comes back (the bracketed
# patterns keep this step from matching its own text)
one_experiment_table() {
    ! git grep -n -e '(paper[:]' -e 'note("pape[r]"' -- crates/bench/src \
        ':!crates/bench/src/experiments.rs' &&
        ! git ls-files -co --exclude-standard -- 'crates/bench/src/bin/exp_*.rs' |
            grep -v -x -e 'crates/bench/src/bin/exp_al[l].rs' \
                -e 'crates/bench/src/bin/exp_fig[8].rs' -e 'crates/bench/src/bin/exp_nois[e].rs'
}
step one_experiment_table
# one dependency graph: every pimvo-* crate a [dependencies] table of
# the root or a member names is imported under that package's src/, so
# no edge is dead, and the deleted fixed-point crate does not come back
# (the bracketed patterns keep this step from matching its own text)
one_dependency_graph() {
    local dead=0 manifest dir dep
    for manifest in Cargo.toml crates/*/Cargo.toml; do
        dir="$(dirname "$manifest")"
        for dep in $(awk '/^\[/ { on = ($0 == "[dependencies]") }
                on && /^pimvo-/ { sub(/[ .=].*/, ""); print }' "$manifest"); do
            if ! grep -rqw -- "${dep//-/_}" "$dir/src"; then
                echo "$manifest: $dep is never imported under $dir/src" >&2
                dead=1
            fi
        done
    done
    [ "$dead" -eq 0 ] &&
        ! git ls-files -co --exclude-standard -- 'crates/fixe[d]/*' | grep . &&
        ! git grep -n -E 'pimvo[_-]fixe[d]' -- Cargo.toml Cargo.lock crates/ examples/ \
            scripts/ src/ tests/
}
step one_dependency_graph
step cargo build --release
# every test, the fault-injection ones included, in the one build
step cargo test -q --workspace
step cargo clippy --all-targets --all-features -- -D warnings
# rustdoc, warnings as errors (vendored dep stubs excluded: their docs
# mirror the upstream crates, not this project)
step env RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace \
    --exclude proptest --exclude criterion

# golden IR snapshots: regenerate the kernel/pose program listings and
# fail if they drift from the committed out/ir_*.txt, so any change to
# the IR builders or the lowering pass shows up as a reviewable diff
step cargo run -q --release --example dump_ir
step git diff --exit-code -- 'out/ir_*.txt'

# lowering determinism: two cold dump_ir runs (separate processes,
# fresh lowered-program caches, --report included so the per-pass
# statistics are covered too) must be byte-identical
step cargo run -q --release --example dump_ir -- "$det_a" --report
step cargo run -q --release --example dump_ir -- "$det_b" --report
step diff -r "$det_a" "$det_b"

# Fig. 7 walk-through: the playground runs one-op programs and asserts
# |121-106| = 15, min/max, 13x11 = 143 in n+2 = 10 cycles and 15/6 = 2
step cargo run -q --release --example pim_playground

# bounded chaos smoke: kill-and-restore, snapshot corruption, budget
# squeezes and quarantine storms must hold every invariant (exit 0)
step cargo run -q --release -p pimvo-bench --bin chaos_soak -- \
    --frames 30 --seed 1 --out "$chaos_out"
# checkpoint round trip through the example: snapshot a run, resume it
# (interval chosen so the last snapshot leaves frames to replay)
step cargo run -q --release --example track_sequence -- \
    xyz pim 20 "$chaos_out" 1 --checkpoint-every 8
step cargo run -q --release --example track_sequence -- \
    xyz pim 20 "$chaos_out" 1 --resume "$chaos_out/track_sequence.ckpt"
# dma-overlap smoke: the modeled host<->array channels must be fully
# deterministic — two identical runs, byte-identical op traces
step cargo run -q --release --example track_sequence -- \
    xyz pim 12 --dma-overlap --trace-bin "$chaos_out/dma_a.bin"
step cargo run -q --release --example track_sequence -- \
    xyz pim 12 --dma-overlap --trace-bin "$chaos_out/dma_b.bin"
step cmp "$chaos_out/dma_a.bin" "$chaos_out/dma_b.bin"
# dma-fault smoke: a seeded transfer-fault storm on the same channels
# (CRC retries, timeouts, channel quarantine) must finish the run
step cargo run -q --release --example track_sequence -- \
    xyz pim 12 --dma-fault-rate 0.3
# fleet-soak smoke: 4 sessions x 2 arrays, ~50 frames through the
# pimvo-serve scheduler (admission control, EDF, shed ladder) must
# complete and emit a report
step cargo run -q --release -p pimvo-bench --bin fleet_soak -- \
    --sessions 4 --arrays 2 --frames 13 --out "$chaos_out"
# fleet-chaos smoke: defect storm + breaker trip + scrub recovery +
# kill-and-recover must hold every invariant, and the report must be
# byte-identical across two runs of the same seed
fc_a="$chaos_out/fc_a"; fc_b="$chaos_out/fc_b"
step cargo run -q --release -p pimvo-bench --bin fleet_chaos -- \
    --frames 16 --sessions 2 --arrays 3 --out "$fc_a"
step cargo run -q --release -p pimvo-bench --bin fleet_chaos -- \
    --frames 16 --sessions 2 --arrays 3 --out "$fc_b"
step cmp "$fc_a/BENCH_fleet_chaos.json" "$fc_b/BENCH_fleet_chaos.json"
# op-trace smoke: record -> decode -> profile twice; the binary trace,
# the rendered attribution table and BENCH_profile.json must be
# byte-identical across runs, and the table must match the committed
# golden out/profile_fig9a.txt
tp_a="$chaos_out/tp_a"; tp_b="$chaos_out/tp_b"
step cargo run -q --release -p pimvo-bench --bin trace_profile -- --out "$tp_a"
step cargo run -q --release -p pimvo-bench --bin trace_profile -- --out "$tp_b"
step cmp "$tp_a/trace_fig9a.bin" "$tp_b/trace_fig9a.bin"
step cmp "$tp_a/BENCH_profile.json" "$tp_b/BENCH_profile.json"
step cmp "$tp_a/profile_fig9a.txt" out/profile_fig9a.txt
# RESULTS.txt stays fresh: exp_all at its default frame count (its
# BENCH snapshots go to a temp dir) reproduces the committed report
# byte for byte
results_fresh() {
    cargo run -q --release -p pimvo-bench --bin exp_all -- --out "$chaos_out" \
        > "$chaos_out/RESULTS.txt" 2> "$chaos_out/exp_all.log" &&
        cmp "$chaos_out/RESULTS.txt" RESULTS.txt
}
step results_fresh

# bench regression gate: every metric exp_all writes, wall time aside,
# must match the committed BENCH_*.json snapshots exactly
step scripts/bench_check.sh

# host-time benchmark smoke: the hostbench crate builds against the
# workspace's public API and runs every workload briefly, so an API
# removal that breaks the benchmark fails here
step cargo run --release --quiet --offline --manifest-path hostbench/Cargo.toml -- --smoke

if [ "$fail" -ne 0 ]; then
    echo
    echo "tier-1: FAILED" >&2
    exit 1
fi
echo
echo "tier-1: OK"
