//! Full sequence tracking with evaluation: generates one of the three
//! synthetic sequence profiles, tracks it with the chosen backend, and
//! reports RPE/ATE plus the backend's cycle/energy bill. Optionally
//! writes the trajectories in TUM format and, with the telemetry
//! flags, a Perfetto trace / metrics snapshot / JSONL event log of the
//! whole run.
//!
//! ```sh
//! cargo run --release --example track_sequence -- desk pim 90
//! cargo run --release --example track_sequence -- xyz float 60 out/ 3   # 3 pyramid levels
//! cargo run --release --example track_sequence -- desk pim 30 \
//!     --trace-out trace.json --metrics-out metrics.txt --log-jsonl events.jsonl
//! cargo run --release --example track_sequence -- desk pim 30 \
//!     --trace-bin trace.bin --flight-recorder 4
//! cargo run --release --example track_sequence -- xyz pim 30 --dma-overlap
//! cargo run --release --example track_sequence -- xyz pim 30 --dma-fault-rate 0.2
//! ```
//!
//! `--dma-overlap` attaches modeled host↔array DMA channels: host
//! reads of result rows overlap the compute that follows, host writes
//! are waited for by the next program (bit-identical poses, fewer wall
//! cycles);
//! `--dma-fault-rate R` (implies `--dma-overlap`) additionally runs a
//! seeded transfer-fault storm against those channels — poses must not
//! move.
//!
//! Open `trace.json` at <https://ui.perfetto.dev> to see the
//! frame → stage → pool-phase → shard span hierarchy in both the
//! wall-time and PIM-cycle tracks.
//!
//! `--trace-bin FILE` arms the PIM pool's op recorders and writes the
//! whole run as one dependency-tracked binary trace (profile it with
//! the `trace_profile` tooling in `pimvo-bench`). `--flight-recorder N`
//! keeps the op traces of the last N frames in a ring and writes a
//! flight-recorder dump at the end of the run — reason `deadline` if
//! any budgeted frame overran, `manual` otherwise. Both flags need the
//! `pim` backend.

use pimvo::core::{BackendKind, Checkpoint, Tracker, TrackerConfig};
use pimvo::scene::{ate_rmse, format_tum, rpe_rmse, Sequence, SequenceKind, Trajectory};
use pimvo::serve::{DumpReason, FlightDump, FlightFrame};
use pimvo::telemetry::optrace::OpTrace;
use pimvo::telemetry::Telemetry;
use std::collections::VecDeque;
use std::env;

fn usage() -> ! {
    eprintln!(
        "usage: track_sequence [xyz|desk|str_ntex_far|pan] [float|pim] [frames>=2] \
         [out_dir] [pyramid_levels]\n       \
         [--trace-out FILE] [--metrics-out FILE] [--log-jsonl FILE]\n       \
         [--checkpoint-every N] [--resume FILE] [--frame-budget-cycles K]\n       \
         [--trace-bin FILE] [--flight-recorder N]\n       \
         [--dma-overlap] [--dma-fault-rate R]"
    );
    std::process::exit(2)
}

fn main() {
    // split "--flag value" pairs from the positional arguments
    let mut positional: Vec<String> = Vec::new();
    let mut trace_out: Option<String> = None;
    let mut metrics_out: Option<String> = None;
    let mut log_jsonl: Option<String> = None;
    let mut checkpoint_every: Option<String> = None;
    let mut resume: Option<String> = None;
    let mut frame_budget: Option<String> = None;
    let mut trace_bin: Option<String> = None;
    let mut flight_recorder: Option<String> = None;
    let mut dma_overlap = false;
    let mut dma_fault_rate: Option<String> = None;
    let mut args = env::args().skip(1);
    while let Some(a) = args.next() {
        let mut flag = |dst: &mut Option<String>| match args.next() {
            Some(v) => *dst = Some(v),
            None => usage(),
        };
        match a.as_str() {
            "--trace-out" => flag(&mut trace_out),
            "--metrics-out" => flag(&mut metrics_out),
            "--log-jsonl" => flag(&mut log_jsonl),
            "--checkpoint-every" => flag(&mut checkpoint_every),
            "--resume" => flag(&mut resume),
            "--frame-budget-cycles" => flag(&mut frame_budget),
            "--trace-bin" => flag(&mut trace_bin),
            "--flight-recorder" => flag(&mut flight_recorder),
            "--dma-overlap" => dma_overlap = true,
            "--dma-fault-rate" => flag(&mut dma_fault_rate),
            "--help" | "-h" => usage(),
            _ => positional.push(a),
        }
    }
    let checkpoint_every: Option<usize> =
        checkpoint_every.map(|v| v.parse().unwrap_or_else(|_| usage()));
    let frame_budget: Option<u64> = frame_budget.map(|v| v.parse().unwrap_or_else(|_| usage()));
    let flight_recorder: Option<usize> = flight_recorder.map(|v| {
        let n = v.parse().unwrap_or_else(|_| usage());
        if n == 0 {
            eprintln!("error: --flight-recorder needs at least 1 frame");
            usage();
        }
        n
    });
    let dma_fault_rate: Option<f64> = dma_fault_rate.map(|v| {
        let r: f64 = v.parse().unwrap_or_else(|_| usage());
        if !(0.0..1.0).contains(&r) {
            eprintln!("error: --dma-fault-rate needs a rate in [0, 1)");
            usage();
        }
        r
    });
    // a fault sweep only makes sense on the modeled channels
    if dma_fault_rate.is_some() {
        dma_overlap = true;
    }

    let kind = match positional.first().map(String::as_str) {
        Some("xyz") | None => SequenceKind::Xyz,
        Some("desk") => SequenceKind::Desk,
        Some("str_ntex_far") => SequenceKind::StrNtexFar,
        Some("pan") => SequenceKind::Pan,
        Some(_) => usage(),
    };
    let backend = match positional.get(1).map(String::as_str) {
        Some("float") => BackendKind::Float,
        Some("pim") | None => BackendKind::Pim,
        Some(_) => usage(),
    };
    let frames: usize = positional
        .get(2)
        .map(|a| a.parse().unwrap_or_else(|_| usage()))
        .unwrap_or(90);
    if frames < 2 {
        eprintln!("error: need at least 2 frames to evaluate drift");
        usage();
    }

    let levels: usize = positional
        .get(4)
        .map(|a| a.parse().unwrap_or_else(|_| usage()))
        .unwrap_or(1);

    println!("generating {} frames of '{}'...", frames, kind.name());
    let seq = Sequence::generate(kind, frames);

    let config = TrackerConfig {
        pyramid_levels: levels,
        build_map: positional.get(3).is_some(), // reconstruct when exporting
        ..TrackerConfig::default()
    };
    let mut tracker = Tracker::new(config, backend);
    if dma_overlap {
        let Some(pool) = tracker.pool_mut() else {
            eprintln!("error: --dma-overlap / --dma-fault-rate need the pim backend");
            usage();
        };
        pool.set_dma(Some(pimvo::pim::DmaConfig::default()));
    }
    if let Some(rate) = dma_fault_rate {
        // R is the total per-attempt fault probability, split 60 %
        // payload flips / 30 % stalls / 10 % dropped completions
        let model = pimvo::pim::DmaFaultModel::new(0xd3a0_cafe, rate * 0.6, rate * 0.3, rate * 0.1);
        tracker
            .pool_mut()
            .expect("pim backend checked above")
            .set_dma_fault(model);
        println!("dma faults     : seeded transfer storm, total rate {rate}");
    }
    let telemetry = if trace_out.is_some() || metrics_out.is_some() || log_jsonl.is_some() {
        let t = Telemetry::new();
        tracker.set_telemetry(t.clone());
        Some(t)
    } else {
        None
    };
    if let Some(cycles) = frame_budget {
        tracker.set_frame_budget_cycles(Some(cycles));
        println!("frame budget   : {cycles} PIM/MCU cycles per frame");
    }

    // Op tracing: arm the pool's dependency-tracked recorders. The
    // flight ring drains per frame (each FlightFrame scopes exactly one
    // frame's pool work); a bare --trace-bin drains once at the end so
    // cross-frame serial edges survive.
    let mut flight_ring: VecDeque<FlightFrame> = VecDeque::new();
    let mut merged_trace = OpTrace::new();
    let mut last_wall = 0u64;
    if trace_bin.is_some() || flight_recorder.is_some() {
        match tracker.pool_mut() {
            Some(pool) => {
                pool.arm_op_recorders(pimvo::pim::DEFAULT_OP_RING_CAPACITY);
                last_wall = pool.wall_cycles();
            }
            None => {
                eprintln!("error: --trace-bin / --flight-recorder need the pim backend");
                usage();
            }
        }
    }

    // Resume mid-sequence from a snapshot: restore the tracker and skip
    // the frames it has already processed.
    let mut skip = 0;
    if let Some(path) = &resume {
        let ckpt = Checkpoint::read_file(path).unwrap_or_else(|e| {
            eprintln!("error: cannot read snapshot {path}: {e}");
            std::process::exit(1);
        });
        tracker.restore(&ckpt).unwrap_or_else(|e| {
            eprintln!("error: cannot restore from {path}: {e}");
            std::process::exit(1);
        });
        skip = ckpt.frame_index + 1;
        println!("resumed from {path} at frame {}", ckpt.frame_index);
    }

    let ckpt_path = format!(
        "{}/track_sequence.ckpt",
        positional.get(3).map(String::as_str).unwrap_or(".")
    );
    let mut estimate = Trajectory::new();
    let mut keyframes = 0;
    for (i, f) in seq.frames.iter().enumerate().skip(skip) {
        let r = tracker.process_frame(&f.gray, &f.depth);
        estimate.push(f.time, r.pose_wc);
        keyframes += r.is_keyframe as usize;
        if let Some(cap) = flight_recorder {
            let pool = tracker.pool_mut().expect("recorders are armed on a pool");
            let wall = pool.wall_cycles();
            if let Some(trace) = pool.drain_op_trace() {
                if trace_bin.is_some() {
                    merged_trace.merge(trace.clone());
                }
                if flight_ring.len() >= cap {
                    flight_ring.pop_front();
                }
                flight_ring.push_back(FlightFrame {
                    frame: r.index as u64,
                    wall_delta: wall - last_wall,
                    trace,
                });
            }
            last_wall = wall;
        }
        if let Some(every) = checkpoint_every {
            if every > 0 && (i + 1) % every == 0 {
                if let Some(dir) = positional.get(3) {
                    std::fs::create_dir_all(dir).expect("create output dir");
                }
                tracker.save_checkpoint(&ckpt_path).expect("write snapshot");
            }
        }
    }
    if checkpoint_every.is_some() {
        println!("checkpoints    : latest snapshot at {ckpt_path}");
    }
    if estimate.len() < 2 {
        println!(
            "resumed at frame {} of {}; fewer than 2 frames left to track — nothing to evaluate",
            skip,
            seq.frames.len()
        );
        return;
    }

    // A resumed run only covers the tail of the sequence; evaluate
    // against the matching ground-truth window.
    let ground_truth = if skip > 0 {
        Trajectory {
            samples: seq
                .ground_truth
                .samples
                .iter()
                .skip(skip)
                .copied()
                .collect(),
        }
    } else {
        seq.ground_truth.clone()
    };
    let rpe = rpe_rmse(&estimate, &ground_truth, 1.0);
    let ate = ate_rmse(&estimate, &ground_truth);
    println!();
    println!("backend        : {backend:?}");
    println!("keyframes      : {keyframes}");
    println!(
        "RPE (1 s)      : {:.4} m/s, {:.3} °/s",
        rpe.trans_mps, rpe.rot_dps
    );
    println!(
        "ATE RMSE       : {ate:.4} m over a {:.2} m path",
        seq.ground_truth.path_length()
    );

    let stats = tracker.stats();
    println!(
        "cycles         : {} edge + {} pose estimation",
        stats.edge_cycles, stats.lm_cycles
    );
    println!(
        "energy         : {:.3} mJ/frame",
        stats.energy_mj / stats.frames.max(1) as f64
    );
    let fps = 216.0e6 / ((stats.total_cycles() as f64) / stats.frames.max(1) as f64);
    println!("throughput     : {fps:.0} frames/s at a 216 MHz clock");
    if dma_overlap {
        if let Some(pool) = tracker.pool_mut() {
            let h = pool.dma_health();
            println!(
                "dma            : {} descriptors, {} faults, \
                 {} retries, {} quarantines, {} sync fallbacks",
                h.issued,
                h.faults(),
                h.retries,
                h.quarantines,
                h.sync_fallbacks
            );
        }
    }
    if frame_budget.is_some() {
        let b = tracker.budget_status();
        println!(
            "deadline       : {} misses, {} coasted frames, final rung {}",
            b.deadline_misses,
            b.coasted_frames,
            b.rung.name()
        );
    }

    if let Some(dir) = positional.get(3) {
        std::fs::create_dir_all(dir).expect("create output dir");
        let est = format!("{dir}/{}_estimate.txt", kind.name());
        let gt = format!("{dir}/{}_groundtruth.txt", kind.name());
        std::fs::write(&est, format_tum(&estimate)).expect("write estimate");
        std::fs::write(&gt, format_tum(&ground_truth)).expect("write ground truth");
        println!("wrote {est} and {gt}");
        if let Some(map) = tracker.map() {
            let ply = format!("{dir}/{}_map.ply", kind.name());
            std::fs::write(&ply, map.to_ply()).expect("write map");
            println!("wrote {ply} ({} points)", map.len());
        }
        let svg = format!("{dir}/{}_trajectory.svg", kind.name());
        std::fs::write(
            &svg,
            pimvo::scene::plot_trajectories_svg(
                &estimate,
                &ground_truth,
                pimvo::scene::PlotPlane::Xz,
                kind.name(),
            ),
        )
        .expect("write plot");
        println!("wrote {svg}");
    }

    if let Some(path) = &trace_bin {
        let trace = if flight_recorder.is_some() {
            std::mem::take(&mut merged_trace)
        } else {
            tracker
                .pool_mut()
                .and_then(|p| p.drain_op_trace())
                .unwrap_or_default()
        };
        std::fs::write(path, trace.encode()).expect("write binary trace");
        println!(
            "wrote {path} ({} op records, {} dropped by the ring)",
            trace.len(),
            trace.dropped
        );
    }
    if flight_recorder.is_some() {
        let misses = tracker.budget_status().deadline_misses;
        let reason = if misses > 0 {
            DumpReason::DeadlineMiss
        } else {
            DumpReason::Manual
        };
        let dir = positional.get(3).map(String::as_str).unwrap_or(".");
        std::fs::create_dir_all(dir).expect("create output dir");
        let path = format!("{dir}/track_sequence_flight_{}.bin", reason.as_str());
        let dump = FlightDump {
            session: 0,
            reason,
            frames: flight_ring.into_iter().collect(),
        };
        dump.save(std::path::Path::new(&path))
            .expect("write flight dump");
        println!(
            "flight dump    : {path} ({} frames, reason {})",
            dump.frames.len(),
            reason.as_str()
        );
    }

    if let Some(t) = telemetry {
        if let Some(path) = trace_out {
            std::fs::write(&path, t.perfetto_json()).expect("write trace");
            println!("wrote {path} (open at https://ui.perfetto.dev)");
        }
        if let Some(path) = metrics_out {
            std::fs::write(&path, t.metrics_text()).expect("write metrics");
            println!("wrote {path}");
        }
        if let Some(path) = log_jsonl {
            std::fs::write(&path, t.log_jsonl()).expect("write event log");
            println!("wrote {path}");
        }
    }
}
