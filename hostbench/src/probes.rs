//! Layer probes of traced runs. They run after the timed sections, on
//! a fresh [`PimMachine`] and a fresh [`LoweredCache`], so they cannot
//! perturb the end-to-end numbers. Their times are corrected to the
//! host's nominal speed like every other host time.

use crate::hostspeed::HostSpeed;
use crate::inputs::Window;
use crate::report::median;
use crate::workloads::{build_tracker, Layers, Workload};
use pimvo_core::pim_exec::{pose_programs, pose_scratch, POSE_BASE};
use pimvo_core::{Checkpoint, Interp};
use pimvo_kernels::ir::{
    hpf_program, lpf_pass1_program, lpf_pass2_program, nms_program, scratch_pool,
};
use pimvo_kernels::pim_util::Regions;
use pimvo_pim::{ArrayConfig, LowerLevel, LoweredCache, PimMachine, PimProgram, ScratchRows};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Frame height the edge programs are built for (QVGA).
const HEIGHT: u32 = 240;
/// Pose programs are built for this feature fraction (the quantized
/// feature format's).
const FEATURE_FRAC: u32 = 12;

/// The programs the workloads run: the four edge-detection kernels
/// over a whole frame and the five pose-estimation programs.
fn programs(m: &PimMachine) -> Vec<(PimProgram, ScratchRows)> {
    let r = Regions::for_machine(m, HEIGHT);
    let (h, y1) = (HEIGHT, i64::from(HEIGHT));
    let edge = scratch_pool(&r);
    let mut out = vec![
        (lpf_pass1_program(&r, r.input, h, 0, y1), edge.clone()),
        (lpf_pass2_program(&r, r.aux2, h, None, 0, y1), edge.clone()),
        (
            hpf_program(&r, r.aux2, r.aux3, h, None, 0, y1),
            edge.clone(),
        ),
        (nms_program(&r, r.aux3, r.out, h, None, 0, y1), edge),
    ];
    let pose = pose_scratch(POSE_BASE);
    out.extend(
        pose_programs(POSE_BASE, FEATURE_FRAC, Interp::Bilinear)
            .into_iter()
            .map(|p| (p, pose.clone())),
    );
    out
}

/// Batches per probe; a probe reports the median batch.
const BATCHES: usize = 9;

/// Median, over [`BATCHES`] batches, of the mean ns per call of `f`;
/// each batch calls `f` for at least `batch` (and at least once).
fn median_ns(speed: &mut HostSpeed, batch: Duration, mut f: impl FnMut()) -> f64 {
    let means: Vec<f64> = (0..BATCHES)
        .map(|_| {
            speed.probe();
            let start = Instant::now();
            let mut calls = 0u64;
            while calls == 0 || start.elapsed() < batch {
                f();
                calls += 1;
            }
            start.elapsed().as_nanos() as f64 / calls as f64 * speed.factor()
        })
        .collect();
    median(&means)
}

/// Machine, lowering and cache probes.
pub fn machine(layers: &mut Layers, speed: &mut HostSpeed, smoke: bool) -> Result<(), String> {
    let batch = Duration::from_millis(if smoke { 0 } else { 5 });
    let mut m = PimMachine::new(ArrayConfig::qvga_banks(6));
    let cache = LoweredCache::new();
    let config = m.config().clone();
    for (prog, scratch) in programs(&m) {
        let name = prog.name().to_string();
        let lower = |cache: &LoweredCache| {
            cache
                .get_or_lower(&prog, LowerLevel::Opt, &scratch, &config)
                .map_err(|e| format!("lowering {name}: {e}"))
        };
        let lowered = lower(&cache)?;
        let cold = median_ns(speed, Duration::ZERO, || {
            let _ = black_box(lower(&LoweredCache::new()));
        });
        layers.insert(format!("lower.cold_us.{name}"), cold / 1e3);
        let ops = lowered.ops().len().max(1) as f64;
        let mut failed = None;
        let ns = median_ns(speed, batch, || {
            if let Err(e) = m.run_program(black_box(&lowered)) {
                failed = Some(e);
            }
        });
        if let Some(e) = failed {
            return Err(format!("running {name}: {e:?}"));
        }
        layers.insert(format!("machine.run_program.ns_per_op.{name}"), ns / ops);
    }
    let (prog, scratch) = programs(&m).swap_remove(0);
    let hit = median_ns(speed, batch, || {
        let _ = black_box(cache.get_or_lower(&prog, LowerLevel::Opt, &scratch, &config));
    });
    layers.insert("cache.hit_ns".into(), hit);
    Ok(())
}

/// Checkpoint encode/decode of a PIM tracker holding a keyframe.
pub fn checkpoint(
    layers: &mut Layers,
    win: &Window,
    speed: &mut HostSpeed,
    smoke: bool,
) -> Result<(), String> {
    let batch = Duration::from_millis(if smoke { 0 } else { 5 });
    let mut tracker = build_tracker(Workload::TrackPim, None);
    for k in 0..2 {
        let f = win.at(k);
        tracker.process_frame(&f.gray, &f.depth);
    }
    let bytes = tracker.checkpoint().to_bytes();
    let encode = median_ns(speed, batch, || {
        black_box(tracker.checkpoint().to_bytes());
    });
    let mut failed = None;
    let decode = median_ns(speed, batch, || {
        if let Err(e) = Checkpoint::from_bytes(black_box(&bytes)) {
            failed = Some(e);
        }
    });
    if let Some(e) = failed {
        return Err(format!("checkpoint decode: {e}"));
    }
    layers.insert("checkpoint.encode_us".into(), encode / 1e3);
    layers.insert("checkpoint.decode_us".into(), decode / 1e3);
    layers.insert("checkpoint.bytes".into(), bytes.len() as f64);
    Ok(())
}
