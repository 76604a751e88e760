//! Experiment implementations. Each function of the
//! [`EXPERIMENTS`](crate::experiments::EXPERIMENTS) table performs the
//! measurement for one table/figure, records its metrics in the run's
//! BENCH report and returns the formatted report block; [`fig8`] and
//! [`noise_sweep`] back their own binaries.

use crate::experiments::Run;
use crate::sink::BenchReport;
use crate::{canonical_frame, fmt_cycles, run_sequence, SequenceRun};
use pimvo_core::pim_exec::{BatchMapping, BatchOptions, BatchRunner, BATCH};
use pimvo_core::{
    ablation, extract_features, BackendKind, Keyframe, QPose, Tracker, TrackerConfig,
};
use pimvo_kernels::pim_pool::EdgeKernels;
use pimvo_kernels::{ir, EdgeConfig, GrayImage};
use pimvo_mcu::{
    edge_detect_counted, edge_detect_counted_with, linearize_counted, CodegenModel, CostCounter,
    FloatFeature, InstructionMix,
};
use pimvo_pim::{
    ArrayConfig, CostModel, LowerLevel, Pass, PimArrayPool, PimMachine, PimMachineBuilder,
};
use pimvo_scene::{format_tum, SequenceKind};
use pimvo_vomath::{Pinhole, SE3};
use std::fmt::Write as _;

/// Mean LM iterations the paper reports (×8 in Fig. 9-a's `LM*`).
pub const LM_ITERS: u64 = 8;

/// The builder of the paper's single six-bank QVGA array.
fn qvga_array() -> PimMachineBuilder {
    PimMachine::builder(ArrayConfig::qvga_banks(6))
}

/// Compute cycles `pool` has spent so far.
fn cycles(pool: &PimArrayPool) -> u64 {
    pool.merged_stats().cycles
}

/// Table 1 — RMSE of relative pose error for the three sequences, both
/// backends.
pub fn table1(run: &mut Run) -> String {
    let mut out = String::new();
    writeln!(out, "Table 1: RMSE of relative pose error (1 s windows)").unwrap();
    writeln!(
        out,
        "{:<14} | {:>10} {:>10} | {:>10} {:>10}",
        "", "baseline", "", "PIM EBVO", ""
    )
    .unwrap();
    writeln!(
        out,
        "{:<14} | {:>10} {:>10} | {:>10} {:>10}",
        "sequence", "t (m/s)", "rot (°/s)", "t (m/s)", "rot (°/s)"
    )
    .unwrap();
    for kind in SequenceKind::all() {
        let float_run = run_sequence(kind, BackendKind::Float, run.frames);
        let pim_run = run_sequence(kind, BackendKind::Pim, run.frames);
        writeln!(
            out,
            "{:<14} | {:>10.4} {:>10.3} | {:>10.4} {:>10.3}",
            kind.name(),
            float_run.rpe.trans_mps,
            float_run.rpe.rot_dps,
            pim_run.rpe.trans_mps,
            pim_run.rpe.rot_dps
        )
        .unwrap();
        sequence_metrics(&mut run.report, &float_run);
        sequence_metrics(&mut run.report, &pim_run);
    }
    writeln!(out, "(paper, {})", run.paper[0]).unwrap();
    out
}

/// Backend name used in machine-readable metric keys.
fn backend_slug(backend: BackendKind) -> &'static str {
    match backend {
        BackendKind::Float => "float",
        BackendKind::Pim => "pim",
    }
}

/// Records one accuracy run's metrics under a `<sequence>_<backend>`
/// prefix.
fn sequence_metrics(r: &mut BenchReport, run: &SequenceRun) {
    let prefix = format!("{}_{}", run.kind.name(), backend_slug(run.backend));
    r.metric(&format!("{prefix}_rpe_trans_mps"), run.rpe.trans_mps)
        .metric(&format!("{prefix}_rpe_rot_dps"), run.rpe.rot_dps)
        .metric(
            &format!("{prefix}_ate_m"),
            pimvo_scene::ate_rmse(&run.estimate, &run.ground_truth),
        )
        .metric(
            &format!("{prefix}_cycles_total"),
            run.stats.total_cycles() as f64,
        )
        .metric(&format!("{prefix}_energy_mj"), run.stats.energy_mj)
        .metric(&format!("{prefix}_keyframes"), run.keyframes as f64)
        .metric(&format!("{prefix}_mean_features"), run.mean_features)
        .metric(&format!("{prefix}_mean_lm_iterations"), run.mean_iterations);
}

/// Fig. 8 — estimated vs ground-truth trajectories (TUM text + SVG) and
/// the semi-dense reconstruction quality for a texture-rich and a
/// texture-poor sequence.
pub fn fig8(frames: usize) -> (Vec<(String, String, String, String)>, String) {
    let mut files = Vec::new();
    let mut out = String::new();
    writeln!(
        out,
        "Fig. 8: trajectory + reconstruction vs ground truth (PIM backend)"
    )
    .unwrap();
    for kind in [SequenceKind::Desk, SequenceKind::StrNtexFar] {
        let run = run_sequence(kind, BackendKind::Pim, frames);
        let ate = pimvo_scene::ate_rmse(&run.estimate, &run.ground_truth);
        // reconstruction: re-track with map building and measure the
        // RMS distance of map points to the analytic scene surfaces
        let seq = pimvo_scene::Sequence::generate(kind, frames);
        let scene = pimvo_scene::build_scene(kind);
        let config = TrackerConfig {
            build_map: true,
            ..TrackerConfig::default()
        };
        let mut tracker = Tracker::new(config, BackendKind::Pim);
        for f in &seq.frames {
            let _ = tracker.process_frame(&f.gray, &f.depth);
        }
        let map = tracker.map().expect("map enabled");
        // align map points with the gt start pose before measuring
        let align = seq.ground_truth.samples[0].1;
        let rms = {
            let n = map.len().max(1) as f64;
            let sum2: f64 = map
                .points()
                .iter()
                .map(|&p| {
                    let d = scene.distance_to_surface(align.transform(p));
                    d * d
                })
                .sum();
            (sum2 / n).sqrt()
        };
        writeln!(
            out,
            "  {:<14} ATE RMSE {:.4} m over {:.2} m path ({} keyframes); map: {} points, RMS surface distance {:.4} m",
            kind.name(),
            ate,
            run.ground_truth.path_length(),
            run.keyframes,
            map.len(),
            rms
        )
        .unwrap();
        files.push((
            kind.name().to_string(),
            format_tum(&run.estimate.aligned_to(&run.ground_truth)),
            format_tum(&run.ground_truth),
            pimvo_scene::plot_trajectories_svg(
                &run.estimate,
                &run.ground_truth,
                pimvo_scene::PlotPlane::Xz,
                kind.name(),
            ),
        ));
    }
    (files, out)
}

/// Fig. 9-a — per-frame cycles, baseline vs PIM, for edge detection and
/// 8 LM iterations.
pub fn fig9a(run: &mut Run) -> String {
    let (gray, depth) = canonical_frame();
    let cam = Pinhole::qvga();
    let cfg = EdgeConfig::default();

    // MCU side
    let mut counter = CostCounter::new();
    let maps = edge_detect_counted(&gray, &cfg, &mut counter);
    let mcu_edge = counter.cycles();
    let features = extract_features(&maps.mask, &depth, &cam, 6000, 0.3, 8.0);
    let floats: Vec<FloatFeature> = features
        .iter()
        .map(|f| FloatFeature {
            a: f.a,
            b: f.b,
            c: f.c,
        })
        .collect();
    let kf = Keyframe::build(0, SE3::IDENTITY, maps.mask.clone(), &cam);
    counter.reset();
    let _ = linearize_counted(&floats, &kf.tables, &cam, &SE3::IDENTITY, &mut counter);
    let mcu_lm8 = counter.cycles() * LM_ITERS;

    // PIM side: one array running both stages
    let mut runner = BatchRunner::new(BatchOptions::default());
    let _ = EdgeKernels::new().edge_detect(runner.pool_mut(), &gray, &cfg);
    let pim_edge = cycles(runner.pool());
    let identity = QPose::quantize(&SE3::IDENTITY);
    let per_batch = runner
        .batch_cost(&identity, &kf.q_tables, &cam)
        .expect("the QVGA array holds the pose staging rows")
        .cycles;
    let batches = features.len().div_ceil(BATCH) as u64;
    let pim_lm8 = per_batch * batches * LM_ITERS;

    let edge_speedup = mcu_edge as f64 / pim_edge as f64;
    let lm_speedup = mcu_lm8 as f64 / pim_lm8 as f64;
    let overall_speedup = (mcu_edge + mcu_lm8) as f64 / (pim_edge + pim_lm8) as f64;
    run.report
        .metric("mcu_edge_cycles", mcu_edge as f64)
        .metric("mcu_lm8_cycles", mcu_lm8 as f64)
        .metric("pim_edge_cycles", pim_edge as f64)
        .metric("pim_lm8_cycles", pim_lm8 as f64)
        .metric("features", features.len() as f64)
        .metric("edge_speedup", edge_speedup)
        .metric("lm_speedup", lm_speedup)
        .metric("overall_speedup", overall_speedup);
    let mut out = String::new();
    writeln!(
        out,
        "Fig. 9-a: computing cycles per frame ({} features)",
        features.len()
    )
    .unwrap();
    writeln!(out, "  {:<18} {:>12} {:>12}", "", "baseline", "PIM").unwrap();
    writeln!(
        out,
        "  {:<18} {:>12} {:>12}   ({edge_speedup:.0}x)",
        "edge detection",
        fmt_cycles(mcu_edge),
        fmt_cycles(pim_edge),
    )
    .unwrap();
    writeln!(
        out,
        "  {:<18} {:>12} {:>12}   ({lm_speedup:.1}x)",
        "LM x8",
        fmt_cycles(mcu_lm8),
        fmt_cycles(pim_lm8),
    )
    .unwrap();
    writeln!(
        out,
        "  overall speed-up: {overall_speedup:.1}x  {}",
        run.cite(0)
    )
    .unwrap();
    writeln!(
        out,
        "  iso-performance PIM clock: {:.1} MHz {}",
        216.0 / overall_speedup,
        run.cite(1)
    )
    .unwrap();
    out
}

/// Fig. 9-b — naive vs optimized PIM mappings.
pub fn fig9b(run: &mut Run) -> String {
    let (gray, depth) = canonical_frame();
    let cam = Pinhole::qvga();
    let cfg = EdgeConfig::default();

    let measure_edge = |level: LowerLevel| -> (u64, u64, u64) {
        let (mut m, mut k) = (qvga_array().build_pool(1), EdgeKernels::at(level));
        let lpf_map = k.lpf(&mut m, &gray);
        let c1 = cycles(&m);
        let hpf_map = k.hpf(&mut m, &lpf_map);
        let c2 = cycles(&m);
        let _ = k.nms(&mut m, &hpf_map, &cfg);
        (c1, c2 - c1, cycles(&m) - c2)
    };
    let (lpf_n, hpf_n, nms_n) = measure_edge(LowerLevel::Naive);
    let (lpf_o, hpf_o, nms_o) = measure_edge(LowerLevel::Opt);

    // LM: one iteration, naive vs optimized batch schedule
    let maps = EdgeKernels::new().edge_detect(&mut qvga_array().build_pool(1), &gray, &cfg);
    let features = extract_features(&maps.mask, &depth, &cam, 6000, 0.3, 8.0);
    let kf = Keyframe::build(0, SE3::IDENTITY, maps.mask.clone(), &cam);
    let batches = features.len().div_ceil(BATCH) as u64;
    let identity = QPose::quantize(&SE3::IDENTITY);
    let measure_lm = |mapping: BatchMapping| -> u64 {
        let runner = BatchRunner::new(BatchOptions {
            mapping,
            ..Default::default()
        });
        let price = runner
            .batch_cost(&identity, &kf.q_tables, &cam)
            .expect("the QVGA array holds the pose staging rows");
        price.cycles * batches
    };
    let lm_n = measure_lm(BatchMapping::Naive);
    let lm_o = measure_lm(BatchMapping::Opt);

    let mut out = String::new();
    writeln!(out, "Fig. 9-b: naive vs optimized PIM mappings (cycles)").unwrap();
    writeln!(
        out,
        "  {:<8} {:>10} {:>10} {:>8}",
        "kernel", "naive", "opt", "ratio"
    )
    .unwrap();
    for (name, key, n, o) in [
        ("LPF", "lpf", lpf_n, lpf_o),
        ("HPF", "hpf", hpf_n, hpf_o),
        ("NMS", "nms", nms_n, nms_o),
        ("LM x1", "lm", lm_n, lm_o),
    ] {
        run.report
            .metric(&format!("{key}_naive_cycles"), n as f64)
            .metric(&format!("{key}_optimized_cycles"), o as f64);
        writeln!(
            out,
            "  {:<8} {:>10} {:>10} {:>7.2}x",
            name,
            fmt_cycles(n),
            fmt_cycles(o),
            n as f64 / o as f64
        )
        .unwrap();
    }
    let edge_ratio = (lpf_n + hpf_n + nms_n) as f64 / (lpf_o + hpf_o + nms_o) as f64;
    writeln!(
        out,
        "  edge detection overall: {edge_ratio:.2}x {}; LM {}",
        run.cite(0),
        run.cite(1)
    )
    .unwrap();
    out
}

/// The staged pass groups the lowering sweep compares. `greedy` is
/// shift fusion alone (an in-order allocation walk); `sched` adds the
/// list scheduler, which is the full [`pimvo_pim::pass_pipeline`] at
/// `Opt`.
pub const LOWERING_STAGES: [(&str, &[Pass]); 2] = [
    ("greedy", &[Pass::FuseShifts]),
    ("sched", &[Pass::FuseShifts, Pass::Schedule]),
];

/// Lowering-pipeline stage sweep: per-kernel cycles on the canonical
/// frame at `Opt` as each staged pass group is enabled. Outputs are
/// asserted bit-identical across stages (passes may only change cost),
/// so the sweep isolates where the cycle wins come from — the
/// scheduler vs the greedy in-order walk.
///
/// Records one `<kernel>_<stage>_cycles` metric per measurement.
pub fn lowering(run: &mut Run) -> String {
    let (gray, _) = canonical_frame();
    let cfg = EdgeConfig::default();
    let lpf_map = pimvo_kernels::scalar::lpf(&gray);
    let hpf_map = pimvo_kernels::scalar::hpf(&lpf_map);

    let mut rows: Vec<(&'static str, &'static str, u64)> = Vec::new();
    let mut outputs: Vec<(&'static str, GrayImage)> = Vec::new();
    for (stage, passes) in LOWERING_STAGES {
        let mut kernels = EdgeKernels::with_passes(LowerLevel::Opt, passes);
        let mut measure =
            |kernel: &'static str, f: &dyn Fn(&mut EdgeKernels, &mut PimArrayPool) -> GrayImage| {
                let mut m = qvga_array().build_pool(1);
                let img = f(&mut kernels, &mut m);
                rows.push((kernel, stage, cycles(&m)));
                // identity across stages: later passes may only change cost
                match outputs.iter().find(|(k, _)| *k == kernel) {
                    Some((_, want)) => {
                        assert_eq!(&img, want, "{kernel} output drifted at stage {stage}")
                    }
                    None => outputs.push((kernel, img)),
                }
            };
        measure("lpf", &|k, m| k.lpf(m, &gray));
        measure("hpf", &|k, m| k.hpf(m, &lpf_map));
        measure("nms", &|k, m| k.nms(m, &hpf_map, &cfg));
        measure("downsample", &|k, m| k.downsample2x(m, &gray));
    }

    let mut out = String::new();
    writeln!(out, "Lowering pipeline: cycles per kernel per stage").unwrap();
    write!(out, "  {:<12}", "kernel").unwrap();
    for (stage, _) in LOWERING_STAGES {
        write!(out, " {stage:>10}").unwrap();
    }
    writeln!(out).unwrap();
    for kernel in ["lpf", "hpf", "nms", "downsample"] {
        write!(out, "  {kernel:<12}").unwrap();
        for (stage, _) in LOWERING_STAGES {
            let c = rows
                .iter()
                .find(|(k, s, _)| *k == kernel && *s == stage)
                .map(|(_, _, c)| *c)
                .expect("every (kernel, stage) pair measured");
            write!(out, " {c:>10}").unwrap();
        }
        writeln!(out).unwrap();
    }
    writeln!(out, "  outputs bit-identical across all stages (asserted)").unwrap();
    for (kernel, stage, cycles) in &rows {
        run.report
            .metric(&format!("{kernel}_{stage}_cycles"), *cycles as f64);
    }
    out
}

/// Tracks one full frame on the PIM backend and returns the machine
/// statistics (used by the energy/memory decompositions).
fn pim_frame_stats(frames: usize) -> (pimvo_pim::ExecStats, u64) {
    let mut tracker = Tracker::new(TrackerConfig::default(), BackendKind::Pim);
    let seq = pimvo_scene::Sequence::generate(SequenceKind::Xyz, frames);
    for f in &seq.frames {
        let _ = tracker.process_frame(&f.gray, &f.depth);
    }
    let stats = tracker.stats();
    (stats.pim.expect("pim backend"), stats.frames)
}

/// Fig. 10-a — energy decomposition per PIM component.
pub fn fig10a(run: &mut Run) -> String {
    let (stats, frames) = pim_frame_stats(6);
    let cost = CostModel::default();
    let e = stats.energy(&cost);
    let total = e.total_pj();
    run.report
        .metric("sram_pj", e.sram_pj)
        .metric("shifter_adder_pj", e.shifter_adder_pj)
        .metric("tmp_reg_pj", e.tmp_reg_pj)
        .metric("ecc_pj", e.ecc_pj)
        .metric("total_pj", total)
        .metric("sram_share", e.sram_share());
    let mut out = String::new();
    writeln!(out, "Fig. 10-a: PIM energy decomposition ({frames} frames)").unwrap();
    writeln!(
        out,
        "  SRAM array     : {:>6.1} %  {}",
        100.0 * e.sram_pj / total,
        run.cite(0)
    )
    .unwrap();
    writeln!(
        out,
        "  shifter & adder: {:>6.1} %",
        100.0 * e.shifter_adder_pj / total
    )
    .unwrap();
    writeln!(
        out,
        "  Tmp Reg        : {:>6.1} %",
        100.0 * e.tmp_reg_pj / total
    )
    .unwrap();
    out
}

/// Fig. 10-b — memory-access decomposition.
pub fn fig10b(run: &mut Run) -> String {
    let (stats, frames) = pim_frame_stats(6);
    let m = stats.mem_accesses();
    let total = m.total() as f64;
    run.report
        .metric("sram_reads", m.sram_reads as f64)
        .metric("sram_writes", m.sram_writes as f64)
        .metric("tmp_accesses", m.tmp_accesses as f64)
        .metric("total_accesses", total);
    let mut out = String::new();
    writeln!(
        out,
        "Fig. 10-b: memory-access decomposition ({frames} frames)"
    )
    .unwrap();
    writeln!(
        out,
        "  SRAM reads : {:>6.1} %",
        100.0 * m.sram_reads as f64 / total
    )
    .unwrap();
    writeln!(
        out,
        "  SRAM writes: {:>6.1} %  {}",
        100.0 * m.sram_writes as f64 / total,
        run.cite(0)
    )
    .unwrap();
    writeln!(
        out,
        "  Tmp Reg    : {:>6.1} %",
        100.0 * m.tmp_accesses as f64 / total
    )
    .unwrap();
    out
}

/// §5.4 — per-frame energy, baseline vs PIM.
pub fn energy(run: &mut Run) -> String {
    let frames = 6;
    let float_run = run_sequence(SequenceKind::Xyz, BackendKind::Float, frames);
    let pim_run = run_sequence(SequenceKind::Xyz, BackendKind::Pim, frames);
    let mcu_mj = float_run.stats.energy_mj / float_run.stats.frames as f64;
    let pim_mj = pim_run.stats.energy_mj / pim_run.stats.frames as f64;
    run.report
        .metric("mcu_mj_per_frame", mcu_mj)
        .metric("pim_mj_per_frame", pim_mj)
        .metric("improvement_x", mcu_mj / pim_mj);
    let mut out = String::new();
    writeln!(out, "§5.4: energy per frame").unwrap();
    writeln!(out, "  baseline MCU : {mcu_mj:.3} mJ {}", run.cite(0)).unwrap();
    writeln!(out, "  PIM EBVO     : {pim_mj:.3} mJ {}", run.cite(1)).unwrap();
    writeln!(
        out,
        "  improvement  : {:.1}x {}",
        mcu_mj / pim_mj,
        run.cite(2)
    )
    .unwrap();
    out
}

/// §1 — instruction-mix motivation (data movement share).
pub fn instr_mix(run: &mut Run) -> String {
    let (gray, depth) = canonical_frame();
    let cam = Pinhole::qvga();
    let cfg = EdgeConfig::default();
    let mut c = CostCounter::new();
    let maps = edge_detect_counted_with(&gray, &cfg, &mut c, CodegenModel::PortableScalar);
    let features = extract_features(&maps.mask, &depth, &cam, 6000, 0.3, 8.0);
    let floats: Vec<FloatFeature> = features
        .iter()
        .map(|f| FloatFeature {
            a: f.a,
            b: f.b,
            c: f.c,
        })
        .collect();
    let kf = Keyframe::build(0, SE3::IDENTITY, maps.mask.clone(), &cam);
    for _ in 0..LM_ITERS {
        let _ = pimvo_mcu::linearize_counted_with(
            &floats,
            &kf.tables,
            &cam,
            &SE3::IDENTITY,
            &mut c,
            CodegenModel::PortableScalar,
        );
    }
    let mix = InstructionMix::from_counter(&c);
    run.report
        .metric("total_instructions", mix.total as f64)
        .metric("memory_instructions", mix.memory as f64)
        .metric("arithmetic_instructions", mix.arithmetic as f64)
        .metric("control_instructions", mix.control as f64);
    let mut out = String::new();
    writeln!(
        out,
        "§1 motivation: instruction mix of a portable EBVO frame"
    )
    .unwrap();
    writeln!(
        out,
        "  data movement: {:.1} % of {} instructions {}",
        100.0 * mix.memory_share(),
        fmt_cycles(mix.total),
        run.cite(0)
    )
    .unwrap();
    writeln!(
        out,
        "  arithmetic: {:.1} %, control: {:.1} %",
        100.0 * mix.arithmetic as f64 / mix.total as f64,
        100.0 * mix.control as f64 / mix.total as f64
    )
    .unwrap();
    out
}

/// §3.3/§3.4 — quantization ablations.
pub fn quant_ablation(run: &mut Run) -> String {
    let cam = Pinhole::qvga();
    let pose = SE3::exp(&[0.05, -0.02, 0.03, 0.02, -0.01, 0.015]);
    let sweep = ablation::warp_error_sweep(&cam, &pose, &[(16, 12), (12, 8), (10, 6), (8, 4)]);
    let mut out = String::new();
    writeln!(out, "§3.3 ablation: feature-quantization warp error").unwrap();
    writeln!(
        out,
        "  {:<8} {:>12} {:>12}",
        "format", "max err(px)", "mean err(px)"
    )
    .unwrap();
    for s in &sweep {
        writeln!(
            out,
            "  Q{}.{:<5} {:>12.3} {:>12.4}",
            s.bits - s.frac,
            s.frac,
            s.max_err_px,
            s.mean_err_px
        )
        .unwrap();
    }
    writeln!(out, "  {}", run.cite(0)).unwrap();
    writeln!(out).unwrap();
    writeln!(out, "§3.4 ablation: Hessian accumulator width").unwrap();
    for r in ablation::hessian_width_ablation(&[32, 24, 16]) {
        writeln!(
            out,
            "  {:>2}-bit: solve_ok={} update_rel_err={:.4} saturated={:.0} %",
            r.bits,
            r.solve_ok,
            r.update_rel_err,
            100.0 * r.saturated_share
        )
        .unwrap();
    }
    writeln!(out, "  {}", run.cite(1)).unwrap();
    out
}

/// §5.1 — area report.
pub fn area(run: &mut Run) -> String {
    let cost = CostModel::default();
    let a = cost.area_report();
    let mut out = String::new();
    writeln!(out, "§5.1: 90 nm area model").unwrap();
    writeln!(
        out,
        "  SRAM array      : {:.3e} µm²  {}",
        a.array_um2,
        run.cite(0)
    )
    .unwrap();
    writeln!(
        out,
        "  sense amplifiers: {:.3e} µm²  {}",
        a.sa_um2,
        run.cite(1)
    )
    .unwrap();
    writeln!(
        out,
        "  computing logic : {:.3e} µm² = {:.1} % of the array {}",
        a.logic_um2,
        100.0 * a.logic_over_array,
        run.cite(2)
    )
    .unwrap();
    writeln!(
        out,
        "  energy/op: SRAM access {} pJ, datapath {} pJ {}",
        cost.sram_read_pj,
        cost.shifter_adder_pj + cost.tmp_reg_pj,
        run.cite(3)
    )
    .unwrap();
    out
}

/// §5.4 extension ablation: Tmp-register count (the paper: "we could
/// use more registers to further improve the efficiency of both
/// computation and power"). Compares the single-register optimized
/// edge-detection mapping against the four-register variant.
pub fn tmpreg_ablation(_: &mut Run) -> String {
    let (gray, _) = canonical_frame();
    let cfg = EdgeConfig::default();
    let cost = CostModel::default();

    let mut m1 = qvga_array().build_pool(1);
    let single = EdgeKernels::new().edge_detect(&mut m1, &gray, &cfg);
    let mut m4 = qvga_array().tmp_regs(ir::REGS_REQUIRED).build_pool(1);
    let multi =
        EdgeKernels::at(LowerLevel::MultiReg(ir::REGS_REQUIRED)).edge_detect(&mut m4, &gray, &cfg);
    assert_eq!(single.mask, multi.mask, "outputs must be identical");

    let (s1, s4) = (&m1.merged_stats(), &m4.merged_stats());
    let (e1, e4) = (s1.energy(&cost), s4.energy(&cost));
    let mut out = String::new();
    writeln!(
        out,
        "§5.4 extension: Tmp-register count (edge detection, one frame)"
    )
    .unwrap();
    writeln!(
        out,
        "  {:<22} {:>12} {:>12}",
        "", "1 register", "4 registers"
    )
    .unwrap();
    writeln!(
        out,
        "  {:<22} {:>12} {:>12}",
        "cycles",
        fmt_cycles(s1.cycles),
        fmt_cycles(s4.cycles)
    )
    .unwrap();
    writeln!(
        out,
        "  {:<22} {:>12} {:>12}",
        "SRAM writes",
        fmt_cycles(s1.sram_writes),
        fmt_cycles(s4.sram_writes)
    )
    .unwrap();
    writeln!(
        out,
        "  {:<22} {:>12} {:>12}",
        "SRAM reads",
        fmt_cycles(s1.sram_reads),
        fmt_cycles(s4.sram_reads)
    )
    .unwrap();
    writeln!(
        out,
        "  {:<22} {:>12.1} {:>12.1}",
        "energy (µJ)",
        e1.total_pj() / 1e6,
        e4.total_pj() / 1e6
    )
    .unwrap();
    writeln!(
        out,
        "  energy saving: {:.1} %  cycle saving: {:.1} %",
        100.0 * (1.0 - e4.total_pj() / e1.total_pj()),
        100.0 * (1.0 - s4.cycles as f64 / s1.cycles as f64)
    )
    .unwrap();
    out
}

/// Residual-lookup ablation: nearest-neighbour vs bilinear
/// interpolation on the PIM backend (the one place this reproduction
/// deliberately refines the paper's "directly looked-up" residual —
/// this experiment quantifies why).
/// Runs at most 60 frames.
pub fn interp_ablation(run: &mut Run) -> String {
    use pimvo_core::Interp;
    use pimvo_scene::{rpe_rmse, Sequence, Trajectory};

    let frames = run.frames.min(60);
    let seq = Sequence::generate(SequenceKind::Xyz, frames);
    let mut out = String::new();
    writeln!(
        out,
        "residual-lookup ablation (xyz, {frames} frames, PIM backend)"
    )
    .unwrap();
    writeln!(
        out,
        "  {:<10} {:>12} {:>12} {:>14}",
        "mode", "t (m/s)", "rot (°/s)", "LM cyc/frame"
    )
    .unwrap();
    for (name, interp) in [("nearest", Interp::Nearest), ("bilinear", Interp::Bilinear)] {
        let backend = Box::new(pimvo_core::PimBackend::with_options(BatchOptions {
            interp,
            ..Default::default()
        }));
        let mut tracker = Tracker::with_backend(TrackerConfig::default(), backend);
        let mut est = Trajectory::new();
        for f in &seq.frames {
            let r = tracker.process_frame(&f.gray, &f.depth);
            est.push(f.time, r.pose_wc);
        }
        let rpe = rpe_rmse(&est, &seq.ground_truth, 1.0);
        let stats = tracker.stats();
        writeln!(
            out,
            "  {:<10} {:>12.4} {:>12.3} {:>14}",
            name,
            rpe.trans_mps,
            rpe.rot_dps,
            fmt_cycles(stats.lm_cycles / stats.frames.max(1))
        )
        .unwrap();
    }
    writeln!(
        out,
        "  (bilinear buys sub-pixel residuals for a modest lerp/gather cost)"
    )
    .unwrap();
    out
}

/// Extension ablation: pyramid levels — convergence basin vs cost.
pub fn pyramid_ablation(_: &mut Run) -> String {
    use pimvo_scene::{build_scene, RenderOptions};
    use pimvo_vomath::SE3;

    let scene = build_scene(SequenceKind::Xyz);
    let cam = Pinhole::qvga();
    let opts = RenderOptions::default();
    let (g0, d0) = scene.render(&cam, &SE3::IDENTITY, &opts, 0);
    let mut out = String::new();
    writeln!(
        out,
        "extension: coarse-to-fine pyramid (lateral jump recovery)"
    )
    .unwrap();
    writeln!(
        out,
        "  {:<10} {:>9} {:>9} {:>9} {:>14}",
        "jump (m)", "1 level", "2 levels", "3 levels", "(abs error, m)"
    )
    .unwrap();
    for jump in [0.05f64, 0.10, 0.20] {
        let pose = SE3::exp(&[jump, 0.0, 0.0, 0.0, 0.0, 0.0]);
        let (g1, d1) = scene.render(&cam, &pose, &opts, 1);
        let mut errs = Vec::new();
        for levels in 1..=3usize {
            let config = TrackerConfig {
                pyramid_levels: levels,
                ..TrackerConfig::default()
            };
            let mut t = Tracker::new(config, BackendKind::Float);
            let _ = t.process_frame(&g0, &d0);
            let r = t.process_frame(&g1, &d1);
            errs.push((r.pose_wc.translation.x - jump).abs());
        }
        writeln!(
            out,
            "  {:<10.2} {:>9.4} {:>9.4} {:>9.4}",
            jump, errs[0], errs[1], errs[2]
        )
        .unwrap();
    }
    writeln!(
        out,
        "  (each extra level costs ~1/4 of the full-resolution edge detection)"
    )
    .unwrap();
    out
}

/// Robustness sweep: tracking accuracy vs sensor noise (intensity and
/// range noise swept independently around the defaults). A
/// reproduction-quality check the paper leaves implicit: EBVO's
/// distance-transform alignment should degrade gracefully, not fall
/// off a cliff, as the synthetic sensor gets worse.
pub fn noise_sweep(frames: usize) -> String {
    use pimvo_scene::{rpe_rmse, RenderOptions, Trajectory};

    let mut out = String::new();
    writeln!(
        out,
        "robustness: RPE vs sensor noise (desk, {frames} frames, PIM backend)"
    )
    .unwrap();
    let track = |opts: RenderOptions| -> (f64, f64) {
        let scene = pimvo_scene::build_scene(SequenceKind::Desk);
        let cam = Pinhole::qvga();
        let mut tracker = Tracker::new(TrackerConfig::default(), BackendKind::Pim);
        let mut est = Trajectory::new();
        let mut gt = Trajectory::new();
        for i in 0..frames {
            let t = i as f64 / 30.0;
            let pose = pimvo_scene::pose_at(SequenceKind::Desk, t);
            let (gray, depth) = scene.render(&cam, &pose, &opts, i as u32);
            let r = tracker.process_frame(&gray, &depth);
            est.push(t, r.pose_wc);
            gt.push(t, pose);
        }
        let rpe = rpe_rmse(&est, &gt, 1.0);
        (rpe.trans_mps, rpe.rot_dps)
    };

    writeln!(out, "  intensity noise sweep (range noise at default):").unwrap();
    writeln!(
        out,
        "  {:<12} {:>10} {:>10}",
        "σ (gray)", "t (m/s)", "rot (°/s)"
    )
    .unwrap();
    for sigma in [0.0, 1.2, 3.0, 6.0, 10.0] {
        let (t, r) = track(RenderOptions {
            noise_sigma: sigma,
            ..Default::default()
        });
        writeln!(out, "  {:<12} {:>10.4} {:>10.3}", sigma, t, r).unwrap();
    }
    writeln!(out, "  range noise sweep (intensity noise at default):").unwrap();
    writeln!(
        out,
        "  {:<12} {:>10} {:>10}",
        "σd@4m (m)", "t (m/s)", "rot (°/s)"
    )
    .unwrap();
    for coeff in [0.0, 0.0015, 0.005, 0.010] {
        let (t, r) = track(RenderOptions {
            depth_noise_coeff: coeff,
            ..Default::default()
        });
        writeln!(out, "  {:<12.3} {:>10.4} {:>10.3}", coeff * 16.0, t, r).unwrap();
    }
    writeln!(
        out,
        "  (notable: moderate intensity noise *helps* on this scene — it\n            breaks the NMS response ties of clean synthetic surfaces and\n            yields more, better-distributed edge features; range noise is\n            absorbed by the Q4.12 inverse-depth quantization)"
    )
    .unwrap();
    out
}

/// One point of the array-scaling sweep.
#[derive(Debug, Clone)]
struct ScalingPoint {
    /// Pool size (number of PIM arrays).
    pub arrays: usize,
    /// Edge-detection wall cycles for one QVGA frame.
    pub edge_wall: u64,
    /// Pose-estimation wall cycles for [`LM_ITERS`] LM iterations.
    pub lm_wall: u64,
    /// Total energy in mJ (the compute work is conserved — only the
    /// wall clock shrinks with more arrays).
    pub energy_mj: f64,
    /// Whether every output is bit-identical to the single-array run.
    pub identical: bool,
}

/// Array-scaling experiment: the sharded [`pimvo_pim::PimArrayPool`]
/// on 1/2/4/8 arrays running QVGA edge detection plus [`LM_ITERS`] LM
/// linearizations. Wall cycles per phase are the slowest shard plus
/// the inter-array sync overhead; outputs must stay bit-identical to
/// the single-array execution.
pub fn scaling(run: &mut Run) -> String {
    let points = scaling_points();
    for p in &points {
        let prefix = format!("arrays_{}", p.arrays);
        run.report
            .metric(&format!("{prefix}_edge_wall_cycles"), p.edge_wall as f64)
            .metric(&format!("{prefix}_lm_wall_cycles"), p.lm_wall as f64)
            .metric(&format!("{prefix}_energy_mj"), p.energy_mj)
            .metric(
                &format!("{prefix}_bit_identical"),
                if p.identical { 1.0 } else { 0.0 },
            );
    }

    let total0 = points[0].edge_wall + points[0].lm_wall;
    let mut out = String::new();
    writeln!(
        out,
        "Array scaling: sharded PimArrayPool (QVGA edge detection + {LM_ITERS} LM iterations)"
    )
    .unwrap();
    writeln!(
        out,
        "  {:<7} {:>12} {:>12} {:>12} {:>8} {:>12} {:>10}",
        "arrays", "edge wall", "LM wall", "total wall", "speedup", "energy (mJ)", "identical"
    )
    .unwrap();
    for p in &points {
        let total = p.edge_wall + p.lm_wall;
        writeln!(
            out,
            "  {:<7} {:>12} {:>12} {:>12} {:>7.2}x {:>12.4} {:>10}",
            p.arrays,
            fmt_cycles(p.edge_wall),
            fmt_cycles(p.lm_wall),
            fmt_cycles(total),
            total0 as f64 / total as f64,
            p.energy_mj,
            if p.identical { "yes" } else { "NO" }
        )
        .unwrap();
    }
    writeln!(
        out,
        "  (wall = slowest shard per phase + {} sync cycles per barrier; compute work,\n   energy and outputs are conserved — only elapsed time shrinks)",
        CostModel::default().pool_sync_cycles
    )
    .unwrap();
    out
}

/// The measured points of [`scaling`].
fn scaling_points() -> Vec<ScalingPoint> {
    use pimvo_core::{PimBackend, TrackerBackend};

    let (gray, depth) = canonical_frame();
    let cam = Pinhole::qvga();
    let cfg = EdgeConfig::default();
    let pose = SE3::exp(&[0.01, -0.005, 0.008, 0.002, -0.004, 0.001]);

    let mut points: Vec<ScalingPoint> = Vec::new();
    let mut reference: Option<(pimvo_kernels::EdgeMaps, usize, f64)> = None;
    for arrays in [1usize, 2, 4, 8] {
        let mut be = PimBackend::with_options(BatchOptions {
            pool: arrays,
            ..Default::default()
        });
        let maps = be.detect_edges(&gray, &cfg);
        let features = extract_features(&maps.mask, &depth, &cam, 6000, 0.3, 8.0);
        let kf = Keyframe::build(0, SE3::IDENTITY, maps.mask.clone(), &cam);
        let mut eq = None;
        for _ in 0..LM_ITERS {
            eq = Some(be.linearize(&features, &kf, &cam, &pose));
        }
        let eq = eq.expect("at least one LM iteration");
        let stats = be.stats();
        let identical = match &reference {
            None => {
                reference = Some((maps, eq.count, eq.cost));
                true
            }
            Some((rm, rc, rcost)) => *rm == maps && *rc == eq.count && *rcost == eq.cost,
        };
        points.push(ScalingPoint {
            arrays,
            edge_wall: stats.edge_cycles,
            lm_wall: stats.lm_cycles,
            energy_mj: stats.energy_mj,
            identical,
        });
    }
    points
}

#[cfg(test)]
mod scaling_tests {
    use super::*;

    #[test]
    fn scaling_is_monotone_and_bit_identical() {
        let points = scaling_points();
        assert_eq!(points.len(), 4);
        for p in &points {
            assert!(
                p.identical,
                "{} arrays diverged from single-array",
                p.arrays
            );
        }
        for w in points.windows(2) {
            let (a, b) = (&w[0], &w[1]);
            assert!(
                b.edge_wall + b.lm_wall < a.edge_wall + a.lm_wall,
                "total wall cycles must shrink: {} arrays {} vs {} arrays {}",
                a.arrays,
                a.edge_wall + a.lm_wall,
                b.arrays,
                b.edge_wall + b.lm_wall
            );
        }
    }
}
