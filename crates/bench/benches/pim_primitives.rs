//! Criterion micro-benches of the PIM machine: one-op lowered programs
//! (simulator throughput per operation class, at each lane width, each
//! op followed by its write-back), whole lowered programs through
//! `run_program`, and the armed op recorder's cost per recorded op. The
//! cases span the interpreter's lane classes: the 8-bit add and
//! abs-diff and a whole-frame `lpf_pass1` run on `i16` lanes;
//! multiplies, divides, 32-bit lanes and `pose_hessian` on `i64` lanes.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use pimvo_core::pim_exec::{pose_programs, pose_scratch, POSE_BASE};
use pimvo_core::Interp;
use pimvo_kernels::ir::{lpf_pass1_program, scratch_pool};
use pimvo_kernels::pim_pool::EdgeKernels;
use pimvo_kernels::pim_util::Regions;
use pimvo_kernels::{EdgeConfig, GrayImage};
use pimvo_pim::{
    lower, AluOp, ArrayConfig, DmaConfig, LaneClass, LaneWidth, LowerLevel, LoweredProgram,
    PimMachine, PimProgram, ScratchRows, Signedness, VReg, Val, DEFAULT_OP_RING_CAPACITY,
};

/// A machine with two operand rows filled at `width`, and the one-op
/// program `op` builds over them, storing its result to row 2.
fn one_op(
    width: LaneWidth,
    sign: Signedness,
    op: impl FnOnce(&mut PimProgram, Val, Val) -> VReg,
) -> (PimMachine, LoweredProgram) {
    let mut m = PimMachine::new(ArrayConfig::qvga());
    m.set_lanes(width, sign);
    let lanes = m.lanes();
    let a: Vec<i64> = (0..lanes as i64).map(|i| i * 3 + 1).collect();
    let b: Vec<i64> = (0..lanes as i64).map(|i| i * 7 + 2).collect();
    m.host_write_lanes(0, &a).unwrap();
    m.host_write_lanes(1, &b).unwrap();
    let mut p = PimProgram::new("one_op");
    p.set_lanes(width, sign);
    let v = op(&mut p, Val::Row(0), Val::Row(1));
    p.store(v, 2);
    let prog = lower(&p, LowerLevel::Opt, &ScratchRows::contiguous(8, 4)).expect("one op lowers");
    (m, prog)
}

fn bench_primitives(c: &mut Criterion) {
    let mut g = c.benchmark_group("pim_primitives");
    let unsigned = Signedness::Unsigned;
    for (name, width) in [("w8", LaneWidth::W8), ("w32", LaneWidth::W32)] {
        let cases: [(&str, fn(&mut PimProgram, Val, Val) -> VReg); 4] = [
            ("add", |p, a, b| p.add(a, b)),
            ("mul", |p, a, b| p.mul(a, b)),
            ("div", |p, a, b| p.div_frac(a, b, 0)),
            ("abs_diff", |p, a, b| p.alu(AluOp::AbsDiff, a, b)),
        ];
        for (op, build) in cases {
            let (mut m, prog) = one_op(width, unsigned, build);
            g.bench_function(format!("{op}_{name}"), |b| {
                b.iter(|| m.run_program(&prog).unwrap())
            });
        }
    }
    let (mut m, prog) = one_op(LaneWidth::W32, Signedness::Signed, |p, a, b| {
        p.mul_signed(a, b)
    });
    g.bench_function("mul_signed_w32", |b| {
        b.iter(|| m.run_program(&prog).unwrap())
    });
    g.finish();
}

/// Frame height of the QVGA edge program.
const HEIGHT: u32 = 240;

fn bench_programs(c: &mut Criterion) {
    let mut g = c.benchmark_group("run_program");
    let mut m = PimMachine::new(ArrayConfig::qvga_banks(6));
    let r = Regions::for_machine(&m, HEIGHT);
    let lpf = lower(
        &lpf_pass1_program(&r, r.input, HEIGHT, 0, i64::from(HEIGHT)),
        LowerLevel::Opt,
        &scratch_pool(&r),
    )
    .expect("lpf_pass1 lowers");
    assert_eq!(lpf.lane_class(), LaneClass::I16);
    g.bench_function("lpf_pass1_frame_i16", |b| {
        b.iter(|| m.run_program(&lpf).unwrap())
    });
    let hessian = pose_programs(POSE_BASE, 12, Interp::Bilinear)
        .iter()
        .map(|p| lower(p, LowerLevel::Opt, &pose_scratch(POSE_BASE)).expect("pose lowers"))
        .find(|p| p.name() == "pose_hessian")
        .expect("pose_hessian");
    assert_eq!(hessian.lane_class(), LaneClass::I32);
    g.bench_function("pose_hessian_i32", |b| {
        b.iter(|| m.run_program(&hessian).unwrap())
    });
    g.finish();
}

/// One QVGA edge detection (upload, the four edge programs, readout)
/// on a pool of one array, drained after every run as the serving
/// fleet drains each frame: with nothing armed, with the op recorder
/// armed, and with a DMA channel without and with the recorder (the
/// fleet's set-up). The throughput unit is one machine-stream record of
/// a run, so every case reads as ns per recorded op, and an armed case
/// minus its unarmed twin is the recorder's cost per op.
fn bench_op_recorder(c: &mut Criterion) {
    let img = GrayImage::from_fn(320, 240, |x, y| {
        ((x * 13 + y * 7).wrapping_mul(2654435761) >> 9) as u8
    });
    let cfg = EdgeConfig::default();
    let plain = PimMachine::builder(ArrayConfig::qvga_banks(6));
    let with_dma = plain.clone().dma(DmaConfig::default());
    let mut kernels = EdgeKernels::new();

    let mut probe = plain.build_pool(1);
    probe.arm_op_recorders(DEFAULT_OP_RING_CAPACITY);
    kernels.edge_detect(&mut probe, &img, &cfg);
    let trace = probe.drain_op_trace().expect("armed pool drains");
    let ops = trace.records.iter().filter(|r| r.array == 0).count() as u64;

    let mut g = c.benchmark_group("op_recorder");
    g.throughput(Throughput::Elements(ops));
    for (name, builder, armed) in [
        ("edge_detect_off", &plain, false),
        ("edge_detect_armed", &plain, true),
        ("edge_detect_dma", &with_dma, false),
        ("edge_detect_armed_dma", &with_dma, true),
    ] {
        let mut pool = builder.build_pool(1);
        if armed {
            pool.arm_op_recorders(DEFAULT_OP_RING_CAPACITY);
        }
        g.bench_function(name, |b| {
            b.iter(|| {
                let maps = kernels.edge_detect(&mut pool, &img, &cfg);
                (maps, pool.drain_op_trace().map(|t| t.len()))
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_primitives, bench_programs, bench_op_recorder);
criterion_main!(benches);
