//! Criterion micro-benches of the PIM machine primitives (simulator
//! throughput per operation class, at each lane width), and of whole
//! lowered programs through `run_program`. The per-op cases call the
//! public API, which always computes on `i64` lanes; the program cases
//! show the interpreter's lane classes: a whole-frame `lpf_pass1` runs
//! on `i16` lanes, `pose_hessian` on `i64` lanes.

use criterion::{criterion_group, criterion_main, Criterion};
use pimvo_core::pim_exec::{pose_programs, pose_scratch, POSE_BASE};
use pimvo_core::Interp;
use pimvo_kernels::ir::{lpf_pass1_program, scratch_pool};
use pimvo_kernels::pim_util::Regions;
use pimvo_pim::{
    lower, AluOp, ArrayConfig, LaneClass, LaneWidth, LowerLevel, Operand, PimMachine, Shift,
    Signedness,
};
use Operand::Row;

fn machine(width: LaneWidth, sign: Signedness) -> PimMachine {
    let mut m = PimMachine::new(ArrayConfig::qvga());
    m.set_lanes(width, sign);
    let lanes = m.lanes();
    let a: Vec<i64> = (0..lanes as i64).map(|i| i * 3 + 1).collect();
    let b: Vec<i64> = (0..lanes as i64).map(|i| i * 7 + 2).collect();
    m.host_write_lanes(0, &a).unwrap();
    m.host_write_lanes(1, &b).unwrap();
    m
}

fn bench_primitives(c: &mut Criterion) {
    let mut g = c.benchmark_group("pim_primitives");
    for (name, width) in [("w8", LaneWidth::W8), ("w32", LaneWidth::W32)] {
        let mut m = machine(width, Signedness::Unsigned);
        g.bench_function(format!("add_{name}"), |b| {
            b.iter(|| m.alu(AluOp::Add, Row(0), Row(1), Shift::None).unwrap())
        });
        let mut m = machine(width, Signedness::Unsigned);
        g.bench_function(format!("mul_{name}"), |b| {
            b.iter(|| m.mul(Row(0), Row(1)).unwrap())
        });
        let mut m = machine(width, Signedness::Unsigned);
        g.bench_function(format!("div_{name}"), |b| {
            b.iter(|| m.div(Row(0), Row(1)).unwrap())
        });
        let mut m = machine(width, Signedness::Unsigned);
        g.bench_function(format!("abs_diff_{name}"), |b| {
            b.iter(|| m.alu(AluOp::AbsDiff, Row(0), Row(1), Shift::None).unwrap())
        });
    }
    let mut m = machine(LaneWidth::W32, Signedness::Signed);
    g.bench_function("mul_signed_w32", |b| {
        b.iter(|| m.mul_signed(Row(0), Row(1)).unwrap())
    });
    let mut m = machine(LaneWidth::W8, Signedness::Unsigned);
    g.bench_function("writeback", |b| {
        m.alu(AluOp::Add, Row(0), Row(1), Shift::None).unwrap();
        b.iter(|| m.writeback(2).unwrap())
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
    assert_eq!(hessian.lane_class(), LaneClass::I64);
    g.bench_function("pose_hessian_i64", |b| {
        b.iter(|| m.run_program(&hessian).unwrap())
    });
    g.finish();
}

criterion_group!(benches, bench_primitives, bench_programs);
criterion_main!(benches);
