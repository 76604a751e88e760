//! Criterion micro-benches of the PIM machine primitives (simulator
//! throughput per operation class, at each lane width).

use criterion::{criterion_group, criterion_main, Criterion};
use pimvo_pim::{AluOp, ArrayConfig, LaneWidth, Operand, PimMachine, Shift, Signedness};
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

criterion_group!(benches, bench_primitives);
criterion_main!(benches);
