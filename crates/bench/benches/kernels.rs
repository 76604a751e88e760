//! Criterion micro-benches of the edge-detection kernels.
//!
//! These measure *simulator wall-clock throughput* (how fast this Rust
//! implementation runs on the host), complementing the modeled hardware
//! cycle counts printed by the `exp_*` binaries.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use pimvo_kernels::pim_pool::EdgeKernels;
use pimvo_kernels::{ir, scalar, EdgeConfig, GrayImage};
use pimvo_pim::{ArrayConfig, LowerLevel, PimMachine};

fn qvga_image() -> GrayImage {
    GrayImage::from_fn(320, 240, |x, y| {
        ((x * 13 + y * 7).wrapping_mul(2654435761) >> 9) as u8
    })
}

fn bench_kernels(c: &mut Criterion) {
    let img = qvga_image();
    let cfg = EdgeConfig::default();
    let lpf_map = scalar::lpf(&img);
    let hpf_map = scalar::hpf(&lpf_map);

    let mut g = c.benchmark_group("edge_kernels_scalar");
    g.bench_function("lpf", |b| b.iter(|| scalar::lpf(&img)));
    g.bench_function("hpf", |b| b.iter(|| scalar::hpf(&lpf_map)));
    g.bench_function("nms", |b| b.iter(|| scalar::nms(&hpf_map, &cfg)));
    g.bench_function("full_pipeline", |b| {
        b.iter(|| scalar::edge_detect(&img, &cfg))
    });
    g.finish();

    // one array, enough Tmp registers for the multi-register lowering
    let array = PimMachine::builder(ArrayConfig::qvga_banks(6)).tmp_regs(ir::REGS_REQUIRED);
    let mut g = c.benchmark_group("edge_kernels_pim_simulated");
    g.sample_size(10);
    for (name, level) in [
        ("optimized", LowerLevel::Opt),
        ("naive", LowerLevel::Naive),
        ("multireg", LowerLevel::MultiReg(ir::REGS_REQUIRED)),
    ] {
        g.bench_function(name, |b| {
            b.iter_batched(
                || array.build_pool(1),
                |mut m| EdgeKernels::at(level).edge_detect(&mut m, &img, &cfg),
                BatchSize::LargeInput,
            )
        });
    }
    g.finish();
}

criterion_group!(benches, bench_kernels);
criterion_main!(benches);
