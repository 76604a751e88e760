//! Criterion micro-benches of the sharded multi-array pool: simulator
//! wall-clock throughput of pooled edge detection and LM batch
//! submission at several pool sizes (the modeled hardware cycles are
//! printed by `exp_all`).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use pimvo_core::pim_exec::{BatchOptions, BatchRunner};
use pimvo_core::{extract_features, Keyframe, QFeature, QPose};
use pimvo_kernels::pim_pool::EdgeKernels;
use pimvo_kernels::EdgeConfig;
use pimvo_pim::{ArrayConfig, PimMachine};
use pimvo_vomath::{Pinhole, SE3};

fn bench_pool(c: &mut Criterion) {
    let (gray, depth) = pimvo_bench::canonical_frame();
    let cfg = EdgeConfig::default();
    let builder = PimMachine::builder(ArrayConfig::qvga_banks(6));

    let mut g = c.benchmark_group("pool_edge_detect");
    for n in [1usize, 2, 4, 8] {
        g.bench_function(format!("arrays_{n}"), |b| {
            b.iter(|| {
                let mut pool = builder.build_pool(n);
                black_box(EdgeKernels::new().edge_detect(&mut pool, &gray, &cfg))
            })
        });
    }
    g.finish();

    let cam = Pinhole::qvga();
    let mut pool = builder.build_pool(1);
    let maps = EdgeKernels::new().edge_detect(&mut pool, &gray, &cfg);
    let features = extract_features(&maps.mask, &depth, &cam, 4000, 0.3, 8.0);
    let kf = Keyframe::build(0, SE3::IDENTITY, maps.mask.clone(), &cam);
    let qpose = QPose::quantize(&SE3::IDENTITY);
    let qfeats: Vec<QFeature> = features.iter().map(QFeature::quantize).collect();

    let mut g = c.benchmark_group("pool_lm_submit");
    for n in [1usize, 4] {
        g.bench_function(format!("arrays_{n}"), |b| {
            b.iter(|| {
                let mut runner = BatchRunner::new(BatchOptions {
                    pool: n,
                    ..Default::default()
                });
                black_box(runner.submit(&qfeats, &qpose, &kf.q_tables, &cam).unwrap())
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_pool);
criterion_main!(benches);
