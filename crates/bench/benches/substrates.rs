//! Criterion benches of the supporting substrates: distance transform,
//! keyframe table build, CRC-32, SE(3) operations, the synthetic
//! renderer and CNN inference.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use pimvo_cnn::{render_shape, Shape, SmallNet};
use pimvo_core::Keyframe;
use pimvo_kernels::{scalar, EdgeConfig};
use pimvo_pim::{ArrayConfig, PimMachine};
use pimvo_scene::{build_scene, RenderOptions, Sequence, SequenceKind};
use pimvo_telemetry::container::crc32;
use pimvo_vomath::{distance_transform, gradient_maps, Pinhole, SE3};

fn bench_substrates(c: &mut Criterion) {
    // distance transform on a QVGA edge mask
    let mut mask = vec![0u8; 320 * 240];
    for i in (0..mask.len()).step_by(23) {
        mask[i] = 255;
    }
    let mut g = c.benchmark_group("substrates");
    g.bench_function("distance_transform_qvga", |b| {
        b.iter(|| distance_transform(&mask, 320, 240))
    });
    let dt = distance_transform(&mask, 320, 240);
    g.bench_function("gradient_maps_qvga", |b| b.iter(|| gradient_maps(&dt)));

    // every table a keyframe restore rebuilds (DT, gradients, quantized
    // tables), from the first xyz frame's edge mask
    let seq = Sequence::generate(SequenceKind::Xyz, 1);
    let xyz_mask = scalar::edge_detect(&seq.frames[0].gray, &EdgeConfig::default()).mask;
    g.bench_function("keyframe_build_qvga_xyz", |b| {
        b.iter(|| Keyframe::build(0, SE3::IDENTITY, xyz_mask.clone(), &seq.camera))
    });

    // CRC-32 over one DMA descriptor's payload (a 320-byte row) and
    // over a checkpoint-sized container (77,393 bytes on fleet_churn)
    let bytes: Vec<u8> = (0..77_393u32)
        .map(|i| (i.wrapping_mul(2654435761) >> 13) as u8)
        .collect();
    g.bench_function("crc32_dma_row_320b", |b| {
        b.iter(|| crc32(0, black_box(&bytes[..320])))
    });
    g.bench_function("crc32_checkpoint_77kb", |b| {
        b.iter(|| crc32(0, black_box(&bytes)))
    });

    // SE(3) exp/log round trip
    let xi = [0.1, -0.05, 0.2, 0.03, -0.02, 0.01];
    g.bench_function("se3_exp_log", |b| {
        b.iter(|| {
            let t = SE3::exp(&xi);
            t.log()
        })
    });

    // one synthetic QVGA render
    let scene = build_scene(SequenceKind::Desk);
    let cam = Pinhole::qvga();
    let opts = RenderOptions::default();
    g.sample_size(10);
    g.bench_function("render_qvga_frame", |b| {
        b.iter(|| scene.render(&cam, &SE3::IDENTITY, &opts, 0))
    });

    // CNN inference on the simulated PIM
    let mut net = SmallNet::untrained();
    let _ = net.train_head(20, 5, 8);
    let img = render_shape(Shape::Circle, 42);
    g.bench_function("cnn_inference_scalar", |b| {
        b.iter(|| net.forward_scalar(&img))
    });
    g.bench_function("cnn_inference_pim_simulated", |b| {
        let mut m = PimMachine::new(ArrayConfig::qvga());
        b.iter(|| net.forward_pim(&mut m, 0, &img))
    });
    g.finish();
}

criterion_group!(benches, bench_substrates);
criterion_main!(benches);
