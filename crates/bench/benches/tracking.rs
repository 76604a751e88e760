//! Criterion bench of full-frame tracking on both backends (simulator
//! wall-clock per frame), and of one LM linearization on the PIM
//! backend's fast path.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use pimvo_core::{
    extract_features, BackendKind, Keyframe, PimBackend, Tracker, TrackerBackend, TrackerConfig,
};
use pimvo_scene::{Sequence, SequenceKind};
use pimvo_vomath::SE3;

fn bench_tracking(c: &mut Criterion) {
    let seq = Sequence::generate(SequenceKind::Desk, 4);
    let mut g = c.benchmark_group("tracking_per_frame");
    g.sample_size(10);
    for (name, backend) in [("float", BackendKind::Float), ("pim", BackendKind::Pim)] {
        g.bench_function(name, |b| {
            let mut tracker = Tracker::new(TrackerConfig::default(), backend);
            // bootstrap so the measured frames exercise the LM path
            let _ = tracker.process_frame(&seq.frames[0].gray, &seq.frames[0].depth);
            let mut i = 1usize;
            b.iter(|| {
                let f = &seq.frames[1 + (i % 3)];
                i += 1;
                tracker.process_frame(&f.gray, &f.depth)
            })
        });
    }
    g.finish();
}

/// `PimBackend::linearize` per call on real xyz features (frame 1
/// against keyframe 0, at the ground-truth relative pose), after a
/// warm-up call: the tracker's hot path without edge detection or the
/// LM solve around it.
fn bench_linearize(c: &mut Criterion) {
    let seq = Sequence::generate(SequenceKind::Xyz, 2);
    let cfg = TrackerConfig::default();
    let cam = seq.camera;
    let mut be = PimBackend::new();
    let kf_maps = be.detect_edges(&seq.frames[0].gray, &cfg.edge);
    let keyframe = Keyframe::build(0, SE3::IDENTITY, kf_maps.mask, &cam);
    let cur = &seq.frames[1];
    let maps = be.detect_edges(&cur.gray, &cfg.edge);
    let features = extract_features(
        &maps.mask,
        &cur.depth,
        &cam,
        cfg.max_features,
        cfg.min_depth,
        cfg.max_depth,
    );
    let gt = &seq.ground_truth.samples;
    let pose = gt[0].1.inverse().compose(&gt[1].1);
    let _ = be.linearize(&features, &keyframe, &cam, &pose);
    c.bench_function("linearize_fast_path", |b| {
        b.iter(|| black_box(be.linearize(black_box(&features), &keyframe, &cam, &pose)))
    });
}

criterion_group!(benches, bench_tracking, bench_linearize);
criterion_main!(benches);
