//! Property tests of the sharded pose-estimation runner: for random
//! poses, feature sets and pool sizes, and for every interpolation ×
//! mapping variant of the programs a submission holds,
//! [`BatchRunner::submit`] is bit-identical to running the batches
//! sequentially on one array, and the distributed compute work is
//! conserved exactly.

use pimvo_core::pim_exec::{BatchMapping, BatchOptions, BatchOutput, BatchRunner, BATCH};
use pimvo_core::{Feature, Interp, Keyframe, QFeature, QKeyframe, QPose};
use pimvo_kernels::GrayImage;
use pimvo_pim::ExecStats;
use pimvo_vomath::{Pinhole, SE3};
use proptest::prelude::*;

fn test_kf(cam: &Pinhole) -> QKeyframe {
    let (w, h) = (320u32, 240u32);
    let mut mask = vec![0u8; (w * h) as usize];
    for y in (8..h).step_by(16) {
        for x in (8..w).step_by(14) {
            mask[(y * w + x) as usize] = 255;
        }
    }
    Keyframe::build(0, SE3::IDENTITY, GrayImage::from_raw(w, h, mask), cam).q_tables
}

fn features(cam: &Pinhole, n: usize, seed: u64) -> Vec<QFeature> {
    features_at(cam, n, seed, 12)
}

fn features_at(cam: &Pinhole, n: usize, seed: u64, frac: u32) -> Vec<QFeature> {
    (0..n)
        .map(|i| {
            let k = (i as u64)
                .wrapping_add(seed)
                .wrapping_mul(0x9E3779B97F4A7C15);
            let u = 10.0 + (k % 300) as f64;
            let v = 10.0 + ((k >> 16) % 220) as f64;
            let d = 0.8 + ((k >> 32) % 500) as f64 * 0.01;
            QFeature::quantize_with(&Feature::new(u, v, d, cam), frac, 16)
        })
        .collect()
}

/// The batches of `feats` run one at a time on a single array, one
/// submission per chunk.
fn sequential(
    feats: &[QFeature],
    pose: &QPose,
    kf: &QKeyframe,
    cam: &Pinhole,
    options: BatchOptions,
) -> (Vec<BatchOutput>, ExecStats) {
    let mut one = BatchRunner::new(BatchOptions { pool: 1, ..options });
    let outs = feats
        .chunks(BATCH)
        .flat_map(|c| one.submit(c, pose, kf, cam).unwrap())
        .collect();
    (outs, one.pool().merged_stats())
}

/// Two chunks quantized at different fractions in one submission: each
/// runs programs resolved for its own fraction, exactly as one
/// submission per chunk does.
#[test]
fn mixed_fraction_submit_equals_per_chunk_runs() {
    let cam = Pinhole::qvga();
    let kf = test_kf(&cam);
    let mut feats = features_at(&cam, BATCH, 7, 12);
    feats.extend(features_at(&cam, BATCH / 2, 8, 11));
    let pose = QPose::quantize(&SE3::exp(&[0.02, -0.01, 0.01, 0.0, 0.004, 0.01]));

    let mut runner = BatchRunner::new(BatchOptions {
        pool: 2,
        ..Default::default()
    });
    let sharded = runner.submit(&feats, &pose, &kf, &cam).unwrap();

    let (per_chunk, stats) = sequential(&feats, &pose, &kf, &cam, BatchOptions::default());

    assert_eq!(sharded, per_chunk);
    let merged = runner.pool().merged_stats();
    assert_eq!(merged.cycles, stats.cycles);
    assert_eq!(merged.op_histogram, stats.op_histogram);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Sharded warp/Jacobian/Hessian batches are bit-identical to the
    /// sequential single-array execution for any pose, feature set,
    /// pool size, interpolation and mapping, and the merged compute
    /// stats are conserved.
    #[test]
    fn sharded_batches_equal_sequential(
        seed in any::<u64>(),
        n_feats in 1usize..260,
        n_arrays in 1usize..5,
        tx in -0.05f64..0.05,
        ty in -0.05f64..0.05,
        wz in -0.03f64..0.03,
    ) {
        let cam = Pinhole::qvga();
        let kf = test_kf(&cam);
        let feats = features(&cam, n_feats, seed);
        let pose = QPose::quantize(&SE3::exp(&[tx, ty, 0.01, 0.0, 0.005, wz]));

        for interp in [Interp::Bilinear, Interp::Nearest] {
            for mapping in [BatchMapping::Opt, BatchMapping::Naive] {
                let options = BatchOptions {
                    pool: n_arrays,
                    interp,
                    mapping,
                    ..Default::default()
                };
                let mut runner = BatchRunner::new(options);
                let sharded = runner.submit(&feats, &pose, &kf, &cam).unwrap();
                let (sequential, stats) = sequential(&feats, &pose, &kf, &cam, options);

                prop_assert_eq!(&sharded, &sequential, "{:?} {:?}", interp, mapping);
                let merged = runner.pool().merged_stats();
                prop_assert_eq!(merged.cycles, stats.cycles);
                prop_assert_eq!(merged.acc_ops, stats.acc_ops);
                prop_assert_eq!(merged.sram_reads, stats.sram_reads);
                prop_assert_eq!(&merged.op_histogram, &stats.op_histogram);
            }
        }
    }
}
