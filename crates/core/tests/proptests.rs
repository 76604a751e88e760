//! Property tests of the quantized pose-estimation pipeline.

use pimvo_core::pim_exec::{BatchOptions, BatchRunner, BATCH};
use pimvo_core::{jacobian_float, jacobian_q, Feature, Keyframe, QCamera, QFeature, QPose};
use pimvo_core::{linearize_q, project_q, warp_float, Interp, QNormalEquations};
use pimvo_kernels::GrayImage;
use pimvo_vomath::{Pinhole, SE3};
use proptest::prelude::*;

fn small_pose(t: [f64; 3], w: [f64; 3]) -> SE3 {
    SE3::exp(&[t[0], t[1], t[2], w[0], w[1], w[2]])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// §3.3's headline: the Q4.12 warp stays within one pixel of the
    /// float warp for any in-range feature and any plausible
    /// inter-frame pose.
    #[test]
    fn q4_12_warp_error_below_one_pixel(
        u in 8.0f64..312.0,
        v in 8.0f64..232.0,
        d in 0.6f64..6.0,
        tx in -0.08f64..0.08,
        ty in -0.08f64..0.08,
        tz in -0.08f64..0.08,
        wx in -0.04f64..0.04,
        wy in -0.04f64..0.04,
        wz in -0.04f64..0.04,
    ) {
        let cam = Pinhole::qvga();
        let pose = small_pose([tx, ty, tz], [wx, wy, wz]);
        let f = Feature::new(u, v, d, &cam);
        let (Some((uf, vf)), Some(wq)) = (
            warp_float(&f, &pose, &cam),
            project_q(
                &QFeature::quantize(&f),
                &QPose::quantize(&pose),
                &QCamera::quantize(&cam),
            ),
        ) else {
            return Ok(());
        };
        let (uq, vq) = (wq.u_raw as f64 / 64.0, wq.v_raw as f64 / 64.0);
        prop_assert!((uq - uf).abs() < 1.0, "u: {} vs {}", uq, uf);
        prop_assert!((vq - vf).abs() < 1.0, "v: {} vs {}", vq, vf);
    }

    /// The quantized Jacobian tracks the float Jacobian within a small
    /// relative error at the f·I gradient scale.
    #[test]
    fn quantized_jacobian_tracks_float(
        xh in -0.6f64..0.6,
        yh in -0.45f64..0.45,
        z in 0.5f64..5.0,
        gu in -350.0f64..350.0,
        gv in -350.0f64..350.0,
    ) {
        let jf = jacobian_float(xh, yh, z, gu, gv);
        let q = |v: f64, frac: u32| (v * (1 << frac) as f64).round() as i64;
        let jq = jacobian_q(
            q(xh, 14),
            q(yh, 14),
            q(1.0 / z, 12),
            q(gu, 2),
            q(gv, 2),
        );
        let scale = jf.iter().map(|v| v.abs()).fold(4.0f64, f64::max);
        for k in 0..6 {
            let got = jq[k] as f64 / 4.0;
            prop_assert!(
                (got - jf[k]).abs() < 0.03 * scale + 1.5,
                "J{}: {} vs {} (scale {})", k + 1, got, jf[k], scale
            );
        }
    }

    /// Quantization is monotone in precision: more fractional bits
    /// never give a (meaningfully) worse warp.
    #[test]
    fn more_bits_never_hurt(
        u in 20.0f64..300.0,
        v in 20.0f64..220.0,
        d in 0.8f64..5.0,
    ) {
        let cam = Pinhole::qvga();
        let pose = small_pose([0.03, -0.02, 0.04], [0.01, -0.02, 0.01]);
        let qpose = QPose::quantize(&pose);
        let f = Feature::new(u, v, d, &cam);
        let Some((uf, vf)) = warp_float(&f, &pose, &cam) else {
            return Ok(());
        };
        let err = |frac: u32, bits: u32| -> Option<f64> {
            let q = QFeature::quantize_with(&f, frac, bits);
            let w = project_q(&q, &qpose, &QCamera::quantize(&cam))?;
            Some(((w.u_raw as f64 / 64.0 - uf).powi(2)
                + (w.v_raw as f64 / 64.0 - vf).powi(2))
            .sqrt())
        };
        let (Some(e16), Some(e8)) = (err(12, 16), err(4, 8)) else {
            return Ok(());
        };
        prop_assert!(e16 <= e8 + 0.2, "16-bit {} vs 8-bit {}", e16, e8);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The machine execution equals the fast path for random feature
    /// sets and poses (the full-batch equivalence, randomized).
    #[test]
    fn machine_equals_fast_path_randomized(
        seed in 0u32..1000,
        tx in -0.05f64..0.05,
        wy in -0.02f64..0.02,
    ) {
        let cam = Pinhole::qvga();
        let (w, h) = (320u32, 240u32);
        let mut mask = vec![0u8; (w * h) as usize];
        for i in (seed as usize % 13..mask.len()).step_by(41) {
            mask[i] = 255;
        }
        let kf = Keyframe::build(0, SE3::IDENTITY, GrayImage::from_raw(w, h, mask), &cam).q_tables;
        let pose = QPose::quantize(&small_pose([tx, 0.01, -0.02], [0.0, wy, 0.005]));
        let feats: Vec<QFeature> = (0..BATCH)
            .map(|i| {
                let u = 10.0 + ((i * 7 + seed as usize) % 300) as f64;
                let v = 10.0 + ((i * 13) % 220) as f64;
                let d = 0.9 + (i % 8) as f64 * 0.5;
                Feature::new(u, v, d, &cam).q
            })
            .collect();
        let mut runner = BatchRunner::new(BatchOptions::default());
        let out = runner.submit(&feats, &pose, &kf, &cam).unwrap().remove(0);
        for (i, f) in feats.iter().enumerate() {
            if let Some(wq) = project_q(f, &pose, &QCamera::quantize(&cam)) {
                prop_assert_eq!(out.u_raw[i], wq.u_raw, "lane {} u", i);
                if out.valid[i] {
                    let (r, gu, gv) = kf.lookup_q(wq.u_raw, wq.v_raw).expect("in map");
                    prop_assert_eq!(out.residuals[i], r, "lane {} r", i);
                    let jf = jacobian_q(wq.qx, wq.qy, wq.iz_real, gu as i64, gv as i64);
                    prop_assert_eq!(out.jacobians[i], jf, "lane {} J", i);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The batched fast path — features quantized at extraction,
    /// 80-row chunks summed under the no-clamp proof — gives the
    /// normal equations of the per-feature `project_q → lookup_with →
    /// jacobian_q → accumulate` loop exactly (h, b, cost and count), in
    /// both interpolation modes and with a partial last chunk.
    #[test]
    fn batched_fast_path_equals_per_feature_loop(
        seed in 0u64..1_000_000,
        n in 1usize..(3 * BATCH + BATCH / 2),
        t in prop::array::uniform3(-0.08f64..0.08),
        w in prop::array::uniform3(-0.04f64..0.04),
        nearest in any::<bool>(),
        stride in 7usize..97,
    ) {
        let cam = Pinhole::qvga();
        let (mw, mh) = (320u32, 240u32);
        let mut mask = vec![0u8; (mw * mh) as usize];
        for i in ((seed as usize % stride)..mask.len()).step_by(stride * 13) {
            mask[i] = 255;
        }
        let kf = Keyframe::build(0, SE3::IDENTITY, GrayImage::from_raw(mw, mh, mask), &cam).q_tables;
        let pose = QPose::quantize(&small_pose(t, w));
        let qcam = QCamera::quantize(&cam);
        let interp = if nearest { Interp::Nearest } else { Interp::Bilinear };
        let features: Vec<Feature> = (0..n as u64)
            .map(|i| {
                let k = (i + seed).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let u = (k % 320) as f64 + ((k >> 9) % 64) as f64 / 64.0;
                let v = ((k >> 16) % 240) as f64 + ((k >> 25) % 64) as f64 / 64.0;
                let d = 0.3 + ((k >> 32) % 770) as f64 * 0.01;
                Feature::new(u, v, d, &cam)
            })
            .collect();

        let mut want = QNormalEquations::zero();
        for f in &features {
            let Some(wq) = project_q(&QFeature::quantize(f), &pose, &qcam) else {
                continue;
            };
            let Some((r, gu, gv)) = kf.lookup_with(wq.u_raw, wq.v_raw, interp) else {
                continue;
            };
            want.accumulate(&jacobian_q(wq.qx, wq.qy, wq.iz_real, gu as i64, gv as i64), r);
        }
        let got = linearize_q(&features, &pose, &kf, &qcam, interp);
        prop_assert_eq!(got.h, want.h);
        prop_assert_eq!(got.b, want.b);
        prop_assert_eq!(got.cost, want.cost);
        prop_assert_eq!(got.count, want.count);
    }
}
