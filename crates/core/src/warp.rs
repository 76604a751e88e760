//! The feature-warp kernel (Fig. 5-b), in quantized and float forms.
//!
//! The quantized form is the exact arithmetic the PIM executes (the
//! machine-path equivalence is tested in [`crate::pim_exec`]): Q1.15
//! pose entries multiply Q4.12 features into Q5.27 accumulators
//! (`X, Y, Z`), the projection ratio is a 64-bit-dividend restoring
//! division producing Q2.14, and the pixel coordinates come out in
//! Q10.6.
//!
//! Dividing by the inverse depth never happens: `(X, Y, Z)` is the real
//! 3D point scaled by `c`, and the pinhole projection is
//! scale-invariant — the observation that makes the fixed-point
//! formulation of the paper work.

use crate::feature::Feature;
use crate::qmath::{qdiv, qmul_shr};
use crate::quant::{QCamera, QFeature, QPose, POSE_FRAC, RATIO_FRAC};
use pimvo_vomath::{Pinhole, Vec3, SE3};

/// Result of the quantized warp of one feature.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WarpQ {
    /// Warped pixel column, Q10.6 raw.
    pub u_raw: i64,
    /// Warped pixel row, Q10.6 raw.
    pub v_raw: i64,
    /// Projection ratio `X/Z`, Q2.14 raw.
    pub qx: i64,
    /// Projection ratio `Y/Z`, Q2.14 raw.
    pub qy: i64,
    /// Scaled depth `Z = Z_real * c`, Q4.12 raw.
    pub z: i64,
    /// Inverse real depth `c / Z = 1 / Z_real`, Q4.12 raw.
    pub iz_real: i64,
}

/// Warps a quantized feature by a quantized pose. Returns `None` when
/// the warped point lies at or behind the camera plane.
pub fn warp_q(f: &QFeature, pose: &QPose) -> Option<(i64, i64, i64)> {
    let ff = f.frac;
    // X = r00 a + r01 b + r02 + t0 c  (raw frac = POSE_FRAC + ff)
    let one = 1i64 << ff; // the homogeneous 1 in the feature's format
    let dot = |r0: i32, r1: i32, r2: i32, t: i32| -> i64 {
        r0 as i64 * f.a as i64 + r1 as i64 * f.b as i64 + r2 as i64 * one + t as i64 * f.c as i64
    };
    let x = dot(pose.r[0], pose.r[1], pose.r[2], pose.t[0]);
    let y = dot(pose.r[3], pose.r[4], pose.r[5], pose.t[1]);
    let z = dot(pose.r[6], pose.r[7], pose.r[8], pose.t[2]);
    if z <= 0 {
        return None;
    }
    Some((x, y, z))
}

/// Projects a quantized warp result to pixel coordinates and packages
/// the quantities the Jacobian kernel consumes.
///
/// `cam` supplies the Q10.6 projection constants `f`, `cx`, `cy`
/// ([`QCamera::quantize`], computed once per linearization).
pub fn project_q(f: &QFeature, pose: &QPose, cam: &QCamera) -> Option<WarpQ> {
    let ff = f.frac;
    let warp_frac = POSE_FRAC + ff;
    let (x, y, z) = warp_q(f, pose)?;
    // ratios X/Z, Y/Z in Q2.14 (64-bit dividend in the Tmp Reg)
    let qx = qdiv(x << RATIO_FRAC, z, 32);
    let qy = qdiv(y << RATIO_FRAC, z, 32);
    // pixel coords: u' = f * qx + cx in Q10.6
    let u_raw = qmul_shr(cam.f, qx, RATIO_FRAC) + cam.cx;
    let v_raw = qmul_shr(cam.f, qy, RATIO_FRAC) + cam.cy;
    // Z rescaled to Q4.12 for the Jacobian's divisions
    let z_q12 = z >> (warp_frac - 12);
    if z_q12 <= 0 {
        return None;
    }
    // 1/Z_real = c / Z, Q4.12: (c << 12) has frac ff+12; divide by
    // z_q12 (frac 12) -> frac ff; rescale to 12
    let iz = qdiv((f.c as i64) << 12, z_q12, 32);
    let iz_real = if ff >= 12 {
        iz >> (ff - 12)
    } else {
        iz << (12 - ff)
    };
    Some(WarpQ {
        u_raw,
        v_raw,
        qx,
        qy,
        z: z_q12,
        iz_real,
    })
}

/// Float reference warp: returns the warped pixel coordinates, or
/// `None` behind the camera.
pub fn warp_float(f: &Feature, pose: &SE3, cam: &Pinhole) -> Option<(f64, f64)> {
    let p = pose.rotation.rotate(Vec3::new(f.a, f.b, 1.0)) + pose.translation * f.c;
    if p.z <= 1e-12 {
        return None;
    }
    Some((cam.f * p.x / p.z + cam.cx, cam.f * p.y / p.z + cam.cy))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quant::FEAT_FRAC;

    #[test]
    fn identity_warp_reprojects_to_source_pixel() {
        let cam = Pinhole::qvga();
        let f = Feature::new(100.25, 81.5, 2.0, &cam);
        let q = QFeature::quantize(&f);
        let pose = QPose::quantize(&SE3::IDENTITY);
        let w = project_q(&q, &pose, &QCamera::quantize(&cam)).expect("in front");
        let u = w.u_raw as f64 / 64.0;
        let v = w.v_raw as f64 / 64.0;
        assert!((u - 100.25).abs() < 0.5, "u={u}");
        assert!((v - 81.5).abs() < 0.5, "v={v}");
    }

    #[test]
    fn sixteen_bit_warp_error_below_one_pixel() {
        // the paper's §3.3 claim: 16-bit quantization gives < 1 px
        // warp error versus float
        let cam = Pinhole::qvga();
        let pose = SE3::exp(&[0.04, -0.03, 0.05, 0.02, -0.015, 0.01]);
        let qpose = QPose::quantize(&pose);
        let qcam = QCamera::quantize(&cam);
        let mut max_err: f64 = 0.0;
        for i in 0..500 {
            let u = 10.0 + (i % 25) as f64 * 12.0;
            let v = 10.0 + (i / 25) as f64 * 11.0;
            let d = 0.8 + (i % 9) as f64 * 0.7;
            let f = Feature::new(u, v, d, &cam);
            let Some((uf, vf)) = warp_float(&f, &pose, &cam) else {
                continue;
            };
            let q = QFeature::quantize(&f);
            let Some(w) = project_q(&q, &qpose, &qcam) else {
                continue;
            };
            let (uq, vq) = (w.u_raw as f64 / 64.0, w.v_raw as f64 / 64.0);
            max_err = max_err.max((uq - uf).abs()).max((vq - vf).abs());
        }
        assert!(max_err < 1.0, "16-bit warp error {max_err} px");
    }

    #[test]
    fn eight_bit_warp_is_faulty() {
        // §3.3: "an 8-bit quantization leads to completely fault results"
        let cam = Pinhole::qvga();
        let pose = SE3::exp(&[0.04, -0.03, 0.05, 0.02, -0.015, 0.01]);
        let qpose = QPose::quantize(&pose);
        let qcam = QCamera::quantize(&cam);
        let mut max_err: f64 = 0.0;
        for i in 0..200 {
            let u = 12.0 + (i % 20) as f64 * 15.0;
            let v = 12.0 + (i / 20) as f64 * 22.0;
            let f = Feature::new(u, v, 1.0 + (i % 5) as f64, &cam);
            let Some((uf, vf)) = warp_float(&f, &pose, &cam) else {
                continue;
            };
            // 8-bit features: Q4.4
            let q = QFeature::quantize_with(&f, 4, 8);
            let Some(w) = project_q(&q, &qpose, &qcam) else {
                continue;
            };
            let (uq, vq) = (w.u_raw as f64 / 64.0, w.v_raw as f64 / 64.0);
            max_err = max_err.max((uq - uf).abs()).max((vq - vf).abs());
        }
        assert!(max_err > 5.0, "8-bit warp should be faulty, err {max_err}");
    }

    #[test]
    fn behind_camera_returns_none() {
        let cam = Pinhole::qvga();
        let f = Feature::new(160.0, 120.0, 0.5, &cam);
        let q = QFeature::quantize(&f);
        // translate backwards past the point: t_z = -0.9 (c=2 => t*c=-1.8 < -1... saturates)
        let pose = QPose::quantize(&SE3::exp(&[0.0, 0.0, -0.9, 0.0, 0.0, 0.0]));
        assert!(project_q(&q, &pose, &QCamera::quantize(&cam)).is_none());
    }

    #[test]
    fn ratio_and_depth_outputs_consistent() {
        let cam = Pinhole::qvga();
        let f = Feature::new(200.0, 100.0, 2.0, &cam);
        let q = QFeature::quantize(&f);
        let pose = QPose::quantize(&SE3::IDENTITY);
        let w = project_q(&q, &pose, &QCamera::quantize(&cam)).unwrap();
        // identity: Z = 1 (times c scaling cancels): z_q12 ~ 4096 * 1
        assert!((w.z as f64 / 4096.0 - 1.0).abs() < 0.01);
        // 1/Z_real = c = 0.5
        assert!((w.iz_real as f64 / 4096.0 - 0.5).abs() < 0.01);
        // qx = X/Z = a
        assert!((w.qx as f64 / 16384.0 - f.a).abs() < 0.01);
        let _ = FEAT_FRAC;
    }
}
