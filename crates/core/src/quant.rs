//! Quantized data types of the PIM pose-estimation pipeline (§3.3-3.4).

use crate::feature::Feature;
use crate::qmath::quantize;
use pimvo_mcu::KeyframeTables;
use pimvo_vomath::{Pinhole, SE3};

/// Fractional bits of feature coordinates (Q4.12, §3.3).
pub const FEAT_FRAC: u32 = 12;
/// Fractional bits of pose entries (Q1.15, §3.3).
pub const POSE_FRAC: u32 = 15;
/// Fractional bits of the warped `(X, Y, Z)` accumulators (Q5.27).
#[allow(dead_code)] // documents the intermediate format of the warp pipeline
pub const WARP_FRAC: u32 = FEAT_FRAC + POSE_FRAC;
/// Fractional bits of the projection ratio `X/Z` (Q2.14).
pub const RATIO_FRAC: u32 = 14;
/// Fractional bits of warped pixel coordinates (Q10.6).
pub const PIX_FRAC: u32 = 6;
/// Fractional bits of the pre-scaled gradients `f·I` and the Jacobian
/// entries (Q14.2, §3.4).
pub const GRAD_FRAC: u32 = 2;
/// Fractional bits of the distance-transform residual (Q12.4).
pub const RES_FRAC: u32 = 4;
/// Fractional bits of the Hessian / steepest-descent accumulators
/// (Q29.3, §3.4).
pub const HES_FRAC: u32 = 3;

/// Residual-lookup interpolation mode.
///
/// The paper says residuals are "directly looked-up" in the distance
/// transform, which reads as nearest-neighbour; its Q12.4 residual
/// format however implies sub-pixel values, and PicoVO-class systems
/// interpolate. Both are implemented; the ablation in
/// [`crate::ablation`] quantifies the difference (bilinear converges
/// measurably better at a modest gather/lerp cost).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Interp {
    /// Bilinear residual with Q0.6 fixed-point lerps (default).
    #[default]
    Bilinear,
    /// Round-to-nearest lookup.
    Nearest,
}

/// A feature quantized to the inverse-depth coordinate format.
///
/// With the default Q4.12 the paper reports a warp error below one
/// pixel; [`QFeature::quantize_with`] exposes the fractional width for
/// the quantization ablation (8-bit features break tracking entirely).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QFeature {
    /// `(u - cx)/f`, raw fixed-point.
    pub a: i32,
    /// `(v - cy)/f`, raw fixed-point.
    pub b: i32,
    /// `1/d`, raw fixed-point.
    pub c: i32,
    /// Fractional bits of `a`, `b`, `c`.
    pub frac: u32,
}

impl QFeature {
    /// Quantizes at the paper's Q4.12.
    pub fn quantize(f: &Feature) -> QFeature {
        Self::quantize_with(f, FEAT_FRAC, 16)
    }

    /// Quantizes with an explicit format (ablation support): `frac`
    /// fractional bits in a `bits`-wide word.
    pub fn quantize_with(f: &Feature, frac: u32, bits: u32) -> QFeature {
        QFeature {
            a: quantize(f.a, frac, bits) as i32,
            b: quantize(f.b, frac, bits) as i32,
            c: quantize(f.c, frac, bits) as i32,
            frac,
        }
    }
}

/// A relative pose quantized to Q1.15 (rotation entries and translation
/// all lie in `(-1, 1)` for keyframe-relative motion, §3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QPose {
    /// Rotation matrix entries, row-major, Q1.15.
    pub r: [i32; 9],
    /// Translation, Q1.15.
    pub t: [i32; 3],
}

impl QPose {
    /// Quantizes a relative pose. Entries outside `(-1, 1)` saturate —
    /// the keyframe policy keeps relative translations well inside.
    pub fn quantize(pose: &SE3) -> QPose {
        let m = pose.rotation.matrix().m;
        let q = |v: f64| quantize(v, POSE_FRAC, 16) as i32;
        QPose {
            r: [
                q(m[0][0]),
                q(m[0][1]),
                q(m[0][2]),
                q(m[1][0]),
                q(m[1][1]),
                q(m[1][2]),
                q(m[2][0]),
                q(m[2][1]),
                q(m[2][2]),
            ],
            t: [
                q(pose.translation.x),
                q(pose.translation.y),
                q(pose.translation.z),
            ],
        }
    }
}

/// Pinhole intrinsics quantized to the Q10.6 pixel format: the
/// projection constants `u' = f·qx + cx`, `v' = f·qy + cy` of the warp
/// (exact for typical integer-ish intrinsics). Quantize once per
/// linearization and hand the result to every feature's projection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QCamera {
    /// Focal length, Q10.6 raw.
    pub f: i64,
    /// Principal-point column, Q10.6 raw.
    pub cx: i64,
    /// Principal-point row, Q10.6 raw.
    pub cy: i64,
}

impl QCamera {
    /// Rounds `f`, `cx` and `cy` to Q10.6.
    pub fn quantize(cam: &Pinhole) -> QCamera {
        let q = |v: f64| (v * (1 << PIX_FRAC) as f64).round() as i64;
        QCamera {
            f: q(cam.f),
            cx: q(cam.cx),
            cy: q(cam.cy),
        }
    }
}

/// Keyframe lookup tables quantized for the PIM: the distance
/// transform in Q12.4 and the gradient maps pre-scaled by the focal
/// length into the Jacobian's Q14.2 (so `f·I_u` is a single lookup).
#[derive(Debug, Clone)]
pub struct QKeyframe {
    /// Map width in pixels.
    pub width: u32,
    /// Map height in pixels.
    pub height: u32,
    /// Distance transform, Q12.4.
    pub dt: Vec<i16>,
    /// `f · ∂DT/∂u`, Q14.2.
    pub gx: Vec<i16>,
    /// `f · ∂DT/∂v`, Q14.2.
    pub gy: Vec<i16>,
}

impl QKeyframe {
    /// Quantizes keyframe tables for the camera `cam`.
    pub fn quantize(tables: &KeyframeTables, cam: &Pinhole) -> QKeyframe {
        let dist = |d: &f32| quantize(*d as f64, RES_FRAC, 16) as i16;
        let grad = |g: &f32| quantize(cam.f * *g as f64, GRAD_FRAC, 16) as i16;
        QKeyframe {
            width: tables.dt.width(),
            height: tables.dt.height(),
            dt: tables.dt.data().iter().map(dist).collect(),
            gx: tables.grad_x.iter().map(grad).collect(),
            gy: tables.grad_y.iter().map(grad).collect(),
        }
    }

    /// Lookup at quantized pixel coordinates (Q10.`PIX_FRAC` raw):
    /// **bilinear** residual (sub-pixel accuracy drives the tracking
    /// precision) with fixed-point Q0.6 weights and truncating lerps —
    /// exactly the arithmetic the PIM executes — and nearest-neighbour
    /// gradients. Returns `(residual Q12.4, f·Iu Q14.2, f·Iv Q14.2)` or
    /// `None` when the 2x2 interpolation support leaves the map.
    pub fn lookup_q(&self, u_raw: i64, v_raw: i64) -> Option<(i64, i16, i16)> {
        self.lookup_with(u_raw, v_raw, Interp::Bilinear)
    }

    /// [`QKeyframe::lookup_q`] with an explicit interpolation mode.
    pub fn lookup_with(&self, u_raw: i64, v_raw: i64, interp: Interp) -> Option<(i64, i16, i16)> {
        if interp == Interp::Nearest {
            let half = 1i64 << (PIX_FRAC - 1);
            let x = (u_raw + half) >> PIX_FRAC;
            let y = (v_raw + half) >> PIX_FRAC;
            if x < 0 || y < 0 || x >= self.width as i64 || y >= self.height as i64 {
                return None;
            }
            let idx = (y as u32 * self.width + x as u32) as usize;
            return Some((self.dt[idx] as i64, self.gx[idx], self.gy[idx]));
        }
        let x0 = u_raw >> PIX_FRAC;
        let y0 = v_raw >> PIX_FRAC;
        let wu = u_raw & ((1 << PIX_FRAC) - 1);
        let wv = v_raw & ((1 << PIX_FRAC) - 1);
        if x0 < 0 || y0 < 0 || x0 + 1 >= self.width as i64 || y0 + 1 >= self.height as i64 {
            return None;
        }
        let w = self.width as i64;
        let i00 = (y0 * w + x0) as usize;
        let (d00, d10) = (self.dt[i00] as i64, self.dt[i00 + 1] as i64);
        let (d01, d11) = (
            self.dt[i00 + w as usize] as i64,
            self.dt[i00 + w as usize + 1] as i64,
        );
        let dx0 = d00 + (((d10 - d00) * wu) >> PIX_FRAC);
        let dx1 = d01 + (((d11 - d01) * wu) >> PIX_FRAC);
        let r = dx0 + (((dx1 - dx0) * wv) >> PIX_FRAC);
        // nearest pixel for the (smooth) gradient maps
        let xn = x0 + i64::from(wu >= (1 << (PIX_FRAC - 1)));
        let yn = y0 + i64::from(wv >= (1 << (PIX_FRAC - 1)));
        let inear = (yn * w + xn) as usize;
        Some((r, self.gx[inear], self.gy[inear]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Keyframe;
    use pimvo_kernels::GrayImage;

    #[test]
    fn qfeature_roundtrip_within_lsb() {
        let f = Feature::new(100.0, 80.0, 2.0, &Pinhole::qvga());
        let q = QFeature::quantize(&f);
        assert_eq!(f.q, q, "a feature carries its Q4.12 form");
        assert!((q.a as f64 / 4096.0 - f.a).abs() <= 0.5 / 4096.0);
        assert!((q.c as f64 / 4096.0 - f.c).abs() <= 0.5 / 4096.0);
        assert_eq!(q.frac, 12);
    }

    #[test]
    fn qpose_identity() {
        let q = QPose::quantize(&SE3::IDENTITY);
        // +1.0 saturates to the Q1.15 max
        assert_eq!(q.r[0], 32767);
        assert_eq!(q.r[1], 0);
        assert_eq!(q.r[4], 32767);
        assert_eq!(q.t, [0, 0, 0]);
    }

    #[test]
    fn qkeyframe_lookup_matches_tables() {
        let cam = Pinhole::qvga();
        let (w, h) = (32u32, 24u32);
        let mut mask = vec![0u8; (w * h) as usize];
        mask[(12 * w + 16) as usize] = 255;
        let qk = Keyframe::build(0, SE3::IDENTITY, GrayImage::from_raw(w, h, mask), &cam).q_tables;
        // at the site: zero residual
        let (r, _, _) = qk
            .lookup_q(16 << PIX_FRAC, 12 << PIX_FRAC)
            .expect("in bounds");
        assert_eq!(r, 0);
        // 3 px to the right: residual == 3 (Q12.4 raw 48)
        let (r, gx, _) = qk.lookup_q(19 << PIX_FRAC, 12 << PIX_FRAC).unwrap();
        assert_eq!(r, 3 << RES_FRAC);
        // gradient points away from the site, scaled by f
        assert!(gx as f64 / 4.0 > cam.f * 0.5);
        // out of bounds (the bilinear support needs x0 + 1 in the map)
        assert!(qk.lookup_q(-(1 << PIX_FRAC) * 2, 0).is_none());
        assert!(qk.lookup_q(31 << PIX_FRAC, 0).is_none());
        assert!(qk.lookup_q(30 << PIX_FRAC, 0).is_some());
    }

    #[test]
    fn lookup_interpolates_subpixel() {
        let cam = Pinhole::qvga();
        let (w, h) = (8u32, 8u32);
        let mut mask = vec![0u8; 64];
        mask[0] = 255;
        let qk = Keyframe::build(0, SE3::IDENTITY, GrayImage::from_raw(w, h, mask), &cam).q_tables;
        // along row 0 the DT is the distance to (0,0): at u = 2.5 px the
        // bilinear residual is 2.5 (Q12.4 raw 40)
        let u25 = (2 << PIX_FRAC) + (1 << (PIX_FRAC - 1));
        let (r25, ..) = qk.lookup_q(u25, 0).unwrap();
        assert_eq!(r25, (2 << RES_FRAC) + (1 << (RES_FRAC - 1)));
        // exact integer coordinate: exact DT value
        let (r2, ..) = qk.lookup_q(2 << PIX_FRAC, 0).unwrap();
        assert_eq!(r2, 2 << RES_FRAC);
    }
}
