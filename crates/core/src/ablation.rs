//! Quantization ablations (experiment E10): the paper's §3.3/§3.4
//! design-choice evidence.
//!
//! * Feature quantization sweep: 8-bit features give "completely fault
//!   results", 16-bit Q4.12 stays below one pixel of warp error.
//! * Hessian accumulator width: 16-bit saturates and breaks the 6x6
//!   solve; 32-bit Q29.3 matches float.

use crate::feature::Feature;
use crate::hessian::QNormalEquations;
use crate::quant::{QCamera, QFeature, QPose};
use crate::warp::{project_q, warp_float};
use pimvo_vomath::{solve_sym6, NormalEquations, Pinhole, SE3};

/// Result of one feature-quantization configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WarpErrorStats {
    /// Total bit width of the feature coordinates.
    pub bits: u32,
    /// Fractional bits.
    pub frac: u32,
    /// Maximum warp error versus float, pixels.
    pub max_err_px: f64,
    /// Mean warp error, pixels.
    pub mean_err_px: f64,
    /// Features evaluated.
    pub samples: usize,
}

/// Sweeps the feature quantization width and measures warp error
/// against the float reference over a grid of features and a typical
/// inter-frame pose.
pub fn warp_error_sweep(cam: &Pinhole, pose: &SE3, configs: &[(u32, u32)]) -> Vec<WarpErrorStats> {
    let qpose = QPose::quantize(pose);
    let qcam = QCamera::quantize(cam);
    let mut features = Vec::new();
    for i in 0..600 {
        let u = 8.0 + (i % 30) as f64 * 10.3;
        let v = 8.0 + (i / 30) as f64 * 11.4;
        let d = 0.7 + (i % 10) as f64 * 0.6;
        features.push(Feature::new(u, v, d, cam));
    }
    configs
        .iter()
        .map(|&(bits, frac)| {
            let mut max_err: f64 = 0.0;
            let mut sum_err = 0.0;
            let mut n = 0usize;
            for f in &features {
                let Some((uf, vf)) = warp_float(f, pose, cam) else {
                    continue;
                };
                let q = QFeature::quantize_with(f, frac, bits);
                let Some(w) = project_q(&q, &qpose, &qcam) else {
                    continue;
                };
                let uq = w.u_raw as f64 / 64.0;
                let vq = w.v_raw as f64 / 64.0;
                let e = ((uq - uf).powi(2) + (vq - vf).powi(2)).sqrt();
                max_err = max_err.max(e);
                sum_err += e;
                n += 1;
            }
            WarpErrorStats {
                bits,
                frac,
                max_err_px: max_err,
                mean_err_px: if n > 0 { sum_err / n as f64 } else { f64::NAN },
                samples: n,
            }
        })
        .collect()
}

/// Result of one Hessian-width configuration.
#[derive(Debug, Clone)]
pub struct HessianAblation {
    /// Accumulator width in bits.
    pub bits: u32,
    /// Whether the damped 6x6 solve succeeded.
    pub solve_ok: bool,
    /// Relative error of the solved update versus the float solution
    /// (NaN when the solve failed).
    pub update_rel_err: f64,
    /// Fraction of Hessian entries that hit the saturation bound.
    pub saturated_share: f64,
}

/// Accumulates a realistic feature load into quantized normal equations
/// at the given accumulator width and compares the solved LM update
/// against the float solution (§3.4: 32-bit works, 16-bit fails).
pub fn hessian_width_ablation(widths: &[u32]) -> Vec<HessianAblation> {
    // synthetic but realistic Jacobian rows: f·I scale gradients,
    // several thousand features
    let mut rows: Vec<[i64; 6]> = Vec::new();
    let mut residuals: Vec<i64> = Vec::new();
    for i in 0..4000usize {
        let ang = i as f64 * 0.37;
        let gu = (ang.sin() * 250.0 * 4.0) as i64; // Q14.2 raw
        let gv = (ang.cos() * 250.0 * 4.0) as i64;
        let xh = ((i % 17) as f64 / 17.0 - 0.5) * 1.2;
        let yh = ((i % 13) as f64 / 13.0 - 0.5) * 0.9;
        let s = (xh * gu as f64 + yh * gv as f64) as i64;
        rows.push([
            gu / 2,
            gv / 2,
            -s / 2,
            -((yh * s as f64) as i64 + gv),
            (xh * s as f64) as i64 + gu,
            ((xh * gv as f64) - (yh * gu as f64)) as i64,
        ]);
        residuals.push(((i % 23) as i64 - 4) * 16); // Q12.4
    }
    // float reference
    let mut eq_f = NormalEquations::zero();
    for (j, &r) in rows.iter().zip(&residuals) {
        let jf: [f64; 6] = std::array::from_fn(|k| j[k] as f64 / 4.0);
        eq_f.accumulate(&jf, r as f64 / 16.0, 1.0);
    }
    let mut damped_f = eq_f.h;
    for (i, row) in damped_f.iter_mut().enumerate() {
        row[i] *= 1.001;
    }
    let x_float = solve_sym6(&damped_f, &eq_f.b).expect("float solve");

    widths
        .iter()
        .map(|&bits| {
            let mut eq = QNormalEquations::zero_with(3, bits);
            for (j, &r) in rows.iter().zip(&residuals) {
                eq.accumulate(j, r);
            }
            let bound = (1i64 << (bits - 1)) - 1;
            let saturated =
                eq.h.iter()
                    .chain(eq.b.iter())
                    .filter(|&&v| v.abs() >= bound)
                    .count();
            let saturated_share = saturated as f64 / 27.0;
            let f = eq.to_normal_equations();
            let mut damped = f.h;
            for (i, row) in damped.iter_mut().enumerate() {
                row[i] *= 1.001;
                // fully saturated rows make the system singular; the
                // damping mirrors the tracker's LM
            }
            match solve_sym6(&damped, &f.b) {
                Ok(x) => {
                    let num: f64 = x
                        .iter()
                        .zip(&x_float)
                        .map(|(a, b)| (a - b) * (a - b))
                        .sum::<f64>()
                        .sqrt();
                    let den: f64 = x_float.iter().map(|v| v * v).sum::<f64>().sqrt();
                    HessianAblation {
                        bits,
                        solve_ok: true,
                        update_rel_err: num / den.max(1e-12),
                        saturated_share,
                    }
                }
                Err(_) => HessianAblation {
                    bits,
                    solve_ok: false,
                    update_rel_err: f64::NAN,
                    saturated_share,
                },
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sixteen_bit_features_fine_eight_bit_faulty() {
        let cam = Pinhole::qvga();
        let pose = SE3::exp(&[0.05, -0.02, 0.03, 0.02, -0.01, 0.015]);
        let sweep = warp_error_sweep(&cam, &pose, &[(16, 12), (8, 4)]);
        let q16 = &sweep[0];
        let q8 = &sweep[1];
        assert!(q16.max_err_px < 1.0, "Q4.12 err {}", q16.max_err_px);
        assert!(q8.max_err_px > 5.0, "Q4.4 err {}", q8.max_err_px);
        assert!(q16.samples > 400);
    }

    #[test]
    fn hessian_32_bit_ok_16_bit_broken() {
        let results = hessian_width_ablation(&[32, 16]);
        let w32 = &results[0];
        let w16 = &results[1];
        assert!(w32.solve_ok);
        assert!(
            w32.update_rel_err < 0.05,
            "32-bit update error {}",
            w32.update_rel_err
        );
        assert!(w32.saturated_share == 0.0);
        // 16-bit: massive saturation; either the solve fails or the
        // update is garbage
        assert!(w16.saturated_share > 0.5, "{}", w16.saturated_share);
        assert!(
            !w16.solve_ok || w16.update_rel_err > 0.5,
            "16-bit should be broken: {w16:?}"
        );
    }
}
