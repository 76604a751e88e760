//! Instrumented baseline pose-estimation linearization.
//!
//! One LM iteration of the baseline warps every feature to the
//! keyframe, looks up the distance-transform residual and gradient, and
//! accumulates the 6x6 normal equations — all scalar 32-bit work on the
//! MCU (the DSP byte-SIMD does not help here, which is why the paper's
//! LM speedup is smaller than the image-kernel speedup).

use crate::counter::CostCounter;
use crate::CodegenModel;
use pimvo_vomath::{DistanceMap, NormalEquations, Pinhole, Vec3, SE3};

/// A feature in inverse-depth coordinates `(a, b, c)` (Fig. 5-a):
/// the 3D point is `(a, b, 1) / c`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FloatFeature {
    /// `(u - cx) / f` on the anchor frame.
    pub a: f64,
    /// `(v - cy) / f` on the anchor frame.
    pub b: f64,
    /// Inverse depth `1 / d`.
    pub c: f64,
}

/// Keyframe lookup tables: the distance transform of the keyframe edge
/// map and its gradient maps.
#[derive(Debug, Clone)]
pub struct KeyframeTables {
    /// Distance transform of the keyframe edge mask.
    pub dt: DistanceMap,
    /// `∂DT/∂u`, row-major.
    pub grad_x: Vec<f32>,
    /// `∂DT/∂v`, row-major.
    pub grad_y: Vec<f32>,
}

impl KeyframeTables {
    /// Looks up (residual, gradient) at `(u, v)`: bilinear residual
    /// (sub-pixel accuracy matters for convergence), nearest-neighbour
    /// gradients (already smooth). `None` outside the map.
    pub fn lookup(&self, u: f64, v: f64) -> Option<(f64, f64, f64)> {
        let w = self.dt.width();
        let h = self.dt.height();
        let x = u.round();
        let y = v.round();
        if x < 0.0 || y < 0.0 || x >= w as f64 || y >= h as f64 {
            return None;
        }
        let (xi, yi) = (x as u32, y as u32);
        let idx = (yi * w + xi) as usize;
        Some((
            self.dt.sample(u, v) as f64,
            self.grad_x[idx] as f64,
            self.grad_y[idx] as f64,
        ))
    }
}

/// Warps one feature by `pose` (current → keyframe) and returns the
/// keyframe-frame point `(X, Y, Z)` per Fig. 5-b.
///
/// `(X, Y, Z) = R (a, b, 1) + t c`; the true 3D point is that divided
/// by `c`, but the projection `u' = f X/Z + cx` is scale-invariant so
/// the division by `c` never happens — the trick that makes the
/// fixed-point PIM version feasible.
fn warp_point(f: &FloatFeature, pose: &SE3) -> Vec3 {
    let rotated = pose.rotation.rotate(Vec3::new(f.a, f.b, 1.0));
    rotated + pose.translation * f.c
}

/// Evaluates one linearization (residuals, Jacobians, normal
/// equations) over all features, charging the MCU cost model.
///
/// The Jacobian rows follow Fig. 5-c, using the shared-subexpression
/// ordering of Fig. 5-d.
pub fn linearize_counted(
    features: &[FloatFeature],
    tables: &KeyframeTables,
    cam: &Pinhole,
    pose: &SE3,
    counter: &mut CostCounter,
) -> NormalEquations {
    linearize_counted_with(features, tables, cam, pose, counter, CodegenModel::TunedDsp)
}

/// [`linearize_counted`] with an explicit code-generation model.
///
/// [`CodegenModel::TunedDsp`] keeps the Jacobian and the running
/// normal-equation accumulators in (FPU) registers, as a hand-tuned
/// PicoVO-class implementation does; [`CodegenModel::PortableScalar`]
/// models a straightforwardly compiled implementation (REVO-style)
/// whose accumulators and rotation matrix spill to memory on every
/// feature — the code the paper's Valgrind profile measured.
pub fn linearize_counted_with(
    features: &[FloatFeature],
    tables: &KeyframeTables,
    cam: &Pinhole,
    pose: &SE3,
    counter: &mut CostCounter,
    model: CodegenModel,
) -> NormalEquations {
    let mut eq = NormalEquations::zero();
    for f in features {
        if model == CodegenModel::PortableScalar {
            // spills: rotation/translation reload (12), Jacobian row
            // store+reload (6+12), accumulator read-modify-write (27+27)
            counter.load(12 + 12 + 27);
            counter.store(6 + 27);
        }
        // warp: 9 MUL + 8 ALU for R(a,b,1), 3 MUL + 3 ALU for + t*c,
        // feature load (3 words)
        counter.load(3);
        counter.mul(12);
        counter.alu(11);
        let p = warp_point(f, pose);
        // projection: 2 DIV + 2 MUL + 2 ALU, plus bounds checks
        counter.div(2);
        counter.mul(2);
        counter.alu(6);
        counter.branch(1);
        if p.z <= 1e-9 {
            continue;
        }
        let u = cam.f * p.x / p.z + cam.cx;
        let v = cam.f * p.y / p.z + cam.cy;
        if !cam.in_bounds(u, v, 1.0) {
            continue;
        }
        // residual lookup (bilinear: 4 corner loads + 3 lerps) and
        // nearest-neighbour gradient loads, plus index arithmetic
        counter.mul(4);
        counter.alu(12);
        counter.load(6);
        let Some((r, iu, iv)) = tables.lookup(u, v) else {
            continue;
        };
        // Jacobian (Fig. 5-d): s = (X Iu + Y Iv)/Z shared term
        // ~8 MUL + 2 DIV + 6 ALU
        counter.mul(8);
        counter.div(2);
        counter.alu(6);
        // (X, Y, Z) = warp output is the real point scaled by c, so
        // the projection ratios x̂ = X/Z, ŷ = Y/Z are scale-free while
        // the translation block needs 1/Z_real = c/Z. Gradients are
        // scaled by the focal length (residuals are in pixels).
        let inv_z = 1.0 / p.z;
        let inv_z_real = f.c * inv_z;
        let (gu, gv) = (cam.f * iu, cam.f * iv);
        let (xh, yh) = (p.x * inv_z, p.y * inv_z);
        let s = xh * gu + yh * gv;
        let j = [
            gu * inv_z_real,
            gv * inv_z_real,
            -s * inv_z_real,
            -(yh * s + gv),
            xh * s + gu,
            xh * gv - yh * gu,
        ];
        // Hessian/steepest-descent accumulation: 21 + 6 MACs with
        // register-pressure spills (~14 load/store)
        counter.mul(27);
        counter.load(8);
        counter.store(6);
        counter.alu(4);
        eq.accumulate(&j, r, 1.0);
    }
    // final accumulator write-out
    counter.store(27);
    counter.call(1);
    eq
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimvo_vomath::distance_transform;

    fn tables_with_edge_column(w: u32, h: u32, col: u32) -> KeyframeTables {
        let mut mask = vec![0u8; (w * h) as usize];
        for y in 0..h {
            mask[(y * w + col) as usize] = 255;
        }
        let dt = distance_transform(&mask, w, h);
        let (grad_x, grad_y) = pimvo_vomath::gradient_maps(&dt);
        KeyframeTables { dt, grad_x, grad_y }
    }

    #[test]
    fn warp_identity_preserves_projection() {
        let cam = Pinhole::qvga();
        let (a, b, c) = cam.inverse_depth_coords(100.0, 80.0, 2.0);
        let f = FloatFeature { a, b, c };
        let p = warp_point(&f, &SE3::IDENTITY);
        let u = cam.f * p.x / p.z + cam.cx;
        let v = cam.f * p.y / p.z + cam.cy;
        assert!((u - 100.0).abs() < 1e-9 && (v - 80.0).abs() < 1e-9);
    }

    #[test]
    fn warp_translation_moves_projection() {
        let cam = Pinhole::qvga();
        let (a, b, c) = cam.inverse_depth_coords(160.0, 120.0, 2.0);
        let f = FloatFeature { a, b, c };
        // camera moves 0.1 m right => feature projects left
        let pose = SE3::exp(&[-0.1, 0.0, 0.0, 0.0, 0.0, 0.0]);
        let p = warp_point(&f, &pose);
        let u = cam.f * p.x / p.z + cam.cx;
        assert!(u < 160.0);
    }

    #[test]
    fn lm_iteration_cost_near_paper_figure() {
        let cam = Pinhole::qvga();
        let tables = tables_with_edge_column(320, 240, 150);
        // ~4000 features spread over the frame
        let features: Vec<FloatFeature> = (0..4000)
            .map(|i| {
                let u = 10.0 + (i % 300) as f64;
                let v = 10.0 + ((i / 300) * 16 % 220) as f64;
                let (a, b, c) = cam.inverse_depth_coords(u, v, 2.0 + (i % 7) as f64 * 0.3);
                FloatFeature { a, b, c }
            })
            .collect();
        let mut counter = CostCounter::new();
        let eq = linearize_counted(&features, &tables, &cam, &SE3::IDENTITY, &mut counter);
        assert!(eq.count > 3000);
        let cycles = counter.cycles();
        // paper: ~540k cycles per LM iteration on the MCU
        assert!(
            (300_000..900_000).contains(&cycles),
            "LM iteration cycles {cycles}"
        );
    }

    #[test]
    fn residual_reflects_distance_to_edge() {
        let cam = Pinhole::qvga();
        let tables = tables_with_edge_column(320, 240, 150);
        let (a, b, c) = cam.inverse_depth_coords(145.0, 120.0, 2.0);
        let mut counter = CostCounter::new();
        let eq = linearize_counted(
            &[FloatFeature { a, b, c }],
            &tables,
            &cam,
            &SE3::IDENTITY,
            &mut counter,
        );
        assert_eq!(eq.count, 1);
        // 5 px from the edge column
        assert!((eq.cost.sqrt() - 5.0).abs() < 0.5, "{}", eq.cost.sqrt());
    }
}
