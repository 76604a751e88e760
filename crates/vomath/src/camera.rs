use crate::mat::Vec3;

/// A pinhole camera model.
///
/// The paper folds the intrinsics into the inverse-depth feature
/// coordinates `(a, b, c) = ((u - cx)/f, (v - cy)/f, 1/d)`; this type
/// provides the conversions in both directions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pinhole {
    /// Focal length in pixels (square pixels: `fx == fy == f`).
    pub f: f64,
    /// Principal point x.
    pub cx: f64,
    /// Principal point y.
    pub cy: f64,
    /// Image width in pixels.
    pub width: u32,
    /// Image height in pixels.
    pub height: u32,
}

impl Pinhole {
    /// A QVGA camera with a ~62° horizontal field of view — the
    /// resolution the paper evaluates at.
    pub fn qvga() -> Self {
        Pinhole {
            f: 265.0,
            cx: 159.5,
            cy: 119.5,
            width: 320,
            height: 240,
        }
    }

    /// Back-projects pixel `(u, v)` at depth `d` (meters) to a camera-
    /// frame 3D point.
    #[cfg(test)]
    fn unproject(&self, u: f64, v: f64, d: f64) -> Vec3 {
        Vec3::new((u - self.cx) / self.f * d, (v - self.cy) / self.f * d, d)
    }

    /// Projects a camera-frame point to pixel coordinates. Returns
    /// `None` for points at or behind the camera plane.
    pub fn project(&self, p: Vec3) -> Option<(f64, f64)> {
        if p.z <= 1e-9 {
            return None;
        }
        Some((self.f * p.x / p.z + self.cx, self.f * p.y / p.z + self.cy))
    }

    /// True when `(u, v)` lies within the image with `margin` pixels of
    /// slack from the border.
    pub fn in_bounds(&self, u: f64, v: f64, margin: f64) -> bool {
        u >= margin
            && v >= margin
            && u <= self.width as f64 - 1.0 - margin
            && v <= self.height as f64 - 1.0 - margin
    }

    /// The camera of the next-coarser pyramid level: half resolution,
    /// halved focal length, principal point mapped through the 2x2
    /// block-averaging convention (pixel centers at `(2x+0.5, 2y+0.5)`).
    pub fn halved(&self) -> Pinhole {
        Pinhole {
            f: self.f / 2.0,
            cx: (self.cx - 0.5) / 2.0,
            cy: (self.cy - 0.5) / 2.0,
            width: self.width / 2,
            height: self.height / 2,
        }
    }

    /// Inverse-depth feature coordinates `(a, b, c)` of pixel `(u, v)`
    /// with depth `d` (Fig. 5-a): the 3D point is `(a, b, 1) / c`.
    pub fn inverse_depth_coords(&self, u: f64, v: f64, d: f64) -> (f64, f64, f64) {
        ((u - self.cx) / self.f, (v - self.cy) / self.f, 1.0 / d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn project_unproject_roundtrip() {
        let cam = Pinhole::qvga();
        let p = cam.unproject(100.0, 80.0, 2.5);
        let (u, v) = cam.project(p).unwrap();
        assert!((u - 100.0).abs() < 1e-9 && (v - 80.0).abs() < 1e-9);
    }

    #[test]
    fn behind_camera_fails() {
        let cam = Pinhole::qvga();
        assert!(cam.project(Vec3::new(0.0, 0.0, -1.0)).is_none());
        assert!(cam.project(Vec3::new(0.0, 0.0, 0.0)).is_none());
    }

    #[test]
    fn inverse_depth_coords_reconstruct_point() {
        let cam = Pinhole::qvga();
        let (a, b, c) = cam.inverse_depth_coords(200.0, 50.0, 4.0);
        let p = Vec3::new(a / c, b / c, 1.0 / c);
        let q = cam.unproject(200.0, 50.0, 4.0);
        assert!((p - q).norm() < 1e-12);
    }

    #[test]
    fn halved_preserves_projection_geometry() {
        let cam = Pinhole::qvga();
        let half = cam.halved();
        assert_eq!(half.width, 160);
        let p = cam.unproject(101.0, 63.0, 2.0);
        let (u, v) = half.project(p).unwrap();
        // full-res pixel u maps to (u - 0.5) / 2 at half resolution
        assert!((u - (101.0 - 0.5) / 2.0).abs() < 1e-9, "u={u}");
        assert!((v - (63.0 - 0.5) / 2.0).abs() < 1e-9);
    }

    #[test]
    fn in_bounds_respects_margin() {
        let cam = Pinhole::qvga();
        assert!(cam.in_bounds(2.0, 2.0, 2.0));
        assert!(!cam.in_bounds(1.0, 2.0, 2.0));
        assert!(!cam.in_bounds(318.5, 100.0, 2.0));
    }
}
