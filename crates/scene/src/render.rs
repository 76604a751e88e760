//! A small plane/box raycaster producing grayscale + depth frames.
//!
//! Camera convention: x right, y down, z forward (optical axis). A
//! frame's pose is the camera-to-world transform `T_wc`; rays are cast
//! from the camera center through each pixel and intersected with the
//! scene's planes and axis-aligned boxes.

use crate::texture::Texture;
use pimvo_kernels::{DepthImage, GrayImage};
use pimvo_vomath::{Pinhole, Vec3, SE3};

/// An infinite textured plane.
#[derive(Debug, Clone, PartialEq)]
pub struct Plane {
    /// A point on the plane.
    pub point: Vec3,
    /// Unit normal.
    pub normal: Vec3,
    /// In-plane texture axis U (unit).
    pub axis_u: Vec3,
    /// In-plane texture axis V (unit).
    pub axis_v: Vec3,
    /// Surface texture.
    pub texture: Texture,
}

impl Plane {
    /// Builds an axis-aligned plane facing `normal` through `point`,
    /// deriving the texture axes automatically.
    pub fn new(point: Vec3, normal: Vec3, texture: Texture) -> Self {
        let n = normal.normalized().expect("zero plane normal");
        let helper = if n.x.abs() < 0.9 {
            Vec3::new(1.0, 0.0, 0.0)
        } else {
            Vec3::new(0.0, 1.0, 0.0)
        };
        let axis_u = n.cross(helper).normalized().expect("degenerate axis");
        let axis_v = n.cross(axis_u);
        Plane {
            point,
            normal: n,
            axis_u,
            axis_v,
            texture,
        }
    }
}

/// An axis-aligned textured box.
#[derive(Debug, Clone, PartialEq)]
pub struct Aabb {
    /// Minimum corner.
    pub min: Vec3,
    /// Maximum corner.
    pub max: Vec3,
    /// Surface texture (sampled in the two in-face coordinates).
    pub texture: Texture,
}

/// Rendering options.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RenderOptions {
    /// Standard deviation of the additive sensor noise, gray levels.
    /// Deterministic per (pixel, frame): the same frame always renders
    /// identically.
    pub noise_sigma: f64,
    /// Relative depth noise at 1 m (structured-light style: the error
    /// grows quadratically with range, σ_d = coeff · d²). 0 disables.
    pub depth_noise_coeff: f64,
    /// Maximum depth in meters; farther hits are invalid (0 depth).
    pub max_depth: f64,
    /// Per-face Lambert-style shading strength (0 = none), which makes
    /// different box faces render at distinct intensities.
    pub shading: f64,
}

impl Default for RenderOptions {
    fn default() -> Self {
        RenderOptions {
            noise_sigma: 1.2,
            depth_noise_coeff: 0.0015,
            max_depth: 8.0,
            shading: 0.25,
        }
    }
}

/// A renderable scene.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Scene {
    /// Planes (walls, floor, panels).
    pub planes: Vec<Plane>,
    /// Boxes (furniture, clutter).
    pub boxes: Vec<Aabb>,
}

struct Hit {
    depth: f64,
    intensity: f64,
    normal: Vec3,
}

impl Scene {
    /// Renders the scene from camera pose `t_wc` (camera-to-world) and
    /// returns (grayscale, depth).
    pub fn render(
        &self,
        cam: &Pinhole,
        t_wc: &SE3,
        opts: &RenderOptions,
        frame_seed: u32,
    ) -> (GrayImage, DepthImage) {
        let mut gray = GrayImage::new(cam.width, cam.height);
        let mut depth = DepthImage::new(cam.width, cam.height);
        let origin = t_wc.translation;
        // light direction for face shading (world frame, arbitrary fixed)
        let light = Vec3::new(0.4, -0.8, 0.45).normalized().unwrap();

        for py in 0..cam.height {
            for px in 0..cam.width {
                // unnormalized camera-frame ray with z = 1: the hit
                // parameter s directly equals the camera-frame depth
                let dir_c = Vec3::new(
                    (px as f64 - cam.cx) / cam.f,
                    (py as f64 - cam.cy) / cam.f,
                    1.0,
                );
                let dir_w = t_wc.rotation.rotate(dir_c);
                if let Some(hit) = self.trace(origin, dir_w) {
                    if hit.depth <= opts.max_depth {
                        let shade = 1.0 - opts.shading * (1.0 - hit.normal.dot(light).abs());
                        let noise = if opts.noise_sigma > 0.0 {
                            (pixel_noise(px, py, frame_seed) - 0.5) * opts.noise_sigma * 3.46
                        } else {
                            0.0
                        };
                        let v = (hit.intensity * shade + noise).clamp(0.0, 255.0);
                        gray.set(px, py, v as u8);
                        // Kinect-style range noise: σ grows with d²
                        let d = if opts.depth_noise_coeff > 0.0 {
                            let u = pixel_noise(px ^ 0x5555, py, frame_seed ^ 0xD00D) - 0.5;
                            hit.depth + u * 3.46 * opts.depth_noise_coeff * hit.depth * hit.depth
                        } else {
                            hit.depth
                        };
                        depth.set(px, py, d.max(0.05) as f32);
                    }
                }
            }
        }
        (gray, depth)
    }

    fn trace(&self, origin: Vec3, dir: Vec3) -> Option<Hit> {
        let mut best: Option<Hit> = None;
        let mut best_s = f64::INFINITY;
        for plane in &self.planes {
            if let Some((s, tu, tv)) = intersect_plane(plane, origin, dir) {
                if s < best_s {
                    best_s = s;
                    best = Some(Hit {
                        depth: s,
                        intensity: plane.texture.sample(tu, tv),
                        normal: plane.normal,
                    });
                }
            }
        }
        for b in &self.boxes {
            if let Some((s, n, tu, tv)) = intersect_aabb(b, origin, dir) {
                if s < best_s {
                    best_s = s;
                    best = Some(Hit {
                        depth: s,
                        intensity: b.texture.sample(tu, tv),
                        normal: n,
                    });
                }
            }
        }
        best
    }
}

impl Scene {
    /// Unsigned distance from a world point to the nearest scene
    /// surface — the reconstruction-quality metric for the semi-dense
    /// map (a perfectly reconstructed edge point lies on a surface).
    pub fn distance_to_surface(&self, p: Vec3) -> f64 {
        let mut best = f64::INFINITY;
        for plane in &self.planes {
            best = best.min((p - plane.point).dot(plane.normal).abs());
        }
        for b in &self.boxes {
            // signed-distance-style AABB surface distance
            let dx = (b.min.x - p.x).max(0.0).max(p.x - b.max.x);
            let dy = (b.min.y - p.y).max(0.0).max(p.y - b.max.y);
            let dz = (b.min.z - p.z).max(0.0).max(p.z - b.max.z);
            let outside = (dx * dx + dy * dy + dz * dz).sqrt();
            let d = if outside > 0.0 {
                outside
            } else {
                // inside: distance to the nearest face
                let ix = (p.x - b.min.x).min(b.max.x - p.x);
                let iy = (p.y - b.min.y).min(b.max.y - p.y);
                let iz = (p.z - b.min.z).min(b.max.z - p.z);
                ix.min(iy).min(iz)
            };
            best = best.min(d);
        }
        best
    }
}

/// Deterministic per-pixel noise in `[0, 1)`.
fn pixel_noise(x: u32, y: u32, seed: u32) -> f64 {
    let mut h = x
        .wrapping_mul(0x27D4EB2F)
        .wrapping_add(y.wrapping_mul(0x165667B1))
        .wrapping_add(seed.wrapping_mul(0x9E3779B9));
    h = h.wrapping_mul(0x9E3779B9) ^ (h >> 16);
    h = h.wrapping_mul(0x85EBCA6B) ^ (h >> 13);
    (h as f64) / (u32::MAX as f64 + 1.0)
}

fn intersect_plane(plane: &Plane, origin: Vec3, dir: Vec3) -> Option<(f64, f64, f64)> {
    let denom = plane.normal.dot(dir);
    if denom.abs() < 1e-12 {
        return None;
    }
    let s = plane.normal.dot(plane.point - origin) / denom;
    if s <= 1e-6 {
        return None;
    }
    let hit = origin + dir * s;
    let rel = hit - plane.point;
    Some((s, rel.dot(plane.axis_u), rel.dot(plane.axis_v)))
}

fn intersect_aabb(b: &Aabb, origin: Vec3, dir: Vec3) -> Option<(f64, Vec3, f64, f64)> {
    let inv = |d: f64| if d.abs() < 1e-300 { 1e300 } else { 1.0 / d };
    let (ix, iy, iz) = (inv(dir.x), inv(dir.y), inv(dir.z));
    let mut t0 = (b.min.x - origin.x) * ix;
    let mut t1 = (b.max.x - origin.x) * ix;
    if t0 > t1 {
        std::mem::swap(&mut t0, &mut t1);
    }
    let (mut ty0, mut ty1) = ((b.min.y - origin.y) * iy, (b.max.y - origin.y) * iy);
    if ty0 > ty1 {
        std::mem::swap(&mut ty0, &mut ty1);
    }
    let (mut tz0, mut tz1) = ((b.min.z - origin.z) * iz, (b.max.z - origin.z) * iz);
    if tz0 > tz1 {
        std::mem::swap(&mut tz0, &mut tz1);
    }
    let tmin = t0.max(ty0).max(tz0);
    let tmax = t1.min(ty1).min(tz1);
    if tmax < tmin || tmax <= 1e-6 {
        return None;
    }
    let s = if tmin > 1e-6 { tmin } else { tmax };
    let hit = origin + dir * s;
    // face normal: which slab bound we hit
    let eps = 1e-6;
    let (n, tu, tv) = if (hit.x - b.min.x).abs() < eps || (hit.x - b.max.x).abs() < eps {
        (
            Vec3::new(
                if (hit.x - b.min.x).abs() < eps {
                    -1.0
                } else {
                    1.0
                },
                0.0,
                0.0,
            ),
            hit.y,
            hit.z,
        )
    } else if (hit.y - b.min.y).abs() < eps || (hit.y - b.max.y).abs() < eps {
        (
            Vec3::new(
                0.0,
                if (hit.y - b.min.y).abs() < eps {
                    -1.0
                } else {
                    1.0
                },
                0.0,
            ),
            hit.x,
            hit.z,
        )
    } else {
        (
            Vec3::new(
                0.0,
                0.0,
                if (hit.z - b.min.z).abs() < eps {
                    -1.0
                } else {
                    1.0
                },
            ),
            hit.x,
            hit.y,
        )
    };
    Some((s, n, tu, tv))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wall_scene() -> Scene {
        Scene {
            planes: vec![Plane::new(
                Vec3::new(0.0, 0.0, 3.0),
                Vec3::new(0.0, 0.0, -1.0),
                Texture::Checker {
                    a: 60.0,
                    b: 180.0,
                    cell: 0.4,
                },
            )],
            boxes: vec![],
        }
    }

    #[test]
    fn wall_renders_at_expected_depth() {
        let cam = Pinhole::qvga();
        let (gray, depth) = wall_scene().render(
            &cam,
            &SE3::IDENTITY,
            &RenderOptions {
                noise_sigma: 0.0,
                depth_noise_coeff: 0.0,
                ..Default::default()
            },
            0,
        );
        // center pixel looks straight at the wall: depth == 3
        assert!((depth.get(160, 120) - 3.0).abs() < 1e-4);
        // depth is the camera-frame z, identical across the wall
        assert!((depth.get(10, 10) - 3.0).abs() < 1e-3);
        // checkerboard produces both intensities
        let pixels = gray.pixels();
        assert!(pixels.iter().any(|&p| p > 150));
        assert!(pixels.iter().any(|&p| (40..90).contains(&p)));
    }

    #[test]
    fn camera_translation_shifts_depth() {
        let cam = Pinhole::qvga();
        let pose = SE3::exp(&[0.0, 0.0, 1.0, 0.0, 0.0, 0.0]); // 1 m forward
        let (_, depth) = wall_scene().render(
            &cam,
            &pose,
            &RenderOptions {
                noise_sigma: 0.0,
                depth_noise_coeff: 0.0,
                ..Default::default()
            },
            0,
        );
        assert!((depth.get(160, 120) - 2.0).abs() < 1e-4);
    }

    #[test]
    fn box_occludes_wall() {
        let mut scene = wall_scene();
        scene.boxes.push(Aabb {
            min: Vec3::new(-0.3, -0.3, 1.5),
            max: Vec3::new(0.3, 0.3, 2.0),
            texture: Texture::Flat { base: 240.0 },
        });
        let cam = Pinhole::qvga();
        let (gray, depth) = scene.render(
            &cam,
            &SE3::IDENTITY,
            &RenderOptions {
                noise_sigma: 0.0,
                depth_noise_coeff: 0.0,
                shading: 0.0,
                ..Default::default()
            },
            0,
        );
        assert!((depth.get(160, 120) - 1.5).abs() < 1e-4);
        assert_eq!(gray.get(160, 120), 240);
        // outside the box: the wall
        assert!((depth.get(10, 120) - 3.0).abs() < 1e-3);
    }

    #[test]
    fn rendering_is_deterministic() {
        let cam = Pinhole::qvga();
        let scene = wall_scene();
        let (g1, d1) = scene.render(&cam, &SE3::IDENTITY, &RenderOptions::default(), 5);
        let (g2, d2) = scene.render(&cam, &SE3::IDENTITY, &RenderOptions::default(), 5);
        assert_eq!(g1, g2);
        assert_eq!(d1, d2);
        // different frame seed changes both noise fields; geometry is
        // recoverable by disabling the noise
        let (g3, d3) = scene.render(&cam, &SE3::IDENTITY, &RenderOptions::default(), 6);
        assert_ne!(g1, g3);
        assert_ne!(d1, d3);
        let clean_opts = RenderOptions {
            noise_sigma: 0.0,
            depth_noise_coeff: 0.0,
            ..Default::default()
        };
        let (_, c1) = scene.render(&cam, &SE3::IDENTITY, &clean_opts, 5);
        let (_, c2) = scene.render(&cam, &SE3::IDENTITY, &clean_opts, 6);
        assert_eq!(c1, c2);
    }

    #[test]
    fn surface_distance_is_zero_on_surfaces() {
        let mut scene = wall_scene();
        scene.boxes.push(Aabb {
            min: Vec3::new(-0.3, -0.3, 1.5),
            max: Vec3::new(0.3, 0.3, 2.0),
            texture: Texture::Flat { base: 200.0 },
        });
        // on the wall plane
        assert!(scene.distance_to_surface(Vec3::new(0.7, -0.2, 3.0)) < 1e-12);
        // on a box face
        assert!(scene.distance_to_surface(Vec3::new(0.0, 0.0, 1.5)) < 1e-12);
        // 0.4 m in front of the wall, away from the box
        let d = scene.distance_to_surface(Vec3::new(1.5, 1.0, 2.6));
        assert!((d - 0.4).abs() < 1e-9, "{d}");
        // inside the box: distance to the nearest face
        let d = scene.distance_to_surface(Vec3::new(0.0, 0.0, 1.75));
        assert!((d - 0.25).abs() < 1e-9, "{d}");
    }
}

#[cfg(test)]
mod depth_noise_tests {
    use super::*;

    #[test]
    fn depth_noise_grows_with_range() {
        let scene = Scene {
            planes: vec![Plane::new(
                Vec3::new(0.0, 0.0, 4.0),
                Vec3::new(0.0, 0.0, -1.0),
                Texture::Flat { base: 120.0 },
            )],
            boxes: vec![],
        };
        let cam = Pinhole::qvga();
        let opts = RenderOptions {
            noise_sigma: 0.0,
            depth_noise_coeff: 0.005,
            ..Default::default()
        };
        let (_, depth) = scene.render(&cam, &SE3::IDENTITY, &opts, 3);
        // rms error over the frame versus the true 4 m plane depth
        let mut sum2 = 0.0f64;
        let mut n = 0usize;
        for y in (0..240).step_by(7) {
            for x in (0..320).step_by(7) {
                if depth.is_valid(x, y) {
                    let e = depth.get(x, y) as f64 - 4.0;
                    sum2 += e * e;
                    n += 1;
                }
            }
        }
        let rms = (sum2 / n as f64).sqrt();
        // expected σ = 0.005 * 16 = 0.08 m
        assert!((0.03..0.15).contains(&rms), "depth rms {rms}");
    }

    #[test]
    fn zero_coeff_is_exact() {
        let scene = Scene {
            planes: vec![Plane::new(
                Vec3::new(0.0, 0.0, 2.0),
                Vec3::new(0.0, 0.0, -1.0),
                Texture::Flat { base: 120.0 },
            )],
            boxes: vec![],
        };
        let cam = Pinhole::qvga();
        let opts = RenderOptions {
            noise_sigma: 0.0,
            depth_noise_coeff: 0.0,
            ..Default::default()
        };
        let (_, depth) = scene.render(&cam, &SE3::IDENTITY, &opts, 0);
        assert!((depth.get(160, 120) - 2.0).abs() < 1e-5);
    }
}
