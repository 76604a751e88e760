//! Semi-dense 3D reconstruction — the "3D structural estimation" half
//! of the paper's title (Fig. 8 shows the reconstructed edge structure
//! alongside the trajectories).
//!
//! EBVO's map is the union of the keyframes' edge features lifted to
//! world coordinates: every edge pixel with a valid depth back-projects
//! through the keyframe pose. The builder deduplicates on a voxel grid
//! so revisited structure does not accumulate duplicates.

use crate::feature::Feature;
use pimvo_vomath::{Vec3, SE3};
use std::collections::HashSet;
use std::fmt::Write as _;

/// A world-frame semi-dense edge map.
#[derive(Debug, Clone, Default)]
pub struct EdgeMap3d {
    points: Vec<Vec3>,
    /// Voxel grid occupancy for deduplication.
    occupied: HashSet<(i32, i32, i32)>,
    voxel: f64,
}

impl EdgeMap3d {
    /// Creates an empty map with the given deduplication voxel size
    /// (meters).
    ///
    /// # Panics
    ///
    /// Panics for a non-positive voxel size.
    pub fn new(voxel_m: f64) -> Self {
        assert!(voxel_m > 0.0, "voxel size must be positive");
        EdgeMap3d {
            points: Vec::new(),
            occupied: HashSet::new(),
            voxel: voxel_m,
        }
    }

    /// Number of map points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when the map is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The map points (world frame).
    pub fn points(&self) -> &[Vec3] {
        &self.points
    }

    /// The deduplication voxel size (meters).
    pub fn voxel_m(&self) -> f64 {
        self.voxel
    }

    /// Rebuilds a map from a snapshot's point list: the voxel occupancy
    /// grid is reconstructed from the points themselves, so a
    /// checkpointed map deduplicates future integrations exactly as the
    /// original did. Returns `None` for a non-positive or non-finite
    /// voxel size.
    pub fn from_points(voxel_m: f64, points: Vec<Vec3>) -> Option<Self> {
        if !(voxel_m.is_finite() && voxel_m > 0.0) {
            return None;
        }
        let occupied = points
            .iter()
            .map(|p| {
                (
                    (p.x / voxel_m).floor() as i32,
                    (p.y / voxel_m).floor() as i32,
                    (p.z / voxel_m).floor() as i32,
                )
            })
            .collect();
        Some(EdgeMap3d {
            points,
            occupied,
            voxel: voxel_m,
        })
    }

    /// Integrates a keyframe's edge features: each feature back-projects
    /// to a world point through `pose_wk` (world-from-keyframe). Points
    /// landing in an occupied voxel are skipped. Returns how many points
    /// were added.
    pub fn integrate_keyframe(&mut self, features: &[Feature], pose_wk: &SE3) -> usize {
        let mut added = 0;
        for f in features {
            // camera-frame point: (a, b, 1) / c
            let p_cam = Vec3::new(f.a / f.c, f.b / f.c, 1.0 / f.c);
            let p_world = pose_wk.transform(p_cam);
            let key = (
                (p_world.x / self.voxel).floor() as i32,
                (p_world.y / self.voxel).floor() as i32,
                (p_world.z / self.voxel).floor() as i32,
            );
            if self.occupied.insert(key) {
                self.points.push(p_world);
                added += 1;
            }
        }
        added
    }

    /// Serializes the map as an ASCII PLY point cloud (viewable in
    /// MeshLab, CloudCompare, Open3D, …).
    pub fn to_ply(&self) -> String {
        let mut out = String::new();
        out.push_str("ply\nformat ascii 1.0\ncomment pimvo semi-dense edge map\n");
        writeln!(out, "element vertex {}", self.points.len()).expect("string write");
        out.push_str("property float x\nproperty float y\nproperty float z\nend_header\n");
        for p in &self.points {
            writeln!(out, "{:.4} {:.4} {:.4}", p.x, p.y, p.z).expect("string write");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimvo_vomath::Pinhole;

    #[test]
    fn backprojection_reproduces_known_geometry() {
        let cam = Pinhole::qvga();
        let mut map = EdgeMap3d::new(0.01);
        // a feature on the optical axis at 2 m, identity pose
        let f = Feature::new(cam.cx, cam.cy, 2.0, &cam);
        map.integrate_keyframe(&[f], &SE3::IDENTITY);
        assert_eq!(map.len(), 1);
        let p = map.points()[0];
        assert!((p - Vec3::new(0.0, 0.0, 2.0)).norm() < 1e-9, "{p:?}");
    }

    #[test]
    fn keyframe_pose_moves_points_to_world() {
        let cam = Pinhole::qvga();
        let mut map = EdgeMap3d::new(0.01);
        let pose = SE3::exp(&[1.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
        let f = Feature::new(cam.cx, cam.cy, 3.0, &cam);
        map.integrate_keyframe(&[f], &pose);
        let p = map.points()[0];
        assert!((p - Vec3::new(1.0, 0.0, 3.0)).norm() < 1e-9, "{p:?}");
    }

    #[test]
    fn voxel_grid_deduplicates() {
        let cam = Pinhole::qvga();
        let mut map = EdgeMap3d::new(0.05);
        let f = Feature::new(100.0, 80.0, 2.0, &cam);
        let added1 = map.integrate_keyframe(&[f], &SE3::IDENTITY);
        let added2 = map.integrate_keyframe(&[f], &SE3::IDENTITY);
        assert_eq!(added1, 1);
        assert_eq!(added2, 0);
        assert_eq!(map.len(), 1);
    }

    #[test]
    fn ply_output_is_well_formed() {
        let cam = Pinhole::qvga();
        let mut map = EdgeMap3d::new(0.01);
        for i in 0..5 {
            map.integrate_keyframe(
                &[Feature::new(50.0 + i as f64 * 30.0, 100.0, 1.5, &cam)],
                &SE3::IDENTITY,
            );
        }
        let ply = map.to_ply();
        assert!(ply.starts_with("ply\nformat ascii 1.0"));
        assert!(ply.contains("element vertex 5"));
        assert_eq!(ply.lines().count(), 8 + 5); // 8 header lines + 5 vertices
    }
}
